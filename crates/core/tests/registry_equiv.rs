//! Static-vs-dyn dispatch equivalence for the kernel registry
//! (`core::ops::registry`), pair by pair: every registered semiring ×
//! type row is run through `mxv` (pull, including a chained hop so a
//! bitmap-stored frontier is consumed natively), `vxm` (push), and `mxm`
//! (unmasked and masked), once with the registry forced on and once
//! forced down the `Arc<dyn Fn>` fallback, and the results must match
//! exactly. The registered element-wise binops, unary ops, and reduce
//! monoids get the same treatment through `ewise_add_v`/`ewise_mult_v`,
//! `apply_v`, and `reduce_to_value_v`. Masked PLUS.PAIR into integer
//! counts, whose static arm is a different (value-free) kernel, is also
//! checked against a naive reference across the `mxm` write-back cases.
//!
//! Both dispatch modes run the same kernel algorithm over the same
//! partitioning, so even float results must agree to the last bit; the
//! seeded inputs avoid NaN and negative zero, making `==` equality
//! equivalent to byte equality.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Mutex;

use graphblas_core::operations::{
    apply_v, ewise_add_v, ewise_mult_v, mxm, mxv, reduce_to_value_v, vxm,
};
use graphblas_core::ops::registry;
use graphblas_core::types::{One, Zero};
use graphblas_core::{
    no_mask, no_mask_v, BinaryOp, Descriptor, Matrix, Monoid, Semiring, UnaryOp, ValueType, Vector,
};
use graphblas_exec::rng::prelude::*;

const N: usize = 48;

/// `force_dispatch` is process-global state; every equivalence check
/// holds this lock across its static and dyn runs so the test binary's
/// parallel test threads cannot interleave dispatch modes.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once under forced-static and once under forced-dyn dispatch,
/// restoring the environment default before returning both results.
fn run_both<R>(f: impl Fn() -> R) -> (R, R) {
    let _g = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    registry::force_dispatch(Some(true));
    let s = f();
    registry::force_dispatch(Some(false));
    let d = f();
    registry::force_dispatch(None);
    (s, d)
}

fn mat_from<T: ValueType>(seed: u64, gen: &mut impl FnMut(&mut StdRng) -> T) -> Matrix<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e: BTreeMap<(usize, usize), T> = BTreeMap::new();
    for _ in 0..N * 6 {
        let (i, j) = (rng.gen_range(0..N), rng.gen_range(0..N));
        e.insert((i, j), gen(&mut rng));
    }
    let m = Matrix::<T>::new(N, N).unwrap();
    m.build(
        &e.keys().map(|k| k.0).collect::<Vec<_>>(),
        &e.keys().map(|k| k.1).collect::<Vec<_>>(),
        &e.values().cloned().collect::<Vec<_>>(),
        None,
    )
    .unwrap();
    m
}

fn vec_from<T: ValueType>(
    nnz: usize,
    seed: u64,
    gen: &mut impl FnMut(&mut StdRng) -> T,
) -> Vector<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..N).collect();
    idx.shuffle(&mut rng);
    idx.truncate(nnz);
    idx.sort_unstable();
    let vals: Vec<T> = idx.iter().map(|_| gen(&mut rng)).collect();
    let v = Vector::<T>::new(N).unwrap();
    v.build(&idx, &vals, None).unwrap();
    v
}

fn bool_mask(seed: u64) -> Matrix<bool> {
    mat_from(seed, &mut |_rng: &mut StdRng| true)
}

/// One registered semiring × type row through every matrix-vector and
/// matrix-matrix kernel the registry claims.
fn check_semiring<T>(
    name: &str,
    sr: &Semiring<T, T, T>,
    seed: u64,
    gen: &mut impl FnMut(&mut StdRng) -> T,
) where
    T: ValueType + PartialEq + Debug,
{
    let a = mat_from(seed, gen);
    let b = mat_from(seed ^ 0xB, gen);
    // Dense-ish input drives the pull (spmv) kernel; the mid-density hop
    // result may be stored in bitmap format, so the second hop also
    // covers the bitmap-frontier spmv instantiation.
    let xd = vec_from(N * 4 / 5, seed ^ 1, gen);
    // A few entries drive the push (vxm) kernel.
    let xs = vec_from(4, seed ^ 2, gen);
    let mask = bool_mask(seed ^ 3);

    let (s, d) = run_both(|| {
        let y = Vector::<T>::new(N).unwrap();
        mxv(&y, no_mask_v(), None, sr, &a, &xd, &Descriptor::default()).unwrap();
        let z = Vector::<T>::new(N).unwrap();
        mxv(&z, no_mask_v(), None, sr, &a, &y, &Descriptor::default()).unwrap();
        (y.extract_tuples().unwrap(), z.extract_tuples().unwrap())
    });
    assert_eq!(s, d, "mxv pull / bitmap-frontier chain disagrees: {name}");

    let (s, d) = run_both(|| {
        let y = Vector::<T>::new(N).unwrap();
        vxm(&y, no_mask_v(), None, sr, &xs, &a, &Descriptor::default()).unwrap();
        y.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "vxm push disagrees: {name}");

    let (s, d) = run_both(|| {
        let c = Matrix::<T>::new(N, N).unwrap();
        mxm(&c, no_mask(), None, sr, &a, &b, &Descriptor::default()).unwrap();
        c.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "mxm disagrees: {name}");

    let (s, d) = run_both(|| {
        let c = Matrix::<T>::new(N, N).unwrap();
        mxm(&c, Some(&mask), None, sr, &a, &b, &Descriptor::default()).unwrap();
        c.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "masked mxm disagrees: {name}");
}

fn gen_f64(rng: &mut StdRng) -> f64 {
    rng.gen_range(0.25..4.0)
}
fn gen_f32(rng: &mut StdRng) -> f32 {
    rng.gen_range(0.25f32..4.0)
}
fn gen_i64(rng: &mut StdRng) -> i64 {
    rng.gen_range(-9..10)
}
fn gen_u64(rng: &mut StdRng) -> u64 {
    rng.gen_range(0..10)
}
fn gen_bool(rng: &mut StdRng) -> bool {
    rng.gen_bool(0.5)
}

#[test]
fn plus_times_every_registered_type() {
    check_semiring(
        "plus_times f64",
        &Semiring::<f64, f64, f64>::plus_times(),
        0xA0,
        &mut gen_f64,
    );
    check_semiring(
        "plus_times f32",
        &Semiring::<f32, f32, f32>::plus_times(),
        0xA1,
        &mut gen_f32,
    );
    check_semiring(
        "plus_times i64",
        &Semiring::<i64, i64, i64>::plus_times(),
        0xA2,
        &mut gen_i64,
    );
    check_semiring(
        "plus_times u64",
        &Semiring::<u64, u64, u64>::plus_times(),
        0xA3,
        &mut gen_u64,
    );
}

#[test]
fn min_plus_every_registered_type() {
    check_semiring(
        "min_plus f64",
        &Semiring::<f64, f64, f64>::min_plus(),
        0xB0,
        &mut gen_f64,
    );
    check_semiring(
        "min_plus f32",
        &Semiring::<f32, f32, f32>::min_plus(),
        0xB1,
        &mut gen_f32,
    );
    check_semiring(
        "min_plus i64",
        &Semiring::<i64, i64, i64>::min_plus(),
        0xB2,
        &mut gen_i64,
    );
    check_semiring(
        "min_plus u64",
        &Semiring::<u64, u64, u64>::min_plus(),
        0xB3,
        &mut gen_u64,
    );
}

#[test]
fn max_plus_every_registered_type() {
    check_semiring(
        "max_plus f64",
        &Semiring::<f64, f64, f64>::max_plus(),
        0xC0,
        &mut gen_f64,
    );
    check_semiring(
        "max_plus f32",
        &Semiring::<f32, f32, f32>::max_plus(),
        0xC1,
        &mut gen_f32,
    );
    check_semiring(
        "max_plus i64",
        &Semiring::<i64, i64, i64>::max_plus(),
        0xC2,
        &mut gen_i64,
    );
    check_semiring(
        "max_plus u64",
        &Semiring::<u64, u64, u64>::max_plus(),
        0xC3,
        &mut gen_u64,
    );
}

#[test]
fn boolean_semirings() {
    check_semiring(
        "lor_land bool",
        &Semiring::<bool, bool, bool>::lor_land(),
        0xD0,
        &mut gen_bool,
    );
    // ANY is only deterministic because OneB yields the same witness value
    // for every match — which is exactly why the pair is registrable.
    check_semiring(
        "any_pair bool",
        &Semiring::<bool, bool, bool>::any_pair(),
        0xD1,
        &mut gen_bool,
    );
}

/// One registered element-wise binop × type row through union and
/// intersection semantics.
fn check_binop<T>(
    name: &str,
    op: &BinaryOp<T, T, T>,
    seed: u64,
    gen: &mut impl FnMut(&mut StdRng) -> T,
) where
    T: ValueType + PartialEq + Debug,
{
    let u = vec_from(N / 2, seed, gen);
    let v = vec_from(N / 2, seed ^ 1, gen);

    let (s, d) = run_both(|| {
        let w = Vector::<T>::new(N).unwrap();
        ewise_add_v(&w, no_mask_v(), None, op, &u, &v, &Descriptor::default()).unwrap();
        w.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "ewise_add disagrees: {name}");

    let (s, d) = run_both(|| {
        let w = Vector::<T>::new(N).unwrap();
        ewise_mult_v(&w, no_mask_v(), None, op, &u, &v, &Descriptor::default()).unwrap();
        w.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "ewise_mult disagrees: {name}");
}

#[test]
fn ewise_binops_every_registered_pair() {
    check_binop(
        "plus f64",
        &BinaryOp::<f64, f64, f64>::plus(),
        0x10,
        &mut gen_f64,
    );
    check_binop(
        "plus f32",
        &BinaryOp::<f32, f32, f32>::plus(),
        0x11,
        &mut gen_f32,
    );
    check_binop(
        "plus i64",
        &BinaryOp::<i64, i64, i64>::plus(),
        0x12,
        &mut gen_i64,
    );
    check_binop(
        "plus u64",
        &BinaryOp::<u64, u64, u64>::plus(),
        0x13,
        &mut gen_u64,
    );
    check_binop(
        "times f64",
        &BinaryOp::<f64, f64, f64>::times(),
        0x14,
        &mut gen_f64,
    );
    check_binop(
        "times f32",
        &BinaryOp::<f32, f32, f32>::times(),
        0x15,
        &mut gen_f32,
    );
    check_binop(
        "times i64",
        &BinaryOp::<i64, i64, i64>::times(),
        0x16,
        &mut gen_i64,
    );
    check_binop(
        "times u64",
        &BinaryOp::<u64, u64, u64>::times(),
        0x17,
        &mut gen_u64,
    );
    check_binop(
        "min f64",
        &BinaryOp::<f64, f64, f64>::min(),
        0x18,
        &mut gen_f64,
    );
    check_binop(
        "min f32",
        &BinaryOp::<f32, f32, f32>::min(),
        0x19,
        &mut gen_f32,
    );
    check_binop(
        "min i64",
        &BinaryOp::<i64, i64, i64>::min(),
        0x1A,
        &mut gen_i64,
    );
    check_binop(
        "min u64",
        &BinaryOp::<u64, u64, u64>::min(),
        0x1B,
        &mut gen_u64,
    );
    check_binop(
        "max f64",
        &BinaryOp::<f64, f64, f64>::max(),
        0x1C,
        &mut gen_f64,
    );
    check_binop(
        "max f32",
        &BinaryOp::<f32, f32, f32>::max(),
        0x1D,
        &mut gen_f32,
    );
    check_binop(
        "max i64",
        &BinaryOp::<i64, i64, i64>::max(),
        0x1E,
        &mut gen_i64,
    );
    check_binop(
        "max u64",
        &BinaryOp::<u64, u64, u64>::max(),
        0x1F,
        &mut gen_u64,
    );
    check_binop(
        "lor bool",
        &BinaryOp::<bool, bool, bool>::lor(),
        0x20,
        &mut gen_bool,
    );
    check_binop(
        "land bool",
        &BinaryOp::<bool, bool, bool>::land(),
        0x21,
        &mut gen_bool,
    );
}

/// One registered unary op × type row through `apply_v` (distinct output
/// container, so the apply kernel — not the in-place map fast path —
/// runs).
fn check_unop<T>(name: &str, op: &UnaryOp<T, T>, seed: u64, gen: &mut impl FnMut(&mut StdRng) -> T)
where
    T: ValueType + PartialEq + Debug,
{
    let u = vec_from(N * 2 / 3, seed, gen);
    let (s, d) = run_both(|| {
        let w = Vector::<T>::new(N).unwrap();
        apply_v(&w, no_mask_v(), None, op, &u, &Descriptor::default()).unwrap();
        w.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "apply disagrees: {name}");
}

#[test]
fn apply_unops_every_registered_pair() {
    check_unop(
        "identity f64",
        &UnaryOp::<f64, f64>::identity(),
        0x30,
        &mut gen_f64,
    );
    check_unop(
        "identity f32",
        &UnaryOp::<f32, f32>::identity(),
        0x31,
        &mut gen_f32,
    );
    check_unop(
        "identity i64",
        &UnaryOp::<i64, i64>::identity(),
        0x32,
        &mut gen_i64,
    );
    check_unop(
        "identity u64",
        &UnaryOp::<u64, u64>::identity(),
        0x33,
        &mut gen_u64,
    );
    check_unop(
        "identity bool",
        &UnaryOp::<bool, bool>::identity(),
        0x34,
        &mut gen_bool,
    );
    check_unop("ainv f64", &UnaryOp::<f64, f64>::ainv(), 0x35, &mut gen_f64);
    check_unop("ainv f32", &UnaryOp::<f32, f32>::ainv(), 0x36, &mut gen_f32);
    check_unop("ainv i64", &UnaryOp::<i64, i64>::ainv(), 0x37, &mut gen_i64);
    check_unop("abs f64", &UnaryOp::<f64, f64>::abs(), 0x38, &mut gen_f64);
    check_unop("abs f32", &UnaryOp::<f32, f32>::abs(), 0x39, &mut gen_f32);
    check_unop("abs i64", &UnaryOp::<i64, i64>::abs(), 0x3A, &mut gen_i64);
    check_unop(
        "lnot bool",
        &UnaryOp::<bool, bool>::lnot(),
        0x3B,
        &mut gen_bool,
    );
}

/// One registered reduce monoid × type row through `reduce_to_value_v`.
fn check_reduce<T>(name: &str, m: &Monoid<T>, seed: u64, gen: &mut impl FnMut(&mut StdRng) -> T)
where
    T: ValueType + PartialEq + Debug,
{
    let u = vec_from(N * 3 / 4, seed, gen);
    let (s, d) = run_both(|| reduce_to_value_v(m, &u).unwrap());
    assert_eq!(s, d, "reduce disagrees: {name}");
}

#[test]
fn reduce_monoids_every_registered_pair() {
    check_reduce("plus f64", &Monoid::<f64>::plus(), 0x40, &mut gen_f64);
    check_reduce("plus f32", &Monoid::<f32>::plus(), 0x41, &mut gen_f32);
    check_reduce("plus i64", &Monoid::<i64>::plus(), 0x42, &mut gen_i64);
    check_reduce("plus u64", &Monoid::<u64>::plus(), 0x43, &mut gen_u64);
    check_reduce("min f64", &Monoid::<f64>::min(), 0x44, &mut gen_f64);
    check_reduce("min f32", &Monoid::<f32>::min(), 0x45, &mut gen_f32);
    check_reduce("min i64", &Monoid::<i64>::min(), 0x46, &mut gen_i64);
    check_reduce("min u64", &Monoid::<u64>::min(), 0x47, &mut gen_u64);
    check_reduce("max f64", &Monoid::<f64>::max(), 0x48, &mut gen_f64);
    check_reduce("max f32", &Monoid::<f32>::max(), 0x49, &mut gen_f32);
    check_reduce("max i64", &Monoid::<i64>::max(), 0x4A, &mut gen_i64);
    check_reduce("max u64", &Monoid::<u64>::max(), 0x4B, &mut gen_u64);
    check_reduce("lor bool", &Monoid::<bool>::lor(), 0x4C, &mut gen_bool);
    // ANY may legitimately return any element, so the equivalence only
    // holds over a uniform vector — which still proves both paths run.
    check_reduce(
        "any bool",
        &Monoid::<bool>::any(),
        0x4D,
        &mut |_rng: &mut StdRng| true,
    );
}

/// Masked PLUS.PAIR `mxm` into an integer count type — claimed by the
/// value-free counting kernel under a non-complemented mask without an
/// accumulator, by the generic kernel otherwise. Each write-back case is
/// run static and forced-`dyn`, and both must equal a naive reference of
/// the spec's `C⟨M, r⟩ = C ⊙ T` rule.
fn check_plus_pair<A, B, Z>(
    name: &str,
    seed: u64,
    gen_a: &mut impl FnMut(&mut StdRng) -> A,
    gen_b: &mut impl FnMut(&mut StdRng) -> B,
    count: impl Fn(u64) -> Z,
) where
    A: ValueType,
    B: ValueType,
    Z: ValueType + PartialEq + Debug + Copy + std::ops::Add<Output = Z> + Zero + One,
{
    let sr = Semiring::<A, B, Z>::plus_pair();
    let plus = BinaryOp::<Z, Z, Z>::plus();
    let a = mat_from(seed, gen_a);
    let b = mat_from(seed ^ 0xB, gen_b);
    // Mask values are random, so a value mask holds `false` entries.
    let mask = mat_from(seed ^ 3, &mut gen_bool);
    let old = mat_from(seed ^ 4, &mut |rng: &mut StdRng| count(rng.gen_range(1..9)));

    let (mr, mc, mv) = mask.extract_tuples().unwrap();
    let mask_e: BTreeMap<(usize, usize), bool> = mr.into_iter().zip(mc).zip(mv).collect();
    let (ar, ac, _) = a.extract_tuples().unwrap();
    let (br, bc, _) = b.extract_tuples().unwrap();
    let mut t: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (&i, &k) in ar.iter().zip(&ac) {
        for (&k2, &j) in br.iter().zip(&bc) {
            if k == k2 {
                *t.entry((i, j)).or_insert(0) += 1;
            }
        }
    }
    let (or, oc, ov) = old.extract_tuples().unwrap();
    let old_e: BTreeMap<(usize, usize), Z> = or.into_iter().zip(oc).zip(ov).collect();

    struct Case {
        label: &'static str,
        desc: Descriptor,
        accum: bool,
        old: bool,
    }
    let cases = [
        Case {
            label: "structure mask",
            desc: Descriptor::new().structure_mask(),
            accum: false,
            old: false,
        },
        Case {
            label: "value mask with false entries",
            desc: Descriptor::default(),
            accum: false,
            old: false,
        },
        Case {
            label: "complemented mask",
            desc: Descriptor::new().complement_mask(),
            accum: false,
            old: false,
        },
        Case {
            label: "accumulator",
            desc: Descriptor::new().structure_mask(),
            accum: true,
            old: true,
        },
        Case {
            label: "replace over a non-empty C",
            desc: Descriptor::new().replace(),
            accum: false,
            old: true,
        },
        Case {
            label: "merge into a non-empty C",
            desc: Descriptor::new().structure_mask(),
            accum: false,
            old: true,
        },
    ];
    for case in &cases {
        let (s, d) = run_both(|| {
            let c = if case.old {
                old.dup().unwrap()
            } else {
                Matrix::<Z>::new(N, N).unwrap()
            };
            let accum = case.accum.then_some(&plus);
            mxm(&c, Some(&mask), accum, &sr, &a, &b, &case.desc).unwrap();
            c.extract_tuples().unwrap()
        });
        assert_eq!(s, d, "masked plus_pair disagrees: {name}, {}", case.label);

        let allowed = |p: &(usize, usize)| {
            let inside = match mask_e.get(p) {
                Some(&v) => v || case.desc.mask_structure,
                None => false,
            };
            inside != case.desc.mask_complement
        };
        let mut expect: BTreeMap<(usize, usize), Z> = BTreeMap::new();
        for (p, &n) in &t {
            if allowed(p) {
                expect.insert(*p, count(n));
            }
        }
        if case.old {
            for (p, &v) in &old_e {
                if allowed(p) {
                    // Inside the mask an old entry survives only through
                    // the accumulator: `accum(C, T)`.
                    if case.accum {
                        let e = expect.entry(*p).or_insert(v);
                        if t.contains_key(p) {
                            *e = v + *e;
                        }
                    }
                } else if !case.desc.replace {
                    expect.insert(*p, v);
                }
            }
        }
        let (r, c, v) = s;
        let got: BTreeMap<(usize, usize), Z> = r.into_iter().zip(c).zip(v).collect();
        assert_eq!(got, expect, "masked plus_pair wrong: {name}, {}", case.label);
    }
}

#[test]
fn masked_plus_pair_counts_every_write_back() {
    check_plus_pair("bool,bool→u64", 0xE0, &mut gen_bool, &mut gen_bool, |n| n);
    check_plus_pair("i64,i64→u64", 0xE1, &mut gen_i64, &mut gen_i64, |n| n);
    check_plus_pair("f64,f64→i64", 0xE2, &mut gen_f64, &mut gen_f64, |n| n as i64);
}
