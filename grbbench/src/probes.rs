//! Isolated layer probes on a workload's own operands: `sparse` kernels
//! called directly, the same product through `core`, an empty `exec`
//! pool scope, a write batch, and a STREAM-triad bandwidth anchor.

use std::hint::black_box;
use std::time::{Duration, Instant};

use graphblas_core::operations::vxm;
use graphblas_core::{no_mask_v, Descriptor, Matrix, Semiring, Vector, WaitMode};
use graphblas_sparse::coo::Coo;
use graphblas_sparse::csr::Csr;
use graphblas_sparse::svec::SparseVec;

use crate::inputs::{self, sub_seed};
use crate::oracle::Neighbors;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{Kind, Workload, STREAM_BATCH};

/// Median seconds of every probe plus the sizes its rates are computed
/// from. Byte and flop counts are computed from array sizes, not
/// measured by hardware counters.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub sparse_vxm_s: f64,
    pub core_vxm_s: f64,
    /// Bytes the product reads from the CSR (the input's rows) plus the
    /// input and output vectors.
    pub vxm_bytes: f64,
    pub spgemm_masked_s: f64,
    /// Multiplies of the masked product before masking: Σ over `L(i,k)`
    /// of `|L(k,:)|`.
    pub spgemm_flops: f64,
    pub scope_s: f64,
    pub triad_bytes_per_s: f64,
    /// Bytes of each of the three triad arrays.
    pub triad_array_bytes: u64,
    pub set_element_s: f64,
    pub materialize_s: f64,
    pub coo_to_csr_s: f64,
    pub transpose_s: f64,
    /// Probe outputs that disagreed with the references.
    pub mismatches: Vec<String>,
}

/// Repeats `f` at least once, up to `max` times, while `budget` lasts;
/// returns the median of the seconds `f` reports.
fn sample(budget: Duration, max: usize, mut f: impl FnMut() -> f64) -> f64 {
    let t0 = Instant::now();
    let mut xs = Vec::new();
    while xs.is_empty() || (xs.len() < max && t0.elapsed() < budget) {
        xs.push(f());
    }
    median(&xs)
}

/// Times `f` inside a span for the call.
fn timed<R>(
    tr: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    round: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let r = tr.span(name, layer, round, f);
    (r, t.elapsed().as_secs_f64())
}

/// `a` as a CSR of `f64` ones, from the reference adjacency.
fn csr_ones(w: &Workload) -> Csr<f64> {
    let (indptr, indices) = w.adj().csr_parts();
    Csr::from_parts(
        w.n(),
        w.n(),
        indptr.to_vec(),
        indices.to_vec(),
        vec![1.0; indices.len()],
    )
    .expect("reference adjacency is a valid CSR")
}

/// The strictly lower triangle of `a` as a boolean CSR.
fn tril(w: &Workload) -> Csr<bool> {
    let g = w.adj();
    let mut indptr = vec![0];
    let mut indices = Vec::new();
    for v in 0..g.n() {
        indices.extend(g.row(v).iter().take_while(|&&u| u < v));
        indptr.push(indices.len());
    }
    let nnz = indices.len();
    Csr::from_parts(g.n(), g.n(), indptr, indices, vec![true; nnz]).expect("tril is a valid CSR")
}

/// The `vxm` input: the dense uniform vector, or for `bfs` the frontier
/// after the first level from its first source.
fn vxm_input(w: &Workload) -> SparseVec<f64> {
    let n = w.n();
    let (idx, vals) = if w.kind == Kind::Bfs {
        let row = w.adj().row(w.sources[0]).to_vec();
        let len = row.len();
        (row, vec![1.0; len])
    } else {
        ((0..n).collect(), vec![1.0 / n as f64; n])
    };
    SparseVec::from_parts(n, idx, vals).expect("valid vxm input")
}

/// A STREAM triad `a = b + q·c` over pool-width chunks, each array at
/// least four times the last-level cache. Returns (bytes/s, array bytes).
pub fn triad(llc_bytes: u64, tr: &mut Tracer, round: u64) -> (f64, u64) {
    let pool = graphblas_exec::global_pool();
    let width = pool.size();
    let len = (4 * llc_bytes.max(1 << 20) / 8) as usize;
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    let chunk = len.div_ceil(width);
    // First touch on the pool so pages land where the workers run.
    pool.scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let bytes = 3.0 * (len * 8) as f64;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let ((), secs) = timed(tr, "exec.triad", "exec", round, || {
            pool.scope(|s| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    s.spawn(move || {
                        for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                            *x = y + 3.0 * z;
                        }
                    });
                }
            })
        });
        rates.push(bytes / secs);
    }
    black_box(&a);
    (median(&rates), (len * 8) as u64)
}

/// Runs every probe on `w`, splitting `budget` between them.
pub fn run(w: &Workload, llc_bytes: u64, budget: Duration, tr: &mut Tracer) -> Probes {
    let mut p = Probes::default();
    let ctx = w.ctx.clone();
    let share = budget / 8;
    let mut round = 0u64;
    let mut next_round = || {
        round += 1;
        round
    };

    // sparse vxm against the same product through core.
    let csr = csr_ones(w);
    let x = vxm_input(w);
    let y = graphblas_sparse::spmv::vxm(&ctx, &x, &csr, |a: &f64, b: &f64| a * b, |a, b| a + b);
    // Bytes of the slices the push product reads: two row pointers and
    // the (index, value) pairs of every frontier row, plus both vectors.
    let (indptr, _) = w.adj().csr_parts();
    let row_entries: usize = x.indices().iter().map(|&i| indptr[i + 1] - indptr[i]).sum();
    let word = std::mem::size_of::<usize>();
    p.vxm_bytes =
        (x.nnz() * 2 * word + row_entries * (word + 8)) as f64 + (x.bytes() + y.bytes()) as f64;
    p.sparse_vxm_s = sample(share, 50, || {
        let r = next_round();
        let root = tr.begin("probe", "bench", r);
        let (y, s) = timed(tr, "sparse.vxm", "sparse", r, || {
            graphblas_sparse::spmv::vxm(&ctx, &x, &csr, |a: &f64, b: &f64| a * b, |a, b| a + b)
        });
        black_box(y);
        tr.end(root);
        s
    });
    let (ri, ci, vals) = {
        let (indptr, indices) = w.adj().csr_parts();
        let rows = (0..w.n())
            .flat_map(|v| std::iter::repeat_n(v, indptr[v + 1] - indptr[v]))
            .collect::<Vec<_>>();
        (rows, indices.to_vec(), vec![1.0f64; indices.len()])
    };
    let m = Matrix::<f64>::new_in(&ctx, w.n(), w.n()).expect("probe matrix");
    m.build(&ri, &ci, &vals, None).expect("probe matrix build");
    m.wait(WaitMode::Materialize)
        .expect("probe matrix materialize");
    let u = Vector::<f64>::new_in(&ctx, w.n()).expect("probe vector");
    u.build(x.indices(), x.values(), None)
        .expect("probe vector build");
    u.wait(WaitMode::Materialize)
        .expect("probe vector materialize");
    let out = Vector::<f64>::new_in(&ctx, w.n()).expect("probe output");
    let sr = Semiring::<f64, f64, f64>::plus_times();
    let core_vxm = || -> graphblas_core::GrbResult<()> {
        vxm(&out, no_mask_v(), None, &sr, &u, &m, &Descriptor::default())?;
        out.wait(WaitMode::Complete)
    };
    let mut core_ok = core_vxm().is_ok(); // fills the transpose cache
    p.core_vxm_s = sample(share, 50, || {
        let r = next_round();
        let root = tr.begin("probe", "bench", r);
        let (res, s) = timed(tr, "core.vxm", "core", r, core_vxm);
        core_ok &= res.is_ok();
        tr.end(root);
        s
    });
    match out.nvals() {
        Ok(nv) if core_ok && nv == y.nnz() => {}
        other => p.mismatches.push(format!(
            "core vxm disagrees with sparse vxm ({other:?} vs {} entries)",
            y.nnz()
        )),
    }
    drop((m, u, out, ri, ci, vals));

    // An empty pool scope spawning one no-op task per worker.
    let pool = graphblas_exec::global_pool();
    let r = next_round();
    let root = tr.begin("probe", "bench", r);
    let mut xs = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let (_, s) = timed(tr, "exec.scope", "exec", r, || {
            pool.scope(|s| {
                for _ in 0..pool.size() {
                    s.spawn(|| {});
                }
            })
        });
        xs.push(s);
    }
    tr.end(root);
    p.scope_s = median(&xs);

    // Masked SpGEMM of the triangle count on the strictly lower triangle.
    let l = tril(w);
    p.spgemm_flops = (0..l.nrows())
        .map(|i| l.row(i).0.iter().map(|&k| l.row_nnz(k) as f64).sum::<f64>())
        .sum();
    let mut count = None;
    p.spgemm_masked_s = sample(share, 10, || {
        let r = next_round();
        let root = tr.begin("probe", "bench", r);
        let (c, s) = timed(tr, "sparse.spgemm_masked", "sparse", r, || {
            graphblas_sparse::spgemm::spgemm_masked(
                &ctx,
                &l,
                false,
                |_: &bool| true,
                &l,
                &l,
                |_: &bool, _: &bool| 1u64,
                |acc: &mut u64, z: u64| *acc += z,
            )
        });
        count = Some(c.values().iter().sum::<u64>());
        tr.end(root);
        s
    });
    if let (Some(want), Some(got)) = (w.expected_triangles(), count) {
        if want != got {
            p.mismatches.push(format!(
                "masked spgemm counted {got} triangles, reference {want}"
            ));
        }
    }
    drop(l);

    // A write batch on a copy of the workload's matrix, then the
    // materialization that canonicalizes it.
    let random;
    let batch = match w.next_batch() {
        Some(b) => b,
        None => {
            random = inputs::random_pairs(w.n(), STREAM_BATCH, sub_seed(w.seed, 7));
            &random
        }
    };
    let mut mat = Vec::new();
    p.set_element_s = sample(share, 10, || {
        let r = next_round();
        let root = tr.begin("probe", "bench", r);
        let a = w.a.dup().expect("probe dup");
        let (res, s) = timed(
            tr,
            "core.set_element_batch",
            "core",
            r,
            || -> graphblas_core::GrbResult<()> {
                for &(u, v) in batch {
                    a.set_element(true, u, v)?;
                    a.set_element(true, v, u)?;
                }
                Ok(())
            },
        );
        let (res2, s2) = timed(tr, "core.wait", "core", r, || a.wait(WaitMode::Materialize));
        if res.and(res2).is_err() {
            p.mismatches
                .push("set_element probe returned an error".into());
        }
        mat.push(s2);
        tr.end(root);
        s
    });
    p.materialize_s = median(&mat);

    // COO → CSR of the generated edge list (duplicates included, as
    // `build` receives it), and a transpose of the canonical CSR.
    let e = &w.edges;
    let coo = Coo::from_parts(e.n, e.n, e.src.clone(), e.dst.clone(), vec![true; e.len()])
        .expect("probe coo");
    let lor = |a: &bool, b: &bool| *a || *b;
    p.coo_to_csr_s = sample(share, 10, || {
        let r = next_round();
        let root = tr.begin("probe", "bench", r);
        let (c, s) = timed(tr, "sparse.coo_to_csr", "sparse", r, || {
            graphblas_sparse::convert::coo_to_csr(&ctx, &coo, Some(&lor))
        });
        if c.map(|c| c.nnz()).ok() != Some(w.adj().nnz()) {
            p.mismatches
                .push("coo_to_csr probe disagrees with the reference adjacency".into());
        }
        tr.end(root);
        s
    });
    drop(coo);
    let csr_b = csr.map(&ctx, |_| true);
    drop(csr);
    p.transpose_s = sample(share, 10, || {
        let r = next_round();
        let root = tr.begin("probe", "bench", r);
        let (t, s) = timed(tr, "sparse.transpose", "sparse", r, || {
            graphblas_sparse::transpose::transpose(&ctx, &csr_b)
        });
        black_box(t);
        tr.end(root);
        s
    });
    drop(csr_b);

    // The bandwidth anchor, last: its arrays are the largest allocation.
    let (bw, arr) = triad(llc_bytes, tr, next_round());
    p.triad_bytes_per_s = bw;
    p.triad_array_bytes = arr;
    p
}
