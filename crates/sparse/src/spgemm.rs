//! Sparse matrix-matrix multiplication (Gustavson's algorithm).
//!
//! Row-parallel: row `i` of `C = A ⊕.⊗ B` is the ⊕-combination of rows of
//! `B` selected and ⊗-scaled by row `i` of `A`, accumulated in a per-task
//! sparse accumulator checked out of the thread's workspace cache
//! (`exec::workspace::DenseAcc` — generation-stamped dense table + touched
//! list, so clearing is O(row nnz), not O(ncols), and iterative callers
//! reuse the allocation across kernel invocations).
//!
//! Work is partitioned by *flops* (Σ over a-entries of the touched b-row
//! lengths), not row count — essential for power-law graphs.
//!
//! [`spgemm_masked`] additionally takes an output-structure mask and only
//! accumulates positions the mask allows. With `complement = false` this
//! is the `C⟨M⟩ = A ⊕.⊗ B` pattern that makes masked triangle counting
//! cheap (never materializing A·B outside the mask's structure).
//!
//! [`spgemm_masked_pair`] is the value-free form of that pattern for the
//! PLUS.PAIR semiring: it counts, per allowed mask position, how many
//! `k` have both `A(i,k)` and `B(k,j)`, and never reads a value.

use std::ops::Range;

use graphblas_exec::workspace::{self, BitSet, DenseAcc, SlotTable};
use graphblas_exec::{parallel_map_chunks, parallel_map_ranges, partition, Context};

use crate::csr::Csr;
use crate::util;

/// Flop-weighted row ranges for `A · B`. The per-row flop counts are
/// gathered in parallel chunks; only the prefix sum is sequential.
fn flop_ranges<A: Sync, B: Sync>(ctx: &Context, a: &Csr<A>, b: &Csr<B>) -> Vec<Range<usize>> {
    let nrows = a.nrows();
    if nrows == 0 {
        return Vec::new();
    }
    let chunks = parallel_map_chunks(ctx, nrows, |rows: Range<usize>| {
        rows.map(|i| {
            let (cols, _) = a.row(i);
            let row_flops: usize = cols.iter().map(|&k| b.row_nnz(k)).sum();
            row_flops + 1 // keep ranges nonempty even for all-empty rows
        })
        .collect::<Vec<usize>>()
    });
    let mut flops = Vec::with_capacity(nrows + 1);
    flops.push(0usize);
    let mut acc = 0usize;
    for (_, counts) in chunks {
        for c in counts {
            acc += c;
            flops.push(acc);
        }
    }
    let total = flops[nrows];
    let k = ctx
        .effective_threads()
        .min(total.div_ceil(ctx.chunk_size()).max(1))
        .min(nrows)
        .max(1);
    partition::prefix_balanced_ranges(&flops, k)
}

/// `C = A ⊕.⊗ B`. `add` accumulates in place (`acc ⊕= z`). Output rows are
/// produced unsorted (`rows_sorted == false`), matching the latitude the
/// import/export spec gives and letting `wait(MATERIALIZE)` carry the cost.
pub fn spgemm<A, B, Z, FM, FA>(
    ctx: &Context,
    a: &Csr<A>,
    b: &Csr<B>,
    mul: FM,
    add: FA,
) -> Csr<Z>
where
    A: Clone + Send + Sync,
    B: Clone + Send + Sync,
    Z: Clone + Send + Sync + 'static,
    FM: Fn(&A, &B) -> Z + Sync,
    FA: Fn(&mut Z, Z) + Sync,
{
    assert_eq!(a.ncols(), b.nrows(), "spgemm: inner dimension mismatch");
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::SpGemm, ctx.id());
    let (m, n) = (a.nrows(), b.ncols());
    if m == 0 || n == 0 || a.nnz() == 0 || b.nnz() == 0 {
        return Csr::empty(m, n);
    }
    if sp.active() {
        sp.io(
            count_flops(a, b),
            (a.nnz() + b.nnz()) as u64,
            0,
            ((a.nnz() + b.nnz()) * (std::mem::size_of::<usize>() * 2)) as u64,
        );
    }
    let ranges = {
        let _ph = graphblas_obs::timeline::phase("spgemm.symbolic");
        flop_ranges(ctx, a, b)
    };
    let numeric = graphblas_obs::timeline::phase("spgemm.numeric");
    let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
        let _task = graphblas_obs::timeline::phase("spgemm.numeric.task");
        let mut spa = workspace::checkout::<DenseAcc<Z>>(n);
        let mut lens = Vec::with_capacity(rows.len());
        let mut idx = Vec::new();
        let mut vals: Vec<Z> = Vec::new();
        for i in rows.clone() {
            spa.begin_pass();
            let (acols, avals) = a.row(i);
            for (&k, av) in acols.iter().zip(avals) {
                let (bcols, bvals) = b.row(k);
                for (&j, bv) in bcols.iter().zip(bvals) {
                    let prod = mul(av, bv);
                    spa.upsert(j, prod, |mut cur, new| {
                        add(&mut cur, new);
                        cur
                    });
                }
            }
            lens.push(spa.touched_len());
            spa.drain_pass(|j, v| {
                idx.push(j);
                vals.push(v);
            });
        }
        (rows, (lens, idx, vals))
    });
    drop(numeric);
    let (indptr, indices, values) = util::stitch_row_chunks(m, chunks);
    let c = Csr::from_kernel_parts(m, n, indptr, indices, values, false);
    if sp.active() {
        sp.io(0, 0, c.nnz() as u64, 0);
    }
    c
}

/// Masked SpGEMM: only positions permitted by the structure of `mask`
/// (filtered by `pred`, complemented when `complement`) are accumulated.
#[allow(clippy::too_many_arguments)] // mirrors the GrB_mxm masked signature
pub fn spgemm_masked<M, A, B, Z, FP, FM, FA>(
    ctx: &Context,
    mask: &Csr<M>,
    complement: bool,
    pred: FP,
    a: &Csr<A>,
    b: &Csr<B>,
    mul: FM,
    add: FA,
) -> Csr<Z>
where
    M: Clone + Send + Sync,
    A: Clone + Send + Sync,
    B: Clone + Send + Sync,
    Z: Clone + Send + Sync + 'static,
    FP: Fn(&M) -> bool + Sync,
    FM: Fn(&A, &B) -> Z + Sync,
    FA: Fn(&mut Z, Z) + Sync,
{
    assert_eq!(a.ncols(), b.nrows(), "spgemm: inner dimension mismatch");
    assert_eq!(mask.nrows(), a.nrows(), "spgemm: mask row mismatch");
    assert_eq!(mask.ncols(), b.ncols(), "spgemm: mask column mismatch");
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::SpGemm, ctx.id());
    let (m, n) = (a.nrows(), b.ncols());
    if m == 0 || n == 0 {
        return Csr::empty(m, n);
    }
    if sp.active() {
        sp.io(
            count_flops(a, b),
            (a.nnz() + b.nnz() + mask.nnz()) as u64,
            0,
            ((a.nnz() + b.nnz() + mask.nnz()) * (std::mem::size_of::<usize>() * 2)) as u64,
        );
    }
    let ranges = {
        let _ph = graphblas_obs::timeline::phase("spgemm.symbolic");
        flop_ranges(ctx, a, b)
    };
    let numeric = graphblas_obs::timeline::phase("spgemm.numeric");
    let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
        let _task = graphblas_obs::timeline::phase("spgemm.numeric.task");
        let mut spa = workspace::checkout::<DenseAcc<Z>>(n);
        // Word-packed set marking mask-allowed columns for this row: the
        // inner flop loop tests it per product, so the 8-per-byte packing
        // keeps it cache-resident on wide matrices.
        let mut allow = workspace::checkout::<BitSet>(n);
        let mut lens = Vec::with_capacity(rows.len());
        let mut idx = Vec::new();
        let mut vals: Vec<Z> = Vec::new();
        for i in rows.clone() {
            spa.begin_pass();
            allow.begin_pass();
            let (mcols, mvals) = mask.row(i);
            for (&j, mv) in mcols.iter().zip(mvals) {
                if pred(mv) {
                    allow.insert(j);
                }
            }
            let (acols, avals) = a.row(i);
            for (&k, av) in acols.iter().zip(avals) {
                let (bcols, bvals) = b.row(k);
                for (&j, bv) in bcols.iter().zip(bvals) {
                    if allow.contains(j) == complement {
                        continue;
                    }
                    let prod = mul(av, bv);
                    spa.upsert(j, prod, |mut cur, new| {
                        add(&mut cur, new);
                        cur
                    });
                }
            }
            lens.push(spa.touched_len());
            spa.drain_pass(|j, v| {
                idx.push(j);
                vals.push(v);
            });
        }
        (rows, (lens, idx, vals))
    });
    drop(numeric);
    let (indptr, indices, values) = util::stitch_row_chunks(m, chunks);
    let c = Csr::from_kernel_parts(m, n, indptr, indices, values, false);
    if sp.active() {
        sp.io(0, 0, c.nnz() as u64, 0);
    }
    c
}

/// Masked `C⟨M⟩ = A PLUS.PAIR B`: `C(i,j)` is the number of `k` with both
/// `A(i,k)` and `B(k,j)` stored, at the positions of `mask` that `pred`
/// allows, and only where that number is at least 1.
///
/// Per row, the allowed mask columns are marked in a dense `u32` slot
/// table (slot = 1 + count so far); each `B(k,:)` entry that lands on a
/// marked slot bumps it, and the row is emitted in mask order, so output
/// rows are sorted whenever the mask's are. No value of `A` or `B` is
/// read and no per-product accumulator call is made. Counts are bounded
/// by `a.ncols()`, which must therefore be below `u32::MAX`; every such
/// count converts to `Z` exactly.
pub fn spgemm_masked_pair<M, A, B, Z, FP>(
    ctx: &Context,
    mask: &Csr<M>,
    pred: FP,
    a: &Csr<A>,
    b: &Csr<B>,
) -> Csr<Z>
where
    M: Sync,
    A: Sync,
    B: Sync,
    Z: From<u32> + Send,
    FP: Fn(&M) -> bool + Sync,
{
    assert_eq!(a.ncols(), b.nrows(), "spgemm: inner dimension mismatch");
    assert_eq!(mask.nrows(), a.nrows(), "spgemm: mask row mismatch");
    assert_eq!(mask.ncols(), b.ncols(), "spgemm: mask column mismatch");
    assert!(a.ncols() < u32::MAX as usize, "spgemm: count exceeds u32");
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::SpGemm, ctx.id());
    let (m, n) = (a.nrows(), b.ncols());
    if m == 0 || n == 0 {
        return Csr::empty(m, n);
    }
    if sp.active() {
        sp.io(
            count_flops(a, b),
            (a.nnz() + b.nnz() + mask.nnz()) as u64,
            0,
            ((a.nnz() + b.nnz() + mask.nnz()) * std::mem::size_of::<usize>()) as u64,
        );
    }
    let ranges = {
        let _ph = graphblas_obs::timeline::phase("spgemm.symbolic");
        flop_ranges(ctx, a, b)
    };
    let numeric = graphblas_obs::timeline::phase("spgemm.numeric");
    let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
        let _task = graphblas_obs::timeline::phase("spgemm.numeric.task");
        let mut table = workspace::checkout::<SlotTable>(n);
        let slot = table.slots();
        let mut lens = Vec::with_capacity(rows.len());
        let mut idx = Vec::new();
        let mut vals: Vec<Z> = Vec::new();
        for i in rows.clone() {
            let (mcols, mvals) = mask.row(i);
            let mut marked = false;
            for (&j, mv) in mcols.iter().zip(mvals) {
                if pred(mv) {
                    slot[j] = 1;
                    marked = true;
                }
            }
            if !marked {
                lens.push(0);
                continue;
            }
            for &k in a.row(i).0 {
                for &j in b.row(k).0 {
                    // Branch-free bump of marked slots only: whether a
                    // product lands inside the mask is data-dependent and
                    // a per-product branch on it mispredicts.
                    let s = &mut slot[j];
                    *s += (*s != 0) as u32;
                }
            }
            let start = idx.len();
            for &j in mcols {
                let s = std::mem::take(&mut slot[j]);
                if s > 1 {
                    idx.push(j);
                    vals.push(Z::from(s - 1));
                }
            }
            lens.push(idx.len() - start);
        }
        table.finish();
        (rows, (lens, idx, vals))
    });
    drop(numeric);
    let (indptr, indices, values) = util::stitch_row_chunks(m, chunks);
    let c = Csr::from_kernel_parts(m, n, indptr, indices, values, mask.is_rows_sorted());
    if sp.active() {
        sp.io(0, 0, c.nnz() as u64, 0);
    }
    c
}

/// Exact semiring-multiply count for `A · B` (Σ over entries `(i,k)` of A
/// of `nnz(B(k,:))`). Only computed when a telemetry span is live.
fn count_flops<A, B>(a: &Csr<A>, b: &Csr<B>) -> u64 {
    let mut flops = 0u64;
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        for &k in cols {
            flops += b.row_nnz(k) as u64;
        }
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    fn from_tuples(shape: (usize, usize), t: &[(usize, usize, i64)]) -> Csr<i64> {
        crate::coo::Coo::from_parts(
            shape.0,
            shape.1,
            t.iter().map(|x| x.0).collect(),
            t.iter().map(|x| x.1).collect(),
            t.iter().map(|x| x.2).collect(),
        )
        .unwrap()
        .to_csr(&global_context(), None)
        .unwrap()
    }

    fn dense_mm(a: &Csr<i64>, b: &Csr<i64>) -> Vec<(usize, usize, i64)> {
        let mut out = std::collections::BTreeMap::new();
        for (i, k, av) in a.iter() {
            let (bc, bv) = b.row(k);
            for (&j, bvv) in bc.iter().zip(bv) {
                *out.entry((i, j)).or_insert(0) += av * bvv;
            }
        }
        out.into_iter().map(|((i, j), v)| (i, j, v)).collect()
    }

    #[test]
    fn small_known_product() {
        let ctx = global_context();
        let a = from_tuples((2, 3), &[(0, 0, 1), (0, 1, 2), (1, 2, 3)]);
        let b = from_tuples((3, 2), &[(0, 0, 4), (1, 0, 5), (1, 1, 6), (2, 1, 7)]);
        let c = spgemm(&ctx, &a, &b, |x, y| x * y, |acc, z| *acc += z);
        // C = [[1*4 + 2*5, 2*6], [_, 3*7]]
        assert_eq!(
            c.to_sorted_tuples(),
            vec![(0, 0, 14), (0, 1, 12), (1, 1, 21)]
        );
    }

    #[test]
    fn random_against_reference() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..5 {
            let (m, k, n) = (
                rng.gen_range(1..40),
                rng.gen_range(1..40),
                rng.gen_range(1..40),
            );
            let mk = |rows: usize, cols: usize, rng: &mut StdRng| {
                let nnz = rng.gen_range(0..rows * cols / 2 + 1);
                let mut seen = std::collections::HashSet::new();
                let mut t = Vec::new();
                for _ in 0..nnz {
                    let i = rng.gen_range(0..rows);
                    let j = rng.gen_range(0..cols);
                    if seen.insert((i, j)) {
                        t.push((i, j, rng.gen_range(-5..6)));
                    }
                }
                from_tuples((rows, cols), &t)
            };
            let a = mk(m, k, &mut rng);
            let b = mk(k, n, &mut rng);
            let c = spgemm(&ctx, &a, &b, |x, y| x * y, |acc, z| *acc += z);
            c.check().unwrap();
            let reference: Vec<_> = dense_mm(&a, &b);
            assert_eq!(c.to_sorted_tuples(), reference);
        }
    }

    #[test]
    fn masked_equals_filtered_unmasked() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 30;
        let mk = |rng: &mut StdRng| {
            let mut seen = std::collections::HashSet::new();
            let mut t = Vec::new();
            for _ in 0..200 {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                if seen.insert((i, j)) {
                    t.push((i, j, rng.gen_range(1..5)));
                }
            }
            from_tuples((n, n), &t)
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let mask = mk(&mut rng);
        let full = spgemm(&ctx, &a, &b, |x, y| x * y, |acc, z| *acc += z);
        let masked = spgemm_masked(
            &ctx,
            &mask,
            false,
            |_| true,
            &a,
            &b,
            |x, y| x * y,
            |acc, z| *acc += z,
        );
        // Reference: restrict the full product to mask structure.
        let mut sorted_full = full.clone();
        sorted_full.sort_rows(&ctx);
        let expect = crate::ewise::ewise_restrict(&ctx, &sorted_full, &mask, false, |_| true);
        assert_eq!(masked.to_sorted_tuples(), expect.to_sorted_tuples());

        // Complemented mask keeps the rest.
        let masked_c = spgemm_masked(
            &ctx,
            &mask,
            true,
            |_| true,
            &a,
            &b,
            |x, y| x * y,
            |acc, z| *acc += z,
        );
        let expect_c = crate::ewise::ewise_restrict(&ctx, &sorted_full, &mask, true, |_| true);
        assert_eq!(masked_c.to_sorted_tuples(), expect_c.to_sorted_tuples());
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let ctx = global_context();
        let a = Csr::<i64>::empty(0, 3);
        let b = Csr::<i64>::empty(3, 4);
        let c = spgemm(&ctx, &a, &b, |x, y| x * y, |acc, z| *acc += z);
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (0, 4, 0));
        let a2 = from_tuples((2, 2), &[(0, 0, 1)]);
        let b2 = Csr::<i64>::empty(2, 2);
        let c2 = spgemm(&ctx, &a2, &b2, |x, y| x * y, |acc, z| *acc += z);
        assert_eq!(c2.nnz(), 0);
    }

    #[test]
    fn min_plus_semiring_product() {
        let ctx = global_context();
        // Shortest two-hop paths.
        let a = from_tuples((3, 3), &[(0, 1, 2), (0, 2, 10), (1, 2, 3)]);
        let c = spgemm(
            &ctx,
            &a,
            &a,
            |x, y| x + y,
            |acc, z| {
                if z < *acc {
                    *acc = z;
                }
            },
        );
        // 0 -> 1 -> 2 costs 5.
        assert_eq!(c.get(0, 2), Some(&5));
    }
}
