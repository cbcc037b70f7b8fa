//! The GraphBLAS operations: `mxm`, `mxv`/`vxm`, element-wise add/mult,
//! `apply` (including the §VIII index-unary variants), `select`, `reduce`,
//! `extract`, `assign`, `transpose`, and `kronecker` — each with the full
//! mask / accumulator / descriptor write semantics and the Table II
//! `GrB_Scalar` variants.
//!
//! All operations follow the same lifecycle:
//!
//! 1. **API validation** (contexts §IV, shapes) — errors here are
//!    deterministic, immediate, and side-effect free (§V);
//! 2. **input snapshots** — operands are completed and snapshotted *at
//!    call time*, fixing their value at this point of the sequence;
//! 3. **deferred body** — in a nonblocking context the computation is
//!    queued on the output object (fusible element-wise stages queue as
//!    `Map` stages); in a blocking context it runs immediately.

pub mod apply;
pub mod assign;
pub mod ewise;
pub mod extract;
pub mod kron;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod select;
pub mod transpose;

pub use apply::{
    apply, apply_binop1st, apply_binop1st_scalar, apply_binop1st_v, apply_binop1st_v_scalar,
    apply_binop2nd, apply_binop2nd_scalar, apply_binop2nd_v, apply_binop2nd_v_scalar,
    apply_indexop, apply_indexop_scalar, apply_indexop_v, apply_indexop_v_scalar, apply_v,
};
pub use assign::{
    assign, assign_col, assign_row, assign_scalar, assign_scalar_grb, assign_scalar_v,
    assign_scalar_v_grb, assign_v,
};
pub use ewise::{
    ewise_add, ewise_add_monoid, ewise_add_semiring, ewise_add_v, ewise_mult, ewise_mult_semiring,
    ewise_mult_v,
};
pub use extract::{extract, extract_col, extract_v};
pub use kron::kronecker;
pub use mxm::mxm;
pub use mxv::{force_direction, mxv, vxm, Direction};
pub use reduce::{
    reduce_scalar, reduce_scalar_binop, reduce_scalar_binop_v, reduce_scalar_v, reduce_to_value,
    reduce_to_value_v, reduce_to_vector,
};
pub use select::{select, select_scalar, select_v, select_v_scalar};
pub use transpose::transpose;

use std::sync::Arc;

use graphblas_exec::Context;
use graphblas_sparse::Csr;

use crate::descriptor::Descriptor;
use crate::error::GrbResult;
use crate::matrix::Matrix;
use crate::types::{Index, MaskValue, ValueType};
use crate::write::{MatMask, VecMask};

/// The index list meaning "all indices" (`GrB_ALL` in C).
pub fn all_indices(n: usize) -> Vec<Index> {
    (0..n).collect()
}

/// Records one op-DAG node execution's fusion outcome: `pre`/`post` are
/// the counts of pending element maps folded into this node's numeric
/// phase (input side / output side). Emits the `dag-fuse` decision event
/// whenever cross-operation fusion actually fired.
pub(crate) fn note_dag_fusion(
    op: &'static str,
    ctx_id: u64,
    kind: crate::pending::NodeKind,
    pre: usize,
    post: usize,
    nnz_in: usize,
) {
    if graphblas_obs::enabled() {
        let fuse = graphblas_obs::Decision::DagFuse {
            kind: kind.name(),
            pre_maps: pre as u64,
            post_maps: post as u64,
            nnz_in: nnz_in as u64,
        };
        graphblas_obs::decide(op, ctx_id, fuse);
    }
}

/// Effective shape of a matrix operand under a descriptor transpose flag.
pub(crate) fn eff_shape<T: ValueType>(m: &Matrix<T>, transposed: bool) -> (Index, Index) {
    let (r, c) = m.shape();
    if transposed {
        (c, r)
    } else {
        (r, c)
    }
}

/// Completes `m` and snapshots it as CSR, materializing the descriptor
/// transpose. Transposed snapshots always come out row-sorted, and are
/// served from the matrix's memoized transpose cache when the store is
/// unchanged since the last transposed use.
pub(crate) fn snapshot_operand<T: ValueType>(
    m: &Matrix<T>,
    _ctx: &Context,
    transposed: bool,
    sorted: bool,
) -> GrbResult<Arc<Csr<T>>> {
    if transposed {
        m.snapshot_transposed()
    } else {
        m.snapshot_csr(sorted)
    }
}

/// Snapshots an optional matrix mask per the descriptor.
pub(crate) fn snapshot_matmask<M: MaskValue>(
    mask: Option<&Matrix<M>>,
    desc: &Descriptor,
) -> GrbResult<Option<MatMask>> {
    match mask {
        None => Ok(None),
        Some(m) => Ok(Some(MatMask {
            mask: m.snapshot_mask(desc.mask_structure)?,
            complement: desc.mask_complement,
        })),
    }
}

/// Snapshots an optional vector mask per the descriptor.
pub(crate) fn snapshot_vecmask<M: MaskValue>(
    mask: Option<&crate::vector::Vector<M>>,
    desc: &Descriptor,
) -> GrbResult<Option<VecMask>> {
    match mask {
        None => Ok(None),
        Some(m) => Ok(Some(VecMask {
            mask: m.snapshot_mask(desc.mask_structure)?,
            complement: desc.mask_complement,
        })),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::matrix::Matrix;
    use crate::types::{Index, ValueType};
    use crate::vector::Vector;

    pub fn mat<T: ValueType>(shape: (usize, usize), tuples: &[(Index, Index, T)]) -> Matrix<T> {
        let m = Matrix::new(shape.0, shape.1).unwrap();
        let rows: Vec<_> = tuples.iter().map(|t| t.0).collect();
        let cols: Vec<_> = tuples.iter().map(|t| t.1).collect();
        let vals: Vec<_> = tuples.iter().map(|t| t.2.clone()).collect();
        m.build(&rows, &cols, &vals, None).unwrap();
        m
    }

    pub fn vec<T: ValueType>(n: usize, tuples: &[(Index, T)]) -> Vector<T> {
        let v = Vector::new(n).unwrap();
        let idx: Vec<_> = tuples.iter().map(|t| t.0).collect();
        let vals: Vec<_> = tuples.iter().map(|t| t.1.clone()).collect();
        v.build(&idx, &vals, None).unwrap();
        v
    }

    pub fn mat_tuples<T: ValueType>(m: &Matrix<T>) -> Vec<(Index, Index, T)> {
        let (r, c, v) = m.extract_tuples().unwrap();
        r.into_iter()
            .zip(c)
            .zip(v)
            .map(|((i, j), x)| (i, j, x))
            .collect()
    }

    pub fn vec_tuples<T: ValueType>(v: &Vector<T>) -> Vec<(Index, T)> {
        let (i, x) = v.extract_tuples().unwrap();
        i.into_iter().zip(x).collect()
    }
}
