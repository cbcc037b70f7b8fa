//! Completion and deferred execution (paper §III and §V): the pending
//! engine shared by `Matrix`, `Vector` and `Scalar`.
//!
//! In nonblocking mode a GraphBLAS object is defined by its *sequence* of
//! method calls; the implementation may defer, reorder, or **fuse**
//! operations as long as the result is mathematically equivalent. Here
//! every container carries a queue of [`Stage`]s:
//!
//! * [`Stage::Map`] — a fusible element-wise transform of the container's
//!   own stored elements (unmasked, unaccumulated `apply`/`select` whose
//!   input is the output). Consecutive `Map` stages execute as **one**
//!   traversal at drain time: the single-pass payoff §III's "fuse
//!   operations" latitude describes. The `ablation_fusion` bench times it
//!   and reads the `graphblas-obs` fusion counters (`fusion_hits`,
//!   `map_traversals`) to verify the fusion actually happened; a run of
//!   `n` consecutive maps reports one traversal and `n − 1` fusion hits.
//! * [`Stage::Opaque`] — an arbitrary deferred operation that was given
//!   snapshots of its *other* inputs at enqueue time (sequence order fixes
//!   input values at call time) and reads/writes the owning container's
//!   state when drained: `build`, `extractElement` into a scalar, and
//!   reductions into a scalar.
//! * [`Stage::Node`] — a lazy op-DAG node (mxv/vxm/mxm/eWise/assign/…):
//!   like `Opaque`, but fusion-aware. At drain time the engine hands the
//!   node every *trailing* consecutive `Map` stage from the queue; the
//!   node threads them into its numeric kernel (the monomorphized
//!   registry's `*_fused` rows) so the post-transforms run inside the
//!   kernel's output write instead of as a separate traversal. Nodes also
//!   participate in *input* fusion: when an input container's queue is
//!   pure maps, the consumer clones the run and folds it into the
//!   kernel's operand lookup (`snapshot_frontier_fused`), so the
//!   intermediate materialization disappears entirely — §III's
//!   cross-operation "fuse operations" latitude.
//!
//! The engine has three parts, each written once:
//!
//! * `Store` — what a container's state supplies: its store format, one
//!   map pass over its stored elements, its memory ledger and its
//!   invariants. `MatrixState`, `VectorState` and a scalar's `Option<T>`
//!   implement it.
//! * `State` — a store plus its queue and §V sticky error, with the one
//!   drain state machine (`State::drain_as`): calls run in sequence
//!   order, and an execution error poisons the object.
//! * `Handle` and `Container` — the `{ context, state }` object behind
//!   every handle, and the enqueue arms: a nonblocking context appends
//!   the stage; a blocking context completes the sequence and runs it
//!   now. Those are the paper's two execution modes, and the only ones.
//!
//! `wait(Complete)` drains the queue — the object can then participate in
//! a cross-thread happens-before edge. `wait(Materialize)` additionally
//! brings storage to canonical form (CSR, sorted rows, owned exclusively)
//! and guarantees no further errors can be reported from the drained
//! sequence (§V).

use std::sync::Arc;

use graphblas_exec::sync::{Mutex, MutexGuard, RwLock};
use graphblas_exec::{Context, Mode};
use graphblas_obs::Decision;

use crate::error::{ApiError, Error, ExecutionError, GrbResult};
use crate::introspect::CheckError;
use crate::types::{Index, ValueType};

/// The two flavours of `GrB_wait` (§III `GrB_COMPLETE`, §V
/// `GrB_MATERIALIZE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitMode {
    /// Finish the computations in the object's sequence and leave internal
    /// data structures safe to hand to another thread.
    Complete,
    /// `Complete`, plus: no more errors can be reported (and no more time
    /// charged) for the methods in the drained sequence; storage is
    /// canonicalized.
    Materialize,
}

/// A fusible element-wise transform: receives `(indices, value)` — indices
/// of length 2 for matrix elements, 1 for vector elements — and returns the
/// replacement value, or `None` to annihilate the element.
pub type MapFn<T> = Arc<dyn Fn(&[Index], &T) -> Option<T> + Send + Sync>;

/// What kind of operation a lazy [`Stage::Node`] defers — the op-DAG node
/// kinds DESIGN.md §III maps onto the paper's nonblocking semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Matrix-vector product (`mxv`).
    MxV,
    /// Vector-matrix product (`vxm`) — the push/BFS direction.
    VxM,
    /// Matrix-matrix product (`mxm`).
    MxM,
    /// Element-wise add/multiply (union/intersection).
    EWise,
    /// Masked or accumulated apply/select (the unmasked in-place forms
    /// stay `Stage::Map`).
    Apply,
    /// Select with mask/accum or distinct output.
    Select,
    /// Assign/subassign (accumulating writes into a sub-pattern).
    Assign,
    /// Extract (sub-container read into this container).
    Extract,
    /// Reduce (matrix → vector row reduction).
    Reduce,
    /// Structural ops: transpose, kron, dup, clear-and-rebuild.
    Structure,
}

impl NodeKind {
    /// Stable kebab-case name (used in decision-event detail strings).
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::MxV => "mxv",
            NodeKind::VxM => "vxm",
            NodeKind::MxM => "mxm",
            NodeKind::EWise => "ewise",
            NodeKind::Apply => "apply",
            NodeKind::Select => "select",
            NodeKind::Assign => "assign",
            NodeKind::Extract => "extract",
            NodeKind::Reduce => "reduce",
            NodeKind::Structure => "structure",
        }
    }
}

/// A deferred stage in a container's sequence. `St` is the container's
/// store type (a `Store`: matrix, vector or scalar state).
pub enum Stage<St, T> {
    /// Fusible in-place element-wise transform.
    Map(MapFn<T>),
    /// Arbitrary deferred operation over the container state.
    Opaque(Box<dyn FnOnce(&mut St) -> GrbResult + Send>),
    /// A lazy op-DAG node. At drain time the executor receives the run of
    /// `Map` stages that immediately *followed* it in the queue (possibly
    /// empty) and is responsible for folding them into its kernel's
    /// output path — or applying them as one pass over its result.
    Node {
        /// Which operation this node defers.
        kind: NodeKind,
        /// The deferred execution, parameterized over the trailing maps.
        exec: Box<dyn FnOnce(&mut St, Vec<MapFn<T>>) -> GrbResult + Send>,
    },
}

impl<St, T> Stage<St, T> {
    /// Whether this is a fusible map stage.
    pub fn is_map(&self) -> bool {
        matches!(self, Stage::Map(_))
    }
}

/// Composes a run of map stages into a single per-element closure:
/// stages apply in sequence order; the first `None` annihilates.
pub fn fuse_maps<T: Clone>(run: &[MapFn<T>], indices: &[Index], v: &T) -> Option<T> {
    let Some((first, rest)) = run.split_first() else {
        return Some(v.clone());
    };
    let mut cur = first(indices, v)?;
    for f in rest {
        cur = f(indices, &cur)?;
    }
    Some(cur)
}

/// What a container's state supplies to the pending engine. Everything
/// else — the queue, the drain state machine, the enqueue arms of both
/// execution modes — is written once in this module.
pub(crate) trait Store: Send + Sized + 'static {
    /// Element domain of the container's map stages.
    type Elem: ValueType;
    /// Object kind (`"matrix"`), for invariant-violation panics.
    const KIND: &'static str;
    /// `op` label of the drain's decision events (`"matrix.drain"`).
    const DRAIN_OP: &'static str;

    /// Brings the store to the form a map pass reads and returns its
    /// stored-element count.
    fn map_input(&mut self, ctx: &Context) -> GrbResult<usize>;

    /// Applies `run` to every stored element as one traversal (after
    /// [`Store::map_input`]) and returns the stored-element count after.
    fn map_pass(&mut self, ctx: &Context, run: &[MapFn<Self::Elem>]) -> usize;

    /// Reconciles the store's bytes with the `obs::mem` container gauge
    /// and the context's memory ledger (see [`MemLedger`]).
    fn note_mem(&mut self, _ctx_id: u64) {}

    /// Table III invariants of the store and its shape agreement.
    fn check(&self) -> Result<(), CheckError> {
        Ok(())
    }

    /// Debug-build gate over [`Store::check`], called after the store
    /// canonicalizations. Compiles to nothing in release builds.
    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check() {
            panic!("{} container invariant violated: {e}", Self::KIND);
        }
    }
}

/// Store bytes a container last charged to the `obs::mem` container
/// gauge and its context's memory ledger; released on drop.
#[derive(Default)]
pub(crate) struct MemLedger {
    /// Bytes last reported (0 when telemetry was off at the last
    /// reconciliation).
    bytes: u64,
    /// Context id the bytes were charged to.
    ctx: u64,
}

impl MemLedger {
    /// Charges `store_bytes()` to `ctx_id`. Cheap when telemetry is off
    /// (one relaxed load, nothing recorded) and self-correcting across
    /// toggles and context switches: it always releases exactly what it
    /// previously recorded before charging the new figure.
    pub(crate) fn note(&mut self, ctx_id: u64, store_bytes: impl FnOnce() -> u64) {
        let enabled = graphblas_obs::enabled();
        if !enabled && self.bytes == 0 {
            return;
        }
        if ctx_id != self.ctx && self.bytes != 0 {
            // The handle moved contexts: zero the old ledger entry first.
            graphblas_obs::mem::adjust_container(self.ctx, self.bytes, 0);
            self.bytes = 0;
        }
        self.ctx = ctx_id;
        let new = if enabled { store_bytes() } else { 0 };
        if new != self.bytes {
            graphblas_obs::mem::adjust_container(ctx_id, self.bytes, new);
            self.bytes = new;
        }
    }
}

impl Drop for MemLedger {
    fn drop(&mut self) {
        if self.bytes != 0 {
            graphblas_obs::mem::adjust_container(self.ctx, self.bytes, 0);
        }
    }
}

/// A container's state under the engine: its store `data`, the deferred
/// sequence, and the §V sticky error. Derefs to the store, so container
/// code reads `st.store`, `st.nrows`, … through a lock guard directly.
pub(crate) struct State<S: Store> {
    /// Queued, not yet executed stages, in sequence order.
    pub pending: Vec<Stage<S, S::Elem>>,
    /// The sticky execution error poisoning the object (§V).
    pub err: Option<ExecutionError>,
    /// The container's store.
    pub data: S,
}

impl<S: Store> std::ops::Deref for State<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.data
    }
}

impl<S: Store> std::ops::DerefMut for State<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.data
    }
}

impl<S: Store> State<S> {
    /// The §V rule: a poisoned object reports its error at every method.
    pub(crate) fn fail_if_poisoned(&self) -> GrbResult {
        match &self.err {
            Some(e) => Err(Error::Execution(e.clone())),
            None => Ok(()),
        }
    }

    /// Drains the pending queue, fusing runs of map stages into single
    /// traversals. `cause` is the force cause of the `DagForce` decision
    /// event ("read", "wait", "async", "self-input"). On an execution
    /// error the object is poisoned (§V: the output's contents become
    /// undefined; we record the error and keep it sticky) and the rest of
    /// the sequence is dropped.
    pub(crate) fn drain_as(&mut self, ctx: &Context, cause: &'static str) -> GrbResult {
        self.fail_if_poisoned()?;
        if self.pending.is_empty() {
            return Ok(());
        }
        let obs_on = graphblas_obs::enabled();
        let _sp = obs_on.then(|| graphblas_obs::span_ctx("drain", ctx.id()));
        if obs_on {
            graphblas_obs::counters::pending().drains.add(1);
        }
        let pending = std::mem::take(&mut self.pending);
        if obs_on && pending.iter().any(|s| matches!(s, Stage::Node { .. })) {
            let depth = pending.len() as u64;
            let force = Decision::DagForce { cause, depth };
            graphblas_obs::decide(S::DRAIN_OP, ctx.id(), force);
        }
        let mut stages = pending.into_iter().peekable();
        let mut run: Vec<MapFn<S::Elem>> = Vec::new();
        let result = (|| {
            while let Some(stage) = stages.next() {
                match stage {
                    Stage::Map(f) => run.push(f),
                    Stage::Opaque(f) => {
                        self.flush_map_run(ctx, &mut run, "opaque-barrier")?;
                        if obs_on {
                            graphblas_obs::decide(S::DRAIN_OP, ctx.id(), Decision::OpaqueDrain);
                        }
                        let _ph = graphblas_obs::timeline::phase("drain.opaque");
                        f(&mut self.data)?;
                    }
                    Stage::Node { kind: _, exec } => {
                        // Maps *before* a node transform this container's
                        // pre-node value: they must land first.
                        self.flush_map_run(ctx, &mut run, "node-barrier")?;
                        // Maps *after* the node transform its output: hand
                        // the whole trailing run to the node so it fuses
                        // them into its kernel (or one result pass).
                        let mut post: Vec<MapFn<S::Elem>> = Vec::new();
                        while matches!(stages.peek(), Some(Stage::Map(_))) {
                            if let Some(Stage::Map(f)) = stages.next() {
                                post.push(f);
                            }
                        }
                        let _ph = graphblas_obs::timeline::phase("drain.node");
                        exec(&mut self.data, post)?;
                    }
                }
            }
            self.flush_map_run(ctx, &mut run, "queue-end")
        })();
        if let Err(e) = &result {
            if let Error::Execution(exec) = e {
                self.err = Some(exec.clone());
                if obs_on {
                    // The error surfaced at drain time, not at the call
                    // that caused it — the §V deferral the paper promises.
                    graphblas_obs::decide(S::DRAIN_OP, ctx.id(), Decision::ErrorDeferred);
                }
            }
            self.pending.clear();
        }
        self.data.note_mem(ctx.id());
        self.debug_check();
        result
    }

    /// Executes a run of queued maps as one traversal of the store.
    fn flush_map_run(
        &mut self,
        ctx: &Context,
        run: &mut Vec<MapFn<S::Elem>>,
        trigger: &'static str,
    ) -> GrbResult {
        if run.is_empty() {
            return Ok(());
        }
        let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::MapFuse, ctx.id());
        let nnz_in = self.data.map_input(ctx)? as u64;
        if sp.active() {
            let chain_len = run.len() as u64;
            let flush = Decision::FuseFlush {
                chain_len,
                nnz_in,
                trigger,
            };
            graphblas_obs::decide(S::DRAIN_OP, ctx.id(), flush);
        }
        let nnz_out = self.data.map_pass(ctx, run);
        if sp.active() {
            sp.io(
                nnz_in * run.len() as u64,
                nnz_in,
                nnz_out as u64,
                nnz_in * std::mem::size_of::<S::Elem>() as u64,
            );
        }
        run.clear();
        Ok(())
    }

    /// The blocking arm: completes the sequence, runs `stage` now, and
    /// poisons the object if it fails with an execution error.
    fn run_now(&mut self, ctx: &Context, stage: Stage<S, S::Elem>) -> GrbResult {
        self.drain_as(ctx, "read")?;
        let r = match stage {
            Stage::Opaque(f) => f(&mut self.data),
            Stage::Node { kind: _, exec } => exec(&mut self.data, Vec::new()),
            Stage::Map(f) => self.data.map_input(ctx).map(|_| {
                self.data.map_pass(ctx, &[f]);
            }),
        };
        if let Err(Error::Execution(e)) = &r {
            self.err = Some(e.clone());
        }
        self.data.note_mem(ctx.id());
        r
    }

    /// Deep validation: the store's invariants plus the §V rule that a
    /// poisoned object holds no pending stages.
    pub(crate) fn check(&self) -> Result<(), CheckError> {
        self.data.check()?;
        if self.err.is_some() && !self.pending.is_empty() {
            return Err(CheckError::PendingAfterError {
                pending: self.pending.len(),
            });
        }
        Ok(())
    }

    /// Debug-build invariant gate, called at kernel boundaries (after a
    /// drain and the store canonicalizations). Compiles to nothing in
    /// release builds.
    #[inline]
    pub(crate) fn debug_check(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check() {
            panic!("{} container invariant violated: {e}", S::KIND);
        }
    }
}

/// The object behind every container handle: its context (§IV) and its
/// state. Cloned handles share one `Arc<Handle>`, exactly like copied
/// `GrB_*` handles in C. The mutex gives the §III thread-safety guarantee;
/// completion, not locking, makes a sequence's results visible to
/// another thread.
pub(crate) struct Handle<S: Store> {
    ctx: RwLock<Context>,
    state: Mutex<State<S>>,
}

impl<S: Store> Handle<S> {
    /// A handle in `ctx` over a clean `data` store (no pending stages, no
    /// error), charged to the context's memory ledger.
    pub(crate) fn new(ctx: &Context, mut data: S) -> Arc<Self> {
        data.note_mem(ctx.id());
        Arc::new(Handle {
            ctx: RwLock::new(ctx.clone()),
            state: Mutex::new(State {
                pending: Vec::new(),
                err: None,
                data,
            }),
        })
    }

    /// The context this object belongs to (§IV).
    pub(crate) fn context(&self) -> Context {
        self.ctx.read().clone()
    }

    /// `GrB_Context_switch`: moves the object to another context.
    pub(crate) fn switch_context(&self, ctx: &Context) -> GrbResult {
        *self.ctx.write() = ctx.clone();
        Ok(())
    }

    /// `GrB_error`: the object's error description; empty when healthy.
    pub(crate) fn error_string(&self) -> String {
        self.state
            .lock()
            .err
            .as_ref()
            .map(|e| e.to_string())
            .unwrap_or_default()
    }

    /// Number of queued (not yet executed) stages.
    pub(crate) fn pending_len(&self) -> usize {
        self.state.lock().pending.len()
    }
}

/// A GraphBLAS object running on the pending engine. `Matrix`, `Vector`
/// and `Scalar` implement only [`Container::handle`]; the locking,
/// completion and enqueue plumbing below is shared.
pub(crate) trait Container {
    /// The container's store.
    type St: Store;

    /// The shared object behind this handle.
    fn handle(&self) -> &Arc<Handle<Self::St>>;

    /// Locks state without draining (format inspection only).
    fn lock_raw(&self) -> MutexGuard<'_, State<Self::St>> {
        self.handle().state.lock()
    }

    /// Locks state and drains the pending queue first.
    fn lock_completed(&self) -> GrbResult<MutexGuard<'_, State<Self::St>>> {
        self.lock_completed_as("read")
    }

    /// [`Container::lock_completed`] with an explicit force cause for the
    /// `DagForce` decision event.
    fn lock_completed_as(&self, cause: &'static str) -> GrbResult<MutexGuard<'_, State<Self::St>>> {
        let ctx = self.handle().context();
        let mut st = self.lock_raw();
        st.drain_as(&ctx, cause)?;
        Ok(st)
    }

    /// Completes the sequence and runs `f` on the store now, whatever the
    /// mode — the immediate methods (`setElement`, `removeElement`,
    /// `resize`). Always reconciles the memory ledger afterwards.
    fn write_completed<R>(
        &self,
        f: impl FnOnce(&mut Self::St, &Context) -> GrbResult<R>,
    ) -> GrbResult<R> {
        let ctx = self.handle().context();
        let mut st = self.lock_raw();
        st.drain_as(&ctx, "read")?;
        let r = f(&mut st.data, &ctx);
        st.data.note_mem(ctx.id());
        r
    }

    /// `clear`: drops the pending sequence and the sticky error, then lets
    /// `reset` rebuild the store.
    fn clear_with(&self, reset: impl FnOnce(&mut Self::St)) {
        let ctx_id = self.handle().context().id();
        let mut st = self.lock_raw();
        st.pending.clear();
        st.err = None;
        reset(&mut st.data);
        st.data.note_mem(ctx_id);
    }

    /// Runs an opaque `stage` now (blocking) or appends it to the
    /// sequence (nonblocking).
    fn apply_write(&self, stage: Box<dyn FnOnce(&mut Self::St) -> GrbResult + Send>) -> GrbResult {
        self.enqueue(Stage::Opaque(stage))
    }

    /// Enqueues a lazy op-DAG node (§III). In nonblocking mode `exec`
    /// defers as a [`Stage::Node`] and receives the run of trailing map
    /// stages at drain time (it must apply them — via its fused kernel or
    /// one pass over its result); in blocking mode it runs now with an
    /// empty run.
    fn apply_node(
        &self,
        kind: NodeKind,
        exec: Box<
            dyn FnOnce(&mut Self::St, Vec<MapFn<<Self::St as Store>::Elem>>) -> GrbResult + Send,
        >,
    ) -> GrbResult {
        self.enqueue(Stage::Node { kind, exec })
    }

    /// Appends a fusible element-wise stage (nonblocking) or applies it
    /// immediately (blocking).
    fn apply_map(&self, f: MapFn<<Self::St as Store>::Elem>) -> GrbResult {
        self.enqueue(Stage::Map(f))
    }

    /// The two execution modes of §III, for every kind of stage.
    fn enqueue(&self, stage: Stage<Self::St, <Self::St as Store>::Elem>) -> GrbResult {
        let handle = self.handle();
        let ctx = handle.context();
        let mut st = self.lock_raw();
        st.fail_if_poisoned()?;
        if ctx.mode() == Mode::Blocking {
            return st.run_now(&ctx, stage);
        }
        let is_node = matches!(stage, Stage::Node { .. });
        let counter = match &stage {
            Stage::Map(_) => &graphblas_obs::counters::pending().maps_enqueued,
            Stage::Opaque(_) => &graphblas_obs::counters::pending().opaques_enqueued,
            Stage::Node { .. } => &graphblas_obs::counters::dag().nodes_enqueued,
        };
        st.pending.push(stage);
        let depth = st.pending.len();
        drop(st);
        if graphblas_obs::enabled() {
            counter.add(1);
            graphblas_obs::counters::pending()
                .max_depth
                .max(depth as u64);
        }
        if is_node {
            maybe_async_drain(handle, &ctx, depth);
        }
        Ok(())
    }

    /// Type-erased object identity, comparable across element types (used
    /// to detect in-place `apply`/`select` for stage fusion).
    fn addr(&self) -> usize {
        Arc::as_ptr(self.handle()) as *const () as usize
    }

    /// Validates the §IV same-context rule against `ctx`.
    fn check_context(&self, ctx: &Context) -> GrbResult {
        if self.handle().context().same(ctx) {
            Ok(())
        } else {
            Err(ApiError::ContextMismatch.into())
        }
    }
}

/// Hands a container's backlog to the worker pool once its queue depth
/// crosses the `GRB_ASYNC_DRAIN_DEPTH` threshold. The threshold keeps
/// short op chains intact (so node drains still find trailing maps to
/// fuse); the per-container mutex serializes the background drain against
/// readers, and a drain of an already-empty queue is a no-op — so racing
/// forces cannot double-drain.
fn maybe_async_drain<S: Store>(handle: &Arc<Handle<S>>, ctx: &Context, depth: usize) {
    if !crate::dag::async_drain_enabled() || depth < crate::dag::async_drain_depth() {
        return;
    }
    if graphblas_obs::enabled() {
        graphblas_obs::counters::dag().async_drains.add(1);
    }
    let this = handle.clone();
    let ctx = ctx.clone();
    graphblas_exec::pool::global_pool().spawn_static(Box::new(move || {
        let mut st = this.state.lock();
        // A failed drain leaves the §V sticky error in place for the next
        // reader to surface; the background task has no caller to report
        // to.
        let _ = st.drain_as(&ctx, "async");
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_applies_in_order() {
        let double: MapFn<i64> = Arc::new(|_, v| Some(v * 2));
        let add_row: MapFn<i64> = Arc::new(|idx, v| Some(v + idx[0] as i64));
        let run = vec![double, add_row];
        // (5 * 2) + 3 — order matters.
        assert_eq!(fuse_maps(&run, &[3, 0], &5), Some(13));
    }

    #[test]
    fn fuse_short_circuits_on_drop() {
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hits.clone();
        let drop_all: MapFn<i64> = Arc::new(|_, _| None);
        let count: MapFn<i64> = Arc::new(move |_, v| {
            h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Some(*v)
        });
        let run = vec![drop_all, count];
        assert_eq!(fuse_maps(&run, &[0], &1), None);
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_run_is_identity() {
        let run: Vec<MapFn<u8>> = vec![];
        assert_eq!(fuse_maps(&run, &[0, 0], &7), Some(7));
    }
}
