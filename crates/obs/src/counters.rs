//! Global atomic counters: per-kernel work accounting, pending-queue /
//! fusion statistics, and thread-pool activity.
//!
//! Every counter is a [`Counter`]: a plain `AtomicU64` updated with
//! relaxed ordering — the counters are monotone statistics, not
//! synchronization points, and that one ordering choice lives in
//! [`Counter`]'s three methods rather than at every bump site. Sites must
//! guard updates on [`crate::enabled`] so the disabled build does no
//! atomic traffic at all. Runtime choice points do not bump counters
//! directly: they call [`crate::decide`], which bumps the decision's
//! counters and records its reason-coded event together.
//!
//! ## The counter table
//!
//! Each counter is declared exactly once, as a row of the
//! `counter_table!` invocation below: its field name, its kind and its
//! one-line help string. A row reads `field: kind "help",` where `kind`
//! is one of
//!
//! * `counter` — monotone count, zeroed by [`crate::reset`], exported as
//!   a Prometheus counter;
//! * `high_water` — a high-water mark fed by [`Counter::max`], zeroed by
//!   [`crate::reset`], exported as a gauge;
//! * `gauge` — a level that describes topology rather than load, so it
//!   survives [`crate::reset`]; exported as a gauge.
//!
//! From the table the macro generates, per scalar block (`pending`,
//! `dag`, `pool`, …): the `*Counters` struct and its static, the
//! accessor (`counters::dag()`), the `*Totals` copy and `totals()`, the
//! reset, the block's object in the snapshot JSON, the `grb.<block>.<field>`
//! rows of the export registry and their scrape samples. The six
//! per-kernel fields get the same treatment under `grb.kernel.<field>`,
//! one labeled sample per [`Kernel`]. Adding a counter is one table row
//! plus its bump site; derived families (rates, percentiles, the live
//! queue depth, per-worker busy time) stay hand-written in
//! [`crate::export`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::export::registry::{MetricDesc, MetricKind};
use crate::json::JsonWriter;
use crate::snapshot::Snapshot;

/// The instrumented kernel families. The set mirrors the hot paths of
/// `graphblas-sparse` (storage-level kernels) plus the container-level
/// operations of `graphblas-core` whose cost the paper's §III latitude
/// makes otherwise invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Kernel {
    /// Sparse matrix × sparse matrix (`mxm`).
    SpGemm = 0,
    /// Sparse matrix × vector (`mxv`, push direction).
    SpMv = 1,
    /// Vector × sparse matrix (`vxm`, pull direction).
    VxM = 2,
    /// Element-wise union (`eWiseAdd`).
    EwiseAdd = 3,
    /// Element-wise intersection (`eWiseMult`).
    EwiseMult = 4,
    /// Explicit or descriptor-driven transpose.
    Transpose = 5,
    /// `apply` (unary / bound-scalar / index-unary).
    Apply = 6,
    /// `select` (index-unary filter).
    Select = 7,
    /// `reduce` to vector, scalar, or value.
    Reduce = 8,
    /// Deferred-sequence drain: one fused traversal of a map run.
    MapFuse = 9,
    /// COO/CSC/dense → CSR canonicalization and row sorting.
    Convert = 10,
    /// `wait(Complete|Materialize)`.
    Wait = 11,
    /// Kronecker product (`GrB_kronecker`).
    Kron = 12,
}

/// Number of [`Kernel`] variants (size of the static counter table).
pub const KERNEL_COUNT: usize = 13;

pub(crate) const KERNEL_LIST: [Kernel; KERNEL_COUNT] = [
    Kernel::SpGemm,
    Kernel::SpMv,
    Kernel::VxM,
    Kernel::EwiseAdd,
    Kernel::EwiseMult,
    Kernel::Transpose,
    Kernel::Apply,
    Kernel::Select,
    Kernel::Reduce,
    Kernel::MapFuse,
    Kernel::Convert,
    Kernel::Wait,
    Kernel::Kron,
];

impl Kernel {
    /// Stable lower-case name used in burble output and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::SpGemm => "spgemm",
            Kernel::SpMv => "spmv",
            Kernel::VxM => "vxm",
            Kernel::EwiseAdd => "ewise_add",
            Kernel::EwiseMult => "ewise_mult",
            Kernel::Transpose => "transpose",
            Kernel::Apply => "apply",
            Kernel::Select => "select",
            Kernel::Reduce => "reduce",
            Kernel::MapFuse => "map_fuse",
            Kernel::Convert => "convert",
            Kernel::Wait => "wait",
            Kernel::Kron => "kron",
        }
    }
}

/// One telemetry counter. Updates and reads are relaxed: every counter
/// is a statistic that readers tolerate seeing stale, and no reader
/// infers other cross-thread state from it (grbsa protocol `counter`).
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        // grbsa: protocol(counter-reset) — test-isolation zeroing; reset
        // points are single-threaded harness boundaries.
        self.0.store(0, Ordering::Relaxed);
    }
}

macro_rules! metric_kind {
    (counter) => {
        MetricKind::Counter
    };
    (high_water) => {
        MetricKind::Gauge
    };
    (gauge) => {
        MetricKind::Gauge
    };
}

macro_rules! reset_row {
    (gauge, $c:expr) => {};
    ($kind:ident, $c:expr) => {
        $c.reset()
    };
}

/// Generates everything a counter needs from its one table row; see the
/// module doc for the row syntax and what is generated.
macro_rules! counter_table {
    (
        kernel { $( $kfield:ident: $kkind:ident $khelp:literal, )* }
        $(
            $(#[$bdoc:meta])*
            $block:ident: $Counters:ident => $Totals:ident {
                $( $(#[$fdoc:meta])* $field:ident: $kind:ident $help:literal, )*
            }
        )*
    ) => {
        /// One kernel's accumulated work.
        pub struct KernelCounters {
            $( #[doc = $khelp] pub $kfield: Counter, )*
        }

        static KERNELS: [KernelCounters; KERNEL_COUNT] =
            [const { KernelCounters { $( $kfield: Counter::new(), )* } }; KERNEL_COUNT];

        /// A point-in-time copy of one kernel's counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct KernelTotals {
            pub kernel: Kernel,
            $( #[doc = $khelp] pub $kfield: u64, )*
        }

        impl KernelTotals {
            fn read(kernel: Kernel) -> Self {
                let c = self::kernel(kernel);
                KernelTotals { kernel, $( $kfield: c.$kfield.get(), )* }
            }

            /// The table fields, in [`KERNEL_METRICS`] order.
            pub(crate) fn values(&self) -> [u64; KERNEL_FIELDS] {
                [$( self.$kfield ),*]
            }

            /// Writes the table fields as keys of the caller's open object.
            pub(crate) fn write_json(&self, w: &mut JsonWriter) {
                $( w.key(stringify!($kfield)); w.number(self.$kfield); )*
            }
        }

        const KERNEL_FIELDS: usize = [$( stringify!($kfield) ),*].len();

        /// Registry rows `grb.kernel.<field>` (label: kernel).
        pub(crate) static KERNEL_METRICS: [MetricDesc; KERNEL_FIELDS] = [$(
            MetricDesc {
                name: concat!("grb.kernel.", stringify!($kfield)),
                kind: metric_kind!($kkind),
                help: $khelp,
            },
        )*];

        $(
            $(#[$bdoc])*
            pub struct $Counters {
                $( #[doc = $help] $(#[$fdoc])* pub $field: Counter, )*
            }

            #[doc = concat!("The global `", stringify!($block), "` counter block.")]
            pub fn $block() -> &'static $Counters {
                static BLOCK: $Counters = $Counters { $( $field: Counter::new(), )* };
                &BLOCK
            }

            #[doc = concat!("Point-in-time copy of [`", stringify!($Counters), "`].")]
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
            pub struct $Totals {
                $( #[doc = $help] pub $field: u64, )*
            }

            impl $Counters {
                /// Reads every counter of the block (each load is
                /// independent; the copy is not mutually atomic).
                pub fn totals(&self) -> $Totals {
                    $Totals { $( $field: self.$field.get(), )* }
                }
            }
        )*

        /// Registry rows `grb.<block>.<field>` of every scalar block, in
        /// table order.
        pub(crate) static BLOCK_METRICS: &[MetricDesc] = &[$($(
            MetricDesc {
                name: concat!("grb.", stringify!($block), ".", stringify!($field)),
                kind: metric_kind!($kind),
                help: $help,
            },
        )*)*];

        /// The snapshot's values for [`BLOCK_METRICS`], row for row.
        pub(crate) fn block_values(s: &Snapshot) -> Vec<u64> {
            vec![$($( s.$block.$field, )*)*]
        }

        /// Writes each scalar block as a JSON object under its block name;
        /// `extra` may append keys to a block's object before it closes.
        pub(crate) fn write_blocks_json(
            s: &Snapshot,
            w: &mut JsonWriter,
            extra: impl Fn(&str, &mut JsonWriter),
        ) {
            $(
                w.key(stringify!($block));
                w.begin_object();
                $( w.key(stringify!($field)); w.number(s.$block.$field); )*
                extra(stringify!($block), w);
                w.end_object();
            )*
        }

        fn reset_table() {
            for k in &KERNELS {
                $( reset_row!($kkind, k.$kfield); )*
            }
            $($( reset_row!($kind, $block().$field); )*)*
        }
    };
}

counter_table! {
    kernel {
        calls: counter "Finished invocations per kernel family.",
        nanos: counter "Cumulative kernel wall time in nanoseconds.",
        flops: counter "Cumulative semiring operations performed.",
        nnz_in: counter "Cumulative input nonzeros consumed.",
        nnz_out: counter "Cumulative output nonzeros produced.",
        bytes_moved: counter "Cumulative bytes read and written by kernels.",
    }

    /// Pending-queue statistics for the §III deferred-execution machinery.
    pending: PendingCounters => PendingTotals {
        maps_enqueued: counter "Fusible map stages enqueued.",
        opaques_enqueued: counter "Opaque stages enqueued.",
        /// A run of `n` consecutive maps drains as one pass and scores `n - 1`.
        fusion_hits: counter "Map stages absorbed into a preceding traversal.",
        map_traversals: counter "Fused map traversals executed.",
        opaque_drains: counter "Opaque stages executed at drain time.",
        drains: counter "Queue-drain events that found work.",
        max_depth: high_water "High-water pending-queue depth.",
        errors_raised: counter "Execution errors constructed.",
        /// The §V "reported later" case.
        errors_deferred: counter "Errors surfaced from a drained deferred sequence.",
    }

    /// Op-DAG statistics for the §III nonblocking fused-execution engine:
    /// how many lazy op nodes were enqueued, how many neighbouring map
    /// stages the node kernels absorbed (input side and output side), and
    /// what forced drains.
    dag: DagCounters => DagTotals {
        nodes_enqueued: counter "Lazy op nodes enqueued on container DAGs.",
        pre_fused: counter "Input-side map stages folded into node kernels.",
        post_fused: counter "Trailing map stages drained with their node.",
        fused_chains: counter "Node drains that fused at least one stage.",
        async_drains: counter "DAG drains handed to the worker pool.",
        forces: counter "Forced DAG drains (read/wait/self-input barriers).",
    }

    /// Thread-pool activity counters. The pool has no work stealing; the
    /// park/wake pair is the closest observable analogue — a park is a
    /// worker blocking on an empty queue, a wake is a job arriving for a
    /// parked worker. The scheduler-facing fields (queue depth,
    /// wait-vs-run split, per-worker busy time) are the signals the
    /// nonblocking drain engine and admission control tune against;
    /// `exec::pool` feeds them through [`record_pool_enqueue`] /
    /// [`record_pool_task`].
    pool: PoolCounters => PoolTotals {
        tasks_spawned: counter "Tasks submitted to pool workers.",
        tasks_inline: counter "Tasks executed inline in nested parallel regions.",
        parks: counter "Workers blocked waiting for work.",
        wakes: counter "Parked workers woken by a new job.",
        scopes: counter "ThreadPool::scope entries.",
        /// Monotone; the live queue depth is `jobs_queued - jobs_dequeued`
        /// ([`PoolTotals::queue_depth`]), which avoids a non-monotone gauge.
        jobs_queued: counter "Jobs pushed onto the shared pool queue.",
        jobs_dequeued: counter "Jobs taken off the queue by workers.",
        queue_depth_max: high_water "High-water pool queue depth.",
        tasks_completed: counter "Offloaded tasks that ran to completion.",
        task_wait_ns: counter "Cumulative nanoseconds tasks sat queued.",
        task_run_ns: counter "Cumulative nanoseconds tasks spent executing.",
        /// Highest worker index seen + 1 (the busy-table prefix in use).
        workers: gauge "Worker busy-table slots in use.",
    }

    /// Telemetry-plane self-accounting (`obs::export`): sampler ticks
    /// taken, scrape requests served, and one-shot dump files written.
    /// Keeping the exporter's own activity in a counter block makes its
    /// cost auditable with the same machinery it exports.
    sampler: SamplerCounters => SamplerTotals {
        samples: counter "Periodic snapshots taken by the sampler thread.",
        scrapes: counter "Scrape requests served by the metrics endpoint.",
        dump_writes: counter "GRB_METRICS_DUMP exposition files written.",
    }

    /// Kernel-workspace reuse statistics (`exec::workspace`): how often
    /// hot kernels checked scratch buffers out of the per-thread cache
    /// instead of allocating, and how many buffer bytes that reuse avoided
    /// reallocating.
    workspace: WorkspaceCounters => WorkspaceTotals {
        checkouts: counter "Scratch checkouts requested by kernels.",
        hits: counter "Checkouts served from the per-thread cache.",
        misses: counter "Checkouts that allocated a fresh workspace.",
        bytes_reused: counter "Buffer capacity handed back on cache hits.",
    }

    /// Direction-optimizing `mxv`/`vxm` dispatch statistics: which kernel
    /// the Beamer-style frontier-density heuristic picked, and how the
    /// memoized transpose cache behaved while serving the pull direction.
    direction: DirectionCounters => DirectionTotals {
        push_picks: counter "mxv/vxm dispatches resolved to the push kernel.",
        pull_picks: counter "mxv/vxm dispatches resolved to the pull kernel.",
        transpose_builds: counter "Transposes computed into the memo cache.",
        transpose_hits: counter "Transpose requests served from the memo cache.",
    }

    /// Kernel-registry dispatch statistics: how often an operation ran a
    /// pre-monomorphized static kernel from `core::ops::registry` (paper
    /// §II static dispatch) versus falling back to the universal `dyn Fn`
    /// path (user-defined operators, unregistered semiring/type
    /// combinations, or `GRB_DISPATCH=dyn`).
    dispatch: DispatchCounters => DispatchTotals {
        static_hits: counter "Dispatches served by a monomorphized kernel.",
        dyn_fallbacks: counter "Dispatches on the erased-closure fallback path.",
    }

    /// Vector storage-format statistics (Table III): how often the
    /// mxv/vxm store path kept the sparse (index/value) representation
    /// versus the bitmap (presence bits + dense slots) representation for
    /// a near-dense result, and how many bitmap→sparse conversions later
    /// kernels forced.
    format: FormatCounters => FormatTotals {
        bitmap_picks: counter "Results stored in bitmap format.",
        svec_picks: counter "Results kept in sparse index/value format.",
        conversions: counter "Bitmap-to-sparse conversions forced downstream.",
    }
}

/// The live counter block for `k` (for instrumentation sites that add to
/// individual fields between span start and end).
pub fn kernel(k: Kernel) -> &'static KernelCounters {
    &KERNELS[k as usize]
}

/// Adds one finished invocation of `k` with its measured wall time and
/// work figures. The single entry point span drops funnel through; the
/// wall time also lands in `k`'s latency histogram.
pub fn record_kernel(k: Kernel, nanos: u64, flops: u64, nnz_in: u64, nnz_out: u64, bytes: u64) {
    crate::hist::record(k, nanos);
    let c = kernel(k);
    c.calls.add(1);
    c.nanos.add(nanos);
    c.flops.add(flops);
    c.nnz_in.add(nnz_in);
    c.nnz_out.add(nnz_out);
    c.bytes_moved.add(bytes);
}

pub(crate) fn kernel_totals() -> Vec<KernelTotals> {
    KERNEL_LIST.iter().map(|&k| KernelTotals::read(k)).collect()
}

impl PoolTotals {
    /// Live queue depth implied by the monotone push/pop counters (clamped
    /// at zero: the two loads are not mutually atomic).
    pub fn queue_depth(&self) -> u64 {
        self.jobs_queued.saturating_sub(self.jobs_dequeued)
    }
}

/// Size of the static per-worker busy table. Workers beyond this fold into
/// the last slot (`GRB_POOL_THREADS` on real deployments is far smaller).
pub const MAX_POOL_WORKERS: usize = 64;

/// Per-worker cumulative busy nanoseconds (task execution time attributed
/// to the worker that ran it). Utilization over a window is the busy delta
/// divided by the window length.
static WORKER_BUSY: [Counter; MAX_POOL_WORKERS] = [const { Counter::new() }; MAX_POOL_WORKERS];

/// Records one job landing on the pool queue; `depth` is the queue depth
/// right after the push (the pool reads it under its queue lock, so the
/// high-water mark is exact, not sampled).
pub fn record_pool_enqueue(depth: usize) {
    pool().jobs_queued.add(1);
    pool().queue_depth_max.max(depth as u64);
}

/// Records one completed offloaded task: which worker ran it, how long it
/// sat queued, and how long it executed. Worker indices at or beyond
/// [`MAX_POOL_WORKERS`] share the last busy slot.
pub fn record_pool_task(worker: usize, wait_ns: u64, run_ns: u64) {
    let p = pool();
    p.tasks_completed.add(1);
    p.task_wait_ns.add(wait_ns);
    p.task_run_ns.add(run_ns);
    let slot = worker.min(MAX_POOL_WORKERS - 1);
    WORKER_BUSY[slot].add(run_ns);
    p.workers.max(slot as u64 + 1);
}

/// Per-worker cumulative busy nanoseconds: the in-use prefix of the busy
/// table (indices `0..workers`).
pub fn worker_busy_totals() -> Vec<u64> {
    let n = pool().workers.get() as usize;
    WORKER_BUSY[..n.min(MAX_POOL_WORKERS)]
        .iter()
        .map(Counter::get)
        .collect()
}

pub(crate) fn reset() {
    reset_table();
    // The worker count survives reset (a `gauge` row: it describes
    // topology, not load); the busy table zeroes so utilization windows
    // start clean.
    for b in &WORKER_BUSY {
        b.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_recording_accumulates() {
        let _g = crate::test_guard();
        reset();
        record_kernel(Kernel::SpGemm, 100, 7, 3, 2, 64);
        record_kernel(Kernel::SpGemm, 50, 3, 1, 1, 16);
        let g = KernelTotals::read(Kernel::SpGemm);
        assert_eq!(g.calls, 2);
        assert_eq!(g.nanos, 150);
        assert_eq!(g.flops, 10);
        assert_eq!(g.bytes_moved, 80);
        assert_eq!(g.values(), [2, 150, 10, 4, 3, 80]);
        reset();
        assert_eq!(KernelTotals::read(Kernel::SpGemm).calls, 0);
    }

    #[test]
    fn high_water_rows_keep_the_maximum() {
        let _g = crate::test_guard();
        reset();
        for d in [3, 9, 5] {
            pending().max_depth.max(d);
        }
        assert_eq!(pending().totals().max_depth, 9);
        reset();
        assert_eq!(pending().totals(), PendingTotals::default());
    }

    #[test]
    fn pool_scheduler_recording_accumulates() {
        let _g = crate::test_guard();
        reset();
        record_pool_enqueue(1);
        record_pool_enqueue(2);
        record_pool_enqueue(1);
        pool().jobs_dequeued.add(1);
        let p = pool().totals();
        assert_eq!(p.jobs_queued, 3);
        assert_eq!(p.jobs_dequeued, 1);
        assert_eq!(p.queue_depth(), 2);
        assert_eq!(p.queue_depth_max, 2);

        record_pool_task(0, 100, 1000);
        record_pool_task(1, 50, 500);
        record_pool_task(0, 10, 200);
        let p = pool().totals();
        assert_eq!(p.tasks_completed, 3);
        assert_eq!(p.task_wait_ns, 160);
        assert_eq!(p.task_run_ns, 1700);
        assert_eq!(p.workers, 2);
        let busy = worker_busy_totals();
        assert_eq!(busy, vec![1200, 500]);

        // Out-of-range worker indices fold into the last slot.
        record_pool_task(MAX_POOL_WORKERS + 7, 0, 42);
        assert_eq!(pool().totals().workers, MAX_POOL_WORKERS as u64);
        assert_eq!(*worker_busy_totals().last().unwrap(), 42);
        // A `gauge` row survives reset; `counter` and `high_water` rows
        // and the busy table zero.
        reset();
        let p = pool().totals();
        assert_eq!(p.workers, MAX_POOL_WORKERS as u64);
        assert_eq!((p.jobs_queued, p.queue_depth_max), (0, 0));
        assert!(worker_busy_totals().iter().all(|&b| b == 0));
    }

    #[test]
    fn table_rows_generate_registry_values_and_json() {
        let _g = crate::test_guard();
        reset();
        sampler().samples.add(2);
        dag().nodes_enqueued.add(3);
        let snap = crate::snapshot();
        let values = block_values(&snap);
        assert_eq!(values.len(), BLOCK_METRICS.len());
        let at = |name: &str| {
            let i = BLOCK_METRICS.iter().position(|d| d.name == name).unwrap();
            values[i]
        };
        assert_eq!(at("grb.sampler.samples"), 2);
        assert_eq!(at("grb.dag.nodes_enqueued"), 3);
        let d = BLOCK_METRICS
            .iter()
            .find(|d| d.name == "grb.pending.max_depth")
            .unwrap();
        assert_eq!(d.kind, MetricKind::Gauge);
        assert_eq!(KERNEL_METRICS[0].name, "grb.kernel.calls");
        let json = snap.to_json_with(false);
        assert!(json.contains("\"dag\":{\"nodes_enqueued\":3,"), "{json}");
        assert!(json.contains("\"sampler\":{\"samples\":2,"), "{json}");
        reset();
        assert_eq!(sampler().totals(), SamplerTotals::default());
        assert_eq!(dag().totals(), DagTotals::default());
    }

    #[test]
    fn kernel_names_are_unique() {
        let mut names: Vec<_> = KERNEL_LIST.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KERNEL_COUNT);
    }
}
