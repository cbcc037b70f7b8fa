//! The background sampler: a bounded ring of periodic counter snapshots.
//!
//! Cumulative counters answer "how much since startup"; the serving-layer
//! questions are "how fast right now" and "how bad is the tail lately".
//! Both are deltas between two points in time, so the sampler keeps a
//! ring of cheap periodic [`SamplePoint`]s (kernel totals, latency
//! histograms, pool totals) and [`window`] hands back the oldest and
//! newest for rate and rolling-percentile computation.
//!
//! The thread only exists after [`start`] (called from `export::init`
//! when `GRB_METRICS_ADDR` or `GRB_METRICS_DUMP` is set); a process that
//! never opts in pays nothing. Each tick guards on [`crate::enabled`],
//! so disabling telemetry mid-run idles the sampler to a relaxed load
//! and a sleep. Following the paper's Fig. 1 thread-safety stance, the
//! ring is a plain mutex-guarded deque touched a few times per second —
//! never on a kernel hot path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::counters::{self, KernelTotals, PoolTotals};
use crate::hist::HistTotals;
use crate::span;

/// Default sampler period in milliseconds (`GRB_METRICS_INTERVAL_MS`).
pub const DEFAULT_INTERVAL_MS: u64 = 250;

/// Default ring capacity in samples (`GRB_METRICS_RING`): one minute of
/// history at the default period.
pub const DEFAULT_RING_CAPACITY: usize = 240;

/// One periodic snapshot of the rate-relevant counters.
#[derive(Debug, Clone)]
pub struct SamplePoint {
    /// Capture time, nanoseconds since the telemetry epoch.
    pub t_ns: u64,
    /// Per-kernel cumulative totals at capture time.
    pub kernels: Vec<KernelTotals>,
    /// Per-kernel cumulative latency histograms, same order as `kernels`.
    pub hists: Vec<HistTotals>,
    /// Cumulative pending-queue drains.
    pub drains: u64,
    /// Cumulative pool totals.
    pub pool: PoolTotals,
    /// Per-worker cumulative busy nanoseconds.
    pub worker_busy: Vec<u64>,
}

impl SamplePoint {
    /// The all-zero sample at the telemetry epoch — the implicit baseline
    /// when the ring is empty or holds a single point.
    pub fn zero() -> Self {
        SamplePoint {
            t_ns: 0,
            kernels: Vec::new(),
            hists: Vec::new(),
            drains: 0,
            pool: PoolTotals::default(),
            worker_busy: Vec::new(),
        }
    }

    /// Cumulative calls for kernel `k` at this point (0 if unseen).
    pub fn calls(&self, k: counters::Kernel) -> u64 {
        self.kernels
            .iter()
            .find(|t| t.kernel == k)
            .map_or(0, |t| t.calls)
    }

    /// Cumulative bytes moved across all kernels at this point.
    pub fn bytes_moved(&self) -> u64 {
        self.kernels.iter().map(|t| t.bytes_moved).sum()
    }

    /// Cumulative latency histogram for kernel `k` (empty if unseen).
    pub fn hist(&self, k: counters::Kernel) -> HistTotals {
        self.kernels
            .iter()
            .position(|t| t.kernel == k)
            .and_then(|i| self.hists.get(i))
            .copied()
            .unwrap_or_default()
    }
}

/// Takes one snapshot of the rate-relevant counters right now.
pub fn capture() -> SamplePoint {
    let hists = crate::hist::kernel_hists();
    SamplePoint {
        t_ns: span::epoch().elapsed().as_nanos() as u64,
        kernels: counters::kernel_totals(),
        hists: hists.into_iter().map(|kh| kh.hist).collect(),
        drains: counters::pending().drains.get(),
        pool: counters::pool().totals(),
        worker_busy: counters::worker_busy_totals(),
    }
}

struct Ring {
    points: VecDeque<SamplePoint>,
    capacity: usize,
}

static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
static RUNNING: AtomicBool = AtomicBool::new(false);

fn ring() -> &'static Mutex<Ring> {
    RING.get_or_init(|| {
        let capacity = std::env::var("GRB_METRICS_RING")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 2)
            .unwrap_or(DEFAULT_RING_CAPACITY);
        Mutex::new(Ring {
            points: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        })
    })
}

/// The sampler period, honouring `GRB_METRICS_INTERVAL_MS`.
pub fn interval() -> Duration {
    static MS: OnceLock<u64> = OnceLock::new();
    Duration::from_millis(*MS.get_or_init(|| {
        std::env::var("GRB_METRICS_INTERVAL_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .unwrap_or(DEFAULT_INTERVAL_MS)
    }))
}

/// Takes one sample immediately and pushes it onto the ring (evicting the
/// oldest at capacity). Also the dump path's way to guarantee a fresh
/// endpoint before rendering.
pub fn sample_now() {
    let point = capture();
    let mut r = ring().lock().unwrap_or_else(|e| e.into_inner());
    if r.points.len() == r.capacity {
        r.points.pop_front();
    }
    r.points.push_back(point);
    drop(r);
    counters::sampler().samples.add(1);
}

/// The rate window: the newest ring sample paired with the oldest one
/// strictly before it. With fewer than two distinct points the baseline
/// is the zero sample at the epoch, so rates degrade to lifetime
/// averages instead of vanishing. `None` only when no sample was ever
/// taken *and* telemetry is disabled (nothing meaningful to report).
pub fn window() -> (SamplePoint, SamplePoint) {
    let r = ring().lock().unwrap_or_else(|e| e.into_inner());
    let newest = r.points.back().cloned();
    let oldest = r.points.front().cloned();
    drop(r);
    let newest = newest.unwrap_or_else(capture);
    let oldest = match oldest {
        Some(o) if o.t_ns < newest.t_ns => o,
        _ => SamplePoint::zero(),
    };
    (oldest, newest)
}

/// Number of samples currently retained in the ring.
pub fn ring_len() -> usize {
    ring().lock().unwrap_or_else(|e| e.into_inner()).points.len()
}

/// Whether the background sampler thread is running.
pub fn running() -> bool {
    RUNNING.load(Ordering::Relaxed)
}

/// Starts the background sampler thread (idempotent). The thread samples
/// every [`interval`] while telemetry is enabled and idles otherwise; it
/// is detached and lives for the remainder of the process.
pub fn start() {
    // grbsa: protocol(mode-flag) — start-once latch; the RMW's atomicity
    // alone decides the winner, no data is published through it.
    if RUNNING.swap(true, Ordering::Relaxed) {
        return;
    }
    let period = interval();
    let spawned = std::thread::Builder::new()
        .name("grb-sampler".to_string())
        .spawn(move || loop {
            std::thread::sleep(period);
            if crate::enabled() {
                sample_now();
            }
        });
    if let Err(e) = spawned {
        eprintln!("[grb-obs] failed to spawn metrics sampler thread: {e}");
        // grbsa: protocol(mode-flag) — advisory start/stop flag; a racing
        // reader at worst re-attempts the spawn.
        RUNNING.store(false, Ordering::Relaxed);
    }
}

/// Clears the ring (test isolation; the thread, if any, keeps running).
pub fn reset_ring() {
    let mut r = ring().lock().unwrap_or_else(|e| e.into_inner());
    r.points.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Kernel;

    #[test]
    fn window_bootstraps_from_zero() {
        let _g = crate::test_guard();
        reset_ring();
        let (old, new) = window();
        assert_eq!(old.t_ns, 0);
        assert!(new.t_ns >= old.t_ns);

        sample_now();
        let (old, new) = window();
        assert_eq!(old.t_ns, 0, "single sample still baselines at zero");
        assert!(new.t_ns > 0);
        reset_ring();
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _g = crate::test_guard();
        reset_ring();
        for _ in 0..5 {
            sample_now();
        }
        let (old, new) = window();
        assert!(old.t_ns <= new.t_ns);
        assert!(ring_len() <= DEFAULT_RING_CAPACITY);
        reset_ring();
    }

    #[test]
    fn sample_point_lookups_default_to_zero() {
        let p = SamplePoint::zero();
        assert_eq!(p.calls(Kernel::SpGemm), 0);
        assert_eq!(p.bytes_moved(), 0);
        assert_eq!(p.hist(Kernel::SpMv).count, 0);
    }
}
