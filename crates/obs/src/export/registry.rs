//! The metric registry: the single authoritative table of every metric
//! this crate exports, under stable dotted names.
//!
//! Counter blocks ([`crate::counters`]), memory gauges ([`crate::mem`]),
//! latency histograms ([`crate::hist`]), and per-Context rollups
//! ([`crate::ctxreg`]) all surface here — one row per family, with the
//! kind and help string the Prometheus exposition needs. The
//! `grb.kernel.<field>` and `grb.<block>.<field>` rows are generated from
//! the counter table, so a counter cannot exist without its metric; the
//! derived families (percentiles, window rates, memory, contexts,
//! decisions) are the hand-written rows below.

use std::sync::OnceLock;

use crate::counters;

/// What a metric family's value means over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone cumulative count (resets only with [`crate::reset`]).
    Counter,
    /// Point-in-time level; may go up and down.
    Gauge,
}

impl MetricKind {
    /// The exposition `# TYPE` keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One registered metric family.
#[derive(Debug, Clone, Copy)]
pub struct MetricDesc {
    /// Stable dotted name (`grb.<block>.<field>`); the exposition mangles
    /// dots to underscores.
    pub name: &'static str,
    pub kind: MetricKind,
    /// One-line help string for the `# HELP` exposition line.
    pub help: &'static str,
}

const C: MetricKind = MetricKind::Counter;
const G: MetricKind = MetricKind::Gauge;

const fn m(name: &'static str, kind: MetricKind, help: &'static str) -> MetricDesc {
    MetricDesc { name, kind, help }
}

/// Derived per-kernel families (label: kernel), after the generated
/// `grb.kernel.<field>` rows.
static KERNEL_DERIVED: &[MetricDesc] = &[
    m("grb.kernel.p50_ns", G, "Median kernel latency over the process lifetime."),
    m("grb.kernel.p99_ns", G, "99th-percentile kernel latency over the process lifetime."),
    m("grb.kernel.max_ns", G, "Largest kernel latency observed."),
    m("grb.kernel.rate", G, "Kernel invocations per second over the sampler window."),
    m("grb.kernel.rolling_p99_ns", G, "99th-percentile kernel latency over the sampler window."),
];

/// Derived families after the generated counter-block rows. Labeled
/// families (`worker`, `ctx`, `reason`) fan out to one sample per label
/// value at collection time.
static DERIVED: &[MetricDesc] = &[
    m("grb.pending.drain_rate", G, "Queue drains per second over the sampler window."),
    m("grb.pool.queue_depth", G, "Jobs currently waiting in the pool queue."),
    m("grb.pool.worker_busy_ns", C, "Cumulative busy nanoseconds per worker."),
    m("grb.pool.utilization", G, "Mean worker busy fraction over the sampler window."),
    // Memory gauges.
    m("grb.mem.container_live_bytes", G, "Live bytes held by container stores."),
    m("grb.mem.container_high_bytes", G, "High-water container-store bytes."),
    m("grb.mem.workspace_live_bytes", G, "Live bytes held by the workspace cache."),
    m("grb.mem.workspace_high_bytes", G, "High-water workspace-cache bytes."),
    // Per-Context rollups (label: ctx).
    m("grb.ctx.spans", C, "Spans recorded against each context."),
    m("grb.ctx.nanos", C, "Span wall time attributed to each context."),
    m("grb.ctx.mem_live_bytes", G, "Live bytes attributed to each context."),
    m("grb.ctx.mem_high_bytes", G, "High-water bytes attributed to each context."),
    // Decision provenance and the event ring.
    m("grb.decisions.by_reason", C, "Decision events per reason code."),
    m("grb.decisions.total", C, "Decision events recorded in total."),
    m("grb.events.total", C, "Span events ever recorded (ring may have dropped some)."),
    // Aggregate window rates.
    m("grb.rate.bytes", G, "Bytes moved per second over the sampler window."),
];

/// The full metric registry, in exposition order: per-kernel rows, the
/// counter blocks in table order, then the derived families.
pub fn registry() -> &'static [MetricDesc] {
    static REGISTRY: OnceLock<Vec<MetricDesc>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        [
            &counters::KERNEL_METRICS,
            KERNEL_DERIVED,
            counters::BLOCK_METRICS,
            DERIVED,
        ]
        .concat()
    })
}

/// Looks up a family by dotted name.
pub fn find(name: &str) -> Option<&'static MetricDesc> {
    registry().iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<_> = registry().iter().map(|d| d.name).collect();
        assert!(names.iter().all(|n| n.starts_with("grb.")), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate registry names");
    }

    #[test]
    fn every_name_resolves() {
        assert!(find("grb.kernel.calls").is_some());
        assert!(find("grb.pool.queue_depth").is_some());
        assert!(find("no.such.metric").is_none());
    }

    #[test]
    fn help_strings_are_exposition_safe() {
        for d in registry() {
            assert!(!d.help.contains('\n'), "{}: multi-line help", d.name);
            assert!(!d.help.is_empty(), "{}: empty help", d.name);
        }
    }
}
