//! Reason-coded decision provenance — the *why* layer of the telemetry
//! stack.
//!
//! The counters answer *how often* the runtime pushed instead of pulled,
//! hit the workspace cache, or fused a map run; the timeline answers
//! *when*. Neither answers *why a particular operation* took the path it
//! did. This module does: every choice point in the runtime — the Beamer
//! push/pull dispatch (paper §II's static-dispatch motivation applied at
//! runtime), workspace checkout hit/miss, pending-op fuse vs flush (§III
//! completion latitude), format conversions, and §V poisoning/error
//! deferral — emits one [`DecisionEvent`] carrying a [`Reason`] code and
//! the numbers that decided it (observed frontier density and the
//! threshold, chain length and trigger, source format and nnz, …).
//!
//! Events land in bounded per-thread rings mirroring [`crate::timeline`]:
//! each thread owns an `Arc<Mutex<ring>>` registered once and cached in
//! TLS, so the hot path takes an uncontended lock on its own ring — no
//! cross-thread contention, fixed memory (`GRB_EVENTS_CAPACITY` records
//! per thread, default 4096, oldest overwritten). Lifetime per-reason
//! aggregates are plain relaxed counters and survive ring truncation.
//!
//! Recording requires [`crate::enabled`] *and* [`events_requested`] —
//! when either is off the per-site cost is two relaxed loads (the
//! events-off fast path the overhead tests bound). Requested defaults to
//! on (`GRB_EVENTS=0` opts out); setting `GRB_EXPLAIN=<path>` implies
//! telemetry the same way `GRB_TRACE` does, and
//! [`write_explain_if_requested`] exports the full history there as
//! hand-written JSON (`graphblas-obs/explain/v1`), the file `grbexplain`
//! reads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::JsonWriter;
use crate::span;

/// Default per-thread decision-ring capacity (records, not bytes).
pub const DEFAULT_EVENTS_CAPACITY: usize = 4096;

/// Declares the reason codes once: each row is the variant, its stable
/// kebab-case code, and the names of its three numeric payload slots
/// (`""` = slot unused). Generates [`Reason`], [`REASON_COUNT`],
/// [`Reason::code`], [`Reason::all`] and [`Reason::arg_names`]; the
/// variant's discriminant is its index in [`Reason::all`] order.
macro_rules! reason_table {
    ( $( $(#[$doc:meta])* $Variant:ident = $code:literal $args:expr, )* ) => {
        /// Why the runtime did what it did: one code per choice point.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Reason {
            $( $(#[$doc])* $Variant, )*
        }

        /// Number of [`Reason`] codes (array sizing).
        pub const REASON_COUNT: usize = [$( $code ),*].len();

        impl Reason {
            /// The stable kebab-case code used in JSON exports,
            /// `grbexplain` assertions, and DESIGN.md §4a.
            pub fn code(self) -> &'static str {
                match self {
                    $( Reason::$Variant => $code, )*
                }
            }

            /// Every reason code, in a stable order (JSON key order).
            pub fn all() -> [Reason; REASON_COUNT] {
                [$( Reason::$Variant ),*]
            }

            /// Names for the three numeric payload slots (`""` = slot
            /// unused). These become the per-event JSON keys, so the
            /// export is self-describing.
            pub fn arg_names(self) -> [&'static str; 3] {
                match self {
                    $( Reason::$Variant => $args, )*
                }
            }
        }
    };
}

reason_table! {
    /// mxv/vxm dispatched the push (scatter) kernel: frontier density
    /// below the Beamer threshold.
    DirectionPush = "direction-push" ["frontier_nnz", "frontier_len", "threshold_den"],
    /// mxv/vxm dispatched the pull (dot-product) kernel: frontier density
    /// at or above the Beamer threshold.
    DirectionPull = "direction-pull" ["frontier_nnz", "frontier_len", "threshold_den"],
    /// A workspace checkout was served from the thread's cache.
    WorkspaceHit = "workspace-hit" ["bytes", "n", "generation"],
    /// A workspace checkout allocated fresh (nothing cached for the type).
    WorkspaceMiss = "workspace-miss" ["bytes", "n", "generation"],
    /// A thread's workspace cache was released (drop or explicit clear).
    WorkspaceTrim = "workspace-trim" ["bytes", "entries", ""],
    /// A run of pending map stages flushed as one fused traversal.
    FuseFlush = "fuse-flush" ["chain_len", "nnz_in", ""],
    /// An opaque pending stage executed (the fusion barrier).
    OpaqueDrain = "opaque-drain" ["", "", ""],
    /// A container store converted to CSR (source format in `detail`).
    ConvertCsr = "convert-csr" ["nnz", "", ""],
    /// A vector store canonicalized to sorted sparse (source in `detail`).
    ConvertSparse = "convert-sparse" ["nnz", "", ""],
    /// The memoized transpose was (re)computed for the current store.
    TransposeBuild = "transpose-build" ["nnz", "", ""],
    /// The memoized transpose was served from cache (O(1)).
    TransposeHit = "transpose-hit" ["nnz", "", ""],
    /// A sparse kernel chose an internal execution path (e.g. the spmv
    /// dense-frontier fast path); which one is in `detail`.
    KernelPath = "kernel-path" ["nnz", "len", ""],
    /// An execution error was constructed (§V; kind in `detail`).
    ErrorRaised = "error-raised" ["code", "", ""],
    /// A drain failed and poisoned its container (§V deferred error).
    ErrorDeferred = "error-deferred" ["", "", ""],
    /// An operation resolved its semiring/operator dispatch: `detail` is
    /// "static" (pre-monomorphized registry kernel, paper §II) or "dyn"
    /// (erased-closure fallback).
    DispatchPick = "dispatch-pick" ["", "", ""],
    /// The mxv/vxm store path picked a vector storage format for its
    /// result: `detail` is "bitmap" or "sparse" (Table III).
    FormatPick = "format-pick" ["nnz", "len", ""],
    /// An op-DAG node drained with neighbouring map stages fused into its
    /// kernel (§III cross-operation fusion): `detail` is the node kind,
    /// payload counts the pre-maps (input side) and post-maps (output
    /// side) absorbed.
    DagFuse = "dag-fuse" ["pre_maps", "post_maps", "nnz_in"],
    /// A lazy op DAG was forced to drain; `detail` says what forced it
    /// ("read", "wait", "async", "self-input").
    DagForce = "dag-force" ["depth", "", ""],
}

/// One runtime decision: what was chosen, where, and the numbers that
/// drove the choice (slot meanings per reason in [`Reason::arg_names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Process-global sequence number (total order across threads).
    pub seq: u64,
    pub reason: Reason,
    /// The deciding site ("mxv", "vxm", "workspace", "matrix.drain", …).
    pub op: &'static str,
    /// Reason-specific text payload (source format, workspace type,
    /// fuse trigger, error kind); `""` when unused.
    pub detail: &'static str,
    /// Owning context id (0 when the site has no context in scope).
    pub ctx: u64,
    /// Thread tag, resolvable via [`span::thread_name`].
    pub thread: u32,
    /// Microseconds since the telemetry epoch.
    pub t_us: u64,
    /// Numeric payload, named by [`Reason::arg_names`].
    pub args: [u64; 3],
}

// --- on/off knob ----------------------------------------------------------

static EVENTS_ON: OnceLock<AtomicBool> = OnceLock::new();

fn events_flag() -> &'static AtomicBool {
    EVENTS_ON.get_or_init(|| {
        // Default on (aggregates are cheap and explain() should work out
        // of the box whenever telemetry is enabled); GRB_EVENTS=0 opts
        // out, GRB_EXPLAIN re-requests explicitly.
        let via_export = std::env::var("GRB_EXPLAIN")
            .map(|v| !v.is_empty())
            .unwrap_or(false);
        let requested = match std::env::var("GRB_EVENTS") {
            Ok(v) => !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"),
            Err(_) => true,
        };
        AtomicBool::new(via_export || requested)
    })
}

/// Whether decision recording is requested. Recording also requires
/// [`crate::enabled`]; sites check [`on`] which combines both.
#[inline]
pub fn events_requested() -> bool {
    events_flag().load(Ordering::Relaxed)
}

/// Whether decision events are being collected right now (telemetry on
/// *and* events requested). The events-off fast path is exactly this
/// check: two relaxed loads, nothing else.
#[inline]
pub fn on() -> bool {
    crate::enabled() && events_requested()
}

/// Turns decision recording on or off at runtime. Turning it on does not
/// by itself enable telemetry (`set_enabled(true)` still gates).
pub fn set_events(on: bool) {
    // grbsa: protocol(mode-flag) — advisory toggle; acting on a stale
    // value loses at most one event, never correctness.
    events_flag().store(on, Ordering::Relaxed);
}

// --- per-thread rings + lifetime aggregates -------------------------------

struct EvRing {
    buf: Vec<DecisionEvent>,
    capacity: usize,
    written: u64,
}

impl EvRing {
    fn push(&mut self, ev: DecisionEvent) {
        let slot = (self.written % self.capacity as u64) as usize;
        if slot < self.buf.len() {
            self.buf[slot] = ev;
        } else {
            self.buf.push(ev);
        }
        self.written += 1;
    }

    fn chronological(&self) -> Vec<DecisionEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        let start = self.written.saturating_sub(self.buf.len() as u64);
        for i in start..self.written {
            out.push(self.buf[(i % self.capacity as u64) as usize]);
        }
        out
    }
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("GRB_EVENTS_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_EVENTS_CAPACITY)
    })
}

static RINGS: Mutex<Vec<(u32, Arc<Mutex<EvRing>>)>> = Mutex::new(Vec::new());

thread_local! {
    static MY_RING: Arc<Mutex<EvRing>> = {
        let tag = span::thread_tag();
        let ring = Arc::new(Mutex::new(EvRing {
            buf: Vec::new(),
            capacity: ring_capacity(),
            written: 0,
        }));
        let mut rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        rings.push((tag, ring.clone()));
        ring
    };
}

/// Global sequence source: `SEQ - 1` events have ever been recorded.
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Lifetime per-reason counts (monotonic; survive ring truncation).
static REASON_COUNTS: [AtomicU64; REASON_COUNT] = [const { AtomicU64::new(0) }; REASON_COUNT];

/// Total decision events ever recorded (including overwritten ones).
pub fn total() -> u64 {
    SEQ.load(Ordering::Relaxed) - 1
}

/// Lifetime count for one reason code.
pub fn count(reason: Reason) -> u64 {
    REASON_COUNTS[reason as usize].load(Ordering::Relaxed)
}

/// Lifetime counts for every reason code, in [`Reason::all`] order.
pub fn reason_counts() -> Vec<(Reason, u64)> {
    Reason::all().iter().map(|&r| (r, count(r))).collect()
}

/// Records one decision event. Callers should guard on [`on`] to keep
/// the disabled path at two relaxed loads; `record` re-checks so an
/// unguarded call is safe, just slower. Runtime choice points go through
/// [`decide`], which also bumps the decision's counters.
pub(crate) fn record(
    reason: Reason,
    op: &'static str,
    detail: &'static str,
    ctx: u64,
    args: [u64; 3],
) {
    if !on() {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    REASON_COUNTS[reason as usize].fetch_add(1, Ordering::Relaxed);
    let ev = DecisionEvent {
        seq,
        reason,
        op,
        detail,
        ctx,
        thread: span::thread_tag(),
        t_us: span::epoch().elapsed().as_micros() as u64,
        args,
    };
    // `try_with`: during thread-local teardown (a workspace cache's
    // destructor trimming after this ring is gone) the record is dropped
    // instead of panicking inside a destructor, which would abort.
    let _ = MY_RING.try_with(|ring| {
        ring.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    });
}

// --- decisions ------------------------------------------------------------

/// One runtime decision and the numbers that drove it. [`decide`] turns
/// it into its counter bumps and its reason-coded event, so a choice
/// point cannot bump a counter without recording why, or the reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Direction pick in mxv/vxm: density `frontier_nnz / frontier_len`
    /// against the Beamer threshold `1 / threshold_den`.
    Direction {
        pull: bool,
        frontier_nnz: u64,
        frontier_len: u64,
        threshold_den: u64,
    },
    /// Workspace checkout of type `ty` for a problem of size `n`: `bytes`
    /// is the reused buffer capacity (0 on a miss), `generation` the
    /// thread's checkout ordinal.
    Workspace {
        ty: &'static str,
        hit: bool,
        n: u64,
        bytes: u64,
        generation: u64,
    },
    /// A thread's workspace cache released `entries` cached buffers
    /// holding `bytes` recorded bytes.
    WorkspaceTrim { entries: u64, bytes: u64 },
    /// A pending map run of `chain_len` stages flushed as one traversal
    /// over `nnz_in` entries; `trigger` says what forced it.
    FuseFlush {
        chain_len: u64,
        nnz_in: u64,
        trigger: &'static str,
    },
    /// An opaque pending stage executed (fusion barrier).
    OpaqueDrain,
    /// A store converted to CSR from `src` ("csc", "coo", "dense",
    /// "unsorted"), now holding `nnz` entries.
    ConvertCsr { src: &'static str, nnz: u64 },
    /// A vector store canonicalized to sorted sparse from `src`; a
    /// `"bitmap"` source counts as a forced bitmap→sparse conversion.
    ConvertSparse { src: &'static str, nnz: u64 },
    /// Transpose-cache consult: a hit serves the memo, a build computes
    /// (`detail` distinguishes a cold build from an invalidation).
    Transpose {
        hit: bool,
        detail: &'static str,
        nnz: u64,
    },
    /// A sparse kernel picked internal path `path` for an input of
    /// `nnz`/`len`.
    KernelPath {
        path: &'static str,
        nnz: u64,
        len: u64,
    },
    /// An execution error was constructed: `kind` is the §V error kind,
    /// `code` the magnitude of its negative `GrB_Info` value.
    ErrorRaised { kind: &'static str, code: u64 },
    /// A drain failed and poisoned its container (§V deferral surfaced).
    ErrorDeferred,
    /// Kernel dispatch: `is_static` means a pre-monomorphized registry
    /// kernel ran (paper §II); otherwise the erased-closure fallback did.
    Dispatch { is_static: bool },
    /// The store path picked a vector storage format (`bitmap` = presence
    /// bits + dense slots) for a result of `nnz`/`len` (Table III).
    Format { bitmap: bool, nnz: u64, len: u64 },
    /// An op-DAG node of kind `kind` drained absorbing `pre_maps`
    /// input-side and `post_maps` output-side map stages over `nnz_in`
    /// input entries. A drain that fused nothing records no event.
    DagFuse {
        kind: &'static str,
        pre_maps: u64,
        post_maps: u64,
        nnz_in: u64,
    },
    /// A lazy op DAG was forced to drain `depth` queued stages; `cause`
    /// says what forced it ("read", "wait", "async", "self-input").
    DagForce { cause: &'static str, depth: u64 },
}

/// Takes one decision at site `op` (context `ctx`, 0 when none is in
/// scope): bumps its counters when telemetry is on, then records its
/// reason-coded event when events are requested too. Sites guard on
/// [`crate::enabled`] before building the payload; `decide` re-checks,
/// so an unguarded call is safe, just slower.
pub fn decide(op: &'static str, ctx: u64, d: Decision) {
    use crate::counters::{dag, direction, dispatch, format, pending, workspace};
    fn pick<T>(yes: bool, a: T, b: T) -> T {
        if yes {
            a
        } else {
            b
        }
    }
    if !crate::enabled() {
        return;
    }
    let (reason, detail, args) = match d {
        Decision::Direction {
            pull,
            frontier_nnz: nnz,
            frontier_len: len,
            threshold_den: den,
        } => {
            pick(pull, &direction().pull_picks, &direction().push_picks).add(1);
            let reason = pick(pull, Reason::DirectionPull, Reason::DirectionPush);
            (reason, "", [nnz, len, den])
        }
        Decision::Workspace {
            ty,
            hit,
            n,
            bytes,
            generation,
        } => {
            let ws = workspace();
            ws.checkouts.add(1);
            if hit {
                ws.hits.add(1);
                ws.bytes_reused.add(bytes);
            } else {
                ws.misses.add(1);
            }
            let reason = pick(hit, Reason::WorkspaceHit, Reason::WorkspaceMiss);
            (reason, ty, [bytes, n, generation])
        }
        Decision::WorkspaceTrim { entries, bytes } => {
            (Reason::WorkspaceTrim, "", [bytes, entries, 0])
        }
        Decision::FuseFlush {
            chain_len,
            nnz_in,
            trigger,
        } => {
            // A run of n maps executes as ONE traversal; the other n−1
            // stages were absorbed into it — each is a fusion hit.
            pending().map_traversals.add(1);
            pending().fusion_hits.add(chain_len.saturating_sub(1));
            (Reason::FuseFlush, trigger, [chain_len, nnz_in, 0])
        }
        Decision::OpaqueDrain => {
            pending().opaque_drains.add(1);
            (Reason::OpaqueDrain, "", [0; 3])
        }
        Decision::ConvertCsr { src, nnz } => (Reason::ConvertCsr, src, [nnz, 0, 0]),
        Decision::ConvertSparse { src, nnz } => {
            if src == "bitmap" {
                format().conversions.add(1);
            }
            (Reason::ConvertSparse, src, [nnz, 0, 0])
        }
        Decision::Transpose { hit, detail, nnz } => {
            let dir = direction();
            pick(hit, &dir.transpose_hits, &dir.transpose_builds).add(1);
            let reason = pick(hit, Reason::TransposeHit, Reason::TransposeBuild);
            (reason, detail, [nnz, 0, 0])
        }
        Decision::KernelPath { path, nnz, len } => (Reason::KernelPath, path, [nnz, len, 0]),
        Decision::ErrorRaised { kind, code } => {
            pending().errors_raised.add(1);
            (Reason::ErrorRaised, kind, [code, 0, 0])
        }
        Decision::ErrorDeferred => {
            pending().errors_deferred.add(1);
            (Reason::ErrorDeferred, "poisoned", [0; 3])
        }
        Decision::Dispatch { is_static } => {
            let d = dispatch();
            pick(is_static, &d.static_hits, &d.dyn_fallbacks).add(1);
            (
                Reason::DispatchPick,
                pick(is_static, "static", "dyn"),
                [0; 3],
            )
        }
        Decision::Format { bitmap, nnz, len } => {
            pick(bitmap, &format().bitmap_picks, &format().svec_picks).add(1);
            (
                Reason::FormatPick,
                pick(bitmap, "bitmap", "sparse"),
                [nnz, len, 0],
            )
        }
        Decision::DagFuse {
            kind,
            pre_maps: pre,
            post_maps: post,
            nnz_in,
        } => {
            dag().pre_fused.add(pre);
            dag().post_fused.add(post);
            if pre + post == 0 {
                return;
            }
            dag().fused_chains.add(1);
            (Reason::DagFuse, kind, [pre, post, nnz_in])
        }
        Decision::DagForce { cause, depth } => {
            dag().forces.add(1);
            (Reason::DagForce, cause, [depth, 0, 0])
        }
    };
    record(reason, op, detail, ctx, args);
}

// --- reading / explain ----------------------------------------------------

fn all_events() -> Vec<DecisionEvent> {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<DecisionEvent> = rings
        .iter()
        .flat_map(|(_, ring)| {
            ring.lock()
                .unwrap_or_else(|e| e.into_inner())
                .chronological()
        })
        .collect();
    out.sort_by_key(|e| e.seq);
    out
}

/// The retained decision history, oldest first, at most `last_n` events
/// (the newest ones).
pub fn recent(last_n: usize) -> Vec<DecisionEvent> {
    let mut evs = all_events();
    if evs.len() > last_n {
        evs.drain(..evs.len() - last_n);
    }
    evs
}

/// A `GrB_explain`-style view: the retained decision history plus
/// per-reason aggregates, serializable to JSON.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Decision events ever recorded process-wide (≥ `events.len()`; the
    /// excess was overwritten in the rings or filtered out).
    pub total: u64,
    /// Per-reason counts backing the JSON `reasons` block. For the global
    /// [`explain`] these are the lifetime aggregates (authoritative even
    /// after ring truncation); for [`explain_for_subtree`] they count the
    /// returned events only.
    pub counts: Vec<(Reason, u64)>,
    /// The retained events, oldest first.
    pub events: Vec<DecisionEvent>,
}

impl Explain {
    /// The aggregate count for one reason code.
    pub fn count(&self, reason: Reason) -> u64 {
        self.counts
            .iter()
            .find(|(r, _)| *r == reason)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Serializes as `graphblas-obs/explain/v1` JSON (the `GRB_EXPLAIN`
    /// export format `grbexplain` reads): schema, totals, a `reasons`
    /// object with every code, and the event array with per-reason named
    /// payload keys.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("graphblas-obs/explain/v1");
        w.key("total");
        w.number(self.total);
        w.key("retained");
        w.number(self.events.len() as u64);
        w.key("reasons");
        w.begin_object();
        for (r, c) in &self.counts {
            w.key(r.code());
            w.number(*c);
        }
        w.end_object();
        w.key("events");
        w.begin_array();
        for ev in &self.events {
            w.begin_object();
            w.key("seq");
            w.number(ev.seq);
            w.key("reason");
            w.string(ev.reason.code());
            w.key("op");
            w.string(ev.op);
            w.key("ctx");
            w.number(ev.ctx);
            w.key("thread");
            match span::thread_name(ev.thread) {
                Some(n) => w.string(&n),
                None => w.string(&format!("thread-{}", ev.thread)),
            }
            w.key("t_us");
            w.number(ev.t_us);
            if !ev.detail.is_empty() {
                w.key("detail");
                w.string(ev.detail);
            }
            for (name, val) in ev.reason.arg_names().iter().zip(ev.args.iter()) {
                if !name.is_empty() {
                    w.key(name);
                    w.number(*val);
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// The global decision history: the last `last_n` retained events plus
/// lifetime per-reason aggregates.
pub fn explain(last_n: usize) -> Explain {
    Explain {
        total: total(),
        counts: reason_counts(),
        events: recent(last_n),
    }
}

/// The decision history attributed to context `root_ctx` or any of its
/// registered descendants (per [`crate::ctxreg`] parent links). Events
/// with no context in scope (ctx 0, e.g. workspace checkouts inside
/// kernels) are excluded; aggregates count the returned events.
pub fn explain_for_subtree(root_ctx: u64, last_n: usize) -> Explain {
    let ids = crate::ctxreg::subtree_ids(root_ctx);
    let mut events: Vec<DecisionEvent> = all_events()
        .into_iter()
        .filter(|e| ids.contains(&e.ctx))
        .collect();
    if events.len() > last_n {
        events.drain(..events.len() - last_n);
    }
    let counts = Reason::all()
        .iter()
        .map(|&r| (r, events.iter().filter(|e| e.reason == r).count() as u64))
        .collect();
    Explain {
        total: total(),
        counts,
        events,
    }
}

/// If `GRB_EXPLAIN=<path>` is set, writes the full retained decision
/// history there as explain/v1 JSON and returns the path. Write failures
/// are reported to stderr, not fatal.
pub fn write_explain_if_requested() -> Option<String> {
    let path = std::env::var("GRB_EXPLAIN")
        .ok()
        .filter(|p| !p.is_empty())?;
    let json = explain(usize::MAX).to_json();
    match std::fs::write(&path, &json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("[grb-obs] failed to write GRB_EXPLAIN file {path}: {e}");
            None
        }
    }
}

/// Clears the rings and zeroes the lifetime aggregates and sequence
/// (part of [`crate::reset`]).
pub(crate) fn reset() {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    for (_, ring) in rings.iter() {
        let mut r = ring.lock().unwrap_or_else(|e| e.into_inner());
        r.buf.clear();
        r.written = 0;
    }
    // grbsa: protocol(counter-reset) — test-isolation zeroing; reset
    // points are single-threaded harness boundaries.
    for c in &REASON_COUNTS {
        c.store(0, Ordering::Relaxed);
    }
    SEQ.store(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direction(pull: bool, frontier_nnz: u64) -> Decision {
        Decision::Direction {
            pull,
            frontier_nnz,
            frontier_len: 64,
            threshold_den: 8,
        }
    }

    fn workspace(hit: bool, bytes: u64) -> Decision {
        Decision::Workspace {
            ty: "acc",
            hit,
            n: 64,
            bytes,
            generation: 3,
        }
    }

    #[test]
    fn record_respects_gates() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        set_events(true);
        crate::reset();
        record(Reason::DirectionPush, "t", "", 0, [1, 2, 3]);
        assert_eq!(total(), 0, "disabled telemetry must record nothing");
        crate::set_enabled(true);
        set_events(false);
        record(Reason::DirectionPush, "t", "", 0, [1, 2, 3]);
        assert_eq!(total(), 0, "events-off fast path must record nothing");
        set_events(true);
        record(Reason::DirectionPush, "t", "", 0, [1, 2, 3]);
        assert_eq!(total(), 1);
        assert_eq!(count(Reason::DirectionPush), 1);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn decide_bumps_counters_and_records_events_together() {
        use crate::counters::{dag, direction as dir, dispatch, format, pending, workspace as ws};
        let _g = crate::test_guard();
        crate::reset();
        // Telemetry off: neither counters nor events move.
        crate::set_enabled(false);
        decide("mxv", 0, direction(true, 16));
        assert_eq!((dir().pull_picks.get(), total()), (0, 0));
        // Telemetry on, events off: counters move, no event.
        crate::set_enabled(true);
        set_events(false);
        decide("mxv", 0, direction(true, 16));
        assert_eq!((dir().pull_picks.get(), total()), (1, 0));
        set_events(true);
        decide("mxv", 0, direction(false, 1));
        decide("workspace", 0, workspace(true, 4096));
        decide("workspace", 0, workspace(false, 0));
        decide(
            "transpose-cache",
            0,
            Decision::Transpose {
                hit: true,
                detail: "memoized",
                nnz: 9,
            },
        );
        decide(
            "transpose-cache",
            0,
            Decision::Transpose {
                hit: false,
                detail: "cold",
                nnz: 9,
            },
        );
        decide("mxv", 0, Decision::Dispatch { is_static: true });
        decide("mxv", 0, Decision::Dispatch { is_static: false });
        decide(
            "mxv",
            0,
            Decision::Format {
                bitmap: true,
                nnz: 3,
                len: 4,
            },
        );
        decide(
            "mxv",
            0,
            Decision::Format {
                bitmap: false,
                nnz: 1,
                len: 4,
            },
        );
        decide(
            "vector",
            0,
            Decision::ConvertSparse {
                src: "bitmap",
                nnz: 3,
            },
        );
        decide(
            "vector",
            0,
            Decision::ConvertSparse {
                src: "dense",
                nnz: 3,
            },
        );
        let flush = Decision::FuseFlush {
            chain_len: 3,
            nnz_in: 10,
            trigger: "queue-end",
        };
        decide("vector.drain", 0, flush);
        decide("vector.drain", 0, Decision::OpaqueDrain);
        decide(
            "error",
            0,
            Decision::ErrorRaised {
                kind: "OutOfMemory",
                code: 102,
            },
        );
        decide("vector.drain", 0, Decision::ErrorDeferred);
        let fuse = |pre_maps, post_maps| Decision::DagFuse {
            kind: "mxv",
            pre_maps,
            post_maps,
            nnz_in: 5,
        };
        decide("mxv", 0, fuse(2, 1));
        decide("mxv", 0, fuse(0, 0)); // fused nothing: no chain, no event
        decide("mxv", 0, fuse(0, 4));
        decide(
            "vector.drain",
            0,
            Decision::DagForce {
                cause: "read",
                depth: 2,
            },
        );
        let d = dir().totals();
        assert_eq!((d.push_picks, d.pull_picks), (1, 1));
        assert_eq!((d.transpose_hits, d.transpose_builds), (1, 1));
        let w = ws().totals();
        assert_eq!(
            (w.checkouts, w.hits, w.misses, w.bytes_reused),
            (2, 1, 1, 4096)
        );
        let s = dispatch().totals();
        assert_eq!((s.static_hits, s.dyn_fallbacks), (1, 1));
        let f = format().totals();
        assert_eq!((f.bitmap_picks, f.svec_picks, f.conversions), (1, 1, 1));
        let p = pending().totals();
        assert_eq!(
            (p.map_traversals, p.fusion_hits, p.opaque_drains),
            (1, 2, 1)
        );
        assert_eq!((p.errors_raised, p.errors_deferred), (1, 1));
        let g = dag().totals();
        assert_eq!(
            (g.pre_fused, g.post_fused, g.fused_chains, g.forces),
            (2, 5, 2, 1)
        );
        // Every decision but the first two and the empty DAG fuse left an
        // event.
        assert_eq!(total(), 18);
        assert_eq!(count(Reason::DagFuse), 2);
        assert_eq!(count(Reason::ConvertSparse), 2);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn explain_orders_and_serializes() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_events(true);
        crate::reset();
        decide("mxv", 7, direction(false, 1));
        decide("mxv", 7, direction(true, 16));
        decide("workspace", 0, workspace(true, 512));
        let flush = Decision::FuseFlush {
            chain_len: 4,
            nnz_in: 100,
            trigger: "queue-end",
        };
        decide("vector.drain", 7, flush);
        let ex = explain(usize::MAX);
        assert_eq!(ex.total, 4);
        assert_eq!(ex.events.len(), 4);
        assert!(ex.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(ex.count(Reason::DirectionPush), 1);
        assert_eq!(ex.count(Reason::DirectionPull), 1);
        assert_eq!(ex.count(Reason::WorkspaceHit), 1);
        assert_eq!(ex.count(Reason::FuseFlush), 1);
        let json = ex.to_json();
        assert!(json.contains("\"schema\":\"graphblas-obs/explain/v1\""));
        assert!(json.contains("\"direction-pull\":1"));
        assert!(json.contains("\"frontier_nnz\":16"));
        assert!(json.contains("\"chain_len\":4"));
        assert!(json.contains("\"detail\":\"queue-end\""));
        // Unused payload slots are not serialized.
        assert!(!json.contains("\"\":"));
        // last_n trims from the front (oldest dropped).
        let ex2 = explain(2);
        assert_eq!(ex2.events.len(), 2);
        assert_eq!(ex2.events[1].reason, Reason::FuseFlush);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn subtree_filter_scopes_by_context() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_events(true);
        crate::reset();
        let base = 3_000_000_000;
        crate::ctxreg::register_context(base + 1, 0, Some("root"));
        crate::ctxreg::register_context(base + 2, base + 1, None);
        decide("mxv", base + 2, direction(true, 8));
        decide("mxv", 999_999_999, direction(false, 1)); // other tree
        decide("workspace", 0, workspace(false, 0)); // ctx 0
        let ex = explain_for_subtree(base + 1, usize::MAX);
        assert_eq!(ex.events.len(), 1);
        assert_eq!(ex.events[0].ctx, base + 2);
        assert_eq!(ex.count(Reason::DirectionPull), 1);
        assert_eq!(ex.count(Reason::WorkspaceMiss), 0);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn ring_truncation_keeps_newest() {
        let mut r = EvRing {
            buf: Vec::new(),
            capacity: 4,
            written: 0,
        };
        for i in 0..10u64 {
            r.push(DecisionEvent {
                seq: i,
                reason: Reason::KernelPath,
                op: "x",
                detail: "",
                ctx: 0,
                thread: 1,
                t_us: i,
                args: [0; 3],
            });
        }
        let kept = r.chronological();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].seq, 6);
        assert_eq!(kept[3].seq, 9);
    }
}
