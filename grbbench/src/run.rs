//! The two kinds of run: end-to-end with telemetry off (`--trace 0`) and
//! the traced run (`--trace 1`), plus the events arm the traced run
//! starts as a child process.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use graphblas_core::GrbResult;

use crate::machine::{self, Machine};
use crate::probes;
use crate::report::Report;
use crate::spans::{self, Tracer};
use crate::stats::{median, tail_at};
use crate::workload::{Kind, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: run only the obs-plus-events arm and print its medians.
    pub events_arm: bool,
}

pub const USAGE: &str = "usage: grbbench --workload <pagerank|bfs|triangles|stream> --seed <n> --seconds <s> --trace <0|1>";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut events_arm = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--events-arm" {
            events_arm = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        events_arm,
    })
}

fn obs(on: bool, events: bool) {
    graphblas_obs::set_enabled(on);
    graphblas_obs::events::set_events(events);
}

fn header(args: &Args, m: &Machine, w: &Workload, rep: &mut Report) {
    rep.note(format!(
        "workload={} seed={} scale={} mode={:?} stored_entries={} input_fingerprint={:016x}",
        args.workload.name(),
        args.seed,
        args.workload.scale(),
        args.workload.mode(),
        w.adj().nnz(),
        w.fingerprint
    ));
    rep.note(format!(
        "load: closed loop, 1 caller thread; {}",
        m.describe()
    ));
}

/// Runs one repetition inside a `rep` span, timing it and checking its output.
/// Returns the seconds when the output was correct.
fn timed_rep(
    w: &mut Workload,
    tr: &mut Tracer,
    id: u64,
    rep: &mut Report,
) -> GrbResult<Option<f64>> {
    w.before_rep(tr, id)?;
    let root = tr.begin("rep", "bench", id);
    let t = Instant::now();
    let out = w.rep(tr, id);
    let secs = t.elapsed().as_secs_f64();
    tr.end(root);
    rep.attempted += 1;
    let ok = match out {
        Ok(out) => w.check(&out).unwrap_or(false),
        Err(e) => {
            rep.note(format!("repetition {id} returned an error: {e}"));
            false
        }
    };
    if !ok {
        rep.failed += 1;
        if rep.failed <= 3 {
            rep.note(format!("repetition {id} failed validation"));
        }
    }
    Ok(ok.then_some(secs))
}

/// `--trace 0`: set up several times, then repeat for `seconds` with
/// telemetry off.
pub fn end_to_end(args: &Args) -> GrbResult<Report> {
    obs(false, false);
    let m = Machine::detect();
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut w = None;
    for k in 0..SETUPS {
        drop(w.take());
        let t = Instant::now();
        w = Some(Workload::setup(
            args.workload,
            args.seed,
            &mut off,
            k as u64,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    w.prepare_reference();
    let mut rep = Report::default();
    header(args, &m, &w, &mut rep);

    let mut times = Vec::new();
    let ticks = machine::cpu_ticks();
    let t0 = Instant::now();
    let mut id = 0;
    while id == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        id += 1;
        if let Some(s) = timed_rep(&mut w, &mut off, id, &mut rep)? {
            times.push(s);
        }
    }
    rep.note(format!(
        "cpu_steal_share={:.4} (host steal during the measured loop, all CPUs)",
        machine::steal_share(ticks, machine::cpu_ticks())
    ));
    rep.correct = rep.failed == 0;
    let p50 = median(&times);
    let fixed = args.workload.tail_percentile();
    let t = tail_at(&times, fixed);
    rep.note(format!(
        "samples={} tail=p{} ({} samples beyond; this workload's fixed tail percentile is p{fixed}) setups={SETUPS} telemetry=off",
        times.len(),
        t.percentile,
        t.beyond
    ));
    rep.note(format!(
        "fail_ratio={} ({} of {} repetitions failed; pass_ratio below is 1 - fail_ratio)",
        rep.failed as f64 / rep.attempted as f64,
        rep.failed,
        rep.attempted
    ));
    rep.note(format!(
        "edges_per_s work per repetition = {}",
        w.work_per_rep()
    ));
    rep.push("run_s_p50", "s", p50);
    rep.push("run_s_tail", "s", t.value);
    rep.push(
        "edges_per_s",
        "1/s",
        if p50 > 0.0 {
            w.work_per_rep() / p50
        } else {
            0.0
        },
    );
    rep.push("setup_s", "s", median(&setup_s));
    rep.push("peak_rss_bytes", "B", machine::peak_rss_bytes() as f64);
    rep.push(
        "pass_ratio",
        "ratio",
        (rep.attempted - rep.failed) as f64 / rep.attempted as f64,
    );
    Ok(rep)
}

/// Counters read from `graphblas_obs::snapshot()`, by metric name.
fn counters() -> BTreeMap<String, f64> {
    let s = graphblas_obs::snapshot();
    let mut c = BTreeMap::new();
    let mut put = |k: &str, v: u64| {
        c.insert(k.to_string(), v as f64);
    };
    for k in &s.kernels {
        let layer = if k.kernel.name() == "wait" {
            "core"
        } else {
            "sparse"
        };
        put(&format!("{layer}.{}.calls", k.kernel.name()), k.calls);
        put(&format!("{layer}.{}.busy_ns", k.kernel.name()), k.nanos);
    }
    put("exec.pool.tasks_spawned", s.pool.tasks_spawned);
    put("exec.pool.tasks_inline", s.pool.tasks_inline);
    put("exec.pool.task_wait_ns", s.pool.task_wait_ns);
    put("exec.pool.task_run_ns", s.pool.task_run_ns);
    put("exec.workspace.checkouts", s.workspace.checkouts);
    put("exec.workspace.hits", s.workspace.hits);
    put("core.direction.push_picks", s.direction.push_picks);
    put("core.direction.pull_picks", s.direction.pull_picks);
    put("core.transpose.builds", s.direction.transpose_builds);
    put("core.transpose.hits", s.direction.transpose_hits);
    put("core.format.bitmap_picks", s.format.bitmap_picks);
    put("core.format.svec_picks", s.format.svec_picks);
    put("core.format.conversions", s.format.conversions);
    put("core.dag.nodes_enqueued", s.dag.nodes_enqueued);
    put("core.dag.fused", s.dag.pre_fused + s.dag.post_fused);
    put("core.dag.forces", s.dag.forces);
    put("core.dag.async_drains", s.dag.async_drains);
    put("core.dispatch.static_hits", s.dispatch.static_hits);
    put("core.dispatch.dyn_fallbacks", s.dispatch.dyn_fallbacks);
    put("core.pending.drains", s.pending.drains);
    c
}

/// Kernels reported as `sparse.<k>.calls` / `sparse.<k>.busy_s`.
const KERNELS: [&str; 11] = [
    "spgemm",
    "spmv",
    "vxm",
    "ewise_add",
    "ewise_mult",
    "transpose",
    "apply",
    "select",
    "reduce",
    "map_fuse",
    "convert",
];

#[derive(Clone, Copy)]
enum Arm {
    Off,
    Traced,
    On,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The directory span files are written to.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--trace 1`: a traced set-up, interleaved off / traced / obs-on
/// repetitions, the layer probes, and the obs-plus-events arm in a child
/// process. Prints the per-layer ledger.
pub fn traced(args: &Args) -> GrbResult<Report> {
    obs(false, false);
    let m = Machine::detect();
    let budget = args.seconds;
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut w = Workload::setup(args.workload, args.seed, &mut tr, 0)?;
    // Generation, and the build with the `wait(Materialize)` that
    // completes it (a nonblocking build is deferred until then).
    let setup_s = |names: &[&str]| -> f64 {
        let s = tr.spans();
        s.iter()
            .filter(|x| names.contains(&x.name) && x.parent.is_some_and(|p| s[p].name == "setup"))
            .map(|x| x.dur_ns() as f64 / 1e9)
            .sum()
    };
    let (generate_s, build_s) = (
        setup_s(&["io.generate"]),
        setup_s(&["core.build", "core.wait"]),
    );
    let root = tr.begin("ref.prepare", "ref", 0);
    w.prepare_reference();
    tr.end(root);
    let mut rep = Report::default();
    header(args, &m, &w, &mut rep);

    // Single-threaded reference time.
    let mut ref_s = Vec::new();
    let t0 = Instant::now();
    while ref_s.len() < 3 || (ref_s.len() < 15 && t0.elapsed().as_secs_f64() < 0.1 * budget) {
        let root = tr.begin("ref", "ref", ref_s.len() as u64);
        let t = Instant::now();
        std::hint::black_box(w.run_reference());
        ref_s.push(t.elapsed().as_secs_f64());
        tr.end(root);
    }

    // Interleaved arms. Counters are deltas around the traced repetitions.
    graphblas_obs::reset();
    graphblas_obs::mem::rearm_high_water();
    let mut sum: BTreeMap<String, f64> = BTreeMap::new();
    let mut times: [Vec<f64>; 3] = Default::default();
    let arms = [Arm::Off, Arm::Traced, Arm::On];
    let ticks = machine::cpu_ticks();
    let t0 = Instant::now();
    let mut id = 0u64;
    while id < 6 || t0.elapsed().as_secs_f64() < 0.5 * budget {
        let arm = arms[id as usize % arms.len()];
        id += 1;
        let secs = match arm {
            Arm::Off => timed_rep(&mut w, &mut off, id, &mut rep)?,
            Arm::On => {
                obs(true, false);
                let s = timed_rep(&mut w, &mut off, id, &mut rep);
                obs(false, false);
                s?
            }
            Arm::Traced => {
                let s0 = tr.span("obs.snapshot", "obs", id, counters);
                obs(true, false);
                let s = timed_rep(&mut w, &mut tr, id, &mut rep);
                obs(false, false);
                let s1 = tr.span("obs.snapshot", "obs", id, counters);
                for (k, v) in &s1 {
                    *sum.entry(k.clone()).or_insert(0.0) += v - s0.get(k).copied().unwrap_or(0.0);
                }
                s?
            }
        };
        if let Some(s) = secs {
            times[arm as usize].push(s);
        }
    }
    let steal = machine::steal_share(ticks, machine::cpu_ticks());
    let mem = graphblas_obs::mem::totals();
    // Reset above; only the obs-on and traced arms (the same work) raise it.
    let max_depth = graphblas_obs::snapshot().pending.max_depth;
    let p50 = |a: Arm| median(&times[a as usize]);
    let n_of = |a: Arm| times[a as usize].len();
    let traced_reps = n_of(Arm::Traced).max(1) as f64;
    let per_rep = |k: &str| sum.get(k).copied().unwrap_or(0.0) / traced_reps;

    // Layer probes, with telemetry off.
    let pb = probes::run(
        &w,
        m.llc_bytes,
        Duration::from_secs_f64(0.25 * budget),
        &mut tr,
    );
    for mm in &pb.mismatches {
        rep.note(format!("probe mismatch: {mm}"));
    }

    // The obs-plus-events arm, isolated in a child process.
    let ev = events_child(args, 0.25 * budget);
    rep.note(ev.note.clone());

    // Span file and its self-check.
    let span_check = spans::check(tr.spans());
    if let Err(e) = &span_check {
        rep.note(format!("span check failed: {e}"));
    }
    let file = out_dir().join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let hdr = [
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("machine", m.describe()),
        ("input_fingerprint", format!("{:016x}", w.fingerprint)),
    ];
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(&file, spans::to_json(tr.spans(), &hdr)));
    match written {
        Ok(()) => rep.note(format!(
            "span file: {} ({} spans)",
            file.display(),
            tr.spans().len()
        )),
        Err(e) => rep.note(format!("span file not written: {e}")),
    }
    let layers = spans::layer_self_s(tr.spans(), "rep");
    let layer_s = |l: &str| layers.get(l).copied().unwrap_or(0.0) / traced_reps;
    rep.note(format!(
        "layer self time per traced repetition: {}",
        layers
            .iter()
            .map(|(l, s)| format!("{l}={:.6}s", s / traced_reps))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let (off_p50, traced_p50, on_p50) = (p50(Arm::Off), p50(Arm::Traced), p50(Arm::On));
    rep.note(format!(
        "arms: off p50={off_p50:.6}s (n={}), traced p50={traced_p50:.6}s (n={}), obs-on p50={on_p50:.6}s (n={}); \
         obs.on_ratio base = off p50, tracing overhead = traced - off; cpu_steal_share={steal:.4}",
        n_of(Arm::Off),
        n_of(Arm::Traced),
        n_of(Arm::On)
    ));
    rep.note(format!(
        "triad: {} threads, arrays of {} B each (llc {} B); vxm bytes (computed from the sizes of the arrays read) = {}; spgemm flops computed = {}",
        m.pool_width, pb.triad_array_bytes, m.llc_bytes, pb.vxm_bytes, pb.spgemm_flops
    ));
    rep.note(format!(
        "fail_ratio={} ({} of {} repetitions failed)",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    ));
    rep.correct =
        rep.failed == 0 && pb.mismatches.is_empty() && span_check.is_ok() && ev.failed == 0;

    let vxm_bps = ratio(pb.vxm_bytes, pb.sparse_vxm_s);
    rep.push("sparse.vxm_s", "s", pb.sparse_vxm_s);
    rep.push("sparse.vxm_bytes_per_s", "B/s", vxm_bps);
    rep.push(
        "sparse.vxm_bw_frac",
        "ratio",
        ratio(vxm_bps, pb.triad_bytes_per_s),
    );
    rep.push("sparse.spgemm_masked_s", "s", pb.spgemm_masked_s);
    rep.push(
        "sparse.spgemm_flops_per_s",
        "1/s",
        ratio(pb.spgemm_flops, pb.spgemm_masked_s),
    );
    rep.push(
        "exec.workspace.hit_ratio",
        "ratio",
        ratio(
            per_rep("exec.workspace.hits"),
            per_rep("exec.workspace.checkouts"),
        ),
    );
    let (wait_s, run_s) = (
        per_rep("exec.pool.task_wait_ns") / 1e9,
        per_rep("exec.pool.task_run_ns") / 1e9,
    );
    rep.push("exec.pool.task_wait_s", "s", wait_s);
    rep.push("exec.pool.task_run_s", "s", run_s);
    rep.push(
        "exec.pool.wait_share",
        "ratio",
        ratio(wait_s, wait_s + run_s),
    );
    rep.push("core.vxm_s", "s", pb.core_vxm_s);
    rep.push("core.api_overhead_s", "s", pb.core_vxm_s - pb.sparse_vxm_s);
    rep.push("exec.scope_s", "s", pb.scope_s);
    for k in [
        "exec.pool.tasks_spawned",
        "exec.pool.tasks_inline",
        "core.direction.push_picks",
        "core.direction.pull_picks",
        "core.format.bitmap_picks",
        "core.format.svec_picks",
        "core.format.conversions",
        "core.dag.nodes_enqueued",
        "core.dag.fused",
        "core.dag.forces",
        "core.dag.async_drains",
        "core.dispatch.static_hits",
        "core.dispatch.dyn_fallbacks",
    ] {
        rep.push(k, "count", per_rep(k));
    }
    let (hits, dyns) = (
        per_rep("core.dispatch.static_hits"),
        per_rep("core.dispatch.dyn_fallbacks"),
    );
    rep.push("core.dispatch.hit_ratio", "ratio", ratio(hits, hits + dyns));
    rep.push("core.set_element_s", "s", pb.set_element_s);
    rep.push("core.materialize_s", "s", pb.materialize_s);
    rep.push("sparse.coo_to_csr_s", "s", pb.coo_to_csr_s);
    rep.push("sparse.transpose_s", "s", pb.transpose_s);
    let (tb, th) = (
        per_rep("core.transpose.builds"),
        per_rep("core.transpose.hits"),
    );
    rep.push("core.transpose.builds", "count", tb);
    rep.push("core.transpose.hits", "count", th);
    rep.push("core.transpose.hit_ratio", "ratio", ratio(th, tb + th));
    rep.push(
        "core.pending.drains",
        "count",
        per_rep("core.pending.drains"),
    );
    rep.push("core.pending.max_depth", "count", max_depth as f64);
    for k in KERNELS {
        rep.push(
            format!("sparse.{k}.calls"),
            "count",
            per_rep(&format!("sparse.{k}.calls")),
        );
        rep.push(
            format!("sparse.{k}.busy_s"),
            "s",
            per_rep(&format!("sparse.{k}.busy_ns")) / 1e9,
        );
    }
    rep.push("core.wait.calls", "count", per_rep("core.wait.calls"));
    rep.push("core.wait.busy_s", "s", per_rep("core.wait.busy_ns") / 1e9);
    rep.push("io.generate_s", "s", generate_s);
    rep.push("core.build_s", "s", build_s);
    rep.push(
        "core.mem_high_bytes",
        "B",
        (mem.container_high + mem.workspace_high) as f64,
    );
    rep.push("algo.ref_s_p50", "s", median(&ref_s));
    rep.push("algo.levels", "count", w.levels());
    rep.push("exec.triad_bytes_per_s", "B/s", pb.triad_bytes_per_s);
    rep.push("obs.on_ratio", "ratio", ratio(on_p50, off_p50));
    rep.push("obs.events_ratio", "ratio", ev.ratio);
    rep.push(
        "obs.events_arm_ok",
        "count",
        if ev.exited_ok { 1.0 } else { 0.0 },
    );
    rep.push("trace.run_s_p50", "s", traced_p50);
    rep.push("trace.overhead_s", "s", traced_p50 - off_p50);
    rep.push("layer.core.self_s", "s", layer_s("core"));
    rep.push("layer.algo.self_s", "s", layer_s("algo"));
    rep.push(
        "layer.obs.self_s",
        "s",
        spans::layer_self_s(tr.spans(), "obs.snapshot")
            .get("obs")
            .copied()
            .unwrap_or(0.0)
            / traced_reps,
    );
    Ok(rep)
}

/// What the events child reported.
struct EventsArm {
    ratio: f64,
    exited_ok: bool,
    /// Repetitions of the child that failed validation.
    failed: u64,
    note: String,
}

/// Runs the obs-plus-events arm in a child process, so that a crash of
/// that arm (e.g. in thread-local teardown at exit) is recorded and named
/// instead of taking the traced run down with it.
fn events_child(args: &Args, seconds: f64) -> EventsArm {
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--events-arm", "--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .output()
    });
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            return EventsArm {
                ratio: 0.0,
                exited_ok: false,
                failed: 0,
                note: format!("events arm not started: {e}"),
            }
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<f64> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("events-arm "))
        .map_or(Vec::new(), |l| {
            l.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        });
    let exited_ok = out.status.success();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let last_err = stderr.lines().rev().find(|l| !l.trim().is_empty());
    let status = if exited_ok {
        "exited 0".to_string()
    } else {
        format!(
            "CRASHED ({}; last stderr line: {})",
            out.status,
            last_err.unwrap_or("")
        )
    };
    match fields[..] {
        [off, ev, n_off, n_ev, failed] => EventsArm {
            ratio: ratio(ev, off),
            exited_ok,
            failed: failed as u64,
            note: format!(
                "events arm (child process, obs + events::set_events(true)): events p50={ev:.6}s (n={n_ev}) \
                 base off p50={off:.6}s (n={n_off}) in the same child, {failed} failed; {status}"
            ),
        },
        // No output to validate; the exit is recorded, not hidden.
        _ => EventsArm {
            ratio: 0.0,
            exited_ok,
            failed: 0,
            note: format!("events arm printed no result; {status}"),
        },
    }
}

/// The child side of [`events_child`]: alternates off and obs-plus-events
/// repetitions and prints `events-arm <off_p50> <events_p50> <n_off>
/// <n_events> <failed>`. It exits with events still on.
pub fn events_arm(args: &Args) -> GrbResult<()> {
    obs(false, false);
    let mut off = Tracer::new(false);
    let mut w = Workload::setup(args.workload, args.seed, &mut off, 0)?;
    w.prepare_reference();
    let mut rep = Report::default();
    let (mut t_off, mut t_ev) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut id = 0u64;
    // Ends on an events repetition, leaving events on for the exit.
    while id < 4 || !id.is_multiple_of(2) || t0.elapsed().as_secs_f64() < args.seconds {
        id += 1;
        let events = id.is_multiple_of(2);
        obs(events, events);
        let s = timed_rep(&mut w, &mut off, id, &mut rep)?;
        if let Some(s) = s {
            if events { &mut t_ev } else { &mut t_off }.push(s);
        }
    }
    println!(
        "events-arm {} {} {} {} {}",
        median(&t_off),
        median(&t_ev),
        t_off.len(),
        t_ev.len(),
        rep.failed
    );
    Ok(())
}
