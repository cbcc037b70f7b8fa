//! A traced run at small scale: its spans nest, every self time is
//! non-negative, and per root the per-layer self times sum to the root's
//! duration. Every workload's repetitions also pass their reference check.

use std::time::Duration;

use grbbench::probes;
use grbbench::spans::{self, Span, Tracer};
use grbbench::workload::{Kind, Workload};

fn traced_small(kind: Kind, scale: u32) -> Tracer {
    let mut tr = Tracer::new(true);
    let mut w = Workload::setup_at(kind, scale, 5, &mut tr, 0).expect("set-up");
    w.prepare_reference();
    for id in 1..=3 {
        w.before_rep(&mut tr, id).expect("rebuild");
        let root = tr.begin("rep", "bench", id);
        let out = w.rep(&mut tr, id).expect("repetition");
        tr.end(root);
        assert!(
            w.check(&out).expect("extract"),
            "{} repetition {id} disagrees with the reference",
            kind.name()
        );
    }
    if kind == Kind::Triangles {
        // A 1 MiB "cache" keeps the triad small.
        let p = probes::run(&w, 1 << 18, Duration::from_millis(200), &mut tr);
        assert!(p.mismatches.is_empty(), "{:?}", p.mismatches);
        assert!(p.sparse_vxm_s > 0.0 && p.triad_bytes_per_s > 0.0 && p.spgemm_flops > 0.0);
    }
    tr
}

#[test]
fn traced_runs_nest_and_add_up() {
    for (kind, scale) in [
        (Kind::PageRank, 10),
        (Kind::Bfs, 10),
        (Kind::Triangles, 10),
        (Kind::Stream, 12),
    ] {
        let tr = traced_small(kind, scale);
        let s = tr.spans();
        spans::check(s).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert!(spans::self_ns(s).iter().all(|&x| x >= 0));
        let roots: u64 = s
            .iter()
            .filter(|x| x.parent.is_none() && x.name == "rep")
            .map(Span::dur_ns)
            .sum();
        let layers: f64 = spans::layer_self_s(s, "rep").values().sum();
        assert!(
            (layers - roots as f64 / 1e9).abs() < 1e-6,
            "{}: {layers} vs {roots} ns",
            kind.name()
        );
        let json = spans::to_json(s, &[("workload", kind.name().to_string())]);
        assert_eq!(json.matches("\"id\": ").count(), s.len());
    }
}

#[test]
fn check_rejects_bad_traces() {
    let span = |name, start, end, parent| Span {
        name,
        layer: "core",
        start_ns: start,
        end_ns: end,
        parent,
        rep: 0,
    };
    assert!(spans::check(&[span("a", 0, 10, None), span("b", 2, 5, Some(0))]).is_ok());
    assert!(spans::check(&[span("a", 0, 10, None), span("b", 2, 12, Some(0))]).is_err());
    assert!(spans::check(&[
        span("a", 0, 10, None),
        span("b", 2, 6, Some(0)),
        span("c", 5, 8, Some(0))
    ])
    .is_err());
    let selfs = spans::self_ns(&[
        span("a", 0, 10, None),
        span("b", 2, 5, Some(0)),
        span("c", 6, 7, Some(0)),
    ]);
    assert_eq!(selfs, vec![6, 3, 1]);
}
