//! End-to-end check that the expositions `graphblas_obs::export`
//! actually renders satisfy the reader in `graphblas_check::metrics`.
//!
//! The unit tests inside `metrics` run the validator on hand-written
//! text; this test closes the loop against the real writer: record
//! kernel and pool work (including a context name that needs label
//! escaping), render with `export::render()`, and validate the result.

use graphblas_check::metrics;
use graphblas_obs::counters::Kernel;

#[test]
fn rendered_exposition_round_trips() {
    graphblas_obs::set_enabled(true);
    graphblas_obs::counters::record_kernel(Kernel::SpGemm, 2_048, 100, 50, 10, 4_096);
    graphblas_obs::counters::record_kernel(Kernel::SpMv, 1_024, 40, 40, 8, 2_048);
    graphblas_obs::counters::record_pool_enqueue(3);
    graphblas_obs::counters::pool().jobs_dequeued.add(1);
    graphblas_obs::counters::record_pool_task(0, 500, 1_500);
    // A context whose name exercises label escaping in the writer, plus a
    // same-named sibling that forces the `#id` disambiguation.
    graphblas_obs::register_context(900_001, 0, Some("fmt \"quoted\"\\slash"));
    graphblas_obs::register_context(900_002, 0, Some("twin"));
    graphblas_obs::register_context(900_003, 0, Some("twin"));

    let text = graphblas_obs::export::render();
    graphblas_obs::set_enabled(false);

    let summary = metrics::validate(&text)
        .unwrap_or_else(|e| panic!("rendered exposition failed validation: {e}\n{text}"));

    // Every registry family the writer renders must survive the reader,
    // and the full registry is far larger than the acceptance floor.
    assert!(
        summary.families.len() >= 10,
        "expected >= 10 families, got {}",
        summary.families.len()
    );

    // Spot-check the scheduler and kernel families the scrape gate
    // requires, with values matching what was recorded above.
    let calls = summary
        .family("grb_kernel_calls")
        .expect("grb_kernel_calls family");
    assert_eq!(calls.kind, "counter");
    let spgemm = calls
        .samples
        .iter()
        .find(|s| s.label("kernel") == Some("spgemm"))
        .expect("spgemm sample");
    assert!(spgemm.value >= 1.0, "spgemm calls: {}", spgemm.value);

    for family in [
        "grb_pool_queue_depth",
        "grb_pool_queue_depth_max",
        "grb_pool_task_wait_ns",
        "grb_pool_task_run_ns",
        "grb_pool_utilization",
        "grb_kernel_rate",
        "grb_kernel_rolling_p99_ns",
        "grb_mem_container_live_bytes",
        "grb_sampler_samples",
    ] {
        let fam = summary
            .family(family)
            .unwrap_or_else(|| panic!("missing family {family}\n{text}"));
        assert!(!fam.samples.is_empty(), "family {family} has no samples");
    }
    assert!(
        summary.scalar("grb_pool_task_wait_ns").unwrap_or(0.0) >= 500.0,
        "recorded wait time missing"
    );

    // The escaped context label must round-trip through writer + reader,
    // and duplicate names must have been disambiguated with `#id`.
    let ctx_spans = summary.family("grb_ctx_spans").expect("grb_ctx_spans");
    assert!(
        ctx_spans
            .samples
            .iter()
            .any(|s| s.label("ctx") == Some("fmt \"quoted\"\\slash")),
        "escaped context label mangled: {:?}",
        ctx_spans.samples
    );
    for id in [900_002u64, 900_003] {
        let want = format!("twin#{id}");
        assert!(
            ctx_spans.samples.iter().any(|s| s.label("ctx") == Some(want.as_str())),
            "missing disambiguated label {want}: {:?}",
            ctx_spans.samples
        );
    }
}
