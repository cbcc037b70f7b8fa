//! §III — the fusion latitude: a chain of k in-place element-wise stages
//! in a nonblocking context (fused into one traversal at `wait`) vs the
//! same chain executed eagerly in a blocking context.
//!
//! Besides timing, this bench reads the `graphblas-obs` fusion counters
//! (`fusion_hits`, `map_traversals`) after an instrumented pass of each
//! chain length so the output shows the fusion *actually happened*: a run
//! of `k` consecutive maps must report one traversal and `k - 1` hits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphblas_core::operations::apply_v;
use graphblas_core::{
    global_context, no_mask_v, Context, ContextOptions, Descriptor, Mode, UnaryOp, Vector,
    WaitMode,
};

fn bench(c: &mut Criterion) {
    let n = 1usize << 18;
    let idx: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut group = c.benchmark_group("ablation_fusion");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.sample_size(10);
    for k in [1usize, 2, 4, 8] {
        for (label, mode) in [("eager", Mode::Blocking), ("fused", Mode::NonBlocking)] {
            let ctx = Context::new(&global_context(), mode, ContextOptions::default());
            let v = Vector::<f64>::new_in(&ctx, n).unwrap();
            v.build(&idx, &vals, None).unwrap();
            v.wait(WaitMode::Materialize).unwrap();
            group.bench_with_input(
                BenchmarkId::new(label, k),
                &k,
                |b, &k| {
                    b.iter(|| {
                        for _ in 0..k {
                            apply_v(
                                &v,
                                no_mask_v(),
                                None,
                                &UnaryOp::new("inc", |x: &f64| x + 1.0),
                                &v,
                                &Descriptor::default(),
                            )
                            .unwrap();
                        }
                        v.wait(WaitMode::Complete).unwrap();
                    })
                },
            );
        }
    }
    group.finish();

    // Instrumented verification pass: prove the nonblocking chains fused.
    for k in [1usize, 2, 4, 8] {
        let ctx = Context::new(
            &global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let v = Vector::<f64>::new_in(&ctx, n).unwrap();
        v.build(&idx, &vals, None).unwrap();
        v.wait(WaitMode::Materialize).unwrap();
        graphblas_obs::set_enabled(true);
        graphblas_obs::reset();
        for _ in 0..k {
            apply_v(
                &v,
                no_mask_v(),
                None,
                &UnaryOp::new("inc", |x: &f64| x + 1.0),
                &v,
                &Descriptor::default(),
            )
            .unwrap();
        }
        v.wait(WaitMode::Complete).unwrap();
        let pending = graphblas_obs::counters::pending();
        let (hits, traversals) = (
            pending.fusion_hits.get(),
            pending.map_traversals.get(),
        );
        graphblas_obs::set_enabled(false);
        assert_eq!(
            (traversals, hits),
            (1, (k - 1) as u64),
            "a fused chain of {k} maps must drain as one traversal"
        );
        println!(
            "ablation_fusion/counters/{k}: map_traversals {traversals}, fusion_hits {hits}"
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
