//! B7: §3.3 round throughput — the full voting-round + dtof + controller
//! pipeline the 65M-step experiment iterates, and the experiment driver
//! end to end, with telemetry off (`run_experiment`) and on
//! (`run_experiment_observed` on a fresh registry per run, as the
//! campaign runner gives each shard one).

use afta_faultinject::EnvironmentProfile;
use afta_switchboard::{
    run_experiment, run_experiment_observed, ExperimentConfig, RedundancyController,
    RedundancyPolicy,
};
use afta_telemetry::Registry;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_switchboard(c: &mut Criterion) {
    let mut g = c.benchmark_group("switchboard");

    g.bench_function("controller_observe", |b| {
        let mut ctl = RedundancyController::new(RedundancyPolicy::default());
        b.iter(|| black_box(ctl.observe(black_box(2), black_box(3))));
    });

    let config = ExperimentConfig {
        steps: 10_000,
        seed: 42,
        profile: EnvironmentProfile::cyclic_storms(2_000, 200, 0.0001, 0.05),
        policy: RedundancyPolicy::default(),
        trace_stride: 0,
    };
    g.bench_function("experiment_10k_steps", |b| {
        b.iter(|| black_box(run_experiment(&config, None)));
    });

    g.bench_function("experiment_10k_steps_observed", |b| {
        b.iter(|| black_box(run_experiment_observed(&config, None, &Registry::new())));
    });

    g.finish();
}

criterion_group!(benches, bench_switchboard);
criterion_main!(benches);
