//! The E8 differential as an integration test: the in-process `sim` leg
//! and the TCP reactor must be indistinguishable at the digest level.
//!
//! CI runs the full pin-sized differential (8 tenants x 16 streams x 12
//! rounds) through `afta-serve e8 --transport both` and the `e8.serve`
//! JUnit suite; this test keeps a smaller always-on copy in the plain
//! `cargo test` path so a divergence never needs a special invocation
//! to surface.

use afta_net::TransportKind;
use afta_serve::{
    differential_matches, run_serve_differential, run_serve_experiment, ServeExperimentConfig,
};
use afta_telemetry::Registry;

fn small_config() -> ServeExperimentConfig {
    ServeExperimentConfig {
        tenants: 3,
        clients: 4,
        rounds: 4,
        ..ServeExperimentConfig::default()
    }
}

#[test]
fn sim_and_tcp_frontends_agree_bit_for_bit() {
    let (sim, tcp) = run_serve_differential(&small_config(), &Registry::disabled());
    assert_eq!(sim.transport, "sim");
    assert_eq!(tcp.transport, "tcp");
    assert!(
        differential_matches(&sim, &tcp),
        "sim {} vs tcp {}",
        sim.combined,
        tcp.combined
    );
    // The rendered digests match tenant by tenant, not just in the fold.
    for (a, b) in sim.digests.iter().zip(&tcp.digests) {
        assert_eq!(a, b);
    }
}

#[test]
fn the_differential_is_sensitive_to_the_seed() {
    let base = run_serve_experiment(&small_config(), &Registry::disabled());
    let other = run_serve_experiment(
        &ServeExperimentConfig {
            seed: 43,
            ..small_config()
        },
        &Registry::disabled(),
    );
    assert_ne!(
        base.combined, other.combined,
        "a different seed must move the combined digest, or the pin proves nothing"
    );
}

#[test]
fn the_lock_step_driver_never_trips_quotas() {
    let report = run_serve_experiment(
        &ServeExperimentConfig {
            transport: TransportKind::Tcp,
            ..small_config()
        },
        &Registry::disabled(),
    );
    assert_eq!(report.rejects, 0);
    assert_eq!(
        report.rounds,
        u64::from(small_config().tenants) * small_config().rounds
    );
}
