//! The Setup-1 and Table I claims at reduced scale: the cluster and
//! microarchitecture simulators behind `cavm-exp fig4`, `fig5` and
//! `table1`.

use cavm_cluster::{run_setup1, ClusterSimConfig, Setup1Config, Setup1Placement};
use cavm_microarch::{Machine, StreamProfile};

#[test]
fn setup1_placement_ordering_holds() {
    let config = Setup1Config {
        duration_s: 400.0,
        wave_period_s: 400.0,
        warmup_s: 40.0,
        ..Setup1Config::default()
    };
    let seg = run_setup1(Setup1Placement::Segregated, &config).expect("runs");
    let unc = run_setup1(Setup1Placement::SharedUncorrelated, &config).expect("runs");
    let cor = run_setup1(Setup1Placement::SharedCorrelated, &config).expect("runs");
    for c in 0..2 {
        assert!(
            unc.p90_response[c] < seg.p90_response[c],
            "sharing must beat segregation"
        );
        assert!(
            cor.p90_response[c] < unc.p90_response[c] * 1.05,
            "correlation-aware sharing must not lose to blind sharing"
        );
    }
}

#[test]
fn microarch_table1_claim_holds() {
    let machine = Machine::opteron_like().expect("preset is valid");
    let (solo, paired) = machine
        .colocation_study(
            &StreamProfile::web_search(),
            &StreamProfile::parsec_corunners(),
            1_000_000,
            3,
        )
        .expect("study completes");
    for (name, m) in &paired {
        let delta = (m.ipc - solo.ipc).abs() / solo.ipc;
        assert!(
            delta < 0.05,
            "{name}: co-location moved web-search IPC by {delta}"
        );
    }
}

#[test]
fn setup1_types_are_reachable() {
    // Compile-time check that the cluster simulator's config type is
    // exported where `cavm-bench` reaches it.
    fn assert_impl<T: ?Sized>() {}
    assert_impl::<ClusterSimConfig>();
}
