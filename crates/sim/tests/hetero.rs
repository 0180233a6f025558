//! Heterogeneous-fleet acceptance tests: on a 3-class datacenter
//! (4/8/16-core classes with scaled power models) the correlation-aware
//! policy must beat the correlation-blind baselines on total energy —
//! the `cavm-exp hetero` headline, pinned at test size.

use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_sim::{Policy, ScenarioBuilder, SimReport};
use cavm_workload::datacenter::DatacenterTraceBuilder;

fn run(policy: Policy) -> SimReport {
    let traces = DatacenterTraceBuilder::new(48)
        .groups(4)
        .seed(2013)
        .idle_fraction(0.4)
        .vm_scale_range(0.35, 1.05)
        .duration_hours(6.0)
        .build()
        .unwrap()
        .select_top(16);
    ScenarioBuilder::new(traces)
        .server_fleet(ServerFleet::mixed_4_8_16(24, 16, 4).unwrap())
        .policy(policy)
        .dvfs_mode(DvfsMode::Static)
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn proposed_beats_blind_baselines_on_three_class_fleet_energy() {
    let proposed = run(Policy::Proposed(Default::default()));
    let bfd = run(Policy::Bfd);
    let ffd = run(Policy::Ffd);
    let vs_bfd = proposed.energy.normalized_to(&bfd.energy).unwrap();
    let vs_ffd = proposed.energy.normalized_to(&ffd.energy).unwrap();
    assert!(vs_bfd < 0.99, "proposed/BFD energy ratio {vs_bfd}");
    assert!(vs_ffd < 0.99, "proposed/FFD energy ratio {vs_ffd}");
    // The correlation discount must not be bought with QoS: violations
    // stay at or below the blind baselines' level on this scenario.
    assert!(proposed.max_violation_percent <= bfd.max_violation_percent + 1e-9);
}
