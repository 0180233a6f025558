//! Cross-crate integration tests: the paper's full pipelines at reduced
//! scale, with golden-value corridors on the headline claims.

use cavm::prelude::*;

fn fleet(seed: u64) -> VmFleet {
    DatacenterTraceBuilder::new(45)
        .groups(6)
        .seed(seed)
        .duration_hours(6.0)
        .idle_fraction(0.3)
        .vm_scale_range(0.35, 1.05)
        .build()
        .expect("builder parameters are valid")
        .select_top(15)
}

fn run(fleet: &VmFleet, policy: Policy, mode: DvfsMode) -> SimReport {
    ScenarioBuilder::new(fleet.clone())
        .servers(12)
        .policy(policy)
        .dvfs_mode(mode)
        .build()
        .expect("scenario is valid")
        .run()
        .expect("scenario completes")
}

#[test]
fn setup2_static_proposed_beats_bfd_on_power() {
    let fleet = fleet(2013);
    let bfd = run(&fleet, Policy::Bfd, DvfsMode::Static);
    let proposed = run(
        &fleet,
        Policy::Proposed(Default::default()),
        DvfsMode::Static,
    );
    let ratio = proposed
        .energy
        .normalized_to(&bfd.energy)
        .expect("baseline non-zero");
    assert!(ratio < 1.0, "proposed/bfd power ratio {ratio} must be < 1");
    assert!(
        ratio > 0.7,
        "ratio {ratio} suspiciously low — check the power model"
    );
}

#[test]
fn setup2_proposed_reduces_violations() {
    // Average over several seeds: individual small fleets are noisy.
    let mut bfd_total = 0.0;
    let mut prop_total = 0.0;
    for seed in [2013, 2014, 2015] {
        let fleet = fleet(seed);
        bfd_total += run(&fleet, Policy::Bfd, DvfsMode::Static).max_violation_percent;
        prop_total += run(
            &fleet,
            Policy::Proposed(Default::default()),
            DvfsMode::Static,
        )
        .max_violation_percent;
    }
    assert!(
        prop_total <= bfd_total,
        "proposed violations {prop_total} must not exceed bfd {bfd_total}"
    );
}

#[test]
fn setup2_pcp_degenerates_to_bfd() {
    let fleet = fleet(2013);
    let bfd = run(&fleet, Policy::Bfd, DvfsMode::Static);
    let pcp = run(
        &fleet,
        Policy::Pcp {
            envelope_percentile: 90.0,
            affinity_threshold: 0.10,
        },
        DvfsMode::Static,
    );
    // The paper: PCP collapses to one cluster on bursty traces and then
    // "behaves exactly same with BFD".
    let single = pcp
        .pcp_single_cluster_periods()
        .expect("pcp reports clusters");
    assert!(
        single >= pcp.periods.len() - 1,
        "PCP should degenerate in (almost) all periods, got {single}/{}",
        pcp.periods.len()
    );
    let ratio = pcp
        .energy
        .normalized_to(&bfd.energy)
        .expect("baseline non-zero");
    assert!(
        (ratio - 1.0).abs() < 0.02,
        "PCP/BFD power ratio {ratio} should be ≈ 1"
    );
}

#[test]
fn setup2_runs_are_deterministic() {
    let fleet = fleet(99);
    let a = run(
        &fleet,
        Policy::Proposed(Default::default()),
        DvfsMode::Static,
    );
    let b = run(
        &fleet,
        Policy::Proposed(Default::default()),
        DvfsMode::Static,
    );
    assert_eq!(a, b);
}

#[test]
fn setup2_dynamic_mode_narrows_the_power_gap() {
    let fleet = fleet(2013);
    let bfd_s = run(&fleet, Policy::Bfd, DvfsMode::Static);
    let prop_s = run(
        &fleet,
        Policy::Proposed(Default::default()),
        DvfsMode::Static,
    );
    let bfd_d = run(
        &fleet,
        Policy::Bfd,
        DvfsMode::Dynamic {
            interval_samples: 12,
        },
    );
    let prop_d = run(
        &fleet,
        Policy::Proposed(Default::default()),
        DvfsMode::Dynamic {
            interval_samples: 12,
        },
    );
    let gap_static = 1.0
        - prop_s
            .energy
            .normalized_to(&bfd_s.energy)
            .expect("non-zero");
    let gap_dynamic = 1.0
        - prop_d
            .energy
            .normalized_to(&bfd_d.energy)
            .expect("non-zero");
    // Table II: 13.7% static gap vs 4.2% dynamic gap.
    assert!(
        gap_dynamic < gap_static,
        "dynamic gap {gap_dynamic} should be smaller than static {gap_static}"
    );
}

#[test]
fn fig3_bound_holds_on_sampled_sets() {
    let fleet = fleet(7);
    let traces = fleet.traces();
    let matrix = CostMatrix::from_traces(&traces, Reference::Peak).expect("uniform traces");
    let mut rng = SimRng::new(5);
    let mut worst_margin = f64::INFINITY;
    for _ in 0..60 {
        let size = 2 + rng.below(4);
        let mut ids: Vec<usize> = (0..traces.len()).collect();
        rng.shuffle(&mut ids);
        ids.truncate(size);
        let members: Vec<(usize, f64)> = ids
            .iter()
            .map(|&id| {
                (
                    id,
                    Reference::Peak.of_series(traces[id]).expect("non-empty"),
                )
            })
            .collect();
        let x = server_cost(&members, &matrix);
        let sum: f64 = members.iter().map(|&(_, u)| u).sum();
        let set: Vec<&TimeSeries> = ids.iter().map(|&id| traces[id]).collect();
        let y = sum / TimeSeries::sum_of(&set).expect("uniform").peak().max(1e-12);
        worst_margin = worst_margin.min(y - x);
    }
    // Fig 3's bound is empirical: Eqn 2 sees only pairs, so a set
    // where two VMs peak together and a third peaks alone reads above
    // the true ratio (`servercost.rs` pins one). `Reference::Peak` is
    // exact here, so the tolerance absorbs that gap, not noise.
    assert!(worst_margin > -0.05, "min(Y - X) = {worst_margin}");
}

#[test]
fn prelude_covers_the_pipeline_types() {
    // Compile-time check that the prelude exposes what the examples use.
    fn assert_impl<T: ?Sized>() {}
    assert_impl::<dyn AllocationPolicy>();
    assert_impl::<dyn Predictor>();
    assert_impl::<dyn PowerModel>();
    assert_impl::<CostMetric>();
    assert_impl::<PearsonStream>();
    assert_impl::<BfdPolicy>();
    assert_impl::<FfdPolicy>();
    assert_impl::<PcpPolicy>();
    assert_impl::<EwmaPredictor>();
    assert_impl::<MovingAveragePredictor>();
    assert_impl::<LastValuePredictor>();
    assert_impl::<Envelope>();
    assert_impl::<EnergyMeter>();
    assert_impl::<Frequency>();
    assert_impl::<ClientWave>();
    assert_impl::<WebSearchCluster>();
    assert_impl::<DailyArchetype>();
    assert_impl::<Scenario>();
}
