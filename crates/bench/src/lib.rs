//! Shared scaffolding for the experiment binary and criterion benches.
//!
//! Every table and figure of the paper is a section of the `cavm-exp`
//! binary in `src/bin/cavm-exp/` (`cargo run --release -p cavm-bench
//! --bin cavm-exp -- <section>|all`; `all` also rewrites
//! `BENCH_corr.json`). The three criterion benches in `benches/` each
//! carry one claim: `corr_throughput` the §IV-A cost-vs-Pearson
//! argument, `matrix_tick` the fan-out threshold of `CostMatrix`'s
//! window replay, and `alloc_scaling` the allocators' growth with fleet
//! size. The canonical experiment parameters live here so the binary,
//! benches and integration tests agree.

use cavm_core::dvfs::DvfsMode;
use cavm_sim::{Policy, ScenarioBuilder, SimReport};
use cavm_workload::datacenter::{DatacenterTraceBuilder, VmFleet};

pub mod env;
pub mod sweep;

/// Seed used by all Setup-2 experiments (reports are deterministic).
pub const SETUP2_SEED: u64 = 2013;

/// The paper's Table II PCP parameters as interpreted here: envelopes at
/// the 90th percentile, clusters merged on ≥10% containment.
pub const PCP_ENVELOPE_PERCENTILE: f64 = 90.0;

/// See [`PCP_ENVELOPE_PERCENTILE`].
pub const PCP_AFFINITY_THRESHOLD: f64 = 0.10;

/// Synthesizes the Setup-2 fleet: 120 candidate VMs in 10 correlated
/// groups over 24 h, of which the busiest 40 are kept — the paper
/// "selected the top 40 VMs in terms of CPU utilization" from a larger,
/// mostly idle population.
pub fn setup2_fleet(seed: u64) -> VmFleet {
    DatacenterTraceBuilder::new(120)
        .groups(10)
        .seed(seed)
        .idle_fraction(0.4)
        .vm_scale_range(0.35, 1.05)
        .build()
        .expect("static builder parameters are valid")
        .select_top(40)
}

/// A smaller fleet for experiment sessions and smoke tests.
pub fn mini_fleet(seed: u64, vms: usize, hours: f64) -> VmFleet {
    DatacenterTraceBuilder::new(vms)
        .groups((vms / 4).max(2))
        .seed(seed)
        .duration_hours(hours)
        .vm_scale_range(0.35, 1.05)
        .build()
        .expect("static builder parameters are valid")
}

/// The three Table II policies in paper order.
pub fn table2_policies() -> Vec<Policy> {
    vec![
        Policy::Bfd,
        Policy::Pcp {
            envelope_percentile: PCP_ENVELOPE_PERCENTILE,
            affinity_threshold: PCP_AFFINITY_THRESHOLD,
        },
        Policy::Proposed(Default::default()),
    ]
}

/// Runs one Setup-2 scenario on 20 Xeon-E5410-like servers.
pub fn run_setup2(fleet: &VmFleet, policy: Policy, mode: DvfsMode) -> SimReport {
    ScenarioBuilder::new(fleet.clone())
        .servers(20)
        .policy(policy)
        .dvfs_mode(mode)
        .build()
        .expect("scenario parameters are valid")
        .run()
        .expect("scenario runs to completion")
}

/// Renders a horizontal ASCII bar of `fraction` (0..=1).
pub fn bar(fraction: f64, width: usize) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleets_have_expected_shape() {
        let fleet = setup2_fleet(1);
        assert_eq!(fleet.len(), 40);
        assert_eq!(fleet.traces()[0].len(), 24 * 720);
        let mini = mini_fleet(1, 8, 2.0);
        assert_eq!(mini.len(), 8);
    }

    #[test]
    fn policies_are_in_paper_order() {
        let names: Vec<&str> = table2_policies().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["BFD", "PCP", "Proposed"]);
    }

    #[test]
    fn bars_render() {
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(1.0, 4), "####");
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(7.0, 4), "####");
    }

    #[test]
    fn mini_scenario_runs() {
        let fleet = mini_fleet(3, 8, 2.0);
        let report = run_setup2(&fleet, Policy::Bfd, DvfsMode::Static);
        assert!(report.energy.joules() > 0.0);
    }
}
