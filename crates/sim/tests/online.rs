//! Online-controller acceptance: the batch≡online equivalence property
//! and churn behaviour.
//!
//! The redesign's contract is that `Scenario::run()` — now a thin
//! driver over [`DatacenterController`] — and an explicit lifecycle
//! where every VM arrives at t = 0 and never departs produce **the
//! same `SimReport`, field for field**, for all five policies. Churn
//! tests then exercise what the batch API could never express:
//! mid-period arrivals admitted through the incremental single-VM
//! placement, departures powering servers off, and streaming metric
//! sinks.
//!
//! [`DatacenterController`]: cavm_sim::DatacenterController

use cavm_core::dvfs::DvfsMode;
use cavm_sim::{Policy, RepackTrigger, ReportSink, ScenarioBuilder, SimReport};
use cavm_workload::datacenter::DatacenterTraceBuilder;
use cavm_workload::lifecycle::{
    ArrivalProcess, Lifecycle, LifecycleBuilder, LifecycleEntry, LifetimeModel,
};
use proptest::prelude::*;

fn fleet(vms: usize, hours: f64, seed: u64) -> cavm_workload::datacenter::VmFleet {
    DatacenterTraceBuilder::new(vms)
        .groups((vms / 3).max(1))
        .seed(seed)
        .duration_hours(hours)
        .build()
        .unwrap()
}

fn five_policies() -> [Policy; 5] {
    [
        Policy::Bfd,
        Policy::Ffd,
        Policy::Pcp {
            envelope_percentile: 90.0,
            affinity_threshold: 0.2,
        },
        Policy::SuperVm {
            min_pair_cost: 1.25,
        },
        Policy::Proposed(Default::default()),
    ]
}

proptest! {
    /// A lifecycle where every VM arrives at t = 0 and never departs is
    /// indistinguishable from the batch replay — identical `SimReport`s
    /// (PartialEq covers energy bits, violations, migrations, periods,
    /// class breakdowns and histograms) for all five policies, static
    /// and dynamic DVFS. The online side spells the re-pack schedule
    /// out as an explicit `RepackTrigger::Periodic`, pinning the
    /// trigger's default path to the batch engine bit-for-bit.
    #[test]
    fn batch_equals_online_when_everyone_arrives_at_t0(
        seed in 0u32..1000,
        vms in 5usize..10,
        dynamic in any::<bool>()
    ) {
        let traces = fleet(vms, 2.0, u64::from(seed));
        let horizon = traces.vms()[0].fine.len();
        let mode = if dynamic {
            DvfsMode::Dynamic { interval_samples: 12 }
        } else {
            DvfsMode::Static
        };
        for policy in five_policies() {
            let batch: SimReport = ScenarioBuilder::new(traces.clone())
                .servers(2 * vms)
                .policy(policy)
                .dvfs_mode(mode)
                .build()
                .unwrap()
                .run()
                .unwrap();
            let online: SimReport = ScenarioBuilder::new(traces.clone())
                .servers(2 * vms)
                .policy(policy)
                .dvfs_mode(mode)
                .repack_trigger(RepackTrigger::Periodic)
                .lifecycle(Lifecycle::all_at_start(vms, horizon).unwrap())
                .build()
                .unwrap()
                .run()
                .unwrap();
            prop_assert_eq!(&batch, &online, "{} diverged under churn-free lifecycle", batch.policy);
            prop_assert_eq!(batch.online_admissions, 0);
            prop_assert_eq!(online.offcycle_repacks, 0);
        }
    }
}

/// A deterministic churn schedule over 4 one-hour periods: two VMs up
/// front, the rest trickling in mid-period, some leaving early.
fn churn_lifecycle(vms: usize, horizon: usize) -> Lifecycle {
    let entries = (0..vms)
        .map(|id| {
            let arrival_sample = if id < 2 { 0 } else { (id - 1) * 300 + 37 };
            let departure_sample = (id % 3 == 1).then(|| (arrival_sample + 1500).min(horizon - 1));
            LifecycleEntry {
                id,
                arrival_sample,
                departure_sample,
            }
        })
        .collect();
    Lifecycle::from_entries(entries, horizon).unwrap()
}

#[test]
fn churn_exercises_the_incremental_admit_path() {
    let traces = fleet(9, 4.0, 11);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = churn_lifecycle(9, horizon);
    assert!(!lifecycle.is_batch_equivalent());
    for policy in five_policies() {
        let mut sink = ReportSink::new();
        ScenarioBuilder::new(traces.clone())
            .servers(12)
            .policy(policy)
            .lifecycle(lifecycle.clone())
            .build()
            .unwrap()
            .run_with_sink(&mut sink)
            .unwrap();
        let admissions = sink.admissions();
        let report = sink.into_report().unwrap();
        // Mid-period arrivals were admitted without a re-pack.
        assert!(
            report.online_admissions > 0,
            "{}: no incremental admissions under churn",
            report.policy
        );
        assert_eq!(admissions, report.online_admissions, "{}", report.policy);
        assert!(report.energy.joules() > 0.0, "{}", report.policy);
        assert_eq!(report.periods.len(), 4, "{}", report.policy);
        // Per-class tallies still reassemble the totals under churn.
        let class_joules: f64 = report.classes.iter().map(|c| c.energy.joules()).sum();
        assert!(
            (class_joules - report.energy.joules()).abs() < 1e-6,
            "{}",
            report.policy
        );
        let class_violations: usize = report.classes.iter().map(|c| c.violation_instances).sum();
        assert_eq!(
            class_violations, report.violation_instances,
            "{}",
            report.policy
        );
    }
}

#[test]
fn departures_reduce_load_on_later_periods() {
    // All nine VMs start together; six leave after the first period.
    let traces = fleet(9, 4.0, 7);
    let horizon = traces.vms()[0].fine.len();
    let entries = (0..9)
        .map(|id| LifecycleEntry {
            id,
            arrival_sample: 0,
            departure_sample: (id >= 3).then_some(730),
        })
        .collect();
    let lifecycle = Lifecycle::from_entries(entries, horizon).unwrap();
    let report = ScenarioBuilder::new(traces.clone())
        .servers(12)
        .lifecycle(lifecycle)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let full = ScenarioBuilder::new(traces)
        .servers(12)
        .build()
        .unwrap()
        .run()
        .unwrap();
    // Later periods pack only the three survivors.
    let last = report.periods.last().unwrap();
    assert!(
        last.servers_used <= full.periods.last().unwrap().servers_used,
        "fewer tenants must not need more servers"
    );
    assert!(
        report.energy.joules() < full.energy.joules(),
        "a mostly-departed datacenter must burn less energy"
    );
}

#[test]
fn streamed_events_are_consistent_under_churn() {
    let traces = fleet(8, 3.0, 3);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = LifecycleBuilder::new(8, horizon)
        .seed(5)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap_samples: 150.0,
        })
        .lifetimes(LifetimeModel::Uniform {
            min_samples: 720,
            max_samples: 1800,
        })
        .build()
        .unwrap();
    let mut sink = ReportSink::new();
    ScenarioBuilder::new(traces)
        .servers(10)
        .policy(Policy::Proposed(Default::default()))
        .lifecycle(lifecycle)
        .build()
        .unwrap()
        .run_with_sink(&mut sink)
        .unwrap();
    let periods = sink.periods().to_vec();
    let migrations = sink.migrations();
    let violations = sink.violations();
    let report = sink.into_report().unwrap();
    assert_eq!(periods, report.periods);
    assert_eq!(migrations, report.total_migrations());
    assert_eq!(violations, report.violation_instances);
}

#[test]
fn empty_first_period_is_survivable_for_every_policy() {
    // Nobody is live during period 0; the first VMs arrive exactly at
    // the period-1 boundary and later. PCP in particular must fall
    // back to its degenerate single cluster instead of reading an
    // empty history window.
    let traces = fleet(6, 4.0, 19);
    let horizon = traces.vms()[0].fine.len();
    let entries = (0..6)
        .map(|id| LifecycleEntry {
            id,
            arrival_sample: 720 + id * 211,
            departure_sample: None,
        })
        .collect();
    let lifecycle = Lifecycle::from_entries(entries, horizon).unwrap();
    for policy in five_policies() {
        let report = ScenarioBuilder::new(traces.clone())
            .servers(10)
            .policy(policy)
            .lifecycle(lifecycle.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.periods.len(), 4, "{}", report.policy);
        assert_eq!(report.periods[0].servers_used, 0, "{}", report.policy);
        assert!(report.periods[1].servers_used > 0, "{}", report.policy);
        assert!(report.energy.joules() > 0.0, "{}", report.policy);
    }
}

#[test]
fn vacated_servers_stay_as_eligible_as_fresh_ones_for_open_ended_arrivals() {
    // vm0/vm1 (bounded leases) share server 0, vm2 (open-ended) sits
    // on server 1. Once vm0 and vm1 depart, server 0 is empty —
    // *drained*, not *draining* — so a later open-ended arrival must
    // admit exactly where the lease-blind rule would: first fit picks
    // the vacated server 0, not the busier server 1. (Regression: an
    // empty slot once read a zero drain horizon and was deprioritized
    // even with no lease information on the arrival.)
    use cavm_power::LinearPowerModel;
    use cavm_sim::{ControllerConfig, DatacenterController};
    use cavm_trace::{Reference, TimeSeries};

    const PERIOD: usize = 60;
    let trace = |len: usize| TimeSeries::new(5.0, vec![3.0; len]).unwrap();
    let mut controller = DatacenterController::new(ControllerConfig {
        server_fleet: cavm_core::fleet::ServerFleet::uniform(
            4,
            8.0,
            LinearPowerModel::xeon_e5410(),
        )
        .unwrap(),
        policy: Policy::Ffd,
        repack_trigger: RepackTrigger::Periodic,
        qos_guard: None,
        adaptive_slack_max: None,
        overcommit: None,
        dvfs_mode: cavm_core::dvfs::DvfsMode::Static,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: 3.0,
        sample_dt_s: 5.0,
        max_deferred: 1024,
    })
    .unwrap();
    let mut sink = ReportSink::new();
    controller
        .arrive(0, trace(2 * PERIOD), Some(30), &mut sink)
        .unwrap();
    controller
        .arrive(1, trace(2 * PERIOD), Some(30), &mut sink)
        .unwrap();
    controller
        .arrive(2, trace(2 * PERIOD), None, &mut sink)
        .unwrap();
    controller.tick(&mut sink).unwrap();
    assert_eq!(controller.placement().server_of(0), Some(0));
    assert_eq!(controller.placement().server_of(1), Some(0));
    assert_eq!(controller.placement().server_of(2), Some(1));
    controller.depart(0).unwrap();
    controller.depart(1).unwrap();
    controller.tick(&mut sink).unwrap();
    assert_eq!(controller.placement().active_server_count(), 1);
    controller
        .arrive(3, trace(2 * PERIOD), None, &mut sink)
        .unwrap();
    assert_eq!(
        controller.placement().server_of(3),
        Some(0),
        "first fit must re-use the vacated slot, exactly as the lease-blind rule would"
    );
}

#[test]
fn hybrid_trigger_fires_offcycle_repacks_under_departure_churn() {
    // Four ~3.9-core VMs pack two per 8-core server under every
    // capacity-respecting policy. Departing one tenant from *each*
    // server mid-period leaves two half-empty servers whose remaining
    // 7.8 cores fit into one — the Eqn (3) bound drops to 1 while two
    // stay active, so a slack-1 trigger must consolidate off-cycle.
    use cavm_power::LinearPowerModel;
    use cavm_sim::{ControllerConfig, DatacenterController};
    use cavm_trace::{Reference, TimeSeries};

    const PERIOD: usize = 60;
    let trace = |vm: usize, len: usize| {
        let values = (0..len)
            .map(|t| if (t + vm).is_multiple_of(4) { 3.5 } else { 3.9 })
            .collect();
        TimeSeries::new(5.0, values).unwrap()
    };
    for policy in [
        Policy::Bfd,
        Policy::Ffd,
        Policy::Proposed(Default::default()),
    ] {
        let mut controller = DatacenterController::new(ControllerConfig {
            server_fleet: cavm_core::fleet::ServerFleet::uniform(
                6,
                8.0,
                LinearPowerModel::xeon_e5410(),
            )
            .unwrap(),
            policy,
            repack_trigger: RepackTrigger::Hybrid { slack: 1 },
            qos_guard: None,
            adaptive_slack_max: None,
            overcommit: None,
            dvfs_mode: cavm_core::dvfs::DvfsMode::Static,
            period_samples: PERIOD,
            reference: Reference::Peak,
            dynamic_headroom: 0.25,
            default_demand: 3.9,
            sample_dt_s: 5.0,
            max_deferred: 1024,
        })
        .unwrap();
        let mut sink = ReportSink::new();
        for id in 0..4 {
            controller
                .arrive(id, trace(id, 3 * PERIOD), None, &mut sink)
                .unwrap();
        }
        // Period 0 and the first tick of period 1.
        for _ in 0..=PERIOD {
            controller.tick(&mut sink).unwrap();
        }
        let placement = controller.placement();
        assert_eq!(
            placement.active_server_count(),
            2,
            "{}: 4×3.9 cores must pack onto two servers",
            policy.name()
        );
        // One departure from each server strands both half-empty.
        let victims: Vec<usize> = placement
            .servers()
            .iter()
            .filter(|m| !m.is_empty())
            .map(|m| m[0])
            .collect();
        assert_eq!(victims.len(), 2, "{}", policy.name());
        for id in victims {
            controller.depart(id).unwrap();
        }
        assert!(controller.repack_armed(), "{}", policy.name());
        assert_eq!(controller.offcycle_repacks(), 0, "{}", policy.name());
        controller.tick(&mut sink).unwrap();
        assert_eq!(
            controller.offcycle_repacks(),
            1,
            "{}: the armed slack-1 trigger must fire",
            policy.name()
        );
        assert_eq!(
            controller.placement().active_server_count(),
            1,
            "{}: the re-pack must consolidate the survivors",
            policy.name()
        );
        let repack = *sink.repacks().last().unwrap();
        assert_eq!(
            repack.reason,
            cavm_sim::RepackReason::Fragmentation {
                estimate: 1,
                active: 2
            },
            "{}",
            policy.name()
        );
        assert_eq!(repack.servers_after, 1, "{}", policy.name());
        // Both survivors moved or one did — either way the count is
        // consistent with the placement diff the sink streamed.
        assert!(repack.migrations >= 1, "{}", policy.name());
    }
}

#[test]
fn fragmentation_only_schedule_completes_and_consolidates() {
    // The pure event-driven schedule: boundaries keep the placement,
    // so all re-packs after the initial one are fragmentation-fired.
    let traces = fleet(9, 4.0, 11);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = churn_lifecycle(9, horizon);
    for policy in five_policies() {
        let mut sink = ReportSink::new();
        ScenarioBuilder::new(traces.clone())
            .servers(12)
            .policy(policy)
            .repack_trigger(RepackTrigger::Fragmentation { slack: 1 })
            .lifecycle(lifecycle.clone())
            .build()
            .unwrap()
            .run_with_sink(&mut sink)
            .unwrap();
        let periodic_repacks = sink.repacks().len() - sink.offcycle_repacks();
        let report = sink.into_report().unwrap();
        assert!(
            periodic_repacks <= 1,
            "{}: fragmentation-only ran {periodic_repacks} boundary re-packs",
            report.policy
        );
        assert_eq!(report.periods.len(), 4, "{}", report.policy);
        assert!(report.energy.joules() > 0.0, "{}", report.policy);
    }
}

#[test]
fn departures_exactly_on_period_boundaries_are_clean() {
    // Six of nine VMs end their lease exactly at the period-1 boundary
    // (sample 720): the departure is processed while the controller is
    // between periods, so the next UPDATE must simply drop them — no
    // eviction, no double-count, correct later-period loads.
    let traces = fleet(9, 4.0, 7);
    let horizon = traces.vms()[0].fine.len();
    let entries = (0..9)
        .map(|id| LifecycleEntry {
            id,
            arrival_sample: 0,
            departure_sample: (id >= 3).then_some(720),
        })
        .collect();
    let lifecycle = Lifecycle::from_entries(entries, horizon).unwrap();
    for trigger in [
        RepackTrigger::Periodic,
        RepackTrigger::Fragmentation { slack: 1 },
        RepackTrigger::Hybrid { slack: 1 },
    ] {
        let report = ScenarioBuilder::new(traces.clone())
            .servers(12)
            .repack_trigger(trigger)
            .lifecycle(lifecycle.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.periods.len(), 4, "{trigger:?}");
        // Periods 1.. pack only the three survivors.
        for p in &report.periods[1..] {
            assert!(
                p.servers_used <= report.periods[0].servers_used,
                "{trigger:?}: three survivors need no more servers than nine tenants"
            );
        }
        // A boundary departure is not an eviction: nothing was armed,
        // so a fragmentation trigger fires (if at all) only after the
        // boundary UPDATE already compacted the fleet.
        assert!(report.energy.joules() > 0.0, "{trigger:?}");
    }
}

#[test]
fn lifecycle_validation_happens_at_build_time() {
    let traces = fleet(4, 2.0, 1);
    let horizon = traces.vms()[0].fine.len();
    // Wrong horizon.
    let wrong = Lifecycle::all_at_start(4, horizon + 1).unwrap();
    assert!(ScenarioBuilder::new(traces.clone())
        .lifecycle(wrong)
        .build()
        .is_err());
    // Foreign VM id.
    let foreign = Lifecycle::from_entries(
        vec![LifecycleEntry {
            id: 9,
            arrival_sample: 0,
            departure_sample: None,
        }],
        horizon,
    )
    .unwrap();
    assert!(ScenarioBuilder::new(traces)
        .lifecycle(foreign)
        .build()
        .is_err());
}

#[test]
fn qos_guard_repacks_away_drifted_overcommit_mid_period() {
    // Two 4.5-core tenants against a 2.0-core default prediction: the
    // first batch pass packs both onto one 8-core server, and every
    // sample violates (9 > 8). Without a guard the fragmentation-only
    // schedule never corrects this; with one, the violation ratio
    // crossing the threshold fires an off-cycle re-pack whose
    // refreshed (observed-peak) predictions split the pair.
    use cavm_power::LinearPowerModel;
    use cavm_sim::{ControllerConfig, DatacenterController, QosGuard, RepackReason};
    use cavm_trace::{Reference, TimeSeries};

    const PERIOD: usize = 60;
    let config = |guard: Option<QosGuard>| ControllerConfig {
        server_fleet: cavm_core::fleet::ServerFleet::uniform(
            4,
            8.0,
            LinearPowerModel::xeon_e5410(),
        )
        .unwrap(),
        policy: Policy::Bfd,
        repack_trigger: RepackTrigger::Fragmentation { slack: 1 },
        qos_guard: guard,
        adaptive_slack_max: None,
        overcommit: None,
        dvfs_mode: cavm_core::dvfs::DvfsMode::Static,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: 2.0,
        sample_dt_s: 5.0,
        max_deferred: 1024,
    };
    let drive = |guard: Option<QosGuard>| {
        let mut controller = DatacenterController::new(config(guard)).unwrap();
        let mut sink = ReportSink::new();
        for id in 0..2 {
            let trace = TimeSeries::new(5.0, vec![4.5; 2 * PERIOD]).unwrap();
            controller.arrive(id, trace, None, &mut sink).unwrap();
        }
        for _ in 0..PERIOD {
            controller.tick(&mut sink).unwrap();
        }
        (controller, sink)
    };

    // Unguarded: a whole period of violations, still one server.
    let (unguarded, _) = drive(None);
    assert_eq!(unguarded.placement().active_server_count(), 1);
    assert_eq!(unguarded.offcycle_repacks(), 0);
    assert_eq!(unguarded.report().violation_instances, PERIOD);

    // Guarded at 10%: fires once the worst ratio crosses 0.1 (7
    // violations of 60), splits the pair, and violations stop.
    let guard = QosGuard {
        violation_ratio: 0.1,
    };
    let (guarded, sink) = drive(Some(guard));
    assert_eq!(
        guarded.placement().active_server_count(),
        2,
        "the refreshed predictions must split the overcommitted pair"
    );
    let qos_events: Vec<_> = sink
        .repacks()
        .iter()
        .filter(|e| matches!(e.reason, RepackReason::QosGuard { .. }))
        .collect();
    assert_eq!(qos_events.len(), 1, "one guard re-pack heals the server");
    let event = qos_events[0];
    assert_eq!(event.reason, RepackReason::QosGuard { violations: 7 });
    assert_eq!(event.sample, 7, "armed by violation 7, fired next tick");
    assert_eq!(event.servers_before, 1);
    assert_eq!(event.servers_after, 2);
    assert!(
        guarded.report().violation_instances < PERIOD / 4,
        "violations must stop after the guard re-pack"
    );
    // The healed period still reports the pre-re-pack worst ratio
    // through the folded floor.
    let report = guarded.report();
    assert!(report.periods[0].max_violation_ratio >= 7.0 / PERIOD as f64);
}

#[test]
fn boundary_capacity_check_force_repacks_overcommitted_servers() {
    // Two tenants whose 4.5-core peaks coincide only on the *last
    // three* samples of period 0: the running ratio never exceeds the
    // 4% threshold at any mid-period check (the guard evaluates one
    // tick after each violation, when the count is still 1 then 2),
    // so the mid-period guard stays quiet — but the period *ends* at
    // 3/60 = 5% > 4%, and the refreshed predictions (4.5 + 4.5 on 8
    // cores) overcommit the kept server. The guard's boundary
    // capacity check must catch exactly this breached-and-still-
    // overcommitted combination: trim the largest member off, re-admit
    // it onto a second server, and emit an `Overcommit` re-pack event
    // at the boundary.
    use cavm_power::LinearPowerModel;
    use cavm_sim::{ControllerConfig, DatacenterController, QosGuard, RepackReason};
    use cavm_trace::{Reference, TimeSeries};

    const PERIOD: usize = 60;
    let trace = || {
        let values = (0..3 * PERIOD)
            .map(|t| if (57..60).contains(&t) { 4.5 } else { 2.0 })
            .collect();
        TimeSeries::new(5.0, values).unwrap()
    };
    let mut controller = DatacenterController::new(ControllerConfig {
        server_fleet: cavm_core::fleet::ServerFleet::uniform(
            4,
            8.0,
            LinearPowerModel::xeon_e5410(),
        )
        .unwrap(),
        policy: Policy::Bfd,
        repack_trigger: RepackTrigger::Fragmentation { slack: 1 },
        qos_guard: Some(QosGuard {
            violation_ratio: 0.04,
        }),
        adaptive_slack_max: None,
        overcommit: None,
        dvfs_mode: cavm_core::dvfs::DvfsMode::Static,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: 2.0,
        sample_dt_s: 5.0,
        max_deferred: 1024,
    })
    .unwrap();
    let mut sink = ReportSink::new();
    controller.arrive(0, trace(), None, &mut sink).unwrap();
    controller.arrive(1, trace(), None, &mut sink).unwrap();
    for _ in 0..PERIOD {
        controller.tick(&mut sink).unwrap();
    }
    assert_eq!(
        controller.placement().active_server_count(),
        1,
        "period 0 packs the pair on the 2.0-core default predictions"
    );
    assert_eq!(
        controller.report().violation_instances,
        3,
        "the tail peaks violate, crossing the threshold only at period end"
    );

    // The period-1 boundary keeps the placement but refreshes the
    // predictions to the observed 4.5-core peaks — overcommitted, and
    // the server has a violation record.
    controller.tick(&mut sink).unwrap();
    assert_eq!(
        controller.placement().active_server_count(),
        2,
        "the capacity check must split the violating overcommitted pair"
    );
    let overcommit: Vec<_> = sink
        .repacks()
        .iter()
        .filter(|e| matches!(e.reason, RepackReason::Overcommit { .. }))
        .collect();
    assert_eq!(overcommit.len(), 1);
    let event = overcommit[0];
    assert_eq!(event.reason, RepackReason::Overcommit { servers: 1 });
    assert_eq!(event.sample, PERIOD, "fires at the boundary tick");
    assert_eq!(event.servers_after, 2);
    assert_eq!(
        event.migrations, 1,
        "the trim moves exactly one of the pair"
    );
    // A boundary capacity check is not an off-cycle re-pack.
    assert_eq!(controller.offcycle_repacks(), 0);
    // Replaying period 1 on the split placement stays violation-free
    // (each server now hosts one 4.5-core-predicted tenant).
    for _ in 0..PERIOD {
        controller.tick(&mut sink).unwrap();
    }
    assert_eq!(controller.report().violation_instances, 3);
}

#[test]
fn trimmed_server_is_not_reovercommitted_until_its_hold_expires() {
    // The admit-then-trim ping-pong regression. Three tenants whose
    // 3.3-core peaks coincide only on each period's last three samples
    // pack onto one server on the 2.0-core default predictions; the
    // period ends at 3/60 = 5% > 4% (too late for the mid-period
    // guard), and the refreshed 3.3-core predictions leave the kept
    // server at 9.9 > 8 cores — the boundary capacity check trims one
    // tenant off. With deliberate overcommit configured, the trimmed
    // server (6.6 cores predicted) would immediately re-admit the next
    // mid-period arrival through the margin gate (8.6 <= 8 x 1.1)
    // and be re-trimmed a boundary later. The trim's revocation hold
    // must deny the slot its margin through the next period — and then
    // lapse, because the hold is per-incident, not a permanent
    // blacklist.
    use cavm_power::LinearPowerModel;
    use cavm_sim::{
        ControllerConfig, DatacenterController, OvercommitConfig, QosGuard, RepackReason,
    };
    use cavm_trace::{Reference, TimeSeries};

    const PERIOD: usize = 60;
    let trace = || {
        let values = (0..4 * PERIOD)
            .map(|t| if t % PERIOD >= 57 { 3.3 } else { 2.0 })
            .collect();
        TimeSeries::new(5.0, values).unwrap()
    };
    let mut controller = DatacenterController::new(ControllerConfig {
        server_fleet: cavm_core::fleet::ServerFleet::uniform(
            4,
            8.0,
            LinearPowerModel::xeon_e5410(),
        )
        .unwrap(),
        policy: Policy::Bfd,
        repack_trigger: RepackTrigger::Fragmentation { slack: 1 },
        qos_guard: Some(QosGuard {
            violation_ratio: 0.04,
        }),
        adaptive_slack_max: None,
        overcommit: Some(OvercommitConfig {
            margin: 0.15,
            max_margin: 0.25,
        }),
        dvfs_mode: cavm_core::dvfs::DvfsMode::Static,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: 2.0,
        sample_dt_s: 5.0,
        max_deferred: 1024,
    })
    .unwrap();
    let mut sink = ReportSink::new();
    for id in 0..3 {
        controller.arrive(id, trace(), None, &mut sink).unwrap();
    }
    for _ in 0..PERIOD {
        controller.tick(&mut sink).unwrap();
    }
    assert_eq!(
        controller.placement().active_server_count(),
        1,
        "period 0 packs the trio on the 2.0-core default predictions"
    );

    // Boundary: evidence (5% > 4%) + overcommit (9.9 > 8) trims the
    // smallest set that restores plain capacity — one tenant — and
    // puts the slot under a revocation hold.
    controller.tick(&mut sink).unwrap();
    let overcommit_events = |sink: &ReportSink| {
        sink.repacks()
            .iter()
            .filter(|e| matches!(e.reason, RepackReason::Overcommit { .. }))
            .count()
    };
    assert_eq!(overcommit_events(&sink), 1, "one boundary trim");
    assert_eq!(controller.placement().active_server_count(), 2);
    let held: Vec<usize> = (0..4).filter(|&s| controller.overcommit_held(s)).collect();
    assert_eq!(held.len(), 1, "exactly the trimmed slot is held");
    let trimmed = held[0];
    let margins = controller.overcommit_margins().expect("overcommit is on");
    assert!(
        margins.iter().all(|&m| m > 0.0),
        "the hold revokes the slot's margin without zeroing the class controller"
    );

    // A mid-period arrival would margin-fit the trimmed server (6.6 +
    // 2.0 = 8.6 <= 8 x margin cap) and BFD would prefer it as the
    // fullest bin — the hold must turn it away to a plain-capacity
    // server.
    for _ in 0..5 {
        controller.tick(&mut sink).unwrap();
    }
    controller.arrive(3, trace(), None, &mut sink).unwrap();
    let landed = controller
        .placement()
        .server_of(3)
        .expect("three near-empty servers can host a 2-core tenant");
    assert_ne!(
        landed, trimmed,
        "a held server must not re-admit past plain capacity"
    );
    let load_on_trimmed: f64 = controller.placement().servers()[trimmed]
        .iter()
        .map(|&id| controller.predicted_vms()[id].demand)
        .sum();
    assert!(
        load_on_trimmed <= 8.0 + 1e-9,
        "the trimmed server stays within plain capacity while held"
    );

    // Two more boundaries: the split placement is violation-free, so
    // no further trim fires (no ping-pong) and the hold lapses.
    for _ in 0..2 * PERIOD + 1 {
        controller.tick(&mut sink).unwrap();
    }
    assert_eq!(
        overcommit_events(&sink),
        1,
        "the trim must not recur every boundary"
    );
    assert!(
        (0..4).all(|s| !controller.overcommit_held(s)),
        "the revocation hold expires after the following period"
    );
}

#[test]
fn buffered_sink_is_transparent_when_roomy_and_counts_drops_when_not() {
    use cavm_sim::Buffered;

    let traces = fleet(9, 4.0, 11);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = churn_lifecycle(9, horizon);
    let scenario = || {
        ScenarioBuilder::new(traces.clone())
            .servers(12)
            .policy(Policy::Proposed(Default::default()))
            .lifecycle(lifecycle.clone())
            .build()
            .unwrap()
    };

    // Roomy queue: the buffered stream folds back into exactly the
    // unbuffered report (both see zero drops).
    let mut plain = ReportSink::new();
    scenario().run_with_sink(&mut plain).unwrap();
    let plain_report = plain.into_report().unwrap();
    let mut roomy = Buffered::new(ReportSink::new(), 1 << 16);
    scenario().run_with_sink(&mut roomy).unwrap();
    assert_eq!(roomy.dropped(), 0);
    let roomy_report = roomy.into_inner().into_report().unwrap();
    assert_eq!(plain_report, roomy_report);

    // A one-slot queue overflows; the terminal report the inner sink
    // receives carries the exact drop count.
    let mut tight = Buffered::new(ReportSink::new(), 1);
    scenario().run_with_sink(&mut tight).unwrap();
    let dropped = tight.dropped();
    assert!(dropped > 0, "a one-slot queue must overflow under churn");
    let tight_report = tight.into_inner().into_report().unwrap();
    assert_eq!(tight_report.sink_dropped_events, dropped);
    // The report itself is the controller's, not reassembled from the
    // (lossy) stream: totals survive the drops.
    assert_eq!(tight_report.energy, plain_report.energy);
    assert_eq!(
        tight_report.violation_instances,
        plain_report.violation_instances
    );
}

#[test]
fn adaptive_slack_stays_within_bounds_and_streams_on_repacks() {
    use cavm_sim::QosGuard;

    let traces = fleet(9, 4.0, 11);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = churn_lifecycle(9, horizon);
    let mut sink = ReportSink::new();
    ScenarioBuilder::new(traces)
        .servers(12)
        .policy(Policy::Proposed(Default::default()))
        .repack_trigger(RepackTrigger::Hybrid { slack: 1 })
        .adaptive_slack_max(3)
        .qos_guard(QosGuard {
            violation_ratio: 0.25,
        })
        .lifecycle(lifecycle)
        .build()
        .unwrap()
        .run_with_sink(&mut sink)
        .unwrap();
    assert!(!sink.repacks().is_empty());
    for event in sink.repacks() {
        let slack = event
            .slack_after
            .expect("a fragmentation-dimension schedule streams its slack");
        assert!((1..=3).contains(&slack), "slack {slack} left [1, 3]");
    }
}

#[test]
fn guard_and_adaptive_knobs_are_validated_at_build_time() {
    use cavm_sim::QosGuard;

    let traces = fleet(4, 2.0, 1);
    let build = |f: fn(ScenarioBuilder) -> ScenarioBuilder| {
        f(ScenarioBuilder::new(traces.clone())).build().map(|_| ())
    };
    // Guard ratio must lie in (0, 1].
    assert!(build(|b| b.qos_guard(QosGuard {
        violation_ratio: 0.0
    }))
    .is_err());
    assert!(build(|b| b.qos_guard(QosGuard {
        violation_ratio: 1.5
    }))
    .is_err());
    assert!(build(|b| b.qos_guard(QosGuard {
        violation_ratio: f64::NAN
    }))
    .is_err());
    assert!(build(|b| b.qos_guard(QosGuard {
        violation_ratio: 1.0
    }))
    .is_ok());
    // Adaptive slack needs a fragmentation dimension and max ≥ slack.
    assert!(build(|b| b.adaptive_slack_max(3)).is_err());
    assert!(build(|b| b
        .repack_trigger(RepackTrigger::Hybrid { slack: 2 })
        .adaptive_slack_max(1))
    .is_err());
    assert!(build(|b| b
        .repack_trigger(RepackTrigger::Hybrid { slack: 2 })
        .adaptive_slack_max(2))
    .is_ok());
}

/// Records fault-path stream traffic while forwarding nothing else.
#[derive(Default)]
struct FaultLog {
    fails: Vec<(usize, usize, usize)>,
    recoveries: Vec<(usize, usize)>,
    admits: Vec<(usize, usize, usize)>,
    repacks: Vec<cavm_sim::RepackEvent>,
}

impl cavm_sim::MetricSink for FaultLog {
    fn on_server_fail(&mut self, sample: usize, server: usize, residents: usize) {
        self.fails.push((sample, server, residents));
    }

    fn on_server_recover(&mut self, sample: usize, server: usize) {
        self.recoveries.push((sample, server));
    }

    fn on_admit(&mut self, sample: usize, vm: usize, server: usize) {
        self.admits.push((sample, vm, server));
    }

    fn on_repack(&mut self, event: &cavm_sim::RepackEvent) {
        self.repacks.push(*event);
    }
}

fn fault_controller(
    servers: usize,
    max_deferred: usize,
    demand: f64,
) -> cavm_sim::DatacenterController {
    use cavm_power::LinearPowerModel;
    use cavm_sim::{ControllerConfig, DatacenterController};
    use cavm_trace::Reference;

    DatacenterController::new(ControllerConfig {
        server_fleet: cavm_core::fleet::ServerFleet::uniform(
            servers,
            8.0,
            LinearPowerModel::xeon_e5410(),
        )
        .unwrap(),
        policy: Policy::Ffd,
        repack_trigger: RepackTrigger::Periodic,
        qos_guard: None,
        adaptive_slack_max: None,
        overcommit: None,
        dvfs_mode: DvfsMode::Static,
        period_samples: 60,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: demand,
        sample_dt_s: 5.0,
        max_deferred,
    })
    .unwrap()
}

#[test]
fn single_server_failure_evacuates_residents_through_the_policy() {
    use cavm_sim::RepackReason;
    use cavm_trace::TimeSeries;

    let trace = || TimeSeries::new(5.0, vec![2.0; 180]).unwrap();
    let mut controller = fault_controller(4, 1024, 2.0);
    let mut sink = FaultLog::default();
    controller.arrive(0, trace(), None, &mut sink).unwrap();
    controller.arrive(1, trace(), None, &mut sink).unwrap();
    for _ in 0..3 {
        controller.tick(&mut sink).unwrap();
    }
    assert_eq!(controller.placement().server_of(0), Some(0));
    assert_eq!(controller.placement().server_of(1), Some(0));

    controller.server_fail(0, &mut sink).unwrap();
    // Both residents re-admitted through the policy, never onto the
    // failed server; health, counters and the stream all agree.
    assert!(controller.server_health()[0].is_failed());
    assert!(controller.placement().servers()[0].is_empty());
    assert_eq!(controller.placement().server_of(0), Some(1));
    assert_eq!(controller.placement().server_of(1), Some(1));
    assert_eq!(controller.server_failures(), 1);
    assert_eq!(controller.evacuations(), 2);
    assert_eq!(controller.deferred_vms(), 0);
    assert!(controller.degraded());
    assert_eq!(sink.fails, vec![(3, 0, 2)]);
    let evac: Vec<_> = sink
        .repacks
        .iter()
        .filter(|e| matches!(e.reason, RepackReason::Evacuation { .. }))
        .collect();
    assert_eq!(evac.len(), 1);
    assert_eq!(evac[0].reason, RepackReason::Evacuation { server: 0 });
    assert_eq!(evac[0].migrations, 2);
    // An evacuation is disaster response, not consolidation.
    assert_eq!(controller.offcycle_repacks(), 0);

    controller.server_recover(0, &mut sink).unwrap();
    assert!(controller.server_health()[0].is_healthy());
    assert!(!controller.degraded());
    assert_eq!(controller.server_recoveries(), 1);
    assert_eq!(sink.recoveries, vec![(3, 0)]);
    // The recovered slot is admissible again: a first-fit arrival
    // lands exactly where the lease-blind rule says — server 0.
    controller.arrive(2, trace(), None, &mut sink).unwrap();
    assert_eq!(controller.placement().server_of(2), Some(0));
}

#[test]
fn failure_with_no_spare_capacity_defers_and_drains_on_recovery() {
    use cavm_sim::RepackReason;
    use cavm_trace::TimeSeries;

    let trace = || TimeSeries::new(5.0, vec![3.0; 180]).unwrap();
    // Two 8-core servers, four 3-core tenants: 0,1 on s0 and 2,3 on
    // s1, nothing spare.
    let mut controller = fault_controller(2, 1024, 3.0);
    let mut sink = FaultLog::default();
    for id in 0..4 {
        controller.arrive(id, trace(), None, &mut sink).unwrap();
    }
    controller.tick(&mut sink).unwrap();
    assert_eq!(controller.placement().server_of(2), Some(1));
    assert_eq!(controller.placement().server_of(3), Some(1));

    controller.server_fail(1, &mut sink).unwrap();
    // No server can host the evacuees: graceful degradation queues
    // them instead of erroring the session.
    assert_eq!(controller.deferred_vms(), 2);
    assert_eq!(controller.deferred_ids(), vec![2, 3]);
    assert_eq!(controller.evacuations(), 0, "nobody actually moved");
    assert_eq!(controller.live_vms(), 4, "deferred VMs stay live");
    assert!(controller.degraded());
    let evac: Vec<_> = sink
        .repacks
        .iter()
        .filter(|e| matches!(e.reason, RepackReason::Evacuation { .. }))
        .collect();
    assert_eq!(evac.len(), 1);
    assert_eq!(evac[0].migrations, 0, "all residents deferred, none moved");

    // Mid-period ticks retry the queue; with the fleet still short it
    // stays put.
    controller.tick(&mut sink).unwrap();
    assert_eq!(controller.deferred_vms(), 2);

    // Recovery drains it: both land back on the repaired server as
    // online admissions.
    let admitted_before = controller.online_admissions();
    controller.server_recover(1, &mut sink).unwrap();
    assert_eq!(controller.deferred_vms(), 0);
    assert!(!controller.degraded());
    assert_eq!(controller.placement().server_of(2), Some(1));
    assert_eq!(controller.placement().server_of(3), Some(1));
    assert_eq!(controller.online_admissions(), admitted_before + 2);
    assert_eq!(
        sink.admits.iter().filter(|&&(_, vm, _)| vm >= 2).count(),
        2,
        "drained admissions stream like any other admission"
    );
    let report = {
        let mut end = cavm_sim::ReportSink::new();
        for _ in 0..120 {
            controller.tick(&mut end).unwrap();
        }
        controller.finish(&mut end).unwrap();
        controller.report()
    };
    assert_eq!(report.server_failures, 1);
    assert_eq!(report.evacuations, 0);
    assert_eq!(report.deferred_peak, 2);
}

#[test]
fn deferred_queue_overflow_rejects_the_failure_atomically() {
    use cavm_sim::SimError;
    use cavm_trace::TimeSeries;

    let trace = || TimeSeries::new(5.0, vec![3.0; 180]).unwrap();
    let mut controller = fault_controller(2, 1, 3.0);
    let mut sink = FaultLog::default();
    for id in 0..4 {
        controller.arrive(id, trace(), None, &mut sink).unwrap();
    }
    controller.tick(&mut sink).unwrap();

    // Failing s1 would need to defer both residents, but the queue
    // only holds one: the event is rejected before any state changes.
    let err = controller.server_fail(1, &mut sink).unwrap_err();
    assert_eq!(err, SimError::DeferredQueueFull { capacity: 1 });
    assert!(controller.server_health()[1].is_healthy());
    assert_eq!(controller.placement().server_of(2), Some(1));
    assert_eq!(controller.placement().server_of(3), Some(1));
    assert_eq!(controller.server_failures(), 0);
    assert_eq!(controller.deferred_vms(), 0);
    assert!(!controller.degraded());
    assert!(sink.fails.is_empty(), "a rejected failure streams nothing");
}

#[test]
fn malformed_event_sequences_yield_typed_errors() {
    use cavm_sim::{NullSink, SimError, VmEvent};
    use cavm_trace::TimeSeries;

    let trace = || TimeSeries::new(5.0, vec![2.0; 180]).unwrap();
    let mut controller = fault_controller(4, 1024, 2.0);
    let mut sink = NullSink;
    controller.arrive(0, trace(), None, &mut sink).unwrap();
    assert_eq!(
        controller.arrive(0, trace(), None, &mut sink).unwrap_err(),
        SimError::DuplicateVm { id: 0 }
    );
    assert_eq!(
        controller.depart(7).unwrap_err(),
        SimError::UnknownVm { id: 7 }
    );
    controller.depart(0).unwrap();
    assert_eq!(
        controller.depart(0).unwrap_err(),
        SimError::VmAlreadyDeparted { id: 0 }
    );
    controller.arrive(1, trace(), None, &mut sink).unwrap();
    controller.tick(&mut sink).unwrap();
    let provisioned = controller.placement().server_count();
    assert_eq!(
        controller.server_fail(99, &mut sink).unwrap_err(),
        SimError::UnknownServer {
            server: 99,
            servers: provisioned
        }
    );
    assert_eq!(
        controller.server_recover(0, &mut sink).unwrap_err(),
        SimError::ServerNotFailed { server: 0 }
    );
    controller.server_fail(0, &mut sink).unwrap();
    assert_eq!(
        controller.server_fail(0, &mut sink).unwrap_err(),
        SimError::ServerAlreadyFailed { server: 0 }
    );
    controller.server_recover(0, &mut sink).unwrap();
    controller.finish(&mut sink).unwrap();
    assert_eq!(
        controller.apply(VmEvent::Tick, &mut sink).unwrap_err(),
        SimError::SessionFinished
    );
}

#[test]
fn scenario_faults_are_validated_and_replayed_deterministically() {
    use cavm_workload::faults::{FaultEntry, FaultKind, FaultModel, FaultPlan, FaultPlanBuilder};

    let traces = fleet(9, 4.0, 11);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = churn_lifecycle(9, horizon);
    let plan = FaultPlanBuilder::new(horizon)
        .seed(23)
        .block(
            0,
            12,
            FaultModel {
                mtbf_samples: 2_000.0,
                mttr_samples: 150.0,
                outage_mtbf_samples: Some(12_000.0),
                outage_mttr_samples: 80.0,
            },
        )
        .build()
        .unwrap();
    assert!(
        plan.failures() > 0,
        "the plan must actually schedule faults"
    );
    let run = |p: Option<FaultPlan>| {
        let mut b = ScenarioBuilder::new(traces.clone())
            .servers(12)
            .policy(Policy::Proposed(Default::default()))
            .lifecycle(lifecycle.clone());
        if let Some(p) = p {
            b = b.faults(p);
        }
        b.build().unwrap().run().unwrap()
    };

    // Deterministic, and the faults visibly happened.
    let a = run(Some(plan.clone()));
    let b = run(Some(plan.clone()));
    assert_eq!(a, b);
    assert!(a.server_failures > 0);

    // An empty plan is bit-identical to no plan at all.
    assert_eq!(run(Some(FaultPlan::empty())), run(None));

    // Build-time validation: a backwards hand-built clock and an
    // out-of-fleet server are typed errors.
    let entry = |sample, kind, server| FaultEntry {
        sample,
        kind,
        server,
    };
    let backwards = FaultPlan::from_entries(vec![
        entry(10, FaultKind::Fail, 0),
        entry(5, FaultKind::Recover, 0),
    ]);
    let err = ScenarioBuilder::new(traces.clone())
        .servers(12)
        .faults(backwards)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        cavm_sim::SimError::NonMonotoneClock {
            sample: 5,
            previous: 10
        }
    );
    let out_of_fleet = FaultPlan::from_entries(vec![entry(0, FaultKind::Fail, 12)]);
    let err = ScenarioBuilder::new(traces.clone())
        .servers(12)
        .faults(out_of_fleet)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        cavm_sim::SimError::UnknownServer {
            server: 12,
            servers: 12
        }
    );
}

#[test]
fn buffered_sink_stays_transparent_under_server_faults() {
    use cavm_sim::Buffered;
    use cavm_workload::faults::{FaultModel, FaultPlanBuilder};

    let traces = fleet(9, 4.0, 11);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = churn_lifecycle(9, horizon);
    let plan = FaultPlanBuilder::new(horizon)
        .seed(29)
        .block(
            0,
            12,
            FaultModel {
                mtbf_samples: 2_500.0,
                mttr_samples: 120.0,
                outage_mtbf_samples: None,
                outage_mttr_samples: 1.0,
            },
        )
        .build()
        .unwrap();
    let scenario = || {
        ScenarioBuilder::new(traces.clone())
            .servers(12)
            .policy(Policy::Proposed(Default::default()))
            .lifecycle(lifecycle.clone())
            .faults(plan.clone())
            .build()
            .unwrap()
    };

    // Roomy queue: fail/recover/evacuation events buffer and fold back
    // into exactly the unbuffered report.
    let mut plain = ReportSink::new();
    scenario().run_with_sink(&mut plain).unwrap();
    let plain_report = plain.into_report().unwrap();
    assert!(
        plain_report.server_failures > 0,
        "faults must reach the run"
    );
    let mut roomy = Buffered::new(ReportSink::new(), 1 << 16);
    scenario().run_with_sink(&mut roomy).unwrap();
    assert_eq!(roomy.dropped(), 0);
    assert_eq!(roomy.into_inner().into_report().unwrap(), plain_report);

    // A one-slot queue drops fault events like any others and counts
    // every one; the terminal report stays the controller's own.
    let mut tight = Buffered::new(ReportSink::new(), 1);
    scenario().run_with_sink(&mut tight).unwrap();
    let dropped = tight.dropped();
    assert!(dropped > 0);
    let tight_report = tight.into_inner().into_report().unwrap();
    assert_eq!(tight_report.sink_dropped_events, dropped);
    assert_eq!(tight_report.server_failures, plain_report.server_failures);
    assert_eq!(tight_report.evacuations, plain_report.evacuations);
}

/// A refused arrival is atomic: the VM is not registered, so the id
/// stays fresh, a retry is judged on capacity again, and the session
/// keeps running across period boundaries.
#[test]
fn refused_arrival_leaves_no_trace_and_is_retryable() {
    use cavm_sim::{NullSink, SimError};
    use cavm_trace::TimeSeries;

    // One 8-core server, 6-core tenants: room for exactly one.
    let trace = || TimeSeries::new(5.0, vec![6.0; 180]).unwrap();
    let mut controller = fault_controller(1, 1024, 6.0);
    let mut sink = NullSink;
    controller.arrive(0, trace(), None, &mut sink).unwrap();
    controller.tick(&mut sink).unwrap();

    for _ in 0..2 {
        assert!(matches!(
            controller.arrive(1, trace(), None, &mut sink),
            Err(SimError::InsufficientServers { .. })
        ));
        assert_eq!(controller.live_vms(), 1);
        assert_eq!(controller.deferred_vms(), 0);
        assert_eq!(controller.placement().server_of(1), None);
        assert_eq!(
            controller.depart(1).unwrap_err(),
            SimError::UnknownVm { id: 1 }
        );
    }
    // The batch pass at the next boundary sees only the admitted VM.
    for _ in 0..64 {
        controller.tick(&mut sink).unwrap();
    }
    assert_eq!(controller.report().periods.len(), 1);
    // Once the tenant leaves, the refused id admits like a fresh one.
    controller.depart(0).unwrap();
    controller.arrive(1, trace(), None, &mut sink).unwrap();
    assert_eq!(controller.placement().server_of(1), Some(0));
    assert_eq!(controller.live_vms(), 1);
}

/// The two ways into a session — `ScenarioBuilder::build` and
/// `DatacenterController::new` on a `ControllerConfig` literal — share
/// one validator, so breaking any one knob is the *same* `SimError`
/// (message included) from both; the rules about a scenario's inputs,
/// which a controller never sees, are `build()`'s alone.
#[test]
fn builder_and_controller_reject_the_same_knobs_with_the_same_error() {
    use cavm_core::alloc::proposed::ProposedConfig;
    use cavm_core::fleet::{ServerClass, ServerFleet, UNBOUNDED};
    use cavm_power::LinearPowerModel;
    use cavm_sim::{ControllerConfig, DatacenterController, OvercommitConfig, QosGuard, SimError};
    use cavm_workload::faults::{FaultEntry, FaultKind, FaultPlan};

    type Knob = (
        &'static str,
        fn(ScenarioBuilder) -> ScenarioBuilder,
        fn(&mut ControllerConfig),
    );
    type LiteralRule = (&'static str, fn(&mut ControllerConfig));

    fn unbounded() -> ServerFleet {
        let open = ServerClass::new("open", UNBOUNDED, 8.0, LinearPowerModel::xeon_e5410());
        ServerFleet::new(vec![open.unwrap()]).unwrap()
    }
    const GUARD: QosGuard = QosGuard {
        violation_ratio: 0.05,
    };
    fn proposed(alpha: f64) -> Policy {
        Policy::Proposed(ProposedConfig {
            alpha,
            ..Default::default()
        })
    }
    fn pcp(envelope_percentile: f64, affinity_threshold: f64) -> Policy {
        Policy::Pcp {
            envelope_percentile,
            affinity_threshold,
        }
    }
    const NAN_PAIRS: Policy = Policy::SuperVm {
        min_pair_cost: f64::NAN,
    };
    const NO_INTERVAL: DvfsMode = DvfsMode::Dynamic {
        interval_samples: 0,
    };

    let traces = fleet(4, 2.0, 1);
    let horizon = traces.vms()[0].fine.len();
    let base = || ScenarioBuilder::new(traces.clone()).servers(12);
    let base_config = base().build().unwrap().controller_config();
    DatacenterController::new(base_config.clone()).expect("the base is valid");

    // One row per `ControllerConfig::validate` rule a builder can reach.
    let knobs: [Knob; 14] = [
        (
            "unbounded fleet",
            |b| b.server_fleet(unbounded()),
            |c| c.server_fleet = unbounded(),
        ),
        (
            "zero-sample period",
            |b| b.period_samples(0),
            |c| c.period_samples = 0,
        ),
        (
            "zero fragmentation slack",
            |b| b.repack_trigger(RepackTrigger::Fragmentation { slack: 0 }),
            |c| c.repack_trigger = RepackTrigger::Fragmentation { slack: 0 },
        ),
        (
            "guard ratio out of (0, 1]",
            |b| {
                b.qos_guard(QosGuard {
                    violation_ratio: 1.5,
                })
            },
            |c| {
                c.qos_guard = Some(QosGuard {
                    violation_ratio: 1.5,
                })
            },
        ),
        (
            "adaptive slack without a fragmentation trigger",
            |b| b.adaptive_slack_max(3),
            |c| c.adaptive_slack_max = Some(3),
        ),
        (
            "adaptive slack bound below the trigger's slack",
            |b| {
                b.repack_trigger(RepackTrigger::Hybrid { slack: 2 })
                    .adaptive_slack_max(1)
            },
            |c| {
                c.repack_trigger = RepackTrigger::Hybrid { slack: 2 };
                c.adaptive_slack_max = Some(1);
            },
        ),
        (
            "overcommit without a guard",
            |b| b.overcommit(0.1, 0.25),
            |c| {
                c.overcommit = Some(OvercommitConfig {
                    margin: 0.1,
                    max_margin: 0.25,
                })
            },
        ),
        (
            "overcommit max margin out of (0, 1]",
            |b| b.qos_guard(GUARD).overcommit(0.0, 0.0),
            |c| {
                c.qos_guard = Some(GUARD);
                c.overcommit = Some(OvercommitConfig {
                    margin: 0.0,
                    max_margin: 0.0,
                });
            },
        ),
        (
            "overcommit margin above its max",
            |b| b.qos_guard(GUARD).overcommit(0.3, 0.25),
            |c| {
                c.qos_guard = Some(GUARD);
                c.overcommit = Some(OvercommitConfig {
                    margin: 0.3,
                    max_margin: 0.25,
                });
            },
        ),
        (
            "bad proposed tuning",
            |b| b.policy(proposed(2.0)),
            |c| c.policy = proposed(2.0),
        ),
        (
            "pcp envelope percentile out of (0, 100)",
            |b| b.policy(pcp(0.0, 0.2)),
            |c| c.policy = pcp(0.0, 0.2),
        ),
        (
            "pcp affinity threshold out of [0, 1]",
            |b| b.policy(pcp(90.0, 2.0)),
            |c| c.policy = pcp(90.0, 2.0),
        ),
        (
            "non-finite super-vm threshold",
            |b| b.policy(NAN_PAIRS),
            |c| c.policy = NAN_PAIRS,
        ),
        (
            "zero dynamic interval",
            |b| b.dvfs_mode(NO_INTERVAL),
            |c| c.dvfs_mode = NO_INTERVAL,
        ),
    ];
    let mut seen = Vec::new();
    for (rule, through_builder, through_literal) in knobs {
        let built = through_builder(base()).build().unwrap_err();
        let mut config = base_config.clone();
        through_literal(&mut config);
        let opened = DatacenterController::new(config).unwrap_err();
        assert_eq!(built, opened, "{rule}");
        assert!(
            matches!(built, SimError::InvalidParameter(_) | SimError::Core(_)),
            "{rule}: {built:?}"
        );
        // Every row trips a rule of its own.
        assert!(!seen.contains(&built), "{rule} repeats {built:?}");
        seen.push(built);
    }
    // Rules 15–18 only a literal can break: a builder reads the sample
    // interval off a trace (`TimeSeries` has already validated it) and
    // fixes the governor headroom, the default demand and the
    // deferred-queue capacity.
    let literal_only: [LiteralRule; 4] = [
        ("zero sample interval", |c| c.sample_dt_s = 0.0),
        ("negative dynamic headroom", |c| c.dynamic_headroom = -1.0),
        ("zero default demand", |c| c.default_demand = 0.0),
        ("zero-slot deferred queue", |c| c.max_deferred = 0),
    ];
    for (rule, through_literal) in literal_only {
        let mut config = base_config.clone();
        through_literal(&mut config);
        let err = DatacenterController::new(config).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidParameter(_)) && !seen.contains(&err),
            "{rule}: {err:?}"
        );
        seen.push(err);
    }

    // Rules about the inputs: `build()` alone, one row each. (Traces of
    // unequal length are the eighth; no public `VmFleet` constructor
    // lets one through to try.)
    let foreign = LifecycleEntry {
        id: 9,
        arrival_sample: 0,
        departure_sample: None,
    };
    for (rule, builder) in [
        ("empty fleet", ScenarioBuilder::new(traces.select_top(0))),
        ("zero servers", base().servers(0)),
        (
            "traces shorter than a period",
            base().period_samples(horizon + 1),
        ),
        (
            "lifecycle horizon",
            base().lifecycle(Lifecycle::all_at_start(4, horizon + 1).unwrap()),
        ),
        (
            "lifecycle id range",
            base().lifecycle(Lifecycle::from_entries(vec![foreign], horizon).unwrap()),
        ),
    ] {
        let err = builder.build().unwrap_err();
        assert!(
            matches!(err, SimError::InvalidParameter(_)) && !seen.contains(&err),
            "{rule}: {err:?}"
        );
    }
    let entry = |sample, kind, server| FaultEntry {
        sample,
        kind,
        server,
    };
    let backwards = FaultPlan::from_entries(vec![
        entry(10, FaultKind::Fail, 0),
        entry(5, FaultKind::Recover, 0),
    ]);
    assert_eq!(
        base().faults(backwards).build().unwrap_err(),
        SimError::NonMonotoneClock {
            sample: 5,
            previous: 10
        }
    );
    let out_of_fleet = FaultPlan::from_entries(vec![entry(0, FaultKind::Fail, 12)]);
    assert_eq!(
        base().faults(out_of_fleet).build().unwrap_err(),
        SimError::UnknownServer {
            server: 12,
            servers: 12
        }
    );
}
