//! Service-layer acceptance: fork equivalence, what-if isolation, and
//! session-host determinism.
//!
//! The service layer's whole contract is that concurrency and
//! speculation change **nothing**:
//!
//! * a fork replaying the identical event suffix is bit-identical to
//!   the original, for every policy and schedule (the snapshot really
//!   captures *all* controller state);
//! * a [`WhatIf`] re-pack on a fork never perturbs the live session
//!   (state hash and report unchanged);
//! * a [`SessionHost`] schedule produces the same merged report on 1
//!   worker and on 8 (session isolation ⇒ thread-count independence).
//!
//! [`WhatIf`]: cavm_sim::WhatIf
//! [`SessionHost`]: cavm_sim::SessionHost

use cavm_sim::service::{interleave, lifecycle_events, SessionHost};
use cavm_sim::{
    NullSink, Policy, QosGuard, RepackTrigger, Scenario, ScenarioBuilder, ShardedController,
};
use cavm_workload::datacenter::{DatacenterTraceBuilder, VmFleet};
use cavm_workload::lifecycle::{ArrivalProcess, Lifecycle, LifecycleBuilder, LifetimeModel};
use proptest::prelude::*;

fn fleet(vms: usize, hours: f64, seed: u64) -> VmFleet {
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

fn churn(vms: usize, horizon: usize, seed: u64) -> Lifecycle {
    LifecycleBuilder::new(vms, horizon)
        .seed(seed)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap_samples: 90.0,
        })
        .lifetimes(LifetimeModel::Exponential {
            mean_samples: 1200.0,
        })
        .build()
        .unwrap()
}

/// The two re-pack schedules the fork must survive: plain hybrid
/// (fragmentation-triggered off-cycle re-packs) and the guarded
/// schedule (hybrid + QoS guard + adaptive slack — every feedback
/// controller live at once).
fn scenario(traces: VmFleet, policy: Policy, guarded: bool, lifecycle: Lifecycle) -> Scenario {
    let vms = traces.len();
    let mut builder = ScenarioBuilder::new(traces)
        .servers(2 * vms)
        .policy(policy)
        .repack_trigger(RepackTrigger::Hybrid { slack: 1 })
        .lifecycle(lifecycle);
    if guarded {
        builder = builder
            .qos_guard(QosGuard {
                violation_ratio: 0.05,
            })
            .adaptive_slack_max(4);
    }
    builder.build().unwrap()
}

proptest! {
    /// Fork at a random event index, replay the identical suffix on
    /// original and fork, across all 5 policies × guarded/hybrid
    /// schedules: terminal reports bit-identical (`SimReport`
    /// `PartialEq` covers energy bits, periods, class breakdowns and
    /// histograms). Anything `Clone` missed — a meter, a guard
    /// counter, an RNG, the deferred queue — diverges here.
    #[test]
    fn fork_replays_an_identical_suffix_bit_identically(
        seed in 0u32..500,
        vms in 5usize..9,
        cut in 0.0f64..1.0,
        guarded in any::<bool>(),
    ) {
        let traces = fleet(vms, 2.0, u64::from(seed));
        let horizon = traces.vms()[0].fine.len();
        let lifecycle = churn(vms, horizon, u64::from(seed) + 1);
        for policy in five_policies() {
            let scenario = scenario(traces.clone(), policy, guarded, lifecycle.clone());
            let events =
                lifecycle_events(&traces, &lifecycle, scenario.period_samples()).unwrap();
            let k = ((events.len() as f64) * cut) as usize;

            let mut live = scenario.controller().unwrap();
            for event in &events[..k] {
                live.apply(event.clone(), &mut NullSink).unwrap();
            }
            let mut forked = live.fork();
            for event in &events[k..] {
                live.apply(event.clone(), &mut NullSink).unwrap();
                forked.apply(event.clone(), &mut NullSink).unwrap();
            }
            live.finish(&mut NullSink).unwrap();
            forked.finish(&mut NullSink).unwrap();
            prop_assert_eq!(
                live.report(),
                forked.report(),
                "{} (guarded={}) fork diverged at cut {}/{}",
                policy.name(),
                guarded,
                k,
                events.len()
            );
        }
    }
}

proptest! {
    /// The sharded session forks cell-wise: a `ShardedController` fork
    /// replaying the identical suffix stays bit-identical to the
    /// original merged report.
    #[test]
    fn sharded_fork_replays_identically_cell_wise(
        seed in 0u32..200,
        cut in 0.0f64..1.0,
    ) {
        let vms = 8;
        let traces = fleet(vms, 2.0, u64::from(seed));
        let horizon = traces.vms()[0].fine.len();
        let lifecycle = churn(vms, horizon, u64::from(seed) + 1);
        let scenario = scenario(
            traces.clone(),
            Policy::Proposed(Default::default()),
            false,
            lifecycle.clone(),
        );
        let events = lifecycle_events(&traces, &lifecycle, scenario.period_samples()).unwrap();
        let k = ((events.len() as f64) * cut) as usize;

        let mut live = ShardedController::new(scenario.controller_config(), 4).unwrap();
        for event in &events[..k] {
            live.apply(event.clone(), &mut NullSink).unwrap();
        }
        let mut forked = live.fork();
        for event in &events[k..] {
            live.apply(event.clone(), &mut NullSink).unwrap();
            forked.apply(event.clone(), &mut NullSink).unwrap();
        }
        live.finish(&mut NullSink).unwrap();
        forked.finish(&mut NullSink).unwrap();
        prop_assert_eq!(live.report(), forked.report());
    }
}

/// A `WhatIf` re-pack must never mutate the live session: the debug
/// state hash and the live report are unchanged, the delta is
/// internally consistent, and both the live session and the fork can
/// keep running afterwards.
#[test]
fn what_if_repack_never_mutates_the_live_session() {
    let traces = fleet(9, 4.0, 11);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = churn(9, horizon, 12);
    let scenario = scenario(
        traces.clone(),
        Policy::Proposed(Default::default()),
        true,
        lifecycle.clone(),
    );
    let events = lifecycle_events(&traces, &lifecycle, scenario.period_samples()).unwrap();
    // Stop mid-period with churn behind us so there is real state to
    // perturb (live VMs, meters, guard history, adaptive slack).
    let k = events.len() * 3 / 5 + 7;

    let mut live = scenario.controller().unwrap();
    for event in &events[..k] {
        live.apply(event.clone(), &mut NullSink).unwrap();
    }
    let state_before = format!("{live:?}");
    let report_before = live.report();

    let mut what_if = live.what_if();
    let delta = what_if.repack().unwrap();
    assert_eq!(
        format!("{live:?}"),
        state_before,
        "the speculative re-pack leaked into live state"
    );
    assert_eq!(live.report(), report_before);
    assert_eq!(
        delta.servers_freed,
        delta.servers_before.saturating_sub(delta.servers_after)
    );
    if live.live_vms() > 0 && live.mid_period() {
        assert_eq!(
            what_if.controller().offcycle_repacks() - live.offcycle_repacks(),
            1,
            "the fork, not the live session, recorded the re-pack"
        );
    }

    // The fork keeps accepting the event suffix; the live session is
    // still fully operational and finishes clean.
    for event in &events[k..] {
        what_if.apply(event.clone()).unwrap();
        live.apply(event.clone(), &mut NullSink).unwrap();
    }
    live.finish(&mut NullSink).unwrap();
    let mut fork = what_if.into_fork();
    fork.finish(&mut NullSink).unwrap();
    assert!(fork.report().energy.joules() > 0.0);
    assert!(live.report().energy.joules() > 0.0);
}

/// Cell-wise what-if: the sharded delta is the per-cell sum and the
/// live sharded session is untouched.
#[test]
fn sharded_what_if_sums_cells_and_stays_isolated() {
    let traces = fleet(8, 2.0, 21);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = churn(8, horizon, 22);
    let scenario = scenario(traces.clone(), Policy::Bfd, false, lifecycle.clone());
    let events = lifecycle_events(&traces, &lifecycle, scenario.period_samples()).unwrap();
    let mut live = ShardedController::new(scenario.controller_config(), 4).unwrap();
    let k = events.len() / 2 + 3;
    for event in &events[..k] {
        live.apply(event.clone(), &mut NullSink).unwrap();
    }
    let report_before = live.report();
    let delta = live.what_if_repack().unwrap();
    assert_eq!(live.report(), report_before, "what-if leaked into a cell");
    let mut expected = 0usize;
    for cell in 0..4 {
        expected += live
            .cell_controller(cell)
            .unwrap()
            .what_if()
            .repack()
            .unwrap()
            .servers_freed;
    }
    assert_eq!(delta.servers_freed, expected, "delta is the per-cell sum");
}

fn service_schedule(
    sessions: usize,
    vms: usize,
    hours: f64,
    seed: u64,
) -> (Vec<cavm_sim::ControllerConfig>, Vec<cavm_sim::SessionEvent>) {
    let mut configs = Vec::with_capacity(sessions);
    let mut streams = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let traces = fleet(vms, hours, seed + s as u64);
        let horizon = traces.vms()[0].fine.len();
        let lifecycle = churn(vms, horizon, seed + 1000 + s as u64);
        let scenario = scenario(
            traces.clone(),
            five_policies()[s % 5],
            s % 2 == 0,
            lifecycle.clone(),
        );
        streams.push(lifecycle_events(&traces, &lifecycle, scenario.period_samples()).unwrap());
        configs.push(scenario.controller_config());
    }
    (configs, interleave(&streams))
}

proptest! {
    /// The same schedule on 1 worker and on 8 workers produces the
    /// identical `ServiceReport` — per-session reports *and* merge.
    /// Isolation is the mechanism: a session's events only ever meet
    /// its own controller, so the partition cannot matter.
    #[test]
    fn session_host_is_worker_count_independent(
        seed in 0u32..200,
        sessions in 2usize..8,
    ) {
        let (configs, schedule) = service_schedule(sessions, 5, 2.0, u64::from(seed));
        let narrow = SessionHost::new(configs.clone(), 1).unwrap();
        let wide = SessionHost::new(configs, 8).unwrap();
        let a = narrow.run(schedule.clone()).unwrap();
        let b = wide.run(schedule).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// The ISSUE's headline shape: a 64-session schedule, bit-identical on
/// 1 worker and on 8.
#[test]
fn sixty_four_sessions_are_identical_on_one_and_eight_workers() {
    let (configs, schedule) = service_schedule(64, 4, 1.0, 2013);
    let narrow = SessionHost::new(configs.clone(), 1).unwrap();
    let wide = SessionHost::new(configs, 8).unwrap();
    let a = narrow.run(schedule.clone()).unwrap();
    let b = wide.run(schedule).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.merged.sessions, 64);
    assert!(a.merged.energy_joules > 0.0);
}

/// The partition is sized from per-session event counts: a lopsided
/// schedule — one session with no event at all, one owning most of the
/// schedule (a longer day), two ordinary ones — still hands every
/// session exactly its own events in order. Each hosted report equals
/// the session replayed alone on a fresh controller, on 1 worker and
/// on 3.
#[test]
fn lopsided_schedule_equals_the_solo_replays() {
    let policies = five_policies();
    let mut configs = Vec::new();
    let mut streams = Vec::new();
    for (s, hours) in [(0u64, 2.0), (1, 2.0), (2, 8.0), (3, 2.0)] {
        let traces = fleet(5, hours, 40 + s);
        let horizon = traces.vms()[0].fine.len();
        let lifecycle = churn(5, horizon, 1040 + s);
        let scenario = scenario(
            traces.clone(),
            policies[s as usize % 5],
            s % 2 == 0,
            lifecycle.clone(),
        );
        configs.push(scenario.controller_config());
        streams.push(lifecycle_events(&traces, &lifecycle, scenario.period_samples()).unwrap());
    }
    // Session 1 is hosted but never addressed.
    streams[1].clear();
    let total: usize = streams.iter().map(Vec::len).sum();
    assert!(
        2 * streams[2].len() > total,
        "session 2 owns most of the schedule"
    );

    let solo: Vec<_> = configs
        .iter()
        .zip(&streams)
        .map(|(config, events)| {
            let mut controller = cavm_sim::DatacenterController::new(config.clone()).unwrap();
            for event in events {
                controller.apply(event.clone(), &mut NullSink).unwrap();
            }
            controller.finish(&mut NullSink).unwrap();
            controller.report()
        })
        .collect();
    assert!(solo[1].periods.is_empty());

    let schedule = interleave(&streams);
    for workers in [1, 3] {
        let host = SessionHost::new(configs.clone(), workers).unwrap();
        let report = host.run(schedule.clone()).unwrap();
        assert_eq!(report.sessions, solo, "{workers} worker(s)");
        assert_eq!(report.merged.sessions, 4);
    }
}
