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

fn solo_replay(
    config: &cavm_sim::ControllerConfig,
    events: &[cavm_sim::VmEvent],
) -> cavm_sim::SimReport {
    let mut controller = cavm_sim::DatacenterController::new(config.clone()).unwrap();
    for event in events {
        controller.apply(event.clone(), &mut NullSink).unwrap();
    }
    controller.finish(&mut NullSink).unwrap();
    controller.report()
}

/// Puts `event` right behind the `tick`-th `Tick` of `events`.
fn insert_after_tick(events: &mut Vec<cavm_sim::VmEvent>, tick: usize, event: cavm_sim::VmEvent) {
    let at = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, cavm_sim::VmEvent::Tick))
        .nth(tick)
        .expect("the stream has that many ticks")
        .0;
    events.insert(at + 1, event);
}

/// The host stores a run of consecutive ticks as one counter. Every
/// shape that run-length form has to get right — a session with no
/// event, one with nothing but ticks, non-tick events back to back
/// (first thing in the stream, and last, behind the final tick), a
/// fault pair splitting a run, one session owning most of the
/// schedule — replays exactly as `DatacenterController::apply` over
/// the session's own stream does, on 1, 3 and 8 workers.
#[test]
fn tick_runs_equal_the_solo_replays() {
    use cavm_sim::VmEvent;
    let policies = five_policies();
    let mut configs = Vec::new();
    let mut streams = Vec::new();
    for (s, hours) in [(0u64, 2.0), (1, 2.0), (2, 2.0), (3, 2.0), (4, 8.0)] {
        let traces = fleet(5, hours, 70 + s);
        let horizon = traces.vms()[0].fine.len();
        // Session 3 starts full, so server 0 exists when it is failed.
        let lifecycle = if s == 3 {
            Lifecycle::all_at_start(5, horizon).unwrap()
        } else {
            churn(5, horizon, 1070 + s)
        };
        let scenario = scenario(
            traces.clone(),
            policies[s as usize % 5],
            s % 2 == 0,
            lifecycle.clone(),
        );
        configs.push(scenario.controller_config());
        streams.push(lifecycle_events(&traces, &lifecycle, scenario.period_samples()).unwrap());
    }
    // Session 0: hosted, never addressed. Session 1: ticks only.
    streams[0].clear();
    streams[1].retain(|e| matches!(e, VmEvent::Tick));
    // Session 2: its arrivals move to the very front, back to back
    // with no tick between, and a departure trails the last tick.
    let (arrivals, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut streams[2])
        .into_iter()
        .filter(|e| !matches!(e, VmEvent::Depart { .. }))
        .partition(|e| matches!(e, VmEvent::Arrive { .. }));
    assert!(arrivals.len() >= 2 && matches!(rest.last(), Some(VmEvent::Tick)));
    streams[2] = arrivals;
    streams[2].extend(rest);
    streams[2].push(VmEvent::Depart { id: 0 });
    // Session 3: a fault pair inside what would be one tick run.
    insert_after_tick(&mut streams[3], 100, VmEvent::ServerFail { server: 0 });
    insert_after_tick(&mut streams[3], 130, VmEvent::ServerRecover { server: 0 });
    let total: usize = streams.iter().map(Vec::len).sum();
    assert!(
        2 * streams[4].len() > total,
        "session 4 owns most of the schedule"
    );

    let solo: Vec<_> = configs
        .iter()
        .zip(&streams)
        .map(|(config, events)| solo_replay(config, events))
        .collect();
    assert!(solo[0].periods.is_empty());
    assert_eq!(solo[1].periods.len(), 2);
    assert_eq!(solo[3].server_failures, 1);

    let schedule = interleave(&streams);
    for workers in [1, 3, 8] {
        let host = SessionHost::new(configs.clone(), workers).unwrap();
        let report = host.run(schedule.clone()).unwrap();
        assert_eq!(report.sessions, solo, "{workers} worker(s)");
    }
}

/// `run` reads its schedule once, so it takes any iterator: a lazy
/// filter and a generator closure give the report of the same entries
/// collected into a `Vec` first.
#[test]
fn lazy_schedules_give_the_report_of_the_vec() {
    let (configs, schedule) = service_schedule(4, 5, 2.0, 77);
    let host = SessionHost::new(configs, 2).unwrap();
    // Session 1 is filtered out of the stream: it still reports (an
    // empty session), and nobody had to materialise the rest.
    let eager: Vec<_> = schedule
        .iter()
        .filter(|entry| entry.session != 1)
        .cloned()
        .collect();
    let from_vec = host.run(eager).unwrap();
    assert!(from_vec.sessions[1].periods.is_empty());
    assert!(!from_vec.sessions[0].periods.is_empty());

    let filtered = host
        .run(
            schedule
                .clone()
                .into_iter()
                .filter(|entry| entry.session != 1),
        )
        .unwrap();
    assert_eq!(filtered, from_vec);

    let mut source = schedule.into_iter();
    let generated = host
        .run(std::iter::from_fn(move || {
            source.by_ref().find(|entry| entry.session != 1)
        }))
        .unwrap();
    assert_eq!(generated, from_vec);
}

/// One pass, same contract: an unknown session id is reported before
/// any session runs even when it is the *last* entry of a schedule
/// whose earlier entries would have failed a session.
#[test]
fn unknown_session_at_the_end_still_wins_over_a_session_error() {
    use cavm_sim::{SessionEvent, SimError, VmEvent};
    let traces = fleet(3, 2.0, 5);
    let scenario = ScenarioBuilder::new(traces).servers(4).build().unwrap();
    let host = SessionHost::new(vec![scenario.controller_config(); 2], 2).unwrap();
    let mut schedule = vec![SessionEvent {
        session: 0,
        event: VmEvent::Depart { id: 7 },
    }];
    schedule.extend((0..10).map(|k| SessionEvent {
        session: k % 2,
        event: VmEvent::Tick,
    }));
    assert_eq!(
        host.run(schedule.clone()).unwrap_err(),
        SimError::UnknownVm { id: 7 },
        "on its own the schedule fails session 0"
    );
    schedule.push(SessionEvent {
        session: 5,
        event: VmEvent::Tick,
    });
    assert_eq!(
        host.run(schedule).unwrap_err(),
        SimError::UnknownSession {
            session: 5,
            sessions: 2
        }
    );
}
