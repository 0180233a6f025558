//! Service: many concurrent controller sessions behind a
//! [`SessionHost`].
//!
//! Two checks:
//!
//! 1. **A churn day across 64 sessions** (12 VMs each over 24h, cycling
//!    all five policies, guarded schedule on even sessions): the
//!    interleaved schedule is replayed once on 1 worker and once on 8,
//!    and the run *asserts* the two `ServiceReport`s are identical —
//!    the determinism contract, kept honest on every regeneration. The
//!    merged report is recorded; the replay's speed is `benchmark/`'s
//!    `service-day`.
//! 2. **A what-if probe** — session 0 is replayed to mid-day, forked,
//!    and asked "what would an off-cycle re-pack free right now?";
//!    the delta (servers freed, migrations, energy estimate) is
//!    recorded without the live session noticing.
//!
//! [`SessionHost`]: cavm_sim::SessionHost

use cavm_bench::mini_fleet;
use cavm_sim::service::{interleave, lifecycle_events, SessionHost};
use cavm_sim::{
    ControllerConfig, NullSink, Policy, QosGuard, RepackTrigger, Scenario, ScenarioBuilder,
    SessionEvent, WhatIfDelta,
};
use cavm_workload::lifecycle::{ArrivalProcess, Lifecycle, LifecycleBuilder, LifetimeModel};
use std::fmt::Write as _;

/// Concurrent controller sessions behind the host.
const SESSIONS: usize = 64;
/// Worker threads of the wide run (the narrow run uses 1).
const WORKERS: usize = 8;
/// VMs per session.
const VMS: usize = 12;
/// Per-session churn horizon, hours.
const HOURS: usize = 24;
/// RNG seed for every session's traces and churn schedule.
const SEED: u64 = 2013;

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

/// One tenant session: its own trace fleet, churn schedule and policy.
fn session_scenario(s: usize) -> (Scenario, Lifecycle) {
    let traces = mini_fleet(SEED + s as u64, VMS, HOURS as f64);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = LifecycleBuilder::new(VMS, horizon)
        .seed(SEED + 1000 + s as u64)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap_samples: horizon as f64 / (2.0 * VMS as f64),
        })
        .lifetimes(LifetimeModel::Exponential {
            mean_samples: horizon as f64 / 3.0,
        })
        .build()
        .expect("valid lifecycle");
    let mut builder = ScenarioBuilder::new(traces)
        .servers(2 * VMS)
        .policy(five_policies()[s % 5])
        .repack_trigger(RepackTrigger::Hybrid { slack: 1 })
        .lifecycle(lifecycle.clone());
    if s.is_multiple_of(2) {
        builder = builder
            .qos_guard(QosGuard {
                violation_ratio: 0.05,
            })
            .adaptive_slack_max(4);
    }
    (builder.build().expect("valid scenario"), lifecycle)
}

struct Day {
    configs: Vec<ControllerConfig>,
    schedule: Vec<SessionEvent>,
    /// Session 0's raw event stream, kept for the what-if probe.
    probe_events: Vec<cavm_sim::VmEvent>,
}

fn build_day() -> Day {
    let mut configs = Vec::with_capacity(SESSIONS);
    let mut streams = Vec::with_capacity(SESSIONS);
    for s in 0..SESSIONS {
        let (scenario, lifecycle) = session_scenario(s);
        let traces = mini_fleet(SEED + s as u64, VMS, HOURS as f64);
        let events = lifecycle_events(&traces, &lifecycle, scenario.period_samples())
            .expect("valid schedule");
        streams.push(events);
        configs.push(scenario.controller_config());
    }
    Day {
        configs,
        schedule: interleave(&streams),
        probe_events: streams[0].clone(),
    }
}

/// Replays session 0 to mid-day and runs the speculative re-pack on a
/// fork, leaving the live session untouched.
fn what_if_probe(config: ControllerConfig, events: &[cavm_sim::VmEvent]) -> WhatIfDelta {
    let mut live = cavm_sim::DatacenterController::new(config).expect("valid session config");
    let k = events.len() / 2 + 1;
    for event in &events[..k] {
        live.apply(event.clone(), &mut NullSink).expect("replay");
    }
    let live_state = format!("{live:?}");
    let delta = live.what_if().repack().expect("speculative re-pack");
    assert_eq!(
        format!("{live:?}"),
        live_state,
        "what-if must never touch the live session"
    );
    delta
}

pub fn run() -> String {
    eprintln!("building {SESSIONS} sessions x {VMS} VMs over {HOURS}h (seed {SEED}) ...");
    let day = build_day();
    eprintln!("  schedule: {} events", day.schedule.len());

    // The determinism contract, enforced on every regeneration: the
    // worker pool must never change a single bit of any report.
    eprintln!("replaying on 1 and on {WORKERS} workers ...");
    let replay = |workers: usize| {
        SessionHost::new(day.configs.clone(), workers)
            .expect("valid host")
            .run(day.schedule.clone())
            .expect("hosted run")
    };
    let multi = replay(WORKERS);
    assert_eq!(
        replay(1),
        multi,
        "1-worker and {WORKERS}-worker runs diverged"
    );
    let merged = &multi.merged;
    eprintln!(
        "  merged: {:.3e} J, worst violation {:.2}%, {} admissions, {} off-cycle re-packs",
        merged.energy_joules,
        merged.max_violation_percent,
        merged.online_admissions,
        merged.offcycle_repacks,
    );

    eprintln!("what-if probe on session 0 ...");
    let delta = what_if_probe(day.configs[0].clone(), &day.probe_events);
    eprintln!(
        "  re-pack now would free {} of {} servers with {} migrations ({:.1} J est.)",
        delta.servers_freed, delta.servers_before, delta.migrations, delta.energy_estimate,
    );

    let mut section = String::new();
    section.push_str("{\n");
    let _ = writeln!(
        section,
        "    \"sessions\": {SESSIONS}, \"workers\": {WORKERS}, \"vms_per_session\": {VMS}, \"hours\": {HOURS}, \"seed\": {SEED},"
    );
    let _ = writeln!(
        section,
        "    \"schedule_events\": {}, \"deterministic\": true,",
        day.schedule.len(),
    );
    let _ = writeln!(
        section,
        "    \"merged\": {{\"energy_joules\": {:.1}, \"max_violation_percent\": {:.3}, \"violation_instances\": {}, \"online_admissions\": {}, \"offcycle_repacks\": {}, \"migrations\": {}, \"sink_dropped_events\": {}}},",
        merged.energy_joules,
        merged.max_violation_percent,
        merged.violation_instances,
        merged.online_admissions,
        merged.offcycle_repacks,
        merged.migrations,
        merged.sink_dropped_events,
    );
    let _ = writeln!(
        section,
        "    \"what_if\": {{\"servers_before\": {}, \"servers_after\": {}, \"servers_freed\": {}, \"migrations\": {}, \"energy_estimate_joules\": {:.1}}}",
        delta.servers_before,
        delta.servers_after,
        delta.servers_freed,
        delta.migrations,
        delta.energy_estimate,
    );
    section.push_str("  }");
    section
}
