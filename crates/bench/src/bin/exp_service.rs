//! Service experiment: many concurrent controller sessions behind a
//! [`SessionHost`], spliced into `BENCH_corr.json` as the `"service"`
//! section.
//!
//! Three measurements:
//!
//! 1. **A churn day across N sessions** (default 64 sessions of 12 VMs
//!    over 24h, cycling all five policies, guarded schedule on even
//!    sessions): the interleaved schedule is replayed on 1 worker and
//!    on the configured pool, alternating, three times each; the
//!    median wall time of either is recorded (a single replay apiece
//!    measured which one ran first), and the run *asserts* the two
//!    `ServiceReport`s are identical — the determinism contract, kept
//!    honest on every regeneration.
//! 2. **A what-if probe** — session 0 is replayed to mid-day, forked,
//!    and asked "what would an off-cycle re-pack free right now?";
//!    the delta (servers freed, migrations, energy estimate) lands in
//!    the artifact without the live session noticing.
//! 3. **`par_push_sample`** — the parallel monitoring tick at
//!    n ∈ {1024, 4096}, with `cores` recorded per row; on a 1-core
//!    host the parallel row is `null` (a "parallel" number from a
//!    serial machine is noise, not data). This finally gives the PR 1
//!    follow-up a standing artifact slot that fills in on a multi-core
//!    host.
//!
//! Knobs (all env, for CI-sized smokes): `CAVM_SERVICE_SESSIONS`,
//! `CAVM_SERVICE_WORKERS`, `CAVM_SERVICE_VMS`, `CAVM_SERVICE_HOURS`,
//! `CAVM_SERVICE_SEED`.
//!
//! ```text
//! cargo run --release -p cavm-bench --bin exp_service
//! ```
//!
//! [`SessionHost`]: cavm_sim::SessionHost

use cavm_bench::{env, mini_fleet};
use cavm_core::corr::CostMatrix;
use cavm_sim::service::{interleave, lifecycle_events, SessionHost};
use cavm_sim::{
    ControllerConfig, NullSink, Policy, QosGuard, RepackTrigger, Scenario, ScenarioBuilder,
    SessionEvent, WhatIfDelta,
};
use cavm_trace::Reference;
use cavm_workload::lifecycle::{ArrivalProcess, Lifecycle, LifecycleBuilder, LifetimeModel};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const PAR_SIZES: [usize; 2] = [1024, 4096];

/// Timed replays of the day per worker count.
const REPLAYS: usize = 3;

/// Median ns of `reps` timed invocations of `f` (after one warm-up).
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
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

/// One tenant session: its own trace fleet, churn schedule and policy.
fn session_scenario(s: usize, vms: usize, hours: usize, seed: u64) -> (Scenario, Lifecycle) {
    let traces = mini_fleet(seed + s as u64, vms, hours as f64);
    let horizon = traces.vms()[0].fine.len();
    let lifecycle = LifecycleBuilder::new(vms, horizon)
        .seed(seed + 1000 + s as u64)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap_samples: horizon as f64 / (2.0 * vms as f64),
        })
        .lifetimes(LifetimeModel::Exponential {
            mean_samples: horizon as f64 / 3.0,
        })
        .build()
        .expect("valid lifecycle");
    let mut builder = ScenarioBuilder::new(traces)
        .servers(2 * vms)
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

fn build_day(sessions: usize, vms: usize, hours: usize, seed: u64) -> Day {
    let mut configs = Vec::with_capacity(sessions);
    let mut streams = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let (scenario, lifecycle) = session_scenario(s, vms, hours, seed);
        let traces = mini_fleet(seed + s as u64, vms, hours as f64);
        let events = lifecycle_events(&traces, &lifecycle, scenario.period_samples())
            .expect("valid schedule");
        streams.push(events);
        configs.push(scenario.controller_config());
    }
    let probe_events = streams[0].clone();
    Day {
        configs,
        schedule: interleave(&streams),
        probe_events,
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

struct ParRow {
    n: usize,
    serial_ns: f64,
    par_ns: Option<f64>,
}

fn par_row(n: usize, cores: usize) -> ParRow {
    let utils: Vec<f64> = {
        let mut rng = cavm_trace::SimRng::new(n as u64);
        (0..n).map(|_| rng.f64() * 4.0).collect()
    };
    let reps = (2_000_000 / (n * n / 2)).clamp(5, 200);
    let mut serial = CostMatrix::new(n, Reference::Peak).expect("valid size");
    let serial_ns = median_ns(reps, || {
        serial.push_sample(black_box(&utils)).expect("width")
    });
    let par_ns = (cores > 1).then(|| {
        let mut par = CostMatrix::new(n, Reference::Peak).expect("valid size");
        median_ns(reps, || {
            par.par_push_sample(black_box(&utils)).expect("width")
        })
    });
    ParRow {
        n,
        serial_ns,
        par_ns,
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:.0}"))
}

fn main() {
    let sessions = env::parse_or("CAVM_SERVICE_SESSIONS", 64);
    let workers = env::parse_or("CAVM_SERVICE_WORKERS", 8);
    let vms = env::parse_or("CAVM_SERVICE_VMS", 12);
    let hours = env::parse_or("CAVM_SERVICE_HOURS", 24);
    let seed = env::parse_or("CAVM_SERVICE_SEED", 2013);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    eprintln!("building {sessions} sessions x {vms} VMs over {hours}h (seed {seed}) ...");
    let day = build_day(sessions, vms, hours, seed);
    eprintln!("  schedule: {} events", day.schedule.len());

    let narrow = SessionHost::new(day.configs.clone(), 1).expect("valid host");
    let wide = SessionHost::new(day.configs.clone(), workers).expect("valid host");

    // Whichever replay goes first pays for the cold caches and the
    // first page faults, so the two alternate and each reports the
    // median of its three walls.
    eprintln!(
        "replaying on 1 and on {workers} workers (cores: {cores}), {REPLAYS}x alternating ..."
    );
    let timed = |host: &SessionHost| {
        let schedule = day.schedule.clone();
        let started = Instant::now();
        let report = host.run(schedule).expect("hosted run");
        (started.elapsed().as_secs_f64(), report)
    };
    let replays: Vec<_> = (0..REPLAYS)
        .map(|_| (timed(&narrow), timed(&wide)))
        .collect();
    let single_wall_s = median(replays.iter().map(|(single, _)| single.0).collect());
    let multi_wall_s = median(replays.iter().map(|(_, multi)| multi.0).collect());
    eprintln!("  1 worker {single_wall_s:.3}s, {workers} workers {multi_wall_s:.3}s (medians)");

    // The determinism contract, enforced on every regeneration: the
    // worker pool must change wall time only, never a single bit of
    // any report.
    for ((_, single), (_, multi)) in &replays {
        assert_eq!(single, multi, "1-worker and {workers}-worker runs diverged");
    }
    let (_, (_, multi)) = &replays[0];
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

    eprintln!("par_push_sample (cores: {cores}) ...");
    let par_rows: Vec<ParRow> = PAR_SIZES.iter().map(|&n| par_row(n, cores)).collect();
    for row in &par_rows {
        eprintln!(
            "  n={:4}: serial {:>12.0} ns/tick  par {}",
            row.n,
            row.serial_ns,
            row.par_ns
                .map_or("skipped (1 core)".into(), |v| format!("{v:.0} ns/tick")),
        );
    }

    let mut section = String::new();
    section.push_str("{\n");
    let _ = writeln!(
        section,
        "    \"sessions\": {sessions}, \"workers\": {workers}, \"vms_per_session\": {vms}, \"hours\": {hours}, \"seed\": {seed}, \"cores\": {cores},"
    );
    let _ = writeln!(
        section,
        "    \"schedule_events\": {}, \"single_worker_wall_s\": {:.2}, \"multi_worker_wall_s\": {:.2}, \"deterministic\": true,",
        day.schedule.len(),
        single_wall_s,
        multi_wall_s,
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
        "    \"what_if\": {{\"servers_before\": {}, \"servers_after\": {}, \"servers_freed\": {}, \"migrations\": {}, \"energy_estimate_joules\": {:.1}}},",
        delta.servers_before,
        delta.servers_after,
        delta.servers_freed,
        delta.migrations,
        delta.energy_estimate,
    );
    section.push_str("    \"par_push_sample\": [\n");
    for (i, row) in par_rows.iter().enumerate() {
        let speedup = row
            .par_ns
            .map(|par| format!("{:.2}", row.serial_ns / par))
            .unwrap_or_else(|| "null".to_string());
        let _ = write!(
            section,
            "      {{\"n\": {}, \"cores\": {}, \"serial_ns_per_tick\": {:.0}, \"par_ns_per_tick\": {}, \"par_speedup_vs_serial\": {}}}",
            row.n,
            cores,
            row.serial_ns,
            json_opt(row.par_ns),
            speedup,
        );
        section.push_str(if i + 1 < par_rows.len() { ",\n" } else { "\n" });
    }
    section.push_str("    ]\n  }");
    cavm_bench::artifact::splice_section("service", &section);
}
