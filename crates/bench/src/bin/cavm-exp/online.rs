//! Online churn: all five policies as a long-running allocation
//! service under continuous VM arrivals and departures — the
//! open-system setting the paper never measured (its Setup-2 is a
//! closed world where every VM exists for the whole horizon).
//!
//! VMs arrive by a Poisson process over the day and hold bounded
//! (uniform) leases, so placement periods see mid-period arrivals that
//! must be admitted through the **incremental single-VM placement**
//! (`AllocationPolicy::place_one` — no re-pack, lease-aware) and
//! departures that power servers off. Both comparisons are plain loops
//! over [`ScenarioBuilder`]: the five policies under the periodic
//! schedule on the churn workload, then the proposed policy × the five
//! standard re-pack schedules (`periodic`, `fragmentation`,
//! QoS-**guarded** fragmentation, `hybrid`, `hybrid-adaptive`) plus
//! `guarded-overcommit` on a departure-heavy schedule. The run asserts
//! that every policy exercised the incremental admit path, that
//! `hybrid` never burns more energy than the paper's periodic-only
//! clock, that `guarded` recovers the pure fragmentation schedule's
//! violation drift (worst-period ratio ≤ periodic's) while keeping
//! energy ≤ 0.95× periodic, that adaptive slack never out-migrates
//! static slack, and that `guarded-overcommit` keeps ≤ 0.95× guarded
//! energy at ≤ periodic violations. 40 VMs over 24 h, fragmentation
//! slack 1 server, guard ratio 0.08, adaptive-slack bound slack + 3,
//! overcommit margin 0.25 with ceiling 0.35.

use cavm_bench::{
    bar, setup2_fleet, Schedule, PCP_AFFINITY_THRESHOLD, PCP_ENVELOPE_PERCENTILE, SETUP2_SEED,
};
use cavm_sim::{Policy, QosGuard, ScenarioBuilder, SimReport};
use cavm_workload::datacenter::VmFleet;
use cavm_workload::lifecycle::{ArrivalProcess, Lifecycle, LifecycleBuilder, LifetimeModel};
use std::fmt::Write as _;

/// VMs in the churn schedules (the 40 busiest of the Setup-2 fleet).
pub const VMS: usize = 40;
/// Trace horizon, hours.
pub const HOURS: f64 = 24.0;
/// Fragmentation slack (servers) of every non-periodic schedule.
pub const SLACK: u32 = 1;
/// `QosGuard` of the `guarded` schedule: worst-per-server violation
/// ratio threshold.
pub const QOS_GUARD: QosGuard = QosGuard {
    violation_ratio: 0.08,
};
/// `SlackController` upper bound of the `hybrid-adaptive` schedule.
pub const SLACK_MAX: u32 = SLACK + 3;
/// Starting deliberate-overcommit margin of `guarded-overcommit`.
const OVERCOMMIT_MARGIN: f64 = 0.25;
/// `OvercommitController` ceiling of `guarded-overcommit`.
const OVERCOMMIT_MAX_MARGIN: f64 = 0.35;

/// Runs `policy` under `schedule` over the open workload
/// (`fleet`, `lifecycle`) on one 8-core server per VM.
fn run_open(
    fleet: &VmFleet,
    lifecycle: &Lifecycle,
    policy: Policy,
    schedule: &Schedule,
) -> SimReport {
    let builder = ScenarioBuilder::new(fleet.clone())
        .servers(VMS)
        .policy(policy)
        .lifecycle(lifecycle.clone());
    schedule
        .apply(builder)
        .build()
        .expect("static scenario parameters are valid")
        .run()
        .expect("scenario runs to completion")
}

/// The five policies in report order.
pub fn policies() -> [Policy; 5] {
    [
        Policy::Bfd,
        Policy::Ffd,
        Policy::Pcp {
            envelope_percentile: PCP_ENVELOPE_PERCENTILE,
            affinity_threshold: PCP_AFFINITY_THRESHOLD,
        },
        Policy::SuperVm {
            min_pair_cost: 1.25,
        },
        Policy::Proposed(Default::default()),
    ]
}

/// The departure-heavy day: short leases (8–25% of the horizon)
/// arriving over the first ~70% keep servers emptying out mid-period
/// all day long, so the periodic clock spends up to an hour hosting
/// half-empty servers after every departure wave — the consolidation
/// opportunity the off-cycle triggers exist for — while its last-period
/// predictions chronically trail the churn (a sizable violation budget
/// the guarded schedule must stay under).
pub fn departure_heavy(horizon: usize) -> Lifecycle {
    LifecycleBuilder::new(VMS, horizon)
        .seed(7)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap_samples: horizon as f64 * 0.7 / VMS as f64,
        })
        .lifetimes(LifetimeModel::Uniform {
            min_samples: (horizon * 8 / 100).max(1),
            max_samples: (horizon / 4).max(2),
        })
        .build()
        .expect("static lifecycle parameters are valid")
}

pub fn run() -> String {
    let fleet = setup2_fleet(SETUP2_SEED);
    let horizon = fleet.vms()[0].fine.len();

    // Churn: arrivals spread over the first ~60% of the horizon (so
    // late arrivals still run for a while), leases of 30–80% of the
    // horizon. Both are deterministic given the seed.
    let lifecycle: Lifecycle = LifecycleBuilder::new(VMS, horizon)
        .seed(2013)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap_samples: horizon as f64 * 0.6 / VMS as f64,
        })
        .lifetimes(LifetimeModel::Uniform {
            min_samples: (horizon * 3) / 10,
            max_samples: (horizon * 8) / 10,
        })
        .build()
        .expect("static lifecycle parameters are valid");
    assert!(
        lifecycle.entries().iter().any(|e| e.arrival_sample > 0),
        "churn schedule must contain mid-horizon arrivals"
    );

    let schedule = Schedule::periodic();
    let rows: Vec<SimReport> = policies()
        .into_iter()
        .map(|policy| {
            let report = run_open(&fleet, &lifecycle, policy, &schedule);
            assert!(
                report.online_admissions > 0,
                "{}: mid-horizon arrivals must go through the incremental admit path",
                policy.name()
            );
            report
        })
        .collect();
    let baseline = rows[0].energy;

    println!(
        "# Online churn — {} of {} VMs scheduled over {HOURS} h ({} peak concurrent), static DVFS, {} re-packs",
        lifecycle.len(),
        VMS,
        lifecycle.max_concurrent(),
        schedule.name,
    );
    println!();
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12} {:>8}  normalized bar",
        "policy", "energy kWh", "norm. power", "max viol%", "migrations", "admits"
    );
    for r in &rows {
        let norm = r.energy.normalized_to(&baseline).expect("baseline > 0");
        println!(
            "{:<10} {:>12.2} {:>12.3} {:>10.2} {:>12} {:>8}  {}",
            r.policy,
            r.energy.kilowatt_hours(),
            norm,
            r.max_violation_percent,
            r.total_migrations(),
            r.online_admissions,
            bar(norm, 30),
        );
    }

    let proposed = &rows[4];
    let bfd = &rows[0];
    println!();
    println!(
        "proposed vs BFD under churn: {:.1}% energy, {} vs {} violation instances",
        100.0 * proposed.energy.normalized_to(&bfd.energy).expect("nonzero"),
        proposed.violation_instances,
        bfd.violation_instances,
    );

    // ---- Adaptive consolidation under the departure-heavy schedule.
    let departure_heavy = departure_heavy(horizon);
    let departed_in_run = departure_heavy
        .entries()
        .iter()
        .filter(|e| e.departure_sample.is_some())
        .count();
    assert!(
        departed_in_run * 2 >= departure_heavy.len(),
        "departure-heavy schedule must retire most leases mid-run"
    );

    let mut adaptive_schedules = Schedule::standard(SLACK, QOS_GUARD, SLACK_MAX).to_vec();
    adaptive_schedules.push(Schedule::guarded_overcommit(
        SLACK,
        QOS_GUARD,
        OVERCOMMIT_MARGIN,
        OVERCOMMIT_MAX_MARGIN,
    ));
    let adaptive: Vec<(&str, SimReport)> = adaptive_schedules
        .iter()
        .map(|schedule| {
            let policy = Policy::Proposed(Default::default());
            let report = run_open(&fleet, &departure_heavy, policy, schedule);
            (schedule.name, report)
        })
        .collect();
    let periodic_energy = adaptive[0].1.energy;

    println!();
    println!(
        "# Adaptive consolidation — proposed policy, departure-heavy day ({} of {} leases end mid-run, slack {SLACK}, guard {:.0}%, adaptive slack ≤ {SLACK_MAX})",
        departed_in_run,
        departure_heavy.len(),
        100.0 * QOS_GUARD.violation_ratio,
    );
    println!();
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>12} {:>9}  vs periodic",
        "schedule", "energy kWh", "norm. power", "max viol%", "migrations", "re-packs"
    );
    for (schedule, r) in &adaptive {
        let norm = r.energy.normalized_to(&periodic_energy).expect("nonzero");
        println!(
            "{:<14} {:>12.2} {:>12.3} {:>10.2} {:>12} {:>9}  {}",
            schedule,
            r.energy.kilowatt_hours(),
            norm,
            r.max_violation_percent,
            r.total_migrations(),
            r.offcycle_repacks,
            bar(norm, 30),
        );
    }
    let periodic = &adaptive[0].1;
    let guarded = &adaptive[2].1;
    let hybrid = &adaptive[3].1;
    let hybrid_adaptive = &adaptive[4].1;
    let overcommit = &adaptive[5].1;
    assert!(
        hybrid.offcycle_repacks > 0,
        "the departure-heavy schedule must fire off-cycle re-packs"
    );
    assert!(
        hybrid.energy.joules() <= periodic_energy.joules(),
        "hybrid re-packs must not burn more energy than the periodic-only clock \
         ({} J vs {} J)",
        hybrid.energy.joules(),
        periodic_energy.joules(),
    );
    // The headline of the guarded schedule: the QoS guard recovers the
    // pure fragmentation schedule's violation drift to (at worst) the
    // periodic clock's level, with at least a 5% energy win over it
    // (measured 0.933).
    assert!(
        guarded.max_violation_percent <= periodic.max_violation_percent + 1e-9,
        "the QoS guard must recover violations to periodic level \
         ({}% vs {}%)",
        guarded.max_violation_percent,
        periodic.max_violation_percent,
    );
    assert!(
        guarded.energy.joules() <= 0.95 * periodic_energy.joules(),
        "guarded fragmentation must keep at least a 5% energy win over periodic \
         ({} J vs {} J)",
        guarded.energy.joules(),
        periodic_energy.joules(),
    );
    // The adaptive slack exists to cut the hybrid clock's migration
    // bill; it must never spend *more* migrations than static slack.
    assert!(
        hybrid_adaptive.total_migrations() <= hybrid.total_migrations(),
        "adaptive slack must not out-migrate the static hybrid schedule \
         ({} vs {})",
        hybrid_adaptive.total_migrations(),
        hybrid.total_migrations(),
    );
    // The deliberate-overcommit headline: packing into the correlation
    // gap (betting only on anti-aligned peaks) beats even the guarded
    // schedule by ≥5% energy at no worse QoS than periodic.
    assert!(
        overcommit.max_violation_percent <= periodic.max_violation_percent + 1e-9,
        "guarded-overcommit must stay within the periodic clock's worst-period violations \
         ({}% vs {}%)",
        overcommit.max_violation_percent,
        periodic.max_violation_percent,
    );
    assert!(
        overcommit.energy.joules() <= 0.95 * guarded.energy.joules(),
        "guarded-overcommit must keep at least a 5% energy win over guarded \
         ({} J vs {} J)",
        overcommit.energy.joules(),
        guarded.energy.joules(),
    );
    println!();
    println!(
        "(guarded ≤ 0.95× periodic energy at ≤ periodic QoS, adaptive ≤ hybrid migrations, \
         guarded-overcommit ≤ 0.95× guarded energy — asserted)"
    );

    let mut section = String::new();
    section.push_str("{\n");
    let _ = writeln!(section, "    \"vms\": {VMS},");
    let _ = writeln!(section, "    \"hours\": {HOURS},");
    let _ = writeln!(section, "    \"scheduled\": {},", lifecycle.len());
    let _ = writeln!(
        section,
        "    \"peak_concurrent\": {},",
        lifecycle.max_concurrent()
    );
    let _ = writeln!(section, "    \"trigger\": \"{}\",", schedule.name);
    section.push_str("    \"policies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            section,
            "      {{\"policy\": \"{}\", \"energy_kwh\": {:.3}, \"normalized_power\": {:.4}, \"max_violation_percent\": {:.3}, \"migrations\": {}, \"online_admissions\": {}",
            r.policy,
            r.energy.kilowatt_hours(),
            r.energy.normalized_to(&baseline).expect("baseline > 0"),
            r.max_violation_percent,
            r.total_migrations(),
            r.online_admissions,
        );
        if let Some(single) = r.pcp_single_cluster_periods() {
            let _ = write!(section, ", \"single_cluster_periods\": {single}");
        }
        section.push('}');
        section.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    section.push_str("    ],\n");
    let _ = writeln!(section, "    \"adaptive\": {{");
    let _ = writeln!(section, "      \"policy\": \"Proposed\",");
    let _ = writeln!(section, "      \"slack\": {SLACK},");
    let _ = writeln!(
        section,
        "      \"qos_guard_ratio\": {},",
        QOS_GUARD.violation_ratio
    );
    let _ = writeln!(section, "      \"adaptive_slack_max\": {SLACK_MAX},");
    let _ = writeln!(section, "      \"overcommit_margin\": {OVERCOMMIT_MARGIN},");
    let _ = writeln!(
        section,
        "      \"overcommit_max_margin\": {OVERCOMMIT_MAX_MARGIN},"
    );
    let _ = writeln!(section, "      \"departed_leases\": {departed_in_run},");
    section.push_str("      \"triggers\": [\n");
    for (i, (schedule, r)) in adaptive.iter().enumerate() {
        let _ = write!(
            section,
            "        {{\"trigger\": \"{}\", \"energy_kwh\": {:.3}, \"normalized_power\": {:.4}, \"max_violation_percent\": {:.3}, \"migrations\": {}, \"offcycle_repacks\": {}}}",
            schedule,
            r.energy.kilowatt_hours(),
            r.energy.normalized_to(&periodic_energy).expect("nonzero"),
            r.max_violation_percent,
            r.total_migrations(),
            r.offcycle_repacks,
        );
        section.push_str(if i + 1 < adaptive.len() { ",\n" } else { "\n" });
    }
    section.push_str("      ]\n    }\n  }");
    section
}
