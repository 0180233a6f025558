//! Fault tolerance: the guarded consolidation schedule of the online
//! section re-run with servers actually dying under it.
//!
//! An MTBF sweep injects per-server Poisson failures (plus a
//! correlated whole-fleet outage process) into the departure-heavy
//! day the adaptive-consolidation rows measure: every failure
//! triggers an **emergency evacuation** through the live policy's
//! incremental placement, capacity loss beyond what the shrunken
//! fleet can host flows into the bounded **deferred-admission queue**
//! (graceful degradation), and recoveries drain it back. The sweep is
//! declared as a [`SweepGrid`] over the fault axis: one fault-free
//! cell (plus an empty-plan cell asserted bit-identical to it), then
//! one cell per MTBF. The run prints one row per MTBF against the
//! fault-free baseline and asserts the robustness headline: even at
//! the harshest point of the sweep the QoS-guarded schedule keeps the
//! worst-period violation ratio bounded, and the fault-free row
//! reproduces the no-fault run bit-for-bit. 40 VMs over 24 h on 40
//! servers; per-server MTBFs of 12, 6 and 3 h, 20-minute mean repairs,
//! the guarded hybrid schedule at slack 1 and guard ratio 0.08, and a
//! 25% ceiling on the worst-period violation.

use crate::online::{departure_heavy, HOURS, QOS_GUARD, SLACK, SLACK_MAX, VMS};
use cavm_bench::sweep::{FaultCase, Schedule, SweepGrid, WorkloadCase};
use cavm_bench::{bar, setup2_fleet, SETUP2_SEED};
use cavm_sim::{Policy, SimReport};
use cavm_workload::faults::{FaultModel, FaultPlan, FaultPlanBuilder};
use std::fmt::Write as _;

/// Fine samples per hour (5 s sampling).
const SAMPLES_PER_HOUR: f64 = 720.0;
/// Per-server MTBFs swept, hours, harshest last.
const MTBFS_HOURS: [f64; 3] = [12.0, 6.0, 3.0];
/// Mean time to repair, minutes.
const MTTR_MIN: f64 = 20.0;
/// Max tolerated worst-period violation, percent, at every fault rate.
const VIOLATION_BOUND: f64 = 25.0;

/// One row of the sweep: the plan's MTBF (`None` = fault-free
/// baseline) and the resulting report.
struct Row {
    mtbf_hours: Option<f64>,
    scheduled_failures: usize,
    report: SimReport,
}

pub fn run() -> String {
    // One 8-core slot per VM, as in the online section.
    let servers = VMS;
    let fleet = setup2_fleet(SETUP2_SEED);
    let horizon = fleet.vms()[0].fine.len();
    // Short leases keep servers emptying out all day, so failures land
    // on a fleet that is constantly consolidating.
    let lifecycle = departure_heavy(horizon);

    let schedule = Schedule::guarded_hybrid(SLACK, QOS_GUARD, SLACK_MAX);
    let grid = |faults: Vec<FaultCase>| {
        SweepGrid::over(vec![WorkloadCase::open(
            "departure-heavy",
            fleet.clone(),
            lifecycle.clone(),
        )])
        .servers(vec![servers])
        .policies(vec![Policy::Proposed(Default::default())])
        .schedules(vec![schedule])
        .faults(faults)
        .run()
        .expect("fault grid runs to completion")
    };

    let plan_for = |mtbf_hours: f64, band: usize| -> FaultPlan {
        FaultPlanBuilder::new(horizon)
            .seed(2013)
            .block(
                0,
                band,
                FaultModel {
                    mtbf_samples: mtbf_hours * SAMPLES_PER_HOUR,
                    mttr_samples: MTTR_MIN * SAMPLES_PER_HOUR / 60.0,
                    // A correlated whole-fleet outage about once per
                    // five mean server lifetimes, repaired in half the
                    // per-server time.
                    outage_mtbf_samples: Some(5.0 * mtbf_hours * SAMPLES_PER_HOUR),
                    outage_mttr_samples: MTTR_MIN * SAMPLES_PER_HOUR / 120.0,
                },
            )
            .build()
            .expect("static fault parameters are valid")
    };

    // Fault-free baseline — and the no-fault path is bit-identical to
    // a scenario that never heard of fault plans.
    let mut baseline_rows = grid(vec![
        FaultCase::none(),
        FaultCase::plan("empty-plan", FaultPlan::empty()),
    ]);
    let empty_plan = baseline_rows.pop().expect("grid ran two cells").report;
    let baseline = baseline_rows.pop().expect("grid ran two cells").report;
    assert_eq!(
        baseline, empty_plan,
        "an empty fault plan must be bit-identical to no plan at all"
    );
    assert_eq!(baseline.server_failures, 0);
    assert_eq!(baseline.deferred_peak, 0);
    let baseline_energy = baseline.energy;
    // Consolidation keeps the fleet packed into its first few
    // fill-order slots; faults aimed past them would hit servers the
    // run never provisions (the replay skips those). Target the band
    // the baseline actually lives in.
    let fault_band = baseline.peak_servers_used().clamp(2, servers);

    let plans: Vec<(f64, FaultPlan)> = MTBFS_HOURS
        .iter()
        .map(|&mtbf| (mtbf, plan_for(mtbf, fault_band)))
        .collect();
    let mut rows = vec![Row {
        mtbf_hours: None,
        scheduled_failures: 0,
        report: baseline,
    }];
    let swept = grid(
        plans
            .iter()
            .map(|(mtbf, plan)| FaultCase::plan(format!("mtbf {mtbf} h"), plan.clone()))
            .collect(),
    );
    for ((mtbf, plan), row) in plans.iter().zip(swept) {
        rows.push(Row {
            mtbf_hours: Some(*mtbf),
            scheduled_failures: plan.failures(),
            report: row.report,
        });
    }

    println!(
        "# Fault tolerance — proposed policy, guarded hybrid (slack {SLACK}, guard {:.0}%, adaptive ≤ {SLACK_MAX}), {VMS} VMs over {HOURS} h on {servers} servers, faults on the {fault_band} hot slots, MTTR {MTTR_MIN} min",
        100.0 * QOS_GUARD.violation_ratio,
    );
    println!();
    println!(
        "{:<12} {:>12} {:>10} {:>9} {:>12} {:>9} {:>10} {:>12}  energy vs fault-free",
        "mtbf",
        "energy kWh",
        "max viol%",
        "failures",
        "evacuations",
        "deferred",
        "re-packs",
        "migrations"
    );
    for row in &rows {
        let r = &row.report;
        let label = row
            .mtbf_hours
            .map_or_else(|| "fault-free".to_string(), |m| format!("{m} h"));
        let norm = r.energy.normalized_to(&baseline_energy).expect("nonzero");
        println!(
            "{:<12} {:>12.2} {:>10.2} {:>9} {:>12} {:>9} {:>10} {:>12}  {}",
            label,
            r.energy.kilowatt_hours(),
            r.max_violation_percent,
            r.server_failures,
            r.evacuations,
            r.deferred_peak,
            r.offcycle_repacks,
            r.total_migrations(),
            bar(norm, 30),
        );
    }

    // The robustness headline: even at the harshest MTBF the guarded
    // schedule keeps the worst-period violation ratio bounded, and the
    // faults really happened (otherwise the sweep proves nothing).
    for row in rows.iter().skip(1) {
        let r = &row.report;
        assert!(
            r.max_violation_percent <= VIOLATION_BOUND,
            "mtbf {:?}: worst-period violations {}% exceed the {}% bound",
            row.mtbf_hours,
            r.max_violation_percent,
            VIOLATION_BOUND,
        );
    }
    // Scheduled transitions can miss momentarily-unprovisioned slots,
    // but the harshest point of the sweep must actually exercise the
    // fault path — otherwise the bound above proves nothing.
    let harshest = rows.last().expect("sweep has rows");
    assert!(
        harshest.report.server_failures > 0,
        "mtbf {:?}: no scheduled fault ever reached a provisioned server",
        harshest.mtbf_hours
    );
    println!();
    println!(
        "(worst-period violations ≤ {VIOLATION_BOUND}% across the sweep; {} failures absorbed at the harshest point — asserted)",
        harshest.report.server_failures
    );

    let mut section = String::new();
    section.push_str("{\n");
    let _ = writeln!(section, "    \"vms\": {VMS},");
    let _ = writeln!(section, "    \"hours\": {HOURS},");
    let _ = writeln!(section, "    \"servers\": {servers},");
    let _ = writeln!(section, "    \"fault_band\": {fault_band},");
    let _ = writeln!(section, "    \"mttr_minutes\": {MTTR_MIN},");
    let _ = writeln!(section, "    \"slack\": {SLACK},");
    let _ = writeln!(
        section,
        "    \"qos_guard_ratio\": {},",
        QOS_GUARD.violation_ratio
    );
    let _ = writeln!(
        section,
        "    \"violation_bound_percent\": {VIOLATION_BOUND},"
    );
    section.push_str("    \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        let mtbf = row
            .mtbf_hours
            .map_or_else(|| "null".to_string(), |m| format!("{m}"));
        let _ = write!(
            section,
            "      {{\"mtbf_hours\": {mtbf}, \"scheduled_failures\": {}, \"energy_kwh\": {:.3}, \"normalized_power\": {:.4}, \"max_violation_percent\": {:.3}, \"server_failures\": {}, \"evacuations\": {}, \"deferred_peak\": {}, \"offcycle_repacks\": {}, \"migrations\": {}}}",
            row.scheduled_failures,
            r.energy.kilowatt_hours(),
            r.energy.normalized_to(&baseline_energy).expect("nonzero"),
            r.max_violation_percent,
            r.server_failures,
            r.evacuations,
            r.deferred_peak,
            r.offcycle_repacks,
            r.total_migrations(),
        );
        section.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    section.push_str("    ]\n  }");
    section
}
