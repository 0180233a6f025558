//! Trace replay: the checked-in sample traces — one file per supported
//! CSV dialect — driven end-to-end through both controller shapes.
//!
//! For each fixture (`crates/workload/testdata/azure_sample.csv`,
//! Azure-VM style readings; `crates/workload/testdata/huawei_sample.csv`,
//! Huawei-style create/delete events) the run:
//!
//! 1. ingests the file through its [`TraceDataset`] reader into a
//!    `(VmFleet, Lifecycle)` pair,
//! 2. replays it through the **flat guarded controller** as a
//!    [`SweepGrid`] of BFD vs the proposed policy — on the Azure trace
//!    (which carries real per-sample correlation structure) the run
//!    *asserts* proposed never burns more energy than BFD,
//! 3. replays the same workload through a cell-sharded
//!    [`ShardedController`] (16 cells by default), admitting every VM
//!    through sketch-routed admission.
//!
//! Environment knobs (for bring-your-own-trace replays):
//! `CAVM_TRACE_AZURE` / `CAVM_TRACE_HUAWEI` (fixture paths; unset, the
//! checked-in fixtures under the workspace root), `CAVM_TRACE_DT_S`
//! (sample period, default 300), `CAVM_TRACE_HORIZON` (samples, default
//! 48), `CAVM_TRACE_PERIOD_SAMPLES` (placement period, default 12),
//! `CAVM_TRACE_SERVERS` (default 24), `CAVM_TRACE_CELLS` (default 16),
//! `CAVM_TRACE_SLACK` (default 1), `CAVM_TRACE_QOS` (default 0.08).
//!
//! [`TraceDataset`]: cavm_workload::dataset::TraceDataset
//! [`ShardedController`]: cavm_sim::ShardedController

use cavm_bench::sweep::{Schedule, SweepGrid, SweepRow, WorkloadCase};
use cavm_bench::{bar, env};
use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_sim::service::lifecycle_events;
use cavm_sim::{
    ControllerConfig, NullSink, Policy, QosGuard, RepackTrigger, ShardedController, SimReport,
};
use cavm_trace::Reference;
use cavm_workload::datacenter::VmFleet;
use cavm_workload::dataset::{assemble, AzureTraceReader, HuaweiTraceReader};
use cavm_workload::lifecycle::Lifecycle;
use std::fmt::Write as _;
use std::path::PathBuf;

struct Knobs {
    dt_s: f64,
    horizon: usize,
    period_samples: usize,
    servers: usize,
    cells: usize,
    slack: u32,
    qos: QosGuard,
}

/// The fixture path `key` names, as shown in the tables and the
/// artifact, and the path to open: a set variable keeps its meaning
/// relative to the working directory, the repo-relative default is
/// resolved against the workspace root.
fn fixture(key: &str, default: &str) -> (String, PathBuf) {
    let shown = env::parse_or(key, default.to_string());
    let open = match std::env::var_os(key) {
        Some(_) => PathBuf::from(&shown),
        None => PathBuf::from(crate::WORKSPACE_ROOT).join(default),
    };
    (shown, open)
}

/// Replays an assembled workload through the cell-sharded controller,
/// event for event, over the same lowered stream the flat rows'
/// `Scenario::run` drives: per sample the departures, then the
/// arrivals (trace sliced to the live window, lease passed through),
/// then the tick.
fn replay_sharded(fleet: &VmFleet, lifecycle: &Lifecycle, knobs: &Knobs) -> SimReport {
    // The partition needs servers per cell; sketch routing spreads a
    // small trace thinly, so give each cell a few slots (idle servers
    // stay powered off and cost nothing).
    let servers = knobs.servers.max(4 * knobs.cells);

    let mut dc = ShardedController::new(
        ControllerConfig {
            server_fleet: ServerFleet::uniform(servers, 8.0, LinearPowerModel::xeon_e5410())
                .expect("valid fleet"),
            policy: Policy::Proposed(Default::default()),
            repack_trigger: RepackTrigger::Hybrid { slack: knobs.slack },
            qos_guard: Some(knobs.qos),
            adaptive_slack_max: None,
            overcommit: None,
            dvfs_mode: DvfsMode::Static,
            period_samples: knobs.period_samples,
            reference: Reference::Peak,
            dynamic_headroom: 0.25,
            default_demand: 1.0,
            sample_dt_s: knobs.dt_s,
            max_deferred: fleet.len().max(1),
        },
        knobs.cells,
    )
    .expect("valid sharded config");

    let mut sink = NullSink;
    let events =
        lifecycle_events(fleet, lifecycle, knobs.period_samples).expect("lifecycle lowers");
    for event in events {
        dc.apply(event, &mut sink).expect("replayed event");
    }
    dc.finish(&mut sink).expect("finish");
    dc.report()
}

struct DialectResult {
    name: &'static str,
    path: String,
    vms: usize,
    flat: Vec<SweepRow>,
    sharded: SimReport,
}

fn run_dialect(
    name: &'static str,
    path: String,
    fleet: VmFleet,
    lifecycle: Lifecycle,
    knobs: &Knobs,
) -> DialectResult {
    let vms = fleet.len();
    let schedule = Schedule {
        name: "guarded",
        trigger: RepackTrigger::Fragmentation { slack: knobs.slack },
        guard: Some(knobs.qos),
        slack_max: None,
        overcommit: None,
    };
    let flat = SweepGrid::over(vec![WorkloadCase::open(
        name,
        fleet.clone(),
        lifecycle.clone(),
    )])
    .servers(vec![knobs.servers])
    .policies(vec![Policy::Bfd, Policy::Proposed(Default::default())])
    .schedules(vec![schedule])
    .period_samples(knobs.period_samples)
    .run_with(|cell, report| {
        assert!(
            report.online_admissions + report.periods.len() > 0,
            "{name}/{}: replay produced no activity",
            cell.policy.name()
        );
    })
    .expect("flat replay runs to completion");

    let sharded = replay_sharded(&fleet, &lifecycle, knobs);
    // Arrivals on a period boundary are placed by the periodic re-pack;
    // every other arrival must have come through the sketch-routed
    // incremental admit path.
    let off_boundary = lifecycle
        .entries()
        .iter()
        .filter(|e| e.arrival_sample % knobs.period_samples != 0)
        .count();
    assert!(
        sharded.online_admissions >= off_boundary,
        "{name}: {} mid-period arrivals but only {} sketch-routed admissions",
        off_boundary,
        sharded.online_admissions,
    );
    assert!(
        sharded.energy.joules() > 0.0,
        "{name}: sharded replay must meter energy"
    );

    DialectResult {
        name,
        path,
        vms,
        flat,
        sharded,
    }
}

pub fn run() -> String {
    let knobs = Knobs {
        dt_s: env::parse_or("CAVM_TRACE_DT_S", 300.0),
        horizon: env::parse_or("CAVM_TRACE_HORIZON", 48),
        period_samples: env::parse_or("CAVM_TRACE_PERIOD_SAMPLES", 12),
        servers: env::parse_or("CAVM_TRACE_SERVERS", 24),
        cells: env::parse_or("CAVM_TRACE_CELLS", 16),
        slack: env::parse_or("CAVM_TRACE_SLACK", 1) as u32,
        qos: QosGuard {
            violation_ratio: env::parse_or("CAVM_TRACE_QOS", 0.08),
        },
    };
    let (azure_path, azure_file) = fixture(
        "CAVM_TRACE_AZURE",
        "crates/workload/testdata/azure_sample.csv",
    );
    let (huawei_path, huawei_file) = fixture(
        "CAVM_TRACE_HUAWEI",
        "crates/workload/testdata/huawei_sample.csv",
    );

    let mut azure_reader = AzureTraceReader::open(&azure_file, knobs.dt_s, knobs.horizon)
        .expect("azure fixture opens");
    let (azure_fleet, azure_lifecycle) =
        assemble(&mut azure_reader).expect("azure fixture assembles");
    let azure = run_dialect("azure", azure_path, azure_fleet, azure_lifecycle, &knobs);

    let mut huawei_reader = HuaweiTraceReader::open(&huawei_file, knobs.dt_s, knobs.horizon)
        .expect("huawei fixture opens");
    let (huawei_fleet, huawei_lifecycle) =
        assemble(&mut huawei_reader).expect("huawei fixture assembles");
    let huawei = run_dialect(
        "huawei",
        huawei_path,
        huawei_fleet,
        huawei_lifecycle,
        &knobs,
    );

    println!(
        "# Trace replay — guarded flat controller (slack {}, guard {:.0}%) + {}-cell sharded, {} servers, period {} samples @ {} s",
        knobs.slack,
        100.0 * knobs.qos.violation_ratio,
        knobs.cells,
        knobs.servers,
        knobs.period_samples,
        knobs.dt_s,
    );
    for dialect in [&azure, &huawei] {
        let bfd = &dialect.flat[0].report;
        println!();
        println!(
            "## {} — {} VMs from {}",
            dialect.name, dialect.vms, dialect.path
        );
        println!(
            "{:<10} {:>12} {:>10} {:>12} {:>8}  normalized bar",
            "policy", "energy kWh", "max viol%", "migrations", "admits"
        );
        for row in &dialect.flat {
            let r = &row.report;
            let norm = r.energy.normalized_to(&bfd.energy).expect("nonzero");
            println!(
                "{:<10} {:>12.3} {:>10.2} {:>12} {:>8}  {}",
                r.policy,
                r.energy.kilowatt_hours(),
                r.max_violation_percent,
                r.total_migrations(),
                r.online_admissions,
                bar(norm, 30),
            );
        }
        let s = &dialect.sharded;
        println!(
            "sharded    {:>12.3} {:>10.2} {:>12} {:>8}  ({} cells)",
            s.energy.kilowatt_hours(),
            s.max_violation_percent,
            s.total_migrations(),
            s.online_admissions,
            knobs.cells,
        );
    }

    // The point of ingesting a correlated trace: on the Azure-format
    // fixture (per-sample demand series with real group structure) the
    // correlation-aware policy must not lose to correlation-blind BFD.
    let azure_bfd = &azure.flat[0].report;
    let azure_proposed = &azure.flat[1].report;
    assert!(
        azure_proposed.energy.joules() <= azure_bfd.energy.joules(),
        "proposed must not burn more energy than BFD on the azure trace ({} J vs {} J)",
        azure_proposed.energy.joules(),
        azure_bfd.energy.joules(),
    );
    println!();
    println!(
        "(proposed <= BFD energy on the azure trace: {:.4} normalized — asserted)",
        azure_proposed
            .energy
            .normalized_to(&azure_bfd.energy)
            .expect("nonzero"),
    );

    let mut section = String::new();
    section.push_str("{\n");
    let _ = writeln!(section, "    \"sample_dt_s\": {},", knobs.dt_s);
    let _ = writeln!(section, "    \"horizon_samples\": {},", knobs.horizon);
    let _ = writeln!(section, "    \"period_samples\": {},", knobs.period_samples);
    let _ = writeln!(section, "    \"servers\": {},", knobs.servers);
    let _ = writeln!(section, "    \"cells\": {},", knobs.cells);
    for (d, dialect) in [&azure, &huawei].into_iter().enumerate() {
        let bfd = &dialect.flat[0].report;
        let _ = writeln!(section, "    \"{}\": {{", dialect.name);
        let _ = writeln!(section, "      \"path\": \"{}\",", dialect.path);
        let _ = writeln!(section, "      \"vms\": {},", dialect.vms);
        section.push_str("      \"flat\": [\n");
        for (i, row) in dialect.flat.iter().enumerate() {
            let r = &row.report;
            let _ = write!(
                section,
                "        {{\"policy\": \"{}\", \"energy_kwh\": {:.4}, \"normalized_power\": {:.4}, \"max_violation_percent\": {:.3}, \"migrations\": {}, \"online_admissions\": {}}}",
                r.policy,
                r.energy.kilowatt_hours(),
                r.energy.normalized_to(&bfd.energy).expect("nonzero"),
                r.max_violation_percent,
                r.total_migrations(),
                r.online_admissions,
            );
            section.push_str(if i + 1 < dialect.flat.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        section.push_str("      ],\n");
        let s = &dialect.sharded;
        let _ = writeln!(
            section,
            "      \"sharded\": {{\"cells\": {}, \"energy_kwh\": {:.4}, \"max_violation_percent\": {:.3}, \"migrations\": {}, \"online_admissions\": {}, \"deferred_peak\": {}}}",
            knobs.cells,
            s.energy.kilowatt_hours(),
            s.max_violation_percent,
            s.total_migrations(),
            s.online_admissions,
            s.deferred_peak,
        );
        section.push_str(if d == 0 { "    },\n" } else { "    }\n" });
    }
    section.push_str("  }");
    section
}
