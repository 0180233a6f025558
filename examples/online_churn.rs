//! An online datacenter under churn: VMs lease in and out all day
//! while the correlation-aware controller keeps placing them.
//!
//! Demonstrates the event-driven API the batch replay is built on:
//! the workload is a `SyntheticTrace` — two apps with their own
//! arrival, lease, and demand distributions, streamed through the
//! `TraceDataset` surface into `assemble` (the same entry point a
//! real Azure/Huawei CSV reader plugs into) — and a
//! custom `MetricSink` narrates the run live: periods as they
//! complete, incremental (lease-aware) mid-period admissions,
//! fragmentation-fired off-cycle re-packs under the adaptive
//! `RepackTrigger::Hybrid` schedule with a composed `QosGuard` (and
//! the `SlackController`'s live slack on every re-pack event),
//! per-class energy — before the terminal `SimReport` prints the
//! totals. A `FaultPlan` additionally knocks servers out mid-run:
//! watch residents evacuate the failed box, the controller run
//! degraded while capacity is down, and recovery hand the fleet back.
//!
//! Run with: `cargo run --release --example online_churn`

use cavm::prelude::*;

/// Prints the session as it unfolds.
struct Narrator {
    admissions: usize,
}

impl MetricSink for Narrator {
    fn on_period(&mut self, record: &PeriodRecord) {
        println!(
            "period {:>2}: {:>2} servers, worst violation {:>5.1}%, {} migrations",
            record.period,
            record.servers_used,
            100.0 * record.max_violation_ratio,
            record.migrations
        );
    }

    fn on_admit(&mut self, sample: usize, vm: usize, server: usize) {
        self.admissions += 1;
        println!(
            "  t={:>5}  vm{vm:02} arrived mid-period -> admitted to server {server} (no re-pack)",
            sample
        );
    }

    fn on_repack(&mut self, event: &RepackEvent) {
        let slack = event
            .slack_after
            .map_or_else(String::new, |s| format!(", slack now {s}"));
        match event.reason {
            RepackReason::Periodic => {}
            RepackReason::Fragmentation { estimate, active } => println!(
                "  t={:>5}  fragmentation re-pack: {} active servers vs bound {} -> {} \
                 ({} migrations{slack})",
                event.sample, active, estimate, event.servers_after, event.migrations
            ),
            RepackReason::QosGuard { violations } => println!(
                "  t={:>5}  QoS guard re-pack: worst server at {} over-capacity samples, \
                 {} hotspot move(s){slack}",
                event.sample, violations, event.migrations
            ),
            RepackReason::Overcommit { servers } => println!(
                "  t={:>5}  boundary capacity check: {} overcommitted server(s) trimmed \
                 ({} migrations)",
                event.sample, servers, event.migrations
            ),
            RepackReason::Evacuation { server } => println!(
                "  t={:>5}  emergency evacuation of failed server {server}: {} resident(s) \
                 moved or deferred",
                event.sample, event.migrations
            ),
            // Only ever emitted on a what-if fork, never by a live
            // session — unreachable in this replay.
            RepackReason::WhatIf => {}
        }
    }

    fn on_server_fail(&mut self, sample: usize, server: usize, residents: usize) {
        println!("  t={sample:>5}  server {server} FAILED with {residents} resident VM(s)");
    }

    fn on_server_recover(&mut self, sample: usize, server: usize) {
        println!("  t={sample:>5}  server {server} recovered — capacity restored");
    }

    fn on_class_energy(&mut self, period: usize, _class: usize, name: &str, period_joules: f64) {
        if period_joules > 0.0 {
            println!(
                "  period {period}: class {name} burned {:.2} Wh",
                period_joules / 3600.0
            );
        }
    }

    fn on_summary(&mut self, report: &SimReport) {
        println!(
            "\n=== {} === {:.2} kWh, max violation {:.2}%, {} migrations, {} online \
             admissions, {} off-cycle re-packs, {} failures survived ({} evacuations, \
             deferred-queue peak {})",
            report.policy,
            report.energy.kilowatt_hours(),
            report.max_violation_percent,
            report.total_migrations(),
            report.online_admissions,
            report.offcycle_repacks,
            report.server_failures,
            report.evacuations,
            report.deferred_peak
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six hours of correlated demand on a 5 s grid, described as a
    // dataset: two apps with their own arrival, lease, and demand
    // distributions. Swapping in a real cloud trace is a one-line
    // change — `AzureTraceReader::open(...)` implements the same
    // `TraceDataset` trait this generator streams through.
    let horizon = 4_320; // 6 h at 5 s/sample
    let mut dataset = SyntheticTraceBuilder::new(horizon)
        .seed(17)
        // Interactive tier: leases arrive every ~20 minutes, hold
        // 1.5–4 hours, and share a correlated mid-afternoon peak —
        // exactly the structure the proposed policy anti-correlates.
        .app(SyntheticApp {
            name: "web".into(),
            vm_count: 8,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_samples: 240.0,
            },
            lifetimes: LifetimeModel::Uniform {
                min_samples: 1_080,
                max_samples: 2_880,
            },
            demand: DemandModel::Archetype {
                archetype: DailyArchetype::Diurnal {
                    base: 0.4,
                    peak: 2.2,
                    peak_hour: 3.0,
                    width_h: 1.2,
                },
                cv: 0.2,
            },
        })
        // Batch tier: shorter uncorrelated jobs that fill the troughs.
        .app(SyntheticApp {
            name: "batch".into(),
            vm_count: 4,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_samples: 300.0,
            },
            lifetimes: LifetimeModel::Uniform {
                min_samples: 720,
                max_samples: 2_160,
            },
            demand: DemandModel::Uniform { lo: 0.2, hi: 1.2 },
        })
        .build()?;

    // `assemble` drains any `TraceDataset` into the engine's native
    // workload pair: a `VmFleet` of full-horizon traces plus the
    // `Lifecycle` that says when each lease is actually live.
    let (fleet, lifecycle) = assemble(&mut dataset)?;
    println!(
        "schedule: {} VMs, peak concurrency {}\n",
        lifecycle.len(),
        lifecycle.max_concurrent()
    );

    // Hardware is mortal: each of the 10 servers fails independently
    // about once per simulated week and takes ~25 minutes to repair,
    // and the whole rack shares one correlated outage process.
    let faults = FaultPlanBuilder::new(horizon)
        .seed(17)
        .block(
            0,
            10,
            FaultModel {
                mtbf_samples: 9_000.0,
                mttr_samples: 300.0,
                outage_mtbf_samples: Some(60_000.0),
                outage_mttr_samples: 120.0,
            },
        )
        .build()?;
    println!(
        "fault plan: {} scheduled server failures",
        faults.failures()
    );

    let mut narrator = Narrator { admissions: 0 };
    let scenario = ScenarioBuilder::new(fleet)
        .servers(10)
        .policy(Policy::Proposed(Default::default()))
        // Consolidate off-cycle as soon as departures leave a whole
        // server's worth of slack, on top of the hourly clock; let the
        // slack adapt to what re-packs actually buy, and move hotspots
        // off any server violating more than 8% of a period.
        .repack_trigger(RepackTrigger::Hybrid { slack: 1 })
        .adaptive_slack_max(3)
        .qos_guard(QosGuard {
            violation_ratio: 0.08,
        })
        .lifecycle(lifecycle)
        .faults(faults)
        .build()?;
    scenario.run_with_sink(&mut narrator)?;

    println!("\n{} incremental admissions total", narrator.admissions);
    Ok(())
}
