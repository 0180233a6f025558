//! The four controller-day workloads.
//!
//! Each workload is a [`Workload`]: `setup` generates every input from
//! the seed (all of it before the clock starts), `rep` runs one timed
//! day on fresh clones of those inputs. Why each exists and which
//! layers it stresses is recorded in `benchmark/README.md` and in the
//! `why` lines of `BENCHMARK.json`.

use crate::drive::{drive, Capture, Controller, Ledger, Outcome, Plan, Trace};
use crate::json::{obj, Json};
use crate::replay::{replay_layers, vm_table, LayerStats};
use crate::span::{Tracer, NONE};
use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_sim::service::{interleave, lifecycle_events, SessionHost};
use cavm_sim::sink::{Buffered, Threaded};
use cavm_sim::{
    ControllerConfig, DatacenterController, NullSink, OvercommitConfig, Policy, QosGuard,
    RepackTrigger, ReportSink, ScenarioBuilder, SessionEvent, ShardedController, SimReport,
    VmEvent,
};
use cavm_trace::{Reference, SimRng, TimeSeries};
use cavm_workload::datacenter::{DailyArchetype, DatacenterTraceBuilder};
use cavm_workload::dataset::{
    assemble, write_azure_csv, AzureTraceReader, DemandModel, SyntheticApp, SyntheticTraceBuilder,
};
use cavm_workload::faults::{FaultModel, FaultPlan, FaultPlanBuilder};
use cavm_workload::lifecycle::{ArrivalProcess, LifecycleBuilder, LifetimeModel};
use std::cell::RefCell;
use std::io::Cursor;
use std::time::Instant;

/// FNV-1a over `bytes`: the report digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the traced repetition adds to a [`Rep`].
pub struct TraceRun<'a> {
    pub tracer: &'a RefCell<Tracer>,
    /// Out: the replayed inner layers.
    pub layers: LayerStats,
    /// Out: the service layer's own rows (service day only).
    pub service: Option<ServiceStats>,
}

/// The `sim.service` rows.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    pub run_ns: u64,
    /// Wall time of the sessions run one by one outside the host.
    pub solo_sum_ns: u64,
    pub schedule_bytes: u64,
    /// 1-worker wall ÷ 2-worker wall; `None` on a single-core host.
    pub speedup_2w: Option<f64>,
    /// Whether 1 and 2 workers produced the same `ServiceReport`.
    pub workers_agree: bool,
}

/// One timed repetition.
pub struct Rep {
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    pub ledger: Ledger,
    /// Digest of the merged report(s) the day produced.
    pub digest: u64,
    pub energy_kwh: f64,
    /// Worst per-period violation ratio of the day (the paper's Table II
    /// metric), percent.
    pub max_violation_pct: f64,
    /// Mean over periods (and sessions) of the per-period worst ratio.
    pub mean_violation_pct: f64,
    /// Longest single call the driver made, nanoseconds.
    pub stall_ns: u64,
    /// Exact counts out of the merged report.
    pub counts: Counts,
    /// Every VM is placed, departed or counted as failed.
    pub accounted: bool,
    pub sink: SinkStats,
    pub ingest: IngestStats,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub migrations: u64,
    pub offcycle_repacks: u64,
    pub online_admissions: u64,
    pub deferred_peak: u64,
    pub evacuations: u64,
    pub violation_instances: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SinkStats {
    /// Events the adapter dropped, as the adapter counts them.
    pub dropped: u64,
    /// `sink_dropped_events` of the summary the inner sink received.
    pub reported_dropped: u64,
    /// `Threaded::finish` join time.
    pub finish_ns: u64,
    /// `on_period` records the inner sink saw (flat sinks only).
    pub periods_seen: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    pub rows: u64,
    pub ingest_ns: u64,
    pub lower_ns: u64,
}

impl Counts {
    fn of(report: &SimReport) -> Self {
        Self {
            migrations: report.total_migrations() as u64,
            offcycle_repacks: report.offcycle_repacks as u64,
            online_admissions: report.online_admissions as u64,
            deferred_peak: report.deferred_peak as u64,
            evacuations: report.evacuations as u64,
            violation_instances: report.violation_instances as u64,
        }
    }
}

impl Rep {
    fn of_day(out: &Outcome, ledger: Ledger, wall_s: f64) -> Self {
        Self {
            wall_s,
            digest: fnv64(format!("{:?}", out.report).as_bytes()),
            energy_kwh: out.report.energy.kilowatt_hours(),
            max_violation_pct: out.report.max_violation_percent,
            mean_violation_pct: out.report.mean_violation_percent,
            stall_ns: ledger.stall_max_ns(),
            ledger,
            counts: Counts::of(&out.report),
            accounted: out.placed + out.deferred == out.live,
            sink: SinkStats::default(),
            ingest: IngestStats::default(),
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Everything before the timed region: input generation and one
    /// controller (or host) construction.
    fn setup(seed: u64, smoke: bool) -> Self;
    /// The sizes the inputs were generated at, for `meta`.
    fn sizes(&self) -> Json;
    /// Core-hours of demand the inputs ask the controller to host.
    fn demand_core_h(&self) -> f64;
    /// One day on fresh clones of the inputs. A traced repetition also
    /// replays the inner layers into `trace`.
    fn rep(&self, trace: Option<&mut TraceRun<'_>>) -> Rep;
    /// Per-call latencies where `rep` cannot observe them (a hosted
    /// service run is one opaque call).
    fn solo_latencies(&self) -> Option<Ledger> {
        None
    }
}

/// Core-hours of demand the arrivals of `events` carry.
fn core_hours<'a>(events: impl IntoIterator<Item = &'a VmEvent>) -> f64 {
    events
        .into_iter()
        .map(|event| match event {
            VmEvent::Arrive { trace, .. } => {
                trace.values().iter().sum::<f64>() * trace.dt() / 3600.0
            }
            _ => 0.0,
        })
        .sum()
}

/// Drives one day and, when traced, replays its layers.
fn run_day<C: Controller>(
    ctl: &mut C,
    events: Vec<VmEvent>,
    master: &[VmEvent],
    plan: Plan<'_>,
    sink: &mut dyn cavm_sim::MetricSink,
    ledger: &mut Ledger,
    trace: Option<&mut TraceRun<'_>>,
) -> Outcome {
    let Some(run) = trace else {
        return drive(ctl, events, plan, sink, ledger, None);
    };
    let mut recording = Trace {
        tracer: run.tracer,
        capture: Capture::default(),
    };
    let out = drive(ctl, events, plan, sink, ledger, Some(&mut recording));
    let cfgs: Vec<&ControllerConfig> = (0..ctl.cells()).map(|c| ctl.cell(c).config()).collect();
    replay_layers(
        &recording.capture,
        &vm_table(master),
        &cfgs,
        &out.report,
        run.tracer,
        &mut run.layers,
    );
    out
}

// ---------------------------------------------------------------- sharded-day

const SHARDED_SAMPLE_DT_S: f64 = 30.0;
const SHARDED_SAMPLES_PER_HOUR: usize = 120;
const SHARDED_HOURS: usize = 24;
/// Arrivals land in the first 80% of the horizon so late VMs still live.
const SHARDED_ARRIVAL_WINDOW: f64 = 0.8;
const SHARDED_MEAN_LEASE_SAMPLES: f64 = 1.5 * SHARDED_SAMPLES_PER_HOUR as f64;

/// `exp_scale`'s synthetic datacenter day through a
/// [`ShardedController`], with every trace drawn before the clock.
#[derive(Debug)]
pub struct ShardedDay {
    vms: usize,
    cells: usize,
    servers: usize,
    cfg: ControllerConfig,
    events: Vec<VmEvent>,
}

/// A diurnal demand trace: base + daily sinusoid + noise, in cores.
fn diurnal_trace(rng: &mut SimRng, arrival: usize, len: usize, day_samples: usize) -> TimeSeries {
    let base = rng.range_f64(0.2, 0.8);
    let amp = rng.range_f64(0.1, 0.5);
    let phase = rng.range_f64(0.0, std::f64::consts::TAU);
    let noise: Vec<f64> = (0..len).map(|_| rng.normal(0.0, 0.05)).collect();
    TimeSeries::from_fn(SHARDED_SAMPLE_DT_S, len, |i| {
        let t = (arrival + i) as f64 / day_samples as f64 * std::f64::consts::TAU;
        (base + amp * (t + phase).sin() + noise[i]).max(0.05)
    })
    .expect("non-empty trace")
}

impl Workload for ShardedDay {
    const NAME: &'static str = "sharded-day";

    fn setup(seed: u64, smoke: bool) -> Self {
        let (vms, cells, servers) = if smoke { (800, 2, 12) } else { (6_400, 16, 96) };
        let total = SHARDED_HOURS * SHARDED_SAMPLES_PER_HOUR;
        let mut rng = SimRng::new(seed);

        // Poisson arrivals, exponential leases.
        let rate = vms as f64 / (total as f64 * SHARDED_ARRIVAL_WINDOW);
        let mut t = 0.0f64;
        let plans: Vec<(usize, Option<usize>)> = (0..vms)
            .map(|_| {
                t += rng.exponential(rate).expect("positive rate");
                let arrival = (t as usize).min(total - 1);
                let life = 1 + rng
                    .exponential(1.0 / SHARDED_MEAN_LEASE_SAMPLES)
                    .expect("positive rate") as usize;
                (arrival, (arrival + life < total).then_some(arrival + life))
            })
            .collect();
        let mut arrivals_at: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut departures_at: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (id, &(arrival, departure)) in plans.iter().enumerate() {
            arrivals_at[arrival].push(id);
            if let Some(d) = departure {
                departures_at[d].push(id);
            }
        }
        let mut events = Vec::with_capacity(2 * vms + total);
        for k in 0..total {
            events.extend(departures_at[k].iter().map(|&id| VmEvent::Depart { id }));
            for &id in &arrivals_at[k] {
                let departure = plans[id].1;
                let len = departure.unwrap_or(total) - k;
                events.push(VmEvent::Arrive {
                    id,
                    trace: diurnal_trace(&mut rng, k, len, total),
                    lease_samples: departure.map(|d| d - k),
                });
            }
            events.push(VmEvent::Tick);
        }

        let cfg = ControllerConfig {
            server_fleet: ServerFleet::uniform(servers, 8.0, LinearPowerModel::xeon_e5410())
                .expect("valid fleet"),
            policy: Policy::Proposed(Default::default()),
            repack_trigger: RepackTrigger::Periodic,
            qos_guard: None,
            adaptive_slack_max: None,
            overcommit: None,
            dvfs_mode: DvfsMode::Static,
            period_samples: SHARDED_SAMPLES_PER_HOUR,
            reference: Reference::Peak,
            dynamic_headroom: 0.1,
            default_demand: 0.6,
            sample_dt_s: SHARDED_SAMPLE_DT_S,
            max_deferred: vms,
        };
        ShardedController::new(cfg.clone(), cells).expect("valid sharded config");
        Self {
            vms,
            cells,
            servers,
            cfg,
            events,
        }
    }

    fn sizes(&self) -> Json {
        obj([
            ("vms", Json::from(self.vms)),
            ("cells", Json::from(self.cells)),
            ("servers", Json::from(self.servers)),
            ("hours", Json::from(SHARDED_HOURS)),
            ("sample_dt_s", Json::from(SHARDED_SAMPLE_DT_S)),
            ("driver_events", Json::from(self.events.len())),
        ])
    }

    fn demand_core_h(&self) -> f64 {
        core_hours(&self.events)
    }

    fn rep(&self, trace: Option<&mut TraceRun<'_>>) -> Rep {
        let events = self.events.clone();
        let mut ctl =
            ShardedController::new(self.cfg.clone(), self.cells).expect("valid sharded config");
        let mut ledger = Ledger::default();
        let plan = Plan {
            period: self.cfg.period_samples,
            ..Plan::default()
        };
        let out = run_day(
            &mut ctl,
            events,
            &self.events,
            plan,
            &mut NullSink,
            &mut ledger,
            trace,
        );
        Rep::of_day(&out, ledger, out.wall_s)
    }
}

// --------------------------------------------------------------- flat-p95-day

const FLAT_HOURS: f64 = 24.0;
const FLAT_PERIOD: usize = 720;
const SINK_CAPACITY: usize = 4096;

/// One flat controller on the streaming-percentile (P²) reference with
/// every feedback loop on.
#[derive(Debug)]
pub struct FlatP95Day {
    vms: usize,
    servers: usize,
    cfg: ControllerConfig,
    events: Vec<VmEvent>,
}

impl Workload for FlatP95Day {
    const NAME: &'static str = "flat-p95-day";

    fn setup(seed: u64, smoke: bool) -> Self {
        let (vms, servers) = if smoke { (24, 16) } else { (96, 40) };
        let fleet = DatacenterTraceBuilder::new(vms)
            .groups((vms / 8).max(2))
            .seed(seed)
            .duration_hours(FLAT_HOURS)
            .vm_scale_range(0.35, 1.05)
            .build()
            .expect("static builder parameters are valid");
        let horizon = fleet.vms()[0].fine.len();
        let lifecycle = LifecycleBuilder::new(vms, horizon)
            .seed(seed ^ 0x5eed_f1a7)
            // The morning ramp: everything arrives within ~2 h. Spread
            // over half the day, an arrival comes once in 90 ticks and
            // times a cold admission path, which follows the host's
            // cache weather (spread 30% over ten seeds) instead of the code.
            .arrivals(ArrivalProcess::Poisson {
                mean_gap_samples: horizon as f64 / (12.0 * vms as f64),
            })
            .lifetimes(LifetimeModel::Exponential {
                mean_samples: horizon as f64 / 2.0,
            })
            .build()
            .expect("valid lifecycle");
        let events = lifecycle_events(&fleet, &lifecycle, FLAT_PERIOD).expect("valid schedule");
        let cfg = ScenarioBuilder::new(fleet)
            .servers(servers)
            .policy(Policy::Proposed(Default::default()))
            .reference(Reference::Percentile(95.0))
            .repack_trigger(RepackTrigger::Hybrid { slack: 1 })
            .qos_guard(QosGuard {
                violation_ratio: 0.08,
            })
            .adaptive_slack_max(4)
            .overcommit(0.25, 0.35)
            .period_samples(FLAT_PERIOD)
            .lifecycle(lifecycle)
            .build()
            .expect("valid scenario")
            .controller_config();
        DatacenterController::new(cfg.clone()).expect("valid session config");
        Self {
            vms,
            servers,
            cfg,
            events,
        }
    }

    fn sizes(&self) -> Json {
        obj([
            ("vms", Json::from(self.vms)),
            ("servers", Json::from(self.servers)),
            ("hours", Json::from(FLAT_HOURS)),
            ("sample_dt_s", Json::from(self.cfg.sample_dt_s)),
            ("driver_events", Json::from(self.events.len())),
        ])
    }

    fn demand_core_h(&self) -> f64 {
        core_hours(&self.events)
    }

    fn rep(&self, trace: Option<&mut TraceRun<'_>>) -> Rep {
        let events = self.events.clone();
        let mut ctl = DatacenterController::new(self.cfg.clone()).expect("valid session config");
        let mut sink = Buffered::new(ReportSink::new(), SINK_CAPACITY);
        let mut ledger = Ledger::default();
        let plan = Plan {
            period: FLAT_PERIOD,
            ..Plan::default()
        };
        let out = run_day(
            &mut ctl,
            events,
            &self.events,
            plan,
            &mut sink,
            &mut ledger,
            trace,
        );
        let mut rep = Rep::of_day(&out, ledger, out.wall_s);
        let dropped = sink.dropped();
        let inner = sink.into_inner();
        rep.sink = SinkStats {
            dropped,
            periods_seen: Some(inner.periods().len() as u64),
            reported_dropped: inner.into_report().map_or(0, |r| r.sink_dropped_events),
            finish_ns: 0,
        };
        rep
    }
}

// ---------------------------------------------------------------- service-day

const SERVICE_HOURS: f64 = 24.0;
const SERVICE_VMS: usize = 16;

/// `exp_service`'s churn day: many small tenant sessions behind one
/// [`SessionHost`], five policies cycling, one worker.
#[derive(Debug)]
pub struct ServiceDay {
    configs: Vec<ControllerConfig>,
    schedule: Vec<SessionEvent>,
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

/// Bytes a schedule holds: its entries plus every arriving trace.
fn schedule_bytes(schedule: &[SessionEvent]) -> u64 {
    let traces: usize = schedule
        .iter()
        .map(|e| match &e.event {
            VmEvent::Arrive { trace, .. } => trace.len() * std::mem::size_of::<f64>(),
            _ => 0,
        })
        .sum();
    (std::mem::size_of_val(schedule) + traces) as u64
}

impl ServiceDay {
    /// The schedule split back into per-session streams.
    fn streams(&self) -> Vec<Vec<VmEvent>> {
        let mut streams: Vec<Vec<VmEvent>> = self.configs.iter().map(|_| Vec::new()).collect();
        for entry in self.schedule.clone() {
            streams[entry.session].push(entry.event);
        }
        streams
    }

    /// Replays every session on its own through the same
    /// `DatacenterController` loop a host worker runs, timing each call.
    fn solo(&self, mut trace: Option<&mut TraceRun<'_>>) -> (Ledger, Vec<SimReport>) {
        let mut ledger = Ledger::default();
        let mut reports = Vec::with_capacity(self.configs.len());
        for (cfg, events) in self.configs.iter().zip(self.streams()) {
            let mut ctl = DatacenterController::new(cfg.clone()).expect("valid session config");
            let plan = Plan {
                period: cfg.period_samples,
                ..Plan::default()
            };
            // Per-event spans of a million-event replay would only
            // restate the ledger: they go to a scratch tracer, and the
            // run's own keeps one span per session.
            let scratch = RefCell::new(Tracer::new());
            let mut session = trace.as_deref_mut().map(|run| TraceRun {
                tracer: &scratch,
                layers: std::mem::take(&mut run.layers),
                service: None,
            });
            let master = if session.is_some() {
                events.clone()
            } else {
                Vec::new()
            };
            let t0 = Instant::now();
            let out = run_day(
                &mut ctl,
                events,
                &master,
                plan,
                &mut NullSink,
                &mut ledger,
                session.as_mut(),
            );
            if let (Some(run), Some(session)) = (trace.as_deref_mut(), session) {
                let end = t0 + std::time::Duration::from_secs_f64(out.wall_s);
                run.tracer
                    .borrow_mut()
                    .leaf("replay.sim.service.solo", NONE, t0, end);
                run.layers = session.layers;
            }
            reports.push(out.report);
        }
        (ledger, reports)
    }
}

impl ServiceDay {
    /// Wall time of every session run on its own exactly as a host
    /// worker runs it — `apply` in a loop, no clock reads between
    /// calls — so that `run − solo` is what the host itself adds.
    fn solo_sum_ns(&self) -> u64 {
        let mut total = 0;
        for (cfg, events) in self.configs.iter().zip(self.streams()) {
            let mut ctl = DatacenterController::new(cfg.clone()).expect("valid session config");
            let t0 = Instant::now();
            for event in events {
                ctl.apply(event, &mut NullSink)
                    .expect("the hosted run applied it");
            }
            ctl.finish(&mut NullSink).expect("an open session finishes");
            std::hint::black_box(ctl.report());
            total += t0.elapsed().as_nanos() as u64;
        }
        total
    }
}

impl Workload for ServiceDay {
    const NAME: &'static str = "service-day";

    fn setup(seed: u64, smoke: bool) -> Self {
        let sessions = if smoke { 4 } else { 32 };
        let mut configs = Vec::with_capacity(sessions);
        let mut streams = Vec::with_capacity(sessions);
        for s in 0..sessions {
            let traces = DatacenterTraceBuilder::new(SERVICE_VMS)
                .groups(SERVICE_VMS / 4)
                .seed(seed.wrapping_add(s as u64))
                .duration_hours(SERVICE_HOURS)
                .vm_scale_range(0.35, 1.05)
                .build()
                .expect("static builder parameters are valid");
            let horizon = traces.vms()[0].fine.len();
            let lifecycle = LifecycleBuilder::new(SERVICE_VMS, horizon)
                .seed(seed.wrapping_add(1000 + s as u64))
                .arrivals(ArrivalProcess::Poisson {
                    mean_gap_samples: horizon as f64 / (2.0 * SERVICE_VMS as f64),
                })
                .lifetimes(LifetimeModel::Exponential {
                    mean_samples: horizon as f64 / 3.0,
                })
                .build()
                .expect("valid lifecycle");
            let mut builder = ScenarioBuilder::new(traces.clone())
                .servers(2 * SERVICE_VMS)
                .policy(five_policies()[s % 5])
                .repack_trigger(RepackTrigger::Hybrid { slack: 1 })
                .lifecycle(lifecycle.clone());
            if s % 2 == 0 {
                builder = builder
                    .qos_guard(QosGuard {
                        violation_ratio: 0.05,
                    })
                    .adaptive_slack_max(4);
            }
            let scenario = builder.build().expect("valid scenario");
            streams.push(
                lifecycle_events(&traces, &lifecycle, scenario.period_samples())
                    .expect("valid schedule"),
            );
            configs.push(scenario.controller_config());
        }
        let schedule = interleave(&streams);
        SessionHost::new(configs.clone(), 1).expect("valid host");
        Self { configs, schedule }
    }

    fn sizes(&self) -> Json {
        obj([
            ("sessions", Json::from(self.configs.len())),
            ("vms_per_session", Json::from(SERVICE_VMS)),
            ("hours", Json::from(SERVICE_HOURS)),
            ("workers", Json::from(1usize)),
            ("driver_events", Json::from(self.schedule.len())),
        ])
    }

    fn demand_core_h(&self) -> f64 {
        core_hours(self.schedule.iter().map(|entry| &entry.event))
    }

    fn rep(&self, trace: Option<&mut TraceRun<'_>>) -> Rep {
        let host = SessionHost::new(self.configs.clone(), 1).expect("valid host");
        let schedule = self.schedule.clone();
        let t0 = Instant::now();
        let served = host.run(schedule);
        let t1 = Instant::now();
        let wall_s = (t1 - t0).as_secs_f64();
        let mut ledger = Ledger::default();
        ledger.events = self.schedule.len() as u64;
        // A hosted run that fails leaves no report to measure or check.
        let served = served.expect("the hosted sessions run to completion");
        let mut accounted = true;
        if let Some(run) = trace {
            run.tracer
                .borrow_mut()
                .leaf("sim.service.run", NONE, t0, t1);
            let (solo_ledger, solo_reports) = self.solo(Some(run));
            accounted = solo_ledger.failed == 0 && solo_reports == served.sessions;
            // The hosted run is one opaque call: the per-kind rows of a
            // traced service day are the solo replay's.
            ledger = solo_ledger;
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            let mut stats = ServiceStats {
                run_ns: (t1 - t0).as_nanos() as u64,
                solo_sum_ns: self.solo_sum_ns(),
                schedule_bytes: schedule_bytes(&self.schedule),
                speedup_2w: None,
                workers_agree: true,
            };
            if cores >= 2 {
                let wide = SessionHost::new(self.configs.clone(), 2).expect("valid host");
                let schedule = self.schedule.clone();
                let w0 = Instant::now();
                let both = wide.run(schedule);
                let w1 = Instant::now();
                run.tracer
                    .borrow_mut()
                    .leaf("sim.service.run_2w", NONE, w0, w1);
                stats.speedup_2w = Some(wall_s / (w1 - w0).as_secs_f64());
                stats.workers_agree = both.is_ok_and(|r| r == served);
            }
            run.service = Some(stats);
        }
        let merged = &served.merged;
        Rep {
            wall_s,
            ledger,
            digest: fnv64(format!("{served:?}").as_bytes()),
            energy_kwh: merged.energy_joules / 3.6e6,
            max_violation_pct: merged.max_violation_percent,
            mean_violation_pct: served
                .sessions
                .iter()
                .map(|r| r.mean_violation_percent)
                .sum::<f64>()
                / served.sessions.len() as f64,
            // The one call the driver makes into a hosted service.
            stall_ns: (t1 - t0).as_nanos() as u64,
            counts: Counts {
                migrations: merged.migrations as u64,
                offcycle_repacks: merged.offcycle_repacks as u64,
                online_admissions: merged.online_admissions as u64,
                deferred_peak: merged.deferred_peak as u64,
                evacuations: merged.evacuations as u64,
                violation_instances: merged.violation_instances as u64,
            },
            accounted,
            sink: SinkStats {
                reported_dropped: merged.sink_dropped_events,
                ..SinkStats::default()
            },
            ingest: IngestStats::default(),
        }
    }

    fn solo_latencies(&self) -> Option<Ledger> {
        Some(self.solo(None).0)
    }
}

// ---------------------------------------------------------- trace-replay-week

const WEEK_SAMPLE_DT_S: f64 = 300.0;
const WEEK_SAMPLES: usize = 7 * 288;
const WEEK_PERIOD: usize = 12;
/// Servers at the head of the fill order that the fault plan covers.
const WEEK_FAULT_BLOCK: usize = 8;

/// A week of Azure-format CSV through ingest, lowering and a flat
/// controller with faults, a threaded sink and operator what-if probes.
#[derive(Debug)]
pub struct TraceReplayWeek {
    vms: usize,
    servers: usize,
    csv: String,
    rows: u64,
    demand_core_h: f64,
    cfg: ControllerConfig,
    faults: FaultPlan,
}

impl Workload for TraceReplayWeek {
    const NAME: &'static str = "trace-replay-week";

    fn setup(seed: u64, smoke: bool) -> Self {
        let (vms, servers) = if smoke { (100, 24) } else { (800, 64) };
        let app = |name: &str, share: f64, lifetimes, archetype, cv| {
            let vm_count = ((vms as f64 * share) as usize).max(1);
            SyntheticApp {
                name: name.into(),
                vm_count,
                arrivals: ArrivalProcess::Poisson {
                    mean_gap_samples: WEEK_SAMPLES as f64 * 0.9 / vm_count as f64,
                },
                lifetimes,
                demand: DemandModel::Archetype { archetype, cv },
            }
        };
        let mut dataset = SyntheticTraceBuilder::new(WEEK_SAMPLES)
            .sample_dt_s(WEEK_SAMPLE_DT_S)
            .seed(seed)
            .app(app(
                "web",
                0.5,
                LifetimeModel::Exponential {
                    mean_samples: 200.0,
                },
                DailyArchetype::Diurnal {
                    base: 0.3,
                    peak: 1.4,
                    peak_hour: 14.0,
                    width_h: 3.0,
                },
                0.2,
            ))
            .app(app(
                "batch",
                0.3,
                LifetimeModel::Uniform {
                    min_samples: 60,
                    max_samples: 360,
                },
                DailyArchetype::Bursty {
                    base: 0.2,
                    burst_height: 1.5,
                    bursts_per_day: 3.0,
                },
                0.3,
            ))
            .app(app(
                "db",
                0.2,
                LifetimeModel::Exponential {
                    mean_samples: 400.0,
                },
                DailyArchetype::Flat { level: 1.0 },
                0.1,
            ))
            .build()
            .expect("valid synthetic scenario");
        let (fleet, lifecycle) = assemble(&mut dataset).expect("valid dataset");
        let csv = write_azure_csv(&fleet, &lifecycle).expect("fleet covers the lifecycle");
        let rows = csv.lines().count() as u64 - 1;
        let demand_core_h = fleet
            .vms()
            .iter()
            .map(|vm| vm.fine.values().iter().sum::<f64>() * WEEK_SAMPLE_DT_S / 3600.0)
            .sum();
        let faults = FaultPlanBuilder::new(WEEK_SAMPLES)
            .seed(seed)
            .block(
                0,
                WEEK_FAULT_BLOCK,
                FaultModel {
                    mtbf_samples: 12.0 * 3600.0 / WEEK_SAMPLE_DT_S,
                    mttr_samples: 20.0 * 60.0 / WEEK_SAMPLE_DT_S,
                    outage_mtbf_samples: None,
                    outage_mttr_samples: 1.0,
                },
            )
            .build()
            .expect("valid fault plan");
        let cfg = ControllerConfig {
            server_fleet: ServerFleet::uniform(servers, 8.0, LinearPowerModel::xeon_e5410())
                .expect("valid fleet"),
            policy: Policy::Proposed(Default::default()),
            repack_trigger: RepackTrigger::Fragmentation { slack: 1 },
            qos_guard: Some(QosGuard {
                violation_ratio: 0.08,
            }),
            adaptive_slack_max: None,
            overcommit: Some(OvercommitConfig {
                margin: 0.25,
                max_margin: 0.35,
            }),
            dvfs_mode: DvfsMode::Static,
            period_samples: WEEK_PERIOD,
            reference: Reference::Peak,
            dynamic_headroom: 0.1,
            default_demand: 1.0,
            sample_dt_s: WEEK_SAMPLE_DT_S,
            max_deferred: vms,
        };
        DatacenterController::new(cfg.clone()).expect("valid session config");
        Self {
            vms,
            servers,
            csv,
            rows,
            demand_core_h,
            cfg,
            faults,
        }
    }

    fn sizes(&self) -> Json {
        obj([
            ("vms", Json::from(self.vms)),
            ("servers", Json::from(self.servers)),
            ("days", Json::from(7usize)),
            ("sample_dt_s", Json::from(WEEK_SAMPLE_DT_S)),
            ("csv_rows", Json::from(self.rows)),
            ("csv_bytes", Json::from(self.csv.len())),
            ("fault_transitions", Json::from(self.faults.len())),
        ])
    }

    fn demand_core_h(&self) -> f64 {
        self.demand_core_h
    }

    fn rep(&self, trace: Option<&mut TraceRun<'_>>) -> Rep {
        let mut ctl = DatacenterController::new(self.cfg.clone()).expect("valid session config");
        let mut sink = Threaded::new(ReportSink::new(), SINK_CAPACITY);
        let mut ledger = Ledger::default();
        let plan = Plan {
            period: WEEK_PERIOD,
            faults: Some(&self.faults),
            probe_every: Some(WEEK_PERIOD),
        };
        let tracer = trace.as_deref().map(|run| run.tracer);

        let t0 = Instant::now();
        let mut reader = AzureTraceReader::new(
            Cursor::new(self.csv.as_bytes()),
            WEEK_SAMPLE_DT_S,
            WEEK_SAMPLES,
        )
        .expect("csv header");
        let (fleet, lifecycle) = assemble(&mut reader).expect("well-formed csv");
        let t1 = Instant::now();
        let events = lifecycle_events(&fleet, &lifecycle, WEEK_PERIOD).expect("valid schedule");
        let t2 = Instant::now();
        if let Some(tracer) = tracer {
            let mut tracer = tracer.borrow_mut();
            tracer.leaf("workload.ingest", NONE, t0, t1);
            tracer.leaf("workload.lower", NONE, t1, t2);
        }
        // The replay needs the stream the controller is about to consume.
        let master = if trace.is_some() {
            events.clone()
        } else {
            Vec::new()
        };
        let out = run_day(
            &mut ctl,
            events,
            &master,
            plan,
            &mut sink,
            &mut ledger,
            trace,
        );
        let dropped = sink.dropped();
        let t3 = Instant::now();
        let inner = sink.finish().expect("sink worker joined");
        let t4 = Instant::now();
        if let Some(tracer) = tracer {
            tracer.borrow_mut().leaf("sim.sink.finish", NONE, t3, t4);
        }

        let wall_s = (t2 - t0).as_secs_f64() + out.wall_s + (t4 - t3).as_secs_f64();
        let mut rep = Rep::of_day(&out, ledger, wall_s);
        rep.sink = SinkStats {
            dropped,
            finish_ns: (t4 - t3).as_nanos() as u64,
            periods_seen: Some(inner.periods().len() as u64),
            reported_dropped: inner.into_report().map_or(0, |r| r.sink_dropped_events),
        };
        rep.ingest = IngestStats {
            rows: self.rows,
            ingest_ns: (t1 - t0).as_nanos() as u64,
            lower_ns: (t2 - t1).as_nanos() as u64,
        };
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed ⇒ byte-identical inputs, different seed ⇒ different.
    fn seed_determinism<W: Workload + std::fmt::Debug>() {
        let dump = |seed| format!("{:?}", W::setup(seed, true));
        let first = dump(7);
        assert_eq!(first, dump(7), "{}: same seed, different inputs", W::NAME);
        assert_ne!(first, dump(8), "{}: different seed, same inputs", W::NAME);
    }

    #[test]
    fn sharded_day_inputs_follow_the_seed() {
        seed_determinism::<ShardedDay>();
    }

    #[test]
    fn flat_p95_day_inputs_follow_the_seed() {
        seed_determinism::<FlatP95Day>();
    }

    #[test]
    fn service_day_inputs_follow_the_seed() {
        seed_determinism::<ServiceDay>();
    }

    #[test]
    fn trace_replay_week_inputs_follow_the_seed() {
        seed_determinism::<TraceReplayWeek>();
    }

    /// A smoke day runs clean, repeats its digest, and a traced
    /// repetition reproduces it while filling the layer rows.
    fn smoke_day<W: Workload>() -> (Rep, LayerStats) {
        let inputs = W::setup(11, true);
        let plain = inputs.rep(None);
        assert_eq!(plain.ledger.failed, 0, "{}", W::NAME);
        assert!(plain.accounted, "{}", W::NAME);
        assert!(plain.energy_kwh > 0.0, "{}", W::NAME);
        assert_eq!(plain.digest, inputs.rep(None).digest, "{}", W::NAME);

        let tracer = RefCell::new(Tracer::new());
        let mut run = TraceRun {
            tracer: &tracer,
            layers: LayerStats::default(),
            service: None,
        };
        let traced = inputs.rep(Some(&mut run));
        assert_eq!(
            traced.digest,
            plain.digest,
            "{}: tracing perturbed the run",
            W::NAME
        );
        assert_eq!(traced.counts, plain.counts, "{}", W::NAME);
        assert_eq!(
            traced.sink.dropped,
            traced.sink.reported_dropped,
            "{}",
            W::NAME
        );
        assert_eq!(run.layers.errors, 0, "{}: a replayed call failed", W::NAME);
        assert!(run.layers.rebuild_calls > 0, "{}", W::NAME);
        assert!(run.layers.place_calls > 0, "{}", W::NAME);
        assert!(run.layers.power_evals > 0, "{}", W::NAME);
        (traced, run.layers)
    }

    #[test]
    fn sharded_day_smoke() {
        let (rep, layers) = smoke_day::<ShardedDay>();
        assert!(layers.sketch_calls > 0, "a sharded day routes by sketch");
        assert_eq!(
            rep.ledger.kind(crate::drive::Kind::TickClose).count(),
            SHARDED_HOURS as u64
        );
    }

    #[test]
    fn flat_p95_day_smoke() {
        let (rep, layers) = smoke_day::<FlatP95Day>();
        assert_eq!(layers.sketch_calls, 0, "a flat day has no router");
        // on_period fired exactly on the ticks classified as closing.
        assert_eq!(
            rep.sink.periods_seen,
            Some(rep.ledger.kind(crate::drive::Kind::TickClose).count())
        );
    }

    #[test]
    fn service_day_smoke() {
        let inputs = ServiceDay::setup(11, true);
        let tracer = RefCell::new(Tracer::new());
        let mut run = TraceRun {
            tracer: &tracer,
            layers: LayerStats::default(),
            service: None,
        };
        let rep = inputs.rep(Some(&mut run));
        assert!(
            rep.accounted,
            "solo replays must reproduce the hosted reports"
        );
        let stats = run.service.expect("service rows");
        assert!(stats.workers_agree);
        assert!(stats.solo_sum_ns > 0 && stats.run_ns > 0);
        assert_eq!(stats.schedule_bytes, schedule_bytes(&inputs.schedule));
        let solo = inputs.solo_latencies().expect("service day replays solo");
        assert_eq!(solo.events, inputs.schedule.len() as u64);
        assert_eq!(solo.failed, 0);
    }

    #[test]
    fn trace_replay_week_smoke() {
        let (rep, _) = smoke_day::<TraceReplayWeek>();
        assert!(rep.ingest.rows > 0 && rep.ingest.ingest_ns > 0);
        assert_eq!(rep.ledger.fork_calls, (WEEK_SAMPLES / WEEK_PERIOD) as u64);
        assert!(rep.ledger.kind(crate::drive::Kind::Fault).count() > 0);
        assert_eq!(
            rep.sink.periods_seen,
            Some(rep.ledger.kind(crate::drive::Kind::TickClose).count())
        );
    }
}
