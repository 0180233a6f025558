//! The service layer — many controller sessions behind one front.
//!
//! A production allocator is not one replay loop: it hosts many tenant
//! sessions at once, each an independent [`DatacenterController`] over
//! its own fleet slice, and serves their event streams concurrently.
//! [`SessionHost`] is that front: it owns N session configurations,
//! takes one interleaved schedule of [`SessionEvent`]s, dispatches
//! each event to its session on a small worker pool
//! (`session % workers` partitioning), and merges the per-session
//! terminal reports into a [`ServiceReport`].
//!
//! **The schedule is read once.** [`SessionHost::run`] takes any
//! iterator of entries and, in a single pass, checks each session id
//! and appends the entry to its session's private stream — where a
//! run of consecutive ticks is one counter, not one record per tick.
//! A churn day of 17 k events per session (99.7 % of them ticks)
//! becomes about a hundred steps, so the host holds no per-event copy
//! of the schedule, the serial part of a run is that one sequential
//! read, and a worker replays a tick run by calling
//! [`tick`](DatacenterController::tick) in a loop with no event memory
//! to walk.
//!
//! **Determinism is the contract.** Sessions never share state — a
//! worker owns every event of each session it is assigned and replays
//! them in schedule order — so the merged report is a pure function of
//! the schedule: the same schedule on 1 worker and on 8 workers is
//! bit-identical (pinned by the `service` test suite). Concurrency
//! only changes wall-clock time, never results.
//!
//! The free functions bridge from the workload layer:
//! [`lifecycle_events`] lowers a churn [`Lifecycle`] over a [`VmFleet`]
//! into the exact fault-free [`VmEvent`] stream the batch engine
//! ([`Scenario::run`](crate::Scenario::run)) would deliver, and
//! [`interleave`] round-robins per-session streams into one host
//! schedule.
//!
//! ```
//! use cavm_sim::service::{interleave, lifecycle_events, SessionHost};
//! use cavm_sim::{Policy, ScenarioBuilder};
//! use cavm_workload::datacenter::DatacenterTraceBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fleet = DatacenterTraceBuilder::new(6)
//!     .groups(2)
//!     .seed(7)
//!     .duration_hours(2.0)
//!     .build()?;
//! let scenario = ScenarioBuilder::new(fleet.clone())
//!     .servers(8)
//!     .policy(Policy::Bfd)
//!     .build()?;
//! // Two identical tenants, everything arriving at t = 0.
//! let horizon = 2 * 720;
//! let events = lifecycle_events(
//!     &fleet,
//!     &cavm_workload::lifecycle::Lifecycle::all_at_start(fleet.len(), horizon)?,
//!     scenario.period_samples(),
//! )?;
//! let host = SessionHost::new(vec![scenario.controller_config(); 2], 2)?;
//! let report = host.run(interleave(&[events.clone(), events]))?;
//! assert_eq!(report.sessions.len(), 2);
//! assert_eq!(report.merged.sessions, 2);
//! # Ok(())
//! # }
//! ```
//!
//! [`Lifecycle`]: cavm_workload::lifecycle::Lifecycle
//! [`VmFleet`]: cavm_workload::datacenter::VmFleet

use crate::controller::{ControllerConfig, DatacenterController, NullSink, VmEvent};
use crate::report::SimReport;
use crate::SimError;
use cavm_workload::datacenter::VmFleet;
use cavm_workload::lifecycle::{Lifecycle, LifecycleEntry};
use std::thread;

/// One schedule entry for a [`SessionHost`]: an event addressed to one
/// hosted session. Cloning an entry — or a whole schedule — copies no
/// samples: an arrival's trace is shared with the clone
/// ([`TimeSeries`](cavm_trace::TimeSeries) clones alias their buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEvent {
    /// Index of the target session (`0..host.sessions()`).
    pub session: usize,
    /// The controller event to apply to it.
    pub event: VmEvent,
}

/// The merged cross-session summary of a [`SessionHost::run`].
///
/// Scalar counters sum across sessions; the violation headline takes
/// the worst session (a per-tenant SLA is not diluted by quieter
/// neighbours).
#[derive(Debug, Clone, PartialEq)]
pub struct MergedReport {
    /// Sessions that completed.
    pub sessions: usize,
    /// Total energy across sessions, in joules.
    pub energy_joules: f64,
    /// Worst per-period violation percentage across sessions.
    pub max_violation_percent: f64,
    /// Total over-utilized samples across sessions.
    pub violation_instances: usize,
    /// Total mid-period incremental admissions across sessions.
    pub online_admissions: usize,
    /// Total off-cycle re-packs across sessions.
    pub offcycle_repacks: usize,
    /// Total cross-period migrations across sessions.
    pub migrations: usize,
    /// Total sink-adapter drops folded into session summaries.
    pub sink_dropped_events: u64,
    /// Total server failures injected across sessions.
    pub server_failures: usize,
    /// Total emergency evacuations across sessions.
    pub evacuations: usize,
    /// Summed per-session deferred-queue peaks (an upper bound on the
    /// true simultaneous peak, like the sharded merge).
    pub deferred_peak: usize,
}

impl MergedReport {
    fn from_sessions(sessions: &[SimReport]) -> Self {
        Self {
            sessions: sessions.len(),
            energy_joules: sessions.iter().map(|r| r.energy.joules()).sum(),
            max_violation_percent: sessions
                .iter()
                .map(|r| r.max_violation_percent)
                .fold(0.0, f64::max),
            violation_instances: sessions.iter().map(|r| r.violation_instances).sum(),
            online_admissions: sessions.iter().map(|r| r.online_admissions).sum(),
            offcycle_repacks: sessions.iter().map(|r| r.offcycle_repacks).sum(),
            migrations: sessions.iter().map(|r| r.total_migrations()).sum(),
            sink_dropped_events: sessions.iter().map(|r| r.sink_dropped_events).sum(),
            server_failures: sessions.iter().map(|r| r.server_failures).sum(),
            evacuations: sessions.iter().map(|r| r.evacuations).sum(),
            deferred_peak: sessions.iter().map(|r| r.deferred_peak).sum(),
        }
    }
}

/// Everything a [`SessionHost::run`] produced: the per-session
/// terminal reports (indexed by session id) and their merge.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// One terminal [`SimReport`] per hosted session, in session-id
    /// order.
    pub sessions: Vec<SimReport>,
    /// The cross-session aggregate.
    pub merged: MergedReport,
}

/// A multi-session front over N independent controller sessions. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct SessionHost {
    configs: Vec<ControllerConfig>,
    workers: usize,
}

impl SessionHost {
    /// A host over one session per entry of `configs`, replaying on a
    /// pool of `workers` threads. Session `s` is pinned to worker
    /// `s % workers`, so the partition — and therefore every result —
    /// is independent of thread scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `configs` is empty
    /// or `workers` is zero. Per-session knob validation happens when
    /// [`run`](Self::run) opens the controllers.
    pub fn new(configs: Vec<ControllerConfig>, workers: usize) -> crate::Result<Self> {
        if configs.is_empty() {
            return Err(SimError::InvalidParameter(
                "session host needs at least one session",
            ));
        }
        if workers == 0 {
            return Err(SimError::InvalidParameter(
                "session host needs at least one worker",
            ));
        }
        Ok(Self { configs, workers })
    }

    /// Hosted sessions.
    pub fn sessions(&self) -> usize {
        self.configs.len()
    }

    /// Pool size (workers actually spawned per run is
    /// `min(workers, sessions)`; idle threads are never created).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Replays `schedule` across the hosted sessions and returns the
    /// per-session reports plus their merge. Each session's events are
    /// applied in schedule order by its owning worker, the session is
    /// finished, and its terminal report collected. The host itself is
    /// untouched — `run` can be called again (every call opens fresh
    /// controller sessions from the stored configs).
    ///
    /// The schedule is read once, in order, and never copied: the one
    /// pass checks each entry's session id and appends the entry to its
    /// session's private stream, where consecutive [`VmEvent::Tick`]s
    /// collapse into one counted run (see the [module docs](self)). Any
    /// iterator will do — a materialised `Vec`, a filter over one, a
    /// generator — and beyond what the caller's iterator itself holds a
    /// run keeps one step per tick run or non-tick event.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSession`] if the schedule addresses a
    /// session the host does not own — wherever in the stream that
    /// entry sits, no session has run by then: the workers start only
    /// once the schedule is exhausted. A failing session aborts the run
    /// with its error; when several sessions fail, the error of the
    /// smallest session id is returned — deterministic regardless of
    /// worker count.
    pub fn run(
        &self,
        schedule: impl IntoIterator<Item = SessionEvent>,
    ) -> crate::Result<ServiceReport> {
        let sessions = self.configs.len();
        let mut per_session: Vec<Vec<Step>> = (0..sessions).map(|_| Vec::new()).collect();
        for entry in schedule {
            let Some(steps) = per_session.get_mut(entry.session) else {
                return Err(SimError::UnknownSession {
                    session: entry.session,
                    sessions,
                });
            };
            // The tick is recognised in place: only the rare non-tick
            // event is moved.
            if !matches!(entry.event, VmEvent::Tick) {
                steps.push(Step::Event(entry.event));
            } else if let Some(Step::Ticks(n)) = steps.last_mut() {
                *n += 1;
            } else {
                steps.push(Step::Ticks(1));
            }
        }
        // Static session → worker pinning: deterministic by design.
        let workers = self.workers.min(sessions);
        let mut jobs: Vec<Vec<(usize, ControllerConfig, Vec<Step>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (session, steps) in per_session.into_iter().enumerate() {
            jobs[session % workers].push((session, self.configs[session].clone(), steps));
        }
        let mut results: Vec<(usize, crate::Result<SimReport>)> = Vec::with_capacity(sessions);
        thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| {
                    scope.spawn(move || {
                        job.into_iter()
                            .map(|(session, config, steps)| {
                                (session, Self::run_session(config, steps))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                results.extend(handle.join().expect("session worker panicked"));
            }
        });
        results.sort_by_key(|(session, _)| *session);
        let mut reports = Vec::with_capacity(sessions);
        for (_, result) in results {
            reports.push(result?);
        }
        let merged = MergedReport::from_sessions(&reports);
        Ok(ServiceReport {
            sessions: reports,
            merged,
        })
    }

    /// One session, start to finish, on the owning worker thread.
    fn run_session(config: ControllerConfig, steps: Vec<Step>) -> crate::Result<SimReport> {
        let mut controller = DatacenterController::new(config)?;
        for step in steps {
            match step {
                Step::Ticks(n) => {
                    for _ in 0..n {
                        controller.tick(&mut NullSink)?;
                    }
                }
                Step::Event(event) => controller.apply(event, &mut NullSink)?,
            }
        }
        controller.finish(&mut NullSink)?;
        Ok(controller.report())
    }
}

/// One step of a session's private stream inside [`SessionHost::run`].
/// Nearly every schedule entry is a [`VmEvent::Tick`] (99.7 % of a
/// churn day), and a tick carries nothing but its position — so a run
/// of them is stored as its length.
enum Step {
    /// This many consecutive ticks.
    Ticks(usize),
    /// One non-tick event.
    Event(VmEvent),
}

/// The one lowering of a lifecycle schedule into controller events: a
/// lazy iterator yielding, per sample, departures first (sorted by
/// `(sample, id)`), then arrivals in entry order with the trace sliced
/// from arrival to departure and the lease attached, then the
/// [`VmEvent::Tick`]. The horizon is truncated to whole placement
/// periods. [`lifecycle_events`] materialises it; the batch engine drives
/// it directly, interleaving fault entries around each sample.
pub(crate) struct ScheduleLowering<'a> {
    fleet: &'a VmFleet,
    entries: &'a [LifecycleEntry],
    /// `(sample, id)` of every in-horizon departure, sorted.
    departures: Vec<(usize, usize)>,
    /// Horizon in samples (whole periods).
    total: usize,
    /// The sample whose events are being emitted.
    sample: usize,
    next_departure: usize,
    next_arrival: usize,
}

impl<'a> ScheduleLowering<'a> {
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `period_samples` is
    /// zero.
    pub(crate) fn new(
        fleet: &'a VmFleet,
        entries: &'a [LifecycleEntry],
        period_samples: usize,
    ) -> crate::Result<Self> {
        if period_samples == 0 {
            return Err(SimError::InvalidParameter(
                "period_samples must be positive",
            ));
        }
        let n_samples = fleet.vms().first().map_or(0, |vm| vm.fine.len());
        let total = (n_samples / period_samples) * period_samples;
        let mut departures: Vec<(usize, usize)> = entries
            .iter()
            .filter_map(|e| e.departure_sample.map(|d| (d, e.id)))
            .filter(|&(d, _)| d < total)
            .collect();
        departures.sort_unstable();
        Ok(Self {
            fleet,
            entries,
            departures,
            total,
            sample: 0,
            next_departure: 0,
            next_arrival: 0,
        })
    }
}

impl Iterator for ScheduleLowering<'_> {
    type Item = crate::Result<VmEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.sample == self.total {
            return None;
        }
        if let Some(&(at, id)) = self.departures.get(self.next_departure) {
            if at == self.sample {
                self.next_departure += 1;
                return Some(Ok(VmEvent::Depart { id }));
            }
        }
        if let Some(entry) = self.entries.get(self.next_arrival) {
            if entry.arrival_sample == self.sample {
                self.next_arrival += 1;
                let end = entry
                    .departure_sample
                    .map_or(self.total, |d| d.min(self.total));
                // The schedule knows each lease up front; admission
                // uses it to keep soon-empty servers drainable.
                let lease_samples = entry
                    .departure_sample
                    .map(|d| d.saturating_sub(entry.arrival_sample));
                return Some(
                    self.fleet.vms()[entry.id]
                        .fine
                        .slice(entry.arrival_sample, end)
                        .map(|trace| VmEvent::Arrive {
                            id: entry.id,
                            trace,
                            lease_samples,
                        })
                        .map_err(SimError::Trace),
                );
            }
        }
        self.sample += 1;
        Some(Ok(VmEvent::Tick))
    }
}

/// Lowers a churn [`Lifecycle`] over `fleet` into the exact fault-free
/// event stream the batch engine would deliver: per sample, departures
/// first (sorted by `(sample, id)`), then arrivals in entry order with
/// the trace sliced from arrival to departure and the lease attached,
/// then the [`VmEvent::Tick`]. The horizon is truncated to whole
/// placement periods, exactly like
/// [`Scenario::run`](crate::Scenario::run).
///
/// Driving a fresh controller with this stream is bit-identical to the
/// engine replay of the same scenario (pinned by this module's tests),
/// which is what lets a [`SessionHost`] schedule reproduce engine
/// results session by session.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] when `period_samples` is
/// zero, and propagates trace-slicing errors.
pub fn lifecycle_events(
    fleet: &VmFleet,
    lifecycle: &Lifecycle,
    period_samples: usize,
) -> crate::Result<Vec<VmEvent>> {
    let lowering = ScheduleLowering::new(fleet, lifecycle.entries(), period_samples)?;
    // Sized up front rather than `collect()`ed: callers keep the
    // schedule, and a doubling vector would strand up to half of its
    // (large) event slots.
    let mut events =
        Vec::with_capacity(lowering.total + lowering.departures.len() + lowering.entries.len());
    for event in lowering {
        events.push(event?);
    }
    Ok(events)
}

/// Round-robins per-session event streams into one [`SessionHost`]
/// schedule: position k of every session (in session order) before
/// position k+1 of any. Cross-session order is cosmetic — sessions are
/// isolated, so any interleaving that preserves each session's own
/// order produces the same [`ServiceReport`] — but a deterministic one
/// keeps schedules comparable across runs. The schedule's arrivals
/// share their traces with the input streams; only the event records
/// themselves are new.
pub fn interleave(sessions: &[Vec<VmEvent>]) -> Vec<SessionEvent> {
    let mut schedule = Vec::with_capacity(sessions.iter().map(Vec::len).sum());
    let longest = sessions.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (session, events) in sessions.iter().enumerate() {
            if let Some(event) = events.get(k) {
                schedule.push(SessionEvent {
                    session,
                    event: event.clone(),
                });
            }
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Policy;
    use crate::ScenarioBuilder;
    use cavm_workload::datacenter::DatacenterTraceBuilder;
    use cavm_workload::lifecycle::{ArrivalProcess, LifecycleBuilder, LifetimeModel};

    fn fleet(vms: usize, hours: f64, seed: u64) -> VmFleet {
        DatacenterTraceBuilder::new(vms)
            .groups((vms / 3).max(1))
            .seed(seed)
            .duration_hours(hours)
            .build()
            .unwrap()
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

    /// All five policies, with and without the guarded schedule: the
    /// matrix-blind sessions (BFD, FFD, PCP) are pinned against the
    /// engine exactly like the ones that fill their matrix.
    #[test]
    fn lifecycle_events_replay_bit_identical_to_the_engine() {
        let fleet = fleet(8, 4.0, 11);
        let horizon = fleet.vms()[0].fine.len();
        let lifecycle = churn(8, horizon, 11);
        let policies = [
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
        ];
        for policy in policies {
            for guarded in [false, true] {
                let mut builder = ScenarioBuilder::new(fleet.clone())
                    .servers(10)
                    .policy(policy)
                    .lifecycle(lifecycle.clone());
                if guarded {
                    builder = builder
                        .repack_trigger(crate::RepackTrigger::Hybrid { slack: 1 })
                        .qos_guard(crate::QosGuard {
                            violation_ratio: 0.05,
                        })
                        .adaptive_slack_max(4);
                }
                let scenario = builder.build().unwrap();
                let engine_report = scenario.run().unwrap();

                let events =
                    lifecycle_events(&fleet, &lifecycle, scenario.period_samples()).unwrap();
                let mut controller = scenario.controller().unwrap();
                for event in events {
                    controller.apply(event, &mut NullSink).unwrap();
                }
                controller.finish(&mut NullSink).unwrap();
                assert_eq!(
                    controller.report(),
                    engine_report,
                    "{} (guarded={guarded})",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn lifecycle_events_closed_world_matches_batch() {
        let fleet = fleet(6, 2.0, 3);
        let scenario = ScenarioBuilder::new(fleet.clone())
            .servers(8)
            .policy(Policy::Bfd)
            .build()
            .unwrap();
        let batch = scenario.run().unwrap();
        let horizon = fleet.vms()[0].fine.len();
        let events = lifecycle_events(
            &fleet,
            &Lifecycle::all_at_start(fleet.len(), horizon).unwrap(),
            720,
        )
        .unwrap();
        let mut controller = scenario.controller().unwrap();
        for event in events {
            controller.apply(event, &mut NullSink).unwrap();
        }
        controller.finish(&mut NullSink).unwrap();
        assert_eq!(controller.report(), batch);
    }

    #[test]
    fn one_session_host_equals_direct_run() {
        let fleet = fleet(6, 2.0, 9);
        let horizon = fleet.vms()[0].fine.len();
        let lifecycle = churn(6, horizon, 9);
        let scenario = ScenarioBuilder::new(fleet.clone())
            .servers(8)
            .lifecycle(lifecycle.clone())
            .build()
            .unwrap();
        let direct = scenario.run().unwrap();
        let events = lifecycle_events(&fleet, &lifecycle, scenario.period_samples()).unwrap();
        let host = SessionHost::new(vec![scenario.controller_config()], 4).unwrap();
        let service = host.run(interleave(&[events])).unwrap();
        assert_eq!(service.sessions.len(), 1);
        assert_eq!(service.sessions[0], direct);
        assert_eq!(service.merged.sessions, 1);
        assert_eq!(service.merged.energy_joules, direct.energy.joules());
    }

    #[test]
    fn merged_report_sums_and_maxes_across_sessions() {
        let fleet_a = fleet(6, 2.0, 1);
        let fleet_b = fleet(9, 2.0, 2);
        let scenario_a = ScenarioBuilder::new(fleet_a.clone())
            .servers(8)
            .build()
            .unwrap();
        let scenario_b = ScenarioBuilder::new(fleet_b.clone())
            .servers(12)
            .policy(Policy::Ffd)
            .build()
            .unwrap();
        let all_at_start = |fleet: &VmFleet| {
            Lifecycle::all_at_start(fleet.len(), fleet.vms()[0].fine.len()).unwrap()
        };
        let schedule = interleave(&[
            lifecycle_events(&fleet_a, &all_at_start(&fleet_a), 720).unwrap(),
            lifecycle_events(&fleet_b, &all_at_start(&fleet_b), 720).unwrap(),
        ]);
        let host = SessionHost::new(
            vec![
                scenario_a.controller_config(),
                scenario_b.controller_config(),
            ],
            2,
        )
        .unwrap();
        let service = host.run(schedule).unwrap();
        let merged = &service.merged;
        assert_eq!(merged.sessions, 2);
        let expect_joules: f64 = service.sessions.iter().map(|r| r.energy.joules()).sum();
        assert_eq!(merged.energy_joules, expect_joules);
        assert_eq!(
            merged.violation_instances,
            service
                .sessions
                .iter()
                .map(|r| r.violation_instances)
                .sum::<usize>()
        );
        assert_eq!(
            merged.migrations,
            service
                .sessions
                .iter()
                .map(|r| r.total_migrations())
                .sum::<usize>()
        );
        let worst = service
            .sessions
            .iter()
            .map(|r| r.max_violation_percent)
            .fold(0.0, f64::max);
        assert_eq!(merged.max_violation_percent, worst);
    }

    #[test]
    fn unknown_session_is_rejected_before_anything_runs() {
        let fleet = fleet(3, 2.0, 5);
        let scenario = ScenarioBuilder::new(fleet).servers(4).build().unwrap();
        let host = SessionHost::new(vec![scenario.controller_config()], 1).unwrap();
        let err = host
            .run(vec![SessionEvent {
                session: 3,
                event: VmEvent::Tick,
            }])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownSession {
                session: 3,
                sessions: 1
            }
        );
    }

    #[test]
    fn empty_configs_and_zero_workers_are_rejected() {
        assert!(matches!(
            SessionHost::new(vec![], 2),
            Err(SimError::InvalidParameter(_))
        ));
        let fleet = fleet(3, 2.0, 5);
        let scenario = ScenarioBuilder::new(fleet).servers(4).build().unwrap();
        assert!(matches!(
            SessionHost::new(vec![scenario.controller_config()], 0),
            Err(SimError::InvalidParameter(_))
        ));
    }

    #[test]
    fn more_workers_than_sessions_is_fine_and_deterministic() {
        let fleet = fleet(6, 2.0, 4);
        let horizon = fleet.vms()[0].fine.len();
        let events = lifecycle_events(
            &fleet,
            &Lifecycle::all_at_start(fleet.len(), horizon).unwrap(),
            720,
        )
        .unwrap();
        let scenario = ScenarioBuilder::new(fleet).servers(8).build().unwrap();
        let configs = vec![scenario.controller_config(); 3];
        let narrow = SessionHost::new(configs.clone(), 1).unwrap();
        let wide = SessionHost::new(configs, 16).unwrap();
        let schedule = interleave(&[events.clone(), events.clone(), events]);
        assert_eq!(
            narrow.run(schedule.clone()).unwrap(),
            wide.run(schedule).unwrap()
        );
    }

    #[test]
    fn failing_session_reports_the_smallest_session_id() {
        let fleet = fleet(3, 2.0, 5);
        let scenario = ScenarioBuilder::new(fleet).servers(4).build().unwrap();
        let host = SessionHost::new(vec![scenario.controller_config(); 4], 2).unwrap();
        // Sessions 1 and 3 both depart a VM that never arrived.
        let schedule = vec![
            SessionEvent {
                session: 3,
                event: VmEvent::Depart { id: 99 },
            },
            SessionEvent {
                session: 1,
                event: VmEvent::Depart { id: 7 },
            },
        ];
        assert_eq!(
            host.run(schedule).unwrap_err(),
            SimError::UnknownVm { id: 7 },
            "smallest failing session id wins, regardless of schedule order"
        );
    }

    #[test]
    fn interleave_round_robins_and_preserves_per_session_order() {
        let a = vec![VmEvent::Tick, VmEvent::Depart { id: 0 }];
        let b = vec![VmEvent::Tick];
        let schedule = interleave(&[a, b]);
        assert_eq!(schedule.len(), 3);
        assert_eq!(
            (
                schedule[0].session,
                schedule[1].session,
                schedule[2].session
            ),
            (0, 1, 0)
        );
        assert_eq!(schedule[2].event, VmEvent::Depart { id: 0 });
    }
}
