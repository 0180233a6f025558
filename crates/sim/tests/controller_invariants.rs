//! Stateful model-based invariant harness for [`DatacenterController`].
//!
//! Random `Arrive`/`Depart`/`Tick` sequences are driven through the
//! controller for **every** combination of the five policies, the
//! re-pack schedules (the three [`RepackTrigger`]s, with and without a
//! composed [`QosGuard`], static and adaptive slack) and
//! static/dynamic DVFS, while a naive reference model (the live VM
//! set, the event clock, and the armed state of the fragmentation and
//! QoS checks) predicts what must hold after every single event:
//!
//! * **membership consistency** — while mid-period, the placement
//!   holds exactly the live VMs, each on exactly one server, and the
//!   per-class server usage never exceeds what the fleet provides;
//! * **no over-capacity server** — for the capacity-respecting
//!   policies (BFD/FFD/Proposed) under schedules that re-pack every
//!   boundary *or* carry a [`QosGuard`] (whose boundary capacity check
//!   force-repacks overcommitted kept servers), no multi-VM server's
//!   predicted demand exceeds its own class capacity, and the live
//!   Eqn (3) bound ([`fragmentation_estimate`]) really is a lower
//!   bound on the active server count;
//! * **monotone event clock** — `Tick` advances the clock by exactly
//!   one sample; `Arrive`/`Depart` leave it alone;
//! * **the fragmentation trigger fires iff its predicate holds** — an
//!   off-cycle re-pack happens at a tick exactly when the check is
//!   armed (a departure evicted a placed VM), no QoS re-pack consumed
//!   it, and the Eqn (3) bound sits at least `slack` servers below the
//!   active count — `slack` read live from
//!   [`current_slack`], so the adaptive [`SlackController`] is pinned
//!   by the same predicate — with the event payload reporting exactly
//!   those numbers; `Periodic` never fires one;
//! * **the QoS guard fires iff armed ∧ ratio > threshold** — a
//!   guard re-pack happens at a tick exactly when a violation armed
//!   the check and the period's observed worst per-server violation
//!   ratio exceeds the guard's threshold (and someone is live to
//!   re-pack), with the event carrying exactly that violation count;
//!   without a configured guard it never fires.
//!
//! A second **chaos axis** layers random `ServerFail`/`ServerRecover`
//! events over the same matrix and checks the fault-tolerance
//! contract after every event:
//!
//! * **no VM rides a failed server** — post-event, every failed
//!   server's membership is empty and its health reads `Failed`
//!   exactly when the model says so;
//! * **membership is conserved under failure** — mid-period, the
//!   placed VMs and the deferred-admission queue partition the live
//!   set (no VM lost, none duplicated);
//! * **fault counters are monotone** — failures, recoveries,
//!   evacuations and the deferred-queue peak never decrease, and
//!   `degraded()` reads exactly "some server failed or someone is
//!   deferred";
//! * **degraded mode suspends consolidation** — no fragmentation
//!   re-pack fires while degraded (the QoS guard stays armed), and
//!   evacuation re-pack events never count as off-cycle re-packs;
//! * **the queue drains after recovery** — once every server is back
//!   and the horizon runs out, no VM is left deferred.
//!
//! [`DatacenterController`]: cavm_sim::DatacenterController
//! [`RepackTrigger`]: cavm_sim::RepackTrigger
//! [`QosGuard`]: cavm_sim::QosGuard
//! [`SlackController`]: cavm_sim::SlackController
//! [`current_slack`]: cavm_sim::DatacenterController::current_slack
//! [`fragmentation_estimate`]: cavm_sim::DatacenterController::fragmentation_estimate

use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::{ServerClass, ServerFleet};
use cavm_power::LinearPowerModel;
use cavm_sim::{
    ControllerConfig, DatacenterController, MetricSink, OvercommitConfig, Policy, QosGuard,
    RepackEvent, RepackReason, RepackTrigger, ShardedController,
};
use cavm_trace::{Reference, SimRng, TimeSeries};
use proptest::prelude::*;
use std::collections::BTreeSet;

const PERIOD: usize = 32;
const TOTAL: usize = 3 * PERIOD + PERIOD / 2;
const VMS: usize = 6;
const FIT_EPS: f64 = 1e-9;

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

/// One re-pack schedule under test: the trigger, the optional QoS
/// guard composed onto it, and the optional adaptive-slack bound.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    trigger: RepackTrigger,
    guard: Option<QosGuard>,
    adaptive_slack_max: Option<u32>,
    overcommit: Option<OvercommitConfig>,
}

impl Schedule {
    const fn plain(trigger: RepackTrigger) -> Self {
        Self {
            trigger,
            guard: None,
            adaptive_slack_max: None,
            overcommit: None,
        }
    }
}

/// The schedule axis: the PR 4 trigger matrix plus the guarded and
/// adaptive variants this harness exists to pin.
fn schedules() -> [Schedule; 7] {
    [
        Schedule::plain(RepackTrigger::Periodic),
        Schedule::plain(RepackTrigger::Fragmentation { slack: 1 }),
        Schedule::plain(RepackTrigger::Hybrid { slack: 2 }),
        // The QoS-guarded fragmentation schedule of the adaptive
        // experiment (low threshold so the guard actually exercises).
        Schedule {
            trigger: RepackTrigger::Fragmentation { slack: 1 },
            guard: Some(QosGuard {
                violation_ratio: 0.10,
            }),
            adaptive_slack_max: None,
            overcommit: None,
        },
        // Guard composed onto the paper's periodic clock.
        Schedule {
            trigger: RepackTrigger::Periodic,
            guard: Some(QosGuard {
                violation_ratio: 0.05,
            }),
            adaptive_slack_max: None,
            overcommit: None,
        },
        // Adaptive slack walking in [1, 3], with a guard on top.
        Schedule {
            trigger: RepackTrigger::Hybrid { slack: 1 },
            guard: Some(QosGuard {
                violation_ratio: 0.05,
            }),
            adaptive_slack_max: Some(3),
            overcommit: None,
        },
        // Deliberate correlation-gap overcommit on the guarded
        // fragmentation schedule (Fragmentation keeps `capacity_binds`
        // honest: the plain-capacity invariant is not asserted here,
        // the margin-bounded one below is).
        Schedule {
            trigger: RepackTrigger::Fragmentation { slack: 1 },
            guard: Some(QosGuard {
                violation_ratio: 0.10,
            }),
            adaptive_slack_max: None,
            overcommit: Some(OvercommitConfig {
                margin: 0.15,
                max_margin: 0.25,
            }),
        },
    ]
}

/// Whether per-server predicted load is bounded by the class capacity
/// for this combination. PCP and SuperVM legitimately overcommit
/// (off-peak provisioning / joint sizing), and a placement-keeping
/// (fragmentation-only) schedule lets predictions drift over kept
/// bins — with or without a [`QosGuard`], whose checks bound observed
/// *violations*, not predicted load (a kept server whose summed peaks
/// exceed capacity without ever violating is the correlation win, and
/// is deliberately left alone). Capacity binds only for the
/// boundary-re-packing schedules on capacity-respecting policies.
fn capacity_binds(policy: Policy, schedule: Schedule) -> bool {
    schedule.trigger.periodic_repacks()
        && matches!(policy, Policy::Bfd | Policy::Ffd | Policy::Proposed(_))
}

/// One VM's randomly drawn schedule.
#[derive(Debug, Clone, Copy)]
struct Plan {
    arrival: usize,
    /// Departure sample within the run, when the lease is bounded.
    departure: Option<usize>,
}

/// Draws a departure-heavy schedule: arrivals in the first 70% of the
/// horizon, ~75% of leases bounded and short, so fragmentation
/// actually happens.
fn draw_plans(rng: &mut SimRng) -> Vec<Plan> {
    (0..VMS)
        .map(|_| {
            let arrival = rng.below(TOTAL * 7 / 10);
            let departure = rng.bernoulli(0.75).then(|| {
                let life = 1 + rng.below(TOTAL / 2);
                arrival + life
            });
            Plan {
                arrival,
                departure: departure.filter(|&d| d < TOTAL),
            }
        })
        .collect()
}

/// A synthetic demand trace in [0.2, 4.0] cores.
fn draw_trace(rng: &mut SimRng, len: usize) -> TimeSeries {
    let base = rng.range_f64(0.5, 2.5);
    let values = (0..len.max(1))
        .map(|_| (base + rng.range_f64(-0.3, 1.5)).clamp(0.2, 4.0))
        .collect();
    TimeSeries::new(5.0, values).expect("non-empty synthetic trace")
}

/// Records every repack while forwarding nothing else.
#[derive(Default)]
struct RepackLog {
    events: Vec<RepackEvent>,
}

impl MetricSink for RepackLog {
    fn on_repack(&mut self, event: &RepackEvent) {
        self.events.push(*event);
    }
}

impl RepackLog {
    fn frag_fired(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.reason, RepackReason::Fragmentation { .. }))
            .count()
    }

    fn qos_fired(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.reason, RepackReason::QosGuard { .. }))
            .count()
    }

    fn evacuations_fired(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.reason, RepackReason::Evacuation { .. }))
            .count()
    }

    /// Off-cycle re-packs as `SimReport::offcycle_repacks` counts
    /// them: fragmentation- plus guard-fired (boundary `Overcommit`
    /// capacity checks ride the period clock).
    fn offcycle(&self) -> usize {
        self.frag_fired() + self.qos_fired()
    }
}

/// The naive reference model: who is live, and where the clock stands.
struct Model {
    live: BTreeSet<usize>,
    clock: usize,
}

/// Recomputes the Eqn (3) bound from public state only — must agree
/// with the controller's own `fragmentation_estimate`.
fn independent_estimate(c: &DatacenterController, fleet: &ServerFleet) -> usize {
    let demands = c.predicted_vms();
    let total: f64 = c
        .placement()
        .servers()
        .iter()
        .flatten()
        .map(|&id| demands[id].demand)
        .sum();
    fleet.estimate_server_count(total)
}

fn check_invariants(
    c: &DatacenterController,
    model: &Model,
    fleet: &ServerFleet,
    policy: Policy,
    schedule: Schedule,
) -> Result<(), TestCaseError> {
    let trigger = schedule.trigger;
    prop_assert_eq!(c.clock(), model.clock, "clock diverged from the model");
    prop_assert_eq!(c.live_vms(), model.live.len());

    let placement = c.placement();
    prop_assert_eq!(placement.classes().len(), placement.servers().len());

    // Per-class server usage never exceeds the fleet's supply.
    let mut used = vec![0usize; fleet.len()];
    for &class in placement.classes() {
        prop_assert!(class < fleet.len(), "placement names class {}", class);
        used[class] += 1;
    }
    for (class, &n) in used.iter().enumerate() {
        prop_assert!(
            n <= fleet.classes()[class].count(),
            "class {} uses {} of {} servers",
            class,
            n,
            fleet.classes()[class].count()
        );
    }

    if !c.mid_period() {
        // Between periods the placement is stale by contract; only the
        // structural checks above apply.
        return Ok(());
    }

    // Membership: exactly the live VMs, each exactly once.
    let mut members: Vec<usize> = placement.servers().iter().flatten().copied().collect();
    members.sort_unstable();
    let mut expected: Vec<usize> = model.live.iter().copied().collect();
    expected.sort_unstable();
    prop_assert_eq!(
        members,
        expected,
        "mid-period membership must equal the live set ({:?})",
        trigger
    );

    // The overcommit axis, part 1: the live per-class margins never
    // leave [0, max_margin] no matter how the feedback walks them.
    if let Some(oc) = schedule.overcommit {
        let margins = c.overcommit_margins().expect("overcommit is configured");
        prop_assert_eq!(margins.len(), fleet.len());
        for (class, &m) in margins.iter().enumerate() {
            prop_assert!(
                (0.0..=oc.max_margin + FIT_EPS).contains(&m),
                "class {} margin {} outside [0, {}]",
                class,
                m,
                oc.max_margin
            );
        }
    }

    if capacity_binds(policy, schedule) {
        let demands = c.predicted_vms();
        for (s, server) in placement.servers().iter().enumerate() {
            if server.len() < 2 {
                continue;
            }
            let load: f64 = server.iter().map(|&id| demands[id].demand).sum();
            let cores = fleet.classes()[placement.classes()[s]].cores();
            prop_assert!(
                load <= cores + FIT_EPS,
                "{:?}/{:?}: server {} packs {} cores onto {}",
                policy.name(),
                trigger,
                s,
                load,
                cores
            );
        }
        // With every server inside its own capacity, Eqn (3) is a
        // lower bound on the active count.
        let estimate = independent_estimate(c, fleet);
        prop_assert!(
            estimate <= placement.active_server_count(),
            "Eqn 3 bound {} exceeds {} active servers",
            estimate,
            placement.active_server_count()
        );
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn run_case(
    seed: u64,
    fleet: &ServerFleet,
    policy: Policy,
    schedule: Schedule,
    dvfs_mode: DvfsMode,
) -> Result<(), TestCaseError> {
    let trigger = schedule.trigger;
    let mut rng = SimRng::new(seed);
    let plans = draw_plans(&mut rng);
    let mut controller = DatacenterController::new(ControllerConfig {
        server_fleet: fleet.clone(),
        policy,
        repack_trigger: trigger,
        qos_guard: schedule.guard,
        adaptive_slack_max: schedule.adaptive_slack_max,
        overcommit: schedule.overcommit,
        dvfs_mode,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: 2.0,
        sample_dt_s: 5.0,
        max_deferred: 1024,
    })
    .expect("harness config is valid");
    let mut sink = RepackLog::default();
    let mut model = Model {
        live: BTreeSet::new(),
        clock: 0,
    };

    for k in 0..TOTAL {
        for (id, plan) in plans.iter().enumerate() {
            if plan.departure == Some(k) {
                controller
                    .depart(id)
                    .map_err(|e| TestCaseError::fail(format!("depart({id}) at {k}: {e}")))?;
                model.live.remove(&id);
                check_invariants(&controller, &model, fleet, policy, schedule)?;
            }
        }
        for (id, plan) in plans.iter().enumerate() {
            if plan.arrival == k {
                let horizon = plan.departure.unwrap_or(TOTAL);
                let trace = draw_trace(&mut rng, horizon - k);
                let lease = plan.departure.map(|d| d - k);
                controller
                    .arrive(id, trace, lease, &mut sink)
                    .map_err(|e| TestCaseError::fail(format!("arrive({id}) at {k}: {e}")))?;
                model.live.insert(id);
                check_invariants(&controller, &model, fleet, policy, schedule)?;
                // The overcommit axis, part 2: at every admission the
                // landing server's predicted per-VM sum stays within
                // capacity x (1 + max_margin) — the deliberate bet is
                // bounded at the moment it is made. (Standing
                // placements may drift past this between boundaries on
                // placement-keeping schedules; that is the guard's
                // territory, not the admission gate's.)
                // Deferred arrivals (the fleet genuinely full even
                // with the margin) have no landing server to check.
                if let (Some(oc), Some(s)) =
                    (schedule.overcommit, controller.placement().server_of(id))
                {
                    let placement = controller.placement();
                    let members = &placement.servers()[s];
                    if members.len() >= 2 {
                        let demands = controller.predicted_vms();
                        let load: f64 = members.iter().map(|&i| demands[i].demand).sum();
                        let cores = fleet.classes()[placement.classes()[s]].cores();
                        prop_assert!(
                            load <= cores * (1.0 + oc.max_margin) + FIT_EPS,
                            "admission of vm {} put {} cores on a {}-core server \
                             (margin cap {})",
                            id,
                            load,
                            cores,
                            oc.max_margin
                        );
                    }
                }
            }
        }

        // Both off-cycle predicates, read through public state just
        // before the tick that would act on them. The guard outranks
        // the fragmentation check, whose armed state it consumes.
        let mid = controller.mid_period();
        let live = controller.live_vms();
        let qos_armed = controller.qos_armed();
        let worst = controller.period_worst_violations();
        prop_assert!(
            (controller.period_violation_ratio() - worst as f64 / PERIOD as f64).abs() < 1e-12
        );
        let expect_qos = mid
            && qos_armed
            && live > 0
            && schedule.guard.is_some_and(|g| g.exceeded(worst, PERIOD));
        let armed = controller.repack_armed();
        let estimate = independent_estimate(&controller, fleet);
        prop_assert_eq!(estimate, controller.fragmentation_estimate());
        let active = controller.placement().active_server_count();
        let slack = controller.current_slack();
        prop_assert_eq!(slack.is_some(), trigger.slack().is_some());
        let expect_frag = !expect_qos
            && mid
            && armed
            && slack.is_some_and(|s| active.saturating_sub(estimate) >= s as usize);

        let (frag_before, qos_before) = (sink.frag_fired(), sink.qos_fired());
        controller
            .tick(&mut sink)
            .map_err(|e| TestCaseError::fail(format!("tick at {k}: {e}")))?;
        model.clock += 1;
        let frag = sink.frag_fired() - frag_before;
        let qos = sink.qos_fired() - qos_before;
        prop_assert_eq!(
            qos,
            usize::from(expect_qos),
            "{:?} at sample {}: qos_armed={} worst={} guard={:?}",
            trigger,
            k,
            qos_armed,
            worst,
            schedule.guard
        );
        prop_assert_eq!(
            frag,
            usize::from(expect_frag),
            "{:?} at sample {}: armed={} estimate={} active={} slack={:?} qos_fired={}",
            trigger,
            k,
            armed,
            estimate,
            active,
            slack,
            qos
        );
        if frag + qos == 1 {
            let event = *sink
                .events
                .iter()
                .rev()
                .find(|e| !matches!(e.reason, RepackReason::Overcommit { .. }))
                .expect("a repack was recorded");
            prop_assert_eq!(event.sample, k);
            if frag == 1 {
                prop_assert_eq!(
                    event.reason,
                    RepackReason::Fragmentation { estimate, active }
                );
            } else {
                prop_assert_eq!(event.reason, RepackReason::QosGuard { violations: worst });
            }
            prop_assert_eq!(event.servers_before, active);
            prop_assert_eq!(event.slack_after, controller.current_slack());
            if let Some(max) = schedule.adaptive_slack_max {
                let s = event.slack_after.expect("fragmentation dimension");
                prop_assert!(trigger.slack().unwrap() <= s && s <= max);
            }
        }
        check_invariants(&controller, &model, fleet, policy, schedule)?;
    }

    controller
        .finish(&mut sink)
        .map_err(|e| TestCaseError::fail(format!("finish: {e}")))?;
    let report = controller.report();
    prop_assert_eq!(report.offcycle_repacks, sink.offcycle());
    prop_assert_eq!(report.periods.len(), TOTAL / PERIOD);
    if schedule.guard.is_none() {
        // No guard: nothing may fire guard-shaped re-packs, on- or
        // off-cycle.
        prop_assert_eq!(sink.qos_fired(), 0);
        prop_assert!(!sink
            .events
            .iter()
            .any(|e| matches!(e.reason, RepackReason::Overcommit { .. })));
    }
    if trigger == RepackTrigger::Periodic && schedule.guard.is_none() {
        prop_assert_eq!(report.offcycle_repacks, 0);
        // Every repack rode the period clock.
        prop_assert!(sink
            .events
            .iter()
            .all(|e| e.reason == RepackReason::Periodic));
    }
    Ok(())
}

/// Monotone fault-counter snapshot.
#[derive(Default, Clone, Copy)]
struct FaultCounters {
    failures: usize,
    recoveries: usize,
    evacuations: usize,
    deferred_peak: usize,
}

impl FaultCounters {
    fn read(c: &DatacenterController) -> Self {
        Self {
            failures: c.server_failures(),
            recoveries: c.server_recoveries(),
            evacuations: c.evacuations(),
            deferred_peak: c.deferred_peak(),
        }
    }
}

/// The chaos-axis invariants, checked after every single event.
fn check_chaos_invariants(
    c: &DatacenterController,
    model: &Model,
    down: &BTreeSet<usize>,
    last: &mut FaultCounters,
) -> Result<(), TestCaseError> {
    // Health is tracked per provisioned server and agrees with the
    // model's down set exactly.
    let health = c.server_health();
    prop_assert_eq!(health.len(), c.placement().server_count());
    for (s, h) in health.iter().enumerate() {
        prop_assert_eq!(
            h.is_failed(),
            down.contains(&s),
            "server {} health diverged from the model",
            s
        );
    }
    prop_assert_eq!(c.failed_servers(), down.len());

    // No VM ever rides a failed server.
    for &s in down {
        prop_assert!(
            c.placement().servers()[s].is_empty(),
            "failed server {} still hosts VMs",
            s
        );
    }

    // Placed ∪ deferred partitions the live set (mid-period; between
    // periods the placement is stale by contract, but the deferred
    // queue must still only hold live VMs).
    let placed: BTreeSet<usize> = c.placement().servers().iter().flatten().copied().collect();
    let deferred: BTreeSet<usize> = c.deferred_ids().into_iter().collect();
    prop_assert_eq!(deferred.len(), c.deferred_vms(), "queue holds duplicates");
    prop_assert!(
        deferred.is_subset(&model.live),
        "deferred queue holds dead VMs"
    );
    if c.mid_period() {
        prop_assert!(
            placed.is_disjoint(&deferred),
            "a VM is both placed and deferred"
        );
        let mut covered = placed;
        covered.extend(&deferred);
        prop_assert_eq!(
            &covered,
            &model.live,
            "placed ∪ deferred must equal the live set"
        );
    }

    // Degraded is exactly "capacity lost or someone waiting".
    prop_assert_eq!(
        c.degraded(),
        !down.is_empty() || c.deferred_vms() > 0,
        "degraded() diverged from its definition"
    );

    // Counters only ever grow.
    let now = FaultCounters::read(c);
    prop_assert!(now.failures >= last.failures, "failure counter regressed");
    prop_assert!(
        now.recoveries >= last.recoveries,
        "recovery counter regressed"
    );
    prop_assert!(
        now.evacuations >= last.evacuations,
        "evacuation counter regressed"
    );
    prop_assert!(
        now.deferred_peak >= last.deferred_peak.max(c.deferred_vms()),
        "deferred peak fell below the live queue"
    );
    *last = now;
    Ok(())
}

/// Drives one policy × schedule combination through the departure-heavy
/// plan with random server failures layered on top. Failures stop (and
/// everything recovers) one period before the horizon so the drained
/// end state is checkable.
fn run_chaos_case(
    seed: u64,
    fleet: &ServerFleet,
    policy: Policy,
    schedule: Schedule,
) -> Result<(usize, usize), TestCaseError> {
    let mut rng = SimRng::new(seed);
    let plans = draw_plans(&mut rng);
    let mut fault_rng = SimRng::new(seed ^ 0x5EED_FA17);
    let mut controller = DatacenterController::new(ControllerConfig {
        server_fleet: fleet.clone(),
        policy,
        repack_trigger: schedule.trigger,
        qos_guard: schedule.guard,
        adaptive_slack_max: schedule.adaptive_slack_max,
        overcommit: schedule.overcommit,
        dvfs_mode: DvfsMode::Static,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: 2.0,
        sample_dt_s: 5.0,
        max_deferred: 1024,
    })
    .expect("harness config is valid");
    let mut sink = RepackLog::default();
    let mut model = Model {
        live: BTreeSet::new(),
        clock: 0,
    };
    let mut down: BTreeSet<usize> = BTreeSet::new();
    let mut counters = FaultCounters::default();
    let calm_after = TOTAL - PERIOD;

    for k in 0..TOTAL {
        // Recoveries first, as the replay engine delivers them.
        if k == calm_after {
            for server in std::mem::take(&mut down) {
                controller
                    .server_recover(server, &mut sink)
                    .map_err(|e| TestCaseError::fail(format!("recover({server}) at {k}: {e}")))?;
            }
            check_chaos_invariants(&controller, &model, &down, &mut counters)?;
        } else if !down.is_empty() && fault_rng.bernoulli(0.3) {
            let pick = *down
                .iter()
                .nth(fault_rng.below(down.len()))
                .expect("non-empty down set");
            down.remove(&pick);
            controller
                .server_recover(pick, &mut sink)
                .map_err(|e| TestCaseError::fail(format!("recover({pick}) at {k}: {e}")))?;
            check_chaos_invariants(&controller, &model, &down, &mut counters)?;
        }

        for (id, plan) in plans.iter().enumerate() {
            if plan.departure == Some(k) {
                controller
                    .depart(id)
                    .map_err(|e| TestCaseError::fail(format!("depart({id}) at {k}: {e}")))?;
                model.live.remove(&id);
                check_chaos_invariants(&controller, &model, &down, &mut counters)?;
            }
        }
        for (id, plan) in plans.iter().enumerate() {
            if plan.arrival == k {
                let horizon = plan.departure.unwrap_or(TOTAL);
                let trace = draw_trace(&mut rng, horizon - k);
                let lease = plan.departure.map(|d| d - k);
                controller
                    .arrive(id, trace, lease, &mut sink)
                    .map_err(|e| TestCaseError::fail(format!("arrive({id}) at {k}: {e}")))?;
                model.live.insert(id);
                check_chaos_invariants(&controller, &model, &down, &mut counters)?;
            }
        }

        // Random failure of a provisioned, currently-healthy server.
        let provisioned = controller.placement().server_count();
        if k < calm_after && provisioned > down.len() && fault_rng.bernoulli(0.08) {
            let healthy: Vec<usize> = (0..provisioned).filter(|s| !down.contains(s)).collect();
            let pick = healthy[fault_rng.below(healthy.len())];
            controller
                .server_fail(pick, &mut sink)
                .map_err(|e| TestCaseError::fail(format!("fail({pick}) at {k}: {e}")))?;
            down.insert(pick);
            check_chaos_invariants(&controller, &model, &down, &mut counters)?;
        }

        // While degraded, consolidation is suspended: no fragmentation
        // re-pack may fire at this tick (the QoS guard stays live).
        let degraded_before = controller.degraded();
        let frag_before = sink.frag_fired();
        controller
            .tick(&mut sink)
            .map_err(|e| TestCaseError::fail(format!("tick at {k}: {e}")))?;
        model.clock += 1;
        if degraded_before {
            prop_assert_eq!(
                sink.frag_fired(),
                frag_before,
                "a fragmentation re-pack fired while degraded at sample {}",
                k
            );
        }
        check_chaos_invariants(&controller, &model, &down, &mut counters)?;
    }

    // Everything recovered one period ago and every tick retries the
    // queue: nobody may still be waiting.
    prop_assert!(down.is_empty());
    prop_assert_eq!(
        controller.deferred_vms(),
        0,
        "deferred queue failed to drain after recovery"
    );
    controller
        .finish(&mut sink)
        .map_err(|e| TestCaseError::fail(format!("finish: {e}")))?;
    let report = controller.report();
    // Evacuation re-packs are accounted separately from off-cycle
    // consolidation, and the report mirrors the counters.
    prop_assert_eq!(report.offcycle_repacks, sink.offcycle());
    prop_assert_eq!(report.server_failures, counters.failures);
    prop_assert_eq!(report.evacuations, counters.evacuations);
    prop_assert_eq!(report.deferred_peak, counters.deferred_peak);
    // At most one evacuation event per failure (empty servers fail
    // silently), and moved evacuees imply a streamed evacuation event.
    prop_assert!(sink.evacuations_fired() <= counters.failures);
    if counters.evacuations > 0 {
        prop_assert!(sink.evacuations_fired() > 0);
    }
    Ok((counters.failures, counters.evacuations))
}

fn uniform_fleet() -> ServerFleet {
    ServerFleet::uniform(8, 8.0, LinearPowerModel::xeon_e5410()).expect("valid uniform fleet")
}

fn hetero_fleet() -> ServerFleet {
    let xeon = LinearPowerModel::xeon_e5410;
    ServerFleet::new(vec![
        ServerClass::new("quad", 6, 4.0, xeon().scaled(0.6).expect("factor > 0"))
            .expect("valid class"),
        ServerClass::new("octo", 4, 8.0, xeon()).expect("valid class"),
        ServerClass::new("hexadeca", 2, 16.0, xeon().scaled(1.9).expect("factor > 0"))
            .expect("valid class"),
    ])
    .expect("valid hetero fleet")
}

proptest! {
    /// The full matrix: every policy × schedule (triggers, guards,
    /// adaptive slack) × DVFS mode survives a random departure-heavy
    /// event sequence on a uniform fleet with all per-event invariants
    /// intact. Dynamic DVFS multiplies only the plain-trigger
    /// schedules (the guard logic never reads the governor) to bound
    /// runtime.
    #[test]
    fn invariants_hold_for_all_policies_schedules_and_dvfs(seed in any::<u64>()) {
        let fleet = uniform_fleet();
        for policy in five_policies() {
            for schedule in schedules() {
                run_case(seed, &fleet, policy, schedule, DvfsMode::Static)?;
                if schedule.guard.is_none() {
                    run_case(
                        seed,
                        &fleet,
                        policy,
                        schedule,
                        DvfsMode::Dynamic { interval_samples: 8 },
                    )?;
                }
            }
        }
    }

    /// Heterogeneous fleets keep the same invariants (class counts and
    /// per-class capacities included); sampled on the two most
    /// structurally different policies to bound runtime.
    #[test]
    fn invariants_hold_on_heterogeneous_fleets(seed in any::<u64>()) {
        let fleet = hetero_fleet();
        for policy in [Policy::Proposed(Default::default()), Policy::Bfd] {
            for schedule in schedules() {
                run_case(seed, &fleet, policy, schedule, DvfsMode::Static)?;
            }
        }
    }

    /// The chaos axis: every policy × schedule survives the same
    /// departure-heavy sequence with random server failures and
    /// recoveries layered on top, with every fault-tolerance invariant
    /// checked after every event.
    #[test]
    fn chaos_invariants_hold_for_all_policies_and_schedules(seed in any::<u64>()) {
        let fleet = uniform_fleet();
        for policy in five_policies() {
            for schedule in schedules() {
                run_chaos_case(seed, &fleet, policy, schedule)?;
            }
        }
    }

    /// Chaos on a heterogeneous fleet: class-aware evacuation targets
    /// and per-class capacity bookkeeping under failure.
    #[test]
    fn chaos_invariants_hold_on_heterogeneous_fleets(seed in any::<u64>()) {
        let fleet = hetero_fleet();
        for policy in [Policy::Proposed(Default::default()), Policy::Bfd] {
            for schedule in schedules() {
                run_chaos_case(seed, &fleet, policy, schedule)?;
            }
        }
    }
}

/// Builds the harness [`ControllerConfig`] for one combination.
fn harness_config(
    fleet: &ServerFleet,
    policy: Policy,
    schedule: Schedule,
    dvfs_mode: DvfsMode,
) -> ControllerConfig {
    ControllerConfig {
        server_fleet: fleet.clone(),
        policy,
        repack_trigger: schedule.trigger,
        qos_guard: schedule.guard,
        adaptive_slack_max: schedule.adaptive_slack_max,
        overcommit: schedule.overcommit,
        dvfs_mode,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: 2.0,
        sample_dt_s: 5.0,
        max_deferred: 1024,
    }
}

/// The cells axis, part 1: a [`ShardedController`] configured with a
/// single cell must be **bit-identical** to the flat controller —
/// same terminal report (energy compared bitwise) *and* the same
/// streamed re-pack event sequence — through the router, the per-cell
/// sink adapter and the report merge that any cell count takes. The
/// VM ids are sparse (holes below the highest id) and arrive out of
/// order, so a sole cell that renumbered its VMs would break the flat
/// controller's id-ordered ties and diverge.
fn run_single_cell_equivalence_case(
    seed: u64,
    fleet: &ServerFleet,
    policy: Policy,
    schedule: Schedule,
    dvfs_mode: DvfsMode,
) -> Result<(), TestCaseError> {
    let mut rng = SimRng::new(seed);
    let plans = draw_plans(&mut rng);
    let traces: Vec<TimeSeries> = plans
        .iter()
        .map(|plan| {
            let horizon = plan.departure.unwrap_or(TOTAL);
            draw_trace(&mut rng, horizon - plan.arrival)
        })
        .collect();
    // Up to two unused ids before each VM's.
    let mut next_id = 0;
    let ids: Vec<usize> = plans
        .iter()
        .map(|_| {
            let id = next_id + rng.below(3);
            next_id = id + 1;
            id
        })
        .collect();
    let mut flat = DatacenterController::new(harness_config(fleet, policy, schedule, dvfs_mode))
        .expect("harness config is valid");
    let mut sharded = ShardedController::new(harness_config(fleet, policy, schedule, dvfs_mode), 1)
        .expect("harness config is valid");
    let mut flat_sink = RepackLog::default();
    let mut sharded_sink = RepackLog::default();

    for k in 0..TOTAL {
        for (plan, &id) in plans.iter().zip(&ids) {
            if plan.departure == Some(k) {
                flat.depart(id)
                    .map_err(|e| TestCaseError::fail(format!("flat depart({id}) at {k}: {e}")))?;
                sharded
                    .depart(id)
                    .map_err(|e| TestCaseError::fail(format!("cell depart({id}) at {k}: {e}")))?;
            }
        }
        for ((plan, trace), &id) in plans.iter().zip(&traces).zip(&ids) {
            if plan.arrival == k {
                let lease = plan.departure.map(|d| d - k);
                flat.arrive(id, trace.clone(), lease, &mut flat_sink)
                    .map_err(|e| TestCaseError::fail(format!("flat arrive({id}) at {k}: {e}")))?;
                sharded
                    .arrive(id, trace.clone(), lease, &mut sharded_sink)
                    .map_err(|e| TestCaseError::fail(format!("cell arrive({id}) at {k}: {e}")))?;
            }
        }
        flat.tick(&mut flat_sink)
            .map_err(|e| TestCaseError::fail(format!("flat tick at {k}: {e}")))?;
        sharded
            .tick(&mut sharded_sink)
            .map_err(|e| TestCaseError::fail(format!("cell tick at {k}: {e}")))?;
        prop_assert_eq!(flat.clock(), sharded.clock());
        prop_assert_eq!(flat.live_vms(), sharded.live_vms());
    }
    prop_assert_eq!(
        &flat_sink.events,
        &sharded_sink.events,
        "single-cell re-pack stream diverged from flat ({:?}/{:?})",
        policy.name(),
        schedule.trigger
    );
    let a = flat.report();
    let b = sharded.report();
    prop_assert_eq!(
        a.energy.joules().to_bits(),
        b.energy.joules().to_bits(),
        "single-cell energy diverged bitwise ({:?}/{:?})",
        policy.name(),
        schedule.trigger
    );
    prop_assert_eq!(a, b, "single-cell report diverged from flat");
    Ok(())
}

/// The cells axis, part 2: with several cells, sketch-routed admission
/// must never violate **per-class capacity inside any cell** — every
/// cell's placement uses at most the servers its sub-fleet provides,
/// the sub-fleets partition the global fleet exactly, the union of the
/// cells' live VMs matches the model, and the merged report is the sum
/// of its parts.
fn run_multi_cell_case(
    seed: u64,
    fleet: &ServerFleet,
    policy: Policy,
    cells: usize,
) -> Result<(), TestCaseError> {
    let schedule = Schedule::plain(RepackTrigger::Periodic);
    let mut rng = SimRng::new(seed);
    let plans = draw_plans(&mut rng);
    let mut sharded = ShardedController::new(
        harness_config(fleet, policy, schedule, DvfsMode::Static),
        cells,
    )
    .expect("harness config is valid");
    let mut sink = RepackLog::default();
    let mut model = Model {
        live: BTreeSet::new(),
        clock: 0,
    };

    // The sub-fleets partition the global fleet: per-class counts sum
    // to the global count and every cell owns at least one server.
    let mut class_totals = vec![0usize; fleet.len()];
    for cell in 0..sharded.cells() {
        let sub = &sharded
            .cell_controller(cell)
            .expect("cell exists")
            .config()
            .server_fleet;
        prop_assert!(sub.total_slots().expect("bounded sub-fleet") >= 1);
        for class in sub.classes() {
            let global = fleet
                .classes()
                .iter()
                .position(|g| g.name() == class.name())
                .expect("cell classes come from the global fleet");
            prop_assert_eq!(class.cores(), fleet.classes()[global].cores());
            class_totals[global] += class.count();
        }
    }
    let global_counts: Vec<usize> = fleet.classes().iter().map(ServerClass::count).collect();
    prop_assert_eq!(
        class_totals,
        global_counts,
        "cells must partition the fleet"
    );

    for k in 0..TOTAL {
        for (id, plan) in plans.iter().enumerate() {
            if plan.departure == Some(k) {
                sharded
                    .depart(id)
                    .map_err(|e| TestCaseError::fail(format!("depart({id}) at {k}: {e}")))?;
                model.live.remove(&id);
            }
        }
        for (id, plan) in plans.iter().enumerate() {
            if plan.arrival == k {
                let horizon = plan.departure.unwrap_or(TOTAL);
                let trace = draw_trace(&mut rng, horizon - k);
                sharded
                    .arrive(id, trace, plan.departure.map(|d| d - k), &mut sink)
                    .map_err(|e| TestCaseError::fail(format!("arrive({id}) at {k}: {e}")))?;
                model.live.insert(id);
                let cell = sharded.cell_of_vm(id).expect("admitted VMs are routed");
                prop_assert!(cell < sharded.cells());
            }
        }
        sharded
            .tick(&mut sink)
            .map_err(|e| TestCaseError::fail(format!("tick at {k}: {e}")))?;
        model.clock += 1;
        prop_assert_eq!(sharded.clock(), model.clock);
        prop_assert_eq!(
            sharded.live_vms() + sharded.deferred_vms(),
            model.live.len()
        );

        // Per-cell, per-class capacity: no cell's placement may name
        // more servers of a class than its own sub-fleet provides.
        for cell in 0..sharded.cells() {
            let inner = sharded.cell_controller(cell).expect("cell exists");
            let sub = &inner.config().server_fleet;
            let mut used = vec![0usize; sub.len()];
            for &class in inner.placement().classes() {
                prop_assert!(class < sub.len(), "cell {} names class {}", cell, class);
                used[class] += 1;
            }
            for (class, &n) in used.iter().enumerate() {
                prop_assert!(
                    n <= sub.classes()[class].count(),
                    "cell {} uses {} of {} class-{} servers at sample {}",
                    cell,
                    n,
                    sub.classes()[class].count(),
                    class,
                    k
                );
            }
        }
    }

    // The merged report is the sum of its cells.
    let merged = sharded.report();
    let inner_reports: Vec<_> = (0..sharded.cells())
        .map(|c| sharded.cell_controller(c).expect("cell exists").report())
        .collect();
    prop_assert_eq!(merged.periods.len(), TOTAL / PERIOD);
    prop_assert_eq!(
        merged.violation_instances,
        inner_reports
            .iter()
            .map(|r| r.violation_instances)
            .sum::<usize>()
    );
    prop_assert_eq!(
        merged.online_admissions,
        inner_reports
            .iter()
            .map(|r| r.online_admissions)
            .sum::<usize>()
    );
    for (p, row) in merged.periods.iter().enumerate() {
        let sum: usize = inner_reports
            .iter()
            .filter_map(|r| r.periods.get(p))
            .map(|r| r.servers_used)
            .sum();
        prop_assert_eq!(row.servers_used, sum, "period {} server sum diverged", p);
    }
    Ok(())
}

proptest! {
    /// Single-cell ≡ flat, for **all five policies** across the plain
    /// schedules and a guarded one, static and dynamic DVFS — routing
    /// through one cell may not perturb a single bit.
    #[test]
    fn sharded_single_cell_is_bit_identical_to_flat(seed in any::<u64>()) {
        let fleet = uniform_fleet();
        let guarded = Schedule {
            trigger: RepackTrigger::Fragmentation { slack: 1 },
            guard: Some(QosGuard { violation_ratio: 0.10 }),
            adaptive_slack_max: None,
            overcommit: None,
        };
        // Overcommit margins are per-cell state; the single cell must
        // still carry them bit-identically.
        let overcommitted = Schedule {
            overcommit: Some(OvercommitConfig { margin: 0.15, max_margin: 0.25 }),
            ..guarded
        };
        for policy in five_policies() {
            for schedule in [
                Schedule::plain(RepackTrigger::Periodic),
                Schedule::plain(RepackTrigger::Hybrid { slack: 2 }),
                guarded,
                overcommitted,
            ] {
                run_single_cell_equivalence_case(seed, &fleet, policy, schedule, DvfsMode::Static)?;
            }
            run_single_cell_equivalence_case(
                seed,
                &fleet,
                policy,
                Schedule::plain(RepackTrigger::Periodic),
                DvfsMode::Dynamic { interval_samples: 8 },
            )?;
        }
    }

    /// Sketch-routed admission over 2–3 cells keeps every cell inside
    /// its own per-class server budget for all five policies, and the
    /// merged report stays the sum of its cells.
    #[test]
    fn multi_cell_admission_respects_per_class_capacity(
        seed in any::<u64>(),
        cells in 2usize..4,
    ) {
        let fleet = uniform_fleet();
        for policy in five_policies() {
            run_multi_cell_case(seed, &fleet, policy, cells)?;
        }
        run_multi_cell_case(seed, &hetero_fleet(), Policy::Proposed(Default::default()), cells)?;
    }
}

/// The chaos axis has teeth: somewhere in the seed range the proptests
/// sweep, failures actually hit occupied servers (forcing evacuations)
/// — otherwise the no-VM-on-failed-server and membership invariants
/// would be vacuous.
#[test]
fn failures_and_evacuations_actually_happen_in_the_chaos_harness() {
    let fleet = uniform_fleet();
    let mut failures = 0usize;
    let mut evacuations = 0usize;
    for seed in 0..16u64 {
        let (f, e) = run_chaos_case(
            seed,
            &fleet,
            Policy::Proposed(Default::default()),
            Schedule::plain(RepackTrigger::Hybrid { slack: 1 }),
        )
        .expect("chaos case");
        failures += f;
        evacuations += e;
    }
    assert!(failures > 0, "no seed in 0..16 ever failed a server");
    assert!(
        evacuations > 0,
        "no failure in 0..16 ever hit an occupied server — evacuation is untested"
    );
}

/// Replays one harness schedule end to end and reports what fired.
fn smoke_run(seed: u64, fleet: &ServerFleet, schedule: Schedule) -> RepackLog {
    let mut rng = SimRng::new(seed);
    let plans = draw_plans(&mut rng);
    let mut controller = DatacenterController::new(ControllerConfig {
        server_fleet: fleet.clone(),
        policy: Policy::Proposed(Default::default()),
        repack_trigger: schedule.trigger,
        qos_guard: schedule.guard,
        adaptive_slack_max: schedule.adaptive_slack_max,
        overcommit: schedule.overcommit,
        dvfs_mode: DvfsMode::Static,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.25,
        default_demand: 2.0,
        sample_dt_s: 5.0,
        max_deferred: 1024,
    })
    .expect("valid config");
    let mut sink = RepackLog::default();
    for k in 0..TOTAL {
        for (id, plan) in plans.iter().enumerate() {
            if plan.departure == Some(k) {
                controller.depart(id).expect("scheduled departure");
            }
        }
        for (id, plan) in plans.iter().enumerate() {
            if plan.arrival == k {
                let horizon = plan.departure.unwrap_or(TOTAL);
                let trace = draw_trace(&mut rng, horizon - k);
                controller
                    .arrive(id, trace, plan.departure.map(|d| d - k), &mut sink)
                    .expect("scheduled arrival");
            }
        }
        controller.tick(&mut sink).expect("tick");
    }
    sink
}

/// A deterministic smoke of the harness itself: the drawn schedules
/// really are departure-heavy (and violation-prone) enough to arm and
/// fire the fragmentation trigger *and* the QoS guard somewhere in the
/// seed range the proptests sweep — otherwise the two "fires iff"
/// branches would be vacuous.
#[test]
fn fragmentation_and_qos_repacks_actually_happen_in_the_harness() {
    let fleet = uniform_fleet();
    let frag = (0..64u64).any(|seed| {
        smoke_run(
            seed,
            &fleet,
            Schedule::plain(RepackTrigger::Fragmentation { slack: 1 }),
        )
        .frag_fired()
            > 0
    });
    assert!(
        frag,
        "no seed in 0..64 ever fired a fragmentation re-pack — the harness lost its teeth"
    );
    let guarded = Schedule {
        trigger: RepackTrigger::Fragmentation { slack: 1 },
        guard: Some(QosGuard {
            violation_ratio: 0.10,
        }),
        adaptive_slack_max: None,
        overcommit: None,
    };
    let qos = (0..64u64).any(|seed| smoke_run(seed, &fleet, guarded).qos_fired() > 0);
    assert!(
        qos,
        "no seed in 0..64 ever fired a QoS-guard re-pack — the guard axis is vacuous"
    );
}

/// Replays the overcommit schedule once and reports whether any
/// admission landed a multi-VM server past *plain* capacity — i.e. a
/// genuine correlation-gap bet, not just a margin that never mattered.
fn overcommit_bet_happened(seed: u64, fleet: &ServerFleet) -> bool {
    let schedule = Schedule {
        trigger: RepackTrigger::Fragmentation { slack: 1 },
        guard: Some(QosGuard {
            violation_ratio: 0.10,
        }),
        adaptive_slack_max: None,
        overcommit: Some(OvercommitConfig {
            margin: 0.15,
            max_margin: 0.25,
        }),
    };
    let mut rng = SimRng::new(seed);
    let plans = draw_plans(&mut rng);
    let mut controller = DatacenterController::new(harness_config(
        fleet,
        Policy::Proposed(Default::default()),
        schedule,
        DvfsMode::Static,
    ))
    .expect("valid config");
    let mut sink = RepackLog::default();
    let mut bet = false;
    for k in 0..TOTAL {
        for (id, plan) in plans.iter().enumerate() {
            if plan.departure == Some(k) {
                controller.depart(id).expect("scheduled departure");
            }
        }
        for (id, plan) in plans.iter().enumerate() {
            if plan.arrival == k {
                let horizon = plan.departure.unwrap_or(TOTAL);
                let trace = draw_trace(&mut rng, horizon - k);
                controller
                    .arrive(id, trace, plan.departure.map(|d| d - k), &mut sink)
                    .expect("scheduled arrival");
                let placement = controller.placement();
                // A deferred arrival (tight fleet full) is no bet.
                if let Some(s) = placement.server_of(id) {
                    let members = &placement.servers()[s];
                    if members.len() >= 2 {
                        let demands = controller.predicted_vms();
                        let load: f64 = members.iter().map(|&i| demands[i].demand).sum();
                        let cores = fleet.classes()[placement.classes()[s]].cores();
                        if load > cores + FIT_EPS {
                            bet = true;
                        }
                    }
                }
            }
        }
        controller.tick(&mut sink).expect("tick");
    }
    bet
}

/// The overcommit axis has teeth: somewhere in the seed range the
/// proptests sweep, an admission actually crosses plain capacity on the
/// strength of the margin — otherwise the margin-bounded admission
/// invariant would be vacuous.
#[test]
fn overcommit_admissions_actually_happen_in_the_harness() {
    // A deliberately tight fleet: half the uniform harness fleet, so
    // plain capacity runs out and the margin path gets exercised.
    let fleet = ServerFleet::uniform(4, 8.0, LinearPowerModel::xeon_e5410()).expect("valid fleet");
    let hit = (0..64u64).any(|seed| overcommit_bet_happened(seed, &fleet));
    assert!(
        hit,
        "no seed in 0..64 ever admitted past plain capacity — the overcommit axis is vacuous"
    );
}

// ---- The undersized-fleet axis: invariants after refused events.

/// Two 4-core servers under 2-core tenants: four seats for the plan's
/// six VMs, so a busy stretch asks for a fifth.
fn undersized_fleet() -> ServerFleet {
    ServerFleet::uniform(2, 4.0, LinearPowerModel::xeon_e5410()).expect("valid fleet")
}

/// Drives the departure-heavy plan onto the undersized fleet and checks
/// the ordinary invariants after **every** event, refused ones
/// included, against a model that never learns of a refused VM.
///
/// The run is shaped so that a refused mid-period arrival is the only
/// way the fleet can say no: traces never exceed the default demand
/// (predictions never outgrow what admission granted) and no VM arrives
/// on a period boundary (the batch pass only ever sees admitted VMs).
/// A refused id must stay unknown and an immediate retry must be
/// refused again on capacity. Returns the number of refusals.
fn run_undersized_case(
    seed: u64,
    policy: Policy,
    schedule: Schedule,
) -> Result<usize, TestCaseError> {
    let fleet = undersized_fleet();
    let mut rng = SimRng::new(seed);
    let mut plans = draw_plans(&mut rng);
    for plan in &mut plans {
        if plan.arrival % PERIOD == 0 {
            plan.arrival += 1;
        }
        plan.departure = plan.departure.filter(|&d| d > plan.arrival);
    }
    let mut controller =
        DatacenterController::new(harness_config(&fleet, policy, schedule, DvfsMode::Static))
            .expect("harness config is valid");
    let mut sink = RepackLog::default();
    let mut model = Model {
        live: BTreeSet::new(),
        clock: 0,
    };
    let mut refused = 0usize;

    for k in 0..TOTAL {
        for (id, plan) in plans.iter().enumerate() {
            if plan.departure == Some(k) && model.live.remove(&id) {
                controller
                    .depart(id)
                    .map_err(|e| TestCaseError::fail(format!("depart({id}) at {k}: {e}")))?;
                check_invariants(&controller, &model, &fleet, policy, schedule)?;
            }
        }
        for (id, plan) in plans.iter().enumerate() {
            if plan.arrival != k {
                continue;
            }
            let horizon = plan.departure.unwrap_or(TOTAL);
            let len = (horizon - k).max(1);
            let level = rng.range_f64(0.4, 2.0);
            let trace = TimeSeries::new(5.0, vec![level; len]).expect("non-empty trace");
            let lease = plan.departure.map(|d| d - k);
            match controller.arrive(id, trace.clone(), lease, &mut sink) {
                Ok(()) => {
                    model.live.insert(id);
                }
                Err(cavm_sim::SimError::InsufficientServers { .. }) => {
                    refused += 1;
                    prop_assert_eq!(
                        controller.depart(id),
                        Err(cavm_sim::SimError::UnknownVm { id }),
                        "a refused arrival must leave no registration behind"
                    );
                    prop_assert!(
                        matches!(
                            controller.arrive(id, trace, lease, &mut sink),
                            Err(cavm_sim::SimError::InsufficientServers { .. })
                        ),
                        "a retry must be judged on capacity again"
                    );
                }
                Err(e) => return Err(TestCaseError::fail(format!("arrive({id}) at {k}: {e}"))),
            }
            check_invariants(&controller, &model, &fleet, policy, schedule)?;
        }
        controller
            .tick(&mut sink)
            .map_err(|e| TestCaseError::fail(format!("tick at {k}: {e}")))?;
        model.clock += 1;
        check_invariants(&controller, &model, &fleet, policy, schedule)?;
    }
    controller
        .finish(&mut sink)
        .map_err(|e| TestCaseError::fail(format!("finish: {e}")))?;
    prop_assert_eq!(controller.report().periods.len(), TOTAL / PERIOD);
    Ok(refused)
}

/// The guard-less trigger schedules (a guard's healing move on a full
/// fleet is its own failure mode, outside this axis).
fn plain_schedules() -> [Schedule; 3] {
    [
        Schedule::plain(RepackTrigger::Periodic),
        Schedule::plain(RepackTrigger::Fragmentation { slack: 1 }),
        Schedule::plain(RepackTrigger::Hybrid { slack: 2 }),
    ]
}

proptest! {
    /// Every policy × plain schedule keeps every invariant on a fleet
    /// too small for the plan, with refused arrivals leaving no trace.
    #[test]
    fn invariants_hold_after_refused_arrivals_on_an_undersized_fleet(seed in any::<u64>()) {
        for policy in five_policies() {
            for schedule in plain_schedules() {
                run_undersized_case(seed, policy, schedule)?;
            }
        }
    }
}

/// The undersized axis has teeth: somewhere in the seed range arrivals
/// really are refused — otherwise the post-refusal checks are vacuous.
#[test]
fn refusals_actually_happen_on_the_undersized_fleet() {
    let refused: usize = (0..64u64)
        .map(|seed| {
            run_undersized_case(
                seed,
                Policy::Proposed(Default::default()),
                Schedule::plain(RepackTrigger::Periodic),
            )
            .expect("undersized case")
        })
        .sum();
    assert!(refused > 0, "no seed in 0..64 ever refused an arrival");
}

// ---- The guard's healing move on a fleet with nowhere to heal to.

/// Both servers of the undersized fleet full by prediction (two
/// 2-core-predicted tenants each), one tenant really drawing 3 cores:
/// its server violates on every sample wherever the policy put it, the
/// guard fires — and no other server can take the hotspot. The move
/// is optional, so the hotspot must go back where it came from: every
/// `tick` succeeds, the placement never changes, no migration is
/// counted or streamed, and the ordinary invariants hold throughout.
/// (The guard used to fail the tick with `InsufficientServers`, the
/// hotspot already off its server.)
#[test]
fn guard_hotspot_with_nowhere_to_go_stays_on_its_origin() {
    let fleet = undersized_fleet();
    let schedule = Schedule {
        trigger: RepackTrigger::Fragmentation { slack: 1 },
        guard: Some(QosGuard {
            violation_ratio: 0.10,
        }),
        adaptive_slack_max: None,
        overcommit: None,
    };
    for policy in five_policies() {
        let mut controller =
            DatacenterController::new(harness_config(&fleet, policy, schedule, DvfsMode::Static))
                .expect("harness config is valid");
        let mut sink = cavm_sim::ReportSink::new();
        let mut model = Model {
            live: BTreeSet::new(),
            clock: 0,
        };
        for id in 0..4 {
            let level = if id == 0 { 3.0 } else { 1.5 };
            let trace = TimeSeries::new(5.0, vec![level; 2 * PERIOD]).expect("non-empty trace");
            controller
                .arrive(id, trace, None, &mut sink)
                .expect("four seats for four tenants");
            model.live.insert(id);
        }
        let mut placed = None;
        for k in 0..PERIOD {
            controller
                .tick(&mut sink)
                .unwrap_or_else(|e| panic!("{}: tick {k} failed: {e}", policy.name()));
            model.clock += 1;
            check_invariants(&controller, &model, &fleet, policy, schedule)
                .unwrap_or_else(|e| panic!("{}: after tick {k}: {e}", policy.name()));
            if k + 1 == PERIOD {
                break; // the close leaves the placement stale by contract
            }
            let hosts = controller.placement().assignment(4);
            assert!(
                controller
                    .placement()
                    .servers()
                    .iter()
                    .all(|m| m.len() == 2),
                "{}: both servers are full",
                policy.name()
            );
            assert_eq!(
                *placed.get_or_insert_with(|| hosts.clone()),
                hosts,
                "{}: the guard moved a VM at tick {k}",
                policy.name()
            );
        }
        let healed: Vec<_> = sink
            .repacks()
            .iter()
            .filter(|e| matches!(e.reason, RepackReason::QosGuard { .. }))
            .collect();
        assert!(
            !healed.is_empty(),
            "{}: the guard never fired — the test is vacuous",
            policy.name()
        );
        for event in healed {
            assert_eq!(
                (event.servers_before, event.servers_after, event.migrations),
                (2, 2, 0),
                "{}: {event:?}",
                policy.name()
            );
        }
        assert_eq!(
            sink.migrations(),
            0,
            "{}: streamed migrations",
            policy.name()
        );
        let report = controller.report();
        assert_eq!(report.total_migrations(), 0);
        // The healed-in-vain server keeps its record: the breach is
        // folded into the period floor, not forgotten.
        assert!(report.periods[0].max_violation_ratio > 0.10);
    }
}
