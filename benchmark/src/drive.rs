//! The closed-loop driver: one client applies the next event only
//! after the previous controller call has returned, timing every call.
//!
//! The loop is written once over [`Controller`], the handful of calls
//! the flat and the sharded controller share. Every call's latency
//! lands in the [`Ledger`]; a traced run additionally records one span
//! per call (sink callbacks become its children) and captures the
//! shapes the layer replay needs.

use crate::hist::LogHistogram;
use crate::span::{Tracer, NONE};
use cavm_core::alloc::VmDescriptor;
use cavm_sim::{
    DatacenterController, MetricSink, PeriodRecord, RepackEvent, ShardedController, SimReport,
    ViolationEvent, VmEvent,
};
use cavm_trace::TimeSeries;
use cavm_workload::faults::{FaultKind, FaultPlan};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The calls the driver makes, common to both controllers.
pub trait Controller {
    fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> cavm_sim::Result<()>;
    fn depart(&mut self, id: usize) -> cavm_sim::Result<()>;
    fn tick(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()>;
    fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()>;
    fn server_recover(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()>;
    fn finish(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()>;
    fn report(&self) -> SimReport;
    fn deferred_vms(&self) -> usize;
    fn offcycle_repacks(&self) -> usize;
    fn cells(&self) -> usize;
    fn cell(&self, cell: usize) -> &DatacenterController;
    /// The cell a registered VM lives in.
    fn cell_of(&self, id: usize) -> usize;
}

impl Controller for DatacenterController {
    fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> cavm_sim::Result<()> {
        DatacenterController::arrive(self, id, trace, lease, sink)
    }
    fn depart(&mut self, id: usize) -> cavm_sim::Result<()> {
        DatacenterController::depart(self, id)
    }
    fn tick(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        DatacenterController::tick(self, sink)
    }
    fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        DatacenterController::server_fail(self, server, sink)
    }
    fn server_recover(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        DatacenterController::server_recover(self, server, sink)
    }
    fn finish(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        DatacenterController::finish(self, sink)
    }
    fn report(&self) -> SimReport {
        DatacenterController::report(self)
    }
    fn deferred_vms(&self) -> usize {
        DatacenterController::deferred_vms(self)
    }
    fn offcycle_repacks(&self) -> usize {
        DatacenterController::offcycle_repacks(self)
    }
    fn cells(&self) -> usize {
        1
    }
    fn cell(&self, _cell: usize) -> &DatacenterController {
        self
    }
    fn cell_of(&self, _id: usize) -> usize {
        0
    }
}

impl Controller for ShardedController {
    fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> cavm_sim::Result<()> {
        ShardedController::arrive(self, id, trace, lease, sink)
    }
    fn depart(&mut self, id: usize) -> cavm_sim::Result<()> {
        ShardedController::depart(self, id)
    }
    fn tick(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        ShardedController::tick(self, sink)
    }
    fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        ShardedController::server_fail(self, server, sink)
    }
    fn server_recover(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        ShardedController::server_recover(self, server, sink)
    }
    fn finish(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        ShardedController::finish(self, sink)
    }
    fn report(&self) -> SimReport {
        ShardedController::report(self)
    }
    fn deferred_vms(&self) -> usize {
        ShardedController::deferred_vms(self)
    }
    fn offcycle_repacks(&self) -> usize {
        (0..ShardedController::cells(self))
            .map(|c| Controller::cell(self, c).offcycle_repacks())
            .sum()
    }
    fn cells(&self) -> usize {
        ShardedController::cells(self)
    }
    fn cell(&self, cell: usize) -> &DatacenterController {
        self.cell_controller(cell).expect("cell index in range")
    }
    fn cell_of(&self, id: usize) -> usize {
        self.cell_of_vm(id).expect("a registered vm has a cell")
    }
}

/// The operator's "what would a re-pack free right now?" probe: fork
/// the session, re-pack the fork. Returns the two durations.
fn probe(ctl: &DatacenterController) -> cavm_sim::Result<(Duration, Duration)> {
    let t0 = Instant::now();
    let mut what_if = ctl.what_if();
    let t1 = Instant::now();
    std::hint::black_box(what_if.repack()?);
    Ok((t1 - t0, t1.elapsed()))
}

/// What a driver call was, for the per-kind ledger rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Arrive,
    Depart,
    /// A tick that neither opened nor closed a period nor re-packed.
    TickPlain,
    /// The first tick of a period (UPDATE + ALLOCATE).
    TickOpen,
    /// The last tick of a period (window replay into the next matrix).
    TickClose,
    /// A mid-period tick on which an off-cycle re-pack ran.
    TickRepack,
    /// A server failure or recovery.
    Fault,
}

pub const KINDS: [Kind; 7] = [
    Kind::Arrive,
    Kind::Depart,
    Kind::TickPlain,
    Kind::TickOpen,
    Kind::TickClose,
    Kind::TickRepack,
    Kind::Fault,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Arrive => "arrive",
            Kind::Depart => "depart",
            Kind::TickPlain => "tick_plain",
            Kind::TickOpen => "tick_open",
            Kind::TickClose => "tick_close",
            Kind::TickRepack => "tick_repack",
            Kind::Fault => "fault",
        }
    }

    fn is_tick(self) -> bool {
        matches!(
            self,
            Kind::TickPlain | Kind::TickOpen | Kind::TickClose | Kind::TickRepack
        )
    }
}

/// Classifies tick number `index` (0-based over the run) of a session
/// with `period` samples per placement period. Closing wins over
/// opening (a one-sample period does both); a boundary tick is never
/// reported as a re-pack tick even when an off-cycle re-pack also ran.
pub fn classify_tick(index: usize, period: usize, repacked: bool) -> Kind {
    let in_period = index % period;
    if in_period + 1 == period {
        Kind::TickClose
    } else if in_period == 0 {
        Kind::TickOpen
    } else if repacked {
        Kind::TickRepack
    } else {
        Kind::TickPlain
    }
}

/// Per-call latency and counts of one run.
pub struct Ledger {
    kinds: Vec<LogHistogram>,
    /// Every tick, whatever its kind.
    pub ticks: LogHistogram,
    pub close_first_ns: u64,
    pub close_last_ns: u64,
    pub fork_calls: u64,
    pub fork_ns: u64,
    pub whatif_repack_ns: u64,
    pub finish_ns: u64,
    /// Driver events applied (arrive, depart, tick, fail, recover).
    pub events: u64,
    /// Calls that returned `Err`, plus VMs still deferred at `finish`.
    pub failed: u64,
    pub population_max: usize,
    /// Max ÷ mean cell population at the population peak.
    pub imbalance: f64,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            kinds: vec![LogHistogram::new(); KINDS.len()],
            ticks: LogHistogram::new(),
            close_first_ns: 0,
            close_last_ns: 0,
            fork_calls: 0,
            fork_ns: 0,
            whatif_repack_ns: 0,
            finish_ns: 0,
            events: 0,
            failed: 0,
            population_max: 0,
            imbalance: 0.0,
        }
    }
}

impl Ledger {
    pub fn kind(&self, kind: Kind) -> &LogHistogram {
        &self.kinds[kind as usize]
    }

    /// Longest single call of any kind, nanoseconds.
    pub fn stall_max_ns(&self) -> u64 {
        self.kinds
            .iter()
            .map(LogHistogram::max_ns)
            .max()
            .unwrap_or(0)
    }

    fn record(&mut self, kind: Kind, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.kinds[kind as usize].record(ns);
        self.events += 1;
        if kind.is_tick() {
            self.ticks.record(ns);
        }
        if kind == Kind::TickClose {
            if self.kind(Kind::TickClose).count() == 1 {
                self.close_first_ns = ns;
            }
            self.close_last_ns = ns;
        }
    }
}

/// Which matrix-touching tick a [`Shape`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeKind {
    Open,
    Close,
    Repack,
}

/// The state of one cell right after a period-opening, period-closing
/// or re-pack tick — what the layer replay re-drives the inner modules
/// on.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Global sample index of the tick.
    pub tick: usize,
    pub cell: usize,
    pub kind: ShapeKind,
    /// Every id the cell has ever seen: the dimension of its matrix.
    pub universe: usize,
    /// Live VMs of the cell at the tick.
    pub live: usize,
    /// Predicted descriptors of the live VMs (open and re-pack only).
    pub predicted: Vec<VmDescriptor>,
    /// The cell's placement after the tick (open and re-pack only).
    pub servers: Vec<Vec<usize>>,
    /// Fleet class of each server of `servers`.
    pub classes: Vec<usize>,
}

/// What a traced run captures for the layer replay.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Per cell: global VM ids in the order of the cell's local ids.
    pub members: Vec<Vec<usize>>,
    pub shapes: Vec<Shape>,
}

/// A traced run's recording state.
pub struct Trace<'a> {
    pub tracer: &'a RefCell<Tracer>,
    pub capture: Capture,
}

/// Times every sink callback as a child span of the controller call
/// that fired it.
pub struct TimedSink<'a> {
    pub inner: &'a mut dyn MetricSink,
    pub tracer: &'a RefCell<Tracer>,
}

impl TimedSink<'_> {
    fn timed(&mut self, name: &'static str, call: impl FnOnce(&mut dyn MetricSink)) {
        let t0 = Instant::now();
        call(self.inner);
        let t1 = Instant::now();
        let mut tracer = self.tracer.borrow_mut();
        let event = tracer.current_event();
        tracer.leaf(name, event, t0, t1);
    }
}

impl MetricSink for TimedSink<'_> {
    fn on_period(&mut self, record: &PeriodRecord) {
        self.timed("sim.sink.on_period", |s| s.on_period(record));
    }
    fn on_repack(&mut self, event: &RepackEvent) {
        self.timed("sim.sink.on_repack", |s| s.on_repack(event));
    }
    fn on_migration(&mut self, period: usize, vm: usize, from: usize, to: usize) {
        self.timed("sim.sink.on_migration", |s| {
            s.on_migration(period, vm, from, to);
        });
    }
    fn on_violation(&mut self, event: &ViolationEvent) {
        self.timed("sim.sink.on_violation", |s| s.on_violation(event));
    }
    fn on_class_energy(&mut self, period: usize, class: usize, name: &str, period_joules: f64) {
        self.timed("sim.sink.on_class_energy", |s| {
            s.on_class_energy(period, class, name, period_joules);
        });
    }
    fn on_admit(&mut self, sample: usize, vm: usize, server: usize) {
        self.timed("sim.sink.on_admit", |s| s.on_admit(sample, vm, server));
    }
    fn on_server_fail(&mut self, sample: usize, server: usize, residents: usize) {
        self.timed("sim.sink.on_server_fail", |s| {
            s.on_server_fail(sample, server, residents);
        });
    }
    fn on_server_recover(&mut self, sample: usize, server: usize) {
        self.timed("sim.sink.on_server_recover", |s| {
            s.on_server_recover(sample, server);
        });
    }
    fn on_summary(&mut self, report: &SimReport) {
        self.timed("sim.sink.on_summary", |s| s.on_summary(report));
    }
}

/// The fixed part of a day: its period length and the extras the flat
/// workloads add around the VM events. Faults and probes address one
/// flat session (global server indices and `what_if` are its surface).
#[derive(Clone, Copy, Default)]
pub struct Plan<'a> {
    pub period: usize,
    /// Server health transitions, injected in the engine's per-sample
    /// order (recoveries, departures, arrivals, failures, tick).
    pub faults: Option<&'a FaultPlan>,
    /// Run the operator's what-if probe after every this many ticks.
    pub probe_every: Option<usize>,
}

/// What a finished day leaves behind besides the ledger.
pub struct Outcome {
    pub report: SimReport,
    /// Wall seconds of the event loop plus `finish` and `report`.
    pub wall_s: f64,
    /// VMs the driver believes live at the end (arrived − departed).
    pub live: usize,
    /// VMs found on a server in the final placement.
    pub placed: usize,
    pub deferred: usize,
}

struct Driver<'a, 'b, C: Controller> {
    ctl: &'a mut C,
    sink: &'a mut dyn MetricSink,
    ledger: &'a mut Ledger,
    trace: Option<&'a mut Trace<'b>>,
    /// Cell of every live VM, by global id (traced runs only).
    cell_of: Vec<Option<usize>>,
    cell_population: Vec<usize>,
    live: usize,
}

impl<C: Controller> Driver<'_, '_, C> {
    /// Times one controller call, files it under the kind `classify`
    /// gives it once it has returned, and records its span.
    fn call(
        &mut self,
        provisional: &'static str,
        call: impl FnOnce(&mut C, &mut dyn MetricSink) -> cavm_sim::Result<()>,
        classify: impl FnOnce(&C) -> Kind,
    ) -> (Kind, bool) {
        let event = self.ledger.events as u32;
        let (kind, ok);
        if let Some(trace) = self.trace.as_deref_mut() {
            let t0 = Instant::now();
            let span = trace.tracer.borrow_mut().enter(provisional, event, t0);
            let mut timed = TimedSink {
                inner: &mut *self.sink,
                tracer: trace.tracer,
            };
            ok = call(self.ctl, &mut timed).is_ok();
            let t1 = Instant::now();
            kind = classify(self.ctl);
            trace.tracer.borrow_mut().exit(span, kind.name(), t1);
            self.ledger.record(kind, t1 - t0);
        } else {
            let t0 = Instant::now();
            ok = call(self.ctl, &mut *self.sink).is_ok();
            let elapsed = t0.elapsed();
            kind = classify(self.ctl);
            self.ledger.record(kind, elapsed);
        }
        if !ok {
            self.ledger.failed += 1;
        }
        (kind, ok)
    }

    fn arrived(&mut self, id: usize) {
        self.live += 1;
        self.ledger.population_max = self.ledger.population_max.max(self.live);
        let Some(trace) = self.trace.as_deref_mut() else {
            return;
        };
        let cell = self.ctl.cell_of(id);
        trace.capture.members[cell].push(id);
        if self.cell_of.len() <= id {
            self.cell_of.resize(id + 1, None);
        }
        self.cell_of[id] = Some(cell);
        self.cell_population[cell] += 1;
        if self.live == self.ledger.population_max {
            let max = self.cell_population.iter().copied().max().unwrap_or(0);
            let mean = self.live as f64 / self.cell_population.len() as f64;
            self.ledger.imbalance = max as f64 / mean;
        }
    }

    fn departed(&mut self, id: usize) {
        self.live -= 1;
        if let Some(cell) = self.cell_of.get_mut(id).and_then(Option::take) {
            self.cell_population[cell] -= 1;
        }
    }

    /// Captures every cell's shape after a matrix-touching tick.
    fn capture(&mut self, tick: usize, kind: Kind) {
        let Some(trace) = self.trace.as_deref_mut() else {
            return;
        };
        let shape_kind = match kind {
            Kind::TickOpen => ShapeKind::Open,
            Kind::TickClose => ShapeKind::Close,
            Kind::TickRepack => ShapeKind::Repack,
            _ => return,
        };
        let keep = shape_kind != ShapeKind::Close;
        for cell in 0..self.ctl.cells() {
            let ctl = self.ctl.cell(cell);
            let members = &trace.capture.members[cell];
            let live = ctl.predicted_vms().iter().filter(|d| {
                members
                    .get(d.id)
                    .is_some_and(|&global| self.cell_of[global].is_some())
            });
            let mut shape = Shape {
                tick,
                cell,
                kind: shape_kind,
                universe: ctl.predicted_vms().len(),
                live: 0,
                predicted: Vec::new(),
                servers: Vec::new(),
                classes: Vec::new(),
            };
            if keep {
                shape.predicted = live.copied().collect();
                shape.live = shape.predicted.len();
                shape.servers = ctl.placement().servers().to_vec();
                shape.classes = ctl.placement().classes().to_vec();
            } else {
                shape.live = live.count();
            }
            trace.capture.shapes.push(shape);
        }
    }
}

/// Applies `events` to `ctl` one call at a time, then finishes the
/// session and takes its report. The timed region is this function.
pub fn drive<C: Controller>(
    ctl: &mut C,
    events: Vec<VmEvent>,
    plan: Plan<'_>,
    sink: &mut dyn MetricSink,
    ledger: &mut Ledger,
    mut trace: Option<&mut Trace<'_>>,
) -> Outcome {
    let cells = ctl.cells();
    assert!(
        cells == 1 || (plan.faults.is_none() && plan.probe_every.is_none()),
        "faults and probes drive a flat session"
    );
    if let Some(trace) = trace.as_deref_mut() {
        trace.capture.members = vec![Vec::new(); cells];
    }
    let mut d = Driver {
        ctl,
        sink,
        ledger,
        trace,
        cell_of: Vec::new(),
        cell_population: vec![0; cells],
        live: 0,
    };
    let faults = plan.faults.map_or(&[][..], FaultPlan::entries);
    let mut next_fault = 0usize;
    let mut down: BTreeSet<usize> = BTreeSet::new();
    let mut tick = 0usize;
    let mut sample_start = true;
    let started = Instant::now();

    for event in events {
        if sample_start {
            sample_start = false;
            while faults
                .get(next_fault)
                .is_some_and(|f| f.sample == tick && f.kind == FaultKind::Recover)
            {
                let server = faults[next_fault].server;
                if down.remove(&server) {
                    d.call("fault", |c, s| c.server_recover(server, s), |_| Kind::Fault);
                }
                next_fault += 1;
            }
        }
        match event {
            VmEvent::Arrive {
                id,
                trace,
                lease_samples,
            } => {
                let (_, ok) = d.call(
                    "arrive",
                    |c, s| c.arrive(id, trace, lease_samples, s),
                    |_| Kind::Arrive,
                );
                if ok {
                    d.arrived(id);
                }
            }
            VmEvent::Depart { id } => {
                let (_, ok) = d.call("depart", |c, _| c.depart(id), |_| Kind::Depart);
                if ok {
                    d.departed(id);
                }
            }
            VmEvent::ServerFail { server } => {
                d.call("fault", |c, s| c.server_fail(server, s), |_| Kind::Fault);
            }
            VmEvent::ServerRecover { server } => {
                d.call("fault", |c, s| c.server_recover(server, s), |_| Kind::Fault);
            }
            VmEvent::Tick => {
                while faults.get(next_fault).is_some_and(|f| f.sample == tick) {
                    let fault = faults[next_fault];
                    next_fault += 1;
                    // A plan may schedule overlapping transitions, and
                    // a rack that never powered on cannot fail.
                    let apply = match fault.kind {
                        FaultKind::Fail => {
                            fault.server < d.ctl.cell(0).placement().server_count()
                                && down.insert(fault.server)
                        }
                        FaultKind::Recover => down.remove(&fault.server),
                    };
                    if apply {
                        d.call(
                            "fault",
                            |c, s| match fault.kind {
                                FaultKind::Fail => c.server_fail(fault.server, s),
                                FaultKind::Recover => c.server_recover(fault.server, s),
                            },
                            |_| Kind::Fault,
                        );
                    }
                }
                let repacks_before = d.ctl.offcycle_repacks();
                let (kind, _) = d.call(
                    "tick",
                    |c, s| c.tick(s),
                    |c| classify_tick(tick, plan.period, c.offcycle_repacks() > repacks_before),
                );
                d.capture(tick, kind);
                tick += 1;
                sample_start = true;
                if plan.probe_every.is_some_and(|n| tick.is_multiple_of(n)) {
                    let t0 = Instant::now();
                    match probe(d.ctl.cell(0)) {
                        Ok((fork, repack)) => {
                            d.ledger.fork_calls += 1;
                            d.ledger.fork_ns += fork.as_nanos() as u64;
                            d.ledger.whatif_repack_ns += repack.as_nanos() as u64;
                            if let Some(trace) = d.trace.as_deref_mut() {
                                let mut tracer = trace.tracer.borrow_mut();
                                tracer.leaf("fork", NONE, t0, t0 + fork);
                                tracer.leaf("whatif_repack", NONE, t0 + fork, t0 + fork + repack);
                            }
                        }
                        Err(_) => d.ledger.failed += 1,
                    }
                }
            }
        }
    }

    let t0 = Instant::now();
    let finished = match d.trace.as_deref_mut() {
        Some(trace) => {
            let mut timed = TimedSink {
                inner: &mut *d.sink,
                tracer: trace.tracer,
            };
            let span = trace.tracer.borrow_mut().enter("finish", NONE, t0);
            let result = d.ctl.finish(&mut timed);
            trace
                .tracer
                .borrow_mut()
                .exit(span, "finish", Instant::now());
            result
        }
        None => d.ctl.finish(&mut *d.sink),
    };
    let report = d.ctl.report();
    d.ledger.finish_ns += t0.elapsed().as_nanos() as u64;
    let wall_s = started.elapsed().as_secs_f64();

    if finished.is_err() {
        d.ledger.failed += 1;
    }
    let deferred = d.ctl.deferred_vms();
    d.ledger.failed += deferred as u64;
    let placed = (0..cells)
        .map(|c| {
            let placement = d.ctl.cell(c).placement();
            placement.servers().iter().map(Vec::len).sum::<usize>()
        })
        .sum();
    Outcome {
        report,
        wall_s,
        live: d.live,
        placed,
        deferred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavm_core::dvfs::DvfsMode;
    use cavm_core::fleet::ServerFleet;
    use cavm_power::LinearPowerModel;
    use cavm_sim::{ControllerConfig, Policy, RepackReason, RepackTrigger, ReportSink};
    use cavm_trace::Reference;

    #[test]
    fn classification_of_a_two_period_schedule() {
        let kinds: Vec<Kind> = (0..8)
            .map(|i| classify_tick(i, 4, i == 5 || i == 4 || i == 7))
            .collect();
        use Kind::*;
        assert_eq!(
            kinds,
            vec![
                TickOpen, TickPlain, TickPlain, TickClose, TickOpen, TickRepack, TickPlain,
                TickClose
            ]
        );
        // A one-sample period closes on every tick.
        assert_eq!(classify_tick(3, 1, false), TickClose);
    }

    /// Two 4-sample periods, three one-core VMs each filling most of a
    /// 1.5-core server; two depart inside the second period, so the
    /// fragmentation trigger re-packs off-cycle on the next tick.
    fn hand_built_day() -> (DatacenterController, Vec<VmEvent>) {
        let cfg = ControllerConfig {
            server_fleet: ServerFleet::uniform(4, 1.5, LinearPowerModel::xeon_e5410()).unwrap(),
            policy: Policy::Bfd,
            repack_trigger: RepackTrigger::Hybrid { slack: 1 },
            qos_guard: None,
            adaptive_slack_max: None,
            overcommit: None,
            dvfs_mode: DvfsMode::Static,
            period_samples: 4,
            reference: Reference::Peak,
            dynamic_headroom: 0.1,
            default_demand: 1.0,
            sample_dt_s: 5.0,
            max_deferred: 8,
        };
        let arrive = |id: usize, demand: f64| VmEvent::Arrive {
            id,
            trace: TimeSeries::constant(5.0, 8, demand).unwrap(),
            lease_samples: None,
        };
        let mut events = vec![
            arrive(0, 1.0),
            arrive(1, 1.0),
            arrive(2, 0.4),
            arrive(3, 0.4),
        ];
        events.extend((0..5).map(|_| VmEvent::Tick));
        // Vacate most of two servers: what is left fits one.
        events.extend([VmEvent::Depart { id: 0 }, VmEvent::Depart { id: 1 }]);
        events.extend((0..3).map(|_| VmEvent::Tick));
        (DatacenterController::new(cfg).unwrap(), events)
    }

    #[test]
    fn driver_ledger_matches_what_the_sink_saw() {
        let (mut ctl, events) = hand_built_day();
        let mut sink = ReportSink::new();
        let mut ledger = Ledger::default();
        let plan = Plan {
            period: 4,
            ..Plan::default()
        };
        let out = drive(&mut ctl, events, plan, &mut sink, &mut ledger, None);

        assert_eq!(ledger.failed, 0);
        assert_eq!(ledger.events, 4 + 2 + 8);
        assert_eq!(ledger.kind(Kind::Arrive).count(), 4);
        assert_eq!(ledger.kind(Kind::Depart).count(), 2);
        assert_eq!(ledger.kind(Kind::TickOpen).count(), 2);
        assert_eq!(ledger.kind(Kind::TickClose).count(), 2);
        assert_eq!(ledger.ticks.count(), 8);
        // on_period fires exactly on the ticks classified as closing.
        assert_eq!(sink.periods().len(), 2);
        // The off-cycle re-pack the sink saw is the one tick_repack tick.
        let offcycle = sink
            .repacks()
            .iter()
            .filter(|r| matches!(r.reason, RepackReason::Fragmentation { .. }))
            .count();
        assert_eq!(offcycle, 1);
        assert_eq!(ledger.kind(Kind::TickRepack).count(), 1);
        assert_eq!(ledger.kind(Kind::TickPlain).count(), 3);
        assert_eq!(
            sink.repacks()
                .iter()
                .find(|r| r.sample == 5)
                .map(|r| r.period),
            Some(1)
        );
        // Every VM is accounted for.
        assert_eq!(out.live, 2);
        assert_eq!(out.placed + out.deferred, out.live);
        assert_eq!(ledger.population_max, 4);
        assert_eq!(
            ledger.stall_max_ns(),
            ledger
                .ticks
                .max_ns()
                .max(ledger.kind(Kind::Arrive).max_ns())
        );
    }

    #[test]
    fn traced_run_captures_shapes_and_nests_sink_spans() {
        let (mut ctl, events) = hand_built_day();
        let mut sink = ReportSink::new();
        let mut ledger = Ledger::default();
        let tracer = RefCell::new(Tracer::new());
        let mut trace = Trace {
            tracer: &tracer,
            capture: Capture::default(),
        };
        let plan = Plan {
            period: 4,
            ..Plan::default()
        };
        let traced = drive(
            &mut ctl,
            events,
            plan,
            &mut sink,
            &mut ledger,
            Some(&mut trace),
        );

        let (mut plain_ctl, events) = hand_built_day();
        let untraced = drive(
            &mut plain_ctl,
            events,
            plan,
            &mut ReportSink::new(),
            &mut Ledger::default(),
            None,
        );
        assert_eq!(
            traced.report, untraced.report,
            "tracing must not perturb the run"
        );

        let kinds: Vec<(usize, ShapeKind)> = trace
            .capture
            .shapes
            .iter()
            .map(|s| (s.tick, s.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (0, ShapeKind::Open),
                (3, ShapeKind::Close),
                (4, ShapeKind::Open),
                (5, ShapeKind::Repack),
                (7, ShapeKind::Close)
            ]
        );
        assert_eq!(trace.capture.members, vec![vec![0, 1, 2, 3]]);
        assert_eq!(trace.capture.shapes[0].live, 4);
        assert_eq!(trace.capture.shapes[3].live, 2);
        assert_eq!(trace.capture.shapes[3].universe, 4);
        let placed: usize = trace.capture.shapes[3].servers.iter().map(Vec::len).sum();
        assert_eq!(placed, 2);

        let tracer = tracer.borrow();
        let summary = tracer.summary();
        assert_eq!(summary["tick_close"].0, 2);
        assert_eq!(summary["tick_repack"].0, 1);
        // Sink callbacks are children of the call that fired them.
        let spans = tracer.spans();
        let on_period: Vec<_> = spans
            .iter()
            .filter(|s| tracer.name_of(s) == "sim.sink.on_period")
            .collect();
        assert_eq!(on_period.len(), 2);
        for span in on_period {
            let parent = &spans[span.parent as usize];
            assert_eq!(tracer.name_of(parent), "tick_close");
            assert_eq!(parent.event, span.event);
        }
    }
}
