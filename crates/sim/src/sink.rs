//! The [`MetricSink`] observer trait, its two stock sinks
//! ([`NullSink`], [`ReportSink`]) and the sink adapters — composable
//! wrappers around any [`MetricSink`].
//!
//! The controller delivers every event synchronously: a sink that
//! renders a dashboard, writes a socket or flushes a file would stall
//! the replay loop on every violation sample. [`Buffered`] decouples
//! the two rates: events land in a **bounded** in-memory queue (an
//! overflowing queue *drops* the incoming event and counts it — the
//! replay loop never blocks and never grows memory without bound) and
//! the queue drains into the inner sink in batches at the natural
//! flush points — every completed period, at the terminal summary, or
//! whenever the caller asks via [`Buffered::drain`].
//!
//! [`Threaded`] keeps exactly the same producer-side semantics but
//! delivers each flushed batch on a dedicated worker thread, so an
//! expensive sink overlaps with simulation instead of stalling it.
//! The wrapped sink moves into the worker; [`Threaded::finish`] joins
//! and returns it (or the typed
//! [`SimError::SinkWorkerPanicked`]
//! if it panicked). The two adapters nest in either order without
//! double-counting drops.
//!
//! The terminal [`SimReport`] an inner sink receives through
//! [`MetricSink::on_summary`] carries the adapter's drop counter in
//! [`SimReport::sink_dropped_events`], so a consumer can tell a quiet
//! run from a saturated queue.
//!
//! ```
//! use cavm_sim::sink::{Buffered, SinkEvent};
//! use cavm_sim::{MetricSink, PeriodRecord};
//!
//! /// Counts what actually reaches the expensive consumer.
//! #[derive(Default)]
//! struct Dashboard {
//!     violations: usize,
//! }
//!
//! impl MetricSink for Dashboard {
//!     fn on_violation(&mut self, _event: &cavm_sim::ViolationEvent) {
//!         self.violations += 1;
//!     }
//! }
//!
//! let mut sink = Buffered::new(Dashboard::default(), 2);
//! for sample in 0..5 {
//!     sink.on_violation(&cavm_sim::ViolationEvent {
//!         sample,
//!         period: 0,
//!         server: 0,
//!         class: 0,
//!         demand: 9.0,
//!         capacity: 8.0,
//!     });
//! }
//! // Nothing delivered yet, three of five overflowed the queue.
//! assert_eq!(sink.inner().violations, 0);
//! assert_eq!(sink.queued(), 2);
//! assert_eq!(sink.dropped(), 3);
//! sink.drain();
//! assert_eq!(sink.inner().violations, 2);
//! ```

#[cfg(doc)]
use crate::controller::{DatacenterController, QosGuard, RepackTrigger, VmEvent};
use crate::error::SimError;
use crate::event::{RepackEvent, RepackReason, ViolationEvent};
use crate::report::{PeriodRecord, SimReport};
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc;
use std::thread;

/// Streaming observer of a controller session. Implement the
/// callbacks you care about.
///
/// The seven per-event callbacks (everything but
/// [`on_period`](Self::on_period) and [`on_summary`](Self::on_summary))
/// default to forwarding their arguments as one [`SinkEvent`] to
/// [`on_event`](Self::on_event), whose own default drops it: a sink
/// that handles every event alike — a queue, a relay, a log line —
/// implements `on_event` alone, and a sink that cares about one kind
/// overrides that callback. A completed period and the terminal summary
/// default to no-ops and never reach `on_event`, because every relay
/// treats them as flush points rather than as events.
///
/// # Example
///
/// A sink that tallies periods and narrates every re-pack (periodic
/// *and* fragmentation-fired):
///
/// ```
/// use cavm_sim::{MetricSink, PeriodRecord, RepackEvent, RepackReason};
///
/// #[derive(Default)]
/// struct Tally {
///     periods: usize,
///     offcycle: usize,
/// }
///
/// impl MetricSink for Tally {
///     fn on_period(&mut self, _record: &PeriodRecord) {
///         self.periods += 1;
///     }
///
///     fn on_repack(&mut self, event: &RepackEvent) {
///         if let RepackReason::Fragmentation { estimate, active } = event.reason {
///             self.offcycle += 1;
///             println!(
///                 "t={} re-pack: {} servers packed into {} (bound {})",
///                 event.sample, active, event.servers_after, estimate,
///             );
///         }
///     }
/// }
///
/// let mut sink = Tally::default();
/// sink.on_repack(&RepackEvent {
///     sample: 900,
///     period: 1,
///     reason: RepackReason::Fragmentation { estimate: 3, active: 5 },
///     servers_before: 5,
///     servers_after: 3,
///     migrations: 4,
///     slack_after: Some(1),
/// });
/// assert_eq!(sink.offcycle, 1);
/// ```
pub trait MetricSink {
    /// Any per-event callback the sink does not override, as one
    /// [`SinkEvent`] (never [`SinkEvent::Period`]). Defaults to a
    /// no-op.
    fn on_event(&mut self, event: SinkEvent) {
        let _ = event;
    }

    /// A placement period completed.
    fn on_period(&mut self, record: &PeriodRecord) {
        let _ = record;
    }

    /// A full re-pack of the live placement ran — at a period boundary
    /// ([`RepackReason::Periodic`]) or fired off-cycle by a
    /// [`RepackTrigger`] fragmentation predicate
    /// ([`RepackReason::Fragmentation`]).
    fn on_repack(&mut self, event: &RepackEvent) {
        self.on_event(SinkEvent::Repack(*event));
    }

    /// A VM moved servers across a period boundary (migration).
    fn on_migration(&mut self, period: usize, vm: usize, from: usize, to: usize) {
        self.on_event(SinkEvent::Migration {
            period,
            vm,
            from,
            to,
        });
    }

    /// A server exceeded its frequency-scaled capacity for one sample.
    fn on_violation(&mut self, event: &ViolationEvent) {
        self.on_event(SinkEvent::Violation(*event));
    }

    /// Energy a server class consumed over the just-completed period.
    fn on_class_energy(&mut self, period: usize, class: usize, name: &str, period_joules: f64) {
        self.on_event(SinkEvent::ClassEnergy {
            period,
            class,
            name: name.to_string(),
            period_joules,
        });
    }

    /// A mid-period arrival was admitted through the incremental
    /// single-VM placement path.
    fn on_admit(&mut self, sample: usize, vm: usize, server: usize) {
        self.on_event(SinkEvent::Admit { sample, vm, server });
    }

    /// A server failed ([`VmEvent::ServerFail`]); `residents` is the
    /// number of VMs about to be emergency-evacuated. Fires before the
    /// evacuation's migrations and its
    /// [`RepackReason::Evacuation`] re-pack event.
    fn on_server_fail(&mut self, sample: usize, server: usize, residents: usize) {
        self.on_event(SinkEvent::ServerFail {
            sample,
            server,
            residents,
        });
    }

    /// A failed server recovered ([`VmEvent::ServerRecover`]); fires
    /// before the deferred-admission queue retries.
    fn on_server_recover(&mut self, sample: usize, server: usize) {
        self.on_event(SinkEvent::ServerRecover { sample, server });
    }

    /// The session finished; `report` is the terminal aggregate (the
    /// same `SimReport` the batch API returns).
    fn on_summary(&mut self, report: &SimReport) {
        let _ = report;
    }
}

/// A sink that ignores every event — for callers that only want the
/// terminal report via [`DatacenterController::report`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl MetricSink for NullSink {}

/// Collects the stream back into batch-shaped results: the period
/// records as they arrive and the terminal [`SimReport`] — this is the
/// sink `Scenario::run` drives to keep the old API working.
#[derive(Debug, Clone, Default)]
pub struct ReportSink {
    periods: Vec<PeriodRecord>,
    repacks: Vec<RepackEvent>,
    migrations: usize,
    violations: usize,
    admissions: usize,
    report: Option<SimReport>,
}

impl ReportSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Period records streamed so far.
    pub fn periods(&self) -> &[PeriodRecord] {
        &self.periods
    }

    /// Migration events streamed so far.
    pub fn migrations(&self) -> usize {
        self.migrations
    }

    /// Violation instances streamed so far.
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// Incremental admissions streamed so far.
    pub fn admissions(&self) -> usize {
        self.admissions
    }

    /// Every re-pack streamed so far (periodic and off-cycle).
    pub fn repacks(&self) -> &[RepackEvent] {
        &self.repacks
    }

    /// Off-cycle re-packs streamed so far — fragmentation-fired plus
    /// [`QosGuard`]-fired (boundary [`RepackReason::Overcommit`]
    /// capacity checks ride the period clock and are not counted).
    pub fn offcycle_repacks(&self) -> usize {
        self.repacks
            .iter()
            .filter(|r| {
                matches!(
                    r.reason,
                    RepackReason::Fragmentation { .. } | RepackReason::QosGuard { .. }
                )
            })
            .count()
    }

    /// The terminal report, once [`MetricSink::on_summary`] has fired.
    pub fn into_report(self) -> Option<SimReport> {
        self.report
    }
}

impl MetricSink for ReportSink {
    fn on_period(&mut self, record: &PeriodRecord) {
        self.periods.push(record.clone());
    }

    fn on_repack(&mut self, event: &RepackEvent) {
        self.repacks.push(*event);
    }

    fn on_migration(&mut self, _period: usize, _vm: usize, _from: usize, _to: usize) {
        self.migrations += 1;
    }

    fn on_violation(&mut self, _event: &ViolationEvent) {
        self.violations += 1;
    }

    fn on_admit(&mut self, _sample: usize, _vm: usize, _server: usize) {
        self.admissions += 1;
    }

    fn on_summary(&mut self, report: &SimReport) {
        self.report = Some(report.clone());
    }
}

/// One buffered controller event, in delivery order.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkEvent {
    /// A completed period ([`MetricSink::on_period`]).
    Period(PeriodRecord),
    /// A re-pack ([`MetricSink::on_repack`]).
    Repack(RepackEvent),
    /// A cross-boundary migration ([`MetricSink::on_migration`]).
    Migration {
        /// Placement period of the migration.
        period: usize,
        /// The VM that moved.
        vm: usize,
        /// Source server.
        from: usize,
        /// Destination server.
        to: usize,
    },
    /// A capacity violation sample ([`MetricSink::on_violation`]).
    Violation(ViolationEvent),
    /// A class's per-period energy ([`MetricSink::on_class_energy`]).
    ClassEnergy {
        /// Placement period the energy was integrated over.
        period: usize,
        /// Fleet class index.
        class: usize,
        /// Class display name.
        name: String,
        /// Joules the class consumed over the period.
        period_joules: f64,
    },
    /// An incremental admission ([`MetricSink::on_admit`]).
    Admit {
        /// Global sample index of the admission.
        sample: usize,
        /// The admitted VM.
        vm: usize,
        /// The hosting server.
        server: usize,
    },
    /// A server failure ([`MetricSink::on_server_fail`]).
    ServerFail {
        /// Global sample index of the failure.
        sample: usize,
        /// The failed server.
        server: usize,
        /// VMs resident at the instant of failure (about to
        /// emergency-evacuate).
        residents: usize,
    },
    /// A server recovery ([`MetricSink::on_server_recover`]).
    ServerRecover {
        /// Global sample index of the recovery.
        sample: usize,
        /// The recovered server.
        server: usize,
    },
}

impl SinkEvent {
    /// Replays this event into `sink` through the matching named
    /// [`MetricSink`] callback (which, unless `sink` overrides it,
    /// hands the event on to [`MetricSink::on_event`]). Shared by
    /// [`Buffered::drain`], the [`Threaded`] worker loop and the
    /// sharded session's per-cell adapter, so every relay delivers
    /// identically.
    pub fn deliver(self, sink: &mut dyn MetricSink) {
        match self {
            SinkEvent::Period(record) => sink.on_period(&record),
            SinkEvent::Repack(event) => sink.on_repack(&event),
            SinkEvent::Migration {
                period,
                vm,
                from,
                to,
            } => sink.on_migration(period, vm, from, to),
            SinkEvent::Violation(event) => sink.on_violation(&event),
            SinkEvent::ClassEnergy {
                period,
                class,
                name,
                period_joules,
            } => sink.on_class_energy(period, class, &name, period_joules),
            SinkEvent::Admit { sample, vm, server } => sink.on_admit(sample, vm, server),
            SinkEvent::ServerFail {
                sample,
                server,
                residents,
            } => sink.on_server_fail(sample, server, residents),
            SinkEvent::ServerRecover { sample, server } => sink.on_server_recover(sample, server),
        }
    }
}

/// The producer half both adapters share: a bounded queue whose
/// overflow drops the incoming event and counts it. The drop decision
/// is made here, on the replay thread, which is what makes both
/// adapters deterministic under any thread schedule. Period records
/// and the terminal summary never touch the queue, so they can never
/// be dropped.
#[derive(Debug, Clone)]
struct BoundedQueue {
    events: VecDeque<SinkEvent>,
    capacity: usize,
    dropped: u64,
}

impl BoundedQueue {
    /// A queue of at most `capacity` events, clamped up to 1 — a
    /// zero-capacity queue would drop every between-boundary event
    /// unseen.
    fn new(capacity: usize) -> Self {
        Self {
            events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, event: SinkEvent) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
        } else {
            self.events.push_back(event);
        }
    }

    /// The summary an adapter's inner sink sees: `report` with this
    /// queue's drop counter folded in. The fold is **additive** — a
    /// controller report always arrives with `sink_dropped_events ==
    /// 0`, so standalone behaviour is unchanged, but when adapters
    /// nest (e.g. [`Threaded`]`<Buffered<S>>`) each layer adds its own
    /// drops instead of the inner layer overwriting the outer layer's
    /// count.
    fn fold_drops(&self, report: &SimReport) -> SimReport {
        let mut report = report.clone();
        report.sink_dropped_events += self.dropped;
        report
    }
}

/// A bounded, batching adapter around an inner [`MetricSink`]. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct Buffered<S> {
    inner: S,
    queue: BoundedQueue,
}

impl<S: MetricSink> Buffered<S> {
    /// Wraps `inner` behind a queue of at most `capacity` events
    /// (clamped up to 1 — a zero-capacity queue would drop every
    /// between-boundary event unseen). Period records and the terminal
    /// summary are delivered at the flush points themselves and are
    /// never queued, so they can never be dropped.
    pub fn new(inner: S, capacity: usize) -> Self {
        Self {
            inner,
            queue: BoundedQueue::new(capacity),
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Drains the queue and returns the wrapped sink.
    pub fn into_inner(mut self) -> S {
        self.drain();
        self.inner
    }

    /// Events currently queued and not yet delivered.
    pub fn queued(&self) -> usize {
        self.queue.events.len()
    }

    /// Events dropped on queue overflow so far.
    pub fn dropped(&self) -> u64 {
        self.queue.dropped
    }

    /// Delivers every queued event to the inner sink, in arrival
    /// order. Called automatically on every completed period and at
    /// the terminal summary.
    pub fn drain(&mut self) {
        while let Some(event) = self.queue.events.pop_front() {
            event.deliver(&mut self.inner);
        }
    }
}

impl<S: MetricSink> MetricSink for Buffered<S> {
    fn on_event(&mut self, event: SinkEvent) {
        self.queue.push(event);
    }

    fn on_period(&mut self, record: &PeriodRecord) {
        self.drain();
        self.inner.on_period(record);
    }

    fn on_summary(&mut self, report: &SimReport) {
        let report = self.queue.fold_drops(report);
        self.drain();
        self.inner.on_summary(&report);
    }
}

/// Messages crossing the channel between a [`Threaded`] producer and
/// its worker thread. Batches only ever cross at flush points, so the
/// channel bound is small and the replay loop blocks at most once per
/// period while the worker catches up.
enum WorkerMsg {
    /// A drained batch of queued events, in arrival order. A flush at
    /// a period boundary appends the (never-droppable)
    /// [`SinkEvent::Period`] record as the batch's final element.
    Batch(Vec<SinkEvent>),
    /// The terminal report, drop counter already folded in.
    Summary(SimReport),
}

/// A [`Buffered`]-compatible adapter that delivers batches on a real
/// `std::thread` worker, overlapping sink I/O with simulation.
///
/// The producer side is **identical** to [`Buffered`]: events land in
/// a bounded in-memory queue and an overflowing queue drops the
/// incoming event and counts it. Because the drop decision happens on
/// the replay thread against the same bounded queue, the set of
/// dropped events — and therefore everything the wrapped sink
/// eventually sees — is bit-for-bit the sequence [`Buffered`] would
/// have delivered, regardless of thread scheduling. Only the *timing*
/// of delivery differs: at each flush point the queued batch crosses a
/// small bounded channel to the worker instead of running inline.
///
/// The wrapped sink **moves into** the worker thread — this is the
/// answer to the `&mut self` handoff problem: the replay loop never
/// touches the sink concurrently because it cannot reach it at all.
/// [`finish`](Self::finish) closes the channel, joins the worker and
/// returns the sink. If the sink panicked while consuming events the
/// join surfaces it as the typed
/// [`SimError::SinkWorkerPanicked`]
/// instead of a poisoned lock or a hung join; events sent after the
/// panic are discarded without blocking.
///
/// Nesting composes: the drop-counter fold into
/// [`SimReport::sink_dropped_events`] is additive on both adapters, so
/// `Threaded<Buffered<S>>` (or the reverse) reports the *sum* of both
/// layers' drops.
///
/// ```
/// use cavm_sim::sink::Threaded;
/// use cavm_sim::MetricSink;
///
/// #[derive(Default)]
/// struct Count(usize);
/// impl MetricSink for Count {
///     fn on_admit(&mut self, _s: usize, _vm: usize, _server: usize) {
///         self.0 += 1;
///     }
/// }
///
/// let mut sink = Threaded::new(Count::default(), 8);
/// sink.on_admit(0, 1, 0);
/// sink.flush();
/// let count = sink.finish().expect("worker joined");
/// assert_eq!(count.0, 1);
/// ```
pub struct Threaded<S> {
    queue: BoundedQueue,
    tx: Option<mpsc::SyncSender<WorkerMsg>>,
    worker: Option<thread::JoinHandle<S>>,
}

impl<S> fmt::Debug for Threaded<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Threaded")
            .field("queued", &self.queue.events.len())
            .field("capacity", &self.queue.capacity)
            .field("dropped", &self.queue.dropped)
            .field("worker_alive", &self.worker.is_some())
            .finish()
    }
}

impl<S: MetricSink + Send + 'static> Threaded<S> {
    /// Moves `inner` into a spawned worker thread and wraps it behind
    /// a producer-side queue of at most `capacity` events (clamped up
    /// to 1, exactly like [`Buffered::new`]). Period records and the
    /// terminal summary are flushed at the boundary itself and can
    /// never be dropped.
    pub fn new(inner: S, capacity: usize) -> Self {
        // Bound 2: one batch in flight plus one queued keeps the
        // worker busy while bounding memory; the producer only ever
        // blocks at a flush point, never per event.
        let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(2);
        let worker = thread::Builder::new()
            .name("cavm-sink".into())
            .spawn(move || {
                let mut sink = inner;
                while let Ok(msg) = rx.recv() {
                    match msg {
                        WorkerMsg::Batch(events) => {
                            for event in events {
                                event.deliver(&mut sink);
                            }
                        }
                        WorkerMsg::Summary(report) => sink.on_summary(&report),
                    }
                }
                sink
            })
            .expect("spawn sink worker thread");
        Self {
            queue: BoundedQueue::new(capacity),
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// Events currently queued on the producer side, not yet handed to
    /// the worker.
    pub fn queued(&self) -> usize {
        self.queue.events.len()
    }

    /// Events dropped on queue overflow so far.
    pub fn dropped(&self) -> u64 {
        self.queue.dropped
    }

    /// Hands every queued event to the worker as one batch, in arrival
    /// order. Called automatically on every completed period and at
    /// the terminal summary. Blocks only while the channel's small
    /// batch window is full; if the worker has panicked the batch is
    /// discarded without blocking (the panic surfaces at
    /// [`finish`](Self::finish)).
    pub fn flush(&mut self) {
        if self.queue.events.is_empty() {
            return;
        }
        let batch: Vec<SinkEvent> = self.queue.events.drain(..).collect();
        self.send(WorkerMsg::Batch(batch));
    }

    /// Closes the channel, joins the worker and returns the wrapped
    /// sink. Any still-queued events are flushed first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SinkWorkerPanicked`] if the wrapped sink
    /// panicked while consuming events; the sink is lost with the
    /// unwound thread. The join itself can never hang: dropping the
    /// sender ends the worker loop.
    pub fn finish(mut self) -> crate::Result<S> {
        self.flush();
        drop(self.tx.take());
        let worker = self.worker.take().expect("finish consumes the worker");
        worker.join().map_err(|_| SimError::SinkWorkerPanicked)
    }

    fn send(&mut self, msg: WorkerMsg) {
        if let Some(tx) = &self.tx {
            // A send error means the worker panicked and dropped the
            // receiver; discard silently — `finish` reports the panic.
            let _ = tx.send(msg);
        }
    }
}

impl<S> Drop for Threaded<S> {
    fn drop(&mut self) {
        // `finish` already took both handles on the happy path. If the
        // adapter is dropped without `finish` (e.g. unwinding out of a
        // failed replay), close the channel and join so the worker
        // never outlives the adapter; a worker panic is swallowed here
        // because `drop` cannot report it.
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl<S: MetricSink + Send + 'static> MetricSink for Threaded<S> {
    fn on_event(&mut self, event: SinkEvent) {
        self.queue.push(event);
    }

    fn on_period(&mut self, record: &PeriodRecord) {
        let mut batch: Vec<SinkEvent> = self.queue.events.drain(..).collect();
        batch.push(SinkEvent::Period(record.clone()));
        self.send(WorkerMsg::Batch(batch));
    }

    fn on_summary(&mut self, report: &SimReport) {
        let report = self.queue.fold_drops(report);
        self.flush();
        self.send(WorkerMsg::Summary(report));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the call order and the summary it received.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<String>,
        summary: Option<SimReport>,
    }

    impl MetricSink for Recorder {
        fn on_period(&mut self, record: &PeriodRecord) {
            self.calls.push(format!("period{}", record.period));
        }

        fn on_repack(&mut self, event: &RepackEvent) {
            self.calls.push(format!("repack@{}", event.sample));
        }

        fn on_migration(&mut self, _period: usize, vm: usize, _from: usize, _to: usize) {
            self.calls.push(format!("migrate{vm}"));
        }

        fn on_violation(&mut self, event: &ViolationEvent) {
            self.calls.push(format!("violation@{}", event.sample));
        }

        fn on_class_energy(&mut self, period: usize, _class: usize, name: &str, _joules: f64) {
            self.calls.push(format!("energy{period}:{name}"));
        }

        fn on_admit(&mut self, _sample: usize, vm: usize, _server: usize) {
            self.calls.push(format!("admit{vm}"));
        }

        fn on_server_fail(&mut self, sample: usize, server: usize, _residents: usize) {
            self.calls.push(format!("fail{server}@{sample}"));
        }

        fn on_server_recover(&mut self, sample: usize, server: usize) {
            self.calls.push(format!("recover{server}@{sample}"));
        }

        fn on_summary(&mut self, report: &SimReport) {
            self.calls.push("summary".into());
            self.summary = Some(report.clone());
        }
    }

    fn violation(sample: usize) -> ViolationEvent {
        ViolationEvent {
            sample,
            period: 0,
            server: 0,
            class: 0,
            demand: 9.0,
            capacity: 8.0,
        }
    }

    fn period(period: usize) -> PeriodRecord {
        PeriodRecord {
            period,
            servers_used: 2,
            max_violation_ratio: 0.0,
            migrations: 0,
            pcp_clusters: None,
        }
    }

    fn report() -> SimReport {
        SimReport {
            policy: "BFD".into(),
            dynamic_dvfs: false,
            energy: cavm_power::EnergyMeter::new(),
            max_violation_percent: 0.0,
            mean_violation_percent: 0.0,
            violation_instances: 0,
            periods: vec![],
            classes: vec![],
            freq_histogram: vec![],
            freq_levels_ghz: vec![],
            online_admissions: 0,
            offcycle_repacks: 0,
            sink_dropped_events: 0,
            server_failures: 0,
            evacuations: 0,
            deferred_peak: 0,
        }
    }

    /// A sink that implements `on_event` alone receives each of the
    /// seven per-event callbacks as its `SinkEvent`, in call order,
    /// while a period and the summary stay off that stream.
    #[test]
    fn on_event_alone_receives_every_per_event_callback() {
        #[derive(Default)]
        struct Stream(Vec<SinkEvent>);
        impl MetricSink for Stream {
            fn on_event(&mut self, event: SinkEvent) {
                self.0.push(event);
            }
        }
        let repack = RepackEvent {
            sample: 6,
            period: 0,
            reason: RepackReason::Periodic,
            servers_before: 3,
            servers_after: 2,
            migrations: 1,
            slack_after: None,
        };
        let mut sink = Stream::default();
        sink.on_repack(&repack);
        sink.on_migration(1, 4, 0, 2);
        sink.on_violation(&violation(5));
        sink.on_class_energy(1, 0, "uniform", 42.5);
        sink.on_admit(3, 7, 1);
        sink.on_server_fail(8, 1, 2);
        sink.on_server_recover(9, 1);
        sink.on_period(&period(1));
        sink.on_summary(&report());
        assert_eq!(
            sink.0,
            vec![
                SinkEvent::Repack(repack),
                SinkEvent::Migration {
                    period: 1,
                    vm: 4,
                    from: 0,
                    to: 2
                },
                SinkEvent::Violation(violation(5)),
                SinkEvent::ClassEnergy {
                    period: 1,
                    class: 0,
                    name: "uniform".into(),
                    period_joules: 42.5
                },
                SinkEvent::Admit {
                    sample: 3,
                    vm: 7,
                    server: 1
                },
                SinkEvent::ServerFail {
                    sample: 8,
                    server: 1,
                    residents: 2
                },
                SinkEvent::ServerRecover {
                    sample: 9,
                    server: 1
                },
            ]
        );
    }

    #[test]
    fn events_batch_until_the_period_boundary_in_order() {
        let mut sink = Buffered::new(Recorder::default(), 64);
        sink.on_admit(3, 7, 1);
        sink.on_violation(&violation(5));
        sink.on_repack(&RepackEvent {
            sample: 6,
            period: 0,
            reason: RepackReason::Fragmentation {
                estimate: 1,
                active: 3,
            },
            servers_before: 3,
            servers_after: 1,
            migrations: 2,
            slack_after: Some(1),
        });
        assert!(sink.inner().calls.is_empty(), "nothing before the flush");
        assert_eq!(sink.queued(), 3);
        sink.on_period(&period(0));
        assert_eq!(
            sink.inner().calls,
            vec!["admit7", "violation@5", "repack@6", "period0"],
            "arrival order survives the batch"
        );
        assert_eq!(sink.queued(), 0);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let mut sink = Buffered::new(Recorder::default(), 2);
        for k in 0..5 {
            sink.on_violation(&violation(k));
        }
        assert_eq!(sink.queued(), 2);
        assert_eq!(sink.dropped(), 3);
        sink.drain();
        assert_eq!(sink.inner().calls, vec!["violation@0", "violation@1"]);
        // The counter survives the drain (it is a run total).
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn summary_drains_first_and_carries_the_drop_counter() {
        let mut sink = Buffered::new(Recorder::default(), 2);
        for k in 0..4 {
            sink.on_violation(&violation(k));
        }
        sink.on_summary(&report());
        let recorder = sink.into_inner();
        assert_eq!(
            recorder.calls,
            vec!["violation@0", "violation@1", "summary"],
            "queued events deliver before the summary; the summary is never dropped"
        );
        assert_eq!(
            recorder
                .summary
                .expect("summary delivered")
                .sink_dropped_events,
            2
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut sink = Buffered::new(Recorder::default(), 0);
        sink.on_admit(0, 1, 0);
        sink.on_admit(1, 2, 0);
        assert_eq!(sink.queued(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn fault_events_batch_in_order_and_overflow_counts_them() {
        let mut sink = Buffered::new(Recorder::default(), 64);
        sink.on_server_fail(4, 2, 3);
        sink.on_migration(0, 7, 2, 1);
        sink.on_repack(&RepackEvent {
            sample: 4,
            period: 0,
            reason: RepackReason::Evacuation { server: 2 },
            servers_before: 3,
            servers_after: 3,
            migrations: 1,
            slack_after: None,
        });
        sink.on_server_recover(9, 2);
        assert!(sink.inner().calls.is_empty(), "nothing before the flush");
        sink.on_period(&period(0));
        assert_eq!(
            sink.inner().calls,
            vec!["fail2@4", "migrate7", "repack@4", "recover2@9", "period0"],
            "failure, evacuation and recovery keep stream order"
        );
        // Fail/recover events are droppable like any queued event.
        let mut sink = Buffered::new(Recorder::default(), 1);
        sink.on_server_fail(0, 0, 0);
        sink.on_server_recover(1, 0);
        assert_eq!(sink.queued(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn into_inner_drains_the_queue() {
        let mut sink = Buffered::new(Recorder::default(), 8);
        sink.on_migration(1, 4, 0, 2);
        let recorder = sink.into_inner();
        assert_eq!(recorder.calls, vec!["migrate4"]);
    }

    // ---- Threaded transparency suite: mirrors the Buffered tests
    // above, event for event, with delivery on the worker thread.

    #[test]
    fn threaded_events_batch_until_the_period_boundary_in_order() {
        let mut sink = Threaded::new(Recorder::default(), 64);
        sink.on_admit(3, 7, 1);
        sink.on_violation(&violation(5));
        sink.on_repack(&RepackEvent {
            sample: 6,
            period: 0,
            reason: RepackReason::Fragmentation {
                estimate: 1,
                active: 3,
            },
            servers_before: 3,
            servers_after: 1,
            migrations: 2,
            slack_after: Some(1),
        });
        assert_eq!(sink.queued(), 3);
        sink.on_period(&period(0));
        assert_eq!(sink.queued(), 0);
        assert_eq!(sink.dropped(), 0);
        let recorder = sink.finish().expect("worker joined");
        assert_eq!(
            recorder.calls,
            vec!["admit7", "violation@5", "repack@6", "period0"],
            "arrival order survives the batch and the thread hop"
        );
    }

    #[test]
    fn threaded_overflow_drops_newest_and_counts_exactly() {
        let mut sink = Threaded::new(Recorder::default(), 2);
        for k in 0..5 {
            sink.on_violation(&violation(k));
        }
        // Drop decisions are made on the producer side before anything
        // crosses the channel, so the counter is exact and scheduler-
        // independent.
        assert_eq!(sink.queued(), 2);
        assert_eq!(sink.dropped(), 3);
        sink.flush();
        assert_eq!(sink.dropped(), 3, "the counter survives the flush");
        let recorder = sink.finish().expect("worker joined");
        assert_eq!(recorder.calls, vec!["violation@0", "violation@1"]);
    }

    #[test]
    fn threaded_summary_drains_first_and_carries_the_drop_counter() {
        let mut sink = Threaded::new(Recorder::default(), 2);
        for k in 0..4 {
            sink.on_violation(&violation(k));
        }
        sink.on_summary(&report());
        let recorder = sink.finish().expect("worker joined");
        assert_eq!(
            recorder.calls,
            vec!["violation@0", "violation@1", "summary"],
            "queued events deliver before the summary; the summary is never dropped"
        );
        assert_eq!(
            recorder
                .summary
                .expect("summary delivered")
                .sink_dropped_events,
            2
        );
    }

    #[test]
    fn threaded_zero_capacity_is_clamped_to_one() {
        let mut sink = Threaded::new(Recorder::default(), 0);
        sink.on_admit(0, 1, 0);
        sink.on_admit(1, 2, 0);
        assert_eq!(sink.queued(), 1);
        assert_eq!(sink.dropped(), 1);
        let recorder = sink.finish().expect("worker joined");
        assert_eq!(recorder.calls, vec!["admit1"]);
    }

    #[test]
    fn threaded_fault_events_batch_in_order_and_overflow_counts_them() {
        let mut sink = Threaded::new(Recorder::default(), 64);
        sink.on_server_fail(4, 2, 3);
        sink.on_migration(0, 7, 2, 1);
        sink.on_repack(&RepackEvent {
            sample: 4,
            period: 0,
            reason: RepackReason::Evacuation { server: 2 },
            servers_before: 3,
            servers_after: 3,
            migrations: 1,
            slack_after: None,
        });
        sink.on_server_recover(9, 2);
        sink.on_period(&period(0));
        let recorder = sink.finish().expect("worker joined");
        assert_eq!(
            recorder.calls,
            vec!["fail2@4", "migrate7", "repack@4", "recover2@9", "period0"],
            "failure, evacuation and recovery keep stream order"
        );
        // Fail/recover events are droppable like any queued event.
        let mut sink = Threaded::new(Recorder::default(), 1);
        sink.on_server_fail(0, 0, 0);
        sink.on_server_recover(1, 0);
        assert_eq!(sink.queued(), 1);
        assert_eq!(sink.dropped(), 1);
        drop(sink); // Drop joins the worker without finish().
    }

    #[test]
    fn threaded_finish_without_flush_delivers_queued_events() {
        let mut sink = Threaded::new(Recorder::default(), 8);
        sink.on_migration(1, 4, 0, 2);
        let recorder = sink.finish().expect("worker joined");
        assert_eq!(recorder.calls, vec!["migrate4"]);
    }

    /// Drives identical pseudo-random event sequences through
    /// `Buffered` and `Threaded` across several capacities: the inner
    /// recorder must see the exact same call sequence and the exact
    /// same folded drop counter — the pinning guarantee the module
    /// docs promise.
    #[test]
    fn threaded_is_pinned_event_for_event_against_buffered() {
        for &capacity in &[1usize, 2, 3, 8, 64] {
            let mut state: u64 = 0x2013_0000 ^ capacity as u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let mut buffered = Buffered::new(Recorder::default(), capacity);
            let mut threaded = Threaded::new(Recorder::default(), capacity);
            let mut periods = 0usize;
            for k in 0..400 {
                let sinks: [&mut dyn MetricSink; 2] = [&mut buffered, &mut threaded];
                let op = next() % 9;
                for sink in sinks {
                    match op {
                        0 => sink.on_admit(k, k % 17, k % 5),
                        1 => sink.on_violation(&violation(k)),
                        2 => sink.on_migration(periods, k % 13, 0, 1),
                        3 => sink.on_class_energy(periods, 0, "xeon", k as f64),
                        4 => sink.on_server_fail(k, k % 4, 2),
                        5 => sink.on_server_recover(k, k % 4),
                        6 => sink.on_repack(&RepackEvent {
                            sample: k,
                            period: periods,
                            reason: RepackReason::Periodic,
                            servers_before: 4,
                            servers_after: 3,
                            migrations: 1,
                            slack_after: None,
                        }),
                        _ => sink.on_period(&period(periods)),
                    }
                }
                if op >= 7 {
                    periods += 1;
                }
            }
            buffered.on_summary(&report());
            threaded.on_summary(&report());
            assert_eq!(buffered.dropped(), threaded.dropped());
            let pinned = buffered.into_inner();
            let recorded = threaded.finish().expect("worker joined");
            assert_eq!(
                pinned.calls, recorded.calls,
                "capacity {capacity}: Threaded must deliver the exact Buffered sequence"
            );
            assert_eq!(
                pinned.summary.as_ref().map(|r| r.sink_dropped_events),
                recorded.summary.as_ref().map(|r| r.sink_dropped_events)
            );
        }
    }

    /// A sink that panics while consuming an event on the worker.
    struct PanicsOnAdmit;

    impl MetricSink for PanicsOnAdmit {
        fn on_admit(&mut self, _sample: usize, _vm: usize, _server: usize) {
            panic!("sink exploded mid-delivery");
        }
    }

    #[test]
    fn panic_in_sink_joins_as_typed_error_without_deadlock() {
        let mut sink = Threaded::new(PanicsOnAdmit, 1);
        sink.on_admit(0, 1, 0);
        sink.flush();
        // Keep producing after the worker has (or is about to have)
        // panicked: sends must either land or fail fast — a 1-slot
        // queue over a 2-batch channel would deadlock here if a dead
        // receiver could block a send.
        for k in 0..32 {
            sink.on_admit(k, k, 0);
            sink.flush();
        }
        assert_eq!(sink.finish().map(|_| ()), Err(SimError::SinkWorkerPanicked));
    }

    // ---- nesting: the additive drop fold composes in either order.

    #[test]
    fn threaded_around_buffered_sums_drop_counters() {
        // Outer Threaded drops 2 of 4 (capacity 2); its surviving
        // batch then overflows the inner Buffered (capacity 1) for 1
        // more drop on the worker side.
        let inner = Buffered::new(Recorder::default(), 1);
        let mut sink = Threaded::new(inner, 2);
        for k in 0..4 {
            sink.on_violation(&violation(k));
        }
        sink.on_summary(&report());
        assert_eq!(sink.dropped(), 2);
        let buffered = sink.finish().expect("worker joined");
        assert_eq!(buffered.dropped(), 1);
        let recorder = buffered.into_inner();
        assert_eq!(recorder.calls, vec!["violation@0", "summary"]);
        assert_eq!(
            recorder
                .summary
                .expect("summary delivered")
                .sink_dropped_events,
            3,
            "outer 2 + inner 1, no overwrite and no double count"
        );
    }

    #[test]
    fn buffered_around_threaded_sums_drop_counters() {
        let inner = Threaded::new(Recorder::default(), 1);
        let mut sink = Buffered::new(inner, 2);
        for k in 0..4 {
            sink.on_violation(&violation(k));
        }
        sink.on_summary(&report());
        assert_eq!(sink.dropped(), 2);
        let threaded = sink.into_inner();
        assert_eq!(threaded.dropped(), 1);
        let recorder = threaded.finish().expect("worker joined");
        assert_eq!(recorder.calls, vec!["violation@0", "summary"]);
        assert_eq!(
            recorder
                .summary
                .expect("summary delivered")
                .sink_dropped_events,
            3,
            "outer 2 + inner 1, summed through the thread hop"
        );
    }
}
