//! The event payloads: what drives a session ([`VmEvent`]) and what a
//! session streams back through a [`MetricSink`] ([`RepackEvent`] with
//! its [`RepackReason`], [`ViolationEvent`]).

#[cfg(doc)]
use crate::controller::{DatacenterController, WhatIf};
#[cfg(doc)]
use crate::feedback::{QosGuard, RepackTrigger, SlackController};
#[cfg(doc)]
use crate::sink::MetricSink;
use cavm_trace::TimeSeries;

/// Why a re-pack ran, carried by [`RepackEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepackReason {
    /// The period clock (Fig 2's every-`t_period` ALLOCATE pass). The
    /// session's first placement of a live VM set fires with this
    /// reason under every trigger.
    Periodic,
    /// The fragmentation predicate fired off-cycle: the Eqn (3) bound
    /// `estimate` had dropped at least `slack` below the `active`
    /// server count.
    Fragmentation {
        /// Eqn (3) lower bound at the firing instant.
        estimate: usize,
        /// Active (non-empty) servers at the firing instant.
        active: usize,
    },
    /// The [`QosGuard`] fired off-cycle: some server had accumulated
    /// `violations` over-capacity samples this period, pushing the
    /// worst per-server violation ratio past the guard's threshold.
    /// The breaching servers were surgically re-packed — predictions
    /// refreshed from the period's observed samples, largest members
    /// trimmed onto other servers until the refreshed load fits.
    QosGuard {
        /// Worst per-server over-capacity sample count at the firing
        /// instant (divide by the period length for the ratio).
        violations: usize,
    },
    /// A placement-keeping period boundary's capacity check (active
    /// when a [`QosGuard`] is configured) evicted and re-admitted the
    /// members of `servers` servers whose refreshed predicted Eqn (2)
    /// aggregate exceeded their capacity.
    Overcommit {
        /// Servers whose predicted aggregate exceeded capacity.
        servers: usize,
    },
    /// Server `server` failed ([`VmEvent::ServerFail`]) and its
    /// residents were emergency-evacuated: each re-admitted through
    /// the active policy's single-VM rule with every failed server
    /// excluded. `migrations` counts the residents that landed on an
    /// outliving server; the rest entered the deferred-admission
    /// queue. Unlike every other reason this is not a consolidation
    /// move and does not count toward
    /// [`SimReport::offcycle_repacks`](crate::SimReport::offcycle_repacks).
    Evacuation {
        /// The failed server the residents fled.
        server: usize,
    },
    /// A hypothetical re-pack run by a [`WhatIf`] probe on a **fork**
    /// of the live session. Never emitted by a live controller: the
    /// event only ever reaches the probe's internal capture sink (or a
    /// sink the caller drives the fork with directly), and the live
    /// session's state, counters and stream are untouched.
    WhatIf,
}

/// One full re-pack of the live placement, as streamed to
/// [`MetricSink::on_repack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepackEvent {
    /// Global sample index at which the re-pack ran.
    pub sample: usize,
    /// Placement period the re-pack belongs to.
    pub period: usize,
    /// What fired it.
    pub reason: RepackReason,
    /// Active servers before the re-pack.
    pub servers_before: usize,
    /// Active servers after the re-pack.
    pub servers_after: usize,
    /// VMs whose server changed in the re-pack.
    pub migrations: usize,
    /// Fragmentation slack in effect *after* this re-pack — the
    /// [`SlackController`] may have just adapted it from the re-pack's
    /// realized outcome. `None` when the schedule has no fragmentation
    /// dimension ([`RepackTrigger::Periodic`]).
    pub slack_after: Option<u32>,
}

/// One step of a VM's lifecycle, applied with
/// [`DatacenterController::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum VmEvent {
    /// A VM enters the datacenter. `trace` is its demand signal from
    /// this instant on (sample 0 of the trace is the current tick).
    /// Ids are caller-chosen but must be fresh — a departed id cannot
    /// re-arrive.
    Arrive {
        /// Fresh VM id; names the VM in the controller's registry and
        /// in every placement and event from now on. (Per-id state is
        /// a few words; the period windows and cost matrix are sized
        /// by the VMs a period holds, so sparse or ever-growing ids
        /// are cheap.)
        id: usize,
        /// Demand trace starting at the arrival instant. Samples past
        /// its end (or after departure) read as zero demand.
        trace: TimeSeries,
        /// Remaining lease in samples, when known (`None` =
        /// open-ended). Lease-aware admission uses it to keep
        /// soon-empty servers drainable; the caller remains
        /// responsible for sending the matching
        /// [`VmEvent::Depart`].
        lease_samples: Option<usize>,
    },
    /// The VM's lease ends; it is evicted from its server before the
    /// next sample is replayed.
    Depart {
        /// Id of a currently live VM.
        id: usize,
    },
    /// A provisioned server fails. Its residents are
    /// emergency-evacuated through the active policy (failed servers
    /// excluded); residents the shrunken fleet cannot host enter the
    /// bounded deferred-admission queue. While any server is failed
    /// the controller runs **degraded**: fragmentation/hybrid
    /// consolidation and deliberate boundary overcommit are suspended
    /// (the [`QosGuard`] stays armed).
    ServerFail {
        /// Index of a currently provisioned, healthy server.
        server: usize,
    },
    /// A failed server comes back. Its slot is admissible again and
    /// the deferred-admission queue immediately retries in FIFO order.
    ServerRecover {
        /// Index of a currently failed server.
        server: usize,
    },
    /// Advance one monitoring sample.
    Tick,
}

/// One capacity violation instance, as streamed to
/// [`MetricSink::on_violation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViolationEvent {
    /// Global sample index.
    pub sample: usize,
    /// Placement period index.
    pub period: usize,
    /// Server (placement bin) index.
    pub server: usize,
    /// Fleet class of the server.
    pub class: usize,
    /// Aggregate demand at the instant, cores.
    pub demand: f64,
    /// Frequency-scaled capacity it exceeded, cores.
    pub capacity: f64,
}
