use cavm_core::CoreError;
use cavm_power::PowerError;
use cavm_trace::TraceError;
use cavm_workload::WorkloadError;
use std::fmt;

/// Errors produced by the datacenter simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An underlying time-series operation failed.
    Trace(TraceError),
    /// An underlying power-model operation failed.
    Power(PowerError),
    /// An underlying correlation/allocation operation failed.
    Core(CoreError),
    /// A workload operation failed (trace synthesis or dataset
    /// ingestion).
    Workload(WorkloadError),
    /// A scenario parameter was out of range.
    InvalidParameter(&'static str),
    /// A placement needed more servers than the scenario's fleet
    /// provides.
    InsufficientServers {
        /// Upper bound on the servers the placement would have wanted
        /// (every open slot plus one per still-unallocated VM).
        needed: usize,
        /// Servers the scenario's fleet has.
        available: usize,
    },
    /// An `Arrive` event reused the id of a VM that is still live in
    /// the session.
    DuplicateVm {
        /// The offending VM id.
        id: usize,
    },
    /// A `Depart` event named a VM id the session has never seen.
    UnknownVm {
        /// The offending VM id.
        id: usize,
    },
    /// A `Depart` event named a VM that already departed.
    VmAlreadyDeparted {
        /// The offending VM id.
        id: usize,
    },
    /// A `ServerFail`/`ServerRecover` event named a server index the
    /// session has not provisioned.
    UnknownServer {
        /// The offending server index.
        server: usize,
        /// Servers currently provisioned in the session.
        servers: usize,
    },
    /// A `ServerFail` event targeted a server that is already failed.
    ServerAlreadyFailed {
        /// The offending server index.
        server: usize,
    },
    /// A `ServerRecover` event targeted a server that is not failed.
    ServerNotFailed {
        /// The offending server index.
        server: usize,
    },
    /// An event plan's clock ran backwards: a scheduled sample
    /// precedes the one before it.
    NonMonotoneClock {
        /// The out-of-order sample index.
        sample: usize,
        /// The sample index it should not precede.
        previous: usize,
    },
    /// The degraded-mode deferred-admission queue is full: the fleet
    /// has lost too much capacity to even *remember* every pending VM.
    /// The triggering event is rejected atomically (session state is
    /// unchanged) so the caller can shed load and continue.
    DeferredQueueFull {
        /// The configured queue capacity
        /// (`ControllerConfig::max_deferred`).
        capacity: usize,
    },
    /// An event arrived after `finish` closed the controller session.
    SessionFinished,
    /// The [`sink::Threaded`](crate::sink::Threaded) consumer thread
    /// panicked while delivering events to the wrapped sink. The
    /// panic is surfaced as a typed error at
    /// [`Threaded::finish`](crate::sink::Threaded::finish) — never as
    /// a poisoned lock or a hung join — and the wrapped sink is lost
    /// with the unwound thread.
    SinkWorkerPanicked,
    /// A [`SessionEvent`](crate::service::SessionEvent) named a
    /// session index the [`SessionHost`](crate::service::SessionHost)
    /// does not own.
    UnknownSession {
        /// The offending session index.
        session: usize,
        /// Sessions the host owns.
        sessions: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Trace(e) => write!(f, "trace error: {e}"),
            SimError::Power(e) => write!(f, "power error: {e}"),
            SimError::Core(e) => write!(f, "core error: {e}"),
            SimError::Workload(e) => write!(f, "workload error: {e}"),
            SimError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            SimError::InsufficientServers { needed, available } => {
                write!(
                    f,
                    "placement needs {needed} servers but only {available} exist"
                )
            }
            SimError::DuplicateVm { id } => {
                write!(f, "vm {id} is already live in the session")
            }
            SimError::UnknownVm { id } => {
                write!(f, "vm {id} was never registered with the controller")
            }
            SimError::VmAlreadyDeparted { id } => {
                write!(f, "vm {id} already departed")
            }
            SimError::UnknownServer { server, servers } => {
                write!(f, "server {server} does not exist ({servers} provisioned)")
            }
            SimError::ServerAlreadyFailed { server } => {
                write!(f, "server {server} is already failed")
            }
            SimError::ServerNotFailed { server } => {
                write!(f, "server {server} is not failed")
            }
            SimError::NonMonotoneClock { sample, previous } => {
                write!(
                    f,
                    "event clock ran backwards: sample {sample} scheduled after sample {previous}"
                )
            }
            SimError::DeferredQueueFull { capacity } => {
                write!(
                    f,
                    "deferred-admission queue is full ({capacity} slots); event rejected"
                )
            }
            SimError::SessionFinished => {
                write!(f, "controller session already finished")
            }
            SimError::SinkWorkerPanicked => {
                write!(f, "threaded sink worker panicked; wrapped sink lost")
            }
            SimError::UnknownSession { session, sessions } => {
                write!(f, "session {session} does not exist ({sessions} hosted)")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Trace(e) => Some(e),
            SimError::Power(e) => Some(e),
            SimError::Core(e) => Some(e),
            SimError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

impl From<PowerError> for SimError {
    fn from(e: PowerError) -> Self {
        SimError::Power(e)
    }
}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> Self {
        SimError::Core(e)
    }
}

impl From<WorkloadError> for SimError {
    fn from(e: WorkloadError) -> Self {
        SimError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(SimError::from(TraceError::EmptyInput)
            .to_string()
            .contains("trace"));
        assert!(SimError::from(PowerError::EmptyLadder)
            .to_string()
            .contains("power"));
        assert!(SimError::from(CoreError::InvalidParameter("x"))
            .to_string()
            .contains("core"));
        let w = SimError::from(WorkloadError::InvalidParameter("x"));
        assert!(w.to_string().contains("workload"));
        assert!(std::error::Error::source(&w).is_some());
        let e = SimError::InsufficientServers {
            needed: 30,
            available: 20,
        };
        assert!(e.to_string().contains("30"));
        assert!(std::error::Error::source(&e).is_none());
        assert!(std::error::Error::source(&SimError::from(TraceError::EmptyInput)).is_some());
    }

    #[test]
    fn event_path_variants_render_their_context() {
        assert!(SimError::DuplicateVm { id: 7 }.to_string().contains("7"));
        assert!(SimError::UnknownVm { id: 3 }
            .to_string()
            .contains("never registered"));
        assert!(SimError::VmAlreadyDeparted { id: 4 }
            .to_string()
            .contains("departed"));
        let e = SimError::UnknownServer {
            server: 9,
            servers: 5,
        };
        assert!(e.to_string().contains("9") && e.to_string().contains("5"));
        assert!(SimError::ServerAlreadyFailed { server: 2 }
            .to_string()
            .contains("already failed"));
        assert!(SimError::ServerNotFailed { server: 2 }
            .to_string()
            .contains("not failed"));
        let e = SimError::NonMonotoneClock {
            sample: 10,
            previous: 20,
        };
        assert!(e.to_string().contains("backwards"));
        assert!(SimError::DeferredQueueFull { capacity: 8 }
            .to_string()
            .contains("8 slots"));
        assert!(SimError::SessionFinished.to_string().contains("finished"));
        assert!(SimError::SinkWorkerPanicked
            .to_string()
            .contains("panicked"));
        let e = SimError::UnknownSession {
            session: 9,
            sessions: 4,
        };
        assert!(e.to_string().contains("9") && e.to_string().contains("4"));
        // None of the event-path variants wrap a foreign source.
        assert!(std::error::Error::source(&SimError::SessionFinished).is_none());
        assert!(std::error::Error::source(&SimError::SinkWorkerPanicked).is_none());
    }
}
