//! What-if probes: hypothetical re-packs on a fork of a live session.

use super::{DatacenterController, MetricSink, NullSink, RepackEvent, RepackReason, VmEvent};

impl DatacenterController {
    /// Opens a [`WhatIf`] probe over a fork of the session: run a
    /// hypothetical re-pack (or any event suffix) and read the delta,
    /// with the live session guaranteed untouched.
    pub fn what_if(&self) -> WhatIf {
        WhatIf { fork: self.clone() }
    }
}

/// A what-if probe: a **fork** of a live session an operator can run
/// hypotheticals on without perturbing the original.
///
/// Opened with [`DatacenterController::what_if`] (or cell-wise through
/// [`ShardedController::what_if_repack`](crate::ShardedController::what_if_repack)).
/// The canonical question — "what would an off-cycle re-pack buy me
/// right now?" — is [`repack`](Self::repack), which runs the full
/// batch consolidation pass on the fork and returns a [`WhatIfDelta`].
/// Arbitrary event suffixes ("what if these ten VMs departed and
/// *then* I re-packed?") go through [`apply`](Self::apply) first. The
/// live session is never touched: the fork-isolation tests pin that a
/// probe leaves the original's full state bit-identical.
#[derive(Debug, Clone)]
pub struct WhatIf {
    fork: DatacenterController,
}

/// What a hypothetical re-pack would change, measured on the fork by
/// [`WhatIf::repack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfDelta {
    /// Active servers before the hypothetical re-pack.
    pub servers_before: usize,
    /// Active servers after it.
    pub servers_after: usize,
    /// Servers the re-pack would power off
    /// (`servers_before - servers_after`, floored at zero).
    pub servers_freed: usize,
    /// VMs the re-pack would migrate.
    pub migrations: usize,
    /// Estimated energy saved over the remainder of the current
    /// placement period, joules: the [`estimated_power_watts`]
    /// delta (before − after) × remaining period seconds. Negative
    /// when the re-pack would cost energy (it opened servers).
    ///
    /// [`estimated_power_watts`]: DatacenterController::estimated_power_watts
    pub energy_estimate: f64,
}

impl WhatIfDelta {
    /// The no-op delta of a probe with nothing to re-pack.
    fn unchanged(servers: usize) -> Self {
        Self {
            servers_before: servers,
            servers_after: servers,
            servers_freed: 0,
            migrations: 0,
            energy_estimate: 0.0,
        }
    }
}

/// Captures the fork's re-pack event for the delta report.
#[derive(Default)]
struct CaptureRepack {
    last: Option<RepackEvent>,
}

impl MetricSink for CaptureRepack {
    fn on_repack(&mut self, event: &RepackEvent) {
        self.last = Some(*event);
    }
}

impl WhatIf {
    /// The fork, for inspection (clock, placement, live VMs, …).
    pub fn controller(&self) -> &DatacenterController {
        &self.fork
    }

    /// Applies an event to the **fork** — a hypothetical suffix the
    /// live session never sees. Metric events the fork emits are
    /// discarded.
    ///
    /// # Errors
    ///
    /// As [`DatacenterController::apply`], against the fork's state.
    pub fn apply(&mut self, event: VmEvent) -> crate::Result<()> {
        self.fork.apply(event, &mut NullSink)
    }

    /// Runs the hypothetical off-cycle re-pack — the same full batch
    /// consolidation pass a fragmentation trigger would run, under
    /// [`RepackReason::WhatIf`] — on the fork and reports the delta.
    /// Outside a placement period (a freshly opened session, or after
    /// `finish`) or with no live VMs there is nothing to re-pack and
    /// the delta is all zeros.
    ///
    /// # Errors
    ///
    /// Propagates placement/power errors from the fork's re-pack.
    pub fn repack(&mut self) -> crate::Result<WhatIfDelta> {
        let servers_before = self.fork.placement.active_server_count();
        if self.fork.live_vms() == 0 || !self.fork.mid_period() {
            return Ok(WhatIfDelta::unchanged(servers_before));
        }
        let watts_before = self.fork.estimated_power_watts()?;
        let mut capture = CaptureRepack::default();
        self.fork
            .midperiod_repack(RepackReason::WhatIf, &mut capture)?;
        let servers_after = self.fork.placement.active_server_count();
        let watts_after = self.fork.estimated_power_watts()?;
        let remaining = self
            .fork
            .cfg
            .period_samples
            .saturating_sub(self.fork.clock - self.fork.period_start);
        Ok(WhatIfDelta {
            servers_before,
            servers_after,
            servers_freed: servers_before.saturating_sub(servers_after),
            migrations: capture.last.map_or(0, |e| e.migrations),
            energy_estimate: (watts_before - watts_after)
                * remaining as f64
                * self.fork.cfg.sample_dt_s,
        })
    }

    /// Consumes the probe, keeping the fork as an independent session
    /// (e.g. to commit the hypothetical by swapping it in).
    pub fn into_fork(self) -> DatacenterController {
        self.fork
    }
}
