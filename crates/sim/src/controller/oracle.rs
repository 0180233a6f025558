//! Debug-build differential oracle for the row-recycling period state.
//!
//! The controller keeps its period windows and cost matrix over a
//! recycled row table and answers for ids without a row by rule (see
//! [`CostMatrix`]'s keyed form). This module re-derives, **from the
//! registered traces alone**, what the straightforward design holds at
//! the same instant — one window and one matrix row per id ever seen,
//! a fresh `CostMatrix::new(universe)` replayed at every close and
//! again, zero-padded, whenever ids were registered since — and
//! asserts at every boundary that the two agree bit for bit on every
//! pair of live ids, on every server's Eqn (2) aggregate, and on the
//! windows PCP clusters. A matrix-blind session
//! ([`ControllerConfig::reads_pair_costs`] is false) never fills its
//! matrix, so there the dense one is replayed all the same and the
//! assertion is the one that lets the fill go: every batch pass,
//! re-run against the dense matrix, packs the same [`Placement`]. It
//! exists only under `debug_assertions`, so every debug-build test
//! that drives a controller runs the comparison; release builds carry
//! none of it.

use super::{ControllerConfig, DatacenterController, IdState};
use cavm_core::alloc::{AllocationPolicy, Placement, VmDescriptor};
use cavm_core::corr::CostMatrix;
use cavm_core::servercost::ServerCostAggregate;
use cavm_trace::TimeSeries;

/// A VM as registered, kept past its departure.
#[derive(Debug, Clone)]
struct Registered {
    trace: TimeSeries,
    arrival: usize,
    /// Global sample index from which the VM reads zero.
    departure: Option<usize>,
}

#[derive(Debug, Clone, Default)]
pub(super) struct Oracle {
    /// Indexed by id, like everything here.
    vms: Vec<Option<Registered>>,
    /// `[start, end)` of the last period that closed with any id
    /// registered.
    closed: Option<(usize, usize)>,
    /// The universe-indexed matrix: rebuilt at every such close over
    /// the ids registered then, and re-replayed zero-padded by
    /// [`Oracle::refresh`] once more ids exist.
    matrix: Option<CostMatrix>,
}

impl Oracle {
    pub(super) fn arrive(&mut self, id: usize, trace: &TimeSeries, clock: usize) {
        if self.vms.len() <= id {
            self.vms.resize(id + 1, None);
        }
        self.vms[id] = Some(Registered {
            trace: trace.clone(),
            arrival: clock,
            departure: None,
        });
    }

    /// Rolls a refused arrival back.
    pub(super) fn forget(&mut self, id: usize) {
        self.vms[id] = None;
    }

    pub(super) fn depart(&mut self, id: usize, clock: usize) {
        if let Some(vm) = self.vms[id].as_mut() {
            vm.departure = Some(clock);
        }
    }

    /// The last closed period's window of every id below `universe`.
    fn windows(&self, universe: usize, cfg: &ControllerConfig) -> Option<Vec<TimeSeries>> {
        let (start, end) = self.closed?;
        let windows = (0..universe)
            .map(|id| {
                let values = (start..end)
                    .map(|k| match self.vms.get(id).and_then(Option::as_ref) {
                        Some(vm) if k >= vm.arrival && vm.departure.is_none_or(|d| k < d) => vm
                            .trace
                            .values()
                            .get(k - vm.arrival)
                            .copied()
                            .unwrap_or(0.0),
                        _ => 0.0,
                    })
                    .collect();
                TimeSeries::new(cfg.sample_dt_s, values).expect("registered samples are finite")
            })
            .collect();
        Some(windows)
    }

    fn rebuild(&mut self, universe: usize, cfg: &ControllerConfig) {
        let mut matrix =
            CostMatrix::new(universe, cfg.reference).expect("the session built the same matrix");
        if let Some(windows) = self.windows(universe, cfg) {
            let refs: Vec<&TimeSeries> = windows.iter().collect();
            matrix
                .push_columns(&refs, 0, cfg.period_samples)
                .expect("equally long windows");
        }
        self.matrix = Some(matrix);
    }

    /// A period over `[start, end)` closed with `universe > 0` ids
    /// registered.
    pub(super) fn close(
        &mut self,
        start: usize,
        end: usize,
        universe: usize,
        cfg: &ControllerConfig,
    ) {
        self.closed = Some((start, end));
        self.rebuild(universe, cfg);
    }

    /// The matrix is about to be asked about every id below
    /// `universe`.
    pub(super) fn refresh(&mut self, universe: usize, cfg: &ControllerConfig) {
        if self.matrix.as_ref().is_none_or(|m| m.len() != universe) {
            self.rebuild(universe, cfg);
        }
    }

    /// Asserts the session's matrix agrees on every pair of live ids
    /// and — when `servers`, i.e. at an instant the aggregates were
    /// just rebuilt against the current matrix — on every server's
    /// aggregate. A matrix-blind session has no pair to compare: its
    /// passes answer to [`Oracle::check_blind_pass`] instead.
    pub(super) fn check(&self, ctl: &DatacenterController, servers: bool) {
        if !ctl.cfg.reads_pair_costs() {
            return;
        }
        let (dense, keyed) = match (&self.matrix, &ctl.matrix) {
            (None, None) => return,
            (Some(dense), Some(keyed)) => (dense, keyed),
            (dense, keyed) => panic!(
                "period matrix lifecycle diverged: universe-indexed {:?}, keyed {:?}",
                dense.as_ref().map(CostMatrix::len),
                keyed.as_ref().map(CostMatrix::len),
            ),
        };
        assert_eq!(keyed.len(), dense.len(), "id bound of the period matrix");
        let live: Vec<usize> = (0..ctl.ids.len())
            .filter(|&id| matches!(ctl.ids[id], IdState::Live(_)))
            .collect();
        for &i in &live {
            for &j in &live {
                let (a, b) = (keyed.cost_or_neutral(i, j), dense.cost_or_neutral(i, j));
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "pair ({i}, {j}) at sample {}: keyed {a} vs universe-indexed {b}",
                    ctl.clock,
                );
            }
        }
        if !servers {
            return;
        }
        for (s, members) in ctl.placement.servers().iter().enumerate() {
            let mut agg = ServerCostAggregate::new();
            for &id in members {
                agg.push(id, ctl.dense_vms[id].demand, dense);
            }
            assert_eq!(
                ctl.servers[s].agg.cost().to_bits(),
                agg.cost().to_bits(),
                "server {s}'s cost aggregate at sample {}",
                ctl.clock,
            );
        }
    }

    /// Asserts that the batch pass a matrix-blind session just ran
    /// against its empty matrix packs the same placement against the
    /// dense one — i.e. that skipping the fill changed nothing. (Such
    /// a session has no overcommit, so its margins are all zero and
    /// the pass is the policy's plain `place`.)
    pub(super) fn check_blind_pass(
        &self,
        policy: &dyn AllocationPolicy,
        vms: &[VmDescriptor],
        cfg: &ControllerConfig,
        got: &Placement,
    ) {
        if cfg.reads_pair_costs() {
            return;
        }
        let dense = self
            .matrix
            .as_ref()
            .expect("refreshed before every batch pass");
        let want = policy
            .place(vms, dense, &cfg.server_fleet)
            .expect("the session's own pass succeeded");
        assert_eq!(
            got,
            &want,
            "{} read the matrix it was declared blind to",
            policy.name()
        );
    }

    /// Asserts the id-indexed envelope windows PCP is about to cluster
    /// are the ones the traces give.
    pub(super) fn check_pcp_windows(&self, refs: &[&TimeSeries], cfg: &ControllerConfig) {
        let windows = self
            .windows(refs.len(), cfg)
            .expect("pcp clusters only after a close");
        for (id, (have, want)) in refs.iter().zip(&windows).enumerate() {
            assert_eq!(
                have.values(),
                want.values(),
                "pcp envelope window of id {id}"
            );
        }
    }
}
