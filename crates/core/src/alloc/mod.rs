//! VM-to-server allocation policies.
//!
//! All policies implement [`AllocationPolicy`]: given per-VM demand
//! descriptors, the pairwise [`CostMatrix`] and a [`ServerFleet`]
//! describing the available servers (possibly several classes with
//! different core counts and power curves), they produce a
//! [`Placement`] that maps each active server to a concrete fleet
//! class. Available policies:
//!
//! * [`ProposedPolicy`] — the paper's correlation-aware
//!   UPDATE/ALLOCATE heuristic (Fig 2).
//! * [`BfdPolicy`] — Best-Fit-Decreasing, the paper's primary baseline.
//! * [`FfdPolicy`] — First-Fit-Decreasing, the classical bin-packing
//!   heuristic the proposed algorithm is derived from.
//! * [`PcpPolicy`] — Peak Clustering-based Placement (Verma et al. \[6\]),
//!   the prior correlation-aware baseline.
//! * [`SuperVmPolicy`] — joint-VM sizing (Meng et al. \[7\]), the second
//!   related-work baseline, which fuses un-correlated pairs once and
//!   then ignores correlation.
//!
//! Every policy opens servers through the fleet's
//! [`FleetCursor`](crate::fleet::FleetCursor) (largest-capacity-first
//! fill order), so a degenerate one-class fleet
//! reproduces the historical scalar-capacity behaviour *bit-identically*
//! — [`AllocationPolicy::place_uniform`] is that compatibility spelling,
//! and the `fleet_regression` suite pins it.
//!
//! The placement problem is bin packing (NP-hard); every policy here is
//! a polynomial heuristic, as in the paper.

pub mod bfd;
pub mod ffd;
pub mod online;
pub mod pcp;
pub mod proposed;
pub mod supervm;

pub use bfd::BfdPolicy;
pub use ffd::FfdPolicy;
pub use online::OpenServer;
pub use pcp::PcpPolicy;
pub use proposed::{ProposedConfig, ProposedPolicy};
pub use supervm::SuperVmPolicy;

use crate::corr::CostMatrix;
use crate::fleet::ServerFleet;
use crate::servercost::ServerCostAggregate;
use crate::CoreError;
use cavm_trace::{Reference, TimeSeries};
use serde::{Deserialize, Serialize};

/// Tolerance for capacity comparisons: a VM "fits" when the residual
/// capacity is short by at most this many cores (guards against float
/// round-off rejecting exact fits).
pub(crate) const FIT_EPS: f64 = 1e-9;

/// Per-VM provisioning input to an allocation policy.
///
/// `demand` is the (typically *predicted*) reference utilization û in
/// cores — the quantity every capacity check and Eqn (2)/(3)/(4) use.
/// `off_peak` carries the off-peak (90th-percentile) value alongside;
/// only the PCP baseline consumes it (off-peak provisioning with a
/// shared peak buffer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmDescriptor {
    /// VM identifier; must index into the [`CostMatrix`] given to the
    /// policy.
    pub id: usize,
    /// Reference utilization û, cores.
    pub demand: f64,
    /// Off-peak (e.g. 90th percentile) utilization, cores.
    pub off_peak: f64,
}

impl VmDescriptor {
    /// Creates a descriptor with `off_peak == demand` (pure peak
    /// provisioning).
    pub fn new(id: usize, demand: f64) -> Self {
        Self {
            id,
            demand,
            off_peak: demand,
        }
    }

    /// Sets the off-peak utilization.
    pub fn with_off_peak(mut self, off_peak: f64) -> Self {
        self.off_peak = off_peak;
        self
    }

    /// Builds descriptors from measured traces: `demand` from the given
    /// reference, `off_peak` from the 90th percentile (the paper's usual
    /// off-peak choice). Ids are assigned positionally.
    ///
    /// # Errors
    ///
    /// Propagates trace errors (empty traces, invalid percentile).
    pub fn from_traces(
        traces: &[&TimeSeries],
        reference: Reference,
    ) -> crate::Result<Vec<VmDescriptor>> {
        traces
            .iter()
            .enumerate()
            .map(|(id, t)| {
                Ok(VmDescriptor {
                    id,
                    demand: reference.of_series(t)?,
                    off_peak: Reference::Percentile(90.0).of_series(t)?,
                })
            })
            .collect()
    }
}

/// The output of an allocation policy: which VMs share which server,
/// and which fleet class each active server belongs to.
///
/// Server indices are dense (`0..server_count`); only non-empty servers
/// are kept. Placements built through the scalar-capacity compatibility
/// path carry class `0` everywhere.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    servers: Vec<Vec<usize>>,
    /// Fleet-class index per active server; same length as `servers`.
    classes: Vec<usize>,
}

impl Placement {
    /// Wraps raw server membership lists, dropping empty servers. All
    /// servers are assigned class `0` (the uniform-fleet convention).
    pub fn from_servers(servers: Vec<Vec<usize>>) -> Self {
        let servers: Vec<Vec<usize>> = servers.into_iter().filter(|s| !s.is_empty()).collect();
        let classes = vec![0; servers.len()];
        Self { servers, classes }
    }

    /// Wraps `(members, class)` bins, dropping empty servers.
    pub fn from_classed_servers(bins: Vec<(Vec<usize>, usize)>) -> Self {
        let (servers, classes): (Vec<Vec<usize>>, Vec<usize>) = bins
            .into_iter()
            .filter(|(members, _)| !members.is_empty())
            .unzip();
        Self { servers, classes }
    }

    /// Number of active (non-empty) servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Membership lists of all active servers.
    pub fn servers(&self) -> &[Vec<usize>] {
        &self.servers
    }

    /// Member VM ids of server `index`, or `None` past the end.
    pub fn server(&self, index: usize) -> Option<&[usize]> {
        self.servers.get(index).map(|v| v.as_slice())
    }

    /// Fleet-class index per active server (aligned with
    /// [`Placement::servers`]).
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// Fleet-class index of server `index`, or `None` past the end.
    pub fn class_of(&self, index: usize) -> Option<usize> {
        self.classes.get(index).copied()
    }

    /// The server hosting VM `vm`, or `None` if the VM is not placed.
    pub fn server_of(&self, vm: usize) -> Option<usize> {
        self.servers.iter().position(|s| s.contains(&vm))
    }

    /// Number of non-empty servers. Batch-built placements never carry
    /// empty servers, so this equals [`Placement::server_count`] for
    /// them; a *live* placement mutated by [`Placement::evict`] may
    /// hold empty (powered-off but still reserved) slots.
    pub fn active_server_count(&self) -> usize {
        self.servers.iter().filter(|s| !s.is_empty()).count()
    }

    /// Appends an empty server of fleet class `class`, returning its
    /// index — the online admission path's "open the next fill-order
    /// server". The slot stays in place even while empty so that
    /// caller-side per-server state (cost aggregates, frequency levels,
    /// meters) keeps stable indices.
    pub fn open_server(&mut self, class: usize) -> usize {
        self.servers.push(Vec::new());
        self.classes.push(class);
        self.servers.len() - 1
    }

    /// Adds `vm` to server `server` in place — the single-VM admission
    /// used by the online controller. No capacity check happens here
    /// (the admitting policy already chose a feasible server, and
    /// oversized VMs are legitimately admitted alone).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `server` does not
    /// exist or `vm` is already placed.
    pub fn admit(&mut self, vm: usize, server: usize) -> crate::Result<()> {
        if server >= self.servers.len() {
            return Err(CoreError::InvalidParameter(
                "admit target server does not exist",
            ));
        }
        if self.servers.iter().any(|s| s.contains(&vm)) {
            return Err(CoreError::InvalidParameter(
                "vm is already placed on a server",
            ));
        }
        self.servers[server].push(vm);
        Ok(())
    }

    /// Removes `vm` from the placement, returning the server index it
    /// occupied. The server keeps its (possibly now empty) slot so that
    /// sibling indices stay valid; the next policy-driven re-pack
    /// compacts naturally.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `vm` is not placed.
    pub fn evict(&mut self, vm: usize) -> crate::Result<usize> {
        for (s, members) in self.servers.iter_mut().enumerate() {
            if let Some(pos) = members.iter().position(|&m| m == vm) {
                members.remove(pos);
                return Ok(s);
            }
        }
        Err(CoreError::InvalidParameter(
            "vm is not placed on any server",
        ))
    }

    /// Removes and returns *every* member of server `server`, oldest
    /// admission first — the emergency-evacuation primitive a
    /// fault-tolerant controller runs when a server fails. The slot
    /// itself survives (empty) so sibling indices and caller-side
    /// per-server state stay valid, exactly as with
    /// [`Placement::evict`]; the evacuees re-admit one by one through
    /// the active policy with the failed server excluded.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `server` does not
    /// exist. Draining an already-empty server is fine and returns an
    /// empty vector.
    pub fn drain_server(&mut self, server: usize) -> crate::Result<Vec<usize>> {
        match self.servers.get_mut(server) {
            Some(members) => Ok(std::mem::take(members)),
            None => Err(CoreError::InvalidParameter(
                "drain target server does not exist",
            )),
        }
    }

    /// `vm id → hosting server` for ids in `0..n_vms`, built in one
    /// pass over the membership lists — the lookup the replay engine's
    /// assignment/migration pass reuses instead of calling
    /// [`Placement::server_of`] per VM (which would rescan every
    /// membership list each time).
    pub fn assignment(&self, n_vms: usize) -> Vec<Option<usize>> {
        let mut map = vec![None; n_vms];
        for (s, members) in self.servers.iter().enumerate() {
            for &vm in members {
                if let Some(slot) = map.get_mut(vm) {
                    *slot = Some(s);
                }
            }
        }
        map
    }

    /// Checks coverage only: every descriptor placed exactly once and no
    /// foreign ids. Capacity is *not* checked — policies that provision
    /// below peak (PCP's off-peak plus shared buffer) legitimately pack
    /// beyond the sum-of-peaks bound.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] describing the first
    /// violation found.
    pub fn validate_structure(&self, vms: &[VmDescriptor]) -> crate::Result<()> {
        self.validate_inner(vms, |_| None)
    }

    /// Checks structural soundness against a descriptor table:
    /// every descriptor placed exactly once, no foreign ids, and no
    /// multi-VM server over `capacity` (a single VM larger than a whole
    /// server is tolerated — it must run *somewhere*).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] describing the first
    /// violation found.
    pub fn validate(&self, vms: &[VmDescriptor], capacity: f64) -> crate::Result<()> {
        self.validate_inner(vms, |_| Some(capacity))
    }

    /// Checks structural soundness against a heterogeneous fleet: the
    /// coverage rules of [`Placement::validate`], each multi-VM server
    /// within *its own class's* capacity, valid class indices, and no
    /// class used beyond its server count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] describing the first
    /// violation found.
    pub fn validate_fleet(&self, vms: &[VmDescriptor], fleet: &ServerFleet) -> crate::Result<()> {
        if self.classes.len() != self.servers.len() {
            return Err(CoreError::InvalidParameter(
                "placement class list length disagrees with its server list",
            ));
        }
        let mut used = vec![0usize; fleet.len()];
        for &class in &self.classes {
            if class >= fleet.len() {
                return Err(CoreError::InvalidParameter(
                    "placement names a class outside the fleet",
                ));
            }
            used[class] += 1;
        }
        for (class, &n) in used.iter().enumerate() {
            if n > fleet.classes()[class].count() {
                return Err(CoreError::InvalidParameter(
                    "placement uses more servers than a class provides",
                ));
            }
        }
        self.validate_inner(vms, |server| {
            Some(fleet.classes()[self.classes[server]].cores())
        })
    }

    /// `capacity_of(server_index)` returns the capacity cap to enforce
    /// for that server, or `None` to skip the capacity check.
    fn validate_inner(
        &self,
        vms: &[VmDescriptor],
        capacity_of: impl Fn(usize) -> Option<f64>,
    ) -> crate::Result<()> {
        let mut seen = std::collections::HashSet::new();
        let ids: std::collections::HashMap<usize, f64> =
            vms.iter().map(|d| (d.id, d.demand)).collect();
        for (s, server) in self.servers.iter().enumerate() {
            let mut load = 0.0;
            for &vm in server {
                if !ids.contains_key(&vm) {
                    return Err(CoreError::InvalidParameter(
                        "placement contains a vm id absent from the descriptor table",
                    ));
                }
                if !seen.insert(vm) {
                    return Err(CoreError::InvalidParameter(
                        "placement assigns a vm to more than one server",
                    ));
                }
                load += ids[&vm];
            }
            if let Some(capacity) = capacity_of(s) {
                if server.len() > 1 && load > capacity + FIT_EPS {
                    return Err(CoreError::InvalidParameter(
                        "placement overcommits a server beyond its capacity",
                    ));
                }
            }
        }
        if seen.len() != vms.len() {
            return Err(CoreError::InvalidParameter(
                "placement leaves at least one vm unallocated",
            ));
        }
        Ok(())
    }
}

/// A VM-to-server allocation heuristic.
pub trait AllocationPolicy {
    /// Short stable name for reports (e.g. `"BFD"`, `"Proposed"`).
    fn name(&self) -> &'static str;

    /// Places every descriptor onto the fleet's servers, opening them
    /// in the fleet's fill order (largest capacity first).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for malformed inputs
    /// (negative demands, duplicate or out-of-matrix ids),
    /// [`CoreError::FleetExhausted`] when every server of every class
    /// is open and VMs remain, and [`CoreError::AllocationDiverged`] if
    /// the policy cannot terminate.
    fn place(
        &self,
        vms: &[VmDescriptor],
        matrix: &CostMatrix,
        fleet: &ServerFleet,
    ) -> crate::Result<Placement>;

    /// Scalar-capacity compatibility spelling: places onto an unbounded
    /// one-class fleet of `capacity`-core servers (the paper's uniform
    /// setting). Produces exactly the placements the pre-fleet API
    /// produced.
    ///
    /// # Errors
    ///
    /// As [`AllocationPolicy::place`], plus
    /// [`CoreError::InvalidParameter`] for a non-finite or non-positive
    /// capacity.
    fn place_uniform(
        &self,
        vms: &[VmDescriptor],
        matrix: &CostMatrix,
        capacity: f64,
    ) -> crate::Result<Placement> {
        self.place(vms, matrix, &ServerFleet::unbounded(capacity)?)
    }

    /// Single-VM admission against a live placement: picks an open
    /// server for an *arriving* VM, or returns `None` to open the next
    /// fill-order server — no full re-pack. `servers` are
    /// [`OpenServer`] views over the live per-server
    /// [`crate::servercost::ServerCostAggregate`] values,
    /// so a correlation-aware probe is O(|members|) per candidate.
    ///
    /// `lease` is the arriving VM's remaining lease in samples (`None`
    /// = open-ended). Every rule is lease-aware: servers whose members
    /// all depart before the arrival would (so admitting it would keep
    /// a soon-empty server alive) are avoided while an outliving
    /// server fits — see [`online`]'s module docs. With no lease
    /// information the bias is inert.
    ///
    /// The default is correlation-blind best fit with a
    /// watts-per-core tie-break ([`online::best_fit_server`]); FFD and
    /// the proposed policy override it (first fit / maximal Eqn (2)
    /// server cost). The matrix may predate `vm` — unobserved pairs
    /// (including ids beyond the matrix) score the neutral cost.
    ///
    /// Feasibility under every rule is [`OpenServer::admits`]: plain
    /// fit, or — on servers carrying a positive
    /// [`OpenServer::overcommit_margin`] — a deliberate correlation-gap
    /// overcommit (predicted sum up to `capacity × (1 + margin)` whose
    /// Eqn (1) coincident estimate stays within plain capacity).
    fn place_one(
        &self,
        vm: &VmDescriptor,
        lease: Option<usize>,
        servers: &[OpenServer<'_>],
        matrix: &CostMatrix,
    ) -> Option<usize> {
        online::best_fit_server(vm, lease, servers, matrix)
    }

    /// Batch placement with deliberate correlation-gap overcommit: runs
    /// the policy's plain [`place`](AllocationPolicy::place), then — if
    /// any fleet class carries a positive margin — tries to *retire*
    /// lightly-loaded servers by relocating their members onto the
    /// remaining servers under the [`OpenServer::admits`] rule (plain
    /// fit, or predicted sum up to `capacity × (1 + margin)` when the
    /// Eqn (2) cost says the peaks anti-align and the Eqn (1)
    /// coincident estimate stays within plain capacity). Victims are
    /// visited lightest-first; each relocates all-or-nothing through
    /// the policy's own [`place_one`](AllocationPolicy::place_one)
    /// rule, so a victim that cannot fully disperse is left untouched.
    ///
    /// `margins` is indexed by fleet class; classes beyond its length
    /// get margin 0. With every margin ≤ 0 the plain placement is
    /// returned **unchanged** — the bit-identity anchor for every
    /// overcommit-off code path.
    ///
    /// # Errors
    ///
    /// As [`AllocationPolicy::place`] (the dispersal pass itself cannot
    /// fail — it only declines to move).
    fn place_with_margins(
        &self,
        vms: &[VmDescriptor],
        matrix: &CostMatrix,
        fleet: &ServerFleet,
        margins: &[f64],
    ) -> crate::Result<Placement> {
        let placement = self.place(vms, matrix, fleet)?;
        if margins.iter().all(|&m| m <= 0.0) {
            return Ok(placement);
        }
        Ok(overcommit_consolidate(
            self, placement, vms, matrix, fleet, margins,
        ))
    }
}

/// The [`AllocationPolicy::place_with_margins`] dispersal pass: retire
/// lightly-loaded servers of a finished placement by relocating their
/// members onto margin-carrying peers, all-or-nothing per victim.
fn overcommit_consolidate<P: AllocationPolicy + ?Sized>(
    policy: &P,
    placement: Placement,
    vms: &[VmDescriptor],
    matrix: &CostMatrix,
    fleet: &ServerFleet,
    margins: &[f64],
) -> Placement {
    let desc_of: std::collections::HashMap<usize, VmDescriptor> =
        vms.iter().map(|d| (d.id, *d)).collect();
    let mut bins: Vec<(Vec<usize>, usize)> = placement
        .servers()
        .iter()
        .cloned()
        .zip(placement.classes().iter().copied())
        .collect();
    let mut aggs: Vec<ServerCostAggregate> = bins
        .iter()
        .map(|(members, _)| {
            let mut agg = ServerCostAggregate::new();
            for &id in members {
                agg.push(id, desc_of[&id].demand, matrix);
            }
            agg
        })
        .collect();

    // Victims lightest-first (ties by index): the cheapest servers to
    // empty are tried before the ones that would need the most moves.
    let mut victims: Vec<usize> = (0..bins.len()).collect();
    victims.sort_by(|&a, &b| {
        aggs[a]
            .total_util()
            .partial_cmp(&aggs[b].total_util())
            .expect("finite loads")
            .then(a.cmp(&b))
    });

    for v in victims {
        if bins[v].0.is_empty() {
            continue;
        }
        // Relocate members largest-first through the policy's own
        // admission rule, against margin-carrying views of every
        // *other* non-empty server. All-or-nothing: commit only when
        // every member found a home.
        let mut members = bins[v].0.clone();
        members.sort_by(|&a, &b| {
            desc_of[&b]
                .demand
                .partial_cmp(&desc_of[&a].demand)
                .expect("finite demands")
                .then(a.cmp(&b))
        });
        let mut trial = aggs.clone();
        let mut moves: Vec<(usize, usize)> = Vec::new();
        let mut complete = true;
        for &id in &members {
            let vm = desc_of[&id];
            let mut idx_map = Vec::new();
            let mut views = Vec::new();
            for (b, (bin_members, class)) in bins.iter().enumerate() {
                // Skip the victim itself and servers already retired by
                // an earlier victim — resurrecting one would churn
                // migrations without closing any server.
                if b == v || bin_members.is_empty() {
                    continue;
                }
                let spec = &fleet.classes()[*class];
                idx_map.push(b);
                views.push(OpenServer {
                    class: *class,
                    cores: spec.cores(),
                    watts_per_core: spec.busy_watts_per_core(),
                    drain_samples: None,
                    agg: &trial[b],
                    healthy: true,
                    overcommit_margin: margins.get(*class).copied().unwrap_or(0.0).max(0.0),
                });
            }
            match policy.place_one(&vm, None, &views, matrix) {
                Some(pos) => {
                    let target = idx_map[pos];
                    trial[target].push(id, vm.demand, matrix);
                    moves.push((id, target));
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            aggs = trial;
            for (id, target) in moves {
                bins[target].0.push(id);
            }
            bins[v].0.clear();
            aggs[v].clear();
        }
    }
    Placement::from_classed_servers(bins)
}

/// Shared input validation for all policies (the fleet validates itself
/// at construction).
pub(crate) fn validate_inputs(vms: &[VmDescriptor], matrix: &CostMatrix) -> crate::Result<()> {
    let mut seen = std::collections::HashSet::new();
    for d in vms {
        if !(d.demand.is_finite() && d.demand >= 0.0) {
            return Err(CoreError::InvalidParameter(
                "vm demand must be finite and >= 0",
            ));
        }
        if !(d.off_peak.is_finite() && d.off_peak >= 0.0) {
            return Err(CoreError::InvalidParameter(
                "vm off-peak must be finite and >= 0",
            ));
        }
        if d.id >= matrix.len() {
            return Err(CoreError::UnknownVm {
                id: d.id,
                known: matrix.len(),
            });
        }
        if !seen.insert(d.id) {
            return Err(CoreError::InvalidParameter(
                "duplicate vm id in descriptor table",
            ));
        }
    }
    Ok(())
}

/// Returns descriptor indices sorted by decreasing demand (ties by id
/// for determinism) — the "Decreasing" in FFD/BFD and Fig 2's line 6.
pub(crate) fn decreasing_order(vms: &[VmDescriptor]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..vms.len()).collect();
    order.sort_by(|&a, &b| {
        vms[b]
            .demand
            .partial_cmp(&vms[a].demand)
            .expect("finite demands")
            .then_with(|| vms[a].id.cmp(&vms[b].id))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ServerClass;
    use cavm_power::LinearPowerModel;

    fn descs(demands: &[f64]) -> Vec<VmDescriptor> {
        demands
            .iter()
            .enumerate()
            .map(|(i, &d)| VmDescriptor::new(i, d))
            .collect()
    }

    #[test]
    fn descriptor_constructors() {
        let d = VmDescriptor::new(3, 2.5);
        assert_eq!((d.id, d.demand, d.off_peak), (3, 2.5, 2.5));
        let d = d.with_off_peak(1.75);
        assert_eq!(d.off_peak, 1.75);
    }

    #[test]
    fn descriptors_from_traces() {
        let a = TimeSeries::new(1.0, vec![1.0; 99].into_iter().chain([9.0]).collect()).unwrap();
        let b = TimeSeries::new(1.0, vec![2.0; 100]).unwrap();
        let ds = VmDescriptor::from_traces(&[&a, &b], Reference::Peak).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].id, 0);
        assert_eq!(ds[0].demand, 9.0);
        assert!(ds[0].off_peak < 9.0); // p90 shaves the spike
        assert_eq!(ds[1].demand, 2.0);
        assert_eq!(ds[1].off_peak, 2.0);
    }

    #[test]
    fn placement_accessors() {
        let p = Placement::from_servers(vec![vec![0, 2], vec![], vec![1]]);
        assert_eq!(p.server_count(), 2);
        assert_eq!(p.server(0), Some(&[0, 2][..]));
        assert_eq!(p.server(5), None);
        assert_eq!(p.server_of(1), Some(1));
        assert_eq!(p.server_of(7), None);
        assert_eq!(p.classes(), &[0, 0]);
        assert_eq!(p.class_of(1), Some(0));
        assert_eq!(p.class_of(9), None);
        assert_eq!(p.assignment(3), vec![Some(0), Some(1), Some(0)]);
        assert_eq!(p.assignment(2), vec![Some(0), Some(1)]);
    }

    #[test]
    fn classed_placement_accessors() {
        let p = Placement::from_classed_servers(vec![
            (vec![0], 1),
            (vec![], 0), // dropped
            (vec![1, 2], 0),
        ]);
        assert_eq!(p.server_count(), 2);
        assert_eq!(p.classes(), &[1, 0]);
        assert_eq!(p.class_of(0), Some(1));
        assert_eq!(p.server_of(2), Some(1));
    }

    #[test]
    fn placement_admit_and_evict_mutate_in_place() {
        let mut p = Placement::from_servers(vec![vec![0, 1], vec![2]]);
        // Open a new class-1 server and admit into it.
        let s = p.open_server(1);
        assert_eq!(s, 2);
        p.admit(3, s).unwrap();
        assert_eq!(p.server(2), Some(&[3][..]));
        assert_eq!(p.class_of(2), Some(1));
        assert_eq!(p.server_count(), 3);
        assert_eq!(p.active_server_count(), 3);
        // Admission into a missing server or of an already-placed VM
        // fails.
        assert!(p.admit(9, 7).is_err());
        assert!(p.admit(0, 1).is_err());
        // Eviction returns the host and keeps the (now empty) slot.
        assert_eq!(p.evict(2).unwrap(), 1);
        assert_eq!(p.server(1), Some(&[][..]));
        assert_eq!(p.server_count(), 3);
        assert_eq!(p.active_server_count(), 2);
        assert!(p.evict(2).is_err(), "already evicted");
        // The emptied slot is reusable.
        p.admit(2, 1).unwrap();
        assert_eq!(p.server_of(2), Some(1));
    }

    #[test]
    fn placement_drain_server_empties_but_keeps_the_slot() {
        let mut p = Placement::from_servers(vec![vec![0, 1], vec![2]]);
        // Drain returns members in admission order; the slot survives.
        assert_eq!(p.drain_server(0).unwrap(), vec![0, 1]);
        assert_eq!(p.server(0), Some(&[][..]));
        assert_eq!(p.server_count(), 2);
        assert_eq!(p.active_server_count(), 1);
        // Draining an already-empty server is a no-op, not an error.
        assert_eq!(p.drain_server(0).unwrap(), Vec::<usize>::new());
        // Out-of-range servers are rejected.
        assert!(p.drain_server(5).is_err());
        // Evacuees are free to re-admit elsewhere.
        p.admit(0, 1).unwrap();
        assert_eq!(p.server_of(0), Some(1));
    }

    #[test]
    fn placement_validation_catches_problems() {
        let vms = descs(&[1.0, 2.0]);
        // Valid.
        Placement::from_servers(vec![vec![0, 1]])
            .validate(&vms, 8.0)
            .unwrap();
        // Missing VM.
        assert!(Placement::from_servers(vec![vec![0]])
            .validate(&vms, 8.0)
            .is_err());
        // Duplicate VM.
        assert!(Placement::from_servers(vec![vec![0], vec![0, 1]])
            .validate(&vms, 8.0)
            .is_err());
        // Foreign id.
        assert!(Placement::from_servers(vec![vec![0, 1, 9]])
            .validate(&vms, 8.0)
            .is_err());
        // Overcommit (multi-VM server beyond capacity).
        assert!(Placement::from_servers(vec![vec![0, 1]])
            .validate(&vms, 2.5)
            .is_err());
        // A single oversized VM alone is tolerated.
        let big = descs(&[99.0]);
        Placement::from_servers(vec![vec![0]])
            .validate(&big, 8.0)
            .unwrap();
    }

    #[test]
    fn fleet_validation_checks_per_class_capacity_and_counts() {
        let xeon = LinearPowerModel::xeon_e5410;
        let fleet = ServerFleet::new(vec![
            ServerClass::new("big", 1, 8.0, xeon()).unwrap(),
            ServerClass::new("small", 2, 4.0, xeon()).unwrap(),
        ])
        .unwrap();
        let vms = descs(&[3.0, 3.0, 3.0]);
        // 3+3 on the 8-core box, 3 on a 4-core box: fine.
        Placement::from_classed_servers(vec![(vec![0, 1], 0), (vec![2], 1)])
            .validate_fleet(&vms, &fleet)
            .unwrap();
        // 3+3 on a 4-core box: over its own class capacity.
        assert!(
            Placement::from_classed_servers(vec![(vec![0, 1], 1), (vec![2], 0)])
                .validate_fleet(&vms, &fleet)
                .is_err()
        );
        // Two servers of the one-server class 0.
        assert!(
            Placement::from_classed_servers(vec![(vec![0, 1], 0), (vec![2], 0)])
                .validate_fleet(&vms, &fleet)
                .is_err()
        );
        // Unknown class index.
        assert!(
            Placement::from_classed_servers(vec![(vec![0, 1], 0), (vec![2], 7)])
                .validate_fleet(&vms, &fleet)
                .is_err()
        );
    }

    #[test]
    fn input_validation() {
        let m = CostMatrix::new(2, Reference::Peak).unwrap();
        assert!(validate_inputs(&descs(&[1.0, 2.0]), &m).is_ok());
        assert!(validate_inputs(&descs(&[-1.0]), &m).is_err());
        assert!(validate_inputs(&[VmDescriptor::new(0, 1.0).with_off_peak(f64::NAN)], &m).is_err());
        assert!(matches!(
            validate_inputs(&[VmDescriptor::new(7, 1.0)], &m),
            Err(CoreError::UnknownVm { id: 7, known: 2 })
        ));
        assert!(
            validate_inputs(&[VmDescriptor::new(0, 1.0), VmDescriptor::new(0, 2.0)], &m).is_err()
        );
    }

    #[test]
    fn place_uniform_rejects_bad_capacity() {
        let m = CostMatrix::new(1, Reference::Peak).unwrap();
        assert!(BfdPolicy.place_uniform(&descs(&[1.0]), &m, 0.0).is_err());
        assert!(BfdPolicy
            .place_uniform(&descs(&[1.0]), &m, f64::NAN)
            .is_err());
    }

    #[test]
    fn decreasing_order_is_stable_and_sorted() {
        let vms = descs(&[1.0, 3.0, 2.0, 3.0]);
        let order = decreasing_order(&vms);
        assert_eq!(order, vec![1, 3, 2, 0]);
    }
}
