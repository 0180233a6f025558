//! The paper's correlation-aware VM allocation (Fig 2).
//!
//! The algorithm has two phases:
//!
//! * **UPDATE** (lines 1–8): initialize the unallocated set, predict
//!   next-period û per VM, sort by decreasing û, refresh the pairwise
//!   cost matrix, and estimate the number of active servers (Eqn 3):
//!   `Ñ = ⌈Σ û / N_core⌉`. Prediction and matrix maintenance live in
//!   [`crate::predict`] and [`crate::corr::matrix`]; this module
//!   receives their outputs through the [`VmDescriptor`] table and
//!   [`CostMatrix`]. On a heterogeneous [`ServerFleet`] the estimate
//!   generalizes to a prefix of the fleet's fill order: servers open
//!   largest-class-first until their cumulative capacity covers Σ û.
//! * **ALLOCATE** (lines 9–18): repeatedly take the server with the
//!   largest remaining capacity and greedily add the unallocated VM that
//!   (a) fits, (b) maximizes the resulting server cost (Eqn 2) and
//!   (c) keeps that cost above the threshold `TH_cost`. When a pass
//!   leaves VMs unallocated, `TH_cost` is relaxed by the factor `α` and
//!   the pass repeats over servers re-sorted by remaining capacity.
//!   Each open server keeps its own incremental [`ServerCostAggregate`],
//!   so candidate probes stay O(|members|) regardless of the mix of
//!   server classes.
//!
//! Two necessary interpretations of details the paper leaves implicit:
//!
//! 1. An **empty server** has no pairs, so no candidate can clear any
//!    threshold; the first VM placed on a server is simply the largest
//!    unallocated one that fits (this is exactly the FFD seeding the
//!    heuristic builds on).
//! 2. When `TH_cost` decays to its floor the threshold condition is
//!    dropped entirely (any fitting VM is admissible, still picked by
//!    maximal server cost), and if even then nothing fits the estimate
//!    `Ñ` was too small for the fragmentation at hand — the next server
//!    of the fill order opens, matching FFD's unbounded bin supply (or
//!    [`crate::CoreError::FleetExhausted`] when the fleet is spent).

use crate::alloc::online::{max_cost_server, OpenServer};
use crate::alloc::{
    decreasing_order, validate_inputs, AllocationPolicy, Placement, VmDescriptor, FIT_EPS,
};
use crate::corr::CostMatrix;
use crate::fleet::{FleetCursor, ServerFleet};
use crate::servercost::ServerCostAggregate;
use crate::CoreError;

/// Eqn (3): the minimum number of servers that can hold a total demand,
/// `Ñ = ⌈total / capacity⌉` (at least 1 when there is any demand).
///
/// # Example
///
/// ```
/// use cavm_core::alloc::proposed::estimate_server_count;
///
/// assert_eq!(estimate_server_count(30.0, 8.0), 4);
/// assert_eq!(estimate_server_count(32.0, 8.0), 4);
/// assert_eq!(estimate_server_count(0.0, 8.0), 0);
/// ```
pub fn estimate_server_count(total_demand: f64, capacity: f64) -> usize {
    if total_demand <= 0.0 || capacity <= 0.0 {
        return 0;
    }
    ((total_demand / capacity) - FIT_EPS).ceil().max(1.0) as usize
}

/// Tuning knobs of the ALLOCATE phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposedConfig {
    /// Initial correlation threshold `TH_cost`. Costs live in `[1, 2]`
    /// under peak reference, so a demanding initial threshold close to 2
    /// makes the first passes pick strongly anti-correlated co-tenants.
    pub th_init: f64,
    /// Multiplicative decay `α ∈ (0, 1)` applied to `TH_cost` after any
    /// pass that leaves VMs unallocated (Fig 2, line 17).
    pub alpha: f64,
    /// Once `TH_cost` falls to (or below) this floor the threshold test
    /// is waived and any fitting VM is admissible.
    pub th_floor: f64,
    /// Safety bound on ALLOCATE passes; exceeded only on degenerate
    /// inputs.
    pub max_rounds: usize,
}

impl Default for ProposedConfig {
    fn default() -> Self {
        Self {
            th_init: 1.8,
            alpha: 0.92,
            th_floor: 1.0,
            max_rounds: 10_000,
        }
    }
}

/// The paper's correlation-aware placement policy.
///
/// # Example
///
/// ```
/// use cavm_core::alloc::{AllocationPolicy, ProposedPolicy, VmDescriptor};
/// use cavm_core::corr::CostMatrix;
/// use cavm_trace::{Reference, TimeSeries};
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// // Two pairs of clones: VMs 0/1 peak together, VMs 2/3 peak together,
/// // opposite phases across pairs.
/// let day = TimeSeries::new(1.0, vec![4.0, 0.5])?;
/// let night = TimeSeries::new(1.0, vec![0.5, 4.0])?;
/// let m = CostMatrix::from_traces(&[&day, &day, &night, &night], Reference::Peak)?;
///
/// let vms: Vec<_> = (0..4).map(|i| VmDescriptor::new(i, 4.0)).collect();
/// let p = ProposedPolicy::default().place_uniform(&vms, &m, 8.0)?;
///
/// // Correlation-aware placement pairs anti-correlated VMs.
/// assert_eq!(p.server_count(), 2);
/// assert_ne!(p.server_of(0), p.server_of(1));
/// assert_ne!(p.server_of(2), p.server_of(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProposedPolicy {
    config: ProposedConfig,
}

impl ProposedPolicy {
    /// Creates a policy with explicit tuning.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless
    /// `0 < alpha < 1`, `th_floor <= th_init`, both thresholds finite,
    /// and `max_rounds > 0`.
    pub fn new(config: ProposedConfig) -> crate::Result<Self> {
        if !(config.alpha > 0.0 && config.alpha < 1.0) {
            return Err(CoreError::InvalidParameter("alpha must lie in (0, 1)"));
        }
        if !(config.th_init.is_finite() && config.th_floor.is_finite()) {
            return Err(CoreError::InvalidParameter("thresholds must be finite"));
        }
        if config.th_floor > config.th_init {
            return Err(CoreError::InvalidParameter(
                "th_floor must not exceed th_init",
            ));
        }
        if config.max_rounds == 0 {
            return Err(CoreError::InvalidParameter("max_rounds must be >= 1"));
        }
        Ok(Self { config })
    }

    /// The active tuning.
    pub fn config(&self) -> &ProposedConfig {
        &self.config
    }
}

/// One open server: membership, packed load and the Eqn (2) pair sums
/// all live in the single [`ServerCostAggregate`], plus the bin's
/// **candidate index** — per still-unallocated VM, its `(û_j+û_k)·Cost`
/// and `Cost` pair sums against this bin's committed members,
/// accumulated in commit order. The index turns every probe of the
/// ALLOCATE scan into an O(1)
/// [`candidate_cost_with`](ServerCostAggregate::candidate_cost_with)
/// combine (it used to be an O(|members|) matrix walk *per probe*,
/// the dominant cost of batch `place`), and because the per-candidate
/// sums extend by exactly one term per commit — in the same order
/// `pair_delta` folds them — the probe values are bit-identical to the
/// scan they replace. `cores`/`class` pin the server to its fleet
/// class.
struct Bin {
    agg: ServerCostAggregate,
    cores: f64,
    class: usize,
    /// `dw[i]`: descriptor index i's Σ `(û_i + û_m)·Cost(i,m)` over
    /// this bin's members, in commit order.
    dw: Vec<f64>,
    /// `dp[i]`: descriptor index i's Σ `Cost(i,m)` over this bin's
    /// members, in commit order.
    dp: Vec<f64>,
}

impl Bin {
    fn open(class: usize, cores: f64, n_vms: usize) -> Self {
        Bin {
            agg: ServerCostAggregate::new(),
            cores,
            class,
            dw: vec![0.0; n_vms],
            dp: vec![0.0; n_vms],
        }
    }

    fn remaining(&self) -> f64 {
        self.cores - self.agg.total_util()
    }

    fn member_ids(&self) -> Vec<usize> {
        self.agg.members().iter().map(|&(id, _)| id).collect()
    }

    /// Commits descriptor `idx` to this bin and extends the candidate
    /// index of every VM still in `unalloc` by the new member's pair
    /// terms — one matrix row walk per admission, amortizing what used
    /// to be re-walked by every later probe. The term and accumulation
    /// order mirror [`ServerCostAggregate`]'s `pair_delta` fold
    /// exactly, keeping subsequent O(1) probes bit-identical.
    fn admit(&mut self, idx: usize, vms: &[VmDescriptor], matrix: &CostMatrix, unalloc: &[usize]) {
        let vm = &vms[idx];
        self.agg.push(vm.id, vm.demand, matrix);
        for &j in unalloc {
            let cand = &vms[j];
            let c = matrix.cost_or_neutral(vm.id, cand.id);
            self.dw[j] += (vm.demand + cand.demand) * c;
            self.dp[j] += c;
        }
    }
}

impl AllocationPolicy for ProposedPolicy {
    fn name(&self) -> &'static str {
        "Proposed"
    }

    fn place(
        &self,
        vms: &[VmDescriptor],
        matrix: &CostMatrix,
        fleet: &ServerFleet,
    ) -> crate::Result<Placement> {
        validate_inputs(vms, matrix)?;
        if vms.is_empty() {
            return Ok(Placement::from_servers(vec![]));
        }

        // UPDATE phase residue: sort by decreasing predicted û (line 6)
        // and size the active server set by Eqn (3) (line 8) — on a
        // heterogeneous fleet, the shortest fill-order prefix whose
        // cumulative capacity covers the total demand.
        let order = decreasing_order(vms); // descriptor indices
        let total: f64 = vms.iter().map(|d| d.demand).sum();
        let mut cursor = FleetCursor::new(fleet);
        let mut bins: Vec<Bin> = Vec::new();
        let mut open_capacity = 0.0;
        while open_capacity + FIT_EPS < total || bins.is_empty() {
            match cursor.open_next() {
                Some((class, cores)) => {
                    open_capacity += cores;
                    bins.push(Bin::open(class, cores, vms.len()));
                }
                // The fleet cannot cover the estimate; proceed with
                // what exists and let the fill report exhaustion if
                // VMs truly do not fit.
                None => break,
            }
        }
        if bins.is_empty() {
            return Err(cursor.exhausted(vms.len()));
        }

        // Unallocated descriptor indices, kept in decreasing-demand order.
        let mut unalloc: Vec<usize> = order;
        let mut th = self.config.th_init;
        let mut rounds = 0usize;
        let class_wpc: Vec<f64> = fleet
            .classes()
            .iter()
            .map(|c| c.busy_watts_per_core())
            .collect();

        while !unalloc.is_empty() {
            rounds += 1;
            if rounds > self.config.max_rounds {
                return Err(CoreError::AllocationDiverged {
                    unallocated: unalloc.len(),
                });
            }

            // Line 10: the server with the largest remaining capacity.
            // Exact capacity ties prefer the class with the lower
            // busy-watts-per-core (fill the efficient host); remaining
            // ties keep the last candidate, which on a one-class fleet
            // reproduces the historical `max_by` (last maximum wins)
            // semantics bit-identically.
            let mut bin_idx = 0usize;
            let mut best_remaining = f64::NEG_INFINITY;
            let mut best_wpc = f64::INFINITY;
            for (i, bin) in bins.iter().enumerate() {
                let remaining = bin.remaining();
                let wpc = class_wpc[bin.class];
                if remaining > best_remaining || (remaining == best_remaining && wpc <= best_wpc) {
                    bin_idx = i;
                    best_remaining = remaining;
                    best_wpc = wpc;
                }
            }

            // Lines 11–16: greedily fill this server under the current
            // threshold.
            let placed = fill_bin(
                &mut bins[bin_idx],
                &mut unalloc,
                vms,
                matrix,
                th,
                self.config.th_floor,
            );

            if unalloc.is_empty() {
                break;
            }
            if placed == 0 {
                if th > self.config.th_floor {
                    // Line 17: relax the correlation threshold.
                    th = (th * self.config.alpha).max(self.config.th_floor);
                } else {
                    // Threshold already waived and the roomiest server
                    // cannot take the smallest VM: Eqn (3) undershot due
                    // to fragmentation — open another server.
                    let smallest = unalloc
                        .last()
                        .map(|&i| vms[i].demand)
                        .expect("unalloc is non-empty");
                    let roomiest = bins[bin_idx].remaining();
                    debug_assert!(
                        smallest > roomiest + FIT_EPS || bins[bin_idx].agg.is_empty(),
                        "no progress despite a fitting vm"
                    );
                    let _ = (smallest, roomiest);
                    let (class, cores) = cursor
                        .open_next()
                        .ok_or_else(|| cursor.exhausted(unalloc.len()))?;
                    bins.push(Bin::open(class, cores, vms.len()));
                }
            }
        }

        Ok(Placement::from_classed_servers(
            bins.iter().map(|b| (b.member_ids(), b.class)).collect(),
        ))
    }

    /// Online arrivals use the ALLOCATE selection rule for a single
    /// VM: the feasible server whose Eqn (2) cost after insertion is
    /// maximal. The threshold-relaxation loop does not apply to a lone
    /// arrival — `TH_cost` exists to stage the order in which a whole
    /// *batch* packs — so the cost test is waived as at the floor.
    fn place_one(
        &self,
        vm: &VmDescriptor,
        lease: Option<usize>,
        servers: &[OpenServer<'_>],
        matrix: &CostMatrix,
    ) -> Option<usize> {
        max_cost_server(vm, lease, servers, matrix)
    }
}

/// Greedy inner loop (Fig 2, lines 11–16): keep adding the
/// best-admissible VM to `bin` until none qualifies. Returns the number
/// of VMs placed.
///
/// `unalloc` holds descriptor indices in decreasing-demand order, which
/// turns the fit check into a single binary search: every index at or
/// past `partition_point(demand > rem)` fits, everything before it is
/// too large, so a pass stops scanning (and the whole loop exits) the
/// moment nothing fits. Candidate scoring reads the bin's incremental
/// candidate index, making each probe O(1) — bit-identical to (and
/// debug-asserted against) the O(|members|) matrix-walking probe it
/// replaced.
fn fill_bin(
    bin: &mut Bin,
    unalloc: &mut Vec<usize>,
    vms: &[VmDescriptor],
    matrix: &CostMatrix,
    th: f64,
    th_floor: f64,
) -> usize {
    let mut placed = 0;
    loop {
        let rem = bin.remaining();
        // First position whose VM fits: demands are non-increasing
        // along `unalloc`, so the predicate is monotone.
        let first_fit = unalloc.partition_point(|&i| vms[i].demand > rem + FIT_EPS);
        let choice = if bin.agg.is_empty() {
            // FFD seeding: the largest unallocated VM that fits; an
            // oversized VM (demand > capacity) is admitted alone —
            // it has to run somewhere.
            if first_fit < unalloc.len() {
                Some(first_fit)
            } else if !unalloc.is_empty() {
                Some(0)
            } else {
                None
            }
        } else {
            // Line 11: among fitting VMs, the one maximizing the server
            // cost after insertion, subject to cost ≥ TH (waived at the
            // floor).
            let mut best: Option<(usize, f64)> = None;
            for (pos, &idx) in unalloc.iter().enumerate().skip(first_fit) {
                let vm = &vms[idx];
                let cost = bin
                    .agg
                    .candidate_cost_with(vm.demand, bin.dw[idx], bin.dp[idx]);
                debug_assert_eq!(
                    cost.to_bits(),
                    bin.agg.candidate_cost(vm.id, vm.demand, matrix).to_bits(),
                    "candidate index drifted from the direct probe"
                );
                if cost < th && th > th_floor {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, best_cost)) => cost > best_cost + 1e-12,
                };
                if better {
                    best = Some((pos, cost));
                }
            }
            best.map(|(pos, _)| pos)
        };

        match choice {
            Some(pos) => {
                let idx = unalloc.remove(pos);
                bin.admit(idx, vms, matrix, unalloc);
                placed += 1;
            }
            None => return placed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ServerClass;
    use cavm_power::LinearPowerModel;
    use cavm_trace::Reference;

    fn descs(demands: &[f64]) -> Vec<VmDescriptor> {
        demands
            .iter()
            .enumerate()
            .map(|(i, &d)| VmDescriptor::new(i, d))
            .collect()
    }

    #[test]
    fn eqn3_estimate() {
        assert_eq!(estimate_server_count(0.0, 8.0), 0);
        assert_eq!(estimate_server_count(-3.0, 8.0), 0);
        assert_eq!(estimate_server_count(1.0, 8.0), 1);
        assert_eq!(estimate_server_count(8.0, 8.0), 1);
        assert_eq!(estimate_server_count(8.1, 8.0), 2);
        assert_eq!(estimate_server_count(100.0, 0.0), 0);
    }

    #[test]
    fn config_validation() {
        let ok = ProposedConfig::default();
        assert!(ProposedPolicy::new(ok).is_ok());
        assert!(ProposedPolicy::new(ProposedConfig { alpha: 0.0, ..ok }).is_err());
        assert!(ProposedPolicy::new(ProposedConfig { alpha: 1.0, ..ok }).is_err());
        assert!(ProposedPolicy::new(ProposedConfig {
            th_floor: 3.0,
            ..ok
        })
        .is_err());
        assert!(ProposedPolicy::new(ProposedConfig {
            th_init: f64::NAN,
            ..ok
        })
        .is_err());
        assert!(ProposedPolicy::new(ProposedConfig {
            max_rounds: 0,
            ..ok
        })
        .is_err());
        assert_eq!(ProposedPolicy::default().config().th_floor, 1.0);
    }

    #[test]
    fn separates_correlated_clones() {
        // Clusters {0,1} and {2,3} peak in anti-phase.
        let m = CostMatrix::from_ticks(&[
            [4.0, 4.0, 0.5, 0.5],
            [0.5, 0.5, 4.0, 4.0],
            [4.0, 4.0, 0.5, 0.5],
            [0.5, 0.5, 4.0, 4.0],
        ]);
        let vms = descs(&[4.0, 4.0, 4.0, 4.0]);
        let p = ProposedPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate(&vms, 8.0).unwrap();
        assert_eq!(p.server_count(), 2);
        assert_ne!(p.server_of(0), p.server_of(1), "correlated pair must split");
        assert_ne!(p.server_of(2), p.server_of(3), "correlated pair must split");
    }

    #[test]
    fn bfd_colocates_what_proposed_separates() {
        // Contrast case backing the paper's Table II mechanism.
        let m = CostMatrix::from_ticks(&[[4.0, 4.0, 0.5, 0.5], [0.5, 0.5, 4.0, 4.0]]);
        let vms = descs(&[4.0, 4.0, 4.0, 4.0]);
        let bfd = crate::alloc::BfdPolicy
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        // BFD is order/size-driven: 0 and 1 (equal size, first fit wins)
        // land together.
        assert_eq!(bfd.server_of(0), bfd.server_of(1));
    }

    #[test]
    fn respects_capacity_and_covers_all_vms() {
        let mut rng = cavm_trace::SimRng::new(1);
        let demands: Vec<f64> = (0..40).map(|_| rng.range_f64(0.2, 3.5)).collect();
        let vms = descs(&demands);
        let ticks: Vec<Vec<f64>> = (0..50)
            .map(|_| (0..40).map(|_| rng.range_f64(0.0, 3.5)).collect())
            .collect();
        let m = CostMatrix::from_ticks(&ticks);
        let p = ProposedPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate(&vms, 8.0).unwrap();
        let lower = estimate_server_count(demands.iter().sum(), 8.0);
        assert!(p.server_count() >= lower);
        // The FFD-family heuristics stay within a small constant of the
        // lower bound on benign instances.
        assert!(p.server_count() <= lower + 3);
    }

    #[test]
    fn empty_and_single_inputs() {
        let m = CostMatrix::new(1, Reference::Peak).unwrap();
        let p = ProposedPolicy::default()
            .place_uniform(&[], &m, 8.0)
            .unwrap();
        assert_eq!(p.server_count(), 0);
        let vms = descs(&[2.0]);
        let p = ProposedPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        assert_eq!(p.server_count(), 1);
        p.validate(&vms, 8.0).unwrap();
    }

    #[test]
    fn oversized_vm_is_admitted_alone() {
        let m = CostMatrix::new(2, Reference::Peak).unwrap();
        let vms = descs(&[12.0, 2.0]);
        let p = ProposedPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate(&vms, 8.0).unwrap();
        assert_eq!(p.server_count(), 2);
        assert_ne!(p.server_of(0), p.server_of(1));
    }

    #[test]
    fn fragmentation_opens_extra_servers() {
        // Total 12 fits Eqn-3's two 6-capacity bins, but 4+4+4 per-item
        // sizes force three bins of 5.0 capacity... construct: capacity
        // 6, demands [4,4,4]: total 12 → Ñ=2, but no two 4s share a bin.
        let m = CostMatrix::new(3, Reference::Peak).unwrap();
        let vms = descs(&[4.0, 4.0, 4.0]);
        let p = ProposedPolicy::default()
            .place_uniform(&vms, &m, 6.0)
            .unwrap();
        p.validate(&vms, 6.0).unwrap();
        assert_eq!(p.server_count(), 3);
    }

    #[test]
    fn neutral_matrix_degenerates_to_ffd_like_packing() {
        // With no correlation data every pair scores the neutral 1.5, so
        // the heuristic packs like FFD (modulo the largest-remaining
        // server-selection order) and reaches the same server count on
        // this instance.
        let m = CostMatrix::new(4, Reference::Peak).unwrap();
        let vms = descs(&[5.0, 4.0, 3.0, 2.0]);
        let p = ProposedPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        let f = crate::alloc::FfdPolicy
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        assert_eq!(p.server_count(), f.server_count());
        p.validate(&vms, 8.0).unwrap();
    }

    #[test]
    fn threshold_floor_waives_correlation_test() {
        // All VMs perfectly correlated (cost 1 for every pair): with a
        // floor of 1.0 the allocator must still pack them (cost 1 < any
        // th > 1, but the floor waiver admits them).
        let m = CostMatrix::from_ticks(&[[4.0, 4.0, 4.0, 4.0], [1.0, 1.0, 1.0, 1.0]]);
        let vms = descs(&[4.0, 4.0, 4.0, 4.0]);
        let p = ProposedPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate(&vms, 8.0).unwrap();
        assert_eq!(p.server_count(), 2);
    }

    #[test]
    fn never_colocates_the_correlated_pair() {
        // VM0 and VM1 peak together; VM2 is anti-phased with both. The
        // correlated pair must end up on different servers, whichever
        // partner the greedy assigns VM2 to.
        let m = CostMatrix::from_ticks(&[[4.0, 3.0, 0.5], [0.5, 0.4, 3.0], [4.0, 3.0, 0.5]]);
        let vms = descs(&[4.0, 3.0, 3.0]);
        let p = ProposedPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate(&vms, 8.0).unwrap();
        assert_eq!(p.server_count(), 2);
        assert_ne!(p.server_of(0), p.server_of(1));
    }

    #[test]
    fn hetero_fleet_eqn3_opens_fill_order_prefix() {
        let xeon = LinearPowerModel::xeon_e5410;
        let fleet = ServerFleet::new(vec![
            ServerClass::new("small", 10, 4.0, xeon()).unwrap(),
            ServerClass::new("big", 1, 16.0, xeon().scaled(2.0).unwrap()).unwrap(),
        ])
        .unwrap();
        // Total demand 20: one 16-core + one 4-core server cover it.
        let m = CostMatrix::new(8, Reference::Peak).unwrap();
        let vms = descs(&[3.0, 3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 2.0]);
        let p = ProposedPolicy::default().place(&vms, &m, &fleet).unwrap();
        p.validate_fleet(&vms, &fleet).unwrap();
        assert_eq!(p.server_count(), 2);
        assert_eq!(p.class_of(0), Some(1));
        assert_eq!(p.class_of(1), Some(0));
    }

    #[test]
    fn hetero_fleet_exhaustion_is_reported() {
        let fleet = ServerFleet::uniform(2, 4.0, LinearPowerModel::xeon_e5410()).unwrap();
        let m = CostMatrix::new(4, Reference::Peak).unwrap();
        let vms = descs(&[3.0, 3.0, 3.0, 3.0]);
        assert!(matches!(
            ProposedPolicy::default().place(&vms, &m, &fleet),
            Err(CoreError::FleetExhausted { slots: 2, .. })
        ));
    }
}
