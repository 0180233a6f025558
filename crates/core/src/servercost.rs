//! The per-server correlation cost (paper Eqn 2).
//!
//! For the VMs allocated to a server, the server cost is the
//! utilization-weighted average of each member's mean pairwise cost
//! against its co-residents:
//!
//! ```text
//! Cost_server = Σ_j w_j · ( Σ_{k≠j} Cost(j,k) / (n-1) ),   w_j = û_j / Σ û
//! ```
//!
//! It extends the *pairwise* Eqn (1) to a whole server and is the
//! quantity the ALLOCATE phase maximizes when picking the next VM, and
//! the `1/Cost_server` factor by which Eqn (4) lowers the frequency.
//! Fig 3 shows Cost_server tracking the server's true peak-aggregation
//! benefit `Σ û_j / û(Σ VMs)` from below, roughly linearly — which is
//! why scaling frequency by it is "aggressive-yet-safe". The bound is
//! empirical, not a theorem: Eqn (1) only captures pairs, and three VMs
//! where two peak together and the third peaks alone read 5/3 against
//! a true ratio of 1.5 (pinned by this module's tests).

use crate::alloc::VmDescriptor;
use crate::corr::CostMatrix;

/// Evaluates Eqn (2) over `(vm_id, û)` members.
///
/// Conventions for degenerate servers: an empty or single-VM server has
/// cost **1.0** — a lone VM gets no multiplexing benefit, so Eqn (4)
/// must not scale its frequency down. If all û are zero the members are
/// weighted equally.
///
/// Pairs the matrix has not observed yet — including member ids beyond
/// the matrix, as happens when a VM arrives after the period matrix was
/// built — contribute the neutral cost 1.5 (see
/// [`CostMatrix::cost_or_neutral`]).
///
/// # Example
///
/// ```
/// use cavm_core::corr::CostMatrix;
/// use cavm_core::servercost::server_cost;
/// use cavm_trace::{Reference, TimeSeries};
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let vm0 = TimeSeries::new(1.0, vec![4.0, 0.0])?;
/// let vm1 = TimeSeries::new(1.0, vec![0.0, 4.0])?;
/// let m = CostMatrix::from_traces(&[&vm0, &vm1], Reference::Peak)?;
/// // Two complementary, equally-sized VMs: server cost = pair cost = 2.
/// let c = server_cost(&[(0, 4.0), (1, 4.0)], &m);
/// assert_eq!(c, 2.0);
/// # Ok(())
/// # }
/// ```
pub fn server_cost(members: &[(usize, f64)], matrix: &CostMatrix) -> f64 {
    let n = members.len();
    if n <= 1 {
        return 1.0;
    }
    let total: f64 = members.iter().map(|&(_, u)| u).sum();
    let mut cost = 0.0;
    for &(j, u_j) in members {
        let w_j = if total > 0.0 {
            u_j / total
        } else {
            1.0 / n as f64
        };
        let mut pair_sum = 0.0;
        for &(k, _) in members {
            if k != j {
                pair_sum += matrix.cost_or_neutral(j, k);
            }
        }
        cost += w_j * pair_sum / (n - 1) as f64;
    }
    cost
}

/// Evaluates Eqn (2) for member ids drawn from a descriptor table
/// (û = `vms[id].demand`). Ids beyond the matrix score neutral pairs.
///
/// # Panics
///
/// Panics if an id is outside `vms`.
pub fn server_cost_of(members: &[usize], vms: &[VmDescriptor], matrix: &CostMatrix) -> f64 {
    let weighted: Vec<(usize, f64)> = members.iter().map(|&id| (id, vms[id].demand)).collect();
    server_cost(&weighted, matrix)
}

/// Evaluates Eqn (2) for a server *after* hypothetically adding
/// `candidate` to `members` — the ALLOCATE phase's selection score
/// (Fig 2, line 11). Ids beyond the matrix score neutral pairs.
///
/// # Panics
///
/// Panics if an id is outside `vms`.
pub fn server_cost_with_candidate(
    members: &[usize],
    candidate: usize,
    vms: &[VmDescriptor],
    matrix: &CostMatrix,
) -> f64 {
    let mut weighted: Vec<(usize, f64)> = members.iter().map(|&id| (id, vms[id].demand)).collect();
    weighted.push((candidate, vms[candidate].demand));
    server_cost(&weighted, matrix)
}

/// Eqn (1) coincident-aggregate estimate: the predicted load a server
/// would actually see if its members' peaks de-phase the way the
/// Eqn (2) server cost says they do.
///
/// Eqn (1)'s correlation gap is that anti-correlated VMs' coincident
/// aggregate sits well below the sum of their individual peaks; the
/// server cost (range `[1, 2]`) measures exactly that de-phasing — a
/// perfectly anti-correlated pair scores 2 (the aggregate peak is half
/// the summed peaks), a fully correlated one scores 1 (no gap at all).
/// Dividing the predicted per-VM sum by the cost therefore estimates
/// the coincident aggregate, and is the quantity deliberate overcommit
/// admission checks against the *plain* capacity. Costs below 1 (never
/// produced by Eqn 2, but guarded anyway) clamp to 1 so the estimate
/// never exceeds the sum.
///
/// # Example
///
/// ```
/// use cavm_core::servercost::coincident_estimate;
///
/// // Perfectly anti-correlated members: 10 summed cores coincide as 5.
/// assert_eq!(coincident_estimate(10.0, 2.0), 5.0);
/// // Fully correlated members enjoy no gap.
/// assert_eq!(coincident_estimate(10.0, 1.0), 10.0);
/// // Sub-1 costs clamp: the estimate never exceeds the sum.
/// assert_eq!(coincident_estimate(10.0, 0.5), 10.0);
/// ```
pub fn coincident_estimate(predicted_sum: f64, server_cost: f64) -> f64 {
    predicted_sum / server_cost.max(1.0)
}

/// Incrementally maintained Eqn (2) aggregate for one server.
///
/// Rewriting Eqn (2) with `w_j = û_j / U` (`U = Σ û`) gives
///
/// ```text
/// Cost_server = Σ_{pairs {j,k}} (û_j + û_k)·Cost(j,k) / (U·(n-1))
/// ```
///
/// so the whole server cost reduces to two running pair sums:
/// `S = Σ (û_j + û_k)·Cost(j,k)` (utilization-weighted) and
/// `S₀ = Σ Cost(j,k)` (plain, for the all-idle uniform-weight case).
/// Adding a member only contributes its pairs against the *existing*
/// members, so both a hypothetical candidate score
/// ([`Self::candidate_cost`]) and a committed insertion
/// ([`Self::push`]) are O(|members|) — the seed path re-evaluated the
/// full double loop, O(|members|²), for every probe of the ALLOCATE
/// scan.
///
/// Results match [`server_cost`] up to floating-point re-association
/// (≲1e-12 relative); the equivalence property tests pin both the
/// numeric agreement and that the allocator produces identical
/// placements.
///
/// # Example
///
/// ```
/// use cavm_core::corr::CostMatrix;
/// use cavm_core::servercost::{server_cost, ServerCostAggregate};
/// use cavm_trace::{Reference, TimeSeries};
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let vm0 = TimeSeries::new(1.0, vec![4.0, 0.0])?;
/// let vm1 = TimeSeries::new(1.0, vec![0.0, 4.0])?;
/// let m = CostMatrix::from_traces(&[&vm0, &vm1], Reference::Peak)?;
/// let mut agg = ServerCostAggregate::new();
/// agg.push(0, 4.0, &m);
/// assert_eq!(agg.candidate_cost(1, 4.0, &m), 2.0);
/// agg.push(1, 4.0, &m);
/// assert_eq!(agg.cost(), server_cost(&[(0, 4.0), (1, 4.0)], &m));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServerCostAggregate {
    /// `(vm id, û)` of each committed member.
    members: Vec<(usize, f64)>,
    /// `U`: total member utilization.
    total_util: f64,
    /// `S`: Σ over member pairs of `(û_j + û_k)·Cost(j,k)`.
    weighted_pair_sum: f64,
    /// `S₀`: Σ over member pairs of `Cost(j,k)`.
    plain_pair_sum: f64,
}

impl ServerCostAggregate {
    /// Creates an empty-server aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no member has been pushed.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The committed members as `(vm id, û)` pairs.
    pub fn members(&self) -> &[(usize, f64)] {
        &self.members
    }

    /// `U`: total committed utilization (the server's packed load).
    pub fn total_util(&self) -> f64 {
        self.total_util
    }

    /// Eqn (2) over the committed members (1.0 for empty and single-VM
    /// servers, matching [`server_cost`]).
    pub fn cost(&self) -> f64 {
        Self::combine(
            self.members.len(),
            self.total_util,
            self.weighted_pair_sum,
            self.plain_pair_sum,
        )
    }

    /// Eqn (2) for the server *after* hypothetically adding
    /// `(id, util)` — the ALLOCATE selection score, in O(|members|)
    /// without mutating the aggregate. An `id` beyond the matrix (a VM
    /// newer than the period matrix) scores neutral pairs.
    pub fn candidate_cost(&self, id: usize, util: f64, matrix: &CostMatrix) -> f64 {
        let (dw, dp) = self.pair_delta(id, util, matrix);
        Self::combine(
            self.members.len() + 1,
            self.total_util + util,
            self.weighted_pair_sum + dw,
            self.plain_pair_sum + dp,
        )
    }

    /// Eqn (2) for the server after hypothetically adding a candidate
    /// whose pair sums against the committed members are already known
    /// — the O(1) probe behind incrementally-maintained candidate
    /// indexes (see `ProposedPolicy`'s per-bin index). `(dw, dp)` must
    /// equal what [`ServerCostAggregate::candidate_cost`] would compute
    /// internally: the candidate's `(û_j + û_k)·Cost(j,k)` and
    /// `Cost(j,k)` sums accumulated *in member commit order*, so the
    /// result is bit-identical to the O(|members|) probe.
    pub fn candidate_cost_with(&self, util: f64, dw: f64, dp: f64) -> f64 {
        Self::combine(
            self.members.len() + 1,
            self.total_util + util,
            self.weighted_pair_sum + dw,
            self.plain_pair_sum + dp,
        )
    }

    /// Commits `(id, util)` as a member, updating the pair sums in
    /// O(|members|). An `id` beyond the matrix contributes neutral
    /// pairs.
    pub fn push(&mut self, id: usize, util: f64, matrix: &CostMatrix) {
        let (dw, dp) = self.pair_delta(id, util, matrix);
        self.weighted_pair_sum += dw;
        self.plain_pair_sum += dp;
        self.total_util += util;
        self.members.push((id, util));
    }

    /// Forgets all members.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// The candidate's contribution to `(S, S₀)`: its pairs against
    /// every committed member.
    fn pair_delta(&self, id: usize, util: f64, matrix: &CostMatrix) -> (f64, f64) {
        let mut weighted = 0.0;
        let mut plain = 0.0;
        for &(member, member_util) in &self.members {
            let c = matrix.cost_or_neutral(member, id);
            weighted += (member_util + util) * c;
            plain += c;
        }
        (weighted, plain)
    }

    fn combine(n: usize, total: f64, weighted: f64, plain: f64) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        if total > 0.0 {
            weighted / (total * (n - 1) as f64)
        } else {
            // All members idle: Eqn (2) weights uniformly, which
            // reduces to the mean pair cost scaled by 2/n.
            2.0 * plain / (n * (n - 1)) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavm_trace::Reference;

    fn matrix3() -> CostMatrix {
        // VM0/VM1 complementary (cost 2), VM2 flat (cost 1 with both).
        CostMatrix::from_ticks(&[[4.0, 0.0, 2.0], [0.0, 4.0, 2.0]])
    }

    #[test]
    fn degenerate_servers_cost_one() {
        let m = matrix3();
        assert_eq!(server_cost(&[], &m), 1.0);
        assert_eq!(server_cost(&[(0, 4.0)], &m), 1.0);
    }

    #[test]
    fn pair_server_equals_pair_cost_when_balanced() {
        let m = matrix3();
        assert_eq!(server_cost(&[(0, 4.0), (1, 4.0)], &m), 2.0);
    }

    #[test]
    fn weights_follow_utilization() {
        let m = matrix3();
        // VM0 dominant: its average pair cost (vs VM2: 6/6=1) dominates.
        let heavy0 = server_cost(&[(0, 100.0), (2, 1.0)], &m);
        let c02 = m.cost(0, 2).unwrap();
        assert!((heavy0 - c02).abs() < 0.02);
    }

    #[test]
    fn zero_total_weighting_is_uniform() {
        let m = matrix3();
        let c = server_cost(&[(0, 0.0), (1, 0.0)], &m);
        assert_eq!(c, m.cost(0, 1).unwrap());
    }

    #[test]
    fn triple_server_mixes_pairs() {
        let m = matrix3();
        // Equal demands: cost = mean over j of mean pair cost.
        let c = server_cost(&[(0, 1.0), (1, 1.0), (2, 1.0)], &m);
        let c01 = m.cost(0, 1).unwrap(); // 2.0
        let c02 = m.cost(0, 2).unwrap(); // 1.0
        let c12 = m.cost(1, 2).unwrap(); // 1.0
        let expected = ((c01 + c02) / 2.0 + (c01 + c12) / 2.0 + (c02 + c12) / 2.0) / 3.0;
        assert!((c - expected).abs() < 1e-12);
    }

    /// The Fig 3 gap: Eqn (2) can read above the true aggregation ratio
    /// `Σû / û(Σ)`. VM0 and VM1 peak together, VM2 peaks alone.
    #[test]
    fn pairwise_cost_can_exceed_the_true_aggregation_ratio() {
        let m = CostMatrix::from_ticks(&[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert_eq!(m.cost(0, 1), Some(1.0));
        assert_eq!(m.cost(0, 2), Some(2.0));
        assert_eq!(m.cost(1, 2), Some(2.0));
        let x = server_cost(&[(0, 1.0), (1, 1.0), (2, 1.0)], &m);
        assert!((x - 5.0 / 3.0).abs() < 1e-12, "server cost {x}");
        // Σû = 3 over an aggregate peak of 2 (samples 2 and 1).
        let y = 3.0 / 2.0;
        assert!(x > y);
    }

    #[test]
    fn candidate_helper_matches_direct_evaluation() {
        let m = matrix3();
        let vms = vec![
            VmDescriptor::new(0, 4.0),
            VmDescriptor::new(1, 4.0),
            VmDescriptor::new(2, 2.0),
        ];
        let direct = server_cost_of(&[0, 1], &vms, &m);
        let via_candidate = server_cost_with_candidate(&[0], 1, &vms, &m);
        assert_eq!(direct, via_candidate);
    }

    #[test]
    fn unknown_pairs_use_neutral_cost() {
        let m = CostMatrix::new(2, Reference::Peak).unwrap();
        assert_eq!(server_cost(&[(0, 1.0), (1, 1.0)], &m), 1.5);
    }

    #[test]
    fn aggregate_tracks_direct_evaluation() {
        let m = matrix3();
        let demands = [4.0, 4.0, 2.0];
        let mut agg = ServerCostAggregate::new();
        assert!(agg.is_empty());
        assert_eq!(agg.cost(), 1.0);
        let mut members: Vec<(usize, f64)> = Vec::new();
        for (id, &demand) in demands.iter().enumerate() {
            let candidate = agg.candidate_cost(id, demand, &m);
            let mut direct_members = members.clone();
            direct_members.push((id, demand));
            let direct = server_cost(&direct_members, &m);
            assert!(
                (candidate - direct).abs() < 1e-12,
                "candidate {candidate} vs direct {direct} at size {}",
                members.len()
            );
            agg.push(id, demand, &m);
            members.push((id, demand));
            assert!((agg.cost() - server_cost(&members, &m)).abs() < 1e-12);
        }
        assert_eq!(agg.len(), 3);
        assert_eq!(agg.members(), members.as_slice());
        agg.clear();
        assert!(agg.is_empty());
        assert_eq!(agg.cost(), 1.0);
    }

    #[test]
    fn aggregate_handles_all_idle_members() {
        let m = matrix3();
        let mut agg = ServerCostAggregate::new();
        agg.push(0, 0.0, &m);
        agg.push(1, 0.0, &m);
        assert!((agg.cost() - server_cost(&[(0, 0.0), (1, 0.0)], &m)).abs() < 1e-12);
        let direct = server_cost(&[(0, 0.0), (1, 0.0), (2, 0.0)], &m);
        assert!((agg.candidate_cost(2, 0.0, &m) - direct).abs() < 1e-12);
    }
}
