//! Joint-VM ("super-VM") provisioning — Meng et al., ICAC 2010 (the
//! paper's reference \[7\]), the second related-work baseline.
//!
//! The scheme pairs two *un-correlated* VMs into a super-VM, sizes the
//! pair by its **joint** predicted demand (smaller than the sum of the
//! individual peaks, because the peaks do not coincide), and then packs
//! the super-VMs with a conventional bin-packing heuristic.
//!
//! The paper's critique (§II): "once super-VMs are formed, this solution
//! does not consider the correlations of VMs within a same super-VM
//! anymore. Thus, it may lose the chance of further power savings by
//! leveraging time-varying correlations". This implementation makes the
//! critique testable: pairing is done once per placement from the
//! current matrix, the joint demand of a pair is `(û_a + û_b) /
//! Cost(a, b)` (exactly Eqn 1's denominator, the measured aggregate
//! reference), and *cross-pair* correlations are ignored by the final
//! BFD pass — which is where the proposed policy finds its extra
//! savings.

use crate::alloc::{
    decreasing_order, validate_inputs, AllocationPolicy, Placement, VmDescriptor, FIT_EPS,
};
use crate::corr::CostMatrix;
use crate::fleet::{FleetCursor, ServerFleet};
use crate::CoreError;

/// The joint-VM-sizing baseline policy.
///
/// # Example
///
/// ```
/// use cavm_core::alloc::{AllocationPolicy, SuperVmPolicy, VmDescriptor};
/// use cavm_core::corr::CostMatrix;
/// use cavm_trace::{Reference, TimeSeries};
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// // Two anti-phased VMs: a super-VM of joint size ~4 instead of 8.
/// let vm0 = TimeSeries::new(1.0, vec![4.0, 0.0])?;
/// let vm1 = TimeSeries::new(1.0, vec![0.0, 4.0])?;
/// let m = CostMatrix::from_traces(&[&vm0, &vm1], Reference::Peak)?;
/// let vms = vec![VmDescriptor::new(0, 4.0), VmDescriptor::new(1, 4.0)];
/// let p = SuperVmPolicy::default().place_uniform(&vms, &m, 8.0)?;
/// assert_eq!(p.server_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperVmPolicy {
    /// Minimum pair cost for two VMs to be fused into a super-VM; pairs
    /// below it stay single (fusing correlated VMs would not reduce the
    /// joint size anyway).
    pub min_pair_cost: f64,
}

impl Default for SuperVmPolicy {
    fn default() -> Self {
        Self {
            min_pair_cost: 1.25,
        }
    }
}

impl SuperVmPolicy {
    /// Creates a policy with an explicit fusion threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-finite
    /// threshold.
    pub fn new(min_pair_cost: f64) -> crate::Result<Self> {
        if !min_pair_cost.is_finite() {
            return Err(CoreError::InvalidParameter(
                "pair-cost threshold must be finite",
            ));
        }
        Ok(Self { min_pair_cost })
    }

    /// Greedy pairing: repeatedly take the largest unpaired VM and fuse
    /// it with the unpaired partner of maximal pair cost (if any clears
    /// the threshold). Returns `(members, joint_demand)` per super-VM.
    fn build_super_vms(&self, vms: &[VmDescriptor], matrix: &CostMatrix) -> Vec<(Vec<usize>, f64)> {
        let order = decreasing_order(vms);
        let mut unpaired: Vec<usize> = order; // descriptor indices, desc demand
        let mut supers = Vec::new();
        while let Some(first_pos) = if unpaired.is_empty() { None } else { Some(0) } {
            let a_idx = unpaired.remove(first_pos);
            let a = &vms[a_idx];
            let mut best: Option<(usize, f64)> = None;
            for (pos, &b_idx) in unpaired.iter().enumerate() {
                let b = &vms[b_idx];
                let cost = matrix.cost_or_neutral(a.id, b.id);
                if cost < self.min_pair_cost {
                    continue;
                }
                if best.is_none_or(|(_, c)| cost > c + 1e-12) {
                    best = Some((pos, cost));
                }
            }
            match best {
                Some((pos, cost)) => {
                    let b_idx = unpaired.remove(pos);
                    let b = &vms[b_idx];
                    // Joint sizing: the measured aggregate reference,
                    // û(a+b) = (û_a + û_b) / Cost(a, b).
                    let joint = (a.demand + b.demand) / cost.max(1.0);
                    supers.push((vec![a.id, b.id], joint));
                }
                None => supers.push((vec![a.id], a.demand)),
            }
        }
        supers
    }
}

impl AllocationPolicy for SuperVmPolicy {
    fn name(&self) -> &'static str {
        "SuperVM"
    }

    fn place(
        &self,
        vms: &[VmDescriptor],
        matrix: &CostMatrix,
        fleet: &ServerFleet,
    ) -> crate::Result<Placement> {
        validate_inputs(vms, matrix)?;
        let supers = self.build_super_vms(vms, matrix);

        // BFD over super-VMs by joint demand.
        let mut order: Vec<usize> = (0..supers.len()).collect();
        order.sort_by(|&x, &y| {
            supers[y]
                .1
                .partial_cmp(&supers[x].1)
                .expect("finite joint demands")
        });
        let mut cursor = FleetCursor::new(fleet);
        // (members, used, capacity, class) per open server.
        let mut bins: Vec<(Vec<usize>, f64, f64, usize)> = Vec::new();
        let mut placed_vms = 0usize;
        for idx in order {
            let (members, joint) = &supers[idx];
            // Tightest feasible open server: minimal residual that
            // still fits the super-VM (ties keep the last candidate —
            // the `max_by`-on-used semantics of the uniform
            // formulation).
            let mut best: Option<(usize, f64)> = None;
            for (i, (_, used, cap, _)) in bins.iter().enumerate() {
                let residual = cap - used;
                if *joint <= residual + FIT_EPS
                    && best.is_none_or(|(_, best_residual)| residual <= best_residual)
                {
                    best = Some((i, residual));
                }
            }
            match best {
                Some((i, _)) => {
                    let (bin_members, used, _, _) = &mut bins[i];
                    bin_members.extend_from_slice(members);
                    *used += joint;
                }
                None => {
                    let (class, cap) = cursor
                        .open_next()
                        .ok_or_else(|| cursor.exhausted(vms.len() - placed_vms))?;
                    bins.push((members.clone(), *joint, cap, class));
                }
            }
            placed_vms += members.len();
        }
        Ok(Placement::from_classed_servers(
            bins.into_iter().map(|(m, _, _, c)| (m, c)).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavm_trace::Reference;

    fn descs(demands: &[f64]) -> Vec<VmDescriptor> {
        demands
            .iter()
            .enumerate()
            .map(|(i, &d)| VmDescriptor::new(i, d))
            .collect()
    }

    #[test]
    fn fuses_anti_correlated_pairs() {
        // VMs 0/2 anti-phased, 1/3 anti-phased: two super-VMs of joint
        // size ≈ 4 each → one 8-core server, where BFD by peaks needs 2.
        let m = CostMatrix::from_ticks(&[[4.0, 4.0, 0.0, 0.0], [0.0, 0.0, 4.0, 4.0]]);
        let vms = descs(&[4.0, 4.0, 4.0, 4.0]);
        let p = SuperVmPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate_structure(&vms).unwrap();
        assert_eq!(p.server_count(), 1, "joint sizing must halve the footprint");
        let bfd = crate::alloc::BfdPolicy
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        assert_eq!(bfd.server_count(), 2);
    }

    #[test]
    fn correlated_vms_stay_single() {
        // All four VMs peak together: no pair clears the threshold,
        // sizing degenerates to individual peaks (BFD-like).
        let m = CostMatrix::from_ticks(&[[4.0, 4.0, 4.0, 4.0], [0.5, 0.5, 0.5, 0.5]]);
        let vms = descs(&[4.0, 4.0, 4.0, 4.0]);
        let p = SuperVmPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate(&vms, 8.0).unwrap();
        assert_eq!(p.server_count(), 2);
    }

    #[test]
    fn odd_vm_counts_leave_one_single() {
        let m = CostMatrix::from_ticks(&[[3.0, 0.0, 3.0], [0.0, 3.0, 0.0]]);
        let vms = descs(&[3.0, 3.0, 3.0]);
        let p = SuperVmPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate_structure(&vms).unwrap();
        let total: usize = p.servers().iter().map(|s| s.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn neutral_matrix_still_pairs_at_default_threshold() {
        // Unknown pairs score 1.5 ≥ 1.25: the policy optimistically
        // fuses, which is exactly the over-trust the paper critiques.
        let m = CostMatrix::new(4, Reference::Peak).unwrap();
        let vms = descs(&[3.0, 3.0, 3.0, 3.0]);
        let p = SuperVmPolicy::default()
            .place_uniform(&vms, &m, 8.0)
            .unwrap();
        p.validate_structure(&vms).unwrap();
        assert_eq!(p.server_count(), 1);
    }

    #[test]
    fn threshold_validation_and_name() {
        assert!(SuperVmPolicy::new(f64::NAN).is_err());
        assert_eq!(SuperVmPolicy::default().name(), "SuperVM");
        assert_eq!(SuperVmPolicy::new(1.5).unwrap().min_pair_cost, 1.5);
    }

    #[test]
    fn empty_input() {
        let m = CostMatrix::new(1, Reference::Peak).unwrap();
        let p = SuperVmPolicy::default()
            .place_uniform(&[], &m, 8.0)
            .unwrap();
        assert_eq!(p.server_count(), 0);
    }

    #[test]
    fn exhaustion_reports_unplaced_vms_not_super_vms() {
        use crate::fleet::ServerFleet;
        use cavm_power::LinearPowerModel;
        // Pairs (0,2) and (1,3) fuse into two super-VMs of joint size 8
        // each; a single 8-core server takes only the first, leaving
        // one super-VM = TWO real VMs unplaced.
        let m = CostMatrix::from_ticks(&[[8.0, 8.0, 0.0, 0.0], [0.0, 0.0, 8.0, 8.0]]);
        let vms = descs(&[8.0, 8.0, 8.0, 8.0]);
        let fleet = ServerFleet::uniform(1, 8.0, LinearPowerModel::xeon_e5410()).unwrap();
        assert!(matches!(
            SuperVmPolicy::default().place(&vms, &m, &fleet),
            Err(CoreError::FleetExhausted {
                slots: 1,
                unallocated: 2
            })
        ));
    }

    #[test]
    fn hetero_fleet_packs_super_vms_onto_classes() {
        use crate::fleet::{ServerClass, ServerFleet};
        use cavm_power::LinearPowerModel;
        let xeon = LinearPowerModel::xeon_e5410;
        let fleet = ServerFleet::new(vec![
            ServerClass::new("big", 1, 8.0, xeon()).unwrap(),
            ServerClass::new("small", 4, 4.0, xeon().scaled(0.5).unwrap()).unwrap(),
        ])
        .unwrap();
        // 0/2 and 1/3 fuse to joint size ≈ 4 each: both super-VMs fit
        // the single 8-core box.
        let m = CostMatrix::from_ticks(&[[4.0, 4.0, 0.0, 0.0], [0.0, 0.0, 4.0, 4.0]]);
        let vms = descs(&[4.0, 4.0, 4.0, 4.0]);
        let p = SuperVmPolicy::default().place(&vms, &m, &fleet).unwrap();
        p.validate_structure(&vms).unwrap();
        assert_eq!(p.server_count(), 1);
        assert_eq!(p.class_of(0), Some(0));
    }
}
