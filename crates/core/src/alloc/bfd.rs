//! Best-Fit-Decreasing — the paper's primary baseline (Table II's
//! normalization reference).
//!
//! Like FFD, but each VM goes to the feasible open server with the
//! *least* residual capacity (the tightest fit), which empirically packs
//! slightly better; new servers open through the fleet cursor (largest
//! class first). Correlation-blind.

use crate::alloc::{
    decreasing_order, validate_inputs, AllocationPolicy, Placement, VmDescriptor, FIT_EPS,
};
use crate::corr::CostMatrix;
use crate::fleet::{FleetCursor, ServerFleet};

/// Best-Fit-Decreasing allocation.
///
/// # Example
///
/// ```
/// use cavm_core::alloc::{AllocationPolicy, BfdPolicy, VmDescriptor};
/// use cavm_core::corr::CostMatrix;
/// use cavm_trace::Reference;
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let vms = vec![
///     VmDescriptor::new(0, 6.0),
///     VmDescriptor::new(1, 5.0),
///     VmDescriptor::new(2, 2.0),
/// ];
/// let matrix = CostMatrix::new(3, Reference::Peak)?;
/// let p = BfdPolicy.place_uniform(&vms, &matrix, 8.0)?;
/// // The 2-core VM best-fits next to the 6-core one (residual 0),
/// // not the 5-core one (residual 1).
/// assert_eq!(p.server_of(2), p.server_of(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BfdPolicy;

impl AllocationPolicy for BfdPolicy {
    fn name(&self) -> &'static str {
        "BFD"
    }

    fn place(
        &self,
        vms: &[VmDescriptor],
        matrix: &CostMatrix,
        fleet: &ServerFleet,
    ) -> crate::Result<Placement> {
        validate_inputs(vms, matrix)?;
        let mut cursor = FleetCursor::new(fleet);
        let class_wpc: Vec<f64> = fleet
            .classes()
            .iter()
            .map(|c| c.busy_watts_per_core())
            .collect();
        // (members, used, capacity, class) per open server.
        let mut servers: Vec<(Vec<usize>, f64, f64, usize)> = Vec::new();
        let order = decreasing_order(vms);
        for (placed, &idx) in order.iter().enumerate() {
            let vm = &vms[idx];
            // Tightest feasible open server: minimal residual capacity
            // that still fits the VM. Exact residual ties go to the
            // hosting class with the lower busy-watts-per-core (the
            // efficient class absorbs the load); remaining ties keep
            // the *last* candidate — the `max_by`-on-used semantics of
            // the uniform-capacity formulation, which the regression
            // suite pins (on a one-class fleet the wattage never
            // differs, so the historical behaviour is preserved
            // bit-identically).
            let mut best: Option<(usize, f64, f64)> = None;
            for (i, (_, used, cap, class)) in servers.iter().enumerate() {
                let residual = cap - used;
                if vm.demand > residual + FIT_EPS {
                    continue;
                }
                let wpc = class_wpc[*class];
                let better = match best {
                    None => true,
                    Some((_, best_residual, best_wpc)) => {
                        residual < best_residual || (residual == best_residual && wpc <= best_wpc)
                    }
                };
                if better {
                    best = Some((i, residual, wpc));
                }
            }
            match best {
                Some((i, _, _)) => {
                    let (members, used, _, _) = &mut servers[i];
                    members.push(vm.id);
                    *used += vm.demand;
                }
                None => {
                    let (class, cap) = cursor
                        .open_next()
                        .ok_or_else(|| cursor.exhausted(vms.len() - placed))?;
                    servers.push((vec![vm.id], vm.demand, cap, class));
                }
            }
        }
        Ok(Placement::from_classed_servers(
            servers.into_iter().map(|(m, _, _, c)| (m, c)).collect(),
        ))
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

    fn matrix(n: usize) -> CostMatrix {
        CostMatrix::new(n, Reference::Peak).unwrap()
    }

    #[test]
    fn best_fit_prefers_tightest_bin() {
        // After placing 6 and 5 on separate servers, the 2 fits both but
        // best-fits next to the 6.
        let vms = descs(&[6.0, 5.0, 2.0]);
        let p = BfdPolicy.place_uniform(&vms, &matrix(3), 8.0).unwrap();
        assert_eq!(p.server_of(2), p.server_of(0));
        assert_ne!(p.server_of(2), p.server_of(1));
        p.validate(&vms, 8.0).unwrap();
    }

    #[test]
    fn bfd_can_beat_ffd_in_server_count() {
        // Classic instance where best-fit packs tighter than first-fit:
        // capacity 10, items 7,6,3,3,2,2 (FFD: [7,3],[6,3],[2,2]=3 bins
        // only if first-fit misplaces; construct a case where counts
        // differ at least sometimes). Here we only pin BFD's optimum.
        let vms = descs(&[7.0, 6.0, 3.0, 3.0, 2.0, 2.0]);
        let p = BfdPolicy.place_uniform(&vms, &matrix(6), 10.0).unwrap();
        assert!(p.server_count() <= 3);
        p.validate(&vms, 10.0).unwrap();
    }

    #[test]
    fn oversized_and_empty_inputs() {
        let p = BfdPolicy.place_uniform(&[], &matrix(1), 4.0).unwrap();
        assert_eq!(p.server_count(), 0);
        let vms = descs(&[9.0]);
        let p = BfdPolicy.place_uniform(&vms, &matrix(1), 4.0).unwrap();
        assert_eq!(p.server_count(), 1);
        assert_eq!(BfdPolicy.name(), "BFD");
    }

    #[test]
    fn capacity_is_respected() {
        let vms = descs(&[3.0, 3.0, 3.0, 3.0, 3.0]);
        let p = BfdPolicy.place_uniform(&vms, &matrix(5), 7.0).unwrap();
        for members in p.servers() {
            let load: f64 = members.iter().map(|&id| vms[id].demand).sum();
            assert!(load <= 7.0 + 1e-9);
        }
        p.validate(&vms, 7.0).unwrap();
    }

    #[test]
    fn rejects_invalid_inputs() {
        let vms = descs(&[1.0]);
        assert!(BfdPolicy.place_uniform(&vms, &matrix(1), -1.0).is_err());
        assert!(BfdPolicy
            .place_uniform(&descs(&[f64::NAN]), &matrix(1), 8.0)
            .is_err());
    }

    #[test]
    fn residual_ties_go_to_the_efficient_class() {
        let xeon = LinearPowerModel::xeon_e5410;
        // Two 8-core classes differing only in wattage; the frugal one
        // leads the fill order.
        let fleet = ServerFleet::new(vec![
            ServerClass::new("frugal", 1, 8.0, xeon()).unwrap(),
            ServerClass::new("hungry", 1, 8.0, xeon().scaled(1.4).unwrap()).unwrap(),
        ])
        .unwrap();
        // 7 + 7 open both servers (residual 1 each); the final 1-core VM
        // ties on residual and must join the frugal host.
        let vms = descs(&[7.0, 7.0, 1.0]);
        let p = BfdPolicy.place(&vms, &matrix(3), &fleet).unwrap();
        p.validate_fleet(&vms, &fleet).unwrap();
        assert_eq!(p.server_of(2), p.server_of(0));
        assert_eq!(p.class_of(p.server_of(2).unwrap()), Some(0));
    }

    #[test]
    fn heterogeneous_fleet_respects_per_class_capacity() {
        let xeon = LinearPowerModel::xeon_e5410;
        let fleet = ServerFleet::new(vec![
            ServerClass::new("big", 1, 16.0, xeon().scaled(2.0).unwrap()).unwrap(),
            ServerClass::new("small", 8, 4.0, xeon()).unwrap(),
        ])
        .unwrap();
        let vms = descs(&[9.0, 6.0, 3.0, 3.0]);
        let p = BfdPolicy.place(&vms, &matrix(4), &fleet).unwrap();
        p.validate_fleet(&vms, &fleet).unwrap();
        // 9+6 tight-pack the 16-core box; the 3s open 4-core boxes.
        assert_eq!(p.server_of(0), p.server_of(1));
        assert_eq!(p.class_of(p.server_of(0).unwrap()), Some(0));
        for s in 1..p.server_count() {
            assert_eq!(p.class_of(s), Some(1));
        }
    }
}
