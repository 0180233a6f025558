//! First-Fit-Decreasing — the classical bin-packing heuristic the
//! proposed algorithm (Fig 2) is built on.
//!
//! VMs are sorted by decreasing demand "to reduce the fragmentation of
//! the bin-packing problem" (paper, line 6 of Fig 2) and each VM goes to
//! the first open server with room; the fleet cursor opens the next
//! server (largest class first) when none fits. FFD is
//! correlation-blind: it never consults the cost matrix.

use crate::alloc::online::{first_fit_server, OpenServer};
use crate::alloc::{
    decreasing_order, validate_inputs, AllocationPolicy, Placement, VmDescriptor, FIT_EPS,
};
use crate::corr::CostMatrix;
use crate::fleet::{FleetCursor, ServerFleet};

/// First-Fit-Decreasing allocation.
///
/// # Example
///
/// ```
/// use cavm_core::alloc::{AllocationPolicy, FfdPolicy, VmDescriptor};
/// use cavm_core::corr::CostMatrix;
/// use cavm_trace::Reference;
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let vms = vec![
///     VmDescriptor::new(0, 5.0),
///     VmDescriptor::new(1, 4.0),
///     VmDescriptor::new(2, 3.0),
/// ];
/// let matrix = CostMatrix::new(3, Reference::Peak)?;
/// let p = FfdPolicy.place_uniform(&vms, &matrix, 8.0)?;
/// // 5+3 share the first server, 4 goes to the second.
/// assert_eq!(p.server_count(), 2);
/// assert_eq!(p.server_of(0), p.server_of(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FfdPolicy;

impl AllocationPolicy for FfdPolicy {
    fn name(&self) -> &'static str {
        "FFD"
    }

    fn place(
        &self,
        vms: &[VmDescriptor],
        matrix: &CostMatrix,
        fleet: &ServerFleet,
    ) -> crate::Result<Placement> {
        validate_inputs(vms, matrix)?;
        let mut cursor = FleetCursor::new(fleet);
        // (members, used, capacity, class) per open server.
        let mut servers: Vec<(Vec<usize>, f64, f64, usize)> = Vec::new();
        let order = decreasing_order(vms);
        for (placed, &idx) in order.iter().enumerate() {
            let vm = &vms[idx];
            let slot = servers
                .iter_mut()
                .find(|(_, used, cap, _)| used + vm.demand <= cap + FIT_EPS);
            match slot {
                Some((members, used, _, _)) => {
                    members.push(vm.id);
                    *used += vm.demand;
                }
                None => {
                    // An oversized VM (demand beyond even the largest
                    // remaining class) is still admitted alone — it has
                    // to run somewhere.
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

    /// Online arrivals keep FFD's rule: the first open server with
    /// room (preferring one that outlives the arrival's lease).
    fn place_one(
        &self,
        vm: &VmDescriptor,
        lease: Option<usize>,
        servers: &[OpenServer<'_>],
        matrix: &CostMatrix,
    ) -> Option<usize> {
        first_fit_server(vm, lease, servers, matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ServerClass;
    use crate::CoreError;
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
    fn empty_input_gives_empty_placement() {
        let p = FfdPolicy.place_uniform(&[], &matrix(1), 8.0).unwrap();
        assert_eq!(p.server_count(), 0);
    }

    #[test]
    fn single_vm() {
        let vms = descs(&[3.0]);
        let p = FfdPolicy.place_uniform(&vms, &matrix(1), 8.0).unwrap();
        assert_eq!(p.server_count(), 1);
        p.validate(&vms, 8.0).unwrap();
    }

    #[test]
    fn classic_ffd_example() {
        // Demands 5,4,3,2,2 into capacity 8: FFD gives [5,3], [4,2,2].
        let vms = descs(&[5.0, 4.0, 3.0, 2.0, 2.0]);
        let p = FfdPolicy.place_uniform(&vms, &matrix(5), 8.0).unwrap();
        assert_eq!(p.server_count(), 2);
        assert_eq!(p.server(0).unwrap(), &[0, 2]);
        assert_eq!(p.server(1).unwrap(), &[1, 3, 4]);
        p.validate(&vms, 8.0).unwrap();
    }

    #[test]
    fn exact_fits_are_accepted() {
        let vms = descs(&[4.0, 4.0]);
        let p = FfdPolicy.place_uniform(&vms, &matrix(2), 8.0).unwrap();
        assert_eq!(p.server_count(), 1);
    }

    #[test]
    fn oversized_vm_gets_its_own_server() {
        let vms = descs(&[10.0, 1.0]);
        let p = FfdPolicy.place_uniform(&vms, &matrix(2), 8.0).unwrap();
        assert_eq!(p.server_count(), 2);
        p.validate(&vms, 8.0).unwrap();
    }

    #[test]
    fn zero_demand_vms_pack_into_one_server() {
        let vms = descs(&[0.0, 0.0, 0.0]);
        let p = FfdPolicy.place_uniform(&vms, &matrix(3), 8.0).unwrap();
        assert_eq!(p.server_count(), 1);
    }

    #[test]
    fn respects_server_lower_bound() {
        // 10 VMs of demand 3 into capacity 8 need at least ceil(30/8)=4.
        let vms = descs(&[3.0; 10]);
        let p = FfdPolicy.place_uniform(&vms, &matrix(10), 8.0).unwrap();
        assert!(p.server_count() >= 4);
        p.validate(&vms, 8.0).unwrap();
        assert_eq!(FfdPolicy.name(), "FFD");
    }

    #[test]
    fn heterogeneous_fleet_fills_largest_class_first() {
        let xeon = LinearPowerModel::xeon_e5410;
        let fleet = ServerFleet::new(vec![
            ServerClass::new("small", 4, 4.0, xeon()).unwrap(),
            ServerClass::new("big", 1, 16.0, xeon().scaled(2.0).unwrap()).unwrap(),
        ])
        .unwrap();
        // 5+5+4 land on the 16-core box; 3 opens a 4-core box.
        let vms = descs(&[5.0, 5.0, 4.0, 3.0]);
        let p = FfdPolicy.place(&vms, &matrix(4), &fleet).unwrap();
        p.validate_fleet(&vms, &fleet).unwrap();
        assert_eq!(p.server_count(), 2);
        assert_eq!(p.class_of(0), Some(1));
        assert_eq!(p.class_of(1), Some(0));
        assert_eq!(p.server(0).unwrap(), &[0, 1, 2]);
    }

    #[test]
    fn exhausted_fleet_errors() {
        let fleet = ServerFleet::uniform(1, 4.0, LinearPowerModel::xeon_e5410()).unwrap();
        let vms = descs(&[3.0, 3.0, 3.0]);
        assert!(matches!(
            FfdPolicy.place(&vms, &matrix(3), &fleet),
            Err(CoreError::FleetExhausted {
                slots: 1,
                unallocated: 2
            })
        ));
    }
}
