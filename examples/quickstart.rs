//! Quickstart: the paper's pipeline in ~40 lines.
//!
//! Synthesize correlated VM traces, build the pairwise cost matrix
//! (Eqn 1), place VMs with the correlation-aware heuristic (Fig 2),
//! and pick each server's frequency (Eqn 4).
//!
//! Run with: `cargo run --example quickstart`

use cavm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 12 VMs in 3 correlated groups, 6 hours of 5-second samples.
    let fleet = DatacenterTraceBuilder::new(12)
        .groups(3)
        .seed(7)
        .duration_hours(6.0)
        .build()?;
    let traces = fleet.traces();

    // The paper's streaming correlation cost, evaluated over the traces.
    let matrix = CostMatrix::from_traces(&traces, Reference::Peak)?;
    println!("pairwise costs (1 = peaks coincide, 2 = perfectly complementary):");
    for i in 0..4 {
        for j in (i + 1)..4 {
            let same = if fleet.vms()[i].group == fleet.vms()[j].group {
                "same group"
            } else {
                "different groups"
            };
            println!(
                "  cost(vm{i}, vm{j}) = {:.3}  [{same}]",
                matrix.cost(i, j).expect("matrix has samples")
            );
        }
    }

    // Correlation-aware placement onto 8-core servers.
    let vms = VmDescriptor::from_traces(&traces, Reference::Peak)?;
    let placement = ProposedPolicy::default().place_uniform(&vms, &matrix, 8.0)?;
    println!("\nplacement on {} servers:", placement.server_count());

    // Eqn 4: per-server frequency on the Xeon E5410 ladder (the
    // testbed's one server class).
    let xeons = ServerFleet::uniform(
        placement.server_count(),
        8.0,
        LinearPowerModel::xeon_e5410(),
    )?;
    let planner = FleetFrequencyPlanner::new(&xeons);
    for (s, members) in placement.servers().iter().enumerate() {
        let demand: f64 = members.iter().map(|&id| vms[id].demand).sum();
        let cost = server_cost_of(members, &vms, &matrix);
        let f = planner.static_level_correlation_aware(0, demand, cost.max(1.0))?;
        println!("  server{s}: vms {members:?}  Σû = {demand:.2} cores, cost = {cost:.2} → {f}");
    }
    Ok(())
}
