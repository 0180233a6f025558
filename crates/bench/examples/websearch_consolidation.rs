//! Web-search consolidation (the paper's Setup-1 workload).
//!
//! Runs the three placements of Fig 4/5 on the discrete-event cluster
//! simulator, then demonstrates that the correlation-aware allocator
//! *discovers* the good placement by itself from measured utilization
//! traces — no human told it the clusters are anti-phased.
//!
//! Run with: `cargo run --release -p cavm-bench --example websearch_consolidation`

use cavm_cluster::experiment::setup1_sim_config;
use cavm_cluster::{run_setup1, ClusterSim, Setup1Config, Setup1Placement};
use cavm_core::alloc::{AllocationPolicy, ProposedPolicy, VmDescriptor};
use cavm_core::corr::CostMatrix;
use cavm_trace::{Reference, TimeSeries};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Shortened run so the example finishes quickly; `cavm-exp fig5`
    // runs the full 20-minute period.
    let config = Setup1Config {
        duration_s: 600.0,
        wave_period_s: 600.0,
        ..Setup1Config::default()
    };

    println!("90th-percentile response time (s) per placement:");
    for placement in [
        Setup1Placement::Segregated,
        Setup1Placement::SharedUncorrelated,
        Setup1Placement::SharedCorrelated,
    ] {
        let out = run_setup1(placement, &config)?;
        println!(
            "  {:<14} cluster1 {:.3}, cluster2 {:.3}   (peak server util {:.2}/{:.2})",
            out.placement.label(),
            out.p90_response[0],
            out.p90_response[1],
            out.peak_server_util[0],
            out.peak_server_util[1],
        );
    }

    // Now let the paper's allocator find the placement itself: measure
    // per-VM utilization in the Shared-UnCorr deployment, build the cost
    // matrix, and re-place.
    let sim_config = setup1_sim_config(Setup1Placement::SharedUncorrelated, &config)?;
    let result = ClusterSim::new(sim_config.clone())?.run()?;
    let traces: Vec<&TimeSeries> = result.vm_utilization.iter().collect();
    let matrix = CostMatrix::from_traces(&traces, Reference::Percentile(99.0))?;
    let vms = VmDescriptor::from_traces(&traces, Reference::Percentile(99.0))?;
    let placement = ProposedPolicy::default().place_uniform(&vms, &matrix, 8.0)?;

    println!("\nallocator's own placement from measured traces:");
    for (s, members) in placement.servers().iter().enumerate() {
        let labels: Vec<String> = members
            .iter()
            .map(|&v| {
                let a = sim_config.assignments[v];
                format!("cluster{}/isn{}", a.cluster + 1, a.isn + 1)
            })
            .collect();
        println!("  server{s}: {}", labels.join(" + "));
    }
    // Cluster-mates (strongly correlated, Fig 1) must be split.
    for cluster in 0..2 {
        let servers: Vec<_> = (0..2)
            .map(|isn| {
                let vm = sim_config
                    .assignments
                    .iter()
                    .position(|a| a.cluster == cluster && a.isn == isn)
                    .expect("assignment exists");
                placement.server_of(vm)
            })
            .collect();
        assert_ne!(
            servers[0], servers[1],
            "allocator must separate the correlated ISNs of cluster {cluster}"
        );
    }
    println!("\n→ the allocator split both clusters across servers, as the paper intends");
    Ok(())
}
