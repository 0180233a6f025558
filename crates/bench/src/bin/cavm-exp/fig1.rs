//! Fig 1 — CPU utilization of two ISNs tracks the client population.
//!
//! Regenerates the paper's Fig 1: two index-serving nodes of one web
//! search cluster, driven by a sine-shaped client count, sampled every
//! second. The series are printed as CSV plus summary statistics: the
//! intra-cluster Pearson correlation (the phenomenon §III-C builds on)
//! and each ISN's correlation with the client signal.

use cavm_core::corr::{cost_of_traces, pearson_of_traces};
use cavm_trace::Reference;
use cavm_workload::{ClientWave, WebSearchCluster};

pub fn run() {
    let cluster = WebSearchCluster::paper_setup1().expect("paper preset is valid");
    let wave = ClientWave::sine(0.0, 300.0, 1200.0).expect("wave parameters are valid");
    let clients = wave.sample(1.0, 1200).expect("sampling succeeds");
    let mut rng = cavm_trace::SimRng::new(1);
    let isns = cluster
        .utilization_traces(&clients, &mut rng)
        .expect("trace generation succeeds");

    println!("# Fig 1 — ISN utilization vs clients (1 s samples, 20 min)");
    println!("t_s,clients,vm1_cores,vm2_cores");
    for k in (0..clients.len()).step_by(10) {
        println!(
            "{:.0},{:.1},{:.3},{:.3}",
            k as f64,
            clients.values()[k],
            isns[0].values()[k],
            isns[1].values()[k]
        );
    }

    let r_intra = pearson_of_traces(&isns[0], &isns[1])
        .expect("equal-length traces")
        .expect("non-degenerate variance");
    let r_c0 = pearson_of_traces(&isns[0], &clients)
        .expect("equal-length traces")
        .expect("non-degenerate variance");
    let r_c1 = pearson_of_traces(&isns[1], &clients)
        .expect("equal-length traces")
        .expect("non-degenerate variance");
    let cost =
        cost_of_traces(&isns[0], &isns[1], Reference::Peak).expect("cost evaluation succeeds");

    println!();
    println!("# Summary");
    println!("pearson(vm1, vm2)      = {r_intra:.3}   (paper: 'highly synchronized')");
    println!("pearson(vm1, clients)  = {r_c0:.3}");
    println!("pearson(vm2, clients)  = {r_c1:.3}");
    println!("eqn1 cost(vm1, vm2)    = {cost:.3}   (near 1 = strongly correlated)");
    println!(
        "peak load: vm1 {:.2} cores, vm2 {:.2} cores (imbalanced shards)",
        isns[0].peak(),
        isns[1].peak()
    );
}
