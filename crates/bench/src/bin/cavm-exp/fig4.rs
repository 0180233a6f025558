//! Fig 4 — per-server utilization traces of the three placements.
//!
//! Regenerates the paper's Fig 4: the normalized aggregate CPU
//! utilization of both servers under (a) Segregated, (b) Shared-UnCorr
//! and (c) Shared-Corr, plus the peak utilizations the text discusses
//! (≈0.88 for Shared-UnCorr vs ≈0.6 for Shared-Corr in the paper).

use cavm_bench::bar;
use cavm_cluster::experiment::{run_setup1, Setup1Config, Setup1Placement};

pub fn run() {
    let config = Setup1Config::default();
    for placement in [
        Setup1Placement::Segregated,
        Setup1Placement::SharedUncorrelated,
        Setup1Placement::SharedCorrelated,
    ] {
        let out = run_setup1(placement, &config).expect("scenario runs");
        println!(
            "# Fig 4 ({}) — normalized server utilization, 30 s resolution",
            out.placement.label()
        );
        println!(
            "{:>6} {:>8} {:<26} {:>8} {:<26}",
            "t_s", "srv1", "", "srv2", ""
        );
        let s1 = &out.result.server_utilization[0];
        let s2 = &out.result.server_utilization[1];
        for k in (0..s1.len()).step_by(30) {
            let (u1, u2) = (s1.values()[k], s2.values()[k]);
            println!(
                "{:>6} {:>8.2} {:<26} {:>8.2} {:<26}",
                k,
                u1,
                bar(u1, 25),
                u2,
                bar(u2, 25)
            );
        }
        // Peaks of the 30 s-averaged signal: what one reads off the
        // paper's figure (1 s Poisson noise momentarily saturates any
        // busy server and would hide the placement difference).
        let p30: Vec<f64> = [s1, s2]
            .iter()
            .map(|t| t.coarsen_mean(30).expect("factor >= 1").peak())
            .collect();
        println!(
            "peak utilization (30 s avg): server1 {:.2}, server2 {:.2}   (1 s peaks {:.2}/{:.2})",
            p30[0], p30[1], out.peak_server_util[0], out.peak_server_util[1]
        );
        // Per-VM imbalance visible in the Segregated panel (Fig 4(a)).
        if placement == Setup1Placement::Segregated {
            for (v, t) in out.result.vm_utilization.iter().enumerate() {
                println!(
                    "  vm{} mean {:.2} / peak {:.2} cores",
                    v + 1,
                    t.mean(),
                    t.peak()
                );
            }
        }
        println!();
    }
    println!("(paper: Shared-UnCorr peaks near 0.88 because cluster-mates peak together;");
    println!(" Shared-Corr flattens both servers — the reduction Eqn 4 converts to power)");
}
