//! Table I — web search co-located with PARSEC workloads.
//!
//! Regenerates the paper's Table I on the `cavm-microarch` substrate:
//! IPC, L2 MPKI and L2 miss rate of a web-search workload alone (in
//! parentheses in the paper) and next to each PARSEC co-runner on a
//! shared last-level cache. Also prints the contrast case the paper's
//! argument implies: a cache-resident workload IS hurt by co-location.
//! The largest IPC deviation and the contrast's IPC loss are recorded.

use cavm_microarch::{machine::Machine, stream::StreamProfile};

const INSTRUCTIONS: u64 = 3_000_000;
const SEED: u64 = 1;

pub fn run() -> String {
    let machine = Machine::opteron_like().expect("preset machine is valid");
    let (solo, paired) = machine
        .colocation_study(
            &StreamProfile::web_search(),
            &StreamProfile::parsec_corunners(),
            INSTRUCTIONS,
            SEED,
        )
        .expect("study runs to completion");

    println!("# Table I — web search metrics, co-located vs alone (in parentheses)");
    println!(
        "{:<18} {:>16} {:>18} {:>20}",
        "co-runner", "IPC", "L2 MPKI", "L2 miss rate (%)"
    );
    for (name, m) in &paired {
        println!(
            "w/ {:<15} {:>8.2} ({:.2}) {:>10.2} ({:.2}) {:>12.2} ({:.2})",
            name,
            m.ipc,
            solo.ipc,
            m.l2_mpki,
            solo.l2_mpki,
            100.0 * m.l2_miss_rate,
            100.0 * solo.l2_miss_rate,
        );
    }

    let max_ipc_delta = paired
        .iter()
        .map(|(_, m)| (m.ipc - solo.ipc).abs() / solo.ipc)
        .fold(0.0, f64::max);
    println!();
    println!(
        "max IPC deviation under co-location: {:.1}%",
        100.0 * max_ipc_delta
    );
    println!("(paper: 'only negligible variations over all the metrics')");

    let resident_solo = machine
        .run_solo(&StreamProfile::cache_resident(), INSTRUCTIONS, SEED)
        .expect("solo run succeeds");
    let (resident_paired, _) = machine
        .run_pair(
            &StreamProfile::cache_resident(),
            &StreamProfile::canneal(),
            INSTRUCTIONS,
            SEED,
        )
        .expect("pair run succeeds");
    let resident_loss = 100.0 * (resident_solo.ipc - resident_paired.ipc) / resident_solo.ipc;
    println!();
    println!("# Contrast: cache-resident workload w/ canneal (sharing is NOT free here)");
    println!(
        "IPC {:.2} ({:.2})  L3 miss {:.1}% ({:.1}%)  → IPC loss {:.0}%",
        resident_paired.ipc,
        resident_solo.ipc,
        100.0 * resident_paired.l3_miss_rate,
        100.0 * resident_solo.l3_miss_rate,
        resident_loss,
    );

    format!(
        "{{\"instructions\": {INSTRUCTIONS}, \"max_ipc_deviation_percent\": {:.3}, \"cache_resident_ipc_loss_percent\": {:.3}}}",
        100.0 * max_ipc_delta,
        resident_loss,
    )
}
