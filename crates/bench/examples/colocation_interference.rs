//! Shared-cache interference study (the paper's §III-B / Table I).
//!
//! Why is core sharing safe for scale-out workloads? Because their
//! working sets dwarf every on-chip cache: a co-runner cannot make the
//! cache behaviour much worse. This example runs the web-search workload
//! alone and against each PARSEC co-runner, then shows the contrast — a
//! cache-resident workload that co-location genuinely hurts.
//!
//! Run with: `cargo run --release -p cavm-bench --example colocation_interference`

use cavm_microarch::{Machine, StreamProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = Machine::opteron_like()?;
    let instructions = 2_000_000;

    let (solo, paired) = machine.colocation_study(
        &StreamProfile::web_search(),
        &StreamProfile::parsec_corunners(),
        instructions,
        1,
    )?;
    println!(
        "web search alone : IPC {:.2}, L2 MPKI {:.2}, L2 miss {:.1}%",
        solo.ipc,
        solo.l2_mpki,
        100.0 * solo.l2_miss_rate
    );
    for (name, m) in &paired {
        println!(
            "  w/ {name:<13}: IPC {:.2}, L2 MPKI {:.2}, L2 miss {:.1}%  (Δipc {:+.1}%)",
            m.ipc,
            m.l2_mpki,
            100.0 * m.l2_miss_rate,
            100.0 * (m.ipc - solo.ipc) / solo.ipc
        );
    }

    let resident = StreamProfile::cache_resident();
    let r_solo = machine.run_solo(&resident, instructions, 1)?;
    let (r_paired, _) = machine.run_pair(&resident, &StreamProfile::canneal(), instructions, 1)?;
    println!(
        "\ncache-resident contrast: IPC {:.2} alone → {:.2} w/ canneal ({:+.0}%)",
        r_solo.ipc,
        r_paired.ipc,
        100.0 * (r_paired.ipc - r_solo.ipc) / r_solo.ipc
    );
    println!("→ sharing is free for scale-out workloads, not in general");
    Ok(())
}
