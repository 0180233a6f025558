//! Heterogeneous fleet: all five policies on a 3-class datacenter
//! (4/8/16-core server classes with scaled power models).
//!
//! The paper's testbed is uniform; related work (Esfandiarpoor et al.,
//! Akhter et al.) treats mixed server generations as the baseline
//! setting. This section replays the Setup-2 trace fleet (40 VMs over
//! 24 h) against such a mix: the correlation-aware policy keeps its
//! edge because the Eqn (2)/(3) machinery is evaluated per class
//! (largest, most efficient boxes fill first) and Eqn (4) discounts
//! each server's frequency on its own class ladder.

use crate::online::{policies, HOURS, VMS};
use cavm_bench::{bar, setup2_fleet, SETUP2_SEED};
use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_sim::{ScenarioBuilder, SimReport};

pub fn run() {
    let fleet = setup2_fleet(SETUP2_SEED);
    let server_fleet = ServerFleet::mixed_4_8_16(24, 16, 4).expect("valid counts");

    let reports: Vec<SimReport> = policies()
        .into_iter()
        .map(|policy| {
            ScenarioBuilder::new(fleet.clone())
                .server_fleet(server_fleet.clone())
                .policy(policy)
                .dvfs_mode(DvfsMode::Static)
                .build()
                .expect("scenario parameters are valid")
                .run()
                .expect("scenario runs to completion")
        })
        .collect();
    let baseline = reports
        .iter()
        .find(|r| r.policy == "BFD")
        .expect("BFD is in the policy set")
        .energy;

    println!("# Heterogeneous 3-class fleet — {VMS} VMs over {HOURS} h, static DVFS");
    println!(
        "  fleet: {}",
        server_fleet
            .classes()
            .iter()
            .map(|c| format!("{}×{} ({} cores)", c.count(), c.name(), c.cores()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12}  normalized bar",
        "policy", "energy kWh", "norm. power", "max viol%", "migrations"
    );
    for r in &reports {
        let norm = r.energy.normalized_to(&baseline).expect("baseline > 0");
        println!(
            "{:<10} {:>12.2} {:>12.3} {:>10.2} {:>12}  {}",
            r.policy,
            r.energy.kilowatt_hours(),
            norm,
            r.max_violation_percent,
            r.total_migrations(),
            bar(norm, 30),
        );
    }

    println!();
    println!("# Per-class breakdown (energy share / peak servers used / migrations in)");
    for r in &reports {
        let total = r.energy.joules().max(f64::MIN_POSITIVE);
        let cells: Vec<String> = r
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{}: {:>4.1}% of energy, {}/{} servers, {} migr",
                    c.name,
                    100.0 * c.energy.joules() / total,
                    c.peak_servers_used,
                    c.servers_available,
                    c.migrations_in,
                )
            })
            .collect();
        println!("{:<10} {}", r.policy, cells.join(" | "));
    }

    let proposed = &reports[4];
    let bfd = &reports[0];
    let ffd = &reports[1];
    println!();
    println!(
        "proposed vs BFD: {:.1}% energy, vs FFD: {:.1}%",
        100.0 * proposed.energy.normalized_to(&bfd.energy).expect("nonzero"),
        100.0 * proposed.energy.normalized_to(&ffd.energy).expect("nonzero"),
    );
    assert!(
        proposed.energy.joules() <= bfd.energy.joules()
            && proposed.energy.joules() <= ffd.energy.joules(),
        "the correlation-aware policy must not lose to the blind baselines here"
    );
    println!("(proposed ≤ both correlation-blind baselines — asserted)");
    // Pin the headline ratio so the class-aware open-server scoring
    // (watts-per-served-core tie-break) can only improve on the ≈89%
    // the fleet PR landed at, never regress past 92%.
    let ratio = proposed
        .energy
        .normalized_to(&bfd.energy)
        .expect("nonzero baseline");
    assert!(
        ratio <= 0.92,
        "proposed/BFD hetero energy regressed to {ratio:.4} (> 0.92)"
    );
    println!("(proposed/BFD ratio {ratio:.4} ≤ 0.92 — asserted)");
}
