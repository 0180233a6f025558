//! Fig 6 — frequency-level distributions of BFD vs Proposed.
//!
//! Regenerates the paper's Fig 6: histograms of the frequency levels two
//! representative servers used over the day, under static v/f scaling.
//! The proposed policy's correlation discount (Eqn 4) shifts the mass to
//! the lower level; BFD must provision for coincident peaks and lives at
//! the top level. The fleet-wide level shares are recorded.

use cavm_bench::{bar, run_setup2, setup2_fleet, SETUP2_SEED};
use cavm_core::dvfs::DvfsMode;
use cavm_sim::Policy;

pub fn run() -> String {
    let fleet = setup2_fleet(SETUP2_SEED);
    let bfd = run_setup2(&fleet, Policy::Bfd, DvfsMode::Static);
    let proposed = run_setup2(
        &fleet,
        Policy::Proposed(Default::default()),
        DvfsMode::Static,
    );

    // The paper shows Server1 and Server3; print those two (indices 0
    // and 2) plus the fleet-wide aggregate.
    for server in [0, 2] {
        println!("# Fig 6 — frequency distribution, Server{}", server + 1);
        for report in [&bfd, &proposed] {
            let dist = report
                .freq_distribution(server)
                .expect("servers 1 and 3 are active all day");
            print!("{:<10}", report.policy);
            for (level, share) in report.freq_levels_ghz.iter().zip(&dist) {
                print!(
                    "  {level:.1} GHz: {:>5.1}% {} ",
                    100.0 * share,
                    bar(*share, 20)
                );
            }
            println!();
        }
        println!();
    }

    println!("# Fleet-wide level usage (all servers, all samples)");
    let mut rows = Vec::new();
    for report in [&bfd, &proposed] {
        let mut totals = vec![0u64; report.freq_levels_ghz.len()];
        for row in &report.freq_histogram {
            for (i, c) in row.iter().enumerate() {
                totals[i] += c;
            }
        }
        let sum: u64 = totals.iter().sum::<u64>().max(1);
        let shares: Vec<f64> = totals.iter().map(|&c| c as f64 / sum as f64).collect();
        print!("{:<10}", report.policy);
        for (level, share) in report.freq_levels_ghz.iter().zip(&shares) {
            print!(
                "  {level:.1} GHz: {:>5.1}% {} ",
                100.0 * share,
                bar(*share, 20)
            );
        }
        println!();
        let shares: Vec<String> = shares.iter().map(|s| format!("{s:.4}")).collect();
        rows.push(format!(
            "      {{\"policy\": \"{}\", \"shares\": [{}]}}",
            report.policy,
            shares.join(", ")
        ));
    }
    println!();
    println!("(paper: 'the proposed solution uses the lower frequency levels more");
    println!(" frequently' — the source of Table II(a)'s 13.7% power saving)");

    let levels: Vec<String> = bfd
        .freq_levels_ghz
        .iter()
        .map(|l| format!("{l:.1}"))
        .collect();
    format!(
        "{{\n    \"levels_ghz\": [{}],\n    \"fleet_shares\": [\n{}\n    ]\n  }}",
        levels.join(", "),
        rows.join(",\n")
    )
}
