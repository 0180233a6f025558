//! Table II — normalized power and maximum violations, static and
//! dynamic v/f scaling.
//!
//! Regenerates the paper's Table II on the trace-driven Setup-2
//! simulator: 40 busiest VMs of a synthetic datacenter, 20 Xeon-E5410
//! servers (8 cores, 2.0/2.3 GHz), hourly re-placement with a last-value
//! predictor, 24 hours. Power is normalized to BFD; the violation metric
//! is the maximum per-period ratio of over-utilized 5 s instances. Each
//! row records the paper's numbers beside ours and, for PCP, the
//! periods in which its envelopes collapsed to a single cluster.

use cavm_bench::{run_setup2, setup2_fleet, table2_policies, SETUP2_SEED};
use cavm_core::dvfs::DvfsMode;
use cavm_sim::{Policy, SimReport};
use std::fmt::Write as _;

/// Monitoring samples between dynamic DVFS re-plans (1 min).
const DVFS_INTERVAL_SAMPLES: usize = 12;

/// One recorded row; `paper` is the paper's (power, violations) pair.
fn row(report: &SimReport, normalized: f64, paper: Option<(f64, f64)>) -> String {
    let single = report
        .pcp_single_cluster_periods()
        .map_or_else(|| "null".to_string(), |n| n.to_string());
    let (paper_power, paper_viol) = paper.map_or_else(
        || ("null".to_string(), "null".to_string()),
        |(power, viol)| (format!("{power:.3}"), format!("{viol:.1}")),
    );
    format!(
        "      {{\"policy\": \"{}\", \"normalized_power\": {normalized:.4}, \"max_violation_percent\": {:.3}, \"single_cluster_periods\": {single}, \"paper_power\": {paper_power}, \"paper_max_violation_percent\": {paper_viol}}}",
        report.policy, report.max_violation_percent,
    )
}

pub fn run() -> String {
    let fleet = setup2_fleet(SETUP2_SEED);
    let mut section = String::from("{\n");
    let _ = writeln!(section, "    \"vms\": {},", fleet.len());
    let _ = writeln!(
        section,
        "    \"dynamic_interval_samples\": {DVFS_INTERVAL_SAMPLES},"
    );
    for (key, label, mode, paper) in [
        (
            "static",
            "(a) static v/f scaling",
            DvfsMode::Static,
            [(1.000, 18.2), (0.999, 18.2), (0.863, 2.6)],
        ),
        (
            "dynamic",
            "(b) dynamic v/f scaling (re-planned every 12 samples = 1 min)",
            DvfsMode::Dynamic {
                interval_samples: DVFS_INTERVAL_SAMPLES,
            },
            [(1.000, 20.3), (0.997, 20.3), (0.958, 3.1)],
        ),
    ] {
        println!("# Table II {label}");
        println!(
            "{:<10} {:>18} {:>22} {:>14} {:>12}",
            "policy", "normalized power", "max violations (%)", "paper power", "paper viol"
        );
        let mut rows = Vec::new();
        let mut baseline = None;
        for (policy, (paper_power, paper_viol)) in table2_policies().into_iter().zip(paper) {
            let report = run_setup2(&fleet, policy, mode);
            let normalized = match &baseline {
                None => 1.0,
                Some(base) => report
                    .energy
                    .normalized_to(base)
                    .expect("baseline non-zero"),
            };
            if baseline.is_none() {
                baseline = Some(report.energy);
            }
            print!(
                "{:<10} {:>18.3} {:>22.1} {:>14.3} {:>12.1}",
                report.policy, normalized, report.max_violation_percent, paper_power, paper_viol
            );
            if let Some(single) = report.pcp_single_cluster_periods() {
                print!(
                    "   [PCP degenerate in {single}/{} periods]",
                    report.periods.len()
                );
            }
            println!();
            rows.push(row(&report, normalized, Some((paper_power, paper_viol))));
        }
        // Extension row: the second related-work baseline (Meng et al.
        // [7], joint-VM sizing), which the paper discusses but does not
        // plot. Its once-per-period pairing overcommits when the fused
        // correlation shifts — the critique of §II, quantified.
        let supervm = run_setup2(
            &fleet,
            Policy::SuperVm {
                min_pair_cost: 1.25,
            },
            mode,
        );
        let normalized = supervm
            .energy
            .normalized_to(baseline.as_ref().expect("bfd ran first"))
            .expect("baseline non-zero");
        println!(
            "{:<10} {:>18.3} {:>22.1} {:>14} {:>12}   [extension, not in the paper's table]",
            supervm.policy, normalized, supervm.max_violation_percent, "-", "-"
        );
        println!();
        rows.push(row(&supervm, normalized, None));
        let _ = write!(section, "    \"{key}\": [\n{}\n    ]", rows.join(",\n"));
        section.push_str(if key == "static" { ",\n" } else { "\n" });
    }
    println!("(paper headline: up to 13.7% power savings and 15.6% fewer violations");
    println!(" vs BFD/PCP; PCP ≈ BFD because envelopes collapse to one cluster)");
    section.push_str("  }");
    section
}
