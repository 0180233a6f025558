//! `cavm-exp` — every experiment of the reproduction behind one binary.
//!
//! ```text
//! cargo run --release -p cavm-bench --bin cavm-exp -- <section>|all
//! ```
//!
//! `cavm-exp <section>` runs one experiment and prints its tables to
//! stdout. `cavm-exp all` runs every section in the order of
//! [`SECTIONS`], prints each one's tables exactly as the single
//! section does, and then writes `BENCH_corr.json` at the workspace
//! root in one write. Only `all` touches the file.
//!
//! Every recorded field is exact per seed — no wall clock, no core
//! count — so the file is a byte-exact golden: CI regenerates it and
//! runs `git diff --exit-code BENCH_corr.json`. Timings live in
//! `benchmark/` (`sharded-day` is the `scale` day at 1/16, `service-day`
//! the `service` recipe).
//!
//! Sizes are constants of each section. The nine `CAVM_TRACE_*`
//! variables, read by `trace`, point the replay at another CSV (README,
//! "Bring your own trace").

mod ablation;
mod faults;
mod fig1;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod hetero;
mod online;
mod scale;
mod service;
mod table1;
mod table2;
mod trace;

/// Schema tag of `BENCH_corr.json`.
const SCHEMA: &str = "cavm-bench-corr/2";

/// The workspace root, so default paths mean the same from any
/// working directory.
const WORKSPACE_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// What a section does besides printing.
#[derive(Clone, Copy)]
enum Run {
    /// Prints its tables and returns its `BENCH_corr.json` value.
    Recorded(fn() -> String),
    /// Prints its tables only.
    Printed(fn()),
}

/// Every section, in the order `all` runs them; the recorded ones are
/// the top-level keys of `BENCH_corr.json`, in this order, after
/// `schema`.
const SECTIONS: [(&str, Run); 14] = [
    ("online", Run::Recorded(online::run)),
    ("faults", Run::Recorded(faults::run)),
    ("scale", Run::Recorded(scale::run)),
    ("trace", Run::Recorded(trace::run)),
    ("service", Run::Recorded(service::run)),
    ("table2", Run::Recorded(table2::run)),
    ("fig3", Run::Recorded(fig3::run)),
    ("fig6", Run::Recorded(fig6::run)),
    ("table1", Run::Recorded(table1::run)),
    ("fig1", Run::Printed(fig1::run)),
    ("fig4", Run::Printed(fig4::run)),
    ("fig5", Run::Printed(fig5::run)),
    ("hetero", Run::Printed(hetero::run)),
    ("ablation", Run::Printed(ablation::run)),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg == "all" {
        let mut doc = format!("{{\n  \"schema\": \"{SCHEMA}\"");
        for (name, run) in SECTIONS {
            eprintln!("cavm-exp: {name}");
            match run {
                Run::Recorded(section) => doc += &format!(",\n  \"{name}\": {}", section()),
                Run::Printed(section) => section(),
            }
        }
        doc += "\n}\n";
        let path = format!("{WORKSPACE_ROOT}/BENCH_corr.json");
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("cavm-exp: wrote BENCH_corr.json");
        return;
    }
    match SECTIONS.iter().find(|(name, _)| *name == arg) {
        Some((_, Run::Recorded(section))) => {
            section();
        }
        Some((_, Run::Printed(section))) => section(),
        None => {
            let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: cavm-exp <{}>|all", names.join("|"));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = include_str!("../../../../../BENCH_corr.json");

    #[test]
    fn golden_keys_follow_the_section_order() {
        // `all` renders every top-level key at two spaces of indent and
        // everything nested deeper.
        let keys: Vec<&str> = GOLDEN
            .lines()
            .filter_map(|line| line.strip_prefix("  \""))
            .filter_map(|rest| rest.split_once('"').map(|(key, _)| key))
            .collect();
        let mut expected = vec!["schema"];
        expected.extend(
            SECTIONS
                .iter()
                .filter(|(_, run)| matches!(run, Run::Recorded(_)))
                .map(|(name, _)| *name),
        );
        assert_eq!(keys, expected);
        assert!(GOLDEN.contains(&format!("\"schema\": \"{SCHEMA}\"")));
    }

    #[test]
    fn golden_holds_no_host_dependent_field() {
        for key in ["wall_s", "mean_tick_ms", "_wall_s\"", "\"cores\""] {
            assert!(!GOLDEN.contains(key), "BENCH_corr.json records {key}");
        }
    }
}
