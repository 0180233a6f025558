//! The metric tables: every end-to-end and per-layer metric by name,
//! with its unit, direction and (end-to-end only) regression bound.
//! `BENCHMARK.json` at the repository root carries the same tables; a
//! unit test keeps the two in step.

/// An end-to-end metric: what a user of the controller sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("events_per_s", "1/s", "higher", 0.25),
    e2e("arrive_p50_us", "us", "lower", 0.25),
    e2e("arrive_p90_us", "us", "lower", 0.25),
    e2e("tick_p50_us", "us", "lower", 0.25),
    e2e("period_close_p50_ms", "ms", "lower", 0.25),
    e2e("stall_max_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
    e2e("energy_kwh_per_core_h", "kWh/core-h", "lower", 0.10),
    e2e("violation_free_pct", "%", "higher", 0.08),
];

/// The metrics whose value is simulated, not timed: exact for a seed.
pub const SIMULATED: [&str; 2] = ["energy_kwh_per_core_h", "violation_free_pct"];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 83] = [
    // The controller the driver calls (sharded on `sharded-day`, flat
    // elsewhere), one row set per call kind.
    ("sim.controller.arrive.calls", "count", "lower"),
    ("sim.controller.arrive.busy_s", "s", "lower"),
    ("sim.controller.arrive.p99_us", "us", "lower"),
    ("sim.controller.depart.calls", "count", "lower"),
    ("sim.controller.depart.busy_s", "s", "lower"),
    ("sim.controller.depart.p99_us", "us", "lower"),
    ("sim.controller.tick_plain.calls", "count", "lower"),
    ("sim.controller.tick_plain.busy_s", "s", "lower"),
    ("sim.controller.tick_plain.p99_us", "us", "lower"),
    ("sim.controller.tick_open.calls", "count", "lower"),
    ("sim.controller.tick_open.busy_s", "s", "lower"),
    ("sim.controller.tick_open.p99_us", "us", "lower"),
    ("sim.controller.tick_close.calls", "count", "lower"),
    ("sim.controller.tick_close.busy_s", "s", "lower"),
    ("sim.controller.tick_close.p99_us", "us", "lower"),
    ("sim.controller.tick_repack.calls", "count", "lower"),
    ("sim.controller.tick_repack.busy_s", "s", "lower"),
    ("sim.controller.tick_repack.p99_us", "us", "lower"),
    ("sim.controller.fault.calls", "count", "lower"),
    ("sim.controller.fault.busy_s", "s", "lower"),
    ("sim.controller.close_first_ms", "ms", "lower"),
    ("sim.controller.close_last_ms", "ms", "lower"),
    ("sim.controller.fork_calls", "count", "lower"),
    ("sim.controller.fork_busy_s", "s", "lower"),
    ("sim.controller.whatif_repack_busy_s", "s", "lower"),
    ("sim.controller.finish_busy_s", "s", "lower"),
    ("sim.controller.migrations", "count", "lower"),
    ("sim.controller.offcycle_repacks", "count", "lower"),
    ("sim.controller.online_admissions", "count", "higher"),
    ("sim.controller.deferred_peak", "count", "lower"),
    ("sim.controller.evacuations", "count", "lower"),
    ("sim.controller.violation_instances", "count", "lower"),
    ("sim.controller.energy_kwh", "kWh", "lower"),
    ("sim.controller.max_violation_pct", "%", "lower"),
    ("sim.cells.cell_ticks", "count", "lower"),
    ("sim.cells.population_max", "count", "higher"),
    ("sim.cells.imbalance", "ratio", "lower"),
    ("core.corr.rebuild_calls", "count", "lower"),
    ("core.corr.rebuild_busy_s", "s", "lower"),
    ("core.corr.pair_updates", "count", "lower"),
    ("core.corr.ns_per_pair_update", "ns", "lower"),
    ("core.corr.universe_max", "count", "lower"),
    ("core.corr.live_pair_share", "ratio", "higher"),
    ("core.corr.matrix_bytes_max", "bytes", "lower"),
    ("core.alloc.place_calls", "count", "lower"),
    ("core.alloc.place_busy_s", "s", "lower"),
    ("core.alloc.place_ns_per_vm", "ns", "lower"),
    ("core.alloc.bfd_place_ns_per_vm", "ns", "lower"),
    ("core.alloc.proposed_over_bfd", "ratio", "lower"),
    ("core.alloc.place_one_calls", "count", "lower"),
    ("core.alloc.place_one_ns", "ns", "lower"),
    ("core.servercost.candidate_cost_ns", "ns", "lower"),
    ("core.servercost.members_mean", "count", "lower"),
    ("core.dvfs.plan_calls", "count", "lower"),
    ("core.dvfs.plan_ns_per_server", "ns", "lower"),
    ("core.fleet.estimate_ns", "ns", "lower"),
    ("trace.sketch_calls", "count", "lower"),
    ("trace.sketch_busy_s", "s", "lower"),
    ("trace.sketch_ns_per_sample", "ns", "lower"),
    ("trace.reference_busy_s", "s", "lower"),
    ("trace.reference_ns_per_sample", "ns", "lower"),
    ("power.evals", "count", "lower"),
    ("power.busy_s", "s", "lower"),
    ("sim.sink.callbacks", "count", "lower"),
    ("sim.sink.busy_s", "s", "lower"),
    ("sim.sink.dropped", "count", "lower"),
    ("sim.sink.finish_s", "s", "lower"),
    ("sim.service.run_busy_s", "s", "lower"),
    ("sim.service.solo_sum_s", "s", "lower"),
    ("sim.service.overhead_share", "ratio", "lower"),
    ("sim.service.schedule_bytes", "bytes", "lower"),
    ("sim.service.speedup_2w", "ratio", "higher"),
    ("workload.ingest_rows", "count", "higher"),
    ("workload.ingest_busy_s", "s", "lower"),
    ("workload.ingest_rows_per_s", "1/s", "higher"),
    ("workload.lower_busy_s", "s", "lower"),
    ("workload.generate_busy_s", "s", "lower"),
    ("driver.events", "count", "higher"),
    ("driver.loop_self_s", "s", "lower"),
    ("driver.unattributed_share", "ratio", "lower"),
    ("driver.close_explained_share", "ratio", "higher"),
    ("tracing.overhead_ratio", "ratio", "lower"),
    ("tracing.spans", "count", "lower"),
];

pub const WORKLOADS: [&str; 4] = [
    "sharded-day",
    "flat-p95-day",
    "service-day",
    "trace-replay-week",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn rows(doc: &Json, key: &str) -> Vec<Json> {
        match doc.get(key) {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("{key}: expected an array, found {other:?}"),
        }
    }

    fn text<'a>(row: &'a Json, key: &str) -> &'a str {
        match row.get(key) {
            Some(Json::Str(s)) => s,
            _ => panic!("{key} in {row}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = manifest();
        let e2e = rows(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), def.name);
            assert_eq!(text(row, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(row, "better"), def.better, "{}", def.name);
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        let layers = rows(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name"), *name);
            assert_eq!(text(row, "unit"), *unit, "{name}");
            assert_eq!(text(row, "better"), *better, "{name}");
        }
        let workloads: Vec<String> = rows(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let e2e = END_TO_END.iter().map(|d| (d.name, d.unit));
        let layers = PER_LAYER.iter().map(|&(n, u, _)| (n, u));
        for (name, unit) in e2e
            .chain(layers)
            .chain(WORKLOADS.iter().map(|&w| (w, "count")))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(unit_ok(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
