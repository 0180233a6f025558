//! `cavm-benchmark`: four controller-day workloads, ten end-to-end
//! metrics and a driver-side span ledger per layer.
//!
//! ```text
//! cavm-benchmark --workload <w> --seed <n> --seconds <s> --trace <0|1>   one result line
//! cavm-benchmark run    --workload <w> --seed <n>    end-to-end metrics, spans off
//! cavm-benchmark trace  --workload <w> --seed <n>    traced run + layer replay
//! cavm-benchmark all    --seed <n>                   every workload, every metric, the checks
//! cavm-benchmark repeat --sets 2                     do two sets of runs agree?
//! ```
//!
//! See `benchmark/README.md` for the metric tables.

mod drive;
mod hist;
mod json;
mod metrics;
mod replay;
mod span;
mod workloads;

use drive::{Kind, Ledger, KINDS};
use json::{obj, Json};
use metrics::{END_TO_END, PER_LAYER, SIMULATED, WORKLOADS};
use replay::LayerStats;
use span::Tracer;
use std::cell::RefCell;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{
    FlatP95Day, Rep, ServiceDay, ServiceStats, ShardedDay, TraceReplayWeek, TraceRun, Workload,
};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
const RUN_SECONDS: f64 = 20.0;
/// Distinct inputs (days) an untraced run measures at least.
const DAYS: usize = 12;
/// Where a traced run writes its spans, relative to the checkout root.
const SPAN_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    /// No verb: the driver's form, one result line.
    Result,
    Run,
    Trace,
    All,
    Repeat,
}

#[derive(Debug, Clone)]
struct Opts {
    verb: Verb,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        verb: Verb::Result,
        workload: None,
        seed: 2013,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        sets: 2,
    };
    let mut rest = args.iter().peekable();
    if let Some(verb) = rest.peek().and_then(|a| match a.as_str() {
        "run" => Some(Verb::Run),
        "trace" => Some(Verb::Trace),
        "all" => Some(Verb::All),
        "repeat" => Some(Verb::Repeat),
        _ => None,
    }) {
        opts.verb = verb;
        rest.next();
    }
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sets" => opts.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    match opts.verb {
        Verb::Trace => opts.trace = true,
        Verb::Run => opts.trace = false,
        Verb::Repeat if opts.smoke => return Err("repeat compares full-size runs only".into()),
        Verb::Repeat if opts.sets < 2 => return Err("repeat needs at least two sets".into()),
        _ => {}
    }
    if matches!(opts.verb, Verb::Result | Verb::Run | Verb::Trace) {
        match opts.workload.as_deref() {
            Some(w) if WORKLOADS.contains(&w) => {}
            Some(w) => return Err(format!("unknown workload {w}; one of {WORKLOADS:?}")),
            None => return Err(format!("--workload is required; one of {WORKLOADS:?}")),
        }
    }
    Ok(opts)
}

fn median(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut values: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out revision, read from `.git` without running git;
/// `"unknown"` in an exported tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                let line = packed.lines().find(|l| l.ends_with(reference))?;
                Some(line.split_whitespace().next()?.to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

fn meta<W: Workload>(opts: &Opts, sizes: Json, days: usize) -> Json {
    obj([
        ("workload", Json::from(W::NAME)),
        ("seed", Json::from(opts.seed)),
        ("smoke", Json::from(opts.smoke)),
        ("traced", Json::from(opts.trace)),
        ("seconds", Json::from(opts.seconds)),
        ("days", Json::from(days)),
        ("sizes", sizes),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        // The manifest depends on the library crates with their default
        // features; the replay calls `par_push_columns`, so the build
        // itself proves `parallel` is on.
        (
            "features",
            Json::Arr(vec![
                Json::from("cavm-core/parallel"),
                Json::from("cavm-sim/parallel"),
            ]),
        ),
        ("git_rev", Json::from(git_rev())),
    ])
}

fn metric(value: Option<f64>, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// The checks every repetition must pass, keyed by name.
/// `digest_stable`: repetitions of one day produced one report digest.
fn rep_checks(reps: &[&Rep], digest_stable: bool) -> Vec<(&'static str, bool)> {
    vec![
        ("digest_stable", digest_stable),
        ("vms_accounted", reps.iter().all(|r| r.accounted)),
        ("no_failed_ops", reps.iter().all(|r| r.ledger.failed == 0)),
        (
            "sink_drops_match_report",
            reps.iter()
                .all(|r| r.sink.dropped == r.sink.reported_dropped),
        ),
        (
            "period_closes_match_sink",
            reps.iter().all(|r| {
                r.sink
                    .periods_seen
                    .is_none_or(|seen| seen == r.ledger.kind(Kind::TickClose).count())
            }),
        ),
    ]
}

fn checks_json(digest: u64, checks: Vec<(&'static str, bool)>) -> Json {
    let mut fields = vec![("digest".to_string(), Json::from(format!("{digest:016x}")))];
    fields.extend(
        checks
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::from(v))),
    );
    Json::Obj(fields)
}

/// The seed of the `day`-th input of a run.
fn day_seed(seed: u64, day: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(day as u64)
}

/// One measured day of an untraced run.
struct Day {
    setup_s: f64,
    demand_core_h: f64,
    rep: Rep,
    /// Per-call latencies, where `rep` could not observe them.
    solo: Option<Ledger>,
}

/// The untraced measurement. A run is at least [`DAYS`] days, each on
/// its own inputs (day `d` is generated from `day_seed(seed, d)`), so
/// that what it reports is a property of the workload rather than of
/// one draw of it; days repeat round-robin until `--seconds` have
/// passed. Every day is set up, run and dropped before the next, so
/// `setup_s` is a median over as many set-ups.
fn untraced<W: Workload>(opts: &Opts) -> Json {
    let mut days: Vec<Day> = Vec::new();
    let mut sizes = Json::Null;
    let started = Instant::now();
    while days.len() < DAYS || started.elapsed().as_secs_f64() < opts.seconds {
        let t0 = Instant::now();
        let inputs = W::setup(day_seed(opts.seed, days.len() % DAYS), opts.smoke);
        let setup_s = t0.elapsed().as_secs_f64();
        let rep = inputs.rep(None);
        if days.is_empty() {
            sizes = inputs.sizes();
        }
        days.push(Day {
            setup_s,
            demand_core_h: inputs.demand_core_h(),
            solo: inputs.solo_latencies(),
            rep,
        });
    }

    // Per-call latencies of each day, wherever it could observe them.
    let ledgers: Vec<&Ledger> = days
        .iter()
        .map(|d| d.solo.as_ref().unwrap_or(&d.rep.ledger))
        .collect();
    // A timing is the median over days of the day's own value: a day
    // the host disturbed is outvoted rather than pooled in.
    let over_days =
        |f: &dyn Fn(&Ledger) -> Option<f64>| median(ledgers.iter().filter_map(|l| f(l)));
    let pct = |kind: Kind, p: f64, scale: f64| {
        over_days(&|l: &Ledger| l.kind(kind).percentile_ns(p).map(|ns| ns / scale))
    };
    // The simulated results: means over the first round, exact for a seed.
    let round = &days[..DAYS];
    let mean = |f: &dyn Fn(&Day) -> f64| round.iter().map(f).sum::<f64>() / DAYS as f64;

    let values: Vec<Option<f64>> = vec![
        median(days.iter().map(|d| d.setup_s)),
        median(
            days.iter()
                .map(|d| d.rep.ledger.events as f64 / d.rep.wall_s),
        ),
        pct(Kind::Arrive, 50.0, 1e3),
        pct(Kind::Arrive, 90.0, 1e3),
        over_days(&|l: &Ledger| l.ticks.percentile_ns(50.0).map(|ns| ns / 1e3)),
        pct(Kind::TickClose, 50.0, 1e6),
        median(days.iter().map(|d| d.rep.stall_ns as f64 / 1e6)),
        peak_rss_mb(),
        Some(mean(&|d| d.rep.energy_kwh / d.demand_core_h)),
        Some(100.0 - mean(&|d| d.rep.mean_violation_pct)),
    ];
    let mut e2e: Vec<(String, Json)> = END_TO_END
        .iter()
        .zip(&values)
        .map(|(def, &v)| (def.name.to_string(), metric(v, def.unit)))
        .collect();
    let attempted: u64 = days.iter().map(|d| d.rep.ledger.events).sum();
    let solo_failed: u64 = days
        .iter()
        .filter_map(|d| d.solo.as_ref())
        .map(|l| l.failed)
        .sum();
    let failed: u64 = days.iter().map(|d| d.rep.ledger.failed).sum::<u64>() + solo_failed;
    e2e.push(("ops_attempted".into(), Json::from(attempted)));
    e2e.push(("ops_failed".into(), Json::from(failed)));

    let reps: Vec<&Rep> = days.iter().map(|d| &d.rep).collect();
    // A day that came round again must reproduce its report.
    let digest_stable = days
        .iter()
        .enumerate()
        .all(|(i, d)| d.rep.digest == days[i % DAYS].rep.digest);
    let mut checks = rep_checks(&reps, digest_stable);
    checks.push(("solo_replay_clean", solo_failed == 0));
    checks.push(("every_metric_measured", values.iter().all(Option::is_some)));
    let digests: Vec<u8> = round
        .iter()
        .flat_map(|d| d.rep.digest.to_le_bytes())
        .collect();
    let mut checks = checks_json(workloads::fnv64(&digests), checks);
    if let Json::Obj(fields) = &mut checks {
        let first = format!("{:016x}", days[0].rep.digest);
        fields.insert(1, ("first_day_digest".into(), Json::from(first)));
    }
    // Each day on its own, so a disturbed day can be told from a slow one.
    let per_day = days.iter().zip(&ledgers).map(|(d, ledger)| {
        let us = |ns: Option<f64>| Json::from(ns.map(|ns| ns / 1e3));
        obj([
            ("setup_s", Json::from(d.setup_s)),
            ("wall_s", Json::from(d.rep.wall_s)),
            (
                "arrive_p50_us",
                us(ledger.kind(Kind::Arrive).percentile_ns(50.0)),
            ),
            (
                "arrive_p90_us",
                us(ledger.kind(Kind::Arrive).percentile_ns(90.0)),
            ),
            ("tick_p50_us", us(ledger.ticks.percentile_ns(50.0))),
            (
                "period_close_p50_us",
                us(ledger.kind(Kind::TickClose).percentile_ns(50.0)),
            ),
            ("stall_max_us", us(Some(d.rep.stall_ns as f64))),
        ])
    });
    obj([
        ("meta", meta::<W>(opts, sizes, days.len())),
        ("e2e", Json::Obj(e2e)),
        ("per_day", Json::Arr(per_day.collect())),
        (
            "simulated",
            obj([
                ("energy_kwh", Json::from(mean(&|d| d.rep.energy_kwh))),
                ("demand_core_h", Json::from(mean(&|d| d.demand_core_h))),
                (
                    "max_violation_pct",
                    Json::from(mean(&|d| d.rep.max_violation_pct)),
                ),
                (
                    "mean_violation_pct",
                    Json::from(mean(&|d| d.rep.mean_violation_pct)),
                ),
            ]),
        ),
        ("layers", Json::Null),
        ("checks", checks),
    ])
}

/// Everything a traced run measured, for [`layer_values`].
struct Traced<'a> {
    plain: &'a Rep,
    traced: &'a Rep,
    layers: &'a LayerStats,
    service: Option<&'a ServiceStats>,
    tracer: &'a Tracer,
    cells: f64,
    generate_s: f64,
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Every per-layer metric, in [`PER_LAYER`] order.
fn layer_values(t: &Traced<'_>) -> Vec<(&'static str, Option<f64>)> {
    let s = |ns: u64| Some(ns as f64 / 1e9);
    let n = |count: u64| Some(count as f64);
    let ledger = &t.traced.ledger;
    let summary = t.tracer.summary();
    let mut out: Vec<(&'static str, Option<f64>)> = Vec::with_capacity(PER_LAYER.len());

    // A call's busy time is its span's self time (sink callbacks are
    // its children); without per-call spans, the ledger's plain sum.
    let busy_ns = |kind: Kind| match summary.get(kind.name()) {
        Some(&(_, _, own)) => own,
        None => ledger.kind(kind).sum_ns() as u64,
    };
    let mut names = PER_LAYER.iter().map(|&(name, _, _)| name);
    let mut put = |value: Option<f64>| {
        out.push((names.next().expect("a value per PER_LAYER row"), value));
    };
    for kind in KINDS {
        let hist = ledger.kind(kind);
        put(n(hist.count()));
        put(s(busy_ns(kind)));
        if kind != Kind::Fault {
            put(Some(hist.percentile_ns(99.0).map_or(0.0, |ns| ns / 1e3)));
        }
    }
    put(Some(ledger.close_first_ns as f64 / 1e6));
    put(Some(ledger.close_last_ns as f64 / 1e6));
    put(n(ledger.fork_calls));
    put(s(ledger.fork_ns));
    put(s(ledger.whatif_repack_ns));
    put(s(ledger.finish_ns));
    let counts = t.traced.counts;
    put(n(counts.migrations));
    put(n(counts.offcycle_repacks));
    put(n(counts.online_admissions));
    put(n(counts.deferred_peak));
    put(n(counts.evacuations));
    put(n(counts.violation_instances));
    put(Some(t.traced.energy_kwh));
    put(Some(t.traced.max_violation_pct));
    // sim.cells
    put(Some(ledger.ticks.count() as f64 * t.cells));
    put(n(ledger.population_max as u64));
    put(Some(ledger.imbalance));
    // core.corr
    let l = t.layers;
    put(n(l.rebuild_calls));
    put(s(l.rebuild_ns));
    put(n(l.pair_updates));
    put(ratio(l.rebuild_ns as f64, l.pair_updates as f64));
    put(n(l.universe_max));
    put(ratio(l.live_pairs as f64, l.universe_pairs as f64));
    put(n(l.matrix_bytes_max));
    // core.alloc
    put(n(l.place_calls));
    put(s(l.place_ns));
    put(ratio(l.place_ns as f64, l.place_vms as f64));
    put(ratio(l.bfd_place_ns as f64, l.place_vms as f64));
    put(ratio(l.place_ns as f64, l.bfd_place_ns as f64));
    put(n(l.place_one_calls));
    put(ratio(l.place_one_ns as f64, l.place_one_calls as f64));
    // core.servercost, core.dvfs, core.fleet
    put(ratio(l.candidate_ns as f64, l.candidate_calls as f64));
    put(ratio(l.members_sum as f64, l.candidate_calls as f64));
    put(n(l.plan_calls));
    put(ratio(l.plan_ns as f64, l.plan_calls as f64));
    put(ratio(l.estimate_ns as f64, l.estimate_calls as f64));
    // trace
    put(n(l.sketch_calls));
    put(s(l.sketch_ns));
    put(ratio(l.sketch_ns as f64, l.sketch_samples as f64));
    put(s(l.reference_ns));
    put(ratio(l.reference_ns as f64, l.reference_samples as f64));
    // power
    put(n(l.power_evals));
    put(s(l.power_ns));
    // sim.sink
    let callbacks = summary
        .iter()
        .filter(|(name, _)| name.starts_with("sim.sink.on_"));
    let (calls, busy) = callbacks.fold((0, 0), |acc, (_, row)| (acc.0 + row.0, acc.1 + row.1));
    put(n(calls));
    put(s(busy));
    put(n(t.traced.sink.dropped));
    put(s(t.traced.sink.finish_ns));
    // sim.service
    let service = t.service;
    put(service.and_then(|v| s(v.run_ns)));
    put(service.and_then(|v| s(v.solo_sum_ns)));
    put(service.and_then(|v| ratio(v.solo_sum_ns as f64, v.run_ns as f64).map(|r| 1.0 - r)));
    put(service.and_then(|v| n(v.schedule_bytes)));
    put(service.and_then(|v| v.speedup_2w));
    // workload
    let ingest = t.traced.ingest;
    put(n(ingest.rows));
    put(s(ingest.ingest_ns));
    put(ratio(ingest.rows as f64, ingest.ingest_ns as f64 / 1e9));
    put(s(ingest.lower_ns));
    put(Some(t.generate_s));
    // driver, tracing
    // Replay spans are recorded after the timed region has ended.
    let in_region_ns = t.tracer.top_level_ns("replay.");
    let loop_self_s = (t.traced.wall_s - in_region_ns as f64 / 1e9).max(0.0);
    put(n(ledger.events));
    put(Some(loop_self_s));
    put(ratio(loop_self_s, t.traced.wall_s));
    put(ratio(
        (l.close_rebuild_ns + l.reference_ns) as f64,
        busy_ns(Kind::TickClose) as f64,
    ));
    put(ratio(t.traced.wall_s, t.plain.wall_s));
    put(n(t.tracer.spans().len() as u64));
    assert!(names.next().is_none(), "a PER_LAYER row without a value");
    out
}

/// The traced measurement, on the run's first day: the day untraced,
/// the same day traced, and the layer replay on what that captured.
fn traced<W: Workload>(opts: &Opts) -> (Json, Tracer) {
    let t0 = Instant::now();
    let inputs = W::setup(day_seed(opts.seed, 0), opts.smoke);
    let generate_s = t0.elapsed().as_secs_f64();
    // The first full-size day pays for fresh pages; discard it so the
    // untraced and the traced day compare like with like.
    inputs.rep(None);
    let plain = inputs.rep(None);

    let tracer = RefCell::new(Tracer::new());
    let mut run = TraceRun {
        tracer: &tracer,
        layers: LayerStats::default(),
        service: None,
    };
    let traced = inputs.rep(Some(&mut run));
    let (layers, service) = (run.layers, run.service);
    let tracer = tracer.into_inner();

    let cells = inputs
        .sizes()
        .get("cells")
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    let values = layer_values(&Traced {
        plain: &plain,
        traced: &traced,
        layers: &layers,
        service: service.as_ref(),
        tracer: &tracer,
        cells,
        generate_s,
    });
    let layer_fields: Vec<(String, Json)> = values
        .iter()
        .zip(&PER_LAYER)
        .map(|(&(name, value), &(_, unit, _))| (name.to_string(), metric(value, unit)))
        .collect();

    let mut checks = rep_checks(&[&plain, &traced], plain.digest == traced.digest);
    checks.push(("traced_counts_match", traced.counts == plain.counts));
    checks.push(("replay_calls_succeed", layers.errors == 0));
    checks.push((
        "workers_agree",
        service.as_ref().is_none_or(|s| s.workers_agree),
    ));
    let e2e = vec![
        (
            "ops_attempted".to_string(),
            Json::from(traced.ledger.events),
        ),
        ("ops_failed".to_string(), Json::from(traced.ledger.failed)),
    ];
    let doc = obj([
        ("meta", meta::<W>(opts, inputs.sizes(), 1)),
        ("e2e", Json::Obj(e2e)),
        ("layers", Json::Obj(layer_fields)),
        ("checks", checks_json(traced.digest, checks)),
    ]);
    (doc, tracer)
}

/// One workload in this process: a small discarded warm-up session,
/// then the measurement. A traced measurement also hands back its spans.
fn measure<W: Workload>(opts: &Opts) -> (Json, Option<Tracer>) {
    W::setup(opts.seed, true).rep(None);
    if opts.trace {
        let (doc, tracer) = traced::<W>(opts);
        (doc, Some(tracer))
    } else {
        (untraced::<W>(opts), None)
    }
}

fn measure_named(opts: &Opts) -> (Json, Option<Tracer>) {
    match opts.workload.as_deref() {
        Some(ShardedDay::NAME) => measure::<ShardedDay>(opts),
        Some(FlatP95Day::NAME) => measure::<FlatP95Day>(opts),
        Some(ServiceDay::NAME) => measure::<ServiceDay>(opts),
        Some(TraceReplayWeek::NAME) => measure::<TraceReplayWeek>(opts),
        other => unreachable!("parse_args admits only the four workloads, not {other:?}"),
    }
}

/// Measures the named workload and, after a traced run, writes the
/// spans out and records where in `meta`.
fn measure_and_write(opts: &Opts) -> Result<Json, String> {
    let (mut doc, tracer) = measure_named(opts);
    let (Some(tracer), Some(workload)) = (tracer, opts.workload.as_deref()) else {
        return Ok(doc);
    };
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/{workload}.spans.jsonl");
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    tracer
        .write_jsonl(file)
        .map_err(|e| format!("{path}: {e}"))?;
    if let Json::Obj(fields) = &mut doc {
        if let Some((_, Json::Obj(meta))) = fields.iter_mut().find(|(k, _)| k == "meta") {
            meta.push(("spans_file".into(), Json::from(path)));
        }
    }
    Ok(doc)
}

/// Whether every boolean under `checks` is true.
fn checks_pass(doc: &Json) -> bool {
    doc.get("checks").is_some_and(|checks| {
        checks
            .fields()
            .iter()
            .all(|(_, v)| v.as_bool().unwrap_or(true))
    })
}

/// The driver's result line: `correct`, `attempted`, `failed` and the
/// end-to-end (untraced) or per-layer (traced) metrics.
fn result_line(doc: &Json) -> Json {
    let section = if doc.get("layers") == Some(&Json::Null) {
        "e2e"
    } else {
        "layers"
    };
    let mut all_measured = true;
    let metrics: Vec<(String, Json)> = doc
        .get(section)
        .map_or(&[][..], Json::fields)
        .iter()
        .filter(|(_, v)| v.get("unit").is_some())
        .map(|(name, v)| {
            // A layer that does not run on this workload did no work.
            let value = v.get("value").and_then(Json::as_f64).unwrap_or_else(|| {
                all_measured &= section == "layers";
                0.0
            });
            let unit = v.get("unit").cloned().unwrap_or(Json::Null);
            (
                name.clone(),
                obj([("value", Json::from(value)), ("unit", unit)]),
            )
        })
        .collect();
    let count = |key: &str| {
        doc.get("e2e")
            .and_then(|e| e.get(key))
            .cloned()
            .unwrap_or(Json::Null)
    };
    obj([
        ("correct", Json::from(checks_pass(doc) && all_measured)),
        ("attempted", count("ops_attempted")),
        ("failed", count("ops_failed")),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Runs this executable again as a child — each workload in a fresh
/// process, so `peak_rss_mb` is its own — and parses what it printed.
fn child(verb: &str, workload: &str, opts: &Opts) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .arg(verb)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()]);
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = stdout
        .lines()
        .last()
        .ok_or(format!("{verb} {workload}: no output"))
        .and_then(|line| Json::parse(line).map_err(|e| format!("{verb} {workload}: {e}")))?;
    // A failing child still printed its document: keep it so the
    // parent can show which check failed.
    if output.status.success() || doc.get("checks").is_some() {
        Ok(doc)
    } else {
        Err(format!(
            "{verb} {workload}: {}",
            String::from_utf8_lossy(&output.stderr)
        ))
    }
}

/// `all`: every workload untraced and traced, every metric by name with
/// its unit, and the correctness gate.
fn all(opts: &Opts) -> Result<(Json, bool), String> {
    let mut ok = true;
    let mut per_workload = Vec::new();
    for workload in WORKLOADS {
        let run = child("run", workload, opts)?;
        let trace = child("trace", workload, opts)?;
        let check = |doc: &Json, key: &str| doc.get("checks").and_then(|c| c.get(key)).cloned();
        // The traced child measures the run's first day.
        let first_day = check(&run, "first_day_digest");
        let agree = first_day.is_some() && first_day == check(&trace, "digest");
        ok &= checks_pass(&run) && checks_pass(&trace) && agree;
        per_workload.push((
            workload.to_string(),
            obj([
                ("meta", run.get("meta").cloned().unwrap_or(Json::Null)),
                ("e2e", run.get("e2e").cloned().unwrap_or(Json::Null)),
                (
                    "simulated",
                    run.get("simulated").cloned().unwrap_or(Json::Null),
                ),
                ("layers", trace.get("layers").cloned().unwrap_or(Json::Null)),
                (
                    "checks",
                    obj([
                        ("run", run.get("checks").cloned().unwrap_or(Json::Null)),
                        ("trace", trace.get("checks").cloned().unwrap_or(Json::Null)),
                        ("untraced_and_traced_digests_agree", Json::from(agree)),
                    ]),
                ),
            ]),
        ));
    }
    let doc = obj([
        ("seed", Json::from(opts.seed)),
        ("smoke", Json::from(opts.smoke)),
        ("ok", Json::from(ok)),
        ("workloads", Json::Obj(per_workload)),
    ]);
    Ok((doc, ok))
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative when `b` is better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `repeat`: `sets` sets of every workload on the same build; every
/// end-to-end metric of every later set against the first.
fn repeat(opts: &Opts) -> Result<(Json, bool), String> {
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for _ in 0..opts.sets {
        let docs: Result<Vec<Json>, String> =
            WORKLOADS.iter().map(|w| child("run", w, opts)).collect();
        sets.push(docs?);
    }
    let value = |doc: &Json, name: &str| {
        doc.get("e2e")
            .and_then(|e| e.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let digest = |doc: &Json| doc.get("checks").and_then(|c| c.get("digest")).cloned();
    let mut ok = true;
    let mut rows = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (set, docs) in sets.iter().enumerate().skip(1) {
            let (first, later) = (&sets[0][w], &docs[w]);
            let same_digest = digest(first).is_some() && digest(first) == digest(later);
            ok &= same_digest && checks_pass(first) && checks_pass(later);
            for def in &END_TO_END {
                let (Some(a), Some(b)) = (value(first, def.name), value(later, def.name)) else {
                    ok = false;
                    continue;
                };
                // Either direction counts: the sets are the same code.
                let diff = worsening(a, b, def.better).abs();
                let within = if SIMULATED.contains(&def.name) {
                    a == b
                } else {
                    diff <= def.bound
                };
                ok &= within;
                rows.push(obj([
                    ("workload", Json::from(*workload)),
                    ("metric", Json::from(def.name)),
                    ("set", Json::from(set)),
                    ("first", Json::from(a)),
                    ("later", Json::from(b)),
                    ("relative_difference", Json::from(diff)),
                    ("bound", Json::from(def.bound)),
                    ("within_bound", Json::from(within)),
                ]));
            }
            rows.push(obj([
                ("workload", Json::from(*workload)),
                ("metric", Json::from("report_digest")),
                ("set", Json::from(set)),
                ("within_bound", Json::from(same_digest)),
            ]));
        }
    }
    let doc = obj([
        ("sets", Json::from(opts.sets)),
        ("seed", Json::from(opts.seed)),
        ("ok", Json::from(ok)),
        ("comparisons", Json::Arr(rows)),
    ]);
    Ok((doc, ok))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("cavm-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.verb {
        Verb::Result => measure_and_write(&opts).map(|doc| {
            let line = result_line(&doc);
            let ok = line.get("correct") == Some(&Json::Bool(true));
            (line, ok)
        }),
        Verb::Run | Verb::Trace => measure_and_write(&opts).map(|doc| {
            let ok = checks_pass(&doc);
            (doc, ok)
        }),
        Verb::All => all(&opts),
        Verb::Repeat => repeat(&opts),
    };
    match outcome {
        Ok((doc, ok)) => {
            println!("{doc}");
            if ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("cavm-benchmark: a correctness check failed");
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("cavm-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_form_parses() {
        let opts = parse_args(&args(
            "--workload service-day --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(opts.verb, Verb::Result);
        assert_eq!(opts.workload.as_deref(), Some("service-day"));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (9, 3.0, true));
        assert!(!opts.smoke);
    }

    #[test]
    fn verbs_fix_the_trace_mode_and_bad_input_is_refused() {
        assert!(
            parse_args(&args("trace --workload sharded-day"))
                .unwrap()
                .trace
        );
        assert!(
            !parse_args(&args("run --workload sharded-day --trace 1"))
                .unwrap()
                .trace
        );
        assert_eq!(parse_args(&args("all --smoke")).unwrap().verb, Verb::All);
        for bad in [
            "",
            "--workload nope",
            "run",
            "repeat --smoke",
            "repeat --sets 1",
            "--workload sharded-day --trace 2",
            "--workload sharded-day --seconds 0",
            "--workload sharded-day --speed 11",
            "--workload sharded-day --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn median_and_worsening() {
        assert_eq!(median([3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median([4.0, 1.0, f64::NAN, 2.0, 3.0]), Some(2.5));
        assert_eq!(median([]), None);
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.1).abs() < 1e-12);
    }

    /// A smoke-sized run of every workload yields the full schema: all
    /// ten end-to-end metrics untraced, every per-layer metric traced,
    /// and a result line with exactly the four contract keys.
    #[test]
    fn smoke_documents_carry_every_metric() {
        for workload in WORKLOADS {
            let mut opts = parse_args(&args(&format!(
                "run --workload {workload} --seconds 0.05 --smoke"
            )))
            .unwrap();
            let (doc, _) = measure_named(&opts);
            assert!(checks_pass(&doc), "{workload}: {doc}");
            assert_eq!(
                doc.get("meta").and_then(|m| m.get("smoke")),
                Some(&Json::Bool(true))
            );
            let line = result_line(&doc);
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {doc}"
            );
            let metrics = line.get("metrics").unwrap().fields();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, END_TO_END.map(|d| d.name), "{workload}");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(v > 0.0, "{workload}: {name} = {v}");
            }

            opts.trace = true;
            let (doc, spans) = measure_named(&opts);
            assert!(spans.is_some_and(|t| !t.spans().is_empty()));
            assert!(checks_pass(&doc), "{workload}: {doc}");
            let line = result_line(&doc);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let names: Vec<&str> = line
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(names, PER_LAYER.map(|(n, _, _)| n), "{workload}");
        }
    }
}
