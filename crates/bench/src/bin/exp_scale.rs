//! Scale experiment: placement cells vs the O(n²) correlation wall.
//!
//! Two measurements, spliced into `BENCH_corr.json` as the `"scale"`
//! section:
//!
//! 1. **Tick microbench** — ns per fleet-wide monitoring tick for one
//!    dense `CostMatrix` over n VMs vs a [`CellFleet`] of the same VMs
//!    sharded into cells (default n = 4096, 16 cells). At the default
//!    full size the run *asserts* the sharded tick is ≥ 10× faster —
//!    the PR's headline claim, kept honest on every regeneration.
//! 2. **A synthetic datacenter day at 100k VMs** — Poisson arrivals
//!    (~100k over the first 80% of a 24h day at 30s samples),
//!    exponential leases (mean 1.5h), diurnal demand traces, driven
//!    through a [`ShardedController`] (default 256 cells over 1536
//!    8-core servers, hourly re-pack periods). Roughly one million
//!    events (arrivals + departures + per-cell ticks) — a fleet size
//!    the flat controller's dense matrix cannot touch (100k² pairs
//!    ≈ 40 GB at 8 B/pair; the cells hold ~0.15 GB total).
//!
//! Knobs (all env, for CI-sized smokes):
//! `CAVM_SCALE_TICK_N`, `CAVM_SCALE_TICK_CELLS`, `CAVM_SCALE_VMS`,
//! `CAVM_SCALE_CELLS`, `CAVM_SCALE_SERVERS`, `CAVM_SCALE_HOURS`,
//! `CAVM_SCALE_SEED`.
//!
//! ```text
//! cargo run --release -p cavm-bench --bin exp_scale
//! ```

use cavm_bench::env;
use cavm_core::cells::CellFleet;
use cavm_core::corr::CostMatrix;
use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_sim::{ControllerConfig, NullSink, Policy, ShardedController};
use cavm_trace::{Reference, SimRng, TimeSeries};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const SAMPLE_DT_S: f64 = 30.0;
const SAMPLES_PER_HOUR: usize = 120;
const PERIOD_SAMPLES: usize = SAMPLES_PER_HOUR; // hourly re-pack, as in the paper
const MEAN_LEASE_SAMPLES: f64 = 1.5 * SAMPLES_PER_HOUR as f64;
/// Arrivals land in the first 80% of the horizon so late VMs still live.
const ARRIVAL_WINDOW: f64 = 0.8;

/// Median ns of `reps` timed invocations of `f` (after one warm-up).
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

struct TickBench {
    n: usize,
    cells: usize,
    dense_ns: f64,
    sharded_ns: f64,
    speedup: f64,
    pair_work: usize,
    dense_pair_work: usize,
}

/// Part 1: the per-tick cost of one dense matrix vs the same VMs
/// sharded into cells.
fn tick_bench(n: usize, cells: usize) -> TickBench {
    let mut rng = SimRng::new(n as u64);
    let utils: Vec<f64> = (0..n).map(|_| rng.f64() * 4.0).collect();
    let reps = (2_000_000 / (n * n / 2).max(1)).clamp(9, 200);

    let mut dense = CostMatrix::new(n, Reference::Peak).expect("valid size");
    let dense_ns = median_ns(reps, || {
        dense.push_sample(black_box(&utils)).expect("width")
    });

    let mut sharded = CellFleet::contiguous(n, cells, Reference::Peak).expect("valid shape");
    // The sharded tick is cells× cheaper; scale reps so both sides get
    // comparable total time under the median.
    let sharded_ns = median_ns(reps * cells.min(32), || {
        sharded.push_sample(black_box(&utils)).expect("width")
    });

    TickBench {
        n,
        cells,
        dense_ns,
        sharded_ns,
        speedup: dense_ns / sharded_ns,
        pair_work: sharded.pair_work(),
        dense_pair_work: sharded.dense_pair_work(),
    }
}

/// One VM's lifecycle in the synthetic day.
struct VmPlan {
    arrival: usize,
    /// Departure sample, when the lease ends inside the horizon.
    departure: Option<usize>,
}

fn draw_plans(rng: &mut SimRng, vms: usize, total: usize) -> Vec<VmPlan> {
    let window = (total as f64 * ARRIVAL_WINDOW).max(1.0);
    let mean_gap = window / vms as f64;
    let rate = 1.0 / mean_gap;
    let mut t = 0.0f64;
    (0..vms)
        .map(|_| {
            t += rng.exponential(rate).expect("positive rate");
            let arrival = (t as usize).min(total - 1);
            let life = 1
                + (rng
                    .exponential(1.0 / MEAN_LEASE_SAMPLES)
                    .expect("positive rate") as usize);
            let departure = (arrival + life < total).then_some(arrival + life);
            VmPlan { arrival, departure }
        })
        .collect()
}

/// A diurnal demand trace: base + daily sinusoid + noise, in cores.
fn draw_trace(rng: &mut SimRng, arrival: usize, len: usize, day_samples: usize) -> TimeSeries {
    let base = rng.range_f64(0.2, 0.8);
    let amp = rng.range_f64(0.1, 0.5);
    let phase = rng.range_f64(0.0, std::f64::consts::TAU);
    let noise: Vec<f64> = (0..len).map(|_| rng.normal(0.0, 0.05)).collect();
    TimeSeries::from_fn(SAMPLE_DT_S, len, |i| {
        let t = (arrival + i) as f64 / day_samples as f64 * std::f64::consts::TAU;
        (base + amp * (t + phase).sin() + noise[i]).max(0.05)
    })
    .expect("non-empty trace")
}

struct DayResult {
    vms: usize,
    cells: usize,
    servers: usize,
    samples: usize,
    events: usize,
    wall_s: f64,
    mean_tick_ms: f64,
    peak_live: usize,
    peak_servers: usize,
    violation_instances: usize,
    online_admissions: usize,
    deferred_peak: usize,
    pair_work: usize,
    dense_pair_work: usize,
    /// Per cell at the end of the day: ids ever routed there, and rows
    /// of its period tables (`DatacenterController::period_rows`).
    cell_ids: Vec<usize>,
    cell_rows: Vec<usize>,
}

/// Part 2: the 100k-VM synthetic day through the sharded controller.
#[allow(clippy::too_many_lines)]
fn run_day(vms: usize, cells: usize, servers: usize, hours: usize, seed: u64) -> DayResult {
    let total = hours * SAMPLES_PER_HOUR;
    let day_samples = 24 * SAMPLES_PER_HOUR;
    let mut rng = SimRng::new(seed);
    let plans = draw_plans(&mut rng, vms, total);

    // Pre-bucket the schedule so the replay loop is O(total + events).
    let mut arrivals_at: Vec<Vec<usize>> = vec![Vec::new(); total];
    let mut departures_at: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (id, plan) in plans.iter().enumerate() {
        arrivals_at[plan.arrival].push(id);
        if let Some(d) = plan.departure {
            departures_at[d].push(id);
        }
    }

    let mut dc = ShardedController::new(
        ControllerConfig {
            server_fleet: ServerFleet::uniform(servers, 8.0, LinearPowerModel::xeon_e5410())
                .expect("valid fleet"),
            policy: Policy::Proposed(Default::default()),
            repack_trigger: Default::default(),
            qos_guard: None,
            adaptive_slack_max: None,
            overcommit: None,
            dvfs_mode: DvfsMode::Static,
            period_samples: PERIOD_SAMPLES,
            reference: Reference::Peak,
            dynamic_headroom: 0.1,
            default_demand: 0.6,
            sample_dt_s: SAMPLE_DT_S,
            max_deferred: vms.max(1),
        },
        cells,
    )
    .expect("valid sharded config");

    let mut sink = NullSink;
    let mut events = 0usize;
    let mut peak_live = 0usize;
    let started = Instant::now();
    for k in 0..total {
        for &id in &departures_at[k] {
            dc.depart(id).expect("scheduled departure");
            events += 1;
        }
        for &id in &arrivals_at[k] {
            let plan = &plans[id];
            let horizon = plan.departure.unwrap_or(total);
            let trace = draw_trace(&mut rng, k, horizon - k, day_samples);
            let lease = plan.departure.map(|d| d - k);
            dc.arrive(id, trace, lease, &mut sink).expect("admission");
            events += 1;
        }
        dc.tick(&mut sink).expect("tick");
        events += cells; // one matrix tick per cell
        peak_live = peak_live.max(dc.live_vms());
        if (k + 1) % (total / 10).max(1) == 0 {
            eprintln!(
                "  sample {:>6}/{}: live {:>7}, {:>9} events, {:>6.1}s",
                k + 1,
                total,
                dc.live_vms(),
                events,
                started.elapsed().as_secs_f64(),
            );
        }
    }
    dc.finish(&mut sink).expect("finish");
    let wall_s = started.elapsed().as_secs_f64();
    let report = dc.report();

    // Pair work of the realized routing vs the dense matrix the flat
    // controller would have kept over every id ever seen.
    let mut per_cell = vec![0usize; cells.max(1)];
    for id in 0..vms {
        if let Some(c) = dc.cell_of_vm(id) {
            per_cell[c] += 1;
        }
    }
    let pair_work: usize = per_cell.iter().map(|&m| m * m.saturating_sub(1) / 2).sum();
    let routed: usize = per_cell.iter().sum();
    let dense_pair_work = routed * routed.saturating_sub(1) / 2;
    let cell_rows = (0..cells)
        .map(|c| dc.cell_controller(c).map_or(0, |ctl| ctl.period_rows()))
        .collect();

    DayResult {
        vms,
        cells,
        servers,
        samples: total,
        events,
        wall_s,
        mean_tick_ms: wall_s * 1e3 / total as f64,
        peak_live,
        peak_servers: report
            .periods
            .iter()
            .map(|p| p.servers_used)
            .max()
            .unwrap_or(0),
        violation_instances: report.violation_instances,
        online_admissions: report.online_admissions,
        deferred_peak: report.deferred_peak,
        pair_work,
        dense_pair_work,
        cell_ids: per_cell,
        cell_rows,
    }
}

/// `min / median / max` of a per-cell gauge.
fn spread(per_cell: &[usize]) -> String {
    let mut sorted = per_cell.to_vec();
    sorted.sort_unstable();
    match (sorted.first(), sorted.last()) {
        (Some(min), Some(max)) => format!("{min} / {} / {max}", sorted[sorted.len() / 2]),
        _ => "-".into(),
    }
}

fn main() {
    let tick_n = env::parse_or("CAVM_SCALE_TICK_N", 4096);
    let tick_cells = env::parse_or("CAVM_SCALE_TICK_CELLS", 16);
    let vms = env::parse_or("CAVM_SCALE_VMS", 100_000);
    let cells = env::parse_or("CAVM_SCALE_CELLS", 256);
    let servers = env::parse_or("CAVM_SCALE_SERVERS", 1536);
    let hours = env::parse_or("CAVM_SCALE_HOURS", 24);
    let seed = env::parse_or("CAVM_SCALE_SEED", 2013);

    eprintln!("tick microbench: dense n={tick_n} vs {tick_cells} cells ...");
    let bench = tick_bench(tick_n, tick_cells);
    eprintln!(
        "  dense {:>12.0} ns/tick   sharded {:>12.0} ns/tick   speedup {:.1}x (pair work {} -> {})",
        bench.dense_ns, bench.sharded_ns, bench.speedup, bench.dense_pair_work, bench.pair_work,
    );
    // The PR's headline claim, enforced at the full benchmark size
    // (CI smokes run reduced sizes where constant overheads dominate).
    if tick_n >= 4096 && tick_cells >= 16 {
        assert!(
            bench.speedup >= 10.0,
            "cell-sharded tick must be >= 10x faster than the dense matrix at n={} ({}x measured)",
            tick_n,
            bench.speedup,
        );
    }

    eprintln!(
        "synthetic day: {vms} VMs, {cells} cells, {servers} servers, {hours}h @ {SAMPLE_DT_S}s samples ..."
    );
    let day = run_day(vms, cells, servers, hours, seed);
    eprintln!(
        "  done in {:.1}s: {} events, peak {} live VMs on {} servers, {} violations",
        day.wall_s, day.events, day.peak_live, day.peak_servers, day.violation_instances,
    );
    // What the period tables are sized by (rows) against what they
    // used to be sized by (ids), per cell.
    eprintln!(
        "  per cell at the end of the day (min / median / max over {} cells): period rows {}, ids seen {}; {} rows for {} ids in all",
        day.cells,
        spread(&day.cell_rows),
        spread(&day.cell_ids),
        day.cell_rows.iter().sum::<usize>(),
        day.cell_ids.iter().sum::<usize>(),
    );

    let mut section = String::new();
    section.push_str("{\n");
    let _ = writeln!(
        section,
        "    \"tick_bench\": {{\"n\": {}, \"cells\": {}, \"dense_ns_per_tick\": {:.0}, \"sharded_ns_per_tick\": {:.0}, \"speedup\": {:.2}, \"pair_work\": {}, \"dense_pair_work\": {}}},",
        bench.n,
        bench.cells,
        bench.dense_ns,
        bench.sharded_ns,
        bench.speedup,
        bench.pair_work,
        bench.dense_pair_work,
    );
    let _ = writeln!(
        section,
        "    \"day\": {{\"vms\": {}, \"cells\": {}, \"servers\": {}, \"samples\": {}, \"events\": {}, \"wall_s\": {:.1}, \"mean_tick_ms\": {:.2}, \"peak_live_vms\": {}, \"peak_servers_used\": {}, \"violation_instances\": {}, \"online_admissions\": {}, \"deferred_peak\": {}, \"pair_work\": {}, \"dense_pair_work\": {}}}",
        day.vms,
        day.cells,
        day.servers,
        day.samples,
        day.events,
        day.wall_s,
        day.mean_tick_ms,
        day.peak_live,
        day.peak_servers,
        day.violation_instances,
        day.online_admissions,
        day.deferred_peak,
        day.pair_work,
        day.dense_pair_work,
    );
    section.push_str("  }");
    cavm_bench::artifact::splice_section("scale", &section);
}
