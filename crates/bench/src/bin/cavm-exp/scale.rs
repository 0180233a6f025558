//! Scale: placement cells vs the O(n²) correlation wall.
//!
//! **A synthetic datacenter day at 100k VMs**: Poisson arrivals (~100k
//! over the first 80% of a 24h day at 30s samples), exponential leases
//! (mean 1.5h), diurnal demand traces, driven through a
//! [`ShardedController`] (256 cells over 1536 8-core servers, hourly
//! re-pack periods). Roughly one million events (arrivals, departures
//! and per-cell ticks) — a fleet size the flat controller's dense
//! matrix cannot touch (100k² pairs ≈ 40 GB at 8 B/pair; the cells
//! hold ~0.15 GB total).
//!
//! The run records the realized routing's pair work (Σ over cells of
//! mᵢ(mᵢ−1)/2, mᵢ the ids ever routed to cell i) beside the dense
//! matrix's n(n−1)/2 and *asserts* the cells do at most a tenth of the
//! dense pair work — exact counts, not timings, so the claim holds on
//! any host. The day's wall time is `benchmark/`'s business: its
//! `sharded-day` is this day at 1/16 scale.

use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_sim::{ControllerConfig, NullSink, Policy, ShardedController};
use cavm_trace::{Reference, SimRng, TimeSeries};

/// VMs arriving over the day.
const VMS: usize = 100_000;
/// Placement cells sharding the day's fleet.
const CELLS: usize = 256;
/// 8-core servers in the day's fleet.
const SERVERS: usize = 1536;
/// Day horizon, hours.
const HOURS: usize = 24;
const SAMPLE_DT_S: f64 = 30.0;
const SAMPLES_PER_HOUR: usize = 120;
const PERIOD_SAMPLES: usize = SAMPLES_PER_HOUR; // hourly re-pack, as in the paper
const MEAN_LEASE_SAMPLES: f64 = 1.5 * SAMPLES_PER_HOUR as f64;
/// Arrivals land in the first 80% of the horizon so late VMs still live.
const ARRIVAL_WINDOW: f64 = 0.8;
/// RNG seed for arrivals, leases and diurnal traces.
const SEED: u64 = 2013;

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
    events: usize,
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

/// The 100k-VM synthetic day through the sharded controller.
fn run_day() -> DayResult {
    let total = HOURS * SAMPLES_PER_HOUR;
    let day_samples = 24 * SAMPLES_PER_HOUR;
    let mut rng = SimRng::new(SEED);
    let plans = draw_plans(&mut rng, VMS, total);

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
            server_fleet: ServerFleet::uniform(SERVERS, 8.0, LinearPowerModel::xeon_e5410())
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
            max_deferred: VMS,
        },
        CELLS,
    )
    .expect("valid sharded config");

    let mut sink = NullSink;
    let mut events = 0usize;
    let mut peak_live = 0usize;
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
        events += CELLS; // one matrix tick per cell
        peak_live = peak_live.max(dc.live_vms());
        if (k + 1) % (total / 10).max(1) == 0 {
            eprintln!(
                "  sample {:>6}/{}: live {:>7}, {:>9} events",
                k + 1,
                total,
                dc.live_vms(),
                events,
            );
        }
    }
    dc.finish(&mut sink).expect("finish");
    let report = dc.report();

    // Pair work of the realized routing vs the dense matrix the flat
    // controller would have kept over every id ever seen.
    let mut per_cell = vec![0usize; CELLS];
    for id in 0..VMS {
        if let Some(c) = dc.cell_of_vm(id) {
            per_cell[c] += 1;
        }
    }
    let pair_work: usize = per_cell.iter().map(|&m| m * m.saturating_sub(1) / 2).sum();
    let routed: usize = per_cell.iter().sum();
    let dense_pair_work = routed * routed.saturating_sub(1) / 2;
    let cell_rows = (0..CELLS)
        .map(|c| dc.cell_controller(c).map_or(0, |ctl| ctl.period_rows()))
        .collect();

    DayResult {
        events,
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

pub fn run() -> String {
    eprintln!(
        "synthetic day: {VMS} VMs, {CELLS} cells, {SERVERS} servers, {HOURS}h @ {SAMPLE_DT_S}s samples ..."
    );
    let day = run_day();
    eprintln!(
        "  done: {} events, peak {} live VMs on {} servers, {} violations, pair work {} vs {} dense",
        day.events,
        day.peak_live,
        day.peak_servers,
        day.violation_instances,
        day.pair_work,
        day.dense_pair_work,
    );
    // The sharding claim, on the day's own routing: the cells keep at
    // most a tenth of the dense pair state.
    assert!(
        day.pair_work * 10 <= day.dense_pair_work,
        "{CELLS} cells must do at most 1/10 of the dense pair work ({} vs {})",
        day.pair_work,
        day.dense_pair_work,
    );
    // What the period tables are sized by (rows) against what they
    // used to be sized by (ids), per cell.
    eprintln!(
        "  per cell at the end of the day (min / median / max over {CELLS} cells): period rows {}, ids seen {}; {} rows for {} ids in all",
        spread(&day.cell_rows),
        spread(&day.cell_ids),
        day.cell_rows.iter().sum::<usize>(),
        day.cell_ids.iter().sum::<usize>(),
    );

    let samples = HOURS * SAMPLES_PER_HOUR;
    format!(
        "{{\n    \"day\": {{\"vms\": {VMS}, \"cells\": {CELLS}, \"servers\": {SERVERS}, \"samples\": {samples}, \"events\": {}, \"peak_live_vms\": {}, \"peak_servers_used\": {}, \"violation_instances\": {}, \"online_admissions\": {}, \"deferred_peak\": {}, \"pair_work\": {}, \"dense_pair_work\": {}}}\n  }}",
        day.events,
        day.peak_live,
        day.peak_servers,
        day.violation_instances,
        day.online_admissions,
        day.deferred_peak,
        day.pair_work,
        day.dense_pair_work,
    )
}
