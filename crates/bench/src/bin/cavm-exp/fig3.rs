//! Fig 3 — server cost (Eqn 2) vs achievable v/f slowdown.
//!
//! The paper justifies Eqn (4) empirically: scatter the weighted average
//! pairwise cost of co-located VM sets (X) against the *true* peak
//! aggregation ratio `Σ û_j / û(Σ VMs)` (Y) and observe that Y is
//! lower-bounded, approximately linearly, by X (all points at or above
//! the Y=X line). This section regenerates that scatter from synthetic
//! datacenter traces and random co-location sets, prints the series and
//! records the bound's summary: points below Y = X, the worst margin
//! and the least-squares line.

use cavm_bench::{setup2_fleet, SETUP2_SEED};
use cavm_core::corr::CostMatrix;
use cavm_core::servercost::server_cost;
use cavm_trace::{Reference, SimRng, TimeSeries};

/// Random co-location sets drawn.
const SETS: usize = 250;
/// How far below Y = X a point may sit before it counts as below.
const TOLERANCE: f64 = 0.02;

pub fn run() -> String {
    let fleet = setup2_fleet(SETUP2_SEED);
    let traces = fleet.traces();
    let matrix =
        CostMatrix::from_traces(&traces, Reference::Peak).expect("fleet traces are uniform");
    let mut rng = SimRng::new(42);

    println!("# Fig 3 — Cost_server (Eqn 2, X) vs true slowdown ratio (Y); Y >= X expected");
    println!("set_size,cost_server,true_ratio");

    let mut points = Vec::new();
    for _ in 0..SETS {
        let size = 2 + rng.below(5); // 2..=6 VMs per server
        let mut ids: Vec<usize> = (0..traces.len()).collect();
        rng.shuffle(&mut ids);
        ids.truncate(size);

        let members: Vec<(usize, f64)> = ids
            .iter()
            .map(|&id| {
                (
                    id,
                    Reference::Peak.of_series(traces[id]).expect("non-empty"),
                )
            })
            .collect();
        let x = server_cost(&members, &matrix);

        let sum_of_peaks: f64 = members.iter().map(|&(_, u)| u).sum();
        let set: Vec<&TimeSeries> = ids.iter().map(|&id| traces[id]).collect();
        let aggregate = TimeSeries::sum_of(&set).expect("uniform sampling");
        let y = sum_of_peaks / aggregate.peak().max(1e-12);

        println!("{},{:.4},{:.4}", size, x, y);
        points.push((x, y));
    }

    let below: usize = points.iter().filter(|&&(x, y)| y < x - TOLERANCE).count();
    let min_margin = points
        .iter()
        .map(|&(x, y)| y - x)
        .fold(f64::INFINITY, f64::min);
    // Least-squares fit of Y on X to expose the (approximately linear)
    // relationship the paper reads off this plot.
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let (sxx, sxy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x * x, b + x * y));
    let slope = (sxy - sx * sy / n) / (sxx - sx * sx / n);
    let intercept = sy / n - slope * sx / n;

    println!();
    println!("# Summary over {} random co-location sets", points.len());
    println!("points below Y = X (beyond tolerance): {below}");
    println!("minimum margin  min(Y - X) = {min_margin:.4}");
    println!("linear fit      Y ≈ {slope:.3}·X + {intercept:+.3}");
    println!("(paper: 'the lower bound of the possible v/f scaling factor has linear");
    println!(" relationship with Cost_server' — dividing by Cost_server in Eqn 4 is safe)");

    format!(
        "{{\"sets\": {SETS}, \"tolerance\": {TOLERANCE}, \"points_below\": {below}, \"min_margin\": {min_margin:.4}, \"slope\": {slope:.4}, \"intercept\": {intercept:.4}}}"
    )
}
