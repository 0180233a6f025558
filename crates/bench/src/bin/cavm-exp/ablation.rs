//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Correlation metric** — drive the proposed allocator with the
//!    paper's cost function vs Pearson correlation mapped into the same
//!    `[1, 2]` range (cost ≈ 2 − (r+1)/2·... strictly: `1.5 − r/2`), on
//!    the same fleet. The cost function measures peak coincidence — what
//!    capacity planning actually needs — so it should win on violations.
//! 2. **Threshold schedule** — sweep `TH_init` and `α` of the
//!    ALLOCATE phase and report the violation/power trade-off.
//! 3. **Predictor** — last-value (the paper's) vs moving-average vs
//!    EWMA for the per-period peak prediction, scored by mean relative
//!    error and under-prediction rate on the Setup-2 fleet.

use cavm_bench::{run_setup2, setup2_fleet, SETUP2_SEED};
use cavm_core::alloc::proposed::ProposedConfig;
use cavm_core::alloc::{AllocationPolicy, ProposedPolicy, VmDescriptor};
use cavm_core::corr::{pearson_of_traces, CostMatrix};
use cavm_core::dvfs::DvfsMode;
use cavm_core::predict::{
    EwmaPredictor, LastValuePredictor, MovingAveragePredictor, PredictionScore, Predictor,
};
use cavm_sim::Policy;
use cavm_trace::{Reference, TimeSeries};

pub fn run() {
    metric_ablation();
    threshold_ablation();
    predictor_ablation();
}

/// Places one period's worth of VMs with both metrics and compares the
/// resulting *actual* worst-server peak (lower = better placement).
fn metric_ablation() {
    println!("# Ablation 1 — Eqn 1 cost metric vs Pearson correlation as the pair score");
    let fleet = setup2_fleet(SETUP2_SEED);
    let traces = fleet.traces();
    let n = traces.len();

    let cost_matrix = CostMatrix::from_traces(&traces, Reference::Peak).expect("uniform traces");
    // Pearson mapped into [1, 2]: r = +1 → 1.0 (correlated, avoid),
    // r = −1 → 2.0 (anti-correlated, prefer).
    let mut pearson_costs = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let r = pearson_of_traces(traces[i], traces[j])
                .expect("uniform traces")
                .unwrap_or(0.0);
            pearson_costs.push(1.5 - r / 2.0);
        }
    }
    let pearson_matrix =
        CostMatrix::from_costs(n, pearson_costs).expect("triangle length is correct");

    let vms = VmDescriptor::from_traces(&traces, Reference::Peak).expect("non-empty traces");
    let policy = ProposedPolicy::default();
    println!(
        "{:<18} {:>10} {:>22} {:>18}",
        "pair score", "servers", "worst actual peak", "mean actual peak"
    );
    for (label, matrix) in [("Eqn 1 cost", &cost_matrix), ("Pearson", &pearson_matrix)] {
        let placement = policy
            .place_uniform(&vms, matrix, 8.0)
            .expect("instance is feasible");
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        for members in placement.servers() {
            let set: Vec<&TimeSeries> = members.iter().map(|&id| traces[id]).collect();
            let peak = TimeSeries::sum_of(&set).expect("uniform traces").peak();
            worst = worst.max(peak);
            sum += peak;
        }
        println!(
            "{label:<18} {:>10} {:>22.2} {:>18.2}",
            placement.server_count(),
            worst,
            sum / placement.server_count() as f64
        );
    }
    println!("(placement quality is comparable on full-day traces; Eqn 1's advantage");
    println!(" is operational — O(1) streaming updates with no stored samples, and it");
    println!(" scores exactly the peak coincidence that capacity planning cares about —");
    println!(" see the corr_throughput bench for the cost side of the argument)");
    println!();
}

fn threshold_ablation() {
    println!("# Ablation 2 — ALLOCATE threshold schedule (TH_init, α)");
    let fleet = setup2_fleet(SETUP2_SEED);
    println!(
        "{:<22} {:>18} {:>20}",
        "(TH_init, alpha)", "normalized power", "max violations (%)"
    );
    let baseline = run_setup2(&fleet, Policy::Bfd, DvfsMode::Static);
    for (th, alpha) in [
        (1.8, 0.92),
        (1.9, 0.98),
        (1.5, 0.92),
        (1.2, 0.92),
        (1.0, 0.5),
    ] {
        let config = ProposedConfig {
            th_init: th,
            alpha,
            ..Default::default()
        };
        let report = run_setup2(&fleet, Policy::Proposed(config), DvfsMode::Static);
        println!(
            "({th:.1}, {alpha:.2})           {:>18.3} {:>20.1}",
            report
                .energy
                .normalized_to(&baseline.energy)
                .expect("baseline non-zero"),
            report.max_violation_percent
        );
    }
    println!("(TH_init near 1 disables correlation screening; the schedule is robust)");
    println!();
}

fn predictor_ablation() {
    println!("# Ablation 3 — per-period peak predictors on the Setup-2 fleet");
    let fleet = setup2_fleet(SETUP2_SEED);
    let period = 720; // 1 h of 5 s samples
    let n = fleet.len();

    let mut predictors: Vec<(&str, Box<dyn Predictor>)> = vec![
        ("last-value (paper)", Box::new(LastValuePredictor::new(n))),
        (
            "moving-average(3)",
            Box::new(MovingAveragePredictor::new(n, 3).expect("window >= 1")),
        ),
        (
            "ewma(0.5)",
            Box::new(EwmaPredictor::new(n, 0.5).expect("alpha in range")),
        ),
    ];
    let mut scores: Vec<PredictionScore> = (0..predictors.len())
        .map(|_| PredictionScore::new())
        .collect();

    let periods = fleet.traces()[0].len() / period;
    for p in 0..periods {
        for (v, trace) in fleet.traces().iter().enumerate() {
            let slice = &trace.values()[p * period..(p + 1) * period];
            let actual = Reference::Peak.of(slice).expect("non-empty slice");
            for ((_, predictor), score) in predictors.iter_mut().zip(scores.iter_mut()) {
                if let Some(predicted) = predictor.predict(v).expect("vm id in range") {
                    score.record(predicted, actual);
                }
                predictor.observe(v, actual).expect("vm id in range");
            }
        }
    }

    println!(
        "{:<22} {:>22} {:>24}",
        "predictor", "mean relative error", "under-prediction rate"
    );
    for ((label, _), score) in predictors.iter().zip(&scores) {
        println!(
            "{label:<22} {:>21.1}% {:>23.1}%",
            100.0 * score.mean_relative_error(),
            100.0 * score.under_prediction_rate()
        );
    }
    println!("(under-predictions are the dangerous direction — they become violations)");
}
