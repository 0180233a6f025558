//! Regression pins for the fleet refactor: a degenerate one-class
//! [`ServerFleet`] must reproduce the placements of the pre-fleet
//! scalar-capacity API **exactly**.
//!
//! The expected membership lists below were captured by running the
//! pre-refactor code (commit `3555b16`) on the same deterministic
//! instances. All five policies are pinned on three instance sizes,
//! through both the [`AllocationPolicy::place_uniform`] compatibility
//! path and an explicit bounded one-class fleet.

use cavm_core::alloc::{
    AllocationPolicy, BfdPolicy, FfdPolicy, PcpPolicy, ProposedPolicy, SuperVmPolicy, VmDescriptor,
};
use cavm_core::corr::CostMatrix;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_trace::{Reference, SimRng, TimeSeries};

fn instance(n: usize, seed: u64) -> (Vec<VmDescriptor>, CostMatrix) {
    let mut rng = SimRng::new(seed);
    let vms: Vec<VmDescriptor> = (0..n)
        .map(|i| {
            let d = rng.range_f64(0.3, 3.5);
            VmDescriptor::new(i, d).with_off_peak(d * 0.85)
        })
        .collect();
    let ticks: Vec<Vec<f64>> = (0..40)
        .map(|_| (0..n).map(|_| rng.range_f64(0.0, 3.5)).collect())
        .collect();
    let traces: Vec<TimeSeries> = (0..n)
        .map(|v| TimeSeries::new(1.0, ticks.iter().map(|tick| tick[v]).collect()).unwrap())
        .collect();
    let refs: Vec<&TimeSeries> = traces.iter().collect();
    let matrix = CostMatrix::from_traces(&refs, Reference::Peak).unwrap();
    (vms, matrix)
}

fn policies(n: usize) -> Vec<(&'static str, Box<dyn AllocationPolicy>)> {
    vec![
        ("proposed", Box::new(ProposedPolicy::default())),
        ("bfd", Box::new(BfdPolicy)),
        ("ffd", Box::new(FfdPolicy)),
        (
            "pcp",
            Box::new(PcpPolicy::from_labels((0..n).map(|i| i % 3).collect()).unwrap()),
        ),
        ("supervm", Box::new(SuperVmPolicy::default())),
    ]
}

/// Pre-refactor membership lists per (n, seed, capacity, policy).
fn expected(n: usize, policy: &str) -> Vec<Vec<usize>> {
    match (n, policy) {
        (12, "proposed") => vec![vec![2, 8], vec![5, 9, 0, 7, 6], vec![3, 1, 10], vec![4, 11]],
        (12, "bfd") | (12, "ffd") => {
            vec![vec![4, 3, 9], vec![5, 2, 8], vec![11, 0, 10, 7], vec![1, 6]]
        }
        (12, "pcp") => vec![vec![2, 10, 1, 9, 7], vec![5, 11, 0, 6], vec![4, 3, 8]],
        (12, "supervm") => vec![vec![4, 3, 9, 6], vec![5, 2, 8], vec![11, 0, 10, 7], vec![1]],
        (25, "proposed") => vec![
            vec![12, 17, 9, 21, 2, 13, 22, 16],
            vec![23, 18, 10, 1, 4, 5, 14, 20],
            vec![24, 11, 3, 15],
            vec![19, 0, 6],
            vec![7, 8],
        ],
        (25, "bfd") | (25, "ffd") => vec![
            vec![7, 19, 12],
            vec![24, 23, 15],
            vec![8, 21, 6, 3, 14, 16],
            vec![11, 5, 22, 2, 9, 0, 18, 20, 17, 13],
            vec![1, 4, 10],
        ],
        (25, "pcp") => vec![
            vec![21, 11, 0, 18, 20, 1, 4, 13, 10],
            vec![15, 3, 14, 5, 22, 2, 9, 16],
            vec![19, 12, 8, 6],
            vec![7, 24, 23, 17],
        ],
        (25, "supervm") => vec![
            vec![24, 11, 7, 8, 16],
            vec![19, 23, 12],
            vec![15, 20, 21, 17, 6, 3, 5],
            vec![14, 22, 9, 10, 2, 0, 18, 1, 4, 13],
        ],
        (40, "proposed") => vec![
            vec![32, 11, 19],
            vec![4, 33, 24, 35, 38],
            vec![15, 1, 18, 2],
            vec![26, 22, 28, 0, 23],
            vec![8, 16, 39],
            vec![20, 6, 9, 3],
            vec![34, 25, 36, 30, 21],
            vec![29, 10, 17],
            vec![12, 14, 37],
            vec![7, 27, 31, 13],
            vec![5],
        ],
        (40, "bfd") => vec![
            vec![7, 12, 1],
            vec![29, 34, 11],
            vec![20, 8, 24],
            vec![26, 15, 39],
            vec![4, 32, 33],
            vec![14, 16, 10],
            vec![5, 9, 18, 27],
            vec![25, 17, 28, 37],
            vec![19, 31, 13, 6, 2, 30],
            vec![21, 36, 22, 0, 3, 35, 23, 38],
        ],
        (40, "ffd") => vec![
            vec![7, 12, 1],
            vec![29, 34, 37],
            vec![20, 8, 24],
            vec![26, 15, 39],
            vec![4, 32, 33],
            vec![14, 16, 10],
            vec![5, 9, 18, 27],
            vec![25, 17, 28, 11],
            vec![19, 31, 13, 6, 2, 30],
            vec![21, 36, 22, 0, 3, 35, 23, 38],
        ],
        (40, "pcp") => vec![
            vec![17, 31, 21, 0, 35, 27, 23, 30],
            vec![5, 19, 6, 2, 36, 3],
            vec![14, 28, 24, 13, 1],
            vec![32, 25, 39, 37, 38],
            vec![26, 10, 18, 22],
            vec![8, 16, 9],
            vec![20, 15, 4],
            vec![29, 34, 33],
            vec![7, 12, 11],
        ],
        (40, "supervm") => vec![
            vec![7, 33, 29],
            vec![8, 18, 12, 1, 30],
            vec![39, 31, 34, 37],
            vec![20, 26, 24],
            vec![15, 4, 25],
            vec![32, 10, 0, 5],
            vec![14, 16, 9],
            vec![17, 28, 19, 11, 38],
            vec![13, 6, 2, 21, 36, 22, 3],
            vec![35, 27, 23],
        ],
        _ => panic!("no golden for ({n}, {policy})"),
    }
}

#[test]
fn one_class_fleet_reproduces_pre_refactor_placements() {
    for (n, seed, cap) in [(12usize, 7u64, 8.0f64), (25, 11, 10.0), (40, 2013, 8.0)] {
        let (vms, matrix) = instance(n, seed);
        for (name, policy) in policies(n) {
            let want = expected(n, name);
            // The scalar-capacity compatibility path...
            let via_uniform = policy.place_uniform(&vms, &matrix, cap).unwrap();
            assert_eq!(
                via_uniform.servers(),
                want.as_slice(),
                "place_uniform diverged for {name} at n={n}"
            );
            // ...and an explicit bounded one-class fleet.
            let fleet = ServerFleet::uniform(n, cap, LinearPowerModel::xeon_e5410()).unwrap();
            let via_fleet = policy.place(&vms, &matrix, &fleet).unwrap();
            assert_eq!(
                via_fleet.servers(),
                want.as_slice(),
                "bounded one-class fleet diverged for {name} at n={n}"
            );
            // Every server of a one-class placement carries class 0.
            assert!(via_fleet.classes().iter().all(|&c| c == 0));
        }
    }
}
