//! Allocation-policy throughput as the fleet grows: n ∈ {64, 256,
//! 1024, 4096} VMs, on the uniform 8-core fleet and on a 3-class
//! heterogeneous fleet (4/8/16-core).
//!
//! The proposed policy's ALLOCATE scan is the interesting series: with
//! the incremental `ServerCostAggregate` each candidate probe is
//! O(|members|) and the capacity-sorted unallocated list cuts every
//! pass off at the first fitting VM. The heterogeneous variant checks
//! that per-class bin capacities keep the same scan structure (bins
//! just carry their own `cores`).

use cavm_core::alloc::{AllocationPolicy, BfdPolicy, FfdPolicy, ProposedPolicy, VmDescriptor};
use cavm_core::corr::CostMatrix;
use cavm_core::fleet::{ServerFleet, UNBOUNDED};
use cavm_power::LinearPowerModel;
use cavm_trace::{Reference, SimRng, TimeSeries};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn instance(n: usize, seed: u64) -> (Vec<VmDescriptor>, CostMatrix) {
    let mut rng = SimRng::new(seed);
    let vms: Vec<VmDescriptor> = (0..n)
        .map(|i| VmDescriptor::new(i, rng.range_f64(0.3, 3.5)))
        .collect();
    // One 64-sample window, drawn sample by sample across the fleet.
    let ticks: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..n).map(|_| rng.range_f64(0.0, 3.5)).collect())
        .collect();
    let traces: Vec<TimeSeries> = (0..n)
        .map(|v| TimeSeries::new(1.0, ticks.iter().map(|tick| tick[v]).collect()))
        .collect::<Result<_, _>>()
        .expect("finite samples");
    let refs: Vec<&TimeSeries> = traces.iter().collect();
    let matrix = CostMatrix::from_traces(&refs, Reference::Peak).expect("uniform traces");
    (vms, matrix)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_scaling");
    let uniform =
        ServerFleet::uniform(UNBOUNDED, 8.0, LinearPowerModel::xeon_e5410()).expect("valid fleet");
    for n in [64usize, 256, 1024, 4096] {
        let (vms, matrix) = instance(n, n as u64);
        let hetero = ServerFleet::mixed_4_8_16(n, n, n).expect("valid counts");
        for (label, fleet) in [("uniform", &uniform), ("hetero3", &hetero)] {
            group.bench_with_input(
                BenchmarkId::new(format!("proposed/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        black_box(
                            ProposedPolicy::default()
                                .place(black_box(&vms), &matrix, fleet)
                                .expect("feasible instance"),
                        )
                    })
                },
            );
            group.bench_with_input(BenchmarkId::new(format!("bfd/{label}"), n), &n, |b, _| {
                b.iter(|| {
                    black_box(
                        BfdPolicy
                            .place(black_box(&vms), &matrix, fleet)
                            .expect("feasible"),
                    )
                })
            });
            group.bench_with_input(BenchmarkId::new(format!("ffd/{label}"), n), &n, |b, _| {
                b.iter(|| {
                    black_box(
                        FfdPolicy
                            .place(black_box(&vms), &matrix, fleet)
                            .expect("feasible"),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
