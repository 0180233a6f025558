//! The paper's §IV-A computational argument: streaming cost-metric
//! updates vs Pearson (streaming and end-of-interval batch).

use cavm_core::corr::{pearson_of_traces, CostMatrix, CostMetric, PearsonStream};
use cavm_trace::{Reference, SimRng, TimeSeries};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn samples(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SimRng::new(seed);
    (
        (0..n).map(|_| rng.f64() * 4.0).collect(),
        (0..n).map(|_| rng.f64() * 4.0).collect(),
    )
}

fn bench(c: &mut Criterion) {
    let (xs, ys) = samples(4096, 7);

    c.bench_function("cost_metric_stream_4096", |b| {
        b.iter(|| {
            let mut m = CostMetric::new(Reference::Peak).expect("valid reference");
            for (x, y) in xs.iter().zip(&ys) {
                m.push(black_box(*x), black_box(*y));
            }
            black_box(m.cost())
        })
    });

    c.bench_function("pearson_stream_4096", |b| {
        b.iter(|| {
            let mut p = PearsonStream::new();
            for (x, y) in xs.iter().zip(&ys) {
                p.push(black_box(*x), black_box(*y));
            }
            black_box(p.correlation())
        })
    });

    // The formulation the paper criticizes: recompute from stored
    // samples at the end of every interval.
    let a = TimeSeries::new(1.0, xs.clone()).expect("finite samples");
    let bseries = TimeSeries::new(1.0, ys.clone()).expect("finite samples");
    c.bench_function("pearson_batch_4096", |b| {
        b.iter(|| black_box(pearson_of_traces(&a, &bseries).expect("uniform traces")))
    });

    // A 40-VM period close as the controller runs it: one fill of a
    // 100-sample window through every pair.
    let mut rng = SimRng::new(3);
    let values: Vec<Vec<f64>> = (0..40)
        .map(|_| (0..100).map(|_| rng.f64() * 4.0).collect())
        .collect();
    let windows: Vec<&[f64]> = values.iter().map(Vec::as_slice).collect();
    let occupants: Vec<Option<usize>> = (0..40).map(Some).collect();
    let mut matrix = CostMatrix::keyed(40, Reference::Peak).expect("valid size");
    c.bench_function("cost_matrix_fill_40vms", |b| {
        b.iter(|| {
            matrix
                .fill(black_box(&occupants), 40, black_box(&windows))
                .expect("matching shape");
            black_box(matrix.samples())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
