//! The period close's window replay at the shapes small sessions
//! produce, on one thread and on every core (group `close_small`): the
//! numbers behind the fan-out threshold `SERIAL_WORK_MAX` and the P²
//! weight `P2_WORK_WEIGHT` in `corr/matrix.rs`. `96x720_p95` is
//! `flat-p95-day`'s full-size close, with every third row idle as the
//! controller's free rows are.

use cavm_core::corr::CostMatrix;
use cavm_trace::{Reference, SimRng, TimeSeries};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// One period close's replay at `rows × samples`: the keyed `fill` as
/// the controller calls it (its own fan-out rule decides), and the
/// same kernel forced onto one thread and onto every core through the
/// explicit-thread form, so the spawn + join cost reads directly.
fn close_small(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut group = c.benchmark_group("close_small");
    let p95 = Reference::Percentile(95.0);
    for (rows, samples, reference, tag, free_rows) in [
        (16usize, 720usize, Reference::Peak, "peak", false),
        (60, 120, Reference::Peak, "peak", false),
        (120, 12, Reference::Peak, "peak", false),
        (48, 720, p95, "p95", false),
        (96, 720, p95, "p95", true),
    ] {
        let mut rng = SimRng::new((rows * samples) as u64);
        let traces: Vec<TimeSeries> = (0..rows)
            .map(|row| {
                let values = if free_rows && row % 3 == 2 {
                    vec![0.0; samples]
                } else {
                    (0..samples).map(|_| rng.f64() * 4.0).collect()
                };
                TimeSeries::new(5.0, values).expect("finite samples")
            })
            .collect();
        let refs: Vec<&TimeSeries> = traces.iter().collect();
        let windows: Vec<&[f64]> = traces.iter().map(TimeSeries::values).collect();
        let occupants: Vec<Option<usize>> = (0..rows).map(Some).collect();
        let shape = format!("{rows}x{samples}_{tag}");

        let mut keyed = CostMatrix::keyed(rows, reference).expect("valid size");
        group.bench_function(&format!("fill/{shape}"), |b| {
            b.iter(|| {
                keyed
                    .fill(black_box(&occupants), rows, black_box(&windows))
                    .expect("matching shape");
                black_box(keyed.samples())
            })
        });
        for (name, threads) in [("serial", 1), ("all_cores", cores)] {
            let mut plain = CostMatrix::new(rows, reference).expect("valid size");
            group.bench_function(&format!("{name}/{shape}"), |b| {
                b.iter(|| {
                    plain.reset();
                    plain
                        .par_push_columns_threads(black_box(&refs), 0, samples, threads)
                        .expect("matching shape");
                    black_box(plain.samples())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, close_small);
criterion_main!(benches);
