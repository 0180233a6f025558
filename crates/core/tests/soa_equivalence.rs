//! Equivalence suite pinning the optimized hot path to the seed
//! semantics:
//!
//! * the struct-of-arrays [`CostMatrix`] must produce **bit-identical**
//!   `cost(i, j)` to the seed per-pair
//!   [`baseline::PairwiseCostMatrix`] (the seed path, kept test-only in
//!   `tests/baseline/`) under both `Reference::Peak` and
//!   `Reference::Percentile(95)`;
//! * the batch window replay (`push_columns`, `fill`) must be
//!   bit-identical to serial ticks, and its lane-blocked P² kernel to
//!   the seed's per-pair estimators at every row length;
//! * the incremental [`ServerCostAggregate`] must match the direct
//!   Eqn (2) evaluation, and the allocator built on it must emit the
//!   **same placements**.

mod baseline;

use baseline::PairwiseCostMatrix;
use cavm_core::alloc::{AllocationPolicy, Placement, ProposedPolicy, VmDescriptor};
use cavm_core::corr::CostMatrix;
use cavm_core::servercost::{server_cost, server_cost_with_candidate, ServerCostAggregate};
use cavm_trace::{Reference, TimeSeries};
use proptest::prelude::*;

/// Random fleet samples: `ticks × n` utilizations in [0, 8) cores.
fn fleet(n: usize, max_ticks: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..8.0, n), 1..max_ticks)
}

fn both_references() -> [Reference; 2] {
    [Reference::Peak, Reference::Percentile(95.0)]
}

fn assert_matrices_bit_identical(
    soa: &CostMatrix,
    seed: &PairwiseCostMatrix,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(soa.len(), seed.len());
    for i in 0..soa.len() {
        for j in 0..soa.len() {
            let a = soa.cost(i, j);
            let b = seed.cost(i, j);
            prop_assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "{}: pair ({}, {}) diverged: soa={:?} seed={:?}",
                context,
                i,
                j,
                a,
                b
            );
        }
    }
    Ok(())
}

proptest! {
    /// The SoA matrix is bit-identical to the seed per-pair path under
    /// both reference utilizations, after every tick.
    #[test]
    fn soa_matrix_matches_seed_bitwise(samples in fleet(6, 40)) {
        for reference in both_references() {
            let mut soa = CostMatrix::new(6, reference).unwrap();
            let mut seed = PairwiseCostMatrix::new(6, reference).unwrap();
            for (tick, s) in samples.iter().enumerate() {
                soa.push_sample(s).unwrap();
                seed.push_sample(s).unwrap();
                assert_matrices_bit_identical(
                    &soa, &seed, &format!("{reference:?} tick {tick}"),
                )?;
            }
            prop_assert_eq!(soa.samples(), seed.samples());
        }
    }

    /// Serial ticks and batch column replay land on the same bits.
    #[test]
    fn tick_paths_are_interchangeable(samples in fleet(5, 30)) {
        for reference in both_references() {
            let mut serial = CostMatrix::new(5, reference).unwrap();
            for s in &samples {
                serial.push_sample(s).unwrap();
            }

            // Batch replay of the same ticks as two trace windows.
            let traces: Vec<TimeSeries> = (0..5)
                .map(|v| {
                    TimeSeries::new(1.0, samples.iter().map(|s| s[v]).collect()).unwrap()
                })
                .collect();
            let refs: Vec<&TimeSeries> = traces.iter().collect();
            let split = samples.len() / 2;
            let mut batch = CostMatrix::new(5, reference).unwrap();
            batch.push_columns(&refs, 0, split).unwrap();
            batch.par_push_columns_threads(&refs, split, samples.len(), 3).unwrap();

            for i in 0..5 {
                for j in 0..5 {
                    prop_assert_eq!(
                        serial.cost(i, j).map(f64::to_bits),
                        batch.cost(i, j).map(f64::to_bits),
                        "batch replay diverged at ({}, {}) under {:?}", i, j, reference);
                }
            }
            prop_assert_eq!(serial.samples(), batch.samples());
        }
    }

    /// The incremental aggregate matches direct Eqn (2) evaluation for
    /// both committed members and hypothetical candidates, at every
    /// prefix of a growing server.
    #[test]
    fn incremental_server_cost_matches_direct(
        samples in fleet(7, 30),
        demands in prop::collection::vec(0.0f64..4.0, 7)
    ) {
        let mut matrix = CostMatrix::new(7, Reference::Peak).unwrap();
        for s in &samples {
            matrix.push_sample(s).unwrap();
        }
        let vms: Vec<VmDescriptor> = demands
            .iter()
            .enumerate()
            .map(|(id, &d)| VmDescriptor::new(id, d))
            .collect();
        let mut agg = ServerCostAggregate::new();
        let mut members: Vec<usize> = Vec::new();
        let mut weighted: Vec<(usize, f64)> = Vec::new();
        for id in 0..7 {
            let candidate = agg.candidate_cost(id, vms[id].demand, &matrix);
            let direct = server_cost_with_candidate(&members, id, &vms, &matrix);
            prop_assert!((candidate - direct).abs() <= 1e-9 * direct.abs().max(1.0),
                "candidate {} vs direct {} with {} members", candidate, direct, members.len());
            agg.push(id, vms[id].demand, &matrix);
            members.push(id);
            weighted.push((id, vms[id].demand));
            let direct_now = server_cost(&weighted, &matrix);
            prop_assert!((agg.cost() - direct_now).abs() <= 1e-9 * direct_now.abs().max(1.0),
                "aggregate {} vs direct {}", agg.cost(), direct_now);
        }
    }

    /// End to end: the allocator over the optimized matrix and the
    /// incremental scan produces exactly the placements the seed
    /// pipeline produced for the same inputs.
    #[test]
    fn allocator_reproduces_seed_placements(
        samples in fleet(12, 50),
        demands in prop::collection::vec(0.1f64..3.5, 12),
        capacity in 4.0f64..12.0
    ) {
        for reference in both_references() {
            let mut soa = CostMatrix::new(12, reference).unwrap();
            let mut seed = PairwiseCostMatrix::new(12, reference).unwrap();
            for s in &samples {
                soa.push_sample(s).unwrap();
                seed.push_sample(s).unwrap();
            }
            let vms: Vec<VmDescriptor> = demands
                .iter()
                .enumerate()
                .map(|(id, &d)| VmDescriptor::new(id, d))
                .collect();

            let optimized =
                ProposedPolicy::default().place_uniform(&vms, &soa, capacity).unwrap();
            let reference_placement =
                seed_reference_place(&vms, &seed, capacity);

            prop_assert_eq!(
                optimized.servers(),
                reference_placement.servers(),
                "placements diverged under {:?}", reference
            );
            optimized.validate(&vms, capacity).unwrap();
        }
    }
}

// ---- P² window replay in lane blocks ≡ the seed's per-pair estimators ------

/// One row's window: random load, idle (a free row) or tie-heavy,
/// three values only, so markers collide and the warm-up sort sees ties.
fn draw_lane_row(rng: &mut cavm_trace::SimRng, len: usize) -> Vec<f64> {
    match rng.below(3) {
        0 => (0..len).map(|_| rng.range_f64(0.0, 8.0)).collect(),
        1 => vec![0.0; len],
        _ => (0..len).map(|_| [0.0, 1.5, 3.0][rng.below(3)]).collect(),
    }
}

proptest! {
    /// The window replay walks each row's pairs in blocks of lanes and
    /// the remainder one by one. Against the seed matrix — one
    /// independent `P2Quantile` per pair, fed tick by tick — every row
    /// count up to 13 (every remainder, rows shorter than a block
    /// included), windows around the five-sample warm-up and a long
    /// one, replayed whole by `fill` and as two windows split anywhere
    /// (inside the warm-up too) by the serial and the 3-thread path.
    #[test]
    fn p2_lane_replay_matches_seed_bitwise(seed in any::<u64>()) {
        let mut rng = cavm_trace::SimRng::new(seed);
        let reference = Reference::Percentile(95.0);
        for rows in 1..=13 {
            for len in [1, 4, 5, 6, 1 + rng.below(200)] {
                let values: Vec<Vec<f64>> =
                    (0..rows).map(|_| draw_lane_row(&mut rng, len)).collect();
                let split = rng.below(len + 1);
                let mut oracle = PairwiseCostMatrix::new(rows, reference).unwrap();
                let mut tick = vec![0.0; rows];
                let mut replay_ticks =
                    |oracle: &mut PairwiseCostMatrix, ticks: std::ops::Range<usize>| {
                        for t in ticks {
                            for (slot, row) in tick.iter_mut().zip(&values) {
                                *slot = row[t];
                            }
                            oracle.push_sample(&tick).unwrap();
                        }
                    };

                let traces: Vec<TimeSeries> = values
                    .iter()
                    .map(|row| TimeSeries::new(1.0, row.clone()).unwrap())
                    .collect();
                let refs: Vec<&TimeSeries> = traces.iter().collect();
                let mut serial = CostMatrix::new(rows, reference).unwrap();
                let mut threaded = CostMatrix::new(rows, reference).unwrap();
                serial.push_columns(&refs, 0, split).unwrap();
                threaded.par_push_columns_threads(&refs, 0, split, 3).unwrap();
                replay_ticks(&mut oracle, 0..split);
                let context = format!("{rows} rows, first {split} of {len}");
                assert_matrices_bit_identical(&serial, &oracle, &context)?;
                assert_matrices_bit_identical(&threaded, &oracle, &context)?;

                serial.push_columns(&refs, split, len).unwrap();
                threaded.par_push_columns_threads(&refs, split, len, 3).unwrap();
                replay_ticks(&mut oracle, split..len);
                let mut filled = CostMatrix::keyed(rows, reference).unwrap();
                let windows: Vec<&[f64]> = values.iter().map(Vec::as_slice).collect();
                let occupants: Vec<Option<usize>> = (0..rows).map(Some).collect();
                filled.fill(&occupants, rows, &windows).unwrap();
                let context = format!("{rows} rows, all {len} split at {split}");
                for matrix in [&serial, &threaded, &filled] {
                    assert_matrices_bit_identical(matrix, &oracle, &context)?;
                    prop_assert_eq!(matrix.samples(), len as u64);
                }
            }
        }
    }
}

/// A verbatim re-implementation of the *seed* ALLOCATE phase (linear
/// candidate scan + full `server_cost_with_candidate` re-evaluation
/// over the per-pair baseline matrix), used as the placement oracle.
fn seed_reference_place(
    vms: &[VmDescriptor],
    matrix: &PairwiseCostMatrix,
    capacity: f64,
) -> Placement {
    const FIT_EPS: f64 = 1e-9;
    let config = ProposedPolicy::default();
    let (th_init, alpha, th_floor) = {
        let c = config.config();
        (c.th_init, c.alpha, c.th_floor)
    };

    let mut order: Vec<usize> = (0..vms.len()).collect();
    order.sort_by(|&a, &b| {
        vms[b]
            .demand
            .partial_cmp(&vms[a].demand)
            .unwrap()
            .then_with(|| vms[a].id.cmp(&vms[b].id))
    });
    let total: f64 = vms.iter().map(|d| d.demand).sum();
    let n_est = (((total / capacity) - FIT_EPS).ceil().max(1.0) as usize).max(1);

    struct Bin {
        members: Vec<usize>,
        used: f64,
    }
    let seed_cost = |members: &[usize], candidate: usize| -> f64 {
        let mut weighted: Vec<(usize, f64)> =
            members.iter().map(|&id| (id, vms[id].demand)).collect();
        weighted.push((candidate, vms[candidate].demand));
        let n = weighted.len();
        if n <= 1 {
            return 1.0;
        }
        let total: f64 = weighted.iter().map(|&(_, u)| u).sum();
        let mut cost = 0.0;
        for &(j, u_j) in &weighted {
            let w_j = if total > 0.0 {
                u_j / total
            } else {
                1.0 / n as f64
            };
            let mut pair_sum = 0.0;
            for &(k, _) in &weighted {
                if k != j {
                    pair_sum += matrix.cost_or_neutral(j, k);
                }
            }
            cost += w_j * pair_sum / (n - 1) as f64;
        }
        cost
    };

    let mut bins: Vec<Bin> = (0..n_est)
        .map(|_| Bin {
            members: Vec::new(),
            used: 0.0,
        })
        .collect();
    let mut unalloc = order;
    let mut th = th_init;

    while !unalloc.is_empty() {
        let bin_idx = bins
            .iter()
            .enumerate()
            .max_by(|a, b| {
                (capacity - a.1.used)
                    .partial_cmp(&(capacity - b.1.used))
                    .unwrap()
            })
            .map(|(i, _)| i)
            .unwrap();

        let mut placed = 0;
        loop {
            let rem = capacity - bins[bin_idx].used;
            let choice = if bins[bin_idx].members.is_empty() {
                match unalloc.iter().position(|&i| vms[i].demand <= rem + FIT_EPS) {
                    Some(pos) => Some(pos),
                    None if !unalloc.is_empty() => Some(0),
                    None => None,
                }
            } else {
                let mut best: Option<(usize, f64)> = None;
                for (pos, &idx) in unalloc.iter().enumerate() {
                    let vm = &vms[idx];
                    if vm.demand > rem + FIT_EPS {
                        continue;
                    }
                    let cost = seed_cost(&bins[bin_idx].members, vm.id);
                    if cost < th && th > th_floor {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((_, best_cost)) => cost > best_cost + 1e-12,
                    };
                    if better {
                        best = Some((pos, cost));
                    }
                }
                best.map(|(pos, _)| pos)
            };
            match choice {
                Some(pos) => {
                    let idx = unalloc.remove(pos);
                    bins[bin_idx].used += vms[idx].demand;
                    bins[bin_idx].members.push(vms[idx].id);
                    placed += 1;
                }
                None => break,
            }
        }

        if unalloc.is_empty() {
            break;
        }
        if placed == 0 {
            if th > th_floor {
                th = (th * alpha).max(th_floor);
            } else {
                bins.push(Bin {
                    members: Vec::new(),
                    used: 0.0,
                });
            }
        }
    }

    Placement::from_servers(bins.into_iter().map(|b| b.members).collect())
}

// ---- keyed matrix ≡ zero-padded universe matrix ---------------------------

/// One period as the online controller sees it: a universe of `ids`
/// ids of which a random subset (holes included) was sampled, each
/// into a row of a randomly ordered row table that also carries free
/// rows; some sampled VMs idled the whole period.
struct KeyedPeriod {
    occupants: Vec<Option<usize>>,
    windows: Vec<Vec<f64>>,
}

fn draw_keyed_period(rng: &mut cavm_trace::SimRng, ids: usize, rows: usize) -> KeyedPeriod {
    // Short periods exercise the exact-quantile start of the P² cells.
    let len = 1 + rng.below(12);
    let mut pool: Vec<usize> = (0..ids).collect();
    rng.shuffle(&mut pool);
    let sampled = rng.below(rows.min(ids) + 1);
    let mut occupants: Vec<Option<usize>> = pool[..sampled].iter().map(|&id| Some(id)).collect();
    occupants.resize(rows, None);
    rng.shuffle(&mut occupants);
    let windows = occupants
        .iter()
        .map(|occupant| {
            if occupant.is_none() || rng.bernoulli(0.2) {
                vec![0.0; len]
            } else {
                (0..len)
                    .map(|_| {
                        if rng.bernoulli(0.15) {
                            0.0
                        } else {
                            rng.range_f64(0.0, 8.0)
                        }
                    })
                    .collect()
            }
        })
        .collect();
    KeyedPeriod { occupants, windows }
}

/// The matrix the universe-indexed code holds for `period`: one row per
/// id below `universe`, all zeros for an id nobody sampled.
fn universe_matrix(period: &KeyedPeriod, universe: usize, reference: Reference) -> CostMatrix {
    let len = period.windows[0].len();
    let mut padded = vec![vec![0.0; len]; universe];
    for (occupant, window) in period.occupants.iter().zip(&period.windows) {
        if let Some(id) = *occupant {
            padded[id] = window.clone();
        }
    }
    let traces: Vec<TimeSeries> = padded
        .into_iter()
        .map(|values| TimeSeries::new(1.0, values).unwrap())
        .collect();
    let refs: Vec<&TimeSeries> = traces.iter().collect();
    let mut dense = CostMatrix::new(universe, reference).unwrap();
    dense.push_columns(&refs, 0, len).unwrap();
    dense
}

fn assert_keyed_matches_universe(
    keyed: &CostMatrix,
    dense: &CostMatrix,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(keyed.len(), dense.len(), "{}: id bound", context);
    prop_assert_eq!(keyed.samples(), dense.samples(), "{}: samples", context);
    // Two ids past the bound: neutral on both sides.
    for i in 0..dense.len() + 2 {
        for j in 0..dense.len() + 2 {
            let (a, b) = (keyed.cost_or_neutral(i, j), dense.cost_or_neutral(i, j));
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: pair ({}, {}) diverged: keyed={} universe={}",
                context,
                i,
                j,
                a,
                b
            );
        }
    }
    Ok(())
}

proptest! {
    /// The keyed matrix — planes over a recycled row table plus the
    /// id → row key captured at the fill — answers every ordered pair
    /// exactly as the universe-indexed matrix built from the same
    /// windows zero-padded to every id: after a fill, after the id
    /// bound advances over ids that postdate it, and after a refill
    /// through the same allocation with a different occupancy.
    #[test]
    fn keyed_matrix_matches_zero_padded_universe_bitwise(seed in any::<u64>()) {
        let mut rng = cavm_trace::SimRng::new(seed);
        for reference in both_references() {
            let ids = 1 + rng.below(12);
            let rows = 1 + rng.below(ids + 2);
            let mut keyed = CostMatrix::keyed(rows, reference).unwrap();
            prop_assert_eq!(keyed.rows(), rows);
            // Before any fill nothing is known: every pair is neutral.
            keyed.extend_ids(ids);
            for i in 0..ids + 2 {
                for j in 0..ids + 2 {
                    let expected = if i == j && i < ids { 1.0 } else { 1.5 };
                    prop_assert_eq!(keyed.cost_or_neutral(i, j), expected);
                }
            }

            for round in 0..3 {
                let period = draw_keyed_period(&mut rng, ids, rows);
                let windows: Vec<&[f64]> = period.windows.iter().map(Vec::as_slice).collect();
                keyed.fill(&period.occupants, ids, &windows).unwrap();
                prop_assert_eq!(keyed.rows(), rows);
                assert_keyed_matches_universe(
                    &keyed,
                    &universe_matrix(&period, ids, reference),
                    &format!("{reference:?} round {round} fill"),
                )?;

                // Ids registered after the fill: the universe-indexed
                // code replays the same windows zero-padded to the new
                // dimension; the keyed one only advances its bound.
                let grown = ids + 1 + rng.below(4);
                let mut extended = keyed.clone();
                extended.extend_ids(grown);
                assert_keyed_matches_universe(
                    &extended,
                    &universe_matrix(&period, grown, reference),
                    &format!("{reference:?} round {round} extended"),
                )?;
            }
        }
    }
}

#[test]
fn keyed_fill_rejects_malformed_occupancy() {
    let mut plain = CostMatrix::new(2, Reference::Peak).unwrap();
    let w = [1.0, 2.0];
    assert!(plain.fill(&[Some(0), Some(1)], 2, &[&w, &w]).is_err());

    let mut keyed = CostMatrix::keyed(2, Reference::Peak).unwrap();
    // Row count, window lengths, id bound, one row per id.
    assert!(keyed.fill(&[Some(0)], 2, &[&w, &w]).is_err());
    assert!(keyed.fill(&[Some(0), Some(1)], 2, &[&w]).is_err());
    assert!(keyed.fill(&[Some(0), Some(1)], 2, &[&w, &w[..1]]).is_err());
    assert!(keyed.fill(&[Some(0), Some(2)], 2, &[&w, &w]).is_err());
    assert!(keyed.fill(&[Some(1), Some(1)], 2, &[&w, &w]).is_err());
    // None of the refusals touched the matrix.
    assert_eq!((keyed.len(), keyed.samples()), (0, 0));
    keyed.fill(&[Some(1), None], 3, &[&w, &[0.0, 0.0]]).unwrap();
    assert_eq!((keyed.len(), keyed.rows(), keyed.samples()), (3, 2, 2));
    assert_eq!(keyed.cost(1, 0), Some(1.0));
    assert_eq!(keyed.cost(0, 2), Some(2.0));
}

// ---- the default fan-out ≡ any explicit thread count ----------------------

/// Row × sample shapes either side of the work threshold below which
/// the default-thread entry points stay on the calling thread (2¹⁷
/// Peak pair updates, a P² update weighing 16): whichever side a shape
/// falls on, the answer is the explicit 1-thread and N-thread one.
const STRADDLING_SHAPES: [(usize, usize, Reference); 6] = [
    (16, 720, Reference::Peak),
    (47, 120, Reference::Peak),
    (48, 120, Reference::Peak),
    (120, 12, Reference::Peak),
    (8, 290, Reference::Percentile(95.0)),
    (8, 300, Reference::Percentile(95.0)),
];

proptest! {
    /// `fill` and `par_push_columns` choose their own fan-out; the
    /// choice never shows in a single bit of a single pair.
    #[test]
    fn default_fan_out_matches_explicit_threads_bitwise(seed in any::<u64>()) {
        let mut rng = cavm_trace::SimRng::new(seed);
        for (rows, len, reference) in STRADDLING_SHAPES {
            let traces: Vec<TimeSeries> = (0..rows)
                .map(|_| {
                    let values = (0..len).map(|_| rng.range_f64(0.0, 8.0)).collect();
                    TimeSeries::new(1.0, values).unwrap()
                })
                .collect();
            let refs: Vec<&TimeSeries> = traces.iter().collect();
            let windows: Vec<&[f64]> = traces.iter().map(TimeSeries::values).collect();
            let occupants: Vec<Option<usize>> = (0..rows).map(Some).collect();

            let mut filled = CostMatrix::keyed(rows, reference).unwrap();
            filled.fill(&occupants, rows, &windows).unwrap();
            let mut pushed = CostMatrix::new(rows, reference).unwrap();
            pushed.par_push_columns(&refs, 0, len).unwrap();
            let mut one = CostMatrix::new(rows, reference).unwrap();
            one.par_push_columns_threads(&refs, 0, len, 1).unwrap();
            let mut many = CostMatrix::new(rows, reference).unwrap();
            many.par_push_columns_threads(&refs, 0, len, 3).unwrap();

            for i in 0..rows {
                for j in 0..rows {
                    let want = one.cost(i, j).map(f64::to_bits);
                    for (name, got) in [
                        ("fill", &filled),
                        ("par_push_columns", &pushed),
                        ("3 threads", &many),
                    ] {
                        prop_assert_eq!(
                            got.cost(i, j).map(f64::to_bits),
                            want,
                            "{} diverged at ({}, {}) for {} x {} under {:?}",
                            name, i, j, rows, len, reference
                        );
                    }
                }
            }
        }
    }
}
