//! Property-based tests for the time-series substrate.

use cavm_trace::{
    peak_and_profile, percentile, Envelope, MomentSketch, P2Quantile, Reference, SimRng,
    TimeSeries, Welford,
};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6f64, 1..max_len)
}

proptest! {
    /// Percentiles are monotone in p and bracketed by min/max.
    #[test]
    fn percentile_monotone(values in finite_vec(200), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&values, lo).unwrap();
        let b = percentile(&values, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    /// peak(a+b) is subadditive and at least the larger single peak —
    /// the inequality underlying the paper's Cost ∈ [1, 2] bound
    /// (for non-negative utilization signals).
    #[test]
    fn peak_subadditive(
        pairs in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..100)
    ) {
        let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let a = TimeSeries::new(1.0, xs).unwrap();
        let b = TimeSeries::new(1.0, ys).unwrap();
        let sum = TimeSeries::sum_of(&[&a, &b]).unwrap();
        prop_assert!(sum.peak() <= a.peak() + b.peak() + 1e-9);
        prop_assert!(sum.peak() >= a.peak().max(b.peak()) - 1e-9);
    }

    /// Welford matches the two-pass computation.
    #[test]
    fn welford_matches_two_pass(values in finite_vec(300)) {
        let mut w = Welford::new();
        for &v in &values { w.push(v); }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / values.len() as f64;
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((w.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((w.population_variance() - var).abs() / scale.powi(2).max(1.0) < 1e-6);
    }

    /// Welford merge is equivalent to sequential feeding.
    #[test]
    fn welford_merge_associative(a in finite_vec(100), b in finite_vec(100)) {
        let mut seq = Welford::new();
        for &v in a.iter().chain(b.iter()) { seq.push(v); }
        let mut wa = Welford::new();
        for &v in &a { wa.push(v); }
        let mut wb = Welford::new();
        for &v in &b { wb.push(v); }
        wa.merge(&wb);
        let scale = 1.0 + seq.mean().abs();
        prop_assert!((wa.mean() - seq.mean()).abs() / scale < 1e-9);
        prop_assert!(
            (wa.population_variance() - seq.population_variance()).abs()
                / (1.0 + seq.population_variance()) < 1e-6
        );
    }

    /// coarsen_mean preserves the overall mean when len divides evenly.
    #[test]
    fn coarsen_preserves_mean(values in prop::collection::vec(-1e3f64..1e3, 1..50), factor in 1usize..5) {
        let padded: Vec<f64> = values
            .iter()
            .copied()
            .cycle()
            .take(values.len() * factor)
            .collect();
        let t = TimeSeries::new(1.0, padded).unwrap();
        let c = t.coarsen_mean(factor).unwrap();
        prop_assert!((c.mean() - t.mean()).abs() < 1e-6);
    }

    /// Envelope overlap metrics stay in [0, 1] and Jaccard ≤ containment.
    #[test]
    fn envelope_metric_bounds(
        bits in prop::collection::vec((any::<bool>(), any::<bool>()), 1..200)
    ) {
        let (xs, ys): (Vec<bool>, Vec<bool>) = bits.into_iter().unzip();
        let a = Envelope::from_bits(xs);
        let b = Envelope::from_bits(ys);
        // Jaccard |A∩B| / |A∪B| from the counts (0 when both are idle).
        let overlap = a.overlap_count(&b).unwrap();
        let union = a.active_count() + b.active_count() - overlap;
        let j = if union == 0 { 0.0 } else { overlap as f64 / union as f64 };
        let c = a.containment(&b).unwrap();
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(j <= c + 1e-12);
    }

    /// The reference utilization of a percentile never exceeds the peak.
    #[test]
    fn reference_percentile_below_peak(values in finite_vec(200), p in 0.0f64..100.0) {
        let perc = Reference::Percentile(p).of(&values).unwrap();
        let peak = Reference::Peak.of(&values).unwrap();
        prop_assert!(perc <= peak + 1e-9);
    }

    /// P² stays within the sample range and is finite.
    #[test]
    fn p2_stays_in_range(seed in any::<u64>(), q in 0.05f64..0.95) {
        let mut rng = SimRng::new(seed);
        let mut est = P2Quantile::new(q).unwrap();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..500 {
            let x = rng.range_f64(-5.0, 5.0);
            min = min.min(x);
            max = max.max(x);
            est.push(x);
        }
        let e = est.estimate().unwrap();
        prop_assert!(e.is_finite());
        prop_assert!(e >= min - 1e-9 && e <= max + 1e-9);
    }

    /// SimRng::below is always in range.
    #[test]
    fn below_in_range(seed in any::<u64>(), n in 1usize..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// Lognormal draws are positive when the mean is positive.
    #[test]
    fn lognormal_positive(seed in any::<u64>(), mean in 0.01f64..100.0, cv in 0.0f64..3.0) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.lognormal_mean_cv(mean, cv) > 0.0);
        }
    }
}

/// What `percentile` did before it selected: copy, full stable sort,
/// closest-rank interpolation. Kept here as the differential oracle.
fn percentile_by_sorting(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// The window shapes the selection must survive: continuous draws,
/// heavy duplicates, all-equal, already sorted and reversed.
fn window_shapes(rng: &mut SimRng, len: usize) -> Vec<Vec<f64>> {
    let continuous: Vec<f64> = (0..len).map(|_| rng.range_f64(-50.0, 50.0)).collect();
    let levels = 1 + rng.below(4);
    let duplicates = (0..len)
        .map(|_| 0.25 * rng.below(levels + 1) as f64)
        .collect();
    let mut ascending = continuous.clone();
    ascending.sort_by(f64::total_cmp);
    let descending = ascending.iter().rev().copied().collect();
    vec![
        vec![continuous[0]; len],
        continuous,
        duplicates,
        ascending,
        descending,
    ]
}

proptest! {
    /// Selection reads the very bits the full sort read, at the paper's
    /// percentiles, the endpoints and anywhere in between.
    #[test]
    fn percentile_selection_is_bit_identical_to_sorting(
        seed in any::<u64>(),
        len in 1usize..=2000,
        random_p in 0.0f64..=100.0,
    ) {
        let mut rng = SimRng::new(seed);
        for window in window_shapes(&mut rng, len) {
            for p in [0.0, 50.0, 90.0, 95.0, 99.0, 100.0, random_p] {
                let got = percentile(&window, p).unwrap();
                let want = percentile_by_sorting(&window, p);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "len {} p {}", len, p);
            }
        }
    }

    /// A window mixing -0.0 and +0.0 is the one place the two can
    /// differ in bits: the sort kept equal zeros in input order, the
    /// selection orders them by sign. Numerically they agree.
    #[test]
    fn percentile_selection_agrees_on_signed_zeros(
        seed in any::<u64>(),
        len in 1usize..=400,
        p in 0.0f64..=100.0,
    ) {
        let mut rng = SimRng::new(seed);
        let window: Vec<f64> = (0..len)
            .map(|_| match rng.below(4) {
                0 => -0.0,
                1 => 0.0,
                2 => -1.0,
                _ => 1.5,
            })
            .collect();
        prop_assert_eq!(percentile(&window, p).unwrap(), percentile_by_sorting(&window, p));
    }
}

proptest! {
    /// The cell router's one-pass summary reads the very bits a
    /// `MomentSketch` of the same trace answers under `Reference::Peak`:
    /// the peak and every bucket of the phase profile, at lengths 0, 1
    /// and random, from start offsets that split a bucket, at bucket
    /// widths that wrap the trace past all eight buckets.
    #[test]
    fn router_peak_summary_matches_the_sketch_bitwise(
        seed in any::<u64>(),
        len in 2usize..=3000,
        start in 0usize..=5000,
        random_width in 1usize..=400,
    ) {
        let mut rng = SimRng::new(seed);
        for n in [0, 1, len] {
            let values: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(2.0, 0.8)).collect();
            let trace = TimeSeries::new(5.0, values).unwrap();
            for width in [1, 7, 120, random_width] {
                let (peak, profile) = peak_and_profile(&trace, start, width).unwrap();
                let sketch = MomentSketch::from_series(&trace, start, width).unwrap();
                let want = sketch.reference(Reference::Peak);
                prop_assert_eq!(peak.to_bits(), want.to_bits(), "peak, n {} width {}", n, width);
                for (b, (got, want)) in profile.iter().zip(sketch.phase_profile()).enumerate() {
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "bucket {}, n {} start {} width {}",
                        b,
                        n,
                        start,
                        width
                    );
                }
            }
        }
        prop_assert!(peak_and_profile(&TimeSeries::new(5.0, vec![]).unwrap(), start, 0).is_err());
    }
}

/// The overlap metrics as they read on one `bool` per sample — the
/// formulas `Envelope` implemented before it packed its bits.
fn bool_metrics(xs: &[bool], ys: &[bool]) -> (usize, usize, usize, f64) {
    let active_x = xs.iter().filter(|&&b| b).count();
    let active_y = ys.iter().filter(|&&b| b).count();
    let overlap = xs.iter().zip(ys).filter(|&(&a, &b)| a && b).count();
    let smaller = active_x.min(active_y);
    let containment = if smaller == 0 {
        0.0
    } else {
        overlap as f64 / smaller as f64
    };
    (active_x, active_y, overlap, containment)
}

proptest! {
    /// The packed envelope answers exactly what the `bool` sequence
    /// does, at every length from 0 to 200 — each case also visits the
    /// word boundaries (63, 64, 65, 127, 128) and an all-ones sequence,
    /// where a tail bit of the last word that counted would show.
    #[test]
    fn packed_envelope_matches_the_bool_formulas(
        bits in prop::collection::vec((any::<bool>(), any::<bool>()), 200),
        len in 0usize..=200,
    ) {
        let (xs, ys): (Vec<bool>, Vec<bool>) = bits.into_iter().unzip();
        for len in [len, 0, 1, 63, 64, 65, 127, 128] {
            let (xs, ys) = (&xs[..len], &ys[..len]);
            let a = Envelope::from_bits(xs.to_vec());
            let b = Envelope::from_bits(ys.to_vec());
            let (active_a, active_b, overlap, containment) = bool_metrics(xs, ys);
            prop_assert_eq!(a.len(), len);
            prop_assert_eq!(a.is_empty(), len == 0);
            prop_assert_eq!(a.active_count(), active_a, "len {}", len);
            prop_assert_eq!(b.active_count(), active_b, "len {}", len);
            prop_assert_eq!(a.overlap_count(&b).unwrap(), overlap, "len {}", len);
            prop_assert_eq!(b.overlap_count(&a).unwrap(), overlap, "len {}", len);
            prop_assert_eq!(a.containment(&b).unwrap(), containment, "len {}", len);
            prop_assert_eq!(a == b, xs == ys, "len {}", len);

            let ones = Envelope::from_bits(vec![true; len]);
            prop_assert_eq!(ones.active_count(), len);
            prop_assert_eq!(ones.overlap_count(&ones).unwrap(), len);
            prop_assert_eq!(ones.overlap_count(&a).unwrap(), active_a, "len {}", len);
        }
    }

    /// Thresholding packs the same sequence `from_bits` does.
    #[test]
    fn packed_envelope_from_threshold_is_from_bits(
        values in prop::collection::vec(0.0f64..4.0, 0..200),
        threshold in -0.5f64..4.5,
    ) {
        let series = TimeSeries::new(1.0, values.clone()).unwrap();
        let want = Envelope::from_bits(values.iter().map(|&v| v >= threshold).collect());
        prop_assert_eq!(Envelope::from_threshold(&series, threshold), want);
        // A threshold that is itself a sample: `>=` keeps it active.
        if let Some(&t) = values.first() {
            let want = Envelope::from_bits(values.iter().map(|&v| v >= t).collect());
            prop_assert_eq!(Envelope::from_threshold(&series, t), want);
        }
    }
}
