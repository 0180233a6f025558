//! Fixed-memory log-bucket latency histogram.
//!
//! Values are nanoseconds. Each power-of-two octave is split into
//! `SUB` linear sub-buckets, so a bucket is at most `1 / SUB` (0.8%)
//! of its value wide; values below `SUB` get one bucket each and are
//! exact. Percentiles interpolate linearly inside the bucket that
//! holds the requested rank, so a reported percentile is a continuous
//! function of the recorded values rather than a bucket edge.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves `SUB_BITS..64`, plus the exact range below `SUB`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Latency histogram over `u64` nanosecond values.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let octave = (shift + 1) as usize;
    octave * SUB as usize + ((v >> shift) & (SUB - 1)) as usize
}

/// Half-open value range `[lo, hi)` of bucket `b`.
fn bounds_of(b: usize) -> (u64, u64) {
    let octave = b / SUB as usize;
    let sub = (b % SUB as usize) as u64;
    if octave == 0 {
        return (sub, sub + 1);
    }
    let shift = (octave - 1) as u32;
    let lo = (SUB + sub) << shift;
    (lo, lo.saturating_add(1 << shift))
}

impl LogHistogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum += u128::from(ns);
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of every recorded value, nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// Largest recorded value, exact.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (`0 < p <= 100`) in nanoseconds, or `None`
    /// for an empty histogram. Rank `ceil(p/100 · n)` is located in its
    /// bucket and placed linearly between the bucket's bounds (capped
    /// at the exact maximum).
    pub fn percentile_ns(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bounds_of(b);
                let hi = hi.min(self.max.saturating_add(1));
                // Mid-point of the rank's own slice of the bucket.
                let within = ((rank - seen) as f64 - 0.5) / c as f64;
                return Some(lo as f64 + within * (hi - lo) as f64);
            }
            seen += c;
        }
        Some(self.max as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64*, enough for test data.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn buckets_partition_the_value_range() {
        for v in [0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, u64::MAX] {
            let (lo, hi) = bounds_of(bucket_of(v));
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
        }
        // Consecutive buckets tile without gaps.
        for b in 0..(BUCKETS - 1) {
            assert_eq!(bounds_of(b).1, bounds_of(b + 1).0, "gap after bucket {b}");
        }
    }

    #[test]
    fn percentiles_track_a_sorted_vector_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Log-uniform latencies from ~100 ns to ~1 s.
        let mut values: Vec<u64> = (0..50_000)
            .map(|_| {
                let octave = 7 + next(&mut state) % 23;
                (1u64 << octave) + next(&mut state) % (1u64 << octave)
            })
            .collect();
        let mut hist = LogHistogram::new();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
            let oracle = values[rank - 1] as f64;
            let got = hist.percentile_ns(p).unwrap();
            assert!(
                (got - oracle).abs() <= oracle / SUB as f64,
                "p{p}: histogram {got} vs oracle {oracle}"
            );
        }
        assert_eq!(hist.max_ns(), *values.last().unwrap());

        assert_eq!(hist.count(), values.len() as u64);
        assert_eq!(hist.sum_ns(), values.iter().map(|&v| u128::from(v)).sum());
    }

    #[test]
    fn small_values_are_exact_and_empty_is_none() {
        let mut hist = LogHistogram::new();
        assert!(hist.percentile_ns(50.0).is_none());
        for v in [3u64, 3, 3, 90] {
            hist.record(v);
        }
        let p50 = hist.percentile_ns(50.0).unwrap();
        assert!((3.0..4.0).contains(&p50));
        let p100 = hist.percentile_ns(100.0).unwrap();
        assert!((90.0..91.0).contains(&p100));
    }
}
