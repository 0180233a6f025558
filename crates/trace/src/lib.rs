//! Time-series substrate for the `cavm` workspace.
//!
//! This crate provides the data plumbing that every other `cavm` crate
//! builds on:
//!
//! * [`TimeSeries`] — a fixed-interval sampled signal (CPU utilization in
//!   units of physical cores, client counts, power draw, ...).
//! * [`stats`] — batch statistics: Welford mean/variance, exact
//!   percentiles, and the *reference utilization* û used throughout the
//!   paper ([`Reference`]: peak or N-th percentile).
//! * [`streaming`] — constant-memory statistics: the running peak and
//!   the P² quantile estimator (standalone and banked behind one clock).
//! * [`sketch`] — constant-size per-VM demand summaries ([`MomentSketch`]:
//!   running moments + a phase envelope; [`peak_and_profile`] when only
//!   the peak is read) that let the placement-cell router steer
//!   arrivals in O(cells) without any dense pair structure.
//! * [`envelope`] — Verma-style binary envelopes (`u(t) ≥ threshold`) and
//!   overlap metrics, needed by the PCP baseline of the paper.
//! * [`rng`] — a small deterministic PRNG ([`SimRng`]) with the
//!   distributions the workload generators need (normal, lognormal
//!   parameterized *by mean*, Poisson, exponential). Implemented in-house
//!   so that every experiment in the repository is reproducible from a
//!   single `u64` seed.
//! * [`fanout`] — the one deterministic fan-out: disjoint parts of a
//!   caller-allocated output, the first on the calling thread and the
//!   rest on scoped threads, so results never depend on the thread count.
//!
//! # Example
//!
//! ```
//! use cavm_trace::{Reference, SimRng, TimeSeries};
//!
//! // A noisy diurnal utilization trace sampled every 5 seconds.
//! let mut rng = SimRng::new(42);
//! let trace = TimeSeries::from_fn(5.0, 1_000, |i| {
//!     let base = 2.0 + (i as f64 / 200.0).sin();
//!     (base + rng.normal(0.0, 0.1)).max(0.0)
//! })
//! .unwrap();
//!
//! let peak = Reference::Peak.of_series(&trace).unwrap();
//! let p95 = Reference::Percentile(95.0).of_series(&trace).unwrap();
//! assert!(p95 <= peak);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
mod error;
pub mod fanout;
pub mod rng;
pub mod series;
pub mod sketch;
pub mod stats;
pub mod streaming;

pub use envelope::Envelope;
pub use error::TraceError;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use sketch::{peak_and_profile, MomentSketch, PHASE_BUCKETS};
pub use stats::{percentile, Reference, Summary, Welford};
pub use streaming::{P2Cell, P2Clock, P2Quantile, StreamingPeak};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TraceError>;
