//! Correlation measures between VM utilization signals.
//!
//! The paper replaces Pearson's product-moment correlation with a
//! purpose-built **cost function** (Eqn 1) because Pearson
//!
//! 1. concentrates its computation at the end of each measurement
//!    interval (it needs the interval's means first), and
//! 2. reflects correlation over the *whole* interval, while placement
//!    only cares about correlation *at the (off-)peaks*.
//!
//! [`cost::CostMetric`] is the paper's metric: O(1) per-sample streaming
//! updates, no sample storage. [`pearson::PearsonStream`] implements the
//! rejected alternative for comparison benchmarks and ablations, and
//! [`matrix::CostMatrix`] builds the all-pairs matrix `M_cost` the
//! allocator consumes from one window of samples.

pub mod cost;
pub mod matrix;
pub mod pearson;

pub use cost::{cost_of_traces, CostMetric};
pub use matrix::CostMatrix;
pub use pearson::{pearson_of_traces, PearsonStream};
