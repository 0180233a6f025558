//! Server power and DVFS models for the `cavm` workspace.
//!
//! The paper saves power in two ways: switching servers off entirely
//! (consolidation) and running the remaining servers at a lower
//! voltage/frequency level (Eqn 4). This crate models the machinery both
//! require:
//!
//! * [`dvfs`] — discrete frequency ladders ([`DvfsLadder`]) with snap-up
//!   level selection. The paper's testbeds expose exactly two levels
//!   each (Opteron 6174: 1.9/2.1 GHz, Xeon E5410: 2.0/2.3 GHz).
//! * [`model`] — the [`PowerModel`] trait and its per-level linear model
//!   (idle/busy watts per frequency, the form used by Pedram et al. \[13\],
//!   which the paper adopts).
//! * [`energy`] — [`EnergyMeter`], integrating instantaneous power over
//!   sampled intervals into joules, and normalized comparisons between
//!   policies (Table II reports power normalized to BFD).
//!
//! # Example
//!
//! ```
//! use cavm_power::{DvfsLadder, Frequency, LinearPowerModel, PowerModel};
//!
//! # fn main() -> Result<(), cavm_power::PowerError> {
//! let ladder = DvfsLadder::xeon_e5410();
//! // A server that must deliver 78% of its max-frequency capacity can
//! // run at the lower of the two levels (2.0/2.3 = 87%).
//! let f = ladder.snap_up_fraction(0.78)?;
//! assert_eq!(f, Frequency::from_ghz(2.0));
//!
//! let model = LinearPowerModel::xeon_e5410();
//! assert!(model.power(0.5, f)? < model.power(0.5, ladder.max())?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dvfs;
pub mod energy;
mod error;
pub mod model;

pub use dvfs::{DvfsLadder, Frequency};
pub use energy::EnergyMeter;
pub use error::PowerError;
pub use model::{LinearPowerModel, PowerModel};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PowerError>;
