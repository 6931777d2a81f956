//! Hardware-aware noise models for trapped-ion QCCD memory experiments.
//!
//! The paper (§II-C) combines two error sources:
//!
//! 1. a **base circuit-level model** — depolarizing channels on gates, state
//!    preparation, and measurement, each occurring independently with the physical
//!    error rate `p`;
//! 2. a **decoherence model** — idle errors accumulated over the compiled execution
//!    latency, converted to an effective depolarizing channel with the Pauli
//!    twirling approximation using the decay time `T1` and dephasing time `T2`.
//!
//! Coherence times are parameterized from the physical error rate with a log fit:
//! `p = 10⁻⁴ ↦ 100 s` and `p = 10⁻³ ↦ 10 s`, consistent with present-day trapped-ion
//! devices (the paper assumes the 10–100 s range).
//!
//! # Example
//!
//! ```
//! use noise::{HardwareNoiseModel, NoiseParameters};
//!
//! // A syndrome-extraction round that takes 5 ms on hardware, at p = 5e-4.
//! let model = HardwareNoiseModel::new(NoiseParameters::new(5e-4), 5e-3);
//! assert!(model.effective_error_rate() > model.parameters().physical_error_rate());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod decoherence;
pub mod fnv;
pub mod model;

pub use channel::{ChannelSpec, ErrorChannel};
pub use decoherence::{coherence_time_from_p, pauli_twirl_error, CoherenceTimes};
pub use model::{HardwareNoiseModel, NoiseParameters};
