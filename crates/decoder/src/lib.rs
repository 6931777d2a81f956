//! Decoding and logical-memory simulation for CSS codes.
//!
//! This crate provides the decoding substrate of the Cyclone reproduction:
//!
//! * a sparse binary matrix type and flattened Tanner graphs ([`sparse`]),
//! * normalized min-sum belief propagation ([`bp`]) with an ordered-statistics
//!   fallback ([`osd`]), combined in [`bposd`],
//! * the min-sum lane kernels, compiled for the baseline ISA, for AVX2 and for
//!   AVX-512 with runtime dispatch ([`simd`]), byte-identical to the scalar reference and
//!   overridable via `CYCLONE_SIMD`; one set decodes one syndrome, one lane
//!   per check or column, and the lockstep set decodes up to eight at once,
//!   one lane per syndrome,
//! * one decode core, the queue decoder [`BpOsdDecoder::decode_queue_packed`],
//!   whose reusable workspaces ([`scratch`]) keep it allocation-free,
//! * a per-context syndrome → correction cache ([`cache`]), the one store of
//!   decoder outputs,
//! * and the Monte-Carlo logical-memory harness that couples compiled execution
//!   latency to decoherence noise ([`memory`]): one (point, 64-shot chunk)
//!   scheduler for fixed budgets and precision targets alike, behind a sweep
//!   ([`memory::estimate_points`]) and a single point ([`MemoryExperiment::run`]).
//!
//! # Example
//!
//! ```
//! use decoder::memory::{logical_error_rate, MemoryConfig};
//! use qec::codes::bb_72_12_6;
//!
//! let code = bb_72_12_6()?;
//! let cfg = MemoryConfig { shots: 200, ..Default::default() };
//! // A 1 ms round at p = 1e-3.
//! let estimate = logical_error_rate(&code, 1e-3, 1e-3, &cfg);
//! assert!(estimate.ler <= 1.0);
//! # Ok::<(), qec::QecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(test)] // for the integration tests' oracle, shared with the unit tests
extern crate self as decoder;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub mod bp;
pub mod bposd;
pub mod cache;
pub mod memory;
pub mod osd;
pub mod scratch;
pub mod simd;
pub mod sparse;

pub use bposd::BpOsdDecoder;
pub use memory::{logical_error_rate, BatchScratch, LerEstimate, MemoryConfig, MemoryExperiment};
pub use scratch::DecoderScratch;
pub use simd::Simd;
