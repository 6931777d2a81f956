//! Cyclone: a roadblock-free, highly parallel QCCD hardware/software codesign for
//! fault-tolerant quantum memory.
//!
//! This crate is the primary contribution of the reproduced paper (HPCA 2026): a ring
//! of ion traps around which ancilla qubits rotate in lockstep, measuring all X
//! stabilizers in the first full rotation and all Z stabilizers in the second. The
//! codesign eliminates shuttling roadblocks, bounds total movement, needs only a
//! constant number of DAC channel groups, and — because faster syndrome extraction
//! means less decoherence — improves logical error rates by orders of magnitude over
//! 2D-grid baselines for hypergraph product and bivariate bicycle codes.
//!
//! * [`codesign`] — the Cyclone compiler and its closed-form runtime bound.
//! * [`condensed`] — "tight" variants trading trap count for trap density (Fig. 13).
//! * [`split_loops`] — the independent-loop analysis of §IV-C.
//! * [`registry`] — [`qccd::compiler::Codesign`] impls for Cyclone and the standard
//!   registry of every codesign the evaluation compares.
//! * [`sweep`] — the parallel, cache-backed scenario sweep engine.
//! * [`sweep_cache`] — the one reader and writer of sweep cache files, which the
//!   sweep engine and the offline stats/verify (the `sweep-cache` CLI) share, so
//!   a file `verify` rejects is never read.
//! * [`experiments`] — declarative scenario specs that regenerate every figure of
//!   the evaluation through the sweep engine.
//!
//! # Quick example
//!
//! ```
//! use cyclone::{CycloneCodesign, CycloneConfig};
//! use qccd::timing::OperationTimes;
//! use qec::codes::bb_72_12_6;
//!
//! let code = bb_72_12_6()?;
//! let design = CycloneCodesign::new(&code, CycloneConfig::base());
//! let (round, exposure) = design.compile(&OperationTimes::default());
//! assert_eq!(round.roadblock_events, 0);
//! assert_eq!(exposure.horizon, round.execution_time);
//! println!("one round of syndrome extraction takes {:.2} ms", round.execution_time * 1e3);
//! # Ok::<(), qec::QecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codesign;
pub mod condensed;
pub mod experiments;
pub mod registry;
pub mod split_loops;
pub mod sweep;
pub mod sweep_cache;

pub use codesign::{CycloneCodesign, CycloneConfig};
pub use condensed::{best_configuration, default_trap_counts, trap_capacity_sweep, TrapSweepPoint};
pub use registry::{standard_registry, Cyclone};
pub use sweep::{run_sweep, ScenarioSpec, SweepOptions, SweepResult};
