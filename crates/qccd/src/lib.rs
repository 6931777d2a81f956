//! Trapped-ion QCCD hardware modelling: topologies, shuttling, timing, and compilers.
//!
//! This crate is the hardware substrate of the Cyclone reproduction. It models
//! Quantum Charge Coupled Device machines as graphs of ion traps and junctions
//! ([`hardware`], [`topology`]), with the published operation timings ([`timing`]),
//! the DAC count of each topology's control wiring ([`wiring`]), qubit-to-trap mapping policies
//! ([`placement`]), and compilers that turn an idealized syndrome-extraction schedule
//! into a timed execution with shuttling, roadblocks, and rebalancing ([`compiler`]):
//! four policy functions over one discrete-event simulator. Which topology and
//! schedule each policy runs on is the `cyclone` crate's `registry::Codesign`.
//!
//! # Quick example
//!
//! ```
//! use qccd::compiler::baseline::compile_baseline;
//! use qccd::timing::OperationTimes;
//! use qccd::topology::baseline_grid;
//! use qec::classical::ClassicalCode;
//! use qec::hgp::square_hypergraph_product;
//! use qec::schedule::serial_schedule;
//!
//! let code = square_hypergraph_product(&ClassicalCode::repetition(3))?;
//! let topology = baseline_grid(code.num_qubits(), 5);
//! let (round, exposure) = compile_baseline(
//!     &code,
//!     &topology,
//!     &OperationTimes::default(),
//!     &serial_schedule(&code),
//! );
//! assert!(round.execution_time > 0.0);
//! assert_eq!(exposure.data.len(), code.num_qubits());
//! # Ok::<(), qec::QecError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compiler;
pub mod hardware;
pub mod placement;
pub mod timing;
pub mod topology;
pub mod wiring;

pub use compiler::{CompiledRound, ComponentTimes, IdleExposure};
pub use hardware::{NodeId, NodeKind, Topology, TopologyKind};
pub use placement::Placement;
pub use timing::{OperationTimes, SwapKind};
