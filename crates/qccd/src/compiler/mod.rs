//! Compilers: turning an idealized syndrome-extraction schedule into timed hardware
//! execution on a concrete topology.
//!
//! All compilers share the discrete-event shuttling simulator in [`sim`], which tracks
//! per-trap and per-junction availability, ion positions, roadblock waiting, swap
//! insertion, and rebalancing. They differ in the *order* in which gates are released
//! to the simulator, one public function per policy:
//!
//! * [`baseline::compile_baseline`] — greedy cluster mapping + static
//!   earliest-job-first scheduling over the circuit DAG (the paper's baseline,
//!   modelled after QCCDSim).
//! * [`variants::compile_baseline2`] / [`variants::compile_baseline3`] — "Baseline 2"
//!   (shuttle-muzzling: batch gates by ancilla) and "Baseline 3" (MoveLess-style:
//!   batch gates by destination trap), used in Fig. 20.
//! * [`dynamic::compile_dynamic`] — the dynamic timeslice policy of §III-A (used on
//!   grids in Fig. 4a and Fig. 6, and on the mesh junction network of §III-C).
//!
//! Each returns the [`CompiledRound`] together with its per-qubit [`IdleExposure`].
//! The [`codesign`] module binds them (and the Cyclone compilers layered on top in
//! the `cyclone` crate) to topologies behind the [`Codesign`] trait, enumerable and
//! compilable by label through a [`CodesignRegistry`].

pub mod baseline;
pub mod codesign;
pub mod dynamic;
pub mod sim;
pub mod variants;

pub use codesign::{Codesign, CodesignRegistry};
pub use sim::IdleExposure;

use serde::{Deserialize, Serialize};

/// Time spent in each operation category, in seconds of *occupied resource time*
/// (i.e. the fully serialized, "unrolled" cost of Fig. 20's component breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ComponentTimes {
    /// Two-qubit (and swap-constituent) gate execution time.
    pub gate: f64,
    /// Split operations.
    pub split: f64,
    /// Merge operations.
    pub merge: f64,
    /// Linear shuttling movement.
    pub shuttle_move: f64,
    /// Junction crossings.
    pub junction: f64,
    /// Swap (reordering) operations.
    pub swap: f64,
    /// Ancilla measurement (and preparation).
    pub measurement: f64,
    /// Rebalancing operations triggered by full traps.
    pub rebalance: f64,
    /// Time spent waiting for busy traps or junctions (roadblocks).
    pub roadblock_wait: f64,
}

impl ComponentTimes {
    /// Sum of all *active* component times (excludes roadblock waiting): the fully
    /// serialized execution time if no two operations overlapped.
    pub fn serialized_total(&self) -> f64 {
        self.gate
            + self.split
            + self.merge
            + self.shuttle_move
            + self.junction
            + self.swap
            + self.measurement
            + self.rebalance
    }

    /// Adds another breakdown into this one.
    pub fn accumulate(&mut self, other: &ComponentTimes) {
        self.gate += other.gate;
        self.split += other.split;
        self.merge += other.merge;
        self.shuttle_move += other.shuttle_move;
        self.junction += other.junction;
        self.swap += other.swap;
        self.measurement += other.measurement;
        self.rebalance += other.rebalance;
        self.roadblock_wait += other.roadblock_wait;
    }
}

/// The result of compiling one round of syndrome extraction onto hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledRound {
    /// Human-readable codesign label, e.g. `"baseline-grid + static EJF"`.
    pub codesign: String,
    /// Wall-clock execution time of one syndrome-extraction round, in seconds.
    pub execution_time: f64,
    /// Per-component serialized time breakdown.
    pub breakdown: ComponentTimes,
    /// Number of entangling gates executed.
    pub num_gates: usize,
    /// Number of inter-trap shuttling operations (split/merge pairs).
    pub num_shuttles: usize,
    /// Number of rebalances triggered by full traps.
    pub num_rebalances: usize,
    /// Number of times an operation had to wait on a busy trap or junction.
    pub roadblock_events: usize,
    /// Number of traps in the topology.
    pub num_traps: usize,
    /// Number of junctions in the topology.
    pub num_junctions: usize,
    /// Number of ancilla qubits used.
    pub num_ancilla: usize,
}

impl CompiledRound {
    /// Effective parallelism: how many operations ran concurrently on average
    /// (`serialized_total / execution_time`).
    pub fn effective_parallelism(&self) -> f64 {
        if self.execution_time == 0.0 {
            1.0
        } else {
            self.breakdown.serialized_total() / self.execution_time
        }
    }

    /// The paper's spacetime cost metric (Fig. 16):
    /// `num_traps × execution_time × num_ancilla`.
    pub fn spacetime_cost(&self) -> f64 {
        self.num_traps as f64 * self.execution_time * self.num_ancilla as f64
    }
}
