//! Syndrome-extraction schedules.
//!
//! A *schedule* is an ordered list of timeslices; each timeslice is a set of CX gates
//! between an ancilla (identified with its stabilizer) and a data qubit that may all
//! execute in parallel on idealized hardware (every data qubit and every ancilla is
//! touched at most once per slice).
//!
//! Three generators are provided, matching §III-A of the paper:
//!
//! * [`serial_schedule`] — one gate per timeslice (the fully serialized reference).
//! * [`parallel_xz_schedule`] — the *non-edge-colorable* policy: all X stabilizers in
//!   parallel (edge-colored within the X sector), followed by all Z stabilizers.
//!   Worst-case depth `w_max(X) + w_max(Z)`.
//! * [`interleaved_schedule`] — the *edge-colorable* policy: X and Z gates are
//!   interleaved by coloring the full Tanner graph; only valid for edge-colorable
//!   codes such as hypergraph product codes.

use crate::coloring::{edge_color_bipartite, Edge};
use crate::css::{CssCode, StabKind};

/// A single entangling gate of the syndrome-extraction circuit.
///
/// For X stabilizers the ancilla (prepared in `|+⟩`) is the control and the data
/// qubit the target; for Z stabilizers the data qubit is the control and the ancilla
/// (prepared in `|0⟩`) the target. The scheduling layers only care about *which pair
/// interacts when*; the direction is recovered from `kind` by the circuit builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateOp {
    /// Stabilizer sector.
    pub kind: StabKind,
    /// Stabilizer index within its sector.
    pub stabilizer: usize,
    /// Data qubit index.
    pub data: usize,
}

/// One parallel timeslice of gates.
pub type Timeslice = Vec<GateOp>;

/// Which scheduling policy produced a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Fully serialized: one gate per slice.
    Serial,
    /// All X stabilizers in parallel, then all Z stabilizers (non-edge-colorable policy).
    ParallelXThenZ,
    /// Interleaved X/Z schedule from a full Tanner-graph edge coloring
    /// (edge-colorable codes only).
    Interleaved,
}

impl std::fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulePolicy::Serial => write!(f, "serial"),
            SchedulePolicy::ParallelXThenZ => write!(f, "parallel-x-then-z"),
            SchedulePolicy::Interleaved => write!(f, "interleaved"),
        }
    }
}

/// An idealized (hardware-independent) syndrome-extraction schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    policy: SchedulePolicy,
    slices: Vec<Timeslice>,
    num_data: usize,
    num_x: usize,
    num_z: usize,
}

impl Schedule {
    /// The policy that generated this schedule.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// The parallel timeslices, in execution order.
    pub fn slices(&self) -> &[Timeslice] {
        &self.slices
    }

    /// Number of timeslices (the idealized depth).
    pub fn depth(&self) -> usize {
        self.slices.len()
    }

    /// Total number of entangling gates.
    pub fn num_gates(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Number of data qubits of the underlying code.
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// Number of X stabilizers of the underlying code.
    pub fn num_x_stabilizers(&self) -> usize {
        self.num_x
    }

    /// Number of Z stabilizers of the underlying code.
    pub fn num_z_stabilizers(&self) -> usize {
        self.num_z
    }

    /// Checks the schedule invariants:
    /// 1. every (stabilizer, data) gate of the code appears exactly once;
    /// 2. within a timeslice no data qubit and no ancilla is used twice.
    pub fn validate(&self, code: &CssCode) -> bool {
        use std::collections::HashSet;
        let mut seen: HashSet<GateOp> = HashSet::new();
        for slice in &self.slices {
            let mut data_used = HashSet::new();
            let mut anc_used = HashSet::new();
            for g in slice {
                if !data_used.insert(g.data) {
                    return false;
                }
                if !anc_used.insert((g.kind, g.stabilizer)) {
                    return false;
                }
                if !seen.insert(*g) {
                    return false;
                }
            }
        }
        let mut expected = 0usize;
        for s in code.stabilizers() {
            for &d in &s.support {
                expected += 1;
                if !seen.contains(&GateOp {
                    kind: s.kind,
                    stabilizer: s.index,
                    data: d,
                }) {
                    return false;
                }
            }
        }
        expected == seen.len()
    }
}

/// All gates of the code's syndrome-extraction circuit, in stabilizer order.
fn all_gates(code: &CssCode) -> Vec<GateOp> {
    let mut gates = Vec::new();
    for s in code.stabilizers() {
        for &d in &s.support {
            gates.push(GateOp {
                kind: s.kind,
                stabilizer: s.index,
                data: d,
            });
        }
    }
    gates
}

/// The fully serialized schedule: one gate per timeslice.
pub fn serial_schedule(code: &CssCode) -> Schedule {
    let slices = all_gates(code).into_iter().map(|g| vec![g]).collect();
    Schedule {
        policy: SchedulePolicy::Serial,
        slices,
        num_data: code.num_qubits(),
        num_x: code.num_x_stabilizers(),
        num_z: code.num_z_stabilizers(),
    }
}

/// Edge-colors one stabilizer sector and returns its timeslices.
fn sector_slices(code: &CssCode, kind: StabKind) -> Vec<Timeslice> {
    let stabs = code.sector_stabilizers(kind);
    let num_left = stabs.len();
    let num_right = code.num_qubits();
    let mut edges: Vec<Edge> = Vec::new();
    let mut gate_of_edge: Vec<GateOp> = Vec::new();
    for s in &stabs {
        for &d in &s.support {
            edges.push((s.index, d));
            gate_of_edge.push(GateOp {
                kind,
                stabilizer: s.index,
                data: d,
            });
        }
    }
    let coloring = edge_color_bipartite(num_left, num_right, &edges);
    coloring
        .classes()
        .into_iter()
        .filter(|class| !class.is_empty())
        .map(|class| class.into_iter().map(|i| gate_of_edge[i]).collect())
        .collect()
}

/// The non-edge-colorable maximally parallel policy: all X stabilizers (edge-colored
/// within the sector), then all Z stabilizers. Valid for **any** CSS code; worst-case
/// depth `w_max(X) + w_max(Z)`.
pub fn parallel_xz_schedule(code: &CssCode) -> Schedule {
    let mut slices = sector_slices(code, StabKind::X);
    slices.extend(sector_slices(code, StabKind::Z));
    Schedule {
        policy: SchedulePolicy::ParallelXThenZ,
        slices,
        num_data: code.num_qubits(),
        num_x: code.num_x_stabilizers(),
        num_z: code.num_z_stabilizers(),
    }
}

/// The edge-colorable interleaved policy: X and Z gates share timeslices, obtained
/// from an edge coloring of the *full* Tanner graph (both sectors on the left).
///
/// # Errors
///
/// Returns `None` if the code is not edge-colorable (e.g. bivariate bicycle codes),
/// since interleaving X and Z gates on such codes does not commute into a valid
/// syndrome-extraction circuit.
pub fn interleaved_schedule(code: &CssCode) -> Option<Schedule> {
    if !code.is_edge_colorable() {
        return None;
    }
    let num_x = code.num_x_stabilizers();
    let num_left = num_x + code.num_z_stabilizers();
    let num_right = code.num_qubits();
    let mut edges: Vec<Edge> = Vec::new();
    let mut gate_of_edge: Vec<GateOp> = Vec::new();
    for s in code.stabilizers() {
        let left = match s.kind {
            StabKind::X => s.index,
            StabKind::Z => num_x + s.index,
        };
        for &d in &s.support {
            edges.push((left, d));
            gate_of_edge.push(GateOp {
                kind: s.kind,
                stabilizer: s.index,
                data: d,
            });
        }
    }
    let coloring = edge_color_bipartite(num_left, num_right, &edges);
    let slices: Vec<Timeslice> = coloring
        .classes()
        .into_iter()
        .filter(|class| !class.is_empty())
        .map(|class| class.into_iter().map(|i| gate_of_edge[i]).collect())
        .collect();
    Some(Schedule {
        policy: SchedulePolicy::Interleaved,
        slices,
        num_data: code.num_qubits(),
        num_x: code.num_x_stabilizers(),
        num_z: code.num_z_stabilizers(),
    })
}

/// The best (shallowest) idealized schedule available for a code: interleaved when the
/// code is edge-colorable, otherwise X-then-Z.
pub fn max_parallel_schedule(code: &CssCode) -> Schedule {
    match interleaved_schedule(code) {
        Some(s) if s.depth() <= parallel_xz_schedule(code).depth() => s,
        _ => parallel_xz_schedule(code),
    }
}

/// The idealized speedup of the maximally parallel schedule over the serial schedule
/// (ratio of gate counts to parallel depth). This is the quantity plotted in Fig. 3.
pub fn parallel_speedup(code: &CssCode) -> f64 {
    let serial = serial_schedule(code);
    let parallel = max_parallel_schedule(code);
    serial.depth() as f64 / parallel.depth() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::{bb_72_12_6_parameters, bivariate_bicycle};
    use crate::classical::ClassicalCode;
    use crate::hgp::square_hypergraph_product;

    fn small_hgp() -> CssCode {
        let rep = ClassicalCode::repetition(3);
        square_hypergraph_product(&rep).expect("valid")
    }

    #[test]
    fn serial_schedule_valid() {
        let code = small_hgp();
        let s = serial_schedule(&code);
        assert!(s.validate(&code));
        assert_eq!(s.depth(), s.num_gates());
        assert!(s.slices().iter().all(|slice| slice.len() == 1));
    }

    #[test]
    fn parallel_xz_schedule_valid_and_bounded() {
        let code = small_hgp();
        let s = parallel_xz_schedule(&code);
        assert!(s.validate(&code));
        assert!(s.depth() <= code.max_x_weight() + code.max_z_weight());
    }

    #[test]
    fn interleaved_schedule_valid_for_hgp() {
        let code = small_hgp();
        let s = interleaved_schedule(&code).expect("HGP codes are edge-colorable");
        assert!(s.validate(&code));
    }

    #[test]
    fn interleaved_rejected_for_bb() {
        let code = bivariate_bicycle(&bb_72_12_6_parameters()).expect("valid");
        assert!(interleaved_schedule(&code).is_none());
    }

    #[test]
    fn bb_parallel_schedule_valid() {
        let code = bivariate_bicycle(&bb_72_12_6_parameters()).expect("valid");
        let s = parallel_xz_schedule(&code);
        assert!(s.validate(&code));
        // BB stabilizers all have weight 6, so depth is at most 12.
        assert!(s.depth() <= 12);
    }

    #[test]
    fn speedup_is_large_for_parallel_codes() {
        let code = bivariate_bicycle(&bb_72_12_6_parameters()).expect("valid");
        let speedup = parallel_speedup(&code);
        // 432 gates vs depth <= 12 gives speedup >= 36.
        assert!(speedup >= 30.0, "speedup {speedup} unexpectedly small");
    }

    #[test]
    fn max_parallel_prefers_shallower() {
        let code = small_hgp();
        let best = max_parallel_schedule(&code);
        assert!(best.depth() <= parallel_xz_schedule(&code).depth());
    }
}
