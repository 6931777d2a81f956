//! The dynamic (timeslice) scheduling policy of §III-A.
//!
//! Instead of reading the circuit as a dependency DAG, the dynamic policy interprets
//! the maximally parallel schedule as a sequence of *timeslices* and releases every
//! gate of a slice simultaneously, only requiring slices to execute in order. On
//! hardware with enough disjoint routes this realizes the idealized parallelism; on a
//! grid it produces heavy roadblocking (Fig. 4a and the Fig. 6 confusion matrix), which
//! is precisely the observation that motivates Cyclone.

use crate::compiler::sim::{IdleExposure, ShuttleSim};
use crate::compiler::CompiledRound;
use crate::hardware::Topology;
use crate::placement::greedy_cluster_placement;
use crate::timing::OperationTimes;
use qec::schedule::Schedule;
use qec::CssCode;

/// Compiles one round with the dynamic timeslice policy on an arbitrary topology,
/// returning the round plus its per-qubit [`IdleExposure`].
pub fn compile_dynamic(
    code: &CssCode,
    topology: &Topology,
    times: &OperationTimes,
    schedule: &Schedule,
) -> (CompiledRound, IdleExposure) {
    let placement = greedy_cluster_placement(code, topology);
    let mut sim = ShuttleSim::new(code, topology, &placement, times);
    let mut slice_ready = 0.0f64;
    // Latest gate end of every ancilla, indexed by ion id.
    let mut ancilla_last_end: Vec<Option<f64>> = vec![None; sim.num_ions()];
    for slice in schedule.slices() {
        let mut slice_end = slice_ready;
        for g in slice {
            let end = sim.execute_gate(g.kind, g.stabilizer, g.data, slice_ready);
            slice_end = slice_end.max(end);
            let e = ancilla_last_end[sim.ancilla_ion(g.kind, g.stabilizer)].get_or_insert(0.0);
            *e = e.max(end);
        }
        slice_ready = slice_end;
    }
    sim.measure_ancillas(&ancilla_last_end);
    let round = CompiledRound {
        codesign: format!("{} + dynamic timeslices", topology.name()),
        execution_time: sim.horizon(),
        breakdown: sim.breakdown(),
        num_gates: schedule.num_gates(),
        num_shuttles: sim.num_shuttles(),
        num_rebalances: sim.num_rebalances(),
        roadblock_events: sim.roadblock_events(),
        num_traps: topology.num_traps(),
        num_junctions: topology.num_junctions(),
        num_ancilla: code.num_stabilizers(),
    };
    let exposure = sim.idle_exposure();
    (round, exposure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::baseline::compile_baseline;
    use crate::topology::{baseline_grid, mesh_junction_network};
    use qec::classical::ClassicalCode;
    use qec::hgp::square_hypergraph_product;
    use qec::schedule::{max_parallel_schedule, serial_schedule};

    fn small_code() -> CssCode {
        let rep = ClassicalCode::repetition(4);
        square_hypergraph_product(&rep).expect("valid")
    }

    #[test]
    fn dynamic_executes_all_gates() {
        let code = small_code();
        let topo = baseline_grid(code.num_qubits(), 5);
        let times = OperationTimes::default();
        let round = compile_dynamic(&code, &topo, &times, &max_parallel_schedule(&code)).0;
        assert_eq!(round.num_gates, max_parallel_schedule(&code).num_gates());
        assert!(round.execution_time > 0.0);
    }

    #[test]
    fn dynamic_on_grid_roadblocks() {
        // Releasing whole timeslices onto a grid causes contention: roadblock events
        // must be observed (this is the motivating observation of the paper).
        let code = small_code();
        let topo = baseline_grid(code.num_qubits(), 5);
        let times = OperationTimes::default();
        let round = compile_dynamic(&code, &topo, &times, &max_parallel_schedule(&code)).0;
        assert!(round.roadblock_events > 0, "expected roadblocks on a grid");
        assert!(round.breakdown.roadblock_wait > 0.0);
    }

    #[test]
    fn mesh_junction_network_reduces_trap_roadblock_share() {
        // On the mesh junction network each data qubit has its own trap, so waiting
        // concentrates on junctions rather than on traps holding other data.
        let code = small_code();
        let times = OperationTimes::default();
        let mesh = mesh_junction_network(code.num_qubits(), 4);
        let round = compile_dynamic(&code, &mesh, &times, &max_parallel_schedule(&code)).0;
        assert!(round.breakdown.junction > 0.0, "paths cross junctions");
        assert_eq!(round.num_traps, code.num_qubits());
    }

    #[test]
    fn grid_dynamic_not_better_than_static_baseline() {
        // Fig. 4/6: on a grid, the dynamic policy's roadblocks make it no better (and
        // typically worse) than the greedy static baseline.
        let code = small_code();
        let topo = baseline_grid(code.num_qubits(), 5);
        let times = OperationTimes::default();
        let dynamic = compile_dynamic(&code, &topo, &times, &max_parallel_schedule(&code)).0;
        let static_ejf = compile_baseline(&code, &topo, &times, &serial_schedule(&code)).0;
        assert!(
            dynamic.execution_time >= 0.5 * static_ejf.execution_time,
            "dynamic-on-grid ({}) should not dominate the static baseline ({})",
            dynamic.execution_time,
            static_ejf.execution_time
        );
    }
}
