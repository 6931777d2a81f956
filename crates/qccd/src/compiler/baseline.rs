//! The baseline compiler: greedy cluster mapping + static earliest-job-first (EJF)
//! scheduling over the circuit DAG, modelled after QCCDSim (§II-B2, Fig. 4b).
//!
//! The schedule is read as a dependency DAG: two gates conflict when they share a data
//! qubit or an ancilla, and the later gate may not start before the earlier one
//! completes. Gates are released to the shuttling simulator in earliest-ready-first
//! order; resource contention (busy traps, junction crossings, roadblocks) then
//! determines the realized execution time.

use crate::compiler::sim::{IdleExposure, ShuttleSim};
use crate::compiler::CompiledRound;
use crate::hardware::Topology;
use crate::placement::{greedy_cluster_placement, Placement};
use crate::timing::OperationTimes;
use qec::schedule::{GateOp, Schedule};
use qec::CssCode;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Orders a flat gate list by the static EJF policy and executes it on the
/// simulator, returning the compiled round plus its per-qubit [`IdleExposure`].
///
/// `gates` must list every gate of one syndrome-extraction round; dependencies are
/// derived from shared qubits in listing order (the "interaction DAG" of the paper).
pub(crate) fn run_static_ejf_profiled(
    code: &CssCode,
    topology: &Topology,
    placement: &Placement,
    times: &OperationTimes,
    gates: &[GateOp],
    codesign: String,
) -> (CompiledRound, IdleExposure) {
    let mut sim = ShuttleSim::new(code, topology, placement, times);

    // Dependency edges: for each qubit (data or ancilla, indexed by simulator ion
    // id), gates touching it are totally ordered by their position in the listing.
    let n = gates.len();
    let ions: Vec<(usize, usize)> = gates
        .iter()
        .map(|g| (sim.data_ion(g.data), sim.ancilla_ion(g.kind, g.stabilizer)))
        .collect();
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut last_use: Vec<Option<usize>> = vec![None; sim.num_ions()];
    for (i, &(data, ancilla)) in ions.iter().enumerate() {
        deps[i].extend(last_use[data]);
        deps[i].extend(last_use[ancilla]);
        last_use[data] = Some(i);
        last_use[ancilla] = Some(i);
    }
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut missing: Vec<usize> = vec![0; n];
    for (i, ds) in deps.iter().enumerate() {
        missing[i] = ds.len();
        for &d in ds {
            dependents[d].push(i);
        }
    }

    // EJF: release gates in order of their dependency-ready time.
    let mut ready_time: Vec<f64> = vec![0.0; n];
    let mut completion: Vec<f64> = vec![0.0; n];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let to_key = |t: f64| (t * 1e12) as u64;
    for (i, &missing_deps) in missing.iter().enumerate() {
        if missing_deps == 0 {
            heap.push(Reverse((to_key(0.0), i)));
        }
    }
    let mut processed = 0usize;
    while let Some(Reverse((_, i))) = heap.pop() {
        let g = gates[i];
        let end = sim.execute_gate(g.kind, g.stabilizer, g.data, ready_time[i]);
        completion[i] = end;
        processed += 1;
        for &j in &dependents[i] {
            ready_time[j] = ready_time[j].max(end);
            missing[j] -= 1;
            if missing[j] == 0 {
                heap.push(Reverse((to_key(ready_time[j]), j)));
            }
        }
    }
    assert_eq!(
        processed, n,
        "dependency graph of the gate list must be acyclic"
    );

    // Measure every gated ancilla after its last gate.
    let mut last_gate_end: Vec<Option<f64>> = vec![None; sim.num_ions()];
    for (&(_, ancilla), &end) in ions.iter().zip(&completion) {
        let e = last_gate_end[ancilla].get_or_insert(0.0);
        *e = e.max(end);
    }
    sim.measure_ancillas(&last_gate_end);

    let round = CompiledRound {
        codesign,
        execution_time: sim.horizon(),
        breakdown: sim.breakdown(),
        num_gates: n,
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

/// Compiles one round of syndrome extraction with the baseline policy
/// (greedy cluster mapping + static EJF) onto the given topology.
///
/// The gate listing order is taken from `schedule` flattened slice-by-slice, which for
/// the baseline is normally the serial schedule (the DAG the paper's baseline reads
/// from its input circuit).
pub fn compile_baseline(
    code: &CssCode,
    topology: &Topology,
    times: &OperationTimes,
    schedule: &Schedule,
) -> CompiledRound {
    compile_baseline_profiled(code, topology, times, schedule).0
}

/// [`compile_baseline`] plus the per-qubit [`IdleExposure`] of the compiled round
/// (the input `noise::ErrorChannel::from_schedule` consumes).
pub fn compile_baseline_profiled(
    code: &CssCode,
    topology: &Topology,
    times: &OperationTimes,
    schedule: &Schedule,
) -> (CompiledRound, IdleExposure) {
    let placement = greedy_cluster_placement(code, topology);
    compile_baseline_with_placement_profiled(code, topology, times, schedule, &placement)
}

/// Same as [`compile_baseline`] but with an externally chosen placement (used by the
/// placement ablations and the loose-capacity sensitivity study).
pub fn compile_baseline_with_placement(
    code: &CssCode,
    topology: &Topology,
    times: &OperationTimes,
    schedule: &Schedule,
    placement: &Placement,
) -> CompiledRound {
    compile_baseline_with_placement_profiled(code, topology, times, schedule, placement).0
}

/// [`compile_baseline_with_placement`] plus the per-qubit [`IdleExposure`] — the
/// single core every baseline `compile_*` variant delegates to, so the gate
/// flattening and codesign label exist in exactly one place.
pub fn compile_baseline_with_placement_profiled(
    code: &CssCode,
    topology: &Topology,
    times: &OperationTimes,
    schedule: &Schedule,
    placement: &Placement,
) -> (CompiledRound, IdleExposure) {
    let gates: Vec<GateOp> = schedule.slices().iter().flatten().copied().collect();
    run_static_ejf_profiled(
        code,
        topology,
        placement,
        times,
        &gates,
        format!("{} + static EJF", topology.name()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{baseline_grid, ring};
    use qec::classical::ClassicalCode;
    use qec::hgp::square_hypergraph_product;
    use qec::schedule::serial_schedule;

    fn small_code() -> CssCode {
        let rep = ClassicalCode::repetition(3);
        square_hypergraph_product(&rep).expect("valid")
    }

    #[test]
    fn baseline_executes_all_gates() {
        let code = small_code();
        let topo = baseline_grid(code.num_qubits(), 5);
        let times = OperationTimes::default();
        let round = compile_baseline(&code, &topo, &times, &serial_schedule(&code));
        assert_eq!(round.num_gates, serial_schedule(&code).num_gates());
        assert!(round.execution_time > 0.0);
        assert!(round.breakdown.gate > 0.0);
        assert!(round.breakdown.measurement > 0.0);
    }

    #[test]
    fn baseline_parallelism_is_bounded_by_work() {
        let code = small_code();
        let topo = baseline_grid(code.num_qubits(), 5);
        let times = OperationTimes::default();
        let round = compile_baseline(&code, &topo, &times, &serial_schedule(&code));
        // Execution time can never be smaller than the largest single component / the
        // trap count, and never larger than the serialized total.
        assert!(round.execution_time <= round.breakdown.serialized_total() + 1e-9);
        assert!(round.effective_parallelism() >= 1.0);
    }

    #[test]
    fn faster_operations_reduce_execution_time() {
        let code = small_code();
        let topo = baseline_grid(code.num_qubits(), 5);
        let times = OperationTimes::default();
        let slow = compile_baseline(&code, &topo, &times, &serial_schedule(&code));
        let fast_times = times.scaled(0.5);
        let fast = compile_baseline(&code, &topo, &fast_times, &serial_schedule(&code));
        assert!(fast.execution_time < slow.execution_time);
    }

    #[test]
    fn ring_with_static_ejf_is_slow() {
        // The Fig. 6 confusion matrix: a circle topology with the greedy static
        // schedule is *worse* than the grid because every shuttle goes the long way
        // around and serializes.
        let code = small_code();
        let times = OperationTimes::default();
        let grid = compile_baseline(
            &code,
            &baseline_grid(code.num_qubits(), 5),
            &times,
            &serial_schedule(&code),
        );
        let m_half = code.num_stabilizers() / 2;
        let capacity = code.num_qubits().div_ceil(m_half) + 2;
        let circle = compile_baseline(
            &code,
            &ring(m_half, capacity),
            &times,
            &serial_schedule(&code),
        );
        assert!(
            circle.execution_time > grid.execution_time * 0.5,
            "uncoordinated ring should not dramatically beat the grid: ring {} vs grid {}",
            circle.execution_time,
            grid.execution_time
        );
    }
}
