//! Policy-level coverage of the grid/mesh/ring codesigns: the seven (topology,
//! schedule, policy) triples the evaluation compiles with this crate's policies.
//! The `cyclone` crate's `registry::Codesign` enum names them, next to Cyclone.

#[cfg(test)]
mod tests {
    use crate::compiler::baseline::compile_baseline;
    use crate::compiler::dynamic::compile_dynamic;
    use crate::compiler::variants::{compile_baseline2, compile_baseline3};
    use crate::timing::OperationTimes;
    use crate::topology::{alternate_grid, baseline_grid, mesh_junction_network, ring};
    use qec::classical::ClassicalCode;
    use qec::hgp::square_hypergraph_product;
    use qec::schedule::{max_parallel_schedule, serial_schedule};

    #[test]
    fn every_qccd_codesign_covers_all_gates() {
        // Each stabilizer touches each qubit of its support exactly once.
        let code = square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid");
        let times = OperationTimes::default();
        let (n, cap) = (code.num_qubits(), 5);
        let (serial, parallel) = (serial_schedule(&code), max_parallel_schedule(&code));
        let grid = baseline_grid(n, cap);
        let a = code.num_x_stabilizers().max(code.num_z_stabilizers());
        let rounds = [
            ("baseline", compile_baseline(&code, &grid, &times, &serial)),
            (
                "baseline2",
                compile_baseline2(&code, &grid, &times, &serial),
            ),
            (
                "baseline3",
                compile_baseline3(&code, &grid, &times, &serial),
            ),
            (
                "dynamic-grid",
                compile_dynamic(&code, &grid, &times, &parallel),
            ),
            (
                "dynamic-mesh",
                compile_dynamic(&code, &mesh_junction_network(n, cap), &times, &parallel),
            ),
            (
                "alternate-grid",
                compile_baseline(&code, &alternate_grid(n, cap), &times, &serial),
            ),
            (
                "ring-static",
                compile_baseline(&code, &ring(a, n.div_ceil(a) + 2), &times, &serial),
            ),
        ];
        let expected: usize = code.stabilizers().iter().map(|s| s.support.len()).sum();
        for (label, (round, _)) in rounds {
            assert_eq!(round.num_gates, expected, "{label} missed gates");
        }
    }
}
