use cyclone::{CycloneCodesign, CycloneConfig};
use qccd::compiler::baseline::compile_baseline;
use qccd::compiler::dynamic::compile_dynamic;
use qccd::timing::OperationTimes;
use qccd::topology::{baseline_grid, ring};
use qec::codes::{bb_144_12_12, hgp_225_9_6};
use qec::schedule::{max_parallel_schedule, serial_schedule};
use std::time::Instant;

fn main() {
    let times = OperationTimes::default();
    for code in [hgp_225_9_6().unwrap(), bb_144_12_12().unwrap()] {
        println!(
            "=== {} n={} m={} ===",
            code.name(),
            code.num_qubits(),
            code.num_stabilizers()
        );
        let t0 = Instant::now();
        let grid = baseline_grid(code.num_qubits(), 5);
        let (b, _) = compile_baseline(&code, &grid, &times, &serial_schedule(&code));
        println!(
            "baseline static EJF: {:.1} ms  (shuttles {}, roadblocks {}, par {:.1})  [{:?}]",
            b.execution_time * 1e3,
            b.num_shuttles,
            b.roadblock_events,
            b.effective_parallelism(),
            t0.elapsed()
        );
        let t0 = Instant::now();
        let (d, _) = compile_dynamic(&code, &grid, &times, &max_parallel_schedule(&code));
        println!(
            "grid dynamic:        {:.1} ms  (roadblocks {}, par {:.1}) [{:?}]",
            d.execution_time * 1e3,
            d.roadblock_events,
            d.effective_parallelism(),
            t0.elapsed()
        );
        for x in [code.num_stabilizers() / 2, 64, 9] {
            let t0 = Instant::now();
            let (cy, _) = CycloneCodesign::new(&code, CycloneConfig::with_traps(x)).compile(&times);
            println!(
                "cyclone x={:3}:       {:.1} ms  [{:?}]",
                x,
                cy.execution_time * 1e3,
                t0.elapsed()
            );
        }
        // circle + static EJF (confusion matrix corner)
        let m_half = code.num_stabilizers() / 2;
        let cap = code.num_qubits().div_ceil(m_half) + 2;
        let t0 = Instant::now();
        let (c, _) = compile_baseline(&code, &ring(m_half, cap), &times, &serial_schedule(&code));
        println!(
            "ring + static EJF:   {:.1} ms [{:?}]",
            c.execution_time * 1e3,
            t0.elapsed()
        );
    }
}
