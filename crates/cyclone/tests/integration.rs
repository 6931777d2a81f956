//! Cross-crate integration tests: codes → schedules → hardware compilation → noise →
//! decoding → logical error rates, exercised end to end the way the paper's evaluation
//! uses them.

use cyclone::experiments::{fig16_spacetime, fig20_compiler_comparison, spatial_summary};
use cyclone::{Codesign, CycloneCodesign, CycloneConfig};
use decoder::memory::{logical_error_rate, MemoryConfig};
use noise::{HardwareNoiseModel, NoiseParameters};
use qccd::compiler::baseline::compile_baseline;
use qccd::compiler::dynamic::compile_dynamic;
use qccd::timing::OperationTimes;
use qccd::topology::baseline_grid;
use qec::classical::ClassicalCode;
use qec::codes::{bb_72_12_6, hgp_225_9_6};
use qec::hgp::square_hypergraph_product;
use qec::schedule::{max_parallel_schedule, serial_schedule};

fn quick_config() -> MemoryConfig {
    MemoryConfig {
        shots: 200,
        bp_iterations: 20,
        threads: 4,
        seed: 99,
    }
}

#[test]
fn end_to_end_cyclone_beats_baseline_on_bb72() {
    let code = bb_72_12_6().expect("valid code");
    let times = OperationTimes::default();
    let base = Codesign::Baseline.compile(&code, &times);
    let cyc = Codesign::Cyclone.compile(&code, &times);

    // Temporal claim: Cyclone is faster.
    assert!(
        cyc.execution_time < base.execution_time,
        "cyclone {} s should be faster than baseline {} s",
        cyc.execution_time,
        base.execution_time
    );
    // Spatial claims: fewer traps, half the ancillas, constant DACs, no roadblocks.
    assert!(cyc.num_traps < base.num_traps);
    assert_eq!(cyc.num_ancilla * 2, base.num_ancilla);
    assert_eq!(cyc.roadblock_events, 0);
    assert!(
        base.roadblock_events > 0,
        "the baseline should hit roadblocks"
    );

    // Logical-error claim: at a fixed p in the interesting regime Cyclone's LER is
    // no worse than the baseline's (with modest statistics we only require <=).
    let cfg = quick_config();
    let p = 1e-3;
    let base_ler = logical_error_rate(&code, p, base.execution_time, &cfg);
    let cyc_ler = logical_error_rate(&code, p, cyc.execution_time, &cfg);
    assert!(
        cyc_ler.ler <= base_ler.ler * 1.25 + 1e-9,
        "cyclone LER {} should not exceed baseline LER {}",
        cyc_ler.ler,
        base_ler.ler
    );
}

#[test]
fn full_pipeline_on_small_hgp_surface_like_code() {
    // HGP of a repetition code = surface-like code; small enough to run the whole
    // pipeline quickly in debug mode.
    let code = square_hypergraph_product(&ClassicalCode::repetition(4)).expect("valid");
    let times = OperationTimes::default();
    let grid = baseline_grid(code.num_qubits(), 5);
    let (static_round, _) = compile_baseline(&code, &grid, &times, &serial_schedule(&code));
    let (dynamic_round, _) = compile_dynamic(&code, &grid, &times, &max_parallel_schedule(&code));
    let (cyc, _) = CycloneCodesign::new(&code, CycloneConfig::base()).compile(&times);

    assert!(static_round.execution_time > 0.0);
    assert!(dynamic_round.execution_time > 0.0);
    assert!(cyc.execution_time > 0.0);
    // Every compiler executes the same number of entangling gates.
    assert_eq!(static_round.num_gates, dynamic_round.num_gates);
    assert_eq!(static_round.num_gates, cyc.num_gates);

    // Couple the latency to the noise model and check the decoherence term reacts.
    let p = 5e-4;
    let slow = HardwareNoiseModel::new(NoiseParameters::new(p), static_round.execution_time);
    let fast = HardwareNoiseModel::new(NoiseParameters::new(p), cyc.execution_time);
    assert!(slow.effective_error_rate() > fast.effective_error_rate());
}

#[test]
fn spacetime_improvement_holds_for_both_families() {
    let times = OperationTimes::default();
    let codes = vec![bb_72_12_6().expect("valid")];
    let rows = fig16_spacetime(&codes, &times);
    for row in rows {
        assert!(
            row.improvement > 2.0,
            "{}: expected a clear spacetime win, got {:.2}x",
            row.code,
            row.improvement
        );
    }
}

#[test]
fn compiler_comparison_shows_cyclone_most_parallel() {
    let code = bb_72_12_6().expect("valid");
    let rows = fig20_compiler_comparison(&code, &OperationTimes::default());
    let cyclone = rows
        .iter()
        .find(|r| r.compiler == "Cyclone")
        .expect("present");
    let baseline = rows
        .iter()
        .find(|r| r.compiler.starts_with("Baseline ("))
        .expect("present");
    assert!(
        cyclone.execution_time < baseline.execution_time,
        "Cyclone should realize a faster schedule"
    );
}

#[test]
fn spatial_summary_matches_topologies() {
    let code = hgp_225_9_6().expect("valid");
    let rows = spatial_summary(std::slice::from_ref(&code));
    let r = &rows[0];
    // Baseline: one trap per data qubit on the 15x15 grid.
    assert_eq!(r.baseline_traps, 225);
    // Cyclone base form: m/2 = 108 traps, 108 ancillas, constant DAC count.
    assert_eq!(r.cyclone_traps, 108);
    assert_eq!(r.cyclone_ancillas, 108);
    assert_eq!(r.cyclone_dacs, 1);
    assert_eq!(r.baseline_dacs, 225);
}

#[test]
fn condensed_cyclone_trades_space_for_time() {
    let code = hgp_225_9_6().expect("valid");
    let times = OperationTimes::default();
    let base = CycloneCodesign::new(&code, CycloneConfig::base());
    let condensed = CycloneCodesign::new(&code, CycloneConfig::with_traps(27));
    let (base_round, _) = base.compile(&times);
    let (condensed_round, _) = condensed.compile(&times);
    assert!(condensed.num_traps() < base.num_traps());
    assert!(condensed.trap_capacity() > base.trap_capacity());
    // Both execute the full circuit.
    assert_eq!(base_round.num_gates, condensed_round.num_gates);
}
