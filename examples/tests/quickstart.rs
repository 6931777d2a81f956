//! Smoke test pinning the `quickstart` example's end-to-end flow — and with it the
//! paper's headline claim: compiling `[[72,12,6]]` onto Cyclone yields a faster,
//! roadblock-free syndrome-extraction round than the baseline 2D grid.

use cyclone::standard_registry;
use decoder::memory::{logical_error_rate, MemoryConfig};
use qccd::timing::OperationTimes;
use qec::codes::bb_72_12_6;

#[test]
fn quickstart_flow_runs_end_to_end_with_zero_roadblocks() {
    let code = bb_72_12_6().expect("the named [[72,12,6]] construction is deterministic");
    assert_eq!(code.num_qubits(), 72);

    let times = OperationTimes::default();
    let registry = standard_registry();
    let baseline = registry.compile("baseline", &code, &times);
    let cyclone = registry.compile("cyclone", &code, &times);

    // The headline claim: Cyclone is roadblock-free; the baseline grid is not.
    assert_eq!(
        cyclone.roadblock_events, 0,
        "Cyclone must never hit a roadblock"
    );
    assert!(
        baseline.roadblock_events > 0,
        "the baseline grid should roadblock"
    );

    // Temporal and spatial wins reported by the quickstart output.
    assert!(cyclone.execution_time > 0.0);
    assert!(
        cyclone.execution_time < baseline.execution_time,
        "Cyclone must be faster"
    );
    assert!(cyclone.spacetime_cost() < baseline.spacetime_cost());
    assert!(cyclone.num_traps < baseline.num_traps);
    assert_eq!(
        cyclone.num_ancilla * 2,
        baseline.num_ancilla,
        "Cyclone halves the ancillas"
    );

    // The LER comparison at the quickstart's operating point must complete and
    // stay deterministic for the fixed seed (fewer shots than the example binary
    // so the suite stays fast).
    let config = MemoryConfig {
        shots: 200,
        bp_iterations: 20,
        threads: 0,
        seed: 0xC1C1_0DE5,
    };
    let p = 2e-3;
    let baseline_ler = logical_error_rate(&code, p, baseline.execution_time, &config);
    let cyclone_ler = logical_error_rate(&code, p, cyclone.execution_time, &config);
    assert_eq!(baseline_ler.shots, 200);
    assert_eq!(cyclone_ler.shots, 200);
    assert!(cyclone_ler.ler <= 1.0 && baseline_ler.ler <= 1.0);
    // Rerunning with the same seed reproduces the estimate bit-for-bit.
    let again = logical_error_rate(&code, p, cyclone.execution_time, &config);
    assert_eq!(again.failures, cyclone_ler.failures);
}
