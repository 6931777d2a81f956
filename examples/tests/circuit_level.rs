//! Smoke test pinning the `circuit_level` example's end-to-end flow: the
//! Pauli-frame simulator runs noisy syndrome-extraction rounds of `[[72,12,6]]`,
//! BP+OSD decodes the measured syndromes, and the residual frames are checked for
//! logical errors.

use examples::pauli::circuit_level_failures;
use qec::codes::bb_72_12_6;
use qec::schedule::parallel_xz_schedule;

#[test]
fn circuit_level_flow_reproduces_its_failure_count() {
    let code = bb_72_12_6().expect("the named [[72,12,6]] construction is deterministic");
    let schedule = parallel_xz_schedule(&code);
    assert_eq!(schedule.depth(), 12);
    assert_eq!(schedule.num_gates(), 432);

    // The example's operating point (p = 2e-3, seed 2026) at 200 shots: the
    // count `circuit_level 200` prints.
    let failures = circuit_level_failures(&code, &schedule, 2e-3, 200, 2026);
    assert_eq!(failures, 58);
    // Rerunning with the same seed reproduces the count.
    assert_eq!(
        circuit_level_failures(&code, &schedule, 2e-3, 200, 2026),
        failures
    );
}
