//! Circuit-level validation: run the Pauli-frame simulator on a full noisy
//! syndrome-extraction circuit of the `[[72,12,6]]` BB code, decode the resulting
//! syndromes with BP+OSD, and compare the observed logical failure fraction against
//! the faster effective-error-rate model used by the benchmark harness.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p examples --bin circuit_level [shots]
//! ```

use decoder::memory::{logical_error_rate, MemoryConfig};
use examples::pauli::circuit_level_failures;
use qec::codes::bb_72_12_6;
use qec::schedule::parallel_xz_schedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shots: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2_000);
    let code = bb_72_12_6()?;
    let schedule = parallel_xz_schedule(&code);
    let p = 2e-3;
    let failures = circuit_level_failures(&code, &schedule, p, shots, 2026);
    let circuit_level_ler = failures as f64 / shots as f64;
    println!("circuit-level Pauli-frame simulation of {code}");
    println!("  physical error rate p = {p:.0e}, {shots} shots");
    println!(
        "  schedule depth: {} timeslices, {} gates",
        schedule.depth(),
        schedule.num_gates()
    );
    println!("  logical failure fraction: {circuit_level_ler:.3e} ({failures} failures)");

    // Compare against the effective-error-rate model with zero extra latency.
    let config = MemoryConfig::with_shots(shots);
    let code_capacity = logical_error_rate(&code, p, 0.0, &config);
    println!(
        "  effective-error-rate model at the same p: {:.3e}",
        code_capacity.ler
    );
    println!(
        "  (circuit-level noise is harsher because every CX propagates faults; the\n   \
         two models bracket the paper's hardware-aware noise model)"
    );
    Ok(())
}
