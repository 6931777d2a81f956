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

use decoder::bp::priors_digest;
use decoder::bposd::BpOsdDecoder;
use decoder::memory::{logical_error_rate, MemoryConfig};
use decoder::pauli::{CircuitNoise, PauliFrameSimulator};
use decoder::scratch::DecoderScratch;
use qec::codes::bb_72_12_6;
use qec::schedule::parallel_xz_schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shots: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2_000);
    let code = bb_72_12_6()?;
    let schedule = parallel_xz_schedule(&code);
    let p = 2e-3;
    let noise = CircuitNoise::uniform(p);
    let sim = PauliFrameSimulator::new(&code, &schedule, noise);
    let x_decoder = BpOsdDecoder::new(code.hz(), 30);
    let z_decoder = BpOsdDecoder::new(code.hx(), 30);
    // Both sectors decode with the uniform prior 4p; one scratch per sector.
    let priors = vec![p * 4.0; code.num_qubits()];
    let key = priors_digest(&priors);
    let (mut x_scratch, mut z_scratch) = (DecoderScratch::new(), DecoderScratch::new());

    let mut rng = StdRng::seed_from_u64(2026);
    let mut failures = 0usize;
    for _ in 0..shots {
        let outcome = sim.simulate_fresh_round(&mut rng);
        // Decode the measured syndromes (single round, so the measured syndrome is
        // used directly) and apply the corrections to the residual data frame.
        x_decoder.decode_with_priors_keyed_into(&outcome.z_syndrome, &priors, key, &mut x_scratch);
        z_decoder.decode_with_priors_keyed_into(&outcome.x_syndrome, &priors, key, &mut z_scratch);
        let x_residual: Vec<bool> = outcome
            .frame
            .x_errors
            .iter()
            .zip(x_scratch.error())
            .map(|(&a, &b)| a ^ b)
            .collect();
        let z_residual: Vec<bool> = outcome
            .frame
            .z_errors
            .iter()
            .zip(z_scratch.error())
            .map(|(&a, &b)| a ^ b)
            .collect();
        if code.x_error_is_logical(&x_residual) || code.z_error_is_logical(&z_residual) {
            failures += 1;
        }
    }
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
