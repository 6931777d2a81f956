//! Quickstart: build a bivariate bicycle code, compile it onto the baseline grid and
//! onto Cyclone, and compare execution time, spacetime cost, and logical error rate.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p examples --bin quickstart
//! ```

use cyclone::Codesign;
use decoder::memory::{logical_error_rate, MemoryConfig};
use qccd::timing::OperationTimes;
use qec::codes::bb_72_12_6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let code = bb_72_12_6()?;
    println!("code: {code}");
    println!(
        "  {} data qubits, {} stabilizers (|X|={}, |Z|={}), max weight {}",
        code.num_qubits(),
        code.num_stabilizers(),
        code.num_x_stabilizers(),
        code.num_z_stabilizers(),
        code.max_x_weight()
    );

    let times = OperationTimes::default();
    let baseline = Codesign::Baseline.compile(&code, &times);
    let cyclone = Codesign::Cyclone.compile(&code, &times);

    println!("\nsyndrome-extraction round:");
    for round in [&baseline, &cyclone] {
        println!(
            "  {:<40} {:>8.2} ms   traps {:>4}  ancillas {:>4}  roadblocks {:>5}",
            round.codesign,
            round.execution_time * 1e3,
            round.num_traps,
            round.num_ancilla,
            round.roadblock_events
        );
    }
    println!(
        "\n  speedup: {:.1}x    spacetime improvement: {:.1}x",
        baseline.execution_time / cyclone.execution_time,
        baseline.spacetime_cost() / cyclone.spacetime_cost()
    );

    let p = 2e-3;
    let config = MemoryConfig::with_shots(1_000);
    let baseline_ler = logical_error_rate(&code, p, baseline.execution_time, &config);
    let cyclone_ler = logical_error_rate(&code, p, cyclone.execution_time, &config);
    println!(
        "\nlogical error rate at p = {p:.0e} ({} shots):",
        config.shots
    );
    println!(
        "  baseline: {:.3e}  (latency {:.1} ms)",
        baseline_ler.ler,
        baseline.execution_time * 1e3
    );
    println!(
        "  cyclone:  {:.3e}  (latency {:.1} ms)",
        cyclone_ler.ler,
        cyclone.execution_time * 1e3
    );
    println!(
        "  improvement: {:.1}x lower logical error rate",
        baseline_ler.ler / cyclone_ler.ler
    );
    Ok(())
}
