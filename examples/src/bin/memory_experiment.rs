//! Hardware-aware memory experiment: sweep the physical error rate and print the
//! logical error rate of the baseline grid and of Cyclone for a chosen code — the
//! workload behind Figs. 14 and 15 of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p examples --bin memory_experiment [code] [shots]
//! ```
//!
//! where `code` is one of `bb72`, `bb90`, `bb108`, `bb144`, `hgp100`, `hgp225`
//! (default `bb72`) and `shots` is the Monte-Carlo shot count per point
//! (default 1000).

use cyclone::experiments::ler_comparison;
use cyclone::SweepOptions;
use decoder::memory::MemoryConfig;
use qec::codes;
use qec::CssCode;

fn code_by_name(name: &str) -> Result<CssCode, Box<dyn std::error::Error>> {
    let code = match name {
        "bb72" => codes::bb_72_12_6()?,
        "bb90" => codes::bb_90_8_10()?,
        "bb108" => codes::bb_108_8_10()?,
        "bb144" => codes::bb_144_12_12()?,
        "hgp100" => codes::hgp_100()?,
        "hgp225" => codes::hgp_225_9_6()?,
        other => return Err(format!("unknown code `{other}`").into()),
    };
    Ok(code)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("bb72");
    let shots: usize = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(1_000);
    let code = code_by_name(name)?;
    let config = MemoryConfig::with_shots(shots);
    let ps = [1e-4, 2e-4, 5e-4, 1e-3, 2e-3];

    println!("memory experiment for {code} with {shots} shots per point\n");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "p", "baseline LER", "cyclone LER", "baseline lat", "cyclone lat", "improvement"
    );
    let rows = ler_comparison(
        "memory_experiment",
        std::slice::from_ref(&code),
        &ps,
        &SweepOptions::ephemeral(config),
    );
    for row in rows {
        println!(
            "{:>10.1e} {:>14.3e} {:>14.3e} {:>12.2}ms {:>12.2}ms {:>11.1}x",
            row.p,
            row.baseline_ler.ler,
            row.cyclone_ler.ler,
            row.baseline_latency * 1e3,
            row.cyclone_latency * 1e3,
            row.improvement()
        );
    }
    Ok(())
}
