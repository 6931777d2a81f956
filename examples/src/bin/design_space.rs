//! Design-space exploration for the `[[225,9,6]]` hypergraph product code: Cyclone
//! trap-count/capacity sweep (Fig. 13), the software × hardware confusion matrix
//! (Fig. 6), and the spatial/control-overhead summary of §IV.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p examples --bin design_space
//! ```

use cyclone::experiments::{fig6_confusion_matrix, spatial_summary};
use cyclone::{best_configuration, default_trap_counts, trap_capacity_sweep};
use qec::codes::hgp_225_9_6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let code = hgp_225_9_6()?;

    println!("== Cyclone trap/capacity sweep for {code} ==");
    println!("{:>8} {:>10} {:>16}", "traps", "capacity", "exec time (ms)");
    let points = trap_capacity_sweep(&code, &default_trap_counts(&code));
    for p in &points {
        println!(
            "{:>8} {:>10} {:>16.2}",
            p.num_traps,
            p.trap_capacity,
            p.execution_time * 1e3
        );
    }
    if let Some(best) = best_configuration(&points) {
        println!(
            "best configuration: {} traps of capacity {} ({:.2} ms per round)",
            best.num_traps,
            best.trap_capacity,
            best.execution_time * 1e3
        );
    }

    println!("\n== software x hardware confusion matrix (execution time, ms) ==");
    let m = fig6_confusion_matrix(&code);
    println!("{:>24} {:>12} {:>12}", "", "grid", "circle");
    println!(
        "{:>24} {:>12.1} {:>12.1}",
        "static (EJF DAG)",
        m.grid_static * 1e3,
        m.circle_static * 1e3
    );
    println!(
        "{:>24} {:>12.1} {:>12.1}",
        "dynamic (timeslices)",
        m.grid_dynamic * 1e3,
        m.circle_dynamic * 1e3
    );

    println!("\n== spatial / control summary ==");
    let rows = spatial_summary(std::slice::from_ref(&code));
    for r in rows {
        println!("code {}:", r.code);
        println!(
            "  baseline: {:>4} traps, {:>4} junctions, {:>4} DACs, {:>4} ancillas",
            r.baseline_traps, r.baseline_junctions, r.baseline_dacs, r.baseline_ancillas
        );
        println!(
            "  cyclone:  {:>4} traps, {:>4} junctions, {:>4} DACs, {:>4} ancillas",
            r.cyclone_traps, r.cyclone_junctions, r.cyclone_dacs, r.cyclone_ancillas
        );
        println!(
            "  savings:  {:.1}x traps, {:.1}x ancillas, {:.0}x DACs",
            r.baseline_traps as f64 / r.cyclone_traps as f64,
            r.baseline_ancillas as f64 / r.cyclone_ancillas as f64,
            r.baseline_dacs as f64 / r.cyclone_dacs as f64
        );
    }
    Ok(())
}
