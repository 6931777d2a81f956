//! Spatial and control-overhead summary (§IV spatial claims and §VI wiring
//! discussion): traps, junctions, DAC channel groups, and ancilla qubits used by the
//! baseline grid vs base Cyclone.

use bench::Table;
use cyclone::experiments::spatial_summary;

fn main() {
    bench::runner::figure(
        "spatial_summary",
        "Spatial summary: baseline (B) vs Cyclone (C)",
        |ctx| {
            let codes: Vec<_> = bench::catalog(ctx.full)
                .into_iter()
                .map(|e| e.code)
                .collect();
            let rows = spatial_summary(&codes);
            let mut table = Table::new(&[
                "code",
                "B traps",
                "B junctions",
                "B DACs",
                "B ancillas",
                "C traps",
                "C junctions",
                "C DACs",
                "C ancillas",
            ]);
            for r in rows {
                table.row(vec![
                    r.code,
                    r.baseline_traps.to_string(),
                    r.baseline_junctions.to_string(),
                    r.baseline_dacs.to_string(),
                    r.baseline_ancillas.to_string(),
                    r.cyclone_traps.to_string(),
                    r.cyclone_junctions.to_string(),
                    r.cyclone_dacs.to_string(),
                    r.cyclone_ancillas.to_string(),
                ]);
            }
            table
        },
    );
}
