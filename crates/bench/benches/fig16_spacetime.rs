//! Fig. 16 — relative spacetime cost (traps × execution time × ancilla qubits) of the
//! baseline grid vs base Cyclone for every code in the catalog.

use bench::Table;
use cyclone::experiments::fig16_spacetime;
use qccd::timing::OperationTimes;

fn main() {
    bench::runner::figure(
        "fig16_spacetime",
        "Fig. 16: spacetime cost (traps x execution time x ancillas), baseline vs Cyclone",
        |ctx| {
            let codes: Vec<_> = bench::catalog(ctx.full)
                .into_iter()
                .map(|e| e.code)
                .collect();
            let rows = fig16_spacetime(&codes, &OperationTimes::default());
            let mut table = Table::new(&[
                "code",
                "baseline spacetime",
                "cyclone spacetime",
                "improvement",
            ]);
            for r in rows {
                table.row(vec![
                    r.code,
                    format!("{:.3e}", r.baseline_spacetime),
                    format!("{:.3e}", r.cyclone_spacetime),
                    format!("{:.1}x", r.improvement),
                ]);
            }
            table
        },
    );
}
