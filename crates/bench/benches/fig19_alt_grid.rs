//! Fig. 19 — raw execution times of the alternate grid, the baseline grid, and
//! Cyclone across the code catalog.

use bench::{ms, Table};
use cyclone::experiments::fig19_execution_times;

fn main() {
    bench::runner::figure(
        "fig19_alt_grid",
        "Fig. 19: execution time — alternate grid vs baseline vs Cyclone",
        |ctx| {
            let codes: Vec<_> = bench::catalog(ctx.full)
                .into_iter()
                .map(|e| e.code)
                .collect();
            let rows = fig19_execution_times(&codes);
            let mut table = Table::new(&[
                "code",
                "alternate grid (ms)",
                "baseline (ms)",
                "cyclone (ms)",
                "cyclone speedup",
            ]);
            for r in rows {
                table.row(vec![
                    r.code.clone(),
                    ms(r.alternate_grid),
                    ms(r.baseline),
                    ms(r.cyclone),
                    format!("{:.1}x", r.cyclone_speedup()),
                ]);
            }
            table
        },
    );
}
