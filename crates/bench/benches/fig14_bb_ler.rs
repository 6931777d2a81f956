//! Fig. 14 — logical error rate of Cyclone (C) vs the baseline (B) for the bivariate
//! bicycle codes across physical error rates.

use bench::{error_rate_grid, ms, sci, Table};
use cyclone::experiments::ler_comparison;

fn main() {
    bench::runner::figure(
        "fig14_bb_ler",
        "Fig. 14: Cyclone (C) vs baseline (B) logical error rate — BB codes",
        |ctx| {
            let codes = bench::bb_codes(ctx.full);
            let rows = ler_comparison("fig14_bb_ler", &codes, &error_rate_grid(), &ctx.sweep);
            let mut table = Table::new(&[
                "code",
                "p",
                "B latency (ms)",
                "C latency (ms)",
                "B LER",
                "C LER",
                "improvement",
            ]);
            for r in rows {
                table.row(vec![
                    r.code.clone(),
                    sci(r.p),
                    ms(r.baseline_latency),
                    ms(r.cyclone_latency),
                    sci(r.baseline_ler.ler),
                    sci(r.cyclone_ler.ler),
                    format!("{:.1}x", r.improvement()),
                ]);
            }
            table
        },
    );
}
