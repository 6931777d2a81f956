//! Fig. 15 — logical error rate of Cyclone (C) vs the baseline (B) for the hypergraph
//! product codes across physical error rates.

use bench::{error_rate_grid, ms, sci, Table};
use cyclone::experiments::ler_comparison;

fn main() {
    bench::runner::figure(
        "fig15_hgp_ler",
        "Fig. 15: Cyclone (C) vs baseline (B) logical error rate — HGP codes",
        |ctx| {
            let codes = bench::hgp_codes(ctx.full);
            let rows = ler_comparison("fig15_hgp_ler", &codes, &error_rate_grid(), &ctx.sweep);
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
