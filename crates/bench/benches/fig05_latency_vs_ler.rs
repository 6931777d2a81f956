//! Fig. 5 — logical error rate improvement when the baseline's compiled latency is
//! divided by 1x / 2x / 4x, for the HGP codes, at fixed physical error rate
//! `p = 5·10⁻⁴`.

use bench::{ms, sci, Table};
use cyclone::experiments::{fig5_latency_vs_ler, FIG5_P};

fn main() {
    let title = format!("Fig. 5: baseline LER vs latency reduction at p = {FIG5_P:e} (HGP codes)");
    bench::runner::figure("fig05_latency_vs_ler", &title, |ctx| {
        let codes = bench::hgp_codes(ctx.full);
        let rows = fig5_latency_vs_ler(&codes, &ctx.sweep);
        let mut table = Table::new(&["code", "speedup", "latency (ms)", "LER", "shots"]);
        for r in rows {
            table.row(vec![
                r.code,
                format!("{:.0}x", r.speedup),
                ms(r.latency),
                sci(r.ler.ler),
                r.ler.shots.to_string(),
            ]);
        }
        table
    });
}
