//! Fig. 18 — sensitivity to uniformly reducing every operation time (gates,
//! shuttling, measurement and preparation) by a fixed percentage on the
//! `[[225,9,6]]` code at `p = 10⁻⁴`. The paper reduces gate and shuttle times
//! only.

use bench::{ms, sci, sensitivity_code, Table};
use cyclone::experiments::fig18_op_time_sweep;

fn main() {
    let code = sensitivity_code();
    let title = format!(
        "Fig. 18: sensitivity to uniformly faster gates and shuttling ({})",
        code.descriptor()
    );
    bench::runner::figure("fig18_op_time_sweep", &title, |ctx| {
        let rows = fig18_op_time_sweep(&code, &ctx.sweep);
        let mut table = Table::new(&[
            "reduction",
            "baseline lat (ms)",
            "cyclone lat (ms)",
            "baseline LER",
            "cyclone LER",
        ]);
        for r in rows {
            table.row(vec![
                format!("{:.0}%", r.reduction * 100.0),
                ms(r.baseline_latency),
                ms(r.cyclone_latency),
                sci(r.baseline_ler.ler),
                sci(r.cyclone_ler.ler),
            ]);
        }
        table
    });
}
