//! Fig. 13 — Cyclone sensitivity to the trap count / ion capacity trade-off on the
//! `[[225,9,6]]` code at `p = 10⁻⁴` ("tight" architectures).

use bench::runner::FigureReport;
use bench::{ms, sci, sensitivity_code, Table};
use cyclone::experiments::{fig13_fastest, fig13_trap_capacity_sweep, FIG13_P};

fn main() {
    let code = sensitivity_code();
    let title = format!(
        "Fig. 13: Cyclone trap/ion-capacity sensitivity ({})",
        code.descriptor()
    );
    bench::runner::figure("fig13_trap_capacity_sweep", &title, |ctx| {
        let rows = fig13_trap_capacity_sweep(&code, &ctx.sweep);
        let ler_header = format!("LER @ p={FIG13_P:e}");
        let mut table = Table::new(&["traps", "capacity", "exec (ms)", &ler_header]);
        for r in &rows {
            table.row(vec![
                r.point.num_traps.to_string(),
                r.point.trap_capacity.to_string(),
                ms(r.point.execution_time),
                sci(r.ler.ler),
            ]);
        }
        let mut notes = Vec::new();
        if let Some(best) = fig13_fastest(&rows) {
            notes.push(format!(
                "fastest configuration: {} traps with capacity {} ({} ms)",
                best.num_traps,
                best.trap_capacity,
                ms(best.execution_time)
            ));
        }
        FigureReport::with_notes(table, notes)
    });
}
