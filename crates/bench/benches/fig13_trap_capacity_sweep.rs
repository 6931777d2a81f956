//! Fig. 13 — Cyclone sensitivity to the trap count / ion capacity trade-off on the
//! `[[225,9,6]]` code at `p = 10⁻⁴` ("tight" architectures).

use bench::runner::FigureReport;
use bench::{ms, sci, sensitivity_code, Table};
use cyclone::default_trap_counts;
use cyclone::experiments::fig13_trap_capacity_sweep;

fn main() {
    let code = sensitivity_code();
    let title = format!(
        "Fig. 13: Cyclone trap/ion-capacity sensitivity ({})",
        code.descriptor()
    );
    bench::runner::figure("fig13_trap_capacity_sweep", &title, |ctx| {
        let counts = default_trap_counts(&code);
        let rows = fig13_trap_capacity_sweep(&code, 1e-4, &counts, &ctx.sweep);
        let mut table = Table::new(&["traps", "capacity", "exec (ms)", "LER @ p=1e-4"]);
        for r in &rows {
            table.row(vec![
                r.num_traps.to_string(),
                r.trap_capacity.to_string(),
                ms(r.execution_time),
                sci(r.ler.ler),
            ]);
        }
        let mut notes = Vec::new();
        if let Some(best) = rows
            .iter()
            .min_by(|a, b| a.execution_time.total_cmp(&b.execution_time))
        {
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
