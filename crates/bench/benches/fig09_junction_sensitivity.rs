//! Fig. 9 — logical error rate of the mesh junction network as junction crossing times
//! are reduced, against the baseline grid reference (the paper finds the crossover at
//! roughly a 70% reduction).

use bench::runner::FigureReport;
use bench::{ms, sci, sensitivity_code, Table};
use cyclone::experiments::fig9_junction_sensitivity;

fn main() {
    let code = sensitivity_code();
    let title = format!(
        "Fig. 9: mesh-junction-network sensitivity to junction crossing time ({})",
        code.descriptor()
    );
    bench::runner::figure("fig09_junction_sensitivity", &title, |ctx| {
        let reductions = [0.0, 0.3, 0.5, 0.7, 0.9];
        let rows = fig9_junction_sensitivity(&code, 5e-4, &reductions, &ctx.sweep);
        let mut table = Table::new(&[
            "junction time reduction",
            "mesh exec (ms)",
            "mesh LER",
            "baseline LER",
        ]);
        for r in &rows {
            table.row(vec![
                format!("{:.0}%", r.reduction * 100.0),
                ms(r.mesh_execution_time),
                sci(r.mesh_ler.ler),
                sci(r.baseline_ler.ler),
            ]);
        }
        let note = match rows.iter().find(|r| r.mesh_ler.ler <= r.baseline_ler.ler) {
            Some(cross) => format!(
                "mesh network first beats the baseline at a {:.0}% junction-time reduction",
                cross.reduction * 100.0
            ),
            None => "mesh network never beats the baseline in this sweep".to_string(),
        };
        FigureReport::with_notes(table, vec![note])
    });
}
