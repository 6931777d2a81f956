//! Fig. 6 — the software (static vs dynamic) × hardware (grid vs circle) confusion
//! matrix, reported as execution times of one syndrome-extraction round.

use bench::runner::FigureReport;
use bench::{ms, sensitivity_code, Table};
use cyclone::experiments::fig6_confusion_matrix;

fn main() {
    let code = sensitivity_code();
    let title = format!(
        "Fig. 6: software x hardware confusion matrix for {} (execution time)",
        code.descriptor()
    );
    bench::runner::figure("fig06_confusion_matrix", &title, |_ctx| {
        let m = fig6_confusion_matrix(&code);
        let mut table = Table::new(&["software \\ hardware", "grid (ms)", "circle (ms)"]);
        table.row(vec![
            "static (EJF DAG)".into(),
            ms(m.grid_static),
            ms(m.circle_static),
        ]);
        table.row(vec![
            "dynamic (timeslices)".into(),
            ms(m.grid_dynamic),
            ms(m.circle_dynamic),
        ]);
        FigureReport::with_notes(
            table,
            vec![format!(
                "coordinated circle (Cyclone) is {:.1}x faster than the baseline grid+static cell",
                m.cyclone_speedup()
            )],
        )
    });
}
