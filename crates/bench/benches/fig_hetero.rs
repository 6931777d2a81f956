//! fig_hetero — channel-structured noise across the codesign registry: every
//! registered codesign's logical error rate under the uniform channel, under
//! measurement-biased channels (`--noise biased:<ratio>` adds an extra swept
//! ratio), and under the schedule-derived per-qubit channel built from the
//! codesign's own compiled idle exposure.

use bench::runner::FigureReport;
use bench::{ms, sci, Table};
use cyclone::experiments::{degradation_vs_uniform, fig_hetero, worst_degradation};
use qec::codes::bb_72_12_6;

fn main() {
    let code = bb_72_12_6().expect("valid");
    let title = format!(
        "fig_hetero: codesign registry under uniform / biased / schedule channels ({})",
        code.descriptor()
    );
    bench::runner::figure("fig_hetero", &title, |ctx| {
        let rows = fig_hetero(&code, &ctx.hetero_ratios(), &ctx.sweep);
        let mut table = Table::new(&["codesign", "channel", "latency (ms)", "LER", "vs uniform"]);
        for r in &rows {
            table.row(vec![
                r.codesign.clone(),
                r.channel.clone(),
                ms(r.latency),
                sci(r.ler.ler),
                format!("{:.2}x", degradation_vs_uniform(&rows, r)),
            ]);
        }
        let note = match worst_degradation(&rows) {
            Some((d, r)) => format!(
                "largest degradation vs uniform: {d:.2}x ({} under {})",
                r.codesign, r.channel
            ),
            None => "no structured channel degraded any codesign".to_string(),
        };
        FigureReport::with_notes(table, vec![note])
    });
}
