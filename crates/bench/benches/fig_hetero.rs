//! fig_hetero — channel-structured noise across the codesign registry: every
//! registered codesign's logical error rate under the uniform channel, under
//! measurement-biased channels (`--noise biased:<ratio>` adds an extra swept
//! ratio), and under the schedule-derived per-qubit channel built from the
//! codesign's own compiled idle exposure.

use bench::runner::{FigureReport, NoiseFlag};
use bench::{ms, sci, Table};
use cyclone::experiments::{fig_hetero, HETERO_DEFAULT_RATIOS};
use qec::codes::bb_72_12_6;

fn main() {
    let code = bb_72_12_6().expect("valid");
    let title = format!(
        "fig_hetero: codesign registry under uniform / biased / schedule channels ({})",
        code.descriptor()
    );
    bench::runner::figure("fig_hetero", &title, |ctx| {
        let mut ratios = HETERO_DEFAULT_RATIOS.to_vec();
        if let NoiseFlag::Biased(extra) = ctx.noise {
            if !ratios.contains(&extra) {
                ratios.push(extra);
            }
        }
        let rows = fig_hetero(&code, 2e-3, &ratios, &ctx.sweep);
        let mut table = Table::new(&["codesign", "channel", "latency (ms)", "LER", "vs uniform"]);
        let mut worst: Option<(f64, String, String)> = None;
        for r in &rows {
            let uniform_ler = rows
                .iter()
                .find(|u| u.codesign == r.codesign && u.channel == "uniform")
                .map(|u| u.ler.ler)
                .unwrap_or(f64::NAN);
            let degradation = r.ler.ler / uniform_ler;
            let tops = match &worst {
                None => true,
                Some((d, _, _)) => degradation > *d,
            };
            if r.channel != "uniform" && tops {
                worst = Some((degradation, r.codesign.clone(), r.channel.clone()));
            }
            table.row(vec![
                r.codesign.clone(),
                r.channel.clone(),
                ms(r.latency),
                sci(r.ler.ler),
                format!("{degradation:.2}x"),
            ]);
        }
        let note = match worst {
            Some((d, codesign, channel)) => {
                format!("largest degradation vs uniform: {d:.2}x ({codesign} under {channel})")
            }
            None => "no structured channel degraded any codesign".to_string(),
        };
        FigureReport::with_notes(table, vec![note])
    });
}
