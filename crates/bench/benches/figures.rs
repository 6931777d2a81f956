//! Runs the figure suite ([`bench::figures::FIGURES`]).
//!
//! `cargo bench -p bench --bench figures -- fig14_bb_ler fig_hetero --shots 50`
//! runs the named figures. With no name it runs every figure and then writes
//! `EXPERIMENTS.md` at the repository root: one row per figure with the
//! paper's claim next to the value this run measured. `--shots` scales the
//! sampling; the shot count used is recorded in the document header. The
//! prose sections after the table are kept from the existing file.

use bench::figures::{self, Figure, Report, FIGURES};
use bench::runner::{self, RunContext};

fn main() {
    let (selected, ctx) = runner::args_or_exit(figures::select);
    if !selected.is_empty() {
        for figure in selected {
            figures::run(figure, &ctx);
        }
        return;
    }
    let reports: Vec<(&Figure, Report)> = FIGURES
        .iter()
        .map(|figure| (figure, figures::run(figure, &ctx)))
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    // The sections after the table are prose, kept as written.
    let old = std::fs::read_to_string(path).unwrap_or_default();
    let prose = old.find("\n## ").map_or("", |at| &old[at..]);
    let doc = experiments_md(&ctx, &reports) + prose;
    // cyclone-lint: allow(io-unwrap) -- report write is fail-fast by design: a partial EXPERIMENTS.md must abort the run, not pass CI
    std::fs::write(path, doc).expect("write EXPERIMENTS.md");
    println!("\nwrote {path}");
}

/// The generated head of EXPERIMENTS.md: the configuration and one row per
/// figure with a claim.
fn experiments_md(ctx: &RunContext, reports: &[(&Figure, Report)]) -> String {
    let mut doc = String::new();
    doc.push_str("# EXPERIMENTS — paper vs measured\n\n");
    doc.push_str(
        "Generated by `cargo bench -p bench --bench figures`, which runs every\n\
         figure through the `cyclone::sweep` engine and then writes the\n\
         configuration and each row below from the tables it just printed. The\n\
         sections after the table are prose, kept as written.\n\n",
    );
    let sampling = match &ctx.sweep.precision {
        Some(target) => format!(
            "adaptive sampling (stop at relative std err <= {}, >= {} failures, \
             <= {} shots/point)",
            target.target_rse, target.min_failures, target.max_shots
        ),
        None => format!("fixed budget, {} shots/point", ctx.config.shots),
    };
    doc.push_str(&format!(
        "Configuration: {sampling}; seed `0xC1C1_0DE5`, BP iterations 30, {} codes.\n\n",
        bench::catalog(ctx.full).len()
    ));
    doc.push_str("| Figure | Scenario | Paper | Measured (this run) |\n");
    doc.push_str("|---|---|---|---|\n");
    for (figure, report) in reports {
        if let Some((label, claim)) = figure.paper {
            let [scenario, measured] = report
                .finding
                .as_ref()
                .expect("a figure with a claim reports its finding");
            doc.push_str(&format!(
                "| {label} | {scenario} | {claim} | {measured} |\n"
            ));
        }
    }
    doc
}
