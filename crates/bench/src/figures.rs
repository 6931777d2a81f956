//! The figure suite: every figure of the evaluation, declared once in [`FIGURES`].
//!
//! A [`Figure`] is a name (its sweep name, its `<cache dir>/<name>.table.json`
//! and the argument that selects it), a title, the paper's claim and one
//! function that builds the figure's table, its notes and its EXPERIMENTS.md
//! cells from a [`RunContext`]. The operating points, rows and findings it
//! formats are declared in `cyclone::experiments`.
//!
//! The `figures` bench target runs the list. Figure names come first, flags
//! after: `cargo bench -p bench --bench figures -- fig14_bb_ler --shots 50`
//! runs Fig. 14; with no name it runs every figure, in list order, and then
//! writes EXPERIMENTS.md from the rows it just computed.

use crate::runner::{NoiseFlag, RunContext};
use crate::{ms, sci, sensitivity_code, Table};
use cyclone::experiments::{
    degradation_vs_uniform, fig13_fastest, fig13_trap_capacity_sweep, fig16_spacetime,
    fig17_loose_capacity, fig18_op_time_sweep, fig19_execution_times, fig20_compiler_comparison,
    fig21_swap_sensitivity, fig3_parallel_speedup, fig5_latency_vs_ler, fig6_confusion_matrix,
    fig9_crossover, fig9_junction_sensitivity, fig_hetero, ler_comparison, spatial_summary,
    worst_degradation, LerComparisonRow, OpTimeSweepRow, FIG13_P, FIG17_CAPACITIES, FIG5_P,
    FIG5_SPEEDUPS,
};
use cyclone::Codesign;
use qccd::timing::OperationTimes;
use qec::codes::bb_72_12_6;
use qec::CssCode;

/// One figure of the suite.
#[derive(Debug)]
pub struct Figure {
    /// The figure's name: its sweep name, its `<cache dir>/<name>.table.json`
    /// and the argument that selects it.
    pub name: &'static str,
    /// The title printed above its table.
    pub title: fn() -> String,
    /// Its EXPERIMENTS.md row: the figure cell and the paper's claim. `None`:
    /// the figure has no row.
    pub paper: Option<(&'static str, &'static str)>,
    /// Builds the report from the figure's name and the run context.
    pub run: fn(&str, &RunContext) -> Report,
}

/// What one figure run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The figure's table.
    pub table: Table,
    /// Lines printed after the table, each preceded by a blank line.
    pub notes: Vec<String>,
    /// EXPERIMENTS.md's scenario and measured cells; `None` for a figure
    /// without a row.
    pub finding: Option<[String; 2]>,
}

impl Report {
    fn new(table: Table, notes: Vec<String>, scenario: String, measured: String) -> Self {
        Report {
            table,
            notes,
            finding: Some([scenario, measured]),
        }
    }
}

/// Every figure, in the order a full run prints them and EXPERIMENTS.md lists
/// their rows.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig03_parallel_speedup",
        title: || "Fig. 3: fully parallel vs fully serial schedule speedup".into(),
        paper: Some(("Fig. 3", "order-of-magnitude idealized speedups")),
        run: fig03,
    },
    Figure {
        name: "fig05_latency_vs_ler",
        title: || {
            format!("Fig. 5: baseline LER vs latency reduction at p = {FIG5_P:e} (HGP codes)")
        },
        paper: Some(("Fig. 5", "faster syndrome extraction lowers LER")),
        run: fig05,
    },
    Figure {
        name: "fig06_confusion_matrix",
        title: || {
            let code = sensitivity_code().descriptor();
            format!("Fig. 6: software x hardware confusion matrix for {code} (execution time)")
        },
        paper: Some((
            "Fig. 6",
            "only circle+coordinated (Cyclone) beats the grid baseline",
        )),
        run: fig06,
    },
    Figure {
        name: "fig09_junction_sensitivity",
        title: || {
            let code = sensitivity_code().descriptor();
            format!("Fig. 9: mesh-junction-network sensitivity to junction crossing time ({code})")
        },
        paper: Some((
            "Fig. 9",
            "mesh needs ~70% junction-time reduction to beat the baseline",
        )),
        run: fig09,
    },
    Figure {
        name: "fig13_trap_capacity_sweep",
        title: || {
            let code = sensitivity_code().descriptor();
            format!("Fig. 13: Cyclone trap/ion-capacity sensitivity ({code})")
        },
        paper: Some((
            "Fig. 13",
            "sweet spot between one giant trap and the base form",
        )),
        run: fig13,
    },
    Figure {
        name: "fig14_bb_ler",
        title: || "Fig. 14: Cyclone (C) vs baseline (B) logical error rate — BB codes".into(),
        paper: Some(("Fig. 14", "up to orders-of-magnitude LER improvement")),
        run: |name, ctx| ler_figure(name, "BB", &crate::bb_codes(ctx.full), ctx),
    },
    Figure {
        name: "fig15_hgp_ler",
        title: || "Fig. 15: Cyclone (C) vs baseline (B) logical error rate — HGP codes".into(),
        paper: Some(("Fig. 15", "up to orders-of-magnitude LER improvement")),
        run: |name, ctx| ler_figure(name, "HGP", &crate::hgp_codes(ctx.full), ctx),
    },
    Figure {
        name: "fig16_spacetime",
        title: || {
            "Fig. 16: spacetime cost (traps x execution time x ancillas), baseline vs Cyclone"
                .into()
        },
        paper: Some(("Fig. 16", "up to ~20x spacetime advantage for Cyclone")),
        run: fig16,
    },
    Figure {
        name: "fig17_loose_capacity",
        title: || {
            let code = sensitivity_code().descriptor();
            format!("Fig. 17: baseline sensitivity to loose trap capacity ({code})")
        },
        paper: Some(("Fig. 17", "looser traps give negligible improvement")),
        run: fig17,
    },
    Figure {
        name: "fig18_op_time_sweep",
        title: || {
            let code = sensitivity_code().descriptor();
            format!("Fig. 18: sensitivity to uniformly reducing every operation time ({code})")
        },
        paper: Some((
            "Fig. 18",
            "Cyclone's latency edge persists as operations speed up",
        )),
        run: fig18,
    },
    Figure {
        name: "fig19_alt_grid",
        title: || "Fig. 19: execution time — alternate grid vs baseline vs Cyclone".into(),
        paper: Some((
            "Fig. 19",
            "Cyclone is the fastest configuration on every code",
        )),
        run: fig19,
    },
    Figure {
        name: "fig20_compilers",
        title: || {
            let code = sensitivity_code().descriptor();
            format!("Fig. 20: compiler comparison with component breakdown ({code})")
        },
        paper: Some(("Fig. 20", "Cyclone beats all three baseline compilers")),
        run: fig20,
    },
    Figure {
        name: "fig21_swap_sensitivity",
        title: || {
            let code = sensitivity_code().descriptor();
            format!("Fig. 21: GateSwap vs IonSwap sensitivity ({code})")
        },
        paper: Some(("Fig. 21", "Cyclone wins under both swap implementations")),
        run: fig21,
    },
    Figure {
        name: "fig_hetero",
        title: || {
            let code = hetero_code().descriptor();
            format!(
                "fig_hetero: codesign registry under uniform / biased / schedule channels ({code})"
            )
        },
        paper: Some((
            "Hetero",
            "beyond-paper: noise structure as a scenario dimension",
        )),
        run: hetero,
    },
    Figure {
        name: "roadblock_counts",
        title: || "Roadblock census: baseline grid vs Cyclone".into(),
        paper: None,
        run: roadblock_counts,
    },
    Figure {
        name: "spatial_summary",
        title: || "Spatial summary: baseline (B) vs Cyclone (C)".into(),
        paper: Some((
            "Spatial",
            "half the ancillas, fewer traps, constant DAC groups",
        )),
        run: spatial,
    },
];

/// Splits the arguments into the selected figures (the leading arguments that
/// are not flags) and the run context (the flags after them). No name selects
/// none: the caller runs them all.
///
/// # Errors
///
/// An unknown figure name, listing the known ones, or any error of
/// [`RunContext::from_args`].
pub fn select(args: &[String]) -> Result<(Vec<&'static Figure>, RunContext), String> {
    let (names, flags) = args.split_at(args.iter().take_while(|a| !a.starts_with('-')).count());
    let figures = names
        .iter()
        .map(|name| {
            FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
                let known: Vec<_> = FIGURES.iter().map(|f| f.name).collect();
                format!("unknown figure {name:?}; figures: {}", known.join(", "))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((figures, RunContext::from_args(flags)?))
}

/// Runs one figure: builds its report, prints it, and (when caching is
/// enabled) writes its rows as `<cache dir>/<name>.table.json`.
pub fn run(figure: &Figure, ctx: &RunContext) -> Report {
    let report = (figure.run)(figure.name, ctx);
    let title = (figure.title)();
    report.table.print(&title);
    if let Some(target) = &ctx.sweep.precision {
        println!(
            "(adaptive sampling: target rse {}, >={} failures, <={} shots/point)",
            target.target_rse, target.min_failures, target.max_shots
        );
    }
    if let NoiseFlag::Biased(ratio) = ctx.noise {
        println!("(noise channel: measurement flips at {ratio}x the data rate on every point)");
    }
    for note in &report.notes {
        println!("\n{note}");
    }
    if let Some(dir) = ctx.cache_dir() {
        if let Err(err) = crate::runner::write_table_json(dir, figure.name, &title, &report.table) {
            eprintln!("warning: could not write {}.table.json: {err}", figure.name);
        }
    }
    report
}

/// The smallest and largest of `values`.
fn range(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// The catalog's codes without their labels.
fn catalog_codes(ctx: &RunContext) -> Vec<CssCode> {
    crate::catalog(ctx.full)
        .into_iter()
        .map(|e| e.code)
        .collect()
}

/// The code `fig_hetero` runs.
fn hetero_code() -> CssCode {
    bb_72_12_6().expect("construction")
}

fn fig03(_: &str, ctx: &RunContext) -> Report {
    let rows = fig3_parallel_speedup(&crate::catalog(ctx.full));
    let mut table = Table::new(&[
        "code",
        "family",
        "serial depth",
        "parallel depth",
        "speedup (x)",
    ]);
    for r in &rows {
        table.row(vec![
            r.code.clone(),
            r.family.clone(),
            r.serial_depth.to_string(),
            r.parallel_depth.to_string(),
            format!("{:.1}", r.speedup),
        ]);
    }
    let (lo, hi) = range(rows.iter().map(|r| r.speedup));
    Report::new(
        table,
        Vec::new(),
        format!(
            "max-parallel vs serial schedule depth, {} codes",
            rows.len()
        ),
        format!("{lo:.1}x – {hi:.1}x"),
    )
}

fn fig05(_: &str, ctx: &RunContext) -> Report {
    let rows = fig5_latency_vs_ler(&crate::hgp_codes(ctx.full), &ctx.sweep);
    let mut table = Table::new(&["code", "speedup", "latency (ms)", "LER", "shots"]);
    for r in &rows {
        table.row(vec![
            r.code.clone(),
            format!("{:.0}x", r.speedup),
            ms(r.latency),
            sci(r.ler.ler),
            r.ler.shots.to_string(),
        ]);
    }
    let (first, fastest) = (&rows[0], &rows[FIG5_SPEEDUPS.len() - 1]);
    Report::new(
        table,
        Vec::new(),
        format!(
            "{} baseline latency / {}x vs / {}x at p={FIG5_P:e}",
            first.code, first.speedup, fastest.speedup
        ),
        format!("LER {:.3e} -> {:.3e}", first.ler.ler, fastest.ler.ler),
    )
}

fn fig06(_: &str, _: &RunContext) -> Report {
    let m = fig6_confusion_matrix(&sensitivity_code());
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
    Report::new(
        table,
        vec![format!(
            "coordinated circle (Cyclone) is {:.1}x faster than the baseline grid+static cell",
            m.cyclone_speedup()
        )],
        format!("software x hardware matrix, {}", m.code),
        format!(
            "Cyclone cell {:.1}x faster than grid+static; circle+static {:.1}x slower",
            m.cyclone_speedup(),
            m.circle_static / m.grid_static
        ),
    )
}

fn fig09(_: &str, ctx: &RunContext) -> Report {
    let code = sensitivity_code();
    let rows = fig9_junction_sensitivity(&code, &ctx.sweep);
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
    let crossover = fig9_crossover(&rows).map(|r| r * 100.0);
    Report::new(
        table,
        vec![match crossover {
            Some(percent) => format!(
                "mesh network first beats the baseline at a {percent:.0}% junction-time reduction"
            ),
            None => "mesh network never beats the baseline in this sweep".to_string(),
        }],
        format!("mesh junction network vs baseline, {}", code.descriptor()),
        match crossover {
            Some(percent) => format!("crossover at {percent:.0}% reduction"),
            None => "no crossover in sweep".to_string(),
        },
    )
}

fn fig13(_: &str, ctx: &RunContext) -> Report {
    let code = sensitivity_code();
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
    let best = fig13_fastest(&rows).expect("Fig. 13 sweeps at least one trap count");
    Report::new(
        table,
        vec![format!(
            "fastest configuration: {} traps with capacity {} ({} ms)",
            best.num_traps,
            best.trap_capacity,
            ms(best.execution_time)
        )],
        format!("condensed Cyclone trap counts on {}", code.descriptor()),
        format!(
            "fastest at {} traps (capacity {}), {} ms",
            best.num_traps,
            best.trap_capacity,
            ms(best.execution_time)
        ),
    )
}

/// Figs. 14 and 15: Cyclone vs the baseline over [`crate::error_rate_grid`],
/// swept under the figure's own name.
fn ler_figure(name: &str, family: &str, codes: &[CssCode], ctx: &RunContext) -> Report {
    let grid = crate::error_rate_grid();
    let rows = ler_comparison(name, codes, &grid, &ctx.sweep);
    let mut table = Table::new(&[
        "code",
        "p",
        "B latency (ms)",
        "C latency (ms)",
        "B LER",
        "C LER",
        "improvement",
    ]);
    for r in &rows {
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
    let best = range(rows.iter().map(LerComparisonRow::improvement)).1;
    Report::new(
        table,
        Vec::new(),
        format!(
            "Cyclone vs baseline LER, {family} codes x {} error rates",
            grid.len()
        ),
        format!("best improvement {best:.1}x"),
    )
}

fn fig16(_: &str, ctx: &RunContext) -> Report {
    let rows = fig16_spacetime(&catalog_codes(ctx));
    let mut table = Table::new(&[
        "code",
        "baseline spacetime",
        "cyclone spacetime",
        "improvement",
    ]);
    for r in &rows {
        table.row(vec![
            r.code.clone(),
            format!("{:.3e}", r.baseline_spacetime),
            format!("{:.3e}", r.cyclone_spacetime),
            format!("{:.1}x", r.improvement),
        ]);
    }
    let best = range(rows.iter().map(|r| r.improvement)).1;
    Report::new(
        table,
        Vec::new(),
        format!("traps x time x ancillas, {} codes", rows.len()),
        format!("up to {best:.1}x"),
    )
}

fn fig17(_: &str, ctx: &RunContext) -> Report {
    let code = sensitivity_code();
    let rows = fig17_loose_capacity(&code, &ctx.sweep);
    let mut table = Table::new(&["trap capacity", "baseline exec (ms)", "baseline LER"]);
    for r in &rows {
        table.row(vec![
            r.capacity.to_string(),
            ms(r.execution_time),
            sci(r.ler.ler),
        ]);
    }
    let (fastest, slowest) = range(rows.iter().map(|r| r.execution_time));
    Report::new(
        table,
        Vec::new(),
        format!("baseline with excess trap capacity, {}", code.descriptor()),
        format!(
            "exec-time spread {:.2}x across capacities {}–{}",
            slowest / fastest,
            FIG17_CAPACITIES[0],
            FIG17_CAPACITIES[FIG17_CAPACITIES.len() - 1]
        ),
    )
}

fn fig18(_: &str, ctx: &RunContext) -> Report {
    let code = sensitivity_code();
    let rows = fig18_op_time_sweep(&code, &ctx.sweep);
    let mut table = Table::new(&[
        "reduction",
        "baseline lat (ms)",
        "cyclone lat (ms)",
        "baseline LER",
        "cyclone LER",
    ]);
    let percent = |r: f64| format!("{:.0}%", r * 100.0);
    for r in &rows {
        table.row(vec![
            percent(r.reduction),
            ms(r.baseline_latency),
            ms(r.cyclone_latency),
            sci(r.baseline_ler.ler),
            sci(r.cyclone_ler.ler),
        ]);
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let (from, to) = (percent(first.reduction), percent(last.reduction));
    let gap = |r: &OpTimeSweepRow| r.baseline_latency / r.cyclone_latency;
    Report::new(
        table,
        Vec::new(),
        format!(
            "all op times reduced {from} -> {to} (paper: gate+shuttle only), {}",
            code.descriptor()
        ),
        format!(
            "latency gap {:.1}x at {from}, {:.1}x at {to}",
            gap(first),
            gap(last)
        ),
    )
}

fn fig19(_: &str, ctx: &RunContext) -> Report {
    let rows = fig19_execution_times(&catalog_codes(ctx));
    let mut table = Table::new(&[
        "code",
        "alternate grid (ms)",
        "baseline (ms)",
        "cyclone (ms)",
        "cyclone speedup",
    ]);
    for r in &rows {
        table.row(vec![
            r.code.clone(),
            ms(r.alternate_grid),
            ms(r.baseline),
            ms(r.cyclone),
            format!("{:.1}x", r.cyclone_speedup()),
        ]);
    }
    let (lo, hi) = range(rows.iter().map(|r| r.cyclone_speedup()));
    Report::new(
        table,
        Vec::new(),
        format!("alternate grid / baseline / Cyclone, {} codes", rows.len()),
        format!("Cyclone {lo:.1}x – {hi:.1}x faster than the baseline"),
    )
}

fn fig20(_: &str, _: &RunContext) -> Report {
    let code = sensitivity_code();
    let rows = fig20_compiler_comparison(&code);
    let mut table = Table::new(&[
        "compiler",
        "exec (ms)",
        "unrolled (ms)",
        "gate (ms)",
        "shuttle (ms)",
        "swap (ms)",
        "measure (ms)",
        "parallelization",
    ]);
    for r in &rows {
        table.row(vec![
            r.compiler.clone(),
            ms(r.execution_time),
            ms(r.serialized_total),
            ms(r.gate),
            ms(r.shuttle),
            ms(r.swap),
            ms(r.measurement),
            format!("{:.1}x", r.parallelization),
        ]);
    }
    let cyclone = rows
        .iter()
        .find(|r| r.compiler == "Cyclone")
        .expect("Fig. 20 compiles Cyclone");
    let best_baseline = range(
        rows.iter()
            .filter(|r| r.compiler != "Cyclone")
            .map(|r| r.execution_time),
    )
    .0;
    Report::new(
        table,
        Vec::new(),
        format!(
            "{} compilers with component breakdown, {}",
            rows.len(),
            code.descriptor()
        ),
        format!(
            "Cyclone {:.1}x faster than the best baseline compiler, parallelization {:.1}x",
            best_baseline / cyclone.execution_time,
            cyclone.parallelization
        ),
    )
}

fn fig21(_: &str, _: &RunContext) -> Report {
    let code = sensitivity_code();
    let rows = fig21_swap_sensitivity(&code);
    let mut table = Table::new(&["codesign", "swap kind", "exec (ms)"]);
    for r in &rows {
        table.row(vec![
            r.codesign.clone(),
            r.swap_kind.clone(),
            ms(r.execution_time),
        ]);
    }
    let time = |codesign: &str, kind: &str| {
        rows.iter()
            .find(|r| r.codesign == codesign && r.swap_kind == kind)
            .map(|r| r.execution_time)
    };
    let cyclone_wins = ["GateSwap", "IonSwap"].iter().all(|kind| {
        matches!((time("baseline", kind), time("cyclone", kind)), (Some(b), Some(c)) if c < b)
    });
    Report::new(
        table,
        Vec::new(),
        format!("GateSwap vs IonSwap, {}", code.descriptor()),
        if cyclone_wins {
            "Cyclone faster under both swap kinds".to_string()
        } else {
            "Cyclone does NOT win under both swap kinds".to_string()
        },
    )
}

fn hetero(_: &str, ctx: &RunContext) -> Report {
    let code = hetero_code();
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
    let worst = worst_degradation(&rows);
    Report::new(
        table,
        vec![match worst {
            Some((d, r)) => format!(
                "largest degradation vs uniform: {d:.2}x ({} under {})",
                r.codesign, r.channel
            ),
            None => "no structured channel degraded any codesign".to_string(),
        }],
        format!(
            "{} codesigns x uniform/biased/schedule channels, {}",
            Codesign::ALL.len(),
            code.descriptor()
        ),
        match worst {
            Some((d, r)) => format!(
                "largest LER degradation vs uniform {d:.1}x ({} under {})",
                r.codesign, r.channel
            ),
            None => "no structured rows".to_string(),
        },
    )
}

/// The roadblock census (the headline §IV claim): shuttling roadblock events
/// and the time spent waiting on them, static baseline vs Cyclone, which must
/// report exactly zero.
fn roadblock_counts(_: &str, ctx: &RunContext) -> Report {
    let times = OperationTimes::default();
    let mut table = Table::new(&[
        "code",
        "family",
        "B roadblocks",
        "B wait (ms)",
        "C roadblocks",
        "C wait (ms)",
    ]);
    for entry in crate::catalog(ctx.full) {
        let base = Codesign::Baseline.compile(&entry.code, &times);
        let cyc = Codesign::Cyclone.compile(&entry.code, &times);
        assert_eq!(
            cyc.roadblock_events, 0,
            "{}: Cyclone must be roadblock-free",
            entry.label
        );
        table.row(vec![
            entry.label,
            format!("{:?}", entry.family),
            base.roadblock_events.to_string(),
            ms(base.breakdown.roadblock_wait),
            cyc.roadblock_events.to_string(),
            ms(cyc.breakdown.roadblock_wait),
        ]);
    }
    Report {
        table,
        notes: Vec::new(),
        finding: None,
    }
}

/// The spatial and control-overhead summary (§IV spatial claims, §VI wiring).
fn spatial(_: &str, ctx: &RunContext) -> Report {
    let rows = spatial_summary(&catalog_codes(ctx));
    let mut table = Table::new(&[
        "code",
        "B traps",
        "B junctions",
        "B DACs",
        "B ancillas",
        "C traps",
        "C junctions",
        "C DACs",
        "C ancillas",
    ]);
    for r in &rows {
        table.row(vec![
            r.code.clone(),
            r.baseline_traps.to_string(),
            r.baseline_junctions.to_string(),
            r.baseline_dacs.to_string(),
            r.baseline_ancillas.to_string(),
            r.cyclone_traps.to_string(),
            r.cyclone_junctions.to_string(),
            r.cyclone_dacs.to_string(),
            r.cyclone_ancillas.to_string(),
        ]);
    }
    let halved = rows
        .iter()
        .all(|r| r.cyclone_ancillas * 2 == r.baseline_ancillas);
    let fewer_dacs = rows.iter().all(|r| r.cyclone_dacs < r.baseline_dacs);
    Report::new(
        table,
        Vec::new(),
        format!("traps/junctions/DACs/ancillas, {} codes", rows.len()),
        format!("ancillas halved on all codes: {halved}; fewer DACs on all codes: {fewer_dacs}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn names(selected: &[&Figure]) -> Vec<&'static str> {
        selected.iter().map(|f| f.name).collect()
    }

    /// The rows of the Markdown table under `header` in `doc`, split into
    /// trimmed cells.
    fn markdown_rows<'a>(doc: &'a str, header: &str) -> Vec<Vec<&'a str>> {
        doc.lines()
            .skip_while(|line| !line.starts_with(header))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| line.trim_matches('|').split('|').map(str::trim).collect())
            .collect()
    }

    #[test]
    fn figure_names_are_unique() {
        let mut sorted: Vec<_> = FIGURES.iter().map(|f| f.name).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        assert_eq!(FIGURES.len(), 16);
    }

    #[test]
    fn every_figure_name_selects_its_figure() {
        for figure in FIGURES {
            let (selected, ctx) =
                select(&args(&[figure.name, "--shots", "50", "--bench"])).expect("resolves");
            assert_eq!(names(&selected), [figure.name]);
            assert_eq!(ctx.config.shots, 50);
        }
        let list = ["fig14_bb_ler", "fig_hetero", "--shots", "50", "--no-cache"];
        let (selected, ctx) = select(&args(&list)).expect("resolves");
        assert_eq!(names(&selected), ["fig14_bb_ler", "fig_hetero"]);
        assert!(ctx.cache_dir().is_none());
        // No name selects none: the caller runs every figure.
        let (selected, ctx) = select(&args(&["--shots", "50", "--bench"])).expect("resolves");
        assert!(selected.is_empty());
        assert_eq!(ctx.config.shots, 50);
    }

    #[test]
    fn unknown_figure_names_are_errors_that_name_them() {
        for unknown in ["fig99", "50", "fig14"] {
            let err = select(&args(&["fig03_parallel_speedup", unknown])).unwrap_err();
            assert!(
                err.contains(&format!("unknown figure {unknown:?}")),
                "{err}"
            );
            assert!(FIGURES.iter().all(|f| err.contains(f.name)), "{err}");
        }
        // Names come first: one after the flags is an unknown argument.
        let err = select(&args(&["--shots", "50", "fig14_bb_ler"])).unwrap_err();
        assert!(err.contains("unknown argument \"fig14_bb_ler\""), "{err}");
        let err = select(&args(&["fig14_bb_ler", "--shots", "5O"])).unwrap_err();
        assert!(err.contains("--shots \"5O\""), "{err}");
    }

    #[test]
    fn readme_figure_list_matches_the_figure_list() {
        let readme = include_str!("../../../README.md");
        let rows = markdown_rows(readme, "| figure | EXPERIMENTS.md row |");
        let expected: Vec<Vec<String>> = FIGURES
            .iter()
            .map(|f| {
                let row = f.paper.map_or("—", |(label, _)| label);
                vec![format!("`{}`", f.name), row.to_string()]
            })
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn experiments_md_rows_follow_the_figure_list() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let rows: Vec<(&str, &str)> =
            markdown_rows(doc, "| Figure | Scenario | Paper | Measured (this run) |")
                .iter()
                .map(|cells| (cells[0], cells[2]))
                .collect();
        let expected: Vec<_> = FIGURES.iter().filter_map(|f| f.paper).collect();
        assert_eq!(rows, expected);
    }
}
