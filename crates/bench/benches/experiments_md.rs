//! Regenerates `EXPERIMENTS.md` at the repository root: one row per figure with the
//! paper's claim next to the value measured by this run.
//!
//! All Monte-Carlo rows go through the sweep engine, so a regeneration after the
//! figure suite has populated `sweeps/` is almost entirely cache hits; running it
//! cold recomputes (and caches) everything. `--shots` scales the sampling; the
//! shot count used is recorded in the document header.

use bench::runner::RunContext;
use cyclone::experiments::{
    fig13_fastest, fig13_trap_capacity_sweep, fig16_spacetime, fig17_loose_capacity,
    fig18_op_time_sweep, fig19_execution_times, fig20_compiler_comparison, fig21_swap_sensitivity,
    fig3_parallel_speedup, fig5_latency_vs_ler, fig6_confusion_matrix, fig9_crossover,
    fig9_junction_sensitivity, fig_hetero, ler_comparison, spatial_summary, worst_degradation,
    LerComparisonRow, OpTimeSweepRow, FIG17_CAPACITIES, FIG5_P, FIG5_SPEEDUPS,
};
use cyclone::Codesign;

struct Row {
    figure: &'static str,
    scenario: String,
    paper: &'static str,
    measured: String,
}

fn main() {
    let ctx = RunContext::from_env();
    let catalog = bench::catalog(ctx.full);
    let codes: Vec<_> = catalog.iter().map(|e| e.code.clone()).collect();
    let sens = bench::sensitivity_code();
    let mut rows: Vec<Row> = Vec::new();

    // Fig. 3 — schedule-level speedup (compile-only).
    let fig3 = fig3_parallel_speedup(&catalog);
    let (lo, hi) = fig3.iter().fold((f64::MAX, f64::MIN), |(lo, hi), r| {
        (lo.min(r.speedup), hi.max(r.speedup))
    });
    rows.push(Row {
        figure: "Fig. 3",
        scenario: format!(
            "max-parallel vs serial schedule depth, {} codes",
            fig3.len()
        ),
        paper: "order-of-magnitude idealized speedups",
        measured: format!("{lo:.1}x – {hi:.1}x"),
    });

    // Fig. 5 — baseline LER vs latency reduction.
    let fig5 = fig5_latency_vs_ler(&bench::hgp_codes(ctx.full), &ctx.sweep);
    let first = &fig5[0];
    let fastest = &fig5[FIG5_SPEEDUPS.len() - 1];
    rows.push(Row {
        figure: "Fig. 5",
        scenario: format!(
            "{} baseline latency / {}x vs / {}x at p={FIG5_P:e}",
            first.code, first.speedup, fastest.speedup
        ),
        paper: "faster syndrome extraction lowers LER",
        measured: format!("LER {:.3e} -> {:.3e}", first.ler.ler, fastest.ler.ler),
    });

    // Fig. 6 — confusion matrix.
    let m = fig6_confusion_matrix(&sens);
    rows.push(Row {
        figure: "Fig. 6",
        scenario: format!("software x hardware matrix, {}", m.code),
        paper: "only circle+coordinated (Cyclone) beats the grid baseline",
        measured: format!(
            "Cyclone cell {:.1}x faster than grid+static; circle+static {:.1}x slower",
            m.cyclone_speedup(),
            m.circle_static / m.grid_static
        ),
    });

    // Fig. 9 — junction sensitivity.
    let fig9 = fig9_junction_sensitivity(&sens, &ctx.sweep);
    rows.push(Row {
        figure: "Fig. 9",
        scenario: format!("mesh junction network vs baseline, {}", sens.descriptor()),
        paper: "mesh needs ~70% junction-time reduction to beat the baseline",
        measured: match fig9_crossover(&fig9) {
            Some(r) => format!("crossover at {:.0}% reduction", r * 100.0),
            None => "no crossover in sweep".to_string(),
        },
    });

    // Fig. 13 — trap/capacity sweep.
    let fig13 = fig13_trap_capacity_sweep(&sens, &ctx.sweep);
    let best = fig13_fastest(&fig13).expect("nonempty");
    rows.push(Row {
        figure: "Fig. 13",
        scenario: format!("condensed Cyclone trap counts on {}", sens.descriptor()),
        paper: "sweet spot between one giant trap and the base form",
        measured: format!(
            "fastest at {} traps (capacity {}), {:.2} ms",
            best.num_traps,
            best.trap_capacity,
            best.execution_time * 1e3
        ),
    });

    // Figs. 14/15 — LER comparison.
    let (bb, hgp) = (bench::bb_codes(ctx.full), bench::hgp_codes(ctx.full));
    for (figure, name, label, codes) in [
        ("Fig. 14", "fig14_bb_ler", "BB", bb),
        ("Fig. 15", "fig15_hgp_ler", "HGP", hgp),
    ] {
        let rows_f = ler_comparison(name, &codes, &bench::error_rate_grid(), &ctx.sweep);
        let best_improvement = rows_f
            .iter()
            .map(LerComparisonRow::improvement)
            .fold(f64::MIN, f64::max);
        rows.push(Row {
            figure,
            scenario: format!("Cyclone vs baseline LER, {label} codes x 5 error rates"),
            paper: "up to orders-of-magnitude LER improvement",
            measured: format!("best improvement {best_improvement:.1}x"),
        });
    }

    // Fig. 16 — spacetime cost.
    let fig16 = fig16_spacetime(&codes);
    let max_improvement = fig16.iter().map(|r| r.improvement).fold(f64::MIN, f64::max);
    rows.push(Row {
        figure: "Fig. 16",
        scenario: format!("traps x time x ancillas, {} codes", fig16.len()),
        paper: "up to ~20x spacetime advantage for Cyclone",
        measured: format!("up to {max_improvement:.1}x"),
    });

    // Fig. 17 — loose capacity.
    let fig17 = fig17_loose_capacity(&sens, &ctx.sweep);
    let times = fig17.iter().map(|r| r.execution_time);
    let spread = times.clone().fold(f64::MIN, f64::max) / times.fold(f64::MAX, f64::min);
    rows.push(Row {
        figure: "Fig. 17",
        scenario: format!("baseline with excess trap capacity, {}", sens.descriptor()),
        paper: "looser traps give negligible improvement",
        measured: format!(
            "exec-time spread {spread:.2}x across capacities {}–{}",
            FIG17_CAPACITIES[0],
            FIG17_CAPACITIES[FIG17_CAPACITIES.len() - 1]
        ),
    });

    // Fig. 18 — uniformly faster operations.
    let fig18 = fig18_op_time_sweep(&sens, &ctx.sweep);
    let (first, last) = (&fig18[0], &fig18[fig18.len() - 1]);
    let percent = |r: f64| format!("{:.0}%", r * 100.0);
    let (from, to) = (percent(first.reduction), percent(last.reduction));
    let gap = |r: &OpTimeSweepRow| r.baseline_latency / r.cyclone_latency;
    rows.push(Row {
        figure: "Fig. 18",
        scenario: format!(
            "all op times reduced {from} -> {to} (paper: gate+shuttle only), {}",
            sens.descriptor()
        ),
        paper: "Cyclone's latency edge persists as operations speed up",
        measured: format!(
            "latency gap {:.1}x at {from}, {:.1}x at {to}",
            gap(first),
            gap(last)
        ),
    });

    // Fig. 19 — execution times (captured via Fig. 16's codes).
    let fig19 = fig19_execution_times(&codes);
    let (s_lo, s_hi) = fig19.iter().fold((f64::MAX, f64::MIN), |(lo, hi), r| {
        (lo.min(r.cyclone_speedup()), hi.max(r.cyclone_speedup()))
    });
    rows.push(Row {
        figure: "Fig. 19",
        scenario: format!("alternate grid / baseline / Cyclone, {} codes", fig19.len()),
        paper: "Cyclone is the fastest configuration on every code",
        measured: format!("Cyclone {s_lo:.1}x – {s_hi:.1}x faster than the baseline"),
    });

    // Fig. 20 — compiler comparison.
    let fig20 = fig20_compiler_comparison(&sens);
    let cyclone_row = fig20
        .iter()
        .find(|r| r.compiler == "Cyclone")
        .expect("present");
    let best_baseline = fig20
        .iter()
        .filter(|r| r.compiler != "Cyclone")
        .map(|r| r.execution_time)
        .fold(f64::MAX, f64::min);
    rows.push(Row {
        figure: "Fig. 20",
        scenario: format!(
            "4 compilers with component breakdown, {}",
            sens.descriptor()
        ),
        paper: "Cyclone beats all three baseline compilers",
        measured: format!(
            "Cyclone {:.1}x faster than the best baseline compiler, parallelization {:.1}x",
            best_baseline / cyclone_row.execution_time,
            cyclone_row.parallelization
        ),
    });

    // Fig. 21 — swap sensitivity.
    let fig21 = fig21_swap_sensitivity(&sens);
    let cyclone_wins = ["GateSwap", "IonSwap"].iter().all(|kind| {
        let base = fig21
            .iter()
            .find(|r| r.codesign == "baseline" && r.swap_kind == *kind);
        let cyc = fig21
            .iter()
            .find(|r| r.codesign == "cyclone" && r.swap_kind == *kind);
        matches!((base, cyc), (Some(b), Some(c)) if c.execution_time < b.execution_time)
    });
    rows.push(Row {
        figure: "Fig. 21",
        scenario: format!("GateSwap vs IonSwap, {}", sens.descriptor()),
        paper: "Cyclone wins under both swap implementations",
        measured: if cyclone_wins {
            "Cyclone faster under both swap kinds".to_string()
        } else {
            "Cyclone does NOT win under both swap kinds".to_string()
        },
    });

    // fig_hetero — channel-structured noise across the codesign registry.
    let bb = qec::codes::bb_72_12_6().expect("valid");
    let hetero = fig_hetero(&bb, &ctx.hetero_ratios(), &ctx.sweep);
    rows.push(Row {
        figure: "Hetero",
        scenario: format!(
            "{} codesigns x uniform/biased/schedule channels, {}",
            Codesign::ALL.len(),
            bb.descriptor()
        ),
        paper: "beyond-paper: noise structure as a scenario dimension",
        measured: match worst_degradation(&hetero) {
            Some((d, r)) => format!(
                "largest LER degradation vs uniform {d:.1}x ({} under {})",
                r.codesign, r.channel
            ),
            None => "no structured rows".to_string(),
        },
    });

    // Spatial summary.
    let spatial = spatial_summary(&codes);
    let halved = spatial
        .iter()
        .all(|r| r.cyclone_ancillas * 2 == r.baseline_ancillas);
    let fewer_dacs = spatial.iter().all(|r| r.cyclone_dacs < r.baseline_dacs);
    rows.push(Row {
        figure: "Spatial",
        scenario: format!("traps/junctions/DACs/ancillas, {} codes", spatial.len()),
        paper: "half the ancillas, fewer traps, constant DAC groups",
        measured: format!(
            "ancillas halved on all codes: {halved}; fewer DACs on all codes: {fewer_dacs}"
        ),
    });

    // Render the document.
    let mut doc = String::new();
    doc.push_str("# EXPERIMENTS — paper vs measured\n\n");
    doc.push_str(
        "Generated by `cargo bench -p bench --bench experiments_md` through the\n\
         `cyclone::sweep` engine. Monte-Carlo rows are served from the\n\
         `sweeps/<figure>.json` cache when it satisfies the configuration below, so\n\
         regenerating after the figure suite is nearly free.\n\n",
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
        codes.len()
    ));
    doc.push_str("| Figure | Scenario | Paper | Measured (this run) |\n");
    doc.push_str("|---|---|---|---|\n");
    for row in &rows {
        doc.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            row.figure, row.scenario, row.paper, row.measured
        ));
    }
    doc.push_str(
        "\n## Sampling modes and the sweep cache\n\n\
         Every Monte-Carlo point runs in one of two modes:\n\n\
         * **Fixed budget** (the default): exactly `--shots` Monte-Carlo shots\n\
           per point, bit-identical at any thread count.\n\
         * **Precision-targeted (adaptive)**: each point samples the *same* seeded\n\
           shot streams but stops at the smallest shot count with ≥ `--min-failures`\n\
           failures and relative standard error ≤ `--target-rse`, capped by\n\
           `--max-shots` (default 20 × the fixed budget). High-failure points stop\n\
           orders of magnitude early; low-failure points sample deeper than the\n\
           fixed budget, so precision *improves* where it was worst. `--full` runs\n\
           are adaptive by default; `--fixed` pins the fixed path, which\n\
           reproduces the pre-adaptive tables byte-for-byte.\n\n\
         Every point also samples under an **error channel** (`--noise\n\
         uniform|biased:<ratio>`): `uniform` is the historical scalar model and\n\
         `biased:<ratio>` adds measurement flips at `<ratio>` times the data\n\
         rate. Schedule-derived channels, with per-qubit rates from each\n\
         codesign's compiled idle exposure, are not an option: the `fig_hetero`\n\
         scenario always sweeps them beside uniform and biased for every\n\
         codesign.\n\n\
         The `sweeps/<figure>.json` cache (schema 3) records the shots actually\n\
         spent per point and the channel it was sampled under. A fixed-budget\n\
         request reuses an entry only at the exact shot count; a\n\
         precision-targeted request reuses any entry that meets-or-exceeds the\n\
         requested precision (including fixed full-shot entries); in both cases\n\
         the entry's channel identity must match the request's. Only schema 3\n\
         is read: a cache is an accelerator, so a schema-1 or schema-2 file is a\n\
         miss whose points are recomputed, and files with a foreign seed or BP\n\
         iteration count are invalidated wholesale.\n\n\
         Regenerate with more sampling: `cargo bench -p bench --bench \
         experiments_md -- --shots 20000`; add `--target-rse 0.05 \
         --min-failures 400` for publication-grade uniform precision.\n\
         `--full` extends every sweep to the full code catalog.\n\n\
         ## Parallel sweeps\n\n\
         Every figure sweep runs in one process, on one scheduler of (point,\n\
         64-shot chunk) work items: `--threads N` sizes\n\
         its worker pool, and estimates, caches and tables are byte-identical\n\
         at any thread count. The `sweep-cache` binary (`cargo run -p cyclone\n\
         --bin sweep-cache -- stats|verify`) inspects cache files by hand\n\
         through the engine's own validating reader.\n\n\
         `BENCH_sweep.json` (written by `cargo bench -p bench --bench\n\
         sweep_engine`) records serial and threaded throughput\n\
         (`*_points_per_sec`) together with `host_cores`; on a multi-core host\n\
         it records `threaded_speedup`, while on a 1-core host it records an\n\
         explicit `scaling_not_measurable` reason instead of a meaningless\n\
         ~1x ratio.\n\n\
         ## Decoding hot path\n\n\
         Every Monte-Carlo shot above runs through the bit-sliced batch sampler\n\
         (`MemoryExperiment::sample_batch_with`): 64 shots per `u64` word —\n\
         data-qubit flips, per-check measurement flips, and word-level syndrome\n\
         extraction all operate on whole words, zero-syndrome lanes skip BP\n\
         entirely, and a 4-way set-associative per-syndrome decode cache\n\
         (16,384 slots, conflict evictions counted) replays repeated\n\
         syndromes, single flipped check measurements included, as a\n\
         word-compare plus a copy. Lanes that\n\
         still reach the OSD fallback hit a column-basis ordered-statistics\n\
         stage (heap-ordered columns, stopped at the first basis that spans the\n\
         syndrome, pinned bit-identical to the cold OSD oracle\n\
         `tests/oracle/osd.rs` by a property test). Each lane consumes its own\n\
         seeded per-shot stream, so every\n\
         table in this file is bit-identical to a scalar per-shot reference\n\
         sampler at any thread count and any batch size (pinned by a property\n\
         test across the code catalog × channel shapes × batch sizes).\n\n\
         Each worker keeps its decode caches in memory for the length of a\n\
         sweep, keyed by a digest of the check matrix, BP iteration count, and\n\
         decode priors. Entries are exact decoder outputs, so estimates never\n\
         depend on what a cache holds.\n\n\
         Error rates are validated at `ErrorChannel` construction: rates above\n\
         the depolarizing maximum (0.75) saturate there with a recorded\n\
         `saturated()` flag instead of being silently clamped mid-sample.\n\n\
         `BENCH_decoder.json` (written by `cargo bench -p bench --bench\n\
         decoder_hotpath`) records the batch shot rates per channel shape\n\
         (`batch_shots_per_sec`), per-channel\n\
         `osd_fallback_rate` / `inconsistent_rate` / `cache_hit_rate`\n\
         (`batch_channel_stats`), the column-basis and cold OSD stage rates\n\
         (`osd_stage_decodes_per_sec.{column_basis,cold}`), conflict evictions\n\
         (`batch_cache_evictions`), a warm pass that replays each structured\n\
         channel's shots through the cache its cold pass filled\n\
         (`decode_cache.*`), the worst cold\n\
         structured-channel penalty vs the uniform batch rate\n\
         (`structured_penalty_vs_uniform`), and `speedup_vs_pre_pr` computed at\n\
         run time from the recorded `pre_pr_baseline_shots_per_sec` field.\n\
         `--enforce` (set in CI) turns the recorded thresholds into\n\
         hard assertions alongside the always-on zero-steady-state-allocation\n\
         check, and holds the warm pass to penalty ≤ 5× and ≥ 300k structured\n\
         shots/sec.\n",
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    // cyclone-lint: allow(io-unwrap) -- report write is fail-fast by design: a partial EXPERIMENTS.md must abort the run, not pass CI
    std::fs::write(path, &doc).expect("write EXPERIMENTS.md");
    println!("{doc}");
    println!("wrote {path}");
}
