//! Experiment runners that regenerate every figure of the paper's evaluation.
//!
//! Each figure is declared once, here; its `bench` binary and `experiments_md`
//! (which writes `EXPERIMENTS.md`) both call the declaration. Its **operating
//! points** are constants of the figure ([`FIG9_REDUCTIONS`], `FIGNN_P`, …) or
//! values it derives (Fig. 13's trap counts, the default [`OperationTimes`]); a
//! parameter is left only where a caller varies it (the code lists, `fig_hetero`'s
//! ratios, [`ler_comparison`]'s name and rates, and [`fig5_spec`]'s speedups,
//! which the sweep-engine benchmark sets to six). Its
//! **rows** are plain data: a Monte-Carlo figure assembles a [`ScenarioSpec`]
//! ([`Codesign`] variants × codes × operating points) and reads each row's
//! latency and estimate from the [`sweep`](crate::sweep) engine's outcomes under
//! the given [`SweepOptions`]. Its **findings** (a crossover, the fastest
//! configuration, an improvement) are methods or functions next to the row type.

use crate::codesign::{CycloneCodesign, CycloneConfig};
use crate::registry::{Codesign, BASELINE_CAPACITY};
use crate::sweep::{run_sweep, ScenarioSpec, SweepOptions};
use crate::{best_configuration, default_trap_counts, trap_capacity_sweep, TrapSweepPoint};
use decoder::memory::LerEstimate;
use noise::{ChannelSpec, ErrorChannel, HardwareNoiseModel, NoiseParameters};
use qccd::compiler::baseline::compile_baseline;
use qccd::timing::{OperationTimes, SwapKind};
use qccd::topology::baseline_grid;
use qccd::wiring::dac_count;
use qec::codes::CatalogEntry;
use qec::schedule::{max_parallel_schedule, parallel_speedup, serial_schedule};
use qec::CssCode;

// ---------------------------------------------------------------------------
// Fig. 3 — idealized parallel vs serial speedup
// ---------------------------------------------------------------------------

/// One bar of Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Code label, e.g. `"[[144,12,12]]"`.
    pub code: String,
    /// Code family name (`"HGP"` or `"BB"`).
    pub family: String,
    /// Depth of the fully serial schedule (= gate count).
    pub serial_depth: usize,
    /// Depth of the maximally parallel schedule.
    pub parallel_depth: usize,
    /// Serial / parallel depth ratio.
    pub speedup: f64,
}

/// Fig. 3: speedup of the maximally parallel schedule over the fully serial one.
pub fn fig3_parallel_speedup(catalog: &[CatalogEntry]) -> Vec<SpeedupRow> {
    catalog
        .iter()
        .map(|entry| {
            let serial = serial_schedule(&entry.code);
            let parallel = max_parallel_schedule(&entry.code);
            SpeedupRow {
                code: entry.label.clone(),
                family: entry.family.to_string(),
                serial_depth: serial.depth(),
                parallel_depth: parallel.depth(),
                speedup: parallel_speedup(&entry.code),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 5 — LER improvement when the baseline is sped up
// ---------------------------------------------------------------------------

/// Physical error rate of Fig. 5.
pub const FIG5_P: f64 = 5e-4;
/// The latency division factors Fig. 5 plots.
pub const FIG5_SPEEDUPS: [f64; 3] = [1.0, 2.0, 4.0];

/// One point of Fig. 5: the baseline's LER when its latency is divided by `speedup`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyLerRow {
    /// Code label.
    pub code: String,
    /// Latency division factor (1 = the baseline as compiled).
    pub speedup: f64,
    /// Round latency in seconds after the division.
    pub latency: f64,
    /// Estimated logical error rate.
    pub ler: LerEstimate,
}

/// Declares the Fig. 5 scenario: each code's compiled baseline latency divided by the
/// given factors, at [`FIG5_P`].
pub fn fig5_spec(codes: &[CssCode], speedups: &[f64]) -> ScenarioSpec {
    let times = OperationTimes::default();
    let mut spec = ScenarioSpec::new("fig05_latency_vs_ler");
    for code in codes {
        let base = Codesign::Baseline.compile(code, &times);
        let idx = spec.code(code.clone());
        for &s in speedups {
            spec.point(
                format!("baseline/{}/s={s}", code.descriptor()),
                idx,
                FIG5_P,
                base.execution_time / s,
            );
        }
    }
    spec
}

/// Fig. 5: LER of each code as the compiled baseline latency is divided by the
/// [`FIG5_SPEEDUPS`] factors, at [`FIG5_P`].
pub fn fig5_latency_vs_ler(codes: &[CssCode], options: &SweepOptions) -> Vec<LatencyLerRow> {
    let result = run_sweep(&fig5_spec(codes, &FIG5_SPEEDUPS), options);
    let points = codes
        .iter()
        .flat_map(|code| FIG5_SPEEDUPS.map(|s| (code.descriptor(), s)));
    points
        .zip(&result.points)
        .map(|((code, speedup), outcome)| LatencyLerRow {
            code,
            speedup,
            latency: outcome.latency,
            ler: outcome.ler,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 6 — software × hardware confusion matrix
// ---------------------------------------------------------------------------

/// The four cells of the Fig. 6 confusion matrix (execution times in seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionMatrix {
    /// Code label.
    pub code: String,
    /// Grid hardware + static EJF software (the baseline).
    pub grid_static: f64,
    /// Grid hardware + dynamic timeslice software.
    pub grid_dynamic: f64,
    /// Circle hardware + static EJF software.
    pub circle_static: f64,
    /// Circle hardware + coordinated dynamic software (Cyclone).
    pub circle_dynamic: f64,
}

impl ConfusionMatrix {
    /// Fig. 6's finding: how many times faster the Cyclone cell is than the
    /// grid+static baseline.
    pub fn cyclone_speedup(&self) -> f64 {
        self.grid_static / self.circle_dynamic
    }
}

/// Fig. 6: execution time of every software/hardware combination; each of the four
/// cells is one [`Codesign`].
pub fn fig6_confusion_matrix(code: &CssCode) -> ConfusionMatrix {
    let times = OperationTimes::default();
    let cell = |design: Codesign| design.compile(code, &times).execution_time;
    ConfusionMatrix {
        code: code.descriptor(),
        grid_static: cell(Codesign::Baseline),
        grid_dynamic: cell(Codesign::DynamicGrid),
        circle_static: cell(Codesign::RingStatic),
        circle_dynamic: cell(Codesign::Cyclone),
    }
}

// ---------------------------------------------------------------------------
// Fig. 9 — junction-crossing-time sensitivity of the mesh junction network
// ---------------------------------------------------------------------------

/// Physical error rate of Fig. 9.
pub const FIG9_P: f64 = 5e-4;
/// The junction-crossing-time reductions Fig. 9 sweeps.
pub const FIG9_REDUCTIONS: [f64; 5] = [0.0, 0.3, 0.5, 0.7, 0.9];

/// One point of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct JunctionSensitivityRow {
    /// Fractional reduction of junction crossing times (0 = nominal).
    pub reduction: f64,
    /// Mesh-junction-network execution time, seconds.
    pub mesh_execution_time: f64,
    /// Mesh-junction-network LER at [`FIG9_P`].
    pub mesh_ler: LerEstimate,
    /// Baseline-grid LER at the same `p` (horizontal reference line).
    pub baseline_ler: LerEstimate,
}

/// Declares the Fig. 9 scenario: the baseline reference point plus one mesh point per
/// reduction of [`FIG9_REDUCTIONS`].
pub fn fig9_spec(code: &CssCode) -> ScenarioSpec {
    let nominal = OperationTimes::default();
    let mut spec = ScenarioSpec::new("fig09_junction_sensitivity");
    let idx = spec.code(code.clone());
    let baseline = Codesign::Baseline.compile(code, &nominal);
    spec.point("baseline", idx, FIG9_P, baseline.execution_time);
    for r in FIG9_REDUCTIONS {
        let round = Codesign::DynamicMesh.compile(code, &nominal.with_junction_reduction(r));
        spec.point(format!("mesh/r={r}"), idx, FIG9_P, round.execution_time);
    }
    spec
}

/// Fig. 9: LER of the mesh junction network as junction crossing times are reduced,
/// against the baseline grid reference.
pub fn fig9_junction_sensitivity(
    code: &CssCode,
    options: &SweepOptions,
) -> Vec<JunctionSensitivityRow> {
    let result = run_sweep(&fig9_spec(code), options);
    let (baseline, mesh) = result.points.split_first().expect("the baseline point");
    FIG9_REDUCTIONS
        .iter()
        .zip(mesh)
        .map(|(&reduction, outcome)| JunctionSensitivityRow {
            reduction,
            mesh_execution_time: outcome.latency,
            mesh_ler: outcome.ler,
            baseline_ler: baseline.ler,
        })
        .collect()
}

/// Fig. 9's finding: the first reduction at which the mesh's LER is at most the
/// baseline's, or `None` when the mesh never catches up.
pub fn fig9_crossover(rows: &[JunctionSensitivityRow]) -> Option<f64> {
    let cross = rows.iter().find(|r| r.mesh_ler.ler <= r.baseline_ler.ler);
    cross.map(|r| r.reduction)
}

// ---------------------------------------------------------------------------
// Fig. 13 — trap-count / ion-capacity sensitivity of Cyclone
// ---------------------------------------------------------------------------

/// Physical error rate of Fig. 13.
pub const FIG13_P: f64 = 1e-4;

/// One point of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct TrapSensitivityRow {
    /// The compiled configuration: trap count, tight capacity, execution time.
    pub point: TrapSweepPoint,
    /// LER at [`FIG13_P`].
    pub ler: LerEstimate,
}

/// Fig. 13: Cyclone execution time and LER across "tight" trap/capacity arrangements
/// (the trap counts of [`default_trap_counts`]) at [`FIG13_P`]; the paper uses the
/// `[[225,9,6]]` code.
pub fn fig13_trap_capacity_sweep(
    code: &CssCode,
    options: &SweepOptions,
) -> Vec<TrapSensitivityRow> {
    let points = trap_capacity_sweep(code, &default_trap_counts(code));
    let mut spec = ScenarioSpec::new("fig13_trap_capacity_sweep");
    let idx = spec.code(code.clone());
    for point in &points {
        let (x, latency) = (point.num_traps, point.execution_time);
        spec.point(format!("cyclone-x{x}/x={x}"), idx, FIG13_P, latency);
    }
    let result = run_sweep(&spec, options);
    points
        .into_iter()
        .zip(&result.points)
        .map(|(point, outcome)| TrapSensitivityRow {
            point,
            ler: outcome.ler,
        })
        .collect()
}

/// Fig. 13's finding: the fastest configuration ([`best_configuration`]).
pub fn fig13_fastest(rows: &[TrapSensitivityRow]) -> Option<&TrapSweepPoint> {
    best_configuration(rows.iter().map(|r| &r.point))
}

// ---------------------------------------------------------------------------
// Figs. 14 & 15 — LER: Cyclone vs baseline across physical error rates
// ---------------------------------------------------------------------------

/// One point of the Fig. 14/15 LER comparison curves.
#[derive(Debug, Clone, PartialEq)]
pub struct LerComparisonRow {
    /// Code label.
    pub code: String,
    /// Physical error rate.
    pub p: f64,
    /// Baseline round latency, seconds.
    pub baseline_latency: f64,
    /// Cyclone round latency, seconds.
    pub cyclone_latency: f64,
    /// Baseline LER estimate.
    pub baseline_ler: LerEstimate,
    /// Cyclone LER estimate.
    pub cyclone_ler: LerEstimate,
}

impl LerComparisonRow {
    /// The finding of Figs. 14/15: the baseline's LER over Cyclone's.
    pub fn improvement(&self) -> f64 {
        self.baseline_ler.ler / self.cyclone_ler.ler
    }
}

/// Declares the Fig. 14/15 scenario (`figure` names the cache file: the BB and HGP
/// variants of the same comparison sweep must not share one). Returns the spec and
/// the per-code `(baseline_latency, cyclone_latency)` pairs.
pub fn ler_comparison_spec(
    figure: &str,
    codes: &[CssCode],
    ps: &[f64],
) -> (ScenarioSpec, Vec<(f64, f64)>) {
    let times = OperationTimes::default();
    let mut spec = ScenarioSpec::new(figure);
    let mut latencies = Vec::new();
    for code in codes {
        let base = Codesign::Baseline.compile(code, &times);
        let cyc = Codesign::Cyclone.compile(code, &times);
        latencies.push((base.execution_time, cyc.execution_time));
        let idx = spec.code(code.clone());
        for &p in ps {
            spec.point(
                format!("baseline/{}/p={p}", code.descriptor()),
                idx,
                p,
                base.execution_time,
            );
            spec.point(
                format!("cyclone/{}/p={p}", code.descriptor()),
                idx,
                p,
                cyc.execution_time,
            );
        }
    }
    (spec, latencies)
}

/// Figs. 14 (BB codes) and 15 (HGP codes): logical error rate of Cyclone vs the
/// baseline across a sweep of physical error rates; `figure` names the cache
/// file (`fig14_bb_ler` / `fig15_hgp_ler` from the bench frontends).
pub fn ler_comparison(
    figure: &str,
    codes: &[CssCode],
    ps: &[f64],
    options: &SweepOptions,
) -> Vec<LerComparisonRow> {
    let result = run_sweep(&ler_comparison_spec(figure, codes, ps).0, options);
    let points = codes
        .iter()
        .flat_map(|code| ps.iter().map(|&p| (code.descriptor(), p)));
    points
        .zip(result.points.chunks(2))
        .map(|((code, p), pair)| LerComparisonRow {
            code,
            p,
            baseline_latency: pair[0].latency,
            cyclone_latency: pair[1].latency,
            baseline_ler: pair[0].ler,
            cyclone_ler: pair[1].ler,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 16 — spacetime cost
// ---------------------------------------------------------------------------

/// One bar pair of Fig. 16.
#[derive(Debug, Clone, PartialEq)]
pub struct SpacetimeRow {
    /// Code label.
    pub code: String,
    /// Baseline spacetime cost (traps × execution time × ancillas).
    pub baseline_spacetime: f64,
    /// Cyclone spacetime cost.
    pub cyclone_spacetime: f64,
    /// Baseline / Cyclone ratio (the paper reports up to ~20×).
    pub improvement: f64,
}

/// Fig. 16: relative spacetime cost of the baseline vs base Cyclone.
pub fn fig16_spacetime(codes: &[CssCode]) -> Vec<SpacetimeRow> {
    let times = OperationTimes::default();
    codes
        .iter()
        .map(|code| {
            let b = Codesign::Baseline.compile(code, &times).spacetime_cost();
            let c = Codesign::Cyclone.compile(code, &times).spacetime_cost();
            SpacetimeRow {
                code: code.descriptor(),
                baseline_spacetime: b,
                cyclone_spacetime: c,
                improvement: b / c,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 17 — baseline sensitivity to loose (excess) trap capacity
// ---------------------------------------------------------------------------

/// Physical error rate of Fig. 17.
pub const FIG17_P: f64 = 1e-4;
/// The per-trap capacities Fig. 17 gives the baseline grid.
pub const FIG17_CAPACITIES: [usize; 5] = [5, 8, 12, 20, 40];

/// One point of Fig. 17.
#[derive(Debug, Clone, PartialEq)]
pub struct LooseCapacityRow {
    /// Per-trap ion capacity given to the baseline grid.
    pub capacity: usize,
    /// Baseline execution time, seconds.
    pub execution_time: f64,
    /// Baseline LER at [`FIG17_P`].
    pub ler: LerEstimate,
}

/// Fig. 17: the baseline's LER when its traps are given the excess capacities of
/// [`FIG17_CAPACITIES`].
pub fn fig17_loose_capacity(code: &CssCode, options: &SweepOptions) -> Vec<LooseCapacityRow> {
    let times = OperationTimes::default();
    let mut spec = ScenarioSpec::new("fig17_loose_capacity");
    let idx = spec.code(code.clone());
    for cap in FIG17_CAPACITIES {
        let grid = baseline_grid(code.num_qubits(), cap);
        let (round, _) = compile_baseline(code, &grid, &times, &serial_schedule(code));
        spec.point(
            format!("baseline/cap={cap}"),
            idx,
            FIG17_P,
            round.execution_time,
        );
    }
    let result = run_sweep(&spec, options);
    FIG17_CAPACITIES
        .iter()
        .zip(&result.points)
        .map(|(&capacity, outcome)| LooseCapacityRow {
            capacity,
            execution_time: outcome.latency,
            ler: outcome.ler,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 18 — sensitivity to uniformly faster operations
// ---------------------------------------------------------------------------

/// Physical error rate of Fig. 18.
pub const FIG18_P: f64 = 1e-4;
/// The uniform operation-time reductions Fig. 18 sweeps.
pub const FIG18_REDUCTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.9];

/// One point of Fig. 18.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTimeSweepRow {
    /// Fractional reduction `r` of every operation duration ([`OperationTimes::scaled`]).
    pub reduction: f64,
    /// Baseline LER at [`FIG18_P`].
    pub baseline_ler: LerEstimate,
    /// Cyclone LER at [`FIG18_P`].
    pub cyclone_ler: LerEstimate,
    /// Baseline execution time after the reduction, seconds.
    pub baseline_latency: f64,
    /// Cyclone execution time after the reduction, seconds.
    pub cyclone_latency: f64,
}

/// Fig. 18: LER of baseline and Cyclone, recompiled with every operation time
/// (gates, shuttling, measurement and preparation) reduced by each fraction of
/// [`FIG18_REDUCTIONS`]. The paper reduces gate and shuttle times only.
pub fn fig18_op_time_sweep(code: &CssCode, options: &SweepOptions) -> Vec<OpTimeSweepRow> {
    let mut spec = ScenarioSpec::new("fig18_op_time_sweep");
    let idx = spec.code(code.clone());
    for r in FIG18_REDUCTIONS {
        let times = OperationTimes::default().scaled(r);
        let base = Codesign::Baseline.compile(code, &times);
        let cyc = Codesign::Cyclone.compile(code, &times);
        spec.point(format!("baseline/r={r}"), idx, FIG18_P, base.execution_time);
        spec.point(format!("cyclone/r={r}"), idx, FIG18_P, cyc.execution_time);
    }
    let result = run_sweep(&spec, options);
    FIG18_REDUCTIONS
        .iter()
        .zip(result.points.chunks(2))
        .map(|(&reduction, pair)| OpTimeSweepRow {
            reduction,
            baseline_ler: pair[0].ler,
            cyclone_ler: pair[1].ler,
            baseline_latency: pair[0].latency,
            cyclone_latency: pair[1].latency,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 19 — alternate grid vs baseline vs Cyclone execution times
// ---------------------------------------------------------------------------

/// One row of Fig. 19.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTimeRow {
    /// Code label.
    pub code: String,
    /// Alternate-grid (L-junction serpentine) execution time, seconds.
    pub alternate_grid: f64,
    /// Baseline grid execution time, seconds.
    pub baseline: f64,
    /// Base Cyclone execution time, seconds.
    pub cyclone: f64,
}

impl ExecutionTimeRow {
    /// Fig. 19's finding: how many times faster Cyclone is than the baseline.
    pub fn cyclone_speedup(&self) -> f64 {
        self.baseline / self.cyclone
    }
}

/// Fig. 19: raw execution times on the alternate grid, baseline grid, and Cyclone.
pub fn fig19_execution_times(codes: &[CssCode]) -> Vec<ExecutionTimeRow> {
    let times = OperationTimes::default();
    let cell = |design: Codesign, code: &CssCode| design.compile(code, &times).execution_time;
    codes
        .iter()
        .map(|code| ExecutionTimeRow {
            code: code.descriptor(),
            alternate_grid: cell(Codesign::AlternateGrid, code),
            baseline: cell(Codesign::Baseline, code),
            cyclone: cell(Codesign::Cyclone, code),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 20 — compiler comparison (baseline / baseline 2 / baseline 3 / Cyclone)
// ---------------------------------------------------------------------------

/// One compiler's row in Fig. 20.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerComparisonRow {
    /// Compiler label.
    pub compiler: String,
    /// Realized execution time, seconds.
    pub execution_time: f64,
    /// Fully serialized ("unrolled") total of all components, seconds.
    pub serialized_total: f64,
    /// Gate component of the serialized total, seconds.
    pub gate: f64,
    /// Shuttling component (split + move + merge + junction), seconds.
    pub shuttle: f64,
    /// Swap component, seconds.
    pub swap: f64,
    /// Measurement component, seconds.
    pub measurement: f64,
    /// Realized parallelization: `serialized_total / execution_time`.
    pub parallelization: f64,
}

/// The `(display name, codesign)` pairs of the Fig. 20 comparison.
pub const FIG20_COMPILERS: [(&str, Codesign); 4] = [
    ("Baseline (EJF)", Codesign::Baseline),
    ("Baseline 2 (shuttle-muzzled)", Codesign::Baseline2),
    ("Baseline 3 (MoveLess-style)", Codesign::Baseline3),
    ("Cyclone", Codesign::Cyclone),
];

/// Fig. 20: total and component-wise execution times of the three baseline compilers
/// and Cyclone on the same code, plus the realized parallelization.
pub fn fig20_compiler_comparison(code: &CssCode) -> Vec<CompilerComparisonRow> {
    let times = OperationTimes::default();
    FIG20_COMPILERS
        .iter()
        .map(|&(display, design)| {
            let round = design.compile(code, &times);
            let b = round.breakdown;
            CompilerComparisonRow {
                compiler: display.to_string(),
                execution_time: round.execution_time,
                serialized_total: b.serialized_total(),
                gate: b.gate,
                shuttle: b.split + b.merge + b.shuttle_move + b.junction + b.rebalance,
                swap: b.swap,
                measurement: b.measurement,
                parallelization: round.effective_parallelism(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 21 — GateSwap vs IonSwap
// ---------------------------------------------------------------------------

/// One row of Fig. 21.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapSensitivityRow {
    /// Codesign label (`"baseline"` or `"cyclone"`).
    pub codesign: String,
    /// Swap mechanism label.
    pub swap_kind: String,
    /// Execution time, seconds.
    pub execution_time: f64,
}

/// Fig. 21: execution time of baseline and Cyclone under GateSwap vs IonSwap.
pub fn fig21_swap_sensitivity(code: &CssCode) -> Vec<SwapSensitivityRow> {
    let mut rows = Vec::new();
    for kind in [SwapKind::GateSwap, SwapKind::IonSwap] {
        let times = OperationTimes::default().with_swap_kind(kind);
        for design in [Codesign::Baseline, Codesign::Cyclone] {
            rows.push(SwapSensitivityRow {
                codesign: design.name().to_string(),
                swap_kind: kind.to_string(),
                execution_time: design.compile(code, &times).execution_time,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// fig_hetero — channel-structured noise across every codesign
// ---------------------------------------------------------------------------

/// One row of the heterogeneous-noise scenario: a codesign evaluated under one
/// error channel.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroRow {
    /// Codesign label ([`Codesign::name`]).
    pub codesign: String,
    /// Channel label: `"uniform"`, `"biased:<ratio>"`, or `"schedule"`.
    pub channel: String,
    /// Compiled round latency of the codesign, seconds.
    pub latency: f64,
    /// LER estimate under this channel.
    pub ler: LerEstimate,
}

/// Physical error rate of the heterogeneous-noise scenario.
pub const HETERO_P: f64 = 2e-3;
/// The measurement-bias ratios the heterogeneous-noise scenario always sweeps
/// (`--noise biased:<ratio>` adds one).
pub const HETERO_DEFAULT_RATIOS: [f64; 3] = [0.5, 2.0, 8.0];

/// Declares the heterogeneous-noise scenario: every codesign in [`Codesign::ALL`]
/// order, sampled under (a) the uniform channel, (b) one biased channel per
/// measurement-bias ratio, and (c) the schedule-derived channel built from the
/// codesign's own per-qubit idle exposure ([`Codesign::compile_profiled`]).
/// Returns the spec plus `(codesign, channel, latency)` row metadata in point
/// order.
pub fn fig_hetero_spec(
    code: &CssCode,
    p: f64,
    ratios: &[f64],
) -> (ScenarioSpec, Vec<(String, String, f64)>) {
    let times = OperationTimes::default();
    let mut spec = ScenarioSpec::new("fig_hetero");
    let idx = spec.code(code.clone());
    let mut meta = Vec::new();
    for design in Codesign::ALL {
        let label = design.name().to_string();
        let (round, exposure) = design.compile_profiled(code, &times);
        let exposure = exposure.expect("every codesign profiles its idle exposure");
        let latency = round.execution_time;
        spec.point_channel(
            format!("{label}/uniform"),
            idx,
            p,
            latency,
            ChannelSpec::Uniform,
        );
        meta.push((label.clone(), "uniform".to_string(), latency));
        for &r in ratios {
            spec.point_channel(
                format!("{label}/biased:{r}"),
                idx,
                p,
                latency,
                ChannelSpec::Biased { meas_ratio: r },
            );
            meta.push((label.clone(), format!("biased:{r}"), latency));
        }
        let model = HardwareNoiseModel::new(NoiseParameters::new(p), latency);
        let channel =
            ErrorChannel::from_schedule(&model, &exposure.data, &exposure.measurement_order());
        spec.point_channel(
            format!("{label}/schedule"),
            idx,
            p,
            latency,
            ChannelSpec::Explicit(channel),
        );
        meta.push((label, "schedule".to_string(), latency));
    }
    (spec, meta)
}

/// fig_hetero: logical error rate of every codesign under uniform,
/// measurement-biased, and schedule-derived per-qubit channels at [`HETERO_P`].
pub fn fig_hetero(code: &CssCode, ratios: &[f64], options: &SweepOptions) -> Vec<HeteroRow> {
    hetero_at(code, HETERO_P, ratios, options)
}

/// [`fig_hetero`] at physical error rate `p`.
fn hetero_at(code: &CssCode, p: f64, ratios: &[f64], options: &SweepOptions) -> Vec<HeteroRow> {
    let (spec, meta) = fig_hetero_spec(code, p, ratios);
    let result = run_sweep(&spec, options);
    meta.into_iter()
        .zip(&result.points)
        .map(|((codesign, channel, latency), outcome)| HeteroRow {
            codesign,
            channel,
            latency,
            ler: outcome.ler,
        })
        .collect()
}

/// How many times `row`'s LER exceeds the LER of its codesign's uniform row in
/// `rows` (NaN when there is none).
pub fn degradation_vs_uniform(rows: &[HeteroRow], row: &HeteroRow) -> f64 {
    let uniform = |u: &&HeteroRow| u.codesign == row.codesign && u.channel == "uniform";
    rows.iter()
        .find(uniform)
        .map_or(f64::NAN, |u| row.ler.ler / u.ler.ler)
}

/// fig_hetero's finding: the structured-channel row that degrades most against
/// uniform, with its degradation; of a tie, the first in row order.
pub fn worst_degradation(rows: &[HeteroRow]) -> Option<(f64, &HeteroRow)> {
    rows.iter()
        .filter(|r| r.channel != "uniform")
        .map(|r| (degradation_vs_uniform(rows, r), r))
        .reduce(|worst, next| if next.0 > worst.0 { next } else { worst })
}

// ---------------------------------------------------------------------------
// Spatial / control-overhead summary (§IV spatial claims, §VI wiring discussion)
// ---------------------------------------------------------------------------

/// One row of the spatial-efficiency summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialRow {
    /// Code label.
    pub code: String,
    /// Traps in the baseline grid.
    pub baseline_traps: usize,
    /// Junctions in the baseline grid.
    pub baseline_junctions: usize,
    /// DAC channel groups needed by the baseline.
    pub baseline_dacs: usize,
    /// Ancilla qubits used by the baseline (one per stabilizer).
    pub baseline_ancillas: usize,
    /// Traps in base Cyclone.
    pub cyclone_traps: usize,
    /// Junctions in base Cyclone.
    pub cyclone_junctions: usize,
    /// DAC channel groups needed by Cyclone (constant).
    pub cyclone_dacs: usize,
    /// Ancilla qubits used by Cyclone (reused between the X and Z rotations).
    pub cyclone_ancillas: usize,
}

/// Spatial summary: traps, junctions, DACs, and ancilla counts of baseline vs Cyclone.
pub fn spatial_summary(codes: &[CssCode]) -> Vec<SpatialRow> {
    codes
        .iter()
        .map(|code| {
            let grid = baseline_grid(code.num_qubits(), BASELINE_CAPACITY);
            let design = CycloneCodesign::new(code, CycloneConfig::base());
            let ring_topo = design.topology();
            SpatialRow {
                code: code.descriptor(),
                baseline_traps: grid.num_traps(),
                baseline_junctions: grid.num_junctions(),
                baseline_dacs: dac_count(&grid),
                baseline_ancillas: code.num_stabilizers(),
                cyclone_traps: ring_topo.num_traps(),
                cyclone_junctions: ring_topo.num_junctions(),
                cyclone_dacs: dac_count(ring_topo),
                cyclone_ancillas: design.num_ancilla(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoder::memory::{logical_error_rate, MemoryConfig};
    use qec::classical::ClassicalCode;
    use qec::codes::bb_72_12_6;
    use qec::hgp::square_hypergraph_product;

    fn tiny_hgp() -> CssCode {
        square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid")
    }

    fn quick_config() -> MemoryConfig {
        MemoryConfig {
            shots: 60,
            bp_iterations: 12,
            threads: 2,
            seed: 7,
        }
    }

    fn ephemeral() -> SweepOptions {
        SweepOptions::ephemeral(quick_config())
    }

    /// An estimate of `failures` in 100 shots.
    fn est(failures: usize) -> LerEstimate {
        LerEstimate::from_counts(100, failures)
    }

    #[test]
    fn fig3_rows_have_large_speedups() {
        let catalog = vec![CatalogEntry {
            family: qec::codes::CodeFamily::Bb,
            label: "[[72,12,6]]".into(),
            code: bb_72_12_6().expect("valid"),
        }];
        let rows = fig3_parallel_speedup(&catalog);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].speedup > 10.0);
        assert!(rows[0].serial_depth >= rows[0].parallel_depth);
    }

    #[test]
    fn fig6_matrix_orders_as_in_paper() {
        let code = tiny_hgp();
        let m = fig6_confusion_matrix(&code);
        // Coordinated circle (Cyclone) is the fastest cell; uncoordinated circle the slowest.
        assert!(m.circle_dynamic < m.grid_static);
        assert!(m.circle_static > m.circle_dynamic);
    }

    #[test]
    fn fig16_spacetime_improvement_positive() {
        let code = tiny_hgp();
        let rows = fig16_spacetime(std::slice::from_ref(&code));
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].improvement > 1.0,
            "Cyclone should win on spacetime, got {}",
            rows[0].improvement
        );
    }

    #[test]
    fn fig20_includes_all_four_compilers() {
        let code = tiny_hgp();
        let rows = fig20_compiler_comparison(&code);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.execution_time > 0.0));
        assert!(rows.iter().all(|r| r.parallelization >= 1.0));
    }

    #[test]
    fn fig21_has_both_swap_kinds() {
        let code = tiny_hgp();
        let rows = fig21_swap_sensitivity(&code);
        assert_eq!(rows.len(), 4);
        let gate_cyc = rows
            .iter()
            .find(|r| r.codesign == "cyclone" && r.swap_kind == "GateSwap")
            .unwrap();
        assert!(gate_cyc.execution_time > 0.0);
    }

    #[test]
    fn spatial_summary_shows_cyclone_savings() {
        let code = bb_72_12_6().expect("valid");
        let rows = spatial_summary(std::slice::from_ref(&code));
        let r = &rows[0];
        assert!(r.cyclone_traps < r.baseline_traps);
        assert!(r.cyclone_ancillas * 2 == r.baseline_ancillas);
        assert!(r.cyclone_dacs < r.baseline_dacs);
    }

    #[test]
    fn ler_comparison_produces_rows_for_each_p() {
        let code = tiny_hgp();
        let rows = ler_comparison(
            "ler_comparison",
            std::slice::from_ref(&code),
            &[2e-3, 5e-3],
            &ephemeral(),
        );
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.cyclone_latency < r.baseline_latency));
    }

    #[test]
    fn fig5_latency_rows_cover_speedups() {
        let code = tiny_hgp();
        let rows = fig5_latency_vs_ler(std::slice::from_ref(&code), &ephemeral());
        assert_eq!(rows.len(), 3);
        assert!(rows[0].latency > rows[2].latency);
    }

    #[test]
    fn fig9_rows_share_the_baseline_reference() {
        let code = tiny_hgp();
        let rows = fig9_junction_sensitivity(&code, &ephemeral());
        assert_eq!(rows.len(), FIG9_REDUCTIONS.len());
        assert_eq!(rows[0].baseline_ler.ler, rows[1].baseline_ler.ler);
        assert!(rows[1].mesh_execution_time < rows[0].mesh_execution_time);
    }

    #[test]
    fn fig_hetero_covers_every_codesign_and_channel() {
        let code = tiny_hgp();
        let ratios = [4.0];
        // At 8e-3 rather than HETERO_P, so that the tiny code fails at all in
        // 60 shots and the bit-identity check below compares real counts.
        let rows = hetero_at(&code, 8e-3, &ratios, &ephemeral());
        // One uniform + one biased + one schedule row per codesign.
        assert_eq!(rows.len(), Codesign::ALL.len() * (ratios.len() + 2));
        for label in Codesign::ALL.map(Codesign::name) {
            let of_label: Vec<_> = rows.iter().filter(|r| r.codesign == label).collect();
            assert_eq!(of_label.len(), 3, "{label} rows missing");
            assert!(of_label.iter().any(|r| r.channel == "uniform"));
            assert!(of_label.iter().any(|r| r.channel == "biased:4"));
            assert!(of_label.iter().any(|r| r.channel == "schedule"));
            // All three channels share the codesign's compiled latency.
            assert!(of_label.windows(2).all(|w| w[0].latency == w[1].latency));
        }
        // The uniform rows must match the plain scalar path (the engine threads
        // the channel spec through without perturbing the uniform fast path).
        let baseline_uniform = rows
            .iter()
            .find(|r| r.codesign == "baseline" && r.channel == "uniform")
            .expect("baseline uniform row");
        let direct = logical_error_rate(&code, 8e-3, baseline_uniform.latency, &quick_config());
        assert_eq!(baseline_uniform.ler, direct);
    }

    #[test]
    fn fig18_rows_pair_baseline_and_cyclone() {
        let code = tiny_hgp();
        let rows = fig18_op_time_sweep(&code, &ephemeral());
        assert_eq!(rows.len(), 5);
        assert!(rows[1].baseline_latency < rows[0].baseline_latency);
        assert!(rows.iter().all(|r| r.cyclone_latency < r.baseline_latency));
    }

    fn junction_row(reduction: f64, mesh: usize, baseline: usize) -> JunctionSensitivityRow {
        JunctionSensitivityRow {
            reduction,
            mesh_execution_time: 1.0,
            mesh_ler: est(mesh),
            baseline_ler: est(baseline),
        }
    }

    #[test]
    fn fig9_crossover_is_the_first_reduction_at_or_below_the_baseline() {
        let never = [junction_row(0.0, 9, 5), junction_row(0.5, 6, 5)];
        assert_eq!(fig9_crossover(&never), None);
        // A tie with the baseline is a crossover, and the first one counts.
        let at_first = [junction_row(0.0, 5, 5), junction_row(0.5, 1, 5)];
        assert_eq!(fig9_crossover(&at_first), Some(0.0));
        let later = [
            junction_row(0.0, 9, 5),
            junction_row(0.7, 4, 5),
            junction_row(0.9, 1, 5),
        ];
        assert_eq!(fig9_crossover(&later), Some(0.7));
    }

    #[test]
    fn fig13_fastest_keeps_the_first_of_a_tie() {
        let row = |num_traps, execution_time| TrapSensitivityRow {
            point: TrapSweepPoint {
                num_traps,
                trap_capacity: 4,
                execution_time,
            },
            ler: est(1),
        };
        let rows = [row(1, 0.9), row(9, 0.2), row(16, 0.2), row(108, 0.3)];
        assert_eq!(fig13_fastest(&rows).map(|p| p.num_traps), Some(9));
        assert_eq!(fig13_fastest(&[]), None);
    }

    #[test]
    fn hetero_worst_degradation_keeps_the_first_of_a_tie() {
        let row = |codesign: &str, channel: &str, failures| HeteroRow {
            codesign: codesign.into(),
            channel: channel.into(),
            latency: 1.0,
            ler: est(failures),
        };
        let rows = [
            row("baseline", "uniform", 2),
            row("baseline", "biased:2", 8),
            row("cyclone", "uniform", 1),
            row("cyclone", "biased:2", 4),
            row("cyclone", "schedule", 2),
        ];
        assert_eq!(degradation_vs_uniform(&rows, &rows[4]), 2.0);
        // baseline/biased:2 and cyclone/biased:2 both degrade 4x.
        let (worst, at) = worst_degradation(&rows).expect("structured rows");
        assert_eq!(worst, 4.0);
        assert_eq!(
            (at.codesign.as_str(), at.channel.as_str()),
            ("baseline", "biased:2")
        );
        assert!(worst_degradation(&rows[..1]).is_none());
    }

    #[test]
    fn improvement_against_a_zero_failure_floor_is_finite() {
        let row = |baseline, cyclone| LerComparisonRow {
            code: "[[72,12,6]]".into(),
            p: 1e-3,
            baseline_latency: 2.0,
            cyclone_latency: 1.0,
            baseline_ler: baseline,
            cyclone_ler: cyclone,
        };
        // No Cyclone failure in 100 shots: its LER is the half-failure floor
        // 0.5/100, so 10 baseline failures read as a 20x improvement.
        assert_eq!(row(est(10), est(0)).improvement(), 20.0);
        assert_eq!(row(est(10), est(5)).improvement(), 2.0);
    }

    #[test]
    fn findings_read_their_rows() {
        let m = ConfusionMatrix {
            code: String::new(),
            grid_static: 9.0,
            grid_dynamic: 8.0,
            circle_static: 20.0,
            circle_dynamic: 1.5,
        };
        assert_eq!(m.cyclone_speedup(), 6.0);
        let row = ExecutionTimeRow {
            code: String::new(),
            alternate_grid: 3.0,
            baseline: 2.0,
            cyclone: 0.5,
        };
        assert_eq!(row.cyclone_speedup(), 4.0);
    }
}
