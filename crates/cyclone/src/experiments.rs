//! Experiment runners that regenerate every figure of the paper's evaluation.
//!
//! Every Monte-Carlo figure is a thin declaration: it assembles a [`ScenarioSpec`]
//! ([`Codesign`] variants × codes × operating points) and hands it to the
//! [`sweep`](crate::sweep) engine, which parallelizes the points, caches results in
//! `sweeps/<figure>.json`, and keeps everything bit-identical at any thread count.
//! Figures compile [`Codesign`] variants directly; the trap-count and capacity
//! sweeps (Figs. 13 and 17) compile their other trap counts and capacities through
//! [`CycloneCodesign`] and [`compile_baseline`] on [`baseline_grid`].
//!
//! Each `figNN_*` function returns plain data rows; the `bench` crate's binaries
//! print them as the tables/series of the corresponding figure, and `EXPERIMENTS.md`
//! records the paper-vs-measured comparison. Monte-Carlo figures take
//! [`SweepOptions`] ([`SweepOptions::ephemeral`] runs in memory,
//! [`SweepOptions::cached`] adds the cache) so shot counts scale from quick smoke
//! runs to publication-quality sampling.

use crate::codesign::{CycloneCodesign, CycloneConfig};
use crate::condensed::{trap_capacity_sweep, TrapSweepPoint};
use crate::registry::{Codesign, BASELINE_CAPACITY};
use crate::sweep::{run_sweep, ScenarioSpec, SweepOptions};
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
/// given factors, at fixed physical error rate `p`.
pub fn fig5_spec(codes: &[CssCode], p: f64, speedups: &[f64]) -> ScenarioSpec {
    let times = OperationTimes::default();
    let mut spec = ScenarioSpec::new("fig05_latency_vs_ler");
    for code in codes {
        let base = Codesign::Baseline.compile(code, &times);
        let idx = spec.code(code.clone());
        for &s in speedups {
            spec.point(
                format!("baseline/{}/s={s}", code.descriptor()),
                idx,
                p,
                base.execution_time / s,
            );
        }
    }
    spec
}

/// Fig. 5: LER of each code as the compiled baseline latency is divided by the given
/// factors, at fixed physical error rate `p`.
pub fn fig5_latency_vs_ler(
    codes: &[CssCode],
    p: f64,
    speedups: &[f64],
    options: &SweepOptions,
) -> Vec<LatencyLerRow> {
    let spec = fig5_spec(codes, p, speedups);
    let result = run_sweep(&spec, options);
    let mut rows = Vec::new();
    let mut outcomes = result.points.iter();
    for code in codes {
        for &s in speedups {
            let outcome = outcomes.next().expect("one outcome per point");
            rows.push(LatencyLerRow {
                code: code.descriptor(),
                speedup: s,
                latency: outcome.latency,
                ler: outcome.ler,
            });
        }
    }
    rows
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

/// Fig. 6: execution time of every software/hardware combination; each of the four
/// cells is one [`Codesign`].
pub fn fig6_confusion_matrix(code: &CssCode, times: &OperationTimes) -> ConfusionMatrix {
    let cell = |design: Codesign| design.compile(code, times).execution_time;
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

/// One point of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct JunctionSensitivityRow {
    /// Fractional reduction of junction crossing times (0 = nominal).
    pub reduction: f64,
    /// Mesh-junction-network execution time, seconds.
    pub mesh_execution_time: f64,
    /// Mesh-junction-network LER at the configured `p`.
    pub mesh_ler: LerEstimate,
    /// Baseline-grid LER at the same `p` (horizontal reference line).
    pub baseline_ler: LerEstimate,
}

/// Declares the Fig. 9 scenario: the baseline reference point plus one mesh point per
/// junction-time reduction. Returns the spec and the mesh execution times (row
/// metadata the sweep result alone does not carry).
pub fn fig9_spec(code: &CssCode, p: f64, reductions: &[f64]) -> (ScenarioSpec, Vec<f64>) {
    let nominal = OperationTimes::default();
    let mut spec = ScenarioSpec::new("fig09_junction_sensitivity");
    let idx = spec.code(code.clone());
    let baseline = Codesign::Baseline.compile(code, &nominal);
    spec.point("baseline", idx, p, baseline.execution_time);
    let mut mesh_times = Vec::new();
    for &r in reductions {
        let times = nominal.with_junction_reduction(r);
        let round = Codesign::DynamicMesh.compile(code, &times);
        mesh_times.push(round.execution_time);
        spec.point(format!("mesh/r={r}"), idx, p, round.execution_time);
    }
    (spec, mesh_times)
}

/// Fig. 9: LER of the mesh junction network as junction crossing times are reduced,
/// against the baseline grid reference.
pub fn fig9_junction_sensitivity(
    code: &CssCode,
    p: f64,
    reductions: &[f64],
    options: &SweepOptions,
) -> Vec<JunctionSensitivityRow> {
    let (spec, mesh_times) = fig9_spec(code, p, reductions);
    let result = run_sweep(&spec, options);
    let baseline_ler = result.points[0].ler;
    reductions
        .iter()
        .zip(mesh_times)
        .zip(&result.points[1..])
        .map(
            |((&r, mesh_execution_time), outcome)| JunctionSensitivityRow {
                reduction: r,
                mesh_execution_time,
                mesh_ler: outcome.ler,
                baseline_ler,
            },
        )
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 13 — trap-count / ion-capacity sensitivity of Cyclone
// ---------------------------------------------------------------------------

/// One point of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct TrapSensitivityRow {
    /// Number of traps.
    pub num_traps: usize,
    /// Tight trap capacity for this configuration.
    pub trap_capacity: usize,
    /// Cyclone execution time, seconds.
    pub execution_time: f64,
    /// LER at the configured physical error rate.
    pub ler: LerEstimate,
}

/// Declares the Fig. 13 scenario: one point per condensed Cyclone trap count, compiled
/// by [`trap_capacity_sweep`]. Returns the spec and the compiled sweep points.
pub fn fig13_spec(
    code: &CssCode,
    p: f64,
    trap_counts: &[usize],
) -> (ScenarioSpec, Vec<TrapSweepPoint>) {
    let points = trap_capacity_sweep(code, trap_counts, &OperationTimes::default());
    let mut spec = ScenarioSpec::new("fig13_trap_capacity_sweep");
    let idx = spec.code(code.clone());
    for point in &points {
        let x = point.num_traps;
        spec.point(format!("cyclone-x{x}/x={x}"), idx, p, point.execution_time);
    }
    (spec, points)
}

/// Fig. 13: Cyclone execution time and LER across "tight" trap/capacity arrangements
/// at fixed `p` (the paper uses `p = 10⁻⁴` on the `[[225,9,6]]` code).
pub fn fig13_trap_capacity_sweep(
    code: &CssCode,
    p: f64,
    trap_counts: &[usize],
    options: &SweepOptions,
) -> Vec<TrapSensitivityRow> {
    let (spec, points) = fig13_spec(code, p, trap_counts);
    let result = run_sweep(&spec, options);
    points
        .into_iter()
        .zip(&result.points)
        .map(|(point, outcome)| TrapSensitivityRow {
            num_traps: point.num_traps,
            trap_capacity: point.trap_capacity,
            execution_time: point.execution_time,
            ler: outcome.ler,
        })
        .collect()
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
    let (spec, latencies) = ler_comparison_spec(figure, codes, ps);
    let result = run_sweep(&spec, options);
    let mut rows = Vec::new();
    let mut outcomes = result.points.iter();
    for (code, (baseline_latency, cyclone_latency)) in codes.iter().zip(latencies) {
        for &p in ps {
            let base = outcomes.next().expect("baseline outcome");
            let cyc = outcomes.next().expect("cyclone outcome");
            rows.push(LerComparisonRow {
                code: code.descriptor(),
                p,
                baseline_latency,
                cyclone_latency,
                baseline_ler: base.ler,
                cyclone_ler: cyc.ler,
            });
        }
    }
    rows
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
pub fn fig16_spacetime(codes: &[CssCode], times: &OperationTimes) -> Vec<SpacetimeRow> {
    codes
        .iter()
        .map(|code| {
            let b = Codesign::Baseline.compile(code, times).spacetime_cost();
            let c = Codesign::Cyclone.compile(code, times).spacetime_cost();
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

/// One point of Fig. 17.
#[derive(Debug, Clone, PartialEq)]
pub struct LooseCapacityRow {
    /// Per-trap ion capacity given to the baseline grid.
    pub capacity: usize,
    /// Baseline execution time, seconds.
    pub execution_time: f64,
    /// Baseline LER at the configured `p`.
    pub ler: LerEstimate,
}

/// Declares the Fig. 17 scenario: the baseline grid with excess per-trap capacity.
/// Returns the spec and the per-capacity execution times.
pub fn fig17_spec(code: &CssCode, p: f64, capacities: &[usize]) -> (ScenarioSpec, Vec<f64>) {
    let times = OperationTimes::default();
    let mut spec = ScenarioSpec::new("fig17_loose_capacity");
    let idx = spec.code(code.clone());
    let mut exec_times = Vec::new();
    for &cap in capacities {
        let grid = baseline_grid(code.num_qubits(), cap);
        let (round, _) = compile_baseline(code, &grid, &times, &serial_schedule(code));
        exec_times.push(round.execution_time);
        spec.point(format!("baseline/cap={cap}"), idx, p, round.execution_time);
    }
    (spec, exec_times)
}

/// Fig. 17: the baseline's LER when its traps are given excess capacity.
pub fn fig17_loose_capacity(
    code: &CssCode,
    p: f64,
    capacities: &[usize],
    options: &SweepOptions,
) -> Vec<LooseCapacityRow> {
    let (spec, exec_times) = fig17_spec(code, p, capacities);
    let result = run_sweep(&spec, options);
    capacities
        .iter()
        .zip(exec_times)
        .zip(&result.points)
        .map(|((&capacity, execution_time), outcome)| LooseCapacityRow {
            capacity,
            execution_time,
            ler: outcome.ler,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 18 — sensitivity to uniformly faster gates and shuttling
// ---------------------------------------------------------------------------

/// One point of Fig. 18.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTimeSweepRow {
    /// Fractional reduction `r` applied to every gate and shuttling duration.
    pub reduction: f64,
    /// Baseline LER at the configured `p`.
    pub baseline_ler: LerEstimate,
    /// Cyclone LER at the configured `p`.
    pub cyclone_ler: LerEstimate,
    /// Baseline execution time after the reduction, seconds.
    pub baseline_latency: f64,
    /// Cyclone execution time after the reduction, seconds.
    pub cyclone_latency: f64,
}

/// Declares the Fig. 18 scenario: baseline and Cyclone recompiled under uniformly
/// reduced operation times. Returns the spec and the per-reduction
/// `(baseline_latency, cyclone_latency)` pairs.
pub fn fig18_spec(code: &CssCode, p: f64, reductions: &[f64]) -> (ScenarioSpec, Vec<(f64, f64)>) {
    let mut spec = ScenarioSpec::new("fig18_op_time_sweep");
    let idx = spec.code(code.clone());
    let mut latencies = Vec::new();
    for &r in reductions {
        let times = OperationTimes::default().scaled(r);
        let base = Codesign::Baseline.compile(code, &times);
        let cyc = Codesign::Cyclone.compile(code, &times);
        latencies.push((base.execution_time, cyc.execution_time));
        spec.point(format!("baseline/r={r}"), idx, p, base.execution_time);
        spec.point(format!("cyclone/r={r}"), idx, p, cyc.execution_time);
    }
    (spec, latencies)
}

/// Fig. 18: LER of baseline and Cyclone as gate and shuttling times are reduced by a
/// uniform percentage.
pub fn fig18_op_time_sweep(
    code: &CssCode,
    p: f64,
    reductions: &[f64],
    options: &SweepOptions,
) -> Vec<OpTimeSweepRow> {
    let (spec, latencies) = fig18_spec(code, p, reductions);
    let result = run_sweep(&spec, options);
    reductions
        .iter()
        .zip(latencies)
        .zip(result.points.chunks(2))
        .map(
            |((&r, (baseline_latency, cyclone_latency)), pair)| OpTimeSweepRow {
                reduction: r,
                baseline_ler: pair[0].ler,
                cyclone_ler: pair[1].ler,
                baseline_latency,
                cyclone_latency,
            },
        )
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

/// Fig. 19: raw execution times on the alternate grid, baseline grid, and Cyclone.
pub fn fig19_execution_times(codes: &[CssCode], times: &OperationTimes) -> Vec<ExecutionTimeRow> {
    let cell = |design: Codesign, code: &CssCode| design.compile(code, times).execution_time;
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
pub fn fig20_compiler_comparison(
    code: &CssCode,
    times: &OperationTimes,
) -> Vec<CompilerComparisonRow> {
    FIG20_COMPILERS
        .iter()
        .map(|&(display, design)| {
            let round = design.compile(code, times);
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

/// The measurement-bias ratios swept by the `fig_hetero` binary by default.
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
/// measurement-biased, and schedule-derived per-qubit channels at fixed `p`.
pub fn fig_hetero(
    code: &CssCode,
    p: f64,
    ratios: &[f64],
    options: &SweepOptions,
) -> Vec<HeteroRow> {
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
        let m = fig6_confusion_matrix(&code, &OperationTimes::default());
        // Coordinated circle (Cyclone) is the fastest cell; uncoordinated circle the slowest.
        assert!(m.circle_dynamic < m.grid_static);
        assert!(m.circle_static > m.circle_dynamic);
    }

    #[test]
    fn fig16_spacetime_improvement_positive() {
        let code = tiny_hgp();
        let rows = fig16_spacetime(std::slice::from_ref(&code), &OperationTimes::default());
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
        let rows = fig20_compiler_comparison(&code, &OperationTimes::default());
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
        let rows = fig5_latency_vs_ler(
            std::slice::from_ref(&code),
            5e-3,
            &[1.0, 2.0, 4.0],
            &ephemeral(),
        );
        assert_eq!(rows.len(), 3);
        assert!(rows[0].latency > rows[2].latency);
    }

    #[test]
    fn fig9_rows_share_the_baseline_reference() {
        let code = tiny_hgp();
        let rows = fig9_junction_sensitivity(&code, 5e-3, &[0.0, 0.5], &ephemeral());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].baseline_ler.ler, rows[1].baseline_ler.ler);
        assert!(rows[1].mesh_execution_time < rows[0].mesh_execution_time);
    }

    #[test]
    fn fig_hetero_covers_every_codesign_and_channel() {
        let code = tiny_hgp();
        let ratios = [4.0];
        let rows = fig_hetero(&code, 8e-3, &ratios, &ephemeral());
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
        let rows = fig18_op_time_sweep(&code, 5e-3, &[0.0, 0.5], &ephemeral());
        assert_eq!(rows.len(), 2);
        assert!(rows[1].baseline_latency < rows[0].baseline_latency);
        assert!(rows.iter().all(|r| r.cyclone_latency < r.baseline_latency));
    }
}
