//! Sweep-engine throughput: wall-clock of a multi-point figure sweep executed
//! serially (one worker) and on the in-process chunk scheduler
//! (`--threads`, default 4 here), plus adaptive-vs-fixed sampling cost
//! per figure. Each run overwrites `BENCH_sweep.json` at the repository root,
//! so the file always holds the current commit's numbers.
//!
//! Two figure-shaped workloads are measured: the Fig. 5 latency×LER sweep (two HGP
//! codes × six latency-division factors) and the Fig. 14 LER-comparison sweep (two
//! BB codes × the error-rate grid × {baseline, cyclone}). Points are embarrassingly
//! parallel, so the pool speedup tracks the host's usable cores; the JSON
//! records `host_cores`, and on a single-core host it records an explicit
//! `scaling_not_measurable` reason with the raw seconds instead of a misleading
//! ~1.0× speedup figure. Serial and threaded runs must produce bit-identical
//! estimates — this binary asserts it, making it a determinism check as well as
//! a benchmark.
//!
//! The adaptive comparison runs each workload twice at the same per-point cap: once
//! with the fixed budget, once precision-targeted (target rse 0.1, ≥100 failures,
//! `max_shots` = the fixed budget). Every adaptive point therefore ends either
//! *bit-identical* to the fixed point (cap-bound low-LER points) or at the target
//! precision with the surplus shots saved (high-LER points); the JSON records
//! wall-clock and total shots spent for both modes, per figure.
//!
//! `--shots` scales the per-point work (CI uses 50); the settings resolve
//! through [`RunContext`] like every figure's.

use bench::runner::RunContext;
use cyclone::experiments::{fig5_spec, ler_comparison_spec};
use cyclone::sweep::{run_sweep, ScenarioSpec, SweepOptions, SweepResult};
use decoder::memory::{MemoryConfig, PrecisionTarget};
use std::time::Instant;

/// Latency division factors: six per code, so the pool has enough points to fill
/// four workers.
const SPEEDUPS: [f64; 6] = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0];

fn config(threads: usize, shots: usize) -> MemoryConfig {
    MemoryConfig {
        shots,
        bp_iterations: 30,
        threads,
        seed: 0xC1C1_0DE5,
    }
}

/// The measurement workload: the Fig. 5 sweep over two HGP codes.
fn fig5_workload() -> ScenarioSpec {
    let codes = vec![
        qec::codes::hgp_100().expect("construction"),
        qec::codes::hgp_225_9_6().expect("construction"),
    ];
    fig5_spec(&codes, 5e-4, &SPEEDUPS)
}

fn timed_run(spec: &ScenarioSpec, options: &SweepOptions) -> (SweepResult, f64) {
    let start = Instant::now();
    let result = run_sweep(spec, options);
    (result, start.elapsed().as_secs_f64())
}

/// One figure's adaptive-vs-fixed measurement, rendered as a JSON object literal.
fn adaptive_vs_fixed(figure: &str, spec: &ScenarioSpec, threads: usize, shots: usize) -> String {
    let target = &PrecisionTarget::new(0.1, 100, shots);
    let (fixed, fixed_seconds) = timed_run(spec, &SweepOptions::ephemeral(config(threads, shots)));
    let (adaptive, adaptive_seconds) = timed_run(
        spec,
        &SweepOptions::ephemeral(config(threads, shots)).with_precision(*target),
    );
    let fixed_shots = fixed.total_shots();
    let adaptive_shots = adaptive.total_shots();
    // Sanity: with max_shots == the fixed budget, every adaptive point is either
    // bit-identical to the fixed point (cap-bound) or stopped at the target — so
    // every point's std_err is at-or-below max(fixed std_err, target_rse × ler).
    let mut identical = 0usize;
    let mut at_target = 0usize;
    for (f, a) in fixed.points.iter().zip(&adaptive.points) {
        if a.ler == f.ler {
            identical += 1;
        } else {
            assert!(
                target.met_by(a.ler.shots, a.ler.failures),
                "early-stopped point {} missed the precision target",
                a.id
            );
            at_target += 1;
        }
    }
    let shots_saved = fixed_shots as f64 / adaptive_shots.max(1) as f64;
    let speedup = fixed_seconds / adaptive_seconds.max(1e-12);
    println!("  {figure} ({shots} shots/point cap): fixed {fixed_shots} shots / {fixed_seconds:.3} s, adaptive {adaptive_shots} shots / {adaptive_seconds:.3} s ({shots_saved:.1}x fewer shots, {speedup:.1}x wall-clock)");
    println!("    {at_target} points stopped at target rse {}, {identical} cap-bound points bit-identical to fixed", target.target_rse);
    format!(
        "{{\n      \"figure\": \"{figure}\",\n      \"points\": {},\n      \
         \"shots_per_point_cap\": {shots},\n      \
         \"target_rse\": {},\n      \
         \"min_failures\": {},\n      \
         \"fixed_seconds\": {fixed_seconds:.4},\n      \
         \"fixed_total_shots\": {fixed_shots},\n      \
         \"fixed_max_rse\": {:.4},\n      \
         \"adaptive_seconds\": {adaptive_seconds:.4},\n      \
         \"adaptive_total_shots\": {adaptive_shots},\n      \
         \"adaptive_max_rse\": {:.4},\n      \
         \"points_at_target\": {at_target},\n      \
         \"points_cap_bound_bit_identical\": {identical},\n      \
         \"shots_saved_factor\": {shots_saved:.3},\n      \
         \"wall_clock_speedup\": {speedup:.3}\n    }}",
        spec.points.len(),
        target.target_rse,
        target.min_failures,
        fixed.max_relative_std_err(),
        adaptive.max_relative_std_err(),
    )
}

fn main() {
    let ctx = RunContext::from_env();

    // Scale up the per-point work so the measurement dominates thread startup and
    // timer noise (1000 shots/point in CI quick mode, 8000 by default).
    let shots = 20 * ctx.config.shots;
    let threaded_workers = match ctx.config.threads {
        0 | 1 => 4,
        n => n,
    };
    let spec = fig5_workload();
    let points = spec.points.len();

    // Warm-up pass (decoder construction paths, page cache) — not timed.
    let _ = timed_run(&spec, &SweepOptions::ephemeral(config(1, shots.min(20))));

    let (serial, serial_seconds) = timed_run(&spec, &SweepOptions::ephemeral(config(1, shots)));
    let (threaded, threaded_seconds) = timed_run(
        &spec,
        &SweepOptions::ephemeral(config(threaded_workers, shots)),
    );
    // The engine must be bit-identical at any pool size.
    for (a, b) in serial.points.iter().zip(&threaded.points) {
        assert_eq!(
            a.ler.failures, b.ler.failures,
            "point {} diverged across pool sizes",
            a.id
        );
        assert_eq!(a.ler.ler, b.ler.ler);
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threaded_speedup = serial_seconds / threaded_seconds;
    let serial_pps = points as f64 / serial_seconds;
    let threaded_pps = points as f64 / threaded_seconds;

    println!("sweep engine, fig5-shaped sweep: {points} points x {shots} shots");
    println!("  host cores                {host_cores}");
    println!("  serial (1 worker)         {serial_seconds:>8.3} s  ({serial_pps:.2} points/sec)");
    println!(
        "  threaded ({threaded_workers} workers)     {threaded_seconds:>8.3} s  ({threaded_pps:.2} points/sec)"
    );
    if host_cores == 1 {
        println!(
            "  (single-core host: the {threaded_speedup:.2}x threaded ratio is NOT a scaling \
             measurement — everything shares one core)"
        );
    } else {
        println!("  threaded wall-clock speedup  {threaded_speedup:.2}x");
    }

    // Adaptive vs fixed, per figure, at the same per-point shot cap (so every
    // adaptive point is either cap-bound bit-identical to fixed, or at target).
    println!("adaptive vs fixed (target rse 0.1, >=100 failures, max_shots = fixed budget):");
    let bb_codes = vec![
        qec::codes::bb_72_12_6().expect("construction"),
        qec::codes::bb_90_8_10().expect("construction"),
    ];
    let (fig14, _) = ler_comparison_spec("fig14_bb_ler", &bb_codes, &bench::error_rate_grid());
    // Fig. 9 is the high-LER showcase (mesh junction latencies push the LER to
    // 5e-3..0.25): at a full-shot budget (5x the engine workload above) its
    // high-failure points stop orders of magnitude early.
    let sens = bench::sensitivity_code();
    let (fig9, _) = cyclone::experiments::fig9_spec(&sens, 5e-4, &[0.0, 0.3, 0.5, 0.7, 0.9]);
    let figures = [
        adaptive_vs_fixed("fig05_latency_vs_ler", &spec, threaded_workers, shots),
        adaptive_vs_fixed("fig14_bb_ler", &fig14, threaded_workers, shots),
        adaptive_vs_fixed(
            "fig09_junction_sensitivity",
            &fig9,
            threaded_workers,
            5 * shots,
        ),
    ];

    // Speedup ratios are only recorded when they measure something: on a
    // single-core host the explicit reason replaces them (the raw seconds and
    // points/sec stay, and stay honest).
    let scaling = if host_cores > 1 {
        format!("\"threaded_speedup\": {threaded_speedup:.3},")
    } else {
        "\"scaling_not_measurable\": \"host_cores == 1: serial and threaded runs share \
         one core, so their wall-clock ratios measure scheduling overhead, not scaling; \
         raw seconds and points/sec are recorded above\","
            .to_string()
    };
    let json = format!(
        "{{\n  \"sweep\": \"fig5_latency_vs_ler\",\n  \"points\": {points},\n  \
         \"shots_per_point\": {shots},\n  \
         \"host_cores\": {host_cores},\n  \
         \"serial_seconds\": {serial_seconds:.4},\n  \
         \"threaded_workers\": {threaded_workers},\n  \
         \"threaded_seconds\": {threaded_seconds:.4},\n  \
         \"serial_points_per_sec\": {serial_pps:.3},\n  \
         \"threaded_points_per_sec\": {threaded_pps:.3},\n  \
         {scaling}\n  \
         \"bit_identical_across_pool_sizes\": true,\n  \
         \"adaptive_vs_fixed\": [{}\n  ]\n}}\n",
        figures
            .iter()
            .map(|f| format!("\n    {f}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    // cyclone-lint: allow(io-unwrap) -- bench artifact write is fail-fast by design: a partial BENCH_sweep.json must abort the run, not pass CI
    std::fs::write(path, json).expect("write BENCH_sweep.json");
    println!("  wrote {path}");
}
