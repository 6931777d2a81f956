//! Golden pin of the Monte-Carlo layer: exact `(shots, failures)` of the
//! logical-memory driver, compared against a recorded table.
//!
//! The grid covers BB-72, BB-90 and HGP-100; the uniform channel,
//! `Biased { meas_ratio: 2 }`, and an explicit heterogeneous-rate channel; a
//! fixed 256-shot budget and a `PrecisionTarget::new(0.3, 5, 2048)` target; and
//! one and three worker threads. One extra row runs a mixed fixed/adaptive
//! `run_sweep` on the shared chunk scheduler. Any change to sampling, decoding,
//! failure counting or the stop rule that moves a single shot fails here.
//!
//! To regenerate the table after an intentional change, run
//! `cargo test -p decoder --test ler_golden -- --ignored --nocapture print_golden_table`
//! and paste the printed rows over `GOLDEN`.

use cyclone::sweep::{run_sweep, ScenarioSpec, SweepOptions};
use decoder::memory::{LerEstimate, MemoryConfig, MemoryExperiment, PrecisionTarget};
use noise::{ChannelSpec, ErrorChannel, HardwareNoiseModel, NoiseParameters};
use qec::codes::{bb_72_12_6, bb_90_8_10, hgp_100};
use qec::CssCode;

/// Round latency of every pinned point, and the physical error rate of each
/// channel.
const LATENCY: f64 = 1e-3;
const P_UNIFORM: f64 = 2e-2;
const P_BIASED: f64 = 1.5e-3;
const P_HETERO: f64 = 8e-3;
const BP_ITERATIONS: usize = 15;

fn config(shots: usize, threads: usize) -> MemoryConfig {
    MemoryConfig {
        shots,
        bp_iterations: BP_ITERATIONS,
        threads,
        seed: 0xC1C1_0DE5,
    }
}

fn target() -> PrecisionTarget {
    PrecisionTarget::new(0.3, 5, 2048)
}

fn model(p: f64) -> HardwareNoiseModel {
    HardwareNoiseModel::new(NoiseParameters::new(p), LATENCY)
}

/// A heterogeneous channel: data rates cycle through four multiples of the
/// effective rate, measurement rates through three.
fn hetero(code: &CssCode, p: f64) -> ErrorChannel {
    let p = model(p).effective_error_rate();
    let data = (0..code.num_qubits())
        .map(|q| p * (0.5 + 0.5 * (q % 4) as f64))
        .collect();
    let meas = (0..code.num_stabilizers())
        .map(|c| p * (c % 3) as f64 / 8.0)
        .collect();
    ErrorChannel::from_rates(data, meas)
}

/// The pinned channels, each with the physical error rate it runs at (chosen
/// so most rows see failures and the target stops at varied shot counts).
fn channels(code: &CssCode) -> [(&'static str, f64, ChannelSpec); 3] {
    [
        ("uniform", P_UNIFORM, ChannelSpec::Uniform),
        ("biased2", P_BIASED, ChannelSpec::Biased { meas_ratio: 2.0 }),
        (
            "hetero",
            P_HETERO,
            ChannelSpec::Explicit(hetero(code, P_HETERO)),
        ),
    ]
}

/// One driver run: the fixed 256-shot budget or the precision target.
fn run_driver(exp: &MemoryExperiment<'_>, adaptive: bool, threads: usize) -> LerEstimate {
    if adaptive {
        exp.run(&config(0, threads), Some(&target()))
    } else {
        exp.run(&config(256, threads), None)
    }
}

/// Every driver row in table order: (label, shots, failures).
fn driver_rows() -> Vec<(String, usize, usize)> {
    let codes = [bb_72_12_6(), bb_90_8_10(), hgp_100()];
    let mut rows = Vec::new();
    for code in codes.into_iter().map(|c| c.expect("catalog code")) {
        let mut exp = MemoryExperiment::new(&code, model(P_UNIFORM), BP_ITERATIONS);
        for (name, p, spec) in channels(&code) {
            exp.set_model(model(p));
            exp.set_channel(spec.instantiate(&model(p), code.num_qubits(), code.num_stabilizers()));
            for adaptive in [false, true] {
                for threads in [1, 3] {
                    let est = run_driver(&exp, adaptive, threads);
                    let mode = if adaptive { "target" } else { "fixed" };
                    rows.push((
                        format!("{}/{name}/{mode}/t{threads}", code.name()),
                        est.shots,
                        est.failures,
                    ));
                }
            }
        }
    }
    rows
}

/// A mixed fixed/adaptive sweep over one shared pool: (id, shots, failures).
fn sweep_rows() -> Vec<(String, usize, usize)> {
    let mut spec = ScenarioSpec::new("ler-golden");
    let bb = spec.code(bb_72_12_6().expect("catalog code"));
    let hgp = spec.code(hgp_100().expect("catalog code"));
    spec.point("bb/fixed", bb, P_UNIFORM, LATENCY)
        .point_precise("bb/target", bb, P_UNIFORM, LATENCY, target())
        .point_channel(
            "bb/biased2",
            bb,
            P_BIASED,
            LATENCY,
            ChannelSpec::Biased { meas_ratio: 2.0 },
        )
        .point_precise("hgp/target", hgp, P_UNIFORM, LATENCY, target())
        .point("hgp/fixed", hgp, P_UNIFORM, LATENCY);
    let result = run_sweep(&spec, &SweepOptions::ephemeral(config(256, 3)));
    result
        .points
        .iter()
        .map(|pt| (format!("sweep/{}", pt.id), pt.ler.shots, pt.ler.failures))
        .collect()
}

fn all_rows() -> Vec<(String, usize, usize)> {
    let mut rows = driver_rows();
    rows.extend(sweep_rows());
    rows
}

#[test]
#[ignore = "regenerates the golden table"]
fn print_golden_table() {
    for (label, shots, failures) in all_rows() {
        println!("    (\"{label}\", {shots}, {failures}),");
    }
}

#[test]
fn monte_carlo_matches_the_golden_table() {
    let rows = all_rows();
    assert_eq!(rows.len(), GOLDEN.len(), "row count changed");
    for ((label, shots, failures), &(g_label, g_shots, g_failures)) in rows.iter().zip(GOLDEN) {
        assert_eq!(label, g_label, "row order changed");
        assert_eq!(
            (*shots, *failures),
            (g_shots, g_failures),
            "{label}: (shots, failures) moved"
        );
    }
}

/// `(label, shots, failures)` per row.
const GOLDEN: &[(&str, usize, usize)] = &[
    ("BB-72/uniform/fixed/t1", 256, 0),
    ("BB-72/uniform/fixed/t3", 256, 0),
    ("BB-72/uniform/target/t1", 1305, 12),
    ("BB-72/uniform/target/t3", 1305, 12),
    ("BB-72/biased2/fixed/t1", 256, 52),
    ("BB-72/biased2/fixed/t3", 256, 52),
    ("BB-72/biased2/target/t1", 33, 9),
    ("BB-72/biased2/target/t3", 33, 9),
    ("BB-72/hetero/fixed/t1", 256, 11),
    ("BB-72/hetero/fixed/t3", 256, 11),
    ("BB-72/hetero/target/t1", 252, 11),
    ("BB-72/hetero/target/t3", 252, 11),
    ("BB-90/uniform/fixed/t1", 256, 0),
    ("BB-90/uniform/fixed/t3", 256, 0),
    ("BB-90/uniform/target/t1", 2048, 3),
    ("BB-90/uniform/target/t3", 2048, 3),
    ("BB-90/biased2/fixed/t1", 256, 48),
    ("BB-90/biased2/fixed/t3", 256, 48),
    ("BB-90/biased2/target/t1", 34, 9),
    ("BB-90/biased2/target/t3", 34, 9),
    ("BB-90/hetero/fixed/t1", 256, 9),
    ("BB-90/hetero/fixed/t3", 256, 9),
    ("BB-90/hetero/target/t1", 311, 11),
    ("BB-90/hetero/target/t3", 311, 11),
    ("HGP-100/uniform/fixed/t1", 256, 5),
    ("HGP-100/uniform/fixed/t3", 256, 5),
    ("HGP-100/uniform/target/t1", 430, 11),
    ("HGP-100/uniform/target/t3", 430, 11),
    ("HGP-100/biased2/fixed/t1", 256, 54),
    ("HGP-100/biased2/fixed/t3", 256, 54),
    ("HGP-100/biased2/target/t1", 33, 9),
    ("HGP-100/biased2/target/t3", 33, 9),
    ("HGP-100/hetero/fixed/t1", 256, 21),
    ("HGP-100/hetero/fixed/t3", 256, 21),
    ("HGP-100/hetero/target/t1", 99, 10),
    ("HGP-100/hetero/target/t3", 99, 10),
    ("sweep/bb/fixed", 256, 0),
    ("sweep/bb/target", 1305, 12),
    ("sweep/bb/biased2", 256, 52),
    ("sweep/hgp/target", 430, 11),
    ("sweep/hgp/fixed", 256, 5),
];
