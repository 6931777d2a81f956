//! Regression pin: every registry label compiles to the `CompiledRound` of its
//! (topology, schedule, policy) triple.
//!
//! Each `Codesign` impl binds one topology constructor and one schedule to one
//! of the four policy functions (`compile_baseline`, `compile_baseline2`,
//! `compile_baseline3`, `compile_dynamic`) or to `CycloneCodesign::compile`. This
//! suite spells that mapping out independently of the impls and compares the full
//! `CompiledRound` (execution time, component breakdown, every count) with `==`,
//! so rebinding a label to another topology, schedule, or policy fails here.
//!
//! By default the exhaustive sweep covers the catalog codes that compile in
//! test-profile seconds ([[72,12,6]], [[90,8,10]], [[100,4,4]]) with **all**
//! registered codesigns, plus the cheap codesigns on every remaining catalog code.
//! Set `CYCLONE_FULL=1` to pin all codesigns on the complete catalog (the
//! grid/mesh compilers on [[400,16,6]] and [[625,25,8]] take minutes each in the
//! test profile).

use cyclone::codesign::{CycloneCodesign, CycloneConfig};
use cyclone::standard_registry;
use proptest::prelude::*;
use qccd::compiler::baseline::compile_baseline;
use qccd::compiler::dynamic::compile_dynamic;
use qccd::compiler::variants::{compile_baseline2, compile_baseline3};
use qccd::compiler::CompiledRound;
use qccd::timing::OperationTimes;
use qccd::topology::{alternate_grid, baseline_grid, mesh_junction_network, ring};
use qec::schedule::{max_parallel_schedule, serial_schedule};
use qec::CssCode;

/// The paper's baseline per-trap capacity.
const CAP: usize = 5;

/// Compiles `label` from its (topology, schedule, policy) triple.
fn compile_from_parts(label: &str, code: &CssCode, times: &OperationTimes) -> CompiledRound {
    let n = code.num_qubits();
    let (round, _) = match label {
        "baseline" => compile_baseline(code, &baseline_grid(n, CAP), times, &serial_schedule(code)),
        "baseline2" => {
            compile_baseline2(code, &baseline_grid(n, CAP), times, &serial_schedule(code))
        }
        "baseline3" => {
            compile_baseline3(code, &baseline_grid(n, CAP), times, &serial_schedule(code))
        }
        "dynamic-grid" => compile_dynamic(
            code,
            &baseline_grid(n, CAP),
            times,
            &max_parallel_schedule(code),
        ),
        "dynamic-mesh" => compile_dynamic(
            code,
            &mesh_junction_network(n, CAP),
            times,
            &max_parallel_schedule(code),
        ),
        "alternate-grid" => {
            compile_baseline(code, &alternate_grid(n, CAP), times, &serial_schedule(code))
        }
        "ring-static" => {
            let a = code.num_x_stabilizers().max(code.num_z_stabilizers());
            compile_baseline(
                code,
                &ring(a, n.div_ceil(a) + 2),
                times,
                &serial_schedule(code),
            )
        }
        "cyclone" => CycloneCodesign::new(code, CycloneConfig::base()).compile(times),
        other => {
            let x: usize = other
                .strip_prefix("cyclone-x")
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("unmapped codesign label `{other}`"));
            CycloneCodesign::new(code, CycloneConfig::with_traps(x)).compile(times)
        }
    };
    round
}

/// Codesigns that compile in milliseconds on any catalog code (no discrete-event
/// simulation: the lockstep rotation has a closed-form schedule).
fn is_cheap(label: &str) -> bool {
    label.starts_with("cyclone")
}

fn full_run() -> bool {
    std::env::var("CYCLONE_FULL").ok().as_deref().map(str::trim) == Some("1")
}

fn assert_pinned(label: &str, code: &CssCode, times: &OperationTimes) {
    let via_trait = standard_registry().compile(label, code, times);
    let from_parts = compile_from_parts(label, code, times);
    assert_eq!(
        via_trait,
        from_parts,
        "codesign `{label}` diverged from its topology/schedule/policy on {}",
        code.descriptor()
    );
}

#[test]
fn registry_codesigns_match_legacy_entry_points_on_catalog() {
    let times = OperationTimes::default();
    let registry = standard_registry();
    let catalog = qec::codes::full_catalog().expect("catalog construction");
    let full = full_run();
    for entry in &catalog {
        // The grid/mesh compilers on the large catalog codes take minutes in the
        // test profile; cover them exhaustively only in CYCLONE_FULL runs.
        let all_codesigns = full || entry.code.num_qubits() <= 100;
        for label in registry.labels() {
            if all_codesigns || is_cheap(label) {
                assert_pinned(label, &entry.code, &times);
            }
        }
    }
}

#[test]
fn registry_codesigns_match_legacy_on_medium_hgp() {
    // One mid-size HGP pin for the DAG compilers (kept out of the catalog loop so
    // its runtime is visible on its own line in test output).
    let times = OperationTimes::default();
    let code = qec::codes::hgp_225_9_6().expect("construction");
    for label in ["baseline", "dynamic-grid"] {
        assert_pinned(label, &code, &times);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12).with_seed(0xC1C1_0DE5))]

    // The pin must hold at any operating point, not just the default timings:
    // random uniform reductions and junction reductions exercise the full
    // `OperationTimes` surface the sensitivity figures sweep.
    #[test]
    fn registry_matches_legacy_under_scaled_times(
        reduction in 0.0f64..0.9,
        junction_reduction in 0.0f64..0.9,
        codesign in 0usize..10,
        code_pick in 0usize..2,
    ) {
        let code = if code_pick == 0 {
            qec::codes::bb_72_12_6().expect("valid")
        } else {
            qec::codes::hgp_100().expect("valid")
        };
        let times = OperationTimes::default()
            .scaled(reduction)
            .with_junction_reduction(junction_reduction);
        let registry = standard_registry();
        let labels = registry.labels();
        let label = labels[codesign % labels.len()];
        assert_pinned(label, &code, &times);
    }
}
