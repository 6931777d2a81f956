//! Sweep-engine behavior: determinism across pool sizes, cache hit/miss/corruption
//! semantics (fixed and adaptive), torn-write resistance of the cache file,
//! resume-after-kill from checkpoints, merges of real caches, the every-gate-once
//! invariant for every codesign, fuzzed (truncated and byte-flipped) cache files
//! against every cache reader and the JSON shim, damaged caches that every reader
//! must reject alike, and the pinned bytes of the cache format.

use cyclone::sweep::{run_sweep, ScenarioSpec, SweepOptions};
use cyclone::sweep_cache::{merge_files, verify_file};
use cyclone::Codesign;
use decoder::memory::{LerEstimate, MemoryConfig, PrecisionTarget};
use noise::{ChannelSpec, ErrorChannel};
use proptest::prelude::*;
use qccd::timing::OperationTimes;
use std::path::PathBuf;
use std::sync::OnceLock;

fn quick_config(threads: usize) -> MemoryConfig {
    MemoryConfig {
        shots: 60,
        bp_iterations: 12,
        threads,
        seed: 0xC1C1_0DE5,
    }
}

fn tiny_spec(figure: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(figure);
    let bb = spec.code(qec::codes::bb_72_12_6().expect("valid"));
    let hgp = spec.code(qec::codes::hgp_100().expect("valid"));
    spec.point("bb/p=3e-3", bb, 3e-3, 0.01);
    spec.point("bb/p=8e-3", bb, 8e-3, 0.01);
    spec.point("hgp/p=3e-3", hgp, 3e-3, 0.02);
    spec.point("hgp/p=8e-3", hgp, 8e-3, 0.0);
    spec
}

/// A unique scratch directory per test, cleaned up on entry (no timestamps: the
/// test name keys it, the process id separates concurrent suite runs).
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cyclone-sweep-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sweep_is_deterministic_across_pool_sizes() {
    // The CYCLONE_THREADS knob feeds MemoryConfig::threads; the engine must be
    // bit-identical at 1 and 4 workers.
    let spec = tiny_spec("det");
    let one = run_sweep(&spec, &SweepOptions::ephemeral(quick_config(1)));
    let four = run_sweep(&spec, &SweepOptions::ephemeral(quick_config(4)));
    for (a, b) in one.points.iter().zip(&four.points) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.ler.failures, b.ler.failures, "point {} diverged", a.id);
        assert_eq!(a.ler.ler, b.ler.ler);
        assert_eq!(a.ler.std_err, b.ler.std_err);
    }
}

#[test]
fn cache_round_trip_serves_identical_estimates() {
    let dir = scratch_dir("roundtrip");
    let spec = tiny_spec("roundtrip");
    let options = SweepOptions::cached(quick_config(2), &dir);

    let first = run_sweep(&spec, &options);
    assert_eq!(first.computed, 4);
    assert_eq!(first.cache_hits, 0);
    assert!(
        dir.join("roundtrip.json").is_file(),
        "cache file must be written"
    );

    let second = run_sweep(&spec, &options);
    assert_eq!(second.cache_hits, 4, "second run must be fully cached");
    assert_eq!(second.computed, 0);
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a.ler.failures, b.ler.failures);
        assert_eq!(a.ler.ler, b.ler.ler);
        assert_eq!(
            a.ler.std_err, b.ler.std_err,
            "reconstructed estimate must round-trip"
        );
        assert!(b.cached);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_falls_back_to_recompute() {
    let dir = scratch_dir("corrupt");
    let spec = tiny_spec("corrupt");
    let options = SweepOptions::cached(quick_config(2), &dir);
    let first = run_sweep(&spec, &options);

    // Truncated JSON → full recompute, and the file is repaired afterwards.
    std::fs::write(dir.join("corrupt.json"), "{\"figure\": \"corrupt\", \"poi").expect("write");
    let after_corruption = run_sweep(&spec, &options);
    assert_eq!(
        after_corruption.cache_hits, 0,
        "corrupt cache must not serve hits"
    );
    assert_eq!(after_corruption.computed, 4);
    for (a, b) in first.points.iter().zip(&after_corruption.points) {
        assert_eq!(
            a.ler.ler, b.ler.ler,
            "recompute must reproduce the original estimate"
        );
    }
    let repaired = run_sweep(&spec, &options);
    assert_eq!(
        repaired.cache_hits, 4,
        "cache file must be rewritten after corruption"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_cache_file_is_a_miss() {
    // 200,000 unclosed arrays: a parser without a depth limit recurses once
    // per bracket and overflows the stack, killing the run. The cache reader
    // must report a miss instead, and the sweep recompute the same estimates.
    let dir = scratch_dir("nested");
    let spec = tiny_spec("nested");
    let options = SweepOptions::cached(quick_config(2), &dir);
    let first = run_sweep(&spec, &options);

    std::fs::write(dir.join("nested.json"), "[".repeat(200_000)).expect("write");
    let after = run_sweep(&spec, &options);
    assert_eq!(after.cache_hits, 0, "a nested file must not serve hits");
    assert_eq!(after.computed, 4);
    for (a, b) in first.points.iter().zip(&after.points) {
        assert_eq!(a.ler.failures, b.ler.failures, "point {} diverged", a.id);
        assert_eq!(a.ler.ler.to_bits(), b.ler.ler.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_configuration_invalidates_the_cache() {
    let dir = scratch_dir("config");
    let spec = tiny_spec("config");
    run_sweep(&spec, &SweepOptions::cached(quick_config(2), &dir));

    // More shots → the quick-run cache must not satisfy the full-shot run.
    let full = run_sweep(
        &spec,
        &SweepOptions::cached(
            MemoryConfig {
                shots: 90,
                ..quick_config(2)
            },
            &dir,
        ),
    );
    assert_eq!(full.cache_hits, 0);
    assert!(full.points.iter().all(|p| p.ler.shots == 90));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_operating_point_recomputes_only_that_point() {
    let dir = scratch_dir("partial");
    let spec = tiny_spec("partial");
    run_sweep(&spec, &SweepOptions::cached(quick_config(2), &dir));

    // Same ids, one point moved to a new latency → 3 hits + 1 recompute.
    let mut moved = ScenarioSpec::new("partial");
    let bb = moved.code(qec::codes::bb_72_12_6().expect("valid"));
    let hgp = moved.code(qec::codes::hgp_100().expect("valid"));
    moved.point("bb/p=3e-3", bb, 3e-3, 0.01);
    moved.point("bb/p=8e-3", bb, 8e-3, 0.25);
    moved.point("hgp/p=3e-3", hgp, 3e-3, 0.02);
    moved.point("hgp/p=8e-3", hgp, 8e-3, 0.0);
    let result = run_sweep(&moved, &SweepOptions::cached(quick_config(2), &dir));
    assert_eq!(result.cache_hits, 3);
    assert_eq!(result.computed, 1);
    assert!(
        !result.points[1].cached,
        "the moved point must be recomputed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_validates_seeds_above_f64_precision() {
    // Regression: the seed is stored as a decimal string because the JSON shim's
    // numbers are f64 — a seed above 2^53 must still produce cache hits.
    let dir = scratch_dir("bigseed");
    let spec = tiny_spec("bigseed");
    let config = MemoryConfig {
        seed: (1u64 << 53) + 1,
        ..quick_config(2)
    };
    run_sweep(&spec, &SweepOptions::cached(config, &dir));
    let second = run_sweep(&spec, &SweepOptions::cached(config, &dir));
    assert_eq!(
        second.cache_hits, 4,
        "odd 54-bit seed must round-trip the cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_cache_dir_is_created() {
    let dir = scratch_dir("mkdir").join("nested/deeper");
    let spec = tiny_spec("mkdir");
    let result = run_sweep(&spec, &SweepOptions::cached(quick_config(2), &dir));
    assert_eq!(result.computed, 4);
    assert!(dir.join("mkdir.json").is_file());
    let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
}

/// A one-code spec whose points fail often (high p), so loose precision targets
/// stop well before the cap and the adaptive tests stay fast.
fn noisy_spec(figure: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(figure);
    let bb = spec.code(qec::codes::bb_72_12_6().expect("valid"));
    spec.point("bb/p=4e-2", bb, 4e-2, 0.0);
    spec.point("bb/p=6e-2", bb, 6e-2, 0.0);
    spec
}

fn loose_target() -> PrecisionTarget {
    PrecisionTarget::new(0.4, 6, 2_000)
}

#[test]
fn adaptive_sweep_is_deterministic_across_pool_sizes_and_matches_direct_runs() {
    let spec = noisy_spec("adaptive-det");
    let target = loose_target();
    let one = run_sweep(
        &spec,
        &SweepOptions::ephemeral(quick_config(1)).with_precision(target),
    );
    let four = run_sweep(
        &spec,
        &SweepOptions::ephemeral(quick_config(4)).with_precision(target),
    );
    for (a, b) in one.points.iter().zip(&four.points) {
        assert_eq!(
            a.ler, b.ler,
            "adaptive point {} diverged across pool sizes",
            a.id
        );
        assert!(
            a.ler.shots < 2_000,
            "high-failure point {} should stop early",
            a.id
        );
        assert!(target.met_by(a.ler.shots, a.ler.failures));
    }
    // Each adaptive estimate is the fixed estimate of its own shot count (the
    // stop rule chooses the budget, never the sample).
    for (point, outcome) in spec.points.iter().zip(&one.points) {
        let fixed = decoder::memory::logical_error_rate(
            &spec.codes[point.code],
            point.p,
            point.latency,
            &MemoryConfig {
                shots: outcome.ler.shots,
                ..quick_config(1)
            },
        );
        assert_eq!(
            outcome.ler, fixed,
            "{} is not a prefix of the fixed path",
            point.id
        );
    }
}

#[test]
fn disabled_precision_pins_the_fixed_path_bit_identically() {
    // With no precision target the engine must reproduce exactly what the
    // pre-adaptive fixed-budget engine produced (same shots, same failures, same
    // floats) — the regression pin for `--target-rse`-disabled runs.
    let spec = tiny_spec("fixed-pin");
    let config = quick_config(2);
    let result = run_sweep(&spec, &SweepOptions::ephemeral(config));
    for (point, outcome) in spec.points.iter().zip(&result.points) {
        let direct = decoder::memory::logical_error_rate(
            &spec.codes[point.code],
            point.p,
            point.latency,
            &config,
        );
        assert_eq!(
            outcome.ler, direct,
            "point {} diverged from the fixed path",
            point.id
        );
        assert_eq!(outcome.ler.shots, config.shots);
    }
}

#[test]
fn adaptive_request_reuses_sufficiently_precise_cache_entries() {
    let dir = scratch_dir("adaptive-reuse");
    let spec = noisy_spec("adaptive-reuse");
    let target = loose_target();

    // An adaptive run populates the cache with per-point spent shots...
    let adaptive = SweepOptions::cached(quick_config(2), &dir).with_precision(target);
    let first = run_sweep(&spec, &adaptive);
    assert_eq!(first.computed, 2);

    // ... which a second adaptive run reuses wholesale ...
    let second = run_sweep(&spec, &adaptive);
    assert_eq!(
        second.cache_hits, 2,
        "meets-or-exceeds entries must be reused"
    );
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a.ler, b.ler);
    }

    // ... and a *looser* target is also satisfied by the same entries.
    let looser = SweepOptions::cached(quick_config(2), &dir)
        .with_precision(PrecisionTarget::new(0.6, 3, 2_000));
    assert_eq!(run_sweep(&spec, &looser).cache_hits, 2);

    // A tighter target is not: every point recomputes.
    let tighter = SweepOptions::cached(quick_config(2), &dir)
        .with_precision(PrecisionTarget::new(0.05, 400, 4_000));
    let retightened = run_sweep(&spec, &tighter);
    assert_eq!(
        retightened.cache_hits, 0,
        "looser cached points must not satisfy a tighter target"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixed_full_shot_cache_serves_adaptive_requests_but_not_vice_versa() {
    let dir = scratch_dir("adaptive-cross");
    let spec = noisy_spec("adaptive-cross");
    let config = MemoryConfig {
        shots: 400,
        ..quick_config(2)
    };

    // A fixed 400-shot run at p=4e-2 sees ~30+ failures — precise enough for the
    // loose target, so the adaptive request is served from the fixed cache.
    let fixed_run = run_sweep(&spec, &SweepOptions::cached(config, &dir));
    assert!(fixed_run.points.iter().all(|p| p.ler.failures >= 6));
    let adaptive = SweepOptions::cached(config, &dir).with_precision(loose_target());
    let served = run_sweep(&spec, &adaptive);
    assert_eq!(
        served.cache_hits, 2,
        "full-shot entries meet the target and must be reused"
    );
    for (a, b) in fixed_run.points.iter().zip(&served.points) {
        assert_eq!(a.ler, b.ler);
    }

    // The adaptive rewrite records the (still 400-shot) entries; a fixed request
    // with a different budget must recompute rather than accept them.
    let other_budget = run_sweep(
        &spec,
        &SweepOptions::cached(
            MemoryConfig {
                shots: 90,
                ..config
            },
            &dir,
        ),
    );
    assert_eq!(
        other_budget.cache_hits, 0,
        "fixed requests require the exact budget"
    );
    assert!(other_budget.points.iter().all(|p| p.ler.shots == 90));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_point_precision_overrides_the_sweep_default() {
    let mut spec = ScenarioSpec::new("per-point");
    let bb = spec.code(qec::codes::bb_72_12_6().expect("valid"));
    spec.point("fixed", bb, 4e-2, 0.0);
    spec.point_precise("adaptive", bb, 4e-2, 0.0, loose_target());
    let config = quick_config(2);
    let result = run_sweep(&spec, &SweepOptions::ephemeral(config));
    assert_eq!(
        result.points[0].ler.shots, config.shots,
        "unannotated point stays fixed"
    );
    assert_ne!(
        result.points[1].ler.shots, config.shots,
        "annotated point samples adaptively"
    );
    assert!(loose_target().met_by(result.points[1].ler.shots, result.points[1].ler.failures));
}

#[test]
fn zero_shot_sweep_produces_empty_estimates_not_phantoms() {
    // Regression companion to the decoder-level fix: a zero-shot sweep must not
    // fabricate 1-shot estimates, and its cache entries must never be reused.
    let dir = scratch_dir("zeroshot");
    let spec = tiny_spec("zeroshot");
    let options = SweepOptions::cached(
        MemoryConfig {
            shots: 0,
            ..quick_config(2)
        },
        &dir,
    );
    let result = run_sweep(&spec, &options);
    assert!(result.points.iter().all(|p| p.ler.is_empty()));
    assert!(result.points.iter().all(|p| !p.ler.is_upper_bound()));
    let again = run_sweep(&spec, &options);
    assert_eq!(
        again.cache_hits, 0,
        "zero-shot entries must never be served from cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_never_tear_the_cache_file() {
    // Two sweeps with different Monte-Carlo configurations race on one cache file
    // while readers continuously parse it: with atomic temp-file + rename writes,
    // every observed snapshot is one writer's complete document.
    let dir = scratch_dir("torn");
    let path = dir.join("torn.json");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let writer = |seed: u64| {
        let spec = {
            let mut spec = ScenarioSpec::new("torn");
            let bb = spec.code(qec::codes::bb_72_12_6().expect("valid"));
            spec.point("a", bb, 5e-2, 0.0);
            spec
        };
        let options = SweepOptions::cached(
            MemoryConfig {
                shots: 4,
                seed,
                threads: 1,
                ..quick_config(1)
            },
            &dir,
        );
        for _ in 0..12 {
            run_sweep(&spec, &options);
        }
    };
    std::thread::scope(|scope| {
        let handles = [scope.spawn(|| writer(1)), scope.spawn(|| writer(2))];
        let reader = scope.spawn(|| {
            let mut observed = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    assert!(
                        serde_json::from_str(&text).is_ok(),
                        "torn cache file observed ({} bytes): {text:?}",
                        text.len()
                    );
                    observed += 1;
                }
                std::thread::yield_now();
            }
            observed
        });
        for handle in handles {
            handle.join().expect("writer");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let observed = reader.join().expect("reader");
        assert!(
            observed > 0,
            "reader must have observed the cache file at least once"
        );
    });
    // No stray temp files: every write either published or cleaned up.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "stray temp files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema3_channel_entries_round_trip() {
    // A structured-channel sweep writes schema-3 entries whose channel identity is
    // honored on re-read: same spec → full hits, identical estimates.
    let dir = scratch_dir("channel-roundtrip");
    let spec = noisy_spec("channel-roundtrip");
    let biased = SweepOptions::cached(quick_config(2), &dir)
        .with_channel(ChannelSpec::Biased { meas_ratio: 2.0 });
    let first = run_sweep(&spec, &biased);
    assert_eq!(first.computed, 2);
    let text = std::fs::read_to_string(dir.join("channel-roundtrip.json")).expect("cache written");
    let doc = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(serde_json::Value::as_u64),
        Some(3)
    );
    assert!(
        text.contains("\"channel\":\"biased:2\""),
        "entries must record the channel id: {text}"
    );

    let second = run_sweep(&spec, &biased);
    assert_eq!(
        second.cache_hits, 2,
        "same channel must be served from cache"
    );
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a.ler, b.ler);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn channel_mismatch_invalidates_cached_points() {
    let dir = scratch_dir("channel-mismatch");
    let spec = noisy_spec("channel-mismatch");
    let config = quick_config(2);

    // Uniform entries do not serve a biased request ...
    run_sweep(&spec, &SweepOptions::cached(config, &dir));
    let biased =
        SweepOptions::cached(config, &dir).with_channel(ChannelSpec::Biased { meas_ratio: 3.0 });
    let crossed = run_sweep(&spec, &biased);
    assert_eq!(
        crossed.cache_hits, 0,
        "uniform entries must not satisfy a biased request"
    );

    // ... a biased cache does not serve a different ratio or a uniform request ...
    let other_ratio =
        SweepOptions::cached(config, &dir).with_channel(ChannelSpec::Biased { meas_ratio: 0.5 });
    assert_eq!(run_sweep(&spec, &other_ratio).cache_hits, 0);
    let uniform_again = run_sweep(&spec, &SweepOptions::cached(config, &dir));
    assert_eq!(
        uniform_again.cache_hits, 0,
        "biased entries must not satisfy a uniform request"
    );

    // ... and two explicit channels with different rates have distinct identities.
    let code = qec::codes::bb_72_12_6().expect("valid");
    let (n, m) = (code.num_qubits(), code.num_stabilizers());
    let explicit_a = SweepOptions::cached(config, &dir).with_channel(ChannelSpec::Explicit(
        ErrorChannel::biased(n, m, 0.04, 0.01),
    ));
    let explicit_b = SweepOptions::cached(config, &dir).with_channel(ChannelSpec::Explicit(
        ErrorChannel::biased(n, m, 0.04, 0.02),
    ));
    let a1 = run_sweep(&spec, &explicit_a);
    assert_eq!(a1.cache_hits, 0);
    assert_eq!(
        run_sweep(&spec, &explicit_a).cache_hits,
        2,
        "identical explicit channel must hit"
    );
    assert_eq!(
        run_sweep(&spec, &explicit_b).cache_hits,
        0,
        "different rates, different digest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn biased_points_see_more_failures_than_uniform_under_the_same_seeds() {
    // End-to-end sanity of the channel plumbing through the engine: measurement
    // noise makes decoding strictly harder at matched data rates.
    let spec = noisy_spec("channel-effect");
    let config = quick_config(2);
    let uniform = run_sweep(&spec, &SweepOptions::ephemeral(config));
    let biased = run_sweep(
        &spec,
        &SweepOptions::ephemeral(config).with_channel(ChannelSpec::Biased { meas_ratio: 10.0 }),
    );
    let uniform_failures: usize = uniform.points.iter().map(|p| p.ler.failures).sum();
    let biased_failures: usize = biased.points.iter().map(|p| p.ler.failures).sum();
    assert!(
        biased_failures > uniform_failures,
        "heavy measurement bias ({biased_failures}) should exceed uniform ({uniform_failures})"
    );
}

/// Writes a hand-crafted pre-schema-3 cache file (optionally with a `schema` header,
/// as schema 2 had; schema 1 had none) whose entries carry no `channel` field.
fn write_legacy_cache(
    dir: &std::path::Path,
    figure: &str,
    schema: Option<u64>,
    config: &MemoryConfig,
) {
    std::fs::create_dir_all(dir).expect("mkdir");
    let schema_field = schema.map_or(String::new(), |s| format!("\"schema\":{s},"));
    let text = format!(
        "{{{schema_field}\"figure\":\"{figure}\",\"seed\":\"{}\",\"shots\":{},\"bp_iterations\":{},\
         \"points\":[\
         {{\"id\":\"bb/p=4e-2\",\"p\":0.04,\"latency\":0,\"shots\":{},\"failures\":9,\"ler\":0.15,\"std_err\":0.046}},\
         {{\"id\":\"bb/p=6e-2\",\"p\":0.06,\"latency\":0,\"shots\":{},\"failures\":21,\"ler\":0.35,\"std_err\":0.061}}\
         ]}}\n",
        config.seed, config.shots, config.bp_iterations, config.shots, config.shots
    );
    std::fs::write(dir.join(format!("{figure}.json")), text).expect("write legacy cache");
}

#[test]
fn legacy_schema_1_and_2_caches_are_misses() {
    // Pre-channel cache files (schema 1: no schema field; schema 2: no
    // per-entry channel) are not read: a cache is an accelerator, so an old
    // file is a miss, its points are recomputed, and the rewrite upgrades it.
    // The offline merge reports such a file as a skipped source.
    let config = quick_config(2);
    for (name, schema) in [("legacy-s1", None), ("legacy-s2", Some(2u64))] {
        let dir = scratch_dir(name);
        let spec = noisy_spec(name);
        write_legacy_cache(&dir, name, schema, &config);
        let fresh = run_sweep(&spec, &SweepOptions::ephemeral(config));

        let rerun = run_sweep(&spec, &SweepOptions::cached(config, &dir));
        assert_eq!(rerun.cache_hits, 0, "{name}: legacy entries must miss");
        assert_eq!(rerun.computed, 2);
        assert_eq!(
            rerun.estimates(),
            fresh.estimates(),
            "{name}: recomputed, not read"
        );
        let upgraded = run_sweep(&spec, &SweepOptions::cached(config, &dir));
        assert_eq!(upgraded.cache_hits, 2, "{name}: rewritten at schema 3");

        let legacy = dir.join("legacy.json");
        write_legacy_cache(&dir, "legacy", schema, &config);
        let merged = dir.join("merged.json");
        let report = cyclone::sweep_cache::merge_files(
            &merged,
            &[dir.join(format!("{name}.json")), legacy.clone()],
        )
        .expect("the schema-3 source parses");
        assert_eq!(report.sources_merged, 1);
        assert_eq!(
            report.sources_skipped.len(),
            1,
            "{name}: legacy source skipped"
        );
        assert_eq!(report.sources_skipped[0].0, legacy);
        assert!(
            report.sources_skipped[0].1.contains("schema"),
            "{name}: skip reason names the schema: {}",
            report.sources_skipped[0].1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn per_point_channel_overrides_the_sweep_default() {
    let mut spec = ScenarioSpec::new("per-point-channel");
    let bb = spec.code(qec::codes::bb_72_12_6().expect("valid"));
    spec.point("uniform", bb, 4e-2, 0.0);
    spec.point_channel(
        "biased",
        bb,
        4e-2,
        0.0,
        ChannelSpec::Biased { meas_ratio: 10.0 },
    );
    let result = run_sweep(&spec, &SweepOptions::ephemeral(quick_config(2)));
    let direct = decoder::memory::logical_error_rate(&spec.codes[0], 4e-2, 0.0, &quick_config(2));
    assert_eq!(
        result.points[0].ler, direct,
        "unannotated point stays uniform"
    );
    assert!(
        result.points[1].ler.failures > result.points[0].ler.failures,
        "annotated point samples under its own biased channel"
    );
}

#[test]
fn every_registered_codesign_covers_all_gates() {
    // The Cyclone-specific invariant generalized to every codesign: each must
    // execute each stabilizer-support gate exactly once, on both code families.
    // (The expensive grid/mesh codesigns are exercised on the small catalog
    // codes; CYCLONE_FULL=1 in the regression suite covers the rest.)
    let times = OperationTimes::default();
    for code in [
        qec::codes::bb_72_12_6().expect("valid"),
        qec::codes::hgp_100().expect("valid"),
    ] {
        let expected: usize = code.stabilizers().iter().map(|s| s.support.len()).sum();
        for design in Codesign::ALL {
            assert_eq!(
                design.compile(&code, &times).num_gates,
                expected,
                "codesign `{}` missed gates on {}",
                design.name(),
                code.descriptor()
            );
        }
    }
}

#[test]
fn content_hashes_are_pinned() {
    // The byte hash (`Fnv1a`), priors-LLR cache keys (`priors_digest`) and
    // sweep-cache channel identity (`cache_id`) are persisted, so their FNV-1a
    // values must never drift. "a" is the published FNV-1a vector.
    use noise::fnv::Fnv1a;
    let fnv = |bytes: &str| Fnv1a::new().write(bytes.as_bytes()).finish();
    let id = "fig14_bb_ler/cyclone/[[72,12,6]]/p=1e-3";
    assert_eq!(fnv(id), 0xc0ff_1981_abf9_c05e);
    assert_eq!(fnv(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv("a"), 0xaf63_dc4c_8601_ec8c);
    use decoder::bp::priors_digest;
    assert_eq!(priors_digest(&[]), 0xcbf2_9ce4_8422_2325);
    assert_eq!(priors_digest(&[1e-3; 4]), 0xc7a4_1288_3905_0ee5);
    assert_eq!(priors_digest(&[0.1, 0.2, 0.45]), 0xbd97_e5f9_312a_cf21);
    let channel = ErrorChannel::from_rates(vec![1e-3, 2e-3, 3e-3], vec![4e-3, 5e-3]);
    assert_eq!(
        ChannelSpec::Explicit(channel).cache_id(),
        "explicit:bed985dbf60f15ce"
    );
}

#[test]
fn checkpoints_and_pool_sizes_leave_byte_identical_caches_and_tables() {
    // Three 64-shot chunks per point, so workers share the tail's points. How
    // often the cache is checkpointed and how many workers ran must change
    // neither the published cache file nor the figure table rows.
    let codes = [
        qec::codes::bb_72_12_6().expect("valid"),
        qec::codes::hgp_100().expect("valid"),
    ];
    let ps = [3e-3, 8e-3];
    let mut reference: Option<(Vec<u8>, String)> = None;
    for checkpoint in [0, 1, 3] {
        for threads in [1, 3] {
            let dir = scratch_dir(&format!("ckpt-{checkpoint}-{threads}"));
            let config = MemoryConfig {
                shots: 150,
                ..quick_config(threads)
            };
            let options = SweepOptions::cached(config, &dir).with_checkpoint(checkpoint);
            let rows = cyclone::experiments::ler_comparison("ckpt", &codes, &ps, &options);
            let cache = std::fs::read(dir.join("ckpt.json")).expect("cache written");
            let table = format!("{rows:?}");
            match &reference {
                None => reference = Some((cache, table)),
                Some((want_cache, want_table)) => {
                    assert!(
                        cache == *want_cache,
                        "checkpoint {checkpoint}, threads {threads}: cache bytes differ"
                    );
                    assert_eq!(
                        &table, want_table,
                        "checkpoint {checkpoint}, threads {threads}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn checkpoint_every_point_publishes_a_well_formed_cache_as_points_finish() {
    // A reader polling the cache file while a checkpoint-1 sweep runs must
    // only ever see well-formed caches whose entry count never shrinks, and
    // the last one holds every point.
    use cyclone::sweep_cache::stats_file;
    let dir = scratch_dir("ckpt-poll");
    let spec = tiny_spec("ckpt-poll");
    let path = dir.join("ckpt-poll.json");
    let config = MemoryConfig {
        shots: 400,
        ..quick_config(2)
    };
    let options = SweepOptions::cached(config, &dir).with_checkpoint(1);
    let finished = std::sync::atomic::AtomicBool::new(false);
    let seen = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut seen = Vec::new();
            loop {
                let done = finished.load(std::sync::atomic::Ordering::Acquire);
                if path.exists() {
                    let stats = stats_file(&path).expect("every published cache is well-formed");
                    if seen.last() != Some(&stats.entries) {
                        seen.push(stats.entries);
                    }
                }
                if done {
                    return seen;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let result = run_sweep(&spec, &options);
        assert_eq!(result.computed, spec.points.len());
        finished.store(true, std::sync::atomic::Ordering::Release);
        poller.join().expect("poller")
    });
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "entry counts must only grow: {seen:?}"
    );
    assert_eq!(seen.last(), Some(&spec.points.len()), "{seen:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The points of [`tiny_spec`] whose id starts with `prefix`, under `figure`.
fn spec_part(figure: &str, prefix: &str) -> ScenarioSpec {
    let mut spec = tiny_spec(figure);
    spec.points.retain(|point| point.id.starts_with(prefix));
    spec
}

#[test]
fn killed_sweep_resumes_from_its_checkpoints() {
    let figure = "resume";
    let full = tiny_spec(figure);
    let reference = run_sweep(&full, &SweepOptions::ephemeral(quick_config(1)));
    let dir = scratch_dir(figure);
    let options = SweepOptions::cached(quick_config(2), &dir).with_checkpoint(1);

    // A "killed" sweep: same figure, but only a prefix of the points ran before
    // the kill. Checkpointing after every point means the prefix is already
    // published as a valid cache file.
    let partial = run_sweep(&spec_part(figure, "bb/"), &options);
    assert_eq!(partial.computed, 2);
    verify_file(&dir.join(format!("{figure}.json")))
        .expect("checkpointed cache must be valid mid-run");

    // The resumed sweep reruns the full spec: checkpointed points are cache
    // hits (nothing lost), only the in-flight remainder computes.
    let resumed = run_sweep(&full, &options);
    assert_eq!(
        resumed.cache_hits, 2,
        "checkpointed points must survive the kill"
    );
    assert_eq!(resumed.computed, full.points.len() - 2);
    for (a, b) in reference.points.iter().zip(&resumed.points) {
        assert_eq!(a.ler.failures, b.ler.failures, "point {} diverged", a.id);
        assert_eq!(a.ler.ler, b.ler.ler);
        assert_eq!(a.ler.std_err, b.ler.std_err);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the `bb/` and `hgp/` halves of [`tiny_spec`] as two separate cached
/// sweeps under `root` and returns their two cache files.
fn run_halves(figure: &str, root: &std::path::Path) -> Vec<PathBuf> {
    ["bb/", "hgp/"]
        .iter()
        .map(|prefix| {
            let dir = root.join(prefix.trim_end_matches('/'));
            run_sweep(
                &spec_part(figure, prefix),
                &SweepOptions::cached(quick_config(2), &dir),
            );
            dir.join(format!("{figure}.json"))
        })
        .collect()
}

#[test]
fn merge_of_real_caches_is_commutative_and_idempotent() {
    let spec = tiny_spec("commute");
    let reference = run_sweep(&spec, &SweepOptions::ephemeral(quick_config(1)));
    let root = scratch_dir("commute");
    let sources = run_halves("commute", &root);

    let forward = root.join("forward.json");
    let reverse = root.join("reverse.json");
    merge_files(&forward, &sources).expect("forward merge");
    let mut reversed = sources.clone();
    reversed.reverse();
    merge_files(&reverse, &reversed).expect("reverse merge");
    let forward_text = std::fs::read_to_string(&forward).expect("read");
    assert_eq!(
        forward_text,
        std::fs::read_to_string(&reverse).expect("read"),
        "merge order must not matter"
    );
    // Merging the same sources into an existing destination changes nothing.
    merge_files(&forward, &sources).expect("re-merge");
    assert_eq!(
        forward_text,
        std::fs::read_to_string(&forward).expect("read")
    );

    // The merged file serves the whole spec, bit-identical to one sweep.
    std::fs::rename(&forward, root.join("commute.json")).expect("rename");
    let merged = run_sweep(&spec, &SweepOptions::cached(quick_config(1), &root));
    assert_eq!(merged.cache_hits, spec.points.len());
    for (a, b) in reference.points.iter().zip(&merged.points) {
        assert_eq!(a.ler.failures, b.ler.failures, "point {} diverged", a.id);
        assert_eq!(a.ler.ler, b.ler.ler);
        assert_eq!(a.ler.std_err, b.ler.std_err);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_merge_source_is_skipped_and_recomputed() {
    let spec = tiny_spec("corrupt-source");
    let reference = run_sweep(&spec, &SweepOptions::ephemeral(quick_config(1)));
    let root = scratch_dir("corrupt-source");
    let sources = run_halves("corrupt-source", &root);

    // Corrupt one source: the merge must skip (and report) it, not fail, and
    // the cached run over the merged file recomputes exactly the lost points
    // back to the reference.
    let bad = &sources[1];
    std::fs::write(bad, "{\"figure\": \"corrupt-source\", \"poi").expect("corrupt");
    let report =
        merge_files(&root.join("corrupt-source.json"), &sources).expect("merge with corruption");
    assert_eq!(report.sources_merged, 1);
    assert_eq!(report.sources_skipped.len(), 1);
    assert_eq!(&report.sources_skipped[0].0, bad);

    let lost = spec_part("corrupt-source", "hgp/").points.len();
    let repaired = run_sweep(&spec, &SweepOptions::cached(quick_config(2), &root));
    assert_eq!(
        repaired.computed, lost,
        "only the corrupt source's points recompute"
    );
    assert_eq!(repaired.cache_hits, spec.points.len() - lost);
    for (a, b) in reference.points.iter().zip(&repaired.points) {
        assert_eq!(a.ler.failures, b.ler.failures, "point {} diverged", a.id);
        assert_eq!(a.ler.ler, b.ler.ler);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A small real cache for the reader fuzz tests: the spec, its
/// `SweepOptions::ephemeral` estimates, and the bytes of the cache file the
/// same sweep writes. Built once and shared by both tests.
fn fuzz_fixture() -> &'static (ScenarioSpec, Vec<LerEstimate>, Vec<u8>) {
    static FIXTURE: OnceLock<(ScenarioSpec, Vec<LerEstimate>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let code =
            qec::hgp::square_hypergraph_product(&qec::classical::ClassicalCode::repetition(3))
                .expect("valid");
        let mut spec = ScenarioSpec::new("fuzz");
        let idx = spec.code(code);
        spec.point("a/p=3e-2", idx, 3e-2, 1e-3);
        spec.point("b/p=8e-2", idx, 8e-2, 0.0);
        let config = quick_config(1);
        let ephemeral = run_sweep(&spec, &SweepOptions::ephemeral(config));
        let estimates = ephemeral.points.iter().map(|o| o.ler).collect();
        let dir = scratch_dir("fuzz-fixture");
        run_sweep(&spec, &SweepOptions::cached(config, &dir));
        let bytes = std::fs::read(dir.join("fuzz.json")).expect("cache written");
        let _ = std::fs::remove_dir_all(&dir);
        (spec, estimates, bytes)
    })
}

/// Feeds `bytes` as the cache file to all three readers: `verify_file`,
/// `merge_files` (as a source, and as a corrupt destination), and `run_sweep`.
/// Returns the sweep's estimates.
fn read_fuzzed_cache(dir: &std::path::Path, spec: &ScenarioSpec, bytes: &[u8]) -> Vec<LerEstimate> {
    let path = dir.join("fuzz.json");
    std::fs::write(&path, bytes).expect("write fuzzed cache");
    let _ = verify_file(&path);
    let merged = dir.join("merged.json");
    let _ = std::fs::remove_file(&merged);
    let _ = merge_files(&merged, std::slice::from_ref(&path));
    let dest = dir.join("dest.json");
    std::fs::write(&dest, bytes).expect("write fuzzed destination");
    let _ = merge_files(&dest, &[]);
    let result = run_sweep(spec, &SweepOptions::cached(quick_config(1), dir));
    result.points.iter().map(|o| o.ler).collect()
}

#[test]
fn truncated_caches_are_recomputed_to_the_ephemeral_estimates() {
    // Cut the cache file at every byte offset: no reader may panic, and the
    // sweep must serve exactly what an uncached run computes (a cut that still
    // parses can only drop entries, which are then recomputed).
    let (spec, want, bytes) = fuzz_fixture();
    let dir = scratch_dir("fuzz-truncate");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for len in 0..bytes.len() {
        let got = read_fuzzed_cache(&dir, spec, &bytes[..len]);
        assert_eq!(&got, want, "cache cut at byte {len} of {}", bytes.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_seed(0xC1C1_0DE5))]

    // Random byte flips may turn the file into another valid cache with other
    // numbers, so only "no reader panics" is asserted.
    #[test]
    fn flipped_cache_bytes_never_panic_a_reader(
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        let (spec, _, bytes) = fuzz_fixture();
        let mut fuzzed = bytes.clone();
        for (at, mask) in flips {
            let len = fuzzed.len();
            fuzzed[at % len] ^= mask;
        }
        let dir = scratch_dir("fuzz-flip");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        read_fuzzed_cache(&dir, spec, &fuzzed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The fuzz fixture's cache document with its `points` array edited, rendered
/// as a cache file.
fn damaged_cache(edit: impl FnOnce(&mut Vec<serde_json::Value>)) -> String {
    use serde_json::Value;
    let (_, _, bytes) = fuzz_fixture();
    let text = std::str::from_utf8(bytes).expect("a cache file is UTF-8");
    let Ok(Value::Object(mut root)) = serde_json::from_str(text) else {
        panic!("the fixture is a JSON object");
    };
    let Some(Value::Array(points)) = root.get_mut("points") else {
        panic!("the fixture has a points array");
    };
    edit(points);
    serde_json::to_string(&Value::Object(root)) + "\n"
}

/// Entry 0 of a cache document as a mutable field map.
fn first_entry(
    points: &mut [serde_json::Value],
) -> &mut std::collections::BTreeMap<String, serde_json::Value> {
    match &mut points[0] {
        serde_json::Value::Object(entry) => entry,
        other => panic!("entry 0 is not an object: {other:?}"),
    }
}

#[test]
fn every_reader_rejects_the_same_damaged_caches() {
    // One damaged entry makes the whole file invalid for every reader:
    // `verify` rejects it, a sweep serves no point from it and recomputes the
    // uncached estimates, and a merge skips it as a source.
    let (spec, want, bytes) = fuzz_fixture();
    let damaged = [
        (
            "duplicate-id",
            damaged_cache(|points| points.push(points[0].clone())),
        ),
        (
            "failures-over-shots",
            damaged_cache(|points| {
                let entry = first_entry(points);
                let shots = entry["shots"].as_u64().expect("shots") as usize;
                entry.insert("failures".to_string(), serde_json::Value::from(shots + 1));
            }),
        ),
        (
            "no-channel",
            damaged_cache(|points| {
                first_entry(points).remove("channel");
            }),
        ),
    ];
    for (name, text) in damaged {
        let dir = scratch_dir(&format!("agree-{name}"));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let path = dir.join("fuzz.json");
        std::fs::write(&path, text).expect("write damaged cache");
        assert!(verify_file(&path).is_err(), "{name}: verify accepted it");

        let intact = dir.join("intact.json");
        std::fs::write(&intact, bytes).expect("write intact cache");
        let report = merge_files(&dir.join("merged.json"), &[intact, path.clone()])
            .expect("the intact source parses");
        assert_eq!(report.sources_merged, 1, "{name}");
        assert_eq!(
            report
                .sources_skipped
                .iter()
                .map(|(p, _)| p)
                .collect::<Vec<_>>(),
            [&path],
            "{name}: the merge must skip the damaged source"
        );

        let result = run_sweep(spec, &SweepOptions::cached(quick_config(1), &dir));
        assert_eq!(
            result.cache_hits, 0,
            "{name}: the sweep read a damaged file"
        );
        assert_eq!(&result.estimates(), want, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The exact cache file `run_sweep` writes for [`pinned_spec`] at 60 fixed shots.
const PINNED_FIXED: &str = concat!(
    r#"{"bp_iterations":12,"figure":"pin","mode":"fixed","points":[{"channel":"uniform","failures":0,"id":"z/uniform","latency":0.001,"ler":0.008333333333333333,"p":0.03,"shots":60,"std_err":0.011735905652376448},"#,
    r#"{"channel":"biased:2","failures":17,"id":"a/biased","latency":0,"ler":0.2833333333333333,"p":0.03,"shots":60,"std_err":0.05817438662555248}],"schema":3,"seed":"3250654693","shots":60}"#,
    "\n",
);

/// The same spec sampled adaptively: the header records the target.
const PINNED_ADAPTIVE: &str = concat!(
    r#"{"bp_iterations":12,"figure":"pin","max_shots":240,"min_failures":3,"mode":"adaptive","points":[{"channel":"uniform","failures":2,"id":"z/uniform","latency":0.001,"ler":0.008333333333333333,"p":0.03,"shots":240,"std_err":0.005867952826188224},"#,
    r#"{"channel":"biased:2","failures":3,"id":"a/biased","latency":0,"ler":0.2727272727272727,"p":0.03,"shots":11,"std_err":0.13428162652290843}],"schema":3,"seed":"3250654693","shots":60,"target_rse":0.5}"#,
    "\n",
);

/// [`PINNED_FIXED`] merged with a second run's file: entries in id order.
const PINNED_MERGED: &str = concat!(
    r#"{"bp_iterations":12,"figure":"pin","mode":"fixed","points":[{"channel":"biased:2","failures":17,"id":"a/biased","latency":0,"ler":0.2833333333333333,"p":0.03,"shots":60,"std_err":0.05817438662555248},"#,
    r#"{"channel":"uniform","failures":9,"id":"m/uniform","latency":0,"ler":0.15,"p":0.08,"shots":60,"std_err":0.046097722286464436},"#,
    r#"{"channel":"uniform","failures":0,"id":"z/uniform","latency":0.001,"ler":0.008333333333333333,"p":0.03,"shots":60,"std_err":0.011735905652376448}],"schema":3,"seed":"3250654693","shots":60}"#,
    "\n",
);

/// Two points in non-alphabetical id order: one uniform, one under a biased
/// channel.
fn pinned_spec(figure: &str) -> ScenarioSpec {
    let code = qec::hgp::square_hypergraph_product(&qec::classical::ClassicalCode::repetition(3))
        .expect("valid");
    let mut spec = ScenarioSpec::new(figure);
    let idx = spec.code(code);
    spec.point("z/uniform", idx, 3e-2, 1e-3);
    spec.point_channel(
        "a/biased",
        idx,
        3e-2,
        0.0,
        ChannelSpec::Biased { meas_ratio: 2.0 },
    );
    spec
}

#[test]
fn cache_file_bytes_are_pinned() {
    // Every cache is read back by key name and compared bit-for-bit, so a
    // renamed key, a reordered entry or a reformatted number would silently
    // turn every existing cache into misses. Pin the bytes of what the sweep
    // writes (fixed and adaptive headers) and of what a merge writes.
    let dir = scratch_dir("pinned");
    let spec = pinned_spec("pin");
    let fixed = dir.join("fixed");
    run_sweep(&spec, &SweepOptions::cached(quick_config(1), &fixed));
    let fixed_file = fixed.join("pin.json");
    let fixed_text = std::fs::read_to_string(&fixed_file).expect("fixed cache written");
    assert_eq!(fixed_text, PINNED_FIXED);

    let adaptive = dir.join("adaptive");
    let target = PrecisionTarget::new(0.5, 3, 240);
    run_sweep(
        &spec,
        &SweepOptions::cached(quick_config(1), &adaptive).with_precision(target),
    );
    let adaptive_text =
        std::fs::read_to_string(adaptive.join("pin.json")).expect("adaptive cache written");
    assert_eq!(adaptive_text, PINNED_ADAPTIVE);

    // A second run computed a third point of the same figure.
    let mut other = ScenarioSpec::new("pin");
    let idx = other.code(spec.codes[0].clone());
    other.point("m/uniform", idx, 8e-2, 0.0);
    let second = dir.join("second");
    run_sweep(&other, &SweepOptions::cached(quick_config(1), &second));
    let merged = dir.join("merged.json");
    merge_files(&merged, &[fixed_file, second.join("pin.json")]).expect("merge");
    let merged_text = std::fs::read_to_string(&merged).expect("merged cache written");
    assert_eq!(merged_text, PINNED_MERGED);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses `text` with the JSON shim: no panic, and a document that parses
/// renders and parses back to itself.
fn assert_json_round_trips(text: &str) {
    if let Ok(doc) = serde_json::from_str(text) {
        let rendered = serde_json::to_string(&doc);
        assert_eq!(
            serde_json::from_str(&rendered).ok(),
            Some(doc),
            "{text:?} rendered as {rendered:?}"
        );
    }
}

#[test]
fn truncated_cache_text_round_trips_through_the_json_shim() {
    let (_, _, bytes) = fuzz_fixture();
    let text = std::str::from_utf8(bytes).expect("a cache file is UTF-8");
    for len in 0..=text.len() {
        if let Some(cut) = text.get(..len) {
            assert_json_round_trips(cut);
        }
    }
}

#[test]
fn every_json_token_substitution_round_trips_through_the_json_shim() {
    // Random flips rarely land on the one byte that makes a number overflow
    // (`0.28e33333333333`), so also try every byte JSON gives meaning to at
    // every offset.
    let (_, _, bytes) = fuzz_fixture();
    for at in 0..bytes.len() {
        for &token in b"0123456789eE+-.,:[]{}\"\\ nul" {
            let mut fuzzed = bytes.clone();
            fuzzed[at] = token;
            assert_json_round_trips(&String::from_utf8_lossy(&fuzzed));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024).with_seed(0xC1C1_0DE5))]

    #[test]
    fn flipped_cache_text_round_trips_through_the_json_shim(
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        let (_, _, bytes) = fuzz_fixture();
        let mut fuzzed = bytes.clone();
        for (at, mask) in flips {
            let len = fuzzed.len();
            fuzzed[at % len] ^= mask;
        }
        assert_json_round_trips(&String::from_utf8_lossy(&fuzzed));
    }
}
