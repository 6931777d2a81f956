//! Decoder hot-path throughput on the `[[72,12,6]]` BB code.
//!
//! Measures per-decode and per-shot rates with plain wall-clock timing (the
//! criterion shim's statistics are no richer — see `crates/shims/README.md`):
//!
//! * **BP-only** — decodes of weight-1-error syndromes, which belief propagation
//!   resolves without the OSD fallback, timed in alternating rounds against
//!   the scalar CSR reference (`crates/decoder/tests/oracle/bp.rs`, included
//!   below) on the same syndromes;
//! * **OSD-fallback** — decodes of syndromes on which BP fails, exercising the
//!   word-level ordered-statistics path; the library's column-basis OSD
//!   stage and the cold OSD oracle (`crates/decoder/tests/oracle/osd.rs`,
//!   included below) are also timed separately (same syndromes, precomputed
//!   BP suspicion), so the column basis's gain over a full sort and
//!   elimination is recorded on every run;
//! * **`[[225,9,6]]`** — BP-converged and OSD-fallback decode rates on the
//!   hypergraph product code of Fig. 15, the decode-bound figure (recorded,
//!   not enforced);
//! * **full-shot (batch)** — complete Monte-Carlo shots (depolarizing sample +
//!   X and Z decodes + logical checks) through the bit-sliced 64-lane sampler
//!   (`MemoryExperiment::sample_batch_with`: word-level syndrome extraction,
//!   zero-syndrome lane skip, per-syndrome decode cache), for the uniform,
//!   biased, and schedule-shaped channels, with per-channel OSD-fallback and
//!   cache-hit rates from `BatchStats` deltas. Each structured channel is
//!   measured twice on one scratch: a **cold** pass pays every compulsory
//!   syndrome decode once, and a **warm** pass replays the same shots through
//!   the cache the cold pass filled.
//!
//! A counting global allocator verifies the zero-allocation claim: after warmup,
//! every timed loop — decoder stages and batch shots, all channel shapes, cold
//! and warm — must perform **zero** heap allocations. Each run overwrites
//! `BENCH_decoder.json` at the repository root with its measurements, so the
//! file always holds the current commit's numbers and the perf trajectory
//! accumulates in git history (and in CI artifacts). All timed loops are
//! single-threaded — worker parallelism is `MemoryExperiment::run`'s concern,
//! not the hot path's. `CYCLONE_SHOTS` scales the measurement length (CI uses
//! 50), and `CYCLONE_ENFORCE=1` turns the recorded regression thresholds below
//! into hard assertions.

use bench::runner::RunContext;
use decoder::bp::priors_digest;
use decoder::bposd::{BpOsdDecoder, DecodeMethod};
use decoder::memory::{BatchScratch, BatchStats, MemoryConfig, MemoryExperiment};
use decoder::osd::OsdDecoder;
use decoder::scratch::DecoderScratch;
use decoder::simd::Simd;
use decoder::sparse::SparseBinMat;
use noise::{ErrorChannel, HardwareNoiseModel, NoiseParameters};
use qec::codes::{bb_72_12_6, hgp_225_9_6};
use qec::CssCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The scalar min-sum reference the decoder's lane kernels are pinned to.
#[path = "../../decoder/tests/oracle/bp.rs"]
mod oracle_bp;

/// The cold OSD-0 reference the column-basis OSD stage is pinned to.
#[path = "../../decoder/tests/oracle/osd.rs"]
mod oracle_osd;

/// Full-shot throughput measured at the pre-refactor commit (`be2e5a4`, allocating
/// `sample_one`, per-decode Tanner rebuild, bit-level OSD) on this container:
/// median of three 20k-shot runs. The recorded baseline field in
/// `BENCH_decoder.json` comes from this constant, and `speedup_vs_pre_pr` is
/// always computed from it at run time — never hand-entered.
const PRE_PR_BASELINE_SHOTS_PER_SEC: f64 = 61_860.0;

/// Regression floor for the batch uniform rate under `CYCLONE_ENFORCE=1`
/// (quick mode included): the original tentpole target for this container, with
/// the measured rate (~4M shots/sec full-length) leaving roughly 3× headroom.
const ENFORCE_MIN_UNIFORM_BATCH_SHOTS_PER_SEC: f64 = 1_000_000.0;

/// Regression ceiling for the worst **cold** structured-channel penalty
/// (`uniform_batch / min(biased_batch, schedule_batch)`) under
/// `CYCLONE_ENFORCE=1`. The cold run is bounded by compulsory decode-cache
/// misses: every first-seen multi-event syndrome pays the full BP-failure +
/// OSD-fallback cost, pinned bit-identical to the scalar decoder. The BP/OSD
/// hot-loop work (word-packed convergence, branchless min-sum signs, row-major
/// total accumulation, a faster OSD stage) brought the measured cold penalty from
/// ~28× down to ~20× on this container; 25× is the do-not-regress ceiling.
/// The *warm* pass — the same shots replayed through the filled decode cache —
/// is held to the much tighter [`ENFORCE_MAX_WARM_STRUCTURED_PENALTY`].
const ENFORCE_MAX_STRUCTURED_PENALTY: f64 = 25.0;

/// Warm-pass regression ceiling for the structured-channel penalty: replaying
/// the cold pass's shots, compulsory misses vanish (measured ~2× on this
/// container, dominated by the per-shot RNG stream that bit-identity pins).
const ENFORCE_MAX_WARM_STRUCTURED_PENALTY: f64 = 5.0;

/// Warm-pass regression floor for the slowest structured-channel batch rate
/// (measured ~2M shots/sec on this container).
const ENFORCE_MIN_WARM_STRUCTURED_BATCH_SHOTS_PER_SEC: f64 = 300_000.0;

/// Vector-dispatch regression floor for the BP kernel gain, applied under
/// `CYCLONE_ENFORCE=1` when the dispatch is a vector compilation (AVX2 or
/// AVX-512):
/// `bp_only_decodes_per_sec` must be at least this multiple of the rate of
/// the scalar CSR reference (`crates/decoder/tests/oracle/bp.rs`) measured in
/// the same run. The baseline compilation of the kernels is itself
/// vectorized, so the ratio is always taken against that fixed reference
/// program, never against `CYCLONE_SIMD=off`. The baseline dispatch records
/// the ratio without enforcing it.
const ENFORCE_MIN_BP_SIMD_SPEEDUP: f64 = 1.5;

/// SIMD-only ceiling for the worst cold structured-channel penalty under
/// `CYCLONE_ENFORCE=1` under a vector dispatch: the vectorized check pass shrinks the
/// compulsory-miss BP cost, so the cold penalty must sit below the scalar-era
/// 22× (the scalar-safe [`ENFORCE_MAX_STRUCTURED_PENALTY`] ceiling still
/// applies to `CYCLONE_SIMD=off` runs).
const ENFORCE_MAX_SIMD_STRUCTURED_PENALTY: f64 = 22.0;

/// Alternating timing rounds of the BP-only comparison; each side reports its
/// best round.
const BP_ROUNDS: usize = 5;

/// The physical error rate of the acceptance measurement.
const P: f64 = 3e-3;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Times `iters` calls of `routine` and returns calls per second.
fn rate(iters: usize, mut routine: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        routine(i);
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// What one channel's batch measurement produced: the steady-state rate, the
/// heap allocations of the timed loop, and the `BatchStats` / cache-counter
/// deltas of its lanes over it.
struct ChannelMeasurement {
    shots_per_sec: f64,
    allocations: usize,
    stats: BatchStats,
    cache_hits: u64,
    cache_misses: u64,
}

impl ChannelMeasurement {
    fn osd_fallback_rate(&self) -> f64 {
        self.stats.osd_fallbacks as f64 / self.stats.active_lanes.max(1) as f64
    }

    /// The share of active lanes whose OSD fallback was skipped because the
    /// left-kernel parity proved the syndrome inconsistent.
    fn inconsistent_rate(&self) -> f64 {
        self.stats.inconsistent as f64 / self.stats.active_lanes.max(1) as f64
    }

    fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// Measures steady-state batch throughput (shots/sec) for one experiment, and
/// asserts the timed loop is allocation-free. `batch` arrives warm (buffers and
/// decode caches sized, OSD arenas grown); the cache context re-bind happens
/// on the first (untimed) chunk, so the timed loop that follows never
/// allocates.
fn batch_rate(
    exp: &MemoryExperiment,
    cfg: &MemoryConfig,
    batch: &mut BatchScratch,
    chunks: usize,
) -> ChannelMeasurement {
    // One untimed chunk re-binds the decode caches to this experiment's context
    // (which zeroes the cache counters when the context changes) and
    // repopulates the popular syndromes. The stat baselines are captured
    // *after* it, so the deltas cover exactly the timed loop.
    black_box(exp.sample_batch_with(cfg, 0, 64, batch));
    let stats0 = batch.stats();
    let (hits0, misses0) = batch.cache_stats();
    let before = allocations();
    let shots_per_sec = 64.0
        * rate(chunks, |chunk| {
            black_box(exp.sample_batch_with(cfg, chunk * 64, 64, batch));
        });
    let allocations = allocations() - before;
    assert_eq!(
        allocations, 0,
        "steady-state sample_batch_with must not allocate"
    );
    let stats1 = batch.stats();
    let (hits1, misses1) = batch.cache_stats();
    ChannelMeasurement {
        shots_per_sec,
        allocations,
        stats: BatchStats {
            active_lanes: stats1.active_lanes - stats0.active_lanes,
            decoded: stats1.decoded - stats0.decoded,
            osd_fallbacks: stats1.osd_fallbacks - stats0.osd_fallbacks,
            inconsistent: stats1.inconsistent - stats0.inconsistent,
            ..BatchStats::default()
        },
        cache_hits: hits1 - hits0,
        cache_misses: misses1 - misses0,
    }
}

/// `count` syndromes of `code`'s Z sector whose decode ends in `method`,
/// from errors drawn i.i.d. at rate `p`.
fn syndromes_ending_in(
    code: &CssCode,
    decoder: &BpOsdDecoder,
    method: DecodeMethod,
    p: f64,
    count: usize,
) -> Vec<Vec<bool>> {
    let n = code.num_qubits();
    let priors = vec![P; n];
    let key = priors_digest(&priors);
    let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5);
    let mut scratch = DecoderScratch::new();
    let mut found = Vec::with_capacity(count);
    while found.len() < count {
        let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
        let s = code.z_syndrome(&e);
        if s.contains(&true)
            && decoder
                .decode_with_priors_keyed_into(&s, &priors, key, &mut scratch)
                .method
                == method
        {
            found.push(s);
        }
    }
    found
}

fn main() {
    let code = bb_72_12_6().expect("valid");
    let n = code.num_qubits();
    let decoder = BpOsdDecoder::new(code.hz(), 30);
    // Every decode goes through the keyed priors entry point; the uniform
    // channel is a constant priors vector.
    let priors = vec![P; n];
    let key = priors_digest(&priors);
    let decode = |dec: &BpOsdDecoder, s: &[bool], scratch: &mut DecoderScratch| {
        dec.decode_with_priors_keyed_into(s, &priors, key, scratch)
    };
    let ctx = RunContext::from_env();
    let iters = 40 * ctx.config.shots; // 16k iterations by default, 2k in CI quick mode
    let enforce = ctx.enforce;

    // --- BP-only: weight-1 errors, cycled over every qubit. -----------------
    let weight1_syndromes: Vec<Vec<bool>> = (0..n)
        .map(|q| {
            let mut e = vec![false; n];
            e[q] = true;
            code.z_syndrome(&e)
        })
        .collect();
    // The scalar CSR reference decodes the same syndromes; warm-up checks the
    // two agree bit for bit.
    let simd = decoder.simd();
    let scalar_ref = oracle_bp::ScalarBp::new(&SparseBinMat::from_bitmat(code.hz()), 30);
    let mut scalar_scratch = oracle_bp::ScalarBpScratch::default();
    let mut scratch = DecoderScratch::new();
    for s in &weight1_syndromes {
        let status = decode(&decoder, s, &mut scratch);
        assert_eq!(status.method, DecodeMethod::BeliefPropagation);
        let reference = scalar_ref.decode(s, &priors, key, &mut scalar_scratch);
        assert_eq!(reference.iterations, status.iterations);
        assert_eq!(scalar_scratch.error(), scratch.error());
        assert!(scalar_scratch
            .llrs()
            .iter()
            .zip(scratch.llrs())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
    // Same syndromes, same run, so `bp_rate / bp_scalar_rate` is an honest
    // same-host measure of the lane-kernel gain (bit-identical outputs, so
    // this is purely a throughput ratio). The two are timed in alternating
    // rounds and each keeps its best round, so a burst of load from other
    // processes on a shared host is discarded on either side instead of
    // skewing the ratio.
    let (mut bp_rate, mut bp_scalar_rate) = (0.0f64, 0.0f64);
    let before = allocations();
    for _ in 0..BP_ROUNDS {
        let round = rate(iters / BP_ROUNDS, |i| {
            let s = &weight1_syndromes[i % weight1_syndromes.len()];
            black_box(decode(&decoder, black_box(s), &mut scratch));
        });
        bp_rate = bp_rate.max(round);
        let round = rate(iters / BP_ROUNDS, |i| {
            let s = &weight1_syndromes[i % weight1_syndromes.len()];
            black_box(scalar_ref.decode(black_box(s), &priors, key, &mut scalar_scratch));
        });
        bp_scalar_rate = bp_scalar_rate.max(round);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state BP-only decodes must not allocate"
    );
    let bp_simd_speedup = bp_rate / bp_scalar_rate;

    // --- OSD-fallback: syndromes on which BP fails. -------------------------
    let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5);
    let mut fallback_syndromes: Vec<Vec<bool>> = Vec::new();
    while fallback_syndromes.len() < 32 {
        let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.08)).collect();
        let s = code.z_syndrome(&e);
        if decode(&decoder, &s, &mut scratch).method == DecodeMethod::OrderedStatistics {
            fallback_syndromes.push(s);
        }
    }
    let osd_rate = rate(iters / 4, |i| {
        let s = &fallback_syndromes[i % fallback_syndromes.len()];
        black_box(decode(&decoder, black_box(s), &mut scratch));
    });

    // --- OSD stage alone, column basis vs cold. -----------------------------
    // Same fallback syndromes, BP suspicion precomputed, so the two timings
    // isolate the OSD stage: the library's heap-ordered column basis against
    // the oracle's full sort, augmented-matrix gather and elimination; the
    // property suite pins them bit-identical.
    let suspicions: Vec<Vec<f64>> = fallback_syndromes
        .iter()
        .map(|s| {
            decode(&decoder, s, &mut scratch);
            scratch.llrs().iter().map(|&l| -l).collect()
        })
        .collect();
    let osd_only = OsdDecoder::new(code.hz().clone());
    let osd_cold = oracle_osd::ColdOsd::new(code.hz());
    let mut basis_scratch = DecoderScratch::new();
    let mut cold_scratch = oracle_osd::ColdOsdScratch::default();
    for (s, susp) in fallback_syndromes.iter().zip(&suspicions) {
        assert!(osd_only.decode_into(s, susp, &mut basis_scratch));
        assert!(osd_cold.decode(s, susp, &mut cold_scratch));
        assert_eq!(basis_scratch.error(), cold_scratch.error());
    }
    let before = allocations();
    let osd_basis_rate = rate(iters / 4, |i| {
        let k = i % fallback_syndromes.len();
        black_box(osd_only.decode_into(
            black_box(&fallback_syndromes[k]),
            &suspicions[k],
            &mut basis_scratch,
        ));
    });
    let osd_cold_rate = rate(iters / 4, |i| {
        let k = i % fallback_syndromes.len();
        black_box(osd_cold.decode(
            black_box(&fallback_syndromes[k]),
            &suspicions[k],
            &mut cold_scratch,
        ));
    });
    assert_eq!(
        allocations() - before,
        0,
        "steady-state OSD decode_into must not allocate"
    );
    let osd_basis_speedup = osd_basis_rate / osd_cold_rate;

    // --- [[225,9,6]]: BP-converged and OSD-fallback decodes. ----------------
    // Record-only: the Fig. 15 HGP code's per-decode costs, where fixed
    // per-decode work (priming, OSD gather) matters most.
    let hgp = hgp_225_9_6().expect("valid");
    let hgp_decoder = BpOsdDecoder::new(hgp.hz(), 30);
    let hgp_priors = vec![P; hgp.num_qubits()];
    let hgp_key = priors_digest(&hgp_priors);
    let hgp_rate = |syndromes: &[Vec<bool>], scratch: &mut DecoderScratch| {
        rate(iters / 4, |i| {
            let s = &syndromes[i % syndromes.len()];
            black_box(hgp_decoder.decode_with_priors_keyed_into(
                black_box(s),
                &hgp_priors,
                hgp_key,
                scratch,
            ));
        })
    };
    let hgp_converged = syndromes_ending_in(
        &hgp,
        &hgp_decoder,
        DecodeMethod::BeliefPropagation,
        0.01,
        64,
    );
    let hgp_fallback = syndromes_ending_in(
        &hgp,
        &hgp_decoder,
        DecodeMethod::OrderedStatistics,
        0.04,
        32,
    );
    let mut hgp_scratch = DecoderScratch::new();
    for s in &hgp_fallback {
        hgp_decoder.decode_with_priors_keyed_into(s, &hgp_priors, hgp_key, &mut hgp_scratch);
    }
    let before = allocations();
    let hgp_bp_rate = hgp_rate(&hgp_converged, &mut hgp_scratch);
    let hgp_osd_rate = hgp_rate(&hgp_fallback, &mut hgp_scratch);
    assert_eq!(
        allocations() - before,
        0,
        "steady-state [[225,9,6]] decodes must not allocate"
    );

    // --- Bit-sliced batch shots, per channel kind. --------------------------
    // The biased channel exercises syndrome flips + per-bit priors; the
    // "schedule" channel is a fully heterogeneous from_schedule instantiation
    // (distinct data and ancilla idle exposures).
    let model = HardwareNoiseModel::new(NoiseParameters::new(P), 0.0);
    let exp = MemoryExperiment::new(&code, model, 30);
    // A burst of high-noise shots grows the OSD arenas in both sectors (the
    // fallback is rare at p = 3e-3).
    let noisy = MemoryExperiment::new(
        &code,
        HardwareNoiseModel::new(NoiseParameters::new(0.08), 0.0),
        30,
    );
    let biased_channel = || ErrorChannel::biased(n, code.num_stabilizers(), P, 2.0 * P);
    let schedule_channel = || {
        let data_idle: Vec<f64> = (0..n).map(|q| 1e-2 * (q % 7) as f64 / 6.0).collect();
        let meas_idle: Vec<f64> = (0..code.num_stabilizers())
            .map(|c| 1e-2 * (c % 5) as f64 / 4.0)
            .collect();
        ErrorChannel::from_schedule(&model, &data_idle, &meas_idle)
    };

    // One warm scratch serves every channel: a high-noise burst grows the OSD
    // arenas and decode-cache storage once, then each `batch_rate` re-binds the
    // caches to its channel context allocation-free. Each structured channel
    // is measured twice: the second pass replays the first pass's shots
    // through the cache it filled.
    let cfg = MemoryConfig {
        shots: 0,
        bp_iterations: 30,
        threads: 1,
        seed: 0xC1C1_0DE5,
    };
    let mut batch = BatchScratch::new();
    for chunk in 0..4usize {
        black_box(noisy.sample_batch_with(&cfg, chunk * 64, 64, &mut batch));
    }
    let chunks = (iters / 64).max(8);
    let uniform = batch_rate(&exp, &cfg, &mut batch, chunks);
    let mut structured = |channel: ErrorChannel| -> [ChannelMeasurement; 2] {
        let exp = MemoryExperiment::with_channel(&code, model, channel, 30);
        let cold = batch_rate(&exp, &cfg, &mut batch, chunks);
        [cold, batch_rate(&exp, &cfg, &mut batch, chunks)]
    };
    let [biased, biased_warm] = structured(biased_channel());
    let [schedule, schedule_warm] = structured(schedule_channel());
    let cache_evictions = batch.cache_evictions();
    let steady_state_allocs = [&uniform, &biased, &biased_warm, &schedule, &schedule_warm]
        .iter()
        .map(|m| m.allocations)
        .sum::<usize>();

    // The headline figures: the batch path is what `MemoryExperiment::run`
    // executes, so the pre-PR speedup and the structured-channel penalty are
    // both computed from it — against the recorded baseline field, at run time.
    let uniform_batch = uniform.shots_per_sec;
    let biased_batch = biased.shots_per_sec;
    let schedule_batch = schedule.shots_per_sec;
    let speedup = uniform_batch / PRE_PR_BASELINE_SHOTS_PER_SEC;
    let structured_min = biased_batch.min(schedule_batch);
    let structured_penalty = uniform_batch / structured_min;
    let warm_min = biased_warm.shots_per_sec.min(schedule_warm.shots_per_sec);
    let warm_penalty = uniform_batch / warm_min;

    println!("decoder hot path, [[72,12,6]] BB code at p = {P:.0e} ({iters} iterations)");
    println!("  simd dispatch: {}", simd.isa_name());
    println!("  BP-only        {bp_rate:>12.0} decodes/sec");
    println!(
        "    scalar ref   {bp_scalar_rate:>12.0} decodes/sec ({bp_simd_speedup:.2}x kernel gain)"
    );
    println!("  OSD-fallback   {osd_rate:>12.0} decodes/sec (BP failure + OSD)");
    println!("    OSD basis    {osd_basis_rate:>12.0} decodes/sec (stage alone)");
    println!("    OSD cold     {osd_cold_rate:>12.0} decodes/sec ({osd_basis_speedup:.2}x column-basis gain)");
    println!(
        "  {}: BP-converged {hgp_bp_rate:.0}, OSD-fallback {hgp_osd_rate:.0} decodes/sec",
        hgp.descriptor()
    );
    println!("  batch shots    {uniform_batch:>12.0} shots/sec (uniform, 64 lanes/word)");
    for (name, m, warm) in [
        ("biased", &biased, &biased_warm),
        ("schedule", &schedule, &schedule_warm),
    ] {
        println!(
            "    {name:<9}  {:>12.0} shots/sec cold, {:.0} warm (OSD fallback {:.1}%, \
             OSD skipped as inconsistent {:.1}% of active lanes)",
            m.shots_per_sec,
            warm.shots_per_sec,
            100.0 * m.osd_fallback_rate(),
            100.0 * m.inconsistent_rate(),
        );
    }
    println!(
        "  decode-cache hit rate (biased batch): {:.1}% cold, {:.1}% warm  \
         ({cache_evictions} conflict evictions)",
        100.0 * biased.cache_hit_rate(),
        100.0 * biased_warm.cache_hit_rate(),
    );
    println!(
        "  worst structured penalty vs uniform batch: {structured_penalty:.2}x cold, \
         {warm_penalty:.2}x warm"
    );
    println!("  steady-state heap allocations per shot: {steady_state_allocs}");
    println!(
        "  speedup vs pre-PR baseline ({PRE_PR_BASELINE_SHOTS_PER_SEC:.0} shots/sec): {speedup:.2}x"
    );

    if enforce {
        assert!(
            uniform_batch >= ENFORCE_MIN_UNIFORM_BATCH_SHOTS_PER_SEC,
            "uniform batch throughput regressed: {uniform_batch:.0} < \
             {ENFORCE_MIN_UNIFORM_BATCH_SHOTS_PER_SEC:.0} shots/sec"
        );
        assert!(
            structured_penalty <= ENFORCE_MAX_STRUCTURED_PENALTY,
            "structured-channel penalty regressed: {structured_penalty:.2}x > \
             {ENFORCE_MAX_STRUCTURED_PENALTY:.2}x"
        );
        assert!(
            warm_penalty <= ENFORCE_MAX_WARM_STRUCTURED_PENALTY,
            "warm structured-channel penalty regressed: {warm_penalty:.2}x > \
             {ENFORCE_MAX_WARM_STRUCTURED_PENALTY:.2}x"
        );
        assert!(
            warm_min >= ENFORCE_MIN_WARM_STRUCTURED_BATCH_SHOTS_PER_SEC,
            "warm structured batch throughput regressed: {warm_min:.0} < \
             {ENFORCE_MIN_WARM_STRUCTURED_BATCH_SHOTS_PER_SEC:.0} shots/sec"
        );
        // Kernel thresholds hold for every vector compilation (AVX2 or
        // AVX-512): the baseline dispatch records honest numbers without
        // gating on them, and a `CYCLONE_SIMD=off` enforce run stays on the
        // scalar-safe ceilings.
        let vector = simd != Simd::scalar();
        if vector {
            assert!(
                bp_simd_speedup >= ENFORCE_MIN_BP_SIMD_SPEEDUP,
                "{} BP kernel gain regressed: {bp_simd_speedup:.2}x < \
                 {ENFORCE_MIN_BP_SIMD_SPEEDUP:.2}x vs same-run scalar reference",
                simd.isa_name()
            );
            assert!(
                structured_penalty <= ENFORCE_MAX_SIMD_STRUCTURED_PENALTY,
                "{} structured-channel penalty regressed: {structured_penalty:.2}x > \
                 {ENFORCE_MAX_SIMD_STRUCTURED_PENALTY:.2}x",
                simd.isa_name()
            );
        }
        println!(
            "  CYCLONE_ENFORCE: thresholds hold (cold + warm{})",
            if vector {
                format!(" + {}", simd.isa_name())
            } else {
                String::new()
            }
        );
    }

    let channel_stats = |m: &ChannelMeasurement| {
        format!(
            "{{\n      \"osd_fallback_rate\": {:.3},\n      \
             \"inconsistent_rate\": {:.3},\n      \"cache_hit_rate\": {:.3}\n    }}",
            m.osd_fallback_rate(),
            m.inconsistent_rate(),
            m.cache_hit_rate(),
        )
    };
    let json = format!(
        "{{\n  \"code\": \"{}\",\n  \"p\": {P},\n  \"iterations\": {iters},\n  \
         \"simd\": {{\n    \"isa\": \"{}\"\n  }},\n  \
         \"bp_only_decodes_per_sec\": {bp_rate:.1},\n  \
         \"bp_scalar_decodes_per_sec\": {bp_scalar_rate:.1},\n  \
         \"bp_simd_speedup\": {bp_simd_speedup:.2},\n  \
         \"osd_fallback_decodes_per_sec\": {osd_rate:.1},\n  \
         \"osd_stage_decodes_per_sec\": {{\n    \"column_basis\": {osd_basis_rate:.1},\n    \
         \"cold\": {osd_cold_rate:.1},\n    \"column_basis_speedup\": {osd_basis_speedup:.2}\n  }},\n  \
         \"hgp_225_9_6\": {{\n    \"bp_converged_decodes_per_sec\": {hgp_bp_rate:.1},\n    \
         \"osd_fallback_decodes_per_sec\": {hgp_osd_rate:.1}\n  }},\n  \
         \"batch_shots_per_sec\": {{\n    \"uniform\": {uniform_batch:.1},\n    \
         \"biased\": {biased_batch:.1},\n    \"schedule\": {schedule_batch:.1}\n  }},\n  \
         \"batch_channel_stats\": {{\n    \"biased\": {},\n    \"schedule\": {}\n  }},\n  \
         \"batch_cache_evictions\": {cache_evictions},\n  \
         \"decode_cache\": {{\n    \"warm_batch_shots_per_sec\": {{\n      \
         \"biased\": {:.1},\n      \"schedule\": {:.1}\n    }},\n    \
         \"warm_cache_hit_rate\": {{\n      \"biased\": {:.3},\n      \
         \"schedule\": {:.3}\n    }},\n    \
         \"warm_structured_penalty_vs_uniform\": {warm_penalty:.2}\n  }},\n  \
         \"structured_penalty_vs_uniform\": {structured_penalty:.2},\n  \
         \"steady_state_allocs_per_shot\": {steady_state_allocs},\n  \
         \"pre_pr_baseline_shots_per_sec\": {PRE_PR_BASELINE_SHOTS_PER_SEC:.1},\n  \
         \"speedup_vs_pre_pr\": {speedup:.2}\n}}\n",
        code.descriptor(),
        simd.isa_name(),
        channel_stats(&biased),
        channel_stats(&schedule),
        biased_warm.shots_per_sec,
        schedule_warm.shots_per_sec,
        biased_warm.cache_hit_rate(),
        schedule_warm.cache_hit_rate(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decoder.json");
    // cyclone-lint: allow(io-unwrap) -- bench artifact write is fail-fast by design: a partial BENCH_decoder.json must abort the run, not pass CI
    std::fs::write(path, json).expect("write BENCH_decoder.json");
    println!("  wrote {path}");
}
