//! Property-based tests of the decoding substrate: BP+OSD correctness invariants and
//! noise-model monotonicity at the memory-experiment level.

mod oracle;

use decoder::bp::{priors_digest, BeliefPropagation, BpStatus};
use decoder::bposd::{BpOsdDecoder, DecodeMethod, DecodeStatus};
use decoder::memory::{
    estimate_points, BatchScratch, LerEstimate, LerPoint, MemoryConfig, MemoryExperiment,
    PrecisionTarget,
};
use decoder::osd::OsdDecoder;
use decoder::scratch::DecoderScratch;
use decoder::simd::Simd;
use decoder::sparse::SparseBinMat;
use noise::{ChannelSpec, ErrorChannel, HardwareNoiseModel, NoiseParameters};
use oracle::bp::{ScalarBp, ScalarBpScratch};
use oracle::osd::{ColdOsd, ColdOsdScratch};
use proptest::prelude::*;
use qec::classical::ClassicalCode;
use qec::hgp::square_hypergraph_product;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A constant priors vector of length `n` at rate `p`, and its digest key.
fn uniform_priors(n: usize, p: f64) -> (Vec<f64>, u64) {
    let priors = vec![p; n];
    let key = priors_digest(&priors);
    (priors, key)
}

/// A BP+OSD decode at constant prior `p` through a fresh scratch, and that
/// scratch, which holds the correction.
fn fresh_decode(dec: &BpOsdDecoder, syndrome: &[bool], p: f64) -> (DecodeStatus, DecoderScratch) {
    let (priors, key) = uniform_priors(dec.check_matrix().num_cols(), p);
    let mut scratch = DecoderScratch::new();
    let status = dec.decode_with_priors_keyed_into(syndrome, &priors, key, &mut scratch);
    (status, scratch)
}

/// A BP decode at constant prior `p` through a fresh scratch, and that
/// scratch, which holds the hard decision and the posteriors.
fn fresh_bp(bp: &BeliefPropagation, syndrome: &[bool], p: f64) -> (BpStatus, DecoderScratch) {
    let (priors, key) = uniform_priors(bp.matrix().num_cols(), p);
    let mut scratch = DecoderScratch::new();
    let status = bp.decode_with_priors_keyed_into(syndrome, &priors, key, &mut scratch);
    (status, scratch)
}

/// Reused buffers of [`assert_kernels_match_oracle`]: one for the scalar
/// oracle and one per kernel compilation.
#[derive(Default)]
struct PinScratch {
    oracle: ScalarBpScratch,
    /// One per compilation of the lane kernels (at most three).
    kernels: [DecoderScratch; 3],
}

/// The exact bit patterns of an LLR vector.
fn llr_bits(llrs: &[f64]) -> Vec<u64> {
    llrs.iter().map(|v| v.to_bits()).collect()
}

/// Decodes `syndrome` with the scalar oracle and with every compilation of the
/// lane kernels the host supports (`Simd::supported()`), each through its own
/// reused scratch, and asserts they agree byte for byte: convergence verdict,
/// iteration count, hard decision and the bits of every posterior LLR.
fn assert_kernels_match_oracle(
    h: &SparseBinMat,
    bp_iterations: usize,
    syndrome: &[bool],
    priors: &[f64],
    scratch: &mut PinScratch,
) {
    let key = priors_digest(priors);
    let want = ScalarBp::new(h, bp_iterations).decode(syndrome, priors, key, &mut scratch.oracle);
    for (simd, kernel_scratch) in Simd::supported().into_iter().zip(&mut scratch.kernels) {
        let bp = BeliefPropagation::new(h.clone(), bp_iterations).with_simd(simd);
        let got = bp.decode_with_priors_keyed_into(syndrome, priors, key, kernel_scratch);
        let isa = simd.isa_name();
        assert_eq!(got, want, "{isa} status diverged on {syndrome:?}");
        assert_eq!(
            kernel_scratch.error(),
            scratch.oracle.error(),
            "{isa} error"
        );
        assert_eq!(
            llr_bits(kernel_scratch.llrs()),
            llr_bits(scratch.oracle.llrs()),
            "{isa} LLRs not byte-identical on {syndrome:?}"
        );
    }
}

proptest! {
    // Deterministic: every case derives from this explicit seed (the workspace's
    // shared 0xC1C1_0DE5 convention), so a CI failure reproduces locally.
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0xC1C1_0DE5))]

    #[test]
    fn bposd_always_matches_the_syndrome(seed in 0u64..50, p in 0.002f64..0.08) {
        let c = ClassicalCode::gallager_ldpc(8, 3, 4, seed % 10);
        let code = square_hypergraph_product(&c).expect("valid");
        let decoder = BpOsdDecoder::new(code.hz(), 25);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = code.num_qubits();
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
        let syndrome = code.z_syndrome(&error);
        let (_, decoded) = fresh_decode(&decoder, &syndrome, p);
        prop_assert_eq!(code.z_syndrome(decoded.error()), syndrome);
    }

    #[test]
    fn correctable_errors_never_cause_logicals(position in 0usize..100) {
        // Any single-qubit error is within the correction radius of the distance-3
        // surface-like HGP code.
        let code = square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid");
        let decoder = BpOsdDecoder::new(code.hz(), 30);
        let n = code.num_qubits();
        let q = position % n;
        let mut error = vec![false; n];
        error[q] = true;
        let syndrome = code.z_syndrome(&error);
        let (_, decoded) = fresh_decode(&decoder, &syndrome, 0.01);
        let residual: Vec<bool> = error.iter().zip(decoded.error()).map(|(&a, &b)| a ^ b).collect();
        prop_assert!(!code.x_error_is_logical(&residual));
    }

    #[test]
    fn syndrome_of_sparse_matrix_matches_dense(seed in 0u64..40) {
        let c = ClassicalCode::gallager_ldpc(12, 3, 4, seed);
        let h = c.parity_check();
        let sparse = SparseBinMat::from_bitmat(h);
        let mut rng = StdRng::seed_from_u64(seed);
        let e: Vec<bool> = (0..h.num_cols()).map(|_| rng.gen_bool(0.3)).collect();
        prop_assert_eq!(sparse.syndrome(&e), h.mul_vec(&e));
    }

    #[test]
    fn decode_into_is_bit_identical_to_allocating_decode(
        seed in 0u64..60,
        p in 0.005f64..0.2,
        bp_iterations in 1usize..12,
    ) {
        // One dirty scratch reused across every case, matrix size, and decoder —
        // exactly the Monte-Carlo steady state — against a fresh scratch per
        // decode. Low iteration caps make the OSD fallback fire often; low
        // error weights keep BP-converged cases common.
        let c = ClassicalCode::gallager_ldpc(8 + 4 * (seed % 2) as usize, 3, 4, seed % 11);
        let code = square_hypergraph_product(&c).expect("valid");
        let h = code.hz();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = code.num_qubits();
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
        let syndrome = code.z_syndrome(&error);

        let (priors, key) = uniform_priors(n, p);
        let bp = BeliefPropagation::new(SparseBinMat::from_bitmat(h), bp_iterations);
        let (bp_fresh, bp_fresh_scratch) = fresh_bp(&bp, &syndrome, p);
        let mut scratch = DecoderScratch::new();
        let bp_status = bp.decode_with_priors_keyed_into(&syndrome, &priors, key, &mut scratch);
        prop_assert_eq!(bp_status, bp_fresh);
        prop_assert_eq!(scratch.error(), bp_fresh_scratch.error());
        prop_assert_eq!(scratch.llrs(), bp_fresh_scratch.llrs());

        // Full BP+OSD through the *same* (now dirty) scratch: both the converged
        // and the fallback branch must match the fresh scratch bit for bit.
        let dec = BpOsdDecoder::new(h, bp_iterations);
        let (fresh, fresh_scratch) = fresh_decode(&dec, &syndrome, p);
        let status = dec.decode_with_priors_keyed_into(&syndrome, &priors, key, &mut scratch);
        prop_assert_eq!(status, fresh);
        prop_assert_eq!(scratch.error(), fresh_scratch.error());
        if !bp_fresh.converged {
            prop_assert_eq!(status.method, DecodeMethod::OrderedStatistics);
        }
        // And a second decode of the same syndrome through the warm scratch (the
        // cached channel-LLR path) must be stable.
        let again = dec.decode_with_priors_keyed_into(&syndrome, &priors, key, &mut scratch);
        prop_assert_eq!(again.method, status.method);
        prop_assert_eq!(scratch.error(), fresh_scratch.error());
    }

    #[test]
    fn uniform_priors_are_bit_identical_to_the_cached_llr_path(
        seed in 0u64..60,
        p in 0.005f64..0.15,
        bp_iterations in 2usize..20,
        code_pick in 0usize..3,
    ) {
        // A uniform channel decodes through the keyed priors entry point with a
        // constant priors vector. Through one dirty scratch whose channel-LLR
        // cache is repeatedly invalidated — bounced between the X and Z sector
        // decoders and interleaved with a per-bit priors decode — it must
        // compute exactly what a decode through a fresh scratch computes: same hard
        // decisions, same posteriors, same OSD fallbacks, across the catalog.
        let code = match code_pick {
            0 => qec::codes::bb_72_12_6().expect("valid"),
            1 => qec::codes::hgp_100().expect("valid"),
            _ => qec::codes::bb_90_8_10().expect("valid"),
        };
        let n = code.num_qubits();
        let (priors, key) = uniform_priors(n, p);
        let skewed: Vec<f64> = (0..n).map(|q| p * (1.0 + (q % 3) as f64)).collect();
        let skewed_key = priors_digest(&skewed);
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ seed);
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
        let mut scratch = DecoderScratch::new();
        for (h, syndrome) in [
            (code.hz(), code.z_syndrome(&error)),
            (code.hx(), code.x_syndrome(&error)),
        ] {
            let dec = BpOsdDecoder::new(h, bp_iterations);
            let bp = BeliefPropagation::new(SparseBinMat::from_bitmat(h), bp_iterations);
            let (fresh, fresh_scratch) = fresh_decode(&dec, &syndrome, p);
            let (bp_fresh, bp_fresh_scratch) = fresh_bp(&bp, &syndrome, p);
            let _ = dec.decode_with_priors_keyed_into(&syndrome, &skewed, skewed_key, &mut scratch);
            let cached = dec.decode_with_priors_keyed_into(&syndrome, &priors, key, &mut scratch);
            prop_assert_eq!(cached.method, fresh.method);
            prop_assert_eq!(cached.iterations, fresh.iterations);
            prop_assert_eq!(scratch.error(), fresh_scratch.error());
            let bp_cached = bp.decode_with_priors_keyed_into(&syndrome, &priors, key, &mut scratch);
            prop_assert_eq!(bp_cached.converged, bp_fresh.converged);
            prop_assert_eq!(scratch.llrs(), bp_fresh_scratch.llrs());
        }
    }

    #[test]
    fn batch_decode_is_bit_identical_to_per_shot_path(
        seed in 0u64..40,
        p in 0.002f64..0.03,
        code_pick in 0usize..3,
        channel_pick in 0usize..3,
    ) {
        // The bit-sliced batch sampler must reproduce the scalar per-shot path
        // shot for shot: same seeded streams, same corrections (both sectors —
        // the failure verdict ORs them), same verdicts — across the code catalog,
        // all three channel shapes, and batch sizes from a single lane to
        // multi-chunk runs. The low BP iteration cap makes the OSD fallback fire
        // on a healthy fraction of the structured-channel shots.
        let code = match code_pick {
            0 => qec::codes::bb_72_12_6().expect("valid"),
            1 => qec::codes::hgp_100().expect("valid"),
            _ => qec::codes::bb_90_8_10().expect("valid"),
        };
        let model = HardwareNoiseModel::new(NoiseParameters::new(p), 2e-3);
        let n = code.num_qubits();
        let checks = code.num_stabilizers();
        let p_eff = model.effective_error_rate();
        let channel = match channel_pick {
            0 => ErrorChannel::uniform(n, p_eff),
            1 => ErrorChannel::biased(n, checks, p_eff, (2.0 * p_eff).min(0.75)),
            _ => {
                // Schedule-shaped heterogeneous rates: per-qubit idle exposures.
                let data_idle: Vec<f64> = (0..n).map(|q| 1e-3 * ((q % 7) as f64)).collect();
                let meas_idle: Vec<f64> =
                    (0..checks).map(|c| 1e-3 * ((c % 5) as f64)).collect();
                ErrorChannel::from_schedule(&model, &data_idle, &meas_idle)
            }
        };
        let exp = MemoryExperiment::with_channel(&code, model, channel, 8);
        let config = MemoryConfig {
            shots: 0,
            bp_iterations: 8,
            threads: 1,
            seed: 0xC1C1_0DE5 ^ seed,
        };
        // One dirty batch scratch (and decode cache) across every batch size —
        // cache hits must be indistinguishable from misses.
        let oracle = oracle::ScalarSampler::new(&code, exp.channel().clone(), 8);
        let mut batch_scratch = BatchScratch::new();
        let mut shot_scratch = oracle::ShotScratch::default();
        for &total in &[1usize, 7, 64, 200] {
            let mut start = 0usize;
            while start < total {
                let count = 64.min(total - start);
                let mask = exp.sample_batch_with(&config, start, count, &mut batch_scratch);
                for k in 0..count {
                    let mut rng = StdRng::seed_from_u64(config.shot_seed(start + k));
                    let scalar = oracle.sample_one_with(&mut rng, &mut shot_scratch);
                    if k == 0 {
                        // The allocating wrapper samples the same shot identically.
                        let mut rng = StdRng::seed_from_u64(config.shot_seed(start));
                        prop_assert_eq!(oracle.sample_one(&mut rng), scalar);
                    }
                    prop_assert_eq!(
                        (mask >> k) & 1 == 1,
                        scalar,
                        "shot {} diverged (batch size {}, channel {})",
                        start + k,
                        total,
                        channel_pick
                    );
                }
                start += count;
            }
        }
    }

    #[test]
    fn column_basis_osd_is_bit_identical_to_cold_osd(
        seed in 0u64..40,
        p in 0.005f64..0.05,
        bp_iterations in 2usize..8,
    ) {
        // The column-basis OSD (heap-ordered columns, early stop at a zero
        // residual) must produce exactly the cold path's output: on the
        // suspicion vectors real BP failures produce, and on vectors that
        // stress the heap key (all-equal scores; NaN, ±0 and ±∞; ties that
        // straddle a 64-column word). Both sectors of the four benchmark
        // codes and the redundant check matrix, one dirty scratch carried
        // across them the way the Monte-Carlo fallback reuses it. Each
        // syndrome H·e is also decoded after one check flip, which puts it
        // outside the column space on the matrices with redundant checks
        // (the inconsistent branch).
        let model = HardwareNoiseModel::new(NoiseParameters::new(p), 2e-3);
        let p_eff = model.effective_error_rate();
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ seed);
        let mut bp_scratch = DecoderScratch::new();
        let mut dirty = DecoderScratch::new();
        let mut cold = ColdOsdScratch::default();
        let mut verdicts = [0usize; 2];
        let mut matrices = Vec::new();
        for code in [
            qec::codes::bb_72_12_6(),
            qec::codes::hgp_100(),
            qec::codes::bb_90_8_10(),
            qec::codes::hgp_225_9_6(),
        ] {
            let code = code.expect("valid");
            matrices.push(code.hz().clone());
            matrices.push(code.hx().clone());
        }
        matrices.push(redundant_check_matrix());
        for h in &matrices {
            let (m, n) = h.shape();
            // The three-column redundant matrix needs a high rate to see errors.
            let rate = if n < 64 { 0.5 } else { p_eff };
            let (priors, key) = uniform_priors(n, p_eff.clamp(1e-9, 0.45));
            let dec = BpOsdDecoder::new(h, bp_iterations);
            let osd = OsdDecoder::new(h.clone());
            let cold_osd = ColdOsd::new(h);
            for _shot in 0..2 {
                let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(rate)).collect();
                let syndrome = h.mul_vec(&error);
                let mut flipped = syndrome.clone();
                let at = rng.gen_range(0..m);
                flipped[at] = !flipped[at];
                for syndrome in [syndrome, flipped] {
                    // The suspicion vector the real fallback would see: the
                    // negated BP posterior LLRs of a full decode.
                    dec.decode_with_priors_keyed_into(&syndrome, &priors, key, &mut bp_scratch);
                    let from_bp: Vec<f64> = bp_scratch.llrs().iter().map(|&l| -l).collect();
                    let [all_equal, specials, straddling] = adversarial_suspicions(n, &mut rng);
                    for suspicion in [from_bp, all_equal, specials, straddling] {
                        let ok_cold = cold_osd.decode(&syndrome, &suspicion, &mut cold);
                        let ok = osd.decode_into(&syndrome, &suspicion, &mut dirty);
                        prop_assert_eq!(ok, ok_cold, "consistency verdict diverged");
                        if ok_cold {
                            prop_assert_eq!(dirty.error(), cold.error());
                        }
                        verdicts[usize::from(ok_cold)] += 1;
                    }
                }
            }
        }
        prop_assert!(verdicts.iter().all(|&v| v > 0), "verdicts seen: {:?}", verdicts);
    }

    #[test]
    fn simd_propagate_is_bit_identical_to_scalar(
        seed in 0u64..60,
        p in 0.002f64..0.06,
        bp_iterations in 1usize..16,
        code_pick in 0usize..4,
        channel_pick in 0usize..3,
        flip_bits in 0u64..8,
    ) {
        // Every compilation of the lane kernels the host supports
        // (`Simd::supported()`: the baseline, AVX2 and AVX-512) must
        // reproduce the scalar CSR oracle byte for byte — across the code
        // catalog, all three channel shapes (uniform, biased and
        // schedule-derived priors, plus a constant priors vector at the
        // effective rate), both sectors, converged and exhausted runs (the low
        // iteration caps force plenty of non-convergence), and syndromes the
        // error alone would not produce (random measurement flips, including
        // ones outside the column space).
        let code = match code_pick {
            0 => qec::codes::bb_72_12_6().expect("valid"),
            1 => qec::codes::hgp_100().expect("valid"),
            2 => qec::codes::bb_90_8_10().expect("valid"),
            _ => qec::codes::hgp_225_9_6().expect("valid"),
        };
        let model = HardwareNoiseModel::new(NoiseParameters::new(p), 2e-3);
        let n = code.num_qubits();
        let checks = code.num_stabilizers();
        let p_eff = model.effective_error_rate();
        let channel = match channel_pick {
            0 => ErrorChannel::uniform(n, p_eff),
            1 => ErrorChannel::biased(n, checks, p_eff, (2.0 * p_eff).min(0.75)),
            _ => {
                let data_idle: Vec<f64> = (0..n).map(|q| 1e-3 * ((q % 7) as f64)).collect();
                let meas_idle: Vec<f64> =
                    (0..checks).map(|c| 1e-3 * ((c % 5) as f64)).collect();
                ErrorChannel::from_schedule(&model, &data_idle, &meas_idle)
            }
        };
        // Exactly the priors clamp `MemoryExperiment::bind_channel` applies.
        let priors: Vec<f64> = channel.data().iter().map(|&r| r.clamp(1e-9, 0.45)).collect();
        let (uniform, _) = uniform_priors(n, p_eff.clamp(1e-9, 0.45));
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ seed);
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p_eff)).collect();
        // One dirty scratch per side, bounced across sectors and channel kinds —
        // the Monte-Carlo steady state.
        let mut scratch = PinScratch::default();
        for (h, mut syndrome) in [
            (code.hz(), code.z_syndrome(&error)),
            (code.hx(), code.x_syndrome(&error)),
        ] {
            for _ in 0..flip_bits {
                let at = rng.gen_range(0..syndrome.len());
                syndrome[at] = !syndrome[at];
            }
            let h = SparseBinMat::from_bitmat(h);
            for priors in [&priors, &uniform] {
                assert_kernels_match_oracle(&h, bp_iterations, &syndrome, priors, &mut scratch);
            }
        }
    }

    #[test]
    fn effective_error_rate_monotone_in_latency(latency in 0.0f64..0.5, p_exp in 1.0f64..3.0) {
        let p = 10f64.powf(-1.0 - p_exp); // 1e-2 .. 1e-4
        let short = HardwareNoiseModel::new(NoiseParameters::new(p), latency);
        let long = HardwareNoiseModel::new(NoiseParameters::new(p), latency + 0.05);
        prop_assert!(long.effective_error_rate() >= short.effective_error_rate());
    }
}

#[test]
fn simd_propagate_matches_scalar_on_adversarial_row_shapes() {
    // Row degrees chosen to stress the interleaved layout: an empty row, a
    // degree-1 row (min2 stays +∞, so its one output is ±∞ and the variable's
    // later messages go infinite or NaN), a lane-exact degree-4 row, and
    // degrees 5 and 9 (one partial vector, two vectors plus a partial one) —
    // every syndrome pattern, several iteration caps, converged and exhausted
    // runs. The priors add exact magnitude ties (uniform), zero channel LLRs
    // whose sign flips make -0.0 messages (p = 0.5), and an infinite channel
    // LLR (a subnormal prior).
    let h = SparseBinMat::from_row_supports(
        11,
        vec![
            vec![],
            vec![3],
            vec![0, 2, 4, 6],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 10],
            vec![0, 5, 7, 9, 10],
        ],
    );
    let (uniform, _) = uniform_priors(11, 0.05);
    let zeros: Vec<f64> = (0..11)
        .map(|c| if c % 2 == 0 { 0.5 } else { 0.05 })
        .collect();
    let mut infinite = zeros.clone();
    infinite[5] = f64::from_bits(1);
    infinite[3] = 0.3;
    let mut scratch = PinScratch::default();
    for iterations in [1usize, 3, 30] {
        for priors in [&uniform, &zeros, &infinite] {
            for pattern in 0u32..32 {
                let syndrome: Vec<bool> = (0..5).map(|r| (pattern >> r) & 1 == 1).collect();
                assert_kernels_match_oracle(&h, iterations, &syndrome, priors, &mut scratch);
            }
        }
    }
}

#[test]
fn memory_experiment_is_deterministic_for_fixed_seed() {
    let code = square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid");
    let model = HardwareNoiseModel::new(NoiseParameters::new(5e-3), 1e-3);
    let cfg = MemoryConfig {
        shots: 150,
        bp_iterations: 15,
        threads: 3,
        seed: 42,
    };
    let a = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
    let b = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
    assert_eq!(
        a.failures, b.failures,
        "same seed and shot split must reproduce"
    );
    assert_eq!(a.shots, b.shots);
}

/// The estimate of one sweep point from its own experiment's `run` on one
/// thread: what the chunk scheduler must reproduce for that point.
fn single_thread_estimate(point: &LerPoint<'_>, config: &MemoryConfig) -> LerEstimate {
    let model = HardwareNoiseModel::new(NoiseParameters::new(point.p), point.latency);
    let mut exp = MemoryExperiment::new(point.code, model, config.bp_iterations);
    if let Some(spec) = point.channel {
        exp.set_channel(spec.instantiate(
            &model,
            point.code.num_qubits(),
            point.code.num_stabilizers(),
        ));
    }
    let single = MemoryConfig {
        threads: 1,
        ..*config
    };
    exp.run(&single, point.precision.as_ref())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3).with_seed(0xC1C1_0DE5))]

    #[test]
    fn estimate_points_matches_single_thread_runs_at_any_pool_size(seed in 0u64..1000) {
        // A random sweep mixing fixed and adaptive points (budgets and caps
        // never a multiple of 64), uniform and biased channels, a zero-shot
        // point and one point over 50x heavier than the rest: whichever
        // worker owns or steals whichever chunk, every estimate must be the
        // point's own single-threaded run.
        let codes = [
            qec::codes::bb_72_12_6().expect("valid"),
            qec::codes::hgp_100().expect("valid"),
        ];
        let specs = [
            ChannelSpec::Uniform,
            ChannelSpec::Biased { meas_ratio: 2.0 },
            ChannelSpec::Biased { meas_ratio: 8.0 },
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let config = MemoryConfig {
            shots: rng.gen_range(33..64),
            bp_iterations: 8,
            threads: 1,
            seed: 0xC1C1_0DE5 ^ seed,
        };
        let point = |precision: Option<PrecisionTarget>, p_max: f64, rng: &mut StdRng| LerPoint {
            code: &codes[rng.gen_range(0..codes.len())],
            p: rng.gen_range(2e-3..p_max),
            latency: if rng.gen_bool(0.5) { 0.0 } else { 0.01 },
            channel: Some(&specs[rng.gen_range(0..specs.len())]),
            precision,
        };
        let mut points: Vec<LerPoint<'_>> = (0..rng.gen_range(3..6))
            .map(|_| {
                let adaptive = rng.gen_bool(0.5).then(|| {
                    PrecisionTarget::new(rng.gen_range(0.2..0.6), rng.gen_range(1..6), rng.gen_range(65..71))
                });
                point(adaptive, 2e-2, &mut rng)
            })
            .collect();
        let zero_shot = point(Some(PrecisionTarget::new(0.3, 1, 0)), 2e-2, &mut rng);
        points.insert(rng.gen_range(0..=points.len()), zero_shot);
        // A target that is never met samples its whole cap: 3521..3583
        // shots, over 50 times the largest other budget (70).
        let heavy_cap = rng.gen_range(3521..3584);
        let heavy = point(Some(PrecisionTarget::new(0.0, 1, heavy_cap)), 4e-3, &mut rng);
        points.insert(rng.gen_range(0..=points.len()), heavy);
        let want: Vec<LerEstimate> = points.iter().map(|pt| single_thread_estimate(pt, &config)).collect();
        for threads in [1, 2, 3, 8] {
            let mut got = vec![None; points.len()];
            estimate_points(&points, &MemoryConfig { threads, ..config }, |i, est| {
                got[i] = Some(est);
            });
            let got: Vec<LerEstimate> = got.into_iter().map(|est| est.expect("reported")).collect();
            prop_assert_eq!(&got, &want, "threads {}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3).with_seed(0x5EED_C1EA))]

    #[test]
    fn sweeps_sharing_clean_shots_match_each_points_own_run(seed in 0u64..1000) {
        // Each code gets a clean-shot table: two points at one threshold, a
        // near-zero rate (a rate of exactly zero is rejected by
        // `NoiseParameters`) and random further points, uniform or biased,
        // fixed or adaptive (budgets and caps mostly not a multiple of 64),
        // in random order. At 1 to 4 threads every estimate must be the
        // point's own `run`, which draws every shot.
        let codes = [
            qec::codes::bb_72_12_6().expect("valid"),
            qec::codes::hgp_100().expect("valid"),
        ];
        let specs = [ChannelSpec::Uniform, ChannelSpec::Biased { meas_ratio: 2.0 }];
        let mut rng = StdRng::seed_from_u64(seed);
        let config = MemoryConfig {
            shots: rng.gen_range(65..200),
            bp_iterations: 8,
            threads: 1,
            seed: 0xC1C1_0DE5 ^ seed,
        };
        let rates = [3e-3, 1e-2, 2.5e-2];
        let mut points = Vec::new();
        for code in &codes {
            // `spec` indexes `specs`; `None` is the default uniform channel.
            let mut point = |p: f64, latency: f64, spec: Option<usize>, rng: &mut StdRng| {
                let precision = rng.gen_bool(0.5).then(|| {
                    PrecisionTarget::new(rng.gen_range(0.2..0.6), rng.gen_range(1..6), rng.gen_range(65..260))
                });
                let channel = spec.map(|s| &specs[s]);
                points.push(LerPoint { code, p, latency, channel, precision });
            };
            let (p, latency) = (rates[rng.gen_range(0..rates.len())], 0.01 * rng.gen_range(0..2) as f64);
            point(p, latency, None, &mut rng);
            point(p, latency, Some(0), &mut rng);
            point(1e-9, 0.0, None, &mut rng);
            for _ in 0..rng.gen_range(1..4) {
                let (p, latency) = (rates[rng.gen_range(0..rates.len())], 0.01 * rng.gen_range(0..2) as f64);
                let spec = rng.gen_bool(0.3).then_some(1);
                point(p, latency, spec, &mut rng);
            }
        }
        for i in (1..points.len()).rev() {
            points.swap(i, rng.gen_range(0..=i));
        }
        let want: Vec<LerEstimate> = points.iter().map(|pt| single_thread_estimate(pt, &config)).collect();
        for threads in 1..=4 {
            let mut got = vec![None; points.len()];
            estimate_points(&points, &MemoryConfig { threads, ..config }, |i, est| {
                got[i] = Some(est);
            });
            let got: Vec<LerEstimate> = got.into_iter().map(|est| est.expect("reported")).collect();
            prop_assert_eq!(&got, &want, "threads {}", threads);
        }
    }
}

/// Whether `syndrome` is consistent according to the decoder: the verdict of
/// a one-iteration BP run, which is decided by the left-kernel parity.
fn left_kernel_verdict(
    bp: &BeliefPropagation,
    syndrome: &[bool],
    scratch: &mut DecoderScratch,
) -> bool {
    let (priors, key) = uniform_priors(bp.matrix().num_cols(), 0.01);
    bp.decode_with_priors_keyed_into(syndrome, &priors, key, scratch)
        .consistent
}

/// A check matrix on three bits with 70 copies of the check `{0, 1}` and one
/// check `{1, 2}`: rank 2, so its left kernel has 69 vectors and spans two
/// 64-vector words. A syndrome is consistent exactly when the 70 copies agree.
fn redundant_check_matrix() -> qec::linalg::BitMat {
    let mut rows = vec![vec![0, 1]; 70];
    rows.push(vec![1, 2]);
    qec::linalg::BitMat::from_row_supports(71, 3, &rows)
}

/// Suspicion vectors that stress the OSD column order's heap key: one score
/// for every column (drawn from 0, 1.5 and -2); each score drawn from NaN,
/// -NaN, ±0, ±∞ and ±1; and groups of eight consecutive columns sharing a
/// score, offset by four so that a group straddles every 64-column word
/// boundary, with five levels repeating so that distant groups tie too.
fn adversarial_suspicions(n: usize, rng: &mut StdRng) -> [Vec<f64>; 3] {
    const SPECIAL: [f64; 8] = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        -1.0,
    ];
    let level = [0.0, 1.5, -2.0][rng.gen_range(0..3usize)];
    let specials = (0..n).map(|_| SPECIAL[rng.gen_range(0..8usize)]).collect();
    let straddling = (0..n).map(|c| ((c + 4) / 8 % 5) as f64 * 0.5).collect();
    [vec![level; n], specials, straddling]
}

/// The check matrices of both sectors of catalog code `pick` (0..8, the full
/// catalog smallest HGP first, then BB), or of [`redundant_check_matrix`]
/// for `pick == 8`.
fn sector_matrices(pick: usize) -> Vec<qec::linalg::BitMat> {
    let code = match pick {
        0 => qec::codes::hgp_100(),
        1 => qec::codes::hgp_225_9_6(),
        2 => qec::codes::hgp_400(),
        3 => qec::codes::hgp_625_25_8(),
        4 => qec::codes::bb_72_12_6(),
        5 => qec::codes::bb_90_8_10(),
        6 => qec::codes::bb_108_8_10(),
        7 => qec::codes::bb_144_12_12(),
        _ => return vec![redundant_check_matrix()],
    }
    .expect("valid");
    vec![code.hx().clone(), code.hz().clone()]
}

#[test]
fn left_kernel_parity_matches_gaussian_elimination_on_weight_one_syndromes() {
    // Every weight-1 syndrome of every catalog code, both sectors: the BP
    // consistency verdict equals solvability of H·e = s. The HGP matrices have
    // full row rank (every verdict is "consistent"); the BB ones have 4–6
    // redundant checks per sector.
    let mut scratch = DecoderScratch::new();
    for pick in 0..9 {
        for h in sector_matrices(pick) {
            let bp = BeliefPropagation::new(SparseBinMat::from_bitmat(&h), 1);
            let m = h.num_rows();
            let mut inconsistent = 0usize;
            for r in 0..m {
                let mut syndrome = vec![false; m];
                syndrome[r] = true;
                let consistent = left_kernel_verdict(&bp, &syndrome, &mut scratch);
                assert_eq!(
                    consistent,
                    h.solve(&syndrome).is_some(),
                    "matrix {pick}, check {r}"
                );
                inconsistent += usize::from(!consistent);
            }
            // Redundant checks per sector, i.e. the left-kernel dimension.
            let redundant = [0, 0, 0, 0, 6, 4, 4, 6, 69][pick];
            assert_eq!(m - h.rank(), redundant, "matrix {pick}");
            assert_eq!(inconsistent == 0, redundant == 0, "matrix {pick}");
        }
    }
}

#[test]
fn left_kernel_parity_spanning_two_words_matches_gaussian_elimination() {
    // Every weight-2 syndrome of the 69-vector kernel: a pair of checks that
    // only vectors in different 64-vector words tell apart must still read
    // inconsistent.
    let h = redundant_check_matrix();
    let bp = BeliefPropagation::new(SparseBinMat::from_bitmat(&h), 1);
    let m = h.num_rows();
    let mut scratch = DecoderScratch::new();
    for a in 0..m {
        for b in a + 1..m {
            let mut syndrome = vec![false; m];
            syndrome[a] = true;
            syndrome[b] = true;
            assert_eq!(
                left_kernel_verdict(&bp, &syndrome, &mut scratch),
                h.solve(&syndrome).is_some(),
                "checks {a} and {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0xC1C1_0DE5))]

    #[test]
    fn left_kernel_parity_matches_gaussian_elimination_on_random_syndromes(
        pick in 0usize..9,
        seed in 0u64..1000,
        flip_pick in 0usize..3,
        sparse_flip_rate in 0.001f64..0.05,
    ) {
        // Syndromes H·e ⊕ f with a sparse data error e and measurement flips
        // f from none to uniformly random, on every catalog code and the
        // two-word-kernel matrix, both sectors.
        let flip_rate = [0.0, sparse_flip_rate, 0.5][flip_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for h in sector_matrices(pick) {
            let bp = BeliefPropagation::new(SparseBinMat::from_bitmat(&h), 1);
            let error: Vec<bool> = (0..h.num_cols()).map(|_| rng.gen_bool(0.02)).collect();
            let mut syndrome = h.mul_vec(&error);
            for bit in syndrome.iter_mut() {
                *bit ^= flip_rate > 0.0 && rng.gen_bool(flip_rate);
            }
            let consistent = left_kernel_verdict(&bp, &syndrome, &mut scratch);
            prop_assert_eq!(consistent, h.solve(&syndrome).is_some());
            if flip_rate == 0.0 {
                prop_assert!(consistent);
            }
        }
    }
}

/// A BP+OSD decoder and its references on one check matrix: the scalar BP
/// oracle and the cold OSD oracle.
struct DecodeReference {
    decoder: BpOsdDecoder,
    bp: ScalarBp,
    osd: ColdOsd,
}

impl DecodeReference {
    fn new(h: &qec::linalg::BitMat, bp_iterations: usize) -> Self {
        DecodeReference {
            decoder: BpOsdDecoder::new(h, bp_iterations),
            bp: ScalarBp::new(&SparseBinMat::from_bitmat(h), bp_iterations),
            osd: ColdOsd::new(h),
        }
    }

    /// What a BP+OSD decode of `syndrome` must return: the scalar BP oracle
    /// followed, when it does not converge, by the cold OSD on its negated
    /// posteriors. Returns the status, the correction and the posteriors.
    fn expected(&self, syndrome: &[bool], priors: &[f64]) -> (DecodeStatus, Vec<bool>, Vec<f64>) {
        let mut oracle = ScalarBpScratch::default();
        let bp = self
            .bp
            .decode(syndrome, priors, priors_digest(priors), &mut oracle);
        let mut error = oracle.error().to_vec();
        let method = if bp.converged {
            DecodeMethod::BeliefPropagation
        } else {
            let suspicion: Vec<f64> = oracle.llrs().iter().map(|&l| -l).collect();
            let mut cold = ColdOsdScratch::default();
            if self.osd.decode(syndrome, &suspicion, &mut cold) {
                error = cold.error().to_vec();
            }
            DecodeMethod::OrderedStatistics
        };
        let status = DecodeStatus {
            method,
            iterations: bp.iterations,
            consistent: bp.consistent,
        };
        (status, error, oracle.llrs().to_vec())
    }

    /// Decodes `syndrome` through `scratch` and asserts the result equals
    /// [`Self::expected`]: method, iterations, consistency verdict,
    /// correction, and the bits of every posterior LLR. Returns the status.
    fn assert_matches(
        &self,
        syndrome: &[bool],
        priors: &[f64],
        scratch: &mut DecoderScratch,
    ) -> DecodeStatus {
        let key = priors_digest(priors);
        let got = self
            .decoder
            .decode_with_priors_keyed_into(syndrome, priors, key, scratch);
        let (want, want_error, want_llrs) = self.expected(syndrome, priors);
        assert_eq!(got.method, want.method, "method on {syndrome:?}");
        assert_eq!(
            got.iterations, want.iterations,
            "iterations on {syndrome:?}"
        );
        assert_eq!(got.consistent, want.consistent, "verdict on {syndrome:?}");
        assert_eq!(
            scratch.error(),
            want_error.as_slice(),
            "error on {syndrome:?}"
        );
        assert_eq!(
            llr_bits(scratch.llrs()),
            llr_bits(&want_llrs),
            "LLRs on {syndrome:?}"
        );
        got
    }
}

/// `[[72,12,6]]`, `[[90,8,10]]` or `[[225,9,6]]`.
fn inconsistent_prone_code(pick: usize) -> qec::CssCode {
    match pick {
        0 => qec::codes::bb_72_12_6(),
        1 => qec::codes::bb_90_8_10(),
        _ => qec::codes::hgp_225_9_6(),
    }
    .expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16).with_seed(0xC1C1_0DE5))]

    #[test]
    fn decode_of_flipped_syndromes_matches_the_oracle(
        seed in 0u64..1000,
        pick in 0usize..3,
        p in 0.002f64..0.05,
        flip_rate in 0.005f64..0.05,
        bp_iterations in 1usize..20,
    ) {
        // Syndromes H·e ⊕ f, where f flips check measurements: on the BB codes
        // most of them are inconsistent, so BP skips its convergence tests and
        // OSD is skipped; the HGP code has full row rank, so every one is
        // consistent. Both sectors, one dirty scratch, per-bit priors.
        let code = inconsistent_prone_code(pick);
        let n = code.num_qubits();
        let priors: Vec<f64> = (0..n).map(|q| p * (1.0 + (q % 3) as f64)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
        let mut scratch = DecoderScratch::new();
        for (h, mut syndrome) in [
            (code.hz(), code.z_syndrome(&error)),
            (code.hx(), code.x_syndrome(&error)),
        ] {
            for bit in syndrome.iter_mut() {
                *bit ^= rng.gen_bool(flip_rate);
            }
            DecodeReference::new(h, bp_iterations).assert_matches(&syndrome, &priors, &mut scratch);
        }
    }

    #[test]
    fn warm_scratch_interleaving_skipped_and_run_osd_matches_the_oracle(
        seed in 0u64..1000,
        pick in 0usize..3,
        p in 0.03f64..0.08,
        bp_iterations in 2usize..6,
    ) {
        // One scratch carries every decode, alternating a syndrome H·e with
        // the same syndrome after one measurement flip. The high error rate
        // and low iteration cap make consistent syndromes fall back to OSD,
        // which then starts from the heap storage, basis and residual left by
        // the last fallback that ran OSD, however many skipped ones came
        // between.
        let code = inconsistent_prone_code(pick);
        let n = code.num_qubits();
        let (priors, _) = uniform_priors(n, p);
        let reference = DecodeReference::new(code.hz(), bp_iterations);
        let m = code.num_z_stabilizers();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for _ in 0..8 {
            let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
            let syndrome = code.z_syndrome(&error);
            let status = reference.assert_matches(&syndrome, &priors, &mut scratch);
            prop_assert!(status.consistent);
            let mut flipped = syndrome;
            let at = rng.gen_range(0..m);
            flipped[at] = !flipped[at];
            reference.assert_matches(&flipped, &priors, &mut scratch);
        }
    }
}

/// Both sectors of the four benchmark codes, then [`redundant_check_matrix`].
fn benchmark_matrices() -> Vec<qec::linalg::BitMat> {
    let mut matrices = Vec::new();
    for code in [
        qec::codes::bb_72_12_6(),
        qec::codes::hgp_100(),
        qec::codes::bb_90_8_10(),
        qec::codes::hgp_225_9_6(),
    ] {
        let code = code.expect("valid");
        matrices.push(code.hz().clone());
        matrices.push(code.hx().clone());
    }
    matrices.push(redundant_check_matrix());
    matrices
}

/// `bits` packed 64 per word, zero past the last bit.
fn pack(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, _) in bits.iter().enumerate().filter(|(_, &bit)| bit) {
        words[i >> 6] |= 1 << (i & 63);
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0xC1C1_0DE5))]

    #[test]
    fn lockstep_queue_is_bit_identical_to_single_decodes(
        seed in 0u64..1000,
        pick in 0usize..9,
        prior_pick in 0usize..3,
        queue_len in 1usize..=40,
        p in 0.005f64..0.08,
        bp_iterations in 1usize..30,
    ) {
        // A queue of syndromes through the lockstep queue decoder against the
        // scalar BP oracle and the cold OSD, syndrome by syndrome: correction
        // words, method, iterations and consistency verdict, in both kernel
        // compilations. The queue mixes
        // duplicates, syndromes H·e, and the same after one check flip
        // (inconsistent on the matrices with redundant checks, so they run
        // in lockstep groups, full, short, or too short to run).
        let h = &benchmark_matrices()[pick];
        let (m, n) = h.shape();
        let rate = if n < 64 { 0.4 } else { p };
        let priors: Vec<f64> = match prior_pick {
            0 => vec![p; n],
            1 => (0..n).map(|q| if q % 4 == 0 { (4.0 * p).min(0.45) } else { p }).collect(),
            _ => (0..n).map(|q| p * (0.25 + (q % 7) as f64 * 0.25)).collect(),
        };
        let key = priors_digest(&priors);
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ seed);
        let mut queue: Vec<Vec<bool>> = Vec::new();
        for _ in 0..queue_len {
            if !queue.is_empty() && rng.gen_bool(0.2) {
                let again = queue[rng.gen_range(0..queue.len())].clone();
                queue.push(again);
                continue;
            }
            let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(rate)).collect();
            let mut syndrome = h.mul_vec(&error);
            if rng.gen_bool(0.4) {
                let at = rng.gen_range(0..m);
                syndrome[at] = !syndrome[at];
            }
            queue.push(syndrome);
        }
        let packed: Vec<u64> = queue.iter().flat_map(|s| pack(s)).collect();
        // The reference of each syndrome: the scalar BP oracle and the cold OSD.
        let reference = DecodeReference::new(h, bp_iterations);
        let want: Vec<_> = queue
            .iter()
            .map(|s| {
                let (status, error, _) = reference.expected(s, &priors);
                (status, pack(&error))
            })
            .collect();
        for simd in Simd::supported() {
            let decoder = BpOsdDecoder::new(h, bp_iterations).with_simd(simd);
            let mut got = vec![None; queue.len()];
            let mut scratch = DecoderScratch::new();
            // Twice through one scratch: the second pass reuses its arenas.
            for _pass in 0..2 {
                got.fill(None);
                let grouped = decoder.decode_queue_packed(&packed, &priors, key, &mut scratch, |i, status, correction| {
                    assert!(got[i].is_none(), "syndrome {i} finished twice");
                    got[i] = Some((status, correction.to_vec()));
                });
                // Inconsistent syndromes run in groups of eight, and a
                // last group of at least the compilation's minimum; the
                // rest one at a time.
                let inconsistent = want.iter().filter(|(status, _)| !status.consistent).count();
                let last = inconsistent % 8;
                let lockstep = inconsistent - last
                    + if last >= simd.min_lockstep_lanes() { last } else { 0 };
                prop_assert_eq!(grouped, lockstep as u64);
                for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(got.as_ref(), Some(want), "{} syndrome {}", simd.isa_name(), i);
                }
            }
        }
    }
}

/// Samples `chunks` 64-shot batches of `code` under `channel` through one
/// batch scratch, asserts every shot's verdict equals the scalar oracle's,
/// and returns the batch's decode counters.
fn batch_stats_against_the_oracle(
    code: &qec::CssCode,
    model: HardwareNoiseModel,
    channel: ErrorChannel,
    chunks: usize,
) -> decoder::memory::BatchStats {
    let exp = MemoryExperiment::with_channel(code, model, channel.clone(), 30);
    let oracle = oracle::ScalarSampler::new(code, channel, 30);
    let config = MemoryConfig {
        shots: 0,
        bp_iterations: 30,
        threads: 1,
        seed: 0xC1C1_0DE5,
    };
    let mut batch = BatchScratch::new();
    let mut shot_scratch = oracle::ShotScratch::default();
    for chunk in 0..chunks {
        let mask = exp.sample_batch_with(&config, chunk * 64, 64, &mut batch);
        for k in 0..64 {
            let shot = chunk * 64 + k;
            let mut rng = StdRng::seed_from_u64(config.shot_seed(shot));
            let want = oracle.sample_one_with(&mut rng, &mut shot_scratch);
            assert_eq!((mask >> k) & 1 == 1, want, "shot {shot}");
        }
    }
    batch.stats()
}

#[test]
fn batch_decode_runs_lockstep_groups_and_the_single_core_like_the_oracle() {
    // A high-rate biased channel leaves many distinct cache misses per
    // sector batch, which decode in lockstep groups; a low-rate uniform one
    // leaves too few, which decode one at a time.
    let code = qec::codes::bb_72_12_6().expect("valid");
    let (n, checks) = (code.num_qubits(), code.num_stabilizers());
    let model = HardwareNoiseModel::new(NoiseParameters::new(2e-2), 0.0);
    let p = model.effective_error_rate();
    let biased = ErrorChannel::biased(n, checks, p, 2.0 * p);
    let high = batch_stats_against_the_oracle(&code, model, biased, 4);
    assert!(high.lockstep_lanes > 0, "{high:?}");
    assert!(high.lockstep_lanes <= high.decoded, "{high:?}");
    let model = HardwareNoiseModel::new(NoiseParameters::new(3e-4), 0.0);
    let uniform = ErrorChannel::uniform(n, model.effective_error_rate());
    let low = batch_stats_against_the_oracle(&code, model, uniform, 8);
    assert!(low.decoded > 0, "{low:?}");
    assert_eq!(low.lockstep_lanes, 0, "{low:?}");
}
