//! Monte-Carlo logical-memory experiments.
//!
//! [`MemoryExperiment`] estimates the logical error rate (LER) of a CSS code under the
//! hardware-aware noise model: the compiled execution latency of one syndrome-
//! extraction round is converted into a decoherence error (Pauli twirling), added to
//! the base circuit-level error rate, and the resulting effective per-qubit error rate
//! drives independent X/Z error sampling, BP+OSD decoding, and logical-failure
//! counting (see DESIGN.md, substitution 3). One scheduler of (point, 64-shot chunk)
//! work items on `std` scoped threads runs a sweep ([`estimate_points`]) and a single
//! point ([`MemoryExperiment::run`]); every shot derives its own RNG stream from the
//! base seed, so the estimate is identical for any worker count. A worker reuses one
//! [`BatchScratch`] per code, so steady-state sampling performs zero heap allocation.
//!
//! The batch path ([`MemoryExperiment::sample_batch_with`]) keeps its data packed
//! from the first draw to the decode cache: Bernoulli draws compare raw 53-bit
//! integers with thresholds computed when the channel is bound
//! ([`bernoulli_threshold`]), syndromes are extracted 64 shots per word, one bit
//! transpose per 64-check block yields each shot's packed syndrome (the
//! decode-cache key), and cache misses run the word-packed BP+OSD core, whose
//! packed correction is the cached value.

use crate::bposd::{BpOsdDecoder, DecodeMethod};
use crate::cache::DecodeCache;
use crate::scratch::DecoderScratch;
use noise::{ChannelSpec, ErrorChannel, HardwareNoiseModel, NoiseParameters};
use qec::linalg::BitMat;
use qec::CssCode;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// An estimated logical error rate with sampling statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LerEstimate {
    /// Number of Monte-Carlo shots.
    pub shots: usize,
    /// Number of shots in which a logical X or Z error occurred.
    pub failures: usize,
    /// Point estimate `failures / shots` (with a half-failure floor when no failure
    /// was observed, so log-scale plots remain finite).
    pub ler: f64,
    /// Binomial standard error of the estimate.
    pub std_err: f64,
}

impl LerEstimate {
    /// Builds the estimate from raw counts (the counting constructor, so a cached
    /// `(shots, failures)` pair round-trips to a bit-identical estimate).
    ///
    /// # Panics
    ///
    /// Panics if `shots` is zero (use [`LerEstimate::empty`] for a no-data estimate).
    pub fn from_counts(shots: usize, failures: usize) -> Self {
        assert!(shots > 0, "need at least one shot");
        let raw = failures as f64 / shots as f64;
        let ler = if failures == 0 {
            0.5 / shots as f64
        } else {
            raw
        };
        // The standard error is computed from the (possibly floored) estimate, so a
        // zero-failure point carries a nonzero uncertainty instead of std_err = 0.
        let std_err = (ler * (1.0 - ler) / shots as f64).sqrt();
        LerEstimate {
            shots,
            failures,
            ler,
            std_err,
        }
    }

    /// The explicit no-data estimate a zero-shot configuration produces: zero shots,
    /// zero failures, `ler` and `std_err` both 0.0 (never NaN), and neither an
    /// upper bound nor a real measurement.
    ///
    /// Regression guard: `shots == 0` used to fabricate a phantom 1-shot
    /// zero-failure estimate with a misleading 0.5 LER floor.
    pub const fn empty() -> Self {
        LerEstimate {
            shots: 0,
            failures: 0,
            ler: 0.0,
            std_err: 0.0,
        }
    }

    /// Whether this estimate carries no data at all (zero shots).
    pub fn is_empty(&self) -> bool {
        self.shots == 0
    }

    /// Whether shots were taken but no failure was observed (the estimate is an
    /// upper-bound floor). An [empty](LerEstimate::is_empty) estimate is *not* an
    /// upper bound — it is no measurement at all.
    pub fn is_upper_bound(&self) -> bool {
        self.shots > 0 && self.failures == 0
    }

    /// The relative standard error `std_err / ler` ([`f64::INFINITY`] when there is
    /// no positive point estimate to normalize by, never NaN).
    pub fn relative_std_err(&self) -> f64 {
        if self.ler > 0.0 {
            self.std_err / self.ler
        } else {
            f64::INFINITY
        }
    }
}

/// A precision target for adaptive (stop-at-precision) Monte-Carlo sampling.
///
/// A point stops at the smallest shot count at which it has seen at least
/// `min_failures` failures **and** its [relative standard
/// error](LerEstimate::relative_std_err) is at or below `target_rse`, capped by
/// `max_shots`. Requiring both keeps the stop rule honest: the failure-count floor
/// guards against stopping on a noisy early `std_err` estimate, and the relative
/// standard error is the actual precision knob (`rse ≈ 1/√failures` for rare
/// failures, so `min_failures = 100` alone already means `rse ≈ 0.1`).
///
/// The stopping decision is evaluated on shot *prefixes* of the same seeded
/// per-shot RNG streams the fixed-budget path uses, so the adaptive result is the
/// fixed result of its own shot count: bit-identical at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionTarget {
    /// Stop once the relative standard error (`std_err / ler`) is at or below this
    /// (a non-positive value never stops early: sample to `max_shots`).
    pub target_rse: f64,
    /// ... and at least this many failures were observed (a floor of 1 is always
    /// applied, so the rse check never runs on a floored zero-failure estimate).
    pub min_failures: usize,
    /// Hard cap on the number of shots spent on one point.
    pub max_shots: usize,
}

impl PrecisionTarget {
    /// A target with the given relative-standard-error goal, failure floor, and
    /// shot cap.
    pub fn new(target_rse: f64, min_failures: usize, max_shots: usize) -> Self {
        PrecisionTarget {
            target_rse,
            min_failures,
            max_shots,
        }
    }

    /// Whether a `(shots, failures)` pair meets this target (the stop rule, also
    /// used by the sweep cache to decide whether a cached point may be reused for a
    /// precision-targeted request). The `max_shots` cap is deliberately not
    /// consulted here: this is the *precision* criterion alone.
    pub fn met_by(&self, shots: usize, failures: usize) -> bool {
        // A non-positive target is never met: an all-failure prefix (ler 1,
        // std_err 0) would otherwise meet a zero target.
        if self.target_rse <= 0.0 || shots == 0 || failures < self.min_failures.max(1) {
            return false;
        }
        let est = LerEstimate::from_counts(shots, failures);
        est.std_err <= self.target_rse * est.ler
    }
}

/// Configuration of a memory experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Number of Monte-Carlo shots.
    pub shots: usize,
    /// Maximum BP iterations before the OSD fallback.
    pub bp_iterations: usize,
    /// Number of worker threads (0 = use available parallelism).
    pub threads: usize,
    /// Base RNG seed (each shot derives its own stream, so the estimate does
    /// not depend on the worker count).
    pub seed: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            shots: 2_000,
            bp_iterations: 30,
            threads: 0,
            seed: 0xC1C1_0DE5,
        }
    }
}

impl MemoryConfig {
    /// Creates a config with the given number of shots and defaults elsewhere.
    pub fn with_shots(shots: usize) -> Self {
        MemoryConfig {
            shots,
            ..Default::default()
        }
    }

    /// Resolves `threads` to a worker count (0 = available parallelism, capped at
    /// 16); the scheduler never starts more workers than there are 64-shot chunks.
    pub fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(16)
        }
    }

    /// The RNG seed of one Monte-Carlo shot: a SplitMix64-style stream split of
    /// the base seed, independent of which worker runs the shot. Public so
    /// external drivers (benches, equivalence tests) can replay the exact stream
    /// of any shot of a run.
    pub fn shot_seed(&self, shot: usize) -> u64 {
        self.seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shot as u64 + 1))
    }
}

/// Aggregate decode-resolution counters of one [`BatchScratch`], accumulated
/// since the scratch was created (never reset by context rebinds): how active
/// lanes were resolved. Every active lane is either a decode-cache hit
/// ([`BatchScratch::cache_stats`]) or a full BP(+OSD) decode, counted in
/// `decoded`; `osd_fallbacks` is the subset that needed the OSD stage, and
/// `inconsistent` the subset of those whose syndrome the left-kernel parity
/// proved outside the column space of `H`, so that OSD was skipped and the BP
/// hard decision kept.
///
/// Which lanes reach a full decode depends on what each worker's decode cache
/// already holds, so `decoded`, `osd_fallbacks` and `inconsistent` are not
/// deterministic across thread counts; the decoded corrections are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Active (non-zero-syndrome) lanes seen.
    pub active_lanes: u64,
    /// Always zero: weight-1 syndromes go through the decode cache like any
    /// other lane. Kept only because the figure benchmark's probes still read
    /// it; it goes when that benchmark is next revised.
    pub weight1_hits: u64,
    /// Lanes that ran a full decode (decode-cache misses).
    pub decoded: u64,
    /// Full decodes that fell through BP to the OSD stage.
    pub osd_fallbacks: u64,
    /// OSD fallbacks whose syndrome was proven inconsistent (OSD skipped).
    pub inconsistent: u64,
}

/// One sector's decode state in a [`BatchScratch`]: the decoder scratch and
/// the per-syndrome cache.
#[derive(Debug, Clone, Default)]
struct SectorBatch {
    decode: DecoderScratch,
    cache: DecodeCache,
}

/// The lane buffers shared by both sectors of a batch decode.
#[derive(Debug, Clone, Default)]
struct LaneBuffers {
    /// Per-sector syndrome words, check-major (reused across sectors).
    syn_words: Vec<u64>,
    /// The same syndromes lane-major: lane `k`'s syndrome packed 64 checks
    /// per word at `lane_syn[k * words..(k + 1) * words]` — the decoder input
    /// and the decode-cache key, made by one bit transpose per 64-check block.
    lane_syn: Vec<u64>,
    /// Correction words, qubit-major (reused across sectors).
    corr_words: Vec<u64>,
}

/// Per-worker workspace of the bit-sliced batch sampler
/// ([`MemoryExperiment::sample_batch_with`]): 64 shots travel together, one bit
/// per `u64` lane, so error patterns, measurement flips, syndromes, corrections,
/// and logical-failure parities are all held column-major as words. Buffers are
/// sized on the first batch and reused — zero heap allocation in steady state —
/// and each sector keeps its own [`DecoderScratch`] and [`DecodeCache`].
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    x: SectorBatch,
    z: SectorBatch,
    /// X-frame error words, qubit-major: bit `k` of `[q]` = shot `k` has an X at `q`.
    x_err_words: Vec<u64>,
    /// Z-frame error words, qubit-major.
    z_err_words: Vec<u64>,
    /// Measurement-flip words in draw order, check-major: the Z-sector checks
    /// (the tail of the channel's check-major layout), then the X-sector
    /// checks (its head). Empty under noiseless measurement.
    flip_words: Vec<u64>,
    /// Shared lane (de)packing buffers.
    lanes: LaneBuffers,
    /// Decode-resolution counters (monotone over the scratch's lifetime).
    stats: BatchStats,
}

impl BatchScratch {
    /// Creates an empty workspace; buffers are sized on the first batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode-cache hit/miss totals over both sectors since the caches were last
    /// bound (telemetry for benches and tests).
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.x.cache.hits() + self.z.cache.hits(),
            self.x.cache.misses() + self.z.cache.misses(),
        )
    }

    /// Conflict-eviction total over both sector caches since their last bind.
    pub fn cache_evictions(&self) -> u64 {
        self.x.cache.evictions() + self.z.cache.evictions()
    }

    /// Decode-resolution counters accumulated since the scratch was created.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }
}

/// A logical-memory experiment for one code under one hardware noise model and one
/// per-qubit [`ErrorChannel`].
#[derive(Debug)]
pub struct MemoryExperiment<'a> {
    code: &'a CssCode,
    model: HardwareNoiseModel,
    /// The per-qubit channel driving the sampler. Defaults to the uniform channel
    /// at the model's effective error rate.
    channel: ErrorChannel,
    /// Per-bit decoder priors: the channel's data rates clamped to the decoder's
    /// numerically safe range (rebuilt whenever the channel changes).
    priors: Vec<f64>,
    /// Content digest of `priors` ([`crate::bp::priors_digest`]), precomputed at
    /// rebuild so every structured-channel decode hits the priors-LLR cache with a
    /// single `u64` compare.
    priors_key: u64,
    /// The integer threshold of each data qubit's error draw
    /// ([`bernoulli_threshold`] of its channel rate).
    data_thresholds: Vec<u64>,
    /// The thresholds of the measurement-flip draws, in draw order (the
    /// layout of [`BatchScratch`]'s flip words); empty under noiseless
    /// measurement.
    flip_thresholds: Vec<u64>,
    x_decoder: BpOsdDecoder,
    z_decoder: BpOsdDecoder,
    /// Supports of the logical X operators (flagging Z-sector failures), flattened
    /// once so the batch path computes logical parities word-at-a-time.
    logical_x_supports: Vec<Vec<usize>>,
    /// Supports of the logical Z operators (flagging X-sector failures).
    logical_z_supports: Vec<Vec<usize>>,
    /// Decode-context base tag of the X-sector decoder (content digest of `Hz` +
    /// BP iteration cap); mixed with the priors identity to bind a [`DecodeCache`].
    x_ctx: u64,
    /// Decode-context base tag of the Z-sector decoder (`Hx` + cap).
    z_ctx: u64,
}

/// Flattens logical operators from dense masks to index supports.
fn supports_of(ops: &[Vec<bool>]) -> Vec<Vec<usize>> {
    ops.iter()
        .map(|op| {
            op.iter()
                .enumerate()
                .filter_map(|(q, &on)| on.then_some(q))
                .collect()
        })
        .collect()
}

/// Content digest of a parity-check matrix plus the BP iteration cap: the part of
/// a decode context that is fixed at decoder construction. Two decoders with equal
/// matrices and caps compute identical corrections, so tagging by content (not
/// identity) lets a [`DecodeCache`] survive experiment rebuilds over the same code.
fn matrix_tag(h: &BitMat, bp_iterations: usize) -> u64 {
    let mut hash = noise::fnv::Fnv1a::new();
    hash.write_u64(h.num_rows() as u64)
        .write_u64(h.num_cols() as u64)
        .write_u64(bp_iterations as u64);
    for r in 0..h.num_rows() {
        for &w in h.row_words(r) {
            hash.write_u64(w);
        }
    }
    hash.finish()
}

/// Mixes a decode-context base tag with the priors identity of the current channel.
fn mix_ctx(base: u64, prior_bits: u64) -> u64 {
    let mut hash = base ^ prior_bits;
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash
}

impl<'a> MemoryExperiment<'a> {
    /// Builds the experiment (constructing BP+OSD decoders for both sectors) with
    /// the uniform channel at the model's effective error rate.
    pub fn new(code: &'a CssCode, model: HardwareNoiseModel, bp_iterations: usize) -> Self {
        let mut exp = MemoryExperiment {
            code,
            model,
            channel: ErrorChannel::uniform(code.num_qubits(), model.effective_error_rate()),
            priors: Vec::new(),
            priors_key: 0,
            data_thresholds: Vec::new(),
            flip_thresholds: Vec::new(),
            // Hx detects Z errors; Hz detects X errors.
            x_decoder: BpOsdDecoder::new(code.hz(), bp_iterations),
            z_decoder: BpOsdDecoder::new(code.hx(), bp_iterations),
            logical_x_supports: supports_of(code.logical_x()),
            logical_z_supports: supports_of(code.logical_z()),
            x_ctx: matrix_tag(code.hz(), bp_iterations),
            z_ctx: matrix_tag(code.hx(), bp_iterations),
        };
        exp.bind_channel();
        exp
    }

    /// Builds the experiment with an explicit channel (see
    /// [`MemoryExperiment::set_channel`]).
    pub fn with_channel(
        code: &'a CssCode,
        model: HardwareNoiseModel,
        channel: ErrorChannel,
        bp_iterations: usize,
    ) -> Self {
        let mut exp = Self::new(code, model, bp_iterations);
        exp.set_channel(channel);
        exp
    }

    /// Replaces the noise model, keeping the (expensive-to-build) sector decoders.
    /// The channel is reset to the uniform channel of the new model — a previous
    /// [`set_channel`](MemoryExperiment::set_channel) never leaks across points.
    ///
    /// Latency and error-rate sweeps over one code should construct a single
    /// experiment and call this between points instead of rebuilding everything.
    pub fn set_model(&mut self, model: HardwareNoiseModel) {
        self.model = model;
        self.set_channel(ErrorChannel::uniform(
            self.code.num_qubits(),
            model.effective_error_rate(),
        ));
    }

    /// Replaces the per-qubit error channel, keeping model and decoders.
    ///
    /// # Panics
    ///
    /// Panics if the channel's data length differs from the code's qubit count, or
    /// a non-empty measurement vector differs from the code's check count
    /// (X-sector checks then Z-sector, see `noise::channel`), or if a rate is
    /// not a probability in `[0, 1]` (NaN included) — the sampler's range
    /// check, made once here instead of on every draw.
    pub fn set_channel(&mut self, channel: ErrorChannel) {
        assert_eq!(
            channel.num_data(),
            self.code.num_qubits(),
            "channel sized for a different code"
        );
        assert!(
            !channel.has_measurement_noise()
                || channel.measurement().len() == self.code.num_stabilizers(),
            "channel has {} measurement checks, code has {}",
            channel.measurement().len(),
            self.code.num_stabilizers()
        );
        self.channel = channel;
        self.bind_channel();
    }

    /// The channel currently driving the sampler.
    pub fn channel(&self) -> &ErrorChannel {
        &self.channel
    }

    /// The current per-sector decode-context tags `(x, z)`: the matrix digests
    /// mixed with the active channel's priors identity (the clamped rate for a
    /// uniform channel, else the priors digest). This is the one place the tag
    /// is computed: [`DecodeCache`]s bind, and persisted cache files are named,
    /// under it.
    fn sector_contexts(&self) -> (u64, u64) {
        let prior_bits = match self.channel.uniform_rate() {
            Some(p) => p.clamp(1e-9, 0.45).to_bits(),
            None => self.priors_key,
        };
        (
            mix_ctx(self.x_ctx, prior_bits),
            mix_ctx(self.z_ctx, prior_bits),
        )
    }

    /// The persisted-cache file path of one sector context inside `dir`.
    fn decode_cache_path(&self, dir: &Path, sector: char, ctx: u64) -> PathBuf {
        let label: String = self
            .code
            .descriptor()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        dir.join(format!(
            "decode-{}-{sector}-{ctx:016x}.json",
            label.trim_matches('-')
        ))
    }

    /// Binds both sector caches of `batch` to the experiment's current decode
    /// contexts and loads any matching persisted cache files from `dir`.
    /// Returns the number of entries admitted (0 when no file matches — a
    /// persisted cache is an accelerator, never a correctness input).
    ///
    /// No sweep loads or stores decode caches: this pair is kept only for the
    /// figure benchmark's persistence probe, and goes when that benchmark is
    /// next revised.
    pub fn load_decode_caches(&self, dir: &Path, batch: &mut BatchScratch) -> usize {
        let n = self.code.num_qubits();
        let (x_ctx, z_ctx) = self.sector_contexts();
        let mut loaded = 0;
        let m_x = self.x_decoder.check_matrix().num_rows();
        batch.x.cache.ensure(x_ctx, m_x, n);
        loaded += batch
            .x
            .cache
            .load_from(&self.decode_cache_path(dir, 'x', x_ctx));
        let m_z = self.z_decoder.check_matrix().num_rows();
        batch.z.cache.ensure(z_ctx, m_z, n);
        loaded += batch
            .z
            .cache
            .load_from(&self.decode_cache_path(dir, 'z', z_ctx));
        loaded
    }

    /// Stores both sector caches of `batch` (those bound and non-empty) into
    /// `dir`, creating it if needed. Each file is published with an atomic
    /// temp-file + rename, so concurrent workers never tear a file — the last
    /// complete writer wins, and any complete file is valid.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from creating the directory or writing a file.
    pub fn store_decode_caches(&self, dir: &Path, batch: &BatchScratch) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let (x_ctx, z_ctx) = self.sector_contexts();
        if !batch.x.cache.is_empty() {
            batch
                .x
                .cache
                .save_to(&self.decode_cache_path(dir, 'x', x_ctx))?;
        }
        if !batch.z.cache.is_empty() {
            batch
                .z
                .cache
                .save_to(&self.decode_cache_path(dir, 'z', z_ctx))?;
        }
        Ok(())
    }

    /// Rebuilds everything derived from the channel: the decoder priors and
    /// their digest, and the draw thresholds (which range-check every rate).
    fn bind_channel(&mut self) {
        self.priors.clear();
        self.priors
            .extend(self.channel.data().iter().map(|&p| p.clamp(1e-9, 0.45)));
        self.priors_key = crate::bp::priors_digest(&self.priors);
        self.data_thresholds.clear();
        self.data_thresholds
            .extend(self.channel.data().iter().map(|&p| bernoulli_threshold(p)));
        // Draw order: the Z-sector checks (the tail of the channel's layout),
        // then the X-sector checks.
        let (x_checks, z_checks) = self.channel.measurement().split_at(
            self.channel
                .measurement()
                .len()
                .min(self.code.num_x_stabilizers()),
        );
        self.flip_thresholds.clear();
        self.flip_thresholds.extend(
            z_checks
                .iter()
                .chain(x_checks)
                .map(|&p| bernoulli_threshold(p)),
        );
    }

    /// Samples and decodes up to 64 Monte-Carlo shots at once, bit-sliced one shot
    /// per `u64` lane; returns the failure mask (bit `k` set iff shot
    /// `first_shot + k` suffered a logical error). `count` must be in `1..=64`.
    ///
    /// Bit-identical to a scalar per-shot sampler (the reference oracle in
    /// `tests/oracle`): every shot draws from its own seeded stream
    /// (`config.shot_seed(first_shot + k)`) in exactly the scalar order — data
    /// qubits, then Z-sector measurement flips, then X-sector flips. (The scalar
    /// oracle skips the X-sector flips when the X sector already failed; drawing
    /// them here is harmless because nothing ever consumes the remainder of a
    /// shot's stream.) Each Bernoulli draw compares the stream's next 53-bit
    /// integer with the rate's threshold, computed when the channel was bound
    /// ([`bernoulli_threshold`]), which is exactly `gen_bool`'s outcome.
    ///
    /// From the draws to the decode cache the data stay packed: syndrome
    /// extraction, measurement flips, and logical-failure parities are
    /// word-level over the lanes; one 64×64 bit transpose per 64-check block
    /// turns the check-major syndrome words into each lane's packed syndrome,
    /// which is the decode-cache key and the input of the word-packed BP+OSD
    /// core, whose packed correction is the cached value. BP+OSD runs only for
    /// lanes with a non-trivial syndrome (a zero syndrome provably decodes to
    /// the zero correction under the clamped priors), and repeated syndromes
    /// are served from a per-sector [`DecodeCache`] whose entries store the
    /// exact decoder output — so failures never depend on batch size, lane
    /// order, or cache state. In steady state the batch performs zero heap
    /// allocations.
    // cyclone-lint: hot-path
    pub fn sample_batch_with(
        &self,
        config: &MemoryConfig,
        first_shot: usize,
        count: usize,
        batch: &mut BatchScratch,
    ) -> u64 {
        assert!(
            (1..=64).contains(&count),
            "batch holds 1..=64 shots, got {count}"
        );
        let n = self.code.num_qubits();
        batch.x_err_words.clear();
        batch.x_err_words.resize(n, 0);
        batch.z_err_words.clear();
        batch.z_err_words.resize(n, 0);
        batch.flip_words.clear();
        batch.flip_words.resize(self.flip_thresholds.len(), 0);
        for k in 0..count {
            let lane = 1u64 << k;
            let mut rng = StdRng::seed_from_u64(config.shot_seed(first_shot + k));
            for (q, &t) in self.data_thresholds.iter().enumerate() {
                if rng.next_u64() >> 11 < t {
                    depolarize_words(&mut rng, batch, q, lane);
                }
            }
            for (flips, &t) in batch.flip_words.iter_mut().zip(&self.flip_thresholds) {
                if rng.next_u64() >> 11 < t {
                    *flips |= lane;
                }
            }
        }
        let (x_ctx, z_ctx) = self.sector_contexts();
        let z_checks = if batch.flip_words.is_empty() {
            0
        } else {
            self.code.num_z_stabilizers()
        };
        let (zflip_words, xflip_words) = batch.flip_words.split_at(z_checks);
        // X errors are detected by Z stabilizers and corrected by the X decoder;
        // a residual logical X anticommutes with some logical Z.
        let fail_x = self.batch_decode_sector(
            &self.x_decoder,
            x_ctx,
            &batch.x_err_words,
            zflip_words,
            &self.logical_z_supports,
            &mut batch.lanes,
            &mut batch.x,
            &mut batch.stats,
        );
        let fail_z = self.batch_decode_sector(
            &self.z_decoder,
            z_ctx,
            &batch.z_err_words,
            xflip_words,
            &self.logical_x_supports,
            &mut batch.lanes,
            &mut batch.z,
            &mut batch.stats,
        );
        let mask = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        (fail_x | fail_z) & mask
    }

    /// One sector of the batch path: word-level syndrome extraction and
    /// measurement flips, the bit transpose to per-lane packed syndromes,
    /// cache-backed decoding of the active lanes, and word-level
    /// logical-failure parities. Returns the sector's failure mask.
    #[allow(clippy::too_many_arguments)]
    fn batch_decode_sector(
        &self,
        decoder: &BpOsdDecoder,
        ctx: u64,
        err_words: &[u64],
        flip_words: &[u64],
        logicals: &[Vec<usize>],
        lanes: &mut LaneBuffers,
        sector: &mut SectorBatch,
        stats: &mut BatchStats,
    ) -> u64 {
        let n = err_words.len();
        let h = decoder.check_matrix();
        let m = h.num_rows();
        h.syndrome_words_into(err_words, &mut lanes.syn_words);
        if !flip_words.is_empty() {
            debug_assert_eq!(flip_words.len(), m, "one flip word per check");
            for (s, &f) in lanes.syn_words.iter_mut().zip(flip_words) {
                *s ^= f;
            }
        }
        lanes.corr_words.clear();
        lanes.corr_words.resize(n, 0);
        // Lanes with an all-zero syndrome decode to the zero correction for free.
        let mut active: u64 = lanes.syn_words.iter().fold(0, |acc, &w| acc | w);
        if active != 0 {
            sector.cache.ensure(ctx, m, n);
            let words = m.div_ceil(64);
            transpose_lanes(&lanes.syn_words, words, &mut lanes.lane_syn);
            while active != 0 {
                let k = active.trailing_zeros() as usize;
                active &= active - 1;
                let lane = 1u64 << k;
                stats.active_lanes += 1;
                let syndrome = &lanes.lane_syn[k * words..(k + 1) * words];
                if let Some(stored) = sector.cache.lookup(syndrome) {
                    scatter_lane(stored, lane, &mut lanes.corr_words);
                    continue;
                }
                // A cache miss decodes through the keyed per-bit priors (a
                // uniform channel is a constant priors vector).
                let status = decoder.decode_packed_keyed_into(
                    syndrome,
                    &self.priors,
                    self.priors_key,
                    &mut sector.decode,
                );
                stats.decoded += 1;
                if status.method == DecodeMethod::OrderedStatistics {
                    stats.osd_fallbacks += 1;
                }
                stats.inconsistent += u64::from(!status.consistent);
                let correction = &sector.decode.err_words;
                scatter_lane(correction, lane, &mut lanes.corr_words);
                sector.cache.insert(syndrome, correction);
            }
        }
        let mut fail = 0u64;
        for support in logicals {
            let mut parity = 0u64;
            for &q in support {
                parity ^= err_words[q] ^ lanes.corr_words[q];
            }
            fail |= parity;
        }
        fail
    }
    // cyclone-lint: end-hot-path

    /// Runs the Monte-Carlo experiment and returns the LER estimate.
    ///
    /// With `target = None` this samples the fixed budget of `config.shots`
    /// shots. With `Some(target)` it stops at the smallest shot count meeting
    /// the [`PrecisionTarget`], capped by `target.max_shots` (`config.shots` is
    /// then ignored). The adaptive result is therefore the fixed result of its
    /// own shot count: the stop rule chooses the budget, never the sample.
    ///
    /// This is the one-point case of [`estimate_points`]' scheduler: workers
    /// share `&self` and fold 64-shot chunks into the shot prefix. Every shot
    /// draws from its own seeded stream ([`MemoryConfig::shot_seed`]), so the
    /// estimate is bit-identical for every `config.threads` setting.
    pub fn run(&self, config: &MemoryConfig, target: Option<&PrecisionTarget>) -> LerEstimate {
        let mut estimate = LerEstimate::empty();
        schedule(
            &[target.copied()],
            config,
            || self,
            |exp, _| *exp,
            |_, est| estimate = est,
        );
        estimate
    }
}

/// The failure record of one scheduled point: chunk failure masks arrive in
/// any order and are folded into a contiguous shot prefix, checked shot by
/// shot against the target (if any).
#[derive(Debug)]
struct FailureRecord {
    /// Shot budget: `config.shots`, or the target's cap.
    shots: usize,
    target: Option<PrecisionTarget>,
    /// Failure mask of every finished chunk not yet folded (`None` = pending).
    masks: Vec<Option<u64>>,
    /// Chunks `0..claimed` have been handed to workers.
    claimed: usize,
    /// Chunks `0..folded` are counted in `failures`.
    folded: usize,
    failures: usize,
    /// The stop point, once the folded prefix meets the target.
    met: Option<LerEstimate>,
}

impl FailureRecord {
    fn new(shots: usize, target: Option<PrecisionTarget>) -> Self {
        FailureRecord {
            shots,
            target,
            masks: vec![None; shots.div_ceil(64)],
            claimed: 0,
            folded: 0,
            failures: 0,
            met: None,
        }
    }

    /// Hands out the next unclaimed chunk, if any.
    fn claim(&mut self) -> Option<usize> {
        let chunk = self.claimed;
        (chunk < self.masks.len()).then(|| {
            self.claimed += 1;
            chunk
        })
    }

    /// Records one chunk's failure mask and folds every newly contiguous chunk;
    /// returns whether the point is finished: its target is met or every chunk
    /// is folded.
    fn add(&mut self, chunk: usize, mask: u64) -> bool {
        self.masks[chunk] = Some(mask);
        while self.met.is_none() {
            let Some(mask) = self.masks.get(self.folded).copied().flatten() else {
                break;
            };
            let start = self.folded * 64;
            match self.target {
                None => self.failures += mask.count_ones() as usize,
                Some(target) => {
                    for k in 0..64.min(self.shots - start) {
                        self.failures += ((mask >> k) & 1) as usize;
                        if target.met_by(start + k + 1, self.failures) {
                            self.met = Some(LerEstimate::from_counts(start + k + 1, self.failures));
                            break;
                        }
                    }
                }
            }
            self.folded += 1;
        }
        self.met.is_some() || self.folded == self.masks.len()
    }

    /// The stop point, or the full budget when the target was never met.
    fn estimate(&self) -> LerEstimate {
        self.met
            .unwrap_or_else(|| LerEstimate::from_counts(self.shots, self.failures))
    }
}

/// The work state [`schedule`]'s workers share, behind one mutex.
struct Queue<'b, F> {
    /// Shot budget of every point, in input order, and its target.
    budgets: &'b [(usize, Option<PrecisionTarget>)],
    /// Points `0..started` have been started.
    started: usize,
    /// Started, unfinished points with their failure records, which live
    /// only from a point's start to its finish.
    live: Vec<(usize, FailureRecord)>,
    /// Called with each point's estimate as it finishes.
    report: F,
}

impl<F: FnMut(usize, LerEstimate)> Queue<'_, F> {
    /// Hands an idle worker its next `(point, chunk)`: the first chunk of the
    /// next unstarted point in input order, else a chunk of the live point
    /// with the most unclaimed chunks. `None` once no chunk is left.
    fn join(&mut self) -> Option<(usize, usize)> {
        while let Some(&(shots, target)) = self.budgets.get(self.started) {
            let point = self.started;
            self.started += 1;
            if shots == 0 {
                // A zero-shot budget yields the explicit empty estimate, not a 1-shot floor.
                (self.report)(point, LerEstimate::empty());
                continue;
            }
            let mut record = FailureRecord::new(shots, target);
            let first = record.claim();
            self.live.push((point, record));
            return first.map(|chunk| (point, chunk));
        }
        let (point, record) = self
            .live
            .iter_mut()
            .max_by_key(|(_, record)| record.masks.len() - record.claimed)?;
        record.claim().map(|chunk| (*point, chunk))
    }

    /// Records a finished chunk's failure mask and hands the worker the next
    /// unclaimed chunk of the same point. A finished point is reported and
    /// dropped; masks still in flight for it cannot change its estimate.
    fn finish(&mut self, point: usize, chunk: usize, mask: u64) -> Option<usize> {
        let at = self.live.iter().position(|&(p, _)| p == point)?;
        if self.live[at].1.add(chunk, mask) {
            let (_, record) = self.live.swap_remove(at);
            (self.report)(point, record.estimate());
            return None;
        }
        self.live[at].1.claim()
    }
}

/// Samples one point per target (`None` = the fixed `config.shots` budget) on
/// `config.worker_count()` spawned workers, never more than there are 64-shot
/// chunks, and calls `report` under the queue lock with each point's estimate
/// as it finishes. A worker gets a point's experiment from `bind` on its own
/// state (made by `new_worker`) and reuses one [`BatchScratch`] while it stays
/// on one code.
fn schedule<'a, S>(
    targets: &[Option<PrecisionTarget>],
    config: &MemoryConfig,
    new_worker: impl Fn() -> S + Sync,
    bind: impl Fn(&mut S, usize) -> &MemoryExperiment<'a> + Sync,
    report: impl FnMut(usize, LerEstimate) + Send,
) {
    let budgets: Vec<_> = targets
        .iter()
        .map(|&target| (target.map_or(config.shots, |t| t.max_shots), target))
        .collect();
    let chunks: usize = budgets.iter().map(|&(shots, _)| shots.div_ceil(64)).sum();
    let workers = config.worker_count().min(chunks).max(1);
    let queue = Mutex::new(Queue {
        budgets: &budgets,
        started: 0,
        live: Vec::new(),
        report,
    });
    let lock = || queue.lock().expect("unpoisoned");
    let work = || {
        let mut state = new_worker();
        let mut batch = BatchScratch::new();
        let mut code: *const CssCode = std::ptr::null();
        loop {
            let Some((point, first)) = lock().join() else {
                break;
            };
            let exp = bind(&mut state, point);
            // One scratch per code: resizing one across codes kept ~0.4 MB more resident.
            if !std::ptr::eq(exp.code, code) {
                batch = BatchScratch::new();
                code = exp.code;
            }
            let shots = budgets[point].0;
            let mut chunk = Some(first);
            while let Some(c) = chunk {
                let start = c * 64;
                let mask = exp.sample_batch_with(config, start, 64.min(shots - start), &mut batch);
                chunk = lock().finish(point, c, mask);
            }
        }
    };
    // Only spawned threads work: a worker on the calling thread raised peak RSS ~14%.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(work);
        }
    });
}

/// One operating point of a logical-error-rate sweep: a code evaluated at physical
/// error rate `p` with a syndrome-extraction round latency of `latency` seconds,
/// optionally under a structured error channel and a precision target.
#[derive(Debug, Clone, Copy)]
pub struct LerPoint<'a> {
    /// The code under test.
    pub code: &'a CssCode,
    /// Physical error rate.
    pub p: f64,
    /// Round latency in seconds (drives the decoherence contribution).
    pub latency: f64,
    /// How the hardware model is lifted to a per-qubit channel: `None` (or
    /// [`ChannelSpec::Uniform`]) is the uniform channel.
    pub channel: Option<&'a ChannelSpec>,
    /// `None` samples the fixed `config.shots` budget; `Some` stops at the
    /// target's precision (see [`MemoryExperiment::run`]).
    pub precision: Option<PrecisionTarget>,
}

/// Estimates every point of a sweep on one scheduler of (point, 64-shot chunk)
/// work items, calling `on_point` with each point's index and estimate as the
/// point finishes.
///
/// This is the parallel primitive under the `cyclone::sweep` engine. Each
/// worker starts the next unstarted point; once all have started, idle workers
/// join the unfinished point with the most chunks left, so the slowest point
/// does not run alone at the end. Fixed and adaptive points may be mixed, and
/// every estimate is bit-identical to the point's own [`MemoryExperiment::run`]
/// at any worker count. Workers keep one experiment per distinct code.
pub fn estimate_points(
    points: &[LerPoint<'_>],
    config: &MemoryConfig,
    on_point: impl FnMut(usize, LerEstimate) + Send,
) {
    let targets: Vec<_> = points.iter().map(|point| point.precision).collect();
    schedule(
        &targets,
        config,
        Vec::new,
        // Decoder pairs are cached per code (keyed by the reference's address,
        // stable for the duration of the call).
        |experiments: &mut Vec<(*const CssCode, MemoryExperiment<'_>)>, i| {
            let point = &points[i];
            let key = std::ptr::from_ref(point.code);
            let model = HardwareNoiseModel::new(NoiseParameters::new(point.p), point.latency);
            let at = experiments
                .iter()
                .position(|(k, _)| *k == key)
                .unwrap_or_else(|| {
                    let exp = MemoryExperiment::new(point.code, model, config.bp_iterations);
                    experiments.push((key, exp));
                    experiments.len() - 1
                });
            let exp = &mut experiments[at].1;
            exp.set_model(model);
            // A structured channel replaces the uniform one set_model just
            // installed; uniform specs skip the rebuild.
            if let Some(spec) = point.channel.filter(|spec| !spec.is_uniform()) {
                let (n, m) = (point.code.num_qubits(), point.code.num_stabilizers());
                exp.set_channel(spec.instantiate(&model, n, m));
            }
            &*exp
        },
        on_point,
    );
}

/// The integer threshold of a Bernoulli(`p`) draw: `next_u64() >> 11 < t`
/// holds exactly when the shim's `gen_bool(p)` is true for the same word.
///
/// `gen_bool` compares `k · 2⁻⁵³` with `p`, where `k = next_u64() >> 11` is a
/// 53-bit integer and the product is exact. For an integer `k`,
/// `k · 2⁻⁵³ < p` ⟺ `k < p · 2⁵³` ⟺ `k < ⌈p · 2⁵³⌉`, and both `p · 2⁵³` (a
/// power-of-two scaling that cannot overflow for `p ≤ 1`) and its ceiling
/// are exact in `f64`, so the threshold is `⌈p · 2⁵³⌉ ≤ 2⁵³`.
///
/// # Panics
///
/// Panics with `gen_bool`'s message if `p` is not in `[0, 1]` (NaN included).
/// Public so equivalence tests can pin the draw rule to `gen_bool`.
pub fn bernoulli_threshold(p: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "gen_bool probability {p} not in [0, 1]"
    );
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Transposes a 64×64 bit block in place: bit `c` of `block[r]` moves to bit
/// `r` of `block[c]`. Six rounds swap ever smaller off-diagonal sub-blocks
/// (32×32, then 16×16, down to single bits), 32 word pairs per round.
#[inline]
fn transpose64(block: &mut [u64; 64]) {
    let mut width = 32;
    let mut low: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        let mut r = 0;
        while r < 64 {
            // Swap the high `width` bits of each `width`-bit pair in row `r`
            // with the low ones in row `r + width`.
            let t = ((block[r] >> width) ^ block[r + width]) & low;
            block[r] ^= t << width;
            block[r + width] ^= t;
            r = (r + width + 1) & !width;
        }
        width >>= 1;
        low ^= low << width;
    }
}

// cyclone-lint: hot-path
/// Turns check-major syndrome words (bit `k` of `check_major[r]` = lane `k`'s
/// check `r`) into lane-major packed syndromes: lane `k`'s syndrome is
/// `lane_major[k * words..(k + 1) * words]`, 64 checks per word. One
/// [`transpose64`] per 64-check block; checks past the last are zero.
fn transpose_lanes(check_major: &[u64], words: usize, lane_major: &mut Vec<u64>) {
    lane_major.clear();
    lane_major.resize(64 * words, 0);
    for (b, rows) in check_major.chunks(64).enumerate() {
        let mut block = [0u64; 64];
        block[..rows.len()].copy_from_slice(rows);
        transpose64(&mut block);
        for (k, &word) in block.iter().enumerate() {
            lane_major[k * words + b] = word;
        }
    }
}

/// ORs `lane` into `corr_words[q]` for every set bit `q` of a packed
/// correction.
#[inline]
fn scatter_lane(correction: &[u64], lane: u64, corr_words: &mut [u64]) {
    for (wi, &w) in correction.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            let q = (wi << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            corr_words[q] |= lane;
        }
    }
}

/// Bit-sliced depolarizing event: applies X, Y or Z (each with probability 1/3)
/// to qubit `q` in the lane selected by `lane` (X-frame = X or Y; Z-frame = Z or
/// Y), drawing one `gen_range(0..3)` so the per-shot RNG streams stay aligned
/// with the scalar reference sampler.
#[inline]
fn depolarize_words<R: Rng>(rng: &mut R, batch: &mut BatchScratch, q: usize, lane: u64) {
    match rng.gen_range(0..3) {
        0 => batch.x_err_words[q] |= lane,
        1 => batch.z_err_words[q] |= lane,
        _ => {
            batch.x_err_words[q] |= lane;
            batch.z_err_words[q] |= lane;
        }
    }
}
// cyclone-lint: end-hot-path

/// Convenience: estimate the LER of `code` for a round that takes `latency` seconds at
/// physical error rate `p`.
pub fn logical_error_rate(
    code: &CssCode,
    p: f64,
    latency: f64,
    config: &MemoryConfig,
) -> LerEstimate {
    let model = HardwareNoiseModel::new(NoiseParameters::new(p), latency);
    MemoryExperiment::new(code, model, config.bp_iterations).run(config, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::codes::bb_72_12_6;

    /// Every estimate [`estimate_points`] reports, in input order; each point
    /// must be reported exactly once.
    fn estimates_of(points: &[LerPoint<'_>], config: &MemoryConfig) -> Vec<LerEstimate> {
        let mut reported = vec![None; points.len()];
        estimate_points(points, config, |i, est| {
            assert!(
                reported[i].replace(est).is_none(),
                "point {i} reported twice"
            );
        });
        reported
            .into_iter()
            .map(|est| est.expect("every point is reported"))
            .collect()
    }

    #[test]
    fn low_noise_gives_low_ler() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(1e-4), 0.0);
        let exp = MemoryExperiment::new(&code, model, 25);
        let est = exp.run(
            &MemoryConfig {
                shots: 300,
                ..Default::default()
            },
            None,
        );
        assert!(
            est.ler < 0.1,
            "LER {} too high at p=1e-4 with zero latency",
            est.ler
        );
    }

    #[test]
    fn latency_increases_ler() {
        let code = bb_72_12_6().expect("valid");
        let cfg = MemoryConfig {
            shots: 400,
            ..Default::default()
        };
        let fast = logical_error_rate(&code, 2e-3, 0.0, &cfg);
        let slow = logical_error_rate(&code, 2e-3, 0.3, &cfg);
        assert!(
            slow.ler >= fast.ler,
            "long latency ({}) should not beat zero latency ({})",
            slow.ler,
            fast.ler
        );
    }

    #[test]
    fn huge_noise_gives_high_ler() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.2), 0.0);
        let exp = MemoryExperiment::new(&code, model, 10);
        let est = exp.run(
            &MemoryConfig {
                shots: 100,
                ..Default::default()
            },
            None,
        );
        assert!(est.ler > 0.2, "LER {} suspiciously low at p=0.2", est.ler);
    }

    #[test]
    fn thread_count_does_not_change_the_estimate() {
        // threads: 0 resolves to available parallelism; because every shot owns
        // its own seeded RNG stream, the estimate must match a single-threaded
        // run exactly.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(8e-3), 5e-3);
        let exp = MemoryExperiment::new(&code, model, 20);
        let base = MemoryConfig {
            shots: 250,
            bp_iterations: 20,
            threads: 0,
            seed: 0xC1C1_0DE5,
        };
        let auto = exp.run(&base, None);
        let single = exp.run(&MemoryConfig { threads: 1, ..base }, None);
        let four = exp.run(&MemoryConfig { threads: 4, ..base }, None);
        assert_eq!(auto.failures, single.failures);
        assert_eq!(auto.failures, four.failures);
        assert_eq!(auto.ler, single.ler);
        assert_eq!(auto.shots, single.shots);
    }

    #[test]
    fn estimate_counts_consistent() {
        let e = LerEstimate::from_counts(1000, 10);
        assert_eq!(e.ler, 0.01);
        assert!(!e.is_upper_bound());
        let zero = LerEstimate::from_counts(1000, 0);
        assert!(zero.is_upper_bound());
        assert!(zero.ler > 0.0);
    }

    #[test]
    fn zero_failure_estimate_carries_nonzero_std_err() {
        // Regression: std_err used to come from the raw (zero) failure fraction, so
        // zero-failure points plotted with zero uncertainty despite the ler floor.
        let zero = LerEstimate::from_counts(400, 0);
        assert!(
            zero.std_err > 0.0,
            "floored estimate must have nonzero std_err"
        );
        let expected = (zero.ler * (1.0 - zero.ler) / 400.0).sqrt();
        assert_eq!(zero.std_err, expected);
        // Nonzero-failure points are unchanged: ler equals the raw fraction.
        let some = LerEstimate::from_counts(1000, 10);
        assert_eq!(some.std_err, (0.01f64 * 0.99 / 1000.0).sqrt());
    }

    #[test]
    fn zero_shot_config_returns_the_empty_estimate() {
        // Regression: shots == 0 used to fabricate a phantom 1-shot zero-failure
        // estimate (ler floored to 0.5) via `from_counts(shots.max(1), ...)`.
        let code = bb_72_12_6().expect("valid");
        let est = logical_error_rate(&code, 5e-3, 0.0, &MemoryConfig::with_shots(0));
        assert!(est.is_empty());
        assert_eq!(est.shots, 0);
        assert_eq!(est.failures, 0);
        assert_eq!(est.ler, 0.0);
        assert_eq!(est.std_err, 0.0);
        assert!(
            !est.is_upper_bound(),
            "no shots is no measurement, not an upper bound"
        );
        assert!(est.ler.is_finite() && est.std_err.is_finite());
        assert_eq!(est.relative_std_err(), f64::INFINITY);
        assert_eq!(est, LerEstimate::empty());
    }

    #[test]
    fn precision_target_stop_rule() {
        let t = PrecisionTarget::new(0.48, 3, 10_000);
        // Below the failure floor: never met, whatever the rse would be.
        assert!(!t.met_by(10_000, 2));
        assert!(!t.met_by(0, 0));
        // rse = sqrt((1-p)/(p*s)): 4 failures in 40 shots → p=0.1, rse = 0.474 ≤ 0.48.
        assert!(t.met_by(40, 4));
        // Same failures over more shots → rse approaches 1/√failures = 0.49975 → not met.
        assert!(!t.met_by(4_000, 4));
        // The failure floor is at least 1, so a floored zero-failure estimate never
        // satisfies any target.
        let loose = PrecisionTarget::new(100.0, 0, 100);
        assert!(!loose.met_by(100, 0));
        assert!(loose.met_by(100, 1));
        // target_rse = 0 never stops early.
        assert!(!PrecisionTarget::new(0.0, 1, 100).met_by(100, 99));
    }

    #[test]
    fn non_positive_target_is_never_met_even_by_an_all_failure_prefix() {
        // Regression: an all-failure prefix has ler = 1 and std_err = 0, and
        // `0 <= 0 * 1` used to meet a zero target.
        for rse in [0.0, -0.5] {
            let t = PrecisionTarget::new(rse, 1, 100);
            assert!(!t.met_by(1, 1));
            assert!(!t.met_by(64, 64));
        }
        assert!(!PrecisionTarget::new(0.0, 0, 100).met_by(1, 1));
        // A zero target samples to the cap, like the fixed budget.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.3), 0.0);
        let exp = MemoryExperiment::new(&code, model, 5);
        let config = MemoryConfig {
            shots: 70,
            bp_iterations: 5,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let capped = exp.run(&config, Some(&PrecisionTarget::new(0.0, 1, 70)));
        assert_eq!(capped, exp.run(&config, None));
    }

    #[test]
    fn adaptive_estimate_is_a_prefix_of_the_fixed_path() {
        // The adaptive run must return exactly what a fixed-budget run of its own
        // shot count returns: the stop rule chooses the budget, never the sample.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.05), 0.0);
        let exp = MemoryExperiment::new(&code, model, 15);
        let config = MemoryConfig {
            shots: 0, // ignored by the adaptive path
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let target = PrecisionTarget::new(0.35, 8, 5_000);
        let adaptive = exp.run(&config, Some(&target));
        assert!(adaptive.shots < 5_000, "high-failure point must stop early");
        assert!(target.met_by(adaptive.shots, adaptive.failures));
        assert!(
            !target.met_by(
                adaptive.shots - 1,
                adaptive.failures - usize::from(adaptive.failures > 0)
            ),
            "must stop at the *smallest* qualifying prefix"
        );
        let fixed = exp.run(
            &MemoryConfig {
                shots: adaptive.shots,
                ..config
            },
            None,
        );
        assert_eq!(
            adaptive, fixed,
            "adaptive result must be the fixed result of its shot count"
        );
    }

    #[test]
    fn adaptive_is_thread_and_batch_invariant() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.04), 0.0);
        let exp = MemoryExperiment::new(&code, model, 15);
        let base = MemoryConfig {
            shots: 0,
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let target = PrecisionTarget::new(0.4, 6, 2_000);
        // Workers fold 64-shot chunks in whatever order they finish; the stop
        // point is decided on the contiguous prefix, so no schedule moves it.
        let reference = exp.run(&base, Some(&target));
        assert!(reference.shots > 64, "stop point must span several chunks");
        for threads in [2usize, 3, 4, 7] {
            let got = exp.run(&MemoryConfig { threads, ..base }, Some(&target));
            assert_eq!(got, reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn adaptive_caps_at_max_shots() {
        // An unreachable target (failure floor above what the cap can deliver)
        // must cap at max_shots and match the fixed run of that budget exactly.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(1e-4), 0.0);
        let exp = MemoryExperiment::new(&code, model, 15);
        let config = MemoryConfig {
            shots: 0,
            bp_iterations: 15,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let target = PrecisionTarget::new(0.1, 1_000_000, 300);
        let capped = exp.run(&config, Some(&target));
        assert_eq!(capped.shots, 300);
        assert_eq!(
            capped,
            exp.run(
                &MemoryConfig {
                    shots: 300,
                    ..config
                },
                None
            )
        );
        // A zero-shot cap is the empty estimate, like a zero-shot fixed config.
        let empty = exp.run(&config, Some(&PrecisionTarget::new(0.1, 1, 0)));
        assert!(empty.is_empty());
    }

    #[test]
    fn estimate_points_adaptive_mixes_fixed_and_adaptive_points() {
        let code = bb_72_12_6().expect("valid");
        let config = MemoryConfig {
            shots: 150,
            bp_iterations: 15,
            threads: 4,
            seed: 0xC1C1_0DE5,
        };
        let target = PrecisionTarget::new(0.4, 6, 4_000);
        let points = [
            LerPoint {
                code: &code,
                p: 0.05,
                latency: 0.0,
                channel: None,
                precision: None,
            },
            LerPoint {
                code: &code,
                p: 0.05,
                latency: 0.0,
                channel: None,
                precision: Some(target),
            },
        ];
        let mixed = estimates_of(&points, &config);
        // The fixed slot matches the plain fixed path ...
        assert_eq!(mixed[0], logical_error_rate(&code, 0.05, 0.0, &config));
        // ... and the adaptive slot matches a direct adaptive run.
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.05), 0.0);
        let exp = MemoryExperiment::new(&code, model, config.bp_iterations);
        assert_eq!(
            mixed[1],
            exp.run(
                &MemoryConfig {
                    threads: 1,
                    ..config
                },
                Some(&target)
            )
        );
    }

    #[test]
    fn scratch_sampling_matches_allocating_sampling() {
        // One dirty batch scratch (warm decode caches) must sample exactly
        // what a freshly allocated scratch samples per batch.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(6e-3), 2e-3);
        let exp = MemoryExperiment::new(&code, model, 20);
        let cfg = MemoryConfig::default();
        let mut scratch = BatchScratch::new();
        for chunk in 0..12 {
            let count = 1 + chunk * 5;
            assert_eq!(
                exp.sample_batch_with(&cfg, chunk * 64, count, &mut BatchScratch::new()),
                exp.sample_batch_with(&cfg, chunk * 64, count, &mut scratch),
                "chunk {chunk} diverged between fresh and reused scratch"
            );
        }
    }

    #[test]
    fn estimate_points_matches_serial_calls() {
        let code = bb_72_12_6().expect("valid");
        let cfg = MemoryConfig {
            shots: 120,
            bp_iterations: 20,
            threads: 4,
            seed: 0xC1C1_0DE5,
        };
        let points = [
            LerPoint {
                code: &code,
                p: 2e-3,
                latency: 0.0,
                channel: None,
                precision: None,
            },
            LerPoint {
                code: &code,
                p: 2e-3,
                latency: 0.05,
                channel: None,
                precision: None,
            },
            LerPoint {
                code: &code,
                p: 8e-3,
                latency: 0.01,
                channel: None,
                precision: None,
            },
        ];
        let pooled = estimates_of(&points, &cfg);
        assert_eq!(pooled.len(), 3);
        for (point, est) in points.iter().zip(&pooled) {
            let direct = logical_error_rate(point.code, point.p, point.latency, &cfg);
            assert_eq!(est.failures, direct.failures, "point {point:?} diverged");
            assert_eq!(est.ler, direct.ler);
            assert_eq!(est.shots, direct.shots);
        }
    }

    #[test]
    fn estimate_points_handles_empty_input() {
        assert!(estimates_of(&[], &MemoryConfig::default()).is_empty());
    }

    #[test]
    fn explicit_uniform_channel_is_bit_identical_to_the_scalar_path() {
        // Installing the uniform channel by hand must reproduce the historical
        // scalar path exactly: same RNG stream, same cached-LLR decodes.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(8e-3), 5e-3);
        let cfg = MemoryConfig {
            shots: 200,
            bp_iterations: 20,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let scalar = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
        let channel = noise::ErrorChannel::uniform(code.num_qubits(), model.effective_error_rate());
        let channeled = MemoryExperiment::with_channel(&code, model, channel, cfg.bp_iterations)
            .run(&cfg, None);
        assert_eq!(scalar, channeled);
    }

    #[test]
    fn measurement_noise_degrades_the_logical_error_rate() {
        // A biased channel flips extracted syndrome bits, so decoding gets harder:
        // at matched data rates the biased LER must not beat the uniform one (and
        // with a strong bias it should clearly exceed it).
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(4e-3), 0.0);
        let cfg = MemoryConfig {
            shots: 400,
            bp_iterations: 20,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let p = model.effective_error_rate();
        let uniform = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
        let biased = noise::ErrorChannel::biased(
            code.num_qubits(),
            code.num_stabilizers(),
            p,
            (20.0 * p).min(0.45),
        );
        let noisy =
            MemoryExperiment::with_channel(&code, model, biased, cfg.bp_iterations).run(&cfg, None);
        assert!(
            noisy.failures > uniform.failures,
            "strong measurement noise ({} failures) should beat uniform ({} failures)",
            noisy.failures,
            uniform.failures
        );
    }

    #[test]
    fn structured_channels_are_thread_count_invariant() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(6e-3), 1e-3);
        let p = model.effective_error_rate();
        // Heterogeneous data rates and measurement noise in one channel.
        let mut data: Vec<f64> = vec![p; code.num_qubits()];
        for (q, rate) in data.iter_mut().enumerate() {
            if q % 3 == 0 {
                *rate = (2.0 * p).min(0.5);
            }
        }
        let channel = noise::ErrorChannel::from_rates(data, vec![2e-3; code.num_stabilizers()]);
        let base = MemoryConfig {
            shots: 150,
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let exp = MemoryExperiment::with_channel(&code, model, channel, base.bp_iterations);
        let single = exp.run(&base, None);
        let four = exp.run(&MemoryConfig { threads: 4, ..base }, None);
        assert_eq!(single, four);
    }

    #[test]
    fn structured_runs_are_bit_identical_across_pools() {
        // Under measurement noise every worker fills decode caches of its own;
        // the worker count may not change the estimate.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(5e-3), 0.0);
        let base = MemoryConfig {
            shots: 312,
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let channel =
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 5e-3, 0.5);
        let exp = MemoryExperiment::with_channel(&code, model, channel, base.bp_iterations);
        assert_eq!(
            exp.run(&MemoryConfig { threads: 4, ..base }, None),
            exp.run(&base, None)
        );
    }

    #[test]
    fn workers_never_outnumber_chunks() {
        // One 64-shot chunk is one worker's work, whatever the thread budget:
        // the run neither spawns a thread per requested worker nor moves the
        // estimate.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(8e-3), 0.0);
        let exp = MemoryExperiment::new(&code, model, 15);
        let base = MemoryConfig {
            shots: 64,
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let single = exp.run(&base, None);
        for threads in [64, 100_000] {
            assert_eq!(exp.run(&MemoryConfig { threads, ..base }, None), single);
        }
    }

    #[test]
    fn set_model_resets_a_structured_channel() {
        // A custom channel must never leak into the next operating point: set_model
        // reinstalls the uniform channel of the new model.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(5e-3), 0.0);
        let cfg = MemoryConfig {
            shots: 150,
            ..Default::default()
        };
        let fresh = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
        let biased =
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 5e-3, 0.3);
        let mut exp = MemoryExperiment::with_channel(&code, model, biased, cfg.bp_iterations);
        assert!(exp.channel().has_measurement_noise());
        exp.set_model(model);
        assert_eq!(
            exp.channel().uniform_rate(),
            Some(model.effective_error_rate())
        );
        assert_eq!(exp.run(&cfg, None), fresh);
    }

    #[test]
    fn estimate_points_applies_channel_specs_per_point() {
        let code = bb_72_12_6().expect("valid");
        let cfg = MemoryConfig {
            shots: 150,
            bp_iterations: 15,
            threads: 4,
            seed: 0xC1C1_0DE5,
        };
        let biased = ChannelSpec::Biased { meas_ratio: 20.0 };
        let points = [
            LerPoint {
                code: &code,
                p: 5e-3,
                latency: 0.0,
                channel: None,
                precision: None,
            },
            LerPoint {
                code: &code,
                p: 5e-3,
                latency: 0.0,
                channel: Some(&ChannelSpec::Uniform),
                precision: None,
            },
            LerPoint {
                code: &code,
                p: 5e-3,
                latency: 0.0,
                channel: Some(&biased),
                precision: None,
            },
        ];
        let estimates = estimates_of(&points, &cfg);
        // None and an explicit Uniform spec are the same path ...
        assert_eq!(estimates[0], estimates[1]);
        assert_eq!(estimates[0], logical_error_rate(&code, 5e-3, 0.0, &cfg));
        // ... and the biased point sees more failures under the same seeds.
        assert!(estimates[2].failures > estimates[0].failures);
    }

    #[test]
    fn schedule_channel_samples_end_to_end() {
        // A from_schedule channel (heterogeneous data + ancilla rates) drives the
        // sampler and per-bit priors without panicking, deterministically.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(5e-3), 2e-2);
        let n = code.num_qubits();
        let data_idle: Vec<f64> = (0..n).map(|q| 2e-2 * (q % 5) as f64 / 4.0).collect();
        let meas_idle: Vec<f64> = (0..code.num_stabilizers())
            .map(|c| 1e-2 * (c % 3) as f64)
            .collect();
        let channel = noise::ErrorChannel::from_schedule(&model, &data_idle, &meas_idle);
        assert!(channel.uniform_rate().is_none());
        let cfg = MemoryConfig {
            shots: 120,
            bp_iterations: 15,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let exp = MemoryExperiment::with_channel(&code, model, channel.clone(), cfg.bp_iterations);
        let a = exp.run(&cfg, None);
        let b = MemoryExperiment::with_channel(&code, model, channel, cfg.bp_iterations)
            .run(&cfg, None);
        assert_eq!(a, b, "schedule-channel sampling must be deterministic");
        assert_eq!(a.shots, cfg.shots);
    }

    #[test]
    fn rates_straddling_the_old_clamp_sample_identically_to_the_saturated_rate() {
        // Regression for the silent mid-sample `p.min(0.75)`: rates are now
        // saturated once at channel construction (with `saturated()` recording
        // it), so a channel requesting 0.9 must sample exactly like one built at
        // the depolarizing maximum — same streams, same failures — while a rate
        // below the clamp is untouched.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.3), 0.0);
        let n = code.num_qubits();
        let cfg = MemoryConfig {
            shots: 64,
            bp_iterations: 10,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let over = noise::ErrorChannel::from_rates(vec![0.9; n], Vec::new());
        assert!(over.saturated());
        let at_max = noise::ErrorChannel::from_rates(vec![0.75; n], Vec::new());
        assert!(!at_max.saturated());
        let a =
            MemoryExperiment::with_channel(&code, model, over, cfg.bp_iterations).run(&cfg, None);
        let b =
            MemoryExperiment::with_channel(&code, model, at_max, cfg.bp_iterations).run(&cfg, None);
        assert_eq!(a, b, "saturated channel must sample at the maximum");
        // Below the old clamp nothing changes: 0.7 stays 0.7 and differs from
        // the saturated stream.
        let below = noise::ErrorChannel::from_rates(vec![0.7; n], Vec::new());
        assert!(!below.saturated());
        let c =
            MemoryExperiment::with_channel(&code, model, below, cfg.bp_iterations).run(&cfg, None);
        assert_ne!(a.failures, 0);
        assert!(
            c.failures <= a.failures,
            "lower rate cannot fail more often"
        );
    }

    #[test]
    fn batch_decode_cache_hits_on_repeated_syndromes() {
        // At physical rates the syndrome distribution is dominated by a few
        // popular patterns; the batch path must serve most decodes from the
        // per-sector caches, and cached runs must match cold runs exactly.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(3e-3), 0.0);
        let exp = MemoryExperiment::with_channel(
            &code,
            model,
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 3e-3, 6e-3),
            20,
        );
        let cfg = MemoryConfig {
            shots: 0,
            bp_iterations: 20,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let mut batch = BatchScratch::new();
        let mut masks = Vec::new();
        for chunk in 0..60 {
            masks.push(exp.sample_batch_with(&cfg, chunk * 64, 64, &mut batch));
        }
        let (hits, misses) = batch.cache_stats();
        assert!(hits > 0, "repeated syndromes must hit the decode cache");
        assert!(
            hits > misses,
            "physical-rate syndromes should mostly repeat (hits {hits}, misses {misses})"
        );
        let stats = batch.stats();
        assert_eq!(
            stats.active_lanes,
            hits + stats.decoded,
            "every active lane resolves exactly once: {stats:?} cache hits {hits}"
        );
        assert!(stats.osd_fallbacks <= stats.decoded);
        // Replaying through a warm cache reproduces every mask bit-for-bit.
        for (chunk, &mask) in masks.iter().enumerate() {
            assert_eq!(
                exp.sample_batch_with(&cfg, chunk * 64, 64, &mut batch),
                mask
            );
        }
    }

    /// The decode-resolution counters of twenty 64-shot batches of `code`
    /// under `spec` at physical rate 3e-3, through one scratch.
    fn batch_stats_under(code: &CssCode, spec: ChannelSpec) -> BatchStats {
        let model = HardwareNoiseModel::new(NoiseParameters::new(3e-3), 0.0);
        let channel = spec.instantiate(&model, code.num_qubits(), code.num_stabilizers());
        let exp = MemoryExperiment::with_channel(code, model, channel, 20);
        let cfg = MemoryConfig {
            shots: 0,
            bp_iterations: 20,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let mut batch = BatchScratch::new();
        for chunk in 0..20 {
            exp.sample_batch_with(&cfg, chunk * 64, 64, &mut batch);
        }
        batch.stats()
    }

    #[test]
    fn measurement_flips_make_inconsistent_osd_fallbacks() {
        // [[72,12,6]] has redundant checks, so a flipped check measurement
        // usually leaves H's column space: those fallbacks are proven
        // inconsistent and counted as their own category.
        let code = bb_72_12_6().expect("valid");
        let stats = batch_stats_under(&code, ChannelSpec::Biased { meas_ratio: 2.0 });
        assert!(stats.inconsistent > 0, "{stats:?}");
        assert!(stats.inconsistent <= stats.osd_fallbacks, "{stats:?}");
    }

    #[test]
    fn uniform_channel_syndromes_are_always_consistent() {
        // Without measurement noise every syndrome is H·e for the sampled e.
        let code = bb_72_12_6().expect("valid");
        let stats = batch_stats_under(&code, ChannelSpec::Uniform);
        assert!(stats.decoded > 0, "{stats:?}");
        assert_eq!(stats.inconsistent, 0, "{stats:?}");
    }

    #[test]
    fn full_row_rank_checks_admit_no_inconsistent_syndrome() {
        // The HGP code's H has full row rank, so even measurement flips keep
        // every syndrome in its column space.
        let code = qec::codes::hgp_100().expect("valid");
        let stats = batch_stats_under(&code, ChannelSpec::Biased { meas_ratio: 2.0 });
        assert!(stats.decoded > 0, "{stats:?}");
        assert_eq!(stats.inconsistent, 0, "{stats:?}");
    }

    #[test]
    fn persisted_decode_caches_roundtrip_and_stay_bit_identical() {
        let dir = std::env::temp_dir().join(format!("memory-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(3e-3), 0.0);
        let channel =
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 3e-3, 6e-3);
        let cfg = MemoryConfig {
            shots: 0,
            bp_iterations: 20,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };

        let exp = MemoryExperiment::with_channel(&code, model, channel.clone(), 20);
        let mut cold = BatchScratch::new();
        let masks: Vec<u64> = (0..8)
            .map(|chunk| exp.sample_batch_with(&cfg, chunk * 64, 64, &mut cold))
            .collect();
        exp.store_decode_caches(&dir, &cold)
            .expect("cache dir writable");
        let files = std::fs::read_dir(&dir).expect("cache dir created").count();
        assert!(files > 0, "store must persist sector cache files");

        // A fresh experiment over the same context loads the persisted entries
        // and replays every batch bit-for-bit, decoding less than the cold pass.
        let warm_exp = MemoryExperiment::with_channel(&code, model, channel, 20);
        let mut warm = BatchScratch::new();
        let loaded = warm_exp.load_decode_caches(&dir, &mut warm);
        assert!(
            loaded > 0,
            "persisted entries must load for the same context"
        );
        for (chunk, &mask) in masks.iter().enumerate() {
            assert_eq!(
                warm_exp.sample_batch_with(&cfg, chunk * 64, 64, &mut warm),
                mask,
                "chunk {chunk}"
            );
        }
        assert!(warm.stats().decoded < cold.stats().decoded);

        // Decoding depends on the data-rate priors, not the measurement rates:
        // a channel differing only in measurement ratio shares the decode
        // context and legitimately reuses the persisted entries...
        let shared = MemoryExperiment::with_channel(
            &code,
            model,
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 3e-3, 9e-3),
            20,
        );
        let mut shared_scratch = BatchScratch::new();
        assert!(shared.load_decode_caches(&dir, &mut shared_scratch) > 0);
        // ...while different data rates bind a different context: nothing
        // loads, nothing breaks.
        let other = MemoryExperiment::with_channel(
            &code,
            model,
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 4e-3, 6e-3),
            20,
        );
        let mut other_scratch = BatchScratch::new();
        assert_eq!(other.load_decode_caches(&dir, &mut other_scratch), 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_context_tags_are_pinned() {
        // The tags name persisted decode-cache files, so the matrix digest and
        // its mix with the priors identity must never drift.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(3e-3), 0.0);
        let mut exp = MemoryExperiment::new(&code, model, 20);
        assert_eq!(
            exp.sector_contexts(),
            (0x6979_f1ae_9060_ca28, 0x47ec_5680_aac6_1823)
        );
        exp.set_channel(noise::ErrorChannel::biased(
            code.num_qubits(),
            code.num_stabilizers(),
            3e-3,
            6e-3,
        ));
        assert_eq!(
            exp.sector_contexts(),
            (0x9854_98d6_2c05_bf21, 0xe003_ae75_d17f_6894)
        );
    }

    #[test]
    fn set_model_matches_fresh_experiment() {
        let code = bb_72_12_6().expect("valid");
        let cfg = MemoryConfig {
            shots: 120,
            ..Default::default()
        };
        let fresh = logical_error_rate(&code, 5e-3, 0.1, &cfg);
        let mut exp = MemoryExperiment::new(
            &code,
            HardwareNoiseModel::new(NoiseParameters::new(5e-3), 0.0),
            cfg.bp_iterations,
        );
        exp.set_model(HardwareNoiseModel::new(NoiseParameters::new(5e-3), 0.1));
        let reused = exp.run(&cfg, None);
        assert_eq!(fresh.failures, reused.failures);
        assert_eq!(fresh.ler, reused.ler);
    }

    /// Lane `k`'s check `r` of check-major syndrome words, one bit at a time.
    fn naive_lane_major(check_major: &[u64], words: usize) -> Vec<u64> {
        let mut out = vec![0u64; 64 * words];
        for (r, &w) in check_major.iter().enumerate() {
            for k in 0..64 {
                out[k * words + r / 64] |= ((w >> k) & 1) << (r % 64);
            }
        }
        out
    }

    #[test]
    fn transpose_lanes_matches_a_naive_bit_loop() {
        // Check counts below, at and past one block, and with a partial
        // third block; all 64 lanes carry random syndromes, plus the
        // single-bit patterns that pin the orientation.
        let mut rng = StdRng::seed_from_u64(0x7A05);
        let mut lane_major = Vec::new();
        for m in [36usize, 64, 108, 130] {
            let words = m.div_ceil(64);
            let random: Vec<u64> = (0..m).map(|_| rng.next_u64()).collect();
            transpose_lanes(&random, words, &mut lane_major);
            assert_eq!(lane_major, naive_lane_major(&random, words), "m = {m}");
            for (r, k) in [(0, 0), (m - 1, 63), (m / 2, 17), (m - 1, 0), (0, 63)] {
                let mut single = vec![0u64; m];
                single[r] = 1 << k;
                transpose_lanes(&single, words, &mut lane_major);
                let mut want = vec![0u64; 64 * words];
                want[k * words + r / 64] = 1 << (r % 64);
                assert_eq!(lane_major, want, "m = {m}, check {r}, lane {k}");
            }
        }
    }

    /// A generator that returns one fixed word: the shim's `gen_bool` on it
    /// is the reference outcome of a draw of that word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Asserts the threshold draw equals `gen_bool(p)` on random words and on
    /// the words whose 53-bit draw sits at or next to the threshold and at
    /// the ends of the range, under random low bits.
    fn assert_threshold_matches_gen_bool(p: f64, rng: &mut StdRng) {
        let t = bernoulli_threshold(p);
        let top = (1u64 << 53) - 1;
        let draws = [
            0,
            1,
            2,
            top - 1,
            top,
            t.saturating_sub(1),
            t,
            (t + 1).min(top),
        ];
        let mut words: Vec<u64> = draws.iter().map(|&k| k << 11).collect();
        for word in &mut words {
            *word |= rng.next_u64() >> 53;
        }
        words.extend((0..256).map(|_| rng.next_u64()));
        for word in words {
            assert_eq!(
                word >> 11 < t,
                Word(word).gen_bool(p),
                "p = {p:e} ({:#x}), word {word:#x}",
                p.to_bits()
            );
        }
    }

    #[test]
    fn bernoulli_thresholds_match_gen_bool_on_edge_rates() {
        let mut rng = StdRng::seed_from_u64(0xB17);
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut rates = vec![0.0, -0.0, 1.0, f64::from_bits(1), f64::MIN_POSITIVE];
        for k in [1u64, 2, 3, 1 << 20, (1 << 52) - 1, 1 << 52, (1 << 53) - 1] {
            let p = k as f64 * ulp;
            rates.extend([p, p.next_down(), p.next_up()]);
        }
        rates.extend([1.0f64.next_down(), 0.5, 0.45, 0.75, 1e-9, 1e-3, 0.1]);
        for p in rates.into_iter().filter(|p| (0.0..=1.0).contains(p)) {
            assert_threshold_matches_gen_bool(p, &mut rng);
        }
        assert_eq!(bernoulli_threshold(0.0), 0);
        assert_eq!(bernoulli_threshold(1.0), 1 << 53);
        assert_eq!(bernoulli_threshold(f64::from_bits(1)), 1);
    }

    /// The range check `gen_bool` made on every draw now runs once per rate
    /// when a channel is bound (`MemoryExperiment::set_channel` maps every
    /// rate through `bernoulli_threshold`), with the same message. A channel
    /// holding such a rate cannot be built through `noise`'s constructors, so
    /// the check is pinned here, on the function binding calls.
    #[test]
    fn bernoulli_threshold_rejects_what_gen_bool_rejects() {
        for p in [f64::NAN, -1e-300, 1.0f64.next_up(), 1.5, f64::INFINITY] {
            let rejected = std::panic::catch_unwind(|| bernoulli_threshold(p));
            let message = rejected.expect_err("out-of-range rate must panic");
            let text = message
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(text, &format!("gen_bool probability {p} not in [0, 1]"));
        }
    }
}
