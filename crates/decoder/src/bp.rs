//! Min-sum belief propagation over a binary Tanner graph.
//!
//! [`BeliefPropagation`] implements normalized min-sum flooding BP for syndrome
//! decoding: given a parity-check matrix `H`, per-bit prior error probabilities, and a
//! syndrome `s`, it estimates the posterior log-likelihood ratio of each bit being in
//! error and a hard decision `ê`. If `H·ê = s` the decoder has converged; otherwise
//! the caller typically falls back to ordered-statistics decoding ([`crate::osd`]).
//!
//! The Tanner graph is flattened once at construction into a row-interleaved
//! slot layout plus a depth-major column table ([`TannerGraph`]), and the one
//! decode core keeps both message directions in flat `f64` arenas over those
//! slots, borrowed from a caller-owned [`DecoderScratch`] — zero heap
//! allocation per decode in steady state. What depends only on the priors and
//! the graph (channel LLRs, first messages, arena padding) is built once per
//! `(priors, graph)` digest key.
//!
//! The convergence test after each iteration is proportional to the hard
//! decision's weight, not to the matrix: `H` is also stored column-packed,
//! and `H·ê` is the XOR of the packed columns of the decision's set bits
//! (a few columns at physical error rates), compared with the syndrome word
//! by word.
//!
//! The core reads a word-packed syndrome (bit `r & 63` of word `r >> 6` is
//! check `r`) and leaves the word-packed hard decision in the scratch, which
//! is what the bit-sliced Monte-Carlo batch path ([`crate::memory`]) holds
//! anyway. The public entry point
//! ([`BeliefPropagation::decode_with_priors_keyed_into`]) takes a `bool`
//! syndrome: it packs it, runs the same core, and unpacks the hard decision
//! and the posteriors into [`DecoderScratch::error`] and
//! [`DecoderScratch::llrs`].

use crate::scratch::DecoderScratch;
use crate::simd::Simd;
use crate::sparse::{SparseBinMat, TannerGraph, PAD_LANES};

/// A 64-bit FNV-1a digest over the exact bit patterns of a priors vector — the
/// content key of the priors-LLR cache (see
/// [`BeliefPropagation::decode_with_priors_keyed_into`]). Callers that hold a
/// priors buffer across many decodes compute this once per rebuild and pay a
/// single `u64` compare per decode instead of an O(n) float comparison.
pub fn priors_digest(priors: &[f64]) -> u64 {
    let mut hash = noise::fnv::Fnv1a::new();
    for &p in priors {
        hash.write_u64(p.to_bits());
    }
    hash.finish()
}

/// Result of a BP run (owning variant returned by the allocating wrappers).
#[derive(Debug, Clone, PartialEq)]
pub struct BpResult {
    /// Hard-decision error estimate (one entry per column of `H`).
    pub error: Vec<bool>,
    /// Posterior log-likelihood ratios (positive = probably no error).
    pub llrs: Vec<f64>,
    /// Whether the hard decision reproduces the syndrome.
    pub converged: bool,
    /// Number of iterations executed.
    pub iterations: usize,
}

/// Outcome of a scratch-borrowing BP run; the error estimate and posterior LLRs live
/// in the [`DecoderScratch`] that was passed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpStatus {
    /// Whether the hard decision reproduces the syndrome.
    pub converged: bool,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the syndrome lies in the column space of `H`, i.e. some error
    /// pattern produces it. Decided exactly by the left-kernel parities (see
    /// [`BeliefPropagation::new`]); `false` implies `!converged`.
    pub consistent: bool,
}

/// Min-sum normalization (scaling) factor of the check-node messages.
const MIN_SUM_SCALE: f64 = 0.75;

/// Normalized min-sum belief propagation decoder.
#[derive(Debug, Clone)]
pub struct BeliefPropagation {
    h: SparseBinMat,
    graph: TannerGraph,
    max_iterations: usize,
    /// `h` column-packed ([`SparseBinMat::packed_columns`]), so the
    /// convergence test XORs only the columns the hard decision sets.
    columns: Vec<u64>,
    /// Words per packed hard decision: `num_cols.div_ceil(64)`.
    err_words: usize,
    /// A basis of the left kernel of `h` (the `y` with `yᵀH = 0`), packed
    /// check-major 64 vectors at a time: bit `j` of `left_kernel[g * m + r]`
    /// is entry `r` of basis vector `64g + j`. Empty when `h` has full row
    /// rank.
    left_kernel: Vec<u64>,
    /// Which compilation of the [`crate::simd`] kernels `propagate` runs,
    /// decided once at construction ([`Simd::from_env`]).
    simd: Simd,
}

impl BeliefPropagation {
    /// Creates a decoder for the given parity-check matrix, flattening its Tanner
    /// graph once so no per-decode adjacency construction is needed.
    ///
    /// It also computes a basis of the left kernel of `h`. A syndrome `s` is
    /// produced by some error pattern exactly when `y·s = 0` for every basis
    /// vector `y`, so one parity pass per decode proves a syndrome
    /// inconsistent ([`BpStatus::consistent`]). Redundant checks are what make
    /// the kernel non-trivial: the bivariate bicycle codes have 4–6 vectors
    /// per sector, while the hypergraph product codes have full row rank and
    /// pay nothing.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero.
    pub fn new(h: SparseBinMat, max_iterations: usize) -> Self {
        assert!(max_iterations > 0, "need at least one BP iteration");
        let graph = TannerGraph::new(&h);
        let m = h.num_rows();
        let kernel = h.to_bitmat().transpose().null_space();
        let mut left_kernel = vec![0u64; kernel.len().div_ceil(64) * m];
        for (v, y) in kernel.iter().enumerate() {
            for (r, &bit) in y.iter().enumerate() {
                if bit {
                    left_kernel[(v >> 6) * m + r] |= 1 << (v & 63);
                }
            }
        }
        let (columns, err_words) = (h.packed_columns(), h.num_cols().div_ceil(64));
        BeliefPropagation {
            h,
            graph,
            max_iterations,
            columns,
            err_words,
            left_kernel,
            simd: Simd::from_env(),
        }
    }

    /// Overrides the kernel dispatch decided by [`Simd::from_env`] — how tests
    /// and benches run both compilations side by side regardless of
    /// `CYCLONE_SIMD`.
    pub fn with_simd(mut self, simd: Simd) -> Self {
        self.simd = simd;
        self
    }

    /// The kernel dispatch this decoder runs with.
    pub fn simd(&self) -> Simd {
        self.simd
    }

    /// The parity-check matrix.
    pub fn matrix(&self) -> &SparseBinMat {
        &self.h
    }

    /// Runs BP for a syndrome with uniform prior error probability `p`
    /// (allocating convenience wrapper around
    /// [`BeliefPropagation::decode_with_priors_keyed_into`] with constant priors).
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match or `p` is outside `(0, 1)`.
    pub fn decode(&self, syndrome: &[bool], p: f64) -> BpResult {
        let priors = vec![p; self.h.num_cols()];
        let mut scratch = DecoderScratch::new();
        let status = self.decode_with_priors_keyed_into(
            syndrome,
            &priors,
            priors_digest(&priors),
            &mut scratch,
        );
        BpResult {
            error: scratch.error,
            llrs: scratch.llrs,
            converged: status.converged,
            iterations: status.iterations,
        }
    }

    /// Runs BP with per-bit prior error probabilities, borrowing all working
    /// buffers from `scratch`; the error estimate and posterior LLRs are left in
    /// [`DecoderScratch::error`] / [`DecoderScratch::llrs`]. A uniform channel is
    /// a constant priors vector.
    ///
    /// The LLR conversion is cached in the scratch against `key`, a
    /// caller-precomputed [`priors_digest`] of `priors`, so repeated decodes
    /// with the same priors (the Monte-Carlo steady state) pay a single `u64`
    /// compare. `key` must be the digest of `priors`; passing a stale key for a
    /// changed buffer silently decodes with the previously cached LLRs.
    ///
    /// Priors are validated (the `(0, 1)` range check) only when the cache misses
    /// and the LLR conversion actually runs — by construction a hit means an
    /// identical, already-validated vector was converted before.
    ///
    /// This packs the syndrome, runs the word-packed core every decode path
    /// shares, and unpacks its hard decision and posteriors.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match, or — on a cache miss — if a prior is
    /// outside `(0, 1)`.
    pub fn decode_with_priors_keyed_into(
        &self,
        syndrome: &[bool],
        priors: &[f64],
        key: u64,
        scratch: &mut DecoderScratch,
    ) -> BpStatus {
        assert_eq!(
            syndrome.len(),
            self.h.num_rows(),
            "syndrome length must equal number of checks"
        );
        let status = scratch.with_packed_syndrome(syndrome, |packed, scratch| {
            self.decode_packed_keyed_into(packed, priors, key, scratch)
        });
        scratch.unpack_decode(self.h.num_cols());
        status
    }

    /// The word-packed decode core: [`Self::decode_with_priors_keyed_into`]
    /// on a syndrome packed 64 checks per word (`num_rows.div_ceil(64)` words,
    /// zero past the last check). The hard decision is left packed in the
    /// scratch (`err_words`) and the posteriors in its
    /// padded accumulator; neither is unpacked.
    pub(crate) fn decode_packed_keyed_into(
        &self,
        syndrome: &[u64],
        priors: &[f64],
        key: u64,
        scratch: &mut DecoderScratch,
    ) -> BpStatus {
        let n = self.h.num_cols();
        assert_eq!(priors.len(), n, "one prior per variable required");
        debug_assert_eq!(key, priors_digest(priors), "key is not the priors digest");
        if scratch.cached_priors_key != Some((key, self.graph.digest())) {
            self.prime(priors, key, scratch);
        }
        self.propagate(syndrome, scratch)
    }

    /// Builds everything a decode needs that depends only on the priors and
    /// the graph, once per `(priors digest, graph digest)` key: the channel
    /// LLRs (`+∞` past the last column), the first variable→check messages
    /// (`scratch.vtc_init`), the arenas' `+∞` padding and `-0.0` spare cell,
    /// and the posterior buffer's `+∞` tail. The graph digest is in the key
    /// because one scratch may serve the equal-shaped X and Z decoders.
    fn prime(&self, priors: &[f64], key: u64, scratch: &mut DecoderScratch) {
        let graph = &self.graph;
        let (padded_n, arena_len) = (self.err_words * 64, graph.arena_len());
        scratch.channel_llr.ensure_len(padded_n);
        let channel_llr = scratch.channel_llr.as_mut_slice();
        for (llr, &p) in channel_llr.iter_mut().zip(priors) {
            assert!(p > 0.0 && p < 1.0, "priors must be in (0,1)");
            *llr = ((1.0 - p) / p).ln();
        }
        channel_llr[priors.len()..].fill(f64::INFINITY);
        // The first messages are the writeback of all-zero check messages:
        // `llr - 0.0` is `llr` bit for bit, at every real slot.
        scratch.ctv_lanes.ensure_len(arena_len);
        let check_to_var = scratch.ctv_lanes.as_mut_slice();
        check_to_var.fill(0.0);
        scratch.vtc_init.ensure_len(arena_len);
        let init = scratch.vtc_init.as_mut_slice();
        init.fill(f64::INFINITY);
        let (col_ptr, col_slots) = (graph.col_ptr(), graph.col_slots());
        self.simd
            .var_writeback(col_ptr, col_slots, channel_llr, check_to_var, init);
        check_to_var[graph.num_interleaved_slots()] = -0.0;
        scratch.vtc_lanes.ensure_len(arena_len);
        scratch.vtc_lanes.as_mut_slice().copy_from_slice(init);
        scratch.llrs_pad.ensure_len(padded_n);
        scratch.llrs_pad.as_mut_slice().copy_from_slice(channel_llr);
        scratch.cached_priors_key = Some((key, graph.digest()));
        scratch.priors_rebuilds += 1;
    }

    /// The flooding min-sum schedule over the two lane layouts of
    /// [`TannerGraph`]: the check-node pass (lane = check), the variable-node
    /// pass and its writeback (lane = column), and the hard-decision packing
    /// all run in the [`crate::simd`] kernels, in the compilation the
    /// construction-time [`Simd`] chose.
    ///
    /// Byte-identity with the per-row scalar reference (property-pinned in
    /// `tests/properties.rs` against `tests/oracle/bp.rs`) rests on four
    /// invariants:
    ///
    /// * each check-pass lane runs one check's reduction in isolation — the
    ///   exact strict-`<` two-min ladder and sign-parity XOR of the scalar row
    ///   loop, over that row's messages in row order — so no cross-lane
    ///   (horizontal) combining ever happens;
    /// * each variable-pass lane adds one column's messages to its channel LLR
    ///   in ascending check order, the order of the scalar row-major sweep,
    ///   then adds `-0.0` from the spare cell for each padding entry, which
    ///   changes no bit;
    /// * padding slots hold `+∞` with a positive sign — the neutral element of
    ///   both check-pass reductions — set by [`Self::prime`] and never
    ///   written again, because the writeback touches only real slots and the
    ///   spare cell;
    /// * the check pass emits `scaled2` at every lane position whose magnitude
    ///   *equals* the row minimum (the scalar row excludes only the first such
    ///   index) — identical bits, because tied magnitudes force `min2 == min1`
    ///   and hence `scaled2 == scaled1`.
    ///
    /// Signs are handled branchlessly: parity is over `msg < 0.0` (NOT the IEEE
    /// sign bit — `-0.0` stays "positive"), and each output is
    /// `±(scale · mag_excl)`, exact because IEEE multiplication signs are the
    /// XOR of the operand signs. Convergence XORs the packed columns of the
    /// hard decision's set bits into `H·ê` and compares it with the syndrome
    /// word by word — pure boolean parity, in work proportional to the
    /// decision's weight.
    ///
    /// A syndrome outside the column space of `H` (a flipped check measurement
    /// routinely puts it there) can never be reproduced, and the left-kernel
    /// parity proves it before the first iteration. Such a decode skips the
    /// hard-decision packing and the convergence test on every iteration but
    /// the last, which packs the hard decision it returns; the message passes
    /// run unchanged, so the posteriors, hard decision and iteration count are
    /// exactly those of a decode that tested every iteration and failed.
    ///
    /// On return the hard decision is in `scratch.err_words` and the
    /// posteriors in `scratch.llrs_pad[..n]` (the writeback of the final
    /// iteration is skipped, so nothing overwrites them).
    // cyclone-lint: hot-path
    fn propagate(&self, syndrome: &[u64], scratch: &mut DecoderScratch) -> BpStatus {
        let m = self.h.num_rows();
        let graph = &self.graph;
        assert_eq!(
            syndrome.len(),
            m.div_ceil(64),
            "packed syndrome must hold one bit per check"
        );
        debug_assert!(
            m % 64 == 0 || syndrome.last().is_none_or(|&w| w >> (m % 64) == 0),
            "bits past the last check must be zero"
        );

        scratch
            .syn_mask
            .ensure_len(graph.num_row_groups() * PAD_LANES);
        if scratch.err_words.len() != self.err_words {
            scratch.err_words.resize(self.err_words, 0);
        }
        scratch.parity.resize(syndrome.len(), 0);

        // `prime` sized the arenas and set their padding for this graph.
        let first_messages = scratch.vtc_init.as_slice();
        let check_to_var = scratch.ctv_lanes.as_mut_slice();
        let var_to_check = scratch.vtc_lanes.as_mut_slice();
        let channel_llr = scratch.channel_llr.as_slice();
        let llrs_pad = scratch.llrs_pad.as_mut_slice();
        let syn_mask = scratch.syn_mask.as_mut_slice();
        let err_words = &mut scratch.err_words;
        let parity = &mut scratch.parity;
        let (group_ptr, col_ptr, col_slots) =
            (graph.group_ptr(), graph.col_ptr(), graph.col_slots());
        let simd = self.simd;
        let scale = MIN_SUM_SCALE;

        // Per-decode init: the syndrome is constant across iterations, so its
        // lane masks are built once (phantom lanes past `m` read zero bits).
        for (lanes, &word) in syn_mask.chunks_mut(64).zip(syndrome) {
            for (b, lane) in lanes.iter_mut().enumerate() {
                *lane = ((word >> b) & 1).wrapping_neg();
            }
        }
        // Consistency: every left-kernel vector has even parity with the
        // syndrome (`syn_mask` selects the kernel bits of the set checks).
        let consistent = self.left_kernel.chunks_exact(m.max(1)).all(|group| {
            let odd = group
                .iter()
                .zip(syn_mask.iter())
                .fold(0u64, |acc, (&k, &s)| acc ^ (k & s));
            odd == 0
        });

        for iteration in 1..=self.max_iterations {
            // The first check pass reads the primed first messages directly.
            let source = if iteration == 1 {
                first_messages
            } else {
                &*var_to_check
            };
            simd.check_pass(syn_mask, group_ptr, source, check_to_var, scale);
            simd.var_pass(col_ptr, col_slots, channel_llr, check_to_var, llrs_pad);
            let last = iteration == self.max_iterations;
            // An inconsistent syndrome cannot converge: only the hard decision
            // it returns, the last one, is packed, and nothing is tested.
            if consistent || last {
                simd.hard_decision(llrs_pad, err_words);
            }
            // Convergence: does the hard decision reproduce the syndrome?
            let matches = consistent && {
                column_parity(&self.columns, err_words, parity);
                parity[..] == syndrome[..]
            };
            if matches {
                return BpStatus {
                    converged: true,
                    iterations: iteration,
                    consistent,
                };
            }
            // Variable→check writeback feeds only the *next* check pass, so it
            // is skipped when this was the last iteration — output-invariant,
            // and it removes one full edge sweep from every converging decode.
            if !last {
                simd.var_writeback(col_ptr, col_slots, llrs_pad, check_to_var, var_to_check);
            }
        }
        BpStatus {
            converged: false,
            iterations: self.max_iterations,
            consistent,
        }
    }
    // cyclone-lint: end-hot-path
}

/// `H·e` for a word-packed `e`, from the column-packed `H` of
/// [`BeliefPropagation`]: the XOR of the columns of the set bits of `e`,
/// written packed into `parity` (`parity.len()` words per column). The
/// work is proportional to the weight of `e`, not to the size of `H`.
// cyclone-lint: hot-path
fn column_parity(columns: &[u64], e: &[u64], parity: &mut [u64]) {
    let syn_words = parity.len();
    parity.fill(0);
    for (w, &word) in e.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let c = (w << 6) | bits.trailing_zeros() as usize;
            let column = &columns[c * syn_words..(c + 1) * syn_words];
            for (p, &v) in parity.iter_mut().zip(column) {
                *p ^= v;
            }
            bits &= bits - 1;
        }
    }
}
// cyclone-lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use qec::linalg::BitMat;

    fn repetition_check(n: usize) -> SparseBinMat {
        let rows: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        SparseBinMat::from_row_supports(n, rows)
    }

    #[test]
    fn zero_syndrome_decodes_to_zero() {
        let h = repetition_check(7);
        let bp = BeliefPropagation::new(h.clone(), 20);
        let result = bp.decode(&[false; 6], 0.01);
        assert!(result.converged);
        assert!(result.error.iter().all(|&b| !b));
    }

    #[test]
    fn single_error_recovered() {
        let h = repetition_check(7);
        let bp = BeliefPropagation::new(h.clone(), 30);
        let mut e = vec![false; 7];
        e[3] = true;
        let s = h.syndrome(&e);
        let result = bp.decode(&s, 0.05);
        assert!(result.converged);
        assert_eq!(result.error, e);
    }

    #[test]
    fn boundary_error_recovered() {
        let h = repetition_check(5);
        let bp = BeliefPropagation::new(h.clone(), 30);
        let mut e = vec![false; 5];
        e[0] = true;
        let s = h.syndrome(&e);
        let result = bp.decode(&s, 0.05);
        assert!(result.converged);
        assert_eq!(result.error, e);
    }

    #[test]
    fn hamming_code_single_errors() {
        let hm = BitMat::from_dense(&[
            vec![1, 0, 1, 0, 1, 0, 1],
            vec![0, 1, 1, 0, 0, 1, 1],
            vec![0, 0, 0, 1, 1, 1, 1],
        ]);
        let h = SparseBinMat::from_bitmat(&hm);
        let bp = BeliefPropagation::new(h.clone(), 50);
        for i in 0..7 {
            let mut e = vec![false; 7];
            e[i] = true;
            let s = h.syndrome(&e);
            let r = bp.decode(&s, 0.02);
            assert!(r.converged, "bit {i} did not converge");
            assert_eq!(h.syndrome(&r.error), s, "bit {i} wrong syndrome");
        }
    }

    /// One scratch decode through the keyed entry point.
    fn decode_keyed(
        bp: &BeliefPropagation,
        s: &[bool],
        priors: &[f64],
        scratch: &mut DecoderScratch,
    ) -> BpStatus {
        bp.decode_with_priors_keyed_into(s, priors, priors_digest(priors), scratch)
    }

    /// The error estimate of a fresh-scratch decode.
    fn fresh_error(bp: &BeliefPropagation, s: &[bool], priors: &[f64]) -> Vec<bool> {
        let mut scratch = DecoderScratch::new();
        decode_keyed(bp, s, priors, &mut scratch);
        scratch.error
    }

    #[test]
    fn priors_bias_the_decision() {
        // Two bits checked by one parity: the syndrome says exactly one is flipped;
        // the bit with the much larger prior should be chosen.
        let h = SparseBinMat::from_row_supports(2, vec![vec![0, 1]]);
        let bp = BeliefPropagation::new(h, 10);
        let mut scratch = DecoderScratch::new();
        let r = decode_keyed(&bp, &[true], &[0.3, 0.001], &mut scratch);
        assert!(r.converged);
        assert_eq!(scratch.error(), [true, false]);
    }

    #[test]
    #[should_panic(expected = "priors must be in")]
    fn invalid_prior_rejected() {
        let h = repetition_check(3);
        let bp = BeliefPropagation::new(h, 5);
        let _ = fresh_error(&bp, &[false, false], &[0.0, 0.5, 0.5]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_decode() {
        let h = repetition_check(7);
        let bp = BeliefPropagation::new(h.clone(), 30);
        let mut scratch = DecoderScratch::new();
        for bit in 0..7 {
            let mut e = vec![false; 7];
            e[bit] = true;
            let s = h.syndrome(&e);
            let fresh = bp.decode(&s, 0.05);
            let status = decode_keyed(&bp, &s, &[0.05; 7], &mut scratch);
            assert_eq!(status.converged, fresh.converged);
            assert_eq!(status.iterations, fresh.iterations);
            assert_eq!(scratch.error(), fresh.error.as_slice());
            assert_eq!(scratch.llrs(), fresh.llrs.as_slice());
        }
    }

    #[test]
    fn uniform_llr_cache_invalidated_by_p_and_priors() {
        let h = repetition_check(5);
        let bp = BeliefPropagation::new(h.clone(), 20);
        let mut e = vec![false; 5];
        e[2] = true;
        let s = h.syndrome(&e);
        let mut scratch = DecoderScratch::new();
        let a = decode_keyed(&bp, &s, &[0.05; 5], &mut scratch);
        // A different constant p must refresh the cached channel LLR.
        let b = decode_keyed(&bp, &s, &[0.01; 5], &mut scratch);
        assert_eq!(scratch.error(), bp.decode(&s, 0.01).error.as_slice());
        // A per-bit priors decode in between must not poison the cache.
        let _ = decode_keyed(&bp, &s, &[0.3, 0.2, 0.3, 0.3, 0.3], &mut scratch);
        let c = decode_keyed(&bp, &s, &[0.05; 5], &mut scratch);
        assert_eq!(a.converged, c.converged);
        assert_eq!(a.iterations, c.iterations);
        assert_eq!(scratch.error(), bp.decode(&s, 0.05).error.as_slice());
        assert!(b.converged);
    }

    #[test]
    fn priors_llr_cache_hits_and_invalidates() {
        // The per-bit-priors LLR conversion is cached against a content digest;
        // repeated decodes with equal priors hit (the rebuild counter stays put),
        // and any interleaving with different priors rebuilds correctly.
        let h = repetition_check(5);
        let bp = BeliefPropagation::new(h.clone(), 20);
        let mut e = vec![false; 5];
        e[1] = true;
        let s = h.syndrome(&e);
        let priors_a = vec![0.05, 0.05, 0.2, 0.05, 0.05];
        let priors_b = vec![0.01; 5];
        let mut scratch = DecoderScratch::new();

        let first = decode_keyed(&bp, &s, &priors_a, &mut scratch);
        assert_eq!(scratch.priors_rebuilds(), 1);
        let llr_after_first = scratch.channel_llr.as_slice().to_vec();
        // Same priors again: the cached LLRs are reused and the result is stable.
        let second = decode_keyed(&bp, &s, &priors_a, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(scratch.priors_rebuilds(), 1);
        assert_eq!(scratch.channel_llr.as_slice(), llr_after_first);
        assert_eq!(scratch.error(), fresh_error(&bp, &s, &priors_a));
        // A *rebuilt* but value-equal buffer hits too — the digest keys on content,
        // not on the caller's allocation.
        let rebuilt = priors_a.clone();
        let _ = decode_keyed(&bp, &s, &rebuilt, &mut scratch);
        assert_eq!(scratch.priors_rebuilds(), 1);

        // Different priors must rebuild ...
        let _ = decode_keyed(&bp, &s, &priors_b, &mut scratch);
        assert_eq!(scratch.priors_rebuilds(), 2);
        assert_eq!(scratch.error(), fresh_error(&bp, &s, &priors_b));
        // ... and switching back rebuilds again, to the same answer.
        let after_b = decode_keyed(&bp, &s, &priors_a, &mut scratch);
        assert_eq!(after_b, first);
        assert_eq!(scratch.priors_rebuilds(), 3);
        assert_eq!(scratch.error(), fresh_error(&bp, &s, &priors_a));
    }

    #[test]
    fn scratch_bounced_between_sectors_matches_fresh_scratch() {
        // The X and Z decoders of [[72,12,6]] have equal shapes and, here,
        // equal per-bit priors: only the graph digest in the priming key tells
        // their first messages apart (each real slot holds its own column's
        // channel LLR).
        let code = qec::codes::bb_72_12_6().expect("valid");
        let sectors = [code.hz(), code.hx()]
            .map(|h| BeliefPropagation::new(SparseBinMat::from_bitmat(h), 30));
        let n = code.num_qubits();
        let priors: Vec<f64> = (0..n).map(|q| 0.01 + 0.01 * (q % 5) as f64).collect();
        let mut bounced = DecoderScratch::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for shot in 0..24 {
            let error: Vec<bool> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    (state >> 33) % 32 == 0
                })
                .collect();
            let bp = &sectors[shot % 2];
            let s = bp.matrix().syndrome(&error);
            let got = decode_keyed(bp, &s, &priors, &mut bounced);
            let mut fresh = DecoderScratch::new();
            let want = decode_keyed(bp, &s, &priors, &mut fresh);
            assert_eq!(got, want, "shot {shot}");
            assert_eq!(bounced.error(), fresh.error(), "shot {shot}");
            let bits = |llrs: &[f64]| llrs.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(bounced.llrs()), bits(fresh.llrs()), "shot {shot}");
        }
        // Every bounce changed the graph, so every decode primed anew.
        assert_eq!(bounced.priors_rebuilds(), 24);
    }

    #[test]
    fn column_packed_parity_matches_the_row_mask_loop() {
        // The convergence test's `H·ê`, from the columns of the set bits,
        // against the row-mask loop it replaced: each check's word-packed row
        // ANDed with the decision, parity by popcount.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (m, n) in [
            (70usize, 128usize),
            (130, 100),
            (65, 64),
            (36, 72),
            (129, 193),
        ] {
            let rows: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let mut row: Vec<usize> = (0..n).filter(|_| next() % 11 == 0).collect();
                    row.push((next() % n as u64) as usize);
                    row.sort_unstable();
                    row.dedup();
                    row
                })
                .collect();
            let h = SparseBinMat::from_row_supports(n, rows);
            let bp = BeliefPropagation::new(h.clone(), 1);
            let words = n.div_ceil(64);
            let mut row_masks = vec![0u64; m * words];
            for r in 0..m {
                for &c in h.row(r) {
                    row_masks[r * words + (c >> 6)] |= 1 << (c & 63);
                }
            }
            let tail = |e: &mut Vec<u64>| {
                if n % 64 != 0 {
                    e[words - 1] &= (1u64 << (n % 64)) - 1;
                }
            };
            let mut decisions: Vec<Vec<u64>> = vec![vec![0; words], vec![u64::MAX; words]];
            for k in [1, 3, 6] {
                for _ in 0..16 {
                    // Each bit set with probability 2^-k: dense (a coin flip)
                    // to sparse (one in 64).
                    decisions.push(
                        (0..words)
                            .map(|_| (0..k).fold(u64::MAX, |acc, _| acc & next()))
                            .collect(),
                    );
                }
            }
            for mut e in decisions {
                tail(&mut e);
                let mut want = vec![0u64; m.div_ceil(64)];
                for (r, mask) in row_masks.chunks_exact(words).enumerate() {
                    let acc = mask
                        .iter()
                        .zip(&e)
                        .fold(0u64, |acc, (&mw, &ew)| acc ^ (mw & ew));
                    want[r >> 6] |= u64::from(acc.count_ones() & 1) << (r & 63);
                }
                let mut got = vec![u64::MAX; m.div_ceil(64)];
                column_parity(&bp.columns, &e, &mut got);
                assert_eq!(got, want, "m = {m}, n = {n}, e = {e:x?}");
            }
        }
    }

    #[test]
    fn priors_digest_is_content_sensitive() {
        let a = priors_digest(&[0.1, 0.2]);
        assert_eq!(a, priors_digest(&[0.1, 0.2]));
        assert_ne!(a, priors_digest(&[0.2, 0.1]));
        assert_ne!(a, priors_digest(&[0.1, 0.2000001]));
        assert_ne!(a, priors_digest(&[0.1]));
    }
}
