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
//! The one decode core is a **queue decoder** over word-packed syndromes
//! (bit `r & 63` of word `r >> 6` is check `r`),
//! `BeliefPropagation::decode_queue_packed`, behind
//! [`crate::bposd::BpOsdDecoder::decode_queue_packed`]. The bit-sliced
//! Monte-Carlo batch path ([`crate::memory`]) hands it a sector batch's
//! distinct cache misses; the `bool` entry point
//! ([`BeliefPropagation::decode_with_priors_keyed_into`]) packs its syndrome,
//! decodes it as a queue of one, and unpacks the hard decision and the
//! posteriors into [`DecoderScratch::error`] and [`DecoderScratch::llrs`].
//!
//! Under measurement noise most BP iterations belong to inconsistent
//! syndromes, which never converge and run every iteration; the queue runs
//! those in **lockstep groups** of [`LOCKSTEP_LANES`], one SIMD lane each,
//! through the lockstep kernels over arenas in the same interleaved slot
//! numbering with one `f64` per lane. Each lane runs exactly the
//! single-syndrome arithmetic, so it is bit-identical to it. Consistent
//! syndromes, and a last group of fewer than
//! [`Simd::min_lockstep_lanes`] (so every queue of one), decode one at a
//! time.

use crate::scratch::{DecoderScratch, LockstepArenas};
use crate::simd::{Simd, LOCKSTEP_LANES};
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

/// The lockstep queue decoder's view of [`TannerGraph`]'s interleaved slot
/// numbering, padding left out: check `r`'s real slots in row order are
/// `row_slots[row_ptr[r]..row_ptr[r + 1]]`, and column `c`'s in ascending
/// check order are `col_slots[col_ptr[c]..col_ptr[c + 1]]`.
#[derive(Debug, Clone)]
struct LaneTables {
    row_ptr: Vec<usize>,
    row_slots: Vec<u32>,
    col_ptr: Vec<usize>,
    col_slots: Vec<u32>,
}

impl LaneTables {
    fn new(h: &SparseBinMat, graph: &TannerGraph) -> Self {
        let (mut row_ptr, mut row_slots) = (vec![0], Vec::new());
        for r in 0..h.num_rows() {
            let base = graph.group_ptr()[r / PAD_LANES] + r % PAD_LANES;
            row_slots.extend((0..h.row(r).len()).map(|j| (base + j * PAD_LANES) as u32));
            row_ptr.push(row_slots.len());
        }
        let (mut col_ptr, mut col_slots) = (vec![0], Vec::new());
        for c in 0..h.num_cols() {
            let base = graph.col_ptr()[c / PAD_LANES] + c % PAD_LANES;
            col_slots.extend((0..h.col(c).len()).map(|j| graph.col_slots()[base + j * PAD_LANES]));
            col_ptr.push(col_slots.len());
        }
        LaneTables {
            row_ptr,
            row_slots,
            col_ptr,
            col_slots,
        }
    }
}

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
    /// The slot tables of the lockstep queue decoder.
    lanes: LaneTables,
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
        let lanes = LaneTables::new(&h, &graph);
        BeliefPropagation {
            lanes,
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
    /// and benches run every compilation side by side regardless of
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
    /// This packs the syndrome, decodes it as a queue of one
    /// ([`crate::bposd::BpOsdDecoder::decode_queue_packed`] has the public
    /// queue), and unpacks its hard decision and posteriors.
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
        let mut status = None;
        scratch.with_packed_syndrome(syndrome, |packed, scratch| {
            self.decode_queue_packed(packed, priors, key, scratch, |_, s, _| status = Some(s))
        });
        scratch.unpack_decode(self.h.num_cols());
        status.expect("a queue of one decodes once")
    }

    /// The one decode core: decodes a queue of word-packed syndromes
    /// (`num_rows.div_ceil(64)` words each, zero past the last check) and
    /// hands each result to `done` with its queue index. When `done` runs,
    /// `scratch` holds that decode's hard decision, packed in
    /// `scratch.err_words`, and its posteriors, in `scratch.llrs_pad[..n]`.
    /// Returns how many syndromes ran in lockstep groups. An `H` without
    /// checks has one syndrome, the empty one, so its queue holds no words
    /// and is one decode.
    ///
    /// Lockstep groups are for the decodes that provably run every
    /// iteration: the inconsistent syndromes, which the left-kernel parity
    /// finds before the first iteration. A consistent syndrome decodes on
    /// the single-syndrome loop ([`Self::propagate`]) at once, because most
    /// converge within a few iterations, where moving one in and out of a
    /// lane costs more than lockstep saves. The inconsistent ones gather into groups of
    /// [`LOCKSTEP_LANES`], one lane each, which run every iteration together
    /// in the lockstep kernels of [`crate::simd`]: their arenas use the
    /// interleaved slot numbering of [`TannerGraph`], slot-major with one
    /// `f64` per lane, so each lane runs its checks in row order and sums its
    /// columns in ascending check order, skipping padding. That is the
    /// arithmetic of the single-syndrome loop, so every lane is bit-identical
    /// to it. A last group shorter than [`Simd::min_lockstep_lanes`] decodes
    /// on the single-syndrome loop instead.
    ///
    /// # Panics
    ///
    /// Panics if `syndromes` is not a whole number of syndromes, or as
    /// [`Self::decode_with_priors_keyed_into`] does.
    // cyclone-lint: hot-path
    pub(crate) fn decode_queue_packed(
        &self,
        syndromes: &[u64],
        priors: &[f64],
        key: u64,
        scratch: &mut DecoderScratch,
        mut done: impl FnMut(usize, BpStatus, &mut DecoderScratch),
    ) -> u64 {
        let words = self.h.num_rows().div_ceil(64);
        let count = syndromes.len().checked_div(words).unwrap_or(1);
        assert_eq!(
            syndromes.len(),
            count * words,
            "the queue holds whole packed syndromes"
        );
        assert_eq!(
            priors.len(),
            self.h.num_cols(),
            "one prior per variable required"
        );
        debug_assert_eq!(key, priors_digest(priors), "key is not the priors digest");
        if scratch.cached_priors_key != Some((key, self.graph.digest())) {
            self.prime(priors, key, scratch);
        }
        let mut arenas = std::mem::take(&mut scratch.lockstep);
        let (mut group, mut len, mut grouped) = ([0usize; LOCKSTEP_LANES], 0, 0u64);
        for index in 0..count {
            let syndrome = &syndromes[index * words..(index + 1) * words];
            let consistent = self.prepare(syndrome, scratch);
            if consistent {
                let status = self.propagate(syndrome, scratch, consistent);
                done(index, status, scratch);
                continue;
            }
            group[len] = index;
            len += 1;
            if len == LOCKSTEP_LANES {
                self.run_group(&group, syndromes, scratch, &mut arenas, &mut done);
                grouped += len as u64;
                len = 0;
            }
        }
        if len >= self.simd.min_lockstep_lanes() {
            self.run_group(&group[..len], syndromes, scratch, &mut arenas, &mut done);
            grouped += len as u64;
        } else {
            for &index in &group[..len] {
                let syndrome = &syndromes[index * words..(index + 1) * words];
                self.prepare(syndrome, scratch);
                let status = self.propagate(syndrome, scratch, false);
                done(index, status, scratch);
            }
        }
        scratch.lockstep = arenas;
        grouped
    }

    /// Decodes one group of inconsistent syndromes (queue indices into
    /// `syndromes`), one lane each, through all iterations, and hands each
    /// result to `done`. A short group fills its spare lanes with its last
    /// syndrome, whose extra results are dropped.
    fn run_group(
        &self,
        group: &[usize],
        syndromes: &[u64],
        scratch: &mut DecoderScratch,
        arenas: &mut LockstepArenas,
        done: &mut impl FnMut(usize, BpStatus, &mut DecoderScratch),
    ) {
        let (words, n) = (self.h.num_rows().div_ceil(64), self.h.num_cols());
        self.size_lockstep(arenas);
        for (lane, &index) in group.iter().enumerate() {
            self.prepare(&syndromes[index * words..(index + 1) * words], scratch);
            self.load_lane(lane, scratch, arenas);
        }
        for lane in group.len()..LOCKSTEP_LANES {
            self.load_lane(lane, scratch, arenas);
        }
        let max = self.max_iterations;
        for iteration in 1..=max {
            // Only the last iteration's posteriors and hard decision are
            // returned.
            self.lockstep_iteration(arenas, scratch.channel_llr.as_slice(), iteration == max);
        }
        for (lane, &index) in group.iter().enumerate() {
            let decisions = arenas.err_words.chunks_exact(LOCKSTEP_LANES);
            for (word, lanes) in scratch.err_words.iter_mut().zip(decisions) {
                *word = lanes[lane];
            }
            let posteriors = arenas.posteriors.as_slice().chunks_exact(LOCKSTEP_LANES);
            for (llr, column) in scratch.llrs_pad.as_mut_slice()[..n]
                .iter_mut()
                .zip(posteriors)
            {
                *llr = column[lane];
            }
            let status = BpStatus {
                converged: false,
                iterations: max,
                consistent: false,
            };
            done(index, status, scratch);
        }
    }

    /// Sizes the lockstep arenas for this graph (a no-op in steady state)
    /// and sets the posteriors' `+∞` tail.
    fn size_lockstep(&self, arenas: &mut LockstepArenas) {
        let slots = self.graph.num_interleaved_slots() * LOCKSTEP_LANES;
        arenas.var_to_check.ensure_len(slots);
        arenas.check_to_var.ensure_len(slots);
        arenas
            .posteriors
            .ensure_len(self.err_words * 64 * LOCKSTEP_LANES);
        arenas.posteriors.as_mut_slice()[self.h.num_cols() * LOCKSTEP_LANES..].fill(f64::INFINITY);
        arenas
            .syn_masks
            .ensure_len(self.h.num_rows() * LOCKSTEP_LANES);
        arenas.err_words.resize(self.err_words * LOCKSTEP_LANES, 0);
    }

    /// Starts the decode [`Self::prepare`]d in `scratch` in lane `lane`: its
    /// syndrome masks, and the primed first messages at every real slot.
    fn load_lane(&self, lane: usize, scratch: &DecoderScratch, arenas: &mut LockstepArenas) {
        let masks = arenas.syn_masks.as_mut_slice();
        for (masks, &mask) in masks
            .chunks_exact_mut(LOCKSTEP_LANES)
            .zip(scratch.syn_mask.as_slice())
        {
            masks[lane] = mask;
        }
        let first_messages = scratch.vtc_init.as_slice();
        let var_to_check = arenas.var_to_check.as_mut_slice();
        for &slot in &self.lanes.row_slots {
            let slot = slot as usize;
            var_to_check[slot * LOCKSTEP_LANES + lane] = first_messages[slot];
        }
    }

    /// One iteration of every lane: the check pass and the variable pass
    /// with its writeback, or, when `last`, the variable pass's posteriors
    /// and each lane's packed hard decision.
    fn lockstep_iteration(&self, arenas: &mut LockstepArenas, channel_llr: &[f64], last: bool) {
        let (tables, simd) = (&self.lanes, self.simd);
        simd.lockstep_check_pass(
            arenas.syn_masks.as_slice(),
            &tables.row_ptr,
            &tables.row_slots,
            arenas.var_to_check.as_slice(),
            arenas.check_to_var.as_mut_slice(),
            MIN_SUM_SCALE,
        );
        simd.lockstep_var_pass(
            &tables.col_ptr,
            &tables.col_slots,
            channel_llr,
            arenas.check_to_var.as_slice(),
            arenas.var_to_check.as_mut_slice(),
            arenas.posteriors.as_mut_slice(),
            last,
        );
        if last {
            simd.lockstep_hard_decision(arenas.posteriors.as_slice(), &mut arenas.err_words);
        }
    }
    // cyclone-lint: end-hot-path

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
    ///
    /// A decode runs [`Self::prepare`] for its syndrome first, which builds
    /// the syndrome's lane masks and finds `consistent`.
    // cyclone-lint: hot-path
    fn propagate(
        &self,
        syndrome: &[u64],
        scratch: &mut DecoderScratch,
        consistent: bool,
    ) -> BpStatus {
        let graph = &self.graph;
        // `prime` sized the arenas and set their padding for this graph.
        let first_messages = scratch.vtc_init.as_slice();
        let check_to_var = scratch.ctv_lanes.as_mut_slice();
        let var_to_check = scratch.vtc_lanes.as_mut_slice();
        let channel_llr = scratch.channel_llr.as_slice();
        let llrs_pad = scratch.llrs_pad.as_mut_slice();
        let syn_mask = scratch.syn_mask.as_slice();
        let err_words = &mut scratch.err_words;
        let parity = &mut scratch.parity;
        let (group_ptr, col_ptr, col_slots) =
            (graph.group_ptr(), graph.col_ptr(), graph.col_slots());
        let simd = self.simd;
        let scale = MIN_SUM_SCALE;

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

    /// The per-decode set-up of [`Self::propagate`]: sizes the decision and
    /// parity buffers and builds the syndrome's per-check lane masks
    /// (`scratch.syn_mask`; the syndrome is constant across iterations, and
    /// phantom lanes past `m` read zero bits). Returns the left-kernel
    /// verdict: whether the syndrome is consistent.
    fn prepare(&self, syndrome: &[u64], scratch: &mut DecoderScratch) -> bool {
        let m = self.h.num_rows();
        assert_eq!(
            syndrome.len(),
            m.div_ceil(64),
            "packed syndrome must hold one bit per check"
        );
        debug_assert!(
            m.is_multiple_of(64) || syndrome.last().is_none_or(|&w| w >> (m % 64) == 0),
            "bits past the last check must be zero"
        );
        scratch
            .syn_mask
            .ensure_len(self.graph.num_row_groups() * PAD_LANES);
        if scratch.err_words.len() != self.err_words {
            scratch.err_words.resize(self.err_words, 0);
        }
        scratch.parity.resize(syndrome.len(), 0);
        let syn_mask = scratch.syn_mask.as_mut_slice();
        for (lanes, &word) in syn_mask.chunks_mut(64).zip(syndrome) {
            for (b, lane) in lanes.iter_mut().enumerate() {
                *lane = ((word >> b) & 1).wrapping_neg();
            }
        }
        // Consistency: every left-kernel vector has even parity with the
        // syndrome (`syn_mask` selects the kernel bits of the set checks).
        self.left_kernel.chunks_exact(m.max(1)).all(|group| {
            let odd = group
                .iter()
                .zip(syn_mask.iter())
                .fold(0u64, |acc, (&k, &s)| acc ^ (k & s));
            odd == 0
        })
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

    /// One scratch decode through the keyed entry point.
    fn decode_keyed(
        bp: &BeliefPropagation,
        s: &[bool],
        priors: &[f64],
        scratch: &mut DecoderScratch,
    ) -> BpStatus {
        bp.decode_with_priors_keyed_into(s, priors, priors_digest(priors), scratch)
    }

    /// A fresh-scratch decode at constant prior `p`, and the scratch holding
    /// its hard decision and posteriors.
    fn decode_uniform(bp: &BeliefPropagation, s: &[bool], p: f64) -> (BpStatus, DecoderScratch) {
        let mut scratch = DecoderScratch::new();
        let status = decode_keyed(bp, s, &vec![p; bp.matrix().num_cols()], &mut scratch);
        (status, scratch)
    }

    /// The error estimate of a fresh-scratch decode.
    fn fresh_error(bp: &BeliefPropagation, s: &[bool], priors: &[f64]) -> Vec<bool> {
        let mut scratch = DecoderScratch::new();
        decode_keyed(bp, s, priors, &mut scratch);
        scratch.error
    }

    #[test]
    fn zero_syndrome_decodes_to_zero() {
        let h = repetition_check(7);
        let bp = BeliefPropagation::new(h.clone(), 20);
        let (status, scratch) = decode_uniform(&bp, &[false; 6], 0.01);
        assert!(status.converged);
        assert!(scratch.error().iter().all(|&b| !b));
    }

    #[test]
    fn a_matrix_without_checks_decodes_its_empty_syndrome() {
        // One syndrome, the empty one: the queue of one holds no words. The
        // first iteration's hard decision (each prior's sign) reproduces it.
        let bp = BeliefPropagation::new(SparseBinMat::from_row_supports(3, Vec::new()), 20);
        let mut scratch = DecoderScratch::new();
        let status = decode_keyed(&bp, &[], &[0.1, 0.7, 0.2], &mut scratch);
        assert!(status.converged && status.consistent);
        assert_eq!(status.iterations, 1);
        assert_eq!(scratch.error(), [false, true, false]);
    }

    #[test]
    fn single_error_recovered() {
        let h = repetition_check(7);
        let bp = BeliefPropagation::new(h.clone(), 30);
        let mut e = vec![false; 7];
        e[3] = true;
        let s = h.syndrome(&e);
        let (status, scratch) = decode_uniform(&bp, &s, 0.05);
        assert!(status.converged);
        assert_eq!(scratch.error(), e);
    }

    #[test]
    fn boundary_error_recovered() {
        let h = repetition_check(5);
        let bp = BeliefPropagation::new(h.clone(), 30);
        let mut e = vec![false; 5];
        e[0] = true;
        let s = h.syndrome(&e);
        let (status, scratch) = decode_uniform(&bp, &s, 0.05);
        assert!(status.converged);
        assert_eq!(scratch.error(), e);
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
            let (status, scratch) = decode_uniform(&bp, &s, 0.02);
            assert!(status.converged, "bit {i} did not converge");
            assert_eq!(h.syndrome(scratch.error()), s, "bit {i} wrong syndrome");
        }
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
            let (want, fresh) = decode_uniform(&bp, &s, 0.05);
            let status = decode_keyed(&bp, &s, &[0.05; 7], &mut scratch);
            assert_eq!(status, want);
            assert_eq!(scratch.error(), fresh.error());
            assert_eq!(scratch.llrs(), fresh.llrs());
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
        assert_eq!(scratch.error(), fresh_error(&bp, &s, &[0.01; 5]));
        // A per-bit priors decode in between must not poison the cache.
        let _ = decode_keyed(&bp, &s, &[0.3, 0.2, 0.3, 0.3, 0.3], &mut scratch);
        let c = decode_keyed(&bp, &s, &[0.05; 5], &mut scratch);
        assert_eq!(a.converged, c.converged);
        assert_eq!(a.iterations, c.iterations);
        assert_eq!(scratch.error(), fresh_error(&bp, &s, &[0.05; 5]));
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
                    (state >> 33).is_multiple_of(32)
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
    fn lockstep_groups_match_the_single_core() {
        // [[72,12,6]] syndromes of weight-5 errors, two in three of them with
        // one check flipped, which makes them inconsistent: 22 syndromes hold
        // 14 inconsistent ones, a full group of eight and a short group of
        // six with two spare lanes. Every decode must match a decode of its
        // syndrome alone in status, hard decision and the bits of every
        // posterior.
        let code = qec::codes::bb_72_12_6().expect("valid");
        let h = SparseBinMat::from_bitmat(code.hz());
        let (m, n) = (h.num_rows(), h.num_cols());
        let words = m.div_ceil(64);
        let priors: Vec<f64> = (0..n).map(|q| 0.01 + 0.002 * (q % 5) as f64).collect();
        let key = priors_digest(&priors);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut queue = Vec::new();
        for i in 0..22 {
            let mut error = vec![false; n];
            for _ in 0..5 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                error[(state >> 33) as usize % n] = true;
            }
            let mut syndrome = h.syndrome(&error);
            if i % 3 != 0 {
                syndrome[i % m] = !syndrome[i % m];
            }
            let mut packed = vec![0u64; words];
            for (r, _) in syndrome.iter().enumerate().filter(|(_, &bit)| bit) {
                packed[r >> 6] |= 1 << (r & 63);
            }
            queue.extend(packed);
        }
        for simd in Simd::supported() {
            let bp = BeliefPropagation::new(h.clone(), 30).with_simd(simd);
            // The reference: each syndrome alone, a queue of one, which
            // never forms a group.
            let mut single = DecoderScratch::new();
            let want: Vec<_> = queue
                .chunks_exact(words)
                .map(|syndrome| {
                    let mut want = None;
                    bp.decode_queue_packed(syndrome, &priors, key, &mut single, |_, status, s| {
                        let llrs: Vec<u64> = s.llrs_pad.as_slice()[..n]
                            .iter()
                            .map(|l| l.to_bits())
                            .collect();
                        want = Some((status, s.err_words.clone(), llrs));
                    });
                    want.expect("decoded")
                })
                .collect();
            assert_eq!(want.iter().filter(|(s, ..)| !s.consistent).count(), 14);
            let mut scratch = DecoderScratch::new();
            let mut order = Vec::new();
            let grouped =
                bp.decode_queue_packed(&queue, &priors, key, &mut scratch, |i, status, scratch| {
                    let llrs: Vec<u64> = scratch.llrs_pad.as_slice()[..n]
                        .iter()
                        .map(|l| l.to_bits())
                        .collect();
                    assert_eq!(
                        (status, scratch.err_words.clone(), llrs),
                        want[i],
                        "{} syndrome {i}",
                        simd.isa_name()
                    );
                    order.push(i);
                });
            assert_eq!(grouped, 14);
            order.sort_unstable();
            assert_eq!(order, (0..22).collect::<Vec<_>>());
        }
    }

    #[test]
    fn short_queues_decode_on_the_single_core() {
        let h = repetition_check(7);
        let bp = BeliefPropagation::new(h.clone(), 30);
        let priors = [0.05; 7];
        let key = priors_digest(&priors);
        let queue = [0b1u64, 0b11, 0b110];
        let mut scratch = DecoderScratch::new();
        let mut finished = 0;
        let grouped = bp.decode_queue_packed(&queue, &priors, key, &mut scratch, |_, status, _| {
            assert!(status.converged);
            finished += 1;
        });
        assert_eq!((grouped, finished), (0, 3));
        assert_eq!(
            scratch.lockstep.var_to_check.as_slice().len(),
            0,
            "no lockstep arena was sized"
        );
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
