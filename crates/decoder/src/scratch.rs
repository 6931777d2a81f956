//! Reusable decoder workspaces.
//!
//! [`DecoderScratch`] owns every working buffer of the one decode core,
//! [`crate::bposd::BpOsdDecoder::decode_queue_packed`]: the flat message
//! arenas of belief propagation (and the wider ones of its lockstep groups),
//! the channel LLRs and first messages (built once per priors and graph
//! digest), the packed hard decision and its syndrome, and the
//! ordered-statistics column heap, basis and residual. The `bool` entry
//! points pack their syndrome into it and unpack their result into
//! [`DecoderScratch::error`] and [`DecoderScratch::llrs`]. A caller that
//! keeps a scratch alive (one per worker thread, typically) performs zero
//! heap allocation per decode in steady state: buffers are grown on first
//! use and reused — never shrunk — afterwards.

use crate::sparse::PAD_LANES;

/// Lanes per [`Chunk`]: eight `f64`, one 64-byte cache line — a full
/// AVX-512 vector, and one slot of the lockstep arenas.
const CHUNK_LANES: usize = 8;

/// One 64-byte-aligned bundle of [`CHUNK_LANES`] lanes — the allocation unit
/// of [`LaneArena`].
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct Chunk<T>([T; CHUNK_LANES]);

/// A 64-byte-aligned arena of `f64` messages or `u64` masks backing the BP
/// lane buffers.
///
/// The lane kernels in [`crate::simd`] issue full-width loads and stores over
/// these buffers every iteration: four lanes under the AVX2 compilation, and
/// one lockstep slot of eight lanes (64 bytes) under the AVX-512 one. A plain
/// `Vec<f64>` is only guaranteed 16-byte alignment by the allocator, and a
/// base address off the vector width makes every vector access straddle two
/// cache lines — measured to cost the AVX2 check pass roughly a quarter of
/// its throughput on the `[[72,12,6]]` code, with the outcome decided by
/// per-process allocation luck. Backing the storage with cache-line-aligned
/// chunks removes that coin flip for both widths. Lengths are always
/// multiples of [`PAD_LANES`] (both lane layouts guarantee this), enforced by
/// a debug assertion; the last chunk may hold unused lanes past `len`.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneArena<T> {
    chunks: Vec<Chunk<T>>,
    len: usize,
}

/// The lane types: eight bytes wide, so a [`Chunk`] of eight is exactly its
/// 64-byte alignment and holds no padding.
pub(crate) trait Lane: Copy + Default {}
impl Lane for f64 {}
impl Lane for u64 {}

impl<T: Lane> LaneArena<T> {
    /// Resizes to exactly `len` lanes (always a multiple of [`PAD_LANES`]),
    /// filling any newly added lanes with zeros.
    pub(crate) fn ensure_len(&mut self, len: usize) {
        debug_assert_eq!(len % PAD_LANES, 0, "lane arena length must be chunked");
        if self.len != len {
            let kept = self.len.min(len);
            self.chunks.resize(
                len.div_ceil(CHUNK_LANES),
                Chunk([T::default(); CHUNK_LANES]),
            );
            self.len = len;
            self.as_mut_slice()[kept..].fill(T::default());
        }
    }

    /// Views the arena as a flat read-only slice.
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: as in `as_mut_slice`.
        unsafe { core::slice::from_raw_parts(self.chunks.as_ptr().cast::<T>(), self.len) }
    }

    /// Views the arena as a flat slice with a 64-byte-aligned base.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: `Chunk<T>` is `#[repr(C)]` over `[T; CHUNK_LANES]`, and every
        // `Lane` type is eight bytes, so a chunk is exactly 64 bytes with no
        // padding and the chunks store contiguous `T`s; the cast stays within
        // the one live allocation, and `self.len` is at most the
        // `chunks.len() * CHUNK_LANES` `T`s it owns.
        unsafe { core::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast::<T>(), self.len) }
    }
}

/// The arenas of the lockstep queue decoder ([`crate::bp`]): the same interleaved
/// slot numbering as the single-syndrome arenas, slot-major with
/// [`crate::simd::LOCKSTEP_LANES`] entries per slot, one lane per syndrome.
/// Sized on first lockstep use and reused after.
#[derive(Debug, Clone, Default)]
pub(crate) struct LockstepArenas {
    /// Variable→check messages, at real slots only.
    pub(crate) var_to_check: LaneArena<f64>,
    /// Check→variable messages, at real slots only.
    pub(crate) check_to_var: LaneArena<f64>,
    /// Posteriors, column-major; `+∞` from the last column up to the next
    /// multiple of 64, so the hard decision packs whole words.
    pub(crate) posteriors: LaneArena<f64>,
    /// Per-check syndrome masks, check-major: all-ones where the lane's
    /// syndrome sets the check.
    pub(crate) syn_masks: LaneArena<u64>,
    /// Each lane's packed hard decision, word-major: word `w` of lane `l`
    /// is entry `w * LOCKSTEP_LANES + l`.
    pub(crate) err_words: Vec<u64>,
}

/// A caller-owned workspace for the BP / OSD / BP+OSD scratch decode paths.
///
/// Create one with [`DecoderScratch::new`] and pass it to every decode; the buffers
/// size themselves to the decoder on first use. A single scratch may be moved freely
/// between decoders of different shapes (buffers regrow as needed), but steady-state
/// zero allocation requires dedicating one scratch per decoder, as
/// [`crate::memory::BatchScratch`] does for the X/Z sector pair.
#[derive(Debug, Clone, Default)]
pub struct DecoderScratch {
    // Belief propagation -----------------------------------------------------
    /// Per-variable channel log-likelihood ratios, `+∞` from the last
    /// variable up to the next multiple of 64 (the variable pass reads whole
    /// lane groups).
    pub(crate) channel_llr: LaneArena<f64>,
    /// Key of everything [`crate::bp`] primes per priors and graph: the
    /// priors digest ([`crate::bp::priors_digest`]) and the graph digest
    /// ([`crate::sparse::TannerGraph::digest`]), so the steady-state hit is
    /// one compare instead of an O(n) float compare.
    pub(crate) cached_priors_key: Option<(u64, u64)>,
    /// Number of times the priors-keyed priming actually ran (cache misses).
    /// Decodes minus rebuilds = cache hits; exposed for tests via
    /// [`DecoderScratch::priors_rebuilds`].
    pub(crate) priors_rebuilds: usize,
    /// The first variable→check messages under the cached key (the channel
    /// LLR at each real slot, `+∞` at each padding slot), which the first
    /// check pass of every decode reads in place of `vtc_lanes`.
    pub(crate) vtc_init: LaneArena<f64>,
    /// Check→variable messages in the row-interleaved layout
    /// ([`crate::sparse::TannerGraph`]), 64-byte aligned so the kernels'
    /// full-width accesses never split cache lines. The spare cell holds
    /// `-0.0`.
    pub(crate) ctv_lanes: LaneArena<f64>,
    /// Variable→check messages in the row-interleaved layout; padding slots
    /// hold `+∞` (see [`crate::bp`]).
    pub(crate) vtc_lanes: LaneArena<f64>,
    /// Posterior log-likelihood ratios (one per variable), unpacked from
    /// `llrs_pad` by the `bool` entry points only.
    pub(crate) llrs: Vec<f64>,
    /// Padded posterior accumulator: slots `0..n` hold the posteriors; the
    /// tail up to the next multiple of 64 holds `+∞`, so the hard-decision
    /// kernel packs whole words without a tail mask (see [`crate::simd`]).
    pub(crate) llrs_pad: LaneArena<f64>,
    /// Per-check syndrome masks consumed by the check-pass kernel: word `r` is
    /// all-ones when syndrome bit `r` is set, zero otherwise (and zero for the
    /// phantom lanes past the last check). Refilled once per decode — the
    /// syndrome is constant across iterations.
    pub(crate) syn_mask: LaneArena<u64>,
    /// The `bool` entry points' copy of `err_words`, one entry per variable.
    pub(crate) error: Vec<bool>,
    /// The word-packed correction (bit `c & 63` of word `c >> 6`): the BP hard
    /// decision, consumed by the convergence test, or the OSD solution that
    /// replaces it.
    pub(crate) err_words: Vec<u64>,
    /// The packed syndrome `H·ê` of the BP hard decision (the XOR of the
    /// packed columns of its set bits), which the convergence test compares
    /// with the decoded syndrome.
    pub(crate) parity: Vec<u64>,
    /// The `bool` entry points' packed copy of their syndrome.
    pub(crate) syn_bits: Vec<u64>,
    /// The lockstep queue decoder's arenas, empty until its first lockstep group.
    pub(crate) lockstep: LockstepArenas,
    // Ordered statistics -----------------------------------------------------
    /// Per-variable suspicion scores handed from BP to OSD.
    pub(crate) suspicion: Vec<f64>,
    /// Storage of the column heap: one key per column, suspicion in the high
    /// half and the column in the low half (see [`crate::osd`]).
    pub(crate) column_keys: Vec<u128>,
    /// The column basis, row-major: each row a reduced packed column
    /// followed by its combination over basis indices.
    pub(crate) basis: Vec<u64>,
    /// The pivot check of each basis vector, as (word, one-bit mask).
    pub(crate) pivots: Vec<(usize, u64)>,
    /// The column of `H` each basis vector was reduced from, in basis order.
    pub(crate) kept_columns: Vec<usize>,
    /// The residual syndrome and its combination over basis indices, in the
    /// layout of a basis row.
    pub(crate) residual: Vec<u64>,
}

impl DecoderScratch {
    /// Creates an empty workspace; buffers are sized on first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// The error estimate produced by the most recent scratch decode.
    ///
    /// After [`crate::bp::BeliefPropagation::decode_with_priors_keyed_into`] this
    /// is the BP hard decision; after [`crate::osd::OsdDecoder::decode_into`]
    /// returns `true`, or after
    /// [`crate::bposd::BpOsdDecoder::decode_with_priors_keyed_into`], it is the
    /// final solution.
    pub fn error(&self) -> &[bool] {
        &self.error
    }

    /// The posterior log-likelihood ratios of the most recent BP run.
    pub fn llrs(&self) -> &[f64] {
        &self.llrs
    }

    /// Runs a word-packed decode core on a `bool` syndrome: packs it into
    /// `syn_bits` (64 checks per word, zero past the last check) and lends it
    /// to `core` together with the rest of the scratch.
    pub(crate) fn with_packed_syndrome<R>(
        &mut self,
        syndrome: &[bool],
        core: impl FnOnce(&[u64], &mut Self) -> R,
    ) -> R {
        let mut packed = std::mem::take(&mut self.syn_bits);
        packed.clear();
        packed.resize(syndrome.len().div_ceil(64), 0);
        for (r, _) in syndrome.iter().enumerate().filter(|(_, &bit)| bit) {
            packed[r >> 6] |= 1 << (r & 63);
        }
        let out = core(&packed, self);
        self.syn_bits = packed;
        out
    }

    /// Unpacks the first `n` bits of the packed correction into `error`.
    pub(crate) fn unpack_correction(&mut self, n: usize) {
        let words = &self.err_words;
        self.error.clear();
        self.error
            .extend((0..n).map(|c| (words[c >> 6] >> (c & 63)) & 1 == 1));
    }

    /// The `bool` entry points' tail after a BP(+OSD) core run: unpacks the
    /// correction into `error` and copies the `n` posteriors into `llrs`.
    pub(crate) fn unpack_decode(&mut self, n: usize) {
        self.unpack_correction(n);
        self.llrs.clear();
        self.llrs.extend_from_slice(&self.llrs_pad.as_slice()[..n]);
    }

    /// How many decodes rebuilt the channel-LLR vector (i.e. missed the
    /// priors-LLR cache). The steady state of a Monte-Carlo run rebuilds once and
    /// hits thereafter.
    pub fn priors_rebuilds(&self) -> usize {
        self.priors_rebuilds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_scratch_is_empty() {
        let s = DecoderScratch::new();
        assert!(s.error().is_empty());
        assert!(s.llrs().is_empty());
        assert!(s.cached_priors_key.is_none());
        assert_eq!(s.priors_rebuilds(), 0);
    }

    #[test]
    fn lane_arenas_are_cache_line_aligned_and_zero_filled() {
        let mut messages = LaneArena::<f64>::default();
        let mut masks = LaneArena::<u64>::default();
        for len in [4, 8, 12, 4, 1_728, 20, 8 * 216, 36] {
            let before = messages.as_slice().len();
            messages.ensure_len(len);
            masks.ensure_len(len);
            assert_eq!(
                (messages.as_slice().len(), masks.as_slice().len()),
                (len, len)
            );
            assert_eq!(
                messages.as_slice().as_ptr() as usize % 64,
                0,
                "f64 arena of {len}"
            );
            assert_eq!(
                masks.as_slice().as_ptr() as usize % 64,
                0,
                "u64 arena of {len}"
            );
            if len > before {
                assert!(messages.as_slice()[before..].iter().all(|&v| v == 0.0));
                assert!(masks.as_slice()[before..].iter().all(|&v| v == 0));
            }
            messages.as_mut_slice().fill(7.5);
            masks.as_mut_slice().fill(u64::MAX);
        }
    }
}
