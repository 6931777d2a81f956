//! Ordered-statistics decoding (OSD-0) post-processing.
//!
//! Belief propagation alone often fails on quantum LDPC codes because of the many
//! degenerate low-weight solutions. OSD-0 (Panteleev–Kalachev style) takes the BP
//! posterior reliabilities, orders the columns from most to least likely to be in
//! error, selects a set of pivot columns greedily in that order by Gaussian
//! elimination, and solves for the unique error supported (as much as possible) on the
//! most suspicious positions that reproduces the syndrome exactly.
//!
//! The hot path works at word level throughout, from a word-packed syndrome to
//! a word-packed solution (the `bool` entry point [`OsdDecoder::decode_into`]
//! packs and unpacks around it): the
//! augmented matrix `[H(ordered) | s]` is built into reused `u64` row storage
//! borrowed from a [`DecoderScratch`] by scattering each row's support through
//! the inverse column permutation (O(nnz + m·words), not O(m·n)), pivots are
//! located with masked `trailing_zeros` scans over whole words, and
//! elimination XORs whole rows — no per-bit `get`/`set` traffic and no heap
//! allocation in steady state.
//!
//! [`OsdDecoder::decode_into`] also **warm-starts** from the scratch state
//! left by the previous fallback: the suspicion sort starts from the previous
//! column permutation (Monte-Carlo shots at one operating point produce highly
//! similar BP posteriors, so the nearly-sorted input is fast under pdqsort), and
//! elimination stops as soon as the residual syndrome column is cleared (the
//! remaining pivots of a full run would all read off zero). Both shortcuts are
//! provably bit-identical to a cold decode — dense gather, fresh `0..n` order,
//! full elimination — which lives in the test oracle
//! (`tests/oracle/osd.rs`) and pins them in property tests.

use crate::scratch::DecoderScratch;
use qec::linalg::BitMat;

/// Sort key for suspicion scores: NaN (e.g. from a degenerate prior) maps to the
/// lowest possible suspicion instead of silently scrambling the order, and signed
/// zeros collapse so ties keep breaking by column index.
#[inline]
fn suspicion_key(x: f64) -> f64 {
    if x.is_nan() {
        f64::NEG_INFINITY
    } else if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// OSD-0 decoder over a fixed parity-check matrix.
#[derive(Debug, Clone)]
pub struct OsdDecoder {
    h: BitMat,
}

impl OsdDecoder {
    /// Creates an OSD decoder for the parity-check matrix `h`.
    pub fn new(h: BitMat) -> Self {
        OsdDecoder { h }
    }

    /// The parity-check matrix.
    pub fn matrix(&self) -> &BitMat {
        &self.h
    }

    /// Decodes a syndrome given per-bit "suspicion" scores (higher = more likely in
    /// error, e.g. `-llr` from BP). Returns an error vector `e` with `H·e = syndrome`,
    /// or `None` if the syndrome is not in the column space of `H` — which a
    /// flipped check measurement can cause even when the data error is
    /// correctable.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn decode(&self, syndrome: &[bool], suspicion: &[f64]) -> Option<Vec<bool>> {
        let mut scratch = DecoderScratch::new();
        self.decode_into(syndrome, suspicion, &mut scratch)
            .then_some(scratch.error)
    }

    /// Scratch-borrowing variant of [`OsdDecoder::decode`]: returns `true` and leaves
    /// the solution in [`DecoderScratch::error`] when the syndrome is consistent;
    /// returns `false` — leaving `scratch.error` untouched — otherwise.
    ///
    /// The elimination keeps its own consistency check for direct callers.
    /// [`crate::bposd::BpOsdDecoder`] never reaches it with an inconsistent
    /// syndrome: BP's left-kernel parity proves those first, and OSD is
    /// skipped.
    ///
    /// Warm-starts from the previous fallback's scratch state (column-permutation
    /// reuse + early-exit elimination); output is bit-identical to a cold
    /// decode (fresh `0..n` order, full elimination).
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn decode_into(
        &self,
        syndrome: &[bool],
        suspicion: &[f64],
        scratch: &mut DecoderScratch,
    ) -> bool {
        assert_eq!(
            syndrome.len(),
            self.h.num_rows(),
            "syndrome length mismatch"
        );
        let solved = scratch.with_packed_syndrome(syndrome, |packed, scratch| {
            self.solve_packed(packed, suspicion, scratch)
        });
        if solved {
            scratch.unpack_correction(self.h.num_cols());
        }
        solved
    }

    /// The word-packed core of [`OsdDecoder::decode_into`]: the syndrome is
    /// packed 64 checks per word, and on success the solution is left packed
    /// in `scratch.err_words` (`false` leaves it untouched).
    // cyclone-lint: hot-path
    pub(crate) fn solve_packed(
        &self,
        syndrome: &[u64],
        suspicion: &[f64],
        scratch: &mut DecoderScratch,
    ) -> bool {
        let m = self.h.num_rows();
        let n = self.h.num_cols();
        assert_eq!(syndrome.len(), m.div_ceil(64), "syndrome length mismatch");
        assert_eq!(suspicion.len(), n, "need one score per column");

        // Column order: most suspicious first (ties broken by index for determinism).
        // The index tiebreak makes the comparator a strict total order, so the
        // unstable sort yields the same permutation as a stable one — without the
        // stable sort's temporary-buffer allocation. Warm start: any permutation of
        // 0..n sorts to the same unique result under a strict total order, so the
        // previous decode's order (nearly sorted for the typical shot-to-shot
        // posterior drift) is a valid — and faster — starting point. `scratch.order`
        // is only ever written here, so `len() == n` implies it is a permutation
        // of `0..n`.
        let order = &mut scratch.order;
        if order.len() != n {
            order.clear();
            order.extend(0..n);
        }
        order.sort_unstable_by(|&a, &b| {
            suspicion_key(suspicion[b])
                .total_cmp(&suspicion_key(suspicion[a]))
                .then(a.cmp(&b))
        });
        let pos_of = &mut scratch.pos_of;
        pos_of.resize(n, 0);
        for (pos, &orig) in order.iter().enumerate() {
            pos_of[orig] = pos;
        }

        // Augmented matrix [H(ordered) | s] in word-packed rows: the syndrome lives
        // at bit position `n`. Each row is zeroed and its support — the set bits
        // of its dense words, found by `trailing_zeros` — scattered through
        // `pos_of`, so the build costs O(nnz + m·words), not O(m·n).
        let words = (n + 1).div_ceil(64);
        scratch.aug.resize(m * words, 0);
        for (r, out) in scratch.aug.chunks_exact_mut(words).enumerate() {
            let sr = (syndrome[r >> 6] >> (r & 63)) & 1;
            out.fill(0);
            for (w, &word) in self.h.row_words(r).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let pos = pos_of[(w << 6) | bits.trailing_zeros() as usize];
                    out[pos >> 6] |= 1 << (pos & 63);
                    bits &= bits - 1;
                }
            }
            out[n >> 6] |= sr << (n & 63);
        }

        // Greedy elimination in permuted-column order. Invariant: every row at or
        // below `pivot_row` has zeros in all columns already passed, so the next
        // pivot column is the minimum leading set bit over those rows — found by a
        // masked trailing_zeros scan of each row's words (the syndrome bit is masked
        // out of the final word) — and the pivot row is the first row attaining it.
        let aug = &mut scratch.aug;
        let pivot_cols = &mut scratch.pivot_cols;
        pivot_cols.clear();
        let last_word_mask = (1u64 << (n & 63)) - 1;
        let (syn_word, syn_bit) = (n >> 6, n & 63);
        let mut pivot_row = 0usize;
        while pivot_row < m {
            // Early exit once the residual syndrome is cleared: if no remaining row
            // carries a syndrome bit, every further pivot of a full elimination
            // would read off zero — pivot rows are only ever XORed *into* other
            // rows, and XOR with a zero-syndrome row preserves syndrome bits, so
            // (inductively) the remaining rows keep zero syndrome to the end and
            // the OSD-0 solution entries they would contribute are all zero, i.e.
            // exactly what the readoff below already assumes for non-pivots. The
            // inconsistent case can never take this exit (it requires a surviving
            // syndrome bit), so detection is unaffected.
            if !(pivot_row..m).any(|r| (aug[r * words + syn_word] >> syn_bit) & 1 == 1) {
                break;
            }
            let mut best_col = usize::MAX;
            let mut best_row = usize::MAX;
            for r in pivot_row..m {
                let row = &aug[r * words..(r + 1) * words];
                for (w, &raw) in row.iter().enumerate() {
                    let word = if w == words - 1 {
                        raw & last_word_mask
                    } else {
                        raw
                    };
                    if word != 0 {
                        let lead = (w << 6) | word.trailing_zeros() as usize;
                        if lead < best_col {
                            best_col = lead;
                            best_row = r;
                        }
                        break;
                    }
                }
            }
            if best_col == usize::MAX {
                break;
            }
            if best_row != pivot_row {
                for w in 0..words {
                    aug.swap(pivot_row * words + w, best_row * words + w);
                }
            }
            let (pivot_word, pivot_bit) = (best_col >> 6, best_col & 63);
            for rr in 0..m {
                if rr != pivot_row && (aug[rr * words + pivot_word] >> pivot_bit) & 1 == 1 {
                    for w in 0..words {
                        let v = aug[pivot_row * words + w];
                        aug[rr * words + w] ^= v;
                    }
                }
            }
            pivot_cols.push(best_col);
            pivot_row += 1;
        }

        // Consistency: any all-zero row must have zero syndrome. (After an
        // early exit the remaining rows may be nonzero, but all carry zero
        // syndrome — the exit condition — so the loop still passes.)
        for r in pivot_cols.len()..m {
            if (aug[r * words + syn_word] >> syn_bit) & 1 == 1 {
                return false;
            }
        }

        // OSD-0: non-pivot columns are set to zero; pivot columns read off the
        // syndrome column.
        let solution = &mut scratch.err_words;
        solution.clear();
        solution.resize(n.div_ceil(64), 0);
        for (row, &col) in pivot_cols.iter().enumerate() {
            let c = order[col];
            solution[c >> 6] |= ((aug[row * words + syn_word] >> syn_bit) & 1) << (c & 63);
        }
        debug_assert!((0..m).all(|r| {
            let parity = self
                .h
                .row_words(r)
                .iter()
                .zip(solution.iter())
                .fold(0u64, |acc, (&h, &e)| acc ^ (h & e));
            u64::from(parity.count_ones() & 1) == (syndrome[r >> 6] >> (r & 63)) & 1
        }));
        true
    }
    // cyclone-lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::linalg::weight;

    fn repetition_h(n: usize) -> BitMat {
        let rows: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        BitMat::from_row_supports(n - 1, n, &rows)
    }

    #[test]
    fn exact_syndrome_match() {
        let h = repetition_h(9);
        let osd = OsdDecoder::new(h.clone());
        let mut e = vec![false; 9];
        e[2] = true;
        e[5] = true;
        let s = h.mul_vec(&e);
        // Uniform suspicion: the decoder must still return *a* valid solution.
        let sol = osd.decode(&s, &[1.0; 9]).expect("consistent");
        assert_eq!(h.mul_vec(&sol), s);
    }

    #[test]
    fn suspicion_guides_to_true_error() {
        let h = repetition_h(9);
        let osd = OsdDecoder::new(h.clone());
        let mut e = vec![false; 9];
        e[4] = true;
        let s = h.mul_vec(&e);
        let mut suspicion = vec![0.0; 9];
        suspicion[4] = 10.0;
        let sol = osd.decode(&s, &suspicion).expect("consistent");
        assert_eq!(sol, e);
    }

    #[test]
    fn low_weight_solutions_preferred_with_good_scores() {
        let h = repetition_h(15);
        let osd = OsdDecoder::new(h.clone());
        let mut e = vec![false; 15];
        e[7] = true;
        let s = h.mul_vec(&e);
        // Mild suspicion centred on the true error position.
        let suspicion: Vec<f64> = (0..15).map(|i| if i == 7 { 2.0 } else { 0.1 }).collect();
        let sol = osd.decode(&s, &suspicion).expect("consistent");
        assert_eq!(h.mul_vec(&sol), s);
        assert!(
            weight(&sol) <= 2,
            "solution should be low weight, got {}",
            weight(&sol)
        );
    }

    #[test]
    fn inconsistent_syndrome_detected() {
        // H with a zero row cannot produce a nonzero syndrome on that row.
        let h = BitMat::from_dense(&[vec![1, 1], vec![0, 0]]);
        let osd = OsdDecoder::new(h);
        assert!(osd.decode(&[false, true], &[0.5, 0.5]).is_none());
    }

    #[test]
    fn nan_suspicion_ranks_lowest_instead_of_scrambling() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` used to make NaN compare
        // equal to everything, leaving the column order dependent on the sort's
        // internal element visitation. A NaN score must behave exactly like -inf
        // (least suspicious), keeping the decode deterministic and correct.
        let h = repetition_h(9);
        let osd = OsdDecoder::new(h.clone());
        let mut e = vec![false; 9];
        e[4] = true;
        let s = h.mul_vec(&e);
        let mut suspicion = vec![0.1; 9];
        suspicion[4] = 10.0;
        suspicion[7] = f64::NAN;
        let sol = osd.decode(&s, &suspicion).expect("consistent");
        assert_eq!(sol, e, "NaN column must not attract the solution");
        let mut as_neg_inf = suspicion.clone();
        as_neg_inf[7] = f64::NEG_INFINITY;
        assert_eq!(osd.decode(&s, &as_neg_inf), Some(sol));
    }

    #[test]
    fn word_boundary_sizes_round_trip() {
        // Exercise n % 64 == 0 (syndrome bit on a fresh word) and n % 64 != 0.
        for n in [63usize, 64, 65, 70] {
            let h = repetition_h(n + 1); // n+1 columns, n rows... keep simple:
            let cols = h.num_cols();
            let osd = OsdDecoder::new(h.clone());
            let mut e = vec![false; cols];
            e[cols / 2] = true;
            e[1] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..cols).map(|i| if e[i] { 5.0 } else { 0.2 }).collect();
            let sol = osd.decode(&s, &suspicion).expect("consistent");
            assert_eq!(h.mul_vec(&sol), s, "n = {cols}");
        }
    }

    #[test]
    fn warm_start_matches_cold_on_dirty_scratch() {
        // Re-decode a stream of different syndromes/suspicions through one warm
        // scratch; every result must equal a decode into a fresh scratch, which
        // sorts from the `0..n` order. (The property suite pins both against
        // the cold oracle in `tests/oracle/osd.rs`.)
        let h = repetition_h(70);
        let cols = h.num_cols();
        let osd = OsdDecoder::new(h.clone());
        let mut warm = DecoderScratch::new();
        for round in 0..20usize {
            let mut e = vec![false; cols];
            e[(round * 7) % cols] = true;
            e[(round * 13 + 3) % cols] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..cols)
                .map(|i| ((i * 31 + round * 17) % 97) as f64 / 97.0)
                .collect();
            let cold = osd.decode(&s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut warm));
            assert_eq!(warm.error(), cold.as_slice(), "round {round}");
        }
    }

    #[test]
    fn warm_start_still_detects_inconsistency() {
        // A zero row with a nonzero syndrome can never trigger the early exit.
        let h = BitMat::from_dense(&[vec![1, 1], vec![0, 0]]);
        let osd = OsdDecoder::new(h);
        let mut scratch = DecoderScratch::new();
        // Dirty the scratch with a consistent decode first.
        assert!(osd.decode_into(&[true, false], &[0.5, 0.5], &mut scratch));
        assert!(!osd.decode_into(&[false, true], &[0.5, 0.5], &mut scratch));
        assert!(osd.decode(&[false, true], &[0.5, 0.5]).is_none());
    }

    #[test]
    fn warm_start_survives_size_migration() {
        // A scratch whose order permutation belongs to a different n must fall
        // back to the fresh 0..n order, not index out of bounds or misdecode.
        let mut scratch = DecoderScratch::new();
        for n in [9usize, 70, 15] {
            let h = repetition_h(n);
            let osd = OsdDecoder::new(h.clone());
            let mut e = vec![false; n];
            e[n / 2] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..n).map(|i| 1.0 / (2.0 + i as f64)).collect();
            let cold = osd.decode(&s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut scratch));
            assert_eq!(scratch.error(), cold.as_slice(), "n = {n}");
        }
    }

    #[test]
    fn scratch_reuse_across_sizes_matches_fresh() {
        let mut scratch = DecoderScratch::new();
        for n in [9usize, 70, 15] {
            let h = repetition_h(n);
            let osd = OsdDecoder::new(h.clone());
            let mut e = vec![false; n];
            e[n / 3] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let fresh = osd.decode(&s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut scratch));
            assert_eq!(scratch.error(), fresh.as_slice());
        }
    }
}
