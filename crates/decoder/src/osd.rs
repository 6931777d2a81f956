//! Ordered-statistics decoding (OSD-0) post-processing.
//!
//! Belief propagation alone often fails on quantum LDPC codes because of the many
//! degenerate low-weight solutions. OSD-0 (Panteleev–Kalachev style) takes the BP
//! posterior reliabilities, orders the columns from most to least likely to be in
//! error, selects a set of pivot columns greedily in that order by Gaussian
//! elimination, and solves for the unique error supported (as much as possible) on the
//! most suspicious positions that reproduces the syndrome exactly.
//!
//! The work scales with the columns the solution needs, not with the matrix.
//! [`OsdDecoder`] stores `H` column-packed, and `OsdDecoder::solve_packed`
//! — the OSD stage of the one decode core,
//! [`crate::bposd::BpOsdDecoder::decode_queue_packed`], and the word-packed
//! core behind the `bool` entry point [`OsdDecoder::decode_into`]:
//!
//! * heapifies one integer key per column, so columns pop in exactly the
//!   order of a full sort (suspicion descending, then index ascending)
//!   without sorting all `n` of them;
//! * reduces each popped column against the basis of the columns kept so far
//!   and keeps it only if it is independent — so the kept columns are the
//!   greedy independent prefix of the order, the pivot columns of a
//!   Gauss–Jordan elimination in that order;
//! * reduces the residual syndrome by each new basis vector, and stops as
//!   soon as it is zero. Each basis vector carries its combination of kept
//!   columns, so the solution is the XOR of the combinations the residual
//!   used — the unique one over the kept, independent columns, which the
//!   pivots a full elimination would add later do not change.
//!
//! All buffers are borrowed from a [`DecoderScratch`], so there is no heap
//! allocation in steady state. The cold reference — a full sort, the
//! augmented matrix `[H(ordered) | s]` gathered over all `n` columns, and a
//! full elimination — is the test oracle (`tests/oracle/osd.rs`), which the
//! property suite pins this decoder to bit for bit.

use crate::scratch::DecoderScratch;
use crate::sparse::SparseBinMat;
use qec::linalg::BitMat;
use std::collections::BinaryHeap;

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

/// The heap key of column `c` with suspicion `x`: the high half orders like
/// `suspicion_key(x)` under `total_cmp` (negative floats have their bits
/// inverted, the others their sign bit set), and the low half is
/// `u64::MAX - c`. A max-heap therefore pops the most suspicious column
/// first, and the lower index first among equal suspicions.
#[inline]
fn column_key(x: f64, c: usize) -> u128 {
    let bits = suspicion_key(x).to_bits();
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63);
    (u128::from(ordered) << 64) | u128::from(u64::MAX - c as u64)
}

/// OSD-0 decoder over a fixed parity-check matrix.
#[derive(Debug, Clone)]
pub struct OsdDecoder {
    h: BitMat,
    /// `H` column-packed ([`SparseBinMat::packed_columns`]).
    columns: Vec<u64>,
}

impl OsdDecoder {
    /// Creates an OSD decoder for the parity-check matrix `h`.
    pub fn new(h: BitMat) -> Self {
        OsdDecoder {
            columns: SparseBinMat::from_bitmat(&h).packed_columns(),
            h,
        }
    }

    /// The parity-check matrix.
    pub fn matrix(&self) -> &BitMat {
        &self.h
    }

    /// Decodes a syndrome given per-bit "suspicion" scores (higher = more
    /// likely in error, e.g. `-llr` from BP). Returns `true` and leaves in
    /// [`DecoderScratch::error`] an error vector `e` with `H·e = syndrome`,
    /// or returns `false`, leaving `scratch.error` untouched, if the syndrome
    /// is not in the column space of `H` — which a flipped check measurement
    /// can cause even when the data error is correctable.
    ///
    /// The solver keeps its own consistency check for direct callers.
    /// [`crate::bposd::BpOsdDecoder`] never reaches it with an inconsistent
    /// syndrome: BP's left-kernel parity proves those first, and OSD is
    /// skipped.
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
    ///
    /// Each basis row is a reduced vector (one bit per check) followed by its
    /// combination: one bit per basis index, the kept columns it is the XOR
    /// of (as many words, since a basis has at most `m` vectors). Row `k`
    /// of a `k`-vector basis is the candidate under reduction. Basis vector
    /// `k` is zero at the pivot checks of vectors `0..k`, so reducing in
    /// insertion order clears every pivot, and a nonzero combination of
    /// basis vectors always has a set pivot: a vector reduced to zero is
    /// dependent, and a reduced residual is zero exactly when the syndrome
    /// is in the span.
    // cyclone-lint: hot-path
    pub(crate) fn solve_packed(
        &self,
        syndrome: &[u64],
        suspicion: &[f64],
        scratch: &mut DecoderScratch,
    ) -> bool {
        let n = self.h.num_cols();
        let sw = self.h.num_rows().div_ceil(64);
        assert_eq!(syndrome.len(), sw, "syndrome length mismatch");
        assert_eq!(suspicion.len(), n, "need one score per column");
        let width = 2 * sw;

        let mut keys = std::mem::take(&mut scratch.column_keys);
        keys.clear();
        keys.extend(suspicion.iter().enumerate().map(|(c, &x)| column_key(x, c)));
        let mut heap = BinaryHeap::from(keys);

        let residual = &mut scratch.residual;
        residual.clear();
        residual.extend_from_slice(syndrome);
        residual.resize(width, 0);
        let basis = &mut scratch.basis;
        basis.clear();
        let pivots = &mut scratch.pivots;
        pivots.clear();
        let kept = &mut scratch.kept_columns;
        kept.clear();
        let mut solved = syndrome.iter().all(|&w| w == 0);
        while !solved {
            let Some(key) = heap.pop() else {
                break;
            };
            let c = (u64::MAX - key as u64) as usize;
            // The basis has fewer than `m` vectors (a full one spans every
            // syndrome), so index `k` fits the combination words.
            let k = pivots.len();
            basis.resize((k + 1) * width, 0);
            let (reduced, candidate) = basis.split_at_mut(k * width);
            candidate[..sw].copy_from_slice(&self.columns[c * sw..(c + 1) * sw]);
            candidate[sw..].fill(0);
            candidate[sw + (k >> 6)] |= 1 << (k & 63);
            for (row, &(w, bit)) in reduced.chunks_exact(width).zip(pivots.iter()) {
                if candidate[w] & bit != 0 {
                    xor_into(candidate, row);
                }
            }
            let Some(w) = candidate[..sw].iter().position(|&v| v != 0) else {
                continue;
            };
            let bit = candidate[w] & candidate[w].wrapping_neg();
            pivots.push((w, bit));
            kept.push(c);
            if residual[w] & bit != 0 {
                xor_into(residual, candidate);
                solved = residual[..sw].iter().all(|&v| v == 0);
            }
        }
        scratch.column_keys = heap.into_vec();
        if !solved {
            return false;
        }

        // The residual's combination: the kept columns whose XOR is `s`.
        let solution = &mut scratch.err_words;
        solution.clear();
        solution.resize(n.div_ceil(64), 0);
        for (w, &word) in residual[sw..].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = kept[(w << 6) | bits.trailing_zeros() as usize];
                solution[c >> 6] |= 1 << (c & 63);
                bits &= bits - 1;
            }
        }
        debug_assert!((0..self.h.num_rows()).all(|r| {
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

/// `dst ^= src`, word by word.
#[inline]
fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::linalg::weight;

    /// A fresh-scratch decode: the solution, or `None` for an inconsistent
    /// syndrome.
    fn solve(osd: &OsdDecoder, syndrome: &[bool], suspicion: &[f64]) -> Option<Vec<bool>> {
        let mut scratch = DecoderScratch::new();
        osd.decode_into(syndrome, suspicion, &mut scratch)
            .then_some(scratch.error)
    }

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
        let sol = solve(&osd, &s, &[1.0; 9]).expect("consistent");
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
        let sol = solve(&osd, &s, &suspicion).expect("consistent");
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
        let sol = solve(&osd, &s, &suspicion).expect("consistent");
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
        assert!(solve(&osd, &[false, true], &[0.5, 0.5]).is_none());
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
        let sol = solve(&osd, &s, &suspicion).expect("consistent");
        assert_eq!(sol, e, "NaN column must not attract the solution");
        let mut as_neg_inf = suspicion.clone();
        as_neg_inf[7] = f64::NEG_INFINITY;
        assert_eq!(solve(&osd, &s, &as_neg_inf), Some(sol));
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
            let sol = solve(&osd, &s, &suspicion).expect("consistent");
            assert_eq!(h.mul_vec(&sol), s, "n = {cols}");
        }
    }

    #[test]
    fn dirty_scratch_matches_fresh_scratch() {
        // Re-decode a stream of different syndromes/suspicions through one
        // dirty scratch (heap storage, basis and residual left by the previous
        // decode); every result must equal a decode into a fresh scratch. (The
        // property suite pins both against the cold oracle in
        // `tests/oracle/osd.rs`.)
        let h = repetition_h(70);
        let cols = h.num_cols();
        let osd = OsdDecoder::new(h.clone());
        let mut dirty = DecoderScratch::new();
        for round in 0..20usize {
            let mut e = vec![false; cols];
            e[(round * 7) % cols] = true;
            e[(round * 13 + 3) % cols] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..cols)
                .map(|i| ((i * 31 + round * 17) % 97) as f64 / 97.0)
                .collect();
            let fresh = solve(&osd, &s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut dirty));
            assert_eq!(dirty.error(), fresh.as_slice(), "round {round}");
        }
    }

    #[test]
    fn dirty_scratch_still_detects_inconsistency() {
        // A zero row with a nonzero syndrome: the heap runs out with the
        // residual still set.
        let h = BitMat::from_dense(&[vec![1, 1], vec![0, 0]]);
        let osd = OsdDecoder::new(h);
        let mut scratch = DecoderScratch::new();
        // Dirty the scratch with a consistent decode first.
        assert!(osd.decode_into(&[true, false], &[0.5, 0.5], &mut scratch));
        assert!(!osd.decode_into(&[false, true], &[0.5, 0.5], &mut scratch));
        assert!(solve(&osd, &[false, true], &[0.5, 0.5]).is_none());
    }

    #[test]
    fn resized_scratch_matches_fresh_scratch() {
        // A scratch whose buffers were sized for a different n (and m) must
        // give the fresh-scratch answer, not index out of bounds or misdecode.
        let mut scratch = DecoderScratch::new();
        for n in [9usize, 70, 15] {
            let h = repetition_h(n);
            let osd = OsdDecoder::new(h.clone());
            let mut e = vec![false; n];
            e[n / 2] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..n).map(|i| 1.0 / (2.0 + i as f64)).collect();
            let fresh = solve(&osd, &s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut scratch));
            assert_eq!(scratch.error(), fresh.as_slice(), "n = {n}");
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
            let fresh = solve(&osd, &s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut scratch));
            assert_eq!(scratch.error(), fresh.as_slice());
        }
    }
}
