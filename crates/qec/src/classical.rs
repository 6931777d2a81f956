//! Classical binary linear codes used as ingredients of hypergraph product codes.
//!
//! The paper's HGP codes are built from small (3,4)-regular LDPC codes (the
//! "classical seed codes"). This module provides a seeded Gallager-style regular
//! LDPC construction, a handful of textbook codes (repetition, Hamming), and
//! exact minimum-distance computation for small dimensions.

use crate::linalg::{weight, BitMat};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A classical binary linear code described by its parity-check matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassicalCode {
    /// Human-readable name, e.g. `"ldpc(3,4) n=12 seed=7"`.
    name: String,
    /// Parity-check matrix, `m × n`.
    h: BitMat,
}

impl ClassicalCode {
    /// Creates a classical code from a parity-check matrix.
    pub fn new(name: impl Into<String>, h: BitMat) -> Self {
        ClassicalCode {
            name: name.into(),
            h,
        }
    }

    /// Returns the code's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the parity-check matrix.
    pub fn parity_check(&self) -> &BitMat {
        &self.h
    }

    /// Block length `n` (number of bits).
    pub fn block_length(&self) -> usize {
        self.h.num_cols()
    }

    /// Number of parity checks (rows of H, not necessarily independent).
    pub fn num_checks(&self) -> usize {
        self.h.num_rows()
    }

    /// Code dimension `k = n - rank(H)`.
    pub fn dimension(&self) -> usize {
        self.block_length() - self.h.rank()
    }

    /// Dimension of the *transpose* code (the code with parity-check `Hᵀ`),
    /// `kᵀ = m - rank(H)`. Needed for the HGP dimension formula.
    pub fn transpose_dimension(&self) -> usize {
        self.num_checks() - self.h.rank()
    }

    /// Exact minimum distance computed by enumerating the `2^k - 1` nonzero codewords.
    ///
    /// Returns `None` for the trivial `k = 0` code.
    ///
    /// # Panics
    ///
    /// Panics if `k > 24` (enumeration would be too expensive).
    pub fn minimum_distance(&self) -> Option<usize> {
        let k = self.dimension();
        if k == 0 {
            return None;
        }
        assert!(
            k <= 24,
            "minimum_distance enumeration limited to k <= 24, got k = {k}"
        );
        let basis = self.h.null_space();
        debug_assert_eq!(basis.len(), k);
        let n = self.block_length();
        let mut best = usize::MAX;
        for mask in 1u32..(1u32 << k) {
            let mut v = vec![false; n];
            for (i, b) in basis.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    for (vi, &bi) in v.iter_mut().zip(b) {
                        *vi ^= bi;
                    }
                }
            }
            best = best.min(weight(&v));
        }
        Some(best)
    }

    /// Returns `[n, k, d]` with `d = None` when the code has no nonzero codewords.
    pub fn parameters(&self) -> (usize, usize, Option<usize>) {
        (
            self.block_length(),
            self.dimension(),
            self.minimum_distance(),
        )
    }

    /// The binary repetition code of length `n` (parity checks between adjacent bits).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn repetition(n: usize) -> Self {
        assert!(n >= 2, "repetition code needs n >= 2");
        let supports: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        ClassicalCode::new(
            format!("repetition[{n}]"),
            BitMat::from_row_supports(n - 1, n, &supports),
        )
    }

    /// A seeded `(wc, wr)`-regular LDPC code with `n` bits and `m = n * wc / wr`
    /// checks, built with the configuration model: every column gets exactly `wc`
    /// edge stubs, every check exactly `wr`, and stubs are matched by a seeded
    /// shuffle (re-shuffled up to 200 times to avoid parallel edges, which would
    /// break row regularity over GF(2)).
    ///
    /// Deterministic for a given `(n, wc, wr, seed)`. Unlike the classical Gallager
    /// block construction, this one does not force `wc − 1` redundant checks, so
    /// full-rank parity-check matrices (needed for the paper's `[[225,9,6]]` and
    /// `[[625,25,8]]` ingredient codes) are reachable.
    ///
    /// # Panics
    ///
    /// Panics if `n * wc` is not divisible by `wr` or the parameters are degenerate.
    pub fn gallager_ldpc(n: usize, wc: usize, wr: usize, seed: u64) -> Self {
        assert!(wc >= 1 && wr >= 1 && n >= wr, "degenerate LDPC parameters");
        assert_eq!((n * wc) % wr, 0, "n*wc must be divisible by wr");
        let m = n * wc / wr;
        let mut rng = StdRng::seed_from_u64(seed);
        // Column stubs: column c appears wc times.
        let base_stubs: Vec<usize> = (0..n).flat_map(|c| std::iter::repeat_n(c, wc)).collect();
        let mut supports: Vec<Vec<usize>> = Vec::new();
        'attempt: for _ in 0..200 {
            let mut stubs = base_stubs.clone();
            stubs.shuffle(&mut rng);
            let mut cand: Vec<Vec<usize>> = Vec::with_capacity(m);
            for r in 0..m {
                let mut row: Vec<usize> = stubs[r * wr..(r + 1) * wr].to_vec();
                row.sort_unstable();
                let len_before = row.len();
                row.dedup();
                if row.len() != len_before {
                    continue 'attempt; // parallel edge: retry with a fresh shuffle
                }
                cand.push(row);
            }
            supports = cand;
            break;
        }
        if supports.is_empty() {
            // Extremely unlikely fallback: accept a shuffle with parallel edges removed.
            let mut stubs = base_stubs.clone();
            stubs.shuffle(&mut rng);
            supports = (0..m)
                .map(|r| {
                    let mut row: Vec<usize> = stubs[r * wr..(r + 1) * wr].to_vec();
                    row.sort_unstable();
                    row.dedup();
                    row
                })
                .collect();
        }
        let h = BitMat::from_row_supports(m, n, &supports);
        ClassicalCode::new(format!("ldpc({wc},{wr}) n={n} seed={seed}"), h)
    }

    /// Searches seeds for a `(wc, wr)`-regular LDPC code with the requested dimension
    /// and minimum distance. Deterministic: seeds are scanned in increasing order from
    /// `start_seed`.
    ///
    /// Returns the first code found, or `None` after `max_tries` seeds.
    pub fn search_regular_ldpc(
        n: usize,
        wc: usize,
        wr: usize,
        want_k: usize,
        want_d: usize,
        start_seed: u64,
        max_tries: u64,
    ) -> Option<Self> {
        for seed in start_seed..start_seed + max_tries {
            let code = Self::gallager_ldpc(n, wc, wr, seed);
            if code.dimension() != want_k {
                continue;
            }
            if let Some(d) = code.minimum_distance() {
                if d >= want_d {
                    return Some(code);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_parameters() {
        let c = ClassicalCode::repetition(5);
        let (n, k, d) = c.parameters();
        assert_eq!((n, k, d), (5, 1, Some(5)));
    }

    /// The `[7,4,3]` Hamming code.
    fn hamming_7_4() -> ClassicalCode {
        let h = BitMat::from_dense(&[
            vec![1, 0, 1, 0, 1, 0, 1],
            vec![0, 1, 1, 0, 0, 1, 1],
            vec![0, 0, 0, 1, 1, 1, 1],
        ]);
        ClassicalCode::new("hamming[7,4,3]", h)
    }

    #[test]
    fn hamming_parameters() {
        let c = hamming_7_4();
        let (n, k, d) = c.parameters();
        assert_eq!((n, k, d), (7, 4, Some(3)));
    }

    #[test]
    fn gallager_regularity() {
        let c = ClassicalCode::gallager_ldpc(12, 3, 4, 1);
        let h = c.parity_check();
        assert_eq!(h.shape(), (9, 12));
        for r in 0..h.num_rows() {
            assert_eq!(h.row_weight(r), 4, "every check has weight wr");
        }
        let ht = h.transpose();
        for col in 0..h.num_cols() {
            // Column weight can drop below wc if two permutations collide on the same
            // (row-block, bit) pair, but can never exceed wc.
            assert!(ht.row_weight(col) <= 3);
        }
    }

    #[test]
    fn gallager_deterministic() {
        let a = ClassicalCode::gallager_ldpc(12, 3, 4, 42);
        let b = ClassicalCode::gallager_ldpc(12, 3, 4, 42);
        assert_eq!(a.parity_check(), b.parity_check());
    }

    #[test]
    fn search_finds_12_3_code() {
        let c = ClassicalCode::search_regular_ldpc(12, 3, 4, 3, 4, 0, 500)
            .expect("a [12,3,>=4] regular LDPC code should exist within 500 seeds");
        let (n, k, d) = c.parameters();
        assert_eq!(n, 12);
        assert_eq!(k, 3);
        assert!(d.unwrap() >= 4);
    }

    #[test]
    fn dimension_matches_rank_deficit() {
        let c = ClassicalCode::gallager_ldpc(16, 3, 4, 7);
        assert_eq!(c.dimension(), 16 - c.parity_check().rank());
    }
}
