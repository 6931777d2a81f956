//! The cold OSD-0 reference: a fresh `0..n` column order on every decode, the
//! augmented matrix `[H(ordered) | s]` gathered bit by bit from the dense
//! rows of `H` over all `n` columns, and a full Gauss-Jordan elimination with
//! no early exit. The decoder's column-basis OSD (heap-ordered columns
//! reduced against a basis until the residual syndrome is zero) is pinned to
//! it byte for byte, and the `decoder_hotpath` bench times both OSD stages.

use qec::linalg::BitMat;

/// The reference decoder for one parity-check matrix.
pub struct ColdOsd {
    h: BitMat,
}

/// The reference decoder's buffers, reused across decodes (allocation-free
/// once grown).
#[derive(Default)]
pub struct ColdOsdScratch {
    order: Vec<usize>,
    aug: Vec<u64>,
    pivot_cols: Vec<usize>,
    error: Vec<bool>,
}

impl ColdOsdScratch {
    /// The solution of the last consistent decode.
    pub fn error(&self) -> &[bool] {
        &self.error
    }
}

/// NaN ranks least suspicious and signed zeros collapse, as in the decoder.
fn suspicion_key(x: f64) -> f64 {
    if x.is_nan() {
        f64::NEG_INFINITY
    } else if x == 0.0 {
        0.0
    } else {
        x
    }
}

impl ColdOsd {
    pub fn new(h: &BitMat) -> Self {
        ColdOsd { h: h.clone() }
    }

    /// Decodes `syndrome` with suspicion scores `suspicion` (higher = more
    /// likely in error). Returns `true` and leaves the OSD-0 solution in
    /// `scratch.error()` when the syndrome is in the column space of `H`;
    /// returns `false`, leaving `scratch.error()` untouched, otherwise.
    pub fn decode(
        &self,
        syndrome: &[bool],
        suspicion: &[f64],
        scratch: &mut ColdOsdScratch,
    ) -> bool {
        let m = self.h.num_rows();
        let n = self.h.num_cols();
        assert_eq!(syndrome.len(), m, "syndrome length mismatch");
        assert_eq!(suspicion.len(), n, "need one score per column");
        let order = &mut scratch.order;
        order.clear();
        order.extend(0..n);
        order.sort_unstable_by(|&a, &b| {
            suspicion_key(suspicion[b])
                .total_cmp(&suspicion_key(suspicion[a]))
                .then(a.cmp(&b))
        });

        // Dense gather: bit `pos` of row `r` is `H[r][order[pos]]`, collected
        // 64 columns at a time, with the syndrome at bit `n`.
        let words = (n + 1).div_ceil(64);
        let aug = &mut scratch.aug;
        aug.resize(m * words, 0);
        for (r, &sr) in syndrome.iter().enumerate() {
            let h_row = self.h.row_words(r);
            let out = &mut aug[r * words..(r + 1) * words];
            let mut acc = 0u64;
            for (pos, &orig) in order.iter().enumerate() {
                acc |= ((h_row[orig >> 6] >> (orig & 63)) & 1) << (pos & 63);
                if pos & 63 == 63 {
                    out[pos >> 6] = acc;
                    acc = 0;
                }
            }
            out[n >> 6] = acc | (u64::from(sr) << (n & 63));
        }

        // Full elimination in permuted-column order: the next pivot column is
        // the smallest leading set bit (syndrome bit masked out) over the rows
        // not yet pivoted, and the pivot row the first row attaining it.
        let last_word_mask = (1u64 << (n & 63)) - 1;
        let syndrome_bit = |aug: &[u64], r: usize| (aug[r * words + (n >> 6)] >> (n & 63)) & 1 == 1;
        let pivot_cols = &mut scratch.pivot_cols;
        pivot_cols.clear();
        let mut pivot_row = 0usize;
        while pivot_row < m {
            let lead = (pivot_row..m)
                .filter_map(|r| {
                    let row = &aug[r * words..(r + 1) * words];
                    row.iter().enumerate().find_map(|(w, &raw)| {
                        let word = if w == words - 1 {
                            raw & last_word_mask
                        } else {
                            raw
                        };
                        (word != 0).then(|| ((w << 6) | word.trailing_zeros() as usize, r))
                    })
                })
                .min();
            let Some((col, row)) = lead else {
                break;
            };
            for w in 0..words {
                aug.swap(pivot_row * words + w, row * words + w);
            }
            for rr in 0..m {
                if rr != pivot_row && (aug[rr * words + (col >> 6)] >> (col & 63)) & 1 == 1 {
                    for w in 0..words {
                        let v = aug[pivot_row * words + w];
                        aug[rr * words + w] ^= v;
                    }
                }
            }
            pivot_cols.push(col);
            pivot_row += 1;
        }
        // A zero row with a set syndrome bit: no solution.
        if (pivot_cols.len()..m).any(|r| syndrome_bit(aug, r)) {
            return false;
        }
        scratch.error.clear();
        scratch.error.resize(n, false);
        for (row, &col) in pivot_cols.iter().enumerate() {
            scratch.error[order[col]] = syndrome_bit(aug, row);
        }
        true
    }
}
