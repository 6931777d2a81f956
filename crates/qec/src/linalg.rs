//! Dense GF(2) linear algebra.
//!
//! [`BitMat`] is a dense binary matrix with rows packed into `u64` words. It provides
//! the operations needed to construct CSS codes and their logical operators: rank,
//! reduced row-echelon form, null space, transpose, Kronecker products, and
//! matrix/vector multiplication over GF(2).
//!
//! # Examples
//!
//! ```
//! use qec::linalg::BitMat;
//!
//! let mut m = BitMat::zeros(2, 3);
//! m.set(0, 0, true);
//! m.set(0, 2, true);
//! m.set(1, 1, true);
//! assert_eq!(m.rank(), 2);
//! ```

use std::fmt;

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// A dense matrix over GF(2) with rows packed into 64-bit words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMat {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMat {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use qec::linalg::BitMat;
    /// let m = BitMat::zeros(3, 5);
    /// assert_eq!(m.shape(), (3, 5));
    /// assert!(m.is_zero());
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(WORD_BITS).max(1);
        BitMat {
            rows,
            cols,
            words_per_row,
            data: vec![0u64; rows * words_per_row],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// # use qec::linalg::BitMat;
    /// let id = BitMat::identity(4);
    /// assert_eq!(id.rank(), 4);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from an iterator of rows, each row given as indices of set columns.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of bounds.
    pub fn from_row_supports(rows: usize, cols: usize, supports: &[Vec<usize>]) -> Self {
        assert_eq!(rows, supports.len(), "row count must match supports length");
        let mut m = Self::zeros(rows, cols);
        for (r, support) in supports.iter().enumerate() {
            for &c in support {
                assert!(
                    c < cols,
                    "column index {c} out of bounds for {cols} columns"
                );
                m.set(r, c, true);
            }
        }
        m
    }

    /// Builds a matrix from a nested `Vec` of 0/1 entries.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_dense(entries: &[Vec<u8>]) -> Self {
        let rows = entries.len();
        let cols = entries.first().map_or(0, |r| r.len());
        let mut m = Self::zeros(rows, cols);
        for (r, row) in entries.iter().enumerate() {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            for (c, &v) in row.iter().enumerate() {
                if v % 2 == 1 {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Number of `u64` storage words per row.
    ///
    /// Together with [`BitMat::row_words`] this exposes the packed representation to
    /// word-level consumers (e.g. the OSD decoder's column-packed copy of `H`);
    /// bit `c` of a row lives in word `c / 64` at bit position `c % 64`.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed storage words of row `r` (bit `c` at word `c / 64`, bit `c % 64`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Returns the bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        let w = self.data[r * self.words_per_row + c / WORD_BITS];
        (w >> (c % WORD_BITS)) & 1 == 1
    }

    /// Sets the bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        let idx = r * self.words_per_row + c / WORD_BITS;
        let mask = 1u64 << (c % WORD_BITS);
        if value {
            self.data[idx] |= mask;
        } else {
            self.data[idx] &= !mask;
        }
    }

    /// Flips (XORs with 1) the bit at `(r, c)`.
    #[inline]
    pub fn flip(&mut self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        let idx = r * self.words_per_row + c / WORD_BITS;
        self.data[idx] ^= 1u64 << (c % WORD_BITS);
    }

    /// Returns true when every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&w| w == 0)
    }

    /// Returns the indices of set columns in row `r`.
    pub fn row_support(&self, r: usize) -> Vec<usize> {
        (0..self.cols).filter(|&c| self.get(r, c)).collect()
    }

    /// Returns the Hamming weight of row `r`.
    pub fn row_weight(&self, r: usize) -> usize {
        let base = r * self.words_per_row;
        self.data[base..base + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Swaps rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for w in 0..self.words_per_row {
            self.data
                .swap(a * self.words_per_row + w, b * self.words_per_row + w);
        }
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> BitMat {
        let mut t = BitMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    t.set(c, r, true);
                }
            }
        }
        t
    }

    /// Matrix multiplication over GF(2): `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree.
    pub fn mul(&self, other: &BitMat) -> BitMat {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must agree: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = BitMat::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                if self.get(r, k) {
                    // out.row(r) ^= other.row(k)
                    let a = k * other.words_per_row;
                    let b = r * out.words_per_row;
                    for w in 0..other.words_per_row {
                        out.data[b + w] ^= other.data[a + w];
                    }
                }
            }
        }
        out
    }

    /// Matrix-vector multiplication over GF(2); `v` is indexed by column.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.num_cols()`.
    pub fn mul_vec(&self, v: &[bool]) -> Vec<bool> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        let mut out = vec![false; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = false;
            for (c, &vc) in v.iter().enumerate() {
                if vc && self.get(r, c) {
                    acc = !acc;
                }
            }
            *o = acc;
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ other` over GF(2).
    pub fn kron(&self, other: &BitMat) -> BitMat {
        let mut out = BitMat::zeros(self.rows * other.rows, self.cols * other.cols);
        for r1 in 0..self.rows {
            for c1 in 0..self.cols {
                if !self.get(r1, c1) {
                    continue;
                }
                for r2 in 0..other.rows {
                    for c2 in 0..other.cols {
                        if other.get(r2, c2) {
                            out.set(r1 * other.rows + r2, c1 * other.cols + c2, true);
                        }
                    }
                }
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hconcat(&self, other: &BitMat) -> BitMat {
        assert_eq!(self.rows, other.rows, "row counts must match for hconcat");
        let mut out = BitMat::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    out.set(r, c, true);
                }
            }
            for c in 0..other.cols {
                if other.get(r, c) {
                    out.set(r, self.cols + c, true);
                }
            }
        }
        out
    }

    /// Vertical concatenation `[self; other]`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vconcat(&self, other: &BitMat) -> BitMat {
        assert_eq!(
            self.cols, other.cols,
            "column counts must match for vconcat"
        );
        let mut out = BitMat::zeros(self.rows + other.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if self.get(r, c) {
                    out.set(r, c, true);
                }
            }
        }
        for r in 0..other.rows {
            for c in 0..self.cols {
                if other.get(r, c) {
                    out.set(self.rows + r, c, true);
                }
            }
        }
        out
    }

    /// Computes the rank over GF(2) without modifying `self`.
    pub fn rank(&self) -> usize {
        let mut work = self.clone();
        work.row_reduce().len()
    }

    /// In-place Gaussian elimination to reduced row-echelon form.
    ///
    /// Returns the pivot columns in order.
    pub fn row_reduce(&mut self) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut pivot_row = 0usize;
        for col in 0..self.cols {
            if pivot_row >= self.rows {
                break;
            }
            // Find a row at or below pivot_row with a 1 in this column.
            let mut found = None;
            for r in pivot_row..self.rows {
                if self.get(r, col) {
                    found = Some(r);
                    break;
                }
            }
            let Some(r) = found else { continue };
            self.swap_rows(pivot_row, r);
            // Eliminate all other rows.
            for rr in 0..self.rows {
                if rr != pivot_row && self.get(rr, col) {
                    let (a, b) = (pivot_row * self.words_per_row, rr * self.words_per_row);
                    for w in 0..self.words_per_row {
                        let v = self.data[a + w];
                        self.data[b + w] ^= v;
                    }
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        pivots
    }

    /// Returns a basis of the null space (kernel) of this matrix: vectors `x` with
    /// `self * x = 0`. Each returned vector has length `self.num_cols()`.
    pub fn null_space(&self) -> Vec<Vec<bool>> {
        let mut work = self.clone();
        let pivots = work.row_reduce();
        let pivot_set: Vec<Option<usize>> = {
            let mut v = vec![None; self.cols];
            for (i, &p) in pivots.iter().enumerate() {
                v[p] = Some(i);
            }
            v
        };
        let mut basis = Vec::new();
        for free_col in 0..self.cols {
            if pivot_set[free_col].is_some() {
                continue;
            }
            let mut vec = vec![false; self.cols];
            vec[free_col] = true;
            // Back-substitute: for each pivot row, the pivot column value equals the
            // row's entry in the free column.
            for (row_idx, &pcol) in pivots.iter().enumerate() {
                if work.get(row_idx, free_col) {
                    vec[pcol] = true;
                }
            }
            basis.push(vec);
        }
        basis
    }

    /// Solves `self * x = b` over GF(2), returning one solution if it exists.
    ///
    /// # Errors
    ///
    /// Returns `None` when the system is inconsistent.
    pub fn solve(&self, b: &[bool]) -> Option<Vec<bool>> {
        assert_eq!(b.len(), self.rows, "rhs length must equal row count");
        // Augment with b as an extra column.
        let mut aug = BitMat::zeros(self.rows, self.cols + 1);
        for (r, &br) in b.iter().enumerate() {
            for c in 0..self.cols {
                if self.get(r, c) {
                    aug.set(r, c, true);
                }
            }
            if br {
                aug.set(r, self.cols, true);
            }
        }
        let pivots = aug.row_reduce();
        // Inconsistent if a pivot lands in the augmented column.
        if pivots.contains(&self.cols) {
            return None;
        }
        let mut x = vec![false; self.cols];
        for (row_idx, &pcol) in pivots.iter().enumerate() {
            if aug.get(row_idx, self.cols) {
                x[pcol] = true;
            }
        }
        Some(x)
    }

    /// Returns the rows as support lists (useful for sparse consumers).
    pub fn to_row_supports(&self) -> Vec<Vec<usize>> {
        (0..self.rows).map(|r| self.row_support(r)).collect()
    }
}

impl fmt::Debug for BitMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMat {}x{}:", self.rows, self.cols)?;
        for r in 0..self.rows.min(40) {
            for c in 0..self.cols.min(120) {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            writeln!(f)?;
        }
        if self.rows > 40 || self.cols > 120 {
            writeln!(f, "... (truncated)")?;
        }
        Ok(())
    }
}

impl fmt::Display for BitMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// XOR of two boolean vectors of equal length.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn xor_vec(a: &[bool], b: &[bool]) -> Vec<bool> {
    assert_eq!(a.len(), b.len(), "vector lengths must match");
    a.iter().zip(b).map(|(&x, &y)| x ^ y).collect()
}

/// Hamming weight of a boolean vector.
pub fn weight(v: &[bool]) -> usize {
    v.iter().filter(|&&b| b).count()
}

/// Dot product over GF(2) of two boolean vectors of equal length.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[bool], b: &[bool]) -> bool {
    assert_eq!(a.len(), b.len(), "vector lengths must match");
    a.iter().zip(b).fold(false, |acc, (&x, &y)| acc ^ (x & y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_rank() {
        for n in 1..10 {
            assert_eq!(BitMat::identity(n).rank(), n);
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMat::zeros(5, 70);
        m.set(3, 65, true);
        m.set(0, 0, true);
        assert!(m.get(3, 65));
        assert!(m.get(0, 0));
        assert!(!m.get(3, 64));
        m.set(3, 65, false);
        assert!(!m.get(3, 65));
    }

    #[test]
    fn flip_toggles() {
        let mut m = BitMat::zeros(2, 2);
        m.flip(1, 1);
        assert!(m.get(1, 1));
        m.flip(1, 1);
        assert!(!m.get(1, 1));
    }

    #[test]
    fn mul_identity_is_noop() {
        let m = BitMat::from_dense(&[vec![1, 0, 1], vec![0, 1, 1]]);
        let id = BitMat::identity(3);
        assert_eq!(m.mul(&id), m);
    }

    #[test]
    fn mul_matches_manual() {
        let a = BitMat::from_dense(&[vec![1, 1], vec![0, 1]]);
        let b = BitMat::from_dense(&[vec![1, 0], vec![1, 1]]);
        let c = a.mul(&b);
        // [1 1; 0 1] * [1 0; 1 1] = [0 1; 1 1] over GF(2)
        assert_eq!(c, BitMat::from_dense(&[vec![0, 1], vec![1, 1]]));
    }

    #[test]
    fn transpose_involution() {
        let m = BitMat::from_dense(&[vec![1, 0, 1, 1], vec![0, 1, 1, 0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn kron_shape_and_values() {
        let a = BitMat::from_dense(&[vec![1, 0], vec![0, 1]]);
        let b = BitMat::from_dense(&[vec![1, 1]]);
        let k = a.kron(&b);
        assert_eq!(k.shape(), (2, 4));
        assert!(k.get(0, 0) && k.get(0, 1) && !k.get(0, 2));
        assert!(k.get(1, 2) && k.get(1, 3));
    }

    #[test]
    fn rank_of_dependent_rows() {
        let m = BitMat::from_dense(&[vec![1, 1, 0], vec![0, 1, 1], vec![1, 0, 1]]);
        // third row = sum of first two
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn null_space_is_kernel() {
        let m = BitMat::from_dense(&[vec![1, 1, 0, 0], vec![0, 1, 1, 0], vec![0, 0, 1, 1]]);
        let ns = m.null_space();
        assert_eq!(ns.len(), 1);
        for v in &ns {
            assert!(m.mul_vec(v).iter().all(|&b| !b));
        }
    }

    #[test]
    fn solve_consistent_system() {
        let m = BitMat::from_dense(&[vec![1, 1, 0], vec![0, 1, 1]]);
        let b = vec![true, false];
        let x = m.solve(&b).expect("system should be consistent");
        assert_eq!(m.mul_vec(&x), b);
    }

    #[test]
    fn solve_inconsistent_system() {
        let m = BitMat::from_dense(&[vec![1, 1, 0], vec![1, 1, 0]]);
        let b = vec![true, false];
        assert!(m.solve(&b).is_none());
    }

    #[test]
    fn row_space_membership() {
        let m = BitMat::from_dense(&[vec![1, 1, 0], vec![0, 1, 1]]);
        // v lies in the row space of m exactly when m^T x = v is solvable.
        let t = m.transpose();
        assert!(t.solve(&[true, false, true]).is_some()); // sum of rows
        assert!(t.solve(&[true, false, false]).is_none());
    }

    #[test]
    fn hconcat_vconcat() {
        let a = BitMat::identity(2);
        let b = BitMat::zeros(2, 3);
        let h = a.hconcat(&b);
        assert_eq!(h.shape(), (2, 5));
        let v = a.vconcat(&BitMat::identity(2));
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.rank(), 2);
    }

    #[test]
    fn row_words_expose_packed_bits() {
        let mut m = BitMat::zeros(2, 70);
        m.set(1, 0, true);
        m.set(1, 65, true);
        assert_eq!(m.words_per_row(), 2);
        let words = m.row_words(1);
        assert_eq!(words[0], 1);
        assert_eq!(words[1], 1 << 1);
        assert_eq!(m.row_words(0), &[0, 0]);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(weight(&[true, false, true]), 2);
        assert_eq!(xor_vec(&[true, false], &[true, true]), vec![false, true]);
        assert!(dot(&[true, true], &[true, false]));
        assert!(!dot(&[true, true], &[true, true]));
    }
}
