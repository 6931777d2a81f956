//! Sparse binary parity-check matrices for iterative decoding.
//!
//! [`SparseBinMat`] stores a parity-check matrix as row and column adjacency lists —
//! the natural representation for belief propagation, where messages flow along the
//! edges of the Tanner graph. [`TannerGraph`] flattens it once per decoder into
//! the two lane layouts of the [`crate::simd`] kernels: row-interleaved message
//! slots for the check pass, and a depth-major column table that visits each
//! column's messages in ascending check order for the variable pass.

use qec::linalg::BitMat;

/// A sparse binary matrix stored as row supports and column supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBinMat {
    num_rows: usize,
    num_cols: usize,
    rows: Vec<Vec<usize>>,
    cols: Vec<Vec<usize>>,
}

impl SparseBinMat {
    /// Builds a sparse matrix from row supports.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range.
    pub fn from_row_supports(num_cols: usize, rows: Vec<Vec<usize>>) -> Self {
        let num_rows = rows.len();
        let mut cols = vec![Vec::new(); num_cols];
        for (r, support) in rows.iter().enumerate() {
            for &c in support {
                assert!(c < num_cols, "column {c} out of range ({num_cols})");
                cols[c].push(r);
            }
        }
        SparseBinMat {
            num_rows,
            num_cols,
            rows,
            cols,
        }
    }

    /// Converts a dense GF(2) matrix.
    pub fn from_bitmat(m: &BitMat) -> Self {
        Self::from_row_supports(m.num_cols(), m.to_row_supports())
    }

    /// Number of rows (checks).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns (variables).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Support of row `r`.
    pub fn row(&self, r: usize) -> &[usize] {
        &self.rows[r]
    }

    /// Support of column `c`.
    pub fn col(&self, c: usize) -> &[usize] {
        &self.cols[c]
    }

    /// Computes the syndrome `H·e` of an error pattern.
    ///
    /// # Panics
    ///
    /// Panics if `error.len() != num_cols`.
    pub fn syndrome(&self, error: &[bool]) -> Vec<bool> {
        assert_eq!(error.len(), self.num_cols, "error length mismatch");
        self.rows
            .iter()
            .map(|row| row.iter().fold(false, |acc, &c| acc ^ error[c]))
            .collect()
    }

    /// Computes the syndrome `H·e` into a caller-owned buffer (no allocation once the
    /// buffer has reached `num_rows` capacity).
    ///
    /// # Panics
    ///
    /// Panics if `error.len() != num_cols`.
    // cyclone-lint: hot-path
    pub fn syndrome_into(&self, error: &[bool], out: &mut Vec<bool>) {
        assert_eq!(error.len(), self.num_cols, "error length mismatch");
        out.clear();
        out.extend(
            self.rows
                .iter()
                .map(|row| row.iter().fold(false, |acc, &c| acc ^ error[c])),
        );
    }
    // cyclone-lint: end-hot-path

    /// The columns packed 64 rows per word: column `c` is words
    /// `c * w..(c + 1) * w`, `w = num_rows.div_ceil(64)`, with row `r` at bit
    /// `r & 63` of word `r >> 6` — the layout in which `H·e` for a sparse `e`
    /// is the XOR of a few columns.
    pub(crate) fn packed_columns(&self) -> Vec<u64> {
        let w = self.num_rows.div_ceil(64);
        let mut words = vec![0u64; self.num_cols * w];
        for (c, col) in self.cols.iter().enumerate() {
            for &r in col {
                words[c * w + (r >> 6)] |= 1 << (r & 63);
            }
        }
        words
    }

    /// Returns a dense copy.
    pub fn to_bitmat(&self) -> BitMat {
        BitMat::from_row_supports(self.num_rows, self.num_cols, &self.rows)
    }

    /// Word-sliced syndrome extraction for bit-sliced batch decoding: `err_words`
    /// holds 64 error patterns *column-major* (bit `k` of `err_words[c]` is pattern
    /// `k`'s value at variable `c`), and `out[r]` receives the 64 syndromes of
    /// check `r` in the same bit positions — one XOR per nonzero entry of `H`
    /// serves all 64 patterns at once.
    ///
    /// # Panics
    ///
    /// Panics if `err_words.len() != num_cols`.
    // cyclone-lint: hot-path
    pub fn syndrome_words_into(&self, err_words: &[u64], out: &mut Vec<u64>) {
        assert_eq!(err_words.len(), self.num_cols, "error length mismatch");
        out.clear();
        out.extend(
            self.rows
                .iter()
                .map(|row| row.iter().fold(0u64, |acc, &c| acc ^ err_words[c])),
        );
    }
    // cyclone-lint: end-hot-path
}

/// Lane width of the interleaved layouts: checks (check pass) and columns
/// (variable pass) are processed in groups of four, one per `f64` lane of an
/// AVX2 vector. Every compilation of the [`crate::simd`] kernels walks the
/// same layouts.
pub const PAD_LANES: usize = 4;

/// A flattened Tanner graph derived from a [`SparseBinMat`], in the two
/// lane layouts of the [`crate::simd`] kernels.
///
/// The message arenas use a **row-interleaved** slot numbering for the
/// check pass: checks are processed in groups of [`PAD_LANES`], lane = check,
/// so every per-row reduction — sign parity (XOR of `msg < 0.0` predicates)
/// and the two-smallest-magnitude scan — stays entirely lane-wise with *no*
/// horizontal combine. Group `g` owns slots `group_ptr[g]..group_ptr[g + 1]`:
/// slot `group_ptr[g] + j·PAD_LANES + lane` holds message `j` of check
/// `g·PAD_LANES + lane`, and the group's depth is the maximum degree among its
/// checks. Slots past a check's degree (and whole lanes past `num_checks` in
/// the last group) are padding: they hold neutral-element messages (`+∞`
/// magnitude, positive sign) that no pass ever overwrites.
///
/// The variable pass reads the same arenas through a **depth-major column
/// table**: columns are processed in groups of [`PAD_LANES`], lane = column.
/// Column group `k` owns table entries `col_ptr[k]..col_ptr[k + 1]`, and entry
/// `col_ptr[k] + j·PAD_LANES + lane` is the arena slot of the `j`-th check of
/// column `k·PAD_LANES + lane` in ascending check order. Entries past a
/// column's degree (and whole lanes past `num_vars`) point at the **spare
/// cell** (slot [`TannerGraph::num_interleaved_slots`], past the last group),
/// whose check→variable message is `-0.0`: adding it leaves every sum
/// bit-identical, and writes to it are never read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TannerGraph {
    num_checks: usize,
    num_vars: usize,
    /// Interleaved group pointers: row group `g` (checks
    /// `g·PAD_LANES..(g+1)·PAD_LANES`) owns slots `group_ptr[g]..group_ptr[g+1]`,
    /// always a multiple of [`PAD_LANES`] long.
    group_ptr: Vec<usize>,
    /// Column-group pointers into `col_slots`.
    col_ptr: Vec<usize>,
    /// The depth-major column table: arena slots, the spare cell for padding.
    col_slots: Vec<u32>,
    /// See [`TannerGraph::digest`].
    digest: u64,
}

/// Group pointers of a lane layout over `count` items (checks or columns) in
/// groups of [`PAD_LANES`]: each group spans its largest `degree` times
/// [`PAD_LANES`] entries.
fn lane_groups(count: usize, degree: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut ptr = vec![0];
    for first in (0..count).step_by(PAD_LANES) {
        let depth = (first..count.min(first + PAD_LANES)).map(&degree).max();
        ptr.push(ptr[ptr.len() - 1] + depth.unwrap_or(0) * PAD_LANES);
    }
    ptr
}

impl TannerGraph {
    /// Flattens the Tanner graph of a parity-check matrix.
    pub fn new(h: &SparseBinMat) -> Self {
        let (m, n) = (h.num_rows(), h.num_cols());
        let group_ptr = lane_groups(m, |r| h.row(r).len());
        let col_ptr = lane_groups(n, |c| h.col(c).len());
        let spare = u32::try_from(group_ptr[group_ptr.len() - 1])
            .expect("interleaved arena exceeds u32 slot indexing");
        let mut col_slots = vec![spare; col_ptr[col_ptr.len() - 1]];
        // The depth each column's next entry goes to.
        let mut filled = vec![0usize; n];
        let mut digest = noise::fnv::Fnv1a::new();
        digest.write_u64(m as u64).write_u64(n as u64);
        for r in 0..m {
            digest.write_u64(h.row(r).len() as u64);
            for (j, &c) in h.row(r).iter().enumerate() {
                digest.write_u64(c as u64);
                // Message j of check r; below `spare`, so it fits in a u32.
                let slot = group_ptr[r / PAD_LANES] + j * PAD_LANES + r % PAD_LANES;
                // Rows ascend, so each column fills in ascending check order.
                let entry = col_ptr[c / PAD_LANES] + filled[c] * PAD_LANES + c % PAD_LANES;
                col_slots[entry] = slot as u32;
                filled[c] += 1;
            }
        }
        TannerGraph {
            num_checks: m,
            num_vars: n,
            group_ptr,
            col_ptr,
            col_slots,
            digest: digest.finish(),
        }
    }

    /// Number of checks (rows of `H`).
    pub fn num_checks(&self) -> usize {
        self.num_checks
    }

    /// Number of variables (columns of `H`).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of interleaved slots (real edges plus padding). The spare
    /// cell of the column table is the slot at this index.
    #[inline]
    pub fn num_interleaved_slots(&self) -> usize {
        *self.group_ptr.last().expect("group_ptr is never empty")
    }

    /// Length of the message arenas: the interleaved slots and the spare
    /// cell, rounded up to a power of two (at least [`PAD_LANES`]), so the
    /// variable-pass kernels index them with a mask and no bounds check.
    #[inline]
    pub fn arena_len(&self) -> usize {
        (self.num_interleaved_slots() + 1)
            .next_power_of_two()
            .max(PAD_LANES)
    }

    /// Number of row groups (`num_checks` rounded up to [`PAD_LANES`] lanes).
    #[inline]
    pub fn num_row_groups(&self) -> usize {
        self.group_ptr.len() - 1
    }

    /// The interleaved group-pointer array (`num_row_groups() + 1` entries,
    /// every span a multiple of [`PAD_LANES`]).
    #[inline]
    pub fn group_ptr(&self) -> &[usize] {
        &self.group_ptr
    }

    /// The column-group pointers into [`TannerGraph::col_slots`]
    /// (`num_vars.div_ceil(PAD_LANES) + 1` entries, every span a multiple of
    /// [`PAD_LANES`]).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The depth-major column table: for each column, the arena slots of its
    /// checks in ascending check order, padded with the spare cell.
    #[inline]
    pub fn col_slots(&self) -> &[u32] {
        &self.col_slots
    }

    /// A 64-bit FNV-1a digest of the shape and the row supports. Two graphs
    /// of equal shape (the X and Z sectors of a code) differ in it, so it
    /// keys what a [`crate::scratch::DecoderScratch`] builds per graph.
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_bitmat() {
        let m = BitMat::from_dense(&[vec![1, 0, 1], vec![0, 1, 1]]);
        let s = SparseBinMat::from_bitmat(&m);
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.num_cols(), 3);
        assert_eq!((0..2).map(|r| s.row(r).len()).sum::<usize>(), 4);
        assert_eq!(s.to_bitmat(), m);
    }

    #[test]
    fn syndrome_matches_dense() {
        let m = BitMat::from_dense(&[vec![1, 1, 0], vec![0, 1, 1]]);
        let s = SparseBinMat::from_bitmat(&m);
        let e = vec![true, false, true];
        assert_eq!(s.syndrome(&e), m.mul_vec(&e));
    }

    #[test]
    fn column_supports() {
        let s = SparseBinMat::from_row_supports(3, vec![vec![0, 2], vec![1, 2]]);
        assert_eq!(s.col(2), &[0, 1]);
        assert_eq!(s.col(0), &[0]);
    }

    #[test]
    fn syndrome_into_matches_allocating_syndrome() {
        let m = BitMat::from_dense(&[vec![1, 1, 0], vec![0, 1, 1]]);
        let s = SparseBinMat::from_bitmat(&m);
        let e = vec![true, false, true];
        let mut out = vec![true; 7]; // stale, over-long contents must be replaced
        s.syndrome_into(&e, &mut out);
        assert_eq!(out, s.syndrome(&e));
    }

    #[test]
    fn syndrome_words_match_per_pattern_syndromes() {
        // Pack 64 random-ish error patterns column-major and check every bit lane
        // against the per-pattern bool syndrome.
        let s = SparseBinMat::from_row_supports(5, vec![vec![0, 1, 4], vec![1, 2], vec![2, 3, 4]]);
        let mut err_words = vec![0u64; 5];
        for k in 0..64u64 {
            for (c, word) in err_words.iter_mut().enumerate() {
                // An arbitrary deterministic pattern mixing lane and column.
                if (k.wrapping_mul(0x9E37_79B9) >> c) & 1 == 1 {
                    *word |= 1 << k;
                }
            }
        }
        let mut syn_words = Vec::new();
        s.syndrome_words_into(&err_words, &mut syn_words);
        for k in 0..64 {
            let e: Vec<bool> = (0..5).map(|c| (err_words[c] >> k) & 1 == 1).collect();
            let expect = s.syndrome(&e);
            for (r, &want) in expect.iter().enumerate() {
                assert_eq!((syn_words[r] >> k) & 1 == 1, want, "lane {k} check {r}");
            }
        }
    }

    #[test]
    fn tanner_graph_flattens_both_sides() {
        // H = [1 0 1; 0 1 1]: check 0 holds c0, c2 at slots 0, 4; check 1
        // holds c1, c2 at slots 1, 5.
        let s = SparseBinMat::from_row_supports(3, vec![vec![0, 2], vec![1, 2]]);
        let g = TannerGraph::new(&s);
        assert_eq!(g.num_checks(), 2);
        assert_eq!(g.num_vars(), 3);
        // Check side: both checks share one four-slot group, lane = check.
        assert_eq!(g.group_ptr(), &[0, 8]);
        assert_eq!(g.num_interleaved_slots(), 8);
        // The slots and the spare cell, rounded up to a power of two.
        assert_eq!(g.arena_len(), 16);
        // Variable side: one column group of depth 2 (column 2 has two
        // checks); column 3 is a phantom lane. The spare cell is slot 8.
        assert_eq!(g.col_ptr(), &[0, 8]);
        assert_eq!(g.col_slots(), &[0, 1, 4, 8, 8, 8, 5, 8]);
    }

    #[test]
    fn tanner_graph_column_order_is_check_ascending() {
        let s = SparseBinMat::from_row_supports(2, vec![vec![0], vec![0], vec![0, 1]]);
        let g = TannerGraph::new(&s);
        // Column 0 is touched by checks 0, 1, 2 (slots 0, 1, 2): its lane reads
        // them at depths 0, 1, 2, in ascending check order. Column 1 has only
        // check 2 (message 1 of lane 2, slot 6) and pads with the spare cell.
        let spare = g.num_interleaved_slots() as u32;
        let lane = |c: usize| -> Vec<u32> {
            g.col_slots()
                .iter()
                .skip(c)
                .step_by(PAD_LANES)
                .copied()
                .collect()
        };
        assert_eq!(lane(0), [0, 1, 2]);
        assert_eq!(lane(1), [6, spare, spare]);
        assert_eq!(lane(3), [spare; 3]);
    }

    /// The construction invariants the kernels rely on: lane-aligned row
    /// groups sized by the group's maximum degree, slot `group_base +
    /// j·PAD_LANES + lane` holding message `j` of check `group·PAD_LANES +
    /// lane`, and a column table that lists every real slot exactly once, in
    /// its column's lane, in ascending check order, padded with the spare cell.
    #[test]
    fn interleaved_layout_invariants() {
        // Degrees 1, 4, 0 (empty), 3 | 9 — mixed degrees within a group plus a
        // partial trailing group with phantom lanes — over 10 columns, so
        // column 9 has degree 0 and the last column group has phantom lanes.
        let rows = vec![
            vec![2],
            vec![0, 1, 2, 3],
            vec![],
            vec![1, 3, 4],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8],
        ];
        let n = 10;
        let s = SparseBinMat::from_row_supports(n, rows.clone());
        let g = TannerGraph::new(&s);
        assert_eq!(g.num_row_groups(), rows.len().div_ceil(PAD_LANES));
        let ptr = g.group_ptr();
        assert_eq!(ptr.len(), g.num_row_groups() + 1);
        assert_eq!(ptr[0], 0);
        for grp in 0..g.num_row_groups() {
            let first = grp * PAD_LANES;
            let last = (first + PAD_LANES).min(rows.len());
            let depth = (first..last).map(|r| rows[r].len()).max().unwrap_or(0);
            assert_eq!(
                ptr[grp + 1] - ptr[grp],
                depth * PAD_LANES,
                "group {grp} span must be max-degree × lanes"
            );
        }
        assert_eq!(g.num_interleaved_slots(), *ptr.last().unwrap());
        // The slot of each real edge, per column in ascending check order.
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (r, row) in rows.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                want[c].push((ptr[r / PAD_LANES] + j * PAD_LANES + r % PAD_LANES) as u32);
            }
        }
        let spare = g.num_interleaved_slots() as u32;
        let cols = g.col_ptr();
        assert_eq!(cols.len(), n.div_ceil(PAD_LANES) + 1);
        let mut seen = vec![false; g.num_interleaved_slots()];
        for grp in 0..cols.len() - 1 {
            let span = &g.col_slots()[cols[grp]..cols[grp + 1]];
            assert_eq!(span.len() % PAD_LANES, 0);
            for lane in 0..PAD_LANES {
                let c = grp * PAD_LANES + lane;
                let got: Vec<u32> = span.iter().skip(lane).step_by(PAD_LANES).copied().collect();
                let real = want.get(c).map_or(0, Vec::len);
                assert_eq!(
                    &got[..real],
                    want.get(c).map_or(&[][..], Vec::as_slice),
                    "column {c}"
                );
                assert!(
                    got[real..].iter().all(|&s| s == spare),
                    "column {c} padding"
                );
                for &slot in &got[..real] {
                    assert!(!seen[slot as usize], "slot {slot} listed twice");
                    seen[slot as usize] = true;
                }
            }
            let depth = (0..PAD_LANES)
                .map(|lane| want.get(grp * PAD_LANES + lane).map_or(0, Vec::len))
                .max()
                .unwrap_or(0);
            assert_eq!(span.len(), depth * PAD_LANES, "column group {grp} depth");
        }
        let real_edges: usize = rows.iter().map(Vec::len).sum();
        assert_eq!(seen.iter().filter(|&&s| s).count(), real_edges);
    }

    #[test]
    fn tanner_graph_digest_tells_equal_shapes_apart() {
        let a = SparseBinMat::from_row_supports(3, vec![vec![0, 2], vec![1, 2]]);
        let b = SparseBinMat::from_row_supports(3, vec![vec![0, 1], vec![1, 2]]);
        let digest = |h: &SparseBinMat| TannerGraph::new(h).digest();
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
        let wider = SparseBinMat::from_row_supports(4, vec![vec![0, 2], vec![1, 2]]);
        assert_ne!(digest(&a), digest(&wider));
    }
}
