//! Sparse binary parity-check matrices for iterative decoding.
//!
//! [`SparseBinMat`] stores a parity-check matrix as row and column adjacency lists —
//! the natural representation for belief propagation, where messages flow along the
//! edges of the Tanner graph.

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

    /// Total number of nonzero entries.
    pub fn num_entries(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
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

/// Lane width of the row-interleaved layout: checks are processed in groups of
/// four, one per `f64` lane of an AVX2 vector. Both compilations of the
/// [`crate::simd`] kernels walk the same layout.
pub const PAD_LANES: usize = 4;

/// A flattened Tanner graph derived from a [`SparseBinMat`].
///
/// Edges (nonzero entries of `H`) are numbered row-major, and `col_of_edge`
/// maps each edge to its variable. For any one variable, ascending edge id is
/// ascending check order, so a single row-major edge sweep accumulates every
/// column in exactly that order.
///
/// The message arenas use a **row-interleaved** slot numbering for the
/// check-pass kernel ([`crate::simd`]): checks are processed in
/// groups of [`PAD_LANES`], lane = check, so every per-row reduction — sign
/// parity (XOR of `msg < 0.0` predicates) and the two-smallest-magnitude scan —
/// stays entirely lane-wise with *no* horizontal combine. Group `g` owns slots
/// `group_ptr[g]..group_ptr[g + 1]`: slot `group_ptr[g] + j·PAD_LANES + lane`
/// holds message `j` of check `g·PAD_LANES + lane`, and the group's depth is
/// the maximum degree among its checks. Slots past a check's degree (and whole
/// lanes past `num_checks` in the last group) are padding: they hold
/// neutral-element messages (`+∞` magnitude, positive sign), are written once
/// at decode start, and are never touched again — the variable pass walks only
/// the real edges through [`TannerGraph::edge_slots`], in exactly the
/// row-major order the (order-sensitive) scalar accumulation uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TannerGraph {
    num_checks: usize,
    num_vars: usize,
    col_of_edge: Vec<usize>,
    /// Interleaved group pointers: row group `g` (checks
    /// `g·PAD_LANES..(g+1)·PAD_LANES`) owns slots `group_ptr[g]..group_ptr[g+1]`,
    /// always a multiple of [`PAD_LANES`] long.
    group_ptr: Vec<usize>,
    /// Interleaved slot of each real edge, indexed by row-major edge id.
    edge_slots: Vec<u32>,
    /// Interleaved slots holding no real edge (ascending) — the complement of
    /// `edge_slots` over `0..num_interleaved_slots()`.
    pad_slots: Vec<u32>,
}

impl TannerGraph {
    /// Flattens the Tanner graph of a parity-check matrix.
    pub fn new(h: &SparseBinMat) -> Self {
        let m = h.num_rows();
        let n = h.num_cols();
        let col_of_edge: Vec<usize> = (0..m).flat_map(|r| h.row(r)).copied().collect();
        // Row-interleaved layout: lane = check within its group of PAD_LANES,
        // group depth = the maximum degree among the group's checks. Message j
        // of check r lands at slot `group_ptr[g] + j·PAD_LANES + (r mod
        // PAD_LANES)`, so a group's messages at position j form one contiguous
        // vector across its lanes.
        let groups = m.div_ceil(PAD_LANES);
        let mut group_ptr = Vec::with_capacity(groups + 1);
        // Rows are visited in ascending order, so `edge_slots` fills in
        // row-major edge order.
        let mut edge_slots = Vec::with_capacity(col_of_edge.len());
        group_ptr.push(0);
        let mut base = 0usize;
        for g in 0..groups {
            let first = g * PAD_LANES;
            let last = (first + PAD_LANES).min(m);
            let depth = (first..last).map(|r| h.row(r).len()).max().unwrap_or(0);
            for (lane, r) in (first..last).enumerate() {
                for j in 0..h.row(r).len() {
                    edge_slots.push(
                        u32::try_from(base + j * PAD_LANES + lane)
                            .expect("interleaved arena exceeds u32 slot indexing"),
                    );
                }
            }
            base += depth * PAD_LANES;
            group_ptr.push(base);
        }
        // Complement of `edge_slots` over the arena: the padding slots the BP
        // per-decode init must neutralize (`+∞`). Precomputing the list keeps
        // that init proportional to the padding (typically a small fraction of
        // the arena) instead of a full-arena fill.
        let mut is_real = vec![false; base];
        for &slot in &edge_slots {
            is_real[slot as usize] = true;
        }
        let pad_slots: Vec<u32> = (0..base as u32).filter(|&s| !is_real[s as usize]).collect();
        TannerGraph {
            num_checks: m,
            num_vars: n,
            col_of_edge,
            group_ptr,
            edge_slots,
            pad_slots,
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

    /// Every edge's variable, indexed by row-major edge id.
    #[inline]
    pub fn edge_vars(&self) -> &[usize] {
        &self.col_of_edge
    }

    /// Total number of interleaved slots (real edges plus padding), i.e. the
    /// length of the message arenas.
    #[inline]
    pub fn num_interleaved_slots(&self) -> usize {
        *self.group_ptr.last().expect("group_ptr is never empty")
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

    /// The interleaved slot of each real edge, indexed by row-major edge id —
    /// the bridge the (order-sensitive) scalar variable pass uses to read and
    /// write the interleaved message arenas in exact row-major edge order.
    #[inline]
    pub fn edge_slots(&self) -> &[u32] {
        &self.edge_slots
    }

    /// The interleaved slots that hold no real edge, ascending — the padding
    /// positions the per-decode init neutralizes with `+∞`.
    #[inline]
    pub fn pad_slots(&self) -> &[u32] {
        &self.pad_slots
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
        assert_eq!(s.num_entries(), 4);
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
        // H = [1 0 1; 0 1 1] → edges 0:(r0,c0) 1:(r0,c2) 2:(r1,c1) 3:(r1,c2)
        let s = SparseBinMat::from_row_supports(3, vec![vec![0, 2], vec![1, 2]]);
        let g = TannerGraph::new(&s);
        assert_eq!(g.num_checks(), 2);
        assert_eq!(g.num_vars(), 3);
        assert_eq!(g.edge_vars(), &[0, 2, 1, 2]);
        // Check side: both checks share one four-slot group, lane = check.
        assert_eq!(g.group_ptr(), &[0, 8]);
        assert_eq!(g.edge_slots(), &[0, 4, 1, 5]);
    }

    #[test]
    fn tanner_graph_column_order_is_check_ascending() {
        let s = SparseBinMat::from_row_supports(2, vec![vec![0], vec![0], vec![0, 1]]);
        let g = TannerGraph::new(&s);
        // Column 0 is touched by checks 0, 1, 2 via edges 0, 1, 2 in that order,
        // so a row-major edge sweep accumulates it in ascending-check order.
        let col0: Vec<usize> = (0..g.edge_vars().len())
            .filter(|&e| g.edge_vars()[e] == 0)
            .collect();
        assert_eq!(col0, [0, 1, 2]);
        assert_eq!(g.edge_vars()[2], 0);
    }

    /// The row-interleaved construction invariants the check-pass kernel relies
    /// on: lane-aligned group spans sized by the group's maximum degree, slot
    /// `group_base + j·PAD_LANES + lane` holding message `j` of check
    /// `group·PAD_LANES + lane`, and every real edge owning a unique in-bounds
    /// slot.
    #[test]
    fn interleaved_layout_invariants() {
        // Degrees 1, 4, 0 (empty), 3 | 9 — mixed degrees within a group plus a
        // partial trailing group with phantom lanes.
        let rows = vec![
            vec![2],
            vec![0, 1, 2, 3],
            vec![],
            vec![1, 3, 4],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8],
        ];
        let s = SparseBinMat::from_row_supports(9, rows.clone());
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
        // Each real edge's slot encodes (group, position, lane) of its check.
        assert_eq!(g.edge_slots().len(), g.edge_vars().len());
        let mut edge = 0usize;
        let mut seen = vec![false; g.num_interleaved_slots()];
        for (r, row) in rows.iter().enumerate() {
            for j in 0..row.len() {
                let slot = g.edge_slots()[edge] as usize;
                let expect = ptr[r / PAD_LANES] + j * PAD_LANES + (r % PAD_LANES);
                assert_eq!(slot, expect, "edge {edge} (check {r}, msg {j})");
                assert!(!seen[slot], "slot {slot} assigned twice");
                seen[slot] = true;
                edge += 1;
            }
        }
        // `pad_slots` is exactly the ascending complement of the real-edge
        // slots, so edge scatter + pad fill together touch every slot once.
        let pads: Vec<usize> = g.pad_slots().iter().map(|&s| s as usize).collect();
        let expect_pads: Vec<usize> = (0..g.num_interleaved_slots())
            .filter(|&s| !seen[s])
            .collect();
        assert_eq!(pads, expect_pads);
        assert_eq!(pads.len() + g.edge_vars().len(), g.num_interleaved_slots());
    }
}
