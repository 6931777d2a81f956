//! CSS stabilizer codes.
//!
//! A CSS code is described by two parity-check matrices `Hx` (X stabilizers) and
//! `Hz` (Z stabilizers) acting on `n` data qubits, satisfying `Hx · Hzᵀ = 0`.
//! [`CssCode`] stores both matrices, validates the commutation condition, computes
//! logical operators, and exposes the Tanner-graph view needed by the scheduling and
//! hardware-mapping layers.

use crate::error::QecError;
use crate::linalg::{dot, BitMat};

/// Which stabilizer sector a check belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StabKind {
    /// An X-type stabilizer (product of Pauli X on its support).
    X,
    /// A Z-type stabilizer (product of Pauli Z on its support).
    Z,
}

impl std::fmt::Display for StabKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StabKind::X => write!(f, "X"),
            StabKind::Z => write!(f, "Z"),
        }
    }
}

/// A single stabilizer generator: its sector and the data qubits in its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stabilizer {
    /// X or Z sector.
    pub kind: StabKind,
    /// Index of this stabilizer within its sector (row of `Hx` or `Hz`).
    pub index: usize,
    /// Data qubits acted on.
    pub support: Vec<usize>,
}

impl Stabilizer {
    /// The weight (number of data qubits touched) of this stabilizer.
    pub fn weight(&self) -> usize {
        self.support.len()
    }
}

/// A CSS stabilizer code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CssCode {
    name: String,
    hx: BitMat,
    hz: BitMat,
    logical_x: Vec<Vec<bool>>,
    logical_z: Vec<Vec<bool>>,
    /// Whether the Tanner graph admits the interleaved X/Z ("edge-colorable") schedule.
    edge_colorable: bool,
    /// Claimed minimum distance (from the construction), if known.
    claimed_distance: Option<usize>,
}

impl CssCode {
    /// Builds a CSS code from its two parity-check matrices.
    ///
    /// Logical operators are computed eagerly so that downstream memory experiments
    /// can check for logical errors without re-deriving them.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::StabilizersDoNotCommute`] when `Hx · Hzᵀ ≠ 0`, and
    /// [`QecError::ShapeMismatch`] when the two matrices act on different numbers of
    /// qubits.
    pub fn new(
        name: impl Into<String>,
        hx: BitMat,
        hz: BitMat,
        edge_colorable: bool,
        claimed_distance: Option<usize>,
    ) -> Result<Self, QecError> {
        let name = name.into();
        if hx.num_cols() != hz.num_cols() {
            return Err(QecError::ShapeMismatch {
                context: format!(
                    "Hx has {} columns but Hz has {} columns",
                    hx.num_cols(),
                    hz.num_cols()
                ),
            });
        }
        let prod = hx.mul(&hz.transpose());
        if !prod.is_zero() {
            return Err(QecError::StabilizersDoNotCommute { name });
        }
        let (logical_x, logical_z) = compute_logicals(&hx, &hz);
        Ok(CssCode {
            name,
            hx,
            hz,
            logical_x,
            logical_z,
            edge_colorable,
            claimed_distance,
        })
    }

    /// Returns the code's name, e.g. `"[[225,9,6]] HGP"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of data qubits `n`.
    pub fn num_qubits(&self) -> usize {
        self.hx.num_cols()
    }

    /// Number of logical qubits `k = n - rank(Hx) - rank(Hz)`.
    pub fn num_logical(&self) -> usize {
        self.logical_x.len()
    }

    /// Claimed minimum distance from the construction, if known.
    pub fn claimed_distance(&self) -> Option<usize> {
        self.claimed_distance
    }

    /// The X-sector parity-check matrix.
    pub fn hx(&self) -> &BitMat {
        &self.hx
    }

    /// The Z-sector parity-check matrix.
    pub fn hz(&self) -> &BitMat {
        &self.hz
    }

    /// Number of X stabilizers.
    pub fn num_x_stabilizers(&self) -> usize {
        self.hx.num_rows()
    }

    /// Number of Z stabilizers.
    pub fn num_z_stabilizers(&self) -> usize {
        self.hz.num_rows()
    }

    /// Total number of stabilizers `m = |X| + |Z|`.
    pub fn num_stabilizers(&self) -> usize {
        self.num_x_stabilizers() + self.num_z_stabilizers()
    }

    /// Whether this code supports the interleaved ("edge-colorable") X/Z schedule.
    pub fn is_edge_colorable(&self) -> bool {
        self.edge_colorable
    }

    /// Returns all stabilizers (X sector first, then Z), each with its support.
    pub fn stabilizers(&self) -> Vec<Stabilizer> {
        let mut out = Vec::with_capacity(self.num_stabilizers());
        for r in 0..self.hx.num_rows() {
            out.push(Stabilizer {
                kind: StabKind::X,
                index: r,
                support: self.hx.row_support(r),
            });
        }
        for r in 0..self.hz.num_rows() {
            out.push(Stabilizer {
                kind: StabKind::Z,
                index: r,
                support: self.hz.row_support(r),
            });
        }
        out
    }

    /// Returns one sector's stabilizers.
    pub fn sector_stabilizers(&self, kind: StabKind) -> Vec<Stabilizer> {
        let h = match kind {
            StabKind::X => &self.hx,
            StabKind::Z => &self.hz,
        };
        (0..h.num_rows())
            .map(|r| Stabilizer {
                kind,
                index: r,
                support: h.row_support(r),
            })
            .collect()
    }

    /// Maximum stabilizer weight in the X sector.
    pub fn max_x_weight(&self) -> usize {
        (0..self.hx.num_rows())
            .map(|r| self.hx.row_weight(r))
            .max()
            .unwrap_or(0)
    }

    /// Maximum stabilizer weight in the Z sector.
    pub fn max_z_weight(&self) -> usize {
        (0..self.hz.num_rows())
            .map(|r| self.hz.row_weight(r))
            .max()
            .unwrap_or(0)
    }

    /// Logical X operators (one per logical qubit), as supports over data qubits.
    pub fn logical_x(&self) -> &[Vec<bool>] {
        &self.logical_x
    }

    /// Logical Z operators (one per logical qubit), as supports over data qubits.
    pub fn logical_z(&self) -> &[Vec<bool>] {
        &self.logical_z
    }

    /// Returns the X syndrome of a Z-error pattern (`Hx · e`).
    pub fn x_syndrome(&self, z_error: &[bool]) -> Vec<bool> {
        self.hx.mul_vec(z_error)
    }

    /// Returns the Z syndrome of an X-error pattern (`Hz · e`).
    pub fn z_syndrome(&self, x_error: &[bool]) -> Vec<bool> {
        self.hz.mul_vec(x_error)
    }

    /// Checks whether a residual Z-error (after correction) flips any logical X
    /// operator, i.e. whether it anticommutes with some logical X.
    pub fn z_error_is_logical(&self, residual: &[bool]) -> bool {
        self.logical_x.iter().any(|lx| dot(lx, residual))
    }

    /// Checks whether a residual X-error (after correction) flips any logical Z
    /// operator.
    pub fn x_error_is_logical(&self, residual: &[bool]) -> bool {
        self.logical_z.iter().any(|lz| dot(lz, residual))
    }

    /// Returns a short `[[n,k,d]]`-style descriptor.
    pub fn descriptor(&self) -> String {
        match self.claimed_distance {
            Some(d) => format!("[[{},{},{}]]", self.num_qubits(), self.num_logical(), d),
            None => format!("[[{},{},?]]", self.num_qubits(), self.num_logical()),
        }
    }
}

impl std::fmt::Display for CssCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.descriptor(), self.name)
    }
}

/// Computes logical X and Z operator bases for a CSS code.
///
/// Logical X operators are elements of `ker(Hz)` outside `rowspace(Hx)`; symmetrically
/// for logical Z. The returned bases are paired so that `logical_x[i]` anticommutes
/// with `logical_z[i]` and commutes with all other logical Z operators (symplectic
/// Gram–Schmidt pairing).
fn compute_logicals(hx: &BitMat, hz: &BitMat) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
    let x_candidates = candidate_logicals(hz, hx);
    let z_candidates = candidate_logicals(hx, hz);
    pair_logicals(x_candidates, z_candidates)
}

/// Vectors in `ker(h_commute)` that are independent of `rowspace(h_span)`.
///
/// Maintains an incremental echelon basis so each candidate is reduced in
/// `O(rows · n)` time rather than re-solving a linear system per candidate.
fn candidate_logicals(h_commute: &BitMat, h_span: &BitMat) -> Vec<Vec<bool>> {
    let kernel = h_commute.null_space();
    let n = h_commute.num_cols();
    // Echelon basis: rows paired with their pivot column.
    let mut basis: Vec<(usize, Vec<bool>)> = Vec::new();
    let insert = |mut v: Vec<bool>, basis: &mut Vec<(usize, Vec<bool>)>| -> bool {
        for (pivot, row) in basis.iter() {
            if v[*pivot] {
                for (vi, &ri) in v.iter_mut().zip(row) {
                    *vi ^= ri;
                }
            }
        }
        if let Some(pivot) = v.iter().position(|&b| b) {
            basis.push((pivot, v));
            true
        } else {
            false
        }
    };
    for r in 0..h_span.num_rows() {
        let row: Vec<bool> = (0..n).map(|c| h_span.get(r, c)).collect();
        insert(row, &mut basis);
    }
    let mut chosen = Vec::new();
    for v in kernel {
        if insert(v.clone(), &mut basis) {
            chosen.push(v);
        }
    }
    chosen
}

/// Pairs logical X and Z candidates so that the symplectic product matrix is the
/// identity: `⟨x_i, z_j⟩ = δ_ij`.
fn pair_logicals(
    mut xs: Vec<Vec<bool>>,
    mut zs: Vec<Vec<bool>>,
) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
    let k = xs.len().min(zs.len());
    let mut px = Vec::with_capacity(k);
    let mut pz = Vec::with_capacity(k);
    for _ in 0..k {
        // Find an anticommuting pair among the remaining candidates.
        let mut found = None;
        'outer: for (i, x) in xs.iter().enumerate() {
            for (j, z) in zs.iter().enumerate() {
                if dot(x, z) {
                    found = Some((i, j));
                    break 'outer;
                }
            }
        }
        let Some((i, j)) = found else { break };
        let x = xs.swap_remove(i);
        let z = zs.swap_remove(j);
        // Clean the remaining candidates so they commute with the chosen pair.
        for other in xs.iter_mut() {
            if dot(other, &z) {
                for (o, &xb) in other.iter_mut().zip(&x) {
                    *o ^= xb;
                }
            }
        }
        for other in zs.iter_mut() {
            if dot(other, &x) {
                for (o, &zb) in other.iter_mut().zip(&z) {
                    *o ^= zb;
                }
            }
        }
        px.push(x);
        pz.push(z);
    }
    (px, pz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::weight;

    /// The distance-3 rotated-free Steane-style code: the [[7,1,3]] CSS code built
    /// from two copies of the Hamming code's parity check.
    fn steane() -> CssCode {
        // The [7,4,3] Hamming code's parity check.
        let hm = crate::linalg::BitMat::from_dense(&[
            vec![1, 0, 1, 0, 1, 0, 1],
            vec![0, 1, 1, 0, 0, 1, 1],
            vec![0, 0, 0, 1, 1, 1, 1],
        ]);
        CssCode::new("steane", hm.clone(), hm, false, Some(3)).expect("steane is a valid CSS code")
    }

    #[test]
    fn steane_parameters() {
        let c = steane();
        assert_eq!(c.num_qubits(), 7);
        assert_eq!(c.num_logical(), 1);
        assert_eq!(c.num_stabilizers(), 6);
        assert_eq!(c.max_x_weight(), 4);
    }

    #[test]
    fn steane_logicals_commute_with_stabilizers() {
        let c = steane();
        for lx in c.logical_x() {
            assert!(
                c.z_syndrome(lx).iter().all(|&b| !b),
                "logical X commutes with Z checks"
            );
        }
        for lz in c.logical_z() {
            assert!(
                c.x_syndrome(lz).iter().all(|&b| !b),
                "logical Z commutes with X checks"
            );
        }
    }

    #[test]
    fn steane_logical_pairing() {
        let c = steane();
        assert!(
            dot(&c.logical_x()[0], &c.logical_z()[0]),
            "paired logicals anticommute"
        );
    }

    #[test]
    fn noncommuting_rejected() {
        let hx = BitMat::from_dense(&[vec![1, 1, 0]]);
        let hz = BitMat::from_dense(&[vec![1, 0, 0]]);
        assert!(matches!(
            CssCode::new("bad", hx, hz, false, None),
            Err(QecError::StabilizersDoNotCommute { .. })
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let hx = BitMat::from_dense(&[vec![1, 1, 0]]);
        let hz = BitMat::from_dense(&[vec![1, 1]]);
        assert!(matches!(
            CssCode::new("bad", hx, hz, false, None),
            Err(QecError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn logical_error_detection() {
        let c = steane();
        let lz = c.logical_z()[0].clone();
        assert!(c.z_error_is_logical(&lz) || weight(&lz) == 0);
        let no_error = vec![false; 7];
        assert!(!c.z_error_is_logical(&no_error));
    }

    #[test]
    fn stabilizer_listing() {
        let c = steane();
        let stabs = c.stabilizers();
        assert_eq!(stabs.len(), 6);
        assert_eq!(stabs.iter().filter(|s| s.kind == StabKind::X).count(), 3);
        assert!(stabs.iter().all(|s| s.weight() == 4));
    }
}
