//! Bivariate bicycle (BB) codes.
//!
//! BB codes (Bravyi et al., *Nature* 2024) are CSS codes defined by two polynomials
//! `A` and `B` in commuting cyclic-shift variables `x` (order `l`) and `y` (order `m`):
//!
//! ```text
//! x = S_l ⊗ I_m,     y = I_l ⊗ S_m
//! Hx = [ A | B ],    Hz = [ Bᵀ | Aᵀ ]
//! ```
//!
//! where `S_n` is the `n × n` cyclic shift. The code acts on `n = 2·l·m` qubits.
//! BB codes are *not* edge-colorable, so their syndrome extraction measures all X
//! stabilizers and then all Z stabilizers (no interleaving).

use crate::css::CssCode;
use crate::error::QecError;
use crate::linalg::BitMat;
use serde::{Deserialize, Serialize};

/// A monomial `x^a · y^b` in the bivariate group algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Monomial {
    /// Exponent of `x` (taken modulo `l`).
    pub x: usize,
    /// Exponent of `y` (taken modulo `m`).
    pub y: usize,
}

impl Monomial {
    /// `x^a` with no `y` component.
    pub fn x(a: usize) -> Self {
        Monomial { x: a, y: 0 }
    }

    /// `y^b` with no `x` component.
    pub fn y(b: usize) -> Self {
        Monomial { x: 0, y: b }
    }

    /// The identity monomial `1`.
    pub fn one() -> Self {
        Monomial { x: 0, y: 0 }
    }
}

/// Parameters of a bivariate bicycle code: cyclic orders `l`, `m` and the monomial
/// supports of the polynomials `A` and `B`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BbParameters {
    /// Order of the `x` shift.
    pub l: usize,
    /// Order of the `y` shift.
    pub m: usize,
    /// Monomials of polynomial `A`.
    pub a: Vec<Monomial>,
    /// Monomials of polynomial `B`.
    pub b: Vec<Monomial>,
    /// Claimed distance from the literature, if known.
    pub claimed_distance: Option<usize>,
}

impl BbParameters {
    /// Number of physical qubits `n = 2·l·m`.
    pub fn num_qubits(&self) -> usize {
        2 * self.l * self.m
    }
}

/// Builds the circulant matrix of a polynomial over the bivariate group algebra.
fn polynomial_matrix(l: usize, m: usize, terms: &[Monomial]) -> BitMat {
    let dim = l * m;
    let mut mat = BitMat::zeros(dim, dim);
    for row in 0..dim {
        let (i, j) = (row / m, row % m);
        for t in terms {
            let ii = (i + t.x) % l;
            let jj = (j + t.y) % m;
            mat.flip(row, ii * m + jj);
        }
    }
    mat
}

/// Constructs the bivariate bicycle code described by `params`.
///
/// # Errors
///
/// Returns [`QecError::InvalidParameters`] when `l`, `m`, or the polynomial supports
/// are empty, and propagates commutation failures (which cannot occur for well-formed
/// circulant inputs, but are checked defensively).
///
/// # Examples
///
/// ```
/// use qec::bb::{bivariate_bicycle, gross_code_parameters};
///
/// let code = bivariate_bicycle(&gross_code_parameters())?;
/// assert_eq!(code.num_qubits(), 144);
/// assert_eq!(code.num_logical(), 12);
/// # Ok::<(), qec::error::QecError>(())
/// ```
pub fn bivariate_bicycle(params: &BbParameters) -> Result<CssCode, QecError> {
    if params.l == 0 || params.m == 0 {
        return Err(QecError::InvalidParameters {
            context: "BB code requires l >= 1 and m >= 1".into(),
        });
    }
    if params.a.is_empty() || params.b.is_empty() {
        return Err(QecError::InvalidParameters {
            context: "BB code polynomials A and B must be nonempty".into(),
        });
    }
    let a = polynomial_matrix(params.l, params.m, &params.a);
    let b = polynomial_matrix(params.l, params.m, &params.b);
    let hx = a.hconcat(&b);
    let hz = b.transpose().hconcat(&a.transpose());
    let name = format!("BB(l={}, m={})", params.l, params.m);
    CssCode::new(name, hx, hz, false, params.claimed_distance)
}

/// Parameters of the `[[72,12,6]]` BB code.
pub fn bb_72_12_6_parameters() -> BbParameters {
    BbParameters {
        l: 6,
        m: 6,
        a: vec![Monomial::x(3), Monomial::y(1), Monomial::y(2)],
        b: vec![Monomial::y(3), Monomial::x(1), Monomial::x(2)],
        claimed_distance: Some(6),
    }
}

/// Parameters of the `[[90,8,10]]` BB code.
pub fn bb_90_8_10_parameters() -> BbParameters {
    BbParameters {
        l: 15,
        m: 3,
        a: vec![Monomial::x(9), Monomial::y(1), Monomial::y(2)],
        b: vec![Monomial::one(), Monomial::x(2), Monomial::x(7)],
        claimed_distance: Some(10),
    }
}

/// Parameters of the `[[108,8,10]]` BB code.
pub fn bb_108_8_10_parameters() -> BbParameters {
    BbParameters {
        l: 9,
        m: 6,
        a: vec![Monomial::x(3), Monomial::y(1), Monomial::y(2)],
        b: vec![Monomial::y(3), Monomial::x(1), Monomial::x(2)],
        claimed_distance: Some(10),
    }
}

/// Parameters of the `[[144,12,12]]` "gross" BB code.
pub fn gross_code_parameters() -> BbParameters {
    BbParameters {
        l: 12,
        m: 6,
        a: vec![Monomial::x(3), Monomial::y(1), Monomial::y(2)],
        b: vec![Monomial::y(3), Monomial::x(1), Monomial::x(2)],
        claimed_distance: Some(12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(params: BbParameters, n: usize, k: usize) {
        let code = bivariate_bicycle(&params).expect("valid BB code");
        assert_eq!(code.num_qubits(), n, "physical qubit count");
        assert_eq!(code.num_logical(), k, "logical qubit count");
        assert_eq!(code.max_x_weight(), 6, "BB stabilizers have weight 6");
        assert_eq!(code.max_z_weight(), 6);
        assert!(!code.is_edge_colorable());
    }

    #[test]
    fn bb_72_12_6() {
        check(bb_72_12_6_parameters(), 72, 12);
    }

    #[test]
    fn bb_90_8_10() {
        check(bb_90_8_10_parameters(), 90, 8);
    }

    #[test]
    fn bb_108_8_10() {
        check(bb_108_8_10_parameters(), 108, 8);
    }

    #[test]
    fn gross_code() {
        check(gross_code_parameters(), 144, 12);
    }

    #[test]
    fn empty_polynomial_rejected() {
        let params = BbParameters {
            l: 4,
            m: 4,
            a: vec![],
            b: vec![Monomial::one()],
            claimed_distance: None,
        };
        assert!(matches!(
            bivariate_bicycle(&params),
            Err(QecError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn polynomial_matrix_is_circulant() {
        let m = polynomial_matrix(3, 2, &[Monomial::x(1)]);
        // Every row and column has weight exactly 1.
        for r in 0..6 {
            assert_eq!(m.row_weight(r), 1);
            assert_eq!(m.col_weight(r), 1);
        }
    }
}
