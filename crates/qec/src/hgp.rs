//! Hypergraph product (HGP) codes.
//!
//! Given two classical codes with parity-check matrices `H1` (m1×n1) and `H2` (m2×n2),
//! the hypergraph product construction of Tillich and Zémor yields a CSS code on
//! `n1·n2 + m1·m2` qubits with
//!
//! ```text
//! Hx = [ H1 ⊗ I_n2  |  I_m1 ⊗ H2ᵀ ]
//! Hz = [ I_n1 ⊗ H2  |  H1ᵀ ⊗ I_m2 ]
//! ```
//!
//! and `k = k1·k2 + k1ᵀ·k2ᵀ` logical qubits. HGP codes are *edge-colorable*: their
//! Tanner graphs admit interleaved X/Z syndrome-extraction schedules (Tremblay,
//! Delfosse, Beverland).

use crate::classical::ClassicalCode;
use crate::css::CssCode;
use crate::error::QecError;
use crate::linalg::BitMat;

/// Builds the hypergraph product of two classical codes.
///
/// # Errors
///
/// Returns an error if the resulting stabilizers fail to commute (which would indicate
/// a bug in the construction, not bad user input) — the check is kept as a defensive
/// validation of the library itself.
///
/// # Examples
///
/// ```
/// use qec::classical::ClassicalCode;
/// use qec::hgp::hypergraph_product;
///
/// let rep = ClassicalCode::repetition(3);
/// let code = hypergraph_product(&rep, &rep)?;
/// // The HGP of two repetition codes is the (rotated-boundary) surface code:
/// assert_eq!(code.num_qubits(), 13);
/// assert_eq!(code.num_logical(), 1);
/// # Ok::<(), qec::error::QecError>(())
/// ```
pub fn hypergraph_product(c1: &ClassicalCode, c2: &ClassicalCode) -> Result<CssCode, QecError> {
    let h1 = c1.parity_check();
    let h2 = c2.parity_check();
    let (m1, n1) = h1.shape();
    let (m2, n2) = h2.shape();

    let hx_left = h1.kron(&BitMat::identity(n2));
    let hx_right = BitMat::identity(m1).kron(&h2.transpose());
    let hx = hx_left.hconcat(&hx_right);

    let hz_left = BitMat::identity(n1).kron(h2);
    let hz_right = h1.transpose().kron(&BitMat::identity(m2));
    let hz = hz_left.hconcat(&hz_right);

    let d1 = c1.minimum_distance();
    let d2 = c2.minimum_distance();
    let claimed = match (d1, d2) {
        (Some(a), Some(b)) => Some(a.min(b)),
        _ => None,
    };

    let name = format!("HGP({}, {})", c1.name(), c2.name());
    CssCode::new(name, hx, hz, true, claimed)
}

/// Convenience constructor: the hypergraph product of a classical code with itself.
///
/// # Errors
///
/// Propagates errors from [`hypergraph_product`].
pub fn square_hypergraph_product(c: &ClassicalCode) -> Result<CssCode, QecError> {
    hypergraph_product(c, c)
}

/// The expected number of physical qubits of `HGP(c1, c2)`.
pub fn hgp_num_qubits(c1: &ClassicalCode, c2: &ClassicalCode) -> usize {
    c1.block_length() * c2.block_length() + c1.num_checks() * c2.num_checks()
}

/// The expected number of logical qubits of `HGP(c1, c2)`:
/// `k1·k2 + k1ᵀ·k2ᵀ`.
pub fn hgp_num_logical(c1: &ClassicalCode, c2: &ClassicalCode) -> usize {
    c1.dimension() * c2.dimension() + c1.transpose_dimension() * c2.transpose_dimension()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_code_from_repetition() {
        let rep = ClassicalCode::repetition(3);
        let code = square_hypergraph_product(&rep).expect("valid construction");
        assert_eq!(code.num_qubits(), 13); // 3*3 + 2*2
        assert_eq!(code.num_logical(), 1);
        assert_eq!(code.claimed_distance(), Some(3));
        assert!(code.is_edge_colorable());
    }

    #[test]
    fn dimension_formula_matches_computed() {
        // The [7,4,3] Hamming code.
        let c1 = ClassicalCode::new(
            "hamming[7,4,3]",
            BitMat::from_dense(&[
                vec![1, 0, 1, 0, 1, 0, 1],
                vec![0, 1, 1, 0, 0, 1, 1],
                vec![0, 0, 0, 1, 1, 1, 1],
            ]),
        );
        let c2 = ClassicalCode::repetition(4);
        let code = hypergraph_product(&c1, &c2).expect("valid construction");
        assert_eq!(code.num_qubits(), hgp_num_qubits(&c1, &c2));
        assert_eq!(code.num_logical(), hgp_num_logical(&c1, &c2));
    }

    #[test]
    fn ldpc_product_commutes() {
        let c = ClassicalCode::gallager_ldpc(12, 3, 4, 3);
        let code = square_hypergraph_product(&c).expect("HGP always commutes");
        assert_eq!(code.num_qubits(), 12 * 12 + 9 * 9);
        // Low-weight stabilizers: each has weight <= wr + wc = 7.
        assert!(code.max_x_weight() <= 7);
        assert!(code.max_z_weight() <= 7);
    }

    #[test]
    fn asymmetric_product_shapes() {
        let c1 = ClassicalCode::repetition(3);
        let c2 = ClassicalCode::repetition(5);
        let code = hypergraph_product(&c1, &c2).expect("valid construction");
        assert_eq!(code.num_qubits(), 3 * 5 + 2 * 4);
        assert_eq!(code.num_x_stabilizers(), 2 * 5);
        assert_eq!(code.num_z_stabilizers(), 3 * 4);
    }
}
