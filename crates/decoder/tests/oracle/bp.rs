//! The scalar min-sum reference: the flooding schedule over plain CSR edge
//! arrays, one check row at a time, with no lane layout and no kernel
//! dispatch. Both compilations of the decoder's lane kernels are pinned to it
//! byte for byte, and the `decoder_hotpath` bench times it as the scalar
//! reference rate. It tests convergence on every iteration, whatever the
//! syndrome, and decides consistency of a non-converged syndrome by Gaussian
//! elimination ([`BitMat::solve`]), not by the decoder's left kernel.

use decoder::bp::BpStatus;
use decoder::sparse::SparseBinMat;
use qec::linalg::BitMat;

/// Min-sum normalization factor (the decoder's `MIN_SUM_SCALE`).
const MIN_SUM_SCALE: f64 = 0.75;

/// The reference decoder for one parity-check matrix.
pub struct ScalarBp {
    num_checks: usize,
    num_vars: usize,
    max_iterations: usize,
    /// Edge ids of check `r` are `row_ptr[r]..row_ptr[r + 1]` (row-major).
    row_ptr: Vec<usize>,
    /// The variable of each edge.
    edge_vars: Vec<usize>,
    /// Word-packed row supports, `mask_words` words per check.
    check_masks: Vec<u64>,
    mask_words: usize,
    /// Dense copy of `H` for the consistency verdict.
    dense: BitMat,
}

/// The reference decoder's buffers, reused across decodes.
#[derive(Default)]
pub struct ScalarBpScratch {
    channel_llr: Vec<f64>,
    /// Priors digest and length `channel_llr` was built from.
    cached_key: Option<(u64, usize)>,
    check_to_var: Vec<f64>,
    var_to_check: Vec<f64>,
    llrs: Vec<f64>,
    error: Vec<bool>,
    err_words: Vec<u64>,
}

impl ScalarBpScratch {
    /// The hard decision of the last decode.
    pub fn error(&self) -> &[bool] {
        &self.error
    }

    /// The posterior LLRs of the last decode.
    pub fn llrs(&self) -> &[f64] {
        &self.llrs
    }
}

impl ScalarBp {
    pub fn new(h: &SparseBinMat, max_iterations: usize) -> Self {
        let mut row_ptr = vec![0];
        let mut edge_vars = Vec::new();
        for r in 0..h.num_rows() {
            edge_vars.extend_from_slice(h.row(r));
            row_ptr.push(edge_vars.len());
        }
        let mask_words = h.num_cols().div_ceil(64);
        let mut check_masks = vec![0u64; h.num_rows() * mask_words];
        for r in 0..h.num_rows() {
            for &c in h.row(r) {
                check_masks[r * mask_words + (c >> 6)] |= 1 << (c & 63);
            }
        }
        ScalarBp {
            num_checks: h.num_rows(),
            num_vars: h.num_cols(),
            max_iterations,
            row_ptr,
            edge_vars,
            check_masks,
            mask_words,
            dense: h.to_bitmat(),
        }
    }

    /// Decodes with per-bit priors; `key` is `decoder::bp::priors_digest` of
    /// `priors`, and the channel LLRs are rebuilt only when it changes.
    pub fn decode(
        &self,
        syndrome: &[bool],
        priors: &[f64],
        key: u64,
        scratch: &mut ScalarBpScratch,
    ) -> BpStatus {
        let n = self.num_vars;
        assert_eq!(priors.len(), n, "one prior per variable required");
        if scratch.cached_key != Some((key, n)) {
            scratch.channel_llr.clear();
            scratch
                .channel_llr
                .extend(priors.iter().map(|&p| ((1.0 - p) / p).ln()));
            scratch.cached_key = Some((key, n));
        }
        self.propagate(syndrome, scratch)
    }

    /// The flooding min-sum schedule, check rows in order, each row's messages
    /// in row order; the variable pass accumulates every column in
    /// ascending-check order.
    fn propagate(&self, syndrome: &[bool], scratch: &mut ScalarBpScratch) -> BpStatus {
        let m = self.num_checks;
        let n = self.num_vars;
        assert_eq!(
            syndrome.len(),
            m,
            "syndrome length must equal number of checks"
        );

        let num_edges = self.edge_vars.len();
        if scratch.check_to_var.len() != num_edges {
            scratch.check_to_var.resize(num_edges, 0.0);
        }
        if scratch.llrs.len() != n {
            scratch.llrs.resize(n, 0.0);
        }
        if scratch.error.len() != n {
            scratch.error.resize(n, false);
        }
        let mask_words = self.mask_words;
        if scratch.err_words.len() != mask_words {
            scratch.err_words.resize(mask_words, 0);
        }
        scratch.var_to_check.clear();
        scratch
            .var_to_check
            .extend(self.edge_vars.iter().map(|&c| scratch.channel_llr[c]));

        let check_to_var = &mut scratch.check_to_var;
        let var_to_check = &mut scratch.var_to_check;
        let llrs = &mut scratch.llrs;
        let error = &mut scratch.error;
        let err_words = &mut scratch.err_words;
        let channel_llr = &scratch.channel_llr;
        let check_masks = &self.check_masks;
        let scale = MIN_SUM_SCALE;

        for iteration in 1..=self.max_iterations {
            // Check-node update (min-sum with sign handling and syndrome parity).
            for (r, &syn) in syndrome.iter().enumerate() {
                let range = self.row_ptr[r]..self.row_ptr[r + 1];
                let msgs = &var_to_check[range.clone()];
                let mut neg = u64::from(syn);
                let mut min1 = f64::INFINITY;
                let mut min2 = f64::INFINITY;
                let mut min1_idx = usize::MAX;
                for (j, &msg) in msgs.iter().enumerate() {
                    neg ^= u64::from(msg < 0.0);
                    let mag = msg.abs();
                    let new1 = mag < min1;
                    min2 = if new1 {
                        min1
                    } else if mag < min2 {
                        mag
                    } else {
                        min2
                    };
                    min1 = if new1 { mag } else { min1 };
                    min1_idx = if new1 { j } else { min1_idx };
                }
                let scaled1 = scale * min1;
                let scaled2 = scale * min2;
                for (j, (&msg, out)) in msgs.iter().zip(&mut check_to_var[range]).enumerate() {
                    let flip = (neg ^ u64::from(msg < 0.0)) << 63;
                    let v = if j == min1_idx { scaled2 } else { scaled1 };
                    *out = f64::from_bits(v.to_bits() ^ flip);
                }
            }
            // Variable-node update and hard decision: for any one column,
            // ascending edge id is ascending check order.
            llrs.copy_from_slice(channel_llr);
            for (&c, &ctv) in self.edge_vars.iter().zip(check_to_var.iter()) {
                llrs[c] += ctv;
            }
            for w in err_words.iter_mut() {
                *w = 0;
            }
            for (c, (&total, slot)) in llrs.iter().zip(error.iter_mut()).enumerate() {
                let bit = total < 0.0;
                *slot = bit;
                err_words[c >> 6] |= u64::from(bit) << (c & 63);
            }
            // Convergence: does the hard decision reproduce the syndrome?
            let matches = syndrome.iter().enumerate().all(|(r, &syn)| {
                let mask = &check_masks[r * mask_words..(r + 1) * mask_words];
                let mut acc = 0u64;
                for (&mw, &ew) in mask.iter().zip(err_words.iter()) {
                    acc ^= mw & ew;
                }
                (acc.count_ones() & 1 == 1) == syn
            });
            if matches {
                return BpStatus {
                    converged: true,
                    iterations: iteration,
                    consistent: true,
                };
            }
            if iteration < self.max_iterations {
                for ((&c, &ctv), out) in self
                    .edge_vars
                    .iter()
                    .zip(check_to_var.iter())
                    .zip(var_to_check.iter_mut())
                {
                    *out = llrs[c] - ctv;
                }
            }
        }
        BpStatus {
            converged: false,
            iterations: self.max_iterations,
            consistent: self.dense.solve(syndrome).is_some(),
        }
    }
}
