//! The combined BP+OSD decoder used for both code families.
//!
//! The paper decodes bivariate bicycle codes with the decoder of Bravyi et al. and
//! hypergraph product codes with the QuITS decoder — both BP+OSD variants. This module
//! provides the shared reimplementation: belief propagation first, and ordered-
//! statistics post-processing whenever BP fails to reproduce the syndrome (see
//! DESIGN.md, substitution 2).
//!
//! [`BpOsdDecoder::decode_queue_packed`] is the one decode core: it decodes a
//! queue of word-packed syndromes through BP's queue decoder (see the
//! [`crate::bp`] module docs) and gives each result the OSD tail. The `bool`
//! entry point [`BpOsdDecoder::decode_with_priors_keyed_into`] is a queue of
//! one.

use crate::bp::BeliefPropagation;
use crate::osd::OsdDecoder;
use crate::scratch::DecoderScratch;
use crate::sparse::SparseBinMat;
use qec::linalg::BitMat;

/// Statistics of a single decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMethod {
    /// BP converged on its own.
    BeliefPropagation,
    /// BP did not converge. For a consistent syndrome the OSD-0 fallback
    /// produced the answer; for an inconsistent one (outside the column
    /// space of `H`, see [`DecodeStatus::consistent`]) OSD was skipped and
    /// the answer is the BP hard decision of the last iteration.
    OrderedStatistics,
}

/// Outcome of a scratch-borrowing BP+OSD decode; the error pattern lives in the
/// [`DecoderScratch`] that was passed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStatus {
    /// Which stage produced the estimate.
    pub method: DecodeMethod,
    /// BP iterations used.
    pub iterations: usize,
    /// Whether the syndrome lies in the column space of `H`
    /// ([`crate::bp::BpStatus::consistent`]). When it does not, no error
    /// pattern reproduces it, OSD is skipped, and the estimate is the BP
    /// hard decision.
    pub consistent: bool,
}

/// A BP+OSD decoder bound to one parity-check matrix.
#[derive(Debug, Clone)]
pub struct BpOsdDecoder {
    bp: BeliefPropagation,
    osd: OsdDecoder,
}

impl BpOsdDecoder {
    /// Creates a decoder for parity-check matrix `h` with the given BP iteration cap.
    pub fn new(h: &BitMat, max_iterations: usize) -> Self {
        BpOsdDecoder {
            bp: BeliefPropagation::new(SparseBinMat::from_bitmat(h), max_iterations),
            osd: OsdDecoder::new(h.clone()),
        }
    }

    /// The parity-check matrix in the sparse form used by belief propagation (handy
    /// for allocation-free syndrome computation alongside the scratch decode).
    pub fn check_matrix(&self) -> &SparseBinMat {
        self.bp.matrix()
    }

    /// Overrides the BP check-pass SIMD dispatch (decided from `CYCLONE_SIMD` at
    /// construction) — see [`BeliefPropagation::with_simd`].
    pub fn with_simd(mut self, simd: crate::simd::Simd) -> Self {
        self.bp = self.bp.with_simd(simd);
        self
    }

    /// The BP check-pass SIMD dispatch this decoder runs with.
    pub fn simd(&self) -> crate::simd::Simd {
        self.bp.simd()
    }

    /// Scratch-borrowing BP+OSD decode with per-bit prior error probabilities
    /// and their caller-precomputed [`crate::bp::priors_digest`] key (the steady-state
    /// priors-LLR cache hit is a single `u64` compare, see
    /// [`BeliefPropagation::decode_with_priors_keyed_into`]). The error pattern
    /// is left in [`DecoderScratch::error`]. When the syndrome is inconsistent
    /// — outside the column space of `H`, as flipped check measurements
    /// routinely make it — the left-kernel parity proves it and OSD is
    /// skipped: the BP hard decision is left in place and reported as
    /// [`DecodeMethod::OrderedStatistics`], exactly what an OSD that found no
    /// solution would leave.
    ///
    /// The returned pattern reproduces the syndrome whenever the syndrome
    /// lies in the column space of `H` (OSD finds a solution for every such
    /// syndrome).
    ///
    /// This packs the syndrome, decodes it as a queue of one through
    /// [`Self::decode_queue_packed`], and unpacks the correction (and the BP
    /// posteriors into [`DecoderScratch::llrs`]).
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match the number of checks, or — on
    /// a priors-cache miss — if a prior is outside `(0, 1)`.
    pub fn decode_with_priors_keyed_into(
        &self,
        syndrome: &[bool],
        priors: &[f64],
        key: u64,
        scratch: &mut DecoderScratch,
    ) -> DecodeStatus {
        let m = self.check_matrix().num_rows();
        assert_eq!(
            syndrome.len(),
            m,
            "syndrome length must equal number of checks"
        );
        let mut status = None;
        scratch.with_packed_syndrome(syndrome, |packed, scratch| {
            self.decode_queue_packed(packed, priors, key, scratch, |_, s, _| status = Some(s))
        });
        scratch.unpack_decode(self.check_matrix().num_cols());
        status.expect("a queue of one decodes once")
    }

    /// The one BP+OSD decode core: decodes a queue of word-packed syndromes
    /// (`num_rows.div_ceil(64)` words each, zero past the last check) and
    /// calls `done` with each one's queue index, status and packed
    /// correction, in the order the decodes finish. The correction is the BP
    /// hard decision when BP converged or the syndrome is inconsistent, else
    /// the OSD solution. An `H` without checks has one syndrome, the empty
    /// one, so its queue holds no words and is one decode.
    ///
    /// BP runs the inconsistent syndromes eight at a time in lockstep lanes
    /// (see the [`crate::bp`] module docs), bit-identical to decoding each
    /// alone, and every BP result then takes the same OSD tail. Returns how
    /// many syndromes ran in lockstep groups.
    ///
    /// # Panics
    ///
    /// Panics if `syndromes` is not a whole number of packed syndromes, or
    /// a prior is outside `(0, 1)` on a priors-cache miss.
    // cyclone-lint: hot-path
    pub fn decode_queue_packed(
        &self,
        syndromes: &[u64],
        priors: &[f64],
        key: u64,
        scratch: &mut DecoderScratch,
        mut done: impl FnMut(usize, DecodeStatus, &[u64]),
    ) -> u64 {
        let words = self.check_matrix().num_rows().div_ceil(64);
        self.bp
            .decode_queue_packed(syndromes, priors, key, scratch, |i, bp_status, scratch| {
                let syndrome = &syndromes[i * words..(i + 1) * words];
                let status = self.finish(syndrome, bp_status, scratch);
                done(i, status, &scratch.err_words);
            })
    }

    /// The OSD tail of a BP run whose hard decision and posteriors are in
    /// `scratch`: a converged or inconsistent decode keeps the hard
    /// decision, any other runs OSD-0 on the negated posteriors.
    ///
    /// Skipping OSD changes no later decode: the OSD stage rebuilds its heap,
    /// basis and residual on every call and reads nothing an earlier call
    /// left in the scratch.
    fn finish(
        &self,
        syndrome: &[u64],
        bp_status: crate::bp::BpStatus,
        scratch: &mut DecoderScratch,
    ) -> DecodeStatus {
        let status = DecodeStatus {
            method: DecodeMethod::OrderedStatistics,
            iterations: bp_status.iterations,
            consistent: bp_status.consistent,
        };
        if bp_status.converged {
            return DecodeStatus {
                method: DecodeMethod::BeliefPropagation,
                ..status
            };
        }
        if !bp_status.consistent {
            return status;
        }
        // Move the suspicion buffer out so the scratch can be lent to OSD while the
        // scores are read from it (the buffer is returned below — no allocation).
        let n = self.check_matrix().num_cols();
        let mut suspicion = std::mem::take(&mut scratch.suspicion);
        suspicion.clear();
        suspicion.extend(scratch.llrs_pad.as_slice()[..n].iter().map(|&l| -l));
        let solved = self.osd.solve_packed(syndrome, &suspicion, scratch);
        debug_assert!(solved, "OSD solves every consistent syndrome");
        scratch.suspicion = suspicion;
        status
    }
    // cyclone-lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::priors_digest;
    use qec::codes::bb_72_12_6;
    use qec::linalg::weight;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// One scratch decode through the keyed entry point at constant prior `p`.
    fn decode_uniform_into(
        dec: &BpOsdDecoder,
        s: &[bool],
        p: f64,
        scratch: &mut DecoderScratch,
    ) -> DecodeStatus {
        let priors = vec![p; dec.check_matrix().num_cols()];
        dec.decode_with_priors_keyed_into(s, &priors, priors_digest(&priors), scratch)
    }

    /// The correction of a fresh-scratch decode at constant prior `p`.
    fn correction(dec: &BpOsdDecoder, s: &[bool], p: f64) -> Vec<bool> {
        let mut scratch = DecoderScratch::new();
        decode_uniform_into(dec, s, p, &mut scratch);
        scratch.error
    }

    #[test]
    fn decodes_weight_one_and_two_errors_on_bb72() {
        let code = bb_72_12_6().expect("valid");
        let dec = BpOsdDecoder::new(code.hz(), 40);
        let n = code.num_qubits();
        // All weight-1 X errors and a sample of weight-2 errors must be corrected
        // (distance 6 guarantees correctability of weight <= 2).
        for i in 0..n {
            let mut e = vec![false; n];
            e[i] = true;
            let s = code.z_syndrome(&e);
            let d = correction(&dec, &s, 0.01);
            let residual: Vec<bool> = e.iter().zip(&d).map(|(&a, &b)| a ^ b).collect();
            assert!(code.z_syndrome(&residual).iter().all(|&b| !b));
            assert!(
                !code.x_error_is_logical(&residual),
                "weight-1 error {i} caused logical"
            );
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let mut e = vec![false; n];
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            e[a] = true;
            e[b] = true;
            let s = code.z_syndrome(&e);
            let d = correction(&dec, &s, 0.01);
            let residual: Vec<bool> = e.iter().zip(&d).map(|(&x, &y)| x ^ y).collect();
            assert!(code.z_syndrome(&residual).iter().all(|&v| !v));
            assert!(
                !code.x_error_is_logical(&residual),
                "weight-2 error caused logical"
            );
        }
    }

    #[test]
    fn solution_always_matches_syndrome() {
        let code = bb_72_12_6().expect("valid");
        let dec = BpOsdDecoder::new(code.hx(), 15);
        let n = code.num_qubits();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..25 {
            let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.05)).collect();
            let s = code.x_syndrome(&e);
            assert_eq!(code.x_syndrome(&correction(&dec, &s, 0.05)), s);
        }
    }

    #[test]
    fn decode_into_reuses_scratch_across_sectors() {
        // One scratch bounced between the X- and Z-sector decoders (different row
        // counts, same column count) must keep matching a fresh scratch.
        let code = bb_72_12_6().expect("valid");
        let dec_z = BpOsdDecoder::new(code.hz(), 18);
        let dec_x = BpOsdDecoder::new(code.hx(), 18);
        let n = code.num_qubits();
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5);
        let mut scratch = DecoderScratch::new();
        for _ in 0..12 {
            let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.04)).collect();
            for (dec, s) in [(&dec_z, code.z_syndrome(&e)), (&dec_x, code.x_syndrome(&e))] {
                let mut fresh = DecoderScratch::new();
                let want = decode_uniform_into(dec, &s, 0.04, &mut fresh);
                let status = decode_uniform_into(dec, &s, 0.04, &mut scratch);
                assert_eq!(status, want);
                assert_eq!(scratch.error(), fresh.error());
            }
        }
    }

    #[test]
    fn uniform_priors_match_the_uniform_path_including_osd_fallback() {
        // A constant priors vector through one warm, reused scratch must compute
        // exactly what it computes on a fresh scratch, on BP-converged and
        // OSD-fallback syndromes alike (the sweep-level property test extends
        // this across the catalog).
        let code = bb_72_12_6().expect("valid");
        let dec = BpOsdDecoder::new(code.hz(), 12);
        let n = code.num_qubits();
        let p = 0.03;
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5);
        let mut scratch = DecoderScratch::new();
        let mut fallbacks = 0usize;
        for _ in 0..30 {
            let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.06)).collect();
            let s = code.z_syndrome(&e);
            let mut fresh = DecoderScratch::new();
            let uniform = decode_uniform_into(&dec, &s, p, &mut fresh);
            let with_priors = decode_uniform_into(&dec, &s, p, &mut scratch);
            assert_eq!(uniform, with_priors);
            assert_eq!(fresh.error(), scratch.error());
            fallbacks += usize::from(uniform.method == DecodeMethod::OrderedStatistics);
        }
        assert!(fallbacks > 0, "test must exercise the OSD fallback");
    }

    #[test]
    fn inconsistent_syndrome_keeps_the_bp_hard_decision() {
        // A single flipped check measurement on a zero error: a weight-1
        // syndrome outside the column space of H. No error pattern produces
        // it, so BP cannot converge; the left-kernel parity proves it and OSD
        // is skipped, and the decoder reports the OSD stage while leaving
        // BP's hard decision in place.
        let code = bb_72_12_6().expect("valid");
        let h = code.hz();
        let dec = BpOsdDecoder::new(h, 30);
        let m = code.num_z_stabilizers();
        let syndrome = (0..m)
            .map(|r| {
                let mut s = vec![false; m];
                s[r] = true;
                s
            })
            .find(|s| h.solve(s).is_none())
            .expect("[[72,12,6]] has redundant checks");
        let mut scratch = DecoderScratch::new();
        let status = decode_uniform_into(&dec, &syndrome, 0.01, &mut scratch);
        assert_eq!(status.method, DecodeMethod::OrderedStatistics);
        assert_eq!(status.iterations, 30);
        assert!(!status.consistent);
        let priors = vec![0.01; code.num_qubits()];
        let mut bp = DecoderScratch::new();
        let bp_status = dec.bp.decode_with_priors_keyed_into(
            &syndrome,
            &priors,
            priors_digest(&priors),
            &mut bp,
        );
        assert!(!bp_status.converged);
        assert_eq!(scratch.error(), bp.error());
        assert_ne!(h.mul_vec(scratch.error()), syndrome);
    }

    /// A queue of one through a warm scratch against the bool adapter on a
    /// fresh one: statuses match, the packed correction is the adapter's
    /// error packed, and the posteriors are the ones the adapter unpacks.
    fn assert_core_matches_adapter(
        dec: &BpOsdDecoder,
        syndrome: &[bool],
        priors: &[f64],
        warm: &mut DecoderScratch,
    ) -> DecodeStatus {
        let key = priors_digest(priors);
        let mut packed = vec![0u64; syndrome.len().div_ceil(64)];
        for (r, _) in syndrome.iter().enumerate().filter(|(_, &bit)| bit) {
            packed[r >> 6] |= 1 << (r & 63);
        }
        let mut core = None;
        dec.decode_queue_packed(&packed, priors, key, warm, |_, status, correction| {
            core = Some((status, correction.to_vec()));
        });
        let (core, correction) = core.expect("a queue of one decodes once");
        let mut fresh = DecoderScratch::new();
        let adapter = dec.decode_with_priors_keyed_into(syndrome, priors, key, &mut fresh);
        assert_eq!(core, adapter);
        let mut want = vec![0u64; priors.len().div_ceil(64)];
        for (c, _) in fresh.error().iter().enumerate().filter(|(_, &bit)| bit) {
            want[c >> 6] |= 1 << (c & 63);
        }
        assert_eq!(correction, want);
        let n = priors.len();
        let bits = |llrs: &[f64]| llrs.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&warm.llrs_pad.as_slice()[..n]),
            bits(fresh.llrs()),
            "posteriors"
        );
        adapter
    }

    #[test]
    fn packed_core_matches_the_bool_adapter_in_both_compilations() {
        // The four benchmark codes ([[225,9,6]] has 108 checks per sector,
        // two syndrome words), both sectors, every kernel compilation, one
        // warm scratch per decoder against a fresh one per bool decode, and
        // syndromes that BP resolves, that fall back to OSD, and (on the
        // bivariate bicycle codes' redundant checks) that are inconsistent.
        let codes = [
            bb_72_12_6(),
            qec::codes::bb_90_8_10(),
            qec::codes::hgp_100(),
            qec::codes::hgp_225_9_6(),
        ];
        let mut rng = StdRng::seed_from_u64(0x9AC4);
        let (mut converged, mut fallbacks, mut inconsistent) = (0, 0, 0);
        for code in codes.map(|c| c.expect("valid")) {
            let n = code.num_qubits();
            let priors: Vec<f64> = (0..n).map(|q| 0.01 + 0.004 * (q % 7) as f64).collect();
            for h in [code.hz(), code.hx()] {
                for simd in crate::simd::Simd::supported() {
                    let dec = BpOsdDecoder::new(h, 30).with_simd(simd);
                    let mut warm = DecoderScratch::new();
                    for shot in 0..24 {
                        let rate = [0.01, 0.04, 0.08][shot % 3];
                        let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(rate)).collect();
                        let mut s = h.mul_vec(&e);
                        // Every fourth syndrome gets a flipped check measurement.
                        if shot % 4 == 3 {
                            let r = rng.gen_range(0..s.len());
                            s[r] = !s[r];
                        }
                        let status = assert_core_matches_adapter(&dec, &s, &priors, &mut warm);
                        match (status.method, status.consistent) {
                            (DecodeMethod::BeliefPropagation, _) => converged += 1,
                            (_, true) => fallbacks += 1,
                            (_, false) => inconsistent += 1,
                        }
                    }
                }
            }
        }
        assert!(
            converged > 0 && fallbacks > 0 && inconsistent > 0,
            "converged {converged}, OSD fallbacks {fallbacks}, inconsistent {inconsistent}"
        );
    }

    #[test]
    fn zero_syndrome_gives_zero_error() {
        let code = bb_72_12_6().expect("valid");
        let dec = BpOsdDecoder::new(code.hz(), 20);
        let mut scratch = DecoderScratch::new();
        let status = decode_uniform_into(
            &dec,
            &vec![false; code.num_z_stabilizers()],
            0.01,
            &mut scratch,
        );
        assert_eq!(weight(scratch.error()), 0);
        assert_eq!(status.method, DecodeMethod::BeliefPropagation);
    }
}
