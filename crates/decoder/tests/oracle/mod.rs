//! Independent references the production paths are pinned against.
//!
//! This module is the scalar per-shot reference sampler: one shot at a time
//! over `bool` vectors, one BP+OSD decode per sector, no caches. It is the
//! oracle the bit-sliced batch sampler (`MemoryExperiment::sample_batch_with`)
//! is pinned against, shot for shot. [`bp`] is the scalar min-sum reference
//! the decoder's lane kernels are pinned against, and [`osd`] the cold OSD-0
//! reference its warm-started ordered-statistics stage is pinned against.

pub mod bp;
pub mod osd;

use decoder::bp::priors_digest;
use decoder::bposd::BpOsdDecoder;
use decoder::scratch::DecoderScratch;
use noise::ErrorChannel;
use qec::CssCode;
use rand::Rng;

/// The reference sampler for one code, channel and BP iteration cap.
pub struct ScalarSampler<'a> {
    code: &'a CssCode,
    channel: ErrorChannel,
    /// The channel's data rates clamped to the decoder's safe range, exactly
    /// as `MemoryExperiment` builds its priors.
    priors: Vec<f64>,
    priors_key: u64,
    x_decoder: BpOsdDecoder,
    z_decoder: BpOsdDecoder,
}

/// Per-shot buffers: one [`DecoderScratch`] per sector decoder plus the
/// error/syndrome/residual vectors of a shot.
#[derive(Debug, Clone, Default)]
pub struct ShotScratch {
    x_decode: DecoderScratch,
    z_decode: DecoderScratch,
    x_error: Vec<bool>,
    z_error: Vec<bool>,
    syndrome: Vec<bool>,
    residual: Vec<bool>,
}

impl<'a> ScalarSampler<'a> {
    pub fn new(code: &'a CssCode, channel: ErrorChannel, bp_iterations: usize) -> Self {
        let priors: Vec<f64> = channel
            .data()
            .iter()
            .map(|&p| p.clamp(1e-9, 0.45))
            .collect();
        ScalarSampler {
            code,
            priors_key: priors_digest(&priors),
            priors,
            channel,
            // Hx detects Z errors; Hz detects X errors.
            x_decoder: BpOsdDecoder::new(code.hz(), bp_iterations),
            z_decoder: BpOsdDecoder::new(code.hx(), bp_iterations),
        }
    }

    /// Runs one shot on fresh buffers; returns `true` on a logical error.
    pub fn sample_one<R: Rng>(&self, rng: &mut R) -> bool {
        self.sample_one_with(rng, &mut ShotScratch::default())
    }

    /// Runs one shot with the given RNG, borrowing all buffers from `scratch`;
    /// returns `true` on a logical error. Draw order: every data qubit, then
    /// the Z-sector check flips, then (only if the X sector did not already
    /// fail) the X-sector check flips.
    pub fn sample_one_with<R: Rng>(&self, rng: &mut R, scratch: &mut ShotScratch) -> bool {
        let n = self.code.num_qubits();
        scratch.x_error.clear();
        scratch.x_error.resize(n, false);
        scratch.z_error.clear();
        scratch.z_error.resize(n, false);
        for (q, &pq) in self.channel.data().iter().enumerate() {
            if rng.gen_bool(pq) {
                depolarize(rng, scratch, q);
            }
        }
        // The X decoder consumes Z-stabilizer checks (the tail of the channel's
        // check-major layout), the Z decoder consumes X-stabilizer checks.
        let (x_check_rates, z_check_rates) = if self.channel.has_measurement_noise() {
            self.channel
                .measurement()
                .split_at(self.code.num_x_stabilizers())
        } else {
            (&[] as &[f64], &[] as &[f64])
        };
        self.x_decoder
            .check_matrix()
            .syndrome_into(&scratch.x_error, &mut scratch.syndrome);
        flip_syndrome(rng, &mut scratch.syndrome, z_check_rates);
        self.x_decoder.decode_with_priors_keyed_into(
            &scratch.syndrome,
            &self.priors,
            self.priors_key,
            &mut scratch.x_decode,
        );
        xor_into(
            &scratch.x_error,
            scratch.x_decode.error(),
            &mut scratch.residual,
        );
        if self.code.x_error_is_logical(&scratch.residual) {
            return true;
        }
        self.z_decoder
            .check_matrix()
            .syndrome_into(&scratch.z_error, &mut scratch.syndrome);
        flip_syndrome(rng, &mut scratch.syndrome, x_check_rates);
        self.z_decoder.decode_with_priors_keyed_into(
            &scratch.syndrome,
            &self.priors,
            self.priors_key,
            &mut scratch.z_decode,
        );
        xor_into(
            &scratch.z_error,
            scratch.z_decode.error(),
            &mut scratch.residual,
        );
        self.code.z_error_is_logical(&scratch.residual)
    }
}

/// XORs two equal-length slices into a reused output buffer.
fn xor_into(a: &[bool], b: &[bool], out: &mut Vec<bool>) {
    debug_assert_eq!(a.len(), b.len());
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x ^ y));
}

/// Applies one depolarizing event to qubit `q`: X, Y, Z each with probability 1/3
/// (X-frame = X or Y; Z-frame = Z or Y).
fn depolarize<R: Rng>(rng: &mut R, scratch: &mut ShotScratch, q: usize) {
    match rng.gen_range(0..3) {
        0 => scratch.x_error[q] = true,
        1 => scratch.z_error[q] = true,
        _ => {
            scratch.x_error[q] = true;
            scratch.z_error[q] = true;
        }
    }
}

/// Flips each extracted syndrome bit with its check's measurement error rate.
/// An empty rate slice (noiseless measurement) draws nothing from the RNG.
fn flip_syndrome<R: Rng>(rng: &mut R, syndrome: &mut [bool], rates: &[f64]) {
    debug_assert!(rates.is_empty() || syndrome.len() == rates.len());
    for (bit, &p) in syndrome.iter_mut().zip(rates) {
        if rng.gen_bool(p) {
            *bit = !*bit;
        }
    }
}
