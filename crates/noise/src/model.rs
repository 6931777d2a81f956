//! The combined hardware-aware noise model.
//!
//! [`NoiseParameters`] holds the single physical error rate `p` at which every
//! circuit-level operation fails, as in the paper, and [`HardwareNoiseModel`]
//! couples it with a compiled execution latency to produce the effective per-round
//! error rate used by the memory experiments.

use crate::decoherence::{coherence_time_from_p, pauli_twirl_error, CoherenceTimes};

/// Base circuit-level noise.
///
/// The paper models every operation error (gates, state preparation and
/// measurement) as an independent depolarizing channel with probability `p`, the
/// *physical error rate*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParameters {
    /// The physical error rate `p`.
    physical: f64,
}

impl NoiseParameters {
    /// Uniform circuit-level noise: every operation fails with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p < 1.0,
            "physical error rate must be in (0,1), got {p}"
        );
        NoiseParameters { physical: p }
    }

    /// The physical error rate `p`.
    pub fn physical_error_rate(&self) -> f64 {
        self.physical
    }
}

/// A noise model that couples circuit-level noise with latency-induced decoherence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareNoiseModel {
    parameters: NoiseParameters,
    /// Compiled execution latency of one syndrome-extraction round, in seconds.
    round_latency: f64,
    /// Coherence times derived from the physical error rate.
    coherence: CoherenceTimes,
}

impl HardwareNoiseModel {
    /// Builds a model for a round of the given latency (seconds), deriving coherence
    /// times from the physical error rate with the paper's log fit.
    ///
    /// # Panics
    ///
    /// Panics if `round_latency` is negative.
    pub fn new(parameters: NoiseParameters, round_latency: f64) -> Self {
        assert!(round_latency >= 0.0, "latency must be non-negative");
        let t = coherence_time_from_p(parameters.physical_error_rate());
        HardwareNoiseModel {
            parameters,
            round_latency,
            coherence: CoherenceTimes::symmetric(t),
        }
    }

    /// The base circuit-level parameters.
    pub fn parameters(&self) -> &NoiseParameters {
        &self.parameters
    }

    /// The coherence times in use.
    pub fn coherence(&self) -> CoherenceTimes {
        self.coherence
    }

    /// The per-qubit decoherence error probability accumulated over one round
    /// (`p_twirling` in the paper).
    pub fn decoherence_error(&self) -> f64 {
        pauli_twirl_error(self.round_latency, self.coherence)
    }

    /// The effective per-qubit, per-round error rate used by the memory experiments:
    /// `p_eff = p + p_twirling`, clamped to 0.75 (the depolarizing maximum).
    pub fn effective_error_rate(&self) -> f64 {
        (self.parameters.physical_error_rate() + self.decoherence_error()).min(0.75)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_rate_exceeds_base() {
        let m = HardwareNoiseModel::new(NoiseParameters::new(1e-4), 1e-2);
        assert!(m.effective_error_rate() > 1e-4);
    }

    #[test]
    fn zero_latency_recovers_base_rate() {
        let m = HardwareNoiseModel::new(NoiseParameters::new(1e-3), 0.0);
        assert!((m.effective_error_rate() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn longer_latency_more_error() {
        let p = NoiseParameters::new(5e-4);
        let fast = HardwareNoiseModel::new(p, 1e-3);
        let slow = HardwareNoiseModel::new(p, 4e-3);
        assert!(slow.effective_error_rate() > fast.effective_error_rate());
    }

    #[test]
    fn coherence_derived_from_p() {
        let m = HardwareNoiseModel::new(NoiseParameters::new(1e-4), 1e-3);
        assert!((m.coherence().t1 - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "physical error rate")]
    fn invalid_p_rejected() {
        let _ = NoiseParameters::new(0.0);
    }

    #[test]
    fn effective_rate_clamped() {
        let m = HardwareNoiseModel::new(NoiseParameters::new(1e-3), 1e9);
        assert!(m.effective_error_rate() <= 0.75);
    }

    #[test]
    fn uniform_defaults_keep_legacy_effective_rates() {
        // Bit-exact pins of the data rate and the measurement rate (a check's rate
        // when its ancilla idles for the whole round), which are equal. The values
        // were recorded while gates, preparation and readout still had rates of
        // their own, all set to `p`, so they show that folding them into `p`
        // moved no bit.
        for (p, latency, bits) in [
            (1e-4, 0.0, 0x3f1a_36e2_eb1c_432d_u64),
            (7e-4, 3e-3, 0x3f4c_1917_b775_64c7),
            (1e-3, 5e-2, 0x3f73_6aec_05cd_765f),
            (5e-3, 1e-1, 0x3fa5_49b3_e11f_f2c7),
            (1e-3, 1e9, 0x3fe8_0000_0000_0000), // saturated at 0.75
        ] {
            let m = HardwareNoiseModel::new(NoiseParameters::new(p), latency);
            let channel = crate::ErrorChannel::from_schedule(&m, &[latency], &[latency]);
            assert_eq!(
                m.effective_error_rate().to_bits(),
                bits,
                "p={p} latency={latency}"
            );
            assert_eq!(channel.data()[0].to_bits(), bits);
            assert_eq!(channel.measurement()[0].to_bits(), bits);
        }
    }
}
