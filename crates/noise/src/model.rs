//! The combined hardware-aware noise model.
//!
//! [`NoiseParameters`] holds the base circuit-level error rates (all defaulting to the
//! single physical error rate `p` as in the paper), and [`HardwareNoiseModel`] couples
//! them with a compiled execution latency to produce the effective per-round error
//! rates used by the memory experiments.

use crate::decoherence::{coherence_time_from_p, pauli_twirl_error, CoherenceTimes};
use serde::{Deserialize, Serialize};

/// Base circuit-level error rates.
///
/// The paper models every operation error as an independent depolarizing channel with
/// probability `p` (the *physical error rate*); the fields are kept separate so that
/// sensitivity studies can vary them independently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseParameters {
    /// Two-qubit gate depolarizing probability.
    pub two_qubit_gate: f64,
    /// Single-qubit gate depolarizing probability.
    pub single_qubit_gate: f64,
    /// State-preparation flip probability.
    pub preparation: f64,
    /// Measurement flip probability.
    pub measurement: f64,
    /// The headline physical error rate `p` used for coherence-time parameterization.
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
        NoiseParameters {
            two_qubit_gate: p,
            single_qubit_gate: p,
            preparation: p,
            measurement: p,
            physical: p,
        }
    }

    /// The headline physical error rate `p`.
    pub fn physical_error_rate(&self) -> f64 {
        self.physical
    }

    /// Returns a copy with a scaled two-qubit gate error (used by ablations).
    pub fn with_two_qubit_gate(mut self, p2: f64) -> Self {
        self.two_qubit_gate = p2;
        self
    }

    /// Returns a copy with a different single-qubit gate error (used by ablations).
    ///
    /// Regression note: this field used to be dead — no effective rate read it, so
    /// single-qubit ablations silently did nothing. It now feeds
    /// [`NoiseParameters::base_data_error`].
    pub fn with_single_qubit_gate(mut self, p1: f64) -> Self {
        self.single_qubit_gate = p1;
        self
    }

    /// Returns a copy with a different state-preparation error (used by ablations).
    ///
    /// Regression note: like `single_qubit_gate`, this field used to be dead; it now
    /// feeds [`NoiseParameters::base_measurement_error`].
    pub fn with_preparation(mut self, pp: f64) -> Self {
        self.preparation = pp;
        self
    }

    /// Base circuit-level error rate of a *data* qubit per round: the dominant of
    /// the gate error rates acting on it (two-qubit entangling gates and the
    /// single-qubit basis rotations around them).
    ///
    /// The paper sets every operation error to the same `p`, so at defaults this is
    /// exactly `two_qubit_gate` — numerically identical to the pre-channel model.
    /// Ablations that raise `single_qubit_gate` above `two_qubit_gate` now take
    /// effect instead of being silently ignored.
    pub fn base_data_error(&self) -> f64 {
        self.two_qubit_gate.max(self.single_qubit_gate)
    }

    /// Base circuit-level error rate of an ancilla *measurement* per round: the
    /// dominant of the readout and state-(re)preparation error rates.
    ///
    /// At the paper's uniform defaults this is exactly `measurement`, so the
    /// effective measurement rate is numerically unchanged; `preparation` ablations
    /// now take effect.
    pub fn base_measurement_error(&self) -> f64 {
        self.measurement.max(self.preparation)
    }
}

/// A noise model that couples circuit-level noise with latency-induced decoherence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareNoiseModel {
    parameters: NoiseParameters,
    /// Compiled execution latency of one syndrome-extraction round, in seconds.
    round_latency: f64,
    /// Coherence times derived from the physical error rate (or overridden).
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

    /// The compiled per-round execution latency in seconds.
    pub fn round_latency(&self) -> f64 {
        self.round_latency
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
    /// `p_eff = p_base + p_twirling`, clamped to 0.75 (the depolarizing maximum).
    ///
    /// `p_base` is [`NoiseParameters::base_data_error`], which equals
    /// `two_qubit_gate` at the paper's uniform defaults.
    pub fn effective_error_rate(&self) -> f64 {
        (self.parameters.base_data_error() + self.decoherence_error()).min(0.75)
    }

    /// Effective measurement error rate for one round: base measurement error
    /// ([`NoiseParameters::base_measurement_error`], which equals `measurement` at
    /// the uniform defaults) plus the ancilla's share of decoherence over the round.
    pub fn effective_measurement_error(&self) -> f64 {
        (self.parameters.base_measurement_error() + self.decoherence_error()).min(0.75)
    }

    /// Returns a copy of this model with a different round latency — convenient for
    /// comparing codesigns under identical base noise.
    pub fn with_round_latency(mut self, latency: f64) -> Self {
        assert!(latency >= 0.0, "latency must be non-negative");
        self.round_latency = latency;
        self
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
    fn with_round_latency_replaces() {
        let m = HardwareNoiseModel::new(NoiseParameters::new(1e-4), 1e-3);
        let m2 = m.with_round_latency(2e-3);
        assert_eq!(m2.round_latency(), 2e-3);
        assert_eq!(m.round_latency(), 1e-3);
    }

    #[test]
    fn effective_rate_clamped() {
        let m = HardwareNoiseModel::new(NoiseParameters::new(1e-3), 1e9);
        assert!(m.effective_error_rate() <= 0.75);
    }

    #[test]
    fn uniform_defaults_keep_legacy_effective_rates() {
        // The four-rate wiring must be numerically invisible at the paper's uniform
        // defaults: base data error is exactly `two_qubit_gate`, base measurement
        // error exactly `measurement`.
        let params = NoiseParameters::new(7e-4);
        assert_eq!(params.base_data_error(), params.two_qubit_gate);
        assert_eq!(params.base_measurement_error(), params.measurement);
        let m = HardwareNoiseModel::new(params, 3e-3);
        assert_eq!(
            m.effective_error_rate(),
            (params.two_qubit_gate + m.decoherence_error()).min(0.75)
        );
        assert_eq!(
            m.effective_measurement_error(),
            (params.measurement + m.decoherence_error()).min(0.75)
        );
    }

    #[test]
    fn single_qubit_gate_knob_is_live() {
        // Regression: `single_qubit_gate` used to be a dead field — raising it did
        // not change any effective rate.
        let p = 5e-4;
        let base = HardwareNoiseModel::new(NoiseParameters::new(p), 1e-3);
        let ablated = HardwareNoiseModel::new(
            NoiseParameters::new(p).with_single_qubit_gate(10.0 * p),
            1e-3,
        );
        assert!(ablated.effective_error_rate() > base.effective_error_rate());
        // Lowering it below the two-qubit rate leaves the dominant rate in charge.
        let lowered = HardwareNoiseModel::new(
            NoiseParameters::new(p).with_single_qubit_gate(p / 10.0),
            1e-3,
        );
        assert_eq!(lowered.effective_error_rate(), base.effective_error_rate());
    }

    #[test]
    fn preparation_knob_is_live() {
        // Regression: `preparation` used to be a dead field.
        let p = 5e-4;
        let base = HardwareNoiseModel::new(NoiseParameters::new(p), 1e-3);
        let ablated =
            HardwareNoiseModel::new(NoiseParameters::new(p).with_preparation(8.0 * p), 1e-3);
        assert!(ablated.effective_measurement_error() > base.effective_measurement_error());
        // Data-qubit rates are unaffected by preparation.
        assert_eq!(ablated.effective_error_rate(), base.effective_error_rate());
    }

    #[test]
    fn two_qubit_ablation_still_shifts_the_data_rate() {
        let p = 5e-4;
        let base = HardwareNoiseModel::new(NoiseParameters::new(p), 0.0);
        let doubled =
            HardwareNoiseModel::new(NoiseParameters::new(p).with_two_qubit_gate(2.0 * p), 0.0);
        assert!((doubled.effective_error_rate() - 2.0 * p).abs() < 1e-15);
        assert!((base.effective_error_rate() - p).abs() < 1e-15);
    }
}
