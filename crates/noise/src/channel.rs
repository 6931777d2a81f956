//! Per-qubit error channels.
//!
//! The memory experiments historically collapsed the whole noise model into one
//! scalar: [`HardwareNoiseModel::effective_error_rate`] drove an i.i.d. uniform
//! depolarizing channel, and measurement noise and per-qubit structure were
//! discarded. An [`ErrorChannel`] lifts that scalar into a first-class, per-qubit
//! description of one syndrome-extraction round:
//!
//! * a **data** flip probability per data qubit (the depolarizing rate the
//!   Monte-Carlo sampler draws from, and the per-bit prior handed to the decoder),
//! * an optional **measurement** flip probability per stabilizer check (applied to
//!   the extracted syndrome bits before decoding).
//!
//! Three constructions cover the workloads of interest:
//!
//! * [`ErrorChannel::uniform`] — every data qubit at one rate, noiseless
//!   measurement: exactly the historical model (and recognized by the decoder's
//!   cached-LLR fast path, so it stays bit-identical to it);
//! * [`ErrorChannel::biased`] — uniform data rate plus a uniform measurement flip
//!   rate, for data-vs-measurement bias sweeps;
//! * [`ErrorChannel::from_schedule`] — heterogeneous per-qubit rates derived from
//!   the per-qubit *idle exposure* of a compiled schedule (`qccd::compiler::sim`
//!   exports it): qubits that idle longer while other traps shuttle and gate
//!   accumulate more decoherence, ancillas that sit parked accumulate more
//!   measurement error.
//!
//! [`ChannelSpec`] is the *serializable recipe* for a channel — the form that sweep
//! specifications carry and that participates in sweep-cache point identity via
//! [`ChannelSpec::cache_id`].
//!
//! # Measurement-check layout
//!
//! The `measurement` vector is indexed check-major: the `mx` X-stabilizer checks
//! first (rows of `Hx`, whose syndrome detects Z errors), then the `mz`
//! Z-stabilizer checks (rows of `Hz`, detecting X errors). This matches the
//! ancilla ion layout of the QCCD simulator, so a schedule's ancilla idle
//! exposures map one-to-one onto measurement flip probabilities.

use crate::model::HardwareNoiseModel;

/// The maximum physically meaningful depolarizing probability: at 3/4 the channel
/// is fully depolarizing, so rates above it have no extra physical content.
/// [`ErrorChannel::from_rates`] saturates data rates here (recording the fact via
/// [`ErrorChannel::saturated`]) instead of letting the sampler clamp them silently.
pub const DEPOLARIZING_MAX: f64 = 0.75;

/// A per-qubit error channel for one syndrome-extraction round.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorChannel {
    /// Per-data-qubit depolarizing probability.
    data: Vec<f64>,
    /// Per-check measurement flip probability (X-sector checks, then Z-sector —
    /// see the module docs). Empty means noiseless measurement.
    measurement: Vec<f64>,
    /// `Some(p)` iff every data rate is exactly `p` and measurement is noiseless —
    /// the decoder's cached-LLR fast path key, precomputed at construction.
    uniform: Option<f64>,
    /// Whether any requested rate exceeded [`DEPOLARIZING_MAX`] and was saturated
    /// at construction.
    saturated: bool,
}

impl ErrorChannel {
    /// Builds a channel from explicit per-qubit rates (the general constructor the
    /// named ones reduce to).
    ///
    /// Rates above [`DEPOLARIZING_MAX`] (3/4, the fully depolarizing point) are
    /// saturated to it here, once, with the saturation recorded in
    /// [`ErrorChannel::saturated`]. The sampler used to apply the same clamp
    /// silently on every draw (`p.min(0.75)` mid-shot), which distorted high-rate
    /// estimates without any signal; now the stored rates *are* the sampled rates.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, any data rate is outside `(0, 1)`, or any
    /// measurement rate is outside `[0, 1)` or non-finite.
    pub fn from_rates(data: Vec<f64>, measurement: Vec<f64>) -> Self {
        assert!(!data.is_empty(), "channel needs at least one data qubit");
        for &p in &data {
            assert!(
                p > 0.0 && p < 1.0 && p.is_finite(),
                "data rate {p} not in (0, 1)"
            );
        }
        for &p in &measurement {
            assert!(
                (0.0..1.0).contains(&p) && p.is_finite(),
                "measurement rate {p} not in [0, 1)"
            );
        }
        let saturated = data
            .iter()
            .chain(&measurement)
            .any(|&p| p > DEPOLARIZING_MAX);
        let data: Vec<f64> = data.into_iter().map(|p| p.min(DEPOLARIZING_MAX)).collect();
        let measurement: Vec<f64> = measurement
            .into_iter()
            .map(|p| p.min(DEPOLARIZING_MAX))
            .collect();
        let noiseless_measurement = measurement.iter().all(|&p| p == 0.0);
        let uniform = if noiseless_measurement && data.iter().all(|&p| p == data[0]) {
            Some(data[0])
        } else {
            None
        };
        // A channel whose measurement rates are all exactly zero is behaviorally
        // identical to one with no measurement vector; normalize so the sampler's
        // `has_measurement_noise` check stays a trivial `is_empty`.
        let measurement = if noiseless_measurement {
            Vec::new()
        } else {
            measurement
        };
        ErrorChannel {
            data,
            measurement,
            uniform,
            saturated,
        }
    }

    /// The historical model: `n` data qubits at the single rate `p`, noiseless
    /// measurement. Recognized by the decoder's cached-LLR fast path, so sampling
    /// and decoding stay bit-identical to the pre-channel scalar path.
    pub fn uniform(n: usize, p: f64) -> Self {
        Self::from_rates(vec![p; n], Vec::new())
    }

    /// A biased data-vs-measurement channel: `n` data qubits at `p_data`, `checks`
    /// measurement flips at `p_meas`. `p_meas == 0` degenerates to
    /// [`ErrorChannel::uniform`] (including its fast path).
    pub fn biased(n: usize, checks: usize, p_data: f64, p_meas: f64) -> Self {
        Self::from_rates(vec![p_data; n], vec![p_meas; checks])
    }

    /// A schedule-shaped channel: per-qubit rates derived from the per-qubit idle
    /// exposure of a compiled round.
    ///
    /// Each data qubit's rate is the physical error rate `p` plus the
    /// Pauli-twirled decoherence accumulated over *that qubit's* idle exposure
    /// (instead of the whole-round latency every qubit is charged under the uniform
    /// model); each check's measurement flip rate is `p` plus the decoherence over
    /// the measuring ancilla's idle exposure. Rates that
    /// exceed [`DEPOLARIZING_MAX`] saturate there via [`ErrorChannel::from_rates`],
    /// with the saturation recorded in [`ErrorChannel::saturated`].
    ///
    /// `meas_idle` is check-major (X-sector ancillas then Z-sector, the simulator's
    /// ion layout); pass an empty slice for noiseless measurement.
    pub fn from_schedule(model: &HardwareNoiseModel, data_idle: &[f64], meas_idle: &[f64]) -> Self {
        let coherence = model.coherence();
        let p = model.parameters().physical_error_rate();
        let rate = |&idle: &f64| p + crate::decoherence::pauli_twirl_error(idle, coherence);
        Self::from_rates(
            data_idle.iter().map(rate).collect(),
            meas_idle.iter().map(rate).collect(),
        )
    }

    /// Number of data qubits.
    pub fn num_data(&self) -> usize {
        self.data.len()
    }

    /// Per-data-qubit depolarizing probabilities.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Per-check measurement flip probabilities (empty = noiseless measurement).
    pub fn measurement(&self) -> &[f64] {
        &self.measurement
    }

    /// Whether any check has a nonzero measurement flip probability.
    pub fn has_measurement_noise(&self) -> bool {
        !self.measurement.is_empty()
    }

    /// `Some(p)` when the channel is the uniform channel at rate `p` (identical
    /// data rates, noiseless measurement) — the sampler's constant-rate loop
    /// key.
    pub fn uniform_rate(&self) -> Option<f64> {
        self.uniform
    }

    /// Whether any requested rate exceeded [`DEPOLARIZING_MAX`] and was saturated
    /// at construction — the recorded replacement for the sampler's old silent
    /// per-draw clamp.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// A 64-bit FNV-1a digest over the exact bit patterns of every rate — the
    /// content fingerprint [`ChannelSpec::cache_id`] uses for explicit channels.
    /// Floats survive the sweep cache's JSON round trip bit-exactly (shortest
    /// round-trip formatting), so equal channels digest equal across runs.
    pub fn digest(&self) -> u64 {
        let mut hash = crate::fnv::Fnv1a::new();
        for rates in [&self.data, &self.measurement] {
            hash.write_u64(rates.len() as u64);
            for &p in rates {
                hash.write_u64(p.to_bits());
            }
        }
        hash.finish()
    }
}

/// The serializable recipe for an [`ErrorChannel`]: how an operating point's
/// hardware noise model is turned into per-qubit rates. This is what sweep
/// specifications carry and what participates in sweep-cache point identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ChannelSpec {
    /// The historical scalar model: every data qubit at the model's effective
    /// error rate, noiseless measurement. Bit-identical to the pre-channel path.
    #[default]
    Uniform,
    /// Uniform data rate plus measurement flips at `meas_ratio` times the data
    /// rate (clamped to 0.75). `meas_ratio == 0` is behaviorally uniform but keeps
    /// its own cache identity.
    Biased {
        /// Measurement flip rate as a multiple of the effective data rate.
        meas_ratio: f64,
    },
    /// A fully materialized channel (e.g. schedule-derived rates); the operating
    /// point's model is ignored by [`ChannelSpec::instantiate`].
    Explicit(ErrorChannel),
}

impl ChannelSpec {
    /// Whether this is the uniform (historical) spec.
    pub fn is_uniform(&self) -> bool {
        matches!(self, ChannelSpec::Uniform)
    }

    /// Materializes the channel for one operating point: `model` supplies the
    /// effective rates, `n` the data-qubit count and `checks` the total stabilizer
    /// check count (X-sector plus Z-sector).
    ///
    /// # Panics
    ///
    /// Panics if an explicit channel's dimensions do not match `n` / `checks`.
    pub fn instantiate(&self, model: &HardwareNoiseModel, n: usize, checks: usize) -> ErrorChannel {
        match self {
            ChannelSpec::Uniform => ErrorChannel::uniform(n, model.effective_error_rate()),
            ChannelSpec::Biased { meas_ratio } => {
                let p = model.effective_error_rate();
                ErrorChannel::biased(n, checks, p, (meas_ratio * p).clamp(0.0, 0.75))
            }
            ChannelSpec::Explicit(channel) => {
                assert_eq!(
                    channel.num_data(),
                    n,
                    "explicit channel sized for a different code"
                );
                assert!(
                    !channel.has_measurement_noise() || channel.measurement().len() == checks,
                    "explicit channel has {} measurement checks, code has {checks}",
                    channel.measurement().len()
                );
                channel.clone()
            }
        }
    }

    /// The compact identity string written into sweep-cache entries (schema 3) and
    /// compared on reads: `"uniform"`, `"biased:<ratio>"`, or
    /// `"explicit:<digest>"`. Two points with different ids never share a cache
    /// entry.
    pub fn cache_id(&self) -> String {
        match self {
            ChannelSpec::Uniform => "uniform".to_string(),
            ChannelSpec::Biased { meas_ratio } => format!("biased:{meas_ratio}"),
            ChannelSpec::Explicit(channel) => format!("explicit:{:016x}", channel.digest()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NoiseParameters;

    fn model(p: f64, latency: f64) -> HardwareNoiseModel {
        HardwareNoiseModel::new(NoiseParameters::new(p), latency)
    }

    #[test]
    fn uniform_channel_exposes_its_rate() {
        let ch = ErrorChannel::uniform(10, 3e-3);
        assert_eq!(ch.uniform_rate(), Some(3e-3));
        assert_eq!(ch.num_data(), 10);
        assert!(!ch.has_measurement_noise());
        assert!(ch.data().iter().all(|&p| p == 3e-3));
    }

    #[test]
    fn biased_channel_has_measurement_noise() {
        let ch = ErrorChannel::biased(10, 6, 3e-3, 6e-3);
        assert_eq!(ch.uniform_rate(), None);
        assert!(ch.has_measurement_noise());
        assert_eq!(ch.measurement().len(), 6);
        assert!(ch.measurement().iter().all(|&p| p == 6e-3));
    }

    #[test]
    fn zero_bias_degenerates_to_uniform() {
        // All-zero measurement rates normalize away, so the fast path applies.
        let ch = ErrorChannel::biased(10, 6, 3e-3, 0.0);
        assert_eq!(ch.uniform_rate(), Some(3e-3));
        assert!(!ch.has_measurement_noise());
        assert_eq!(ch, ErrorChannel::uniform(10, 3e-3));
    }

    #[test]
    fn heterogeneous_data_rates_disable_the_fast_path() {
        let ch = ErrorChannel::from_rates(vec![1e-3, 2e-3], Vec::new());
        assert_eq!(ch.uniform_rate(), None);
        assert!(!ch.has_measurement_noise());
    }

    #[test]
    #[should_panic(expected = "data rate")]
    fn out_of_range_data_rate_rejected() {
        let _ = ErrorChannel::from_rates(vec![0.0], Vec::new());
    }

    #[test]
    #[should_panic(expected = "measurement rate")]
    fn out_of_range_measurement_rate_rejected() {
        let _ = ErrorChannel::from_rates(vec![1e-3], vec![1.0]);
    }

    #[test]
    fn rates_above_depolarizing_max_saturate_with_a_recorded_flag() {
        // Straddle the old silent clamp: 0.7 passes through untouched, 0.9
        // saturates at 0.75, and the saturation is visible on the channel.
        let ch = ErrorChannel::from_rates(vec![0.7, 0.9], vec![0.2, 0.8]);
        assert_eq!(ch.data(), &[0.7, DEPOLARIZING_MAX]);
        assert_eq!(ch.measurement(), &[0.2, DEPOLARIZING_MAX]);
        assert!(ch.saturated());

        // Rates at or below the maximum are untouched and unflagged.
        let ch = ErrorChannel::from_rates(vec![0.7, DEPOLARIZING_MAX], vec![0.2]);
        assert_eq!(ch.data(), &[0.7, DEPOLARIZING_MAX]);
        assert!(!ch.saturated());
        assert!(!ErrorChannel::uniform(4, 3e-3).saturated());
    }

    #[test]
    fn saturated_uniform_channel_keeps_the_fast_path_at_the_max() {
        // A uniform request above the max saturates to a uniform channel at the
        // max — the fast-path key reflects the rates actually sampled.
        let ch = ErrorChannel::uniform(4, 0.9);
        assert_eq!(ch.uniform_rate(), Some(DEPOLARIZING_MAX));
        assert!(ch.saturated());
    }

    #[test]
    fn schedule_channel_tracks_idle_exposure() {
        let m = model(5e-4, 5e-3);
        let ch = ErrorChannel::from_schedule(&m, &[0.0, 5e-3, 5e-2], &[0.0, 5e-3]);
        // Zero idle recovers the physical error rate.
        assert_eq!(ch.data()[0], 5e-4);
        assert_eq!(ch.measurement()[0], 5e-4);
        // More idle, more decoherence.
        assert!(ch.data()[1] < ch.data()[2]);
        assert!(ch.measurement()[1] > ch.measurement()[0]);
        // Idle equal to the round latency reproduces the scalar effective rate.
        assert_eq!(ch.data()[1], m.effective_error_rate());
        assert_eq!(
            ch.measurement()[1],
            (5e-4 + m.decoherence_error()).min(0.75)
        );
        assert_eq!(ch.uniform_rate(), None);
    }

    #[test]
    fn spec_instantiation_matches_the_model() {
        let m = model(2e-3, 1e-2);
        let uniform = ChannelSpec::Uniform.instantiate(&m, 8, 4);
        assert_eq!(uniform.uniform_rate(), Some(m.effective_error_rate()));

        let biased = ChannelSpec::Biased { meas_ratio: 2.0 }.instantiate(&m, 8, 4);
        assert_eq!(biased.data()[0], m.effective_error_rate());
        assert_eq!(
            biased.measurement()[0],
            (2.0 * m.effective_error_rate()).min(0.75)
        );

        let explicit = ChannelSpec::Explicit(ErrorChannel::uniform(8, 1e-3));
        assert_eq!(explicit.instantiate(&m, 8, 4).uniform_rate(), Some(1e-3));
    }

    #[test]
    #[should_panic(expected = "sized for a different code")]
    fn explicit_spec_rejects_wrong_dimensions() {
        let m = model(2e-3, 0.0);
        let _ = ChannelSpec::Explicit(ErrorChannel::uniform(8, 1e-3)).instantiate(&m, 9, 4);
    }

    #[test]
    fn cache_ids_distinguish_channels() {
        assert_eq!(ChannelSpec::Uniform.cache_id(), "uniform");
        assert_eq!(
            ChannelSpec::Biased { meas_ratio: 2.5 }.cache_id(),
            "biased:2.5"
        );
        let a = ChannelSpec::Explicit(ErrorChannel::uniform(8, 1e-3)).cache_id();
        let b = ChannelSpec::Explicit(ErrorChannel::uniform(8, 2e-3)).cache_id();
        assert_ne!(a, b);
        assert!(a.starts_with("explicit:"));
        // Identical contents digest identically (the reuse guarantee).
        let a2 = ChannelSpec::Explicit(ErrorChannel::uniform(8, 1e-3)).cache_id();
        assert_eq!(a, a2);
    }

    #[test]
    fn digest_is_sensitive_to_every_rate() {
        let base = ErrorChannel::from_rates(vec![1e-3, 2e-3], vec![3e-3]).digest();
        assert_ne!(
            base,
            ErrorChannel::from_rates(vec![1e-3, 2.0000001e-3], vec![3e-3]).digest()
        );
        assert_ne!(
            base,
            ErrorChannel::from_rates(vec![1e-3, 2e-3], vec![4e-3]).digest()
        );
        assert_ne!(
            base,
            ErrorChannel::from_rates(vec![1e-3, 2e-3], Vec::new()).digest()
        );
    }
}
