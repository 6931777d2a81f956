//! Decoherence modelling via the Pauli twirling approximation.
//!
//! An idling qubit subject to amplitude damping (decay time `T1`, written `Tₐ` in the
//! paper) and dephasing (time `T2`, written `T_b`) for a duration `t` can be
//! approximated — after Pauli twirling (Geller & Zhou; Tomita & Svore) — by a Pauli
//! channel with probabilities
//!
//! ```text
//! p_x = p_y = (1 - e^{-t/T1}) / 4
//! p_z = (1 - e^{-t/T2}) / 2 - (1 - e^{-t/T1}) / 4
//! ```
//!
//! The total error probability `p_x + p_y + p_z` is what the memory experiments add on
//! top of the base circuit-level error rate.

/// Decay (`T1`) and dephasing (`T2`) times, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherenceTimes {
    /// Amplitude-damping (decay) time `T1`, seconds.
    pub t1: f64,
    /// Dephasing time `T2`, seconds.
    pub t2: f64,
}

impl CoherenceTimes {
    /// Creates coherence times from explicit `T1` and `T2` values (seconds).
    ///
    /// # Panics
    ///
    /// Panics if either time is not strictly positive.
    pub fn new(t1: f64, t2: f64) -> Self {
        assert!(t1 > 0.0 && t2 > 0.0, "coherence times must be positive");
        CoherenceTimes { t1, t2 }
    }

    /// Symmetric coherence times `T1 = T2 = t`, the paper's default assumption
    /// (it uses the same parameterized value for both `Tₐ` and `T_b`).
    pub fn symmetric(t: f64) -> Self {
        Self::new(t, t)
    }
}

/// The paper's log-fit from physical error rate to coherence time:
/// `p = 10⁻⁴ ↦ 100 s` and `p = 10⁻³ ↦ 10 s`, log-linear in between and extrapolated
/// outside the range (clamped to stay positive).
///
/// # Panics
///
/// Panics if `p` is not strictly positive.
///
/// # Examples
///
/// ```
/// use noise::decoherence::coherence_time_from_p;
///
/// assert!((coherence_time_from_p(1e-4) - 100.0).abs() < 1e-9);
/// assert!((coherence_time_from_p(1e-3) - 10.0).abs() < 1e-9);
/// ```
pub fn coherence_time_from_p(p: f64) -> f64 {
    assert!(p > 0.0, "physical error rate must be positive");
    // log10(T) = a + b * log10(p); fit through (1e-4, 100) and (1e-3, 10):
    // b = (1 - 2) / (-3 - (-4)) = -1, a = 2 + (-1)*4 = -2  =>  T = 10^(-2) / p ... check:
    // log10(T) = -2 - log10(p); at p=1e-4: -2 + 4 = 2 -> 100. at p=1e-3: -2+3=1 -> 10. ok.
    let log_t = -2.0 - p.log10();
    10f64.powf(log_t).max(1e-3)
}

/// Pauli-twirled error probabilities `(p_x, p_y, p_z)` for a qubit idling for
/// `duration` seconds under the given coherence times.
///
/// # Panics
///
/// Panics if `duration` is negative.
pub fn pauli_twirl_probabilities(duration: f64, times: CoherenceTimes) -> (f64, f64, f64) {
    assert!(duration >= 0.0, "duration must be non-negative");
    let px = (1.0 - (-duration / times.t1).exp()) / 4.0;
    let py = px;
    let pz = ((1.0 - (-duration / times.t2).exp()) / 2.0 - px).max(0.0);
    (px, py, pz)
}

/// Total Pauli-twirled error probability (`p_x + p_y + p_z`) for an idle period.
///
/// This is the per-qubit decoherence error added by a syndrome-extraction round of the
/// given latency; the paper calls it `p_twirling`.
pub fn pauli_twirl_error(duration: f64, times: CoherenceTimes) -> f64 {
    let (px, py, pz) = pauli_twirl_probabilities(duration, times);
    (px + py + pz).min(0.75)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherence_fit_endpoints() {
        assert!((coherence_time_from_p(1e-4) - 100.0).abs() < 1e-9);
        assert!((coherence_time_from_p(1e-3) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn coherence_fit_monotone_decreasing() {
        let ps = [1e-4, 2e-4, 5e-4, 1e-3];
        for w in ps.windows(2) {
            assert!(coherence_time_from_p(w[0]) > coherence_time_from_p(w[1]));
        }
    }

    #[test]
    fn twirl_error_zero_duration() {
        let t = CoherenceTimes::symmetric(50.0);
        assert_eq!(pauli_twirl_error(0.0, t), 0.0);
    }

    #[test]
    fn twirl_error_increases_with_duration() {
        let t = CoherenceTimes::symmetric(50.0);
        let short = pauli_twirl_error(1e-3, t);
        let long = pauli_twirl_error(1e-2, t);
        assert!(long > short);
        assert!(short > 0.0);
    }

    #[test]
    fn twirl_error_saturates_below_three_quarters() {
        let t = CoherenceTimes::symmetric(1.0);
        assert!(pauli_twirl_error(1e6, t) <= 0.75);
    }

    #[test]
    fn twirl_small_time_linear_approximation() {
        // For t << T1=T2=T, total error ≈ 3/(4T) * t + 1/(4T) * t ... compute exactly:
        // px+py = (1-e^{-t/T})/2 ≈ t/(2T); pz = (1-e^{-t/T})/2 - (1-e^{-t/T})/4 ≈ t/(4T)
        // total ≈ 3t/(4T).
        let t = CoherenceTimes::symmetric(100.0);
        let dur = 1e-4;
        let approx = 3.0 * dur / (4.0 * 100.0);
        let exact = pauli_twirl_error(dur, t);
        assert!((exact - approx).abs() / approx < 1e-3);
    }

    #[test]
    fn asymmetric_t2_dominated_dephasing() {
        // Short T2 with long T1 should yield mostly Z error.
        let times = CoherenceTimes::new(1000.0, 1.0);
        let (px, _py, pz) = pauli_twirl_probabilities(0.1, times);
        assert!(pz > 10.0 * px);
    }
}
