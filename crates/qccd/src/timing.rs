//! Operation timing model for QCCD hardware.
//!
//! Times follow §II-B1 of the paper (which in turn uses the QCCDSim defaults):
//! split 80 µs, move 10 µs, merge 80 µs, junction crossing 10/100/120 µs for degrees
//! 2/3/4, frequency-modulated two-qubit gates whose duration grows with the chain
//! length (and degrades sharply past ~15 ions), and two swap implementations —
//! `GateSwap` (three CX gates) and `IonSwap` (position-based, scaling with the
//! interaction distance).

/// Which physical mechanism is used to reorder ions within a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwapKind {
    /// Swap implemented as three CX gates; cost `3 × gate_time(chain)`. The paper's
    /// default for Cyclone.
    #[default]
    GateSwap,
    /// Physical position-based swap whose cost grows with the interaction distance
    /// `d_l`: `s·d_l + s·(d_l − 1) + 42 µs` (paper §IV-D, Fig. 21).
    IonSwap,
}

impl std::fmt::Display for SwapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapKind::GateSwap => write!(f, "GateSwap"),
            SwapKind::IonSwap => write!(f, "IonSwap"),
        }
    }
}

/// All hardware operation durations, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationTimes {
    /// Splitting an ion off a chain (80 µs).
    pub split: f64,
    /// Moving through one shuttling segment (10 µs).
    pub shuttle_move: f64,
    /// Merging an ion into a chain (80 µs).
    pub merge: f64,
    /// Crossing a degree-2 junction (10 µs).
    pub junction_deg2: f64,
    /// Crossing a degree-3 junction (100 µs).
    pub junction_deg3: f64,
    /// Crossing a degree-4 junction (120 µs).
    pub junction_deg4: f64,
    /// Base two-qubit gate duration for a short chain (40 µs).
    pub gate_base: f64,
    /// Additional gate duration per ion in the chain beyond two (2 µs per ion).
    pub gate_per_ion: f64,
    /// Exponent of the polynomial blow-up applied beyond
    /// [`Self::gate_chain_soft_cap`] ions: `t *= (len / cap)^exponent`, modelling the
    /// poor scaling of FM gates in long chains (paper §IV-A notes gate times scale
    /// "very poorly" past ~15 ions).
    pub gate_long_chain_exponent: f64,
    /// Chain length past which gate times degrade sharply (15 ions).
    pub gate_chain_soft_cap: usize,
    /// Single-qubit gate duration (5 µs).
    pub single_qubit_gate: f64,
    /// Measurement duration (100 µs).
    pub measurement: f64,
    /// State-preparation / cooling duration folded into measurement gaps (50 µs).
    pub preparation: f64,
    /// Constant part of an IonSwap (42 µs).
    pub ion_swap_constant: f64,
    /// Which swap mechanism to charge for reorderings.
    pub swap_kind: SwapKind,
}

impl Default for OperationTimes {
    fn default() -> Self {
        OperationTimes {
            split: 80e-6,
            shuttle_move: 10e-6,
            merge: 80e-6,
            junction_deg2: 10e-6,
            junction_deg3: 100e-6,
            junction_deg4: 120e-6,
            gate_base: 40e-6,
            gate_per_ion: 2e-6,
            gate_long_chain_exponent: 2.0,
            gate_chain_soft_cap: 15,
            single_qubit_gate: 5e-6,
            measurement: 100e-6,
            preparation: 50e-6,
            ion_swap_constant: 42e-6,
            swap_kind: SwapKind::GateSwap,
        }
    }
}

impl OperationTimes {
    /// The paper's default timing model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Junction crossing time for a junction of the given degree.
    ///
    /// Degrees 0–2 use the degree-2 time; degrees above 4 extrapolate linearly from
    /// the degree-4 time (such junctions do not occur on the evaluated topologies).
    pub fn junction_crossing(&self, degree: usize) -> f64 {
        match degree {
            0..=2 => self.junction_deg2,
            3 => self.junction_deg3,
            4 => self.junction_deg4,
            d => self.junction_deg4 + (d - 4) as f64 * (self.junction_deg4 - self.junction_deg3),
        }
    }

    /// Two-qubit gate duration in a chain of `chain_len` ions.
    ///
    /// Grows linearly with chain length and degrades multiplicatively past the soft
    /// cap, capturing the FM-gate behaviour the paper relies on when arguing against
    /// very dense traps (Fig. 13).
    pub fn two_qubit_gate(&self, chain_len: usize) -> f64 {
        let len = chain_len.max(2);
        let mut t = self.gate_base + self.gate_per_ion * (len - 2) as f64;
        if len > self.gate_chain_soft_cap {
            let ratio = len as f64 / self.gate_chain_soft_cap as f64;
            t *= ratio.powf(self.gate_long_chain_exponent);
        }
        t
    }

    /// Swap duration with the configured [`SwapKind`].
    ///
    /// `chain_len` is the chain the swap happens in; `interaction_distance` is the
    /// distance (in ion positions) between the two ions being swapped, only used by
    /// `IonSwap`.
    pub fn swap(&self, chain_len: usize, interaction_distance: usize) -> f64 {
        match self.swap_kind {
            SwapKind::GateSwap => 3.0 * self.two_qubit_gate(chain_len),
            SwapKind::IonSwap => {
                let d = interaction_distance.max(1) as f64;
                self.split * d + self.split * (d - 1.0) + self.ion_swap_constant
            }
        }
    }

    /// Returns a copy with every operation duration scaled by `1 - r` (`r` is the
    /// fractional reduction, e.g. `0.3` for "30 % faster operations"): gates,
    /// shuttling, measurement and preparation. Fig. 18 sweeps it; the paper's
    /// Fig. 18 reduces gate and shuttle times only.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not in `[0, 1)`.
    pub fn scaled(&self, r: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&r),
            "reduction fraction must be in [0,1), got {r}"
        );
        let f = 1.0 - r;
        OperationTimes {
            split: self.split * f,
            shuttle_move: self.shuttle_move * f,
            merge: self.merge * f,
            junction_deg2: self.junction_deg2 * f,
            junction_deg3: self.junction_deg3 * f,
            junction_deg4: self.junction_deg4 * f,
            gate_base: self.gate_base * f,
            gate_per_ion: self.gate_per_ion * f,
            single_qubit_gate: self.single_qubit_gate * f,
            measurement: self.measurement * f,
            preparation: self.preparation * f,
            ion_swap_constant: self.ion_swap_constant * f,
            ..*self
        }
    }

    /// Returns a copy with only junction crossing times scaled by `1 - r`
    /// (the Fig. 9 sensitivity study on the mesh junction network).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not in `[0, 1]`.
    pub fn with_junction_reduction(&self, r: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&r),
            "reduction fraction must be in [0,1], got {r}"
        );
        let f = 1.0 - r;
        OperationTimes {
            junction_deg2: self.junction_deg2 * f,
            junction_deg3: self.junction_deg3 * f,
            junction_deg4: self.junction_deg4 * f,
            ..*self
        }
    }

    /// Returns a copy using the given swap mechanism.
    pub fn with_swap_kind(&self, kind: SwapKind) -> Self {
        OperationTimes {
            swap_kind: kind,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let t = OperationTimes::default();
        assert_eq!(t.split, 80e-6);
        assert_eq!(t.shuttle_move, 10e-6);
        assert_eq!(t.merge, 80e-6);
        assert_eq!(t.junction_crossing(2), 10e-6);
        assert_eq!(t.junction_crossing(3), 100e-6);
        assert_eq!(t.junction_crossing(4), 120e-6);
    }

    #[test]
    fn gate_time_grows_with_chain() {
        let t = OperationTimes::default();
        assert!(t.two_qubit_gate(4) > t.two_qubit_gate(2));
        assert!(t.two_qubit_gate(30) > 2.0 * t.two_qubit_gate(15));
    }

    #[test]
    fn gate_swap_is_three_gates() {
        let t = OperationTimes::default();
        assert!((t.swap(5, 1) - 3.0 * t.two_qubit_gate(5)).abs() < 1e-12);
    }

    #[test]
    fn ion_swap_scales_with_distance() {
        let t = OperationTimes::default().with_swap_kind(SwapKind::IonSwap);
        assert!(t.swap(5, 4) > t.swap(5, 1));
    }

    #[test]
    fn scaled_reduces_everything() {
        let t = OperationTimes::default();
        let s = t.scaled(0.5);
        assert!((s.split - 40e-6).abs() < 1e-12);
        assert!((s.two_qubit_gate(2) - 20e-6).abs() < 1e-12);
    }

    #[test]
    fn junction_reduction_only_affects_junctions() {
        let t = OperationTimes::default();
        let s = t.with_junction_reduction(0.7);
        assert!((s.junction_crossing(4) - 0.3 * 120e-6).abs() < 1e-12);
        assert_eq!(s.split, t.split);
    }

    #[test]
    #[should_panic(expected = "reduction fraction")]
    fn scaled_rejects_full_reduction() {
        let _ = OperationTimes::default().scaled(1.0);
    }
}
