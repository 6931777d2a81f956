//! Pauli-frame simulation of CSS syndrome-extraction circuits.
//!
//! The simulator tracks an X-frame and a Z-frame bit per qubit (data and ancilla) and
//! propagates them through the entangling gates of a syndrome-extraction schedule,
//! injecting stochastic depolarizing faults after every operation — the standard
//! circuit-level noise model. The `circuit_level` example runs it against the faster
//! effective-error-rate memory model the figures use.

use decoder::bp::priors_digest;
use decoder::bposd::BpOsdDecoder;
use decoder::scratch::DecoderScratch;
use qec::schedule::Schedule;
use qec::{CssCode, StabKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stochastic fault probabilities for the circuit-level model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitNoise {
    /// Two-qubit depolarizing probability applied after every CX.
    pub two_qubit: f64,
    /// Preparation flip probability.
    pub preparation: f64,
    /// Measurement flip probability.
    pub measurement: f64,
    /// Per-qubit idle depolarizing probability applied once per round (latency-derived).
    pub idle: f64,
}

impl CircuitNoise {
    /// Uniform circuit-level noise at physical error rate `p` with no idle error.
    pub fn uniform(p: f64) -> Self {
        CircuitNoise {
            two_qubit: p,
            preparation: p,
            measurement: p,
            idle: 0.0,
        }
    }
}

/// The per-qubit Pauli frame state of one simulation shot.
#[derive(Debug, Clone)]
pub struct PauliFrame {
    /// X-error indicator per data qubit.
    pub x_errors: Vec<bool>,
    /// Z-error indicator per data qubit.
    pub z_errors: Vec<bool>,
}

/// Result of simulating one noisy syndrome-extraction round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Measured (noisy) X-stabilizer outcomes — sensitive to Z errors on data.
    pub x_syndrome: Vec<bool>,
    /// Measured (noisy) Z-stabilizer outcomes — sensitive to X errors on data.
    pub z_syndrome: Vec<bool>,
    /// Residual Pauli frame on the data qubits after the round.
    pub frame: PauliFrame,
}

/// A circuit-level Pauli-frame simulator for one CSS code and schedule.
#[derive(Debug, Clone)]
pub struct PauliFrameSimulator<'a> {
    code: &'a CssCode,
    schedule: &'a Schedule,
    noise: CircuitNoise,
}

impl<'a> PauliFrameSimulator<'a> {
    /// Creates a simulator.
    pub fn new(code: &'a CssCode, schedule: &'a Schedule, noise: CircuitNoise) -> Self {
        PauliFrameSimulator {
            code,
            schedule,
            noise,
        }
    }

    fn depolarize_single<R: Rng>(rng: &mut R, p: f64, x: &mut bool, z: &mut bool) {
        if p > 0.0 && rng.gen_bool(p) {
            match rng.gen_range(0..3) {
                0 => *x = !*x,
                1 => *z = !*z,
                _ => {
                    *x = !*x;
                    *z = !*z;
                }
            }
        }
    }

    fn depolarize_pair<R: Rng>(
        rng: &mut R,
        p: f64,
        ax: &mut bool,
        az: &mut bool,
        bx: &mut bool,
        bz: &mut bool,
    ) {
        if p > 0.0 && rng.gen_bool(p) {
            // Uniform over the 15 non-identity two-qubit Paulis.
            let k = rng.gen_range(1..16u8);
            let (pa, pb) = (k & 0b11, (k >> 2) & 0b11);
            if pa & 0b01 != 0 {
                *ax = !*ax;
            }
            if pa & 0b10 != 0 {
                *az = !*az;
            }
            if pb & 0b01 != 0 {
                *bx = !*bx;
            }
            if pb & 0b10 != 0 {
                *bz = !*bz;
            }
        }
    }

    /// Simulates one noisy syndrome-extraction round starting from an existing data
    /// frame (pass all-false frames for a fresh logical state).
    ///
    /// # Panics
    ///
    /// Panics if `initial.x_errors`/`z_errors` do not have one entry per data qubit.
    pub fn simulate_round<R: Rng>(&self, rng: &mut R, initial: &PauliFrame) -> RoundOutcome {
        let n = self.code.num_qubits();
        assert_eq!(initial.x_errors.len(), n, "frame size mismatch");
        assert_eq!(initial.z_errors.len(), n, "frame size mismatch");
        let mut dx = initial.x_errors.clone();
        let mut dz = initial.z_errors.clone();
        // Ancilla frames, indexed per sector.
        let mut ax_x = vec![false; self.code.num_x_stabilizers()];
        let mut ax_z = vec![false; self.code.num_x_stabilizers()];
        let mut az_x = vec![false; self.code.num_z_stabilizers()];
        let mut az_z = vec![false; self.code.num_z_stabilizers()];

        // Ancilla preparation faults: X ancilla prepared in |+> suffers Z flips; Z
        // ancilla prepared in |0> suffers X flips.
        for z in ax_z.iter_mut() {
            if rng.gen_bool(self.noise.preparation) {
                *z = true;
            }
        }
        for x in az_x.iter_mut() {
            if rng.gen_bool(self.noise.preparation) {
                *x = true;
            }
        }

        // Idle (decoherence) error on every data qubit, once per round.
        for q in 0..n {
            Self::depolarize_single(rng, self.noise.idle, &mut dx[q], &mut dz[q]);
        }

        // Entangling layer, slice by slice.
        for slice in self.schedule.slices() {
            for gate in slice {
                match gate.kind {
                    StabKind::X => {
                        // Ancilla (control, in |+>) -> data (target).
                        let a = gate.stabilizer;
                        let d = gate.data;
                        // CX propagation: X on control spreads to target; Z on target
                        // spreads to control.
                        dx[d] ^= ax_x[a];
                        ax_z[a] ^= dz[d];
                        Self::depolarize_pair(
                            rng,
                            self.noise.two_qubit,
                            &mut ax_x[a],
                            &mut ax_z[a],
                            &mut dx[d],
                            &mut dz[d],
                        );
                    }
                    StabKind::Z => {
                        // Data (control) -> ancilla (target, in |0>).
                        let a = gate.stabilizer;
                        let d = gate.data;
                        az_x[a] ^= dx[d];
                        dz[d] ^= az_z[a];
                        Self::depolarize_pair(
                            rng,
                            self.noise.two_qubit,
                            &mut dx[d],
                            &mut dz[d],
                            &mut az_x[a],
                            &mut az_z[a],
                        );
                    }
                }
            }
        }

        // Measurement: X ancilla measured in the X basis (flipped by its Z frame);
        // Z ancilla measured in the Z basis (flipped by its X frame).
        let x_syndrome: Vec<bool> = ax_z
            .iter()
            .map(|&flip| flip ^ rng.gen_bool(self.noise.measurement))
            .collect();
        let z_syndrome: Vec<bool> = az_x
            .iter()
            .map(|&flip| flip ^ rng.gen_bool(self.noise.measurement))
            .collect();

        RoundOutcome {
            x_syndrome,
            z_syndrome,
            frame: PauliFrame {
                x_errors: dx,
                z_errors: dz,
            },
        }
    }

    /// Simulates a round from a clean state.
    pub fn simulate_fresh_round<R: Rng>(&self, rng: &mut R) -> RoundOutcome {
        let n = self.code.num_qubits();
        let clean = PauliFrame {
            x_errors: vec![false; n],
            z_errors: vec![false; n],
        };
        self.simulate_round(rng, &clean)
    }
}

/// Runs `shots` fresh noisy rounds of `schedule` at uniform circuit-level noise `p`,
/// decodes each round's measured syndromes with BP+OSD (30 iterations, uniform prior
/// `4p`) and returns how many residual frames are logical errors.
///
/// One seeded generator drives every shot in order, so a given `(shots, seed)`
/// always returns the same count.
pub fn circuit_level_failures(
    code: &CssCode,
    schedule: &Schedule,
    p: f64,
    shots: usize,
    seed: u64,
) -> usize {
    let sim = PauliFrameSimulator::new(code, schedule, CircuitNoise::uniform(p));
    let x_decoder = BpOsdDecoder::new(code.hz(), 30);
    let z_decoder = BpOsdDecoder::new(code.hx(), 30);
    // Both sectors decode with the uniform prior 4p; one scratch per sector.
    let priors = vec![p * 4.0; code.num_qubits()];
    let key = priors_digest(&priors);
    let (mut x_scratch, mut z_scratch) = (DecoderScratch::new(), DecoderScratch::new());

    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = 0usize;
    for _ in 0..shots {
        let outcome = sim.simulate_fresh_round(&mut rng);
        // Decode the measured syndromes (single round, so the measured syndrome is
        // used directly) and apply the corrections to the residual data frame.
        x_decoder.decode_with_priors_keyed_into(&outcome.z_syndrome, &priors, key, &mut x_scratch);
        z_decoder.decode_with_priors_keyed_into(&outcome.x_syndrome, &priors, key, &mut z_scratch);
        let x_residual: Vec<bool> = outcome
            .frame
            .x_errors
            .iter()
            .zip(x_scratch.error())
            .map(|(&a, &b)| a ^ b)
            .collect();
        let z_residual: Vec<bool> = outcome
            .frame
            .z_errors
            .iter()
            .zip(z_scratch.error())
            .map(|(&a, &b)| a ^ b)
            .collect();
        if code.x_error_is_logical(&x_residual) || code.z_error_is_logical(&z_residual) {
            failures += 1;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::codes::bb_72_12_6;
    use qec::schedule::parallel_xz_schedule;

    #[test]
    fn noiseless_round_gives_zero_syndrome() {
        let code = bb_72_12_6().expect("valid");
        let sched = parallel_xz_schedule(&code);
        let sim = PauliFrameSimulator::new(&code, &sched, CircuitNoise::uniform(1e-12));
        let mut rng = StdRng::seed_from_u64(1);
        let out = sim.simulate_fresh_round(&mut rng);
        assert!(out.x_syndrome.iter().all(|&b| !b));
        assert!(out.z_syndrome.iter().all(|&b| !b));
        assert!(out.frame.x_errors.iter().all(|&b| !b));
    }

    #[test]
    fn preexisting_data_error_is_detected_without_noise() {
        let code = bb_72_12_6().expect("valid");
        let sched = parallel_xz_schedule(&code);
        let sim = PauliFrameSimulator::new(&code, &sched, CircuitNoise::uniform(1e-12));
        let mut rng = StdRng::seed_from_u64(2);
        let n = code.num_qubits();
        let mut frame = PauliFrame {
            x_errors: vec![false; n],
            z_errors: vec![false; n],
        };
        frame.x_errors[5] = true; // an X error should trigger Z-stabilizer syndrome
        let out = sim.simulate_round(&mut rng, &frame);
        let expected = code.z_syndrome(&frame.x_errors);
        assert_eq!(out.z_syndrome, expected);
        assert!(out.x_syndrome.iter().all(|&b| !b));
    }

    #[test]
    fn noise_produces_nonzero_syndromes_sometimes() {
        let code = bb_72_12_6().expect("valid");
        let sched = parallel_xz_schedule(&code);
        let sim = PauliFrameSimulator::new(&code, &sched, CircuitNoise::uniform(0.01));
        let mut rng = StdRng::seed_from_u64(3);
        let mut any = false;
        for _ in 0..50 {
            let out = sim.simulate_fresh_round(&mut rng);
            if out.x_syndrome.iter().any(|&b| b) || out.z_syndrome.iter().any(|&b| b) {
                any = true;
                break;
            }
        }
        assert!(
            any,
            "1% circuit noise should trip some stabilizer in 50 rounds"
        );
    }

    #[test]
    fn idle_noise_increases_error_frequency() {
        let code = bb_72_12_6().expect("valid");
        let sched = parallel_xz_schedule(&code);
        let mut rng = StdRng::seed_from_u64(4);
        let count_triggers = |idle: f64, rng: &mut StdRng| {
            let sim = PauliFrameSimulator::new(
                &code,
                &sched,
                CircuitNoise {
                    idle,
                    ..CircuitNoise::uniform(1e-4)
                },
            );
            (0..300)
                .filter(|_| {
                    let o = sim.simulate_fresh_round(rng);
                    o.x_syndrome.iter().any(|&b| b) || o.z_syndrome.iter().any(|&b| b)
                })
                .count()
        };
        let low = count_triggers(0.0, &mut rng);
        let high = count_triggers(0.05, &mut rng);
        assert!(
            high > low,
            "idle noise should create more syndrome events ({high} <= {low})"
        );
    }
}
