//! The Cyclone codesign: a ring of traps with lockstep ancilla rotation.
//!
//! Cyclone (§IV of the paper) couples:
//!
//! * **hardware** — a ring topology with at most `m/2` traps (one L-shaped, degree-2
//!   junction between adjacent traps), and
//! * **software** — a symmetric schedule in which every ancilla moves one trap
//!   clockwise in lockstep after finishing the gates it can perform locally.
//!
//! Stabilizers are assigned dynamically in the non-edge-colorable order: all X
//! stabilizers are measured during the first full rotation and all Z stabilizers
//! during the second, so exactly two rotations complete a syndrome-extraction round.
//! Because every trap performs the same movement at the same time there are no
//! roadblocks, total movement is bounded, and a single broadcast control signal
//! suffices.

use qccd::compiler::{CompiledRound, ComponentTimes, IdleExposure};
use qccd::timing::OperationTimes;
use qccd::topology::ring;
use qccd::{Topology, TopologyKind};
use qec::{CssCode, StabKind};
use serde::{Deserialize, Serialize};

/// Configuration of a Cyclone instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycloneConfig {
    /// Number of traps on the ring. `None` selects the base form,
    /// `max(|X|, |Z|)` traps (one ancilla per trap).
    pub num_traps: Option<usize>,
    /// Explicit per-trap ion capacity. `None` selects the "tight" capacity
    /// `⌈n/x⌉ + ⌈a/x⌉` (data plus resident ancillas).
    pub trap_capacity: Option<usize>,
}

impl CycloneConfig {
    /// The base Cyclone configuration (one ancilla per trap, tight capacity).
    pub fn base() -> Self {
        Self::default()
    }

    /// A condensed Cyclone with exactly `x` traps and tight capacity.
    pub fn with_traps(x: usize) -> Self {
        CycloneConfig {
            num_traps: Some(x),
            trap_capacity: None,
        }
    }
}

/// A Cyclone codesign instantiated for one code.
#[derive(Debug, Clone)]
pub struct CycloneCodesign {
    code_name: String,
    /// Number of traps `x`.
    num_traps: usize,
    /// Per-trap capacity.
    capacity: usize,
    /// Number of ancillas (reused between the X and Z rotations): `max(|X|, |Z|)`.
    num_ancilla: usize,
    /// Balanced partition: `data_partition[t]` lists the data qubits resident in trap `t`.
    data_partition: Vec<Vec<usize>>,
    /// Number of ancillas homed in each trap.
    ancilla_per_trap: Vec<usize>,
    /// Stabilizer supports per sector (copied out of the code for scheduling).
    x_supports: Vec<Vec<usize>>,
    z_supports: Vec<Vec<usize>>,
    /// The ring topology.
    topology: Topology,
}

impl CycloneCodesign {
    /// Builds a Cyclone codesign for `code` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the requested trap count is zero.
    pub fn new(code: &CssCode, config: CycloneConfig) -> Self {
        assert_ne!(
            config.num_traps,
            Some(0),
            "a Cyclone ring needs at least one trap"
        );
        let num_ancilla = code.num_x_stabilizers().max(code.num_z_stabilizers());
        let x = config.num_traps.unwrap_or(num_ancilla.max(1));
        let n = code.num_qubits();
        let tight_capacity = n.div_ceil(x) + num_ancilla.div_ceil(x);
        let capacity = config
            .trap_capacity
            .unwrap_or(tight_capacity)
            .max(tight_capacity);

        // Balanced data partition: consecutive qubits dealt into traps as evenly as
        // possible (the paper only requires the partition to be balanced).
        let mut data_partition: Vec<Vec<usize>> = vec![Vec::new(); x];
        for q in 0..n {
            data_partition[q % x].push(q);
        }
        // Ancillas distributed as evenly as possible.
        let mut ancilla_per_trap = vec![num_ancilla / x; x];
        for item in ancilla_per_trap.iter_mut().take(num_ancilla % x) {
            *item += 1;
        }

        let x_supports = code
            .sector_stabilizers(StabKind::X)
            .into_iter()
            .map(|s| s.support)
            .collect();
        let z_supports = code
            .sector_stabilizers(StabKind::Z)
            .into_iter()
            .map(|s| s.support)
            .collect();

        CycloneCodesign {
            code_name: code.name().to_string(),
            num_traps: x,
            capacity,
            num_ancilla,
            data_partition,
            ancilla_per_trap,
            x_supports,
            z_supports,
            topology: ring(x, capacity),
        }
    }

    /// The ring topology of this instance.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of traps `x`.
    pub fn num_traps(&self) -> usize {
        self.num_traps
    }

    /// Per-trap ion capacity.
    pub fn trap_capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ancilla qubits (reused across the two rotations).
    pub fn num_ancilla(&self) -> usize {
        self.num_ancilla
    }

    /// The balanced data partition (`[trap] -> data qubits`).
    pub fn data_partition(&self) -> &[Vec<usize>] {
        &self.data_partition
    }

    /// Assigns stabilizers of one sector to ancilla slots.
    ///
    /// Ancilla slots are numbered `0..num_ancilla` in trap order; slot `j` handles
    /// stabilizer `j` of the sector (when the sector has fewer stabilizers than slots
    /// the extra ancillas idle).
    fn sector_supports(&self, sector: StabKind) -> &[Vec<usize>] {
        match sector {
            StabKind::X => &self.x_supports,
            StabKind::Z => &self.z_supports,
        }
    }

    /// Home trap of ancilla slot `j` (before any rotation).
    fn ancilla_home(&self, slot: usize) -> usize {
        // Slots are dealt to traps in order: trap 0 gets the first `ancilla_per_trap[0]`
        // slots, and so on.
        let mut remaining = slot;
        for (trap, &count) in self.ancilla_per_trap.iter().enumerate() {
            if remaining < count {
                return trap;
            }
            remaining -= count;
        }
        self.num_traps - 1
    }

    /// Simulates one lockstep rotation measuring `sector`, returning
    /// `(rotation_time, breakdown, gates_executed)` and accumulating per-qubit busy
    /// time (gate time for data qubits, gate + measurement time for ancilla slots)
    /// into `profile`.
    fn simulate_rotation(
        &self,
        sector: StabKind,
        times: &OperationTimes,
        profile: &mut RotationProfile,
    ) -> (f64, ComponentTimes, usize) {
        let supports = self.sector_supports(sector);
        let x = self.num_traps;
        // Chain length for gate-time purposes: resident data + resident ancillas.
        let chain_len: Vec<usize> = (0..x)
            .map(|t| self.data_partition[t].len() + self.ancilla_per_trap[t])
            .collect();
        let mut breakdown = ComponentTimes::default();
        let mut total = 0.0f64;
        let mut gates_executed = 0usize;

        // Per-step shuttle: every ancilla is swapped to the trap edge, split, moved
        // across the L-junction, and merged into the next trap — all in parallel.
        // With more than one ancilla per trap the swaps/splits serialize within the
        // trap, so the step charges `ancillas_in_trap` swap+split+merge sequences.
        let max_anc_per_trap = self
            .ancilla_per_trap
            .iter()
            .copied()
            .max()
            .unwrap_or(1)
            .max(1);
        let junction_cross = times.junction_crossing(2);

        for step in 0..x {
            // Gate phase: ancilla slot j currently sits at trap (home_j + step) mod x
            // and performs gates with every resident data qubit in its stabilizer's
            // support. Traps execute one gate at a time, so the phase lasts as long as
            // the busiest trap.
            let mut gates_in_trap = vec![0usize; x];
            for (slot, support) in supports.iter().enumerate() {
                let trap = (self.ancilla_home(slot) + step) % x;
                let here = &self.data_partition[trap];
                let g = times.two_qubit_gate(chain_len[trap]);
                let mut count = 0usize;
                for d in support {
                    if here.contains(d) {
                        count += 1;
                        profile.data_busy[*d] += g;
                        profile.ancilla_busy[slot] += g;
                    }
                }
                gates_in_trap[trap] += count;
                gates_executed += count;
            }
            let mut phase = 0.0f64;
            for t in 0..x {
                let g = times.two_qubit_gate(chain_len[t]);
                let trap_time = gates_in_trap[t] as f64 * g;
                breakdown.gate += trap_time;
                phase = phase.max(trap_time);
            }
            total += phase;

            // Rotation phase (skipped after the final step of the rotation only in the
            // sense that the ancilla returns to its home; the paper keeps the movement
            // symmetric, so we charge it every step).
            let per_ancilla_swap = times.swap(chain_len.iter().copied().max().unwrap_or(2), 1);
            let moving = max_anc_per_trap as f64;
            // Critical path: the trap with the most resident ancillas serializes its
            // swap/split/merge sequences; movement across the L-junction overlaps.
            let swap_time = moving * per_ancilla_swap;
            let split_time = moving * times.split;
            let merge_time = moving * times.merge;
            let move_time = moving * (2.0 * times.shuttle_move + junction_cross);
            // Resource-time breakdown: every ancilla in the machine performs one
            // swap + split + move + junction crossing + merge this step.
            let all = self.num_ancilla as f64;
            breakdown.swap += all * per_ancilla_swap;
            breakdown.split += all * times.split;
            breakdown.merge += all * times.merge;
            breakdown.shuttle_move += all * 2.0 * times.shuttle_move;
            breakdown.junction += all * junction_cross;
            total += swap_time + split_time + merge_time + move_time;
        }

        // Measurement phase: every ancilla is measured (and re-prepared) in place;
        // ancillas sharing a trap serialize.
        let meas = times.measurement + times.preparation;
        let meas_phase = max_anc_per_trap as f64 * meas;
        breakdown.measurement += meas * self.num_ancilla as f64;
        total += meas_phase;
        for busy in &mut profile.ancilla_busy {
            *busy += meas;
        }

        (total, breakdown, gates_executed)
    }

    /// Compiles one full round (two rotations: X then Z), returning the timed result
    /// plus the per-qubit [`IdleExposure`] of the round.
    ///
    /// Cyclone has no discrete-event simulator, so the profile is analytic: a qubit
    /// is busy while it is being gated (and, for ancillas, measured); the lockstep
    /// rotation itself — swaps, splits, junction crossings, merges — counts as
    /// exposure, exactly like shuttling in `qccd::compiler::sim`. Each sector's
    /// ancilla exposure covers the rotation that measures it (the ancilla ions are
    /// re-prepared between the X and Z rotations).
    pub fn compile(&self, times: &OperationTimes) -> (CompiledRound, IdleExposure) {
        let n = self.data_partition.iter().map(Vec::len).sum::<usize>();
        let mut px = RotationProfile::new(n, self.num_ancilla);
        let mut pz = RotationProfile::new(n, self.num_ancilla);
        let (tx, mut breakdown, gx) = self.simulate_rotation(StabKind::X, times, &mut px);
        let (tz, bz, gz) = self.simulate_rotation(StabKind::Z, times, &mut pz);
        breakdown.accumulate(&bz);
        let horizon = tx + tz;
        let round = CompiledRound {
            codesign: format!("Cyclone x={} ({})", self.num_traps, self.code_name),
            execution_time: horizon,
            breakdown,
            num_gates: gx + gz,
            num_shuttles: 2 * self.num_traps * self.num_ancilla.div_ceil(self.num_traps),
            num_rebalances: 0,
            roadblock_events: 0,
            num_traps: self.num_traps,
            num_junctions: self.topology.num_junctions(),
            num_ancilla: self.num_ancilla,
        };
        let data = (0..n)
            .map(|q| (horizon - px.data_busy[q] - pz.data_busy[q]).max(0.0))
            .collect();
        let x_ancilla = (0..self.x_supports.len())
            .map(|j| (tx - px.ancilla_busy[j]).max(0.0))
            .collect();
        let z_ancilla = (0..self.z_supports.len())
            .map(|j| (tz - pz.ancilla_busy[j]).max(0.0))
            .collect();
        (
            round,
            IdleExposure {
                data,
                x_ancilla,
                z_ancilla,
                horizon,
            },
        )
    }

    /// The closed-form worst-case execution time
    /// `2·x·(s + ⌈a/x⌉·(t_swap + g·⌈n/x⌉)) + 2·⌈a/x⌉·t_meas`,
    /// where `s` is the per-step shuttle cost, `a = max(|X|,|Z|)` the ancilla count and
    /// `n` the number of data qubits (§IV-A).
    pub fn worst_case_execution_time(&self, times: &OperationTimes, num_data: usize) -> f64 {
        let x = self.num_traps as f64;
        let anc_per_trap = self.num_ancilla.div_ceil(self.num_traps) as f64;
        let data_per_trap = num_data.div_ceil(self.num_traps) as f64;
        let chain =
            (num_data.div_ceil(self.num_traps) + self.num_ancilla.div_ceil(self.num_traps)).max(2);
        let s = times.split + 2.0 * times.shuttle_move + times.junction_crossing(2) + times.merge;
        let g = times.two_qubit_gate(chain);
        let t_swap = times.swap(chain, 1);
        let per_step = anc_per_trap * (s + t_swap) + anc_per_trap * data_per_trap * g;
        2.0 * x * per_step + 2.0 * anc_per_trap * (times.measurement + times.preparation)
    }
}

/// Per-qubit busy-time accumulator of one lockstep rotation (see
/// [`CycloneCodesign::compile`]).
#[derive(Debug, Clone)]
struct RotationProfile {
    /// Gate time accumulated on each data qubit.
    data_busy: Vec<f64>,
    /// Gate + measurement time accumulated on each ancilla slot.
    ancilla_busy: Vec<f64>,
}

impl RotationProfile {
    fn new(num_data: usize, num_ancilla: usize) -> Self {
        RotationProfile {
            data_busy: vec![0.0; num_data],
            ancilla_busy: vec![0.0; num_ancilla],
        }
    }
}

/// True when the topology produced by a Cyclone config is a physically realizable ring.
pub fn is_valid_cyclone_topology(topology: &Topology) -> bool {
    topology.kind() == TopologyKind::Ring && topology.is_physically_realizable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Cyclone;
    use qccd::compiler::Codesign;
    use qec::codes::{bb_72_12_6, hgp_225_9_6};

    #[test]
    fn base_cyclone_has_half_m_traps() {
        let code = bb_72_12_6().expect("valid");
        let design = CycloneCodesign::new(&code, CycloneConfig::base());
        assert_eq!(design.num_traps(), code.num_stabilizers() / 2);
        assert_eq!(design.num_ancilla(), code.num_stabilizers() / 2);
        assert!(is_valid_cyclone_topology(design.topology()));
    }

    #[test]
    fn cyclone_covers_all_gates() {
        let code = bb_72_12_6().expect("valid");
        for x in [4, 9, 12, 36] {
            assert!(
                Cyclone::condensed(x).covers_all_gates(&code),
                "x={x} missed gates"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one trap")]
    fn zero_traps_are_rejected() {
        let code = bb_72_12_6().expect("valid");
        CycloneCodesign::new(&code, CycloneConfig::with_traps(0));
    }

    #[test]
    fn cyclone_has_no_roadblocks_or_rebalances() {
        let code = bb_72_12_6().expect("valid");
        let design = CycloneCodesign::new(&code, CycloneConfig::base());
        let (round, _) = design.compile(&OperationTimes::default());
        assert_eq!(round.roadblock_events, 0);
        assert_eq!(round.num_rebalances, 0);
        assert!(round.execution_time > 0.0);
    }

    #[test]
    fn execution_time_within_worst_case_bound() {
        let code = hgp_225_9_6().expect("valid");
        for x in [27, 54, 108] {
            let design = CycloneCodesign::new(&code, CycloneConfig::with_traps(x));
            let (round, _) = design.compile(&OperationTimes::default());
            let bound =
                design.worst_case_execution_time(&OperationTimes::default(), code.num_qubits());
            assert!(
                round.execution_time <= bound * 1.001,
                "x={x}: simulated {} exceeds bound {}",
                round.execution_time,
                bound
            );
        }
    }

    #[test]
    fn fewer_traps_fewer_steps_more_gate_serialization() {
        let code = bb_72_12_6().expect("valid");
        let times = OperationTimes::default();
        let (sparse, _) =
            CycloneCodesign::new(&code, CycloneConfig::with_traps(36)).compile(&times);
        let (dense, _) = CycloneCodesign::new(&code, CycloneConfig::with_traps(6)).compile(&times);
        // Shuttling dominates the sparse design and gate serialization the dense one;
        // both must at least charge the same total gate work.
        assert!(sparse.breakdown.split > dense.breakdown.split);
        assert!(dense.breakdown.gate >= sparse.breakdown.gate * 0.9);
    }

    #[test]
    fn profiled_compile_is_bit_identical_and_bounded() {
        let code = bb_72_12_6().expect("valid");
        let times = OperationTimes::default();
        for x in [6, 12, 36] {
            let design = CycloneCodesign::new(&code, CycloneConfig::with_traps(x));
            let (round, exposure) = design.compile(&times);
            assert_eq!(exposure.horizon, round.execution_time);
            assert_eq!(exposure.data.len(), code.num_qubits());
            assert_eq!(exposure.x_ancilla.len(), code.num_x_stabilizers());
            assert_eq!(exposure.z_ancilla.len(), code.num_z_stabilizers());
            for &t in exposure.data.iter() {
                assert!(
                    (0.0..=exposure.horizon).contains(&t),
                    "x={x}: data exposure {t}"
                );
            }
            // Every data qubit participates in gates, so exposure < horizon.
            assert!(exposure.data.iter().all(|&t| t < exposure.horizon));
            // Ancilla exposure is bounded by its own rotation, which is shorter
            // than the full round.
            assert!(exposure.x_ancilla.iter().all(|&t| t < exposure.horizon));
        }
    }

    #[test]
    fn balanced_partition_sizes() {
        let code = hgp_225_9_6().expect("valid");
        let design = CycloneCodesign::new(&code, CycloneConfig::with_traps(10));
        let sizes: Vec<usize> = design.data_partition().iter().map(Vec::len).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "partition must be balanced: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 225);
    }
}
