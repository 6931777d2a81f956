//! Control-wiring cost model (DACs and broadcast groups).
//!
//! QCCD machines require one digital-to-analog converter (DAC) channel group per trap
//! to generate shuttling waveforms — unless several traps perform *identical* ion
//! movements at the same time, in which case a single control signal can be broadcast
//! (co-wired) to all of them (§II-B4). Cyclone's lockstep rotation makes every trap's
//! movement identical, so it needs only a constant number of DACs, whereas grid
//! codesigns need one per trap.

use crate::hardware::{Topology, TopologyKind};

/// Summary of control-electronics requirements for a codesign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WiringCost {
    /// Number of independent DAC channel groups required.
    pub dacs: usize,
    /// Number of traps sharing a broadcast (co-wired) control signal.
    pub broadcast_traps: usize,
    /// Number of traps requiring an individually wired signal.
    pub individually_wired_traps: usize,
}

/// Computes the DAC/wiring cost of a topology under its natural control policy.
///
/// * Ring (Cyclone): all traps move in lockstep, so a **constant** number of DACs
///   suffices — one broadcast group plus a small forwarding overhead (the paper notes
///   "theoretically requiring only one DAC with forwarding"). We charge
///   `1 + extra_forwarding` DACs.
/// * Grids and meshes: uncoordinated movements require one DAC per trap.
/// * Single trap: one DAC.
pub fn wiring_cost(topology: &Topology, extra_forwarding: usize) -> WiringCost {
    let traps = topology.num_traps();
    match topology.kind() {
        TopologyKind::Ring => WiringCost {
            dacs: 1 + extra_forwarding,
            broadcast_traps: traps,
            individually_wired_traps: 0,
        },
        TopologyKind::SingleTrap => WiringCost {
            dacs: 1,
            broadcast_traps: 0,
            individually_wired_traps: traps,
        },
        _ => WiringCost {
            dacs: traps,
            broadcast_traps: 0,
            individually_wired_traps: traps,
        },
    }
}

/// The asymptotic control-overhead advantage of a ring over a grid with the same
/// number of traps: `grid_dacs / ring_dacs`.
pub fn control_advantage(grid: &Topology, ring: &Topology) -> f64 {
    let g = wiring_cost(grid, 0).dacs.max(1) as f64;
    let r = wiring_cost(ring, 0).dacs.max(1) as f64;
    g / r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{baseline_grid, ring, single_trap};

    #[test]
    fn ring_needs_constant_dacs() {
        let small = wiring_cost(&ring(12, 8), 0);
        let large = wiring_cost(&ring(300, 8), 0);
        assert_eq!(small.dacs, large.dacs);
        assert_eq!(large.dacs, 1);
        assert_eq!(large.broadcast_traps, 300);
    }

    #[test]
    fn grid_needs_linear_dacs() {
        let t = baseline_grid(225, 5);
        let w = wiring_cost(&t, 0);
        assert_eq!(w.dacs, 225);
        assert_eq!(w.individually_wired_traps, 225);
    }

    #[test]
    fn advantage_scales_with_grid_size() {
        let adv_small = control_advantage(&baseline_grid(25, 5), &ring(13, 8));
        let adv_large = control_advantage(&baseline_grid(625, 5), &ring(300, 8));
        assert!(adv_large > adv_small);
    }

    #[test]
    fn single_trap_one_dac() {
        assert_eq!(wiring_cost(&single_trap(100), 0).dacs, 1);
    }
}
