//! Control-wiring cost model (DACs and broadcast groups).
//!
//! QCCD machines require one digital-to-analog converter (DAC) channel group per trap
//! to generate shuttling waveforms — unless several traps perform *identical* ion
//! movements at the same time, in which case a single control signal can be broadcast
//! (co-wired) to all of them (§II-B4). Cyclone's lockstep rotation makes every trap's
//! movement identical, so it needs only a constant number of DACs, whereas grid
//! codesigns need one per trap.

use crate::hardware::{Topology, TopologyKind};

/// The number of independent DAC channel groups a topology needs under its natural
/// control policy.
///
/// * Ring (Cyclone): all traps move in lockstep, so one broadcast group suffices
///   (the paper notes "theoretically requiring only one DAC with forwarding").
/// * Grids and meshes: uncoordinated movements require one DAC per trap.
pub fn dac_count(topology: &Topology) -> usize {
    match topology.kind() {
        TopologyKind::Ring => 1,
        _ => topology.num_traps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{baseline_grid, ring};

    #[test]
    fn ring_needs_constant_dacs() {
        let small = dac_count(&ring(12, 8));
        let large = dac_count(&ring(300, 8));
        assert_eq!(small, large);
        assert_eq!(large, 1);
    }

    #[test]
    fn grid_needs_linear_dacs() {
        assert_eq!(dac_count(&baseline_grid(225, 5)), 225);
    }

    #[test]
    fn advantage_scales_with_grid_size() {
        // The grid-over-ring control advantage grows with the grid.
        let adv_small = dac_count(&baseline_grid(25, 5)) / dac_count(&ring(13, 8));
        let adv_large = dac_count(&baseline_grid(625, 5)) / dac_count(&ring(300, 8));
        assert!(adv_large > adv_small);
    }
}
