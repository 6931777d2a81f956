//! Concrete QCCD layouts.
//!
//! Builders for every hardware topology evaluated in the paper:
//!
//! * [`baseline_grid`] — the paper's baseline (§II-B3, Fig. 4b): an `l × l` grid of
//!   traps (`l = ⌈√n⌉`) whose rows are connected through columns of vertical
//!   junctions, giving flexible vertical transport.
//! * [`alternate_grid`] — Fig. 4c: alternating horizontal/vertical meshes joined by
//!   L-shaped (degree-2) junctions.
//! * [`mesh_junction_network`] — §III-C, Fig. 8: an `n/4 × n/4` mesh of degree-4
//!   junctions with the traps on the perimeter, giving effective all-to-all paths.
//! * [`ring`] — §IV, Fig. 11a: the Cyclone layout, a circle of traps joined through
//!   degree-2 (L-shaped) junctions at the corners.

use crate::hardware::{NodeId, Topology, TopologyKind};

/// The paper's baseline grid for a code with `num_data` data qubits: an `l × l` grid
/// of traps with `l = ⌈√num_data⌉`, horizontal trap-to-trap links, and a column of
/// vertical junctions between every pair of adjacent rows so ions can change rows
/// without crossing the whole grid.
///
/// `capacity` is the per-trap ion capacity (the paper's default experiments use 5).
pub fn baseline_grid(num_data: usize, capacity: usize) -> Topology {
    let l = (num_data as f64).sqrt().ceil() as usize;
    grid_with_side(l, capacity)
}

/// A baseline-style grid with an explicit side length.
pub fn grid_with_side(l: usize, capacity: usize) -> Topology {
    let l = l.max(1);
    let mut t = Topology::new(format!("baseline-grid {l}x{l}"), TopologyKind::BaselineGrid);
    // Trap grid.
    let mut trap_id = vec![vec![0 as NodeId; l]; l];
    for row in trap_id.iter_mut() {
        for slot in row.iter_mut() {
            *slot = t.add_trap(capacity);
        }
    }
    // Horizontal connections within a row go through degree-2/3 junctions so each trap
    // keeps degree <= 2: trap - junction - trap, and the same junction links vertically
    // to the junction of the row below, forming the "vertical junction columns".
    let mut junction_id = vec![vec![usize::MAX; l.saturating_sub(1)]; l];
    for (junction_row, trap_row) in junction_id.iter_mut().zip(&trap_id) {
        for (c, slot) in junction_row.iter_mut().enumerate() {
            let j = t.add_junction();
            *slot = j;
            t.add_edge(trap_row[c], j);
            t.add_edge(j, trap_row[c + 1]);
        }
    }
    // Vertical junction columns: connect junctions of adjacent rows.
    for rows in junction_id.windows(2) {
        for (&a, &b) in rows[0].iter().zip(&rows[1]) {
            t.add_edge(a, b);
        }
    }
    // Degenerate 1x1 grids have no junctions and nothing to link vertically.
    if l == 1 {
        return t;
    }
    // Also allow row hopping at the left edge via dedicated junctions so the leftmost
    // column is not isolated vertically.
    let mut prev_edge_junction: Option<NodeId> = None;
    for trap_row in &trap_id {
        let j = t.add_junction();
        t.add_edge(trap_row[0], j);
        if let Some(prev) = prev_edge_junction {
            t.add_edge(prev, j);
        }
        prev_edge_junction = Some(j);
    }
    t
}

/// The alternate grid of Fig. 4c: rows of traps joined horizontally, with L-shaped
/// (degree-2) junctions at the row ends connecting adjacent rows, so circular paths
/// exist but vertical movement is only possible at the edges.
pub fn alternate_grid(num_data: usize, capacity: usize) -> Topology {
    let l = (num_data as f64).sqrt().ceil() as usize;
    let l = l.max(1);
    let mut t = Topology::new(
        format!("alternate-grid {l}x{l}"),
        TopologyKind::AlternateGrid,
    );
    let mut trap_id = vec![vec![0 as NodeId; l]; l];
    for row in trap_id.iter_mut() {
        for slot in row.iter_mut() {
            *slot = t.add_trap(capacity);
        }
    }
    // Horizontal chains within each row (trap-junction-trap keeps trap degree <= 2).
    for trap_row in &trap_id {
        for c in 0..l - 1 {
            let j = t.add_junction();
            t.add_edge(trap_row[c], j);
            t.add_edge(j, trap_row[c + 1]);
        }
    }
    // L-junctions at alternating row ends create a serpentine loop across rows.
    for r in 0..l.saturating_sub(1) {
        let col = if r % 2 == 0 { l - 1 } else { 0 };
        let j = t.add_junction();
        t.add_edge(trap_id[r][col], j);
        t.add_edge(j, trap_id[r + 1][col]);
    }
    t
}

/// The mesh junction network of §III-C: a `side × side` grid of degree-4 junctions
/// (with `side = ⌈num_data/4⌉` capped to keep the smallest meshes sensible), and one
/// dedicated trap per data qubit attached around the perimeter.
pub fn mesh_junction_network(num_data: usize, capacity: usize) -> Topology {
    let side = (num_data as f64 / 4.0).ceil().max(1.0) as usize;
    let mut t = Topology::new(
        format!("mesh-junction {side}x{side} ({num_data} perimeter traps)"),
        TopologyKind::MeshJunction,
    );
    let mut junction_id = vec![vec![0 as NodeId; side]; side];
    for row in junction_id.iter_mut() {
        for slot in row.iter_mut() {
            *slot = t.add_junction();
        }
    }
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                t.add_edge(junction_id[r][c], junction_id[r][c + 1]);
            }
            if r + 1 < side {
                t.add_edge(junction_id[r][c], junction_id[r + 1][c]);
            }
        }
    }
    // Perimeter junctions in clockwise order.
    let mut perimeter = Vec::new();
    perimeter.extend_from_slice(&junction_id[0]);
    for row in junction_id.iter().skip(1) {
        perimeter.push(row[side - 1]);
    }
    if side > 1 {
        for c in (0..side - 1).rev() {
            perimeter.push(junction_id[side - 1][c]);
        }
        for r in (1..side - 1).rev() {
            perimeter.push(junction_id[r][0]);
        }
    }
    // Attach one trap per data qubit around the perimeter without exceeding the
    // degree-4 junction limit: each perimeter junction accepts `4 − mesh_degree`
    // traps (corners take two, edges one).
    let mut remaining = num_data;
    let mut slots: Vec<(NodeId, usize)> = perimeter
        .iter()
        .map(|&j| (j, 4usize.saturating_sub(t.degree(j))))
        .collect();
    // First pass: one trap per junction with room; later passes use leftover room.
    while remaining > 0 {
        let mut progress = false;
        for (j, room) in slots.iter_mut() {
            if remaining == 0 {
                break;
            }
            if *room > 0 {
                let trap = t.add_trap(capacity);
                t.add_edge(trap, *j);
                *room -= 1;
                remaining -= 1;
                progress = true;
            }
        }
        if !progress {
            // No junction has room left (only possible for tiny meshes); chain the
            // remaining traps off the last added trap to keep the graph connected.
            let mut anchor = t.traps().last().copied().unwrap_or(perimeter[0]);
            while remaining > 0 {
                let trap = t.add_trap(capacity);
                t.add_edge(trap, anchor);
                anchor = trap;
                remaining -= 1;
            }
        }
    }
    t
}

/// The Cyclone ring: `num_traps` traps arranged in a circle, adjacent traps joined
/// through a degree-2 (L-shaped) junction. Every trap has degree exactly 2 and every
/// junction degree exactly 2, so the layout is physically realizable and roadblock
/// free under lockstep rotation.
pub fn ring(num_traps: usize, capacity: usize) -> Topology {
    let num_traps = num_traps.max(1);
    let mut t = Topology::new(format!("ring x={num_traps}"), TopologyKind::Ring);
    let traps: Vec<NodeId> = (0..num_traps).map(|_| t.add_trap(capacity)).collect();
    if num_traps == 1 {
        return t;
    }
    for i in 0..num_traps {
        let j = t.add_junction();
        t.add_edge(traps[i], j);
        t.add_edge(j, traps[(i + 1) % num_traps]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::Bfs;

    #[test]
    fn baseline_grid_structure() {
        let t = baseline_grid(225, 5);
        // l = 15: 225 traps.
        assert_eq!(t.num_traps(), 225);
        assert!(t.is_connected());
        assert!(
            t.is_physically_realizable(),
            "traps deg<=2, junctions deg<=4"
        );
    }

    #[test]
    fn baseline_grid_small() {
        let t = baseline_grid(4, 3);
        assert_eq!(t.num_traps(), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn alternate_grid_structure() {
        let t = alternate_grid(100, 5);
        assert_eq!(t.num_traps(), 100);
        assert!(t.is_connected());
        assert!(t.is_physically_realizable());
    }

    #[test]
    fn ring_structure() {
        let t = ring(12, 8);
        assert_eq!(t.num_traps(), 12);
        assert_eq!(t.num_junctions(), 12);
        assert!(t.is_connected());
        assert!(t.is_physically_realizable());
        // Every node has degree exactly 2 on a ring.
        for id in 0..t.num_nodes() {
            assert_eq!(t.degree(id), 2);
        }
    }

    #[test]
    fn ring_distance_wraps() {
        let t = ring(8, 4);
        let traps = t.traps();
        // Adjacent traps are 2 hops apart (through the junction); opposite traps are
        // 8 hops (4 traps * 2).
        let mut bfs = Bfs::new();
        let mut path = Vec::new();
        assert!(bfs.path(&t, traps[0], traps[1], &mut path));
        assert_eq!(path.len() - 1, 2);
        assert!(bfs.path(&t, traps[0], traps[4], &mut path));
        assert_eq!(path.len() - 1, 8);
    }

    #[test]
    fn mesh_junction_counts() {
        let t = mesh_junction_network(16, 3);
        // side = 4 -> 16 junctions, 16 traps on the perimeter.
        assert_eq!(t.num_junctions(), 16);
        assert_eq!(t.num_traps(), 16);
        assert!(t.is_connected());
        assert!(t.is_physically_realizable());
    }

    #[test]
    fn fully_connected_is_unrealizable() {
        // The paper's idealized OPT layout (§III-B): six traps, every pair
        // joined directly, so each trap has degree 5 > 2.
        let mut t = Topology::new("fully connected", TopologyKind::BaselineGrid);
        let traps: Vec<NodeId> = (0..6).map(|_| t.add_trap(2)).collect();
        for (i, &a) in traps.iter().enumerate() {
            for &b in &traps[i + 1..] {
                t.add_edge(a, b);
            }
        }
        let num_edges = (0..t.num_nodes()).map(|v| t.degree(v)).sum::<usize>() / 2;
        assert_eq!(num_edges, 15);
        assert!(t.is_connected());
        assert!(!t.is_physically_realizable());
        assert_eq!(t.constraint_violations(), traps);
    }
}
