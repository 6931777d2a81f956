//! Mapping program qubits (data and ancilla) onto hardware traps.
//!
//! The baseline compiler of the paper uses a *greedy cluster mapping*: data qubits
//! that share stabilizers are placed into the same or nearby traps, and each
//! stabilizer's ancilla is placed in the trap holding the largest share of its
//! support. [`greedy_cluster_placement`] implements that policy for any topology.

use crate::hardware::{Bfs, NodeId, Topology};
use qec::{CssCode, StabKind};
use std::collections::VecDeque;

/// A program ion: either a data qubit or the ancilla of a stabilizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IonKind {
    /// Data qubit with its index in the code.
    Data(usize),
    /// Ancilla qubit measuring the given stabilizer.
    Ancilla {
        /// Stabilizer sector.
        kind: StabKind,
        /// Stabilizer index within its sector.
        index: usize,
    },
}

/// Assignment of every program ion to a home trap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Home trap of each data qubit (indexed by data-qubit id).
    pub data_trap: Vec<NodeId>,
    /// Home trap of each X-stabilizer ancilla (indexed by X-stabilizer id).
    pub x_ancilla_trap: Vec<NodeId>,
    /// Home trap of each Z-stabilizer ancilla (indexed by Z-stabilizer id).
    pub z_ancilla_trap: Vec<NodeId>,
}

impl Placement {
    /// Home trap of the ancilla measuring stabilizer (`kind`, `index`).
    pub fn ancilla_trap(&self, kind: StabKind, index: usize) -> NodeId {
        match kind {
            StabKind::X => self.x_ancilla_trap[index],
            StabKind::Z => self.z_ancilla_trap[index],
        }
    }
}

/// Orders data qubits by a breadth-first traversal of the "shares a stabilizer" graph,
/// so that consecutive qubits in the returned order interact with each other.
fn cluster_order(code: &CssCode) -> Vec<usize> {
    let n = code.num_qubits();
    // adjacency between data qubits that share any stabilizer
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for stab in code.stabilizers() {
        for (i, &a) in stab.support.iter().enumerate() {
            for &b in &stab.support[i + 1..] {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        while let Some(q) = queue.pop_front() {
            order.push(q);
            for &nb in &adjacency[q] {
                if !seen[nb] {
                    seen[nb] = true;
                    queue.push_back(nb);
                }
            }
        }
    }
    order
}

/// Greedy cluster placement (the baseline's mapping policy).
///
/// Data qubits are streamed in cluster order into the topology's traps, filling each
/// trap up to `capacity − 1` (one slot is kept free for visiting ancillas) before
/// moving to the next. Each ancilla is then placed in the trap that already holds the
/// most qubits of its stabilizer's support and still has room; if none has room, the
/// nearest trap with space is used.
///
/// # Panics
///
/// Panics if the topology's total capacity cannot hold all data and ancilla ions.
pub fn greedy_cluster_placement(code: &CssCode, topology: &Topology) -> Placement {
    let traps = topology.traps();
    assert!(!traps.is_empty(), "topology has no traps");
    let total_ions = code.num_qubits() + code.num_stabilizers();
    assert!(
        topology.total_capacity() >= total_ions,
        "topology capacity {} cannot hold {} ions",
        topology.total_capacity(),
        total_ions
    );
    // Capacity and load by node id; junctions hold nothing.
    let capacity: Vec<usize> = (0..topology.num_nodes())
        .map(|v| topology.node(v).capacity().unwrap_or(0))
        .collect();
    let mut load = vec![0usize; topology.num_nodes()];

    let order = cluster_order(code);
    let mut data_trap = vec![0 as NodeId; code.num_qubits()];
    let mut cursor = 0usize;
    for q in order {
        // Find the next trap with room (wrapping, relaxing the reserve if needed).
        let mut placed = false;
        for relax in [false, true] {
            for offset in 0..traps.len() {
                let i = (cursor + offset) % traps.len();
                let t = traps[i];
                // Reserve one slot per trap for visiting ancillas when possible.
                let reserve = usize::from(!relax && capacity[t] > 1);
                if load[t] < capacity[t] - reserve {
                    data_trap[q] = t;
                    load[t] += 1;
                    cursor = i;
                    placed = true;
                    break;
                }
            }
            if placed {
                break;
            }
        }
        assert!(placed, "failed to place data qubit {q}");
    }

    let mut bfs = Bfs::new();
    // (trap, support count) of the current stabilizer, most-shared trap first.
    let mut best: Vec<(NodeId, usize)> = Vec::new();
    let mut place_ancillas = |kind: StabKind| -> Vec<NodeId> {
        code.sector_stabilizers(kind)
            .iter()
            .map(|stab| {
                // Count support per trap: a stabilizer touches a handful of traps.
                best.clear();
                for &d in &stab.support {
                    let t = data_trap[d];
                    match best.iter_mut().find(|(u, _)| *u == t) {
                        Some((_, c)) => *c += 1,
                        None => best.push((t, 1)),
                    }
                }
                best.sort_by_key(|&(t, c)| (std::cmp::Reverse(c), t));
                let has_room = |t: NodeId| load[t] < capacity[t];
                // The most-shared trap with room; else the nearest trap (by hop
                // distance from the most-shared trap) with room, ties to the earliest
                // trap; traps it cannot reach come last, in trap order.
                let anchor = best.first().map_or(traps[0], |&(t, _)| t);
                let t = match best.iter().map(|&(t, _)| t).find(|&t| has_room(t)) {
                    Some(t) => t,
                    None if has_room(anchor) => anchor,
                    None => bfs
                        .nearest(topology, anchor, has_room)
                        .map(|(t, _)| t)
                        .or_else(|| traps.iter().copied().find(|&t| has_room(t)))
                        .expect("capacity was pre-checked"),
                };
                load[t] += 1;
                t
            })
            .collect()
    };

    let x_ancilla_trap = place_ancillas(StabKind::X);
    let z_ancilla_trap = place_ancillas(StabKind::Z);

    Placement {
        data_trap,
        x_ancilla_trap,
        z_ancilla_trap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{baseline_grid, ring};
    use qec::classical::ClassicalCode;
    use qec::hgp::square_hypergraph_product;

    /// Number of ions whose home is trap `trap`.
    fn resident_count(p: &Placement, trap: NodeId) -> usize {
        [&p.data_trap, &p.x_ancilla_trap, &p.z_ancilla_trap]
            .iter()
            .map(|homes| homes.iter().filter(|&&t| t == trap).count())
            .sum()
    }

    fn small_code() -> CssCode {
        let rep = ClassicalCode::repetition(3);
        square_hypergraph_product(&rep).expect("valid")
    }

    #[test]
    fn greedy_placement_respects_capacity() {
        let code = small_code();
        let topo = baseline_grid(code.num_qubits(), 5);
        let p = greedy_cluster_placement(&code, &topo);
        for &trap in topo.traps().iter() {
            let cap = topo.node(trap).capacity().unwrap();
            assert!(resident_count(&p, trap) <= cap, "trap {trap} over capacity");
        }
        assert_eq!(p.data_trap.len(), 13);
        assert_eq!(p.x_ancilla_trap.len(), 6);
    }

    #[test]
    fn greedy_places_ancilla_near_support() {
        let code = small_code();
        let topo = baseline_grid(code.num_qubits(), 5);
        let p = greedy_cluster_placement(&code, &topo);
        // A meaningful fraction of the ancillas should sit in a trap containing one of
        // their support qubits (clustering property). Dense packing limits how many
        // can be co-located, so require at least a quarter.
        let mut hits = 0;
        for stab in code.stabilizers() {
            let at = p.ancilla_trap(stab.kind, stab.index);
            if stab.support.iter().any(|&d| p.data_trap[d] == at) {
                hits += 1;
            }
        }
        assert!(
            hits * 4 >= code.num_stabilizers(),
            "only {hits} ancillas co-located"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn insufficient_capacity_rejected() {
        let code = small_code();
        let topo = ring(2, 3); // 6 slots for 25 ions
        let _ = greedy_cluster_placement(&code, &topo);
    }
}
