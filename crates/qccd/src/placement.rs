//! Mapping program qubits (data and ancilla) onto hardware traps.
//!
//! The baseline compiler of the paper uses a *greedy cluster mapping*: data qubits
//! that share stabilizers are placed into the same or nearby traps, and each
//! stabilizer's ancilla is placed in the trap holding the largest share of its
//! support. [`greedy_cluster_placement`] implements that policy for any topology;
//! [`round_robin_placement`] is the naive alternative used in ablations.

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

    /// Number of ions whose home is trap `trap`.
    pub fn resident_count(&self, trap: NodeId) -> usize {
        self.data_trap.iter().filter(|&&t| t == trap).count()
            + self.x_ancilla_trap.iter().filter(|&&t| t == trap).count()
            + self.z_ancilla_trap.iter().filter(|&&t| t == trap).count()
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
    let capacity: Vec<usize> = traps
        .iter()
        .map(|&t| topology.node(t).capacity().unwrap_or(0))
        .collect();
    let mut load = vec![0usize; traps.len()];

    // Reserve one slot per trap for visiting ancillas when possible.
    let reserve: Vec<usize> = capacity.iter().map(|&c| usize::from(c > 1)).collect();

    let order = cluster_order(code);
    let mut data_trap = vec![0 as NodeId; code.num_qubits()];
    let mut cursor = 0usize;
    for q in order {
        // Find the next trap with room (wrapping, relaxing the reserve if needed).
        let mut placed = false;
        for relax in [false, true] {
            for offset in 0..traps.len() {
                let i = (cursor + offset) % traps.len();
                let limit = if relax {
                    capacity[i]
                } else {
                    capacity[i].saturating_sub(reserve[i])
                };
                if load[i] < limit {
                    data_trap[q] = traps[i];
                    load[i] += 1;
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

    let trap_index: std::collections::HashMap<NodeId, usize> =
        traps.iter().enumerate().map(|(i, &t)| (t, i)).collect();

    let mut bfs = Bfs::new();
    let mut place_ancillas = |kind: StabKind| -> Vec<NodeId> {
        code.sector_stabilizers(kind)
            .iter()
            .map(|stab| {
                // Count support per trap.
                let mut counts: std::collections::HashMap<NodeId, usize> = Default::default();
                for &d in &stab.support {
                    *counts.entry(data_trap[d]).or_insert(0) += 1;
                }
                let mut best: Vec<(NodeId, usize)> = counts.into_iter().collect();
                best.sort_by_key(|&(t, c)| (std::cmp::Reverse(c), t));
                for (t, _) in &best {
                    let i = trap_index[t];
                    if load[i] < capacity[i] {
                        load[i] += 1;
                        return *t;
                    }
                }
                // Fall back to the nearest trap (by hop distance from the best trap)
                // with room, ties to the earliest trap.
                let anchor = best.first().map_or(traps[0], |&(t, _)| t);
                bfs.run(topology, anchor);
                let (_, i) = (0..traps.len())
                    .filter(|&i| load[i] < capacity[i])
                    .map(|i| (bfs.distance(traps[i]).unwrap_or(usize::MAX), i))
                    .min()
                    .expect("capacity was pre-checked");
                load[i] += 1;
                traps[i]
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

/// Naive round-robin placement: data qubits, then ancillas, dealt across traps in
/// index order. Used as an ablation of the mapping policy.
///
/// # Panics
///
/// Panics if the topology's total capacity cannot hold all ions.
pub fn round_robin_placement(code: &CssCode, topology: &Topology) -> Placement {
    let traps = topology.traps();
    assert!(!traps.is_empty(), "topology has no traps");
    let total_ions = code.num_qubits() + code.num_stabilizers();
    assert!(
        topology.total_capacity() >= total_ions,
        "topology capacity {} cannot hold {} ions",
        topology.total_capacity(),
        total_ions
    );
    let capacity: Vec<usize> = traps
        .iter()
        .map(|&t| topology.node(t).capacity().unwrap_or(0))
        .collect();
    let mut load = vec![0usize; traps.len()];
    let mut cursor = 0usize;
    let mut next_slot = |load: &mut Vec<usize>| -> NodeId {
        loop {
            let i = cursor % traps.len();
            cursor += 1;
            if load[i] < capacity[i] {
                load[i] += 1;
                return traps[i];
            }
        }
    };
    let data_trap: Vec<NodeId> = (0..code.num_qubits())
        .map(|_| next_slot(&mut load))
        .collect();
    let x_ancilla_trap: Vec<NodeId> = (0..code.num_x_stabilizers())
        .map(|_| next_slot(&mut load))
        .collect();
    let z_ancilla_trap: Vec<NodeId> = (0..code.num_z_stabilizers())
        .map(|_| next_slot(&mut load))
        .collect();
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
            assert!(p.resident_count(trap) <= cap, "trap {trap} over capacity");
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
    fn round_robin_covers_all_ions() {
        let code = small_code();
        let topo = ring(10, 4);
        let p = round_robin_placement(&code, &topo);
        assert_eq!(
            p.data_trap.len() + p.x_ancilla_trap.len() + p.z_ancilla_trap.len(),
            25
        );
        // Every ion's home is one of the ring's 10 traps.
        assert_eq!((0..10).map(|t| p.resident_count(t)).sum::<usize>(), 25);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn insufficient_capacity_rejected() {
        let code = small_code();
        let topo = ring(2, 3); // 6 slots for 25 ions
        let _ = greedy_cluster_placement(&code, &topo);
    }
}
