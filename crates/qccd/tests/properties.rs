//! Property-based tests of the hardware substrate: topology invariants, timing-model
//! monotonicity, and compiler sanity across random codes and layouts.

use proptest::prelude::*;
use qccd::compiler::baseline::compile_baseline;
use qccd::hardware::{Bfs, NodeId, Topology, TopologyKind};
use qccd::placement::greedy_cluster_placement;
use qccd::timing::{OperationTimes, SwapKind};
use qccd::topology::{alternate_grid, baseline_grid, grid_with_side, mesh_junction_network, ring};
use qec::classical::ClassicalCode;
use qec::hgp::hypergraph_product;
use qec::schedule::serial_schedule;
use std::collections::VecDeque;

/// An early-exit BFS written independently of [`Bfs`] (a fresh predecessor vector
/// and a `VecDeque` per call): it stops as soon as `to` is discovered.
/// [`Bfs::path`] must reproduce its path node for node.
fn reference_path(t: &Topology, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut prev = vec![usize::MAX; t.num_nodes()];
    let mut queue = VecDeque::new();
    prev[from] = from;
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for &v in t.neighbors(u) {
            if prev[v] == usize::MAX {
                prev[v] = u;
                if v == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = prev[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(v);
            }
        }
    }
    None
}

/// Hop distance from `from` to every node (`None` where unreachable), by a plain
/// search of the whole topology: the brute-force reference of [`Bfs::nearest`].
fn all_distances(t: &Topology, from: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; t.num_nodes()];
    dist[from] = Some(0);
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        let next = dist[u].map(|d| d + 1);
        for &v in t.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = next;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Hop distance between two nodes (`None` if disconnected), by [`Bfs::path`].
fn hop_distance(t: &Topology, from: NodeId, to: NodeId) -> Option<usize> {
    let mut path = Vec::new();
    Bfs::new()
        .path(t, from, to, &mut path)
        .then(|| path.len() - 1)
}

/// A SplitMix64 step: the accept sets' random bits.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of cases of [`build_topology`].
const BUILDERS: usize = 6;

/// Builder `which` (one of the five topology builders, or a complete graph of
/// traps, the densest tie-breaking case) at scale `size`.
fn build_topology(which: usize, size: usize, cap: usize) -> Topology {
    match which {
        0 => baseline_grid(size, cap),
        1 => grid_with_side(size.div_ceil(4), cap),
        2 => alternate_grid(size.max(4), cap.max(2)),
        3 => mesh_junction_network(size.max(4), cap),
        4 => ring(size, cap),
        _ => {
            let mut t = Topology::new("complete", TopologyKind::BaselineGrid);
            let traps: Vec<NodeId> = (0..size.min(24)).map(|_| t.add_trap(cap)).collect();
            for (i, &a) in traps.iter().enumerate() {
                for &b in &traps[i + 1..] {
                    t.add_edge(a, b);
                }
            }
            t
        }
    }
}

proptest! {
    // Deterministic: every case derives from this explicit seed (the workspace's
    // shared 0xC1C1_0DE5 convention), so a CI failure reproduces locally.
    #![proptest_config(ProptestConfig::with_cases(32).with_seed(0xC1C1_0DE5))]

    #[test]
    fn rings_are_connected_and_realizable(x in 1usize..80, cap in 1usize..20) {
        let t = ring(x, cap);
        prop_assert!(t.is_connected());
        prop_assert!(t.is_physically_realizable());
        prop_assert_eq!(t.num_traps(), x.max(1));
        prop_assert_eq!(t.total_capacity(), x.max(1) * cap);
    }

    #[test]
    fn grids_are_connected_and_realizable(side in 1usize..14, cap in 1usize..8) {
        let t = grid_with_side(side, cap);
        prop_assert!(t.is_connected());
        prop_assert!(t.is_physically_realizable());
        prop_assert_eq!(t.num_traps(), side.max(1) * side.max(1));
    }

    #[test]
    fn alternate_grids_are_connected(n in 4usize..150, cap in 2usize..8) {
        let t = alternate_grid(n, cap);
        prop_assert!(t.is_connected());
        prop_assert!(t.is_physically_realizable());
    }

    #[test]
    fn mesh_networks_hold_all_traps(n in 4usize..120, cap in 1usize..6) {
        let t = mesh_junction_network(n, cap);
        prop_assert!(t.is_connected());
        prop_assert_eq!(t.num_traps(), n);
        prop_assert!(t.is_physically_realizable());
    }

    #[test]
    fn shortest_paths_respect_triangle_inequality(x in 3usize..40) {
        let t = ring(x, 4);
        let traps = t.traps();
        let a = traps[0];
        let b = traps[x / 2];
        let c = traps[x / 3];
        let dab = hop_distance(&t, a, b).unwrap();
        let dbc = hop_distance(&t, b, c).unwrap();
        let dac = hop_distance(&t, a, c).unwrap();
        prop_assert!(dac <= dab + dbc);
    }

    #[test]
    fn bfs_matches_early_exit_reference(
        size in 1usize..60,
        cap in 1usize..6,
        queries in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..8),
    ) {
        // One `Bfs` answers every query below: across sizes (the larger grid first),
        // builders, and both kinds of query, so each query must ignore the marks of
        // the ones before it.
        let mut bfs = Bfs::new();
        let mut path = Vec::new();
        prop_assert!(bfs.path(&baseline_grid(64, 5), 0, 1, &mut path));
        for which in 0..BUILDERS {
            let mut t = build_topology(which, size, cap);
            // A component no query from the builder's nodes reaches.
            let island = t.add_trap(cap);
            let shore = t.add_junction();
            t.add_edge(island, shore);
            let n = t.num_nodes();
            for (k, &(a, b, bits)) in queries.iter().enumerate() {
                let (from, to) = ((a % n as u64) as usize, (b % n as u64) as usize);
                // The first query of each topology checks every destination.
                let targets = if k == 0 { 0..n } else { to..to + 1 };
                for dest in targets {
                    let want = reference_path(&t, from, dest);
                    prop_assert_eq!(bfs.path(&t, from, dest, &mut path), want.is_some());
                    prop_assert_eq!(&path, want.as_ref().unwrap_or(&Vec::new()));
                }

                // `nearest` is the minimum of (full-search distance, node id) over the
                // accepted nodes other than the source.
                let dist = all_distances(&t, from);
                let mut state = bits;
                let sparse: Vec<bool> = (0..n).map(|_| splitmix(&mut state).is_multiple_of(8)).collect();
                let dense: Vec<bool> = (0..n).map(|_| splitmix(&mut state).is_multiple_of(2)).collect();
                let sets = [vec![false; n], (0..n).map(|v| v == from).collect(), sparse, dense];
                for accept in &sets {
                    let want = (0..n)
                        .filter(|&v| v != from && accept[v])
                        .filter_map(|v| dist[v].map(|d| (d, v)))
                        .min()
                        .map(|(d, v)| (v, d));
                    prop_assert_eq!(bfs.nearest(&t, from, |v| accept[v]), want);
                }
                // An accept set that matches nothing visits the whole component.
                bfs.nearest(&t, from, |_| false);
                prop_assert_eq!(bfs.num_reached(), dist.iter().flatten().count());
            }
        }
    }

    #[test]
    fn gate_time_monotone_in_chain_length(len in 2usize..60) {
        let times = OperationTimes::default();
        prop_assert!(times.two_qubit_gate(len + 1) >= times.two_qubit_gate(len));
    }

    #[test]
    fn scaled_times_are_proportional(r in 0.0f64..0.95) {
        let t = OperationTimes::default();
        let s = t.scaled(r);
        prop_assert!((s.split - t.split * (1.0 - r)).abs() < 1e-12);
        prop_assert!((s.merge - t.merge * (1.0 - r)).abs() < 1e-12);
        prop_assert!(s.two_qubit_gate(2) <= t.two_qubit_gate(2) + 1e-12);
    }

    #[test]
    fn ion_swap_cost_monotone_in_distance(d in 1usize..30) {
        let times = OperationTimes::default().with_swap_kind(SwapKind::IonSwap);
        prop_assert!(times.swap(10, d + 1) >= times.swap(10, d));
    }

    #[test]
    fn placements_respect_capacity(seed in 0u64..30) {
        let c = ClassicalCode::gallager_ldpc(8, 3, 4, seed);
        let code = hypergraph_product(&c, &c).expect("valid");
        let topo = baseline_grid(code.num_qubits(), 5);
        let placement = greedy_cluster_placement(&code, &topo);
        let homes = [&placement.data_trap, &placement.x_ancilla_trap, &placement.z_ancilla_trap];
        for &trap in &topo.traps() {
            let cap = topo.node(trap).capacity().unwrap();
            let residents: usize = homes.iter().map(|h| h.iter().filter(|&&t| t == trap).count()).sum();
            prop_assert!(residents <= cap);
        }
    }

    #[test]
    fn baseline_compile_time_bounded_by_serialized_work(seed in 0u64..10) {
        let c = ClassicalCode::gallager_ldpc(8, 3, 4, seed);
        let code = hypergraph_product(&c, &c).expect("valid");
        let topo = baseline_grid(code.num_qubits(), 5);
        let (round, _) = compile_baseline(&code, &topo, &OperationTimes::default(), &serial_schedule(&code));
        prop_assert!(round.execution_time > 0.0);
        prop_assert!(round.execution_time <= round.breakdown.serialized_total() + 1e-9);
        prop_assert!(round.breakdown.roadblock_wait >= 0.0);
    }
}
