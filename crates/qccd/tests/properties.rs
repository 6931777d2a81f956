//! Property-based tests of the hardware substrate: topology invariants, timing-model
//! monotonicity, and compiler sanity across random codes and layouts.

use proptest::prelude::*;
use qccd::compiler::baseline::compile_baseline;
use qccd::hardware::{Bfs, NodeId, Topology};
use qccd::placement::{greedy_cluster_placement, round_robin_placement};
use qccd::timing::{OperationTimes, SwapKind};
use qccd::topology::{
    alternate_grid, baseline_grid, fully_connected, grid_with_side, mesh_junction_network,
    pseudo_opt, ring, single_trap,
};
use qec::classical::ClassicalCode;
use qec::hgp::hypergraph_product;
use qec::schedule::serial_schedule;
use std::collections::VecDeque;

/// The early-exit BFS `Topology::shortest_path` used before path finding moved to
/// the single-source [`Bfs`]: stops as soon as `to` is discovered. Kept as the
/// reference the production routine must reproduce node for node.
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

/// Builder `which` (one of the eight topology builders) at scale `size`.
fn build_topology(which: usize, size: usize, cap: usize) -> Topology {
    match which {
        0 => baseline_grid(size, cap),
        1 => grid_with_side(size.div_ceil(4), cap),
        2 => alternate_grid(size.max(4), cap.max(2)),
        3 => mesh_junction_network(size.max(4), cap),
        4 => ring(size, cap),
        5 => fully_connected(size.min(24), cap),
        6 => {
            let c = ClassicalCode::gallager_ldpc(8, 3, 4, size as u64);
            pseudo_opt(&hypergraph_product(&c, &c).expect("valid"), cap)
        }
        _ => single_trap(size),
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
        let dab = t.distance(a, b).unwrap();
        let dbc = t.distance(b, c).unwrap();
        let dac = t.distance(a, c).unwrap();
        prop_assert!(dac <= dab + dbc);
    }

    #[test]
    fn bfs_matches_early_exit_reference(
        which in 0usize..8,
        size in 1usize..60,
        cap in 1usize..6,
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..12),
    ) {
        let t = build_topology(which, size, cap);
        let n = t.num_nodes() as u64;
        // Searching a larger topology first exercises buffer reuse across sizes.
        let mut bfs = Bfs::new();
        bfs.run(&baseline_grid(64, 5), 0);
        let mut path = Vec::new();
        for (a, b) in pairs {
            let (from, to) = ((a % n) as usize, (b % n) as usize);
            let want = reference_path(&t, from, to);
            prop_assert_eq!(t.shortest_path(from, to), want.clone());
            prop_assert_eq!(t.distance(from, to), want.as_ref().map(|p| p.len() - 1));
            // One search from `from` answers every destination exactly as the
            // early-exit reference does.
            bfs.run(&t, from);
            for dest in 0..t.num_nodes() {
                let want = reference_path(&t, from, dest);
                prop_assert_eq!(bfs.path_into(dest, &mut path), want.is_some());
                prop_assert_eq!(&path, want.as_ref().unwrap_or(&Vec::new()));
                prop_assert_eq!(bfs.distance(dest), want.map(|p| p.len() - 1));
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
        for placement in [
            greedy_cluster_placement(&code, &topo),
            round_robin_placement(&code, &topo),
        ] {
            for &trap in &topo.traps() {
                let cap = topo.node(trap).capacity().unwrap();
                prop_assert!(placement.resident_count(trap) <= cap);
            }
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
