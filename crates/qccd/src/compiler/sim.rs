//! Discrete-event shuttling simulator.
//!
//! [`ShuttleSim`] tracks, for one round of syndrome extraction:
//!
//! * where every ion currently is (`trap` per ion),
//! * until when every trap and junction is busy,
//! * the time spent in each operation category,
//! * roadblock waits (time spent blocked on a busy trap or junction),
//! * rebalances triggered when a merge would exceed a trap's capacity.
//!
//! A compiler drives the simulator by calling [`ShuttleSim::execute_gate`] for each
//! entangling gate with the earliest time the gate *could* start (its data-dependency
//! ready time); the simulator returns the completion time after accounting for
//! shuttling, congestion, and intra-trap serialization. Gates in different traps with
//! disjoint routes overlap freely — this is exactly the "high inter-trap, low
//! intra-trap parallelism" model of §II-B.

use crate::compiler::ComponentTimes;
use crate::hardware::{Bfs, NodeId, NodeKind, Topology};
use crate::placement::Placement;
use crate::timing::OperationTimes;
use qec::{CssCode, StabKind};

/// Per-qubit idle exposure of one compiled syndrome-extraction round.
///
/// For every ion the simulator tracks *busy* time — time spent under an active
/// operation whose errors the base circuit-level rates already account for
/// (entangling gates for data qubits and ancillas; measurement + re-preparation
/// for ancillas). Everything else — sitting parked while other traps gate,
/// waiting out roadblocks, and being shuttled — is **idle exposure**: time the
/// qubit decoheres under the Pauli-twirled idling channel. The uniform noise
/// model charges every qubit the whole round (`horizon`); this profile is the
/// per-qubit refinement `noise::ErrorChannel::from_schedule` consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleExposure {
    /// Idle exposure of each data qubit, seconds.
    pub data: Vec<f64>,
    /// Idle exposure of each X-sector ancilla, seconds.
    pub x_ancilla: Vec<f64>,
    /// Idle exposure of each Z-sector ancilla, seconds.
    pub z_ancilla: Vec<f64>,
    /// Wall-clock execution time of the round, seconds (every exposure is
    /// `<= horizon`).
    pub horizon: f64,
}

impl IdleExposure {
    /// The uniform fallback: every qubit exposed for the whole round — exactly
    /// what the scalar noise model assumes. Used for codesigns that cannot
    /// produce a per-qubit profile.
    pub fn uniform(horizon: f64, num_data: usize, num_x: usize, num_z: usize) -> Self {
        IdleExposure {
            data: vec![horizon; num_data],
            x_ancilla: vec![horizon; num_x],
            z_ancilla: vec![horizon; num_z],
            horizon,
        }
    }

    /// The ancilla exposures in measurement-check order (X-sector checks then
    /// Z-sector), the layout `noise::ErrorChannel` expects for measurement flip
    /// rates.
    pub fn measurement_order(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.x_ancilla.len() + self.z_ancilla.len());
        out.extend_from_slice(&self.x_ancilla);
        out.extend_from_slice(&self.z_ancilla);
        out
    }
}

/// Identifier of an ion inside the simulator.
///
/// Data qubits occupy `0..n`; X ancillas `n..n+mx`; Z ancillas `n+mx..n+mx+mz`.
pub type IonId = usize;

/// The discrete-event state of one compilation run.
#[derive(Debug, Clone)]
pub struct ShuttleSim<'a> {
    topology: &'a Topology,
    times: &'a OperationTimes,
    /// Trap node ids in topology order — the rebalancer's candidate order.
    traps: Vec<NodeId>,
    /// Search buffers reused by every shuttle and rebalance.
    bfs: Bfs,
    /// The current shuttle's path, reused across shuttles.
    path: Vec<NodeId>,
    num_data: usize,
    num_x: usize,
    /// Current trap of every ion.
    ion_trap: Vec<NodeId>,
    /// Ions currently resident in each node (traps only; junctions stay empty).
    occupancy: Vec<Vec<IonId>>,
    /// Earliest time each trap is free.
    trap_free: Vec<f64>,
    /// Earliest time each junction is free.
    junction_free: Vec<f64>,
    /// Time each ion has spent under active operations (gates; measurement for
    /// ancillas) — the complement of its idle exposure.
    ion_busy: Vec<f64>,
    breakdown: ComponentTimes,
    num_shuttles: usize,
    num_rebalances: usize,
    roadblock_events: usize,
    /// Completion time of the latest event.
    horizon: f64,
}

impl<'a> ShuttleSim<'a> {
    /// Creates a simulator with every ion at its home trap from `placement`.
    pub fn new(
        code: &CssCode,
        topology: &'a Topology,
        placement: &Placement,
        times: &'a OperationTimes,
    ) -> Self {
        let num_nodes = topology.num_nodes();
        let num_data = code.num_qubits();
        let num_x = code.num_x_stabilizers();
        let num_z = code.num_z_stabilizers();
        let mut ion_trap = Vec::with_capacity(num_data + num_x + num_z);
        ion_trap.extend(placement.data_trap.iter().copied());
        ion_trap.extend(placement.x_ancilla_trap.iter().copied());
        ion_trap.extend(placement.z_ancilla_trap.iter().copied());
        let mut occupancy = vec![Vec::new(); num_nodes];
        for (ion, &trap) in ion_trap.iter().enumerate() {
            occupancy[trap].push(ion);
        }
        let num_ions = ion_trap.len();
        ShuttleSim {
            topology,
            times,
            traps: topology.traps(),
            bfs: Bfs::new(),
            path: Vec::new(),
            num_data,
            num_x,
            ion_trap,
            occupancy,
            trap_free: vec![0.0; num_nodes],
            junction_free: vec![0.0; num_nodes],
            ion_busy: vec![0.0; num_ions],
            breakdown: ComponentTimes::default(),
            num_shuttles: 0,
            num_rebalances: 0,
            roadblock_events: 0,
            horizon: 0.0,
        }
    }

    /// The simulator ion id of a data qubit.
    pub fn data_ion(&self, qubit: usize) -> IonId {
        qubit
    }

    /// The simulator ion id of the ancilla measuring stabilizer (`kind`, `index`).
    pub fn ancilla_ion(&self, kind: StabKind, index: usize) -> IonId {
        match kind {
            StabKind::X => self.num_data + index,
            StabKind::Z => self.num_data + self.num_x + index,
        }
    }

    /// Number of ions: data qubits, then X ancillas, then Z ancillas.
    pub fn num_ions(&self) -> usize {
        self.ion_trap.len()
    }

    /// Latest completion time seen so far.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Accumulated component breakdown.
    pub fn breakdown(&self) -> ComponentTimes {
        self.breakdown
    }

    /// Number of inter-trap shuttles performed.
    pub fn num_shuttles(&self) -> usize {
        self.num_shuttles
    }

    /// Number of rebalances performed.
    pub fn num_rebalances(&self) -> usize {
        self.num_rebalances
    }

    /// Number of distinct waits on busy resources.
    pub fn roadblock_events(&self) -> usize {
        self.roadblock_events
    }

    fn chain_len(&self, trap: NodeId) -> usize {
        self.occupancy[trap].len().max(2)
    }

    fn trap_capacity(&self, trap: NodeId) -> usize {
        match self.topology.node(trap) {
            NodeKind::Trap { capacity } => capacity,
            NodeKind::Junction => 0,
        }
    }

    fn wait_for_trap(&mut self, trap: NodeId, now: f64) -> f64 {
        let free = self.trap_free[trap];
        if free > now {
            self.breakdown.roadblock_wait += free - now;
            self.roadblock_events += 1;
            free
        } else {
            now
        }
    }

    fn wait_for_junction(&mut self, junction: NodeId, now: f64) -> f64 {
        let free = self.junction_free[junction];
        if free > now {
            self.breakdown.roadblock_wait += free - now;
            self.roadblock_events += 1;
            free
        } else {
            now
        }
    }

    /// Moves `ion` from its current trap to `target` along the shortest path, charging
    /// split/move/junction/merge/swap costs and waiting on busy resources.
    ///
    /// Returns the arrival (merge-complete) time.
    ///
    /// # Panics
    ///
    /// Panics if no path exists between the two traps.
    // cyclone-lint: hot-path
    pub fn shuttle_ion(&mut self, ion: IonId, target: NodeId, ready: f64) -> f64 {
        let source = self.ion_trap[ion];
        if source == target {
            return ready;
        }
        self.bfs.run(self.topology, source);
        if !self.bfs.path_into(target, &mut self.path) {
            panic!("no shuttling path between {source} and {target}");
        }
        self.num_shuttles += 1;

        // Split out of the source trap (the trap is busy for the split).
        let mut t = self.wait_for_trap(source, ready);
        t += self.times.split;
        self.breakdown.split += self.times.split;
        self.trap_free[source] = self.trap_free[source].max(t);
        self.occupancy[source].retain(|&i| i != ion);

        // Traverse intermediate nodes.
        for k in 1..self.path.len() - 1 {
            let node = self.path[k];
            // Move along the connecting segment.
            t += self.times.shuttle_move;
            self.breakdown.shuttle_move += self.times.shuttle_move;
            match self.topology.node(node) {
                NodeKind::Junction => {
                    t = self.wait_for_junction(node, t);
                    let cross = self.times.junction_crossing(self.topology.degree(node));
                    self.junction_free[node] = t + cross;
                    t += cross;
                    self.breakdown.junction += cross;
                }
                NodeKind::Trap { .. } => {
                    // Passing *through* an occupied trap: the classic trap roadblock.
                    t = self.wait_for_trap(node, t);
                    let chain = self.chain_len(node);
                    let pass = self.times.merge
                        + self.times.swap(chain, (chain / 2).max(1))
                        + self.times.split;
                    self.trap_free[node] = t + pass;
                    t += pass;
                    self.breakdown.merge += self.times.merge;
                    self.breakdown.swap += self.times.swap(chain, (chain / 2).max(1));
                    self.breakdown.split += self.times.split;
                }
            }
        }

        // Final segment into the target trap.
        t += self.times.shuttle_move;
        self.breakdown.shuttle_move += self.times.shuttle_move;
        t = self.wait_for_trap(target, t);

        // Capacity check: rebalance if the merge would overflow the trap.
        if self.occupancy[target].len() >= self.trap_capacity(target) {
            t = self.rebalance(target, t);
        }

        // Merge into the target trap and reorder.
        let chain = self.chain_len(target) + 1;
        let merge_and_position = self.times.merge + self.times.swap(chain, (chain / 2).max(1));
        self.breakdown.merge += self.times.merge;
        self.breakdown.swap += self.times.swap(chain, (chain / 2).max(1));
        t += merge_and_position;
        self.trap_free[target] = t;
        self.occupancy[target].push(ion);
        self.ion_trap[ion] = target;
        self.horizon = self.horizon.max(t);
        t
    }

    /// Evicts one resident ion from the full `trap` (the incoming ion has not merged
    /// yet, so it is never the victim) to the nearest other trap with room, charging
    /// the cost to the rebalance category. Distance ties go to the trap earliest in
    /// topology order. Returns the time both traps are free again.
    fn rebalance(&mut self, trap: NodeId, now: f64) -> f64 {
        // Choose a victim: prefer an ancilla that is idle, otherwise any resident.
        let victim = match self.occupancy[trap]
            .iter()
            .copied()
            .find(|&i| i >= self.num_data)
        {
            Some(v) => v,
            None => match self.occupancy[trap].first().copied() {
                Some(v) => v,
                None => return now,
            },
        };
        // Find the nearest trap with room: one search answers every candidate.
        self.bfs.run(self.topology, trap);
        let mut best: Option<(usize, NodeId)> = None;
        for &cand in &self.traps {
            if cand == trap || self.occupancy[cand].len() >= self.trap_capacity(cand) {
                continue;
            }
            if let Some(d) = self.bfs.distance(cand) {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, cand));
                }
            }
        }
        let Some((dist, dest)) = best else {
            // Nowhere to rebalance to: allow the overflow but record the event.
            self.num_rebalances += 1;
            return now;
        };
        self.num_rebalances += 1;
        // Simplified rebalance: split + dist moves + merge, blocking both traps.
        let cost = self.times.split + dist as f64 * self.times.shuttle_move + self.times.merge;
        self.breakdown.rebalance += cost;
        let t = now + cost;
        self.trap_free[trap] = self.trap_free[trap].max(t);
        self.trap_free[dest] = self.trap_free[dest].max(t);
        self.occupancy[trap].retain(|&i| i != victim);
        self.occupancy[dest].push(victim);
        self.ion_trap[victim] = dest;
        self.horizon = self.horizon.max(t);
        t
    }

    /// Executes one entangling gate between the ancilla of stabilizer (`kind`,
    /// `stab_index`) and data qubit `data`, starting no earlier than `ready`.
    ///
    /// If the two ions sit in different traps, the ancilla is shuttled to the data
    /// qubit's trap first. Returns the completion time of the gate.
    pub fn execute_gate(
        &mut self,
        kind: StabKind,
        stab_index: usize,
        data: usize,
        ready: f64,
    ) -> f64 {
        let ancilla = self.ancilla_ion(kind, stab_index);
        let data_ion = self.data_ion(data);
        let target = self.ion_trap[data_ion];
        let arrive = if self.ion_trap[ancilla] == target {
            ready
        } else {
            self.shuttle_ion(ancilla, target, ready)
        };
        let start = self.wait_for_trap(target, arrive);
        let dur = self.times.two_qubit_gate(self.chain_len(target));
        self.breakdown.gate += dur;
        self.ion_busy[ancilla] += dur;
        self.ion_busy[data_ion] += dur;
        let end = start + dur;
        self.trap_free[target] = end;
        self.horizon = self.horizon.max(end);
        end
    }
    // cyclone-lint: end-hot-path

    /// Measures, in ion order (X ancillas ascending, then Z ancillas ascending),
    /// every ancilla with a ready time in `ready` (indexed by ion id; `None` skips
    /// the ion). A fixed order keeps the float breakdown sums bit-identical.
    pub fn measure_ancillas(&mut self, ready: &[Option<f64>]) {
        for (ancilla, &ready) in ready.iter().enumerate().skip(self.num_data) {
            if let Some(ready) = ready {
                self.measure_ion(ancilla, ready);
            }
        }
    }

    fn measure_ion(&mut self, ancilla: IonId, ready: f64) -> f64 {
        let trap = self.ion_trap[ancilla];
        let start = self.wait_for_trap(trap, ready);
        let dur = self.times.measurement + self.times.preparation;
        self.breakdown.measurement += dur;
        self.ion_busy[ancilla] += dur;
        let end = start + dur;
        self.trap_free[trap] = end;
        self.horizon = self.horizon.max(end);
        end
    }

    /// The per-qubit idle exposure accumulated so far: `horizon` minus each ion's
    /// busy time (clamped at zero — an ion gated right up to the horizon has no
    /// exposure left). Shuttling and roadblock waits count as exposure: the ion
    /// decoheres in transit exactly as it does parked.
    pub fn idle_exposure(&self) -> IdleExposure {
        let horizon = self.horizon;
        let idle_of = |ion: IonId| (horizon - self.ion_busy[ion]).max(0.0);
        let num_z = self.ion_busy.len() - self.num_data - self.num_x;
        IdleExposure {
            data: (0..self.num_data).map(idle_of).collect(),
            x_ancilla: (0..self.num_x)
                .map(|i| idle_of(self.num_data + i))
                .collect(),
            z_ancilla: (0..num_z)
                .map(|i| idle_of(self.num_data + self.num_x + i))
                .collect(),
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::TopologyKind;
    use crate::placement::greedy_cluster_placement;
    use crate::topology::{baseline_grid, ring};
    use qec::classical::ClassicalCode;
    use qec::hgp::square_hypergraph_product;

    fn setup() -> (CssCode, Topology, OperationTimes) {
        let rep = ClassicalCode::repetition(3);
        let code = square_hypergraph_product(&rep).expect("valid");
        let topo = baseline_grid(code.num_qubits(), 5);
        (code, topo, OperationTimes::default())
    }

    #[test]
    fn same_trap_gate_has_no_shuttle() {
        let (code, topo, times) = setup();
        let placement = greedy_cluster_placement(&code, &topo);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        // Find a stabilizer whose ancilla shares a trap with one of its data qubits.
        let stab = code
            .stabilizers()
            .into_iter()
            .find(|s| {
                let at = placement.ancilla_trap(s.kind, s.index);
                s.support.iter().any(|&d| placement.data_trap[d] == at)
            })
            .expect("clustering co-locates at least one pair");
        let data = *stab
            .support
            .iter()
            .find(|&&d| placement.data_trap[d] == placement.ancilla_trap(stab.kind, stab.index))
            .unwrap();
        let end = sim.execute_gate(stab.kind, stab.index, data, 0.0);
        assert_eq!(sim.num_shuttles(), 0);
        assert!(
            end > 0.0 && end < 1e-3,
            "a single gate takes tens of microseconds"
        );
    }

    #[test]
    fn cross_trap_gate_shuttles() {
        let (code, topo, times) = setup();
        let placement = greedy_cluster_placement(&code, &topo);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        // Find a pair in different traps.
        let stab = code
            .stabilizers()
            .into_iter()
            .find(|s| {
                let at = placement.ancilla_trap(s.kind, s.index);
                s.support.iter().any(|&d| placement.data_trap[d] != at)
            })
            .expect("some pair crosses traps");
        let data = *stab
            .support
            .iter()
            .find(|&&d| placement.data_trap[d] != placement.ancilla_trap(stab.kind, stab.index))
            .unwrap();
        let end = sim.execute_gate(stab.kind, stab.index, data, 0.0);
        assert_eq!(sim.num_shuttles(), 1);
        // Must include at least split + merge + gate.
        assert!(end >= times.split + times.merge + times.gate_base);
        // The ancilla now lives in the data trap.
        let anc = sim.ancilla_ion(stab.kind, stab.index);
        assert_eq!(sim.ion_trap[anc], placement.data_trap[data]);
    }

    #[test]
    fn contention_serializes_same_trap_gates() {
        let (code, topo, times) = setup();
        let placement = greedy_cluster_placement(&code, &topo);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        // Two gates targeting data qubits in the same trap cannot overlap.
        let mut by_trap: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        for (q, &t) in placement.data_trap.iter().enumerate() {
            by_trap.entry(t).or_default().push(q);
        }
        let (_, qs) = by_trap
            .into_iter()
            .find(|(_, v)| v.len() >= 2)
            .expect("clustered placement");
        let stab_of = |q: usize| {
            code.stabilizers()
                .into_iter()
                .find(|s| s.support.contains(&q))
                .expect("every qubit is checked")
        };
        let s0 = stab_of(qs[0]);
        let s1 = stab_of(qs[1]);
        let e0 = sim.execute_gate(s0.kind, s0.index, qs[0], 0.0);
        let e1 = sim.execute_gate(s1.kind, s1.index, qs[1], 0.0);
        assert!(
            e1 > e0 || (e0 - e1).abs() > 1e-12,
            "gates in one trap serialize"
        );
    }

    #[test]
    fn measurement_advances_horizon() {
        let (code, topo, times) = setup();
        let placement = greedy_cluster_placement(&code, &topo);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        let end = sim.measure_ion(sim.ancilla_ion(StabKind::X, 0), 0.0);
        assert!(end >= times.measurement);
        assert_eq!(sim.horizon(), end);
    }

    #[test]
    fn idle_exposure_tracks_busy_time() {
        let (code, topo, times) = setup();
        let placement = greedy_cluster_placement(&code, &topo);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        // Before any event everything is at the zero horizon with zero exposure.
        let fresh = sim.idle_exposure();
        assert_eq!(fresh.horizon, 0.0);
        assert!(fresh.data.iter().all(|&t| t == 0.0));

        // One gate: the two participating ions are busy for the gate duration,
        // everyone else idles for the whole (new) horizon.
        let stab = code
            .stabilizers()
            .into_iter()
            .next()
            .expect("stabilizers exist");
        let data = stab.support[0];
        let end = sim.execute_gate(stab.kind, stab.index, data, 0.0);
        let exposure = sim.idle_exposure();
        assert_eq!(exposure.horizon, end);
        assert!(
            exposure.data[data] < end,
            "gated qubit must have less exposure than the horizon"
        );
        let untouched = (0..code.num_qubits())
            .find(|&q| q != data && !stab.support.contains(&q))
            .expect("other qubits exist");
        assert_eq!(
            exposure.data[untouched], end,
            "idle qubit is exposed for the whole round"
        );
        // Sector vectors have one entry per stabilizer.
        assert_eq!(exposure.x_ancilla.len(), code.num_x_stabilizers());
        assert_eq!(exposure.z_ancilla.len(), code.num_z_stabilizers());
        // Measurement order concatenates X then Z.
        let flat = exposure.measurement_order();
        assert_eq!(flat.len(), code.num_stabilizers());
        assert_eq!(flat[0], exposure.x_ancilla[0]);
    }

    #[test]
    fn measurement_reduces_ancilla_exposure() {
        let (code, topo, times) = setup();
        let placement = greedy_cluster_placement(&code, &topo);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        let end = sim.measure_ion(sim.ancilla_ion(StabKind::X, 0), 0.0);
        let exposure = sim.idle_exposure();
        assert_eq!(
            exposure.x_ancilla[0], 0.0,
            "the measured ancilla was busy the whole horizon"
        );
        assert_eq!(exposure.z_ancilla[0], end);
    }

    #[test]
    fn exposures_never_exceed_the_horizon() {
        let (code, topo, times) = setup();
        let placement = greedy_cluster_placement(&code, &topo);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        for stab in code.stabilizers() {
            for &d in &stab.support {
                sim.execute_gate(stab.kind, stab.index, d, 0.0);
            }
            sim.measure_ion(sim.ancilla_ion(stab.kind, stab.index), sim.horizon());
        }
        let exposure = sim.idle_exposure();
        for t in exposure
            .data
            .iter()
            .chain(&exposure.x_ancilla)
            .chain(&exposure.z_ancilla)
        {
            assert!(
                (0.0..=exposure.horizon).contains(t),
                "exposure {t} out of range"
            );
        }
    }

    #[test]
    fn uniform_fallback_exposes_everything_for_the_horizon() {
        let e = IdleExposure::uniform(0.25, 3, 2, 1);
        assert_eq!(e.data, vec![0.25; 3]);
        assert_eq!(e.measurement_order(), vec![0.25; 3]);
        assert_eq!(e.horizon, 0.25);
    }

    /// A full trap (node 0, every ion of the 13-qubit code at home there) wired to
    /// one empty trap per `via` entry through that many junctions. Edges are added
    /// in reverse entry order, so the search reaches later traps first.
    fn full_trap_sim_topology(via: &[usize]) -> Topology {
        let mut t = Topology::new("rebalance", TopologyKind::BaselineGrid);
        let full = t.add_trap(25);
        let traps: Vec<NodeId> = via.iter().map(|_| t.add_trap(5)).collect();
        for (&trap, &junctions) in traps.iter().zip(via).rev() {
            let mut at = full;
            for _ in 0..junctions {
                let j = t.add_junction();
                t.add_edge(at, j);
                at = j;
            }
            t.add_edge(at, trap);
        }
        t
    }

    fn everything_in_trap_zero(code: &CssCode) -> Placement {
        Placement {
            data_trap: vec![0; code.num_qubits()],
            x_ancilla_trap: vec![0; code.num_x_stabilizers()],
            z_ancilla_trap: vec![0; code.num_z_stabilizers()],
        }
    }

    #[test]
    fn rebalance_ties_go_to_the_earlier_trap() {
        let (code, _, times) = setup();
        // Traps 1 and 2 are both one hop away; the search discovers trap 2 first,
        // but trap order decides the tie.
        let topo = full_trap_sim_topology(&[0, 0]);
        let placement = everything_in_trap_zero(&code);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        let victim = sim.ancilla_ion(StabKind::X, 0);
        let t = sim.rebalance(0, 0.0);
        assert_eq!(sim.ion_trap[victim], 1);
        assert_eq!(sim.num_rebalances(), 1);
        assert_eq!(t, times.split + times.shuttle_move + times.merge);
    }

    #[test]
    fn rebalance_prefers_the_nearer_trap_over_trap_order() {
        let (code, _, times) = setup();
        // Trap 1 sits behind a junction (two hops), trap 2 is adjacent.
        let topo = full_trap_sim_topology(&[1, 0]);
        let placement = everything_in_trap_zero(&code);
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        let victim = sim.ancilla_ion(StabKind::X, 0);
        sim.rebalance(0, 0.0);
        assert_eq!(sim.ion_trap[victim], 2);
    }

    #[test]
    fn ring_shuttle_distance_costs_more() {
        let rep = ClassicalCode::repetition(3);
        let code = square_hypergraph_product(&rep).expect("valid");
        let topo = ring(6, 6);
        let placement = greedy_cluster_placement(&code, &topo);
        let times = OperationTimes::default();
        let mut sim = ShuttleSim::new(&code, &topo, &placement, &times);
        let traps = topo.traps();
        let anc = sim.ancilla_ion(StabKind::X, 0);
        let start_trap = sim.ion_trap[anc];
        // Move to the adjacent trap and then to the opposite side; the long move takes
        // strictly longer.
        let near = traps
            .iter()
            .copied()
            .find(|&t| topo.distance(start_trap, t) == Some(2))
            .unwrap();
        let t_near = sim.shuttle_ion(anc, near, 0.0);
        let far = traps
            .iter()
            .copied()
            .max_by_key(|&t| topo.distance(near, t).unwrap_or(0))
            .unwrap();
        let t_far = sim.shuttle_ion(anc, far, t_near) - t_near;
        assert!(t_far > t_near);
    }
}
