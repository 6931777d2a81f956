//! The QCCD hardware graph: traps, junctions, and shuttling paths.
//!
//! A [`Topology`] is an undirected graph whose nodes are either ion traps (with a
//! finite ion capacity) or junctions (degree ≤ 4 routing elements). Edges are
//! shuttling segments. Concrete layouts (grids, rings, meshes, …) are built in
//! [`crate::topology`]; this module provides the graph datatype, the routing
//! queries of [`Bfs`] (shortest path, nearest accepted node), and structural
//! queries (trap/junction counts, degrees) used by the compilers and the
//! spatial-cost analysis.

/// Index of a node (trap or junction) in a [`Topology`].
pub type NodeId = usize;

/// What a topology node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An ion trap able to hold up to `capacity` ions and execute one gate at a time.
    Trap {
        /// Maximum number of ions the trap can hold.
        capacity: usize,
    },
    /// A junction: a routing element ions can cross but not sit in.
    Junction,
}

impl NodeKind {
    /// Returns true for trap nodes.
    pub fn is_trap(&self) -> bool {
        matches!(self, NodeKind::Trap { .. })
    }

    /// Returns the trap capacity, or `None` for junctions.
    pub fn capacity(&self) -> Option<usize> {
        match self {
            NodeKind::Trap { capacity } => Some(*capacity),
            NodeKind::Junction => None,
        }
    }
}

/// Named class of layout, used for reporting and to pick compiler specializations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// The paper's baseline: a square grid of traps with vertical junction columns.
    BaselineGrid,
    /// The alternate grid with alternating horizontal/vertical meshes and L-junctions.
    AlternateGrid,
    /// A dense mesh of degree-4 junctions giving effective all-to-all connectivity.
    MeshJunction,
    /// A ring of traps connected through L-shaped (degree-2) junctions — Cyclone.
    Ring,
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TopologyKind::BaselineGrid => "baseline-grid",
            TopologyKind::AlternateGrid => "alternate-grid",
            TopologyKind::MeshJunction => "mesh-junction",
            TopologyKind::Ring => "ring",
        };
        write!(f, "{s}")
    }
}

/// The hardware connectivity graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    name: String,
    kind: TopologyKind,
    nodes: Vec<NodeKind>,
    adjacency: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Creates an empty topology of the given kind.
    pub fn new(name: impl Into<String>, kind: TopologyKind) -> Self {
        Topology {
            name: name.into(),
            kind,
            nodes: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    /// The topology's descriptive name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layout class.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Adds a trap with the given ion capacity, returning its node id.
    pub fn add_trap(&mut self, capacity: usize) -> NodeId {
        self.nodes.push(NodeKind::Trap { capacity });
        self.adjacency.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a junction, returning its node id.
    pub fn add_junction(&mut self) -> NodeId {
        self.nodes.push(NodeKind::Junction);
        self.adjacency.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds an undirected shuttling segment between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range or if the edge already exists.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert!(
            a < self.nodes.len() && b < self.nodes.len(),
            "node id out of range"
        );
        assert!(a != b, "self loops are not allowed");
        assert!(!self.adjacency[a].contains(&b), "duplicate edge {a}-{b}");
        self.adjacency[a].push(b);
        self.adjacency[b].push(a);
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeKind {
        self.nodes[id]
    }

    /// Neighbors of node `id`.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.adjacency[id]
    }

    /// Degree (number of incident shuttling segments) of node `id`.
    pub fn degree(&self, id: NodeId) -> usize {
        self.adjacency[id].len()
    }

    /// Ids of all trap nodes, in insertion order.
    pub fn traps(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_trap())
            .collect()
    }

    /// Ids of all junction nodes, in insertion order.
    pub fn junctions(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].is_trap())
            .collect()
    }

    /// Number of traps.
    pub fn num_traps(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_trap()).count()
    }

    /// Number of junctions.
    pub fn num_junctions(&self) -> usize {
        self.nodes.len() - self.num_traps()
    }

    /// Total ion capacity across all traps.
    pub fn total_capacity(&self) -> usize {
        self.nodes.iter().filter_map(NodeKind::capacity).sum()
    }

    /// Whether the graph is connected (empty graphs count as connected).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        // A nearest-node query that accepts nothing visits the whole component.
        let mut bfs = Bfs::new();
        bfs.nearest(self, 0, |_| false);
        bfs.num_reached() == self.nodes.len()
    }

    /// Validates the paper's structural constraints: traps have degree ≤ 2 and
    /// junctions have degree ≤ 4. Returns a list of violating node ids (empty when
    /// the topology is physically realizable).
    pub fn constraint_violations(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| match self.nodes[i] {
                NodeKind::Trap { .. } => self.degree(i) > 2,
                NodeKind::Junction => self.degree(i) > 4,
            })
            .collect()
    }

    /// True when the topology satisfies the trap-degree and junction-degree limits.
    pub fn is_physically_realizable(&self) -> bool {
        self.constraint_violations().is_empty()
    }
}

/// Breadth-first search buffers answering the crate's two routing queries, each
/// of which stops as soon as it has its answer:
///
/// * [`Bfs::path`] — the shortest path between two nodes (every shuttle);
/// * [`Bfs::nearest`] — the nearest node, other than the source, that a
///   predicate accepts (the rebalancer's free trap, the placement fallback).
///
/// Neighbors are visited in adjacency order and every node keeps the predecessor
/// that discovered it first, so a query returns exactly what a search of the whole
/// topology followed by a lookup would. The buffers are reused across queries and
/// no result outlives its query: a visited mark is an epoch stamp, so starting a
/// query costs nothing per node and a query costs the nodes it visits, not the
/// size of the topology. A caller that owns a `Bfs` allocates only when a topology
/// with more nodes than any before is searched.
#[derive(Debug, Clone, Default)]
pub struct Bfs {
    /// Epoch of the query that last visited each node.
    seen: Vec<u32>,
    /// The current query's epoch; never 0, the mark of a node no query visited.
    epoch: u32,
    /// BFS-tree predecessor of every node the current query visited.
    prev: Vec<NodeId>,
    /// Visited nodes in discovery order; doubles as the FIFO queue.
    order: Vec<NodeId>,
}

impl Bfs {
    /// Empty search buffers.
    pub fn new() -> Self {
        Self::default()
    }

    // cyclone-lint: hot-path
    /// Starts a query from `from`: a fresh epoch, and `from` as the only visited
    /// node. The marks are cleared only when the epoch counter wraps.
    fn start(&mut self, topology: &Topology, from: NodeId) {
        let n = topology.num_nodes();
        assert!(from < n, "source node {from} out of range");
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.prev.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.order.clear();
        self.seen[from] = self.epoch;
        self.prev[from] = from;
        self.order.push(from);
    }

    /// Overwrites `path` with the shortest path from `from` to `to`, both endpoints
    /// included, searching only until `to` is discovered. Returns false (leaving
    /// `path` empty) when `to` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is not a node of `topology`.
    pub fn path(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        path: &mut Vec<NodeId>,
    ) -> bool {
        path.clear();
        assert!(to < topology.num_nodes(), "target node {to} out of range");
        self.start(topology, from);
        if from == to {
            path.push(from);
            return true;
        }
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            for &v in topology.neighbors(u) {
                if self.seen[v] == self.epoch {
                    continue;
                }
                self.seen[v] = self.epoch;
                self.prev[v] = u;
                if v == to {
                    let mut cur = to;
                    path.push(cur);
                    while cur != from {
                        cur = self.prev[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return true;
                }
                self.order.push(v);
            }
        }
        false
    }

    /// The node nearest to `from`, other than `from`, that `accept` accepts, with
    /// its hop distance; `None` when no reachable node is accepted.
    ///
    /// The search expands one distance layer at a time and stops after the first
    /// layer holding an accepted node; ties within that layer go to the lowest
    /// node id, i.e. the node earliest in topology order.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a node of `topology`.
    pub fn nearest(
        &mut self,
        topology: &Topology,
        from: NodeId,
        mut accept: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, usize)> {
        self.start(topology, from);
        // The current distance layer is `order[begin..end]`.
        let (mut begin, mut end) = (0, 1);
        let mut dist = 0;
        while begin < end {
            for i in begin..end {
                let u = self.order[i];
                for &v in topology.neighbors(u) {
                    if self.seen[v] != self.epoch {
                        self.seen[v] = self.epoch;
                        self.order.push(v);
                    }
                }
            }
            dist += 1;
            (begin, end) = (end, self.order.len());
            let best = self.order[begin..end]
                .iter()
                .copied()
                .filter(|&v| accept(v))
                .min();
            if let Some(v) = best {
                return Some((v, dist));
            }
        }
        None
    }
    // cyclone-lint: end-hot-path

    /// Number of nodes the last query queued, its source included (a `path` query
    /// never queues its target). After a `nearest` that accepts nothing, this is
    /// the size of the source's component.
    pub fn num_reached(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hop distance between two nodes (`None` if disconnected).
    fn hop_distance(topology: &Topology, from: NodeId, to: NodeId) -> Option<usize> {
        let mut path = Vec::new();
        Bfs::new()
            .path(topology, from, to, &mut path)
            .then(|| path.len() - 1)
    }

    fn line_of_traps(n: usize) -> Topology {
        let mut t = Topology::new("line", TopologyKind::Ring);
        let ids: Vec<_> = (0..n).map(|_| t.add_trap(4)).collect();
        for w in ids.windows(2) {
            t.add_edge(w[0], w[1]);
        }
        t
    }

    #[test]
    fn counts() {
        let mut t = line_of_traps(3);
        let j = t.add_junction();
        t.add_edge(2, j);
        assert_eq!(t.num_traps(), 3);
        assert_eq!(t.num_junctions(), 1);
        assert_eq!(t.total_capacity(), 12);
    }

    #[test]
    fn shortest_path_on_line() {
        let t = line_of_traps(5);
        let mut bfs = Bfs::new();
        let mut path = vec![99];
        assert!(bfs.path(&t, 0, 4, &mut path));
        assert_eq!(path, vec![0, 1, 2, 3, 4]);
        assert!(bfs.path(&t, 2, 2, &mut path));
        assert_eq!(path, vec![2]);
        assert_eq!(hop_distance(&t, 3, 1), Some(2));
    }

    #[test]
    fn path_stops_at_its_target() {
        let t = line_of_traps(6);
        let mut bfs = Bfs::new();
        let mut path = Vec::new();
        assert!(bfs.path(&t, 0, 2, &mut path));
        assert_eq!(path, vec![0, 1, 2]);
        // Node 2 is found while node 1 is expanded; only nodes 0 and 1 were queued.
        assert_eq!(bfs.num_reached(), 2);
    }

    #[test]
    fn nearest_takes_the_lowest_id_of_the_first_accepted_layer() {
        // 0 - 1 - 2 - 3 - 4, plus 5 hanging off 0: layer 1 from 0 is {1, 5}.
        let mut t = line_of_traps(5);
        let five = t.add_trap(4);
        t.add_edge(0, five);
        let mut bfs = Bfs::new();
        assert_eq!(bfs.nearest(&t, 0, |v| v == 5 || v == 1), Some((1, 1)));
        assert_eq!(bfs.nearest(&t, 0, |v| v >= 3), Some((5, 1)));
        assert_eq!(bfs.nearest(&t, 0, |v| v == 3 || v == 4), Some((3, 3)));
        // The source itself is never an answer.
        assert_eq!(bfs.nearest(&t, 2, |v| v == 2), None);
        assert_eq!(bfs.nearest(&t, 2, |_| false), None);
        assert_eq!(bfs.num_reached(), 6);
    }

    #[test]
    fn epochs_forget_the_previous_query() {
        let mut t = line_of_traps(4);
        let lonely = t.add_trap(4);
        let mut bfs = Bfs::new();
        let mut path = Vec::new();
        assert!(!bfs.path(&t, 1, lonely, &mut path));
        assert!(path.is_empty());
        assert_eq!(bfs.num_reached(), 4);
        assert!(bfs.path(&t, 3, 0, &mut path));
        assert_eq!(path, vec![3, 2, 1, 0]);
        // Reusing the buffers on a smaller graph forgets the larger one.
        let small = line_of_traps(2);
        assert_eq!(bfs.nearest(&small, 0, |_| true), Some((1, 1)));
        assert!(bfs.path(&small, 1, 0, &mut path));
        assert_eq!(path, vec![1, 0]);
    }

    #[test]
    fn epoch_wrap_clears_the_marks() {
        let t = line_of_traps(3);
        let mut bfs = Bfs::new();
        let mut path = Vec::new();
        assert!(bfs.path(&t, 0, 2, &mut path));
        // The next query starts at the wrapped epoch; stale marks must not hide
        // any node from it.
        bfs.epoch = u32::MAX;
        bfs.seen.fill(1);
        assert!(bfs.path(&t, 0, 2, &mut path));
        assert_eq!(path, vec![0, 1, 2]);
        assert_eq!(bfs.epoch, 1);
    }

    #[test]
    fn disconnected_graph() {
        let mut t = line_of_traps(2);
        let lonely = t.add_trap(4);
        assert!(!t.is_connected());
        assert_eq!(hop_distance(&t, 0, lonely), None);
    }
    #[test]
    fn constraint_violations_detected() {
        let mut t = Topology::new("star", TopologyKind::BaselineGrid);
        let hub = t.add_trap(4);
        for _ in 0..3 {
            let leaf = t.add_trap(4);
            t.add_edge(hub, leaf);
        }
        assert_eq!(t.constraint_violations(), vec![hub]);
        assert!(!t.is_physically_realizable());
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let mut t = line_of_traps(2);
        t.add_edge(0, 1);
    }

    #[test]
    fn connected_empty_and_singleton() {
        let t = Topology::new("empty", TopologyKind::Ring);
        assert!(t.is_connected());
        let mut s = Topology::new("one", TopologyKind::Ring);
        s.add_trap(10);
        assert!(s.is_connected());
    }
}
