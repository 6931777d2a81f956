//! The QCCD hardware graph: traps, junctions, and shuttling paths.
//!
//! A [`Topology`] is an undirected graph whose nodes are either ion traps (with a
//! finite ion capacity) or junctions (degree ≤ 4 routing elements). Edges are
//! shuttling segments. Concrete layouts (grids, rings, meshes, …) are built in
//! [`crate::topology`]; this module provides the graph datatype, path finding, and
//! structural queries (trap/junction counts, degrees) used by the compilers and the
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

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Total ion capacity across all traps.
    pub fn total_capacity(&self) -> usize {
        self.nodes.iter().filter_map(NodeKind::capacity).sum()
    }

    /// Breadth-first shortest path (as a node sequence including both endpoints).
    ///
    /// Returns `None` when no path exists. A one-off wrapper over [`Bfs`]; callers
    /// that query repeatedly should own a [`Bfs`] and reuse its buffers.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut bfs = Bfs::new();
        bfs.run(self, from);
        let mut path = Vec::new();
        bfs.path_into(to, &mut path).then_some(path)
    }

    /// Hop distance between two nodes (`None` if disconnected). A one-off wrapper
    /// over [`Bfs`].
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let mut bfs = Bfs::new();
        bfs.run(self, from);
        bfs.distance(to)
    }

    /// Whether the graph is connected (ignoring isolated check: empty graphs count as
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut bfs = Bfs::new();
        bfs.run(self, 0);
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

/// Marks a node the last search did not reach.
const UNREACHED: usize = usize::MAX;

/// A breadth-first search from one source that records the hop distance to, and
/// the BFS-tree predecessor of, every node — the single path-finding routine of the
/// crate.
///
/// One [`Bfs::run`] answers every distance and path query from its source, so a
/// caller comparing many destinations (the rebalancer's nearest-free-trap scan, the
/// placement fallback) pays one traversal instead of one per candidate. The buffers
/// are reused across runs: a caller that owns a `Bfs` allocates only when a
/// topology with more nodes than any before is searched.
///
/// Neighbors are visited in adjacency order and every node keeps the predecessor
/// that discovered it first, so the reconstructed path is exactly the one an
/// early-exit BFS towards the same destination would return.
#[derive(Debug, Clone, Default)]
pub struct Bfs {
    /// Hop distance from the source, `UNREACHED` for unreached nodes.
    dist: Vec<usize>,
    /// BFS-tree predecessor of every reached node (the source is its own).
    prev: Vec<NodeId>,
    /// Reached nodes in discovery order; doubles as the FIFO queue.
    order: Vec<NodeId>,
}

impl Bfs {
    /// Empty search buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Searches `topology` from `from`, replacing the previous run's results.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a node of `topology`.
    // cyclone-lint: hot-path
    pub fn run(&mut self, topology: &Topology, from: NodeId) {
        let n = topology.num_nodes();
        assert!(from < n, "source node {from} out of range");
        self.dist.clear();
        self.dist.resize(n, UNREACHED);
        self.prev.clear();
        self.prev.resize(n, UNREACHED);
        self.order.clear();
        self.dist[from] = 0;
        self.prev[from] = from;
        self.order.push(from);
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            let next = self.dist[u] + 1;
            for &v in topology.neighbors(u) {
                if self.dist[v] == UNREACHED {
                    self.dist[v] = next;
                    self.prev[v] = u;
                    self.order.push(v);
                }
            }
        }
    }

    /// Hop distance from the last source to `to` (`None` if unreachable).
    pub fn distance(&self, to: NodeId) -> Option<usize> {
        Some(self.dist[to]).filter(|&d| d != UNREACHED)
    }

    /// Overwrites `path` with the shortest path from the last source to `to`, both
    /// endpoints included. Returns false (leaving `path` empty) when `to` is
    /// unreachable.
    pub fn path_into(&self, to: NodeId, path: &mut Vec<NodeId>) -> bool {
        path.clear();
        if self.dist[to] == UNREACHED {
            return false;
        }
        let mut cur = to;
        path.push(cur);
        while self.prev[cur] != cur {
            cur = self.prev[cur];
            path.push(cur);
        }
        path.reverse();
        true
    }
    // cyclone-lint: end-hot-path

    /// Number of nodes the last run reached, its source included.
    pub fn num_reached(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.total_capacity(), 12);
    }

    #[test]
    fn shortest_path_on_line() {
        let t = line_of_traps(5);
        let p = t.shortest_path(0, 4).expect("connected");
        assert_eq!(p, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.distance(0, 4), Some(4));
        assert_eq!(t.distance(2, 2), Some(0));
    }

    #[test]
    fn one_search_answers_every_destination() {
        let mut t = line_of_traps(4);
        let lonely = t.add_trap(4);
        let mut bfs = Bfs::new();
        bfs.run(&t, 1);
        assert_eq!(bfs.num_reached(), 4);
        assert_eq!(
            (0..5).map(|v| bfs.distance(v)).collect::<Vec<_>>(),
            vec![Some(1), Some(0), Some(1), Some(2), None]
        );
        let mut path = vec![99];
        assert!(bfs.path_into(3, &mut path));
        assert_eq!(path, vec![1, 2, 3]);
        assert!(!bfs.path_into(lonely, &mut path));
        assert!(path.is_empty());
        // Reusing the buffers on a smaller graph forgets the larger one.
        bfs.run(&line_of_traps(2), 0);
        assert_eq!(bfs.num_reached(), 2);
        assert_eq!(bfs.distance(1), Some(1));
    }

    #[test]
    fn disconnected_graph() {
        let mut t = line_of_traps(2);
        let lonely = t.add_trap(4);
        assert!(!t.is_connected());
        assert_eq!(t.shortest_path(0, lonely), None);
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
