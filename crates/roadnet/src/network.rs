//! The road-network graph: connection nodes and road segments.

use scuba_spatial::{Point, Rect};

/// Identifier of a connection node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a road segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// Functional class of a road, determining its free-flow speed.
///
/// Paper §3.1: "moving objects can reach relatively high speeds on the
/// larger roads (e.g., highways), where connection nodes would be far apart
/// from each other. On the smaller roads, speed limit … constrains the
/// maximum speed". The three classes below give the generator that
/// heterogeneity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Limited-access high-speed road; connection nodes far apart.
    Highway,
    /// Major urban road.
    Arterial,
    /// Residential / downtown street.
    Local,
}

impl RoadClass {
    /// Free-flow speed in spatial units per time unit.
    ///
    /// Scaled so that with the default Θ_S = 10 (speed threshold) objects on
    /// the same class are clusterable while classes differ by more than Θ_S.
    #[inline]
    pub(crate) fn speed_limit(&self) -> f64 {
        match self {
            RoadClass::Highway => 60.0,
            RoadClass::Arterial => 30.0,
            RoadClass::Local => 15.0,
        }
    }

    /// All classes, for iteration in tests and generators.
    pub const ALL: [RoadClass; 3] = [RoadClass::Highway, RoadClass::Arterial, RoadClass::Local];

    /// Short stable token used by the text export.
    pub fn token(&self) -> &'static str {
        match self {
            RoadClass::Highway => "H",
            RoadClass::Arterial => "A",
            RoadClass::Local => "L",
        }
    }
}

/// A bidirectional road segment between two connection nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadSegment {
    /// Segment id.
    pub id: EdgeId,
    /// One endpoint.
    pub from: NodeId,
    /// The other endpoint.
    pub to: NodeId,
    /// Functional class.
    pub class: RoadClass,
    /// Cached euclidean length between the endpoints.
    pub length: f64,
}

impl RoadSegment {
    /// Travel time at the class speed limit, in time units.
    #[inline]
    pub fn travel_time(&self) -> f64 {
        self.length / self.class.speed_limit()
    }

    /// The endpoint opposite to `node`, or `None` if `node` is not an
    /// endpoint.
    #[inline]
    fn opposite(&self, node: NodeId) -> Option<NodeId> {
        if node == self.from {
            Some(self.to)
        } else if node == self.to {
            Some(self.from)
        } else {
            None
        }
    }
}

/// Errors raised while constructing or querying a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// An edge referenced a node id that does not exist.
    UnknownNode(NodeId),
    /// An edge connected a node to itself.
    SelfLoop(NodeId),
    /// An operation required a non-empty network.
    Empty,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::UnknownNode(n) => write!(f, "unknown node id {}", n.0),
            NetworkError::SelfLoop(n) => write!(f, "self-loop at node {}", n.0),
            NetworkError::Empty => write!(f, "operation requires a non-empty network"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The road network: nodes, segments, adjacency.
///
/// Construction is additive (`add_node` / `add_edge`); the structure is
/// immutable once handed to the generator ("we assume that … the network is
/// stable", paper §2).
#[derive(Debug, Clone, Default)]
pub struct RoadNetwork {
    positions: Vec<Point>,
    edges: Vec<RoadSegment>,
    adjacency: Vec<Vec<EdgeId>>,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a connection node at `pos`, returning its id.
    pub fn add_node(&mut self, pos: Point) -> NodeId {
        let id = NodeId(self.positions.len() as u32);
        self.positions.push(pos);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds a bidirectional segment between two existing nodes.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: RoadClass,
    ) -> Result<EdgeId, NetworkError> {
        if from == to {
            return Err(NetworkError::SelfLoop(from));
        }
        let pa = *self.position(from).ok_or(NetworkError::UnknownNode(from))?;
        let pb = *self.position(to).ok_or(NetworkError::UnknownNode(to))?;
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(RoadSegment {
            id,
            from,
            to,
            class,
            length: pa.distance(&pb),
        });
        self.adjacency[from.0 as usize].push(id);
        self.adjacency[to.0 as usize].push(id);
        Ok(id)
    }

    /// Number of connection nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of road segments.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the network has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    #[inline]
    pub fn position(&self, node: NodeId) -> Option<&Point> {
        self.positions.get(node.0 as usize)
    }

    /// A segment by id.
    #[inline]
    pub fn edge(&self, edge: EdgeId) -> Option<&RoadSegment> {
        self.edges.get(edge.0 as usize)
    }

    /// Segments incident to `node`.
    #[inline]
    fn incident_edges(&self, node: NodeId) -> &[EdgeId] {
        self.adjacency
            .get(node.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Node degree.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.incident_edges(node).len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Iterates over all segments.
    pub fn edges(&self) -> impl Iterator<Item = &RoadSegment> + '_ {
        self.edges.iter()
    }

    /// Neighbour nodes of `node` with the connecting edge.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, &RoadSegment)> + '_ {
        self.incident_edges(node).iter().filter_map(move |&eid| {
            let seg = &self.edges[eid.0 as usize];
            seg.opposite(node).map(|n| (n, seg))
        })
    }

    /// Bounding rectangle over all node positions.
    pub fn extent(&self) -> Result<Rect, NetworkError> {
        let mut iter = self.positions.iter();
        let first = iter.next().ok_or(NetworkError::Empty)?;
        let mut rect = Rect::from_corners(*first, *first);
        for p in iter {
            rect = rect.union(&Rect::from_corners(*p, *p));
        }
        Ok(rect)
    }

    /// The node closest to `p` (linear scan — used only at workload-setup
    /// time, never on the per-update hot path).
    pub fn nearest_node(&self, p: &Point) -> Result<NodeId, NetworkError> {
        self.positions
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.distance_sq(p)
                    .partial_cmp(&b.distance_sq(p))
                    .expect("positions are finite")
            })
            .map(|(i, _)| NodeId(i as u32))
            .ok_or(NetworkError::Empty)
    }

    /// Checks that the network is connected (every node reachable from node
    /// 0 over undirected segments). The synthetic city guarantees this; an
    /// imported map may not.
    pub fn is_connected(&self) -> bool {
        if self.positions.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.positions.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(node) = stack.pop() {
            for (next, _) in self.neighbors(node) {
                let i = next.0 as usize;
                if !seen[i] {
                    seen[i] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.positions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (RoadNetwork, [NodeId; 3]) {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(10.0, 0.0));
        let c = net.add_node(Point::new(0.0, 10.0));
        net.add_edge(a, b, RoadClass::Arterial).unwrap();
        net.add_edge(b, c, RoadClass::Local).unwrap();
        net.add_edge(c, a, RoadClass::Highway).unwrap();
        (net, [a, b, c])
    }

    #[test]
    fn build_and_count() {
        let (net, _) = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn edge_lengths_cached() {
        let (net, [a, b, _]) = triangle();
        let e = net
            .edges()
            .find(|e| e.from == a && e.to == b)
            .expect("edge a-b");
        assert_eq!(e.length, 10.0);
    }

    #[test]
    fn self_loop_rejected() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::ORIGIN);
        assert_eq!(
            net.add_edge(a, a, RoadClass::Local),
            Err(NetworkError::SelfLoop(a))
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::ORIGIN);
        let ghost = NodeId(99);
        assert_eq!(
            net.add_edge(a, ghost, RoadClass::Local),
            Err(NetworkError::UnknownNode(ghost))
        );
    }

    #[test]
    fn adjacency_is_bidirectional() {
        let (net, [a, b, c]) = triangle();
        for n in [a, b, c] {
            assert_eq!(net.degree(n), 2);
        }
        let neighbors_of_a: Vec<NodeId> = net.neighbors(a).map(|(n, _)| n).collect();
        assert!(neighbors_of_a.contains(&b));
        assert!(neighbors_of_a.contains(&c));
    }

    #[test]
    fn opposite_endpoint() {
        let (net, [a, b, _]) = triangle();
        let e = net.edge(EdgeId(0)).unwrap();
        assert_eq!(e.opposite(a), Some(b));
        assert_eq!(e.opposite(b), Some(a));
        assert_eq!(e.opposite(NodeId(42)), None);
    }

    #[test]
    fn extent_covers_all_nodes() {
        let (net, _) = triangle();
        let ext = net.extent().unwrap();
        assert_eq!(
            ext,
            Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0))
        );
        assert_eq!(RoadNetwork::new().extent(), Err(NetworkError::Empty));
    }

    #[test]
    fn nearest_node_picks_closest() {
        let (net, [a, b, c]) = triangle();
        assert_eq!(net.nearest_node(&Point::new(1.0, 1.0)).unwrap(), a);
        assert_eq!(net.nearest_node(&Point::new(9.0, 1.0)).unwrap(), b);
        assert_eq!(net.nearest_node(&Point::new(1.0, 9.0)).unwrap(), c);
        assert!(RoadNetwork::new().nearest_node(&Point::ORIGIN).is_err());
    }

    #[test]
    fn connectivity() {
        let (mut net, _) = triangle();
        assert!(net.is_connected());
        net.add_node(Point::new(100.0, 100.0)); // isolated
        assert!(!net.is_connected());
        assert!(RoadNetwork::new().is_connected());
    }

    #[test]
    fn class_speeds_are_distinct_and_ordered() {
        assert!(RoadClass::Highway.speed_limit() > RoadClass::Arterial.speed_limit());
        assert!(RoadClass::Arterial.speed_limit() > RoadClass::Local.speed_limit());
    }

    #[test]
    fn class_tokens_are_distinct() {
        let tokens: std::collections::BTreeSet<_> =
            RoadClass::ALL.iter().map(RoadClass::token).collect();
        assert_eq!(tokens.len(), RoadClass::ALL.len());
    }

    #[test]
    fn travel_time_uses_speed_limit() {
        let (net, _) = triangle();
        let e = net.edge(EdgeId(0)).unwrap(); // 10 units, arterial (30/tu)
        assert!((e.travel_time() - 10.0 / 30.0).abs() < 1e-12);
    }
}
