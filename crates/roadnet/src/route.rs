//! Shortest-path routing over the road network.
//!
//! The generator routes every object from a spawn node to a destination
//! node; the resulting node sequence is exactly the piecewise-linear
//! trajectory of the paper's motion model, and each intermediate node is the
//! object's `cnloc` while it travels toward it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::network::{NetworkError, NodeId, RoadNetwork, RoadSegment};

/// Which edge weight the router minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMetric {
    /// Minimise total euclidean length.
    Distance,
    /// Minimise total free-flow travel time (drivers prefer highways even
    /// when geometrically longer — this is the default and produces the
    /// highway-convoy behaviour that makes clustering effective).
    TravelTime,
}

impl RouteMetric {
    #[inline]
    fn weight(&self, seg: &RoadSegment) -> f64 {
        match self {
            RouteMetric::Distance => seg.length,
            RouteMetric::TravelTime => seg.travel_time(),
        }
    }
}

/// A computed route: the node sequence from origin to destination.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Visited connection nodes, origin first, destination last.
    /// Always contains at least one node (origin == destination).
    pub nodes: Vec<NodeId>,
    /// Total cost under the metric the route was computed with.
    pub cost: f64,
    /// Total euclidean length in spatial units.
    pub length: f64,
}

impl Route {
    /// Destination node.
    #[inline]
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("route has at least one node")
    }
}

/// Max-heap entry ordered by *smallest* cost (reverse ordering).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the cheapest first.
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("route costs are finite")
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra router with reusable scratch buffers.
///
/// # Examples
///
/// ```
/// use scuba_roadnet::{CityConfig, RouteMetric, Router, SyntheticCity};
/// use scuba_spatial::Point;
///
/// let city = SyntheticCity::build(CityConfig::small());
/// let from = city.network.nearest_node(&Point::new(0.0, 0.0)).unwrap();
/// let to = city.network.nearest_node(&Point::new(1000.0, 1000.0)).unwrap();
///
/// let mut router = Router::new(&city.network);
/// let route = router.route(from, to, RouteMetric::TravelTime).unwrap().unwrap();
/// assert_eq!(route.nodes[0], from);
/// assert_eq!(route.destination(), to);
/// // No route is shorter than the straight line between its ends.
/// let start = city.network.position(from).unwrap();
/// let end = city.network.position(to).unwrap();
/// assert!(route.length >= start.distance(end));
/// ```
///
/// The generator computes tens of thousands of routes at workload-setup
/// time; reusing the distance/parent arrays across calls keeps that phase
/// allocation-free after the first route.
#[derive(Debug)]
pub struct Router<'a> {
    net: &'a RoadNetwork,
    dist: Vec<f64>,
    parent: Vec<Option<NodeId>>,
    visited_epoch: Vec<u32>,
    epoch: u32,
}

impl<'a> Router<'a> {
    /// Creates a router over `net`.
    pub fn new(net: &'a RoadNetwork) -> Self {
        let n = net.node_count();
        Router {
            net,
            dist: vec![f64::INFINITY; n],
            parent: vec![None; n],
            visited_epoch: vec![0; n],
            epoch: 0,
        }
    }

    /// Computes the cheapest route from `from` to `to` under `metric`.
    ///
    /// Returns `Err(UnknownNode)` for out-of-range ids and `Ok(None)` when
    /// the destination is unreachable.
    pub fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        metric: RouteMetric,
    ) -> Result<Option<Route>, NetworkError> {
        let n = self.net.node_count();
        if from.0 as usize >= n {
            return Err(NetworkError::UnknownNode(from));
        }
        if to.0 as usize >= n {
            return Err(NetworkError::UnknownNode(to));
        }

        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: reset the lazily-versioned arrays.
            self.visited_epoch.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;

        self.touch(from, 0.0, None);
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            cost: 0.0,
            node: from,
        });

        while let Some(HeapEntry { cost, node }) = heap.pop() {
            if node == to {
                return Ok(Some(self.build_route(from, to, cost)));
            }
            if cost > self.dist[node.0 as usize] {
                continue; // stale entry
            }
            for (next, seg) in self.net.neighbors(node) {
                let next_cost = cost + metric.weight(seg);
                let idx = next.0 as usize;
                let known = if self.visited_epoch[idx] == epoch {
                    self.dist[idx]
                } else {
                    f64::INFINITY
                };
                if next_cost < known {
                    self.touch(next, next_cost, Some(node));
                    heap.push(HeapEntry {
                        cost: next_cost,
                        node: next,
                    });
                }
            }
        }
        Ok(None)
    }

    #[inline]
    fn touch(&mut self, node: NodeId, cost: f64, parent: Option<NodeId>) {
        let idx = node.0 as usize;
        self.dist[idx] = cost;
        self.parent[idx] = parent;
        self.visited_epoch[idx] = self.epoch;
    }

    fn build_route(&self, from: NodeId, to: NodeId, cost: f64) -> Route {
        let mut nodes = vec![to];
        let mut cur = to;
        while cur != from {
            cur = self.parent[cur.0 as usize].expect("parent chain reaches origin");
            nodes.push(cur);
        }
        nodes.reverse();
        let length = nodes
            .windows(2)
            .map(|w| {
                let a = self.net.position(w[0]).expect("route node exists");
                let b = self.net.position(w[1]).expect("route node exists");
                a.distance(b)
            })
            .sum();
        Route {
            nodes,
            cost,
            length,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoadClass;
    use scuba_spatial::Point;

    /// A 2x2 block grid:
    ///
    /// ```text
    ///   6 -- 7 -- 8      nodes at (0|50|100, 0|50|100)
    ///   |    |    |
    ///   3 -- 4 -- 5
    ///   |    |    |
    ///   0 -- 1 -- 2
    /// ```
    fn grid() -> RoadNetwork {
        let mut net = RoadNetwork::new();
        for y in 0..3 {
            for x in 0..3 {
                net.add_node(Point::new(x as f64 * 50.0, y as f64 * 50.0));
            }
        }
        let id = |x: u32, y: u32| NodeId(y * 3 + x);
        for y in 0..3 {
            for x in 0..3 {
                if x < 2 {
                    net.add_edge(id(x, y), id(x + 1, y), RoadClass::Local)
                        .unwrap();
                }
                if y < 2 {
                    net.add_edge(id(x, y), id(x, y + 1), RoadClass::Local)
                        .unwrap();
                }
            }
        }
        net
    }

    #[test]
    fn trivial_route_is_single_node() {
        let net = grid();
        let mut router = Router::new(&net);
        let r = router
            .route(NodeId(4), NodeId(4), RouteMetric::Distance)
            .unwrap()
            .unwrap();
        assert_eq!(r.nodes, vec![NodeId(4)]);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn manhattan_distance_on_grid() {
        let net = grid();
        let mut router = Router::new(&net);
        let r = router
            .route(NodeId(0), NodeId(8), RouteMetric::Distance)
            .unwrap()
            .unwrap();
        assert_eq!(r.cost, 200.0); // 4 legs of 50
        assert_eq!(r.length, 200.0);
        assert_eq!(r.nodes.len(), 5, "4 legs");
        assert_eq!(r.nodes[0], NodeId(0));
        assert_eq!(r.destination(), NodeId(8));
        // Path is monotone: consecutive nodes are grid neighbours.
        for w in r.nodes.windows(2) {
            let a = net.position(w[0]).unwrap();
            let b = net.position(w[1]).unwrap();
            assert_eq!(a.distance(b), 50.0);
        }
    }

    #[test]
    fn travel_time_prefers_highway_detour() {
        // Straight local road 0->1 (100 units @15) vs detour over highway
        // nodes 0->2->3->1 (300 units @60): detour is faster.
        let mut net = RoadNetwork::new();
        let n0 = net.add_node(Point::new(0.0, 0.0));
        let n1 = net.add_node(Point::new(100.0, 0.0));
        let n2 = net.add_node(Point::new(0.0, 100.0));
        let n3 = net.add_node(Point::new(100.0, 100.0));
        net.add_edge(n0, n1, RoadClass::Local).unwrap();
        net.add_edge(n0, n2, RoadClass::Highway).unwrap();
        net.add_edge(n2, n3, RoadClass::Highway).unwrap();
        net.add_edge(n3, n1, RoadClass::Highway).unwrap();

        let mut router = Router::new(&net);
        let by_dist = router
            .route(n0, n1, RouteMetric::Distance)
            .unwrap()
            .unwrap();
        assert_eq!(by_dist.nodes, vec![n0, n1]);

        let by_time = router
            .route(n0, n1, RouteMetric::TravelTime)
            .unwrap()
            .unwrap();
        assert_eq!(by_time.nodes, vec![n0, n2, n3, n1]);
        assert!((by_time.cost - 300.0 / 60.0).abs() < 1e-12);
        assert_eq!(by_time.length, 300.0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut net = grid();
        let island = net.add_node(Point::new(999.0, 999.0));
        let mut router = Router::new(&net);
        assert_eq!(
            router
                .route(NodeId(0), island, RouteMetric::Distance)
                .unwrap(),
            None
        );
    }

    #[test]
    fn unknown_node_is_error() {
        let net = grid();
        let mut router = Router::new(&net);
        assert!(router
            .route(NodeId(0), NodeId(1000), RouteMetric::Distance)
            .is_err());
        assert!(router
            .route(NodeId(1000), NodeId(0), RouteMetric::Distance)
            .is_err());
    }

    #[test]
    fn router_is_reusable_across_queries() {
        let net = grid();
        let mut router = Router::new(&net);
        for _ in 0..3 {
            let a = router
                .route(NodeId(0), NodeId(8), RouteMetric::Distance)
                .unwrap()
                .unwrap();
            let b = router
                .route(NodeId(8), NodeId(0), RouteMetric::Distance)
                .unwrap()
                .unwrap();
            assert_eq!(a.cost, b.cost);
        }
    }

    #[test]
    fn route_cost_matches_recomputed_weights() {
        let net = grid();
        let mut router = Router::new(&net);
        let r = router
            .route(NodeId(2), NodeId(6), RouteMetric::TravelTime)
            .unwrap()
            .unwrap();
        // 4 legs of 50 units at Local speed (15): cost = 200/15.
        assert!((r.cost - 200.0 / 15.0).abs() < 1e-9);
    }
}
