//! Property-based tests for the road-network substrate.

use scuba_roadnet::{
    CityConfig, NodeId, RoadClass, RoadNetwork, RouteMetric, Router, SyntheticCity,
};
use scuba_spatial::Point;
use scuba_testkit::{check, vec, Xoshiro256};

/// Cases per property.
const CASES: u32 = 48;

/// A random connected network: a spanning chain plus random extra edges.
fn network(rng: &mut Xoshiro256) -> RoadNetwork {
    let points = vec(rng, 2..30, |r| {
        (r.gen_range(0.0..1000.0), r.gen_range(0.0..1000.0))
    });
    let extra_edges = vec(rng, 0..40, |r| {
        (
            r.next_u64() as u16,
            r.next_u64() as u16,
            r.gen_range(0..3usize),
        )
    });
    let mut net = RoadNetwork::new();
    let ids: Vec<NodeId> = points
        .iter()
        .map(|&(x, y)| net.add_node(Point::new(x, y)))
        .collect();
    // Spanning chain keeps it connected.
    for w in ids.windows(2) {
        let _ = net.add_edge(w[0], w[1], RoadClass::Local);
    }
    for (a, b, class) in extra_edges {
        let a = ids[a as usize % ids.len()];
        let b = ids[b as usize % ids.len()];
        if a != b {
            let _ = net.add_edge(a, b, RoadClass::ALL[class]);
        }
    }
    net
}

/// A network and two of its nodes picked by one random `u64`.
fn network_and_nodes(rng: &mut Xoshiro256) -> (RoadNetwork, NodeId, NodeId) {
    let net = network(rng);
    let seed = rng.next_u64();
    let n = net.node_count() as u64;
    let from = NodeId((seed % n) as u32);
    let to = NodeId(((seed / n) % n) as u32);
    (net, from, to)
}

#[test]
fn chain_networks_are_connected() {
    check("chain_networks_are_connected", CASES, |rng| {
        assert!(network(rng).is_connected());
    });
}

#[test]
fn adjacency_is_symmetric() {
    check("adjacency_is_symmetric", CASES, |rng| {
        let net = network(rng);
        for node in net.node_ids() {
            for (neighbor, seg) in net.neighbors(node) {
                assert!(
                    net.neighbors(neighbor)
                        .any(|(n, s)| n == node && s.id == seg.id),
                    "edge {:?} not symmetric",
                    seg.id
                );
            }
        }
    });
}

#[test]
fn edge_lengths_match_endpoint_distance() {
    check("edge_lengths_match_endpoint_distance", CASES, |rng| {
        let net = network(rng);
        for e in net.edges() {
            let a = net.position(e.from).unwrap();
            let b = net.position(e.to).unwrap();
            assert!((e.length - a.distance(b)).abs() < 1e-9);
        }
    });
}

#[test]
fn routes_exist_between_all_pairs() {
    check("routes_exist_between_all_pairs", CASES, |rng| {
        let (net, from, to) = network_and_nodes(rng);
        let mut router = Router::new(&net);
        let route = router.route(from, to, RouteMetric::Distance).unwrap();
        assert!(route.is_some(), "connected network must route");
    });
}

#[test]
fn route_is_a_valid_walk() {
    check("route_is_a_valid_walk", CASES, |rng| {
        let (net, from, to) = network_and_nodes(rng);
        let mut router = Router::new(&net);
        let route = router
            .route(from, to, RouteMetric::TravelTime)
            .unwrap()
            .unwrap();
        assert_eq!(route.nodes[0], from);
        assert_eq!(route.destination(), to);
        for w in route.nodes.windows(2) {
            assert!(
                net.neighbors(w[0]).any(|(next, _)| next == w[1]),
                "route hop {:?}->{:?} is not an edge",
                w[0],
                w[1]
            );
        }
    });
}

#[test]
fn route_cost_is_optimal_vs_direct_edges() {
    check("route_cost_is_optimal_vs_direct_edges", CASES, |rng| {
        // The routed distance between adjacent nodes never exceeds the
        // cheapest direct edge.
        let (net, from, _) = network_and_nodes(rng);
        let mut router = Router::new(&net);
        for (next, seg) in net.neighbors(from).collect::<Vec<_>>() {
            let route = router
                .route(from, next, RouteMetric::Distance)
                .unwrap()
                .unwrap();
            assert!(route.cost <= seg.length + 1e-9);
        }
    });
}

#[test]
fn route_costs_are_symmetric() {
    check("route_costs_are_symmetric", CASES, |rng| {
        // Undirected network ⇒ cheapest cost is direction-independent.
        let (net, from, to) = network_and_nodes(rng);
        let mut router = Router::new(&net);
        let fwd = router
            .route(from, to, RouteMetric::TravelTime)
            .unwrap()
            .unwrap();
        let back = router
            .route(to, from, RouteMetric::TravelTime)
            .unwrap()
            .unwrap();
        assert!((fwd.cost - back.cost).abs() < 1e-6);
    });
}

#[test]
fn nearest_node_is_truly_nearest() {
    check("nearest_node_is_truly_nearest", CASES, |rng| {
        let net = network(rng);
        let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
        let nearest = net.nearest_node(&p).unwrap();
        let d = net.position(nearest).unwrap().distance(&p);
        for node in net.node_ids() {
            assert!(net.position(node).unwrap().distance(&p) >= d - 1e-9);
        }
    });
}

#[test]
fn text_export_names_every_node_and_edge() {
    check("text_export_names_every_node_and_edge", CASES, |rng| {
        let net = network(rng);
        let text = scuba_roadnet::io::to_text(&net);
        for node in net.node_ids() {
            let p = net.position(node).unwrap();
            let line = format!("n {} {} {}", node.0, p.x, p.y);
            assert!(text.lines().any(|l| l == line), "{line}");
        }
        let edges = text.lines().filter(|l| l.starts_with("e ")).count();
        assert_eq!(edges, net.edge_count());
    });
}

#[test]
fn synthetic_city_always_well_formed() {
    check("synthetic_city_always_well_formed", CASES, |rng| {
        let blocks = rng.gen_range(1..12u32);
        let city = SyntheticCity::build(CityConfig {
            extent: 1000.0,
            blocks,
            highway_every: rng.gen_range(0..6),
            diagonal_shortcuts: rng.gen_range(0..10),
            jitter: 0.2,
            seed: rng.next_u64(),
        });
        let n = blocks.max(1);
        assert_eq!(city.network.node_count(), ((n + 1) * (n + 1)) as usize);
        assert!(city.network.is_connected());
        let ext = city.network.extent().unwrap();
        assert!((ext.width() - 1000.0).abs() < 1e-6);
    });
}
