//! Deterministic synthetic-city builder.
//!
//! **Substitution note (DESIGN.md §2):** the paper's experiments use the
//! road map of Worcester, MA. That map is not redistributable, so we build a
//! synthetic city with the same structural properties the experiments rely
//! on:
//!
//! * a block grid of streets meeting at connection nodes (downtown);
//! * periodic high-speed corridors (every `highway_every`-th row/column is a
//!   [`RoadClass::Highway`]) whose long, fast segments produce the
//!   long-lived convoys that make clustering worthwhile (paper §3.1);
//! * mid-speed arterials between highways and slow local streets elsewhere;
//! * optional diagonal local shortcuts to break up pure Manhattan topology;
//! * bounded random jitter on node positions so cells of the evaluation
//!   grid are not perfectly aligned with roads.
//!
//! Construction is fully deterministic from [`CityConfig::seed`].

use scuba_spatial::rng::Xoshiro256;
use scuba_spatial::Point;

use crate::network::{RoadClass, RoadNetwork};

/// Parameters of the synthetic city.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityConfig {
    /// Side length of the square coverage area, in spatial units.
    /// Default 10 000 — with the default Θ_D = 100 this matches the paper's
    /// scale (Θ_D is 1% of the map side).
    pub extent: f64,
    /// Number of blocks per side; the grid has `(blocks+1)²` nodes.
    pub blocks: u32,
    /// Every k-th row/column of streets is a highway (0 disables highways).
    pub highway_every: u32,
    /// Number of random diagonal local shortcuts to add.
    pub diagonal_shortcuts: u32,
    /// Maximum node jitter as a fraction of the block size (0.0–0.4).
    pub jitter: f64,
    /// RNG seed; equal configs build identical cities.
    pub seed: u64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            extent: 10_000.0,
            blocks: 20,
            highway_every: 5,
            diagonal_shortcuts: 40,
            jitter: 0.15,
            seed: 0xEDB7_2006,
        }
    }
}

impl CityConfig {
    /// A small city for unit tests and quick examples.
    pub fn small() -> Self {
        CityConfig {
            extent: 1_000.0,
            blocks: 8,
            highway_every: 4,
            diagonal_shortcuts: 6,
            jitter: 0.1,
            seed: 7,
        }
    }
}

/// A built city: the network plus the config that produced it.
#[derive(Debug, Clone)]
pub struct SyntheticCity {
    /// The road network.
    pub network: RoadNetwork,
    /// The generating configuration.
    pub config: CityConfig,
}

impl SyntheticCity {
    /// Builds the city deterministically from `config`.
    pub fn build(config: CityConfig) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(config.seed);
        let mut net = RoadNetwork::new();

        let n = config.blocks.max(1); // blocks per side
        let nodes_per_side = n + 1;
        let block = config.extent / n as f64;
        let jitter_amp = block * config.jitter.clamp(0.0, 0.4);

        // Lay out the (n+1)x(n+1) node lattice with jitter. Border nodes are
        // not jittered outward so the extent stays exact.
        let mut ids = Vec::with_capacity((nodes_per_side * nodes_per_side) as usize);
        for row in 0..nodes_per_side {
            for col in 0..nodes_per_side {
                let on_border = row == 0 || col == 0 || row == n || col == n;
                let (jx, jy) = if on_border || jitter_amp == 0.0 {
                    (0.0, 0.0)
                } else {
                    (
                        rng.gen_range(-jitter_amp..=jitter_amp),
                        rng.gen_range(-jitter_amp..=jitter_amp),
                    )
                };
                let pos = Point::new(col as f64 * block + jx, row as f64 * block + jy);
                ids.push(net.add_node(pos));
            }
        }
        let node_at = |col: u32, row: u32| ids[(row * nodes_per_side + col) as usize];

        // Street grid with class by row/column index.
        let class_of = |index: u32| classify(index, config.highway_every);
        for row in 0..nodes_per_side {
            for col in 0..nodes_per_side {
                if col < n {
                    // Horizontal street along `row`.
                    net.add_edge(node_at(col, row), node_at(col + 1, row), class_of(row))
                        .expect("lattice nodes exist");
                }
                if row < n {
                    // Vertical street along `col`.
                    net.add_edge(node_at(col, row), node_at(col, row + 1), class_of(col))
                        .expect("lattice nodes exist");
                }
            }
        }

        // Diagonal local shortcuts between random block corners.
        for _ in 0..config.diagonal_shortcuts {
            let col = rng.gen_range(0..n);
            let row = rng.gen_range(0..n);
            let (from, to) = if rng.gen_bool(0.5) {
                (node_at(col, row), node_at(col + 1, row + 1))
            } else {
                (node_at(col + 1, row), node_at(col, row + 1))
            };
            net.add_edge(from, to, RoadClass::Local)
                .expect("lattice nodes exist");
        }

        SyntheticCity {
            network: net,
            config,
        }
    }
}

/// Classifies a street by its lattice index: every `highway_every`-th street
/// (including the border streets) is a highway, odd streets are local and
/// even streets arterial.
fn classify(index: u32, highway_every: u32) -> RoadClass {
    if highway_every > 0 && index % highway_every == 0 {
        RoadClass::Highway
    } else if index % 2 == 0 {
        RoadClass::Arterial
    } else {
        RoadClass::Local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RouteMetric, Router};

    #[test]
    fn build_is_deterministic() {
        let a = SyntheticCity::build(CityConfig::small());
        let b = SyntheticCity::build(CityConfig::small());
        assert_eq!(a.network.node_count(), b.network.node_count());
        assert_eq!(a.network.edge_count(), b.network.edge_count());
        for (na, nb) in a.network.node_ids().zip(b.network.node_ids()) {
            assert_eq!(a.network.position(na), b.network.position(nb));
        }
    }

    #[test]
    fn different_seed_different_city() {
        let a = SyntheticCity::build(CityConfig::small());
        let b = SyntheticCity::build(CityConfig {
            seed: 8,
            ..CityConfig::small()
        });
        let moved = a
            .network
            .node_ids()
            .any(|n| a.network.position(n) != b.network.position(n));
        assert!(moved, "jitter should differ across seeds");
    }

    #[test]
    fn node_and_edge_counts() {
        let cfg = CityConfig {
            blocks: 4,
            diagonal_shortcuts: 3,
            ..CityConfig::small()
        };
        let city = SyntheticCity::build(cfg);
        assert_eq!(city.network.node_count(), 25); // 5x5
                                                   // Grid edges: 2 * n * (n+1) = 2*4*5 = 40, plus 3 shortcuts.
        assert_eq!(city.network.edge_count(), 43);
    }

    #[test]
    fn city_is_connected() {
        let city = SyntheticCity::build(CityConfig::small());
        assert!(city.network.is_connected());
    }

    #[test]
    fn extent_matches_config() {
        let cfg = CityConfig::small();
        let city = SyntheticCity::build(cfg);
        let ext = city.network.extent().unwrap();
        assert!((ext.width() - cfg.extent).abs() < 1e-9);
        assert!((ext.height() - cfg.extent).abs() < 1e-9);
        assert!(ext.min.x.abs() < 1e-9 && ext.min.y.abs() < 1e-9);
    }

    #[test]
    fn has_all_road_classes() {
        let city = SyntheticCity::build(CityConfig::small());
        for class in RoadClass::ALL {
            assert!(
                city.network.edges().any(|e| e.class == class),
                "missing {class:?}"
            );
        }
    }

    #[test]
    fn no_highways_when_disabled() {
        let city = SyntheticCity::build(CityConfig {
            highway_every: 0,
            ..CityConfig::small()
        });
        assert!(city.network.edges().all(|e| e.class != RoadClass::Highway));
    }

    #[test]
    fn routable_end_to_end() {
        let city = SyntheticCity::build(CityConfig::small());
        let net = &city.network;
        let corner_a = net.nearest_node(&Point::new(0.0, 0.0)).unwrap();
        let corner_b = net
            .nearest_node(&Point::new(city.config.extent, city.config.extent))
            .unwrap();
        let mut router = Router::new(net);
        let route = router
            .route(corner_a, corner_b, RouteMetric::TravelTime)
            .unwrap()
            .expect("city is connected");
        assert!(route.length >= city.config.extent); // at least one side each way... roughly
        assert!(route.nodes.len() >= 3, "at least two legs");
    }

    #[test]
    fn jitter_zero_gives_exact_lattice() {
        let cfg = CityConfig {
            jitter: 0.0,
            blocks: 4,
            extent: 400.0,
            diagonal_shortcuts: 0,
            ..CityConfig::small()
        };
        let city = SyntheticCity::build(cfg);
        for node in city.network.node_ids() {
            let p = city.network.position(node).unwrap();
            assert!((p.x % 100.0).abs() < 1e-9, "{p:?}");
            assert!((p.y % 100.0).abs() < 1e-9, "{p:?}");
        }
    }

    #[test]
    fn classify_pattern() {
        assert_eq!(classify(0, 5), RoadClass::Highway);
        assert_eq!(classify(5, 5), RoadClass::Highway);
        assert_eq!(classify(2, 5), RoadClass::Arterial);
        assert_eq!(classify(3, 5), RoadClass::Local);
        assert_eq!(classify(0, 0), RoadClass::Arterial);
    }
}
