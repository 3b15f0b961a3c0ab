//! Hotspot skew — configurable spatial concentration of trips.
//!
//! The paper's experiments place a uniform grid under stress by skewing
//! *behaviour* (the skew factor groups entities into convoys), but real
//! road workloads also skew *space*: downtowns and stadium districts
//! attract a disproportionate share of trips, overloading a handful of
//! grid cells. This module makes that spatial skew a first-class,
//! configurable workload knob so benchmarks can sweep skew levels instead
//! of hard-coding a single hotspot.
//!
//! A [`HotspotPlan`] deterministically places `hotspot_count` centres over
//! the network extent (derived from the workload seed, so equal configs
//! yield equal plans) and precomputes, per centre, the set of network
//! nodes within `hotspot_radius`. Groups then route a `hotspot_intensity`
//! fraction of their spawn/destination draws through a uniformly chosen
//! hotspot's candidate set instead of the whole node table.
//!
//! With `hotspot_count == 0` no plan is built and the generator's RNG
//! call sequence is byte-identical to the pre-hotspot implementation —
//! every existing workload, test seed, and identity property is
//! unaffected.

use scuba_roadnet::{NodeId, RoadNetwork};
use scuba_spatial::rng::Xoshiro256;
use scuba_spatial::Point;

use crate::config::WorkloadConfig;
use crate::group::mix;

/// Deterministic placement of trip hotspots over a road network.
#[derive(Debug)]
pub struct HotspotPlan {
    /// Hotspot centres, uniformly placed over the network extent from the
    /// workload seed.
    centers: Vec<Point>,
    /// `candidates[h]` — nodes within `hotspot_radius` of `centers[h]`
    /// (the single nearest node when none is in range), so every hotspot
    /// draw lands on a routable node.
    candidates: Vec<Vec<NodeId>>,
    /// Probability that a node draw is routed through a hotspot.
    intensity: f64,
}

impl HotspotPlan {
    /// Builds the plan for `config` over `net`, or `None` when hotspots
    /// are disabled (`hotspot_count == 0`) or the network is empty.
    ///
    /// Centres are derived from `config.seed` with the same SplitMix
    /// stream-mixing the behaviour groups use, so the plan is a pure
    /// function of `(network, config)`.
    pub fn build(net: &RoadNetwork, config: &WorkloadConfig) -> Option<Self> {
        if config.hotspot_count == 0 || net.is_empty() {
            return None;
        }
        let extent = net.extent().expect("non-empty network has an extent");
        let count = config.hotspot_count as usize;
        let mut centers = Vec::with_capacity(count);
        let mut candidates = Vec::with_capacity(count);
        for h in 0..config.hotspot_count as u64 {
            // The 0x4075… offset keeps hotspot placement decorrelated from
            // the group streams (which mix small group indexes directly).
            let cx = extent.min.x + unit(mix(config.seed, 0x4075_9070 + 2 * h)) * extent.width();
            let cy = extent.min.y + unit(mix(config.seed, 0x4075_9071 + 2 * h)) * extent.height();
            let center = Point::new(cx, cy);
            let mut near: Vec<NodeId> = (0..net.node_count() as u32)
                .map(NodeId)
                .filter(|n| {
                    net.position(*n)
                        .expect("node id in range")
                        .distance(&center)
                        <= config.hotspot_radius
                })
                .collect();
            if near.is_empty() {
                near.push(net.nearest_node(&center).expect("non-empty network"));
            }
            centers.push(center);
            candidates.push(near);
        }
        Some(HotspotPlan {
            centers,
            candidates,
            intensity: config.hotspot_intensity,
        })
    }

    /// The hotspot centres.
    pub fn centers(&self) -> &[Point] {
        &self.centers
    }

    /// Probability that a node draw is routed through a hotspot.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    /// Draws a node from a uniformly chosen hotspot's candidate set.
    pub fn draw(&self, rng: &mut Xoshiro256) -> NodeId {
        let h = rng.gen_range(0..self.candidates.len());
        let nodes = &self.candidates[h];
        nodes[rng.gen_range(0..nodes.len())]
    }
}

/// Maps a mixed 64-bit word to a unit-interval float (top 53 bits).
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_roadnet::{CityConfig, SyntheticCity};

    fn city() -> RoadNetwork {
        SyntheticCity::build(CityConfig::small()).network
    }

    fn skewed(count: u32, radius: f64, intensity: f64) -> WorkloadConfig {
        WorkloadConfig::small().with_hotspots(count, radius, intensity)
    }

    #[test]
    fn disabled_config_builds_no_plan() {
        let net = city();
        assert!(HotspotPlan::build(&net, &WorkloadConfig::small()).is_none());
        assert!(HotspotPlan::build(&net, &skewed(0, 100.0, 1.0)).is_none());
    }

    #[test]
    fn empty_network_builds_no_plan() {
        let net = RoadNetwork::new();
        assert!(HotspotPlan::build(&net, &skewed(2, 100.0, 0.5)).is_none());
    }

    #[test]
    fn plan_is_deterministic_and_in_extent() {
        let net = city();
        let cfg = skewed(3, 150.0, 0.7);
        let a = HotspotPlan::build(&net, &cfg).unwrap();
        let b = HotspotPlan::build(&net, &cfg).unwrap();
        assert_eq!(a.centers(), b.centers());
        assert_eq!(a.intensity(), 0.7);
        let extent = net.extent().unwrap();
        for (h, c) in a.centers().iter().enumerate() {
            assert!(extent.contains(c), "centre {h} outside extent: {c:?}");
            assert_eq!(a.candidates[h], b.candidates[h]);
            assert!(!a.candidates[h].is_empty(), "hotspot {h} has no nodes");
        }
    }

    #[test]
    fn candidates_are_within_radius_or_nearest() {
        let net = city();
        let radius = 120.0;
        let plan = HotspotPlan::build(&net, &skewed(4, radius, 1.0)).unwrap();
        for (h, center) in plan.centers().iter().enumerate() {
            let nodes = &plan.candidates[h];
            if nodes.len() > 1 {
                for n in nodes {
                    let d = net.position(*n).unwrap().distance(center);
                    assert!(d <= radius, "hotspot {h} node {n:?} at distance {d}");
                }
            } else {
                // Lone candidate: either in range or the nearest fallback.
                assert_eq!(nodes[0], net.nearest_node(center).unwrap());
            }
        }
    }

    #[test]
    fn draw_always_lands_in_a_hotspot() {
        let net = city();
        let plan = HotspotPlan::build(&net, &skewed(2, 200.0, 1.0)).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(42);
        for _ in 0..200 {
            let node = plan.draw(&mut rng);
            assert!(plan.candidates.iter().any(|c| c.contains(&node)));
        }
    }

    #[test]
    fn tiny_radius_falls_back_to_nearest_node() {
        let net = city();
        let plan = HotspotPlan::build(&net, &skewed(2, 1e-9, 1.0)).unwrap();
        for h in 0..plan.centers().len() {
            assert_eq!(plan.candidates[h].len(), 1);
        }
    }
}
