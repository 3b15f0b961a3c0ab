//! Behaviour groups — the skew-factor mechanism.
//!
//! All entities in a group share a spawn node, a base speed, and a lazily
//! extended *destination sequence*: the n-th trip of every member targets
//! the same node, so members keep travelling together across trips even
//! though staggered starts make them arrive at slightly different times.

use std::sync::Arc;

use scuba_roadnet::{NodeId, RoadNetwork};
use scuba_spatial::rng::Xoshiro256;

use crate::hotspot::HotspotPlan;

/// Shared behaviour of one group of entities.
#[derive(Debug)]
pub struct Group {
    /// The spawn node of the group's first trip.
    pub spawn: NodeId,
    /// Base speed every member derives its speed from.
    pub base_speed: f64,
    /// Destination of trip `n` is `destinations[n]`; extended on demand.
    destinations: Vec<NodeId>,
    /// Hotspot bias applied to spawn/destination draws, if any.
    hotspots: Option<Arc<HotspotPlan>>,
    rng: Xoshiro256,
}

impl Group {
    /// Creates a group with deterministic behaviour derived from
    /// `(workload_seed, group_index)` and uniform node draws.
    pub fn new(
        net: &RoadNetwork,
        workload_seed: u64,
        group_index: u64,
        speed_min: f64,
        speed_max: f64,
    ) -> Self {
        Group::with_hotspots(net, workload_seed, group_index, speed_min, speed_max, None)
    }

    /// Creates a group whose spawn and destination draws are biased
    /// towards `hotspots` (when given). With `None` the RNG call sequence
    /// is byte-identical to [`Group::new`]'s historical behaviour.
    pub fn with_hotspots(
        net: &RoadNetwork,
        workload_seed: u64,
        group_index: u64,
        speed_min: f64,
        speed_max: f64,
        hotspots: Option<Arc<HotspotPlan>>,
    ) -> Self {
        // Mix the group index into the seed (splitmix-style) so groups are
        // decorrelated.
        let mut rng = Xoshiro256::seed_from_u64(mix(workload_seed, group_index));
        let spawn = draw_node(&mut rng, net, hotspots.as_deref());
        let base_speed = if speed_max > speed_min {
            rng.gen_range(speed_min..speed_max)
        } else {
            speed_min
        };
        Group {
            spawn,
            base_speed,
            destinations: Vec::new(),
            hotspots,
            rng,
        }
    }

    /// Destination node for trip `n`, generating intermediate trips as
    /// needed. Consecutive destinations are guaranteed distinct so every
    /// trip covers at least one segment (on connected networks).
    pub fn destination(&mut self, n: usize, net: &RoadNetwork) -> NodeId {
        while self.destinations.len() <= n {
            let prev = *self.destinations.last().unwrap_or(&self.spawn);
            let next = self.pick_node_distinct_from(prev, net);
            self.destinations.push(next);
        }
        self.destinations[n]
    }

    fn pick_node_distinct_from(&mut self, prev: NodeId, net: &RoadNetwork) -> NodeId {
        let n = net.node_count() as u32;
        if n <= 1 {
            return prev;
        }
        // Biased draws first: a hotspot whose candidate set is exactly
        // `{prev}` would never yield a distinct node, so fall back to
        // uniform draws after a bounded number of rejections. Without
        // hotspots each biased draw *is* a uniform draw, so the combined
        // loop consumes the RNG exactly like the historical unbounded one.
        for _ in 0..16 {
            let candidate = draw_node(&mut self.rng, net, self.hotspots.as_deref());
            if candidate != prev {
                return candidate;
            }
        }
        loop {
            let candidate = NodeId(self.rng.gen_range(0..n));
            if candidate != prev {
                return candidate;
            }
        }
    }
}

/// Draws one node: with probability `plan.intensity()` from a hotspot's
/// candidate set, otherwise uniformly over the whole node table. Without a
/// plan this is a single uniform `gen_range` — the historical draw.
fn draw_node(rng: &mut Xoshiro256, net: &RoadNetwork, plan: Option<&HotspotPlan>) -> NodeId {
    if let Some(plan) = plan {
        if rng.gen_bool(plan.intensity()) {
            return plan.draw(rng);
        }
    }
    NodeId(rng.gen_range(0..net.node_count() as u32))
}

/// SplitMix64-style seed mixing (shared with hotspot placement).
pub(crate) fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_roadnet::{CityConfig, SyntheticCity};

    fn city() -> SyntheticCity {
        SyntheticCity::build(CityConfig::small())
    }

    #[test]
    fn deterministic_across_instances() {
        let c = city();
        let mut a = Group::new(&c.network, 1, 5, 10.0, 50.0);
        let mut b = Group::new(&c.network, 1, 5, 10.0, 50.0);
        assert_eq!(a.spawn, b.spawn);
        assert_eq!(a.base_speed, b.base_speed);
        for n in 0..10 {
            assert_eq!(a.destination(n, &c.network), b.destination(n, &c.network));
        }
    }

    #[test]
    fn different_groups_decorrelated() {
        let c = city();
        let groups: Vec<Group> = (0..20)
            .map(|g| Group::new(&c.network, 1, g, 10.0, 50.0))
            .collect();
        let spawns: std::collections::HashSet<_> = groups.iter().map(|g| g.spawn).collect();
        assert!(spawns.len() > 5, "spawns should spread: {}", spawns.len());
    }

    #[test]
    fn destination_sequence_is_stable_and_lazy() {
        let c = city();
        let mut g = Group::new(&c.network, 9, 0, 10.0, 50.0);
        assert_eq!(g.destinations.len(), 0);
        let d3 = g.destination(3, &c.network);
        assert_eq!(g.destinations.len(), 4);
        assert_eq!(g.destination(3, &c.network), d3);
        assert_eq!(g.destinations.len(), 4);
    }

    #[test]
    fn consecutive_destinations_distinct() {
        let c = city();
        let mut g = Group::new(&c.network, 2, 1, 10.0, 50.0);
        let mut prev = g.spawn;
        for n in 0..50 {
            let d = g.destination(n, &c.network);
            assert_ne!(d, prev, "trip {n} has zero length");
            prev = d;
        }
    }

    #[test]
    fn base_speed_in_range() {
        let c = city();
        for g in 0..50 {
            let grp = Group::new(&c.network, 3, g, 12.0, 48.0);
            assert!(grp.base_speed >= 12.0 && grp.base_speed < 48.0);
        }
    }

    #[test]
    fn degenerate_speed_range() {
        let c = city();
        let g = Group::new(&c.network, 3, 0, 25.0, 25.0);
        assert_eq!(g.base_speed, 25.0);
    }

    #[test]
    fn with_hotspots_none_matches_new() {
        let c = city();
        let mut a = Group::new(&c.network, 7, 3, 10.0, 50.0);
        let mut b = Group::with_hotspots(&c.network, 7, 3, 10.0, 50.0, None);
        assert_eq!(a.spawn, b.spawn);
        assert_eq!(a.base_speed, b.base_speed);
        for n in 0..20 {
            assert_eq!(a.destination(n, &c.network), b.destination(n, &c.network));
        }
    }

    #[test]
    fn full_intensity_hotspot_concentrates_draws() {
        use crate::config::WorkloadConfig;
        let c = city();
        let cfg = WorkloadConfig::small().with_hotspots(1, 250.0, 1.0);
        let plan = Arc::new(HotspotPlan::build(&c.network, &cfg).unwrap());
        // The one hotspot's candidates are the nodes within its radius.
        let on_hotspot = |node| {
            let p = c.network.position(node).unwrap();
            p.distance(&plan.centers()[0]) <= cfg.hotspot_radius
        };
        for g in 0..8u64 {
            let mut grp =
                Group::with_hotspots(&c.network, cfg.seed, g, 10.0, 50.0, Some(Arc::clone(&plan)));
            assert!(on_hotspot(grp.spawn), "group {g} spawn off-hotspot");
            for n in 0..10 {
                let d = grp.destination(n, &c.network);
                assert!(on_hotspot(d), "group {g} trip {n} off-hotspot");
            }
        }
    }

    #[test]
    fn hotspot_groups_are_deterministic() {
        use crate::config::WorkloadConfig;
        let c = city();
        let cfg = WorkloadConfig::small().with_hotspots(2, 150.0, 0.6);
        let plan_a = Arc::new(HotspotPlan::build(&c.network, &cfg).unwrap());
        let plan_b = Arc::new(HotspotPlan::build(&c.network, &cfg).unwrap());
        let mut a = Group::with_hotspots(&c.network, cfg.seed, 1, 10.0, 50.0, Some(plan_a));
        let mut b = Group::with_hotspots(&c.network, cfg.seed, 1, 10.0, 50.0, Some(plan_b));
        assert_eq!(a.spawn, b.spawn);
        for n in 0..20 {
            assert_eq!(a.destination(n, &c.network), b.destination(n, &c.network));
        }
    }

    #[test]
    fn single_node_network_destination_is_spawn() {
        let mut net = RoadNetwork::new();
        net.add_node(scuba_spatial::Point::ORIGIN);
        let mut g = Group::new(&net, 1, 0, 10.0, 20.0);
        assert_eq!(g.destination(0, &net), g.spawn);
    }
}
