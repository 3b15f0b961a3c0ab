//! The workload generator itself.

use std::sync::Arc;

use scuba_motion::{
    ControlOp, EntityAttrs, EntityRef, LocationUpdate, ObjectAttrs, ObjectClass, ObjectId,
    PiecewiseMotion, QueryAttrs, QueryId, QuerySpec,
};
use scuba_roadnet::{NodeId, RoadNetwork, Router};
use scuba_spatial::rng::Xoshiro256;
use scuba_spatial::{FxHashMap, Point, Time};

use crate::config::WorkloadConfig;
use crate::group::Group;
use crate::hotspot::HotspotPlan;

/// One simulated moving entity (object or query).
#[derive(Debug)]
pub struct GeneratedEntity {
    /// Identity of the entity.
    pub entity: EntityRef,
    /// Attributes the entity reports with every update.
    pub attrs: EntityAttrs,
    /// Behaviour group index.
    pub group: u32,
    /// Index of the current trip within the group's destination sequence.
    trip: usize,
    /// The node the current trip ends at.
    trip_dest: NodeId,
    /// Personal travel speed (group base speed ± jitter).
    speed: f64,
    /// Remaining rest ticks at the current destination (0 = travelling).
    dwell_remaining: u32,
    motion: PiecewiseMotion,
}

impl GeneratedEntity {
    /// Current position.
    pub fn position(&self) -> Point {
        self.motion.position()
    }

    /// Current destination connection node position (`cnloc`).
    pub fn cn_loc(&self) -> Point {
        self.motion.cn_loc()
    }

    /// Personal speed.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    fn to_update(&self, time: Time) -> LocationUpdate {
        LocationUpdate {
            entity: self.entity,
            loc: self.motion.position(),
            time,
            // A dwelling entity reports standstill — it clusters with other
            // parked entities, not with traffic passing the node.
            speed: if self.dwell_remaining > 0 {
                0.0
            } else {
                self.speed
            },
            cn_loc: self.motion.cn_loc(),
            attrs: self.attrs,
        }
    }
}

/// Per-query lifecycle state tracked when query churn is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryLife {
    /// Registered: the query reports data-plane updates as usual.
    Active,
    /// Deregistered until the given tick: no data-plane reports until a
    /// `Register` control revives it at (or after) that tick.
    DeadUntil(Time),
}

/// Register/deregister churn machinery, allocated only when
/// `query_churn_rate > 0`. Keeping it in an `Option` guarantees the
/// churn-off stream stays byte-identical to the pre-churn generator: no
/// RNG is created, no extra draw happens per tick.
#[derive(Debug)]
struct ChurnState {
    /// Dedicated RNG for churn decisions — motion and spawn draws never
    /// share a stream with it, so churn on/off cannot perturb trajectories.
    rng: Xoshiro256,
    /// Lifecycle per query, indexed by `QueryId.0`.
    lives: Vec<QueryLife>,
    /// Control events emitted since the last [`WorkloadGenerator::take_controls`].
    pending: Vec<ControlOp>,
}

/// Streams location updates for a population of objects and queries moving
/// over a road network.
#[derive(Debug)]
pub struct WorkloadGenerator {
    network: Arc<RoadNetwork>,
    config: WorkloadConfig,
    groups: Vec<Group>,
    entities: Vec<GeneratedEntity>,
    clock: Time,
    /// Route cache keyed by (group, trip): every member of a group travels
    /// the same route, so the Dijkstra runs once per group-trip instead of
    /// once per member. Cleared periodically to bound growth.
    route_cache: FxHashMap<(u32, usize), Vec<Point>>,
    /// Query register/deregister churn; `None` when `query_churn_rate == 0`.
    churn: Option<ChurnState>,
}

impl WorkloadGenerator {
    /// Builds the generator, spawning every entity at its group's start
    /// position (staggered along the first route).
    ///
    /// # Panics
    ///
    /// Panics when `config` fails validation or the network is empty — both
    /// are programming errors in experiment setup, not runtime conditions.
    pub fn new(network: Arc<RoadNetwork>, config: WorkloadConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid workload config: {e}"));
        assert!(
            !network.is_empty(),
            "workload generation requires a non-empty road network"
        );

        let total = config.num_objects + config.num_queries;
        // Groups are single-kind: object convoys and query convoys move
        // independently, and results arise when they cross paths. This
        // matches the paper's examples (Fig. 7: M1 holds 4 objects and no
        // queries) and is what makes its pure-cluster optimizations
        // ("if two clusters are of the same type … they are not considered
        // for the join-between") meaningful. Query entities start at a
        // fresh group so no group mixes kinds even when `skew` does not
        // divide the population.
        let skew = config.skew as usize;
        let object_groups = config.num_objects.div_ceil(skew.max(1));
        let query_groups = config.num_queries.div_ceil(skew.max(1));
        let group_count = (object_groups + query_groups) as u64;
        // One hotspot plan shared by every group; `None` when hotspots are
        // off, which keeps group construction byte-identical to the
        // pre-hotspot generator.
        let hotspots = HotspotPlan::build(&network, &config).map(Arc::new);
        let mut groups: Vec<Group> = (0..group_count)
            .map(|g| {
                Group::with_hotspots(
                    &network,
                    config.seed,
                    g,
                    config.speed_min,
                    config.speed_max,
                    hotspots.clone(),
                )
            })
            .collect();

        let mut router = Router::new(&network);
        let mut route_cache: FxHashMap<(u32, usize), Vec<Point>> = FxHashMap::default();
        let mut entities = Vec::with_capacity(total);

        for i in 0..total {
            let is_object = i < config.num_objects;
            let (entity, attrs): (EntityRef, EntityAttrs) = if is_object {
                let id = ObjectId(i as u64);
                let mut rng = Xoshiro256::seed_from_u64(config.seed ^ (0xA77 + i as u64));
                let class = ObjectClass::ALL[rng.gen_range(0..ObjectClass::ALL.len())];
                (id.into(), EntityAttrs::Object(ObjectAttrs { class }))
            } else {
                let id = QueryId((i - config.num_objects) as u64);
                (
                    id.into(),
                    EntityAttrs::Query(QueryAttrs {
                        spec: QuerySpec::square_range(config.query_range_side),
                    }),
                )
            };

            let (group_idx, member_rank) = if is_object {
                ((i / skew) as u32, (i % skew) as u64)
            } else {
                let j = i - config.num_objects;
                ((object_groups + j / skew) as u32, (j % skew) as u64)
            };
            let group = &mut groups[group_idx as usize];
            let dest = group.destination(0, &network);

            let mut jrng =
                Xoshiro256::seed_from_u64(config.seed ^ (0x5EED ^ (i as u64).rotate_left(17)));
            let jitter = if config.speed_jitter > 0.0 {
                jrng.gen_range(-config.speed_jitter..=config.speed_jitter)
            } else {
                0.0
            };
            let speed = (group.base_speed + jitter).max(1.0);

            let waypoints = route_cache
                .entry((group_idx, 0))
                .or_insert_with(|| route_waypoints(&mut router, &network, group.spawn, dest))
                .clone();
            let mut motion =
                PiecewiseMotion::new(waypoints, speed).expect("route has at least one waypoint");
            // Stagger members along the route; the whole group spans
            // `group_spread` spatial units regardless of its size.
            let stagger = config.group_spread / config.skew.max(1) as f64;
            if stagger > 0.0 && member_rank > 0 && speed > 0.0 {
                motion.advance(member_rank as f64 * stagger / speed);
            }

            entities.push(GeneratedEntity {
                entity,
                attrs,
                group: group_idx,
                trip: 0,
                trip_dest: dest,
                speed,
                dwell_remaining: 0,
                motion,
            });
        }

        let churn = (config.query_churn_rate > 0.0).then(|| ChurnState {
            // Domain-separated from every other generator stream (0xC4...
            // ≈ "C4URN"); churn draws can never collide with motion draws.
            rng: Xoshiro256::seed_from_u64(config.seed ^ 0xC4A2_9E01_D3B7_55AAu64),
            lives: vec![QueryLife::Active; config.num_queries],
            pending: Vec::new(),
        });

        WorkloadGenerator {
            network,
            config,
            groups,
            entities,
            clock: 0,
            route_cache,
            churn,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.network
    }

    /// The generating configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The current logical time (number of ticks generated).
    pub fn clock(&self) -> Time {
        self.clock
    }

    /// The simulated entities (read-only).
    pub fn entities(&self) -> &[GeneratedEntity] {
        &self.entities
    }

    /// Emits an update for *every* entity at the current instant, without
    /// advancing time. Useful to seed an engine's tables at t = 0.
    pub fn snapshot(&self) -> Vec<LocationUpdate> {
        self.entities
            .iter()
            .map(|e| e.to_update(self.clock))
            .collect()
    }

    /// Drains the typed control events (query register/deregister) emitted
    /// since the last call. Always empty when `query_churn_rate == 0`.
    ///
    /// Controls drained after `tick()` belong to that tick and must be
    /// applied *before* the tick's data batch — a query deregistered at
    /// tick *t* no longer reports at *t*, and a query revived at *t*
    /// resumes reporting at *t*.
    pub fn take_controls(&mut self) -> Vec<ControlOp> {
        self.churn
            .as_mut()
            .map(|c| std::mem::take(&mut c.pending))
            .unwrap_or_default()
    }

    /// Number of currently registered queries (all of them when churn is
    /// off).
    pub fn active_queries(&self) -> usize {
        match &self.churn {
            Some(c) => c.lives.iter().filter(|l| **l == QueryLife::Active).count(),
            None => self.config.num_queries,
        }
    }

    /// One churn step: revives queries whose downtime expired, then rolls
    /// the per-tick deregistration die for each registered query. No-op —
    /// and no RNG draw — when churn is off.
    fn step_churn(&mut self) {
        let WorkloadGenerator {
            churn,
            entities,
            config,
            clock,
            ..
        } = self;
        let Some(churn) = churn.as_mut() else {
            return;
        };
        let clock = *clock;
        let rate = config.query_churn_rate;
        // Revival delay is uniform over [1, 2·mean − 1]: integer, mean
        // ≈ query_lifetime_mean, bounded so no query vanishes forever.
        let max_delay = (2.0 * config.query_lifetime_mean - 1.0).round().max(1.0) as u64;
        for (q, life) in churn.lives.iter_mut().enumerate() {
            match *life {
                QueryLife::Active => {
                    if churn.rng.gen_f64() < rate {
                        let delay = churn.rng.gen_range(1..=max_delay);
                        *life = QueryLife::DeadUntil(clock + delay);
                        churn.pending.push(ControlOp::Deregister(QueryId(q as u64)));
                    }
                }
                QueryLife::DeadUntil(t) if clock >= t => {
                    *life = QueryLife::Active;
                    // Re-register with the query's current report so the
                    // engine learns position and spec in one control.
                    let e = &entities[config.num_objects + q];
                    churn.pending.push(ControlOp::Register(e.to_update(clock)));
                }
                QueryLife::DeadUntil(_) => {}
            }
        }
    }

    /// Advances the simulation by one time unit and returns the location
    /// updates reported during this tick.
    pub fn tick(&mut self) -> Vec<LocationUpdate> {
        self.clock += 1;
        self.step_churn();
        let network = Arc::clone(&self.network);
        let mut router = Router::new(&network);

        let report_period = if self.config.update_fraction >= 1.0 {
            1
        } else {
            (1.0 / self.config.update_fraction).round().max(1.0) as u64
        };

        // Bound the route cache: old trips are never revisited.
        if self.route_cache.len() > 8 * self.groups.len().max(1) {
            self.route_cache.clear();
        }

        let mut updates = Vec::with_capacity(self.entities.len());
        for (i, e) in self.entities.iter_mut().enumerate() {
            // Rest at the destination before the next trip; when the rest
            // expires, route the next trip (departure happens next tick).
            let mut route_next = false;
            if e.dwell_remaining > 0 {
                e.dwell_remaining -= 1;
                route_next = e.dwell_remaining == 0;
            } else {
                let arrived = e.motion.advance(1.0);
                if arrived {
                    if self.config.dwell_ticks > 0 {
                        // Newly arrived: park for the configured rest.
                        e.dwell_remaining = self.config.dwell_ticks;
                    } else {
                        route_next = true;
                    }
                }
            }
            if route_next {
                // Start the next trip from the node just reached; all group
                // members follow the same destination sequence, so the
                // route is computed once per (group, trip) and shared.
                e.trip += 1;
                let from = e.trip_dest;
                let dest = self.groups[e.group as usize].destination(e.trip, &network);
                let waypoints = self
                    .route_cache
                    .entry((e.group, e.trip))
                    .or_insert_with(|| route_waypoints(&mut router, &network, from, dest))
                    .clone();
                e.trip_dest = dest;
                e.motion = PiecewiseMotion::new(waypoints, e.speed)
                    .expect("route has at least one waypoint");
            }
            // Deregistered queries keep moving but stop reporting: a
            // data-plane update would implicitly re-register them, putting
            // the stream at odds with its own control events.
            let registered = match &self.churn {
                Some(c) if i >= self.config.num_objects => {
                    c.lives[i - self.config.num_objects] == QueryLife::Active
                }
                _ => true,
            };
            if registered && (i as u64 + self.clock) % report_period == 0 {
                updates.push(e.to_update(self.clock));
            }
        }
        updates
    }

    /// Runs `n` ticks, returning all updates concatenated in time order.
    pub fn run(&mut self, n: u64) -> Vec<LocationUpdate> {
        let mut all = Vec::new();
        for _ in 0..n {
            all.extend(self.tick());
        }
        all
    }
}

/// Waypoints of the cheapest route, falling back to staying at `from` when
/// no route exists (cannot happen on connected networks).
fn route_waypoints(
    router: &mut Router<'_>,
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
) -> Vec<Point> {
    let metric = scuba_roadnet::RouteMetric::TravelTime;
    match router.route(from, to, metric) {
        Ok(Some(route)) => route
            .nodes
            .iter()
            .map(|n| *net.position(*n).expect("route nodes exist"))
            .collect(),
        _ => vec![*net.position(from).expect("from node exists")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_roadnet::{CityConfig, SyntheticCity};

    fn generator(config: WorkloadConfig) -> WorkloadGenerator {
        let city = SyntheticCity::build(CityConfig::small());
        WorkloadGenerator::new(Arc::new(city.network), config)
    }

    #[test]
    fn spawns_requested_population() {
        let g = generator(WorkloadConfig::small());
        assert_eq!(g.entities().len(), 100);
        let objects = g.entities().iter().filter(|e| e.entity.is_object()).count();
        let queries = g
            .entities()
            .iter()
            .filter(|e| !e.entity.is_object())
            .count();
        assert_eq!(objects, 60);
        assert_eq!(queries, 40);
    }

    #[test]
    fn groups_are_single_kind() {
        let g = generator(WorkloadConfig::small()); // 60 obj + 40 qry, skew 10
        let group_count = g.entities().iter().map(|e| e.group).max().unwrap() + 1;
        assert_eq!(group_count, 10); // 6 object groups + 4 query groups
        for group in 0..group_count {
            let members: Vec<_> = g.entities().iter().filter(|e| e.group == group).collect();
            assert_eq!(members.len(), 10);
            let objects = members.iter().filter(|e| e.entity.is_object()).count();
            assert!(
                objects == 0 || objects == members.len(),
                "group {group} mixes kinds ({objects}/{} objects)",
                members.len()
            );
        }
    }

    #[test]
    fn partial_groups_do_not_mix_kinds() {
        // 15 objects and 7 queries with skew 10: the partial object group
        // (5 members) and the partial query group (7) stay single-kind.
        let cfg = WorkloadConfig {
            num_objects: 15,
            num_queries: 7,
            ..WorkloadConfig::small()
        };
        let g = generator(cfg);
        let group_count = g.entities().iter().map(|e| e.group).max().unwrap() + 1;
        assert_eq!(group_count, 3);
        for group in 0..group_count {
            let members: Vec<_> = g.entities().iter().filter(|e| e.group == group).collect();
            let objects = members.iter().filter(|e| e.entity.is_object()).count();
            assert!(objects == 0 || objects == members.len());
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = generator(WorkloadConfig::small()).snapshot();
        let b = generator(WorkloadConfig::small()).snapshot();
        assert_eq!(a, b);

        let mut g1 = generator(WorkloadConfig::small());
        let mut g2 = generator(WorkloadConfig::small());
        for _ in 0..5 {
            assert_eq!(g1.tick(), g2.tick());
        }
    }

    #[test]
    fn group_members_stay_close() {
        let cfg = WorkloadConfig::small();
        let mut g = generator(cfg);
        for _ in 0..10 {
            g.tick();
        }
        // Within each group, members should be within a few staggers of
        // each other (same route, same base speed, small jitter).
        for group in 0..10u32 {
            let positions: Vec<Point> = g
                .entities()
                .iter()
                .filter(|e| e.group == group)
                .map(|e| e.position())
                .collect();
            let spread = max_pairwise_distance(&positions);
            // 10 members staggered 5 units + jitter drift 2*2 units/tick*10.
            assert!(spread < 250.0, "group {group} spread too far: {spread}");
        }
    }

    #[test]
    fn speeds_respect_jitter_bound() {
        let cfg = WorkloadConfig::small();
        let g = generator(cfg);
        for group in 0..10u32 {
            let speeds: Vec<f64> = g
                .entities()
                .iter()
                .filter(|e| e.group == group)
                .map(|e| e.speed())
                .collect();
            let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = speeds.iter().cloned().fold(0.0, f64::max);
            assert!(
                max - min <= 2.0 * cfg.speed_jitter + 1e-9,
                "group {group} speed spread {}",
                max - min
            );
        }
    }

    #[test]
    fn tick_advances_clock_and_positions() {
        let mut g = generator(WorkloadConfig::small());
        let before = g.snapshot();
        let updates = g.tick();
        assert_eq!(g.clock(), 1);
        assert_eq!(updates.len(), 100, "100% report fraction");
        let moved = updates
            .iter()
            .zip(before.iter())
            .filter(|(a, b)| !a.loc.approx_eq(&b.loc))
            .count();
        assert!(moved > 90, "most entities moved, got {moved}");
        for u in &updates {
            assert_eq!(u.time, 1);
            assert!(u.is_consistent());
        }
    }

    #[test]
    fn update_fraction_halves_report_volume() {
        let mut cfg = WorkloadConfig::small();
        cfg.update_fraction = 0.5;
        let mut g = generator(cfg);
        let updates = g.tick();
        assert_eq!(updates.len(), 50);
        // Over two ticks every entity reports exactly once... per period.
        let updates2 = g.tick();
        assert_eq!(updates2.len(), 50);
        let mut reported: Vec<EntityRef> = updates
            .iter()
            .chain(updates2.iter())
            .map(|u| u.entity)
            .collect();
        reported.sort();
        reported.dedup();
        assert_eq!(reported.len(), 100);
    }

    #[test]
    fn entities_rereoute_on_arrival_and_keep_moving() {
        let mut g = generator(WorkloadConfig::small());
        // Long simulation: every entity finishes at least one trip.
        let mut total_updates = 0;
        for _ in 0..200 {
            total_updates += g.tick().len();
        }
        assert_eq!(total_updates, 200 * 100);
        let trips: Vec<usize> = g.entities().iter().map(|e| e.trip).collect();
        assert!(
            trips.iter().any(|&t| t > 0),
            "after 200 ticks some entities should have re-routed"
        );
        // Positions stay within (or at least near) the city extent.
        let extent = g.network().extent().unwrap().inflate(1.0);
        for e in g.entities() {
            assert!(
                extent.contains(&e.position()),
                "entity strayed outside the city: {:?}",
                e.position()
            );
        }
    }

    #[test]
    fn cn_loc_is_a_network_node_position() {
        let mut g = generator(WorkloadConfig::small());
        g.tick();
        let net = Arc::clone(g.network());
        for u in g.snapshot() {
            let nearest = net.nearest_node(&u.cn_loc).unwrap();
            let d = net.position(nearest).unwrap().distance(&u.cn_loc);
            assert!(d < 1e-6, "cn_loc {:?} not a node position", u.cn_loc);
        }
    }

    #[test]
    fn skew_one_gives_singleton_groups() {
        let cfg = WorkloadConfig {
            skew: 1,
            num_objects: 20,
            num_queries: 20,
            ..WorkloadConfig::small()
        };
        let g = generator(cfg);
        let groups: std::collections::HashSet<u32> = g.entities().iter().map(|e| e.group).collect();
        assert_eq!(groups.len(), 40);
    }

    #[test]
    fn hotspot_workload_is_deterministic_and_concentrated() {
        let cfg = WorkloadConfig::small().with_hotspots(1, 250.0, 1.0);
        let mut g1 = generator(cfg);
        let mut g2 = generator(cfg);
        assert_eq!(g1.snapshot(), g2.snapshot());
        for _ in 0..5 {
            assert_eq!(g1.tick(), g2.tick());
        }
        // Full intensity with one hotspot: every group spawn lies within
        // the hotspot radius of its centre, so the t=0 population is
        // concentrated (staggering spreads members along the first route,
        // so allow the group-spread slack on top of the radius).
        let plan = HotspotPlan::build(g1.network(), &cfg).unwrap();
        let center = plan.centers()[0];
        let slack = cfg.group_spread + 1e-9;
        let g0 = generator(cfg);
        for e in g0.entities() {
            let d = e.position().distance(&center);
            assert!(
                d <= cfg.hotspot_radius + slack,
                "entity {:?} spawned {d} from the hotspot",
                e.entity
            );
        }
    }

    #[test]
    fn disabled_hotspots_leave_knobs_inert() {
        // hotspot_count == 0 must produce the exact same stream no matter
        // what the other hotspot knobs say — the plan is never built.
        let plain = WorkloadConfig::small();
        let inert = WorkloadConfig::small().with_hotspots(0, 9999.0, 0.123);
        let mut a = generator(plain);
        let mut b = generator(inert);
        assert_eq!(a.snapshot(), b.snapshot());
        for _ in 0..5 {
            assert_eq!(a.tick(), b.tick());
        }
    }

    #[test]
    fn disabled_churn_leaves_stream_byte_identical() {
        // query_churn_rate == 0 must not create the churn RNG: the stream
        // is byte-identical no matter what the lifetime knob says, and no
        // control events are ever emitted.
        let plain = WorkloadConfig::small();
        let inert = WorkloadConfig::small().with_query_churn(0.0, 123.0);
        let mut a = generator(plain);
        let mut b = generator(inert);
        assert_eq!(a.snapshot(), b.snapshot());
        for _ in 0..5 {
            assert_eq!(a.tick(), b.tick());
            assert!(a.take_controls().is_empty());
            assert!(b.take_controls().is_empty());
        }
        assert_eq!(b.active_queries(), 40);
    }

    #[test]
    fn churn_emits_controls_and_suppresses_dead_reports() {
        let cfg = WorkloadConfig::small().with_query_churn(0.2, 4.0);
        let mut g = generator(cfg);
        // Track the active set the way a consumer would: apply each tick's
        // controls before its batch, then check the batch only carries
        // registered queries.
        let mut active: std::collections::HashSet<u64> = (0..cfg.num_queries as u64).collect();
        let mut deregistered = 0u64;
        let mut reregistered = 0u64;
        for _ in 0..40 {
            let updates = g.tick();
            for op in g.take_controls() {
                match op {
                    ControlOp::Deregister(qid) => {
                        assert!(active.remove(&qid.0), "deregister of inactive {qid:?}");
                        deregistered += 1;
                    }
                    ControlOp::Register(u) | ControlOp::Update(u) => {
                        let qid = u.entity.as_query().expect("churn controls are queries");
                        assert!(active.insert(qid.0), "register of active {qid:?}");
                        assert!(u.is_consistent());
                        reregistered += 1;
                    }
                }
            }
            for u in &updates {
                if let Some(qid) = u.entity.as_query() {
                    assert!(
                        active.contains(&qid.0),
                        "deregistered {qid:?} still reports"
                    );
                }
            }
            assert_eq!(g.active_queries(), active.len());
        }
        assert!(deregistered > 0, "20% churn over 40 ticks must fire");
        assert!(reregistered > 0, "mean lifetime 4 must revive some queries");
    }

    #[test]
    fn churn_is_deterministic_across_instances() {
        let cfg = WorkloadConfig::small().with_query_churn(0.1, 5.0);
        let mut a = generator(cfg);
        let mut b = generator(cfg);
        for _ in 0..10 {
            assert_eq!(a.tick(), b.tick());
            assert_eq!(a.take_controls(), b.take_controls());
        }
    }

    #[test]
    #[should_panic(expected = "invalid workload config")]
    fn invalid_config_panics() {
        let mut cfg = WorkloadConfig::small();
        cfg.update_fraction = 2.0;
        let _ = generator(cfg);
    }

    fn max_pairwise_distance(points: &[Point]) -> f64 {
        let mut max: f64 = 0.0;
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                max = max.max(a.distance(b));
            }
        }
        max
    }

    #[test]
    fn dwell_parks_then_resumes() {
        let mut cfg = WorkloadConfig {
            num_objects: 1,
            num_queries: 0,
            ..WorkloadConfig::small()
        };
        cfg.dwell_ticks = 3;
        cfg.speed_jitter = 0.0;
        let mut g = generator(cfg);
        // Drive until the entity first arrives (reports speed 0).
        let mut parked_at = None;
        for t in 0..200 {
            let u = &g.tick()[0];
            if u.speed == 0.0 {
                parked_at = Some((t, u.loc));
                break;
            }
        }
        let (_, park_loc) = parked_at.expect("entity should arrive within 200 ticks");
        // It stays parked (speed 0, same position) for the remaining rest.
        for _ in 0..2 {
            let u = &g.tick()[0];
            assert_eq!(u.speed, 0.0, "still dwelling");
            assert!(u.loc.approx_eq(&park_loc), "parked in place");
        }
        // Rest over: it departs again (speed restored, position changes).
        let mut moved = false;
        for _ in 0..3 {
            let u = &g.tick()[0];
            if u.speed > 0.0 && !u.loc.approx_eq(&park_loc) {
                moved = true;
                break;
            }
        }
        assert!(moved, "entity resumed travel after dwelling");
    }

    #[test]
    fn zero_dwell_matches_old_behaviour() {
        // dwell_ticks = 0 must leave the stream byte-identical to the
        // pre-dwell implementation: entities re-route immediately.
        let cfg = WorkloadConfig::small();
        assert_eq!(cfg.dwell_ticks, 0);
        let mut g = generator(cfg);
        for _ in 0..100 {
            for u in g.tick() {
                assert!(u.speed > 0.0, "no standstill reports without dwell");
            }
        }
    }
}
