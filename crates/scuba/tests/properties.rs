//! Unit-style properties of the SCUBA core: the cluster radius bound,
//! exact full shedding on point clusters, the result merge, accuracy
//! accounting, the pre-filter, delta replay, K-means and the shedding
//! ladder. Exactness against the brute-force oracle, across every
//! configuration, is the simulator's (`simulator.rs`).

use std::collections::BTreeMap;

use scuba::clustering::ClusterEngine;
use scuba::{ScubaOperator, ScubaParams, SheddingMode};
use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
use scuba_spatial::{Point, Rect};
use scuba_stream::ContinuousOperator;
use scuba_testkit::{check, vec, Oracle, Xoshiro256};

const AREA: f64 = 1000.0;

/// Cases per property.
const CASES: u32 = 64;

/// The destinations updates head for: a handful of "nodes", so direction
/// matches actually occur.
const NODES: [Point; 4] = [
    Point { x: 0.0, y: 500.0 },
    Point {
        x: 1000.0,
        y: 500.0,
    },
    Point { x: 500.0, y: 0.0 },
    Point {
        x: 500.0,
        y: 1000.0,
    },
];

/// A compact generator of update batches: `1..max_entities` updates with
/// ids below 40 (so entities repeat), positions on a bounded area, speeds
/// in a small range and destinations drawn from [`NODES`].
fn updates(rng: &mut Xoshiro256, max_entities: usize) -> Vec<LocationUpdate> {
    vec(rng, 1..max_entities, |rng| {
        let id = rng.gen_range(0..40u64);
        let is_query = rng.gen_bool(0.5);
        let loc = Point::new(rng.gen_range(0.0..AREA), rng.gen_range(0.0..AREA));
        let speed = rng.gen_range(5.0..50.0);
        let cn = NODES[rng.gen_range(0..4usize)];
        let side = rng.gen_range(5.0..80.0);
        if is_query {
            LocationUpdate::query(
                QueryId(id),
                loc,
                0,
                speed,
                cn,
                QueryAttrs {
                    spec: QuerySpec::square_range(side),
                },
            )
        } else {
            LocationUpdate::object(ObjectId(id), loc, 0, speed, cn, ObjectAttrs::default())
        }
    })
}

/// Co-located groups for the point-cluster property: 1 to 5 distinct
/// lattice spots (of 16), each with a destination node index, 1–4
/// objects and 1–3 queries.
fn spots(rng: &mut Xoshiro256) -> BTreeMap<usize, (usize, usize, usize)> {
    let n = rng.gen_range(1..6usize);
    let mut spots = BTreeMap::new();
    while spots.len() < n {
        let spot = (
            rng.gen_range(0..4usize),
            rng.gen_range(1..5usize),
            rng.gen_range(1..4usize),
        );
        spots.insert(rng.gen_range(0..16usize), spot);
    }
    spots
}

fn area() -> Rect {
    Rect::square(AREA)
}

/// Every member's admission respected Θ_D at the time it joined: the
/// radius of any cluster is bounded by Θ_D plus accumulated centroid
/// drift, which itself is bounded by Θ_D per absorption — so radius can
/// never exceed member count × Θ_D (a sanity bound, not tight).
#[test]
fn radius_is_bounded() {
    check("radius_is_bounded", CASES, |rng| {
        let updates = updates(rng, 60);
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            scuba.process_update(u);
        }
        for c in scuba.engine().store().values() {
            let bound = (c.len() as f64) * scuba.engine().params().theta_d + 1e-6;
            assert!(
                c.radius() <= bound,
                "radius {} members {}",
                c.radius(),
                c.len()
            );
        }
    });
}

/// Shed members are approximated by their cluster centroid, so when
/// every entity of a cluster sits at the same point (degenerate,
/// radius-0 clusters) the approximation is exact: full shedding must
/// produce exactly the unshed results — whether positions were shed on
/// ingest or stripped afterwards by an escalation to full shedding.
#[test]
fn full_shedding_exact_on_point_clusters() {
    check("full_shedding_exact_on_point_clusters", CASES, |rng| {
        let spots = spots(rng);
        let nodes = [
            Point::new(0.0, 500.0),
            Point::new(1000.0, 500.0),
            Point::new(500.0, 0.0),
            Point::new(500.0, 1000.0),
        ];
        // Co-located groups: objects and queries stacked on single points.
        // Spots sit on a 250-unit lattice (> Θ_D = 100), so groups at
        // different spots can never share a cluster and every cluster is a
        // true point cluster.
        let mut updates = Vec::new();
        let mut oid = 0u64;
        let mut qid = 0u64;
        for (&idx, &(node, n_obj, n_qry)) in &spots {
            let loc = Point::new(
                125.0 + (idx % 4) as f64 * 250.0,
                125.0 + (idx / 4) as f64 * 250.0,
            );
            let cn = nodes[node];
            for _ in 0..n_obj {
                updates.push(LocationUpdate::object(
                    ObjectId(oid),
                    loc,
                    0,
                    20.0,
                    cn,
                    ObjectAttrs::default(),
                ));
                oid += 1;
            }
            for _ in 0..n_qry {
                updates.push(LocationUpdate::query(
                    QueryId(qid),
                    loc,
                    0,
                    20.0,
                    cn,
                    QueryAttrs {
                        spec: QuerySpec::square_range(40.0),
                    },
                ));
                qid += 1;
            }
        }
        let exact_params = ScubaParams::default();
        let shed_params = exact_params.with_shedding(SheddingMode::Full);
        let mut exact = ScubaOperator::new(exact_params, area());
        let mut shed = ScubaOperator::new(shed_params, area());
        let mut escalated = ClusterEngine::new(exact_params, area());
        for u in &updates {
            exact.process_update(u);
            shed.process_update(u);
            escalated.process_update(u);
        }
        escalated.set_shedding(SheddingMode::Full);
        escalated.shed_now();
        assert!(escalated
            .store()
            .values()
            .flat_map(|c| c.members())
            .all(|m| m.is_shed()));
        let mut escalated = ScubaOperator::from_engine(escalated);
        let truth = exact.evaluate(2).results;
        assert_eq!(&truth, &shed.evaluate(2).results);
        assert_eq!(&truth, &escalated.evaluate(2).results);
    });
}

/// Each entity lives in one cluster and pair discovery emits each cluster
/// pair once, so no match is produced twice: the result merge's dedup
/// removes nothing, with and without shedding, over several evaluations
/// and grid sizes (1×1 up).
#[test]
fn result_merge_removes_nothing() {
    check("result_merge_removes_nothing", CASES, |rng| {
        let shedding = [
            SheddingMode::None,
            SheddingMode::Partial { eta: 0.5 },
            SheddingMode::Full,
        ][rng.gen_range(0..3usize)];
        let params = ScubaParams::default()
            .with_grid_cells(rng.gen_range(1..40u32))
            .with_shedding(shedding);
        let mut scuba = ScubaOperator::new(params, area());
        for round in 0..rng.gen_range(1..4u64) {
            for mut u in updates(rng, 60) {
                u.time = 2 * round;
                scuba.process_update(&u);
            }
            let report = scuba.evaluate(2 * round + 2);
            let merge = report
                .phases
                .get(scuba::join::STAGE_RESULT_MERGE)
                .expect("the result-merge stage reports");
            assert_eq!(merge.items_in, merge.items_out, "{shedding:?}");
            assert_eq!(merge.items_out, report.results.len() as u64);
        }
    });
}

/// Accuracy accounting: comparing any result set against itself is
/// perfect, and against the empty set penalises every tuple.
#[test]
fn accuracy_report_axioms() {
    check("accuracy_report_axioms", CASES, |rng| {
        let updates = updates(rng, 40);
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            scuba.process_update(u);
        }
        let results = scuba.evaluate(2).results;
        let self_cmp = scuba::AccuracyReport::compare(&results, &results);
        assert_eq!(self_cmp.accuracy(), 1.0);
        let empty_cmp = scuba::AccuracyReport::compare(&results, &[]);
        assert_eq!(empty_cmp.false_negatives, results.len());
        if results.is_empty() {
            assert_eq!(empty_cmp.accuracy(), 1.0);
        } else {
            assert_eq!(empty_cmp.accuracy(), 0.0);
        }
    });
}

/// The join-between pre-filter only ever prunes (never adds) work:
/// comparisons with the pre-filter are a subset of the all-pairs count.
#[test]
fn prefilter_reduces_comparisons() {
    check("prefilter_reduces_comparisons", CASES, |rng| {
        let updates = updates(rng, 60);
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            scuba.process_update(u);
        }
        let objects: usize = scuba
            .engine()
            .store()
            .values()
            .map(|c| c.object_count())
            .sum();
        let queries: usize = scuba
            .engine()
            .store()
            .values()
            .map(|c| c.query_count())
            .sum();
        let report = scuba.evaluate(2);
        assert!(report.comparisons <= (objects * queries) as u64);
    });
}

/// DeltaTracker: replaying the emitted deltas from the initial state
/// always reconstructs the latest snapshot (observe/replay inverse).
#[test]
fn delta_replay_inverts_observe() {
    check("delta_replay_inverts_observe", CASES, |rng| {
        use scuba::DeltaTracker;
        let batches = vec(rng, 1..5, |r| updates(r, 30));
        let mut op = ScubaOperator::new(ScubaParams::default(), area());
        let mut tracker = DeltaTracker::new();
        let mut deltas = Vec::new();
        let mut last = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            for u in batch {
                op.process_update(u);
            }
            let results = op.evaluate((i as u64 + 1) * 2).results;
            deltas.push(tracker.observe_sorted((i as u64 + 1) * 2, results.clone()));
            last = results;
        }
        assert_eq!(DeltaTracker::replay(&[], &deltas), last);
    });
}

/// Exactness is clustering-independent: joining over *offline K-means*
/// clusters gives the brute-force answers — the two-phase join is correct
/// for any clustering.
#[test]
fn kmeans_join_is_exact() {
    check("kmeans_join_is_exact", CASES, |rng| {
        use scuba::kmeans::{kmeans_cluster, KMeansConfig};
        let updates = updates(rng, 50);
        let k = rng.gen_range(1..12usize);
        let iters = rng.gen_range(1..4u32);
        let params = ScubaParams::default();

        let outcome = kmeans_cluster(
            &updates,
            KMeansConfig {
                iterations: iters,
                k: Some(k),
            },
            &params,
            area(),
        );
        // K-means keeps the latest update per entity, as the oracle does.
        let mut oracle = Oracle::new();
        oracle.observe(&[], &updates);
        assert_eq!(outcome.join().results, oracle.evaluate());
    });
}

/// Adaptive shedding is a pure function of the observed footprints and
/// tick costs: two ladders fed the identical stream take identical
/// decisions at every tick and end with identical ledgers. This is what
/// makes overload incidents replayable from a recorded trace.
#[test]
fn overload_controller_is_deterministic() {
    check("overload_controller_is_deterministic", CASES, |rng| {
        use scuba::ShedLadder;
        use std::time::Duration;
        let observations = vec(rng, 1..64, |r| {
            (r.gen_range(0..2_000usize), r.gen_range(0..5_000u64))
        });
        let deadline = Duration::from_micros(rng.gen_range(1..2_500u64));
        let ladder = match rng.gen_range(0..3u32) {
            0 => ShedLadder::default().with_deadline(deadline),
            1 => ShedLadder::default().with_memory_budget(rng.gen_range(1..2_000usize)),
            _ => ShedLadder::default()
                .with_deadline(deadline)
                .with_memory_budget(rng.gen_range(1..2_000usize)),
        };

        let (mut a, mut b) = (ladder.clone(), ladder);
        for &(mem, us) in &observations {
            let cost = Duration::from_micros(us);
            assert_eq!(a.observe(mem, cost), b.observe(mem, cost));
            assert_eq!(a.current(), b.current());
        }
        assert_eq!(a.counters(), b.counters());
    });
}

/// A stream that always meets its deadline and its memory budget never
/// sheds: the ladder records only clean ticks and the mode stays `None`.
#[test]
fn overload_controller_idles_on_clean_streams() {
    check("overload_controller_idles_on_clean_streams", CASES, |rng| {
        use scuba::{ShedLadder, SheddingMode};
        use std::time::Duration;
        let observations = vec(rng, 1..64, |r| {
            (r.gen_range(0..1_001usize), r.gen_range(0..=1_000u64))
        });

        let mut ladder = ShedLadder::default()
            .with_deadline(Duration::from_micros(1_000))
            .with_memory_budget(1_000);
        for &(mem, us) in &observations {
            ladder.observe(mem, Duration::from_micros(us));
            assert_eq!(ladder.current(), SheddingMode::None);
        }
        let k = ladder.counters();
        assert_eq!(k.ticks, observations.len() as u64);
        assert_eq!(k.misses, 0);
        assert_eq!(k.escalations, 0);
    });
}
