//! Property-based tests for the SCUBA core.
//!
//! The central property is **result equivalence**: with no load shedding
//! and every entity reporting, SCUBA's two-phase cluster join must produce
//! exactly the same result set as the regular grid-based join over the same
//! updates — the pre-filter may only prune pairs that cannot match.

use std::collections::BTreeMap;

use scuba::baseline::RegularGridOperator;
use scuba::clustering::ClusterEngine;
use scuba::{ScubaOperator, ScubaParams, SheddingMode};
use scuba_motion::{
    EntityAttrs, EntityRef, LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec,
};
use scuba_spatial::{Point, Rect};
use scuba_stream::{ContinuousOperator, QueryMatch};
use scuba_testkit::{check, vec, Xoshiro256};

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

/// The grid-independent reference answer: every (object, range query)
/// pair among the latest updates, tested directly, then sorted.
fn brute_force(updates: &[LocationUpdate]) -> Vec<QueryMatch> {
    let latest: std::collections::BTreeMap<EntityRef, &LocationUpdate> =
        updates.iter().map(|u| (u.entity, u)).collect();
    let mut results = Vec::new();
    for q in latest.values() {
        let (EntityRef::Query(qid), EntityAttrs::Query(attrs)) = (q.entity, &q.attrs) else {
            continue;
        };
        let Some(region) = attrs.spec.region_at(q.loc) else {
            continue;
        };
        for o in latest.values() {
            if let EntityRef::Object(oid) = o.entity {
                if region.contains(&o.loc) {
                    results.push(QueryMatch::new(qid, oid));
                }
            }
        }
    }
    results.sort_unstable();
    results
}

/// SCUBA without shedding ≡ REGULAR ≡ brute force on a single
/// evaluation. SCUBA and REGULAR both enumerate `GridSpec` cells; the
/// brute-force pair loop does not, so a cell-enumeration bug shared by
/// the two grids cannot hide.
#[test]
fn exact_operators_agree_single_interval() {
    check("exact_operators_agree_single_interval", CASES, |rng| {
        let updates = updates(rng, 60);
        let grid_cells = rng.gen_range(1..40u32);
        let params = ScubaParams::default().with_grid_cells(grid_cells);
        let mut scuba = ScubaOperator::new(params, area());
        let mut regular = RegularGridOperator::new(grid_cells, area());
        for u in &updates {
            scuba.process_update(u);
            regular.process_update(u);
        }
        let s = scuba.evaluate(2).results;
        let r = regular.evaluate(2).results;
        assert_eq!(&s, &r);
        assert_eq!(&s, &brute_force(&updates));
    });
}

/// Uniform positions never put an object exactly on a query's border, so
/// this property does: 1–4 queries on a 250-unit lattice, each with
/// objects on its borders and corners and one 5-unit step inside and
/// outside them. Every entity heads for a destination of its own, so each
/// is a cluster of one and its position materialises exactly; SCUBA and
/// REGULAR must then agree with the brute-force loop, whose
/// `Rect::contains` counts a border as inside.
#[test]
fn border_matches_agree_with_brute_force() {
    check("border_matches_agree_with_brute_force", CASES, |rng| {
        let mut updates = Vec::new();
        let mut cn = 0.0;
        let mut own_destination = || {
            cn += 1.0;
            Point::new(cn, 0.0)
        };
        for spot in 0..rng.gen_range(1..5u64) {
            let center = Point::new(125.0 + 250.0 * spot as f64, 125.0 + 250.0 * spot as f64);
            let half = 5.0 * rng.gen_range(1..9u32) as f64;
            updates.push(LocationUpdate::query(
                QueryId(spot),
                center,
                0,
                20.0,
                own_destination(),
                QueryAttrs {
                    spec: QuerySpec::square_range(2.0 * half),
                },
            ));
            for _ in 0..rng.gen_range(1..8u32) {
                let steps = [
                    -half - 5.0,
                    -half,
                    -half + 5.0,
                    0.0,
                    half - 5.0,
                    half,
                    half + 5.0,
                ];
                let dx = steps[rng.gen_range(0..steps.len())];
                let dy = steps[rng.gen_range(0..steps.len())];
                updates.push(LocationUpdate::object(
                    ObjectId(updates.len() as u64),
                    Point::new(center.x + dx, center.y + dy),
                    0,
                    20.0,
                    own_destination(),
                    ObjectAttrs::default(),
                ));
            }
        }
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        let mut regular = RegularGridOperator::new(ScubaParams::default().grid_cells, area());
        for u in &updates {
            scuba.process_update(u);
            regular.process_update(u);
        }
        let truth = brute_force(&updates);
        assert_eq!(scuba.evaluate(2).results, truth);
        assert_eq!(regular.evaluate(2).results, truth);
    });
}

/// Equivalence also holds across several intervals when every entity
/// re-reports each interval (so SCUBA's relocated clusters are always
/// refreshed with exact positions before the next join).
#[test]
fn scuba_equals_regular_across_intervals() {
    check("scuba_equals_regular_across_intervals", CASES, |rng| {
        let batches = vec(rng, 1..4, |r| updates(r, 40));
        let params = ScubaParams::default();
        let mut scuba = ScubaOperator::new(params, area());
        let mut regular = RegularGridOperator::new(params.grid_cells, area());
        // Track latest state per entity; re-report everything per interval.
        let mut latest: std::collections::BTreeMap<_, LocationUpdate> =
            std::collections::BTreeMap::new();
        for (i, batch) in batches.iter().enumerate() {
            for u in batch {
                latest.insert(u.entity, *u);
            }
            for u in latest.values() {
                scuba.process_update(u);
                regular.process_update(u);
            }
            let now = (i as u64 + 1) * 2;
            let s = scuba.evaluate(now).results;
            let r = regular.evaluate(now).results;
            assert_eq!(s, r, "interval {}", i);
        }
    });
}

/// The cluster invariants hold after arbitrary update sequences.
#[test]
fn clustering_invariants_hold() {
    check("clustering_invariants_hold", CASES, |rng| {
        let updates = updates(rng, 80);
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            scuba.process_update(u);
        }
        scuba.engine().check_invariants();
        scuba.evaluate(2);
        scuba.engine().check_invariants();
    });
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

/// A failure an earlier randomised run recorded and shrank: object 0
/// reports twice, heading first for (500, 1000) and then for (0, 500),
/// around a range query it sits inside both times. Replayed verbatim
/// through the single-interval checks above at every grid size they draw
/// from, with and without zero-η shedding.
#[test]
fn recorded_failure_object_rereports_inside_query() {
    let north = Point::new(500.0, 1000.0);
    let updates = [
        LocationUpdate::object(
            ObjectId(0),
            Point::new(405.84113582890956, 835.262033754667),
            0,
            35.726469109461114,
            north,
            ObjectAttrs::default(),
        ),
        LocationUpdate::query(
            QueryId(0),
            Point::new(444.55648552219844, 794.3185545606905),
            0,
            31.1422671236654,
            north,
            QueryAttrs {
                spec: QuerySpec::square_range(70.6333775788467),
            },
        ),
        LocationUpdate::object(
            ObjectId(0),
            Point::new(425.6781547958138, 773.1011884455579),
            0,
            5.0,
            Point::new(0.0, 500.0),
            ObjectAttrs::default(),
        ),
    ];
    let truth = brute_force(&updates);
    assert_eq!(truth, [QueryMatch::new(QueryId(0), ObjectId(0))]);
    for grid_cells in 1..40u32 {
        let base = ScubaParams::default().with_grid_cells(grid_cells);
        let variants = [base, base.with_shedding(SheddingMode::Partial { eta: 0.0 })];
        for params in variants {
            let mut scuba = ScubaOperator::new(params, area());
            for u in &updates {
                scuba.process_update(u);
            }
            scuba.engine().check_invariants();
            for c in scuba.engine().store().values() {
                assert!(c.radius() <= (c.len() as f64) * params.theta_d + 1e-6);
            }
            assert_eq!(scuba.evaluate(2).results, truth, "{params:?}");
            scuba.engine().check_invariants();
        }
        let mut regular = RegularGridOperator::new(grid_cells, area());
        for u in &updates {
            regular.process_update(u);
        }
        assert_eq!(regular.evaluate(2).results, truth, "grid {grid_cells}");
    }
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

/// Within-tick delivery order changes no answer: an engine fed each tick
/// in generator order and one fed the same tick Fisher–Yates-shuffled (what
/// a reordering transport delivers) answer alike at every tick. Each tick
/// keeps one report per entity (the last), so the shuffle cannot change
/// which report is current, and every entity seen so far reports every
/// tick, as in the paper's §6.1 model: an entity that skips a tick is
/// placed by its cluster's motion, and which cluster that is depends on
/// arrival order. Engine state is not compared, for the same reason.
#[test]
fn within_tick_reorder_changes_no_answer() {
    check("within_tick_reorder_changes_no_answer", CASES, |rng| {
        use scuba_stream::{FaultInjector, FaultPlan};
        let mut current: BTreeMap<EntityRef, LocationUpdate> = BTreeMap::new();
        let batches = vec(rng, 1..4, |r| {
            let fresh = updates(r, 40);
            let mut last = BTreeMap::new();
            for (i, u) in fresh.iter().enumerate() {
                last.insert(u.entity, i);
            }
            // Fresh reports in generator order, then every other known
            // entity's previous report again.
            let mut batch: Vec<LocationUpdate> = fresh
                .into_iter()
                .enumerate()
                .filter(|(i, u)| last[&u.entity] == *i)
                .map(|(_, u)| u)
                .collect();
            batch.extend(
                current
                    .values()
                    .filter(|u| !last.contains_key(&u.entity))
                    .copied(),
            );
            for u in &batch {
                current.insert(u.entity, *u);
            }
            batch
        });
        let mut transport = FaultInjector::new(FaultPlan {
            seed: rng.next_u64(),
            reorder_prob: 1.0,
            ..FaultPlan::default()
        });
        let mut in_order = ScubaOperator::new(ScubaParams::default(), area());
        let mut shuffled = ScubaOperator::new(ScubaParams::default(), area());
        for (tick, batch) in batches.into_iter().enumerate() {
            let now = (tick as u64 + 1) * 2;
            in_order.process_batch(&batch);
            shuffled.process_batch(&transport.apply_tick(batch));
            assert_eq!(
                in_order.evaluate(now).results,
                shuffled.evaluate(now).results,
                "tick {tick}"
            );
        }
    });
}

/// Partial shedding with η = 0 behaves exactly like no shedding.
#[test]
fn zero_eta_is_exact() {
    check("zero_eta_is_exact", CASES, |rng| {
        let updates = updates(rng, 40);
        let a = ScubaParams::default();
        let b = a.with_shedding(SheddingMode::Partial { eta: 0.0 });
        let mut exact = ScubaOperator::new(a, area());
        let mut zero = ScubaOperator::new(b, area());
        for u in &updates {
            exact.process_update(u);
            zero.process_update(u);
        }
        assert_eq!(exact.evaluate(2).results, zero.evaluate(2).results);
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

/// Engine snapshots round-trip through a binary checkpoint on arbitrary engine states
/// and restore to an engine with identical join results.
#[test]
fn snapshot_roundtrip_preserves_results() {
    check("snapshot_roundtrip_preserves_results", CASES, |rng| {
        use scuba::durability::{decode_checkpoint, encode_checkpoint};
        use scuba::{EngineSnapshot, QueryRegistry};
        let updates = updates(rng, 60);
        let mut op = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            op.process_update(u);
        }
        let snapshot = EngineSnapshot::capture(op.engine());
        let bytes = encode_checkpoint(
            2,
            std::slice::from_ref(&snapshot),
            &QueryRegistry::default(),
        );
        let mut decoded = decode_checkpoint(&bytes).unwrap().stripes;
        assert_eq!(decoded, [snapshot]);
        let parsed = decoded.pop().unwrap();
        let restored = parsed.restore().unwrap();
        restored.check_invariants();

        let mut restored_op = ScubaOperator::from_engine(restored);
        let a = op.evaluate(2).results;
        let b = restored_op.evaluate(2).results;
        assert_eq!(a, b);
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
/// clusters gives the same answers as the incremental engine and the
/// grid baseline — the two-phase join is correct for any clustering.
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
        let via_kmeans = outcome.join().results;

        let mut regular = RegularGridOperator::new(params.grid_cells, area());
        // K-means dedups to the latest update per entity; feed the baseline
        // the same way (later updates overwrite earlier ones anyway).
        for u in &updates {
            regular.process_update(u);
        }
        let truth = regular.evaluate(2).results;
        assert_eq!(via_kmeans, truth);
    });
}

/// Pinned regression for the staged pipeline: on a fixed seeded workload
/// SCUBA must keep reproducing the exact grid-baseline answers (the
/// pre-pipeline behaviour).
#[test]
fn scuba_matches_baseline_on_seeded_workload() {
    let nodes = [
        Point::new(0.0, 500.0),
        Point::new(1000.0, 500.0),
        Point::new(500.0, 0.0),
        Point::new(500.0, 1000.0),
    ];
    // Deterministic LCG so the workload is identical on every run.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };

    let params = ScubaParams::default();
    let mut scuba = ScubaOperator::new(params, area());
    let mut regular = RegularGridOperator::new(params.grid_cells, area());
    // One guaranteed co-located object/query pair so the run is never
    // vacuously empty.
    let seed_loc = Point::new(500.0, 500.0);
    let mut updates = vec![
        LocationUpdate::object(
            ObjectId(999),
            seed_loc,
            0,
            20.0,
            nodes[1],
            ObjectAttrs::default(),
        ),
        LocationUpdate::query(
            QueryId(999),
            seed_loc,
            0,
            20.0,
            nodes[1],
            QueryAttrs {
                spec: QuerySpec::square_range(50.0),
            },
        ),
    ];
    for id in 0..80u64 {
        let loc = Point::new(next(1000) as f64, next(1000) as f64);
        let cn = nodes[next(4) as usize];
        let speed = 5.0 + next(40) as f64;
        if next(2) == 0 {
            updates.push(LocationUpdate::object(
                ObjectId(id),
                loc,
                0,
                speed,
                cn,
                ObjectAttrs::default(),
            ));
        } else {
            updates.push(LocationUpdate::query(
                QueryId(id),
                loc,
                0,
                speed,
                cn,
                QueryAttrs {
                    spec: QuerySpec::square_range(10.0 + next(70) as f64),
                },
            ));
        }
    }
    for u in &updates {
        scuba.process_update(u);
        regular.process_update(u);
    }
    let s = scuba.evaluate(2);
    let r = regular.evaluate(2);
    assert!(!s.results.is_empty(), "seeded workload produces matches");
    assert_eq!(s.results, r.results);
    // The staged breakdown is present and consistent with the legacy
    // accessors.
    assert!(!s.phases.is_empty());
    assert_eq!(s.total_time(), s.join_time() + s.maintenance_time());
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
