//! Property-based tests for the SCUBA core.
//!
//! The central property is **result equivalence**: with no load shedding
//! and every entity reporting, SCUBA's two-phase cluster join must produce
//! exactly the same result set as the regular grid-based join over the same
//! updates — the pre-filter may only prune pairs that cannot match.

use proptest::prelude::*;

use scuba::baseline::RegularGridOperator;
use scuba::{
    IncrementalGridOperator, QueryIndexOperator, ScubaOperator, ScubaParams, SheddingMode,
    VciConfig, VciOperator,
};
use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
use scuba_spatial::{Point, Rect};
use scuba_stream::ContinuousOperator;

const AREA: f64 = 1000.0;

/// A compact generator of update batches: positions on a bounded area,
/// speeds in a small range, destinations drawn from a handful of "nodes"
/// (so direction matches actually occur).
fn arb_updates(max_entities: usize) -> impl Strategy<Value = Vec<LocationUpdate>> {
    let nodes = [
        Point::new(0.0, 500.0),
        Point::new(1000.0, 500.0),
        Point::new(500.0, 0.0),
        Point::new(500.0, 1000.0),
    ];
    prop::collection::vec(
        (
            0u64..40,      // entity id
            any::<bool>(), // object or query
            0.0..AREA,     // x
            0.0..AREA,     // y
            5.0..50.0f64,  // speed
            0usize..4,     // destination node index
            5.0..80.0f64,  // query range side
        ),
        1..max_entities,
    )
    .prop_map(move |rows| {
        rows.into_iter()
            .map(|(id, is_query, x, y, speed, node, side)| {
                let loc = Point::new(x, y);
                let cn = nodes[node];
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
            .collect()
    })
}

fn area() -> Rect {
    Rect::square(AREA)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SCUBA without shedding ≡ REGULAR ≡ Q-INDEX ≡ SINA-GRID ≡ VCI on a
    /// single evaluation: five structurally different strategies, one
    /// answer.
    #[test]
    fn exact_operators_agree_single_interval(
        updates in arb_updates(60),
        grid_cells in 1u32..40,
    ) {
        let params = ScubaParams::default().with_grid_cells(grid_cells);
        let mut scuba = ScubaOperator::new(params, area());
        let mut regular = RegularGridOperator::new(grid_cells, area());
        let mut qindex = QueryIndexOperator::new();
        let mut sina = IncrementalGridOperator::new(grid_cells, area());
        let mut vci = VciOperator::new(VciConfig::default());
        for u in &updates {
            scuba.process_update(u);
            regular.process_update(u);
            qindex.process_update(u);
            sina.process_update(u);
            vci.process_update(u);
        }
        let s = scuba.evaluate(2).results;
        let r = regular.evaluate(2).results;
        let q = qindex.evaluate(2).results;
        let i = sina.evaluate(2).results;
        let v = vci.evaluate(2).results;
        prop_assert_eq!(&s, &r);
        prop_assert_eq!(&s, &q);
        prop_assert_eq!(&s, &i);
        prop_assert_eq!(&s, &v);
    }

    /// Equivalence also holds across several intervals when every entity
    /// re-reports each interval (so SCUBA's relocated clusters are always
    /// refreshed with exact positions before the next join).
    #[test]
    fn scuba_equals_regular_across_intervals(
        batches in prop::collection::vec(arb_updates(40), 1..4),
    ) {
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
            prop_assert_eq!(s, r, "interval {}", i);
        }
    }

    /// The cluster invariants hold after arbitrary update sequences.
    #[test]
    fn clustering_invariants_hold(updates in arb_updates(80)) {
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            scuba.process_update(u);
        }
        scuba.engine().check_invariants();
        scuba.evaluate(2);
        scuba.engine().check_invariants();
    }

    /// Every member's admission respected Θ_D at the time it joined: the
    /// radius of any cluster is bounded by Θ_D plus accumulated centroid
    /// drift, which itself is bounded by Θ_D per absorption — so radius can
    /// never exceed member count × Θ_D (a sanity bound, not tight).
    #[test]
    fn radius_is_bounded(updates in arb_updates(60)) {
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            scuba.process_update(u);
        }
        for c in scuba.engine().clusters().values() {
            let bound = (c.len() as f64) * scuba.engine().params().theta_d + 1e-6;
            prop_assert!(c.radius() <= bound, "radius {} members {}", c.radius(), c.len());
        }
    }

    /// Shed members are approximated by their cluster centroid, so when
    /// every entity of a cluster sits at the same point (degenerate,
    /// radius-0 clusters) the approximation is exact: full shedding must
    /// produce exactly the unshed results.
    #[test]
    fn full_shedding_exact_on_point_clusters(
        spots in prop::collection::hash_map(
            0usize..16,
            (0usize..4, 1usize..5, 1usize..4),
            1..6,
        ),
    ) {
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
                    ObjectId(oid), loc, 0, 20.0, cn, ObjectAttrs::default(),
                ));
                oid += 1;
            }
            for _ in 0..n_qry {
                updates.push(LocationUpdate::query(
                    QueryId(qid), loc, 0, 20.0, cn,
                    QueryAttrs { spec: QuerySpec::square_range(40.0) },
                ));
                qid += 1;
            }
        }
        let exact_params = ScubaParams::default();
        let shed_params = exact_params.with_shedding(SheddingMode::Full);
        let mut exact = ScubaOperator::new(exact_params, area());
        let mut shed = ScubaOperator::new(shed_params, area());
        for u in &updates {
            exact.process_update(u);
            shed.process_update(u);
        }
        let truth = exact.evaluate(2).results;
        let measured = shed.evaluate(2).results;
        prop_assert_eq!(truth, measured);
    }

    /// The store-backed engine's reports are a pure function of the
    /// durable entity state: parallelism {1, 2, 4} × join cache {on, off}
    /// all agree on every tick — the dense slot tables, the sorted pair
    /// dedup and the epoch-keyed cache change work, never answers.
    #[test]
    fn parallelism_and_cache_do_not_change_results(
        batches in prop::collection::vec(arb_updates(40), 1..3),
    ) {
        let configs: Vec<ScubaParams> = [1usize, 2, 4]
            .iter()
            .flat_map(|&p| {
                [true, false].iter().map(move |&cache| {
                    ScubaParams::default()
                        .with_parallelism(p)
                        .with_join_cache(cache)
                })
            })
            .collect();
        let mut ops: Vec<ScubaOperator> = configs
            .iter()
            .map(|&params| ScubaOperator::new(params, area()))
            .collect();
        for (tick, batch) in batches.iter().enumerate() {
            let now = (tick as u64 + 1) * 2;
            let mut reference: Option<Vec<scuba_stream::QueryMatch>> = None;
            for (op, params) in ops.iter_mut().zip(&configs) {
                for u in batch {
                    op.process_update(u);
                }
                let results = op.evaluate(now).results;
                match &reference {
                    None => reference = Some(results),
                    Some(expected) => prop_assert_eq!(
                        &results,
                        expected,
                        "tick {}: parallelism {} cache {} diverged",
                        tick,
                        params.parallelism,
                        params.join_cache
                    ),
                }
            }
        }
    }

    /// `parallelism` sets join-within workers and nothing else: ticks
    /// delivered in any within-tick order (what a reordering transport
    /// produces) leave the same answers *and* the same engine state at
    /// parallelism {1, 2, 4}.
    #[test]
    fn parallelism_does_not_change_engine_state_on_shuffled_ticks(
        batches in prop::collection::vec(arb_updates(40), 1..4),
        seed in any::<u64>(),
    ) {
        use scuba::EngineSnapshot;
        use scuba_stream::{FaultInjector, FaultPlan};
        // The injector Fisher–Yates-shuffles every tick it delivers.
        let mut transport = FaultInjector::new(FaultPlan {
            seed,
            reorder_prob: 1.0,
            ..FaultPlan::default()
        });
        let batches: Vec<_> = batches.into_iter().map(|b| transport.apply_tick(b)).collect();
        let mut ops: Vec<ScubaOperator> = [1usize, 2, 4]
            .iter()
            .map(|&p| ScubaOperator::new(ScubaParams::default().with_parallelism(p), area()))
            .collect();
        for (tick, batch) in batches.iter().enumerate() {
            let now = (tick as u64 + 1) * 2;
            let mut reference = None;
            for op in &mut ops {
                op.process_batch(batch);
                let results = op.evaluate(now).results;
                // The worker count itself is part of a snapshot's params.
                let state = EngineSnapshot {
                    params: ScubaParams::default(),
                    ..EngineSnapshot::capture(op.engine())
                };
                match &reference {
                    None => reference = Some((results, state)),
                    Some(expected) => prop_assert_eq!(
                        &(results, state),
                        expected,
                        "tick {}: parallelism {} diverged",
                        tick,
                        op.engine().params().parallelism
                    ),
                }
            }
        }
    }

    /// The adaptive split/merge grid is answer-invisible: at every tick it
    /// produces exactly the uniform grid's results across parallelism
    /// {1, 2, 4} × join cache {on, off}. Refinement redirects candidate
    /// discovery (work), never results — the ISSUE 6 identity contract.
    #[test]
    fn adaptive_index_matches_uniform(
        batches in prop::collection::vec(arb_updates(40), 1..3),
    ) {
        use scuba::IndexKind;
        // Aggressive thresholds so random batches actually split cells.
        let adaptive_base = ScubaParams::default()
            .with_index(IndexKind::Adaptive)
            .with_split_merge(4, 1);
        let configs: Vec<ScubaParams> = [1usize, 2, 4]
            .iter()
            .flat_map(|&p| {
                [true, false].iter().flat_map(move |&cache| {
                    [ScubaParams::default(), adaptive_base]
                        .map(|base| base.with_parallelism(p).with_join_cache(cache))
                })
            })
            .collect();
        let mut ops: Vec<ScubaOperator> = configs
            .iter()
            .map(|&params| ScubaOperator::new(params, area()))
            .collect();
        for (tick, batch) in batches.iter().enumerate() {
            let now = (tick as u64 + 1) * 2;
            let mut reference: Option<Vec<scuba_stream::QueryMatch>> = None;
            for (op, params) in ops.iter_mut().zip(&configs) {
                for u in batch {
                    op.process_update(u);
                }
                let results = op.evaluate(now).results;
                op.engine().check_invariants();
                match &reference {
                    None => reference = Some(results),
                    Some(expected) => prop_assert_eq!(
                        &results,
                        expected,
                        "tick {}: index {} parallelism {} cache {} diverged",
                        tick,
                        params.index,
                        params.parallelism,
                        params.join_cache
                    ),
                }
            }
        }
    }

    /// Partial shedding with η = 0 behaves exactly like no shedding.
    #[test]
    fn zero_eta_is_exact(updates in arb_updates(40)) {
        let a = ScubaParams::default();
        let b = a.with_shedding(SheddingMode::Partial { eta: 0.0 });
        let mut exact = ScubaOperator::new(a, area());
        let mut zero = ScubaOperator::new(b, area());
        for u in &updates {
            exact.process_update(u);
            zero.process_update(u);
        }
        prop_assert_eq!(exact.evaluate(2).results, zero.evaluate(2).results);
    }

    /// Accuracy accounting: comparing any result set against itself is
    /// perfect, and against the empty set penalises every tuple.
    #[test]
    fn accuracy_report_axioms(updates in arb_updates(40)) {
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            scuba.process_update(u);
        }
        let results = scuba.evaluate(2).results;
        let self_cmp = scuba::AccuracyReport::compare(&results, &results);
        prop_assert_eq!(self_cmp.accuracy(), 1.0);
        let empty_cmp = scuba::AccuracyReport::compare(&results, &[]);
        prop_assert_eq!(empty_cmp.false_negatives, results.len());
        if results.is_empty() {
            prop_assert_eq!(empty_cmp.accuracy(), 1.0);
        } else {
            prop_assert_eq!(empty_cmp.accuracy(), 0.0);
        }
    }

    /// Ablation soundness: disabling the member-level reach filter and the
    /// radius tightening changes work, never answers.
    #[test]
    fn ablation_knobs_do_not_change_results(updates in arb_updates(60)) {
        let base = ScubaParams::default();
        let mut plain = ScubaOperator::new(base, area());
        let mut unfiltered = ScubaOperator::new(
            ScubaParams { member_filter: false, ..base },
            area(),
        );
        let mut untightened = ScubaOperator::new(
            ScubaParams { tighten_radii: false, ..base },
            area(),
        );
        for u in &updates {
            plain.process_update(u);
            unfiltered.process_update(u);
            untightened.process_update(u);
        }
        let truth = plain.evaluate(2);
        let unf = unfiltered.evaluate(2);
        let unt = untightened.evaluate(2);
        prop_assert_eq!(&truth.results, &unf.results);
        prop_assert_eq!(&truth.results, &unt.results);
        // The filter can only reduce exact comparisons.
        prop_assert!(truth.comparisons <= unf.comparisons);
    }

    /// The own-cell probe (the literal §3.2 reading) also never changes
    /// answers — clustering granularity affects work, not the exact join.
    #[test]
    fn own_cell_probe_same_results(updates in arb_updates(50)) {
        use scuba::params::ProbeScope;
        let base = ScubaParams::default();
        let mut disk = ScubaOperator::new(base, area());
        let mut cell = ScubaOperator::new(
            ScubaParams { probe_scope: ProbeScope::OwnCell, ..base },
            area(),
        );
        for u in &updates {
            disk.process_update(u);
            cell.process_update(u);
        }
        let a = disk.evaluate(2);
        let b = cell.evaluate(2);
        prop_assert_eq!(a.results, b.results);
        // Fragmentation: the own-cell probe can only produce at least as
        // many clusters (it sees a subset of the disk probe's candidates).
        prop_assert!(
            cell.engine().cluster_count() >= disk.engine().cluster_count()
        );
    }

    /// The join-between pre-filter only ever prunes (never adds) work:
    /// comparisons with the pre-filter are a subset of the all-pairs count.
    #[test]
    fn prefilter_reduces_comparisons(updates in arb_updates(60)) {
        let mut scuba = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            scuba.process_update(u);
        }
        let objects: usize = scuba
            .engine()
            .clusters()
            .values()
            .map(|c| c.object_count())
            .sum();
        let queries: usize = scuba
            .engine()
            .clusters()
            .values()
            .map(|c| c.query_count())
            .sum();
        let report = scuba.evaluate(2);
        prop_assert!(report.comparisons <= (objects * queries) as u64);
    }


    /// Engine snapshots round-trip through JSON on arbitrary engine states
    /// and restore to an engine with identical join results.
    #[test]
    fn snapshot_roundtrip_preserves_results(updates in arb_updates(60)) {
        use scuba::EngineSnapshot;
        let mut op = ScubaOperator::new(ScubaParams::default(), area());
        for u in &updates {
            op.process_update(u);
        }
        let snapshot = EngineSnapshot::capture(op.engine());
        let parsed = EngineSnapshot::from_json(&snapshot.to_json()).unwrap();
        prop_assert_eq!(&parsed, &snapshot);
        let restored = parsed.restore().unwrap();
        restored.check_invariants();

        let mut restored_op = ScubaOperator::from_engine(restored);
        let a = op.evaluate(2).results;
        let b = restored_op.evaluate(2).results;
        prop_assert_eq!(a, b);
    }

    /// DeltaTracker: replaying the emitted deltas from the initial state
    /// always reconstructs the latest snapshot (observe/replay inverse).
    #[test]
    fn delta_replay_inverts_observe(
        batches in prop::collection::vec(arb_updates(30), 1..5),
    ) {
        use scuba::DeltaTracker;
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
        prop_assert_eq!(DeltaTracker::replay(&[], &deltas), last);
    }


    /// Exactness is clustering-independent: joining over *offline K-means*
    /// clusters gives the same answers as the incremental engine and the
    /// grid baseline — the two-phase join is correct for any clustering.
    #[test]
    fn kmeans_join_is_exact(updates in arb_updates(50), k in 1usize..12, iters in 1u32..4) {
        use scuba::kmeans::{kmeans_cluster, KMeansConfig};
        let params = ScubaParams::default();

        let outcome = kmeans_cluster(
            &updates,
            KMeansConfig { iterations: iters, k: Some(k) },
            &params,
            area(),
        );
        let via_kmeans = outcome.join(&params).results;

        let mut regular = RegularGridOperator::new(params.grid_cells, area());
        // K-means dedups to the latest update per entity; feed the baseline
        // the same way (later updates overwrite earlier ones anyway).
        for u in &updates {
            regular.process_update(u);
        }
        let truth = regular.evaluate(2).results;
        prop_assert_eq!(via_kmeans, truth);
    }

    /// The epoch-coherent join cache is invisible: an operator carrying
    /// its [`scuba::JoinCache`] across Δ-epochs produces bit-identical
    /// results to a from-scratch (cache-disabled) operator at every epoch
    /// and every worker count. Each case drives 3–5 epochs of fresh churn
    /// at parallelism 1/2/4/8 — across the 64 cases the property covers
    /// hundreds of randomized epochs.
    #[test]
    fn incremental_join_matches_full_recomputation(
        batches in prop::collection::vec(arb_updates(30), 3..6),
    ) {
        for workers in [1usize, 2, 4, 8] {
            let base = ScubaParams::default().with_parallelism(workers);
            let mut cached = ScubaOperator::new(base.with_join_cache(true), area());
            let mut uncached = ScubaOperator::new(base.with_join_cache(false), area());
            for (e, batch) in batches.iter().enumerate() {
                // Feed only this epoch's churn — clusters the batch does
                // not touch stay clean, so the cached operator genuinely
                // replays entries rather than recomputing everything.
                for u in batch {
                    cached.process_update(u);
                    uncached.process_update(u);
                }
                let now = (e as u64 + 1) * 2;
                let hot = cached.evaluate(now);
                let cold = uncached.evaluate(now);
                prop_assert_eq!(
                    &hot.results, &cold.results,
                    "workers {} epoch {}", workers, e
                );
                // The cache only ever removes work, never adds it.
                prop_assert!(
                    hot.comparisons <= cold.comparisons,
                    "workers {} epoch {}: cached did more member work", workers, e
                );
            }
        }
    }

    /// Join-within parallelism is invisible: every worker count yields the
    /// identical sorted result set and identical work counters — the merge
    /// stage erases thread interleaving, and the per-pair counters are
    /// independent of which worker ran the pair.
    #[test]
    fn parallelism_does_not_change_results(updates in arb_updates(60)) {
        let base = ScubaParams::default();
        let mut serial = ScubaOperator::new(base.with_parallelism(1), area());
        let mut parallel: Vec<(usize, ScubaOperator)> = [2usize, 4, 8]
            .iter()
            .map(|&w| (w, ScubaOperator::new(base.with_parallelism(w), area())))
            .collect();
        for u in &updates {
            serial.process_update(u);
            for (_, op) in &mut parallel {
                op.process_update(u);
            }
        }
        let truth = serial.evaluate(2);
        for (workers, op) in &mut parallel {
            let report = op.evaluate(2);
            prop_assert_eq!(&truth.results, &report.results, "workers {}", workers);
            prop_assert_eq!(truth.comparisons, report.comparisons, "workers {}", workers);
            prop_assert_eq!(
                truth.prefilter_tests, report.prefilter_tests,
                "workers {}", workers
            );
        }
    }
}

/// Pinned regression for the staged pipeline: at the default
/// `parallelism = 1` the join-within runs the serial path, and on a fixed
/// seeded workload SCUBA must keep reproducing the exact grid-baseline
/// answers (the pre-pipeline behaviour).
#[test]
fn parallelism_one_matches_baseline_on_seeded_workload() {
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

    let params = ScubaParams::default().with_parallelism(1);
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

/// Deterministic low-churn companion to
/// `incremental_join_matches_full_recomputation`: four stationary convoys
/// are ingested once; from the second epoch on only one of them re-reports.
/// The three silent convoys are admitted to the cache in the second epoch
/// (clean since the first) and must replay from it on every later one
/// (hits strictly positive), the churned convoy must recompute (misses
/// strictly positive), and every epoch's results must match a
/// cache-disabled twin bit-for-bit.
#[test]
fn incremental_join_low_churn_replays_from_cache() {
    use scuba::join::STAGE_JOIN_WITHIN;

    let centres = [
        Point::new(200.0, 200.0),
        Point::new(200.0, 700.0),
        Point::new(700.0, 200.0),
        Point::new(700.0, 700.0),
    ];
    // Speed-0 convoy far from its destination node: `advance` never moves
    // the centroid, so the cluster stays epoch-clean while silent.
    let cn = Point::new(0.0, 0.0);
    let convoy = |tag: u64, centre: Point, time: u64| -> Vec<LocationUpdate> {
        let mut updates: Vec<LocationUpdate> = (0..5u64)
            .map(|k| {
                LocationUpdate::object(
                    ObjectId(tag * 10 + k),
                    Point::new(centre.x + k as f64, centre.y),
                    time,
                    0.0,
                    cn,
                    ObjectAttrs::default(),
                )
            })
            .collect();
        updates.push(LocationUpdate::query(
            QueryId(tag),
            Point::new(centre.x + 2.0, centre.y + 1.0),
            time,
            0.0,
            cn,
            QueryAttrs {
                spec: QuerySpec::square_range(40.0),
            },
        ));
        updates
    };

    let base = ScubaParams::default();
    let mut cached = ScubaOperator::new(base.with_join_cache(true), area());
    let mut uncached = ScubaOperator::new(base.with_join_cache(false), area());
    let mut total_hits = 0u64;
    for epoch in 1..=6u64 {
        let now = epoch * 2;
        if epoch == 1 {
            for (tag, centre) in centres.iter().enumerate() {
                for u in convoy(tag as u64 + 1, *centre, 0) {
                    cached.process_update(&u);
                    uncached.process_update(&u);
                }
            }
        } else {
            // Low churn: only convoy 1 re-reports (same positions — the
            // refresh dirties its cluster without changing the answer).
            for u in convoy(1, centres[0], now - 1) {
                cached.process_update(&u);
                uncached.process_update(&u);
            }
        }
        let hot = cached.evaluate(now);
        let cold = uncached.evaluate(now);
        assert_eq!(hot.results, cold.results, "epoch {epoch}");
        assert!(!hot.results.is_empty(), "epoch {epoch} finds matches");
        let within = hot.phases.get(STAGE_JOIN_WITHIN).expect("within stage");
        if epoch >= 3 {
            assert!(
                within.cache_hits > 0,
                "epoch {epoch}: silent convoys replay from the cache"
            );
        }
        if epoch >= 2 {
            assert!(
                within.cache_misses > 0,
                "epoch {epoch}: the churned convoy recomputes"
            );
        }
        total_hits += within.cache_hits;
    }
    assert!(
        total_hits >= 3 * 4,
        "three convoys × four warm epochs replay"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adaptive shedding is a pure function of the observed tick costs:
    /// two controllers fed the identical timing stream take identical
    /// decisions at every tick and end with identical ledgers. This is
    /// what makes overload incidents replayable from a recorded trace.
    #[test]
    fn overload_controller_is_deterministic(
        costs in prop::collection::vec(0u64..5_000, 1..64),
        deadline_us in 1u64..2_500,
    ) {
        use std::time::Duration;
        use scuba::{OverloadConfig, OverloadController};

        let config = OverloadConfig::with_deadline(Duration::from_micros(deadline_us));
        let mut a = OverloadController::new(config.clone());
        let mut b = OverloadController::new(config);
        for &us in &costs {
            let cost = Duration::from_micros(us);
            prop_assert_eq!(a.observe(cost), b.observe(cost));
            prop_assert_eq!(a.current(), b.current());
        }
        prop_assert_eq!(a.counters(), b.counters());
    }

    /// A stream that always meets its deadline never sheds: the
    /// controller records only clean ticks and the mode stays `None`.
    #[test]
    fn overload_controller_idles_on_clean_streams(
        costs in prop::collection::vec(0u64..=1_000, 1..64),
    ) {
        use std::time::Duration;
        use scuba::{OverloadConfig, OverloadController, SheddingMode};

        let mut ctrl = OverloadController::new(OverloadConfig::with_deadline(
            Duration::from_micros(1_000),
        ));
        for &us in &costs {
            ctrl.observe(Duration::from_micros(us));
            prop_assert_eq!(ctrl.current(), SheddingMode::None);
        }
        let k = ctrl.counters();
        prop_assert_eq!(k.misses, 0);
        prop_assert_eq!(k.escalations, 0);
    }
}
