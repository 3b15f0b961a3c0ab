//! Edge-case tests for [`scuba::JoinCache`] invalidation.
//!
//! The cache's contract is simple — a pair replays iff **both** clusters
//! are clean since the entry was computed, and an entry is only admitted
//! once both clusters have been clean across a whole round (so a pair is
//! computed twice before its first replay: [`warmed`] runs that admitting
//! round) — but the mutations that dirty a
//! cluster arrive from many directions: explicit dissolution, load-shedding
//! escalation, staleness eviction, snapshot restoration. Each test here
//! drives [`scuba::clustering::ClusterEngine`] (or the full operator)
//! through one such mutation mid-stream and asserts two things: the cached
//! run still matches a from-scratch join bit-for-bit, and the cache
//! counters show the invalidation actually happened (no silent stale
//! replay).

use scuba::clustering::ClusterEngine;
use scuba::join::{JoinOutput, STAGE_JOIN_WITHIN};
use scuba::{
    EngineSnapshot, JoinCache, JoinContext, JoinScratch, ScubaOperator, ScubaParams, SheddingMode,
};
use scuba_motion::{
    ControlOp, EntityRef, LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec,
};
use scuba_spatial::{Point, Rect};
use scuba_stream::ContinuousOperator;

const AREA: f64 = 1000.0;

/// Shared destination node, far from every convoy: speed-0 clusters never
/// pass it, so silent convoys stay epoch-clean across evaluations.
const CN: Point = Point { x: 0.0, y: 0.0 };

/// Ingests one stationary convoy: `n_objects` objects clustered around
/// `centre` plus one range query, all sharing [`CN`].
fn convoy(engine: &mut ClusterEngine, tag: u64, centre: Point, n_objects: u64, time: u64) {
    for k in 0..n_objects {
        engine.process_update(&LocationUpdate::object(
            ObjectId(tag * 100 + k),
            Point::new(centre.x + k as f64, centre.y),
            time,
            0.0,
            CN,
            ObjectAttrs::default(),
        ));
    }
    engine.process_update(&LocationUpdate::query(
        QueryId(tag),
        Point::new(centre.x + 1.0, centre.y + 1.0),
        time,
        0.0,
        CN,
        QueryAttrs {
            spec: QuerySpec::square_range(40.0),
        },
    ));
}

/// Runs the cached join over the engine's current state and asserts the
/// core invariant in passing: the cached output always equals a
/// from-scratch [`JoinContext::run`] over the same state.
fn joined(
    engine: &mut ClusterEngine,
    cache: &mut JoinCache,
    scratch: &mut JoinScratch,
) -> JoinOutput {
    // The region index is brought up to date once per Δ, right before the
    // join — here that is this helper's job.
    engine.sync_index();
    assert!(engine.index_is_current());
    let engine = &*engine;
    let ctx = JoinContext {
        store: engine.store(),
        grid: engine.grid(),
        queries: engine.queries(),
        shedding: engine.params().shedding,
        theta_d: engine.params().theta_d,
        member_filter: engine.params().member_filter,
        parallelism: 1,
        kernel: engine.params().kernel,
    };
    let fresh = ctx.run();
    let out = ctx.run_cached(Some(engine.epochs()), cache, scratch);
    assert_eq!(
        out.results, fresh.results,
        "cached join diverged from from-scratch recomputation"
    );
    out
}

/// One quiet round that replays nothing yet: pairs computed while dirty in
/// the round before are computed once more, found clean, and admitted.
fn warmed(engine: &mut ClusterEngine, cache: &mut JoinCache, scratch: &mut JoinScratch) {
    let admitting = joined(engine, cache, scratch);
    assert!(admitting.cache_misses > 0 && !cache.is_empty());
}

/// A cluster dissolved between evaluations must neither replay from the
/// cache nor leave its entry behind: its members are homeless, its matches
/// vanish, and the orphaned entry is swept (counted as an invalidation).
#[test]
fn dissolve_mid_epoch_invalidates_cached_pair() {
    let mut engine = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    convoy(&mut engine, 1, Point::new(200.0, 200.0), 4, 0);
    convoy(&mut engine, 2, Point::new(700.0, 700.0), 4, 0);
    let (mut cache, mut scratch) = (JoinCache::new(), JoinScratch::new());

    let cold = joined(&mut engine, &mut cache, &mut scratch);
    assert!(!cold.results.is_empty(), "both convoys produce matches");
    assert_eq!(cold.cache_hits, 0, "first epoch is all misses");
    assert!(cold.cache_misses >= 2, "one pair per convoy computed");
    assert!(cache.is_empty(), "nothing is admitted on first sight");

    warmed(&mut engine, &mut cache, &mut scratch);
    let warm = joined(&mut engine, &mut cache, &mut scratch);
    assert_eq!(warm.results, cold.results);
    assert!(warm.cache_hits >= 2, "silent epoch replays every pair");
    assert_eq!(warm.cache_misses, 0);

    let slot = engine
        .home()
        .cluster_of(EntityRef::Query(QueryId(2)))
        .expect("query 2 is clustered");
    let cid = engine.cluster_at(slot).expect("slot is live").cid;
    engine.dissolve(cid);
    engine.check_invariants();

    let after = joined(&mut engine, &mut cache, &mut scratch);
    assert!(
        after.results.len() < warm.results.len(),
        "the dissolved convoy's matches disappear"
    );
    assert!(after.cache_hits >= 1, "the surviving convoy still replays");
    assert!(
        after.cache_invalidations >= 1,
        "the dissolved pair's entry is swept, not kept"
    );
}

/// Load-shedding escalation none → partial → full dirties exactly the
/// clusters it strips positions from: each escalation that discards
/// something forces a recompute (no stale replay of pre-shed matches),
/// and the recomputed results still match a from-scratch join over the
/// shed state.
#[test]
fn shedding_escalation_dirties_cached_pairs() {
    let mut engine = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    // One convoy with members at mixed radii (≈25 and ≈55 from the
    // centroid) so partial shedding strips the inner ring and full
    // shedding still finds outer positions to discard.
    engine.process_update(&LocationUpdate::object(
        ObjectId(1),
        Point::new(500.0, 500.0),
        0,
        0.0,
        CN,
        ObjectAttrs::default(),
    ));
    engine.process_update(&LocationUpdate::object(
        ObjectId(2),
        Point::new(570.0, 500.0),
        0,
        0.0,
        CN,
        ObjectAttrs::default(),
    ));
    engine.process_update(&LocationUpdate::object(
        ObjectId(3),
        Point::new(500.0, 570.0),
        0,
        0.0,
        CN,
        ObjectAttrs::default(),
    ));
    engine.process_update(&LocationUpdate::query(
        QueryId(1),
        Point::new(501.0, 501.0),
        0,
        0.0,
        CN,
        QueryAttrs {
            spec: QuerySpec::square_range(200.0),
        },
    ));
    let (mut cache, mut scratch) = (JoinCache::new(), JoinScratch::new());

    let cold = joined(&mut engine, &mut cache, &mut scratch);
    assert!(!cold.results.is_empty());
    warmed(&mut engine, &mut cache, &mut scratch);
    let warm = joined(&mut engine, &mut cache, &mut scratch);
    assert!(warm.cache_hits >= 1, "unshed convoy replays");

    // none → partial: the inner ring (within η·Θ_D of the centroid) loses
    // its exact positions — a join-relevant mutation.
    engine.set_shedding(SheddingMode::Partial { eta: 0.4 });
    assert!(
        engine.shed_now() > 0,
        "partial shedding strips the inner ring"
    );
    let partial = joined(&mut engine, &mut cache, &mut scratch);
    assert_eq!(partial.cache_hits, 0, "no stale replay of pre-shed matches");
    assert!(partial.cache_misses >= 1);
    assert!(partial.cache_invalidations >= 1);

    // Quiet epochs under partial shedding are clean again.
    warmed(&mut engine, &mut cache, &mut scratch);
    let partial_warm = joined(&mut engine, &mut cache, &mut scratch);
    assert!(
        partial_warm.cache_hits >= 1,
        "shed state itself is cacheable"
    );

    // partial → full: the outer members lose their positions too.
    engine.set_shedding(SheddingMode::Full);
    assert!(
        engine.shed_now() > 0,
        "full shedding strips the outer members"
    );
    let full = joined(&mut engine, &mut cache, &mut scratch);
    assert_eq!(full.cache_hits, 0, "escalation invalidates again");
    assert!(full.cache_misses >= 1);
    assert!(full.cache_invalidations >= 1);
    engine.check_invariants();
}

/// [`ClusterEngine::evict_stale`] removing a cached pair's cluster: the
/// silent convoy empties out and dissolves, so its cached matches must
/// vanish rather than replay — an entity that stopped reporting is gone,
/// not merely mispositioned.
#[test]
fn evict_stale_drops_cached_pairs_cluster() {
    let mut engine = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    convoy(&mut engine, 1, Point::new(200.0, 200.0), 4, 0);
    convoy(&mut engine, 2, Point::new(700.0, 700.0), 4, 0);
    let (mut cache, mut scratch) = (JoinCache::new(), JoinScratch::new());

    let cold = joined(&mut engine, &mut cache, &mut scratch);
    warmed(&mut engine, &mut cache, &mut scratch);
    let warm = joined(&mut engine, &mut cache, &mut scratch);
    assert_eq!(warm.results, cold.results);
    assert!(warm.cache_hits >= 2);

    // Convoy 1 keeps reporting (same positions, fresh timestamps); convoy
    // 2 has been silent since t=0.
    convoy(&mut engine, 1, Point::new(200.0, 200.0), 4, 15);
    let evicted = engine.evict_stale(20, 8);
    assert!(evicted >= 5, "convoy 2's members all age out");
    engine.check_invariants();

    let after = joined(&mut engine, &mut cache, &mut scratch);
    assert!(
        after.results.len() < warm.results.len(),
        "the evicted convoy's matches disappear"
    );
    assert!(
        after.cache_invalidations >= 1,
        "the dissolved pair's entry is dropped"
    );
    // Convoy 1 was refreshed (fresh timestamps dirty its cluster), so it
    // recomputes this epoch, is admitted on the next quiet one and
    // replays from the one after.
    assert!(after.cache_misses >= 1);
    warmed(&mut engine, &mut cache, &mut scratch);
    let settled = joined(&mut engine, &mut cache, &mut scratch);
    assert!(settled.cache_hits >= 1, "the survivor warms back up");
}

/// [`ClusterEngine::remove_entity`] on a member of a cached pair's cluster
/// is a join-relevant mutation: the departed object's matches must vanish
/// on the next epoch instead of replaying from the stale entry, while
/// untouched clusters keep replaying.
#[test]
fn remove_entity_invalidates_cached_pair() {
    let mut engine = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    convoy(&mut engine, 1, Point::new(200.0, 200.0), 4, 0);
    convoy(&mut engine, 2, Point::new(700.0, 700.0), 4, 0);
    let (mut cache, mut scratch) = (JoinCache::new(), JoinScratch::new());

    let cold = joined(&mut engine, &mut cache, &mut scratch);
    assert!(!cold.results.is_empty());
    warmed(&mut engine, &mut cache, &mut scratch);
    let warm = joined(&mut engine, &mut cache, &mut scratch);
    assert_eq!(warm.results, cold.results);
    assert!(warm.cache_hits >= 2, "both convoys replay when quiet");

    // An object of convoy 2 deregisters (left the system, not merely
    // silent). Its cluster is dirtied; convoy 1 is untouched.
    let gone = EntityRef::Object(ObjectId(200));
    let slot = engine.home().cluster_of(gone).expect("object is clustered");
    let cid = engine.cluster_at(slot).expect("slot is live").cid;
    assert!(engine.remove_entity(gone), "entity was known");
    assert!(
        engine.home().cluster_of(gone).is_none(),
        "membership is gone"
    );
    engine.check_invariants();

    let after = joined(&mut engine, &mut cache, &mut scratch);
    assert!(
        after.results.len() < warm.results.len(),
        "the removed object's matches disappear"
    );
    assert!(
        !after.results.iter().any(|m| m.object == ObjectId(200)),
        "no stale match for the departed object"
    );
    assert!(
        after.cache_misses >= 1,
        "the mutated cluster's pair recomputes"
    );
    assert!(after.cache_hits >= 1, "the untouched convoy still replays");

    // The shrunken cluster is itself cacheable again once quiet.
    assert!(
        engine.cluster(cid).is_some(),
        "cluster survives the removal"
    );
    warmed(&mut engine, &mut cache, &mut scratch);
    let settled = joined(&mut engine, &mut cache, &mut scratch);
    assert_eq!(settled.results, after.results);
    assert!(settled.cache_hits >= 2, "everything replays when quiet");
}

/// A query deregistered through the control plane mid-tick: its cluster
/// shrinks (the other members stay), its cached join rows are purged —
/// never replayed — and the untouched convoy keeps replaying. Dirties
/// exactly the mutated cluster, not the whole cache.
#[test]
fn deregister_mid_tick_shrinks_cluster_and_purges_rows() {
    let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(AREA));
    let mut batch = Vec::new();
    // Convoy 1 around (200,200) with query 1; convoy 2 around (700,700)
    // with query 2 — the query clusters with its convoy's objects.
    for (tag, centre) in [(1u64, Point::new(200.0, 200.0)), (2, Point::new(700.0, 700.0))] {
        for k in 0..4u64 {
            batch.push(LocationUpdate::object(
                ObjectId(tag * 100 + k),
                Point::new(centre.x + k as f64, centre.y),
                1,
                0.0,
                CN,
                ObjectAttrs::default(),
            ));
        }
        batch.push(LocationUpdate::query(
            QueryId(tag),
            Point::new(centre.x + 1.0, centre.y + 1.0),
            1,
            0.0,
            CN,
            QueryAttrs {
                spec: QuerySpec::square_range(40.0),
            },
        ));
    }
    op.process_batch(&batch);
    let cold = op.evaluate(2);
    assert!(cold.results.iter().any(|m| m.query == QueryId(2)));
    op.evaluate(3); // the admitting round
    let warm = op.evaluate(4);
    assert!(
        warm.phases.get(STAGE_JOIN_WITHIN).unwrap().cache_hits > 0,
        "quiet epoch replays"
    );

    let slot = op
        .engine()
        .home()
        .cluster_of(EntityRef::Query(QueryId(2)))
        .expect("query 2 is clustered");
    op.apply_control(&[ControlOp::Deregister(QueryId(2))], 5);
    assert_eq!(op.control_gauges().deregistered_total, 1);
    assert_eq!(
        op.engine().home().cluster_of(EntityRef::Query(QueryId(2))),
        None,
        "membership dissolved on deregister"
    );
    assert!(
        op.engine().cluster_at(slot).is_some(),
        "the cluster survives — its objects still live there"
    );

    let after = op.evaluate(6);
    assert!(
        !after.results.iter().any(|m| m.query == QueryId(2)),
        "no stale match for the deregistered query"
    );
    assert!(
        after.results.iter().any(|m| m.query == QueryId(1)),
        "the untouched convoy keeps answering"
    );
    let within = after.phases.get(STAGE_JOIN_WITHIN).unwrap();
    assert!(
        within.cache_hits > 0,
        "convoy 1 replays — deregister dirtied only query 2's cluster"
    );
    op.engine().check_invariants();
}

/// Deregistering the last member of a cluster dissolves it outright, and
/// the freed slot is safely reused by a query registered afterwards: the
/// new query computes its pairs fresh (no inherited rows) and the answers
/// stay bit-identical to a cache-free twin through the whole lifecycle.
#[test]
fn deregister_last_member_dissolves_and_slot_reuse_is_clean() {
    let params = ScubaParams::default();
    let mut cached = ScubaOperator::new(params.with_join_cache(true), Rect::square(AREA));
    let mut twin = ScubaOperator::new(params.with_join_cache(false), Rect::square(AREA));

    // An object convoy, and a lone query far away in its own singleton
    // cluster (beyond Θ_D of everything).
    let mut batch: Vec<LocationUpdate> = (0..3u64)
        .map(|k| {
            LocationUpdate::object(
                ObjectId(k),
                Point::new(200.0 + k as f64, 200.0),
                1,
                0.0,
                CN,
                ObjectAttrs::default(),
            )
        })
        .collect();
    batch.push(LocationUpdate::query(
        QueryId(7),
        Point::new(900.0, 900.0),
        1,
        0.0,
        CN,
        QueryAttrs {
            spec: QuerySpec::square_range(40.0),
        },
    ));
    cached.process_batch(&batch);
    twin.process_batch(&batch);
    assert_eq!(cached.evaluate(2).results, twin.evaluate(2).results);

    let lone_slot = cached
        .engine()
        .home()
        .cluster_of(EntityRef::Query(QueryId(7)))
        .expect("lone query is clustered");
    let clusters_before = cached.engine().cluster_count();
    let ops = [ControlOp::Deregister(QueryId(7))];
    cached.apply_control(&ops, 3);
    twin.apply_control(&ops, 3);
    assert_eq!(
        cached.engine().cluster_count(),
        clusters_before - 1,
        "deregistering the last member dissolves the cluster"
    );
    assert!(
        cached.engine().cluster_at(lone_slot).is_none(),
        "the dissolved cluster's slot is vacated for reuse"
    );
    assert_eq!(cached.evaluate(4).results, twin.evaluate(4).results);

    // A new query registers right where the objects are; the store's LIFO
    // free list hands it the slot the dissolved cluster vacated.
    let ops = [ControlOp::Register(LocationUpdate::query(
        QueryId(8),
        Point::new(201.0, 201.0),
        5,
        0.0,
        CN,
        QueryAttrs {
            spec: QuerySpec::square_range(40.0),
        },
    ))];
    cached.apply_control(&ops, 5);
    twin.apply_control(&ops, 5);
    assert!(
        cached
            .engine()
            .home()
            .cluster_of(EntityRef::Query(QueryId(8)))
            .is_some(),
        "new query is clustered"
    );
    let a = cached.evaluate(6);
    let b = twin.evaluate(6);
    assert_eq!(a.results, b.results, "slot reuse never leaks stale rows");
    assert!(
        a.results.iter().any(|m| m.query == QueryId(8)),
        "the reused slot answers for its new occupant"
    );
    assert!(
        !a.results.iter().any(|m| m.query == QueryId(7)),
        "nothing answers for the dissolved query"
    );
    assert_eq!(cached.control_gauges().active_queries, 1);
    assert_eq!(cached.control_gauges().registered_total, 2);
    cached.engine().check_invariants();
}

/// Restoring from a snapshot resets the cache: the restored operator
/// starts cold (its first epoch recomputes every pair — no entries can
/// outlive the engine they were computed against), produces the same
/// results as the live operator, and then warms back up normally.
#[test]
fn snapshot_restore_resets_cache() {
    let mut op = ScubaOperator::new(ScubaParams::default(), Rect::square(AREA));
    for k in 0..5u64 {
        op.process_update(&LocationUpdate::object(
            ObjectId(k),
            Point::new(500.0 + k as f64, 500.0),
            0,
            0.0,
            CN,
            ObjectAttrs::default(),
        ));
    }
    op.process_update(&LocationUpdate::query(
        QueryId(1),
        Point::new(502.0, 501.0),
        0,
        0.0,
        CN,
        QueryAttrs {
            spec: QuerySpec::square_range(20.0),
        },
    ));
    op.evaluate(2);
    op.evaluate(3); // the admitting round
    let warm = op.evaluate(4);
    assert!(
        warm.phases.get(STAGE_JOIN_WITHIN).unwrap().cache_hits > 0,
        "live operator replays from its cache"
    );
    assert!(!op.join_cache().is_empty());

    let snapshot = EngineSnapshot::capture(op.engine());
    let restored = EngineSnapshot::from_json(&snapshot.to_json())
        .unwrap()
        .restore()
        .unwrap();
    let mut restored_op = ScubaOperator::from_engine(restored);
    assert!(
        restored_op.join_cache().is_empty(),
        "a restored operator starts with an empty cache"
    );

    let cold = restored_op.evaluate(6);
    let live = op.evaluate(6);
    assert_eq!(cold.results, live.results, "restore preserves answers");
    let cold_within = cold.phases.get(STAGE_JOIN_WITHIN).unwrap();
    assert_eq!(
        cold_within.cache_hits, 0,
        "first post-restore epoch is cold"
    );
    assert!(cold_within.cache_misses > 0);

    restored_op.evaluate(7); // the admitting round
    let rewarm = restored_op.evaluate(8);
    assert!(
        rewarm.phases.get(STAGE_JOIN_WITHIN).unwrap().cache_hits > 0,
        "the restored operator warms back up"
    );
}

/// The deadline controller escalating *mid-tick* while TTL eviction runs
/// in the same evaluation: the cached operator must stay bit-identical to
/// a cache-free twin through the whole episode — escalation plus eviction
/// never leaves a dangling nucleus member or a stale cache entry behind.
#[test]
fn adaptive_escalation_with_ttl_eviction_never_replays_stale() {
    use std::time::Duration;

    /// One stationary convoy as a tick batch (object ids `tag*100 + k`).
    fn convoy_batch(tag: u64, centre: Point, n_objects: u64, time: u64) -> Vec<LocationUpdate> {
        let mut batch: Vec<LocationUpdate> = (0..n_objects)
            .map(|k| {
                LocationUpdate::object(
                    ObjectId(tag * 100 + k),
                    Point::new(centre.x + k as f64, centre.y),
                    time,
                    0.0,
                    CN,
                    ObjectAttrs::default(),
                )
            })
            .collect();
        batch.push(LocationUpdate::query(
            QueryId(tag),
            Point::new(centre.x + 1.0, centre.y + 1.0),
            time,
            0.0,
            CN,
            QueryAttrs {
                spec: QuerySpec::square_range(40.0),
            },
        ));
        batch
    }

    // Every scripted tick misses the 1ms deadline, so the controller
    // climbs a rung every 2 evaluations while convoy 2 (silent after
    // t=2) ages out under the 6-tick TTL.
    let params = ScubaParams {
        entity_ttl: Some(6),
        ..ScubaParams::default()
    }
    .with_deadline_us(Some(1_000));
    let script = vec![Duration::from_millis(5); 12];
    let mut cached = ScubaOperator::new(params.with_join_cache(true), Rect::square(AREA))
        .with_scripted_tick_costs(script.clone());
    let mut twin = ScubaOperator::new(params.with_join_cache(false), Rect::square(AREA))
        .with_scripted_tick_costs(script);

    let mut saw_active = false;
    for t in 1..=12u64 {
        let mut batch = convoy_batch(1, Point::new(200.0, 200.0), 4, t);
        if t <= 2 {
            batch.extend(convoy_batch(2, Point::new(700.0, 700.0), 4, t));
        }
        cached.process_batch(&batch);
        twin.process_batch(&batch);
        let mut a = cached.evaluate(t).results;
        let mut b = twin.evaluate(t).results;
        a.sort();
        b.sort();
        assert_eq!(a, b, "t={t}: cached operator diverged from cache-free twin");
        assert_eq!(cached.current_shedding(), twin.current_shedding());
        saw_active |= cached.current_shedding().is_active();
        cached.engine().check_invariants();
    }

    assert!(saw_active, "the scripted misses must activate shedding");
    assert!(
        cached
            .engine()
            .home()
            .cluster_of(EntityRef::Object(ObjectId(200)))
            .is_none(),
        "the silent convoy is evicted despite concurrent escalation"
    );
    // Identical state modulo the one deliberately different knob.
    let mut snap = EngineSnapshot::capture(cached.engine());
    snap.params.join_cache = false;
    assert_eq!(snap, EngineSnapshot::capture(twin.engine()));
}

/// A controller-driven escalation, an entity removal and a staleness
/// sweep all landing between two evaluations: the next cached join must
/// recompute (no stale replay of the pre-shed pairs), report nothing for
/// the departed entities, and leave the cache warm again once quiet.
#[test]
fn escalation_with_removal_and_eviction_invalidates_cleanly() {
    use std::time::Duration;

    use scuba::{OverloadConfig, OverloadController};

    let mut engine = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    convoy(&mut engine, 1, Point::new(200.0, 200.0), 4, 0);
    convoy(&mut engine, 2, Point::new(700.0, 700.0), 4, 0);
    let (mut cache, mut scratch) = (JoinCache::new(), JoinScratch::new());

    let cold = joined(&mut engine, &mut cache, &mut scratch);
    assert!(!cold.results.is_empty());
    warmed(&mut engine, &mut cache, &mut scratch);
    let warm = joined(&mut engine, &mut cache, &mut scratch);
    assert!(warm.cache_hits >= 2, "both convoys replay when quiet");

    // Two deadline misses escalate the controller; the decision is
    // applied exactly as the operator applies it: set the mode, then
    // shed immediately.
    let mut ctrl =
        OverloadController::new(OverloadConfig::with_deadline(Duration::from_micros(500)));
    ctrl.observe(Duration::from_millis(2));
    let decision = ctrl.observe(Duration::from_millis(2));
    assert!(decision.escalated());
    engine.set_shedding(decision.mode_after);
    assert!(engine.shed_now() > 0, "escalation strips member positions");

    // Same inter-evaluation window: one object deregisters, convoy 1 is
    // refreshed, and the staleness sweep evicts the rest of convoy 2.
    assert!(engine.remove_entity(EntityRef::Object(ObjectId(200))));
    convoy(&mut engine, 1, Point::new(200.0, 200.0), 4, 15);
    assert!(engine.evict_stale(20, 8) >= 4, "silent convoy 2 ages out");
    engine.check_invariants();

    let after = joined(&mut engine, &mut cache, &mut scratch);
    assert_eq!(after.cache_hits, 0, "nothing replays across the upheaval");
    assert!(after.cache_invalidations >= 1);
    assert!(
        !after.results.iter().any(|m| m.object.0 >= 200),
        "no stale match for removed or evicted convoy-2 objects"
    );
    assert!(
        engine
            .home()
            .cluster_of(EntityRef::Object(ObjectId(200)))
            .is_none(),
        "no dangling membership for the removed object"
    );

    // Quiet again: the shed, shrunken state is itself cacheable.
    warmed(&mut engine, &mut cache, &mut scratch);
    let settled = joined(&mut engine, &mut cache, &mut scratch);
    assert_eq!(settled.results, after.results);
    assert!(settled.cache_hits >= 1, "the survivor warms back up");
}
