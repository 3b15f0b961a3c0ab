//! Identity tests for the generational cluster store.
//!
//! The store hands out dense [`scuba::ClusterSlot`] handles that are
//! **reused** after a dissolution, while the durable [`scuba::ClusterId`]
//! stays the public identity. Nothing observable may depend on the slot
//! layout: reports keep their canonical order, parallelism and the join
//! cache change nothing, and a snapshot taken across a dissolve→respawn
//! cycle restores to a state indistinguishable from the uninterrupted
//! run.

use scuba::clustering::ClusterEngine;
use scuba::join::JoinOutput;
use scuba::{EngineSnapshot, JoinCache, JoinContext, JoinScratch, ScubaParams};
use scuba_motion::{
    EntityRef, LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec,
};
use scuba_spatial::{Point, Rect};

const AREA: f64 = 1000.0;

/// Shared destination node far from every convoy, so speed-0 clusters
/// never pass it and stay alive across maintenance.
const CN: Point = Point { x: 0.0, y: 0.0 };

/// Convoy sites on a 300-unit lattice — farther apart than Θ_D, so each
/// convoy always forms its own cluster regardless of ingest order.
fn site(tag: u64) -> Point {
    Point::new(
        150.0 + (tag % 3) as f64 * 300.0,
        150.0 + (tag / 3 % 3) as f64 * 300.0,
    )
}

/// Ingests one stationary convoy: 3 objects plus one range query.
fn convoy(engine: &mut ClusterEngine, tag: u64, time: u64) {
    let centre = site(tag);
    for k in 0..3u64 {
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

/// Runs the join at a given parallelism, optionally through a cache.
fn joined(
    engine: &mut ClusterEngine,
    parallelism: usize,
    cache: Option<(&mut JoinCache, &mut JoinScratch)>,
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
        parallelism,
        kernel: engine.params().kernel,
    };
    match cache {
        Some((cache, scratch)) => ctx.run_cached(Some(engine.epochs()), cache, scratch),
        None => ctx.run(),
    }
}

/// Dissolves the cluster the given query travels in, returning the slot
/// it occupied (which the next founding will reuse).
fn dissolve_convoy(engine: &mut ClusterEngine, tag: u64) -> scuba::ClusterSlot {
    let slot = engine
        .home()
        .cluster_of(EntityRef::Query(QueryId(tag)))
        .expect("convoy is clustered");
    let cid = engine.cluster_at(slot).expect("slot is live").cid;
    engine.dissolve(cid);
    slot
}

/// Report order and content are functions of the *durable* identities
/// only: an engine whose slots were churned by dissolve→respawn reports
/// exactly what a churn-free engine with the same live population does,
/// at every parallelism, cache on and off — and the order is canonical
/// (sorted), not slot-layout order.
#[test]
fn reports_are_slot_layout_independent() {
    // Churned: convoys 1..=4, then convoy 2 dissolves and convoy 5
    // founds into the freed slot.
    let mut churned = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    for tag in 1..=4 {
        convoy(&mut churned, tag, 0);
    }
    let freed = dissolve_convoy(&mut churned, 2);
    convoy(&mut churned, 5, 0);
    let reused = churned
        .home()
        .cluster_of(EntityRef::Query(QueryId(5)))
        .expect("convoy 5 is clustered");
    assert_eq!(reused, freed, "the founding reuses the freed slot");
    churned.check_invariants();

    // Pristine: the same live population, never churned — different slot
    // layout (convoy 5 gets a fresh slot at the end).
    let mut pristine = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    for tag in [1, 3, 4, 5] {
        convoy(&mut pristine, tag, 0);
    }

    let reference = joined(&mut churned, 1, None);
    assert!(!reference.results.is_empty());
    let mut sorted = reference.results.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(reference.results, sorted, "report order is canonical");

    assert_eq!(
        joined(&mut pristine, 1, None).results,
        reference.results,
        "slot layout leaked into the report"
    );
    for parallelism in [1, 2, 4] {
        let (mut cache, mut scratch) = (JoinCache::new(), JoinScratch::new());
        assert_eq!(
            joined(&mut churned, parallelism, None).results,
            reference.results,
            "parallelism {parallelism} changed the report"
        );
        // Cold then warm: replayed-from-cache epochs included.
        for round in 0..2 {
            assert_eq!(
                joined(&mut churned, parallelism, Some((&mut cache, &mut scratch))).results,
                reference.results,
                "cached round {round} at parallelism {parallelism} diverged"
            );
        }
    }
}

/// A snapshot taken right after a dissolve→respawn cycle restores into an
/// engine equal to the uninterrupted one: same reports, same re-captured
/// snapshot, and a fresh join cache that starts cold against the restored
/// epoch clocks (no entry can replay against a reused slot).
#[test]
fn snapshot_roundtrip_across_slot_reuse() {
    let mut live = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    for tag in 1..=3 {
        convoy(&mut live, tag, 0);
    }
    let freed = dissolve_convoy(&mut live, 2);
    convoy(&mut live, 4, 0);
    assert_eq!(
        live.home().cluster_of(EntityRef::Query(QueryId(4))),
        Some(freed),
        "convoy 4 reuses the freed slot"
    );

    let snapshot = EngineSnapshot::capture(&live);
    let mut restored = snapshot.restore().expect("snapshot restores");
    restored.check_invariants();

    // Both continue identically: another churn cycle on each side.
    for engine in [&mut live, &mut restored] {
        let freed = dissolve_convoy(engine, 3);
        convoy(engine, 6, 1);
        assert_eq!(
            engine.home().cluster_of(EntityRef::Query(QueryId(6))),
            Some(freed)
        );
    }
    assert_eq!(
        joined(&mut live, 1, None).results,
        joined(&mut restored, 1, None).results,
        "restored engine diverged from the uninterrupted run"
    );
    assert_eq!(
        EngineSnapshot::capture(&live),
        EngineSnapshot::capture(&restored),
        "re-captured snapshots differ"
    );

    // A fresh cache over the restored engine behaves coherently: all
    // misses cold and on the admitting round after it, all hits from the
    // third, identical results throughout.
    let (mut cache, mut scratch) = (JoinCache::new(), JoinScratch::new());
    let reference = joined(&mut restored, 1, None);
    let cold = joined(&mut restored, 1, Some((&mut cache, &mut scratch)));
    assert_eq!(cold.results, reference.results);
    assert_eq!(cold.cache_hits, 0, "nothing replays against a fresh cache");
    assert!(cold.cache_misses > 0);
    let admitting = joined(&mut restored, 1, Some((&mut cache, &mut scratch)));
    assert_eq!(admitting.cache_misses, cold.cache_misses);
    let warm = joined(&mut restored, 1, Some((&mut cache, &mut scratch)));
    assert_eq!(warm.results, reference.results);
    assert_eq!(warm.cache_misses, 0, "quiet epoch replays everything");
    assert!(warm.cache_hits > 0);
}

/// Dissolving and refounding into the same slot between cached joins must
/// never replay the old occupant's entry: the reused slot is touched at a
/// fresh epoch clock, so every pair involving it recomputes.
#[test]
fn slot_reuse_never_replays_previous_occupants_entries() {
    let mut engine = ClusterEngine::new(ScubaParams::default(), Rect::square(AREA));
    for tag in 1..=2 {
        convoy(&mut engine, tag, 0);
    }
    let (mut cache, mut scratch) = (JoinCache::new(), JoinScratch::new());
    joined(&mut engine, 1, Some((&mut cache, &mut scratch)));
    joined(&mut engine, 1, Some((&mut cache, &mut scratch))); // the admitting round
    let warm = joined(&mut engine, 1, Some((&mut cache, &mut scratch)));
    assert!(warm.cache_hits >= 2, "quiet epoch replays both convoys");

    // Convoy 2's cluster dissolves; convoy 5 founds into its slot at a
    // *different site* with different members.
    let freed = dissolve_convoy(&mut engine, 2);
    convoy(&mut engine, 5, 1);
    assert_eq!(
        engine.home().cluster_of(EntityRef::Query(QueryId(5))),
        Some(freed)
    );

    let after = joined(&mut engine, 1, Some((&mut cache, &mut scratch)));
    let reference = joined(&mut engine, 1, None);
    assert_eq!(after.results, reference.results);
    assert!(
        after.results.iter().any(|m| m.query == QueryId(5)),
        "the new occupant reports its own matches"
    );
    assert!(
        !after.results.iter().any(|m| m.query == QueryId(2)),
        "the previous occupant's matches are gone"
    );
    assert!(
        after.cache_misses >= 1,
        "the reused slot's pairs recompute instead of replaying"
    );
}
