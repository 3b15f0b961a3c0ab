//! Identity tests for the cluster store.
//!
//! The store hands out dense [`scuba::ClusterSlot`] handles that are
//! **reused** after a dissolution, while the durable [`scuba::ClusterId`]
//! stays the public identity. Nothing observable may depend on the slot
//! layout: reports keep their canonical order, and a snapshot taken across a dissolve→respawn cycle restores
//! to a state indistinguishable from the uninterrupted run.

use scuba::clustering::ClusterEngine;
use scuba::join::JoinOutput;
use scuba::{EngineSnapshot, JoinContext, JoinScratch, ScubaParams};
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

/// Runs the join.
fn joined(engine: &mut ClusterEngine) -> JoinOutput {
    // The region grid is rebuilt once per Δ, right before the join — here
    // that is this helper's job.
    engine.build_index();
    let engine = &*engine;
    let ctx = JoinContext {
        store: engine.store(),
        grid: engine.grid(),
        queries: engine.queries(),
    };
    ctx.run(&mut JoinScratch::new())
}

/// Dissolves the cluster the given query travels in by removing each of
/// its members, returning the slot it occupied (which the next founding
/// will reuse).
fn dissolve_convoy(engine: &mut ClusterEngine, tag: u64) -> scuba::ClusterSlot {
    let slot = engine
        .home()
        .cluster_of(EntityRef::Query(QueryId(tag)))
        .expect("convoy is clustered");
    let members: Vec<EntityRef> = engine
        .store()
        .get(slot)
        .expect("slot is live")
        .members()
        .iter()
        .map(|m| m.entity)
        .collect();
    for entity in members {
        assert!(engine.remove_entity(entity));
    }
    assert!(
        !engine.store().contains(slot),
        "the emptied cluster dissolved"
    );
    slot
}

/// Report order and content are functions of the *durable* identities
/// only: an engine whose slots were churned by dissolve→respawn reports
/// exactly what a churn-free engine with the same live population does —
/// and the order is canonical (sorted), not slot-layout order.
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

    let reference = joined(&mut churned);
    assert!(!reference.results.is_empty());
    let mut sorted = reference.results.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(reference.results, sorted, "report order is canonical");

    assert_eq!(
        joined(&mut pristine).results,
        reference.results,
        "slot layout leaked into the report"
    );
}

/// A snapshot taken right after a dissolve→respawn cycle restores into an
/// engine equal to the uninterrupted one: same reports and the same
/// re-captured snapshot.
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
        joined(&mut live).results,
        joined(&mut restored).results,
        "restored engine diverged from the uninterrupted run"
    );
    assert_eq!(
        EngineSnapshot::capture(&live),
        EngineSnapshot::capture(&restored),
        "re-captured snapshots differ"
    );
}
