//! The shedding ladder end to end: scripted tick costs and a memory budget
//! drive the operator's ladder up and back down, and the shedding it
//! selects is applied to the engine mid-run. Faults, quarantine and crash
//! recovery are the simulator's (`simulator.rs`).

use std::time::Duration;

use scuba::{ScubaOperator, ScubaParams, SheddingMode};
use scuba_motion::{
    EntityRef, LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec,
};
use scuba_spatial::rng::SplitMix64;
use scuba_spatial::{Point, Rect, Time};
use scuba_stream::ContinuousOperator;

const AREA: f64 = 1000.0;

/// How deep a shedding mode sits on the ladder, as a shed fraction.
fn shed_fraction(mode: SheddingMode) -> f64 {
    match mode {
        SheddingMode::None => 0.0,
        SheddingMode::Partial { eta } => eta,
        SheddingMode::Full => 1.0,
    }
}

/// Uniform in `[lo, hi)` from a seeded SplitMix64 stream.
fn in_range(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

/// A drifting workload of `n_objects` objects and `n_queries` queries,
/// one batch per tick, everything seeded.
fn build_batches(
    seed: u64,
    n_objects: u64,
    n_queries: u64,
    ticks: u64,
) -> Vec<Vec<LocationUpdate>> {
    let mut rng = SplitMix64::new(seed);
    let total = n_objects + n_queries;
    let mut pos: Vec<Point> = (0..total)
        .map(|_| Point::new(in_range(&mut rng, 0.0, AREA), in_range(&mut rng, 0.0, AREA)))
        .collect();
    let cn: Vec<Point> = pos
        .iter()
        .map(|p| {
            Point::new(
                p.x + in_range(&mut rng, -80.0, 80.0),
                p.y + in_range(&mut rng, -80.0, 80.0),
            )
        })
        .collect();
    let mut batches = Vec::with_capacity(ticks as usize);
    for t in 1..=ticks {
        let mut batch = Vec::with_capacity(total as usize);
        for i in 0..total as usize {
            pos[i] = Point::new(
                (pos[i].x + in_range(&mut rng, -15.0, 15.0)).clamp(0.0, AREA),
                (pos[i].y + in_range(&mut rng, -15.0, 15.0)).clamp(0.0, AREA),
            );
            let u = if (i as u64) < n_objects {
                LocationUpdate::object(
                    ObjectId(i as u64),
                    pos[i],
                    t as Time,
                    in_range(&mut rng, 0.0, 10.0),
                    cn[i],
                    ObjectAttrs::default(),
                )
            } else {
                LocationUpdate::query(
                    QueryId(i as u64 - n_objects),
                    pos[i],
                    t as Time,
                    in_range(&mut rng, 0.0, 10.0),
                    cn[i],
                    QueryAttrs {
                        spec: QuerySpec::square_range(80.0),
                    },
                )
            };
            batch.push(u);
        }
        batch.sort_by_key(|u| (u.time, u.entity));
        batches.push(batch);
    }
    batches
}

/// Scripted heavy-then-light tick costs drive the controller up the
/// ladder and back down, and escalation actually sheds engine state.
#[test]
fn controller_escalates_under_load_then_relaxes() {
    let batches = build_batches(7, 60, 10, 20);
    // Deadline 1ms; the script spends 5ms per tick for the first 8 ticks
    // and 50µs afterwards, independent of the host machine. Eight misses
    // climb the full ladder (escalate every 2); twelve clean ticks unwind
    // all four rungs (relax every 3).
    let mut costs = vec![Duration::from_millis(5); 8];
    costs.extend(vec![Duration::from_micros(50); 12]);
    let params = ScubaParams::default().with_deadline_us(Some(1_000));
    let mut op = ScubaOperator::new(params, Rect::square(AREA)).with_scripted_tick_costs(costs);

    let mut deepest = SheddingMode::None;
    let mut saw_active = false;
    for (i, batch) in batches.iter().enumerate() {
        op.process_batch(batch);
        op.evaluate((i + 1) as Time);
        let mode = op.current_shedding();
        if mode.is_active() {
            saw_active = true;
        }
        if shed_fraction(mode) > shed_fraction(deepest) {
            deepest = mode;
        }
        op.engine().check_invariants();
    }

    let counters = op.overload_counters().expect("controller attached");
    assert!(saw_active, "sustained misses must activate shedding");
    assert!(
        shed_fraction(deepest) >= 0.25,
        "escalation should reach at least the first partial rung, got {deepest:?}"
    );
    assert!(counters.escalations >= 1, "counters: {counters:?}");
    assert!(
        counters.relaxations >= 1,
        "clean ticks must relax: {counters:?}"
    );
    assert_eq!(
        op.current_shedding(),
        SheddingMode::None,
        "after the load drops the controller must walk back to None"
    );
    assert_eq!(counters.ticks, 20);
    assert_eq!(counters.misses, 8);
    assert_eq!(counters.escalations, 4, "None → .25 → .5 → .75 → Full");
    assert_eq!(counters.relaxations, 4, "and all the way back down");
}

/// A memory budget and a deadline walk one shared ladder. The budget here
/// is unmeetable and the deadline is missed only twice, so the memory
/// trigger keeps the ladder climbing through the clean ticks that follow:
/// it climbs one rung per evaluation (the deadline's second miss moves it
/// no further than the budget does) and stays at `Full`. Two controllers
/// each writing the engine's mode would instead let the deadline's relax
/// pull the mode back to `None` while the budget is still blown.
#[test]
fn memory_and_deadline_triggers_share_one_rung() {
    let batches = build_batches(13, 40, 10, 20);
    let mut costs = vec![Duration::from_micros(500); 2];
    costs.extend(vec![Duration::from_micros(10); 18]);
    let params = ScubaParams::default().with_deadline_us(Some(100));
    let mut op = ScubaOperator::new(params, Rect::square(AREA))
        .with_memory_budget(1)
        .with_scripted_tick_costs(costs);
    assert!(op.name().ends_with("(deadline=100us)(budget=1B)"));

    let mut modes = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        op.process_batch(batch);
        op.evaluate((i + 1) as Time);
        modes.push(op.current_shedding());
        op.engine().check_invariants();
    }
    let climb = [
        SheddingMode::Partial { eta: 0.25 },
        SheddingMode::Partial { eta: 0.5 },
        SheddingMode::Partial { eta: 0.75 },
    ];
    assert_eq!(modes[..3], climb, "one rung per evaluation: {modes:?}");
    assert!(
        modes[3..].iter().all(|&m| m == SheddingMode::Full),
        "the unmet budget holds the ladder at Full: {modes:?}"
    );
    let counters = op.overload_counters().expect("deadline attached");
    assert_eq!(counters.ticks, 20);
    assert_eq!(counters.misses, 2);
    assert_eq!(counters.escalations, 4);
    assert_eq!(counters.relaxations, 0);
}

/// Deadline escalation while TTL eviction runs in the same evaluations: a
/// convoy that falls silent is evicted although the shedding ladder is
/// climbing, its answers vanish, and the convoy that keeps reporting keeps
/// answering — no dangling nucleus member, no stale match.
#[test]
fn escalation_with_ttl_eviction_drops_the_silent_convoy() {
    /// One parked convoy as a tick batch: objects `tag*100 + k` and query
    /// `tag`, whose range covers them.
    fn convoy(tag: u64, centre: Point, time: Time) -> Vec<LocationUpdate> {
        let mut batch: Vec<LocationUpdate> = (0..4u64)
            .map(|k| {
                LocationUpdate::object(
                    ObjectId(tag * 100 + k),
                    Point::new(centre.x + k as f64, centre.y),
                    time,
                    0.0,
                    Point::ORIGIN,
                    ObjectAttrs::default(),
                )
            })
            .collect();
        batch.push(LocationUpdate::query(
            QueryId(tag),
            Point::new(centre.x + 1.0, centre.y + 1.0),
            time,
            0.0,
            Point::ORIGIN,
            QueryAttrs {
                spec: QuerySpec::square_range(40.0),
            },
        ));
        batch
    }

    // Every scripted tick misses the 1ms deadline, so the controller
    // climbs a rung every 2 evaluations while convoy 2, silent after t=2,
    // ages out under the 6-tick TTL in the post-join pass of t=9.
    let params = ScubaParams {
        entity_ttl: Some(6),
        ..ScubaParams::default()
    }
    .with_deadline_us(Some(1_000));
    let mut op = ScubaOperator::new(params, Rect::square(AREA))
        .with_scripted_tick_costs(vec![Duration::from_millis(5); 12]);
    let mut saw_active = false;
    for t in 1..=12u64 {
        let mut batch = convoy(1, Point::new(200.0, 200.0), t);
        if t <= 2 {
            batch.extend(convoy(2, Point::new(700.0, 700.0), t));
        }
        op.process_batch(&batch);
        let results = op.evaluate(t).results;
        saw_active |= op.current_shedding().is_active();
        op.engine().check_invariants();
        assert!(
            results.iter().any(|m| m.query == QueryId(1)),
            "t={t}: the reporting convoy keeps answering"
        );
        if t > 9 {
            assert!(
                results.iter().all(|m| m.query == QueryId(1)),
                "t={t}: a match survived for the evicted convoy"
            );
        }
    }
    assert!(saw_active, "the scripted misses must activate shedding");
    assert_eq!(
        op.engine()
            .home()
            .cluster_of(EntityRef::Object(ObjectId(200))),
        None,
        "the silent convoy is evicted despite concurrent escalation"
    );
}
