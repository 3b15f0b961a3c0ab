//! Robustness integration tests: adaptive overload control, fault
//! injection, and crash recovery (ISSUE 4).
//!
//! Three claims are exercised end to end:
//!
//! 1. The deadline controller escalates shedding under sustained load and
//!    de-escalates once the load drops, and the shedding is actually
//!    applied to the engine mid-run.
//! 2. SCUBA with a validating front-end survives every fault type the
//!    injector produces — no panics, no invariant violations — and its
//!    results are bit-identical to a trusting pipeline fed only the
//!    surviving well-formed updates (quarantine equivalence).
//! 3. After a mid-stream crash, restoring the latest snapshot and
//!    replaying the remaining (identically faulted) stream reaches the
//!    same state and the same answers as the uninterrupted run.

use std::time::Duration;

use scuba::{EngineSnapshot, ScubaOperator, ScubaParams, SheddingMode, ValidationPolicy};
use scuba_motion::{
    EntityRef, LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec,
};
use scuba_spatial::rng::SplitMix64;
use scuba_spatial::{Point, Rect, Time};
use scuba_stream::{
    ContinuousOperator, Executor, ExecutorConfig, FaultInjector, FaultPlan, QueryMatch,
    UpdateValidator, Verdict,
};

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

/// Replays pre-built batches through an operator, evaluating every
/// `delta` ticks; returns the sorted per-interval result sets.
fn replay(
    op: &mut ScubaOperator,
    batches: &[Vec<LocationUpdate>],
    first_tick: u64,
    delta: u64,
) -> Vec<Vec<QueryMatch>> {
    let mut results = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        op.process_batch(batch);
        let now = first_tick + i as u64;
        if now % delta == 0 {
            let mut r = op.evaluate(now).results;
            r.sort();
            results.push(r);
        }
    }
    results
}

// ---------------------------------------------------------------------
// 1. Adaptive overload control, end to end.
// ---------------------------------------------------------------------

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

/// Identical scripted timings produce identical controller trajectories —
/// the mode sequence is a pure function of the observed costs.
#[test]
fn scripted_timings_make_shedding_deterministic() {
    let batches = build_batches(11, 50, 8, 16);
    let script: Vec<Duration> = (0..16)
        .map(|i| {
            if i % 5 < 3 {
                Duration::from_millis(4)
            } else {
                Duration::from_micros(40)
            }
        })
        .collect();
    let params = ScubaParams::default().with_deadline_us(Some(500));

    let mut trajectories = Vec::new();
    for _ in 0..2 {
        let mut op =
            ScubaOperator::new(params, Rect::square(AREA)).with_scripted_tick_costs(script.clone());
        let mut modes = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            op.process_batch(batch);
            op.evaluate((i + 1) as Time);
            modes.push(op.current_shedding());
        }
        trajectories.push((modes, op.overload_counters().unwrap()));
    }
    assert_eq!(trajectories[0].0, trajectories[1].0);
    assert_eq!(trajectories[0].1, trajectories[1].1);
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

// ---------------------------------------------------------------------
// 2. Fault injection: no panics, no divergence on survivors.
// ---------------------------------------------------------------------

/// All five fault types at three seeds: the validating operator finishes
/// every run without panicking or corrupting engine invariants, and
/// malformed updates are quarantined rather than ingested.
#[test]
fn chaos_faults_never_panic_or_break_invariants() {
    for seed in [1u64, 2, 3] {
        let batches = build_batches(seed, 60, 10, 24);
        let params = ScubaParams::default().with_validation(ValidationPolicy::Reject);
        let mut op = ScubaOperator::new(params, Rect::square(AREA));
        let mut tick = 0usize;
        let mut source = || {
            let b = batches.get(tick).cloned().unwrap_or_default();
            tick += 1;
            b
        };
        let executor = Executor::new(ExecutorConfig {
            delta: 2,
            duration: 24,
        });
        let mut injector = FaultInjector::new(FaultPlan::chaos(seed));
        let report = executor.run_with_faults(&mut source, &mut op, &mut injector);

        assert!(
            report.aborted.is_none(),
            "seed {seed}: {:?}",
            report.aborted
        );
        op.engine().check_invariants();
        let stats = injector.stats();
        assert!(stats.corrupted > 0, "chaos plan must corrupt something");
        let vstats = op.validator().unwrap().stats();
        assert!(
            vstats.rejected_total() >= stats.corrupted,
            "every corrupted update must be quarantined (seed {seed}): \
             {vstats:?} vs {stats:?}"
        );
    }
}

/// Quarantine equivalence: SCUBA(Reject) over the faulted stream answers
/// exactly like SCUBA(Off) fed only the survivors a standalone validator
/// accepts. Rejection must not perturb anything the engine computes.
#[test]
fn reject_pipeline_matches_reference_on_survivors() {
    for seed in [1u64, 2, 3] {
        let batches = build_batches(seed + 100, 50, 8, 20);
        let delta = 2u64;

        // Faulted delivery, reproduced identically for both pipelines.
        let mut injector = FaultInjector::new(FaultPlan::chaos(seed));
        let faulted: Vec<Vec<LocationUpdate>> = batches
            .iter()
            .map(|b| injector.apply_tick(b.clone()))
            .collect();

        // Pipeline A: validating operator sees the raw faulted stream.
        let reject = ScubaParams::default().with_validation(ValidationPolicy::Reject);
        let mut op_a = ScubaOperator::new(reject, Rect::square(AREA));
        let results_a = replay(&mut op_a, &faulted, 1, delta);

        // Pipeline B: a standalone validator filters the survivors, which
        // feed a trusting operator.
        let mut validator = UpdateValidator::new(ValidationPolicy::Reject, Rect::square(AREA));
        let survivors: Vec<Vec<LocationUpdate>> = faulted
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .filter_map(|u| match validator.check(u) {
                        Verdict::Accept(u) => Some(u),
                        Verdict::Reject(_) | Verdict::Fatal(_) => None,
                    })
                    .collect()
            })
            .collect();
        let mut op_b = ScubaOperator::new(ScubaParams::default(), Rect::square(AREA));
        let results_b = replay(&mut op_b, &survivors, 1, delta);

        assert_eq!(
            results_a, results_b,
            "seed {seed}: quarantine changed answers"
        );
        // The two engines differ only in the configured validation policy;
        // normalise it so the comparison covers the clustered state alone.
        let mut snap_a = EngineSnapshot::capture(op_a.engine());
        snap_a.params.validation = ValidationPolicy::Off;
        assert_eq!(
            snap_a,
            EngineSnapshot::capture(op_b.engine()),
            "seed {seed}: engine state diverged"
        );
        // The operator's embedded validator and the standalone one saw the
        // same stream, so their ledgers agree too.
        let a = op_a.validator().unwrap().stats();
        let b = validator.stats();
        assert_eq!(a.seen, b.seen);
        assert_eq!(a.rejected_by_reason(), b.rejected_by_reason());
    }
}

/// Same plan, same seed, run twice: fault schedule, validator ledger and
/// answers are all bit-identical.
#[test]
fn fault_injection_is_deterministic() {
    let run = || {
        let batches = build_batches(42, 40, 8, 16);
        let mut injector = FaultInjector::new(FaultPlan::chaos(9));
        let faulted: Vec<Vec<LocationUpdate>> = batches
            .iter()
            .map(|b| injector.apply_tick(b.clone()))
            .collect();
        let params = ScubaParams::default().with_validation(ValidationPolicy::Reject);
        let mut op = ScubaOperator::new(params, Rect::square(AREA));
        let results = replay(&mut op, &faulted, 1, 2);
        (
            injector.stats(),
            op.validator().unwrap().stats().seen,
            results,
        )
    };
    assert_eq!(run(), run());
}

/// Under `Reject`, a batch of exclusively malformed updates leaves the
/// engine byte-identical to never having seen it.
#[test]
fn malformed_batch_leaves_engine_untouched() {
    let batches = build_batches(5, 30, 5, 4);
    let params = ScubaParams::default().with_validation(ValidationPolicy::Reject);
    let mut op = ScubaOperator::new(params, Rect::square(AREA));
    replay(&mut op, &batches, 1, 2);

    let before = EngineSnapshot::capture(op.engine());
    let poison: Vec<LocationUpdate> = (0..10)
        .map(|k| {
            LocationUpdate::object(
                ObjectId(900 + k),
                Point::new(f64::NAN, f64::INFINITY),
                5,
                1.0,
                Point::new(0.0, 0.0),
                ObjectAttrs::default(),
            )
        })
        .collect();
    op.process_batch(&poison);
    assert_eq!(before, EngineSnapshot::capture(op.engine()));
    assert_eq!(op.validator().unwrap().stats().rejected_total(), 10);
    assert_eq!(op.validator().unwrap().dead_letter_len(), 10);
}

// ---------------------------------------------------------------------
// 3. Crash recovery from a snapshot checkpoint.
// ---------------------------------------------------------------------

/// Crash mid-stream, restore the latest checkpoint, replay the remaining
/// faulted ticks: the recovered run answers exactly like the run that
/// never crashed, and ends in the identical engine state.
#[test]
fn crash_recovery_replays_to_identical_state() {
    for seed in [1u64, 2, 3] {
        let ticks = 20u64;
        let crash_at = 10usize; // ticks consumed before the crash
        let delta = 2u64;
        let batches = build_batches(seed + 200, 50, 8, ticks);

        // The delivery faults are part of the recorded history: both runs
        // see the identical lossy stream.
        let mut injector = FaultInjector::new(FaultPlan::lossy(seed));
        let faulted: Vec<Vec<LocationUpdate>> = batches
            .iter()
            .map(|b| injector.apply_tick(b.clone()))
            .collect();

        // Uninterrupted run.
        let mut uninterrupted = ScubaOperator::new(ScubaParams::default(), Rect::square(AREA));
        let all_results = replay(&mut uninterrupted, &faulted, 1, delta);

        // Crashed run: consume the first half, checkpoint, "crash".
        let mut doomed = ScubaOperator::new(ScubaParams::default(), Rect::square(AREA));
        replay(&mut doomed, &faulted[..crash_at], 1, delta);
        let checkpoint = EngineSnapshot::capture(doomed.engine());
        drop(doomed);

        // Recovery: restore the checkpoint and replay the rest.
        let engine = checkpoint.restore().expect("checkpoint restores");
        let mut recovered = ScubaOperator::from_engine(engine);
        let tail_results = replay(
            &mut recovered,
            &faulted[crash_at..],
            crash_at as u64 + 1,
            delta,
        );
        recovered.engine().check_invariants();

        let evals_before_crash = (1..=crash_at as u64).filter(|t| t % delta == 0).count();
        assert_eq!(
            tail_results,
            all_results[evals_before_crash..],
            "seed {seed}: post-recovery answers diverged"
        );
        assert_eq!(
            EngineSnapshot::capture(recovered.engine()),
            EngineSnapshot::capture(uninterrupted.engine()),
            "seed {seed}: recovered engine state diverged"
        );
    }
}
