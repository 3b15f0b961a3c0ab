//! The whole-system simulator: one seeded schedule drives every
//! configuration, and one oracle says what is right.
//!
//! [`schedule`] turns one seed into a case: engine parameters, a stream of
//! ticks (entities heading for shared nodes, a parked border family, query
//! churn, transport faults), the shedding ladder's memory budget and tick
//! costs, and a supervised run's kill tick, torn journal and trace, worker
//! panics and damaged durable files. [`simulate`] drives every
//! configuration through it and diffs each evaluation against
//! [`Oracle`], the last accepted report of every entity tested by brute
//! force:
//!
//! * the single-store operator: every pair that differs from the oracle
//!   has a shed member on one side (with no member shed, the answers are
//!   equal), no evaluation counts both an over-budget tick and a
//!   relaxation, and the engine's invariants hold;
//! * the striped operator (shards > 1) and REGULAR equal the oracle;
//! * supervised runs: a run killed and resumed, and a run stopped by a torn
//!   trace and rerun over the intact one, each equal the uninterrupted run
//!   in answers by tick, captured state, registry and gauges. The
//!   uninterrupted run equals the oracle when nothing sheds. Its damaged
//!   checkpoints and journal segments resume with its answers or fail with
//!   a typed error, and never panic.
//!
//! A failing case prints ``property `simulator` failed at case K of N (seed
//! S)``; `simulate(&schedule(&mut Xoshiro256::seed_from_u64(S)))` replays
//! it. The pinned schedules at the end are cases the draw cannot produce.
//! `PROPTEST_CASES` sets the number of cases.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use scuba::clustering::ClusterEngine;
use scuba::durability::{crc32, Crc32};
use scuba::{
    recover, resume, run_supervised, NoObserver, ParamsError, RegularGridOperator, ScubaOperator,
    ScubaParams, ShardedScubaOperator, SheddingMode, SuperviseConfig, SupervisedOutcome,
    ValidationPolicy,
};
use scuba_motion::{
    ControlOp, EntityRef, LocationUpdate, ObjectAttrs, ObjectClass, ObjectId, QueryAttrs, QueryId,
    QuerySpec,
};
use scuba_spatial::{Point, Rect, Time};
use scuba_stream::executor::UpdateSource;
use scuba_stream::{
    ContinuousOperator, FaultInjector, FaultPlan, PanicInjector, PanicPlan, QueryMatch,
    TraceReader, TraceWriter, UpdateValidator, Verdict,
};
use scuba_testkit::{check, Oracle, Xoshiro256};

/// Random cases per run.
const CASES: u32 = 64;

/// The evaluation interval Δ of every schedule (the paper's default).
const DELTA: Time = 2;

/// The destinations movers share. Entities bound for the same node
/// cluster; a cluster reaching its node dissolves. At 4 shards, nodes sit
/// on stripe borders.
const NODES: [Point; 4] = [
    Point { x: 250.0, y: 250.0 },
    Point { x: 750.0, y: 250.0 },
    Point { x: 250.0, y: 750.0 },
    Point { x: 750.0, y: 750.0 },
];

fn area() -> Rect {
    Rect::square(1000.0)
}

/// One tick: control ops, applied first, then the data batch.
#[derive(Debug, Clone, Default)]
struct Tick {
    controls: Vec<ControlOp>,
    updates: Vec<LocationUpdate>,
}

/// How one byte of a durable file is damaged.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// The file ends just before it.
    Truncate,
    /// One bit flips, and the checksum catches it.
    Flip,
    /// One bit flips, and the checksum covering it is recomputed, so the
    /// decoders see the flipped value.
    Resealed,
}

/// The failures of a supervised case.
#[derive(Debug, Clone)]
struct Supervision {
    checkpoint_every: u64,
    /// The killed run's first stage stops after this tick.
    kill: Time,
    /// A draw placing the tear in the killed run's newest journal segment.
    wal_tear: Option<u64>,
    /// A draw placing a tear in the trace, at the start of a tick or
    /// strictly inside one.
    trace_tear: Option<u64>,
    /// Worker panics in both stages of the killed run (shards > 1).
    panics: Option<PanicPlan>,
    /// Damage done to the uninterrupted run's files, one at a time; the
    /// draw picks the file, the byte and the bit.
    damage: Vec<(Damage, u64)>,
}

/// One case.
#[derive(Debug, Clone)]
struct Schedule {
    /// Engine parameters. `deadline_us` arms only the plain loop's ladder:
    /// supervised runs read the wall clock no script replaces.
    params: ScubaParams,
    /// The delivered stream, faults applied: tick `t` is `ticks[t - 1]`.
    ticks: Vec<Tick>,
    /// Memory budget of the single-store operator's shedding ladder.
    budget: Option<usize>,
    /// The deadline trigger's cost of each evaluation.
    tick_costs: Vec<Duration>,
    supervision: Option<Supervision>,
}

/// A moving object or query.
struct Entity {
    id: u64,
    /// The range side of a query, `None` for an object.
    side: Option<f64>,
    pos: Point,
    node: Point,
    speed: f64,
    live: bool,
}

impl Entity {
    fn report(&self, time: Time) -> LocationUpdate {
        match self.side {
            Some(side) => LocationUpdate::query(
                QueryId(self.id),
                self.pos,
                time,
                self.speed,
                self.node,
                QueryAttrs {
                    spec: QuerySpec::square_range(side),
                },
            ),
            None => LocationUpdate::object(
                ObjectId(self.id),
                self.pos,
                time,
                self.speed,
                self.node,
                ObjectAttrs::default(),
            ),
        }
    }
}

/// Draws a case. A pure function of the generator's state, so of the seed
/// `check` prints.
fn schedule(rng: &mut Xoshiro256) -> Schedule {
    let shedding = match rng.gen_range(0..4u32) {
        0 | 1 => SheddingMode::None,
        2 => SheddingMode::Partial {
            eta: [0.0, 0.25, 0.5, 0.75][rng.gen_range(0..4usize)],
        },
        _ => SheddingMode::Full,
    };
    let validation =
        [ValidationPolicy::Off, ValidationPolicy::Reject][rng.gen_bool(1.0 / 3.0) as usize];
    // No ladder (half the cases), memory, deadline, or both.
    let ladder = rng.gen_range(0..6u32).saturating_sub(2);
    let mut params = ScubaParams::default()
        .with_grid_cells(rng.gen_range(1..40u32))
        .with_shedding(shedding)
        .with_validation(validation)
        .with_deadline_us((ladder >= 2).then_some(1_000));
    let shards = [1, 2, 4][rng.gen_range(0..3usize)];
    match params.with_shards(shards).validate() {
        Ok(()) => params.shards = shards,
        Err(e) => assert!(matches!(e, ParamsError::UnsupportedWithShards(_)), "{e}"),
    }
    let n_ticks = rng.gen_range(6..17u64);
    let raw = stream(rng, n_ticks);
    let ticks = deliver(rng, raw, validation);
    let budget = (ladder % 2 == 1).then(|| rng.gen_range(10_000..150_000usize));
    let tick_costs = match params.deadline_us {
        Some(_) => (0..n_ticks / DELTA)
            .map(|_| Duration::from_micros([200, 5_000][rng.gen_bool(0.4) as usize]))
            .collect(),
        None => Vec::new(),
    };
    let supervision = Supervision {
        checkpoint_every: rng.gen_range(1..5u64),
        kill: rng.gen_range(1..n_ticks),
        wal_tear: rng.gen_bool(0.5).then(|| rng.next_u64()),
        trace_tear: Some(rng.next_u64()),
        panics: (params.shards > 1).then(|| PanicPlan {
            seed: rng.next_u64(),
            panic_prob: 0.2,
            rearm: false,
        }),
        damage: (0..2)
            .map(|_| {
                let how = [Damage::Truncate, Damage::Flip, Damage::Resealed];
                (how[rng.gen_range(0..3usize)], rng.next_u64())
            })
            .collect(),
    };
    Schedule {
        params,
        ticks,
        budget,
        tick_costs,
        supervision: Some(supervision),
    }
}

/// Up to 80 entities heading for [`NODES`] plus the border family. Every
/// live entity reports every tick; from tick 2 queries deregister,
/// re-register and change their range.
fn stream(rng: &mut Xoshiro256, n_ticks: Time) -> Vec<Tick> {
    let mut entities: Vec<Entity> = (0..rng.gen_range(1..81u64))
        .map(|id| Entity {
            id,
            side: rng.gen_bool(0.3).then(|| rng.gen_range(40.0..160.0)),
            pos: Point::new(rng.gen_range(50.0..950.0), rng.gen_range(50.0..950.0)),
            node: NODES[rng.gen_range(0..NODES.len())],
            speed: rng.gen_range(15.0..45.0),
            live: true,
        })
        .collect();
    // The border family: parked queries on a diagonal lattice with objects
    // on their edges and corners and 5 units either side. A spot's
    // entities share one destination, so objects on a query's border sit
    // in clusters with their query, and the join must answer each from the
    // point it reported: `Rect::contains` counts a border as inside.
    let mut id = 100;
    for spot in 0..rng.gen_range(0..5u64) {
        let c = 125.0 + 250.0 * spot as f64;
        let half = 5.0 * rng.gen_range(1..9u32) as f64;
        let steps = [
            -half - 5.0,
            -half,
            -half + 5.0,
            0.0,
            half - 5.0,
            half,
            half + 5.0,
        ];
        let n_objects = rng.gen_range(1..8usize);
        for k in 0..=n_objects {
            id += 1;
            let pos = match k {
                0 => Point::new(c, c),
                _ => Point::new(
                    c + steps[rng.gen_range(0..steps.len())],
                    c + steps[rng.gen_range(0..steps.len())],
                ),
            };
            entities.push(Entity {
                id,
                side: (k == 0).then_some(2.0 * half),
                pos,
                node: Point::new(spot as f64 + 0.5, 0.0),
                speed: 0.0,
                live: true,
            });
        }
    }
    (1..=n_ticks)
        .map(|t| {
            let mut controls = Vec::new();
            for e in &mut entities {
                let to_node = e.node - e.pos;
                if e.speed > 0.0 && to_node.norm() <= e.speed {
                    e.pos = e.node;
                    let next = rng.gen_range(0..NODES.len() - 1);
                    e.node = *NODES.iter().filter(|&&n| n != e.node).nth(next).unwrap();
                } else if e.speed > 0.0 {
                    e.pos += to_node.with_length(e.speed);
                }
                if t < 2 || e.side.is_none() {
                    continue;
                }
                let roll = rng.gen_f64();
                if !e.live {
                    if roll < 0.3 {
                        e.live = true;
                        controls.push(ControlOp::Register(e.report(t)));
                    }
                } else if roll < 0.1 {
                    e.live = false;
                    controls.push(ControlOp::Deregister(QueryId(e.id)));
                } else if roll < 0.15 {
                    if e.speed > 0.0 {
                        e.side = Some(rng.gen_range(40.0..160.0));
                    }
                    controls.push(ControlOp::Update(e.report(t)));
                }
            }
            let updates = entities
                .iter()
                .filter(|e| e.live)
                .map(|e| e.report(t))
                .collect();
            Tick { controls, updates }
        })
        .collect()
}

/// The transport: duplicates and reorders every tick and, when the
/// engine validates, corrupts reports in the last tick of each Δ window.
/// The window's other tick arrives whole, so every entity keeps an accepted
/// report per window: one without answers from wherever its cluster moved,
/// which no last-report oracle can say.
fn deliver(rng: &mut Xoshiro256, raw: Vec<Tick>, validation: ValidationPolicy) -> Vec<Tick> {
    let plan = FaultPlan {
        seed: rng.next_u64(),
        duplicate_prob: 0.05,
        reorder_prob: 0.5,
        ..FaultPlan::default()
    };
    let mut whole = FaultInjector::new(plan);
    let mut dirty = FaultInjector::new(FaultPlan {
        corrupt_prob: if validation == ValidationPolicy::Off {
            0.0
        } else {
            0.05
        },
        ..plan
    });
    (1..)
        .zip(raw)
        .map(|(t, tick): (Time, Tick)| {
            let injector = if t % DELTA == 0 {
                &mut dirty
            } else {
                &mut whole
            };
            Tick {
                updates: injector.apply_tick(tick.updates),
                controls: tick.controls,
            }
        })
        .collect()
}

/// What the operator ingests from `tick`'s batch, screened as its own
/// validator screens it: the controls' updates first (the oracle takes
/// every control whatever the verdict), then the batch.
fn screen(
    validator: Option<&mut UpdateValidator>,
    tick: &Tick,
    accepted: &mut Vec<LocationUpdate>,
) {
    accepted.clear();
    let Some(validator) = validator else {
        accepted.extend_from_slice(&tick.updates);
        return;
    };
    for op in &tick.controls {
        if let ControlOp::Register(u) | ControlOp::Update(u) = op {
            let _ = validator.check(u);
        }
    }
    for u in &tick.updates {
        if let Verdict::Accept(clean) = validator.check(u) {
            accepted.push(clean);
        }
    }
}

/// Runs every check on one case and returns the oracle's answer at each
/// evaluation.
fn simulate(s: &Schedule) -> BTreeMap<Time, Vec<QueryMatch>> {
    let truth = run_plain(s);
    if let Some(supervision) = &s.supervision {
        run_supervision(s, supervision, &truth);
    }
    truth
}

/// The operators fed tick by tick, each evaluation diffed against the
/// oracle.
fn run_plain(s: &Schedule) -> BTreeMap<Time, Vec<QueryMatch>> {
    let single = s.params.with_shards(1);
    let mut scuba =
        ScubaOperator::new(single, area()).with_scripted_tick_costs(s.tick_costs.clone());
    if let Some(budget) = s.budget {
        scuba = scuba.with_memory_budget(budget);
    }
    let mut stripes = (s.params.shards > 1).then(|| ShardedScubaOperator::new(s.params, area()));
    let mut validator = (single.validation != ValidationPolicy::Off)
        .then(|| UpdateValidator::new(single.validation, area()));
    let mut oracle = Oracle::new();
    let mut truth = BTreeMap::new();
    let mut accepted = Vec::new();
    for (now, tick) in (1..).zip(&s.ticks) {
        screen(validator.as_mut(), tick, &mut accepted);
        oracle.observe(&tick.controls, &accepted);
        scuba.apply_control(&tick.controls, now);
        scuba.process_batch(&tick.updates);
        if let Some(op) = &mut stripes {
            op.apply_control(&tick.controls, now);
            op.process_batch(&tick.updates);
        }
        if now % DELTA != 0 {
            continue;
        }
        let expected = oracle.evaluate();

        // REGULAR has no control plane, and its state is the latest report
        // per entity: a fresh one fed the oracle's reports is REGULAR over
        // the same active set.
        let mut regular = RegularGridOperator::new(s.params.grid_cells, area());
        regular.process_batch(&oracle.reports().copied().collect::<Vec<_>>());
        assert_eq!(regular.evaluate(now).results, expected, "t={now}: REGULAR");
        if let Some(op) = &mut stripes {
            let shards = s.params.shards;
            assert_eq!(
                op.evaluate(now).results,
                expected,
                "t={now}: {shards} stripes"
            );
            op.engines().for_each(ClusterEngine::check_invariants);
            let gauges = scuba.control_gauges();
            assert_eq!(op.control_gauges(), gauges, "t={now}: stripe gauges");
        }

        let shed: BTreeSet<EntityRef> = scuba
            .engine()
            .store()
            .values()
            .flat_map(|c| c.members())
            .filter(|m| m.is_shed())
            .map(|m| m.entity)
            .collect();
        let before = scuba.overload_counters().unwrap_or_default();
        let got = scuba.evaluate(now).results;
        let after = scuba.overload_counters().unwrap_or_default();
        assert!(
            after.over_budget == before.over_budget || after.relaxations == before.relaxations,
            "t={now}: the ladder relaxed on an evaluation over budget: {after:?}"
        );
        scuba.engine().check_invariants();
        if shed.is_empty() {
            assert_eq!(got, expected, "t={now}: single store");
        }
        let got: BTreeSet<_> = got.into_iter().collect();
        for m in got.symmetric_difference(&expected.iter().copied().collect()) {
            assert!(
                shed.contains(&EntityRef::Query(m.query))
                    || shed.contains(&EntityRef::Object(m.object)),
                "t={now}: {m:?} differs from the oracle and neither side is shed"
            );
        }
        truth.insert(now, expected);
    }
    truth
}

/// Replays a schedule's controls and a trace of its batches; every
/// construction delivers the same stream, as a resumed run needs.
struct Replay<'a> {
    ticks: &'a [Tick],
    trace: TraceReader<&'a [u8]>,
    next: usize,
}

impl UpdateSource for Replay<'_> {
    fn next_controls(&mut self) -> Vec<ControlOp> {
        self.next += 1;
        self.ticks
            .get(self.next - 1)
            .map(|t| t.controls.clone())
            .unwrap_or_default()
    }

    fn next_tick(&mut self) -> Vec<LocationUpdate> {
        self.trace.next_tick()
    }

    fn fault(&self) -> Option<String> {
        self.trace.fault()
    }
}

fn supervise(
    s: &Schedule,
    checkpoint_every: u64,
    dir: &Path,
    trace: &[u8],
    duration: Time,
    panics: Option<&Arc<PanicInjector>>,
) -> SupervisedOutcome {
    let cfg = SuperviseConfig {
        duration,
        checkpoint_every,
        max_restarts: 8,
        backoff: Duration::ZERO,
        sync_journal: false,
        ..SuperviseConfig::default()
    };
    let mut source = Replay {
        ticks: &s.ticks,
        trace: TraceReader::new(trace),
        next: 0,
    };
    let params = s.params.with_deadline_us(None);
    run_supervised(
        &mut source,
        &params,
        area(),
        dir,
        &cfg,
        panics,
        &mut NoObserver,
    )
    .expect("supervised run")
}

/// Answers by tick over runs in order, a later run's answer winning: a
/// resumed run re-emits the evaluations it replayed.
fn answers(runs: &[&SupervisedOutcome]) -> BTreeMap<Time, Vec<QueryMatch>> {
    runs.iter()
        .flat_map(|run| &run.report.evaluations)
        .map(|e| (e.now, e.results.clone()))
        .collect()
}

/// `first` then `second` over one directory equal the uninterrupted run.
fn assert_resumed(
    what: &str,
    whole: &SupervisedOutcome,
    first: &SupervisedOutcome,
    second: &SupervisedOutcome,
) {
    assert_eq!(second.report.aborted, None, "{what}");
    assert_eq!(
        answers(&[first, second]),
        answers(&[whole]),
        "{what}: answers"
    );
    let (got, want) = (&second.operator, &whole.operator);
    assert_eq!(got.capture(), want.capture(), "{what}: captured state");
    assert_eq!(got.registry(), want.registry(), "{what}: registry");
    assert_eq!(
        got.control_gauges(),
        want.control_gauges(),
        "{what}: gauges"
    );
}

/// A fresh directory per supervised run set; tests run in parallel.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("scuba-sim-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_supervision(s: &Schedule, sup: &Supervision, truth: &BTreeMap<Time, Vec<QueryMatch>>) {
    let root = scratch_dir();
    let duration = s.ticks.len() as Time;
    let mut writer = TraceWriter::new(Vec::new());
    for tick in &s.ticks {
        writer.write_tick(&tick.updates).expect("in-memory trace");
    }
    let trace = writer.finish().expect("in-memory trace");
    let every = sup.checkpoint_every;

    let whole_dir = root.join("whole");
    let whole = supervise(s, every, &whole_dir, &trace, duration, None);
    assert_eq!(whole.report.aborted, None);
    if !s.params.shedding.is_active() {
        for (now, got) in answers(&[&whole]) {
            assert_eq!(Some(&got), truth.get(&now), "t={now}: supervised run");
        }
    }

    let dir = root.join("killed");
    let panics = sup.panics.map(|plan| Arc::new(PanicInjector::new(plan)));
    let first = supervise(s, every, &dir, &trace, sup.kill, panics.as_ref());
    if let Some(draw) = sup.wal_tear {
        let newest = files(&dir)
            .into_iter()
            .rev()
            .find(|(p, _)| p.extension().is_some_and(|x| x == "wal"))
            .expect("the killed run journals");
        let len = draw as usize % (newest.1.len() + 1);
        std::fs::write(&newest.0, &newest.1[..len]).unwrap();
    }
    let second = supervise(s, every, &dir, &trace, duration, panics.as_ref());
    assert_resumed("killed and resumed", &whole, &first, &second);

    if let Some(draw) = sup.trace_tear {
        let (cut, whole_ticks) = tear(&trace, draw);
        let dir = root.join("torn");
        let first = supervise(s, every, &dir, &trace[..cut], duration, None);
        assert!(first.report.aborted.is_some(), "a torn trace stops the run");
        let durable = recover(&dir).unwrap().expect("a checkpoint at the start");
        let last = durable
            .frames
            .last()
            .map_or(durable.checkpoint_tick, |f| f.tick);
        assert!(
            last <= whole_ticks,
            "t={last} is durable past the tear after t={whole_ticks}"
        );
        let second = supervise(s, every, &dir, &trace, duration, None);
        assert_resumed("rerun after a torn trace", &whole, &first, &second);
    }

    damage(&whole_dir, &sup.damage, &answers(&[&whole]));
    let _ = std::fs::remove_dir_all(&root);
}

/// Where `draw` tears `trace`: exactly at the start of one tick (the top
/// bit set) or strictly inside one tick's record, and the number of whole
/// ticks before the cut. The walk stops at the trailer, whose first word
/// is `u32::MAX` where a tick's update count would be.
fn tear(trace: &[u8], draw: u64) -> (usize, Time) {
    let mut starts = Vec::new();
    let mut pos = 8;
    while pos < trace.len() && trace[pos..pos + 4] != [0xFF; 4] {
        starts.push(pos);
        pos += 8 + u32::from_le_bytes(trace[pos + 4..pos + 8].try_into().unwrap()) as usize;
    }
    let tick = draw as usize % starts.len();
    if draw >> 63 == 1 {
        return (starts[tick], tick as Time);
    }
    let end = starts.get(tick + 1).copied().unwrap_or(pos);
    let cut = starts[tick] + 1 + (draw >> 32) as usize % (end - starts[tick] - 1);
    (cut, tick as Time)
}

/// Every file in `dir` with its bytes, by name.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect()
}

/// Damages one file of `dir` at a time and resumes: the replayed answers
/// equal `answers`, or recovery fails with a typed error. A flip behind a
/// recomputed checksum may change answers; it may not panic.
fn damage(dir: &Path, damage: &[(Damage, u64)], answers: &BTreeMap<Time, Vec<QueryMatch>>) {
    let pristine = files(dir);
    for &(how, draw) in damage {
        let (path, original) = &pristine[draw as usize % pristine.len()];
        let mut bytes = original.clone();
        if bytes.is_empty() {
            continue;
        }
        let at = (draw >> 16) as usize % bytes.len();
        let bit = 1 << ((draw >> 8) % 8);
        match how {
            Damage::Truncate => bytes.truncate(at),
            Damage::Flip => bytes[at] ^= bit,
            Damage::Resealed => {
                bytes[at] ^= bit;
                reseal(path, &mut bytes, at);
            }
        }
        std::fs::write(path, &bytes).unwrap();
        match resume(dir) {
            Ok(Some(resumed)) if !matches!(how, Damage::Resealed) => {
                for report in &resumed.reports {
                    assert_eq!(
                        Some(&report.results),
                        answers.get(&report.now),
                        "t={}: resumed past {how:?} of {}",
                        report.now,
                        path.display()
                    );
                }
            }
            Ok(_) => {}
            Err(e) => assert!(!e.to_string().is_empty()),
        }
        std::fs::write(path, original).unwrap();
    }
}

/// Recomputes the checksum covering byte `at`: the checkpoint header's, or
/// that of the journal frame holding it.
fn reseal(path: &Path, bytes: &mut [u8], at: usize) {
    if path.extension().is_some_and(|x| x == "ckpt") {
        if bytes.len() >= 28 {
            let mut crc = Crc32::new();
            crc.update(&bytes[8..24]);
            crc.update(&bytes[28..]);
            bytes[24..28].copy_from_slice(&crc.finish().to_le_bytes());
        }
        return;
    }
    let mut pos = 16;
    while pos + 8 <= bytes.len() {
        let end = pos + 8 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if end > bytes.len() {
            return;
        }
        if at < end {
            let crc = crc32(&bytes[pos + 8..end]);
            bytes[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
            return;
        }
        pos = end;
    }
}

#[test]
fn simulator() {
    check("simulator", CASES, |rng| {
        simulate(&schedule(rng));
    });
}

/// A schedule of `ticks` under `params`, with no ladder and no
/// supervision.
fn pinned(params: ScubaParams, ticks: Vec<Tick>) -> Schedule {
    Schedule {
        params,
        ticks,
        budget: None,
        tick_costs: Vec::new(),
        supervision: None,
    }
}

fn batch(updates: Vec<LocationUpdate>) -> Tick {
    Tick {
        controls: Vec::new(),
        updates,
    }
}

/// The widest geometry the ghost exchange covers: with Θ_D = 260 one
/// object cluster on stripe 3 of 8 grows a circle over stripes 2 to 4, and
/// its matching queries sit across borders on both sides, one of them two
/// stripes away.
#[test]
fn three_stripe_straddling_cluster() {
    let cn = Point::new(500.0, 1000.0);
    let obj = |id, y| {
        LocationUpdate::object(
            ObjectId(id),
            Point::new(440.0, y),
            0,
            30.0,
            cn,
            ObjectAttrs::default(),
        )
    };
    let qry = |id, x, y, side| {
        let spec = QuerySpec::square_range(side);
        LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            0,
            30.0,
            cn,
            QueryAttrs { spec },
        )
    };
    let tick = batch(vec![
        obj(1, 320.0),
        obj(2, 500.0),
        obj(3, 680.0),
        qry(10, 510.0, 500.0, 150.0),
        qry(11, 260.0, 490.0, 400.0),
        qry(12, 900.0, 100.0, 30.0),
    ]);
    let pair = |q, o| QueryMatch::new(QueryId(q), ObjectId(o));
    for shards in [2, 4, 8] {
        let params = ScubaParams::default()
            .with_thresholds(260.0, 10.0)
            .with_shards(shards);
        let truth = simulate(&pinned(params, vec![tick.clone(), Tick::default()]));
        assert_eq!(
            truth[&2],
            [pair(10, 2), pair(11, 1), pair(11, 2), pair(11, 3)]
        );
    }
}

/// A recorded failure: object 0 reports twice in one tick, heading first
/// for (500, 1000) and then for (0, 500), inside a query both times; at
/// every grid size, with and without zero-η shedding.
#[test]
fn object_rereports_inside_query() {
    let north = Point::new(500.0, 1000.0);
    let object = |x, y, speed, cn| {
        LocationUpdate::object(
            ObjectId(0),
            Point::new(x, y),
            0,
            speed,
            cn,
            ObjectAttrs::default(),
        )
    };
    let spec = QuerySpec::square_range(70.6333775788467);
    let tick = batch(vec![
        object(
            405.84113582890956,
            835.262033754667,
            35.726469109461114,
            north,
        ),
        LocationUpdate::query(
            QueryId(0),
            Point::new(444.55648552219844, 794.3185545606905),
            0,
            31.1422671236654,
            north,
            QueryAttrs { spec },
        ),
        object(
            425.6781547958138,
            773.1011884455579,
            5.0,
            Point::new(0.0, 500.0),
        ),
    ]);
    for grid_cells in 1..40 {
        let base = ScubaParams::default().with_grid_cells(grid_cells);
        for params in [base, base.with_shedding(SheddingMode::Partial { eta: 0.0 })] {
            let truth = simulate(&pinned(params, vec![tick.clone(), Tick::default()]));
            assert_eq!(truth[&2], [QueryMatch::new(QueryId(0), ObjectId(0))]);
        }
    }
}

/// A recorded failure: resuming four stripes from the t=6 checkpoint,
/// where an entity held an attribute row but no cluster, must still hand
/// that entity to its new stripe when it next crosses a border.
#[test]
fn resumed_stripes_hand_off_unclustered_entities() {
    const SEED: u64 = 547;
    let update = |i: u64, t: Time| {
        let loc = Point::new(
            30.0 + ((i * 37 + t * 11 + SEED * 13) % 940) as f64,
            30.0 + ((i * 61 + t * 7 + SEED * 29) % 940) as f64,
        );
        let (speed, cn) = (15.0 + ((i + SEED) % 5) as f64, Point::new(1000.0, 500.0));
        if i % 4 == 3 {
            let spec = QuerySpec::square_range(12.0 + ((i + SEED) % 5) as f64);
            LocationUpdate::query(QueryId(i), loc, t, speed, cn, QueryAttrs { spec })
        } else {
            let class = ObjectClass::ALL[((i + SEED) % 6) as usize];
            LocationUpdate::object(ObjectId(i), loc, t, speed, cn, ObjectAttrs { class })
        }
    };
    let ticks = (1..=10).map(|t| batch((0..24).map(|i| update(i, t)).collect()));
    let mut s = pinned(ScubaParams::default().with_shards(4), ticks.collect());
    s.supervision = Some(Supervision {
        checkpoint_every: 3,
        kill: 6,
        wal_tear: None,
        trace_tear: None,
        panics: None,
        damage: Vec::new(),
    });
    simulate(&s);
}
