//! Crash-recovery identity and corruption robustness (ISSUE 9).
//!
//! The durability layer's contract is that killing a supervised run at an
//! arbitrary tick and recovering over the same directory is answer- and
//! state-invisible: the merged evaluation stream and the final engine
//! snapshots are bit-identical to an uninterrupted run. The property
//! below drives random workloads × kill points (including torn mid-frame
//! journal tails) × shards {1, 2, 4} × join cache {on, off}. The fuzz
//! companion truncates and bit-flips checkpoint and journal files at
//! random offsets: recovery must either succeed identically (falling back
//! to older durable state) or fail with a clean typed error — never
//! panic, never return divergent answers.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use scuba::{
    recover, resume, run_supervised, EngineSnapshot, IndexKind, NoObserver, ScubaOperator,
    ScubaParams, SheddingMode, SuperviseConfig, SupervisedOutcome,
};
use scuba_motion::{
    LocationUpdate, ObjectAttrs, ObjectClass, ObjectId, QueryAttrs, QueryId, QuerySpec,
};
use scuba_spatial::{Point, Rect, Time};
use scuba_stream::executor::UpdateSource;
use scuba_stream::{ContinuousOperator, EvaluationReport, PanicInjector, PanicPlan, QueryMatch};

const CN: Point = Point {
    x: 1000.0,
    y: 500.0,
};

fn area() -> Rect {
    Rect::square(1000.0)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("scuba-durability-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One deterministic mixed object/query update, varied by a workload seed
/// so different proptest cases exercise different geometries.
fn update(seed: u64, i: u64, t: Time) -> LocationUpdate {
    let x = 30.0 + ((i * 37 + t * 11 + seed * 13) % 940) as f64;
    let y = 30.0 + ((i * 61 + t * 7 + seed * 29) % 940) as f64;
    let speed = 15.0 + ((i + seed) % 5) as f64;
    if i % 4 == 3 {
        LocationUpdate::query(
            QueryId(i),
            Point::new(x, y),
            t,
            speed,
            CN,
            QueryAttrs {
                spec: QuerySpec::square_range(12.0 + ((i + seed) % 5) as f64),
            },
        )
    } else {
        LocationUpdate::object(
            ObjectId(i),
            Point::new(x, y),
            t,
            speed,
            CN,
            ObjectAttrs {
                class: ObjectClass::ALL[((i + seed) % 6) as usize],
            },
        )
    }
}

/// A restartable deterministic source: every construction re-delivers the
/// identical tick sequence, which is what lets a resumed run refill the
/// ticks a killed process never made durable.
struct DetSource {
    seed: u64,
    per_tick: u64,
    tick: Time,
}

impl DetSource {
    fn new(seed: u64, per_tick: u64) -> Self {
        DetSource {
            seed,
            per_tick,
            tick: 0,
        }
    }
}

impl UpdateSource for DetSource {
    fn next_tick(&mut self) -> Vec<LocationUpdate> {
        self.tick += 1;
        let t = self.tick;
        (0..self.per_tick)
            .map(|i| update(self.seed, i, t))
            .collect()
    }
}

fn supervised(
    dir: &Path,
    params: ScubaParams,
    seed: u64,
    per_tick: u64,
    duration: Time,
    checkpoint_every: u64,
    injector: Option<&Arc<PanicInjector>>,
) -> SupervisedOutcome {
    let cfg = SuperviseConfig {
        duration,
        checkpoint_every,
        max_restarts: 3,
        backoff: std::time::Duration::from_millis(1),
        ..SuperviseConfig::default()
    };
    let mut source = DetSource::new(seed, per_tick);
    run_supervised(
        &mut source,
        &params,
        area(),
        dir,
        &cfg,
        injector,
        &mut NoObserver,
    )
    .expect("supervised run succeeds")
}

/// Keep-last-by-tick view of an evaluation stream: a resumed run re-emits
/// the evaluations it replayed from the journal, so consumers (and this
/// identity check) dedup on tick, trusting the later emission.
fn by_tick(reports: &[&EvaluationReport]) -> std::collections::BTreeMap<Time, Vec<QueryMatch>> {
    let mut map = std::collections::BTreeMap::new();
    for r in reports {
        map.insert(r.now, r.results.clone());
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill-at-arbitrary-tick recovery identity: stage one runs the first
    /// `kill` ticks and stops (optionally tearing the journal tail
    /// mid-frame, as a SIGKILL mid-append would); stage two resumes over
    /// the same directory and runs to the end. The merged evaluation
    /// stream and the final stripe snapshots must equal an uninterrupted
    /// oracle run — across shard counts and with the join cache on or
    /// off.
    #[test]
    fn kill_and_recover_is_identical_to_uninterrupted_run(
        seed in 0u64..1000,
        kill in 1u64..10,
        shards_idx in 0usize..3,
        cache in any::<bool>(),
        tear_tail in any::<bool>(),
    ) {
        let shards = [1usize, 2, 4][shards_idx];
        let params = ScubaParams::default()
            .with_shards(shards)
            .with_join_cache(cache);
        let duration = 10u64;
        let per_tick = 24u64;

        // Uninterrupted oracle over its own directory.
        let oracle_dir = tmp_dir(&format!("oracle-{seed}-{kill}-{shards}-{cache}"));
        let oracle = supervised(&oracle_dir, params, seed, per_tick, duration, 3, None);
        prop_assert!(oracle.report.aborted.is_none());

        // Stage one: run to the kill point, then "die".
        let dir = tmp_dir(&format!("kill-{seed}-{kill}-{shards}-{cache}"));
        let first = supervised(&dir, params, seed, per_tick, kill, 3, None);

        if tear_tail {
            // Simulate a SIGKILL mid-append: chop bytes off the newest
            // journal segment so its last frame is torn.
            let mut journals: Vec<PathBuf> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| {
                    let p = e.unwrap().path();
                    (p.extension().is_some_and(|x| x == "wal")).then_some(p)
                })
                .collect();
            journals.sort();
            if let Some(newest) = journals.last() {
                let bytes = std::fs::read(newest).unwrap();
                if bytes.len() > 20 {
                    std::fs::write(newest, &bytes[..bytes.len() - 9]).unwrap();
                }
            }
        }

        // Stage two: resume over the same directory with a fresh source.
        let second = supervised(&dir, params, seed, per_tick, duration, 3, None);
        prop_assert!(second.report.aborted.is_none());

        // The merged evaluation stream matches the oracle's exactly.
        let merged: Vec<&EvaluationReport> = first
            .report
            .evaluations
            .iter()
            .chain(&second.report.evaluations)
            .collect();
        let oracle_stream: Vec<&EvaluationReport> = oracle.report.evaluations.iter().collect();
        prop_assert_eq!(by_tick(&merged), by_tick(&oracle_stream));

        // And the final durable state is bit-identical.
        prop_assert_eq!(second.operator.capture(), oracle.operator.capture());

        let _ = std::fs::remove_dir_all(&oracle_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Injected worker panics (every armed site fires once) are absorbed by
/// the supervisor: the run restarts the poisoned epoch from durable state
/// and finishes with answers identical to a fault-free run.
#[test]
fn injected_panics_leave_answers_identical() {
    let params = ScubaParams::default().with_shards(2);
    let clean_dir = tmp_dir("panic-clean");
    let clean = supervised(&clean_dir, params, 7, 24, 10, 3, None);
    assert!(clean.report.aborted.is_none());

    let faulty_dir = tmp_dir("panic-faulty");
    let injector = Arc::new(PanicInjector::new(PanicPlan {
        seed: 7,
        panic_prob: 1.0,
        rearm: false,
    }));
    let faulty = supervised(&faulty_dir, params, 7, 24, 10, 3, Some(&injector));

    assert!(
        faulty.report.aborted.is_none(),
        "{:?}",
        faulty.report.aborted
    );
    assert!(injector.fired() > 0, "the drill must actually fire");
    assert!(faulty.report.restarts > 0);
    let clean_stream: Vec<&EvaluationReport> = clean.report.evaluations.iter().collect();
    let faulty_stream: Vec<&EvaluationReport> = faulty.report.evaluations.iter().collect();
    assert_eq!(by_tick(&faulty_stream), by_tick(&clean_stream));
    assert_eq!(faulty.operator.capture(), clean.operator.capture());

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&faulty_dir);
}

/// Every durable file in `dir`, newest-last, with its pristine bytes.
fn snapshot_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect()
}

fn restore_files(files: &[(PathBuf, Vec<u8>)]) {
    for (path, bytes) in files {
        std::fs::write(path, bytes).unwrap();
    }
}

/// Fuzz the durable files: truncate or bit-flip checkpoints and journal
/// segments at pseudo-random offsets. Recovery must never panic — every
/// outcome is either a successful resume whose replayed evaluations agree
/// with the oracle at the same ticks, or a clean typed error.
#[test]
fn corrupted_durable_state_recovers_or_fails_cleanly() {
    let params = ScubaParams::default();
    let dir = tmp_dir("fuzz");
    let oracle = supervised(&dir, params, 11, 24, 10, 2, None);
    assert!(oracle.report.aborted.is_none());
    let oracle_stream: Vec<&EvaluationReport> = oracle.report.evaluations.iter().collect();
    let oracle_ticks = by_tick(&oracle_stream);
    let pristine = snapshot_files(&dir);
    assert!(
        pristine
            .iter()
            .any(|(p, _)| p.extension().is_some_and(|x| x == "ckpt")),
        "run must leave checkpoints to fuzz"
    );

    // Simple xorshift so corruption sites are reproducible.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for round in 0..60 {
        restore_files(&pristine);
        let (path, bytes) = &pristine[(next() % pristine.len() as u64) as usize];
        if bytes.is_empty() {
            continue;
        }
        let offset = (next() % bytes.len() as u64) as usize;
        if next() % 2 == 0 {
            std::fs::write(path, &bytes[..offset]).unwrap();
        } else {
            let mut mutated = bytes.clone();
            mutated[offset] ^= 1 << (next() % 8);
            std::fs::write(path, &mutated).unwrap();
        }

        match resume(&dir) {
            Ok(Some(resumed)) => {
                for report in &resumed.reports {
                    let expected = oracle_ticks.get(&report.now).unwrap_or_else(|| {
                        panic!("round {round}: replay invented tick {}", report.now)
                    });
                    assert_eq!(
                        &report.results,
                        expected,
                        "round {round}: divergent replay at t={} after corrupting {}",
                        report.now,
                        path.display()
                    );
                }
            }
            // Older durable state entirely gone or unusable: a typed
            // error (printable, non-panicking) is the contract.
            Ok(None) => {}
            Err(e) => {
                let _ = e.to_string();
            }
        }
        // recover() must hold the same no-panic contract.
        match recover(&dir) {
            Ok(_) => {}
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart budget of zero with a rearming injector cannot make
/// progress: the run gives up with a typed abort instead of looping.
#[test]
fn exhausted_budget_reports_abort() {
    let params = ScubaParams::default().with_shards(2);
    let dir = tmp_dir("budget");
    let injector = Arc::new(PanicInjector::new(PanicPlan {
        seed: 3,
        panic_prob: 1.0,
        rearm: true,
    }));
    let cfg = SuperviseConfig {
        duration: 6,
        checkpoint_every: 2,
        max_restarts: 0,
        backoff: std::time::Duration::from_millis(1),
        ..SuperviseConfig::default()
    };
    let mut source = DetSource::new(3, 24);
    let outcome = run_supervised(
        &mut source,
        &params,
        area(),
        &dir,
        &cfg,
        Some(&injector),
        &mut NoObserver,
    )
    .expect("an exhausted budget aborts, it does not error");
    let reason = outcome.report.aborted.expect("run must abort");
    assert!(reason.contains("restart budget"), "{reason}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded fleet that keeps clusters forming, overlapping, dissolving and
/// re-founding: every entity drives toward one of four border nodes at a
/// speed inside one Θ_S band and picks a new node on arrival. Entities
/// bound for the same node from nearby positions are within Θ_D of several
/// same-direction centroids at once — exactly where the choice of absorbing
/// cluster must not depend on slot history — and every arrival dissolves a
/// cluster whose slot the next founding reuses.
struct Fleet {
    seed: u64,
    tick: Time,
    /// Position, destination node index, speed.
    entities: Vec<(Point, usize, f64)>,
}

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

/// SplitMix64: stateless, so a choice depends only on `(seed, inputs)`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Fleet {
    fn new(seed: u64, n: u64) -> Self {
        let entities = (0..n)
            .map(|i| {
                let h = mix(seed ^ (i << 20));
                let loc = Point::new(100.0 + (h % 800) as f64, 100.0 + (h >> 16) as f64 % 800.0);
                (loc, (h >> 40) as usize % 4, 20.0 + (h >> 50) as f64 % 8.0)
            })
            .collect();
        Fleet {
            seed,
            tick: 0,
            entities,
        }
    }

    /// Advances every entity one time unit and reports it.
    fn next_tick(&mut self) -> Vec<LocationUpdate> {
        self.tick += 1;
        let (seed, t) = (self.seed, self.tick);
        self.entities
            .iter_mut()
            .enumerate()
            .map(|(i, (loc, node, speed))| {
                let i = i as u64;
                let to_node = NODES[*node] - *loc;
                if to_node.norm() <= *speed {
                    *loc = NODES[*node];
                    *node = (*node + 1 + (mix(seed ^ i ^ (t << 32)) % 3) as usize) % 4;
                } else {
                    *loc += to_node.with_length(*speed);
                }
                if i % 4 == 3 {
                    LocationUpdate::query(
                        QueryId(i),
                        *loc,
                        t,
                        *speed,
                        NODES[*node],
                        QueryAttrs {
                            spec: QuerySpec::square_range(60.0),
                        },
                    )
                } else {
                    LocationUpdate::object(
                        ObjectId(i),
                        *loc,
                        t,
                        *speed,
                        NODES[*node],
                        ObjectAttrs::default(),
                    )
                }
            })
            .collect()
    }
}

/// Feeds one tick to an operator, evaluating when Δ expires.
fn step(op: &mut ScubaOperator, updates: &[LocationUpdate], t: Time) -> Option<Vec<QueryMatch>> {
    op.process_batch(updates);
    (t % op.engine().params().delta == 0).then(|| op.evaluate(t).results)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine state is a function of the update history, not of slot
    /// history: an engine restored from a capture — whose slots are
    /// reassigned in cluster-id order, unlike the live engine's
    /// churn-ordered slab — fed the same remaining ticks stays
    /// `capture()`-equal to the live one (cluster ids, member lists,
    /// `next_cluster_id`) and answers identically at every evaluation.
    /// Under shedding the answers depend on the grouping, so they agree
    /// only because the grouping does.
    #[test]
    fn restored_engine_continues_capture_identical(
        seed in 0u64..1000,
        cut in 6u64..30,
        shed in any::<bool>(),
    ) {
        let shedding = if shed { SheddingMode::Partial { eta: 0.5 } } else { SheddingMode::None };
        let params = ScubaParams::default().with_shedding(shedding);
        let mut fleet = Fleet::new(seed, 320);
        let mut live = ScubaOperator::new(params, area());
        for t in 1..=cut {
            step(&mut live, &fleet.next_tick(), t);
        }
        prop_assert!(
            live.clustering_stats().dissolutions > 0,
            "the stream must dissolve and re-found clusters before the cut"
        );
        let snapshot = EngineSnapshot::capture(live.engine());
        let mut restored = ScubaOperator::from_engine(snapshot.restore().expect("restores"));
        for t in cut + 1..=cut + 24 {
            let updates = fleet.next_tick();
            let a = step(&mut live, &updates, t);
            let b = step(&mut restored, &updates, t);
            prop_assert_eq!(a, b, "answers diverged at t={}", t);
            prop_assert_eq!(
                EngineSnapshot::capture(restored.engine()),
                EngineSnapshot::capture(live.engine()),
                "captures diverged at t={}", t
            );
        }
        live.engine().check_invariants();
        restored.engine().check_invariants();
    }

    /// Clustering never reads the region index, so the index kind cannot
    /// show in engine state: a uniform-grid and an adaptive-grid engine fed
    /// the same stream stay `capture()`-equal (params aside) and answer
    /// identically.
    #[test]
    fn uniform_and_adaptive_engines_stay_capture_identical(seed in 0u64..1000) {
        let mut fleet = Fleet::new(seed, 320);
        // Coarse cells and a low split threshold, so the adaptive grid
        // really refines (and re-balances) under this fleet.
        let uniform_params = ScubaParams::default().with_grid_cells(20);
        let adaptive_params = uniform_params
            .with_index(IndexKind::Adaptive)
            .with_split_merge(4, 1);
        let mut uniform = ScubaOperator::new(uniform_params, area());
        let mut adaptive = ScubaOperator::new(adaptive_params, area());
        for t in 1..=30 {
            let updates = fleet.next_tick();
            let a = step(&mut uniform, &updates, t);
            let b = step(&mut adaptive, &updates, t);
            prop_assert_eq!(a, b, "answers diverged at t={}", t);
            let mut captured = EngineSnapshot::capture(adaptive.engine());
            captured.params = uniform_params;
            prop_assert_eq!(
                captured,
                EngineSnapshot::capture(uniform.engine()),
                "captures diverged at t={}", t
            );
        }
        let refined = adaptive.engine().index().as_adaptive().expect("adaptive index");
        prop_assert!(refined.refined_cell_count() > 0, "the fleet must refine some cell");
    }
}
