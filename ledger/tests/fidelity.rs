//! Loop fidelity: the harness unrolls the library's two loops to time
//! their parts; these tests assert the unrolled loops still produce what
//! `Executor::run` and `run_supervised` produce, so the benchmark cannot
//! drift from the path users run.

use std::path::PathBuf;

use scuba::{run_supervised, NoObserver, ScubaOperator, SuperviseConfig};
use scuba_ledger::harness::{result_crc, screen, Recorder, Rig};
use scuba_ledger::trace::Tracer;
use scuba_ledger::workload::{self, TickSource, Window, WARMUP_TICKS};
use scuba_motion::{ControlOp, LocationUpdate};
use scuba_stream::{
    EvaluationReport, Executor, ExecutorConfig, UpdateSource, UpdateValidator, ValidationPolicy,
};

/// The library loops count ticks from 1, so the comparison runs on the
/// window that starts at the trajectory's first tick.
const FROM_THE_START: Window = Window {
    start: 0,
    fault_seed: 77,
};
/// Small enough to be quick, large enough that every workload has answers
/// to compare (the convoy workloads have none below ≈ 0.1).
const SCALE: f64 = 0.1;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fidelity-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// CRCs of the evaluations past the warm-up, in tick order.
fn region_crcs(reports: &[EvaluationReport], region_start: u64) -> Vec<u32> {
    reports
        .iter()
        .filter(|r| r.now > region_start)
        .map(result_crc)
        .collect()
}

#[test]
fn unrolled_bare_loop_equals_executor_run() {
    for name in ["paper_uniform", "hotspot_join", "shed_half"] {
        let spec = workload::by_name(name).unwrap();
        let ticks = spec.round_ticks(40);

        let mut rig = Rig::build(spec, FROM_THE_START, SCALE, &scratch(name)).unwrap();
        let region_start = rig.now();
        assert_eq!(region_start, WARMUP_TICKS);
        let mut rec = Recorder::region(Tracer::on(), ticks / spec.params.delta, None);
        rig.advance(ticks, &mut rec).unwrap();

        let (network, area) = workload::build_city();
        let mut source = TickSource::new(&spec, network, FROM_THE_START.fault_seed, SCALE);
        let mut operator = ScubaOperator::new(spec.params, area);
        let report = Executor::new(ExecutorConfig {
            delta: spec.params.delta,
            duration: region_start + ticks,
        })
        .run(&mut source, &mut operator);

        assert!(report.aborted.is_none());
        assert_eq!(
            rec.data.crcs,
            region_crcs(&report.evaluations, region_start),
            "{name}"
        );
        assert_eq!(rec.data.crcs.len() as u64, ticks / spec.params.delta);
        assert!(rec.data.results > 0, "{name}: the stream produced answers");
    }
}

/// What the library loop is fed: the ticks as delivered where the operator
/// validates itself (`k1`, as `serve --validate reject` runs), and through
/// the same stand-in validator the harness puts in front of an operator
/// that cannot (`k2`).
struct Delivered {
    source: TickSource,
    stand_in: Option<UpdateValidator>,
    pending: Vec<LocationUpdate>,
}

impl UpdateSource for Delivered {
    fn next_controls(&mut self) -> Vec<ControlOp> {
        let tick = self.source.generate();
        match &mut self.stand_in {
            Some(validator) => {
                screen(validator, &tick, &mut self.pending);
            }
            None => self.pending = tick.updates,
        }
        tick.controls
    }

    fn next_tick(&mut self) -> Vec<LocationUpdate> {
        std::mem::take(&mut self.pending)
    }
}

/// Every file under a durable directory, by name, with its bytes.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn unrolled_durable_loop_equals_run_supervised() {
    for name in ["serve_churn_k1", "serve_churn_k2"] {
        let spec = workload::by_name(name).unwrap();
        let serve = spec.serve.unwrap();
        let ticks = spec.round_ticks(60);

        let mut rig = Rig::build(spec, FROM_THE_START, SCALE, &scratch(name)).unwrap();
        let region_start = rig.now();
        let mut rec = Recorder::region(Tracer::off(), 0, None);
        rig.advance(ticks, &mut rec).unwrap();
        // The tail tick the benchmark runs before the kill.
        rig.advance(1, &mut Recorder::discard()).unwrap();
        let duration = rig.now();
        assert_eq!(duration % serve.checkpoint_every, 5);

        let (network, area) = workload::build_city();
        let in_operator = spec.params.validation != ValidationPolicy::Off;
        let mut source = Delivered {
            source: TickSource::new(&spec, network, FROM_THE_START.fault_seed, SCALE),
            stand_in: (!in_operator).then(|| UpdateValidator::new(serve.validation, area)),
            pending: Vec::new(),
        };
        let dir = scratch(&format!("{name}-library"));
        let outcome = run_supervised(
            &mut source,
            &spec.params,
            area,
            &dir,
            &SuperviseConfig {
                duration,
                checkpoint_every: serve.checkpoint_every,
                sync_journal: false,
                ..SuperviseConfig::default()
            },
            None,
            &mut NoObserver,
        )
        .unwrap();

        assert!(outcome.report.aborted.is_none());
        assert_eq!(
            rec.data.crcs,
            region_crcs(&outcome.report.evaluations, region_start),
            "{name}"
        );
        assert!(rec.data.control_ops > 0);
        let rejected = rec
            .data
            .stages
            .get(scuba::engine::STAGE_VALIDATE)
            .map_or(0, |row| row.tests);
        assert_eq!(
            rejected > 0,
            in_operator,
            "{name}: the operator's own validator rejects the duplicates"
        );
        // The harness's validator — twin or stand-in — rejects them too,
        // and as a twin it agrees with the operator's to the update.
        assert!(rec.data.validate_rejected > 0, "{name}");
        if in_operator {
            assert_eq!(rec.data.validate_rejected, rejected, "{name}");
        }

        // Same journal frames and bytes, same checkpoints and bytes …
        let mine = rig.durable_totals().unwrap();
        assert_eq!(mine.journal_frames, outcome.stats.journal_frames, "{name}");
        assert_eq!(mine.journal_bytes, outcome.stats.journal_bytes, "{name}");
        assert_eq!(mine.checkpoints, outcome.stats.checkpoints, "{name}");
        assert_eq!(
            mine.checkpoint_bytes, outcome.stats.checkpoint_bytes,
            "{name}"
        );
        // … and byte-identical files on disk.
        assert_eq!(
            dir_contents(rig.durable_dir().unwrap()),
            dir_contents(&dir),
            "{name}"
        );
        // Both loops end in the same state.
        assert_eq!(
            rig.capture().unwrap().0,
            outcome.operator.capture(),
            "{name}"
        );
    }
}
