//! The measured loops, unrolled so their parts can be timed from outside.
//!
//! Two loops exist in the library and the harness mirrors both:
//!
//! * the **bare** loop — `Executor::run` over a `ScubaOperator`;
//! * the **durable** loop — `run_supervised` over a `DurableOperator`
//!   (write-ahead journal, control plane, evaluation, event emit,
//!   checkpoint + rotate + prune + health).
//!
//! Both are one function here ([`Rig::advance`]) whose durable steps are
//! skipped when the workload has no `ServeSpec`. The loop-fidelity tests
//! (`tests/fidelity.rs`) assert it produces what the library loops
//! produce, so the benchmark cannot drift from the path users run.
//!
//! The engine is tick-synchronous, so the load model is a closed loop with
//! one client: the harness generates tick *t* (untimed — the generator is
//! outside the system), then hands it in (timed).

use std::collections::HashSet;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scuba::clustering::{ClusterEngine, ClusteringStats};
use scuba::durability::{crc32, prune, write_checkpoint, JournalFrame, JournalWriter};
use scuba::{
    ControlGauges, DurabilityStats, DurableOperator, EngineSnapshot, QueryRegistry, ScubaOperator,
    SuperviseConfig,
};
use scuba_motion::{ControlOp, EntityRef, LocationUpdate};
use scuba_spatial::{Rect, Time};
use scuba_stream::{
    ContinuousOperator, EvaluationReport, LatencyTrack, PhaseBreakdown, QueryMatch,
    UpdateValidator, ValidationPolicy, Verdict,
};

use crate::oracle::Oracle;
use crate::trace::{SpanId, Tracer, NONE};
use crate::workload::{self, TickSource, Window, WorkloadSpec, WARMUP_TICKS};

/// Errors surface as messages: the CLI prints them and exits non-zero.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Oracle checks per run, evenly spaced over the timed region.
pub const ORACLE_SAMPLES: u64 = 16;

/// `scuba::resume` repetitions behind `resume_s`.
pub const RESUME_REPEATS: usize = 7;

/// Ticks between the last checkpoint and the kill.
pub const KILL_TICKS_PAST_CHECKPOINT: u64 = 5;

/// The operator under test, in the shape the mirrored library loop uses.
#[derive(Debug)]
pub enum Op {
    /// `Executor::run`'s operand.
    Bare(Box<ScubaOperator>),
    /// `run_supervised`'s operand.
    Durable(DurableOperator),
}

impl Op {
    fn apply_control(&mut self, ops: &[ControlOp], now: Time) {
        match self {
            Op::Bare(op) => op.apply_control(ops, now),
            Op::Durable(op) => op.apply_control(ops, now),
        }
    }

    fn process_batch(&mut self, updates: &[LocationUpdate]) {
        match self {
            Op::Bare(op) => op.process_batch(updates),
            Op::Durable(op) => op.process_batch(updates),
        }
    }

    fn fault(&self) -> Option<String> {
        match self {
            Op::Bare(op) => op.fault(),
            Op::Durable(op) => op.fault(),
        }
    }

    /// One evaluation, with the fault poll each library loop makes.
    fn evaluate(&mut self, now: Time) -> std::result::Result<EvaluationReport, String> {
        match self {
            Op::Bare(op) => {
                let report = op.evaluate(now);
                match op.fault() {
                    Some(reason) => Err(reason),
                    None => Ok(report),
                }
            }
            Op::Durable(op) => op.try_evaluate(now).map_err(|e| e.to_string()),
        }
    }

    /// Control-plane gauges.
    pub fn control_gauges(&self) -> ControlGauges {
        match self {
            Op::Bare(op) => op.control_gauges(),
            Op::Durable(op) => op.control_gauges(),
        }
    }

    /// The clustering engine(s): one, or one per stripe.
    pub fn engines(&self) -> Vec<&ClusterEngine> {
        match self {
            Op::Bare(op) => vec![op.engine()],
            Op::Durable(DurableOperator::Single(op)) => vec![op.engine()],
            Op::Durable(DurableOperator::Sharded(op)) => op.engines().collect(),
        }
    }

    /// Bytes reserved by the reusable joining-phase buffers (the sharded
    /// executor keeps its per-stripe scratch private: 0).
    pub fn join_scratch_bytes(&self) -> usize {
        match self {
            Op::Bare(op) => op.join_scratch_bytes(),
            Op::Durable(DurableOperator::Single(op)) => op.join_scratch_bytes(),
            Op::Durable(DurableOperator::Sharded(_)) => 0,
        }
    }

    /// Ghost clusters shipped between stripes in the last evaluation.
    fn ghosts_shipped(&self) -> u64 {
        match self {
            Op::Durable(DurableOperator::Sharded(op)) => op.last_exchange().0,
            _ => 0,
        }
    }

    fn clusters_live(&self) -> usize {
        self.engines().iter().map(|e| e.cluster_count()).sum()
    }
}

/// Engine-side cumulative counters, read at region boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineCounters {
    /// Clustering activity summed over stripes.
    pub clustering: ClusteringStats,
    /// Updates each stripe's engine processed.
    pub stripe_updates: Vec<u64>,
}

impl EngineCounters {
    fn read(op: &Op) -> Self {
        let mut c = EngineCounters::default();
        for engine in op.engines() {
            let s = engine.stats();
            c.clustering.clusters_formed += s.clusters_formed;
            c.clustering.absorptions += s.absorptions;
            c.clustering.refreshes += s.refreshes;
            c.clustering.evictions += s.evictions;
            c.clustering.dissolutions += s.dissolutions;
            c.clustering.positions_shed += s.positions_shed;
            c.stripe_updates.push(engine.updates_processed());
        }
        c
    }
}

/// State sizes read once, after the last evaluation of a region.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndState {
    /// Objects plus active queries (the oracle's count).
    pub live_entities: usize,
    /// `ClusterStore` bytes, summed over stripes.
    pub store_bytes: usize,
    /// Spatial-index bytes, summed over stripes.
    pub index_bytes: usize,
    /// Join scratch capacity.
    pub join_scratch_bytes: usize,
    /// Live clusters.
    pub clusters_live: usize,
    /// Control-plane gauges.
    pub gauges: ControlGauges,
}

/// One evaluation kept for the oracle check made after the timed region.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Evaluation tick.
    pub now: Time,
    /// The oracle as of that tick.
    pub oracle: Oracle,
    /// What the operator answered.
    pub measured: Vec<QueryMatch>,
    /// Answers with an end whose position was shed (shedding workloads).
    pub nucleus_matches: u64,
}

/// Everything one pass over a region records.
#[derive(Debug, Default)]
pub struct RunData {
    /// Ticks handed in.
    pub ticks: u64,
    /// Wall of each completed Δ-cycle, ns (generator and bookkeeping
    /// excluded).
    pub cycle_ns: Vec<u64>,
    /// Result CRC of each cycle.
    pub crcs: Vec<u32>,
    /// Location updates handed to the system (pre-validation).
    pub updates_in: u64,
    /// Generator wall, ns.
    pub generator_ns: u64,
    /// Wall the harness's validator spent, ns. Where the operator screens
    /// inside `process_batch` (`k1`) this is the twin's wall over the same
    /// batches — same code, same input, run outside the cycle: an
    /// estimate. Where the harness screens in the operator's stead (`k2`)
    /// it is part of the cycle.
    pub validate_ns: u64,
    /// Updates the harness's validator checked / rejected.
    pub validate_checked: u64,
    /// See `validate_checked`.
    pub validate_rejected: u64,
    /// Control ops applied.
    pub control_ops: u64,
    /// Journal bytes appended.
    pub wal_bytes: u64,
    /// Updates journalled (as delivered, pre-validation).
    pub wal_updates: u64,
    /// Checkpoint bytes written, and entities alive at each checkpoint.
    pub checkpoint_bytes: u64,
    /// See `checkpoint_bytes`.
    pub checkpoint_entities: u64,
    /// Result-event bytes emitted (health lines carry timings and are not
    /// counted, so the figure repeats for a seed).
    pub emit_bytes: u64,
    /// Per-stage totals of every evaluation's `phases` rows.
    pub stages: PhaseBreakdown,
    /// Exact object×query tests (join-within work).
    pub comparisons: u64,
    /// Result pairs over all cycles.
    pub results: u64,
    /// Ghost clusters shipped between stripes.
    pub ghosts_shipped: u64,
    /// `memory_bytes` summed over every evaluation report.
    pub memory_bytes_sum: u64,
    /// Evaluations kept for the oracle.
    pub samples: Vec<Sample>,
    /// Engine counters at region start and end.
    pub counters_start: EngineCounters,
    /// See `counters_start`.
    pub counters_end: EngineCounters,
    /// State sizes after the last evaluation.
    pub end: EndState,
    /// The wall-clock guard cut the region short.
    pub truncated: bool,
}

impl RunData {
    /// Σ cycle wall, seconds.
    pub fn busy_s(&self) -> f64 {
        self.cycle_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// What a pass records beyond the always-on cycle walls.
#[derive(Debug)]
pub struct Recorder {
    /// Span recorder (off for the untraced pass).
    pub tracer: Tracer,
    /// The pass's record.
    pub data: RunData,
    /// Keep every `sample_stride`-th cycle for the oracle (0: none).
    sample_stride: u64,
    /// Stop at the next cycle boundary once the region has run this long.
    guard: Option<Duration>,
}

impl Recorder {
    /// A recorder for warm-up and tail ticks: nothing sampled, no guard.
    pub fn discard() -> Self {
        Recorder {
            tracer: Tracer::off(),
            data: RunData::default(),
            sample_stride: 0,
            guard: None,
        }
    }

    /// A recorder for a timed region. `sampled_cycles` is the region's
    /// length in cycles when [`ORACLE_SAMPLES`] of them are to be kept for
    /// the oracle, or 0 to keep none.
    pub fn region(tracer: Tracer, sampled_cycles: u64, guard: Option<Duration>) -> Self {
        let sample_stride = match sampled_cycles {
            0 => 0,
            cycles => (cycles / ORACLE_SAMPLES).max(1),
        };
        Recorder {
            tracer,
            data: RunData::default(),
            sample_stride,
            guard,
        }
    }
}

/// Durable-loop state: what `run_supervised` keeps in locals.
#[derive(Debug)]
struct Durable {
    dir: PathBuf,
    cfg: SuperviseConfig,
    journal: JournalWriter,
    /// Frames since the last checkpoint (the in-memory journal a worker
    /// restart would replay).
    pending: Vec<JournalFrame>,
    /// Totals since the instance was built, warm-up included — the
    /// counters `run_supervised` returns, for the fidelity test.
    totals: DurabilityStats,
    /// Tick of the newest checkpoint.
    anchored_at: Time,
}

impl Durable {
    /// What `run_supervised` does before its first tick: a checkpoint of
    /// `operator` and a fresh journal segment at `tick`, older files
    /// pruned.
    fn anchor(
        dir: PathBuf,
        cfg: SuperviseConfig,
        operator: &DurableOperator,
        tick: Time,
    ) -> Result<Durable> {
        fs::create_dir_all(&dir)?;
        let written = write_checkpoint(&dir, tick, &operator.capture(), operator.registry())?;
        let journal = JournalWriter::create(&dir, tick, cfg.sync_journal)?;
        prune(&dir, cfg.keep_checkpoints);
        Ok(Durable {
            dir,
            cfg,
            journal,
            pending: Vec::new(),
            totals: DurabilityStats {
                checkpoints: 1,
                checkpoint_bytes: written,
                ..DurabilityStats::default()
            },
            anchored_at: tick,
        })
    }
}

/// Screens one delivered tick as the single-store operator does: the
/// updates its control ops carry first (which only advances the
/// validator's per-entity clock — the ops themselves are applied either
/// way), then the batch, keeping the survivors in delivery order. Returns
/// how many updates of the batch were rejected.
pub fn screen(
    validator: &mut UpdateValidator,
    tick: &workload::Tick,
    accepted: &mut Vec<LocationUpdate>,
) -> u64 {
    for op in &tick.controls {
        if let ControlOp::Register(u) | ControlOp::Update(u) = op {
            validator.check(u);
        }
    }
    accepted.clear();
    for update in &tick.updates {
        if let Verdict::Accept(clean) = validator.check(update) {
            accepted.push(clean);
        }
    }
    (tick.updates.len() - accepted.len()) as u64
}

/// CRC32 over an evaluation's sorted result pairs, as `scuba-sim serve`
/// computes it for its event lines.
pub fn result_crc(report: &EvaluationReport) -> u32 {
    let mut bytes = Vec::with_capacity(report.results.len() * 16);
    for m in &report.results {
        bytes.extend_from_slice(&m.query.0.to_le_bytes());
        bytes.extend_from_slice(&m.object.0.to_le_bytes());
    }
    crc32(&bytes)
}

/// A workload instance: source, operator, durable state and event sink,
/// warmed up and ready for the timed region.
#[derive(Debug)]
pub struct Rig {
    /// The workload.
    pub spec: WorkloadSpec,
    source: TickSource,
    /// The harness's validator (workloads that validate). Where the
    /// operator validates itself this one is its twin: it screens the same
    /// ops outside the timed cycle, so the oracle is fed the survivors.
    /// Where the operator cannot (the sharded executor drives no
    /// validator, and `serve` refuses `--validate` with `--shards > 1`)
    /// it stands in: it screens inside the cycle, in front of the journal
    /// and the operator, so `k2`'s engine ingests what `k1`'s does.
    validator: Option<UpdateValidator>,
    accepted: Vec<LocationUpdate>,
    op: Op,
    durable: Option<Durable>,
    events: BufWriter<fs::File>,
    latencies: LatencyTrack,
    oracle: Oracle,
    now: Time,
    area: Rect,
    scale: f64,
    /// Where this instance keeps its events and durable state.
    work_dir: PathBuf,
    /// Wall time the set-up took, warm-up included.
    pub setup_s: f64,
}

impl Rig {
    /// Sets a workload up: city, generator, the generator's advance to the
    /// window's start, operator (plus the durable directory with its
    /// baseline checkpoint and first journal segment), then
    /// [`WARMUP_TICKS`] ticks through the same loop the timed region uses.
    /// `setup_s` is all of it except the advance to the window, which is
    /// the input's cost, not the system's, and differs from seed to seed.
    pub fn build(spec: WorkloadSpec, window: Window, scale: f64, out_dir: &Path) -> Result<Rig> {
        let started = Instant::now();
        let (network, area) = workload::build_city();
        let mut source = TickSource::new(&spec, network, window.fault_seed, scale);
        let outside_s = started.elapsed().as_secs_f64();
        source.skip(window.start);
        Rig::assemble(
            spec,
            source,
            area,
            scale,
            outside_s,
            out_dir.join(spec.name),
        )
    }

    /// Sets the workload up once more, on the ticks that follow, for
    /// another `setup_s` sample: city and generator are built afresh and
    /// dropped (the trajectory carries on from this instance's source,
    /// which spares a second advance to the window), the system is built
    /// afresh and warmed up. This instance and its files are gone.
    pub fn rebuild(self) -> Result<Rig> {
        let Rig {
            spec,
            mut source,
            area,
            scale,
            work_dir,
            ..
        } = self;
        let started = Instant::now();
        let (network, _) = workload::build_city();
        drop(TickSource::new(&spec, network, 0, scale));
        let outside_s = started.elapsed().as_secs_f64();
        // Keep Δ-cycles and checkpoint periods aligned with the clock.
        source.skip(spec.setup_stride() - WARMUP_TICKS);
        Rig::assemble(spec, source, area, scale, outside_s, work_dir)
    }

    /// The system's share of a set-up, on a source that stands at the tick
    /// the operator's clock starts from.
    fn assemble(
        spec: WorkloadSpec,
        source: TickSource,
        area: Rect,
        scale: f64,
        outside_s: f64,
        work_dir: PathBuf,
    ) -> Result<Rig> {
        let started = Instant::now();
        // A previous instance's durable state must not be resumed from.
        if work_dir.exists() {
            fs::remove_dir_all(&work_dir)?;
        }
        fs::create_dir_all(&work_dir)?;
        let events = BufWriter::new(fs::File::create(work_dir.join("events.ndjson"))?);
        let now = source.clock();

        let (op, durable) = match spec.serve {
            None => (
                Op::Bare(Box::new(ScubaOperator::new(spec.params, area))),
                None,
            ),
            Some(serve) => {
                let operator = DurableOperator::new(spec.params, area);
                let cfg = SuperviseConfig {
                    checkpoint_every: serve.checkpoint_every,
                    // Flush latency is the host's, not the program's.
                    sync_journal: false,
                    ..SuperviseConfig::default()
                };
                let durable = Durable::anchor(work_dir.join("durable"), cfg, &operator, now)?;
                (Op::Durable(operator), Some(durable))
            }
        };
        let validator = spec
            .serve
            .map(|serve| UpdateValidator::new(serve.validation, area));

        let mut rig = Rig {
            spec,
            source,
            validator,
            accepted: Vec::new(),
            op,
            durable,
            events,
            latencies: LatencyTrack::new(),
            oracle: Oracle::new(),
            now,
            area,
            scale,
            work_dir,
            setup_s: 0.0,
        };
        rig.advance(WARMUP_TICKS, &mut Recorder::discard())?;
        rig.setup_s = outside_s + started.elapsed().as_secs_f64();
        Ok(rig)
    }

    /// Makes a bare-loop instance durable, anchored at the current tick —
    /// a checkpoint of the state the timed region left and an empty
    /// journal — so the crash drill behind `resume_s` runs on every
    /// workload. No further checkpoint is taken. Durable instances are
    /// returned as they are.
    pub fn into_crash_drill(self) -> Result<Rig> {
        if self.durable.is_some() {
            return Ok(self);
        }
        let Op::Bare(operator) = self.op else {
            unreachable!("no durable state implies a bare operator");
        };
        let operator = DurableOperator::Single(operator);
        let cfg = SuperviseConfig {
            checkpoint_every: u64::MAX,
            sync_journal: false,
            ..SuperviseConfig::default()
        };
        let durable = Durable::anchor(self.work_dir.join("durable"), cfg, &operator, self.now)?;
        Ok(Rig {
            op: Op::Durable(operator),
            durable: Some(durable),
            ..self
        })
    }

    /// The current tick.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Ticks handed in since the last checkpoint (durable instances).
    pub fn ticks_past_checkpoint(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| self.now - d.anchored_at)
    }

    /// Where the durable state lives (durable instances).
    pub fn durable_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Journal and checkpoint totals since the instance was built — what
    /// `run_supervised` reports as `SupervisedOutcome::stats` (the wall
    /// times stay zero here: the recorder holds them).
    pub fn durable_totals(&self) -> Option<DurabilityStats> {
        self.durable.as_ref().map(|d| d.totals)
    }

    /// The operator's durable state, as a checkpoint would capture it.
    pub fn capture(&self) -> Option<(Vec<EngineSnapshot>, QueryRegistry)> {
        match &self.op {
            Op::Durable(op) => Some((op.capture(), op.registry().clone())),
            Op::Bare(_) => None,
        }
    }

    /// Hands `ticks` ticks in, recording into `rec`.
    pub fn advance(&mut self, ticks: u64, rec: &mut Recorder) -> Result<()> {
        let Rig {
            spec,
            source,
            validator,
            accepted,
            op,
            durable,
            events,
            latencies,
            oracle,
            now: clock,
            ..
        } = self;
        let delta = spec.params.delta.max(1);
        let shedding = spec.params.shedding.is_active();
        let region_started = Instant::now();
        rec.data.counters_start = EngineCounters::read(op);

        let mut cycle_ns = 0u64;
        let mut cycle_span: SpanId = NONE;
        let mut cycle_id = 0u32;
        for _ in 0..ticks {
            let now = *clock + 1;
            if (now - 1) % delta == 0 {
                if rec.guard.is_some_and(|g| region_started.elapsed() > g) {
                    rec.data.truncated = true;
                    break;
                }
                cycle_id = rec.data.cycle_ns.len() as u32;
                cycle_span = rec.tracer.open("cycle", NONE, cycle_id);
            }

            // ---- outside the system: generate the tick (untimed) ----
            let generating = Instant::now();
            let span = rec.tracer.open("generator.tick", cycle_span, cycle_id);
            let tick = source.generate();
            rec.tracer.close(span);
            rec.data.generator_ns += generating.elapsed().as_nanos() as u64;

            // ---- the system: everything below is the Δ-cycle ----
            let handed_in = Instant::now();
            let mut untimed = Duration::ZERO;

            // `k2`: the harness screens in the operator's stead.
            let stand_in = spec.params.validation == ValidationPolicy::Off;
            let updates: &[LocationUpdate] = match validator {
                Some(v) if stand_in => {
                    let screening = Instant::now();
                    let span = rec.tracer.open("validate", cycle_span, cycle_id);
                    let rejected = screen(v, &tick, accepted);
                    rec.tracer.close(span);
                    rec.data.validate_ns += screening.elapsed().as_nanos() as u64;
                    rec.data.validate_checked += tick.updates.len() as u64;
                    rec.data.validate_rejected += rejected;
                    accepted
                }
                _ => &tick.updates,
            };

            if let Some(d) = durable.as_mut() {
                // Write-ahead: the frame is on disk before the operator
                // sees it, and kept in memory for a worker restart.
                let span = rec.tracer.open("wal.append", cycle_span, cycle_id);
                let bytes = d.journal.append_frame(now, updates, &tick.controls)?;
                d.pending.push(JournalFrame {
                    tick: now,
                    updates: updates.to_vec(),
                    controls: tick.controls.clone(),
                });
                rec.tracer.close(span);
                d.totals.journal_frames += 1;
                d.totals.journal_bytes += bytes;
                rec.data.wal_bytes += bytes;
                rec.data.wal_updates += updates.len() as u64;
            }

            if !tick.controls.is_empty() {
                let span = rec.tracer.open("control.apply", cycle_span, cycle_id);
                op.apply_control(&tick.controls, now);
                rec.tracer.close(span);
                rec.data.control_ops += tick.controls.len() as u64;
            }

            let span = rec.tracer.open("ingest", cycle_span, cycle_id);
            op.process_batch(updates);
            rec.tracer.close(span);
            if let Some(reason) = op.fault() {
                return Err(format!("operator fault after ingest at t={now}: {reason}").into());
            }

            let mut evaluated = None;
            if now % delta == 0 {
                // Shedding workloads: on sampled cycles, note which
                // entities are answered from the nucleus — before the
                // evaluation's post-join maintenance can dissolve their
                // cluster. Inspection is not the system's work.
                let sampled = rec.sample_stride > 0
                    && (rec.data.cycle_ns.len() as u64 + 1).is_multiple_of(rec.sample_stride);
                let mut shed: HashSet<EntityRef> = HashSet::new();
                if sampled && shedding {
                    let inspecting = Instant::now();
                    for engine in op.engines() {
                        for (_, cluster) in engine.store().iter() {
                            shed.extend(
                                cluster
                                    .members()
                                    .iter()
                                    .filter(|m| m.is_shed())
                                    .map(|m| m.entity),
                            );
                        }
                    }
                    untimed += inspecting.elapsed();
                }

                let eval_span = rec.tracer.open("evaluate", cycle_span, cycle_id);
                let report = op
                    .evaluate(now)
                    .map_err(|e| format!("evaluation failed at t={now}: {e}"))?;
                rec.tracer.close(eval_span);

                // Event emit: what `serve --out` does per evaluation.
                let span = rec.tracer.open("emit", cycle_span, cycle_id);
                let crc = result_crc(&report);
                latencies.record(report.join_time());
                let line = format!(
                    "{{\"t\":{},\"results\":{},\"active_queries\":{},\"crc\":{}}}\n",
                    report.now,
                    report.results.len(),
                    op.control_gauges().active_queries,
                    crc
                );
                events.write_all(line.as_bytes())?;
                events.flush()?;
                rec.tracer.close(span);
                rec.data.emit_bytes += line.len() as u64;
                evaluated = Some((report, crc, eval_span, sampled, shed));
            }

            let mut checkpoint_bytes = None;
            if let Some(d) = durable.as_mut() {
                if now % d.cfg.checkpoint_every.max(1) == 0 {
                    let ckpt = rec.tracer.open("checkpoint", cycle_span, cycle_id);
                    let span = rec.tracer.open("capture", ckpt, cycle_id);
                    let Op::Durable(operator) = &*op else {
                        unreachable!("durable state implies a durable operator");
                    };
                    let stripes = operator.capture();
                    let registry = operator.registry().clone();
                    rec.tracer.close(span);
                    let span = rec.tracer.open("write", ckpt, cycle_id);
                    let written = write_checkpoint(&d.dir, now, &stripes, &registry)?;
                    rec.tracer.close(span);
                    let span = rec.tracer.open("rotate", ckpt, cycle_id);
                    d.journal = JournalWriter::create(&d.dir, now, d.cfg.sync_journal)?;
                    d.pending.clear();
                    rec.tracer.close(span);
                    let span = rec.tracer.open("prune", ckpt, cycle_id);
                    prune(&d.dir, d.cfg.keep_checkpoints);
                    rec.tracer.close(span);
                    // The health line `serve` prints at every checkpoint.
                    let span = rec.tracer.open("health", ckpt, cycle_id);
                    let line = format!(
                        "{{\"health\":{now},\"p99_join_us\":{},\"clusters\":{},\"mem\":{},\"active_queries\":{}}}\n",
                        latencies.percentile(99.0).as_micros(),
                        operator.clusters_live(),
                        operator.memory_bytes(),
                        operator.control_gauges().active_queries,
                    );
                    events.write_all(line.as_bytes())?;
                    rec.tracer.close(span);
                    rec.tracer.close(ckpt);
                    d.totals.checkpoints += 1;
                    d.totals.checkpoint_bytes += written;
                    d.anchored_at = now;
                    checkpoint_bytes = Some(written);
                }
            }

            cycle_ns += (handed_in.elapsed() - untimed).as_nanos() as u64;

            // ---- bookkeeping (untimed) ----
            *clock = now;
            rec.data.ticks += 1;
            rec.data.updates_in += tick.updates.len() as u64;
            // The oracle sees what validation let through. `k1`: a twin
            // of the operator's own validator screens the same ops.
            let survivors: &[LocationUpdate] = match validator {
                Some(v) if !stand_in => {
                    let screening = Instant::now();
                    let rejected = screen(v, &tick, accepted);
                    rec.data.validate_ns += screening.elapsed().as_nanos() as u64;
                    rec.data.validate_checked += tick.updates.len() as u64;
                    rec.data.validate_rejected += rejected;
                    accepted
                }
                _ => updates,
            };
            oracle.observe(&tick.controls, survivors);
            if let Some(written) = checkpoint_bytes {
                rec.data.checkpoint_bytes += written;
                rec.data.checkpoint_entities += oracle.live_entities() as u64;
            }
            if let Some((report, crc, eval_span, sampled, shed)) = evaluated {
                rec.tracer.close(cycle_span);
                rec.tracer.synthesise(
                    eval_span,
                    report
                        .phases
                        .stages()
                        .iter()
                        .map(|s| (s.name.clone(), s.wall_time.as_nanos() as u64)),
                );
                rec.data.cycle_ns.push(std::mem::take(&mut cycle_ns));
                rec.data.crcs.push(crc);
                rec.data.stages.absorb(&report.phases);
                rec.data.comparisons += report.comparisons;
                rec.data.results += report.results.len() as u64;
                rec.data.ghosts_shipped += op.ghosts_shipped();
                rec.data.memory_bytes_sum += report.memory_bytes as u64;
                if sampled {
                    let nucleus_matches = report
                        .results
                        .iter()
                        .filter(|m| {
                            shed.contains(&EntityRef::Object(m.object))
                                || shed.contains(&EntityRef::Query(m.query))
                        })
                        .count() as u64;
                    rec.data.samples.push(Sample {
                        now,
                        oracle: oracle.clone(),
                        measured: report.results,
                        nucleus_matches,
                    });
                }
            }
        }

        rec.data.counters_end = EngineCounters::read(op);
        let engines = op.engines();
        rec.data.end = EndState {
            live_entities: oracle.live_entities(),
            store_bytes: engines.iter().map(|e| e.store().estimated_bytes()).sum(),
            index_bytes: engines.iter().map(|e| e.grid().estimated_bytes()).sum(),
            join_scratch_bytes: op.join_scratch_bytes(),
            clusters_live: op.clusters_live(),
            gauges: op.control_gauges(),
        };
        Ok(())
    }
}
