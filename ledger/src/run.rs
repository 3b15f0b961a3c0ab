//! One run of one workload: set-up, the timed region, the oracle check,
//! the crash drill (kill + resume), and — when asked — the traced re-run
//! over identical input.

use std::collections::BTreeSet;
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scuba::{recover, resume, AccuracyReport, EngineSnapshot};

use crate::harness::{
    result_crc, Recorder, Result, Rig, RunData, KILL_TICKS_PAST_CHECKPOINT, RESUME_REPEATS,
};
use crate::metrics::{Measured, Sheet, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::workload::{Window, WorkloadSpec};

/// Set-ups per untraced run; `setup_s` is their median. The last one is
/// the instance the timed region runs on.
pub const SETUPS: usize = 3;

/// How a run is sized and where it writes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed region is sized for. A traced run splits them
    /// between its untraced and its traced pass.
    pub seconds: u64,
    /// Population scale (1.0 = recorded tier).
    pub scale: f64,
    /// Exact timed ticks, overriding the seconds budget.
    pub ticks: Option<u64>,
    /// Also run the traced pass.
    pub trace: bool,
    /// Directory for durable state, events, traces and result files.
    pub out_dir: PathBuf,
}

/// What the oracle found on the sampled cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleOutcome {
    /// Cycles compared.
    pub checked: u64,
    /// Cycles whose answer differed from the oracle's (exact workloads).
    pub mismatched: u64,
    /// Answer-set agreement summed over the sampled cycles.
    pub accuracy: AccuracyReport,
    /// Answers with a shed end, summed over the sampled cycles.
    pub nucleus_matches: u64,
}

/// What the crash drill found.
///
/// A resume is correct when it lands on the kill tick with no torn tail,
/// re-answers the replayed evaluations exactly as the live run answered
/// them (exact workloads), and restores the query registry, the set of
/// known objects and the count of updates processed. Whether the full
/// `capture()` also matches is reported but not gated: at this PR's parent
/// commit a restored engine can group the same entities into different
/// clusters than the live one did, and a restored stripe can keep the
/// attribute entry of an entity that has since moved to its neighbour or
/// deregistered (answers are unaffected — they depend on positions, not on
/// grouping). `scuba`'s own `run_supervised` + `resume` show the same; see
/// README, "Findings".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResumeOutcome {
    /// Wall of each `scuba::resume`, seconds.
    pub resume_s: Vec<f64>,
    /// Wall of each `scuba::recover` (read + verify + decode), seconds.
    pub recover_s: Vec<f64>,
    /// Journal frames each resume replayed.
    pub replayed_frames: u64,
    /// Resumes that failed the correctness conditions above.
    pub mismatched: u64,
    /// Resumes whose full `capture()` also equalled the live one.
    pub captures_identical: u64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub spec: WorkloadSpec,
    /// The seed.
    pub seed: u64,
    /// The window of the trajectory the seed selected.
    pub window: Window,
    /// Timed ticks of each pass.
    pub ticks: u64,
    /// Wall of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced pass: every end-to-end metric comes from it.
    pub untraced: RunData,
    /// The traced pass and its spans.
    pub traced: Option<(RunData, Tracer)>,
    /// Oracle outcome.
    pub oracle: OracleOutcome,
    /// Crash-drill outcome (absent when the guard cut the region short).
    pub resume: Option<ResumeOutcome>,
    /// Operations attempted: evaluations, oracle checks, resumes and
    /// traced-vs-untraced answer comparisons.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Human-readable reasons, one per failure class.
    pub failures: Vec<String>,
    /// Observations that do not count as failures.
    pub notes: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Measured>,
}

impl WorkloadRun {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Compares the sampled evaluations against the oracle, outside any timed
/// region.
fn check_oracle(spec: &WorkloadSpec, data: &RunData) -> OracleOutcome {
    let mut outcome = OracleOutcome::default();
    for sample in &data.samples {
        let truth = sample.oracle.evaluate();
        let report = AccuracyReport::compare(&truth, &sample.measured);
        outcome.checked += 1;
        if spec.exact && (report.false_positives > 0 || report.false_negatives > 0) {
            outcome.mismatched += 1;
        }
        outcome.accuracy = outcome.accuracy.merge(&report);
        outcome.nucleus_matches += sample.nucleus_matches;
    }
    outcome
}

/// What must survive a kill whatever the grouping: updates processed and
/// the known objects, summed and united over stripes. (The active queries
/// are compared through the registry.)
fn durable_summary(stripes: &[EngineSnapshot]) -> (u64, BTreeSet<u64>) {
    (
        stripes.iter().map(|s| s.updates_processed).sum(),
        stripes
            .iter()
            .flat_map(|s| s.objects.iter().map(|(id, _)| id.0))
            .collect(),
    )
}

/// The crash drill: kills the durable loop [`KILL_TICKS_PAST_CHECKPOINT`]
/// ticks past its last checkpoint and resumes it [`RESUME_REPEATS`] times,
/// checking each resumed state against the live capture taken at the kill
/// and each replayed answer against the live run's. A bare-loop instance
/// is made durable first, anchored on the state the timed region left.
/// `region_crcs` are the live run's per-cycle result CRCs so far.
fn kill_and_resume(rig: Rig, region_crcs: &[u32]) -> Result<ResumeOutcome> {
    let mut rig = rig.into_crash_drill()?;
    let exact = rig.spec.exact;
    let past = rig
        .ticks_past_checkpoint()
        .expect("the drill runs on a durable instance");
    let mut tail = Recorder::discard();
    rig.advance(KILL_TICKS_PAST_CHECKPOINT.saturating_sub(past), &mut tail)?;
    let live_crcs = [region_crcs, &tail.data.crcs].concat();
    let live = rig.capture().expect("durable instances capture");
    let killed_at = rig.now();
    let dir = rig
        .durable_dir()
        .expect("durable instances have a directory")
        .to_path_buf();
    // Process death: state and the open journal are dropped, no final
    // checkpoint is written.
    drop(rig);

    let mut outcome = ResumeOutcome::default();
    for _ in 0..RESUME_REPEATS {
        let started = Instant::now();
        let recovery = recover(&dir)?;
        outcome.recover_s.push(started.elapsed().as_secs_f64());
        drop(recovery);

        let started = Instant::now();
        let resumed = resume(&dir)?.ok_or("durable state vanished before resume")?;
        outcome.resume_s.push(started.elapsed().as_secs_f64());
        outcome.replayed_frames = resumed.replayed_frames;
        let replayed: Vec<u32> = resumed.reports.iter().map(result_crc).collect();
        let captured = resumed.operator.capture();
        let tables_match = durable_summary(&captured) == durable_summary(&live.0);
        // Under shedding an answer depends on which members a nucleus
        // stands for, hence on the grouping a restore does not preserve.
        let answers_match = !exact || live_crcs.ends_with(&replayed);
        let correct = resumed.resume_tick == killed_at
            && !resumed.torn_tail
            && answers_match
            && tables_match
            && *resumed.operator.registry() == live.1;
        if !correct {
            outcome.mismatched += 1;
        }
        if captured == live.0 {
            outcome.captures_identical += 1;
        }
    }
    Ok(outcome)
}

/// Counts the cycles on which `other` answered differently from `base`
/// (a pass cut short by the guard counts its missing cycles too).
fn differing_cycles(base: &[u32], other: &[u32]) -> u64 {
    let unequal = base.iter().zip(other).filter(|(a, b)| a != b).count();
    (unequal + base.len().abs_diff(other.len())) as u64
}

/// Runs one workload once.
pub fn run_workload(spec: WorkloadSpec, opts: &RunOptions) -> Result<WorkloadRun> {
    let window = spec.window(opts.seed);
    // A traced run measures for `seconds` too: half untraced, half traced.
    let passes = if opts.trace { 2.0 } else { 1.0 };
    let ticks = match opts.ticks {
        Some(ticks) => spec.round_ticks(ticks.max(1)),
        None => spec.ticks_for(opts.seconds as f64 / passes),
    };
    let cycles = ticks / spec.params.delta.max(1);
    // A host much slower than the reference must still finish: past twice
    // its budget a pass stops at the next cycle boundary and says so.
    let guard = Some(Duration::from_secs_f64(
        opts.seconds.max(1) as f64 * 2.0 / passes,
    ));

    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    // Every pass measures the same ticks: those that follow SETUPS
    // set-ups from the window's start. Only an untraced run pays for the
    // repeats; a traced run reports no `setup_s` and starts one set-up
    // short of there.
    let mut setup_s = Vec::new();
    let first_setup = Window {
        start: window.start + (SETUPS as u64 - 1) * spec.setup_stride(),
        ..window
    };
    let mut rig = if opts.trace {
        Rig::build(spec, first_setup, opts.scale, &opts.out_dir)?
    } else {
        let mut rig = Rig::build(spec, window, opts.scale, &opts.out_dir)?;
        for _ in 1..SETUPS {
            setup_s.push(rig.setup_s);
            rig = rig.rebuild()?;
        }
        rig
    };
    setup_s.push(rig.setup_s);

    let mut rec = Recorder::region(Tracer::off(), cycles, guard);
    rig.advance(ticks, &mut rec)?;
    let untraced = rec.data;
    attempted += cycles;
    let missing = cycles - untraced.cycle_ns.len() as u64;
    if missing > 0 {
        failed += missing;
        failures.push(format!(
            "{missing} of {cycles} evaluations missing (cut short by the wall-clock guard)"
        ));
    }

    let oracle = check_oracle(&spec, &untraced);
    attempted += oracle.checked;
    if oracle.mismatched > 0 {
        failed += oracle.mismatched;
        failures.push(format!(
            "{} of {} sampled evaluations differ from the oracle",
            oracle.mismatched, oracle.checked
        ));
    }

    let resume = if untraced.truncated {
        drop(rig);
        None
    } else {
        let outcome = kill_and_resume(rig, &untraced.crcs)?;
        attempted += RESUME_REPEATS as u64;
        if outcome.mismatched > 0 {
            failed += outcome.mismatched;
            failures.push(format!(
                "{} of {RESUME_REPEATS} resumes did not reproduce the live run",
                outcome.mismatched
            ));
        }
        notes.push(format!(
            "resume: {} of {RESUME_REPEATS} restored captures equal the live one in full ({} of {RESUME_REPEATS} pass the gated conditions: kill tick, no torn tail, replayed answers, registry, objects, update count)",
            outcome.captures_identical,
            RESUME_REPEATS as u64 - outcome.mismatched
        ));
        Some(outcome)
    };

    let traced = if opts.trace {
        let mut rig = Rig::build(spec, first_setup, opts.scale, &opts.out_dir)?;
        let mut rec = Recorder::region(Tracer::on(), 0, guard);
        rig.advance(ticks, &mut rec)?;
        // Same seed, same ticks: the traced pass must answer identically.
        attempted += cycles;
        let differing = differing_cycles(&untraced.crcs, &rec.data.crcs);
        if differing > 0 {
            failed += differing;
            failures.push(format!(
                "{differing} of {cycles} traced cycles answered differently from the untraced pass"
            ));
        }
        notes.push(format!(
            "traced pass busy {:.3} s vs untraced {:.3} s ({:+.2} %; two passes differ by a few percent on their own, so trace.overhead_share is computed from the span count and the calibrated cost of a span)",
            rec.data.busy_s(),
            untraced.busy_s(),
            (rec.data.busy_s() / untraced.busy_s() - 1.0) * 100.0
        ));
        let path = opts.out_dir.join(spec.name).join("ledger-trace.ndjson");
        let mut out = BufWriter::new(fs::File::create(&path)?);
        rec.tracer.write_ndjson(&mut out)?;
        std::io::Write::flush(&mut out)?;
        Some((rec.data, rec.tracer))
    } else {
        None
    };

    let mut run = WorkloadRun {
        spec,
        seed: opts.seed,
        window,
        ticks,
        setup_s,
        untraced,
        traced,
        oracle,
        resume,
        attempted,
        failed,
        failures,
        notes,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    run.end_to_end = end_to_end(&run);
    if run.traced.is_some() {
        run.per_layer = per_layer(&run);
    }
    Ok(run)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn end_to_end(run: &WorkloadRun) -> Vec<Measured> {
    let data = &run.untraced;
    let cycles_ms = stats::sorted(data.cycle_ns.iter().map(|ns| *ns as f64 / 1e6).collect());
    let n = cycles_ms.len() as u64;
    let mut sheet = Sheet::new();
    sheet.put(
        "updates_per_s",
        ratio(data.updates_in as f64, data.busy_s()),
    );
    sheet.put_sampled("cycle_ms_p50", stats::percentile(&cycles_ms, 50.0), n);
    sheet.put_sampled("cycle_ms_p95", stats::percentile(&cycles_ms, 95.0), n);
    // The mean over the region's evaluations, not the last one alone: the
    // join's scratch buffers grow by doubling, so a single reading jumps
    // by 10 % or more with the tick it happens to be taken on.
    sheet.put_sampled(
        "state_bytes_per_entity",
        ratio(
            data.memory_bytes_sum as f64 / n.max(1) as f64,
            data.end.live_entities as f64,
        ),
        n,
    );
    sheet.put_sampled(
        "accuracy",
        run.oracle.accuracy.accuracy(),
        run.oracle.checked,
    );
    let resumes = run.resume.as_ref().map_or(&[][..], |r| &r.resume_s);
    sheet.put_sampled("resume_s", stats::median(resumes), resumes.len() as u64);
    sheet.put_sampled(
        "setup_s",
        stats::median(&run.setup_s),
        run.setup_s.len() as u64,
    );
    sheet.put(
        "failed_share",
        ratio(run.failed as f64, run.attempted as f64),
    );
    sheet.ordered(END_TO_END)
}

/// Spans whose parent is a cycle and that the system (not the generator)
/// spent: together they must account for the cycle.
fn is_system_child(span: &Span, spans: &[Span]) -> bool {
    span.parent != crate::trace::NONE
        && spans[span.parent as usize].name == "cycle"
        && span.name != "generator.tick"
}

fn per_layer(run: &WorkloadRun) -> Vec<Measured> {
    let (data, tracer) = run
        .traced
        .as_ref()
        .expect("per-layer metrics need the traced pass");
    let cycles = data.cycle_ns.len().max(1) as f64;
    let span_total = tracer.totals();
    // Per-cycle mean of a harness span, µs.
    let span_us = |name: &str| span_total.get(name).copied().unwrap_or(0) as f64 / cycles / 1e3;
    // Per-cycle mean of an engine-reported stage, µs, and its counters.
    let stage = |name: &str| data.stages.get(name);
    let stage_us =
        |name: &str| stage(name).map_or(0.0, |s| s.wall_time.as_nanos() as f64) / cycles / 1e3;

    let start = &data.counters_start;
    let end = &data.counters_end;
    let stripe_updates: Vec<f64> = end
        .stripe_updates
        .iter()
        .zip(&start.stripe_updates)
        .map(|(e, s)| (e - s) as f64)
        .collect();
    let clustering_updates: f64 = stripe_updates.iter().sum();
    let c0 = start.clustering;
    let c1 = end.clustering;
    let entities = data.end.live_entities as f64;
    let shedding = run.spec.params.shedding.is_active();

    let mut sheet = Sheet::new();
    sheet.put("generator.tick_us", span_us("generator.tick"));
    sheet.put("generator.updates", data.updates_in as f64);

    // `k1` screens inside `process_batch`: its engine's `validate` row
    // carries the counts, and the twin's wall over the same batches stands
    // in for the time, which the `ingest` span holds but cannot split.
    // `k2` is screened by the harness inside the cycle (the `validate`
    // span), so its `ingest` span is clustering alone.
    let validate_us = data.validate_ns as f64 / cycles / 1e3;
    let (checked, rejected, within_ingest_us) = match stage(scuba::engine::STAGE_VALIDATE) {
        Some(row) => (row.items_in, row.tests, validate_us),
        None => (data.validate_checked, data.validate_rejected, 0.0),
    };
    sheet.put("validate.busy_us", validate_us);
    sheet.put("validate.checked", checked as f64);
    sheet.put("validate.rejected", rejected as f64);

    sheet.put("control.apply_us", span_us("control.apply"));
    sheet.put("control.ops", data.control_ops as f64);
    sheet.put("control.unknown", data.end.gauges.unknown_total as f64);
    sheet.put(
        "control.active_queries",
        data.end.gauges.active_queries as f64,
    );

    sheet.put(
        "clustering.ingest_us",
        (span_us("ingest") - within_ingest_us).max(0.0),
    );
    sheet.put("clustering.updates", clustering_updates);
    sheet.put(
        "clustering.absorb_ratio",
        ratio(
            ((c1.absorptions - c0.absorptions) + (c1.refreshes - c0.refreshes)) as f64,
            clustering_updates,
        ),
    );
    sheet.put(
        "clustering.formed",
        (c1.clusters_formed - c0.clusters_formed) as f64,
    );
    sheet.put(
        "clustering.dissolved",
        (c1.dissolutions - c0.dissolutions) as f64,
    );
    sheet.put("clustering.clusters_live", data.end.clusters_live as f64);
    sheet.put(
        "clustering.tighten_us",
        stage_us(scuba::engine::STAGE_PRE_JOIN_TIGHTEN),
    );
    sheet.put(
        "clustering.post_join_us",
        stage_us(scuba::engine::STAGE_POST_JOIN),
    );

    sheet.put(
        "index.rebalance_us",
        stage_us(scuba::engine::STAGE_GRID_REBALANCE),
    );
    sheet.put("index.bytes", data.end.index_bytes as f64);
    sheet.put(
        "join.pair_discovery_us",
        stage_us(scuba::join::STAGE_PAIR_DISCOVERY),
    );
    sheet.put(
        "join.pair_candidates",
        stage(scuba::join::STAGE_PAIR_DISCOVERY).map_or(0.0, |s| s.tests as f64),
    );

    let between = stage(scuba::join::STAGE_JOIN_BETWEEN);
    let within = stage(scuba::join::STAGE_JOIN_WITHIN);
    sheet.put("join.between_us", stage_us(scuba::join::STAGE_JOIN_BETWEEN));
    sheet.put(
        "join.between_tests",
        between.map_or(0.0, |s| s.tests as f64),
    );
    sheet.put(
        "join.between_pass_ratio",
        between.map_or(0.0, |s| ratio(s.items_out as f64, s.tests as f64)),
    );
    sheet.put("join.within_us", stage_us(scuba::join::STAGE_JOIN_WITHIN));
    sheet.put("join.within_comparisons", data.comparisons as f64);
    sheet.put(
        "join.cache_hit_ratio",
        within.map_or(0.0, |s| {
            ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64)
        }),
    );
    sheet.put("join.merge_us", stage_us(scuba::join::STAGE_RESULT_MERGE));
    sheet.put("join.results", data.results as f64);
    let evaluate_us = stats::sorted(
        tracer
            .durations("evaluate")
            .iter()
            .map(|ns| *ns as f64 / 1e3)
            .collect(),
    );
    sheet.put("evaluate.wall_us", span_us("evaluate"));
    sheet.put_sampled(
        "evaluate.p99_us",
        stats::percentile(&evaluate_us, 99.0),
        evaluate_us.len() as u64,
    );

    sheet.put(
        "store.bytes_per_entity",
        ratio(data.end.store_bytes as f64, entities),
    );
    sheet.put(
        "store.join_scratch_bytes",
        data.end.join_scratch_bytes as f64,
    );

    sheet.put(
        "shedding.positions_shed",
        (c1.positions_shed - c0.positions_shed) as f64,
    );
    sheet.put(
        "shedding.within_comparisons",
        if shedding {
            data.comparisons as f64
        } else {
            0.0
        },
    );
    // Counted on the untraced pass's sampled cycles, where the oracle ran.
    sheet.put(
        "shedding.nucleus_matches",
        run.oracle.nucleus_matches as f64,
    );

    sheet.put("shard.route_us", stage_us(scuba::shard::STAGE_SHARD_ROUTE));
    sheet.put(
        "shard.exchange_us",
        stage_us(scuba::shard::STAGE_SHARD_EXCHANGE),
    );
    sheet.put("shard.merge_us", stage_us(scuba::shard::STAGE_SHARD_MERGE));
    sheet.put("shard.ghosts_shipped", data.ghosts_shipped as f64);
    let imbalance = if stripe_updates.len() > 1 {
        let max = stripe_updates.iter().copied().fold(0.0, f64::max);
        ratio(max, clustering_updates / stripe_updates.len() as f64)
    } else {
        0.0
    };
    sheet.put("shard.stripe_imbalance", imbalance);

    sheet.put("durability.wal_append_us", span_us("wal.append"));
    sheet.put(
        "durability.wal_bytes_per_update",
        ratio(data.wal_bytes as f64, data.wal_updates as f64),
    );
    // The whole checkpoint step: capture + write + journal rotation +
    // pruning + the health line.
    sheet.put("durability.checkpoint_us", span_us("checkpoint"));
    sheet.put("durability.capture_us", span_us("capture"));
    sheet.put("durability.checkpoint_write_us", span_us("write"));
    sheet.put(
        "durability.checkpoint_bytes_per_entity",
        ratio(
            data.checkpoint_bytes as f64,
            data.checkpoint_entities as f64,
        ),
    );
    let (recover_us, resume_us, replayed) = run.resume.as_ref().map_or((0.0, 0.0, 0.0), |r| {
        (
            stats::median(&r.recover_s) * 1e6,
            stats::median(&r.resume_s) * 1e6,
            r.replayed_frames as f64,
        )
    });
    sheet.put("durability.recover_us", recover_us);
    // `resume` = recover + restore + replay; the remainder is the replay.
    sheet.put("durability.replay_us", (resume_us - recover_us).max(0.0));
    sheet.put("durability.replayed_frames", replayed);

    sheet.put("emit.crc_us", span_us("emit"));
    sheet.put("emit.bytes", data.emit_bytes as f64);

    let spans = tracer.spans();
    let accounted: u64 = spans
        .iter()
        .filter(|s| is_system_child(s, spans))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let cycle_total: u64 = data.cycle_ns.iter().sum();
    sheet.put("cycle.wall_us", cycle_total as f64 / cycles / 1e3);
    sheet.put(
        "cycle.dark_share",
        ratio(cycle_total as f64 - accounted as f64, cycle_total as f64),
    );
    let evaluate_total = span_total.get("evaluate").copied().unwrap_or(0) as f64;
    sheet.put(
        "evaluate.dark_share",
        ratio(
            evaluate_total - data.stages.total_time().as_nanos() as f64,
            evaluate_total,
        ),
    );
    // The cost of recording, from the spans recorded and the calibrated
    // cost of one: the difference between two passes would measure the
    // host's pass-to-pass noise instead (it is in the run's notes).
    let recorded = spans.iter().filter(|s| !s.synthetic).count() as f64;
    sheet.put(
        "trace.overhead_share",
        ratio(recorded * Tracer::span_cost_ns(), cycle_total as f64),
    );
    sheet.ordered(PER_LAYER)
}

/// The default output directory: beside the running executable, i.e.
/// inside the cargo target directory — never the repo root, never outside
/// the checkout the build lives in.
pub fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("ledger-out")
}
