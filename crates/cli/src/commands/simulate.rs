//! `scuba-sim simulate` — run SCUBA and report per-interval activity.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use scuba::clustering::ClusterEngine;
use scuba::durability::{encode_checkpoint, read_checkpoint};
use scuba::{
    DeltaTracker, DurabilityError, EngineSnapshot, OverloadCounters, QueryRegistry, ScubaOperator,
    ShardedScubaOperator, SnapshotError,
};
use scuba_spatial::json::Json;
use scuba_stream::{ContinuousOperator, Executor, ExecutorConfig, RunReport};

use crate::config::{OutputOptions, SimConfig};

/// One evaluation interval of the report.
#[derive(Debug)]
struct IntervalOut {
    t: u64,
    results: usize,
    added: usize,
    removed: usize,
    comparisons: u64,
    join_us: u128,
    maintenance_us: u128,
    memory_bytes: usize,
}

impl IntervalOut {
    fn json(&self) -> Json {
        let IntervalOut {
            t,
            results,
            added,
            removed,
            comparisons,
            join_us,
            maintenance_us,
            memory_bytes,
        } = *self;
        Json::obj()
            .with("t", t)
            .with("results", results)
            .with("added", added)
            .with("removed", removed)
            .with("comparisons", comparisons)
            .with("join_us", join_us)
            .with("maintenance_us", maintenance_us)
            .with("memory_bytes", memory_bytes)
    }
}

/// The validation / dead-letter summary (present when `--validate` is not
/// `off`).
#[derive(Debug)]
struct DeadLettersOut {
    policy: &'static str,
    seen: u64,
    accepted: u64,
    clamped: u64,
    rejected: u64,
    /// Rejections per reason, in the validator's reason order.
    by_reason: Vec<(&'static str, u64)>,
    buffered: usize,
    dropped: u64,
}

impl DeadLettersOut {
    fn json(&self) -> Json {
        let DeadLettersOut {
            policy,
            seen,
            accepted,
            clamped,
            rejected,
            ref by_reason,
            buffered,
            dropped,
        } = *self;
        let by_reason: Vec<Json> = by_reason
            .iter()
            .map(|&(reason, count)| Json::obj().with("reason", reason).with("count", count))
            .collect();
        Json::obj()
            .with("policy", policy)
            .with("seen", seen)
            .with("accepted", accepted)
            .with("clamped", clamped)
            .with("rejected", rejected)
            .with("by_reason", by_reason)
            .with("buffered", buffered)
            .with("dropped", dropped)
    }
}

/// The shedding-ladder summary (present when `--deadline-us` or
/// `--budget` is set); each trigger's fields appear only with it.
#[derive(Debug)]
struct OverloadOut {
    deadline_us: Option<u64>,
    budget_bytes: Option<usize>,
    counters: OverloadCounters,
    final_shedding: String,
}

impl OverloadOut {
    fn json(&self) -> Json {
        let OverloadOut {
            deadline_us,
            budget_bytes,
            counters: k,
            ref final_shedding,
        } = *self;
        Json::obj()
            .with_some("deadline_us", deadline_us)
            .with_some("budget_bytes", budget_bytes)
            .with("ticks", k.ticks)
            .with_some("misses", deadline_us.map(|_| k.misses))
            .with_some("over_budget", budget_bytes.map(|_| k.over_budget))
            .with("escalations", k.escalations)
            .with("relaxations", k.relaxations)
            .with("final_shedding", final_shedding.as_str())
    }

    /// The text report's line, e.g. `overload(budget=1B): 5 ticks, 5 over
    /// budget, 4 escalations, 0 relaxations`.
    fn line(&self) -> String {
        let k = &self.counters;
        let mut triggers = Vec::new();
        let mut counts = vec![format!("{} ticks", k.ticks)];
        if let Some(us) = self.deadline_us {
            triggers.push(format!("deadline={us}µs"));
            counts.push(format!("{} misses", k.misses));
        }
        if let Some(bytes) = self.budget_bytes {
            triggers.push(format!("budget={bytes}B"));
            counts.push(format!("{} over budget", k.over_budget));
        }
        counts.push(format!("{} escalations", k.escalations));
        counts.push(format!("{} relaxations", k.relaxations));
        format!("overload({}): {}", triggers.join(", "), counts.join(", "))
    }
}

/// The `--json` report of a whole run; the optional sections are left out
/// when absent.
fn run_json(
    report: &RunReport,
    clusters_final: usize,
    dead_letters: Option<&DeadLettersOut>,
    overload: Option<&OverloadOut>,
    intervals: &[IntervalOut],
) -> Json {
    Json::obj()
        .with("operator", report.operator.as_str())
        .with("updates_ingested", report.updates_ingested)
        .with("controls_applied", report.controls_applied)
        .with("clusters_final", clusters_final)
        .with("total_results", report.total_results())
        .with("stages", super::stages_json(&report.stage_totals()))
        .with_some("dead_letters", dead_letters.map(DeadLettersOut::json))
        .with_some("overload", overload.map(OverloadOut::json))
        .with_some("aborted", report.aborted.clone())
        .with(
            "evaluations",
            intervals.iter().map(IntervalOut::json).collect::<Vec<_>>(),
        )
}

/// Runs the command.
pub fn run(config: &SimConfig, opts: &OutputOptions, out: &mut dyn Write) -> std::io::Result<()> {
    if config.params.shards > 1 {
        return run_sharded(config, opts, out);
    }
    let (network, area) = super::build_city(config);
    let mut source = super::open_source(config, &opts.trace, Arc::clone(&network))?;
    let mut operator = match &opts.snapshot_in {
        Some(path) => ScubaOperator::from_engine(
            read_snapshot(Path::new(path))
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        ),
        None => ScubaOperator::new(config.params, area),
    };
    if let Some(budget) = opts.budget {
        operator = operator.with_memory_budget(budget);
    }
    let executor = Executor::new(ExecutorConfig {
        delta: config.params.delta,
        duration: config.duration,
    });
    let report = executor.run(&mut source, &mut operator);
    source.check_replay()?;

    let mut tracker = DeltaTracker::new();
    let mut intervals = Vec::new();
    for e in &report.evaluations {
        let delta = tracker.observe_sorted(e.now, e.results.clone());
        intervals.push(IntervalOut {
            t: e.now,
            results: e.results.len(),
            added: delta.added.len(),
            removed: delta.removed.len(),
            comparisons: e.comparisons,
            join_us: e.join_time().as_micros(),
            maintenance_us: e.maintenance_time().as_micros(),
            memory_bytes: e.memory_bytes,
        });
    }

    if let Some(path) = &opts.snapshot_out {
        let snapshot = EngineSnapshot::capture(operator.engine());
        let bytes = encode_checkpoint(config.duration, &[snapshot], &QueryRegistry::default());
        std::fs::write(path, bytes)?;
    }

    let dead_letters = operator.validator().map(|v| {
        let s = v.stats();
        DeadLettersOut {
            policy: v.policy().label(),
            seen: s.seen,
            accepted: s.accepted,
            clamped: s.clamped,
            rejected: s.rejected_total(),
            by_reason: s.rejected_by_reason(),
            buffered: v.dead_letter_len(),
            dropped: s.dead_letters_dropped,
        }
    });
    let overload = operator.overload_counters().map(|counters| OverloadOut {
        deadline_us: operator.engine().params().deadline_us,
        budget_bytes: opts.budget,
        counters,
        final_shedding: format!("{:?}", operator.current_shedding()),
    });
    if let Some(path) = &opts.dead_letter_out {
        super::export_dead_letters(path, operator.validator())?;
    }
    // An aborted run still reports everything gathered so far, then exits
    // non-zero so pipelines notice.
    let abort_error = report
        .aborted
        .clone()
        .map(|reason| std::io::Error::new(std::io::ErrorKind::InvalidData, reason));

    if opts.json {
        let payload = run_json(
            &report,
            operator.engine().cluster_count(),
            dead_letters.as_ref(),
            overload.as_ref(),
            &intervals,
        );
        writeln!(out, "{}", payload.pretty())?;
        return match abort_error {
            Some(e) => Err(e),
            None => Ok(()),
        };
    }

    writeln!(
        out,
        "{}: {} objects + {} queries, Δ={}, {} ticks",
        report.operator,
        config.workload.num_objects,
        config.workload.num_queries,
        config.params.delta,
        config.duration,
    )?;
    for i in &intervals {
        if opts.deltas {
            writeln!(
                out,
                "t={:<4} +{:<5} -{:<5} (net {:<5}) join={}µs",
                i.t, i.added, i.removed, i.results, i.join_us,
            )?;
        } else {
            writeln!(
                out,
                "t={:<4} results={:<6} comparisons={:<8} join={}µs maint={}µs mem={}B",
                i.t, i.results, i.comparisons, i.join_us, i.maintenance_us, i.memory_bytes,
            )?;
        }
    }
    writeln!(out, "pipeline stage totals:")?;
    super::write_stage_breakdown(out, "  ", &report.stage_totals())?;
    if let Some(d) = &dead_letters {
        let reasons: Vec<String> = d
            .by_reason
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(reason, count)| format!("{reason}={count}"))
            .collect();
        writeln!(
            out,
            "validation({}): {} seen, {} accepted ({} clamped), {} rejected [{}], {} dead letters buffered ({} dropped)",
            d.policy,
            d.seen,
            d.accepted,
            d.clamped,
            d.rejected,
            reasons.join(" "),
            d.buffered,
            d.dropped,
        )?;
    }
    if let Some(o) = &overload {
        writeln!(out, "{}", o.line())?;
    }
    writeln!(
        out,
        "done: {} updates, {} clusters live, {} result tuples total, shedding={:?}",
        report.updates_ingested,
        operator.engine().cluster_count(),
        report.total_results(),
        operator.current_shedding(),
    )?;
    if report.controls_applied > 0 {
        let g = operator.control_gauges();
        writeln!(
            out,
            "control plane: {} ops applied, {} active queries ({} registered, {} deregistered, {} unknown)",
            report.controls_applied,
            g.active_queries,
            g.registered_total,
            g.deregistered_total,
            g.unknown_total,
        )?;
    }
    if let Some(reason) = &report.aborted {
        writeln!(out, "aborted: {reason}")?;
    }
    match abort_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Restores the engine of a `--snapshot-in` file: a binary checkpoint
/// holding one stripe, as `--snapshot-out` and a single-store `serve`
/// write it. A sharded checkpoint is refused with
/// [`SnapshotError::ShardMismatch`], and a file that is not a checkpoint
/// (such as a JSON snapshot of older builds) with
/// [`SnapshotError::NotACheckpoint`].
fn read_snapshot(path: &Path) -> Result<ClusterEngine, DurabilityError> {
    let state = read_checkpoint(path)?;
    let snapshot_err = |source| DurabilityError::Snapshot {
        path: path.to_path_buf(),
        source,
    };
    match state.stripes.as_slice() {
        [single] => single.restore().map_err(snapshot_err),
        stripes => Err(snapshot_err(SnapshotError::ShardMismatch {
            found: stripes.len(),
            expected: 1,
        })),
    }
}

/// `--shards N` (N > 1): the same simulation through the stripe-owned
/// multi-worker executor. The single-store options of this command
/// (snapshots, memory budget, dead-letter export) are rejected up front
/// rather than silently ignored; `ScubaParams::validate` already refused
/// shedding, validation and a deadline.
fn run_sharded(
    config: &SimConfig,
    opts: &OutputOptions,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let unsupported = [
        (opts.snapshot_in.is_some(), "--snapshot-in"),
        (opts.snapshot_out.is_some(), "--snapshot-out"),
        (opts.budget.is_some(), "--budget"),
        (opts.dead_letter_out.is_some(), "--dead-letter-out"),
    ];
    if let Some((_, flag)) = unsupported.iter().find(|(on, _)| *on) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{flag} is not supported with --shards > 1 (single-store operator only)"),
        ));
    }

    let (network, area) = super::build_city(config);
    let mut source = super::open_source(config, &opts.trace, Arc::clone(&network))?;
    let mut operator = ShardedScubaOperator::new(config.params, area);
    let executor = Executor::new(ExecutorConfig {
        delta: config.params.delta,
        duration: config.duration,
    });
    let report = executor.run(&mut source, &mut operator);
    source.check_replay()?;

    let mut tracker = DeltaTracker::new();
    let mut intervals = Vec::new();
    for e in &report.evaluations {
        let delta = tracker.observe_sorted(e.now, e.results.clone());
        intervals.push(IntervalOut {
            t: e.now,
            results: e.results.len(),
            added: delta.added.len(),
            removed: delta.removed.len(),
            comparisons: e.comparisons,
            join_us: e.join_time().as_micros(),
            maintenance_us: e.maintenance_time().as_micros(),
            memory_bytes: e.memory_bytes,
        });
    }
    let clusters_final = operator.clusters_live().unwrap_or(0);

    if opts.json {
        let payload = run_json(&report, clusters_final, None, None, &intervals);
        writeln!(out, "{}", payload.pretty())?;
        return Ok(());
    }

    writeln!(
        out,
        "{}: {} objects + {} queries, Δ={}, {} ticks, {} stripe shards",
        report.operator,
        config.workload.num_objects,
        config.workload.num_queries,
        config.params.delta,
        config.duration,
        operator.shard_count(),
    )?;
    for i in &intervals {
        if opts.deltas {
            writeln!(
                out,
                "t={:<4} +{:<5} -{:<5} (net {:<5}) join={}µs",
                i.t, i.added, i.removed, i.results, i.join_us,
            )?;
        } else {
            writeln!(
                out,
                "t={:<4} results={:<6} comparisons={:<8} join={}µs maint={}µs mem={}B",
                i.t, i.results, i.comparisons, i.join_us, i.maintenance_us, i.memory_bytes,
            )?;
        }
    }
    writeln!(out, "pipeline stage totals:")?;
    super::write_stage_breakdown(out, "  ", &report.stage_totals())?;
    writeln!(
        out,
        "done: {} updates, {} clusters live across {} shards, {} ghost refreshes, {} result tuples total",
        report.updates_ingested,
        clusters_final,
        operator.shard_count(),
        operator.ghost_refreshes(),
        report.total_results(),
    )?;
    if report.controls_applied > 0 {
        let g = operator.control_gauges();
        writeln!(
            out,
            "control plane: {} ops applied, {} active queries ({} registered, {} deregistered, {} unknown)",
            report.controls_applied,
            g.active_queries,
            g.registered_total,
            g.deregistered_total,
            g.unknown_total,
        )?;
    }
    Ok(())
}
