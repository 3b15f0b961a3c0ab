//! `scuba-sim compare` — SCUBA vs the REGULAR grid baseline on one workload.

use std::io::Write;
use std::sync::Arc;

use scuba::{OperatorKind, OpsConfig};
use scuba_spatial::json::Json;
use scuba_stream::{Executor, ExecutorConfig, PhaseBreakdown, RunReport};

use crate::config::{OutputOptions, SimConfig};

/// One operator's totals.
#[derive(Debug)]
struct OperatorOut {
    name: String,
    join_us: u128,
    maintenance_us: u128,
    ingest_us: u128,
    results: usize,
    comparisons: u64,
    mean_memory_bytes: usize,
    /// Cumulative per-stage pipeline costs over the run.
    stages: PhaseBreakdown,
}

impl OperatorOut {
    fn from_report(report: &RunReport) -> Self {
        let agg = report.aggregate();
        OperatorOut {
            name: report.operator.clone(),
            join_us: agg.total_join_time.as_micros(),
            maintenance_us: agg.total_maintenance_time.as_micros(),
            ingest_us: report.ingest_time.as_micros(),
            results: agg.total_results,
            comparisons: agg.total_comparisons,
            mean_memory_bytes: agg.mean_memory_bytes,
            stages: report.stage_totals(),
        }
    }

    fn json(&self) -> Json {
        let OperatorOut {
            ref name,
            join_us,
            maintenance_us,
            ingest_us,
            results,
            comparisons,
            mean_memory_bytes,
            ref stages,
        } = *self;
        Json::obj()
            .with("name", name.as_str())
            .with("join_us", join_us)
            .with("maintenance_us", maintenance_us)
            .with("ingest_us", ingest_us)
            .with("results", results)
            .with("comparisons", comparisons)
            .with("mean_memory_bytes", mean_memory_bytes)
            .with("stages", super::stages_json(stages))
    }
}

/// Runs the command. Each operator consumes an identical stream: a fresh
/// deterministic generator, or the same `--trace` file re-opened per
/// operator. The suite comes from the [`OpsConfig`] factory, so the set
/// of operators (and their construction) is defined in exactly one place.
pub fn run(config: &SimConfig, opts: &OutputOptions, out: &mut dyn Write) -> std::io::Result<()> {
    let (network, area) = super::build_city(config);
    let executor = Executor::new(ExecutorConfig {
        delta: config.params.delta,
        duration: config.duration,
    });
    let ops = OpsConfig::new(config.params, area);

    let mut runs: Vec<(OperatorKind, RunReport)> = Vec::new();
    for kind in OperatorKind::ALL {
        let mut operator = ops.build(kind);
        let mut source = super::open_source(config, &opts.trace, Arc::clone(&network))?;
        runs.push((kind, executor.run(&mut source, operator.as_mut())));
        source.check_replay()?;
    }

    let report_of = |kind: OperatorKind| -> &RunReport {
        &runs
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("suite covers every kind")
            .1
    };
    let identical = report_of(OperatorKind::Scuba)
        .evaluations
        .iter()
        .zip(&report_of(OperatorKind::Regular).evaluations)
        .all(|(s, r)| s.results == r.results);

    let rows: Vec<OperatorOut> = runs
        .iter()
        .map(|(_, report)| OperatorOut::from_report(report))
        .collect();

    if opts.json {
        let operators: Vec<Json> = rows.iter().map(OperatorOut::json).collect();
        let payload = Json::obj()
            .with("identical", identical)
            .with("operators", operators);
        writeln!(out, "{}", payload.pretty())?;
        return Ok(());
    }

    writeln!(
        out,
        "comparing over {} objects + {} queries, {} evaluations",
        config.workload.num_objects,
        config.workload.num_queries,
        report_of(OperatorKind::Scuba).evaluations.len(),
    )?;
    writeln!(
        out,
        "{:<24} {:>10} {:>10} {:>10} {:>9} {:>12} {:>10}",
        "operator", "join(µs)", "maint(µs)", "ingest(µs)", "results", "comparisons", "mem(B)"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>10} {:>9} {:>12} {:>10}",
            r.name,
            r.join_us,
            r.maintenance_us,
            r.ingest_us,
            r.results,
            r.comparisons,
            r.mean_memory_bytes,
        )?;
    }
    writeln!(out)?;
    for ((kind, _), row) in runs.iter().zip(&rows) {
        writeln!(out, "{} pipeline:", kind.label())?;
        super::write_stage_breakdown(out, "  ", &row.stages)?;
    }
    writeln!(out, "SCUBA and REGULAR results identical: {identical}")?;
    Ok(())
}
