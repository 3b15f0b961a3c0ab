//! Turning runs into output: the per-run metric table, the contract line
//! the driver reads, and the self-contained result file `diff` compares.

use crate::json::Json;
use crate::metrics::{Bound, Measured, MetricDef, END_TO_END, PER_LAYER};
use crate::run::{RunOptions, WorkloadRun};
use crate::stats;
use crate::workload::WorkloadSpec;

/// Result-file schema tag.
pub const SCHEMA: &str = "scuba-ledger/1";

/// What is kept of one run once its metrics are computed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The seed.
    pub seed: u64,
    /// First tick of the trajectory window the seed selected.
    pub window_start: u64,
    /// Timed ticks asked for.
    pub ticks: u64,
    /// Δ-cycles completed.
    pub cycles: u64,
    /// Operations attempted / failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Failure reasons.
    pub failures: Vec<String>,
    /// Observations that are not failures.
    pub notes: Vec<String>,
    /// The wall-clock guard cut the region short.
    pub truncated: bool,
    /// Result CRC of every cycle, for cross-workload identity checks.
    pub crcs: Vec<u32>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (empty when untraced).
    pub per_layer: Vec<Measured>,
}

impl RunSummary {
    /// Summarises a run.
    pub fn of(run: &WorkloadRun) -> Self {
        RunSummary {
            seed: run.seed,
            window_start: run.window.start,
            ticks: run.ticks,
            cycles: run.untraced.cycle_ns.len() as u64,
            attempted: run.attempted,
            failed: run.failed,
            failures: run.failures.clone(),
            notes: run.notes.clone(),
            truncated: run.untraced.truncated,
            crcs: run.untraced.crcs.clone(),
            end_to_end: run.end_to_end.clone(),
            per_layer: run.per_layer.clone(),
        }
    }
}

fn metric_line(m: &Measured) -> String {
    let samples = if m.samples > 0 {
        format!("  (n={})", m.samples)
    } else {
        String::new()
    };
    let bound = match m.def.bound {
        Some(Bound::Share(b)) => format!("  bound {:.1}%", b * 100.0),
        Some(Bound::Absolute(b)) => format!("  bound {b} abs"),
        None => String::new(),
    };
    format!(
        "  {:<40} {:>18} {:<6}{samples}{bound}",
        m.def.name,
        format_value(m.value),
        m.def.unit
    )
}

/// Compact human rendering; result files and the contract line keep every
/// digit instead.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The human-readable block for one run: every metric by name with its
/// unit, then the operation counts.
pub fn render_run(spec: &WorkloadSpec, run: &RunSummary) -> String {
    let mut out = format!(
        "== {}  seed {}  window from tick {}  ticks {}  cycles {}{}\n   {}\n",
        spec.name,
        run.seed,
        run.window_start,
        run.ticks,
        run.cycles,
        if run.truncated { "  TRUNCATED" } else { "" },
        spec.why
    );
    out.push_str(" end-to-end (untraced pass)\n");
    for m in &run.end_to_end {
        out.push_str(&metric_line(m));
        out.push('\n');
    }
    if !run.per_layer.is_empty() {
        out.push_str(" per-layer (traced pass)\n");
        for m in &run.per_layer {
            out.push_str(&metric_line(m));
            out.push('\n');
        }
    }
    out.push_str(&format!(
        " operations: attempted {}  failed {}\n",
        run.attempted, run.failed
    ));
    for note in &run.notes {
        out.push_str(&format!(" note: {note}\n"));
    }
    for reason in &run.failures {
        out.push_str(&format!(" FAILED: {reason}\n"));
    }
    out
}

/// The one-line JSON object the driver reads from the last line of
/// standard output: the end-to-end metrics `BENCHMARK.json` lists for an
/// untraced run, per-layer metrics for a traced one.
pub fn contract_line(run: &RunSummary, traced: bool) -> String {
    let rows = if traced {
        &run.per_layer
    } else {
        &run.end_to_end
    };
    let mut metrics = Json::obj();
    for m in rows
        .iter()
        .filter(|m| !matches!(m.def.bound, Some(Bound::Absolute(_))))
    {
        metrics = metrics.with(
            m.def.name,
            Json::obj()
                .with("value", Json::Num(m.value))
                .with("unit", Json::str(m.def.unit)),
        );
    }
    Json::obj()
        .with("correct", Json::Bool(run.failed == 0))
        .with("attempted", Json::Int(run.attempted.max(1) as i64))
        .with("failed", Json::Int(run.failed as i64))
        .with("metrics", metrics)
        .compact()
}

fn metric_json(def: &MetricDef, values: &[f64], samples: &[u64]) -> Json {
    let (q1, q3) = stats::quartiles(values);
    let mut obj = Json::obj()
        .with("name", Json::str(def.name))
        .with("unit", Json::str(def.unit))
        .with("better", Json::str(def.better.label()));
    match def.bound {
        Some(Bound::Share(bound)) => obj = obj.with("bound", Json::Num(bound)),
        Some(Bound::Absolute(bound)) => obj = obj.with("bound_abs", Json::Num(bound)),
        None => {}
    }
    match def.per_seed {
        Some(Bound::Share(bound)) => obj = obj.with("per_seed_bound", Json::Num(bound)),
        Some(Bound::Absolute(bound)) => obj = obj.with("per_seed_bound_abs", Json::Num(bound)),
        None => {}
    }
    obj.with("values", Json::nums(values))
        .with(
            "samples",
            Json::Arr(samples.iter().map(|s| Json::Int(*s as i64)).collect()),
        )
        .with("median", Json::Num(stats::median(values)))
        .with("q1", Json::Num(q1))
        .with("q3", Json::Num(q3))
        .with("spread", Json::Num(stats::spread(values)))
}

fn metric_table(
    table: &'static [MetricDef],
    runs: &[RunSummary],
    pick: fn(&RunSummary) -> &Vec<Measured>,
) -> Json {
    let mut rows = Vec::new();
    for def in table {
        let measured: Vec<&Measured> = runs
            .iter()
            .filter_map(|r| pick(r).iter().find(|m| m.def.name == def.name))
            .collect();
        if measured.is_empty() {
            continue;
        }
        let values: Vec<f64> = measured.iter().map(|m| m.value).collect();
        let samples: Vec<u64> = measured.iter().map(|m| m.samples).collect();
        rows.push(metric_json(def, &values, &samples));
    }
    Json::Arr(rows)
}

/// One workload's section of the result file.
pub fn workload_json(spec: &WorkloadSpec, runs: &[RunSummary]) -> Json {
    let run_rows = runs
        .iter()
        .map(|r| {
            Json::obj()
                .with("seed", Json::Int(r.seed as i64))
                .with("window_start", Json::Int(r.window_start as i64))
                .with("ticks", Json::Int(r.ticks as i64))
                .with("cycles", Json::Int(r.cycles as i64))
                .with("attempted", Json::Int(r.attempted as i64))
                .with("failed", Json::Int(r.failed as i64))
                .with("correct", Json::Bool(r.failed == 0))
                .with("truncated", Json::Bool(r.truncated))
                .with(
                    "failures",
                    Json::Arr(r.failures.iter().map(|f| Json::str(f)).collect()),
                )
                .with(
                    "notes",
                    Json::Arr(r.notes.iter().map(|n| Json::str(n)).collect()),
                )
        })
        .collect();
    Json::obj()
        .with("name", Json::str(spec.name))
        .with("why", Json::str(spec.why))
        .with("runs", Json::Arr(run_rows))
        .with(
            "end_to_end",
            metric_table(END_TO_END, runs, |r| &r.end_to_end),
        )
        .with("per_layer", metric_table(PER_LAYER, runs, |r| &r.per_layer))
}

/// The whole result file.
pub fn result_json(host: Json, opts: &RunOptions, repeat: u64, workloads: Vec<Json>) -> Json {
    Json::obj()
        .with("schema", Json::str(SCHEMA))
        // This file is a measurement, not a comparison: it claims no gain.
        .with("claim", Json::Null)
        .with("host", host)
        .with("seed", Json::Int(opts.seed as i64))
        .with("scale", Json::Num(opts.scale))
        .with("seconds", Json::Int(opts.seconds as i64))
        .with("repeat", Json::Int(repeat as i64))
        .with("traced", Json::Bool(opts.trace))
        .with("workloads", Json::Arr(workloads))
}
