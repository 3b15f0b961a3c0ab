//! `scuba-ledger diff A.json B.json`: one row per (workload, metric) with
//! both medians, the ratio with its base, the bound and a verdict.
//!
//! * `ok` — B's median is not worse than A's by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — either input's own run-to-run spread exceeds the
//!   bound, so the two cannot be told apart at that resolution.
//!
//! A metric that is a function of the input alone (`per_seed_bound` in the
//! result file: `state_bytes_per_entity`, `accuracy`, `failed_share`)
//! repeats bit for bit for a seed, so it is compared seed by seed over the
//! seeds both files ran, against that tighter bound: one seed past it is a
//! regression, and how much the metric varies *between* seeds plays no
//! part.
//!
//! Per-layer metrics have no bound: counts are reported `same`/`changed`
//! (they repeat exactly for a seed on one commit), timings are listed for
//! reading only.

use crate::json::Json;
use crate::metrics::{Better, Bound};
use crate::stats;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The inputs' own spread exceeds the bound.
    Unresolved,
    /// A count that is bit-equal in both files.
    Same,
    /// A count that differs.
    Changed,
    /// A per-layer timing: shown, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Changed => "changed",
            Verdict::Info => "-",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Median in A (the base).
    pub a: f64,
    /// Median in B.
    pub b: f64,
    /// The larger of the two inputs' spreads.
    pub spread: f64,
    /// The bound (end-to-end metrics).
    pub bound: Option<Bound>,
    /// The verdict.
    pub verdict: Verdict,
}

fn field_f64(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}

/// How much worse `b` is than `a`, in the metric's unit (negative when
/// better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

fn past_bound(better: Better, bound: Bound, a: f64, b: f64) -> bool {
    let allowed = match bound {
        // A share of the base.
        Bound::Share(share) => share * a.abs(),
        Bound::Absolute(amount) => amount,
    };
    worsening(better, a, b) > allowed
}

fn judge(better: Better, bound: Bound, a: f64, b: f64, spread: f64) -> Verdict {
    if matches!(bound, Bound::Share(share) if spread > share) {
        Verdict::Unresolved
    } else if past_bound(better, bound, a, b) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The seeds a workload section ran, in run order (parallel to every
/// metric's `values`).
fn seeds(workload: &Json) -> Vec<f64> {
    let empty = Json::Arr(Vec::new());
    workload
        .get("runs")
        .unwrap_or(&empty)
        .items()
        .iter()
        .filter_map(|r| field_f64(r, "seed"))
        .collect()
}

/// `(a, b)` values of a metric for every seed both sections ran.
fn paired_by_seed(ma: &Json, mb: &Json, seeds_a: &[f64], seeds_b: &[f64]) -> Vec<(f64, f64)> {
    let values = |m: &Json| -> Vec<f64> {
        m.get("values")
            .map(|v| v.items().iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let (va, vb) = (values(ma), values(mb));
    seeds_a
        .iter()
        .zip(&va)
        .filter_map(|(seed, a)| {
            let at = seeds_b.iter().position(|s| s == seed)?;
            Some((*a, *vb.get(at)?))
        })
        .collect()
}

fn compare_table(
    workload: &str,
    a: &Json,
    b: &Json,
    table: &str,
    rows: &mut Vec<Row>,
) -> Result<(), String> {
    let empty = Json::Arr(Vec::new());
    let (seeds_a, seeds_b) = (seeds(a), seeds(b));
    let b_rows = b.get(table).unwrap_or(&empty).items();
    for ma in a.get(table).unwrap_or(&empty).items() {
        let name = ma
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{workload}: a {table} row has no name"))?;
        let Some(mb) = b_rows
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
        let (Some(mut va), Some(mut vb)) = (field_f64(ma, "median"), field_f64(mb, "median"))
        else {
            return Err(format!("{workload}/{name}: missing median"));
        };
        let mut spread = field_f64(ma, "spread")
            .unwrap_or(0.0)
            .max(field_f64(mb, "spread").unwrap_or(0.0));
        let bound = field_f64(ma, "bound")
            .map(Bound::Share)
            .or_else(|| field_f64(ma, "bound_abs").map(Bound::Absolute));
        let mut shown = bound;
        let verdict = match bound {
            Some(bound) => {
                let shown_bound = shown.insert(bound);
                let better = ma
                    .get("better")
                    .and_then(Json::as_str)
                    .and_then(Better::parse)
                    .ok_or_else(|| format!("{workload}/{name}: missing direction"))?;
                let per_seed = field_f64(ma, "per_seed_bound")
                    .map(Bound::Share)
                    .or_else(|| field_f64(ma, "per_seed_bound_abs").map(Bound::Absolute));
                let pairs = match per_seed {
                    Some(_) => paired_by_seed(ma, mb, &seeds_a, &seeds_b),
                    None => Vec::new(),
                };
                match per_seed {
                    Some(per_seed) if !pairs.is_empty() => {
                        // Seed by seed; the row shows the medians over the
                        // shared seeds, and no spread stands in the way.
                        va = stats::median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
                        vb = stats::median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
                        spread = 0.0;
                        *shown_bound = per_seed;
                        if pairs
                            .iter()
                            .any(|(a, b)| past_bound(better, per_seed, *a, *b))
                        {
                            Verdict::Regressed
                        } else {
                            Verdict::Ok
                        }
                    }
                    _ => judge(better, bound, va, vb, spread),
                }
            }
            None if unit == "count" => {
                if ma.get("values") == mb.get("values") {
                    Verdict::Same
                } else {
                    Verdict::Changed
                }
            }
            None => Verdict::Info,
        };
        rows.push(Row {
            workload: workload.to_string(),
            metric: name.to_string(),
            unit: unit.to_string(),
            a: va,
            b: vb,
            spread,
            bound: shown,
            verdict,
        });
    }
    Ok(())
}

/// Compares two parsed result files.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (label, doc) in [("A", a), ("B", b)] {
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(crate::report::SCHEMA) {
            return Err(format!(
                "{label} is not a {} result file",
                crate::report::SCHEMA
            ));
        }
    }
    let empty = Json::Arr(Vec::new());
    let b_workloads = b.get("workloads").unwrap_or(&empty).items();
    let mut rows = Vec::new();
    for wa in a.get("workloads").unwrap_or(&empty).items() {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("A has a workload without a name")?;
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        compare_table(name, wa, wb, "end_to_end", &mut rows)?;
        compare_table(name, wa, wb, "per_layer", &mut rows)?;
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(rows)
}

/// Renders the comparison; every ratio is given with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<38} {:>14} {:>14} {:>22} {:>8} {:>8}  {}\n",
        "workload", "metric", "A (base)", "B", "B / A", "spread", "bound", "verdict"
    );
    for r in rows {
        let ratio = if r.a != 0.0 {
            format!("{:.4}x of {:.4} {}", r.b / r.a, r.a, r.unit)
        } else {
            format!("base is 0 {}", r.unit)
        };
        let bound = match r.bound {
            Some(Bound::Share(b)) => format!("{:.1}%", b * 100.0),
            Some(Bound::Absolute(b)) => format!("{b} abs"),
            None => "-".into(),
        };
        out.push_str(&format!(
            "{:<16} {:<38} {:>14.4} {:>14.4} {:>22} {:>7.2}% {:>8}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.spread * 100.0,
            bound,
            r.verdict.label()
        ));
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} regressed, {} unresolved, {} counts changed\n",
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Changed)
    ));
    out
}

/// Whether any end-to-end metric regressed.
pub fn any_regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(p50: &[f64], ups: &[f64], tests: &[f64]) -> Json {
        let metric = |name: &str, unit: &str, better: &str, bound: Option<f64>, values: &[f64]| {
            let mut m = Json::obj()
                .with("name", Json::str(name))
                .with("unit", Json::str(unit))
                .with("better", Json::str(better));
            if let Some(b) = bound {
                m = m.with("bound", Json::Num(b));
            }
            m.with("values", Json::nums(values))
                .with("median", Json::Num(crate::stats::median(values)))
                .with("spread", Json::Num(crate::stats::spread(values)))
        };
        Json::obj()
            .with("schema", Json::str(crate::report::SCHEMA))
            .with(
                "workloads",
                Json::Arr(vec![Json::obj()
                    .with("name", Json::str("w"))
                    .with(
                        "end_to_end",
                        Json::Arr(vec![
                            metric("cycle_ms_p50", "ms", "lower", Some(0.05), p50),
                            metric("updates_per_s", "1/s", "higher", Some(0.05), ups),
                        ]),
                    )
                    .with(
                        "per_layer",
                        Json::Arr(vec![metric(
                            "join.between_tests",
                            "count",
                            "lower",
                            None,
                            tests,
                        )]),
                    )]),
            )
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<Verdict> {
        compare(a, b).unwrap().iter().map(|r| r.verdict).collect()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = file(&[10.0, 10.1, 10.0], &[1000.0, 1001.0, 999.0], &[7.0]);
        // Within the bound both ways; counts equal.
        let near = file(&[10.3, 10.3, 10.3], &[980.0, 980.0, 980.0], &[7.0]);
        assert_eq!(
            verdicts(&base, &near),
            [Verdict::Ok, Verdict::Ok, Verdict::Same]
        );
        // Slower cycle and lower throughput, each past 5 %; count moved.
        let worse = file(&[10.6, 10.6, 10.6], &[940.0, 940.0, 940.0], &[8.0]);
        let v = verdicts(&base, &worse);
        assert_eq!(
            v,
            [Verdict::Regressed, Verdict::Regressed, Verdict::Changed]
        );
        assert!(any_regressed(&compare(&base, &worse).unwrap()));
        // An improvement is never a regression.
        let better = file(&[5.0, 5.0, 5.0], &[2000.0, 2000.0, 2000.0], &[7.0]);
        assert!(!any_regressed(&compare(&base, &better).unwrap()));
        // A noisy input cannot resolve a 5 % bound.
        let noisy = file(&[9.0, 10.0, 11.5], &[1000.0, 1000.0, 1000.0], &[7.0]);
        assert_eq!(verdicts(&base, &noisy)[0], Verdict::Unresolved);
        let text = render(&compare(&base, &worse).unwrap());
        assert!(text.contains("x of 10.0000 ms") && text.contains("regressed"));
    }

    /// A result file with one clock-free metric, one value per seed.
    fn per_seed_file(seeds: &[f64], bytes: &[f64]) -> Json {
        Json::obj()
            .with("schema", Json::str(crate::report::SCHEMA))
            .with(
                "workloads",
                Json::Arr(vec![Json::obj()
                    .with("name", Json::str("w"))
                    .with(
                        "runs",
                        Json::Arr(
                            seeds
                                .iter()
                                .map(|s| Json::obj().with("seed", Json::Num(*s)))
                                .collect(),
                        ),
                    )
                    .with(
                        "end_to_end",
                        Json::Arr(vec![Json::obj()
                            .with("name", Json::str("state_bytes_per_entity"))
                            .with("unit", Json::str("B"))
                            .with("better", Json::str("lower"))
                            .with("bound", Json::Num(0.03))
                            .with("per_seed_bound", Json::Num(0.01))
                            .with("values", Json::nums(bytes))
                            .with("median", Json::Num(crate::stats::median(bytes)))
                            .with("spread", Json::Num(crate::stats::spread(bytes)))]),
                    )]),
            )
    }

    #[test]
    fn clock_free_metrics_are_compared_seed_by_seed() {
        // The seeds differ from one another by far more than the bound …
        let base = per_seed_file(&[1.0, 2.0, 3.0], &[300.0, 340.0, 380.0]);
        // … which is no obstacle: each seed is compared with itself.
        let same = per_seed_file(&[3.0, 2.0, 1.0], &[380.0, 340.0, 300.0]);
        assert_eq!(verdicts(&base, &same), [Verdict::Ok]);
        // One seed 2 % worse is a regression though the median holds.
        let one_worse = per_seed_file(&[1.0, 2.0, 3.0], &[306.1, 340.0, 380.0]);
        let rows = compare(&base, &one_worse).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[0].bound, Some(Bound::Share(0.01)));
        // No seed in common: the medians and the across-seed bound decide.
        let others = per_seed_file(&[7.0, 8.0, 9.0], &[301.0, 341.0, 381.0]);
        let rows = compare(&base, &others).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[0].bound, Some(Bound::Share(0.03)));
    }

    #[test]
    fn rejects_foreign_files() {
        assert!(compare(&Json::obj(), &Json::obj()).is_err());
    }
}
