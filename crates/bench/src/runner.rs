//! Operator drivers shared by the figure harnesses.

use std::sync::Arc;
use std::time::Duration;

use scuba::{OperatorKind, OpsConfig, ScubaParams};
use scuba_generator::WorkloadGenerator;
use scuba_roadnet::{RoadNetwork, SyntheticCity};
use scuba_stream::{Executor, ExecutorConfig, PhaseBreakdown, RunReport};

use crate::config::ExperimentScale;

/// Outcome of driving one operator over one workload.
#[derive(Debug, Clone)]
pub struct OperatorRun {
    /// Per-interval reports.
    pub report: RunReport,
    /// Live clusters at the end of the run (0 for operators that do not
    /// cluster).
    pub mean_clusters: f64,
}

impl OperatorRun {
    /// Total join wall-clock time.
    pub fn join_time(&self) -> Duration {
        self.report.total_join_time()
    }

    /// Clustering/index maintenance wall-clock time: update ingestion plus
    /// post-join maintenance (the paper's "cluster maintenance" measure for
    /// SCUBA; grid rebuild for the baseline is inside `maintenance_time`).
    pub fn maintenance_time(&self) -> Duration {
        self.report.ingest_time + self.report.aggregate().total_maintenance_time
    }

    /// Per-stage totals over the run (merged by stage name).
    pub fn stage_totals(&self) -> PhaseBreakdown {
        self.report.stage_totals()
    }

    /// Mean estimated memory across evaluations, in bytes.
    pub fn mean_memory(&self) -> usize {
        self.report.aggregate().mean_memory_bytes
    }
}

/// Runs `f` `reps` times (at least once) and keeps the run with the
/// smallest total join time — the usual way to suppress scheduler noise in
/// wall-clock measurements.
pub fn best_of(reps: u32, mut f: impl FnMut() -> OperatorRun) -> OperatorRun {
    let mut best = f();
    for _ in 1..reps.max(1) {
        let run = f();
        if run.join_time() < best.join_time() {
            best = run;
        }
    }
    best
}

/// Runs `f` once per workload seed (each itself `reps`-repeated via
/// [`best_of`]) and returns all runs; figure rows average over them.
pub fn over_seeds(
    scale: &ExperimentScale,
    f: impl Fn(&ExperimentScale) -> OperatorRun,
) -> Vec<OperatorRun> {
    (0..scale.seeds.max(1))
        .map(|k| {
            let s = ExperimentScale {
                seed: scale.seed.wrapping_add(k as u64 * 7919),
                ..*scale
            };
            best_of(s.reps, || f(&s))
        })
        .collect()
}

/// Mean of a metric across runs.
pub fn mean_of(runs: &[OperatorRun], metric: impl Fn(&OperatorRun) -> f64) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(metric).sum::<f64>() / runs.len() as f64
}

/// Builds the shared city network for a scale.
pub fn build_network(scale: &ExperimentScale) -> Arc<RoadNetwork> {
    Arc::new(SyntheticCity::build(scale.city()).network)
}

/// Builds a fresh deterministic workload generator over `network`.
pub fn build_workload(scale: &ExperimentScale, network: Arc<RoadNetwork>) -> WorkloadGenerator {
    WorkloadGenerator::new(network, scale.workload())
}

/// Runs one operator of the suite over a fresh deterministic workload at
/// `scale` — the single driver behind every `run_*` convenience wrapper.
pub fn run_operator(
    scale: &ExperimentScale,
    kind: OperatorKind,
    params: ScubaParams,
) -> OperatorRun {
    let network = build_network(scale);
    let area = network.extent().expect("city is non-empty");
    let mut generator = build_workload(scale, network);
    let mut operator = OpsConfig::new(params, area).build(kind);
    let report = executor(scale).run(&mut || generator.tick(), operator.as_mut());
    OperatorRun {
        report,
        mean_clusters: operator.clusters_live().unwrap_or(0) as f64,
    }
}

/// Runs SCUBA with `params` over a fresh workload at `scale`.
pub fn run_scuba(scale: &ExperimentScale, params: ScubaParams) -> OperatorRun {
    run_operator(scale, OperatorKind::Scuba, params)
}

/// Runs the REGULAR baseline over a fresh (identical) workload at `scale`.
pub fn run_regular(scale: &ExperimentScale) -> OperatorRun {
    run_operator(scale, OperatorKind::Regular, scuba_params(scale))
}

/// SCUBA params consistent with a scale (grid + Δ from the scale, paper
/// thresholds otherwise). The grid is taken as given, not clamped, so
/// [`ScubaParams::validate`] sees a zero.
pub fn scuba_params(scale: &ExperimentScale) -> ScubaParams {
    ScubaParams {
        grid_cells: scale.grid_cells,
        delta: scale.delta,
        ..ScubaParams::default()
    }
}

fn executor(scale: &ExperimentScale) -> Executor {
    Executor::new(ExecutorConfig {
        delta: scale.delta,
        duration: scale.duration,
    })
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Formats bytes as fractional mebibytes.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            objects: 80,
            queries: 80,
            skew: 10,
            duration: 4,
            ..Default::default()
        }
    }

    #[test]
    fn scuba_run_produces_reports() {
        let run = run_scuba(&tiny(), scuba_params(&tiny()));
        assert_eq!(run.report.evaluations.len(), 2); // duration 4, Δ 2
        assert_eq!(run.report.updates_ingested, 4 * 160);
        assert!(run.mean_clusters > 0.0);
        assert!(run.mean_memory() > 0);
    }

    #[test]
    fn regular_run_produces_reports() {
        let run = run_regular(&tiny());
        assert_eq!(run.report.evaluations.len(), 2);
        assert_eq!(run.mean_clusters, 0.0);
    }

    #[test]
    fn identical_workloads_identical_results() {
        // The central experimental-validity check: SCUBA and REGULAR see
        // the exact same deterministic workload and agree on results.
        let scale = tiny();
        let s = run_scuba(&scale, scuba_params(&scale));
        let r = run_regular(&scale);
        assert_eq!(s.report.evaluations.len(), r.report.evaluations.len());
        for (se, re) in s.report.evaluations.iter().zip(&r.report.evaluations) {
            assert_eq!(se.results, re.results, "at t={}", se.now);
        }
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(ms(Duration::from_millis(1500)), 1500.0);
        assert_eq!(mib(1024 * 1024), 1.0);
    }

    #[test]
    fn every_operator_kind_reports_stages() {
        let scale = tiny();
        for kind in OperatorKind::ALL {
            let run = run_operator(&scale, kind, scuba_params(&scale));
            let totals = run.stage_totals();
            assert!(!totals.is_empty(), "{kind:?} reports stage totals");
            assert_eq!(
                totals.join_time(),
                run.join_time(),
                "{kind:?} stage totals reproduce join_time"
            );
        }
    }
}
