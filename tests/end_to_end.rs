//! End-to-end integration tests: city → workload → stream → SCUBA/REGULAR.

use std::sync::Arc;

use scuba::baseline::RegularGridOperator;
use scuba::{ScubaOperator, ScubaParams, SheddingMode};
use scuba_generator::{WorkloadConfig, WorkloadGenerator};
use scuba_roadnet::{CityConfig, SyntheticCity};
use scuba_stream::{Executor, ExecutorConfig, RunReport};

fn small_city() -> (Arc<scuba_roadnet::RoadNetwork>, scuba_spatial::Rect) {
    // The 1 000×1 000 test town keeps entity density high enough that
    // object convoys and query convoys actually cross paths.
    let city = SyntheticCity::build(CityConfig::small());
    let area = city.network.extent().expect("city has nodes");
    (Arc::new(city.network), area)
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        num_objects: 400,
        num_queries: 300,
        skew: 25,
        query_range_side: 60.0,
        ..WorkloadConfig::default()
    }
}

fn run_scuba(params: ScubaParams, duration: u64) -> (RunReport, ScubaOperator) {
    let (network, area) = small_city();
    let mut generator = WorkloadGenerator::new(network, workload());
    let mut operator = ScubaOperator::new(params, area);
    let executor = Executor::new(ExecutorConfig { delta: 2, duration });
    let report = executor.run(&mut || generator.tick(), &mut operator);
    (report, operator)
}

fn run_regular(duration: u64) -> RunReport {
    let (network, area) = small_city();
    let mut generator = WorkloadGenerator::new(network, workload());
    let mut operator = RegularGridOperator::new(100, area);
    let executor = Executor::new(ExecutorConfig { delta: 2, duration });
    executor.run(&mut || generator.tick(), &mut operator)
}

#[test]
fn scuba_and_regular_agree_end_to_end() {
    let (scuba_run, _) = run_scuba(ScubaParams::default(), 10);
    let regular_run = run_regular(10);
    assert_eq!(scuba_run.evaluations.len(), regular_run.evaluations.len());
    assert_eq!(scuba_run.evaluations.len(), 5);
    let mut total = 0;
    for (s, r) in scuba_run.evaluations.iter().zip(&regular_run.evaluations) {
        assert_eq!(s.results, r.results, "divergence at t={}", s.now);
        total += s.results.len();
    }
    assert!(total > 0, "workload produced no matches at all");
}

#[test]
fn runs_are_deterministic() {
    let (a, _) = run_scuba(ScubaParams::default(), 6);
    let (b, _) = run_scuba(ScubaParams::default(), 6);
    assert_eq!(a.evaluations.len(), b.evaluations.len());
    for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
        assert_eq!(x.results, y.results);
        assert_eq!(x.comparisons, y.comparisons);
    }
    assert_eq!(a.updates_ingested, b.updates_ingested);
}

#[test]
fn grid_granularity_does_not_change_results() {
    let fine = run_scuba(ScubaParams::default().with_grid_cells(150), 6).0;
    let coarse = run_scuba(ScubaParams::default().with_grid_cells(25), 6).0;
    for (f, c) in fine.evaluations.iter().zip(&coarse.evaluations) {
        assert_eq!(f.results, c.results, "grid granularity changed answers");
    }
}

#[test]
fn shedding_trades_accuracy_not_correctness() {
    let exact = run_scuba(ScubaParams::default(), 6).0;
    let shed = run_scuba(
        ScubaParams::default().with_shedding(SheddingMode::Partial { eta: 0.5 }),
        6,
    )
    .0;
    // Shedding must not crash, must produce *some* overlap with the truth,
    // and every reported pair must reference known entities.
    let mut acc = scuba::AccuracyReport::default();
    for (t, m) in exact.evaluations.iter().zip(&shed.evaluations) {
        acc = acc.merge(&scuba::AccuracyReport::compare(&t.results, &m.results));
    }
    assert!(acc.true_positives > 0, "shedding lost every result");
    assert!(acc.accuracy() > 0.2, "accuracy collapsed: {acc:?}");
    assert!(acc.accuracy() < 1.0 + f64::EPSILON);
}

#[test]
fn shed_engine_uses_less_memory() {
    let exact = run_scuba(ScubaParams::default(), 6).0;
    let shed = run_scuba(ScubaParams::default().with_shedding(SheddingMode::Full), 6).0;
    assert!(
        shed.aggregate().mean_memory_bytes < exact.aggregate().mean_memory_bytes,
        "full shedding should reduce memory: {} vs {}",
        shed.aggregate().mean_memory_bytes,
        exact.aggregate().mean_memory_bytes
    );
}

#[test]
fn cluster_count_tracks_skew() {
    let run = |skew: u32| {
        let (network, area) = small_city();
        let mut generator = WorkloadGenerator::new(network, WorkloadConfig { skew, ..workload() });
        let mut operator = ScubaOperator::new(ScubaParams::default(), area);
        let executor = Executor::new(ExecutorConfig {
            delta: 2,
            duration: 4,
        });
        executor.run(&mut || generator.tick(), &mut operator);
        operator.engine().cluster_count()
    };
    let many = run(1);
    let few = run(100);
    assert!(
        many > few * 3,
        "skew 1 should fragment into far more clusters: {many} vs {few}"
    );
}

#[test]
fn engine_invariants_hold_after_long_run() {
    let (_, operator) = run_scuba(ScubaParams::default(), 20);
    operator.engine().check_invariants();
    let stats = operator.clustering_stats();
    assert!(stats.clusters_formed > 0);
    assert!(stats.refreshes > 0);
    assert_eq!(operator.evaluations(), 10);
}
