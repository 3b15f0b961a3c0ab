//! One function per figure of the paper's evaluation section.
//!
//! Each returns plain rows (each with a `to_json`); its `fig*_table` builds the text
//! table that both its binary and `all_experiments` print (with `--json`
//! they print the rows instead). Absolute magnitudes depend on the host — the
//! *shapes* are what reproduce the paper (see EXPERIMENTS.md).

use scuba::accuracy::AccuracyReport;
use scuba::kmeans::{kmeans_cluster, KMeansConfig};
use scuba::shedding::SheddingMode;
use scuba::ScubaOperator;
use scuba_spatial::json::Json;
use scuba_stream::{ContinuousOperator, Stopwatch};

use crate::config::ExperimentScale;
use crate::runner::{
    best_of, build_network, build_workload, mean_of, mib, ms, over_seeds, run_regular, run_scuba,
    scuba_params,
};
use crate::table::{f1, f3, TextTable};

/// The grid sizes of Fig. 9.
pub const FIG9_GRIDS: [u32; 5] = [50, 75, 100, 125, 150];
/// The skew factors of Fig. 10 (ascending; the paper plots descending).
pub const FIG10_SKEWS: [u32; 7] = [1, 10, 20, 50, 100, 150, 200];
/// The K-means iteration counts of Fig. 11.
pub const FIG11_ITERS: [u32; 4] = [1, 3, 5, 10];
/// Skew factors chosen to hit the cluster-count targets of Fig. 12
/// (~500 / 1000 / 2000 / 5000 clusters at the 20 000-entity default).
pub const FIG12_SKEWS: [u32; 4] = [40, 20, 10, 4];
/// The maintained-positions percentages of Fig. 13.
pub const FIG13_MAINTAINED: [f64; 5] = [0.0, 25.0, 50.0, 75.0, 100.0];

/// One row of Fig. 9 (a: join time, b: memory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Row {
    /// Cells per side.
    pub grid: u32,
    /// REGULAR total join time, ms.
    pub regular_join_ms: f64,
    /// SCUBA total join time, ms.
    pub scuba_join_ms: f64,
    /// REGULAR mean memory, MiB.
    pub regular_mem_mib: f64,
    /// SCUBA mean memory, MiB.
    pub scuba_mem_mib: f64,
}

impl Fig9Row {
    /// The row as a JSON object, one key per field in field order.
    pub fn to_json(&self) -> Json {
        let Fig9Row {
            grid,
            regular_join_ms,
            scuba_join_ms,
            regular_mem_mib,
            scuba_mem_mib,
        } = *self;
        Json::obj()
            .with("grid", grid)
            .with("regular_join_ms", regular_join_ms)
            .with("scuba_join_ms", scuba_join_ms)
            .with("regular_mem_mib", regular_mem_mib)
            .with("scuba_mem_mib", scuba_mem_mib)
    }
}

/// Fig. 9: vary the grid granularity; measure join time and memory for
/// both operators.
pub fn fig9(scale: &ExperimentScale, grids: &[u32]) -> Vec<Fig9Row> {
    grids
        .iter()
        .map(|&grid| {
            let s = ExperimentScale {
                grid_cells: grid,
                ..*scale
            };
            let scuba = over_seeds(&s, |s| run_scuba(s, scuba_params(s)));
            let regular = over_seeds(&s, run_regular);
            Fig9Row {
                grid,
                regular_join_ms: mean_of(&regular, |r| ms(r.join_time())),
                scuba_join_ms: mean_of(&scuba, |r| ms(r.join_time())),
                regular_mem_mib: mean_of(&regular, |r| mib(r.mean_memory())),
                scuba_mem_mib: mean_of(&scuba, |r| mib(r.mean_memory())),
            }
        })
        .collect()
}

/// Fig. 9 as a text table.
pub fn fig9_table(rows: &[Fig9Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "grid",
        "REGULAR join (ms)",
        "SCUBA join (ms)",
        "REGULAR mem (MiB)",
        "SCUBA mem (MiB)",
    ]);
    for r in rows {
        t.row(vec![
            format!("{0}x{0}", r.grid),
            f3(r.regular_join_ms),
            f3(r.scuba_join_ms),
            f3(r.regular_mem_mib),
            f3(r.scuba_mem_mib),
        ]);
    }
    t
}

/// One row of Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// Skew factor (entities per behaviour group).
    pub skew: u32,
    /// REGULAR total join time, ms.
    pub regular_join_ms: f64,
    /// SCUBA total join time, ms.
    pub scuba_join_ms: f64,
    /// Live clusters at the end of the run.
    pub clusters: f64,
    /// REGULAR exact pair comparisons over the run.
    pub regular_comparisons: u64,
    /// SCUBA exact pair comparisons over the run.
    pub scuba_comparisons: u64,
}

impl Fig10Row {
    /// The row as a JSON object, one key per field in field order.
    pub fn to_json(&self) -> Json {
        let Fig10Row {
            skew,
            regular_join_ms,
            scuba_join_ms,
            clusters,
            regular_comparisons,
            scuba_comparisons,
        } = *self;
        Json::obj()
            .with("skew", skew)
            .with("regular_join_ms", regular_join_ms)
            .with("scuba_join_ms", scuba_join_ms)
            .with("clusters", clusters)
            .with("regular_comparisons", regular_comparisons)
            .with("scuba_comparisons", scuba_comparisons)
    }
}

/// Fig. 10: vary the skew factor; measure join time for both operators.
pub fn fig10(scale: &ExperimentScale, skews: &[u32]) -> Vec<Fig10Row> {
    skews
        .iter()
        .map(|&skew| {
            let s = ExperimentScale { skew, ..*scale };
            let scuba = over_seeds(&s, |s| run_scuba(s, scuba_params(s)));
            let regular = over_seeds(&s, run_regular);
            Fig10Row {
                skew,
                regular_join_ms: mean_of(&regular, |r| ms(r.join_time())),
                scuba_join_ms: mean_of(&scuba, |r| ms(r.join_time())),
                clusters: mean_of(&scuba, |r| r.mean_clusters),
                regular_comparisons: mean_of(&regular, |r| {
                    r.report.aggregate().total_comparisons as f64
                }) as u64,
                scuba_comparisons: mean_of(&scuba, |r| {
                    r.report.aggregate().total_comparisons as f64
                }) as u64,
            }
        })
        .collect()
}

/// Fig. 10 as a text table.
pub fn fig10_table(rows: &[Fig10Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "skew",
        "REGULAR join (ms)",
        "SCUBA join (ms)",
        "clusters",
        "REGULAR cmps",
        "SCUBA cmps",
    ]);
    for r in rows {
        t.row(vec![
            r.skew.to_string(),
            f3(r.regular_join_ms),
            f3(r.scuba_join_ms),
            f1(r.clusters),
            r.regular_comparisons.to_string(),
            r.scuba_comparisons.to_string(),
        ]);
    }
    t
}

/// One row of Fig. 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// `"incremental"` or `"kmeans(iter=N)"`.
    pub variant: String,
    /// Clustering wall-clock time, ms (0 for incremental — the paper:
    /// "the time to perform incremental clustering is not portrayed as the
    /// join processing starts immediately when Δ expires").
    pub clustering_ms: f64,
    /// Join wall-clock time, ms.
    pub join_ms: f64,
    /// Combined bar height, ms.
    pub total_ms: f64,
    /// Clusters produced.
    pub clusters: usize,
}

impl Fig11Row {
    /// The row as a JSON object, one key per field in field order.
    pub fn to_json(&self) -> Json {
        let Fig11Row {
            ref variant,
            clustering_ms,
            join_ms,
            total_ms,
            clusters,
        } = *self;
        Json::obj()
            .with("variant", variant.as_str())
            .with("clustering_ms", clustering_ms)
            .with("join_ms", join_ms)
            .with("total_ms", total_ms)
            .with("clusters", clusters)
    }
}

/// Fig. 11: incremental vs. non-incremental (K-means) clustering. A single
/// snapshot of the workload is clustered both ways and joined with the
/// identical join machinery.
pub fn fig11(scale: &ExperimentScale, iterations: &[u32]) -> Vec<Fig11Row> {
    let network = build_network(scale);
    let area = network.extent().expect("city non-empty");
    let mut generator = build_workload(scale, network);
    // Let the workload disperse a little before snapshotting.
    for _ in 0..scale.delta {
        generator.tick();
    }
    let snapshot = generator.snapshot();
    let params = scuba_params(scale);

    let mut rows = Vec::new();

    // Incremental: clustering happens on ingest; join runs immediately.
    let mut operator = ScubaOperator::new(params, area);
    for u in &snapshot {
        operator.process_update(u);
    }
    let clusters = operator.engine().cluster_count();
    let report = operator.evaluate(scale.delta);
    rows.push(Fig11Row {
        variant: "incremental".to_string(),
        clustering_ms: 0.0,
        join_ms: ms(report.join_time()),
        total_ms: ms(report.join_time()),
        clusters,
    });

    // Offline K-means at each iteration count.
    for &iters in iterations {
        let outcome = kmeans_cluster(
            &snapshot,
            KMeansConfig {
                iterations: iters,
                k: None,
            },
            &params,
            area,
        );
        let sw = Stopwatch::start();
        let _join = outcome.join();
        let join_time = sw.elapsed();
        rows.push(Fig11Row {
            variant: format!("kmeans(iter={iters})"),
            clustering_ms: ms(outcome.clustering_time),
            join_ms: ms(join_time),
            total_ms: ms(outcome.clustering_time + join_time),
            clusters: outcome.clusters.len(),
        });
    }
    rows
}

/// Fig. 11 as a text table.
pub fn fig11_table(rows: &[Fig11Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "variant",
        "clustering (ms)",
        "join (ms)",
        "total (ms)",
        "clusters",
    ]);
    for r in rows {
        t.row(vec![
            r.variant.clone(),
            f3(r.clustering_ms),
            f3(r.join_ms),
            f3(r.total_ms),
            r.clusters.to_string(),
        ]);
    }
    t
}

/// One row of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig12Row {
    /// Skew factor used to reach the cluster count.
    pub skew: u32,
    /// Live clusters at the end of the run.
    pub clusters: f64,
    /// SCUBA cluster maintenance time (ingest + post-join), ms.
    pub maintenance_ms: f64,
    /// SCUBA join time, ms.
    pub scuba_join_ms: f64,
    /// REGULAR join time, ms.
    pub regular_join_ms: f64,
    /// SCUBA end-to-end cost (maintenance + join), ms.
    pub scuba_total_ms: f64,
    /// REGULAR end-to-end cost (ingest + index rebuild + join), ms.
    pub regular_total_ms: f64,
}

impl Fig12Row {
    /// The row as a JSON object, one key per field in field order.
    pub fn to_json(&self) -> Json {
        let Fig12Row {
            skew,
            clusters,
            maintenance_ms,
            scuba_join_ms,
            regular_join_ms,
            scuba_total_ms,
            regular_total_ms,
        } = *self;
        Json::obj()
            .with("skew", skew)
            .with("clusters", clusters)
            .with("maintenance_ms", maintenance_ms)
            .with("scuba_join_ms", scuba_join_ms)
            .with("regular_join_ms", regular_join_ms)
            .with("scuba_total_ms", scuba_total_ms)
            .with("regular_total_ms", regular_total_ms)
    }
}

/// Fig. 12: cluster-maintenance cost vs. number of clusters (skew varied,
/// population constant).
pub fn fig12(scale: &ExperimentScale, skews: &[u32]) -> Vec<Fig12Row> {
    skews
        .iter()
        .map(|&skew| {
            let s = ExperimentScale { skew, ..*scale };
            let scuba = over_seeds(&s, |s| run_scuba(s, scuba_params(s)));
            let regular = over_seeds(&s, run_regular);
            Fig12Row {
                skew,
                clusters: mean_of(&scuba, |r| r.mean_clusters),
                maintenance_ms: mean_of(&scuba, |r| ms(r.maintenance_time())),
                scuba_join_ms: mean_of(&scuba, |r| ms(r.join_time())),
                regular_join_ms: mean_of(&regular, |r| ms(r.join_time())),
                scuba_total_ms: mean_of(&scuba, |r| ms(r.maintenance_time() + r.join_time())),
                regular_total_ms: mean_of(&regular, |r| ms(r.maintenance_time() + r.join_time())),
            }
        })
        .collect()
}

/// Fig. 12 as a text table.
pub fn fig12_table(rows: &[Fig12Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "skew",
        "clusters",
        "maintenance (ms)",
        "SCUBA join (ms)",
        "REGULAR join (ms)",
        "SCUBA total (ms)",
        "REGULAR total (ms)",
    ]);
    for r in rows {
        t.row(vec![
            r.skew.to_string(),
            f1(r.clusters),
            f3(r.maintenance_ms),
            f3(r.scuba_join_ms),
            f3(r.regular_join_ms),
            f3(r.scuba_total_ms),
            f3(r.regular_total_ms),
        ]);
    }
    t
}

/// One row of Fig. 13 (a: join time, b: accuracy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig13Row {
    /// Percent of relative positions maintained (the figure's x-axis;
    /// 100 % = no shedding, 0 % = full shedding).
    pub maintained_pct: f64,
    /// SCUBA total join time, ms.
    pub join_ms: f64,
    /// Accuracy vs. the unshed run, percent.
    pub accuracy_pct: f64,
    /// False positives across all evaluations.
    pub false_positives: usize,
    /// False negatives across all evaluations.
    pub false_negatives: usize,
}

impl Fig13Row {
    /// The row as a JSON object, one key per field in field order.
    pub fn to_json(&self) -> Json {
        let Fig13Row {
            maintained_pct,
            join_ms,
            accuracy_pct,
            false_positives,
            false_negatives,
        } = *self;
        Json::obj()
            .with("maintained_pct", maintained_pct)
            .with("join_ms", join_ms)
            .with("accuracy_pct", accuracy_pct)
            .with("false_positives", false_positives)
            .with("false_negatives", false_negatives)
    }
}

/// Fig. 13: moving-cluster-driven load shedding — join time and accuracy
/// as fewer relative positions are maintained.
pub fn fig13(scale: &ExperimentScale, maintained: &[f64]) -> Vec<Fig13Row> {
    // Ground truth: no shedding.
    let truth = best_of(scale.reps, || run_scuba(scale, scuba_params(scale)));
    let truth_results: Vec<Vec<scuba_stream::QueryMatch>> = truth
        .report
        .evaluations
        .iter()
        .map(|e| e.results.clone())
        .collect();

    maintained
        .iter()
        .map(|&pct| {
            let params =
                scuba_params(scale).with_shedding(SheddingMode::from_maintained_percent(pct));
            let run = best_of(scale.reps, || run_scuba(scale, params));
            let mut acc = AccuracyReport::default();
            for (t, e) in truth_results.iter().zip(&run.report.evaluations) {
                acc = acc.merge(&AccuracyReport::compare(t, &e.results));
            }
            Fig13Row {
                maintained_pct: pct,
                join_ms: ms(run.join_time()),
                accuracy_pct: acc.accuracy() * 100.0,
                false_positives: acc.false_positives,
                false_negatives: acc.false_negatives,
            }
        })
        .collect()
}

/// Fig. 13 as a text table.
pub fn fig13_table(rows: &[Fig13Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "maintained %",
        "SCUBA join (ms)",
        "accuracy %",
        "false+",
        "false-",
    ]);
    for r in rows {
        t.row(vec![
            f1(r.maintained_pct),
            f3(r.join_ms),
            f1(r.accuracy_pct),
            r.false_positives.to_string(),
            r.false_negatives.to_string(),
        ]);
    }
    t
}

/// Prints a figure's rows: as a pretty JSON array of `row_json` objects
/// with `--json`, else as the figure's text table.
pub fn print_rows<R>(
    rows: &[R],
    json: bool,
    table: fn(&[R]) -> TextTable,
    row_json: fn(&R) -> Json,
) {
    if json {
        println!(
            "{}",
            Json::Arr(rows.iter().map(row_json).collect()).pretty()
        );
    } else {
        println!("{}", table(rows).render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            objects: 60,
            queries: 60,
            skew: 10,
            duration: 4,
            ..Default::default()
        }
    }

    #[test]
    fn fig9_rows_cover_grids() {
        let rows = fig9(&tiny(), &[50, 100]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].grid, 50);
        assert!(rows.iter().all(|r| r.scuba_mem_mib > 0.0));
        assert!(rows.iter().all(|r| r.regular_mem_mib > 0.0));
    }

    #[test]
    fn fig10_rows_track_skew() {
        let rows = fig10(&tiny(), &[1, 20]);
        assert_eq!(rows.len(), 2);
        // skew 1 ⇒ many clusters; skew 20 ⇒ far fewer.
        assert!(rows[0].clusters > rows[1].clusters);
    }

    #[test]
    fn fig11_has_incremental_plus_kmeans() {
        let rows = fig11(&tiny(), &[1, 3]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].variant, "incremental");
        assert_eq!(rows[0].clustering_ms, 0.0);
        assert!(rows[1].variant.contains("iter=1"));
        assert!(rows.iter().all(|r| r.clusters > 0));
        // K-means rows include nonzero clustering cost.
        assert!(rows[1].total_ms >= rows[1].join_ms);
    }

    #[test]
    fn fig12_reports_maintenance() {
        let rows = fig12(&tiny(), &[20, 5]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.maintenance_ms >= 0.0));
        assert!(rows[1].clusters > rows[0].clusters);
    }

    #[test]
    fn fig13_accuracy_is_100_at_full_maintenance() {
        let rows = fig13(&tiny(), &[100.0, 0.0]);
        assert_eq!(rows.len(), 2);
        let full = &rows[0];
        assert!((full.accuracy_pct - 100.0).abs() < 1e-9);
        assert_eq!(full.false_positives, 0);
        assert_eq!(full.false_negatives, 0);
        // Full shedding is no more accurate than exact.
        assert!(rows[1].accuracy_pct <= 100.0);
    }
}
