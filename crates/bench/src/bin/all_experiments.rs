//! Runs every figure harness in sequence and prints all tables — the
//! one-shot reproduction of the paper's evaluation section — plus the
//! per-stage pipeline breakdown of every operator in the suite.
//!
//! Usage: `all_experiments [--scale F] [--objects N] [--queries N]
//! [--json]`

use scuba::OperatorKind;
use scuba_bench::figures::{
    fig10, fig10_table, fig11, fig11_table, fig12, fig12_table, fig13, fig13_table, fig9,
    fig9_table, Fig10Row, Fig11Row, Fig12Row, Fig13Row, Fig9Row, FIG10_SKEWS, FIG11_ITERS,
    FIG12_SKEWS, FIG13_MAINTAINED, FIG9_GRIDS,
};
use scuba_bench::runner::{run_operator, scuba_params};
use scuba_bench::table::stage_table;
use scuba_bench::ExperimentScale;
use scuba_spatial::json::Json;
use scuba_stream::{PhaseBreakdown, StageRow};

/// Drives the full operator suite once and collects each operator's
/// stage totals.
fn suite_stages(scale: &ExperimentScale) -> Vec<(&'static str, scuba_stream::PhaseBreakdown)> {
    OperatorKind::ALL
        .iter()
        .map(|&kind| {
            (
                kind.label(),
                run_operator(scale, kind, scuba_params(scale)).stage_totals(),
            )
        })
        .collect()
}

/// One operator's stage totals as the JSON array of its stage rows.
fn stages_json(totals: &PhaseBreakdown) -> Json {
    let rows: Vec<Json> = totals
        .rows()
        .into_iter()
        .map(|row| {
            let StageRow {
                stage,
                kind,
                wall_us,
                items_in,
                items_out,
                tests,
            } = row;
            Json::obj()
                .with("stage", stage)
                .with("kind", kind)
                .with("wall_us", wall_us)
                .with("items_in", items_in)
                .with("items_out", items_out)
                .with("tests", tests)
        })
        .collect();
    Json::Arr(rows)
}

fn main() {
    let (scale, json) = ExperimentScale::from_env();

    if json {
        fn rows<R>(rows: Vec<R>, row_json: fn(&R) -> Json) -> Json {
            Json::Arr(rows.iter().map(row_json).collect())
        }
        let stages: Vec<Json> = suite_stages(&scale)
            .iter()
            .map(|(operator, totals)| {
                Json::obj()
                    .with("operator", *operator)
                    .with("stages", stages_json(totals))
            })
            .collect();
        let out = Json::obj()
            .with("scale", scale.to_json())
            .with("fig9", rows(fig9(&scale, &FIG9_GRIDS), Fig9Row::to_json))
            .with(
                "fig10",
                rows(fig10(&scale, &FIG10_SKEWS), Fig10Row::to_json),
            )
            .with(
                "fig11",
                rows(fig11(&scale, &FIG11_ITERS), Fig11Row::to_json),
            )
            .with(
                "fig12",
                rows(fig12(&scale, &FIG12_SKEWS), Fig12Row::to_json),
            )
            .with(
                "fig13",
                rows(fig13(&scale, &FIG13_MAINTAINED), Fig13Row::to_json),
            )
            .with("stages", stages);
        println!("{}", out.pretty());
        return;
    }

    println!(
        "# SCUBA evaluation reproduction — {} objects, {} queries, skew {}, \
         grid {}x{}, Δ={}, {} ticks\n",
        scale.objects,
        scale.queries,
        scale.skew,
        scale.grid_cells,
        scale.grid_cells,
        scale.delta,
        scale.duration
    );

    println!("## Fig. 9 — varying grid size (a: join time, b: memory)\n");
    println!("{}", fig9_table(&fig9(&scale, &FIG9_GRIDS)).render());

    println!("## Fig. 10 — join time vs. skew factor\n");
    println!("{}", fig10_table(&fig10(&scale, &FIG10_SKEWS)).render());

    println!("## Fig. 11 — incremental vs. K-means clustering\n");
    println!("{}", fig11_table(&fig11(&scale, &FIG11_ITERS)).render());

    println!("## Fig. 12 — cluster maintenance vs. cluster count\n");
    println!("{}", fig12_table(&fig12(&scale, &FIG12_SKEWS)).render());

    println!("## Fig. 13 — load shedding (a: join time, b: accuracy)\n");
    println!(
        "{}",
        fig13_table(&fig13(&scale, &FIG13_MAINTAINED)).render()
    );

    println!("## Pipeline stages — cumulative per-stage costs per operator\n");
    for (operator, totals) in suite_stages(&scale) {
        println!("### {operator}\n");
        println!("{}", stage_table(&totals).render());
    }
}
