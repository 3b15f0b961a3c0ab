//! Evacuation monitoring with load shedding under a memory budget.
//!
//! People evacuate from danger zones toward exits — strongly clustered
//! flows. The monitoring engine is given a memory budget; when the exact
//! engine exceeds it, the example re-runs with progressively more
//! aggressive nucleus-based load shedding (paper §5) until the budget
//! holds, then reports the accuracy cost relative to the exact answer.
//! Finally the engine's own shedding ladder finds the operating point:
//! first from the memory budget alone, then with a per-evaluation deadline
//! as a second trigger on the same ladder.
//!
//! Run with: `cargo run --release --example evacuation_zones`

use std::sync::Arc;

use scuba::accuracy::AccuracyReport;
use scuba::{ScubaOperator, ScubaParams, SheddingMode};
use scuba_generator::{WorkloadConfig, WorkloadGenerator};
use scuba_roadnet::{CityConfig, SyntheticCity};
use scuba_stream::{Executor, ExecutorConfig, QueryMatch};

fn main() {
    // Dense evacuation flows: large groups share exit routes.
    let workload = WorkloadConfig {
        num_objects: 1_500,
        num_queries: 500,
        skew: 200,
        query_range_side: 80.0,
        ..WorkloadConfig::default()
    };
    let executor = Executor::new(ExecutorConfig {
        delta: 2,
        duration: 6,
    });
    println!(
        "evacuation: {} people, {} monitoring queries, flows of ~{}",
        workload.num_objects, workload.num_queries, workload.skew
    );

    // Ground truth: no shedding.
    let (truth_results, exact_memory) = run_with(SheddingMode::None, workload, &executor);
    println!(
        "\nexact engine: {} result tuples, peak memory {:.2} MiB",
        truth_results.iter().map(Vec::len).sum::<usize>(),
        mib(exact_memory),
    );

    // A budget below the exact engine's footprint but within shedding's
    // reach. Positional state is a fraction of the engine's total footprint
    // (tables, indexes and cluster bookkeeping remain regardless), so a
    // budget far below that floor can never be met by shedding alone — the
    // controller saturates at Full and the operator must shrink Δ or shard.
    let budget = exact_memory * 92 / 100;
    println!("memory budget: {:.2} MiB", mib(budget));

    // Escalate shedding manually until the budget holds, quantifying the
    // accuracy cost of each rung.
    let levels = [
        SheddingMode::Partial { eta: 0.25 },
        SheddingMode::Partial { eta: 0.5 },
        SheddingMode::Partial { eta: 0.75 },
        SheddingMode::Full,
    ];
    let mut selected = None;
    for mode in levels {
        let (results, peak) = run_with(mode, workload, &executor);
        let mut acc = AccuracyReport::default();
        for (t, m) in truth_results.iter().zip(&results) {
            acc = acc.merge(&AccuracyReport::compare(t, m));
        }
        let fits = peak <= budget;
        println!(
            "{:<24} peak {:>7.2} MiB  accuracy {:>5.1}%  (false+ {}, false- {})  {}",
            format!("{mode:?}"),
            mib(peak),
            acc.accuracy() * 100.0,
            acc.false_positives,
            acc.false_negatives,
            if fits { "FITS BUDGET" } else { "over budget" },
        );
        if fits && selected.is_none() {
            selected = Some(mode);
        }
    }
    match selected {
        Some(mode) => println!(
            "\n→ manual ladder selects {mode:?}: bounded memory with quantified accuracy loss"
        ),
        None => println!("\n→ even full shedding exceeds the budget; shrink Δ or shard the engine"),
    }

    // The built-in ladder reaches the same operating point on its own.
    let (mode, peak) = run_adaptive(ScubaParams::default(), budget, workload, &executor);
    println!(
        "adaptive ladder settled on {mode:?} (peak {:.2} MiB)",
        mib(peak)
    );

    // A deadline is a second trigger on the same ladder: it climbs when
    // either the budget or the deadline is missed, and relaxes only when
    // both allow it.
    let params = ScubaParams::default().with_deadline_us(Some(20_000));
    let (mode, peak) = run_adaptive(params, budget, workload, &executor);
    println!(
        "with a 20 ms deadline as well it settled on {mode:?} (peak {:.2} MiB)",
        mib(peak)
    );
}

/// Runs SCUBA with the memory budget attached to its shedding ladder;
/// returns the final mode and the peak memory estimate.
fn run_adaptive(
    params: ScubaParams,
    budget: usize,
    workload: WorkloadConfig,
    executor: &Executor,
) -> (SheddingMode, usize) {
    let city = SyntheticCity::build(CityConfig::default());
    let area = city.network.extent().expect("city has nodes");
    let mut generator = WorkloadGenerator::new(Arc::new(city.network), workload);
    let mut adaptive = ScubaOperator::new(params, area).with_memory_budget(budget);
    let run = executor.run(&mut || generator.tick(), &mut adaptive);
    (
        adaptive.current_shedding(),
        run.aggregate().peak_memory_bytes,
    )
}

/// Runs SCUBA with the given shedding mode; returns per-interval results
/// and the peak memory estimate.
fn run_with(
    shedding: SheddingMode,
    workload: WorkloadConfig,
    executor: &Executor,
) -> (Vec<Vec<QueryMatch>>, usize) {
    let city = SyntheticCity::build(CityConfig::default());
    let area = city.network.extent().expect("city has nodes");
    let mut generator = WorkloadGenerator::new(Arc::new(city.network), workload);
    let mut scuba = ScubaOperator::new(ScubaParams::default().with_shedding(shedding), area);
    let run = executor.run(&mut || generator.tick(), &mut scuba);
    let results = run.evaluations.iter().map(|e| e.results.clone()).collect();
    (results, run.aggregate().peak_memory_bytes)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
