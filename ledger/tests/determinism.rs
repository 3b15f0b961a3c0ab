//! Determinism guard: a run's counts are a function of the seed alone.

use std::path::PathBuf;

use scuba_ledger::metrics::Measured;
use scuba_ledger::run::{run_workload, RunOptions, WorkloadRun};
use scuba_ledger::workload::{self, DEFAULT_SEED, HELD_OUT_SEED};

fn run(name: &str, seed: u64, tag: &str) -> WorkloadRun {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism-{tag}"));
    let opts = RunOptions {
        seed,
        seconds: 5,
        scale: 0.05,
        ticks: Some(48),
        trace: true,
        out_dir,
    };
    run_workload(workload::by_name(name).unwrap(), &opts).unwrap()
}

/// The metrics that must repeat bit for bit: every count, plus the ratios
/// and sizes derived from counts alone.
fn deterministic(run: &WorkloadRun) -> Vec<(&'static str, u64)> {
    let exact = [
        "accuracy",
        "state_bytes_per_entity",
        "durability.wal_bytes_per_update",
        "durability.checkpoint_bytes_per_entity",
        "clustering.absorb_ratio",
        "join.between_pass_ratio",
        "join.cache_hit_ratio",
        "store.bytes_per_entity",
        "index.bytes",
        "emit.bytes",
        "shard.stripe_imbalance",
    ];
    let keep = |m: &&Measured| m.def.unit == "count" || exact.contains(&m.def.name);
    run.end_to_end
        .iter()
        .chain(&run.per_layer)
        .filter(keep)
        .map(|m| (m.def.name, m.value.to_bits()))
        .collect()
}

#[test]
fn same_seed_repeats_every_count_and_another_seed_changes_them() {
    for name in ["serve_churn_k2", "hotspot_join"] {
        let first = run(name, 5, &format!("{name}-a"));
        let again = run(name, 5, &format!("{name}-b"));
        let other = run(name, 6, &format!("{name}-c"));
        assert!(first.correct() && again.correct() && other.correct());

        let counts = deterministic(&first);
        assert!(
            counts.len() > 25,
            "{name}: the guard covers the count metrics"
        );
        let drifted: Vec<_> = counts
            .iter()
            .zip(deterministic(&again))
            .filter(|(a, b)| **a != *b)
            .map(|(a, b)| (a.0, f64::from_bits(a.1), f64::from_bits(b.1)))
            .collect();
        assert!(
            drifted.is_empty(),
            "{name}: counts that did not repeat: {drifted:?}"
        );
        assert_eq!(first.untraced.crcs, again.untraced.crcs, "{name}");

        let changed = counts
            .iter()
            .zip(deterministic(&other))
            .filter(|(a, b)| a.1 != b.1)
            .count();
        assert!(
            changed > 5,
            "{name}: another seed is another input ({changed} counts moved)"
        );
        assert_ne!(first.untraced.crcs, other.untraced.crcs, "{name}");
    }
}

#[test]
fn the_held_out_seed_starts_where_no_recorded_run_does() {
    for spec in workload::all() {
        let held_out = spec.window(HELD_OUT_SEED).start;
        for seed in (100..110).chain([DEFAULT_SEED]) {
            assert_ne!(
                spec.window(seed).start,
                held_out,
                "{} seed {seed}",
                spec.name
            );
        }
    }
}

#[test]
fn one_and_two_stripes_answer_identically() {
    let k1 = run("serve_churn_k1", 9, "k1");
    let k2 = run("serve_churn_k2", 9, "k2");
    assert!(k1.correct() && k2.correct());
    assert!(!k1.untraced.crcs.is_empty());
    assert_eq!(k1.untraced.crcs, k2.untraced.crcs);
    // The same delivered ticks; `k1` journals them raw and screens in the
    // operator, `k2` journals what the harness's stand-in let through.
    assert_eq!(k1.untraced.updates_in, k2.untraced.updates_in);
    assert!(k1.untraced.wal_bytes > k2.untraced.wal_bytes);
}
