//! The metric catalogue: names, units, directions and bounds.
//!
//! `BENCHMARK.json` at the repo root states the same catalogue for the
//! driver; `tests/contract.rs` asserts the two agree, so neither can
//! change alone.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses [`Better::label`].
    pub fn parse(label: &str) -> Option<Better> {
        match label {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How much worse a metric may get before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's median.
    Share(f64),
    /// An absolute amount, for a metric whose baseline reads 0.
    Absolute(f64),
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Permanent name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the allowed worsening of the median over a set of
    /// seeds — what `BENCHMARK.json` states and the driver gates on.
    pub bound: Option<Bound>,
    /// `Some` when the value is a function of the input alone (no clock in
    /// it), so that it repeats bit for bit for a seed: `diff` then compares
    /// two files seed by seed, against this tighter bound, and how much the
    /// metric varies *between* seeds plays no part.
    pub per_seed: Option<Bound>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(Bound::Share(bound)),
        per_seed: None,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        per_seed: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload. Always from the untraced
/// pass.
///
/// The bounds of the wall-clock metrics are sized to what the reference
/// host can resolve, not to the issue's 5–10 %: on identical input, eight
/// runs within five quiet minutes spread `cycle_ms_p50` by 6 % and
/// `cycle_ms_p95` by 10 % (interquartile, as a share of the median), and
/// an interference episode doubles that. The driver refuses a benchmark
/// whose ten-seed spread exceeds a bound and asks for a third of it, so a
/// 10 % bound cannot be stated here; README, "Observed spread", has the
/// numbers, and `diff` says `unresolved` whenever an input is noisier than
/// the bound. The two clock-free metrics vary between seeds (another
/// window holds another number of clusters), which the median over seeds
/// has to absorb; seed by seed they are held to the issue's bounds.
pub const END_TO_END: &[MetricDef] = &[
    e2e("updates_per_s", "1/s", Higher, 0.20),
    e2e("cycle_ms_p50", "ms", Lower, 0.20),
    e2e("cycle_ms_p95", "ms", Lower, 0.25),
    MetricDef {
        per_seed: Some(Bound::Share(0.01)),
        ..e2e("state_bytes_per_entity", "B", Lower, 0.03)
    },
    MetricDef {
        per_seed: Some(Bound::Absolute(0.005)),
        ..e2e("accuracy", "ratio", Higher, 0.01)
    },
    e2e("resume_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    MetricDef {
        name: "failed_share",
        unit: "ratio",
        better: Lower,
        bound: Some(Bound::Absolute(0.0)),
        per_seed: Some(Bound::Absolute(0.0)),
    },
];

/// The end-to-end metrics `BENCHMARK.json` lists and the contract line
/// carries: the driver's contract takes share bounds only and no metric
/// that reads 0, so `failed_share` travels as that line's `failed` and
/// `attempted` instead.
pub fn contract_end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .filter(|m| matches!(m.bound, Some(Bound::Share(_))))
}

/// Single layers, from the traced pass. `*_us` are per-cycle means, so a
/// workload's rows sum to its cycle; counts are run totals and repeat
/// exactly for a `(seed, seconds)`.
pub const PER_LAYER: &[MetricDef] = &[
    // scuba_generator — outside the system; bounds harness wall time.
    layer("generator.tick_us", "us", Lower),
    layer("generator.updates", "count", Higher),
    // scuba_stream::validate
    layer("validate.busy_us", "us", Lower),
    layer("validate.checked", "count", Higher),
    layer("validate.rejected", "count", Lower),
    // scuba::registry (control plane)
    layer("control.apply_us", "us", Lower),
    layer("control.ops", "count", Higher),
    layer("control.unknown", "count", Lower),
    layer("control.active_queries", "count", Higher),
    // scuba::clustering
    layer("clustering.ingest_us", "us", Lower),
    layer("clustering.updates", "count", Higher),
    layer("clustering.absorb_ratio", "ratio", Higher),
    layer("clustering.formed", "count", Lower),
    layer("clustering.dissolved", "count", Lower),
    layer("clustering.clusters_live", "count", Lower),
    layer("clustering.tighten_us", "us", Lower),
    layer("clustering.post_join_us", "us", Lower),
    // scuba::index
    layer("index.rebalance_us", "us", Lower),
    layer("index.bytes", "B", Lower),
    layer("join.pair_discovery_us", "us", Lower),
    layer("join.pair_candidates", "count", Lower),
    // scuba::kernel / scuba::join
    layer("join.between_us", "us", Lower),
    layer("join.between_tests", "count", Lower),
    layer("join.between_pass_ratio", "ratio", Lower),
    layer("join.within_us", "us", Lower),
    layer("join.within_comparisons", "count", Lower),
    layer("join.cache_hit_ratio", "ratio", Higher),
    layer("join.merge_us", "us", Lower),
    layer("join.results", "count", Higher),
    layer("evaluate.wall_us", "us", Lower),
    layer("evaluate.p99_us", "us", Lower),
    // scuba::store
    layer("store.bytes_per_entity", "B", Lower),
    layer("store.join_scratch_bytes", "B", Lower),
    // scuba::shedding
    layer("shedding.positions_shed", "count", Higher),
    layer("shedding.within_comparisons", "count", Lower),
    layer("shedding.nucleus_matches", "count", Higher),
    // scuba::shard
    layer("shard.route_us", "us", Lower),
    layer("shard.exchange_us", "us", Lower),
    layer("shard.merge_us", "us", Lower),
    layer("shard.ghosts_shipped", "count", Lower),
    layer("shard.stripe_imbalance", "ratio", Lower),
    // scuba::durability
    layer("durability.wal_append_us", "us", Lower),
    layer("durability.wal_bytes_per_update", "B", Lower),
    layer("durability.checkpoint_us", "us", Lower),
    layer("durability.capture_us", "us", Lower),
    layer("durability.checkpoint_write_us", "us", Lower),
    layer("durability.checkpoint_bytes_per_entity", "B", Lower),
    layer("durability.recover_us", "us", Lower),
    layer("durability.replay_us", "us", Lower),
    layer("durability.replayed_frames", "count", Lower),
    // event emit
    layer("emit.crc_us", "us", Lower),
    layer("emit.bytes", "B", Lower),
    // whole
    layer("cycle.wall_us", "us", Lower),
    layer("cycle.dark_share", "ratio", Lower),
    layer("evaluate.dark_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Catalogue entry.
    pub def: &'static MetricDef,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind a percentile (0 where the metric is not one).
    pub samples: u64,
}

/// Builds [`Measured`] rows against the catalogue; a name outside it is a
/// bug in this crate.
#[derive(Debug, Default)]
pub struct Sheet {
    rows: Vec<Measured>,
}

impl Sheet {
    /// An empty sheet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` for `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_sampled(name, value, 0);
    }

    /// Records a percentile with its sample count.
    pub fn put_sampled(&mut self, name: &str, value: f64, samples: u64) {
        let def = find(name).unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"));
        self.rows.push(Measured {
            def,
            value,
            samples,
        });
    }

    /// The rows, ordered as `table` lists them; panics when a catalogue
    /// entry was never recorded (every run prints every metric).
    pub fn ordered(&self, table: &'static [MetricDef]) -> Vec<Measured> {
        table
            .iter()
            .map(|def| {
                *self
                    .rows
                    .iter()
                    .find(|r| r.def.name == def.name)
                    .unwrap_or_else(|| panic!("metric '{}' was never recorded", def.name))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(contract_end_to_end()
            .all(|m| matches!(m.bound, Some(Bound::Share(b)) if b > 0.0 && b <= 0.25)));
        assert_eq!(contract_end_to_end().count() + 1, END_TO_END.len());
        assert!(find("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }
}
