//! Experiment configuration shared by all figure harnesses.

use serde::{Deserialize, Serialize};

use scuba_generator::WorkloadConfig;
use scuba_roadnet::CityConfig;

/// Scale and workload knobs for one experiment run.
///
/// Defaults mirror the paper's §6.1 settings: 10 000 objects, 10 000 range
/// queries, 100 % reporting per time unit, a 100×100 grid, Δ = 2,
/// Θ_D = 100, Θ_S = 10.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Number of moving objects.
    pub objects: usize,
    /// Number of continuous range queries.
    pub queries: usize,
    /// Skew factor (entities per behaviour group).
    pub skew: u32,
    /// Grid cells per side (shared by SCUBA's ClusterGrid and REGULAR).
    pub grid_cells: u32,
    /// Evaluation interval Δ, in time units.
    pub delta: u64,
    /// Simulated duration, in time units.
    pub duration: u64,
    /// Side of each query's square range, in spatial units.
    pub query_range_side: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Repetitions per measured configuration; the harness reports the
    /// fastest run (standard wall-clock noise suppression). Default 1.
    pub reps: u32,
    /// Distinct workload seeds per configuration; figure rows report the
    /// mean across seeds (suppresses workload variance — which convoys
    /// happen to cross — as opposed to `reps`, which suppresses scheduler
    /// noise). Default 1.
    pub seeds: u32,
    /// Worker threads for SCUBA's join-within stage. Default 1 (serial);
    /// results and work counters are identical at any setting.
    pub parallelism: usize,
    /// Whether SCUBA carries its epoch-coherent join cache across
    /// evaluations. Default `true`; results are identical either way, only
    /// join-within work changes (`--no-join-cache` measures the from-scratch
    /// cost).
    pub join_cache: bool,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            objects: 10_000,
            queries: 10_000,
            skew: 100,
            grid_cells: 100,
            delta: 2,
            duration: 6,
            query_range_side: 50.0,
            seed: 0xEDB7,
            reps: 1,
            seeds: 1,
            parallelism: 1,
            join_cache: true,
        }
    }
}

impl ExperimentScale {
    /// Scales the population by `factor` (keeps at least one of each).
    pub fn scaled(self, factor: f64) -> Self {
        let f = factor.max(0.0);
        ExperimentScale {
            objects: ((self.objects as f64 * f) as usize).max(1),
            queries: ((self.queries as f64 * f) as usize).max(1),
            ..self
        }
    }

    /// The synthetic city all experiments run on (a Worcester-scale map:
    /// 10 000 × 10 000 spatial units, so Θ_D = 100 is 1 % of the extent).
    pub fn city(&self) -> CityConfig {
        CityConfig::default()
    }

    /// The workload configuration for this scale.
    pub fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            num_objects: self.objects,
            num_queries: self.queries,
            skew: self.skew,
            query_range_side: self.query_range_side,
            seed: self.seed,
            ..WorkloadConfig::default()
        }
    }

    /// Parses command-line overrides:
    /// `--objects N --queries N --skew N --grid N --delta N --duration N`
    /// `--range S --seed N --scale F --reps N --seeds N --parallelism N`
    /// `--no-join-cache`.
    ///
    /// Unknown flags are returned for the caller to interpret.
    pub fn from_args(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut scale = ExperimentScale::default();
        let mut rest = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let take_value = |what: &str| -> Result<&str, String> {
                args.get(i + 1)
                    .map(String::as_str)
                    .ok_or_else(|| format!("{what} requires a value"))
            };
            match flag {
                "--objects" => {
                    scale.objects = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--queries" => {
                    scale.queries = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--skew" => {
                    scale.skew = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--grid" => {
                    scale.grid_cells = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--delta" => {
                    scale.delta = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--duration" => {
                    scale.duration = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--range" => {
                    scale.query_range_side = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--seed" => {
                    scale.seed = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--reps" => {
                    scale.reps = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--seeds" => {
                    scale.seeds = parse(take_value(flag)?, flag)?;
                    i += 2;
                }
                "--parallelism" => {
                    scale.parallelism = parse::<usize>(take_value(flag)?, flag)?.max(1);
                    i += 2;
                }
                "--no-join-cache" => {
                    scale.join_cache = false;
                    i += 1;
                }
                "--scale" => {
                    let f: f64 = parse(take_value(flag)?, flag)?;
                    scale = scale.scaled(f);
                    i += 2;
                }
                _ => {
                    rest.push(args[i].clone());
                    i += 1;
                }
            }
        }
        Ok((scale, rest))
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value '{value}' for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let s = ExperimentScale::default();
        assert_eq!(s.objects, 10_000);
        assert_eq!(s.queries, 10_000);
        assert_eq!(s.grid_cells, 100);
        assert_eq!(s.delta, 2);
    }

    #[test]
    fn scaled_population() {
        let s = ExperimentScale::default().scaled(0.1);
        assert_eq!(s.objects, 1000);
        assert_eq!(s.queries, 1000);
        let tiny = ExperimentScale::default().scaled(0.0);
        assert_eq!(tiny.objects, 1);
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_overrides() {
        let (s, rest) = ExperimentScale::from_args(&args(&[
            "--objects",
            "500",
            "--queries",
            "300",
            "--grid",
            "50",
            "--json",
        ]))
        .unwrap();
        assert_eq!(s.objects, 500);
        assert_eq!(s.queries, 300);
        assert_eq!(s.grid_cells, 50);
        assert_eq!(rest, vec!["--json".to_string()]);
    }

    #[test]
    fn parses_scale_flag() {
        let (s, _) = ExperimentScale::from_args(&args(&["--scale", "0.01"])).unwrap();
        assert_eq!(s.objects, 100);
    }

    #[test]
    fn parses_parallelism_and_clamps_zero() {
        let (s, _) = ExperimentScale::from_args(&args(&["--parallelism", "4"])).unwrap();
        assert_eq!(s.parallelism, 4);
        let (s, _) = ExperimentScale::from_args(&args(&["--parallelism", "0"])).unwrap();
        assert_eq!(s.parallelism, 1, "zero is clamped to serial");
        assert_eq!(ExperimentScale::default().parallelism, 1);
    }

    #[test]
    fn parses_no_join_cache() {
        assert!(ExperimentScale::default().join_cache);
        let (s, rest) = ExperimentScale::from_args(&args(&["--no-join-cache"])).unwrap();
        assert!(!s.join_cache);
        assert!(rest.is_empty());
    }

    #[test]
    fn retired_ingest_flags_are_unknown_options() {
        // Not consumed here, so every bin's leftover check rejects them.
        for flags in [&["--ingest-shards", "4"][..], &["--no-batch-ingest"]] {
            let (_, rest) = ExperimentScale::from_args(&args(flags)).unwrap();
            assert_eq!(rest, args(flags));
            let err =
                crate::HarnessArgs::parse_from(&args(flags), "BENCH_x.json", (100, 10, 2), &[1])
                    .unwrap_err();
            assert_eq!(err, format!("unknown option '{}'", flags[0]));
        }
    }

    #[test]
    fn rejects_missing_or_bad_values() {
        assert!(ExperimentScale::from_args(&args(&["--objects"])).is_err());
        assert!(ExperimentScale::from_args(&args(&["--objects", "x"])).is_err());
    }

    #[test]
    fn workload_propagates_fields() {
        let s = ExperimentScale {
            objects: 7,
            queries: 3,
            skew: 2,
            query_range_side: 33.0,
            ..Default::default()
        };
        let w = s.workload();
        assert_eq!(w.num_objects, 7);
        assert_eq!(w.num_queries, 3);
        assert_eq!(w.skew, 2);
        assert_eq!(w.query_range_side, 33.0);
    }
}
