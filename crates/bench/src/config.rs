//! Experiment configuration shared by all figure harnesses.

use scuba_generator::WorkloadConfig;
use scuba_roadnet::CityConfig;
use scuba_spatial::json::Json;

use crate::runner::scuba_params;

/// Scale and workload knobs for one experiment run.
///
/// Defaults mirror the paper's §6.1 settings: 10 000 objects, 10 000 range
/// queries, 100 % reporting per time unit, a 100×100 grid, Δ = 2,
/// Θ_D = 100, Θ_S = 10.
#[derive(Debug, Clone, Copy, PartialEq)]
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
        }
    }
}

impl ExperimentScale {
    /// The scale as a JSON object, one key per field in field order.
    pub fn to_json(&self) -> Json {
        let ExperimentScale {
            objects,
            queries,
            skew,
            grid_cells,
            delta,
            duration,
            query_range_side,
            seed,
            reps,
            seeds,
        } = *self;
        Json::obj()
            .with("objects", objects)
            .with("queries", queries)
            .with("skew", skew)
            .with("grid_cells", grid_cells)
            .with("delta", delta)
            .with("duration", duration)
            .with("query_range_side", query_range_side)
            .with("seed", seed)
            .with("reps", reps)
            .with("seeds", seeds)
    }

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

    /// Parses a figure binary's command line:
    /// `--objects N --queries N --skew N --grid N --delta N --duration N`
    /// `--range S --seed N --scale F --reps N --seeds N`
    /// and `--json`, which is returned beside the scale.
    ///
    /// Any other argument is an error, and so is a scale whose SCUBA
    /// params or workload do not validate (`--grid 0`, `--delta 0`,
    /// `--range NaN`, …).
    pub fn from_args(args: &[String]) -> Result<(Self, bool), String> {
        let mut scale = ExperimentScale::default();
        let mut json = false;
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
                "--scale" => {
                    let f: f64 = parse(take_value(flag)?, flag)?;
                    scale = scale.scaled(f);
                    i += 2;
                }
                "--json" => {
                    json = true;
                    i += 1;
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        scuba_params(&scale)
            .validate()
            .map_err(|e| format!("invalid SCUBA params: {e}"))?;
        scale
            .workload()
            .validate()
            .map_err(|e| format!("invalid workload: {e}"))?;
        Ok((scale, json))
    }

    /// [`from_args`](Self::from_args) over the process arguments; on a bad
    /// argument prints the error and exits with status 2.
    pub fn from_env() -> (Self, bool) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
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
        let (s, json) = ExperimentScale::from_args(&args(&[
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
        assert!(json);
        assert!(!ExperimentScale::from_args(&[]).unwrap().1);
    }

    #[test]
    fn parses_scale_flag() {
        let (s, _) = ExperimentScale::from_args(&args(&["--scale", "0.01"])).unwrap();
        assert_eq!(s.objects, 100);
    }

    #[test]
    fn retired_flags_are_unknown_options() {
        for flags in [
            &["--ingest-shards", "4"][..],
            &["--no-batch-ingest"],
            &["--parallelism", "2"],
        ] {
            let err = ExperimentScale::from_args(&args(flags)).unwrap_err();
            assert_eq!(err, format!("unknown option '{}'", flags[0]));
        }
    }

    #[test]
    fn rejects_missing_or_bad_values() {
        assert!(ExperimentScale::from_args(&args(&["--objects"])).is_err());
        assert!(ExperimentScale::from_args(&args(&["--objects", "x"])).is_err());
        // A misspelt flag must not fall back to the 10 000 + 10 000 default.
        assert_eq!(
            ExperimentScale::from_args(&args(&["--objets", "500"])).unwrap_err(),
            "unknown option '--objets'"
        );
    }

    /// A scale the engine or the generator would refuse is refused here,
    /// before a figure bin prints a header or panics mid-run.
    #[test]
    fn rejects_scales_that_do_not_validate() {
        for (flags, needle) in [
            (
                &["--delta", "0"],
                "invalid SCUBA params: delta must be >= 1",
            ),
            (
                &["--grid", "0"],
                "invalid SCUBA params: grid_cells must be >= 1",
            ),
            (&["--range", "NaN"], "invalid workload: query_range_side"),
        ] {
            let err = ExperimentScale::from_args(&args(flags)).unwrap_err();
            assert!(err.starts_with(needle), "{flags:?}: {err}");
        }
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
