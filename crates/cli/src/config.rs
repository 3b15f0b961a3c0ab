//! Simulation configuration: JSON file + flag overrides.

use serde::{Deserialize, Serialize};

use scuba::{ScubaParams, SheddingMode};
use scuba_generator::WorkloadConfig;
use scuba_roadnet::CityConfig;

/// Everything one simulation needs, serialisable as JSON.
///
/// Field defaults are the paper's §6.1 settings scaled to a laptop-friendly
/// population (override with `--objects/--queries` or a config file for
/// paper scale).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct SimConfig {
    /// The synthetic city.
    pub city: CityConfig,
    /// The workload generator settings.
    pub workload: WorkloadConfig,
    /// SCUBA parameters (Θ_D, Θ_S, grid, shedding, ablation knobs).
    pub params: ScubaParams,
    /// Simulated duration in time units.
    pub duration: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            city: CityConfig::default(),
            workload: WorkloadConfig {
                num_objects: 1_000,
                num_queries: 1_000,
                ..WorkloadConfig::default()
            },
            params: ScubaParams::default(),
            duration: 10,
        }
    }
}

/// Presentation options shared by the commands.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputOptions {
    /// Emit JSON instead of text.
    pub json: bool,
    /// `simulate`: print incremental deltas instead of totals.
    pub deltas: bool,
    /// `simulate`: adaptive shedding budget in bytes.
    pub budget: Option<usize>,
    /// `record`: output trace path.
    pub out_path: Option<String>,
    /// `simulate`/`compare`: replay updates from this trace file instead
    /// of running the generator.
    pub trace: Option<String>,
    /// `simulate`: write an engine snapshot here after the run.
    pub snapshot_out: Option<String>,
    /// `simulate`: restore the engine from this snapshot before the run.
    pub snapshot_in: Option<String>,
    /// `serve`: durable checkpoint/journal directory (required there).
    pub checkpoint_dir: Option<String>,
    /// `serve`: ticks between checkpoints.
    pub checkpoint_every: u64,
    /// `serve`/`simulate`: export quarantined dead letters to this JSON
    /// file at the end of the run.
    pub dead_letter_out: Option<String>,
    /// `serve`: ndjson control file polled every tick for live query
    /// register/deregister ops appended by an operator.
    pub control: Option<String>,
    /// `serve`: ndjson churn script replayed deterministically — each line
    /// carries a `"t"` tick at which its control op is applied.
    pub churn_script: Option<String>,
    /// `serve`: worker-panic restarts allowed per evaluation tick.
    pub max_restarts: u32,
    /// `serve`: probability an evaluation worker is hit by an injected
    /// panic (fault drill; seeded from the workload seed).
    pub panic_prob: f64,
}

impl Default for OutputOptions {
    fn default() -> Self {
        OutputOptions {
            json: false,
            deltas: false,
            budget: None,
            out_path: None,
            trace: None,
            snapshot_out: None,
            snapshot_in: None,
            checkpoint_dir: None,
            checkpoint_every: 8,
            dead_letter_out: None,
            control: None,
            churn_script: None,
            max_restarts: 3,
            panic_prob: 0.0,
        }
    }
}

impl SimConfig {
    /// Loads a config from a JSON string.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad config JSON: {e}"))
    }

    /// Serialises the config as pretty JSON (usable as a starting config
    /// file).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serialises")
    }

    /// Builds a config from command-line arguments: `--config FILE` is
    /// loaded first, then individual flags override its fields.
    pub fn from_args(args: &[String]) -> Result<(Self, OutputOptions), String> {
        let mut config = SimConfig::default();
        let mut opts = OutputOptions::default();

        // First pass: --config.
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--config" {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| "--config requires a path".to_string())?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                config = SimConfig::from_json(&text)?;
            }
            i += 1;
        }

        // Second pass: field overrides.
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |what: &str| -> Result<&str, String> {
                args.get(i + 1)
                    .map(String::as_str)
                    .ok_or_else(|| format!("{what} requires a value"))
            };
            match flag {
                "--config" => i += 2, // handled above
                "--objects" => {
                    config.workload.num_objects = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--queries" => {
                    config.workload.num_queries = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--skew" => {
                    config.workload.skew = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--grid" => {
                    config.params.grid_cells = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--delta" => {
                    config.params.delta = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--duration" => {
                    config.duration = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--range" => {
                    config.workload.query_range_side = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--seed" => {
                    config.workload.seed = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--theta-d" => {
                    config.params.theta_d = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--theta-s" => {
                    config.params.theta_s = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--parallelism" => {
                    config.params.parallelism = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--shards" => {
                    config.params.shards = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--validate" => {
                    config.params.validation =
                        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
                    i += 2;
                }
                "--index" => {
                    config.params.index =
                        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
                    i += 2;
                }
                "--kernel" => {
                    config.params.kernel =
                        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
                    i += 2;
                }
                "--split-threshold" => {
                    config.params.split_threshold = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--merge-threshold" => {
                    config.params.merge_threshold = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--deadline-us" => {
                    config.params.deadline_us = Some(parse(value(flag)?, flag)?);
                    i += 2;
                }
                "--eta" => {
                    let eta: f64 = parse(value(flag)?, flag)?;
                    config.params.shedding = if eta <= 0.0 {
                        SheddingMode::None
                    } else if eta >= 1.0 {
                        SheddingMode::Full
                    } else {
                        SheddingMode::Partial { eta }
                    };
                    i += 2;
                }
                "--budget" => {
                    opts.budget = Some(parse(value(flag)?, flag)?);
                    i += 2;
                }
                "--out" => {
                    opts.out_path = Some(value(flag)?.to_string());
                    i += 2;
                }
                "--trace" => {
                    opts.trace = Some(value(flag)?.to_string());
                    i += 2;
                }
                "--snapshot-out" => {
                    opts.snapshot_out = Some(value(flag)?.to_string());
                    i += 2;
                }
                "--snapshot-in" => {
                    opts.snapshot_in = Some(value(flag)?.to_string());
                    i += 2;
                }
                "--checkpoint-dir" => {
                    opts.checkpoint_dir = Some(value(flag)?.to_string());
                    i += 2;
                }
                "--checkpoint-every" => {
                    opts.checkpoint_every = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--dead-letter-out" => {
                    opts.dead_letter_out = Some(value(flag)?.to_string());
                    i += 2;
                }
                "--query-churn-rate" => {
                    config.workload.query_churn_rate = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--query-lifetime-mean" => {
                    config.workload.query_lifetime_mean = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--control" => {
                    opts.control = Some(value(flag)?.to_string());
                    i += 2;
                }
                "--churn-script" => {
                    opts.churn_script = Some(value(flag)?.to_string());
                    i += 2;
                }
                "--max-restarts" => {
                    opts.max_restarts = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--panic-prob" => {
                    opts.panic_prob = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--no-join-cache" => {
                    config.params.join_cache = false;
                    i += 1;
                }
                "--json" => {
                    opts.json = true;
                    i += 1;
                }
                "--deltas" => {
                    opts.deltas = true;
                    i += 1;
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }

        config
            .workload
            .validate()
            .map_err(|e| format!("invalid workload: {e}"))?;
        config
            .params
            .validate()
            .map_err(|e| format!("invalid SCUBA params: {e}"))?;
        if config.duration == 0 {
            return Err("duration must be >= 1".into());
        }
        if opts.checkpoint_every == 0 {
            return Err("checkpoint-every must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&opts.panic_prob) {
            return Err(format!(
                "panic-prob must be in [0, 1], got {}",
                opts.panic_prob
            ));
        }
        Ok((config, opts))
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

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_validate() {
        let (c, o) = SimConfig::from_args(&[]).unwrap();
        assert_eq!(c.workload.num_objects, 1_000);
        assert!(!o.json);
        assert!(!o.deltas);
        assert_eq!(o.budget, None);
    }

    #[test]
    fn flags_override_defaults() {
        let (c, o) = SimConfig::from_args(&args(&[
            "--objects",
            "50",
            "--theta-d",
            "40",
            "--eta",
            "0.5",
            "--json",
            "--budget",
            "12345",
        ]))
        .unwrap();
        assert_eq!(c.workload.num_objects, 50);
        assert_eq!(c.params.theta_d, 40.0);
        assert_eq!(c.params.shedding, SheddingMode::Partial { eta: 0.5 });
        assert!(o.json);
        assert_eq!(o.budget, Some(12345));
    }

    #[test]
    fn parallelism_flag_sets_params() {
        let (c, _) = SimConfig::from_args(&args(&["--parallelism", "4"])).unwrap();
        assert_eq!(c.params.parallelism, 4);
        assert!(
            SimConfig::from_args(&args(&["--parallelism", "0"])).is_err(),
            "zero workers fails validation"
        );
    }

    #[test]
    fn retired_ingest_flags_are_unknown_options() {
        // `main` prints the error and exits with status 2.
        for flags in [&["--ingest-shards", "4"][..], &["--no-batch-ingest"]] {
            let err = SimConfig::from_args(&args(flags)).unwrap_err();
            assert_eq!(err, format!("unknown option '{}'", flags[0]));
        }
    }

    #[test]
    fn shards_flag_sets_params() {
        let (c, _) = SimConfig::from_args(&[]).unwrap();
        assert_eq!(c.params.shards, 1, "single-store engine by default");
        let (c, _) = SimConfig::from_args(&args(&["--shards", "4"])).unwrap();
        assert_eq!(c.params.shards, 4);
        let err = SimConfig::from_args(&args(&["--shards", "0"])).unwrap_err();
        assert!(err.contains("shards"), "{err}");
        // Orthogonal knobs: executor shards × per-shard join workers.
        let (c, _) = SimConfig::from_args(&args(&["--shards", "2", "--parallelism", "3"])).unwrap();
        assert_eq!(c.params.shards, 2);
        assert_eq!(c.params.parallelism, 3);
    }

    #[test]
    fn index_flags_set_params() {
        use scuba::IndexKind;
        let (c, _) = SimConfig::from_args(&[]).unwrap();
        assert_eq!(c.params.index, IndexKind::Uniform, "uniform by default");
        let (c, _) = SimConfig::from_args(&args(&[
            "--index",
            "adaptive",
            "--split-threshold",
            "16",
            "--merge-threshold",
            "4",
        ]))
        .unwrap();
        assert_eq!(c.params.index, IndexKind::Adaptive);
        assert_eq!(c.params.split_threshold, 16);
        assert_eq!(c.params.merge_threshold, 4);
        let err = SimConfig::from_args(&args(&["--index", "quadtree"])).unwrap_err();
        assert!(err.contains("unknown index kind"), "{err}");
        // merge >= split fails params validation with a readable message.
        let err =
            SimConfig::from_args(&args(&["--split-threshold", "8", "--merge-threshold", "8"]))
                .unwrap_err();
        assert!(err.contains("merge_threshold"), "{err}");
    }

    #[test]
    fn kernel_flags_set_params() {
        use scuba::KernelKind;
        let (c, _) = SimConfig::from_args(&[]).unwrap();
        assert_eq!(c.params.kernel, KernelKind::Scalar, "scalar by default");
        let (c, _) = SimConfig::from_args(&args(&["--kernel", "simd"])).unwrap();
        assert_eq!(c.params.kernel, KernelKind::Simd);
        let (c, _) = SimConfig::from_args(&args(&["--kernel", "scalar"])).unwrap();
        assert_eq!(c.params.kernel, KernelKind::Scalar);
        let err = SimConfig::from_args(&args(&["--kernel", "avx9000"])).unwrap_err();
        assert!(err.contains("unknown kernel kind"), "{err}");
    }

    #[test]
    fn no_join_cache_flag_disables_cache() {
        let (c, _) = SimConfig::from_args(&[]).unwrap();
        assert!(c.params.join_cache, "cache is on by default");
        let (c, _) = SimConfig::from_args(&args(&["--no-join-cache"])).unwrap();
        assert!(!c.params.join_cache);
    }

    #[test]
    fn eta_extremes_map_to_modes() {
        let (c, _) = SimConfig::from_args(&args(&["--eta", "0"])).unwrap();
        assert_eq!(c.params.shedding, SheddingMode::None);
        let (c, _) = SimConfig::from_args(&args(&["--eta", "1"])).unwrap();
        assert_eq!(c.params.shedding, SheddingMode::Full);
    }

    #[test]
    fn churn_flags_set_workload_and_opts() {
        let (c, o) = SimConfig::from_args(&[]).unwrap();
        assert_eq!(c.workload.query_churn_rate, 0.0, "churn off by default");
        assert_eq!(o.control, None);
        assert_eq!(o.churn_script, None);
        let (c, o) = SimConfig::from_args(&args(&[
            "--query-churn-rate",
            "0.05",
            "--query-lifetime-mean",
            "12",
            "--control",
            "ops.ndjson",
            "--churn-script",
            "script.ndjson",
        ]))
        .unwrap();
        assert_eq!(c.workload.query_churn_rate, 0.05);
        assert_eq!(c.workload.query_lifetime_mean, 12.0);
        assert_eq!(o.control.as_deref(), Some("ops.ndjson"));
        assert_eq!(o.churn_script.as_deref(), Some("script.ndjson"));
        // Workload validation catches bad churn settings.
        let err = SimConfig::from_args(&args(&["--query-churn-rate", "1.5"])).unwrap_err();
        assert!(err.contains("query_churn_rate"), "{err}");
        let err = SimConfig::from_args(&args(&[
            "--query-churn-rate",
            "0.1",
            "--query-lifetime-mean",
            "0.2",
        ]))
        .unwrap_err();
        assert!(err.contains("query_lifetime_mean"), "{err}");
    }

    #[test]
    fn json_roundtrip() {
        let config = SimConfig::default();
        let parsed = SimConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn partial_json_uses_defaults() {
        let parsed = SimConfig::from_json(r#"{"duration": 42}"#).unwrap();
        assert_eq!(parsed.duration, 42);
        assert_eq!(parsed.workload.num_objects, 1_000);
    }

    #[test]
    fn config_file_loaded_then_overridden() {
        let dir = std::env::temp_dir().join("scuba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.json");
        std::fs::write(&path, r#"{"duration": 7, "workload": {"num_objects": 9}}"#).unwrap();
        let (c, _) = SimConfig::from_args(&args(&[
            "--config",
            path.to_str().unwrap(),
            "--duration",
            "9",
        ]))
        .unwrap();
        assert_eq!(c.workload.num_objects, 9, "from file");
        assert_eq!(c.duration, 9, "flag wins");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(SimConfig::from_args(&args(&["--wat"])).is_err());
        assert!(SimConfig::from_args(&args(&["--objects"])).is_err());
        assert!(SimConfig::from_args(&args(&["--objects", "x"])).is_err());
        assert!(SimConfig::from_args(&args(&["--duration", "0"])).is_err());
        assert!(SimConfig::from_args(&args(&["--theta-d", "-5"])).is_err());
        assert!(SimConfig::from_args(&args(&["--validate", "maybe"])).is_err());
        assert!(SimConfig::from_args(&args(&["--deadline-us", "0"])).is_err());
    }

    #[test]
    fn robustness_flags_set_params() {
        use scuba::ValidationPolicy;
        let (c, _) = SimConfig::from_args(&[]).unwrap();
        assert_eq!(c.params.validation, ValidationPolicy::Off);
        assert_eq!(c.params.deadline_us, None);
        let (c, _) =
            SimConfig::from_args(&args(&["--validate", "clamp", "--deadline-us", "2500"])).unwrap();
        assert_eq!(c.params.validation, ValidationPolicy::Clamp);
        assert_eq!(c.params.deadline_us, Some(2500));
    }

    #[test]
    fn param_errors_render_readably() {
        let err = SimConfig::from_args(&args(&["--theta-s", "-1"])).unwrap_err();
        assert!(err.contains("invalid SCUBA params"), "{err}");
        assert!(err.contains("theta_s must be positive"), "{err}");
    }

    #[test]
    fn missing_config_file_is_an_error() {
        let err = SimConfig::from_args(&args(&["--config", "/nonexistent/sim.json"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }
}
