//! Simulation configuration: JSON file + flag overrides.
//!
//! The config file is the one JSON form of [`SimConfig`] and of the
//! engine types it holds ([`CityConfig`], [`WorkloadConfig`],
//! [`ScubaParams`]); the engine crates carry no JSON code. The format is
//! the one these types had when they derived their JSON form:
//!
//! * a struct is an object keyed by field name; a missing key takes the
//!   value of that struct's `Default`, an unknown key is ignored (which is
//!   how configs naming retired knobs keep loading), and a value of the
//!   wrong type or out of range is an error;
//! * an enum is externally tagged: a unit variant is its name
//!   (`"TravelTime"`, `"Reject"`, `"None"`), a variant with fields is a
//!   one-key object (`{"Partial": {"eta": 0.5}}`);
//! * an `Option` is `null` or its value.
//!
//! A test destructures every struct, so a new field does not compile until
//! that test names it and the matching `read_*` covers it.

use scuba::{ScubaParams, SheddingMode, ValidationPolicy};
use scuba_generator::WorkloadConfig;
use scuba_roadnet::{CityConfig, RouteMetric};
use scuba_spatial::json::{self, Json};

/// Everything one simulation needs, readable from JSON.
///
/// Field defaults are the paper's §6.1 settings scaled to a laptop-friendly
/// population (override with `--objects/--queries` or a config file for
/// paper scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// The synthetic city.
    pub city: CityConfig,
    /// The workload generator settings.
    pub workload: WorkloadConfig,
    /// SCUBA parameters (Θ_D, Θ_S, grid, shedding, …).
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
    pub fn from_json(text: &str) -> Result<Self, String> {
        json::parse(text)
            .and_then(|v| read_sim(&v))
            .map_err(|e| format!("bad config JSON: {e}"))
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
                "--shards" => {
                    config.params.shards = parse(value(flag)?, flag)?;
                    i += 2;
                }
                "--validate" => {
                    config.params.validation =
                        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
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

fn read_sim(v: &Json) -> Result<SimConfig, String> {
    read_struct(v, SimConfig::default(), |c, key, v| {
        match key {
            "city" => c.city = read_city(v)?,
            "workload" => c.workload = read_workload(v)?,
            "params" => c.params = read_params(v)?,
            "duration" => c.duration = uint(v)?,
            _ => return Ok(false),
        }
        Ok(true)
    })
}

fn read_city(v: &Json) -> Result<CityConfig, String> {
    read_struct(v, CityConfig::default(), |c, key, v| {
        match key {
            "extent" => c.extent = float(v)?,
            "blocks" => c.blocks = uint(v)?,
            "highway_every" => c.highway_every = uint(v)?,
            "diagonal_shortcuts" => c.diagonal_shortcuts = uint(v)?,
            "jitter" => c.jitter = float(v)?,
            "seed" => c.seed = uint(v)?,
            _ => return Ok(false),
        }
        Ok(true)
    })
}

fn read_workload(v: &Json) -> Result<WorkloadConfig, String> {
    read_struct(v, WorkloadConfig::default(), |w, key, v| {
        match key {
            "num_objects" => w.num_objects = uint(v)?,
            "num_queries" => w.num_queries = uint(v)?,
            "skew" => w.skew = uint(v)?,
            "update_fraction" => w.update_fraction = float(v)?,
            "query_range_side" => w.query_range_side = float(v)?,
            "speed_min" => w.speed_min = float(v)?,
            "speed_max" => w.speed_max = float(v)?,
            "speed_jitter" => w.speed_jitter = float(v)?,
            "group_spread" => w.group_spread = float(v)?,
            "dwell_ticks" => w.dwell_ticks = uint(v)?,
            "hotspot_count" => w.hotspot_count = uint(v)?,
            "hotspot_radius" => w.hotspot_radius = float(v)?,
            "hotspot_intensity" => w.hotspot_intensity = float(v)?,
            "query_churn_rate" => w.query_churn_rate = float(v)?,
            "query_lifetime_mean" => w.query_lifetime_mean = float(v)?,
            "route_metric" => {
                w.route_metric = match unit_variant(v)? {
                    "Distance" => RouteMetric::Distance,
                    "TravelTime" => RouteMetric::TravelTime,
                    other => return Err(unknown_variant(other, "Distance, TravelTime")),
                }
            }
            "seed" => w.seed = uint(v)?,
            _ => return Ok(false),
        }
        Ok(true)
    })
}

fn read_params(v: &Json) -> Result<ScubaParams, String> {
    read_struct(v, ScubaParams::default(), |p, key, v| {
        match key {
            "theta_d" => p.theta_d = float(v)?,
            "theta_s" => p.theta_s = float(v)?,
            "grid_cells" => p.grid_cells = uint(v)?,
            "delta" => p.delta = uint(v)?,
            "shedding" => p.shedding = read_shedding(v)?,
            "entity_ttl" => p.entity_ttl = option(v, uint)?,
            "validation" => {
                p.validation = match unit_variant(v)? {
                    "Off" => ValidationPolicy::Off,
                    "Reject" => ValidationPolicy::Reject,
                    "Clamp" => ValidationPolicy::Clamp,
                    "Abort" => ValidationPolicy::Abort,
                    other => return Err(unknown_variant(other, "Off, Reject, Clamp, Abort")),
                }
            }
            "deadline_us" => p.deadline_us = option(v, uint)?,
            "shards" => p.shards = uint(v)?,
            _ => return Ok(false),
        }
        Ok(true)
    })
}

fn read_shedding(v: &Json) -> Result<SheddingMode, String> {
    let (name, content) = variant(v)?;
    match name {
        "None" | "Full" if *content != Json::Null => Err(format!("variant {name} takes no value")),
        "None" => Ok(SheddingMode::None),
        "Full" => Ok(SheddingMode::Full),
        "Partial" => {
            let mut eta = None;
            read_struct(content, (), |_, key, v| {
                if key != "eta" {
                    return Ok(false);
                }
                eta = Some(float(v)?);
                Ok(true)
            })?;
            let eta = eta.ok_or("Partial: missing field `eta`")?;
            Ok(SheddingMode::Partial { eta })
        }
        other => Err(unknown_variant(other, "None, Partial, Full")),
    }
}

/// Applies an object's fields onto `base`, one at a time: `field` sets a
/// known key and returns `false` for an unknown one, which is skipped. A
/// known key given twice is an error.
fn read_struct<T>(
    v: &Json,
    mut base: T,
    mut field: impl FnMut(&mut T, &str, &Json) -> Result<bool, String>,
) -> Result<T, String> {
    let Json::Obj(fields) = v else {
        return Err(format!("expected an object, found {}", v.kind()));
    };
    let mut seen: Vec<&str> = Vec::new();
    for (key, value) in fields {
        if field(&mut base, key, value).map_err(|e| format!("{key}: {e}"))? {
            if seen.contains(&key.as_str()) {
                return Err(format!("duplicate field `{key}`"));
            }
            seen.push(key);
        }
    }
    Ok(base)
}

/// An externally tagged enum value as (variant, content): a bare name has
/// `null` content, a one-key object carries its value.
fn variant(v: &Json) -> Result<(&str, &Json), String> {
    match v {
        Json::Str(name) => Ok((name, &Json::Null)),
        Json::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, &fields[0].1)),
        other => Err(format!(
            "expected a variant name or a one-key object, found {}",
            other.kind()
        )),
    }
}

/// The name of a variant that carries no value.
fn unit_variant(v: &Json) -> Result<&str, String> {
    match variant(v)? {
        (name, Json::Null) => Ok(name),
        (name, _) => Err(format!("variant {name} takes no value")),
    }
}

fn unknown_variant(name: &str, expected: &str) -> String {
    format!("unknown variant `{name}`, expected one of {expected}")
}

fn uint<T: TryFrom<u64>>(v: &Json) -> Result<T, String> {
    v.as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| match v {
            Json::Int(n) => format!("integer {n} out of range"),
            other => format!("expected an unsigned integer, found {}", other.kind()),
        })
}

fn float(v: &Json) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("expected a number, found {}", v.kind()))
}

fn option<T>(v: &Json, read: fn(&Json) -> Result<T, String>) -> Result<Option<T>, String> {
    match v {
        Json::Null => Ok(None),
        v => read(v).map(Some),
    }
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
    }

    #[test]
    fn retired_index_flags_are_unknown_options() {
        // The adaptive grid and its knobs, the wide join kernel, the join
        // cache and join-within threads are gone; `main` prints the error
        // and exits with status 2.
        for flag in [
            "--index",
            "--split-threshold",
            "--merge-threshold",
            "--kernel",
            "--no-join-cache",
            "--parallelism",
        ] {
            let err = SimConfig::from_args(&args(&[flag, "4"])).unwrap_err();
            assert_eq!(err, format!("unknown option '{flag}'"));
        }
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

    /// A non-default config as the serde-derived format wrote it
    /// (`serde_json::to_string_pretty`), when `ScubaParams` still had the
    /// direction tolerance, the member-filter ablation and join-within
    /// threads.
    const SERDE_FIXTURE: &str = r#"{
  "city": {
    "extent": 5000.0,
    "blocks": 12,
    "highway_every": 3,
    "diagonal_shortcuts": 7,
    "jitter": 0.1,
    "seed": 42
  },
  "workload": {
    "num_objects": 250,
    "num_queries": 125,
    "skew": 5,
    "update_fraction": 0.5,
    "query_range_side": 75.5,
    "speed_min": 5.0,
    "speed_max": 25.0,
    "speed_jitter": 1.0,
    "group_spread": 40.0,
    "dwell_ticks": 2,
    "hotspot_count": 3,
    "hotspot_radius": 150.0,
    "hotspot_intensity": 0.9,
    "query_churn_rate": 0.05,
    "query_lifetime_mean": 12.0,
    "route_metric": "Distance",
    "seed": 18446744073709551615
  },
  "params": {
    "theta_d": 80.0,
    "theta_s": 8.0,
    "grid_cells": 50,
    "delta": 3,
    "cnloc_tolerance": 1e-6,
    "shedding": {
      "Partial": {
        "eta": 0.5
      }
    },
    "member_filter": false,
    "entity_ttl": 30,
    "parallelism": 2,
    "validation": "Reject",
    "deadline_us": 2500,
    "shards": 1
  },
  "duration": 25
}"#;

    fn fixture_config() -> SimConfig {
        SimConfig {
            city: CityConfig {
                extent: 5000.0,
                blocks: 12,
                highway_every: 3,
                diagonal_shortcuts: 7,
                jitter: 0.1,
                seed: 42,
            },
            workload: WorkloadConfig {
                num_objects: 250,
                num_queries: 125,
                skew: 5,
                update_fraction: 0.5,
                query_range_side: 75.5,
                speed_min: 5.0,
                speed_max: 25.0,
                speed_jitter: 1.0,
                group_spread: 40.0,
                dwell_ticks: 2,
                hotspot_count: 3,
                hotspot_radius: 150.0,
                hotspot_intensity: 0.9,
                query_churn_rate: 0.05,
                query_lifetime_mean: 12.0,
                route_metric: RouteMetric::Distance,
                seed: u64::MAX,
            },
            params: ScubaParams {
                theta_d: 80.0,
                theta_s: 8.0,
                grid_cells: 50,
                delta: 3,
                shedding: SheddingMode::Partial { eta: 0.5 },
                entity_ttl: Some(30),
                validation: ValidationPolicy::Reject,
                deadline_us: Some(2500),
                shards: 1,
            },
            duration: 25,
        }
    }

    #[test]
    fn serde_shaped_fixture_loads() {
        assert_eq!(
            SimConfig::from_json(SERDE_FIXTURE).unwrap(),
            fixture_config()
        );
    }

    /// Every field of every config struct, named once: a field added to
    /// any of them fails to compile here until this test — and the
    /// matching `read_*` — covers it. Each value differs from its default,
    /// so a key `read_*` skips fails the comparison.
    #[test]
    fn every_field_is_read() {
        let fixture = fixture_config();
        let expected = SimConfig {
            params: ScubaParams {
                shards: 2,
                ..fixture.params
            },
            ..fixture
        };
        let SimConfig {
            city,
            workload,
            params,
            duration,
        } = expected;
        let CityConfig {
            extent,
            blocks,
            highway_every,
            diagonal_shortcuts,
            jitter,
            seed: city_seed,
        } = city;
        let WorkloadConfig {
            num_objects,
            num_queries,
            skew,
            update_fraction,
            query_range_side,
            speed_min,
            speed_max,
            speed_jitter,
            group_spread,
            dwell_ticks,
            hotspot_count,
            hotspot_radius,
            hotspot_intensity,
            query_churn_rate,
            query_lifetime_mean,
            route_metric,
            seed: workload_seed,
        } = workload;
        let ScubaParams {
            theta_d,
            theta_s,
            grid_cells,
            delta,
            shedding,
            entity_ttl,
            validation,
            deadline_us,
            shards,
        } = params;
        let shedding = match shedding {
            SheddingMode::Partial { eta } => format!(r#"{{"Partial": {{"eta": {eta:?}}}}}"#),
            other => format!("\"{other:?}\""),
        };
        let json = format!(
            r#"{{
                "city": {{"extent": {extent:?}, "blocks": {blocks}, "highway_every": {highway_every},
                    "diagonal_shortcuts": {diagonal_shortcuts}, "jitter": {jitter:?}, "seed": {city_seed}}},
                "workload": {{"num_objects": {num_objects}, "num_queries": {num_queries}, "skew": {skew},
                    "update_fraction": {update_fraction:?}, "query_range_side": {query_range_side:?},
                    "speed_min": {speed_min:?}, "speed_max": {speed_max:?}, "speed_jitter": {speed_jitter:?},
                    "group_spread": {group_spread:?}, "dwell_ticks": {dwell_ticks},
                    "hotspot_count": {hotspot_count}, "hotspot_radius": {hotspot_radius:?},
                    "hotspot_intensity": {hotspot_intensity:?}, "query_churn_rate": {query_churn_rate:?},
                    "query_lifetime_mean": {query_lifetime_mean:?}, "route_metric": "{route_metric:?}",
                    "seed": {workload_seed}}},
                "params": {{"theta_d": {theta_d:?}, "theta_s": {theta_s:?}, "grid_cells": {grid_cells},
                    "delta": {delta}, "shedding": {shedding}, "entity_ttl": {}, "validation": "{validation:?}",
                    "deadline_us": {}, "shards": {shards}}},
                "duration": {duration}
            }}"#,
            entity_ttl.map_or("null".into(), |t| t.to_string()),
            deadline_us.map_or("null".into(), |t| t.to_string()),
        );
        assert_eq!(SimConfig::from_json(&json).unwrap(), expected);
    }

    #[test]
    fn partial_json_uses_defaults() {
        let parsed = SimConfig::from_json(r#"{"duration": 42}"#).unwrap();
        assert_eq!(parsed.duration, 42);
        assert_eq!(parsed.workload.num_objects, 1_000);
        assert_eq!(SimConfig::from_json("{}").unwrap(), SimConfig::default());
        // A nested object that is present fills its missing keys from its
        // own type's default, not from the enclosing config's.
        let parsed = SimConfig::from_json(r#"{"workload": {"num_objects": 9}}"#).unwrap();
        assert_eq!(parsed.workload.num_objects, 9);
        assert_eq!(
            parsed.workload.num_queries,
            WorkloadConfig::default().num_queries
        );
    }

    #[test]
    fn retired_ingest_knobs_in_json_are_ignored() {
        // Params, configs and snapshots written before the batch sharder,
        // the adaptive grid, the wide join kernel, the join cache, the
        // probe-scope and radius-tightening ablations, join-within threads,
        // the member-filter ablation and the direction tolerance were
        // deleted still carry their knobs; they must keep loading. Configs
        // written before a knob existed lack it and load its default.
        let empty = SimConfig::from_json(r#"{"params": {}}"#).unwrap();
        assert_eq!(empty.params, ScubaParams::default());
        for params in [
            r#"{"shards": 2, "ingest_shards": 8, "batch_ingest": false}"#,
            r#"{"shards": 2, "index": "adaptive", "split_threshold": 16, "merge_threshold": 4}"#,
            r#"{"shards": 2, "kernel": "simd"}"#,
            r#"{"shards": 2, "join_cache": false}"#,
            r#"{"shards": 2, "probe_scope": "OwnCell", "tighten_radii": false}"#,
            r#"{"shards": 2, "parallelism": 8, "member_filter": false, "cnloc_tolerance": 0.5}"#,
        ] {
            let old = SimConfig::from_json(&format!(r#"{{"params": {params}}}"#))
                .expect("unknown keys are ignored");
            assert_eq!(old.params, ScubaParams::default().with_shards(2));
        }
    }

    #[test]
    fn wrong_types_and_values_are_errors() {
        for (json, needle) in [
            (
                r#"{"duration": "ten"}"#,
                "duration: expected an unsigned integer",
            ),
            (r#"{"duration": -1}"#, "duration: integer -1 out of range"),
            (
                r#"{"duration": 2.5}"#,
                "duration: expected an unsigned integer",
            ),
            (r#"{"workload": {"skew": 4294967296}}"#, "skew: integer"),
            (r#"{"city": {"extent": true}}"#, "extent: expected a number"),
            (r#"{"city": []}"#, "city: expected an object"),
            (r#"{"params": {"entity_ttl": "soon"}}"#, "entity_ttl"),
            (
                r#"{"params": {"validation": "Sometimes"}}"#,
                "unknown variant `Sometimes`",
            ),
            (
                r#"{"params": {"shedding": "Partial"}}"#,
                "expected an object",
            ),
            (
                r#"{"params": {"shedding": {"Partial": {}}}}"#,
                "missing field `eta`",
            ),
            (r#"{"params": {"shedding": {"Full": 1}}}"#, "takes no value"),
            (r#"{"workload": {"route_metric": 1}}"#, "route_metric"),
            (
                r#"{"duration": 4, "duration": 5}"#,
                "duplicate field `duration`",
            ),
            (r#"{"duration": 1e999}"#, "number out of range"),
            ("[1, 2]", "expected an object"),
            ("{", "bad config JSON"),
        ] {
            let err = SimConfig::from_json(json).unwrap_err();
            assert!(err.starts_with("bad config JSON: "), "{json}: {err}");
            assert!(err.contains(needle), "{json}: {err}");
        }
        // `null` is a value for an `Option` and nothing else.
        let c = SimConfig::from_json(r#"{"params": {"deadline_us": null}}"#).unwrap();
        assert_eq!(c.params.deadline_us, None);
        assert!(SimConfig::from_json(r#"{"duration": null}"#).is_err());
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
