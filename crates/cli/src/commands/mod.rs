//! The `scuba-sim` subcommands.

pub mod city;
pub mod compare;
pub mod record;
pub mod render;
pub mod serve;
pub mod shed;
pub mod simulate;

use std::sync::Arc;

use scuba_generator::WorkloadGenerator;
use scuba_roadnet::{RoadNetwork, SyntheticCity};
use scuba_spatial::json::Json;
use scuba_spatial::Rect;

use crate::config::SimConfig;

/// Builds the city network and coverage area for a config.
pub(crate) fn build_city(config: &SimConfig) -> (Arc<RoadNetwork>, Rect) {
    let city = SyntheticCity::build(config.city);
    let area = city
        .network
        .extent()
        .expect("synthetic city always has nodes");
    (Arc::new(city.network), area)
}

/// Builds a fresh deterministic workload generator.
pub(crate) fn build_generator(config: &SimConfig, network: Arc<RoadNetwork>) -> WorkloadGenerator {
    WorkloadGenerator::new(network, config.workload)
}

/// An update source that is either the live generator or a trace replay.
pub(crate) enum Source {
    Live {
        /// Boxed: the generator dwarfs the trace reader.
        generator: Box<WorkloadGenerator>,
        /// A batch generated eagerly by `next_controls` (the executor asks
        /// for a tick's controls *before* its batch, but the generator
        /// produces both inside `tick()`), handed out by the following
        /// `next_tick`.
        pending: Option<Vec<scuba_motion::LocationUpdate>>,
    },
    Trace(scuba_stream::TraceReader<std::io::BufReader<std::fs::File>>),
}

impl Source {
    /// Fails with `InvalidData`, naming the tick, when a trace replay
    /// stopped at a torn or foreign trace instead of its clean end — a
    /// run over part of a trace must not pass for a run over all of it.
    pub(crate) fn check_replay(&self) -> std::io::Result<()> {
        use scuba_stream::executor::UpdateSource as _;
        match self.fault() {
            Some(reason) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("--trace {reason}"),
            )),
            None => Ok(()),
        }
    }
}

impl scuba_stream::executor::UpdateSource for Source {
    fn next_tick(&mut self) -> Vec<scuba_motion::LocationUpdate> {
        match self {
            Source::Live { generator, pending } => {
                pending.take().unwrap_or_else(|| generator.tick())
            }
            Source::Trace(reader) => reader.next_tick(),
        }
    }

    fn next_controls(&mut self) -> Vec<scuba_motion::ControlOp> {
        match self {
            Source::Live { generator, pending } => {
                // Advance the simulation now so the controls belong to the
                // tick whose batch `next_tick` is about to return —
                // control-before-data within the same tick, everywhere.
                if pending.is_none() {
                    *pending = Some(generator.tick());
                }
                generator.take_controls()
            }
            // Traces carry no control stream (churned queries simply stop
            // reporting in the recorded data); serve layers file-driven
            // controls on top.
            Source::Trace(_) => Vec::new(),
        }
    }

    fn fault(&self) -> Option<String> {
        match self {
            Source::Live { .. } => None,
            Source::Trace(reader) => reader.fault(),
        }
    }
}

/// Writes a per-stage breakdown as aligned text — the one stage emitter
/// `simulate` and `compare` share, so the pipeline shows up identically
/// everywhere. Works for any operator: rows come straight from
/// [`scuba_stream::PhaseBreakdown::rows`].
pub(crate) fn write_stage_breakdown(
    out: &mut dyn std::io::Write,
    indent: &str,
    breakdown: &scuba_stream::PhaseBreakdown,
) -> std::io::Result<()> {
    writeln!(
        out,
        "{indent}{:<18} {:<12} {:>12} {:>10} {:>10} {:>12}",
        "stage", "phase", "wall(µs)", "items_in", "items_out", "tests"
    )?;
    for r in breakdown.rows() {
        writeln!(
            out,
            "{indent}{:<18} {:<12} {:>12} {:>10} {:>10} {:>12}",
            r.stage, r.kind, r.wall_us, r.items_in, r.items_out, r.tests
        )?;
    }
    Ok(())
}

/// The rows of a per-stage breakdown as a JSON array, one object per
/// stage — the `stages` section of every `--json` report.
pub(crate) fn stages_json(breakdown: &scuba_stream::PhaseBreakdown) -> Json {
    let rows: Vec<Json> = breakdown
        .rows()
        .into_iter()
        .map(|row| {
            let scuba_stream::StageRow {
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

/// Exports the validator's quarantined dead letters as a JSON array (one
/// object per rejected update, with the first check it failed), shared by
/// `simulate` and `serve`. The letters are the raw updates, so a
/// coordinate or speed may be NaN or infinite; JSON has neither, and such
/// a number is written as `null`. Returns how many were written; `None`
/// (no validator configured) exports an empty array.
pub(crate) fn export_dead_letters(
    path: &str,
    validator: Option<&scuba_stream::UpdateValidator>,
) -> std::io::Result<usize> {
    let letters: Vec<Json> = validator
        .into_iter()
        .flat_map(|v| v.dead_letters())
        .map(|dl| {
            let u = &dl.update;
            Json::obj()
                .with("reason", format!("{:?}", dl.reason))
                .with("entity", u.entity.to_string())
                .with("time", u.time)
                .with("x", u.loc.x)
                .with("y", u.loc.y)
                .with("speed", u.speed)
        })
        .collect();
    let n = letters.len();
    std::fs::write(path, Json::Arr(letters).pretty() + "\n")?;
    Ok(n)
}

/// Opens the configured source: `--trace FILE` replays a recorded trace,
/// otherwise a fresh deterministic generator runs live.
pub(crate) fn open_source(
    config: &SimConfig,
    trace: &Option<String>,
    network: Arc<RoadNetwork>,
) -> std::io::Result<Source> {
    match trace {
        Some(path) => {
            let file = std::fs::File::open(path)?;
            Ok(Source::Trace(scuba_stream::TraceReader::new(
                std::io::BufReader::new(file),
            )))
        }
        None => Ok(Source::Live {
            generator: Box::new(build_generator(config, network)),
            pending: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId};
    use scuba_spatial::json;
    use scuba_spatial::Point;
    use scuba_stream::{UpdateValidator, ValidationPolicy};

    /// The letters are the raw updates, non-finite numbers included; the
    /// exported file must still be JSON.
    #[test]
    fn dead_letters_with_non_finite_numbers_export_valid_json() {
        let mut validator = UpdateValidator::new(ValidationPolicy::Reject, Rect::square(1000.0));
        let update = |id: u64, x: f64, speed: f64| {
            LocationUpdate::object(
                ObjectId(id),
                Point::new(x, 10.0),
                1,
                speed,
                Point::new(500.0, 500.0),
                ObjectAttrs::default(),
            )
        };
        validator.check(&update(1, f64::NAN, 10.0));
        validator.check(&update(2, 20.0, f64::INFINITY));

        let dir = std::env::temp_dir().join("scuba-cli-dead-letters");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dead.json");
        let path = path.to_str().unwrap();
        assert_eq!(export_dead_letters(path, Some(&validator)).unwrap(), 2);

        let letters = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let reasons: Vec<_> = letters
            .items()
            .iter()
            .map(|l| l.get("reason").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(reasons, ["NonFiniteCoord", "NonFiniteSpeed"]);
        assert_eq!(letters.items()[0].get("x"), Some(&Json::Null));
        assert_eq!(letters.items()[1].get("speed"), Some(&Json::Null));
        assert_eq!(letters.items()[1].get("x"), Some(&Json::Num(20.0)));

        assert_eq!(export_dead_letters(path, None).unwrap(), 0);
        assert_eq!(
            json::parse(&std::fs::read_to_string(path).unwrap()).unwrap(),
            Json::Arr(Vec::new())
        );
    }
}
