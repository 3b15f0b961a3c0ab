//! `scuba-sim serve` — a long-lived, durable, supervised engine loop.
//!
//! Unlike `simulate` (one bounded run, results to stdout), `serve` models a
//! deployed continuous-query service: it checkpoints engine state to
//! `--checkpoint-dir` at a fixed interval, journals every tick's delivered
//! batch write-ahead, resumes from durable state when restarted over the
//! same directory, survives shard-worker panics by restoring from
//! checkpoint + journal under a bounded restart budget, and periodically
//! prints a plain-text health line (tick p99, journal lag, restarts, dead
//! letters).
//!
//! `--out FILE` appends one ndjson event line per evaluation
//! (`{"t":…,"results":…,"active_queries":…,"crc":…}`, the CRC32 of the
//! sorted result pairs) — a resumed run re-emits the ticks it replayed
//! from the journal, so consumers dedup keeping the last line per tick.
//!
//! **Control channel.** Queries can be registered and deregistered while
//! the service runs, through two ndjson channels layered over the data
//! stream (each line: `{"op":"register","query":7,"x":…,"y":…,"range":…}`
//! or `{"op":"deregister","query":7}`):
//!
//! * `--control FILE` — tailed once per tick: lines appended by an
//!   operator apply at the tick that first sees them. The file may not
//!   exist yet at startup; it is polled until it does.
//! * `--churn-script FILE` — loaded up front; every line must also carry
//!   `"t":N`, the tick at which it applies. Deterministic: the same script
//!   over the same seed reproduces the same run, which is what makes
//!   kill/resume churn testing possible.
//!
//! Control ops are journalled write-ahead with the tick's batch, carried
//! in checkpoints via the query registry, and applied before the tick's
//! data everywhere (live, replay, rebuild), so a resumed run reproduces
//! the exact active query set.

use std::collections::BTreeMap;
use std::io::{Read as _, Seek as _, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use scuba::durability::{
    run_supervised, Crc32, HealthSnapshot, SuperviseConfig, SuperviseObserver,
};
use scuba::ControlGauges;
use scuba_motion::{ControlOp, EntityAttrs, LocationUpdate, QueryAttrs, QueryId, QuerySpec};
use scuba_spatial::json::{self, Json};
use scuba_spatial::Point;
use scuba_stream::executor::UpdateSource;
use scuba_stream::{EvaluationReport, PanicInjector, PanicPlan};

use crate::config::{OutputOptions, SimConfig};

fn invalid_input(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
}

/// Parses one ndjson control line into a [`ControlOp`] applied at tick
/// `now`. Register/update lines carry the query's position and (square)
/// range side; the synthesized update reports standstill from that point.
/// An absent `"range"` is 50; one that is present must be a finite number
/// ≥ 0, as the generator requires of its query ranges.
fn parse_control_line(line: &str, now: u64) -> Result<Option<ControlOp>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let v = json::parse(line)?;
    let op = v
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or_else(|| "missing \"op\"".to_string())?;
    let qid = v
        .get("query")
        .and_then(|q| q.as_u64())
        .ok_or_else(|| "missing \"query\"".to_string())?;
    match op {
        "deregister" => Ok(Some(ControlOp::Deregister(QueryId(qid)))),
        "register" | "update" => {
            let coord = |key: &str| {
                v.get(key)
                    .and_then(|c| c.as_f64())
                    .ok_or_else(|| format!("{op} needs numeric \"{key}\""))
            };
            let loc = Point {
                x: coord("x")?,
                y: coord("y")?,
            };
            let range = match v.get("range") {
                None => 50.0,
                Some(r) => r
                    .as_f64()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .ok_or_else(|| format!("{op} needs \"range\" to be a finite number >= 0"))?,
            };
            let update = LocationUpdate {
                entity: QueryId(qid).into(),
                loc,
                time: now,
                speed: 0.0,
                cn_loc: loc,
                attrs: EntityAttrs::Query(QueryAttrs {
                    spec: QuerySpec::square_range(range),
                }),
            };
            Ok(Some(if op == "register" {
                ControlOp::Register(update)
            } else {
                ControlOp::Update(update)
            }))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Loads a churn script: every line must carry `"t"`, the tick its op
/// applies at. Malformed lines fail the whole load — a script is config,
/// not a live stream, and silently skipping part of it would change the
/// experiment.
fn load_churn_script(path: &str) -> std::io::Result<BTreeMap<u64, Vec<ControlOp>>> {
    let text = std::fs::read_to_string(path)?;
    let mut script: BTreeMap<u64, Vec<ControlOp>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let t = json::parse(line)
            .ok()
            .and_then(|v| v.get("t").and_then(Json::as_u64))
            .ok_or_else(|| {
                invalid_input(format!("{path}:{}: churn script line needs \"t\"", i + 1))
            })?;
        let op = parse_control_line(line, t)
            .map_err(|e| invalid_input(format!("{path}:{}: {e}", i + 1)))?
            .expect("non-empty line parses to an op");
        script.entry(t).or_default().push(op);
    }
    Ok(script)
}

/// Tails the `--control` ndjson file: each poll reads the bytes appended
/// since the last one, applying every newly completed line at the current
/// tick. Tolerates the file not existing yet and a partially written
/// final line (picked up whole on a later poll).
struct ControlFile {
    path: PathBuf,
    offset: u64,
    /// Trailing bytes of an unterminated final line, kept until the
    /// writer finishes it.
    partial: String,
    /// Malformed lines skipped (reported in the serve summary).
    bad_lines: u64,
}

impl ControlFile {
    fn new(path: &str) -> Self {
        ControlFile {
            path: PathBuf::from(path),
            offset: 0,
            partial: String::new(),
            bad_lines: 0,
        }
    }

    fn poll(&mut self, now: u64) -> Vec<ControlOp> {
        let Ok(mut file) = std::fs::File::open(&self.path) else {
            return Vec::new(); // not created yet — keep polling
        };
        let mut fresh = String::new();
        let read = file
            .seek(std::io::SeekFrom::Start(self.offset))
            .and_then(|_| file.read_to_string(&mut fresh));
        let Ok(read) = read else {
            return Vec::new(); // transient read error — retry next tick
        };
        self.offset += read as u64;
        let mut text = std::mem::take(&mut self.partial);
        text.push_str(&fresh);
        let mut ops = Vec::new();
        let mut rest = text.as_str();
        while let Some(nl) = rest.find('\n') {
            let line = &rest[..nl];
            rest = &rest[nl + 1..];
            match parse_control_line(line, now) {
                Ok(Some(op)) => ops.push(op),
                Ok(None) => {}
                Err(_) => self.bad_lines += 1,
            }
        }
        self.partial = rest.to_string();
        ops
    }
}

/// Layers the file-driven control channels over an update source. The
/// tick counter mirrors the supervised loop's: one `next_controls` +
/// `next_tick` pair per tick, including the skip-drain after a resume —
/// scripted controls for replayed ticks are discarded here because the
/// journal already carries them.
struct ControlledSource<S> {
    inner: S,
    tick: u64,
    script: BTreeMap<u64, Vec<ControlOp>>,
    file: Option<ControlFile>,
}

impl<S: UpdateSource> UpdateSource for ControlledSource<S> {
    fn next_tick(&mut self) -> Vec<LocationUpdate> {
        self.inner.next_tick()
    }

    fn next_controls(&mut self) -> Vec<ControlOp> {
        self.tick += 1;
        let mut ops = self.inner.next_controls();
        if let Some(scripted) = self.script.remove(&self.tick) {
            ops.extend(scripted);
        }
        if let Some(file) = &mut self.file {
            ops.extend(file.poll(self.tick));
        }
        ops
    }

    fn fault(&self) -> Option<String> {
        self.inner.fault()
    }
}

/// CRC32 over the evaluation's result pairs (already sorted and deduped by
/// the operator), as stable little-endian bytes — a compact identity for
/// cross-run comparison without shipping the full result list.
fn result_crc(report: &EvaluationReport) -> u32 {
    // Streamed through a fixed stack buffer: no per-evaluation allocation.
    const PAIRS_PER_CHUNK: usize = 256;
    let mut crc = Crc32::new();
    let mut buf = [0u8; 16 * PAIRS_PER_CHUNK];
    for pairs in report.results.chunks(PAIRS_PER_CHUNK) {
        for (m, out) in pairs.iter().zip(buf.chunks_exact_mut(16)) {
            out[..8].copy_from_slice(&m.query.0.to_le_bytes());
            out[8..].copy_from_slice(&m.object.0.to_le_bytes());
        }
        crc.update(&buf[..16 * pairs.len()]);
    }
    crc.finish()
}

/// Streams evaluation events to the ndjson log and health lines to the
/// terminal as the supervised loop runs.
struct ServeObserver<'a> {
    events: Option<std::io::BufWriter<std::fs::File>>,
    out: &'a mut dyn Write,
    io_error: Option<std::io::Error>,
}

impl ServeObserver<'_> {
    fn record_io(&mut self, result: std::io::Result<()>) {
        if let (Err(e), None) = (result, &self.io_error) {
            self.io_error = Some(e);
        }
    }
}

impl SuperviseObserver for ServeObserver<'_> {
    fn on_evaluation(&mut self, report: &EvaluationReport, gauges: &ControlGauges) {
        let crc = result_crc(report);
        if let Some(events) = &mut self.events {
            let line = format!(
                "{{\"t\":{},\"results\":{},\"active_queries\":{},\"crc\":{}}}\n",
                report.now,
                report.results.len(),
                gauges.active_queries,
                crc
            );
            let result = events.write_all(line.as_bytes()).and_then(|()| {
                // One flushed line per evaluation, so a killed process
                // loses at most the tick in flight.
                events.flush()
            });
            self.record_io(result);
        }
    }

    fn on_health(&mut self, h: &HealthSnapshot) {
        let result = writeln!(
            self.out,
            "health t={} evals={} p99_join={}µs clusters={} active_queries={} reg={} dereg={} mem={}B journal={}fr/{}B ckpts={} restarts={} dead_letters={} shedding={}",
            h.tick,
            h.evaluations,
            h.p99_join.as_micros(),
            h.clusters,
            h.active_queries,
            h.registered_total,
            h.deregistered_total,
            h.memory_bytes,
            h.journal_frames,
            h.journal_bytes,
            h.checkpoints,
            h.restarts,
            h.dead_letters,
            h.shedding,
        );
        self.record_io(result);
    }
}

/// Runs the command.
pub fn run(config: &SimConfig, opts: &OutputOptions, out: &mut dyn Write) -> std::io::Result<()> {
    let Some(checkpoint_dir) = &opts.checkpoint_dir else {
        return Err(invalid_input(
            "serve requires --checkpoint-dir <DIR> (durable state location)".into(),
        ));
    };
    if opts.budget.is_some() {
        return Err(invalid_input(
            "--budget is a simulate option: serve has no memory trigger".into(),
        ));
    }

    let (network, area) = super::build_city(config);
    let inner = super::open_source(config, &opts.trace, Arc::clone(&network))?;
    let script = match &opts.churn_script {
        Some(path) => load_churn_script(path)?,
        None => BTreeMap::new(),
    };
    let mut source = ControlledSource {
        inner,
        tick: 0,
        script,
        file: opts.control.as_ref().map(|p| ControlFile::new(p)),
    };
    let injector = (opts.panic_prob > 0.0).then(|| {
        Arc::new(PanicInjector::new(PanicPlan {
            seed: config.workload.seed,
            panic_prob: opts.panic_prob,
            rearm: false,
        }))
    });
    let supervise = SuperviseConfig {
        duration: config.duration,
        checkpoint_every: opts.checkpoint_every,
        max_restarts: opts.max_restarts,
        ..SuperviseConfig::default()
    };

    let events = match &opts.out_path {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        )),
        None => None,
    };
    let mut observer = ServeObserver {
        events,
        out,
        io_error: None,
    };

    let outcome = run_supervised(
        &mut source,
        &config.params,
        area,
        Path::new(checkpoint_dir),
        &supervise,
        injector.as_ref(),
        &mut observer,
    )
    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    source.inner.check_replay()?;
    let io_error = observer.io_error.take();
    if let Some(e) = io_error {
        return Err(e);
    }

    match outcome.resumed_at {
        Some(tick) => writeln!(
            out,
            "resumed from durable state at t={tick} ({} journal frames replayed)",
            outcome.stats.replayed_frames
        )?,
        None => writeln!(out, "fresh start (no durable state found)")?,
    }
    writeln!(
        out,
        "served {} ticks: {} evaluations, {} updates, {} checkpoints ({}B, {}µs), {} journal frames ({}B, {}µs), {} restarts",
        config.duration,
        outcome.report.evaluations.len(),
        outcome.report.updates_ingested,
        outcome.stats.checkpoints,
        outcome.stats.checkpoint_bytes,
        outcome.stats.checkpoint_time.as_micros(),
        outcome.stats.journal_frames,
        outcome.stats.journal_bytes,
        outcome.stats.journal_time.as_micros(),
        outcome.stats.restarts,
    )?;
    let gauges = outcome.operator.control_gauges();
    if outcome.report.controls_applied > 0 || gauges.deregistered_total > 0 {
        writeln!(
            out,
            "control plane: {} ops applied, {} active queries ({} registered, {} deregistered, {} unknown)",
            outcome.report.controls_applied,
            gauges.active_queries,
            gauges.registered_total,
            gauges.deregistered_total,
            gauges.unknown_total,
        )?;
    }
    if let Some(bad) = source.file.as_ref().map(|f| f.bad_lines).filter(|&b| b > 0) {
        writeln!(out, "control file: {bad} malformed lines skipped")?;
    }
    if let Some(fired) = injector.as_ref().map(|i| i.fired()) {
        writeln!(out, "fault drill: {fired} injected worker panics")?;
    }
    if let Some(path) = &opts.dead_letter_out {
        let n = super::export_dead_letters(path, outcome.operator.validator())?;
        writeln!(out, "exported {n} dead letters to {path}")?;
    }

    // An aborted run reports everything gathered, then exits non-zero so
    // supervising infrastructure notices.
    if let Some(reason) = &outcome.report.aborted {
        writeln!(out, "aborted: {reason}")?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            reason.clone(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba::durability::crc32;
    use scuba_motion::ObjectId;
    use scuba_stream::QueryMatch;

    fn parse(line: &str) -> Result<Option<ControlOp>, String> {
        parse_control_line(line, 3)
    }

    fn range_of(op: ControlOp) -> f64 {
        let ControlOp::Register(u) = op else {
            panic!("expected a register op, got {op:?}");
        };
        let EntityAttrs::Query(QueryAttrs {
            spec: QuerySpec::Range { width, .. },
        }) = u.attrs
        else {
            panic!("expected a range query, got {:?}", u.attrs);
        };
        width
    }

    #[test]
    fn control_line_range_defaults_to_50_when_absent() {
        let op = parse(r#"{"op":"register","query":7,"x":1,"y":2}"#)
            .unwrap()
            .unwrap();
        assert_eq!(range_of(op), 50.0);
        let op = parse(r#"{"op":"register","query":7,"x":1,"y":2,"range":0}"#)
            .unwrap()
            .unwrap();
        assert_eq!(range_of(op), 0.0);
        let op = parse(r#"{"op":"register","query":7,"x":1,"y":2,"range":12.5}"#)
            .unwrap()
            .unwrap();
        assert_eq!(range_of(op), 12.5);
    }

    #[test]
    fn control_line_with_a_bad_range_is_malformed() {
        for range in ["\"big\"", "-10", "null", "true", "[1]", "1e999"] {
            let line = format!(r#"{{"op":"register","query":7,"x":1,"y":2,"range":{range}}}"#);
            assert!(parse(&line).is_err(), "range {range} accepted");
        }
    }

    #[test]
    fn control_lines_parse_ops_and_refuse_garbage() {
        assert_eq!(parse("   ").unwrap(), None);
        assert_eq!(
            parse(r#"{"op":"deregister","query":9}"#).unwrap(),
            Some(ControlOp::Deregister(QueryId(9)))
        );
        for bad in [
            "{not json",
            r#"{"query":9}"#,
            r#"{"op":"deregister"}"#,
            r#"{"op":"deregister","query":-1}"#,
            r#"{"op":"register","query":7,"y":2}"#,
            r#"{"op":"teleport","query":7}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn churn_script_with_a_bad_range_fails_with_its_line() {
        let dir = std::env::temp_dir().join("scuba-cli-churn-range");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("script.ndjson");
        std::fs::write(
            &path,
            concat!(
                r#"{"t":1,"op":"deregister","query":1}"#,
                "\n",
                r#"{"t":2,"op":"register","query":1,"x":5,"y":5,"range":"big"}"#,
                "\n"
            ),
        )
        .unwrap();
        let path = path.to_str().unwrap();
        let err = load_churn_script(path).unwrap_err();
        assert!(err.to_string().starts_with(&format!("{path}:2: ")), "{err}");
    }

    #[test]
    fn control_file_skips_a_line_with_a_bad_range() {
        let dir = std::env::temp_dir().join("scuba-cli-control-range");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("control.ndjson");
        std::fs::write(
            &path,
            concat!(
                r#"{"op":"register","query":1,"x":5,"y":5,"range":-10}"#,
                "\n",
                r#"{"op":"register","query":2,"x":5,"y":5}"#,
                "\n"
            ),
        )
        .unwrap();
        let mut file = ControlFile::new(path.to_str().unwrap());
        let ops = file.poll(1);
        assert_eq!(ops.len(), 1);
        assert_eq!(file.bad_lines, 1);
    }

    /// The streamed event CRC equals `crc32` over the materialised pair
    /// bytes at every length around the chunk boundary.
    #[test]
    fn streamed_result_crc_matches_one_shot() {
        for n in [0usize, 1, 255, 256, 257, 512, 1000] {
            let results: Vec<QueryMatch> = (0..n as u64)
                .map(|i| {
                    QueryMatch::new(QueryId(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)), ObjectId(!i))
                })
                .collect();
            let mut bytes = Vec::new();
            for m in &results {
                bytes.extend_from_slice(&m.query.0.to_le_bytes());
                bytes.extend_from_slice(&m.object.0.to_le_bytes());
            }
            let report = EvaluationReport {
                results,
                ..EvaluationReport::default()
            };
            assert_eq!(result_crc(&report), crc32(&bytes), "n = {n}");
        }
    }
}
