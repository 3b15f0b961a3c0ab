//! Property-based tests for the stream substrate.

use scuba_motion::{
    LocationUpdate, ObjectAttrs, ObjectClass, ObjectId, QueryAttrs, QueryId, QuerySpec,
};
use scuba_spatial::Point;
use scuba_stream::{
    ContinuousOperator, EvaluationReport, Executor, ExecutorConfig, TraceReader, TraceWriter,
};
use scuba_testkit::{check, vec, Xoshiro256};

/// Cases per property.
const CASES: u32 = 48;

fn update(rng: &mut Xoshiro256) -> LocationUpdate {
    let id = rng.next_u64();
    let is_query = rng.gen_bool(0.5);
    let (x, y) = (rng.gen_range(-1e4..1e4), rng.gen_range(-1e4..1e4));
    let time = u64::from(rng.next_u64() as u32);
    let speed = rng.gen_range(0.0..100.0);
    let class = rng.gen_range(0..6usize);
    let side = rng.gen_range(1.0..300.0);
    let loc = Point::new(x, y);
    let cn = Point::new(-x, -y);
    if is_query {
        LocationUpdate::query(
            QueryId(id),
            loc,
            time,
            speed,
            cn,
            QueryAttrs {
                spec: QuerySpec::square_range(side),
            },
        )
    } else {
        LocationUpdate::object(
            ObjectId(id),
            loc,
            time,
            speed,
            cn,
            ObjectAttrs {
                class: ObjectClass::ALL[class],
            },
        )
    }
}

fn ticks(rng: &mut Xoshiro256) -> Vec<Vec<LocationUpdate>> {
    vec(rng, 0..8, |r| vec(r, 0..12, update))
}

/// Counts what it sees; emits one empty report per evaluation.
struct Probe {
    ingested: Vec<usize>,
    current: usize,
    evaluated_at: Vec<u64>,
}

impl Probe {
    fn new() -> Self {
        Probe {
            ingested: Vec::new(),
            current: 0,
            evaluated_at: Vec::new(),
        }
    }
}

impl ContinuousOperator for Probe {
    fn process_update(&mut self, _u: &LocationUpdate) {
        self.current += 1;
    }
    fn evaluate(&mut self, now: u64) -> EvaluationReport {
        self.ingested.push(self.current);
        self.evaluated_at.push(now);
        EvaluationReport {
            now,
            ..Default::default()
        }
    }
    fn name(&self) -> &str {
        "probe"
    }
}

/// Trace write → read returns exactly the written tick structure.
#[test]
fn trace_roundtrip() {
    check("trace_roundtrip", CASES, |rng| {
        let ticks = ticks(rng);
        let mut writer = TraceWriter::new(Vec::new());
        for t in &ticks {
            writer.write_tick(t).unwrap();
        }
        assert_eq!(writer.ticks(), ticks.len() as u64);
        let bytes = writer.finish().unwrap();

        let mut reader = TraceReader::new(&bytes[..]);
        for t in &ticks {
            assert_eq!(&reader.read_tick().unwrap().unwrap(), t);
        }
        assert!(reader.read_tick().unwrap().is_none());
        assert_eq!(reader.ticks_read(), ticks.len() as u64);
    });
}

/// Truncating a trace anywhere never panics: it yields shorter output
/// or a corruption error, never garbage updates.
#[test]
fn trace_truncation_is_safe() {
    check("trace_truncation_is_safe", CASES, |rng| {
        let ticks = ticks(rng);
        let cut_fraction = rng.gen_range(0.0..1.0f64);
        let mut writer = TraceWriter::new(Vec::new());
        let mut all: Vec<LocationUpdate> = Vec::new();
        for t in &ticks {
            writer.write_tick(t).unwrap();
            all.extend_from_slice(t);
        }
        let bytes = writer.finish().unwrap();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let mut reader = TraceReader::new(&bytes[..cut]);
        let mut seen = 0usize;
        while let Ok(Some(t)) = reader.read_tick() {
            // Every decoded update must be one we wrote.
            for u in &t {
                assert!(all.contains(u));
            }
            seen += t.len();
        }
        assert!(seen <= all.len());
    });
}

/// The executor ingests every produced update and evaluates exactly
/// `duration / delta` times, at multiples of delta.
#[test]
fn executor_schedule() {
    check("executor_schedule", CASES, |rng| {
        let ticks = ticks(rng);
        let delta = rng.gen_range(1..5u64);
        let duration = ticks.len() as u64;
        let expected_updates: usize = ticks.iter().map(Vec::len).sum();
        let mut remaining = ticks.clone();
        remaining.reverse();
        let mut source = move || remaining.pop().unwrap_or_default();
        let mut probe = Probe::new();
        let report = Executor::new(ExecutorConfig { delta, duration }).run(&mut source, &mut probe);

        assert_eq!(report.updates_ingested, expected_updates);
        assert_eq!(report.evaluations.len(), (duration / delta) as usize);
        for (k, &t) in probe.evaluated_at.iter().enumerate() {
            assert_eq!(t, (k as u64 + 1) * delta);
        }
        // Ingestion counts are monotone.
        assert!(probe.ingested.windows(2).all(|w| w[0] <= w[1]));
    });
}

/// A recorded trace drives the executor identically to the live source.
#[test]
fn trace_replay_equals_live() {
    check("trace_replay_equals_live", CASES, |rng| {
        let ticks = ticks(rng);
        let delta = rng.gen_range(1..4u64);
        let duration = ticks.len() as u64;

        let mut live_ticks = ticks.clone();
        live_ticks.reverse();
        let mut live_source = move || live_ticks.pop().unwrap_or_default();
        let mut live_probe = Probe::new();
        let live = Executor::new(ExecutorConfig { delta, duration })
            .run(&mut live_source, &mut live_probe);

        let mut writer = TraceWriter::new(Vec::new());
        for t in &ticks {
            writer.write_tick(t).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let mut reader = TraceReader::new(&bytes[..]);
        let mut replay_probe = Probe::new();
        let replay =
            Executor::new(ExecutorConfig { delta, duration }).run(&mut reader, &mut replay_probe);

        assert_eq!(live.updates_ingested, replay.updates_ingested);
        assert_eq!(live_probe.ingested, replay_probe.ingested);
    });
}
