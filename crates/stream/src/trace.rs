//! Trace capture and replay.
//!
//! Records a tick-structured stream of location updates to any
//! `Write`/`Read` sink in a simple length-prefixed binary format, and
//! replays it later as an [`UpdateSource`]. This is how a deployment
//! captures real GPS feeds for offline debugging, and how a reproduction
//! substitutes recorded traces for the synthetic generator without touching
//! engine code.
//!
//! Format, little-endian:
//!
//! ```text
//! magic  "SCTR" u32
//! version u32 (=1)
//! repeated ticks:
//!   count    u32         # updates in this tick
//!   byte_len u32         # size of the encoded block that follows
//!   block    [u8; byte_len]  # count × scuba_motion::wire records
//! ```
//!
//! End of stream = end of ticks (no trailer). A stream that ends inside a
//! tick is [`TraceError::Truncated`].

use std::io::{self, Read, Write};

use scuba_motion::{wire, LocationUpdate};

use crate::executor::UpdateSource;

const MAGIC: u32 = u32::from_le_bytes(*b"SCTR");
const VERSION: u32 = 1;

/// Writes a tick-structured trace.
///
/// # Examples
///
/// ```
/// use scuba_stream::{TraceReader, TraceWriter};
///
/// let mut writer = TraceWriter::new(Vec::new());
/// writer.write_tick(&[]).unwrap();
/// let bytes = writer.finish().unwrap();
///
/// let mut reader = TraceReader::new(&bytes[..]);
/// assert_eq!(reader.read_tick().unwrap(), Some(vec![]));
/// assert_eq!(reader.read_tick().unwrap(), None);
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    ticks: u64,
    updates: u64,
    header_written: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer over `sink` (the header is written with the first
    /// tick, or by [`TraceWriter::finish`] for empty traces).
    pub fn new(sink: W) -> Self {
        TraceWriter {
            sink,
            ticks: 0,
            updates: 0,
            header_written: false,
        }
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.header_written {
            self.sink.write_all(&MAGIC.to_le_bytes())?;
            self.sink.write_all(&VERSION.to_le_bytes())?;
            self.header_written = true;
        }
        Ok(())
    }

    /// Appends one tick's updates.
    pub fn write_tick(&mut self, updates: &[LocationUpdate]) -> io::Result<()> {
        self.ensure_header()?;
        // The 8-byte tick header is reserved up front and patched once the
        // block behind it is complete.
        let mut tick = Vec::with_capacity(8 + updates.len() * 64);
        tick.extend_from_slice(&(updates.len() as u32).to_le_bytes());
        tick.extend_from_slice(&[0; 4]);
        for u in updates {
            wire::encode_into(u, &mut tick);
        }
        let block_len = (tick.len() - 8) as u32;
        tick[4..8].copy_from_slice(&block_len.to_le_bytes());
        self.sink.write_all(&tick)?;
        self.ticks += 1;
        self.updates += updates.len() as u64;
        Ok(())
    }

    /// Ticks written so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Updates written so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Writes the header if nothing was written yet, flushes, and returns
    /// the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.ensure_header()?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Errors raised while reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Missing or wrong magic/version header.
    BadHeader,
    /// The trace ended inside a tick.
    Truncated {
        /// Complete ticks before the cut one.
        tick: u64,
    },
    /// A record failed to decode.
    Corrupt(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadHeader => write!(f, "not a SCTR trace (bad header)"),
            TraceError::Truncated { tick } => write!(f, "trace truncated inside tick {tick}"),
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Reads a tick-structured trace; implements [`UpdateSource`] (exhausted
/// traces yield empty ticks, matching how the executor handles finished
/// producers).
///
/// As an [`UpdateSource`] the reader cannot return an error, so it keeps
/// the first one, stops reading, and yields empty ticks from then on. It
/// reports that error as its [`UpdateSource::fault`], so a run loop stops
/// at the tick that failed and the caller can tell after the run whether
/// the replay was whole.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    header_checked: bool,
    exhausted: bool,
    ticks_read: u64,
    error: Option<TraceError>,
}

impl<R: Read> TraceReader<R> {
    /// Creates a reader over `source`.
    pub fn new(source: R) -> Self {
        TraceReader {
            source,
            header_checked: false,
            exhausted: false,
            ticks_read: 0,
            error: None,
        }
    }

    /// Ticks read so far.
    pub fn ticks_read(&self) -> u64 {
        self.ticks_read
    }

    fn check_header(&mut self) -> Result<(), TraceError> {
        if self.header_checked {
            return Ok(());
        }
        let mut header = [0u8; 8];
        self.source
            .read_exact(&mut header)
            .map_err(|_| TraceError::BadHeader)?;
        let mut buf = &header[..];
        if wire::read_u32(&mut buf) != Ok(MAGIC) || wire::read_u32(&mut buf) != Ok(VERSION) {
            return Err(TraceError::BadHeader);
        }
        self.header_checked = true;
        Ok(())
    }

    /// Reads the next tick; `Ok(None)` at end of trace.
    pub fn read_tick(&mut self) -> Result<Option<Vec<LocationUpdate>>, TraceError> {
        if self.exhausted {
            return Ok(None);
        }
        self.check_header()?;

        // Up to the tick header: nothing at all is the clean end of the
        // trace, anything shorter than the header is a torn tick.
        let mut header = Vec::with_capacity(8);
        self.source.by_ref().take(8).read_to_end(&mut header)?;
        if header.is_empty() {
            self.exhausted = true;
            return Ok(None);
        }
        let truncated = TraceError::Truncated {
            tick: self.ticks_read,
        };
        let mut buf = &header[..];
        let (Ok(count), Ok(byte_len)) = (wire::read_u32(&mut buf), wire::read_u32(&mut buf)) else {
            return Err(truncated);
        };
        let mut block = Vec::new();
        self.source
            .by_ref()
            .take(byte_len as u64)
            .read_to_end(&mut block)?;
        if block.len() < byte_len as usize {
            return Err(truncated);
        }

        let mut buf = &block[..];
        let mut updates = Vec::with_capacity((count as usize).min(block.len()));
        for i in 0..count {
            let update = wire::decode(&mut buf).map_err(|e| {
                TraceError::Corrupt(format!("tick {}: record {i}/{count}: {e}", self.ticks_read))
            })?;
            updates.push(update);
        }
        if !buf.is_empty() {
            return Err(TraceError::Corrupt(format!(
                "tick {}: {} trailing bytes after {count} records",
                self.ticks_read,
                buf.len()
            )));
        }
        self.ticks_read += 1;
        Ok(Some(updates))
    }
}

impl<R: Read> UpdateSource for TraceReader<R> {
    fn next_tick(&mut self) -> Vec<LocationUpdate> {
        if self.error.is_some() {
            return Vec::new();
        }
        match self.read_tick() {
            Ok(Some(updates)) => updates,
            Ok(None) => Vec::new(),
            Err(e) => {
                self.error = Some(e);
                Vec::new()
            }
        }
    }

    fn fault(&self) -> Option<String> {
        self.error
            .as_ref()
            .map(|e| format!("replay failed after {} whole ticks: {e}", self.ticks_read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
    use scuba_spatial::Point;

    fn updates(tick: u64, n: u64) -> Vec<LocationUpdate> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    LocationUpdate::object(
                        ObjectId(i),
                        Point::new(i as f64, tick as f64),
                        tick,
                        12.5,
                        Point::new(100.0, 100.0),
                        ObjectAttrs::default(),
                    )
                } else {
                    LocationUpdate::query(
                        QueryId(i),
                        Point::new(tick as f64, i as f64),
                        tick,
                        8.0,
                        Point::new(0.0, 0.0),
                        QueryAttrs {
                            spec: QuerySpec::square_range(10.0 + i as f64),
                        },
                    )
                }
            })
            .collect()
    }

    fn record(ticks: &[Vec<LocationUpdate>]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new());
        for t in ticks {
            w.write_tick(t).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_multiple_ticks() {
        let ticks = vec![updates(1, 3), updates(2, 0), updates(3, 7)];
        let bytes = record(&ticks);
        let mut r = TraceReader::new(&bytes[..]);
        for t in &ticks {
            assert_eq!(&r.read_tick().unwrap().unwrap(), t);
        }
        assert!(r.read_tick().unwrap().is_none());
        assert!(r.read_tick().unwrap().is_none(), "the end stays the end");
        assert_eq!(r.ticks_read(), 3);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = record(&[]);
        let mut r = TraceReader::new(&bytes[..]);
        assert!(r.read_tick().unwrap().is_none());
    }

    #[test]
    fn writer_counters() {
        let mut w = TraceWriter::new(Vec::new());
        w.write_tick(&updates(1, 4)).unwrap();
        w.write_tick(&updates(2, 6)).unwrap();
        assert_eq!(w.ticks(), 2);
        assert_eq!(w.updates(), 10);
    }

    #[test]
    fn bad_header_rejected() {
        let mut r = TraceReader::new(&b"NOPExxxx"[..]);
        assert!(matches!(r.read_tick(), Err(TraceError::BadHeader)));
        let mut r = TraceReader::new(&b"xx"[..]);
        assert!(matches!(r.read_tick(), Err(TraceError::BadHeader)));
    }

    #[test]
    fn truncated_tick_detected() {
        let bytes = record(&[updates(1, 2), updates(2, 3)]);
        let second = record(&[updates(1, 2)]).len();
        // Cut inside the first tick, then inside the second.
        for (start, end, complete) in [(8, second, 0), (second, bytes.len(), 1)] {
            for cut in start + 1..end {
                let mut r = TraceReader::new(&bytes[..cut]);
                for _ in 0..complete {
                    assert!(r.read_tick().unwrap().is_some());
                }
                assert!(
                    matches!(r.read_tick(), Err(TraceError::Truncated { tick }) if tick == complete),
                    "{cut}-byte prefix"
                );
            }
            let mut r = TraceReader::new(&bytes[..start]);
            for _ in 0..complete {
                assert!(r.read_tick().unwrap().is_some());
            }
            assert!(
                r.read_tick().unwrap().is_none(),
                "a cut between ticks is a clean end"
            );
        }
    }

    #[test]
    fn corrupted_record_detected() {
        let mut bytes = record(&[updates(1, 2)]);
        // Flip the kind byte of the first record (offset: 8 header + 8 tick
        // header).
        bytes[16] = 77;
        let mut r = TraceReader::new(&bytes[..]);
        assert!(matches!(r.read_tick(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn update_source_yields_empty_after_end() {
        let bytes = record(&[updates(1, 2)]);
        let mut r = TraceReader::new(&bytes[..]);
        assert_eq!(r.next_tick().len(), 2);
        assert!(r.next_tick().is_empty());
        assert!(r.next_tick().is_empty());
        assert!(r.error.as_ref().is_none(), "a clean end is not an error");
    }

    #[test]
    fn update_source_keeps_the_first_error_and_stops() {
        let bytes = record(&[updates(1, 2), updates(2, 3), updates(3, 4)]);
        let second = record(&[updates(1, 2)]).len();
        // Tear the second tick: its header survives, its block does not.
        let mut torn = bytes[..second + 12].to_vec();
        // Append a whole third tick behind the tear; a reader that kept
        // going would resynchronise on garbage instead of stopping.
        torn.extend_from_slice(&bytes[record(&[updates(1, 2), updates(2, 3)]).len()..]);
        let mut r = TraceReader::new(&torn[..]);
        assert_eq!(r.next_tick().len(), 2);
        assert!(r.error.as_ref().is_none());
        assert!(r.next_tick().is_empty());
        let first = format!("{:?}", r.error.as_ref().expect("the torn tick is an error"));
        for _ in 0..3 {
            assert!(r.next_tick().is_empty());
        }
        assert_eq!(r.ticks_read(), 1);
        assert_eq!(format!("{:?}", r.error.as_ref().unwrap()), first);

        let mut r = TraceReader::new(&bytes[..second + 12]);
        r.next_tick();
        assert!(r.next_tick().is_empty());
        assert!(matches!(
            r.error.as_ref(),
            Some(TraceError::Truncated { tick: 1 })
        ));

        let mut r = TraceReader::new(&[0u8; 16][..]);
        assert!(r.next_tick().is_empty());
        assert!(matches!(r.error.as_ref(), Some(TraceError::BadHeader)));
    }

    #[test]
    fn replay_drives_executor_like_the_live_source() {
        use crate::executor::{Executor, ExecutorConfig};
        use crate::operator::{ContinuousOperator, EvaluationReport};

        struct Counter {
            seen: usize,
        }
        impl ContinuousOperator for Counter {
            fn process_update(&mut self, _u: &LocationUpdate) {
                self.seen += 1;
            }
            fn evaluate(&mut self, now: scuba_spatial::Time) -> EvaluationReport {
                EvaluationReport {
                    now,
                    ..Default::default()
                }
            }
            fn name(&self) -> &str {
                "counter"
            }
        }

        // Record 4 live ticks, then replay them through the executor.
        let live: Vec<Vec<LocationUpdate>> = (1..=4).map(|t| updates(t, t * 2)).collect();
        let bytes = record(&live);
        let mut reader = TraceReader::new(&bytes[..]);
        let mut op = Counter { seen: 0 };
        let run = Executor::new(ExecutorConfig {
            delta: 2,
            duration: 4,
        })
        .run(&mut reader, &mut op);
        assert_eq!(run.updates_ingested, 2 + 4 + 6 + 8);
        assert_eq!(op.seen, 20);
        assert_eq!(run.evaluations.len(), 2);
        assert!(run.aborted.is_none());

        // Tear the third tick: the run ends at it, through `aborted`,
        // without ingesting or evaluating the empty tick the tear yields.
        let torn = &bytes[..record(&live[..2]).len() + 12];
        let mut reader = TraceReader::new(torn);
        let mut op = Counter { seen: 0 };
        let run = Executor::new(ExecutorConfig {
            delta: 1,
            duration: 4,
        })
        .run(&mut reader, &mut op);
        assert_eq!((run.updates_ingested, op.seen), (2 + 4, 6));
        assert_eq!(run.evaluations.len(), 2, "ticks 1 and 2 only");
        assert_eq!(
            run.aborted.as_deref(),
            Some("replay failed after 2 whole ticks: trace truncated inside tick 2")
        );
    }
}
