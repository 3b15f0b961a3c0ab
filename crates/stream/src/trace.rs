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
//! version u32 (=2)
//! repeated ticks:
//!   count    u32         # updates in this tick (never 0xFFFF_FFFF)
//!   byte_len u32         # size of the encoded block that follows
//!   block    [u8; byte_len]  # count × scuba_motion::wire records
//! trailer:
//!   end      u32 (=0xFFFF_FFFF)
//!   ticks    u64         # ticks written
//! ```
//!
//! The trailer, written by [`TraceWriter::finish`], is what tells a whole
//! trace from one cut between two ticks: a version-2 stream that ends
//! anywhere before the end of its trailer — inside a tick, between two
//! ticks or inside the trailer — is [`TraceError::Truncated`]. A trailer
//! that counts other than the ticks before it, or bytes after the
//! trailer, are [`TraceError::Corrupt`].
//!
//! Version 1 (no trailer) still reads: its end of stream is the end of its
//! ticks, so a version-1 trace cut exactly between two ticks reads as a
//! whole, shorter trace — the reader cannot detect that cut. A version-1
//! stream that ends inside a tick is [`TraceError::Truncated`].

use std::io::{self, Read, Write};

use scuba_motion::{wire, LocationUpdate};

use crate::executor::UpdateSource;

const MAGIC: u32 = u32::from_le_bytes(*b"SCTR");
const VERSION: u32 = 2;
/// The version without a trailer, still read.
const VERSION_UNTERMINATED: u32 = 1;
/// The trailer's first word, where a tick's update count would be.
const END: u32 = u32::MAX;

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
        let count = u32::try_from(updates.len())
            .ok()
            .filter(|&n| n != END)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "tick too large"))?;
        self.ensure_header()?;
        // The 8-byte tick header is reserved up front and patched once the
        // block behind it is complete.
        let mut tick = Vec::with_capacity(8 + updates.len() * 64);
        tick.extend_from_slice(&count.to_le_bytes());
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

    /// Writes the header if nothing was written yet, then the trailer with
    /// the tick count, flushes, and returns the sink. A trace without its
    /// trailer reads as truncated.
    pub fn finish(mut self) -> io::Result<W> {
        self.ensure_header()?;
        self.sink.write_all(&END.to_le_bytes())?;
        self.sink.write_all(&self.ticks.to_le_bytes())?;
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
    /// The trace ended inside a tick, or (version 2) anywhere before the
    /// end of its trailer.
    Truncated {
        /// Complete ticks before the cut.
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
    /// The header's version, once read.
    version: Option<u32>,
    exhausted: bool,
    ticks_read: u64,
    error: Option<TraceError>,
}

impl<R: Read> TraceReader<R> {
    /// Creates a reader over `source`.
    pub fn new(source: R) -> Self {
        TraceReader {
            source,
            version: None,
            exhausted: false,
            ticks_read: 0,
            error: None,
        }
    }

    /// Ticks read so far.
    pub fn ticks_read(&self) -> u64 {
        self.ticks_read
    }

    /// Reads and checks the header once; returns the trace's version.
    fn check_header(&mut self) -> Result<u32, TraceError> {
        if let Some(version) = self.version {
            return Ok(version);
        }
        let mut header = [0u8; 8];
        self.source
            .read_exact(&mut header)
            .map_err(|_| TraceError::BadHeader)?;
        let mut buf = &header[..];
        let version = match (wire::read_u32(&mut buf), wire::read_u32(&mut buf)) {
            (Ok(MAGIC), Ok(v @ (VERSION | VERSION_UNTERMINATED))) => v,
            _ => return Err(TraceError::BadHeader),
        };
        self.version = Some(version);
        Ok(version)
    }

    /// Reads the rest of a version-2 trailer after its `END` word: the
    /// tick count must match the ticks read, and nothing may follow.
    fn read_trailer(&mut self) -> Result<(), TraceError> {
        let mut count = Vec::with_capacity(8);
        self.source.by_ref().take(8).read_to_end(&mut count)?;
        let Ok(written) = wire::read_u64(&mut &count[..]) else {
            return Err(TraceError::Truncated {
                tick: self.ticks_read,
            });
        };
        if written != self.ticks_read {
            return Err(TraceError::Corrupt(format!(
                "trailer counts {written} ticks after {} whole ticks",
                self.ticks_read
            )));
        }
        let mut rest = Vec::new();
        self.source.by_ref().take(1).read_to_end(&mut rest)?;
        if !rest.is_empty() {
            return Err(TraceError::Corrupt(format!(
                "bytes after the trailer of {written} ticks"
            )));
        }
        Ok(())
    }

    /// Reads the next tick; `Ok(None)` at end of trace.
    pub fn read_tick(&mut self) -> Result<Option<Vec<LocationUpdate>>, TraceError> {
        if self.exhausted {
            return Ok(None);
        }
        let version = self.check_header()?;

        // Up to the tick header. Nothing at all is the clean end of a
        // version-1 trace and a cut version-2 one; the trailer is the clean
        // end of a version-2 trace; anything else shorter than the header
        // is a torn tick.
        let truncated = TraceError::Truncated {
            tick: self.ticks_read,
        };
        let mut header = Vec::with_capacity(8);
        self.source.by_ref().take(4).read_to_end(&mut header)?;
        if header.is_empty() && version == VERSION_UNTERMINATED {
            self.exhausted = true;
            return Ok(None);
        }
        let Ok(count) = wire::read_u32(&mut &header[..]) else {
            return Err(truncated);
        };
        if count == END && version == VERSION {
            self.read_trailer()?;
            self.exhausted = true;
            return Ok(None);
        }
        header.clear();
        self.source.by_ref().take(4).read_to_end(&mut header)?;
        let Ok(byte_len) = wire::read_u32(&mut &header[..]) else {
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

    /// Bytes of the trailer [`TraceWriter::finish`] appends.
    const TRAILER: usize = 12;

    /// Where the tick after `ticks` starts in a trace that begins with
    /// them: their recording without its trailer.
    fn ticks_end(ticks: &[Vec<LocationUpdate>]) -> usize {
        record(ticks).len() - TRAILER
    }

    /// The same ticks as a version-1 trace: version word 1, no trailer.
    fn record_v1(ticks: &[Vec<LocationUpdate>]) -> Vec<u8> {
        let mut bytes = record(ticks);
        bytes.truncate(bytes.len() - TRAILER);
        bytes[4..8].copy_from_slice(&VERSION_UNTERMINATED.to_le_bytes());
        bytes
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

    /// Every strict prefix past the header is truncated, naming the whole
    /// ticks before the cut: inside a tick, exactly between two ticks, and
    /// inside or just before the trailer.
    #[test]
    fn truncated_tick_detected() {
        let ticks = [updates(1, 2), updates(2, 3)];
        let bytes = record(&ticks);
        let (second, trailer) = (ticks_end(&ticks[..1]), ticks_end(&ticks));
        for cut in 8..bytes.len() {
            let complete = match cut {
                c if c < second => 0,
                c if c < trailer => 1,
                _ => 2,
            };
            let mut r = TraceReader::new(&bytes[..cut]);
            for _ in 0..complete {
                assert!(r.read_tick().unwrap().is_some());
            }
            assert!(
                matches!(r.read_tick(), Err(TraceError::Truncated { tick }) if tick == complete),
                "{cut}-byte prefix"
            );
        }
    }

    /// The trailer must count the ticks before it, and end the stream.
    #[test]
    fn trailer_mismatch_is_corrupt() {
        let ticks = [updates(1, 2), updates(2, 3)];
        let bytes = record(&ticks);
        let mut short = record(&ticks[..1]);
        short.truncate(short.len() - TRAILER);
        short.extend_from_slice(&bytes[bytes.len() - TRAILER..]);
        let mut long = bytes.clone();
        long.push(0);
        for (stream, whole) in [(&short, 1), (&long, 2)] {
            let mut r = TraceReader::new(&stream[..]);
            for _ in 0..whole {
                assert!(r.read_tick().unwrap().is_some());
            }
            assert!(matches!(r.read_tick(), Err(TraceError::Corrupt(_))));
        }
    }

    /// A version-1 trace still replays. It has no trailer, so a cut inside
    /// a tick is truncated but a cut exactly between two ticks reads as a
    /// whole, shorter trace: version 1 cannot detect it.
    #[test]
    fn version_1_reads_without_a_trailer() {
        let ticks = [updates(1, 2), updates(2, 3)];
        let bytes = record_v1(&ticks);
        let mut r = TraceReader::new(&bytes[..]);
        for t in &ticks {
            assert_eq!(&r.read_tick().unwrap().unwrap(), t);
        }
        assert!(r.read_tick().unwrap().is_none());
        let second = record_v1(&ticks[..1]).len();
        let mut r = TraceReader::new(&bytes[..second]);
        assert!(r.read_tick().unwrap().is_some());
        assert!(r.read_tick().unwrap().is_none(), "undetectable in v1");
        let mut r = TraceReader::new(&bytes[..second + 3]);
        assert!(r.read_tick().unwrap().is_some());
        assert!(matches!(
            r.read_tick(),
            Err(TraceError::Truncated { tick: 1 })
        ));
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
        let ticks = [updates(1, 2), updates(2, 3), updates(3, 4)];
        let bytes = record(&ticks);
        let second = ticks_end(&ticks[..1]);
        // Tear the second tick: its header survives, its block does not.
        let mut torn = bytes[..second + 12].to_vec();
        // Append a whole third tick behind the tear; a reader that kept
        // going would resynchronise on garbage instead of stopping.
        torn.extend_from_slice(&bytes[ticks_end(&ticks[..2])..]);
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
        let torn = &bytes[..ticks_end(&live[..2]) + 12];
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
