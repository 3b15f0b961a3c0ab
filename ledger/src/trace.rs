//! In-memory span recorder for the traced run.
//!
//! A span is recorded around every public call the loop makes into a
//! layer: name, start, end, the span that caused it, and the Δ-cycle it
//! belongs to. Spans stay in memory for the whole run and are written once
//! at exit. With tracing off every method is a branch on one `bool`, which
//! is why end-to-end metrics always come from the untraced run.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Identifier of a recorded span; [`NONE`] when tracing is off or the
/// span has no parent.
pub type SpanId = u32;

/// "No span".
pub const NONE: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `"ingest"`.
    pub name: Cow<'static, str>,
    /// The span that caused this one ([`NONE`] for a cycle).
    pub parent: SpanId,
    /// The Δ-cycle all spans of one result share.
    pub cycle: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// `true` for children laid out from a returned `phases` row rather
    /// than timed by the harness.
    pub synthetic: bool,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, cycle: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            parent,
            cycle,
            start_ns: now,
            end_ns: now,
            synthetic: false,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Ends a span now and returns its duration in ns (0 when off).
    pub fn close(&mut self, id: SpanId) -> u64 {
        if id == NONE {
            return 0;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Lays `stages` out back to back from the start of span `parent`, as
    /// its synthetic children: the per-stage rows an `evaluate()` call
    /// returned, in pipeline order.
    pub fn synthesise(&mut self, parent: SpanId, stages: impl Iterator<Item = (String, u64)>) {
        if parent == NONE {
            return;
        }
        let (cycle, mut at) = {
            let p = &self.spans[parent as usize];
            (p.cycle, p.start_ns)
        };
        for (name, wall_ns) in stages {
            self.spans.push(Span {
                name: Cow::Owned(name),
                parent,
                cycle,
                start_ns: at,
                end_ns: at + wall_ns,
                synthetic: true,
            });
            at += wall_ns;
        }
    }

    /// What recording one span costs, ns: the median of a few timed
    /// batches of open/close pairs on a scratch tracer.
    pub fn span_cost_ns() -> f64 {
        const BATCH: usize = 20_000;
        let mut per_span = Vec::new();
        for _ in 0..5 {
            let mut scratch = Tracer::on();
            scratch.spans.reserve(BATCH);
            let started = Instant::now();
            for _ in 0..BATCH {
                let id = scratch.open("calibration", NONE, 0);
                scratch.close(id);
            }
            per_span.push(started.elapsed().as_nanos() as f64 / BATCH as f64);
        }
        crate::stats::median(&per_span)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, ns.
    pub fn totals(&self) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name.to_string()).or_insert(0) += span.end_ns - span.start_ns;
        }
        totals
    }

    /// Durations of every span called `name`, ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            // Span names are identifiers from this crate and stage names
            // from the engine; neither needs escaping.
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"cycle\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"synthetic\":{}}}",
                s.cycle, s.name, s.start_ns, s.end_ns, s.synthetic
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.open("cycle", NONE, 0);
        assert_eq!(id, NONE);
        assert_eq!(t.close(id), 0);
        t.synthesise(id, [("x".to_string(), 5)].into_iter());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_synthetic_children_tile_the_parent() {
        let mut t = Tracer::on();
        let cycle = t.open("cycle", NONE, 7);
        let eval = t.open("evaluate", cycle, 7);
        t.close(eval);
        t.close(cycle);
        t.synthesise(
            eval,
            [("a".to_string(), 10), ("b".to_string(), 5)].into_iter(),
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, cycle);
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert!(spans[3].synthetic && spans[3].cycle == 7);
        assert_eq!(t.totals()["b"], 5);
        let mut out = Vec::new();
        t.write_ndjson(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            crate::json::parse(line).unwrap();
        }
    }
}
