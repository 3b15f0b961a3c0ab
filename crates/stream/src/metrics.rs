//! Timing helpers and run aggregates.

use std::time::{Duration, Instant};

use crate::operator::EvaluationReport;

/// A simple wall-clock stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed time and restart.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.started;
        self.started = now;
        d
    }
}

/// Aggregate statistics over a sequence of evaluations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggregateStats {
    /// Number of evaluations aggregated.
    pub evaluations: usize,
    /// Total join wall-clock time.
    pub total_join_time: Duration,
    /// Total maintenance wall-clock time.
    pub total_maintenance_time: Duration,
    /// Total result tuples produced.
    pub total_results: usize,
    /// Total pair comparisons performed.
    pub total_comparisons: u64,
    /// Total coarse pre-filter tests performed.
    pub total_prefilter_tests: u64,
    /// Maximum memory estimate observed.
    pub peak_memory_bytes: usize,
    /// Mean memory estimate.
    pub mean_memory_bytes: usize,
}

impl AggregateStats {
    /// Folds a sequence of reports into aggregate statistics.
    pub fn from_reports<'a>(reports: impl IntoIterator<Item = &'a EvaluationReport>) -> Self {
        let mut stats = AggregateStats::default();
        let mut memory_sum: u128 = 0;
        for r in reports {
            stats.evaluations += 1;
            stats.total_join_time += r.join_time();
            stats.total_maintenance_time += r.maintenance_time();
            stats.total_results += r.results.len();
            stats.total_comparisons += r.comparisons;
            stats.total_prefilter_tests += r.prefilter_tests;
            stats.peak_memory_bytes = stats.peak_memory_bytes.max(r.memory_bytes);
            memory_sum += r.memory_bytes as u128;
        }
        if stats.evaluations > 0 {
            stats.mean_memory_bytes = (memory_sum / stats.evaluations as u128) as usize;
        }
        stats
    }
}

/// A latency sample set with percentile queries, for health reporting in
/// long-lived runs (e.g. the tick p99 a `serve` loop prints).
///
/// Samples are kept raw and sorted on demand; with one sample per
/// evaluation this stays tiny compared to the engine state it describes.
#[derive(Debug, Clone, Default)]
pub struct LatencyTrack {
    samples: Vec<Duration>,
}

impl LatencyTrack {
    /// Creates an empty track.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: Duration) {
        self.samples.push(sample);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile (nearest-rank, `p` in `[0, 100]`) of all
    /// samples recorded so far; [`Duration::ZERO`] when empty.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    /// Maximum sample recorded; [`Duration::ZERO`] when empty.
    pub fn max(&self) -> Duration {
        self.samples.iter().copied().max().unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{PhaseBreakdown, QueryMatch, StageStats};
    use scuba_motion::{ObjectId, QueryId};

    fn report(join_ms: u64, maint_ms: u64, results: usize, mem: usize) -> EvaluationReport {
        let mut phases = PhaseBreakdown::new();
        phases.push(StageStats::join("join").with_wall(Duration::from_millis(join_ms)));
        phases.push(
            StageStats::maintenance("maintenance").with_wall(Duration::from_millis(maint_ms)),
        );
        EvaluationReport {
            now: 0,
            results: (0..results)
                .map(|i| QueryMatch::new(QueryId(i as u64), ObjectId(i as u64)))
                .collect(),
            phases,
            memory_bytes: mem,
            comparisons: results as u64 * 2,
            prefilter_tests: 1,
        }
    }

    #[test]
    fn stopwatch_measures_nonzero() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn stopwatch_lap_restarts() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let first = sw.lap();
        let second = sw.elapsed();
        assert!(first >= Duration::from_millis(1));
        assert!(second < first);
    }

    #[test]
    fn aggregate_over_reports() {
        let reports = vec![report(10, 5, 3, 100), report(20, 5, 7, 300)];
        let stats = AggregateStats::from_reports(&reports);
        assert_eq!(stats.evaluations, 2);
        assert_eq!(stats.total_join_time, Duration::from_millis(30));
        assert_eq!(stats.total_maintenance_time, Duration::from_millis(10));
        assert_eq!(stats.total_results, 10);
        assert_eq!(stats.total_comparisons, 20);
        assert_eq!(stats.total_prefilter_tests, 2);
        assert_eq!(stats.peak_memory_bytes, 300);
        assert_eq!(stats.mean_memory_bytes, 200);
    }

    #[test]
    fn aggregate_empty_is_zero() {
        let stats = AggregateStats::from_reports(std::iter::empty());
        assert_eq!(stats.evaluations, 0);
        assert_eq!(stats.total_join_time, Duration::ZERO);
        assert_eq!(stats.mean_memory_bytes, 0);
    }

    #[test]
    fn latency_track_percentiles() {
        let mut track = LatencyTrack::new();
        assert!(track.is_empty());
        assert_eq!(track.percentile(99.0), Duration::ZERO);
        for ms in 1..=100u64 {
            track.record(Duration::from_millis(ms));
        }
        assert_eq!(track.len(), 100);
        assert_eq!(track.percentile(50.0), Duration::from_millis(50));
        assert_eq!(track.percentile(99.0), Duration::from_millis(99));
        assert_eq!(track.percentile(100.0), Duration::from_millis(100));
        assert_eq!(track.percentile(0.0), Duration::from_millis(1));
        assert_eq!(track.max(), Duration::from_millis(100));
    }

    #[test]
    fn latency_track_single_sample() {
        let mut track = LatencyTrack::new();
        track.record(Duration::from_micros(7));
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(track.percentile(p), Duration::from_micros(7));
        }
    }
}
