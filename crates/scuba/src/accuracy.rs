//! Result-accuracy accounting (paper §6.6).
//!
//! "To measure accuracy, we compare the results outputted by SCUBA when
//! η = 0% (no load shedding) to the ones output when η > 0%, calculating
//! the number of false-negative and false-positive results."
//!
//! We report the standard derived measures; the single "accuracy" number is
//! the Jaccard similarity of the two result sets
//! (`TP / (TP + FP + FN)`), which penalises both kinds of error the way the
//! paper's accuracy percentages behave (1.0 when identical, decreasing with
//! either error kind).

use scuba_stream::QueryMatch;

/// Comparison of a measured result set against ground truth.
///
/// # Examples
///
/// ```
/// use scuba::AccuracyReport;
/// use scuba_motion::{ObjectId, QueryId};
/// use scuba_stream::QueryMatch;
///
/// let m = |q, o| QueryMatch::new(QueryId(q), ObjectId(o));
/// let truth = [m(1, 1), m(1, 2)];
/// let measured = [m(1, 2), m(2, 9)];
/// let report = AccuracyReport::compare(&truth, &measured);
/// assert_eq!(report.true_positives, 1);
/// assert_eq!(report.false_positives, 1);
/// assert_eq!(report.false_negatives, 1);
/// assert!((report.accuracy() - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccuracyReport {
    /// Matches present in both sets.
    pub true_positives: usize,
    /// Matches reported but not in the truth.
    pub false_positives: usize,
    /// Truth matches that were missed.
    pub false_negatives: usize,
}

impl AccuracyReport {
    /// Compares `measured` against `truth`. Both slices may be unsorted and
    /// may contain duplicates; comparison is set-based.
    pub fn compare(truth: &[QueryMatch], measured: &[QueryMatch]) -> Self {
        let mut t: Vec<QueryMatch> = truth.to_vec();
        t.sort_unstable();
        t.dedup();
        let mut m: Vec<QueryMatch> = measured.to_vec();
        m.sort_unstable();
        m.dedup();

        let mut report = AccuracyReport::default();
        let (mut i, mut j) = (0usize, 0usize);
        while i < t.len() && j < m.len() {
            match t[i].cmp(&m[j]) {
                std::cmp::Ordering::Equal => {
                    report.true_positives += 1;
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    report.false_negatives += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    report.false_positives += 1;
                    j += 1;
                }
            }
        }
        report.false_negatives += t.len() - i;
        report.false_positives += m.len() - j;
        report
    }

    /// Jaccard accuracy in `[0, 1]`: `TP / (TP + FP + FN)`; `1.0` when both
    /// sets are empty.
    pub fn accuracy(&self) -> f64 {
        let denom = self.true_positives + self.false_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Merges two reports (e.g. accumulated over evaluation intervals).
    pub fn merge(&self, other: &AccuracyReport) -> AccuracyReport {
        AccuracyReport {
            true_positives: self.true_positives + other.true_positives,
            false_positives: self.false_positives + other.false_positives,
            false_negatives: self.false_negatives + other.false_negatives,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectId, QueryId};

    fn m(q: u64, o: u64) -> QueryMatch {
        QueryMatch::new(QueryId(q), ObjectId(o))
    }

    #[test]
    fn identical_sets_are_perfect() {
        let truth = vec![m(1, 1), m(1, 2), m(2, 1)];
        let r = AccuracyReport::compare(&truth, &truth);
        assert_eq!(r.true_positives, 3);
        assert_eq!(r.false_positives, 0);
        assert_eq!(r.false_negatives, 0);
        assert_eq!(r.accuracy(), 1.0);
    }

    #[test]
    fn counts_both_error_kinds() {
        let truth = vec![m(1, 1), m(1, 2)];
        let measured = vec![m(1, 2), m(2, 9)];
        let r = AccuracyReport::compare(&truth, &measured);
        assert_eq!(r.true_positives, 1);
        assert_eq!(r.false_positives, 1); // (2,9)
        assert_eq!(r.false_negatives, 1); // (1,1)
        assert!((r.accuracy() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_and_duplicated_inputs() {
        let truth = vec![m(2, 1), m(1, 1), m(1, 1)];
        let measured = vec![m(1, 1), m(2, 1), m(2, 1)];
        let r = AccuracyReport::compare(&truth, &measured);
        assert_eq!(r.true_positives, 2);
        assert_eq!(r.false_positives, 0);
        assert_eq!(r.false_negatives, 0);
    }

    #[test]
    fn empty_sets() {
        let r = AccuracyReport::compare(&[], &[]);
        assert_eq!(r.accuracy(), 1.0);
        let r = AccuracyReport::compare(&[m(1, 1)], &[]);
        assert_eq!(r.false_negatives, 1);
        assert_eq!(r.accuracy(), 0.0);
        let r = AccuracyReport::compare(&[], &[m(1, 1)]);
        assert_eq!(r.false_positives, 1);
        assert_eq!(r.accuracy(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let a = AccuracyReport {
            true_positives: 3,
            false_positives: 1,
            false_negatives: 0,
        };
        let b = AccuracyReport {
            true_positives: 2,
            false_positives: 0,
            false_negatives: 2,
        };
        let merged = a.merge(&b);
        assert_eq!(merged.true_positives, 5);
        assert_eq!(merged.false_positives, 1);
        assert_eq!(merged.false_negatives, 2);
        assert!((merged.accuracy() - 5.0 / 8.0).abs() < 1e-12);
    }
}
