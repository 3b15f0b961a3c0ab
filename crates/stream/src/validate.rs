//! Hardened ingestion front-end: update validation, quarantine, policies.
//!
//! The paper assumes well-formed location updates (§2). A deployed stream
//! system cannot: GPS units emit NaN fixes, buggy producers replay stale
//! packets, transport layers duplicate and reorder. This module is the
//! gatekeeper between an [`crate::executor::UpdateSource`] and an operator:
//! every update is checked against the monitored region and a per-entity
//! timestamp history, and the configured [`ValidationPolicy`] decides
//! whether a malformed update is repaired, quarantined into a bounded
//! dead-letter buffer, or treated as fatal.
//!
//! The validator is deliberately *outside* the clustering engine: a
//! rejected update must never touch engine state, so the same engine code
//! path serves both hardened and trusting deployments.

use std::collections::VecDeque;

use scuba_motion::{EntityRef, LocationUpdate};
use scuba_spatial::{FxHashMap, Rect, Time};

/// What to do with a malformed update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ValidationPolicy {
    /// No validation: every update is passed through untouched (the
    /// paper's trusting default).
    #[default]
    Off,
    /// Malformed updates are quarantined in the dead-letter buffer and
    /// never reach the operator.
    Reject,
    /// Repairable faults (coordinates outside the region, infinite
    /// coordinates, non-finite or negative speed) are clamped into range;
    /// unrepairable faults (NaN positions, time regressions, duplicates)
    /// are still rejected.
    Clamp,
    /// The first malformed update aborts the run — for pipelines where bad
    /// input means an upstream contract was broken and continuing would
    /// silently produce wrong answers.
    Abort,
}

impl ValidationPolicy {
    /// Stable lower-case label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ValidationPolicy::Off => "off",
            ValidationPolicy::Reject => "reject",
            ValidationPolicy::Clamp => "clamp",
            ValidationPolicy::Abort => "abort",
        }
    }
}

impl std::str::FromStr for ValidationPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ValidationPolicy::Off),
            "reject" => Ok(ValidationPolicy::Reject),
            "clamp" => Ok(ValidationPolicy::Clamp),
            "abort" => Ok(ValidationPolicy::Abort),
            other => Err(format!(
                "unknown validation policy '{other}' (expected off|reject|clamp|abort)"
            )),
        }
    }
}

impl std::fmt::Display for ValidationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why an update was rejected (the dead-letter taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// A position or connection-node coordinate is NaN, or a
    /// connection-node coordinate is infinite (directions cannot be
    /// clamped meaningfully).
    NonFiniteCoord,
    /// The reported position lies outside the monitored region.
    OutOfRegion,
    /// The reported speed is NaN, infinite, or negative.
    NonFiniteSpeed,
    /// The update's timestamp precedes the entity's last accepted one.
    NonMonotoneTime,
    /// The entity already reported at exactly this timestamp — a replayed
    /// `(time, entity)` key.
    DuplicateKey,
    /// A remove/deregister arrived for an entity no structure knows —
    /// already dead, never registered, or addressed to the wrong stripe.
    /// Raised by the control plane, not by the inspect pipeline.
    UnknownEntity,
}

impl RejectReason {
    /// Every reason, in reporting order.
    pub const ALL: [RejectReason; 6] = [
        RejectReason::NonFiniteCoord,
        RejectReason::OutOfRegion,
        RejectReason::NonFiniteSpeed,
        RejectReason::NonMonotoneTime,
        RejectReason::DuplicateKey,
        RejectReason::UnknownEntity,
    ];

    /// Stable kebab-case label for counters and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::NonFiniteCoord => "non-finite-coord",
            RejectReason::OutOfRegion => "out-of-region",
            RejectReason::NonFiniteSpeed => "non-finite-speed",
            RejectReason::NonMonotoneTime => "non-monotone-time",
            RejectReason::DuplicateKey => "duplicate-key",
            RejectReason::UnknownEntity => "unknown-entity",
        }
    }

    fn index(self) -> usize {
        match self {
            RejectReason::NonFiniteCoord => 0,
            RejectReason::OutOfRegion => 1,
            RejectReason::NonFiniteSpeed => 2,
            RejectReason::NonMonotoneTime => 3,
            RejectReason::DuplicateKey => 4,
            RejectReason::UnknownEntity => 5,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The validator's verdict on one update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The update may be ingested — possibly a clamped copy of the
    /// original under [`ValidationPolicy::Clamp`].
    Accept(LocationUpdate),
    /// The update was quarantined and must not reach the operator.
    Reject(RejectReason),
    /// The run must stop ([`ValidationPolicy::Abort`]).
    Fatal(RejectReason),
}

/// A quarantined update and why it was quarantined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadLetter {
    /// The offending update, verbatim.
    pub update: LocationUpdate,
    /// The first check it failed.
    pub reason: RejectReason,
}

/// Cumulative validation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Updates inspected.
    pub seen: u64,
    /// Updates passed through (including clamped ones).
    pub accepted: u64,
    /// Accepted updates that required repair under
    /// [`ValidationPolicy::Clamp`].
    pub clamped: u64,
    /// Rejections by [`RejectReason`] (indexed as
    /// [`RejectReason::index`]).
    rejected: [u64; 6],
    /// Dead letters dropped because the buffer was full.
    pub dead_letters_dropped: u64,
}

impl ValidationStats {
    /// Total rejected updates over all reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.iter().sum()
    }

    /// Rejections for one reason.
    pub fn rejected(&self, reason: RejectReason) -> u64 {
        self.rejected[reason.index()]
    }

    /// `(label, count)` pairs for every reason, in reporting order.
    pub fn rejected_by_reason(&self) -> Vec<(&'static str, u64)> {
        RejectReason::ALL
            .iter()
            .map(|&r| (r.label(), self.rejected(r)))
            .collect()
    }
}

/// Default bound on the dead-letter buffer (oldest letters are dropped
/// beyond it; the counters keep counting).
const DEFAULT_DEAD_LETTER_CAP: usize = 1024;

/// Stateful update validator: region check, per-entity timestamp history,
/// policy dispatch and dead-letter quarantine.
///
/// Checks run in a fixed order and the *first* failure decides the
/// verdict: non-finite coordinates, region membership, speed sanity, then
/// per-entity time monotonicity / duplicate detection. Accepted updates
/// advance the entity's timestamp watermark; rejected ones leave all
/// validator and downstream state untouched.
#[derive(Debug, Clone)]
pub struct UpdateValidator {
    policy: ValidationPolicy,
    region: Rect,
    last_seen: FxHashMap<EntityRef, Time>,
    dead_letters: VecDeque<DeadLetter>,
    dead_letter_cap: usize,
    stats: ValidationStats,
}

impl UpdateValidator {
    /// Creates a validator for updates inside `region` with the default
    /// dead-letter bound.
    pub fn new(policy: ValidationPolicy, region: Rect) -> Self {
        Self::with_dead_letter_cap(policy, region, DEFAULT_DEAD_LETTER_CAP)
    }

    /// Creates a validator with an explicit dead-letter bound.
    fn with_dead_letter_cap(policy: ValidationPolicy, region: Rect, cap: usize) -> Self {
        UpdateValidator {
            policy,
            region,
            last_seen: FxHashMap::default(),
            dead_letters: VecDeque::new(),
            dead_letter_cap: cap,
            stats: ValidationStats::default(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> ValidationPolicy {
        self.policy
    }

    /// The cumulative counters.
    pub fn stats(&self) -> ValidationStats {
        self.stats
    }

    /// The quarantined updates, oldest first (bounded; see
    /// [`ValidationStats::dead_letters_dropped`] for overflow).
    pub fn dead_letters(&self) -> impl Iterator<Item = &DeadLetter> {
        self.dead_letters.iter()
    }

    /// Number of currently buffered dead letters.
    pub fn dead_letter_len(&self) -> usize {
        self.dead_letters.len()
    }

    /// Checks one update and returns the policy's verdict. Accepting
    /// mutates the per-entity watermark; rejecting only the quarantine
    /// buffer and counters.
    pub fn check(&mut self, update: &LocationUpdate) -> Verdict {
        self.stats.seen += 1;
        if self.policy == ValidationPolicy::Off {
            self.stats.accepted += 1;
            return Verdict::Accept(*update);
        }
        match self.inspect(update) {
            Ok(clean) => {
                self.stats.accepted += 1;
                if clean.loc != update.loc || clean.speed != update.speed {
                    self.stats.clamped += 1;
                }
                self.last_seen.insert(clean.entity, clean.time);
                Verdict::Accept(clean)
            }
            Err(reason) => {
                self.quarantine(update, reason);
                if self.policy == ValidationPolicy::Abort {
                    Verdict::Fatal(reason)
                } else {
                    Verdict::Reject(reason)
                }
            }
        }
    }

    /// Runs the check pipeline; `Ok` carries the (possibly repaired)
    /// update.
    fn inspect(&self, update: &LocationUpdate) -> Result<LocationUpdate, RejectReason> {
        let mut u = *update;
        // NaN positions and non-finite connection nodes are unrepairable:
        // there is no meaningful point to clamp a NaN to, and a direction
        // cannot be invented.
        if u.loc.x.is_nan()
            || u.loc.y.is_nan()
            || !u.cn_loc.x.is_finite()
            || !u.cn_loc.y.is_finite()
        {
            return Err(RejectReason::NonFiniteCoord);
        }
        if !u.loc.x.is_finite() || !u.loc.y.is_finite() {
            // Infinite (but not NaN) coordinates clamp to the region edge.
            if self.policy == ValidationPolicy::Clamp {
                u.loc = self.region.clamp_point(&u.loc);
            } else {
                return Err(RejectReason::NonFiniteCoord);
            }
        }
        if !self.region.contains(&u.loc) {
            if self.policy == ValidationPolicy::Clamp {
                u.loc = self.region.clamp_point(&u.loc);
            } else {
                return Err(RejectReason::OutOfRegion);
            }
        }
        if !u.speed.is_finite() || u.speed < 0.0 {
            if self.policy == ValidationPolicy::Clamp && !u.speed.is_nan() {
                u.speed = u.speed.clamp(0.0, f64::MAX);
            } else {
                return Err(RejectReason::NonFiniteSpeed);
            }
        }
        if let Some(&last) = self.last_seen.get(&u.entity) {
            // Time faults are unrepairable under every policy: rewriting a
            // timestamp would fabricate a observation the entity never
            // made.
            if u.time < last {
                return Err(RejectReason::NonMonotoneTime);
            }
            if u.time == last {
                return Err(RejectReason::DuplicateKey);
            }
        }
        Ok(u)
    }

    /// Quarantines an update that failed outside the inspect pipeline —
    /// the control plane calls this for a `Deregister`/`Remove` addressed
    /// at an entity nothing knows ([`RejectReason::UnknownEntity`]), so the
    /// failure is counted and inspectable instead of silently dropped.
    pub fn quarantine_control(&mut self, update: &LocationUpdate, reason: RejectReason) {
        self.quarantine(update, reason);
    }

    fn quarantine(&mut self, update: &LocationUpdate, reason: RejectReason) {
        self.stats.rejected[reason.index()] += 1;
        if self.dead_letter_cap == 0 {
            self.stats.dead_letters_dropped += 1;
            return;
        }
        if self.dead_letters.len() == self.dead_letter_cap {
            self.dead_letters.pop_front();
            self.stats.dead_letters_dropped += 1;
        }
        self.dead_letters.push_back(DeadLetter {
            update: *update,
            reason,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};
    use scuba_spatial::Point;

    fn region() -> Rect {
        Rect::square(1000.0)
    }

    fn obj(id: u64, x: f64, y: f64, time: Time) -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(id),
            Point::new(x, y),
            time,
            10.0,
            Point::new(500.0, 500.0),
            ObjectAttrs::default(),
        )
    }

    #[test]
    fn off_accepts_everything_verbatim() {
        let mut v = UpdateValidator::new(ValidationPolicy::Off, region());
        let bad = obj(1, f64::NAN, 2e9, 5);
        match v.check(&bad) {
            // NaN makes the update non-equal to itself; compare fields.
            Verdict::Accept(u) => {
                assert_eq!(u.entity, bad.entity);
                assert!(u.loc.x.is_nan());
                assert_eq!(u.loc.y, 2e9);
            }
            other => panic!("expected pass-through accept, got {other:?}"),
        }
        assert_eq!(v.stats().seen, 1);
        assert_eq!(v.stats().accepted, 1);
        assert_eq!(v.dead_letter_len(), 0);
    }

    #[test]
    fn reject_quarantines_each_fault_kind() {
        let mut v = UpdateValidator::new(ValidationPolicy::Reject, region());
        // NaN coordinate.
        assert_eq!(
            v.check(&obj(1, f64::NAN, 0.0, 1)),
            Verdict::Reject(RejectReason::NonFiniteCoord)
        );
        // Out of region.
        assert_eq!(
            v.check(&obj(1, 5000.0, 0.0, 1)),
            Verdict::Reject(RejectReason::OutOfRegion)
        );
        // Bad speed.
        let mut bad_speed = obj(1, 10.0, 10.0, 1);
        bad_speed.speed = f64::INFINITY;
        assert_eq!(
            v.check(&bad_speed),
            Verdict::Reject(RejectReason::NonFiniteSpeed)
        );
        // Accept one, then replay its key and regress time.
        assert!(matches!(
            v.check(&obj(1, 10.0, 10.0, 5)),
            Verdict::Accept(_)
        ));
        assert_eq!(
            v.check(&obj(1, 11.0, 10.0, 5)),
            Verdict::Reject(RejectReason::DuplicateKey)
        );
        assert_eq!(
            v.check(&obj(1, 11.0, 10.0, 4)),
            Verdict::Reject(RejectReason::NonMonotoneTime)
        );
        assert_eq!(v.stats().rejected_total(), 5);
        assert_eq!(v.stats().rejected(RejectReason::DuplicateKey), 1);
        assert_eq!(v.dead_letter_len(), 5);
        let reasons: Vec<RejectReason> = v.dead_letters().map(|d| d.reason).collect();
        assert_eq!(reasons[0], RejectReason::NonFiniteCoord);
        assert_eq!(reasons[4], RejectReason::NonMonotoneTime);
    }

    #[test]
    fn rejected_updates_leave_watermark_untouched() {
        let mut v = UpdateValidator::new(ValidationPolicy::Reject, region());
        assert!(matches!(v.check(&obj(7, 1.0, 1.0, 10)), Verdict::Accept(_)));
        // A rejected out-of-region update at t=20 must not advance the
        // watermark…
        assert!(matches!(
            v.check(&obj(7, -99.0, 1.0, 20)),
            Verdict::Reject(_)
        ));
        // …so a well-formed t=20 update still gets through.
        assert!(matches!(v.check(&obj(7, 2.0, 1.0, 20)), Verdict::Accept(_)));
    }

    #[test]
    fn clamp_repairs_repairable_faults() {
        let mut v = UpdateValidator::new(ValidationPolicy::Clamp, region());
        // Out of region: clamped to the boundary.
        match v.check(&obj(1, 1500.0, -3.0, 1)) {
            Verdict::Accept(u) => {
                assert_eq!(u.loc, Point::new(1000.0, 0.0));
            }
            other => panic!("expected clamped accept, got {other:?}"),
        }
        // Infinite coordinate: clamped to the region edge.
        match v.check(&obj(2, f64::INFINITY, 10.0, 1)) {
            Verdict::Accept(u) => assert_eq!(u.loc.x, 1000.0),
            other => panic!("expected clamped accept, got {other:?}"),
        }
        // Negative speed: floored at zero.
        let mut s = obj(3, 5.0, 5.0, 1);
        s.speed = -4.0;
        match v.check(&s) {
            Verdict::Accept(u) => assert_eq!(u.speed, 0.0),
            other => panic!("expected clamped accept, got {other:?}"),
        }
        assert_eq!(v.stats().clamped, 3);
        assert_eq!(v.stats().rejected_total(), 0);
    }

    #[test]
    fn clamp_still_rejects_unrepairable_faults() {
        let mut v = UpdateValidator::new(ValidationPolicy::Clamp, region());
        assert_eq!(
            v.check(&obj(1, f64::NAN, 0.0, 1)),
            Verdict::Reject(RejectReason::NonFiniteCoord)
        );
        let mut nan_speed = obj(1, 1.0, 1.0, 1);
        nan_speed.speed = f64::NAN;
        assert_eq!(
            v.check(&nan_speed),
            Verdict::Reject(RejectReason::NonFiniteSpeed)
        );
        assert!(matches!(v.check(&obj(1, 1.0, 1.0, 5)), Verdict::Accept(_)));
        assert_eq!(
            v.check(&obj(1, 1.0, 1.0, 5)),
            Verdict::Reject(RejectReason::DuplicateKey)
        );
    }

    #[test]
    fn abort_reports_fatal() {
        let mut v = UpdateValidator::new(ValidationPolicy::Abort, region());
        assert!(matches!(v.check(&obj(1, 1.0, 1.0, 1)), Verdict::Accept(_)));
        assert_eq!(
            v.check(&obj(2, f64::NAN, 0.0, 1)),
            Verdict::Fatal(RejectReason::NonFiniteCoord)
        );
        // The fatal update is still recorded for post-mortem.
        assert_eq!(v.dead_letter_len(), 1);
    }

    #[test]
    fn dead_letter_buffer_is_bounded() {
        let mut v = UpdateValidator::with_dead_letter_cap(ValidationPolicy::Reject, region(), 3);
        for t in 0..10u64 {
            v.check(&obj(t, -1.0, 0.0, t));
        }
        assert_eq!(v.dead_letter_len(), 3);
        assert_eq!(v.stats().rejected_total(), 10);
        assert_eq!(v.stats().dead_letters_dropped, 7);
        // Oldest dropped: the survivors are the three newest.
        let ids: Vec<EntityRef> = v.dead_letters().map(|d| d.update.entity).collect();
        assert_eq!(
            ids,
            vec![
                EntityRef::Object(ObjectId(7)),
                EntityRef::Object(ObjectId(8)),
                EntityRef::Object(ObjectId(9)),
            ]
        );
    }

    #[test]
    fn queries_are_validated_like_objects() {
        let mut v = UpdateValidator::new(ValidationPolicy::Reject, region());
        let q = LocationUpdate::query(
            QueryId(1),
            Point::new(f64::NAN, 5.0),
            0,
            10.0,
            Point::new(1.0, 1.0),
            QueryAttrs {
                spec: QuerySpec::square_range(10.0),
            },
        );
        assert_eq!(v.check(&q), Verdict::Reject(RejectReason::NonFiniteCoord));
    }

    #[test]
    fn object_and_query_watermarks_are_independent() {
        let mut v = UpdateValidator::new(ValidationPolicy::Reject, region());
        assert!(matches!(v.check(&obj(1, 1.0, 1.0, 5)), Verdict::Accept(_)));
        let q = LocationUpdate::query(
            QueryId(1),
            Point::new(2.0, 2.0),
            5,
            10.0,
            Point::new(1.0, 1.0),
            QueryAttrs {
                spec: QuerySpec::square_range(10.0),
            },
        );
        // Same numeric id, same timestamp — different entity kind, so no
        // duplicate.
        assert!(matches!(v.check(&q), Verdict::Accept(_)));
    }

    #[test]
    fn rejected_by_reason_labels() {
        let mut v = UpdateValidator::new(ValidationPolicy::Reject, region());
        v.check(&obj(1, -1.0, 0.0, 1));
        let counts = v.stats().rejected_by_reason();
        assert_eq!(counts.len(), 6);
        assert!(counts.contains(&("out-of-region", 1)));
        assert!(counts.contains(&("duplicate-key", 0)));
        assert!(counts.contains(&("unknown-entity", 0)));
    }

    #[test]
    fn control_quarantine_counts_unknown_entity() {
        let mut v = UpdateValidator::new(ValidationPolicy::Reject, region());
        let ghost = obj(99, 10.0, 10.0, 1);
        v.quarantine_control(&ghost, RejectReason::UnknownEntity);
        assert_eq!(v.stats().rejected(RejectReason::UnknownEntity), 1);
        assert_eq!(v.stats().rejected_total(), 1);
        assert_eq!(v.dead_letter_len(), 1);
        let letters: Vec<_> = v.dead_letters().collect();
        assert_eq!(letters[0].reason, RejectReason::UnknownEntity);
    }

    #[test]
    fn policy_parsing_roundtrip() {
        for p in [
            ValidationPolicy::Off,
            ValidationPolicy::Reject,
            ValidationPolicy::Clamp,
            ValidationPolicy::Abort,
        ] {
            assert_eq!(p.label().parse::<ValidationPolicy>().unwrap(), p);
        }
        assert!("frobnicate".parse::<ValidationPolicy>().is_err());
    }
}
