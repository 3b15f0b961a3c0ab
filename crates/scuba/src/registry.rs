//! The query registry: the durable record of the active query set.
//!
//! SCUBA treats queries as moving entities, but *which* queries exist at
//! any instant is control-plane state, not clustering state: a query can
//! be between clusters (just registered, not yet reported), load-shed, or
//! owned by a different stripe than the one answering for it. The
//! [`QueryRegistry`] owns that truth — `QueryId` → registration time,
//! spec, owner stripe — and is fed from two directions:
//!
//! * **explicitly**, by [`ControlOp::Register`] / [`ControlOp::Deregister`]
//!   ops flowing on the control stream beside the data plane
//!   ([`scuba_motion::control`]);
//! * **implicitly**, by data-plane query location updates: a query that
//!   reports is active, whether or not anyone announced it. This keeps
//!   fixed-population runs (no control stream at all) truthful without
//!   requiring every caller to adopt the control plane.
//!
//! The registry is carried inside durable checkpoints and its mutations
//! are implied by the journalled control ops, so `resume()` reproduces the
//! exact active set — see [`crate::durability`].
//!
//! [`ControlOp::Register`]: scuba_motion::ControlOp::Register
//! [`ControlOp::Deregister`]: scuba_motion::ControlOp::Deregister

use scuba_motion::{QueryId, QuerySpec};
use scuba_spatial::{FxHashMap, Time};

/// What the registry knows about one active query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Time of the update that first registered the query (its
    /// registration epoch). Taken from the update's own timestamp, never
    /// from the consumer's clock, so journal replay reproduces it exactly.
    pub registered_at: Time,
    /// The query's spec at its most recent registration or refresh.
    pub spec: QuerySpec,
    /// The stripe that owns the query under sharded execution; `None` on
    /// single-store operators.
    pub owner: Option<u16>,
}

/// Control-plane gauges for health lines, event logs and bench output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlGauges {
    /// Queries currently active (registered and not yet deregistered).
    pub active_queries: u64,
    /// Lifetime count of registrations (explicit and implicit).
    pub registered_total: u64,
    /// Lifetime count of deregistrations (explicit, and reconciled
    /// engine-side evictions).
    pub deregistered_total: u64,
    /// Control ops addressed at an entity nothing knows (deregister of an
    /// unknown or already-dead query, a register carrying a non-query
    /// update). These also land in the dead-letter buffer when a
    /// validator is attached.
    pub unknown_total: u64,
}

/// The active query set plus lifetime churn counters.
///
/// A hash map: every query update observes it, so the lookup is on the
/// ingest path. Nothing iterates it there; a caller that needs `QueryId`
/// order (the checkpoint encoder, so equal registries encode
/// byte-identically) takes [`QueryRegistry::sorted_entries`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryRegistry {
    active: FxHashMap<QueryId, QueryRecord>,
    registered_total: u64,
    deregistered_total: u64,
    unknown_total: u64,
}

impl QueryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a registry from checkpointed parts.
    pub fn from_parts(
        entries: Vec<(QueryId, QueryRecord)>,
        registered_total: u64,
        deregistered_total: u64,
        unknown_total: u64,
    ) -> Self {
        QueryRegistry {
            active: entries.into_iter().collect(),
            registered_total,
            deregistered_total,
            unknown_total,
        }
    }

    /// Records that `qid` is active: registers it if new (returning
    /// `true`), otherwise refreshes its spec and owner. `at` must come
    /// from the triggering update's timestamp so replay is deterministic.
    pub fn observe(&mut self, qid: QueryId, at: Time, spec: QuerySpec, owner: Option<u16>) -> bool {
        match self.active.entry(qid) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(QueryRecord {
                    registered_at: at,
                    spec,
                    owner,
                });
                self.registered_total += 1;
                true
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let rec = o.get_mut();
                rec.spec = spec;
                rec.owner = owner;
                false
            }
        }
    }

    /// Deregisters `qid`, returning its record if it was active. Unknown
    /// deregisters are **not** counted here — callers decide whether the
    /// entity was known to any layer before calling
    /// [`QueryRegistry::note_unknown`].
    pub fn deregister(&mut self, qid: QueryId) -> Option<QueryRecord> {
        let rec = self.active.remove(&qid);
        if rec.is_some() {
            self.deregistered_total += 1;
        }
        rec
    }

    /// Counts one control op addressed at an entity nothing knows.
    pub fn note_unknown(&mut self) {
        self.unknown_total += 1;
    }

    /// Drops every active entry `keep` rejects, counting the drops as
    /// deregistrations (engine-side evictions reconciled back into the
    /// registry); returns how many fell.
    pub fn retain<F: FnMut(QueryId, &QueryRecord) -> bool>(&mut self, mut keep: F) -> usize {
        let before = self.active.len();
        self.active.retain(|qid, rec| keep(*qid, rec));
        let dropped = before - self.active.len();
        self.deregistered_total += dropped as u64;
        dropped
    }

    /// The record of an active query.
    pub fn get(&self, qid: QueryId) -> Option<&QueryRecord> {
        self.active.get(&qid)
    }

    /// Whether `qid` is currently active.
    pub fn contains(&self, qid: QueryId) -> bool {
        self.active.contains_key(&qid)
    }

    /// Number of active queries.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether no query is active.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// The active entries, collected in `QueryId` order.
    pub fn sorted_entries(&self) -> Vec<(QueryId, QueryRecord)> {
        let mut entries: Vec<(QueryId, QueryRecord)> =
            self.active.iter().map(|(qid, rec)| (*qid, *rec)).collect();
        entries.sort_unstable_by_key(|(qid, _)| *qid);
        entries
    }

    /// The current gauge values.
    pub fn gauges(&self) -> ControlGauges {
        ControlGauges {
            active_queries: self.active.len() as u64,
            registered_total: self.registered_total,
            deregistered_total: self.deregistered_total,
            unknown_total: self.unknown_total,
        }
    }

    /// Estimated heap footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        // Hash capacity, priced per bucket like the entity tables.
        self.active.capacity()
            * (std::mem::size_of::<QueryId>() + std::mem::size_of::<QueryRecord>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(side: f64) -> QuerySpec {
        QuerySpec::square_range(side)
    }

    #[test]
    fn observe_registers_once_then_refreshes() {
        let mut r = QueryRegistry::new();
        assert!(r.observe(QueryId(1), 5, spec(10.0), None));
        assert!(!r.observe(QueryId(1), 9, spec(20.0), Some(2)));
        let rec = r.get(QueryId(1)).unwrap();
        assert_eq!(rec.registered_at, 5, "registration epoch is sticky");
        assert_eq!(rec.spec, spec(20.0), "spec refreshes");
        assert_eq!(rec.owner, Some(2), "owner refreshes");
        assert_eq!(r.gauges().registered_total, 1);
        assert_eq!(r.gauges().active_queries, 1);
    }

    #[test]
    fn deregister_counts_only_known_queries() {
        let mut r = QueryRegistry::new();
        r.observe(QueryId(1), 1, spec(10.0), None);
        assert!(r.deregister(QueryId(1)).is_some());
        assert!(r.deregister(QueryId(1)).is_none());
        r.note_unknown();
        let g = r.gauges();
        assert_eq!(g.active_queries, 0);
        assert_eq!(g.deregistered_total, 1);
        assert_eq!(g.unknown_total, 1);
    }

    #[test]
    fn retain_counts_drops_as_deregistrations() {
        let mut r = QueryRegistry::new();
        for i in 0..4u64 {
            r.observe(QueryId(i), i, spec(10.0), None);
        }
        let dropped = r.retain(|qid, _| qid.0 % 2 == 0);
        assert_eq!(dropped, 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.gauges().deregistered_total, 2);
    }

    #[test]
    fn iteration_is_id_ordered_and_roundtrips_through_parts() {
        let mut r = QueryRegistry::new();
        for &i in &[7u64, 3, 9, 1] {
            r.observe(QueryId(i), i, spec(i as f64), Some((i % 3) as u16));
        }
        r.deregister(QueryId(9));
        r.note_unknown();
        let entries = r.sorted_entries();
        let ids: Vec<u64> = entries.iter().map(|(q, _)| q.0).collect();
        assert_eq!(ids, vec![1, 3, 7]);

        let g = r.gauges();
        let rebuilt = QueryRegistry::from_parts(
            entries,
            g.registered_total,
            g.deregistered_total,
            g.unknown_total,
        );
        assert_eq!(rebuilt, r);
        assert_eq!(rebuilt.gauges(), g);
    }

    #[test]
    fn estimated_bytes_grows_with_population() {
        let mut r = QueryRegistry::new();
        assert_eq!(r.estimated_bytes(), 0);
        r.observe(QueryId(1), 1, spec(5.0), None);
        assert!(r.estimated_bytes() > 0);
    }
}
