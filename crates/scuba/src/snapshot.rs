//! Engine checkpointing: capture the full clustering state as a plain,
//! JSON-safe snapshot and restore it later.
//!
//! A deployed continuous-query engine must survive restarts without
//! re-learning its clusters from scratch (the incremental clusterer's state
//! *is* the summary of everything it has seen). The snapshot stores
//! clusters, members (with their lazy-transformation drift marks), the
//! attribute tables and the id counter; the two indexes and the entity
//! directory are derived state and are rebuilt on restore.
//!
//! The format avoids maps with non-string keys, so `serde_json` (and any
//! other self-describing format) works directly.

use serde::{Deserialize, Serialize};

use scuba_motion::{EntityRef, ObjectAttrs, ObjectId, QueryAttrs, QueryId};
use scuba_spatial::{Point, Polar, Rect, Time, Vector};

use crate::cluster::{ClusterId, MovingCluster};
use crate::clustering::ClusterEngine;
use crate::params::ScubaParams;
use crate::tables::{ObjectsTable, QueriesTable};

/// Why a snapshot (or a durable checkpoint wrapping one) could not be
/// loaded. Typed so callers can distinguish "stale format" from "bit rot"
/// from "internally inconsistent" instead of pattern-matching strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload was not valid snapshot JSON.
    Json(String),
    /// The snapshot parsed but describes an impossible engine state
    /// (duplicate cluster ids, an entity in two clusters, invalid params,
    /// ids past the counter, …).
    Inconsistent(String),
    /// A checkpoint file did not start with the checkpoint magic bytes.
    NotACheckpoint,
    /// A checkpoint file was written by an unsupported format version.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// The payload checksum did not match the header — bit rot or a torn
    /// write that survived the length check.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// The file ended before the length declared in its header.
    Truncated,
    /// A sharded checkpoint holds a different stripe count than the
    /// operator being restored.
    ShardMismatch {
        /// Stripes found in the checkpoint.
        found: usize,
        /// Stripes the operator expects.
        expected: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "bad snapshot JSON: {e}"),
            SnapshotError::Inconsistent(e) => write!(f, "inconsistent snapshot: {e}"),
            SnapshotError::NotACheckpoint => write!(f, "not a checkpoint file (bad magic)"),
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build supports up to {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: header says {stored:#010x}, payload hashes to {computed:#010x}"
            ),
            SnapshotError::Truncated => write!(f, "checkpoint truncated before its declared length"),
            SnapshotError::ShardMismatch { found, expected } => write!(
                f,
                "checkpoint has {found} stripe snapshots but the operator expects {expected}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One member in snapshot form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemberSnapshot {
    /// The entity.
    pub entity: EntityRef,
    /// Reported speed at its last update.
    pub speed: f64,
    /// Relative position, `None` when load-shed.
    pub rel: Option<Polar>,
    /// Time of its last update.
    pub last_seen: Time,
    /// Cluster drift at position capture.
    pub drift_mark: Vector,
}

/// One cluster in snapshot form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// Cluster id.
    pub cid: u64,
    /// Centroid position.
    pub centroid: Point,
    /// Covering radius.
    pub radius: f64,
    /// Destination connection node.
    pub cn_loc: Point,
    /// Average member speed.
    pub ave_speed: f64,
    /// Creation time.
    pub created_at: Time,
    /// Widest query reach among members.
    pub max_query_radius: f64,
    /// Accumulated transformation vector.
    pub total_drift: Vector,
    /// The members.
    pub members: Vec<MemberSnapshot>,
}

/// A complete, restorable engine state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Engine parameters.
    pub params: ScubaParams,
    /// Coverage area of the grid.
    pub area: Rect,
    /// Next cluster id to assign.
    pub next_cluster_id: u64,
    /// Updates processed so far (informational).
    pub updates_processed: u64,
    /// All live clusters.
    pub clusters: Vec<ClusterSnapshot>,
    /// Object attribute table.
    pub objects: Vec<(ObjectId, ObjectAttrs)>,
    /// Query attribute table.
    pub queries: Vec<(QueryId, QueryAttrs)>,
}

impl EngineSnapshot {
    /// Captures the engine's state. Deterministically ordered so equal
    /// states produce byte-equal snapshots.
    pub fn capture(engine: &ClusterEngine) -> Self {
        let mut clusters: Vec<ClusterSnapshot> = engine
            .clusters()
            .values()
            .map(|c| ClusterSnapshot {
                cid: c.cid.0,
                centroid: c.centroid(),
                radius: c.radius(),
                cn_loc: c.cn_loc(),
                ave_speed: c.ave_speed(),
                created_at: c.created_at(),
                max_query_radius: c.max_query_radius(),
                total_drift: c.total_drift(),
                members: c
                    .members()
                    .iter()
                    .map(|m| MemberSnapshot {
                        entity: m.entity,
                        speed: m.speed,
                        rel: m.rel,
                        last_seen: m.last_seen,
                        drift_mark: m.drift_mark(),
                    })
                    .collect(),
            })
            .collect();
        clusters.sort_by_key(|c| c.cid);

        let mut objects: Vec<(ObjectId, ObjectAttrs)> =
            engine.objects().iter().map(|(id, a)| (id, *a)).collect();
        objects.sort_by_key(|(id, _)| *id);
        let mut queries: Vec<(QueryId, QueryAttrs)> =
            engine.queries().iter().map(|(id, a)| (id, *a)).collect();
        queries.sort_by_key(|(id, _)| *id);

        EngineSnapshot {
            params: *engine.params(),
            area: engine.area(),
            next_cluster_id: engine.next_cluster_id(),
            updates_processed: engine.updates_processed(),
            clusters,
            objects,
            queries,
        }
    }

    /// Restores an engine from this snapshot, rebuilding both indexes and
    /// the entity directory. Fails on internally
    /// inconsistent snapshots (duplicate cluster ids, an entity in two
    /// clusters, ids past the counter).
    ///
    /// Operator-level transients are *not* part of a snapshot: wrapping
    /// the restored engine via [`crate::ScubaOperator::from_engine`]
    /// recreates the validator and overload controller fresh from the
    /// restored params (empty dead-letter buffer, ladder at `None`), and
    /// the join cache starts cold. Only clustering state survives a
    /// crash, matching what the paper's engine would rebuild.
    pub fn restore(&self) -> Result<ClusterEngine, SnapshotError> {
        let clusters: Vec<MovingCluster> = self
            .clusters
            .iter()
            .map(|c| {
                let members = c
                    .members
                    .iter()
                    .map(|m| {
                        MovingCluster::member_from_parts(
                            m.entity,
                            m.speed,
                            m.rel,
                            m.last_seen,
                            m.drift_mark,
                        )
                    })
                    .collect();
                MovingCluster::from_parts(
                    ClusterId(c.cid),
                    c.centroid,
                    c.radius,
                    c.cn_loc,
                    c.ave_speed,
                    c.created_at,
                    c.max_query_radius,
                    c.total_drift,
                    members,
                )
            })
            .collect();

        let mut objects = ObjectsTable::new();
        for (id, attrs) in &self.objects {
            objects.upsert(*id, *attrs);
        }
        let mut queries = QueriesTable::new();
        for (id, attrs) in &self.queries {
            queries.upsert(*id, *attrs);
        }

        ClusterEngine::restore(
            self.params,
            self.area,
            clusters,
            objects,
            queries,
            self.next_cluster_id,
            self.updates_processed,
        )
        .map_err(SnapshotError::Inconsistent)
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialises")
    }

    /// Parses a snapshot from JSON.
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        serde_json::from_str(json).map_err(|e| SnapshotError::Json(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScubaOperator;
    use scuba_motion::{LocationUpdate, ObjectClass, QuerySpec};
    use scuba_stream::ContinuousOperator;

    const CN: Point = Point {
        x: 1000.0,
        y: 500.0,
    };

    fn busy_engine() -> ClusterEngine {
        let mut e = ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0));
        for i in 0..60u64 {
            let x = 50.0 + (i * 37 % 900) as f64;
            let y = 50.0 + (i * 61 % 900) as f64;
            if i % 2 == 0 {
                e.process_update(&LocationUpdate::object(
                    ObjectId(i),
                    Point::new(x, y),
                    i % 5,
                    20.0 + (i % 3) as f64,
                    CN,
                    ObjectAttrs {
                        class: ObjectClass::ALL[(i % 6) as usize],
                    },
                ));
            } else {
                e.process_update(&LocationUpdate::query(
                    QueryId(i),
                    Point::new(x, y),
                    i % 5,
                    20.0 + (i % 3) as f64,
                    CN,
                    QueryAttrs {
                        spec: QuerySpec::square_range(10.0 + (i % 4) as f64),
                    },
                ));
            }
        }
        e
    }

    #[test]
    fn capture_restore_roundtrip_preserves_everything() {
        let original = busy_engine();
        let snapshot = EngineSnapshot::capture(&original);
        let restored = snapshot.restore().expect("restores");
        restored.check_invariants();

        assert_eq!(restored.cluster_count(), original.cluster_count());
        assert_eq!(restored.home().len(), original.home().len());
        assert_eq!(restored.objects().len(), original.objects().len());
        assert_eq!(restored.queries().len(), original.queries().len());
        assert_eq!(restored.next_cluster_id(), original.next_cluster_id());
        assert_eq!(restored.updates_processed(), original.updates_processed());
        // Capturing again yields an identical snapshot — nothing lost.
        assert_eq!(EngineSnapshot::capture(&restored), snapshot);
    }

    #[test]
    fn restored_engine_produces_identical_results() {
        use crate::join::JoinContext;
        let mut original = busy_engine();
        let restored = EngineSnapshot::capture(&original).restore().unwrap();
        // A restored engine's region index comes back current; the live
        // one syncs as it would before any join.
        original.sync_index();
        let run = |e: &ClusterEngine| {
            assert!(e.index_is_current());
            JoinContext {
                store: e.store(),
                grid: e.grid(),
                queries: e.queries(),
                shedding: e.params().shedding,
                theta_d: e.params().theta_d,
                member_filter: e.params().member_filter,
                parallelism: e.params().parallelism,
                kernel: e.params().kernel,
            }
            .run()
            .results
        };
        assert_eq!(run(&original), run(&restored));
    }

    /// An adaptive-index engine snapshots like any other: `params.index`
    /// rides along, restore rebuilds the adaptive grid from the restored
    /// params, and (after a re-balance on both sides) the refined index
    /// answers the join identically.
    #[test]
    fn adaptive_engine_roundtrips_with_its_index() {
        use crate::index::IndexKind;
        let params = ScubaParams::default()
            .with_index(IndexKind::Adaptive)
            .with_split_merge(8, 2);
        let mut original = ClusterEngine::new(params, Rect::square(1000.0));
        for i in 0..60u64 {
            // A deliberate hotspot so the adaptive grid actually refines.
            let x = 450.0 + (i * 7 % 100) as f64;
            let y = 450.0 + (i * 13 % 100) as f64;
            original.process_update(&LocationUpdate::object(
                ObjectId(i),
                Point::new(x, y),
                0,
                20.0 + (i % 3) as f64,
                CN,
                ObjectAttrs::default(),
            ));
        }
        let snapshot = EngineSnapshot::capture(&original);
        let mut restored = snapshot.restore().expect("restores");
        assert_eq!(restored.params().index, IndexKind::Adaptive);
        restored.check_invariants();
        original.sync_index();
        original.rebalance_index();
        restored.rebalance_index();

        use crate::join::JoinContext;
        let run = |e: &ClusterEngine| {
            assert!(e.index_is_current());
            JoinContext {
                store: e.store(),
                grid: e.grid(),
                queries: e.queries(),
                shedding: e.params().shedding,
                theta_d: e.params().theta_d,
                member_filter: e.params().member_filter,
                parallelism: e.params().parallelism,
                kernel: e.params().kernel,
            }
            .run()
            .results
        };
        assert_eq!(run(&original), run(&restored));
        // Capturing again yields an identical snapshot — nothing lost.
        assert_eq!(EngineSnapshot::capture(&restored), snapshot);
    }

    #[test]
    fn json_roundtrip() {
        let snapshot = EngineSnapshot::capture(&busy_engine());
        let parsed = EngineSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(parsed, snapshot);
        parsed.restore().unwrap().check_invariants();
    }

    #[test]
    fn restored_engine_keeps_running() {
        let original = busy_engine();
        let snapshot = EngineSnapshot::capture(&original);
        let restored = snapshot.restore().unwrap();

        // Wrap both in operators and continue the stream identically.
        let mut a = ScubaOperator::from_engine(original);
        let mut b = ScubaOperator::from_engine(restored);
        for i in 100..140u64 {
            let u = LocationUpdate::object(
                ObjectId(i),
                Point::new((i * 13 % 900) as f64 + 50.0, 500.0),
                6,
                25.0,
                CN,
                ObjectAttrs::default(),
            );
            a.process_update(&u);
            b.process_update(&u);
        }
        assert_eq!(a.evaluate(8).results, b.evaluate(8).results);
        a.engine().check_invariants();
        b.engine().check_invariants();
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        let mut snapshot = EngineSnapshot::capture(&busy_engine());
        // Duplicate a cluster id.
        let dup = snapshot.clusters[0].clone();
        snapshot.clusters.push(dup);
        assert!(matches!(
            snapshot.restore(),
            Err(SnapshotError::Inconsistent(_))
        ));

        let mut snapshot = EngineSnapshot::capture(&busy_engine());
        snapshot.next_cluster_id = 0; // ids no longer below the counter
        if !snapshot.clusters.is_empty() {
            assert!(matches!(
                snapshot.restore(),
                Err(SnapshotError::Inconsistent(_))
            ));
        }

        assert!(matches!(
            EngineSnapshot::from_json("{not json"),
            Err(SnapshotError::Json(_))
        ));
    }

    #[test]
    fn snapshot_errors_implement_std_error() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(SnapshotError::Json("eof".into())),
            Box::new(SnapshotError::NotACheckpoint),
            Box::new(SnapshotError::VersionMismatch {
                found: 9,
                supported: 1,
            }),
            Box::new(SnapshotError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            }),
            Box::new(SnapshotError::Truncated),
            Box::new(SnapshotError::ShardMismatch {
                found: 2,
                expected: 4,
            }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn empty_engine_roundtrips() {
        let e = ClusterEngine::new(ScubaParams::default(), Rect::square(10.0));
        let restored = EngineSnapshot::capture(&e).restore().unwrap();
        assert_eq!(restored.cluster_count(), 0);
        restored.check_invariants();
    }
}
