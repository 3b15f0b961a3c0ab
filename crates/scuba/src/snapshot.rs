//! Engine checkpointing: capture the full clustering state as a plain
//! snapshot and restore it later.
//!
//! A deployed continuous-query engine must survive restarts without
//! re-learning its clusters from scratch (the incremental clusterer's state
//! *is* the summary of everything it has seen). The snapshot holds the
//! clusters themselves (members and their positions included), the
//! attribute tables and the id counter; the store's slots, the centroid
//! index and the rows' cluster homes are derived state and are rebuilt on
//! restore, and the region grid is rebuilt before every join anyway.
//!
//! The one on-disk form of a snapshot is the binary checkpoint of
//! [`crate::durability`] (`encode_checkpoint` / `decode_checkpoint`),
//! which writes each cluster through its accessors and reads it back
//! through [`MovingCluster::from_parts`].

use scuba_motion::{ObjectAttrs, ObjectId, QueryAttrs, QueryId};
use scuba_spatial::Rect;

use crate::cluster::MovingCluster;
use crate::clustering::ClusterEngine;
use crate::params::ScubaParams;
use crate::tables::{ObjectsTable, QueriesTable};

/// Why a snapshot (or a durable checkpoint wrapping one) could not be
/// loaded. Typed so callers can distinguish "stale format" from "bit rot"
/// from "internally inconsistent" instead of pattern-matching strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
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
    /// The payload holds a query of a kind this engine no longer answers
    /// (a k-nearest-neighbour query, spec tag 1). Refused rather than
    /// dropped: restoring without it would silently change the answers.
    RetiredQueryKind,
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
            SnapshotError::RetiredQueryKind => write!(
                f,
                "checkpoint holds a retired query kind (kNN); only range queries are answered"
            ),
            SnapshotError::ShardMismatch { found, expected } => write!(
                f,
                "checkpoint has {found} stripe snapshots but the operator expects {expected}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A complete, restorable engine state.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Engine parameters.
    pub params: ScubaParams,
    /// Coverage area of the grid.
    pub area: Rect,
    /// Next cluster id to assign.
    pub next_cluster_id: u64,
    /// Updates processed so far (informational).
    pub updates_processed: u64,
    /// All live clusters, in id order.
    pub clusters: Vec<MovingCluster>,
    /// Object attribute table.
    pub objects: Vec<(ObjectId, ObjectAttrs)>,
    /// Query attribute table.
    pub queries: Vec<(QueryId, QueryAttrs)>,
}

impl EngineSnapshot {
    /// Captures the engine's state. Deterministically ordered so equal
    /// states produce byte-equal snapshots.
    pub fn capture(engine: &ClusterEngine) -> Self {
        let mut clusters: Vec<MovingCluster> = engine.store().values().cloned().collect();
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
    /// the rows' cluster homes. Fails on internally inconsistent snapshots
    /// (duplicate cluster ids, an entity in two clusters, a member with no
    /// attribute row, ids past the counter).
    ///
    /// Operator-level transients are *not* part of a snapshot: wrapping
    /// the restored engine via [`crate::ScubaOperator::from_engine`]
    /// recreates the validator and overload controller fresh from the
    /// restored params (empty dead-letter buffer, ladder at `None`). Only
    /// clustering state survives a crash, matching what the paper's engine
    /// would rebuild.
    pub fn restore(&self) -> Result<ClusterEngine, SnapshotError> {
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
            self.clusters.clone(),
            objects,
            queries,
            self.next_cluster_id,
            self.updates_processed,
        )
        .map_err(SnapshotError::Inconsistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScubaOperator;
    use scuba_motion::{LocationUpdate, ObjectClass, QuerySpec};
    use scuba_spatial::Point;
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
        use crate::join::{JoinContext, JoinScratch};
        let mut original = busy_engine();
        let mut restored = EngineSnapshot::capture(&original).restore().unwrap();
        // Both build their region grid as they would before any join.
        original.build_index();
        restored.build_index();
        let run = |e: &ClusterEngine| {
            JoinContext {
                store: e.store(),
                grid: e.grid(),
                queries: e.queries(),
            }
            .run(&mut JoinScratch::new())
            .results
        };
        assert_eq!(run(&original), run(&restored));
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
    }

    /// Params that stripes refuse (here shedding at two shards) fail the
    /// restore with the typed error naming the field.
    #[test]
    fn refused_stripe_params_fail_restore() {
        use crate::shedding::SheddingMode;
        let mut snapshot = EngineSnapshot::capture(&busy_engine());
        snapshot.params = snapshot
            .params
            .with_shards(2)
            .with_shedding(SheddingMode::Partial { eta: 0.5 });
        match snapshot.restore() {
            Err(SnapshotError::Inconsistent(msg)) => {
                assert!(msg.contains("shedding is not supported"), "{msg}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    /// A grid too large to allocate (here from a damaged checkpoint) fails
    /// the restore with the typed error instead of allocating for it.
    #[test]
    fn oversized_grid_fails_restore() {
        let mut snapshot = EngineSnapshot::capture(&busy_engine());
        snapshot.params.grid_cells = u32::MAX;
        match snapshot.restore() {
            Err(SnapshotError::Inconsistent(msg)) => {
                assert!(msg.contains("grid_cells must be <= 1024"), "{msg}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    /// A snapshot edited by hand so a member's entity has no attribute row
    /// would leave the engine unable to answer for it (a query with no
    /// range); restore refuses it.
    #[test]
    fn member_without_attribute_row_rejected() {
        let mut snapshot = EngineSnapshot::capture(&busy_engine());
        let orphan = snapshot
            .clusters
            .iter()
            .flat_map(|c| c.members())
            .find_map(|m| m.entity.as_query())
            .expect("a clustered query");
        snapshot.queries.retain(|(q, _)| *q != orphan);
        match snapshot.restore() {
            Err(SnapshotError::Inconsistent(msg)) => {
                assert!(msg.contains("no attribute row"), "{msg}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_errors_implement_std_error() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
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
