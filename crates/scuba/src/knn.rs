//! Cluster-assisted k-nearest-neighbour queries — the §1 extension.
//!
//! "For kNN queries, moving clusters that are not intersecting with other
//! moving clusters and contain at least k members can be assumed to contain
//! nearest members of the query object."
//!
//! [`knn_for_query`] implements that shortcut: when the query's own cluster
//! is isolated (its region overlaps no other cluster) and holds at least
//! `k` object members, the answer is computed within the cluster alone;
//! otherwise it falls back to a scan over all clusters. Shed members are
//! approximated by their cluster centroid (consistent with §5's
//! cluster-as-summary semantics).

use scuba_motion::{ObjectId, QueryId};
use scuba_spatial::Point;

use crate::cluster::MovingCluster;
use crate::clustering::ClusterEngine;

/// One nearest neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The neighbouring object.
    pub object: ObjectId,
    /// Distance from the query position (approximate for shed members).
    pub distance: f64,
}

/// A kNN answer with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnAnswer {
    /// Up to `k` nearest objects, closest first.
    pub neighbors: Vec<Neighbor>,
    /// Whether the isolated-cluster shortcut answered the query without a
    /// global scan.
    pub used_cluster_shortcut: bool,
}

/// Evaluates every *registered, currently clustered* kNN query and returns
/// the answers as `(query, object)` result tuples — making kNN a
/// first-class continuous query type alongside range queries (the range
/// join skips `QuerySpec::Knn` members; this is their evaluation path).
pub fn evaluate_continuous(engine: &ClusterEngine) -> Vec<scuba_stream::QueryMatch> {
    let mut results = Vec::new();
    for (qid, attrs) in engine.queries().iter() {
        let scuba_motion::QuerySpec::Knn { k } = attrs.spec else {
            continue;
        };
        if let Some(answer) = knn_for_query(engine, qid, k as usize) {
            for n in answer.neighbors {
                results.push(scuba_stream::QueryMatch::new(qid, n.object));
            }
        }
    }
    results
}

/// Answers a kNN query for a registered query entity.
///
/// Returns `None` when the query is not currently clustered (no update has
/// been seen for it).
///
/// The shortcut candidate is the query's own cluster when it holds enough
/// objects; otherwise any cluster whose region covers the query's position
/// and holds ≥ k objects (with pure single-kind clusters the query's own
/// cluster never contains objects, but the query may be travelling inside
/// an object convoy). That lookup scans the store like the isolation test
/// and the fallback do, so kNN never depends on when the region index was
/// last synced.
pub fn knn_for_query(engine: &ClusterEngine, query: QueryId, k: usize) -> Option<KnnAnswer> {
    let slot = engine.home().cluster_of(query.into())?;
    let cluster = engine.cluster_at(slot)?;
    let member = cluster.member(query.into())?;
    let center = cluster
        .member_position(member)
        .unwrap_or_else(|| cluster.centroid());
    let candidate = if cluster.object_count() >= k {
        Some(slot)
    } else {
        engine
            .store()
            .iter()
            .find(|(_, c)| c.object_count() >= k && c.region().contains(&center))
            .map(|(other, _)| other)
    };
    Some(knn_at(engine, center, k, candidate))
}

/// Answers a kNN query around an arbitrary position. `home_cluster` is the
/// slot of the cluster the query travels in, if known.
pub fn knn_at(
    engine: &ClusterEngine,
    center: Point,
    k: usize,
    home_cluster: Option<crate::store::ClusterSlot>,
) -> KnnAnswer {
    if k == 0 {
        return KnnAnswer {
            neighbors: Vec::new(),
            used_cluster_shortcut: false,
        };
    }

    // Shortcut: isolated home cluster with enough object members.
    if let Some(slot) = home_cluster {
        if let Some(cluster) = engine.cluster_at(slot) {
            if cluster.object_count() >= k && is_isolated(engine, cluster) {
                let mut neighbors = collect_neighbors(cluster, &center);
                truncate_k(&mut neighbors, k);
                return KnnAnswer {
                    neighbors,
                    used_cluster_shortcut: true,
                };
            }
        }
    }

    // Fallback: scan every cluster's members.
    let mut neighbors: Vec<Neighbor> = Vec::new();
    for cluster in engine.clusters().values() {
        neighbors.extend(collect_neighbors(cluster, &center));
    }
    truncate_k(&mut neighbors, k);
    KnnAnswer {
        neighbors,
        used_cluster_shortcut: false,
    }
}

/// Whether the cluster's region overlaps no other cluster's region.
fn is_isolated(engine: &ClusterEngine, cluster: &MovingCluster) -> bool {
    let region = cluster.region();
    engine
        .clusters()
        .values()
        .filter(|other| other.cid != cluster.cid)
        .all(|other| !region.overlaps(&other.region()))
}

fn collect_neighbors(cluster: &MovingCluster, center: &Point) -> Vec<Neighbor> {
    cluster
        .members()
        .iter()
        .filter_map(|m| {
            let oid = match m.entity {
                scuba_motion::EntityRef::Object(oid) => oid,
                scuba_motion::EntityRef::Query(_) => return None,
            };
            let pos = cluster
                .member_position(m)
                .unwrap_or_else(|| cluster.centroid());
            Some(Neighbor {
                object: oid,
                distance: pos.distance(center),
            })
        })
        .collect()
}

fn truncate_k(neighbors: &mut Vec<Neighbor>, k: usize) {
    neighbors.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .expect("distances are finite")
            .then_with(|| a.object.cmp(&b.object))
    });
    neighbors.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScubaParams;
    use scuba_motion::{LocationUpdate, ObjectAttrs, QueryAttrs, QuerySpec};
    use scuba_spatial::Rect;

    const CN_E: Point = Point {
        x: 1000.0,
        y: 500.0,
    };
    const CN_W: Point = Point { x: 0.0, y: 500.0 };

    fn obj(id: u64, x: f64, y: f64, cn: Point) -> LocationUpdate {
        LocationUpdate::object(
            ObjectId(id),
            Point::new(x, y),
            0,
            30.0,
            cn,
            ObjectAttrs::default(),
        )
    }

    fn knn_query(id: u64, x: f64, y: f64, k: u32, cn: Point) -> LocationUpdate {
        LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            0,
            30.0,
            cn,
            QueryAttrs {
                spec: QuerySpec::Knn { k },
            },
        )
    }

    fn engine() -> ClusterEngine {
        ClusterEngine::new(ScubaParams::default(), Rect::square(1000.0))
    }

    #[test]
    fn shortcut_used_for_isolated_cluster() {
        let mut e = engine();
        e.process_update(&knn_query(1, 500.0, 500.0, 2, CN_E));
        e.process_update(&obj(1, 505.0, 500.0, CN_E));
        e.process_update(&obj(2, 510.0, 500.0, CN_E));
        e.process_update(&obj(3, 520.0, 500.0, CN_E));
        // A far-away unrelated cluster.
        e.process_update(&obj(9, 50.0, 50.0, CN_W));

        let answer = knn_for_query(&e, QueryId(1), 2).unwrap();
        assert!(answer.used_cluster_shortcut);
        assert_eq!(answer.neighbors.len(), 2);
        assert_eq!(answer.neighbors[0].object, ObjectId(1));
        assert_eq!(answer.neighbors[1].object, ObjectId(2));
        assert!(answer.neighbors[0].distance <= answer.neighbors[1].distance);
    }

    #[test]
    fn fallback_when_cluster_too_small() {
        let mut e = engine();
        e.process_update(&knn_query(1, 500.0, 500.0, 3, CN_E));
        e.process_update(&obj(1, 505.0, 500.0, CN_E));
        // Other objects are in a different cluster (other direction).
        e.process_update(&obj(2, 510.0, 500.0, CN_W));
        e.process_update(&obj(3, 515.0, 500.0, CN_W));

        let answer = knn_for_query(&e, QueryId(1), 3).unwrap();
        assert!(!answer.used_cluster_shortcut);
        assert_eq!(answer.neighbors.len(), 3);
        // Global scan still returns globally nearest objects.
        assert_eq!(answer.neighbors[0].object, ObjectId(1));
    }

    #[test]
    fn fallback_when_clusters_overlap() {
        let mut e = engine();
        e.process_update(&knn_query(1, 500.0, 500.0, 1, CN_E));
        e.process_update(&obj(1, 505.0, 500.0, CN_E));
        e.process_update(&obj(2, 507.0, 500.0, CN_E));
        // Overlapping cluster heading the other way.
        e.process_update(&obj(3, 506.0, 501.0, CN_W));
        e.process_update(&obj(4, 509.0, 501.0, CN_W));

        let answer = knn_for_query(&e, QueryId(1), 1).unwrap();
        assert!(!answer.used_cluster_shortcut, "clusters overlap");
        assert_eq!(answer.neighbors.len(), 1);
    }

    #[test]
    fn unknown_query_returns_none() {
        let e = engine();
        assert!(knn_for_query(&e, QueryId(42), 3).is_none());
    }

    #[test]
    fn k_zero_is_empty() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, CN_E));
        let answer = knn_at(&e, Point::new(500.0, 500.0), 0, None);
        assert!(answer.neighbors.is_empty());
    }

    #[test]
    fn k_exceeding_population_returns_all() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, CN_E));
        e.process_update(&obj(2, 100.0, 100.0, CN_W));
        let answer = knn_at(&e, Point::new(500.0, 500.0), 10, None);
        assert_eq!(answer.neighbors.len(), 2);
        assert_eq!(answer.neighbors[0].object, ObjectId(1));
    }

    #[test]
    fn queries_are_not_neighbors() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, CN_E));
        e.process_update(&knn_query(7, 501.0, 500.0, 5, CN_E));
        let answer = knn_at(&e, Point::new(500.0, 500.0), 5, None);
        assert_eq!(answer.neighbors.len(), 1);
        assert_eq!(answer.neighbors[0].object, ObjectId(1));
    }

    #[test]
    fn distances_are_exact_for_unshed_members() {
        let mut e = engine();
        e.process_update(&obj(1, 503.0, 504.0, CN_E));
        let answer = knn_at(&e, Point::new(500.0, 500.0), 1, None);
        assert!((answer.neighbors[0].distance - 5.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_continuous_answers_all_knn_queries() {
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, CN_E));
        e.process_update(&obj(2, 510.0, 500.0, CN_E));
        e.process_update(&knn_query(1, 502.0, 500.0, 1, CN_E));
        e.process_update(&knn_query(2, 509.0, 500.0, 2, CN_E));
        let mut results = evaluate_continuous(&e);
        results.sort_unstable();
        // Q1 wants 1 neighbour (object 1 is nearest), Q2 wants 2.
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].query, QueryId(1));
        assert_eq!(results[0].object, ObjectId(1));
        assert!(results[1..].iter().all(|m| m.query == QueryId(2)));
    }

    #[test]
    fn evaluate_continuous_ignores_range_queries() {
        use scuba_motion::QuerySpec;
        let mut e = engine();
        e.process_update(&obj(1, 500.0, 500.0, CN_E));
        e.process_update(&LocationUpdate::query(
            QueryId(9),
            Point::new(501.0, 500.0),
            0,
            30.0,
            CN_E,
            QueryAttrs {
                spec: QuerySpec::square_range(10.0),
            },
        ));
        assert!(evaluate_continuous(&e).is_empty());
    }
}
