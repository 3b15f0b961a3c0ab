//! Non-incremental (offline) K-means clustering — the §6.4 comparison.
//!
//! "We implemented a K-means (a common clustering algorithm) extension to
//! SCUBA for non-incremental clustering. The K-means algorithm expects the
//! number of clusters specified in advance. We used a tracking counter for
//! the number of unique destinations of objects and queries for a rough
//! estimate of the number of clusters needed."
//!
//! The offline path takes the complete snapshot of location updates, runs
//! K-means for a configurable number of iterations (the paper varies 1–10),
//! converts the resulting partitions into [`MovingCluster`]s and reuses the
//! *identical* join machinery ([`crate::join::JoinContext`]). The measured
//! trade-off is clustering time vs. join time (Fig. 11): more iterations
//! yield tighter clusters and a faster join, but the clustering cost
//! dominates.

use std::time::Duration;

use scuba_motion::{EntityAttrs, LocationUpdate};
use scuba_spatial::{FxHashMap, GridSpec, Point, Rect};
use scuba_stream::Stopwatch;

use crate::cluster::{ClusterId, MovingCluster};
use crate::grid::{roles, ClusterGrid};
use crate::join::{JoinContext, JoinOutput, JoinScratch};
use crate::params::ScubaParams;
use crate::store::ClusterStore;
use crate::tables::QueriesTable;

/// K-means configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeansConfig {
    /// Lloyd iterations to run (the paper varies 1, 3, 5, 10).
    pub iterations: u32,
    /// Number of clusters; `None` estimates it from the number of unique
    /// destination connection nodes, as the paper does.
    pub k: Option<usize>,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            iterations: 3,
            k: None,
        }
    }
}

/// Result of offline clustering: clusters + index, ready for joining.
#[derive(Debug)]
pub struct KMeansOutcome {
    /// The built clusters, in the same slab store the incremental engine
    /// uses — so the join reads them exactly as it reads the engine's.
    pub clusters: ClusterStore,
    /// Cluster index over the same grid the incremental engine would use.
    pub grid: ClusterGrid,
    /// Query attributes harvested from the snapshot.
    pub queries: QueriesTable,
    /// Wall-clock time of the clustering itself — the cost the incremental
    /// algorithm does not pay.
    pub clustering_time: Duration,
    /// The k actually used.
    pub k: usize,
    /// Iterations actually run.
    pub iterations: u32,
}

impl KMeansOutcome {
    /// Runs the standard SCUBA join over the offline-built clusters.
    pub fn join(&self) -> JoinOutput {
        JoinContext {
            store: &self.clusters,
            grid: &self.grid,
            queries: &self.queries,
        }
        .run(&mut JoinScratch::new())
    }
}

/// Clusters a complete snapshot of updates offline.
///
/// `updates` should contain one update per entity (later duplicates win).
pub fn kmeans_cluster(
    updates: &[LocationUpdate],
    config: KMeansConfig,
    params: &ScubaParams,
    area: Rect,
) -> KMeansOutcome {
    let sw = Stopwatch::start();

    // Deduplicate to the latest update per entity, preserving order.
    let mut latest: FxHashMap<scuba_motion::EntityRef, usize> = FxHashMap::default();
    for (i, u) in updates.iter().enumerate() {
        latest.insert(u.entity, i);
    }
    let mut snapshot: Vec<&LocationUpdate> = latest.values().map(|&i| &updates[i]).collect();
    snapshot.sort_unstable_by_key(|u| u.entity);

    let k = config
        .k
        .unwrap_or_else(|| estimate_k(&snapshot))
        .clamp(1, snapshot.len().max(1));

    // Initialise centroids spread across the snapshot.
    let mut centroids: Vec<Point> = Vec::with_capacity(k);
    if !snapshot.is_empty() {
        let stride = (snapshot.len() / k).max(1);
        for i in 0..k {
            centroids.push(snapshot[(i * stride) % snapshot.len()].loc);
        }
    }

    // Lloyd iterations (at least one assignment pass is always needed).
    let mut assignment: Vec<usize> = vec![0; snapshot.len()];
    let passes = config.iterations.max(1);
    for _ in 0..passes {
        // Assignment step.
        for (i, u) in snapshot.iter().enumerate() {
            assignment[i] = nearest_centroid(&centroids, &u.loc);
        }
        // Update step.
        let mut sums = vec![(0.0f64, 0.0f64, 0usize); k];
        for (i, u) in snapshot.iter().enumerate() {
            let s = &mut sums[assignment[i]];
            s.0 += u.loc.x;
            s.1 += u.loc.y;
            s.2 += 1;
        }
        for (c, s) in centroids.iter_mut().zip(&sums) {
            if s.2 > 0 {
                *c = Point::new(s.0 / s.2 as f64, s.1 / s.2 as f64);
            }
        }
    }

    // Materialise partitions as MovingClusters.
    let mut queries = QueriesTable::new();
    let mut members_of: Vec<Vec<&LocationUpdate>> = vec![Vec::new(); k];
    for (i, u) in snapshot.iter().enumerate() {
        members_of[assignment[i]].push(u);
        if let (Some(qid), EntityAttrs::Query(attrs)) = (u.entity.as_query(), &u.attrs) {
            queries.upsert(qid, *attrs);
        }
    }

    let mut clusters = ClusterStore::new();
    let mut next_cid = 0u64;
    for members in members_of {
        let Some((first, rest)) = members.split_first() else {
            continue;
        };
        let cid = ClusterId(next_cid);
        next_cid += 1;
        let mut cluster = MovingCluster::found(cid, first, false);
        for u in rest {
            cluster.absorb(u, false);
        }
        clusters.insert(cluster);
    }
    let mut grid = ClusterGrid::new(GridSpec::new(area, params.grid_cells));
    grid.build(clusters.iter().map(|(slot, cluster)| roles(slot, cluster)));

    KMeansOutcome {
        clusters,
        grid,
        queries,
        clustering_time: sw.elapsed(),
        k,
        iterations: passes,
    }
}

/// Estimates k as the number of unique destination connection nodes.
fn estimate_k(snapshot: &[&LocationUpdate]) -> usize {
    let mut dests: Vec<(u64, u64)> = snapshot
        .iter()
        .map(|u| (u.cn_loc.x.to_bits(), u.cn_loc.y.to_bits()))
        .collect();
    dests.sort_unstable();
    dests.dedup();
    dests.len().max(1)
}

fn nearest_centroid(centroids: &[Point], p: &Point) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = c.distance_sq(p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};

    const CN_A: Point = Point { x: 0.0, y: 0.0 };
    const CN_B: Point = Point {
        x: 1000.0,
        y: 1000.0,
    };

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

    fn qry(id: u64, x: f64, y: f64, cn: Point) -> LocationUpdate {
        LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            0,
            30.0,
            cn,
            QueryAttrs {
                spec: QuerySpec::square_range(20.0),
            },
        )
    }

    /// Two well-separated blobs.
    fn blobs() -> Vec<LocationUpdate> {
        let mut v = Vec::new();
        for i in 0..10 {
            v.push(obj(i, 100.0 + i as f64, 100.0, CN_A));
            v.push(obj(100 + i, 900.0 + i as f64, 900.0, CN_B));
        }
        v.push(qry(1, 105.0, 100.0, CN_A));
        v.push(qry(2, 905.0, 900.0, CN_B));
        v
    }

    #[test]
    fn separates_blobs_with_k2() {
        let outcome = kmeans_cluster(
            &blobs(),
            KMeansConfig {
                iterations: 5,
                k: Some(2),
            },
            &ScubaParams::default(),
            Rect::square(1000.0),
        );
        assert_eq!(outcome.k, 2);
        assert_eq!(outcome.clusters.len(), 2);
        let mut sizes: Vec<usize> = outcome.clusters.values().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![11, 11]);
        // Cluster radii are tight around the blobs.
        for c in outcome.clusters.values() {
            assert!(c.radius() < 50.0, "radius {}", c.radius());
        }
    }

    #[test]
    fn estimates_k_from_unique_destinations() {
        let outcome = kmeans_cluster(
            &blobs(),
            KMeansConfig {
                iterations: 2,
                k: None,
            },
            &ScubaParams::default(),
            Rect::square(1000.0),
        );
        assert_eq!(outcome.k, 2, "two unique cn_locs");
    }

    #[test]
    fn join_over_offline_clusters_finds_matches() {
        let params = ScubaParams::default();
        let outcome = kmeans_cluster(
            &blobs(),
            KMeansConfig {
                iterations: 5,
                k: Some(2),
            },
            &params,
            Rect::square(1000.0),
        );
        let join = outcome.join();
        // Query 1 covers objects within ±10 of (105, 100): objects 0..10
        // are at x = 100..110 → several matches; query 2 symmetric.
        assert!(!join.results.is_empty());
        assert!(join.results.iter().any(|m| m.query == QueryId(1)));
        assert!(join.results.iter().any(|m| m.query == QueryId(2)));
    }

    #[test]
    fn more_iterations_never_increase_inertia() {
        // Within-cluster distances after 10 iterations should not exceed
        // those after 1 iteration.
        let updates = blobs();
        let inertia = |iters: u32| {
            let o = kmeans_cluster(
                &updates,
                KMeansConfig {
                    iterations: iters,
                    k: Some(4),
                },
                &ScubaParams::default(),
                Rect::square(1000.0),
            );
            o.clusters
                .values()
                .map(|c| {
                    c.members()
                        .iter()
                        .filter_map(|m| m.pos)
                        .map(|p| p.distance_sq(&c.centroid()))
                        .sum::<f64>()
                })
                .sum::<f64>()
        };
        assert!(inertia(10) <= inertia(1) + 1e-6);
    }

    #[test]
    fn duplicate_entities_use_latest_update() {
        let mut updates = blobs();
        // Object 0 reports again from the other blob.
        updates.push(obj(0, 900.0, 900.0, CN_B));
        let outcome = kmeans_cluster(
            &updates,
            KMeansConfig {
                iterations: 3,
                k: Some(2),
            },
            &ScubaParams::default(),
            Rect::square(1000.0),
        );
        let total: usize = outcome.clusters.values().map(|c| c.len()).sum();
        assert_eq!(total, 22, "entity counted once");
        let mut sizes: Vec<usize> = outcome.clusters.values().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![10, 12]);
    }

    #[test]
    fn empty_input() {
        let outcome = kmeans_cluster(
            &[],
            KMeansConfig::default(),
            &ScubaParams::default(),
            Rect::square(10.0),
        );
        assert!(outcome.clusters.is_empty());
        assert_eq!(outcome.join().results, vec![]);
    }

    #[test]
    fn k_larger_than_population_is_clamped() {
        let updates = vec![obj(1, 10.0, 10.0, CN_A), obj(2, 20.0, 20.0, CN_A)];
        let outcome = kmeans_cluster(
            &updates,
            KMeansConfig {
                iterations: 2,
                k: Some(100),
            },
            &ScubaParams::default(),
            Rect::square(100.0),
        );
        assert!(outcome.k <= 2);
        assert!(!outcome.clusters.is_empty());
    }

    #[test]
    fn clustering_time_is_recorded() {
        let outcome = kmeans_cluster(
            &blobs(),
            KMeansConfig::default(),
            &ScubaParams::default(),
            Rect::square(1000.0),
        );
        // Non-negative duration and iterations propagated.
        assert_eq!(outcome.iterations, 3);
        let _ = outcome.clustering_time;
    }
}
