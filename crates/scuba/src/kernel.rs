//! The join-between pre-filter (Algorithm 2) over the SoA cluster
//! columns.
//!
//! Pair discovery hands this stage every co-resident slot pair exactly
//! once, smaller slot first, in cell order. [`join_between_filter`] walks
//! them once, pair at a time: same-slot pairs survive only for mixed
//! clusters, cross pairs must pass the joinable-kind check on the count
//! columns and then the circle-overlap test with the query side inflated
//! by its widest range. Survivors land on the task list in the order they
//! came, which is the order join-within consumes them in.

use scuba_spatial::{Circle, Point};

use crate::store::{ClusterSlot, StoreColumns};

/// Work and selectivity counters of one join-between pre-filter pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Cluster-pair overlap tests performed (same-slot pairs and pairs
    /// failing the joinable-kind check are not tested).
    pub tests: u64,
    /// Pairs rejected by the overlap test.
    pub pruned: u64,
    /// Pairs surviving to join-within.
    pub joined: u64,
}

/// Filters the discovered pairs down to the pairs join-within must run,
/// clearing and filling `tasks` with them in input order.
pub fn join_between_filter(
    cols: &StoreColumns<'_>,
    pairs: &[(ClusterSlot, ClusterSlot)],
    tasks: &mut Vec<(ClusterSlot, ClusterSlot)>,
) -> PrefilterStats {
    tasks.clear();
    let mut stats = PrefilterStats::default();
    for &(left, right) in pairs {
        let (li, ri) = (left.index(), right.index());

        if left == right {
            // Same-cluster join-within only for mixed clusters.
            if cols.object_count[li] > 0 && cols.query_count[li] > 0 {
                tasks.push((left, right));
            }
            continue;
        }

        // Only cross-kind pairs can produce results (Algorithm 1,
        // step 18).
        let joinable = (cols.object_count[li] > 0 && cols.query_count[ri] > 0)
            || (cols.query_count[li] > 0 && cols.object_count[ri] > 0);
        if !joinable {
            continue;
        }

        // The overlap pre-filter, with the query side inflated by its
        // widest range so pruned pairs really cannot produce results
        // (see MovingCluster::effective_region). The circles are
        // rebuilt from the SoA columns — bit-identical to the cluster
        // methods, since the columns re-sync on every mutation.
        stats.tests += 1;
        let l_center = Point::new(cols.cx[li], cols.cy[li]);
        let r_center = Point::new(cols.cx[ri], cols.cy[ri]);
        let can_match = Circle::new(l_center, cols.radius[li])
            .overlaps(&Circle::new(r_center, cols.eff_radius[ri]))
            || Circle::new(r_center, cols.radius[ri])
                .overlaps(&Circle::new(l_center, cols.eff_radius[li]));
        if !can_match {
            stats.pruned += 1;
            continue;
        }
        stats.joined += 1;
        tasks.push((left, right));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterId;
    use crate::cluster::MovingCluster;
    use crate::store::ClusterStore;
    use scuba_motion::{LocationUpdate, ObjectAttrs, ObjectId, QueryAttrs, QueryId, QuerySpec};

    fn store_with(clusters: Vec<MovingCluster>) -> ClusterStore {
        let mut s = ClusterStore::new();
        for c in clusters {
            s.insert(c);
        }
        s
    }

    fn obj_cluster(id: u64, x: f64, y: f64) -> MovingCluster {
        let u = LocationUpdate::object(
            ObjectId(id),
            Point::new(x, y),
            0,
            10.0,
            Point::new(1000.0, y),
            ObjectAttrs::default(),
        );
        MovingCluster::found(ClusterId(id), &u, false)
    }

    fn query_cluster(id: u64, x: f64, y: f64, side: f64) -> MovingCluster {
        let u = LocationUpdate::query(
            QueryId(id),
            Point::new(x, y),
            0,
            10.0,
            Point::new(1000.0, y),
            QueryAttrs {
                spec: QuerySpec::square_range(side),
            },
        );
        MovingCluster::found(ClusterId(id), &u, false)
    }

    fn all_pairs(n: u32) -> Vec<(ClusterSlot, ClusterSlot)> {
        (0..n)
            .flat_map(|a| (a..n).map(move |b| (ClusterSlot(a), ClusterSlot(b))))
            .collect()
    }

    /// Degenerate geometry: zero-radius clusters and coincident centroids
    /// take the inclusive (≤) branch; same-kind pairs are never tested.
    #[test]
    fn zero_radius_and_coincident_centroids_are_inclusive() {
        let store = store_with(vec![
            obj_cluster(0, 100.0, 100.0),
            query_cluster(1, 100.0, 100.0, 0.0), // coincident, zero reach
            query_cluster(2, 100.0, 130.0, 0.0), // zero reach, 30 apart
            obj_cluster(3, 500.0, 500.0),
        ]);
        let cols = store.columns();
        let mut tasks = Vec::new();
        let stats = join_between_filter(&cols, &all_pairs(4), &mut tasks);
        // Only the coincident zero-radius pair survives (distance 0 ≤ 0);
        // the separated zero-reach pair and both far pairs are pruned.
        assert_eq!(tasks, vec![(ClusterSlot(0), ClusterSlot(1))]);
        assert_eq!(
            stats,
            PrefilterStats {
                tests: 4,
                pruned: 3,
                joined: 1,
            }
        );
    }

    /// A pair engineered to sit exactly on the overlap boundary
    /// (d² == (radius + eff_radius)²): the inclusive comparison must admit
    /// it.
    #[test]
    fn exact_boundary_pair_is_inclusive() {
        // Query with square range side 2s has bounding radius s·√2; choose
        // side so radius + eff land on an exactly representable boundary:
        // an object cluster (radius 0) at distance 8 from a query cluster
        // whose eff_radius is exactly 8 would be the boundary, but
        // eff_radius = side/2·√2 is irrational — instead place the pair at
        // the *computed* eff_radius distance so d equals it bit-for-bit.
        let q = query_cluster(1, 0.0, 0.0, 16.0);
        let eff = q.radius() + q.max_query_radius();
        let store = store_with(vec![obj_cluster(0, eff, 0.0), q]);
        let cols = store.columns();
        assert_eq!(cols.eff_radius[1], eff);
        let pairs = [(ClusterSlot(0), ClusterSlot(1))];
        let mut tasks = Vec::new();
        let stats = join_between_filter(&cols, &pairs, &mut tasks);
        // d² = eff² exactly (axis-aligned, dy = 0), so ≤ admits the pair.
        assert_eq!(tasks, vec![(ClusterSlot(0), ClusterSlot(1))]);
        assert_eq!(
            stats,
            PrefilterStats {
                tests: 1,
                pruned: 0,
                joined: 1,
            }
        );
    }
}
