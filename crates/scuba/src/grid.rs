//! The ClusterGrid (paper §4.1).
//!
//! "ClusterGrid is a spatial grid table dividing the data space into N×N
//! grid cells. For each grid cell, ClusterGrid maintains a list of cluster
//! ids of moving clusters that overlap with that cell."
//!
//! Unlike the generic [`scuba_spatial::SpatialGrid`], the ClusterGrid must
//! support *removal and relocation*: clusters grow during the pre-join
//! phase and are re-located along their velocity vectors during post-join
//! maintenance. Registrations are tracked per cluster so both operations
//! are proportional to the handful of cells a compact cluster overlaps.
//!
//! The grid stores dense [`ClusterSlot`] handles from the
//! [`crate::store::ClusterStore`], not durable [`crate::cluster::ClusterId`]s:
//! cell lists and the per-cluster registration table are indexed structures
//! with no hashing on the probe path. Because slots are small and densely
//! reused, the registration table is a plain `Vec<Vec<u32>>` indexed by
//! slot with a parallel liveness bitmap (a registered cluster may overlap
//! *zero* cells — post-join relocation can carry it past the grid bounds
//! before it dissolves).
//!
//! The grid is the *region* index: its reader is the join's pair-discovery
//! walk, which treats a cell list as a set (candidate pairs are sorted and
//! deduplicated downstream). The order of slots within a cell therefore
//! carries no meaning, and removal is a `swap_remove`. Clustering does not
//! read this grid at all — its step-1 probe runs on the engine's private
//! centroid index (see [`crate::clustering`]).
//!
//! The heap footprint follows the live registrations: a cell that empties
//! and a slot that is removed give their buffers back, so
//! [`ClusterGrid::estimated_bytes`] does not remember every cell a cluster
//! ever crossed.

use scuba_spatial::{CellIdx, Circle, GridSpec, Point};

use crate::store::ClusterSlot;

/// Spatial grid of moving-cluster regions, keyed by store slot.
#[derive(Debug, Clone)]
pub struct ClusterGrid {
    spec: GridSpec,
    cells: Vec<Vec<ClusterSlot>>,
    /// Linear cell indices each slot is currently registered in, indexed by
    /// slot. Meaningful only where `live` is set: a live slot may overlap
    /// zero cells (region outside the grid bounds).
    registrations: Vec<Vec<u32>>,
    /// Whether each slot currently holds a registration.
    live: Vec<bool>,
    /// The exact circle each live slot was last registered with. Lets
    /// re-registration skip the cell enumeration when the region (or its
    /// covered cell set) provably did not change — post-join relocation
    /// re-inserts every moved cluster each Δ, and most moves stay inside
    /// the same cells.
    regions: Vec<Circle>,
    /// Number of live slots.
    registered: usize,
    /// Re-registrations answered without enumerating cells (fast paths).
    fast_path_hits: u64,
    /// Reused buffer [`ClusterGrid::insert`] enumerates the new cell list
    /// into before comparing it with (and copying it over) the slot's
    /// registration, so steady-state re-registration allocates nothing.
    cell_scratch: Vec<u32>,
}

impl ClusterGrid {
    /// Creates an empty grid over the given partitioning.
    pub fn new(spec: GridSpec) -> Self {
        ClusterGrid {
            spec,
            cells: vec![Vec::new(); spec.cell_count()],
            registrations: Vec::new(),
            live: Vec::new(),
            regions: Vec::new(),
            registered: 0,
            fast_path_hits: 0,
            cell_scratch: Vec::new(),
        }
    }

    /// The partitioning geometry.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Number of registered clusters.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.registered
    }

    /// Whether no clusters are registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }

    /// Registers a cluster region, replacing any previous registration.
    /// Returns the number of cells the cluster now overlaps.
    pub fn insert(&mut self, slot: ClusterSlot, region: &Circle) -> usize {
        if slot.index() >= self.registrations.len() {
            self.registrations.resize_with(slot.index() + 1, Vec::new);
            self.live.resize(slot.index() + 1, false);
            // Sentinel never consulted: `regions` is meaningful only where
            // `live` is set, and every live slot went through this method.
            self.regions.resize(
                slot.index() + 1,
                Circle::new(Point::new(0.0, 0.0), f64::NEG_INFINITY),
            );
        }
        if self.live[slot.index()] {
            // Fast path 1: exact region seen last time — the covered cell
            // set cannot differ, so skip the cell enumeration entirely.
            if *region == self.regions[slot.index()] {
                self.fast_path_hits += 1;
                return self.registrations[slot.index()].len();
            }
            // Fast path 2: covered-rect equality for compact interior
            // regions. A bounding box whose corners land in the same cell
            // (and inside the area) pins the exact covered set to that one
            // cell; if the slot is already registered there — and only
            // there — nothing changes. Restricted to in-area boxes:
            // border clamping can map an outside box onto a cell the
            // circle never intersects (even a zero-cell registration), so
            // rect equality alone would lie at the edges.
            let bbox = region.bounding_rect();
            if self.spec.area().contains(&bbox.min) && self.spec.area().contains(&bbox.max) {
                let lo = self.spec.cell_of(&bbox.min);
                if lo == self.spec.cell_of(&bbox.max) {
                    let linear = self.spec.linear(lo) as u32;
                    if self.registrations[slot.index()].as_slice() == [linear] {
                        self.fast_path_hits += 1;
                        self.regions[slot.index()] = *region;
                        return 1;
                    }
                }
            }
        }
        let mut new_cells = std::mem::take(&mut self.cell_scratch);
        new_cells.clear();
        new_cells.extend(
            self.spec
                .cells_overlapping_circle(region)
                .map(|idx| self.spec.linear(idx) as u32),
        );
        let n = new_cells.len();
        self.regions[slot.index()] = *region;
        if self.live[slot.index()] && self.registrations[slot.index()] == new_cells {
            self.cell_scratch = new_cells;
            return n;
        }
        if self.live[slot.index()] {
            self.unregister(slot);
        } else {
            self.live[slot.index()] = true;
            self.registered += 1;
        }
        for &linear in &new_cells {
            self.cells[linear as usize].push(slot);
        }
        let registration = &mut self.registrations[slot.index()];
        registration.clear();
        registration.extend_from_slice(&new_cells);
        self.cell_scratch = new_cells;
        n
    }

    /// Removes a cluster's registration. Returns `true` if it was present.
    pub fn remove(&mut self, slot: ClusterSlot) -> bool {
        if self.live.get(slot.index()).copied().unwrap_or(false) {
            self.unregister(slot);
            // Like an empty cell, a vacant slot owns no heap.
            self.registrations[slot.index()] = Vec::new();
            self.live[slot.index()] = false;
            self.registered -= 1;
            true
        } else {
            false
        }
    }

    fn unregister(&mut self, slot: ClusterSlot) {
        let cells = std::mem::take(&mut self.registrations[slot.index()]);
        for &linear in &cells {
            let cell = &mut self.cells[linear as usize];
            if let Some(pos) = cell.iter().position(|&c| c == slot) {
                // Cell lists are sets to every reader (module docs).
                cell.swap_remove(pos);
                if cell.is_empty() {
                    // An empty cell owns no heap: the footprint follows
                    // the live registrations, not the trail of every cell
                    // a cluster ever crossed.
                    *cell = Vec::new();
                }
            }
        }
        self.registrations[slot.index()] = cells;
    }

    /// The circle a cluster is currently registered with, or `None` if it
    /// is not registered. The adaptive index refines cell lists against
    /// these stored regions at pair-discovery time.
    #[inline]
    pub fn region_of(&self, slot: ClusterSlot) -> Option<&Circle> {
        self.live
            .get(slot.index())
            .copied()
            .unwrap_or(false)
            .then(|| &self.regions[slot.index()])
    }

    /// Re-registrations answered by a fast path (no cell enumeration).
    /// Diagnostic counter for tests and benchmarks.
    #[inline]
    pub fn fast_path_hits(&self) -> u64 {
        self.fast_path_hits
    }

    /// The linear cell indices a cluster is currently registered in, or
    /// `None` if it is not registered.
    #[inline]
    pub fn cells_of(&self, slot: ClusterSlot) -> Option<&[u32]> {
        self.live
            .get(slot.index())
            .copied()
            .unwrap_or(false)
            .then(|| self.registrations[slot.index()].as_slice())
    }

    /// The clusters registered in a cell given by linear index.
    #[inline]
    pub fn cell_linear(&self, linear: u32) -> &[ClusterSlot] {
        &self.cells[linear as usize]
    }

    /// The clusters whose registered regions overlap the cell that
    /// contains `p`.
    #[inline]
    pub fn clusters_near(&self, p: &Point) -> &[ClusterSlot] {
        let idx = self.spec.cell_of(p);
        &self.cells[self.spec.linear(idx)]
    }

    /// The clusters registered in a specific cell.
    #[inline]
    pub fn cell(&self, idx: CellIdx) -> &[ClusterSlot] {
        &self.cells[self.spec.linear(idx)]
    }

    /// Iterates over non-empty cells and their cluster lists — the outer
    /// loop of the joining phase (Algorithm 1, step 8: "for c = 0 to
    /// MAX_GRID_CELL").
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (CellIdx, &[ClusterSlot])> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(move |(linear, v)| (self.spec.from_linear(linear), v.as_slice()))
    }

    /// Removes every registration, keeping allocations.
    pub fn clear(&mut self) {
        for cell in &mut self.cells {
            cell.clear();
        }
        for reg in &mut self.registrations {
            reg.clear();
        }
        self.live.fill(false);
        self.registered = 0;
    }

    /// Estimated heap footprint in bytes (cell vectors + registrations).
    pub fn estimated_bytes(&self) -> usize {
        let header = std::mem::size_of::<Vec<ClusterSlot>>();
        let id = std::mem::size_of::<ClusterSlot>();
        let cells: usize =
            self.cells.len() * header + self.cells.iter().map(|c| c.capacity() * id).sum::<usize>();
        let regs: usize = self.registrations.len() * header
            + self
                .registrations
                .iter()
                .map(|v| v.capacity() * 4)
                .sum::<usize>();
        let regions = self.regions.capacity() * std::mem::size_of::<Circle>();
        cells + regs + regions + self.cell_scratch.capacity() * 4
    }

    /// Internal consistency check for tests: every registration points at a
    /// cell that actually lists the cluster, and vice versa.
    #[cfg(test)]
    fn check_consistent(&self) {
        for (i, cells) in self.registrations.iter().enumerate() {
            for &linear in cells {
                assert!(
                    self.cells[linear as usize].contains(&ClusterSlot(i as u32)),
                    "slot {i} registered in cell {linear} but absent"
                );
            }
        }
        for (linear, cell) in self.cells.iter().enumerate() {
            for slot in cell {
                assert!(
                    self.registrations[slot.index()].contains(&(linear as u32)),
                    "{slot:?} listed in cell {linear} but not registered"
                );
            }
        }
        assert_eq!(
            self.registered,
            self.live.iter().filter(|&&l| l).count(),
            "registered count drifted"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_spatial::Rect;

    fn grid(n: u32) -> ClusterGrid {
        ClusterGrid::new(GridSpec::new(Rect::square(100.0), n))
    }

    #[test]
    fn insert_and_probe() {
        let mut g = grid(10);
        let n = g.insert(ClusterSlot(1), &Circle::new(Point::new(55.0, 55.0), 3.0));
        assert_eq!(n, 1);
        assert_eq!(g.clusters_near(&Point::new(57.0, 52.0)), &[ClusterSlot(1)]);
        assert!(g.clusters_near(&Point::new(5.0, 5.0)).is_empty());
        assert_eq!(g.cluster_count(), 1);
        g.check_consistent();
    }

    #[test]
    fn spanning_cluster_registered_in_all_cells() {
        let mut g = grid(10);
        // Circle centred on a 4-corner junction.
        let n = g.insert(ClusterSlot(2), &Circle::new(Point::new(50.0, 50.0), 5.0));
        assert_eq!(n, 4);
        for p in [
            Point::new(48.0, 48.0),
            Point::new(52.0, 48.0),
            Point::new(48.0, 52.0),
            Point::new(52.0, 52.0),
        ] {
            assert_eq!(g.clusters_near(&p), &[ClusterSlot(2)]);
        }
        g.check_consistent();
    }

    #[test]
    fn reinsert_relocates() {
        let mut g = grid(10);
        g.insert(ClusterSlot(1), &Circle::new(Point::new(15.0, 15.0), 2.0));
        g.insert(ClusterSlot(1), &Circle::new(Point::new(85.0, 85.0), 2.0));
        assert!(g.clusters_near(&Point::new(15.0, 15.0)).is_empty());
        assert_eq!(g.clusters_near(&Point::new(85.0, 85.0)), &[ClusterSlot(1)]);
        assert_eq!(g.cluster_count(), 1);
        g.check_consistent();
    }

    #[test]
    fn reinsert_same_cells_is_stable() {
        let mut g = grid(10);
        let c = Circle::new(Point::new(15.0, 15.0), 2.0);
        g.insert(ClusterSlot(1), &c);
        g.insert(ClusterSlot(1), &c);
        assert_eq!(g.clusters_near(&Point::new(15.0, 15.0)).len(), 1);
        g.check_consistent();
    }

    #[test]
    fn growth_extends_registration() {
        let mut g = grid(10);
        g.insert(ClusterSlot(1), &Circle::new(Point::new(50.0, 50.0), 1.0));
        let before = g.cells_of(ClusterSlot(1)).unwrap().len();
        g.insert(ClusterSlot(1), &Circle::new(Point::new(50.0, 50.0), 15.0));
        let after = g.cells_of(ClusterSlot(1)).unwrap().len();
        assert!(after > before);
        g.check_consistent();
    }

    #[test]
    fn remove_cleans_cells() {
        let mut g = grid(10);
        g.insert(ClusterSlot(1), &Circle::new(Point::new(50.0, 50.0), 8.0));
        g.insert(ClusterSlot(2), &Circle::new(Point::new(50.0, 50.0), 8.0));
        assert!(g.remove(ClusterSlot(1)));
        assert!(!g.remove(ClusterSlot(1)));
        for (_, cell) in g.iter_nonempty() {
            assert!(!cell.contains(&ClusterSlot(1)));
            assert!(cell.contains(&ClusterSlot(2)));
        }
        g.check_consistent();
    }

    #[test]
    fn iter_nonempty_covers_all_registrations() {
        let mut g = grid(5);
        g.insert(ClusterSlot(1), &Circle::new(Point::new(10.0, 10.0), 1.0));
        g.insert(ClusterSlot(2), &Circle::new(Point::new(90.0, 90.0), 1.0));
        let seen: Vec<ClusterSlot> = g
            .iter_nonempty()
            .flat_map(|(_, cell)| cell.iter().copied())
            .collect();
        assert_eq!(seen.len(), 2);
        assert!(seen.contains(&ClusterSlot(1)));
        assert!(seen.contains(&ClusterSlot(2)));
    }

    #[test]
    fn clear_resets() {
        let mut g = grid(5);
        g.insert(ClusterSlot(1), &Circle::new(Point::new(10.0, 10.0), 1.0));
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.iter_nonempty().count(), 0);
        g.check_consistent();
    }

    #[test]
    fn many_clusters_same_cell() {
        let mut g = grid(4);
        for i in 0..20 {
            g.insert(ClusterSlot(i), &Circle::new(Point::new(10.0, 10.0), 0.5));
        }
        assert_eq!(g.clusters_near(&Point::new(10.0, 10.0)).len(), 20);
        for i in (0..20).step_by(2) {
            g.remove(ClusterSlot(i));
        }
        assert_eq!(g.clusters_near(&Point::new(10.0, 10.0)).len(), 10);
        g.check_consistent();
    }

    #[test]
    fn cells_of_and_cell_linear_agree() {
        let mut g = grid(10);
        g.insert(ClusterSlot(7), &Circle::new(Point::new(50.0, 50.0), 8.0));
        let cells = g.cells_of(ClusterSlot(7)).expect("registered").to_vec();
        assert!(!cells.is_empty());
        for linear in cells {
            assert!(g.cell_linear(linear).contains(&ClusterSlot(7)));
        }
        assert!(g.cells_of(ClusterSlot(8)).is_none());
    }

    #[test]
    fn out_of_bounds_region_registers_with_zero_cells() {
        // Post-join relocation can carry a cluster past the grid bounds
        // before the next maintenance pass dissolves it: it must stay
        // registered (so removal and re-registration behave) while
        // appearing in no cell.
        let mut g = grid(10);
        let n = g.insert(ClusterSlot(3), &Circle::new(Point::new(500.0, 500.0), 2.0));
        assert_eq!(n, 0);
        assert_eq!(g.cluster_count(), 1);
        assert_eq!(g.cells_of(ClusterSlot(3)), Some(&[][..]));
        assert_eq!(g.iter_nonempty().count(), 0);
        // Wandering back in re-registers normally.
        g.insert(ClusterSlot(3), &Circle::new(Point::new(50.0, 50.0), 2.0));
        assert!(!g.cells_of(ClusterSlot(3)).unwrap().is_empty());
        assert_eq!(g.cluster_count(), 1);
        assert!(g.remove(ClusterSlot(3)));
        assert!(g.is_empty());
        g.check_consistent();
    }

    /// Regression: re-registering the identical region (the post-join
    /// relocation path for a stationary cluster) must not enumerate cells
    /// again — the fast path answers from the stored region.
    #[test]
    fn reinsert_identical_region_takes_fast_path() {
        let mut g = grid(10);
        let c = Circle::new(Point::new(55.0, 55.0), 3.0);
        g.insert(ClusterSlot(1), &c);
        assert_eq!(g.fast_path_hits(), 0, "first insert enumerates");
        let n = g.insert(ClusterSlot(1), &c);
        assert_eq!(n, 1);
        assert_eq!(g.fast_path_hits(), 1);
        assert_eq!(g.clusters_near(&Point::new(55.0, 55.0)), &[ClusterSlot(1)]);
        assert_eq!(g.region_of(ClusterSlot(1)), Some(&c));
        g.check_consistent();
    }

    /// Regression: a relocation whose covered cell set is unchanged (the
    /// moved bounding box stays inside the same single interior cell) early
    /// outs on the covered-rect check and leaves the cell list untouched.
    #[test]
    fn moved_region_with_unchanged_covered_rect_takes_fast_path() {
        let mut g = grid(10);
        // Several slots share the cell; the fast path must not touch its list.
        for i in 0..4 {
            g.insert(
                ClusterSlot(i),
                &Circle::new(Point::new(54.0 + i as f64 * 0.5, 55.0), 1.0),
            );
        }
        let order_before = g.clusters_near(&Point::new(55.0, 55.0)).to_vec();
        let hits_before = g.fast_path_hits();
        // Slot 1 drifts within cell (5,5) = [50,60)×[50,60): same cell set.
        let moved = Circle::new(Point::new(57.0, 57.0), 1.5);
        assert_eq!(g.insert(ClusterSlot(1), &moved), 1);
        assert_eq!(g.fast_path_hits(), hits_before + 1);
        assert_eq!(
            g.clusters_near(&Point::new(55.0, 55.0)),
            order_before.as_slice(),
            "fast path must not touch the cell list"
        );
        assert_eq!(g.region_of(ClusterSlot(1)), Some(&moved));
        // The stored region updated: re-inserting the moved circle again
        // now takes the exact-region fast path.
        g.insert(ClusterSlot(1), &moved);
        assert_eq!(g.fast_path_hits(), hits_before + 2);
        g.check_consistent();
    }

    /// A region whose bounding box leaves the area must NOT take the
    /// covered-rect fast path: border clamping maps outside boxes onto
    /// border cells the circle may not intersect at all (a clamped 1×1 box
    /// can even belong to a zero-cell registration).
    #[test]
    fn out_of_area_region_bypasses_fast_path_and_recomputes() {
        let mut g = grid(10);
        // Registered in the corner cell.
        g.insert(ClusterSlot(1), &Circle::new(Point::new(98.0, 98.0), 1.0));
        assert_eq!(g.cells_of(ClusterSlot(1)).unwrap().len(), 1);
        // Fully outside: clamping would map its bbox onto the same corner
        // cell, but the true covered set is empty.
        let outside = Circle::new(Point::new(150.0, 150.0), 1.0);
        assert_eq!(g.insert(ClusterSlot(1), &outside), 0);
        assert_eq!(g.cells_of(ClusterSlot(1)), Some(&[][..]));
        assert_eq!(g.fast_path_hits(), 0);
        g.check_consistent();
    }

    /// A genuinely changed cell set still recomputes and re-registers.
    #[test]
    fn changed_cell_set_recomputes_past_the_fast_paths() {
        let mut g = grid(10);
        g.insert(ClusterSlot(1), &Circle::new(Point::new(55.0, 55.0), 1.0));
        // Growing past the cell boundary covers more cells.
        let n = g.insert(ClusterSlot(1), &Circle::new(Point::new(55.0, 55.0), 8.0));
        assert!(n > 1);
        assert_eq!(g.fast_path_hits(), 0);
        g.check_consistent();
    }

    #[test]
    fn estimated_bytes_tracks_contents() {
        let mut g = grid(10);
        let empty = g.estimated_bytes();
        for i in 0..50 {
            g.insert(
                ClusterSlot(i),
                &Circle::new(Point::new((i % 10) as f64 * 10.0, 50.0), 1.0),
            );
        }
        assert!(g.estimated_bytes() > empty);
    }

    /// The footprint follows the live registrations: a cluster that moves
    /// on leaves nothing behind in the cells it crossed, and a removed one
    /// leaves nothing but its slot's table row.
    #[test]
    fn emptied_cells_and_vacant_slots_hold_no_heap() {
        let mut g = grid(10);
        g.insert(ClusterSlot(0), &Circle::new(Point::new(15.0, 15.0), 12.0));
        let parked = g.estimated_bytes();
        for step in 1..=6 {
            let x = 15.0 + 10.0 * step as f64;
            g.insert(ClusterSlot(0), &Circle::new(Point::new(x, 15.0), 12.0));
            g.check_consistent();
        }
        g.insert(ClusterSlot(0), &Circle::new(Point::new(15.0, 15.0), 12.0));
        assert_eq!(g.estimated_bytes(), parked, "the trail was released");

        let mut fresh = grid(10);
        fresh.insert(ClusterSlot(0), &Circle::new(Point::new(15.0, 15.0), 12.0));
        fresh.remove(ClusterSlot(0));
        g.remove(ClusterSlot(0));
        assert_eq!(g.estimated_bytes(), fresh.estimated_bytes());
        assert!(g.cells.iter().all(|c| c.capacity() == 0));
        assert_eq!(g.registrations[0].capacity(), 0);
    }
}
