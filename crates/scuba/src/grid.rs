//! The ClusterGrid (paper §4.1).
//!
//! "ClusterGrid is a spatial grid table dividing the data space into N×N
//! grid cells. For each grid cell, ClusterGrid maintains a list of cluster
//! ids of moving clusters that overlap with that cell."
//!
//! The grid has one reader, the joining phase's per-cell pair walk
//! (Algorithm 1, step 8), and is rebuilt from scratch once per Δ right
//! before it ([`crate::clustering::ClusterEngine::build_index`]). Nothing
//! reads it during ingest, so nothing keeps it current there: it is a pure
//! function of the regions handed to [`ClusterGrid::build`].
//!
//! A region is listed in every cell of its bounding box, clamped to the
//! area — the cells of a rectangle `(lo, hi)` of cell indices, which the
//! grid keeps per slot. That box is what lets pair discovery emit each
//! pair once: two boxes that share a cell share exactly one lowest cell,
//! [`ClusterGrid::lowest_cell`] of both taken per axis (see
//! [`crate::join`]).
//!
//! The layout is one flat cell array: cell `c` lists the dense
//! [`ClusterSlot`] handles of the clusters covering it as
//! `slots[offsets[c]..offsets[c + 1]]`. A build counts per cell while it
//! records each region's box, then counting-sorts the slots by cell.
//! Every buffer keeps its capacity across builds, so a steady-state Δ
//! allocates nothing, and the heap footprint follows the live
//! registrations rather than the number of cells times a `Vec` header.
//! Clustering does not read this grid at all — its step-1 probe runs on the
//! engine's private centroid index (see [`crate::clustering`]).

use scuba_spatial::{CellIdx, Circle, GridSpec};

use crate::store::ClusterSlot;

/// Spatial grid of moving-cluster regions, keyed by store slot.
#[derive(Debug, Clone)]
pub struct ClusterGrid {
    spec: GridSpec,
    /// Start of each cell's run in `slots`, plus the end of the last one
    /// (`cell_count() + 1` entries).
    offsets: Vec<u32>,
    /// Every cell's slots, cell after cell.
    slots: Vec<ClusterSlot>,
    /// Build scratch: the slots listed in at least one cell, in input
    /// order.
    listed: Vec<ClusterSlot>,
    /// Each listed slot's cell box `(lo, hi)`, indexed by slot. Entries of
    /// slots not listed in the last build are stale and never read.
    boxes: Vec<(CellIdx, CellIdx)>,
    /// Regions in the last build, listed or not.
    regions: usize,
}

impl ClusterGrid {
    /// Creates an empty grid over the given partitioning.
    pub fn new(spec: GridSpec) -> Self {
        ClusterGrid {
            spec,
            offsets: vec![0; spec.cell_count() + 1],
            slots: Vec::new(),
            listed: Vec::new(),
            boxes: Vec::new(),
            regions: 0,
        }
    }

    /// The partitioning geometry.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Number of regions in the last build, including those outside the
    /// area that occupy no cell.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.regions
    }

    /// Replaces the contents with `regions`: each slot is listed in every
    /// cell of its region's bounding box clamped to the area, and in no
    /// other. A box that misses the area, or has a NaN coordinate, is
    /// listed nowhere. A cell lists its slots in the order they were
    /// given, so slots given in ascending order (as
    /// [`crate::store::ClusterStore::iter`] yields them) come out strictly
    /// ascending in every cell.
    pub fn build(&mut self, regions: impl IntoIterator<Item = (ClusterSlot, Circle)>) {
        let ClusterGrid {
            spec,
            offsets,
            slots,
            listed,
            boxes,
            regions: count,
        } = self;
        let area = spec.area();
        let n = spec.cells_per_side() as usize;
        // Count per cell and record each listed slot's box.
        offsets.fill(0);
        listed.clear();
        *count = 0;
        for (slot, region) in regions {
            *count += 1;
            let b = region.bounding_rect();
            // `cell_of` clamps, so a box off the area must be caught here;
            // written as `!(… >= …)` so that a NaN is caught too.
            if !(b.max.x >= area.min.x
                && area.max.x >= b.min.x
                && b.max.y >= area.min.y
                && area.max.y >= b.min.y)
            {
                continue;
            }
            let (lo, hi) = (spec.cell_of(&b.min), spec.cell_of(&b.max));
            if boxes.len() <= slot.index() {
                boxes.resize(slot.index() + 1, (lo, hi));
            }
            boxes[slot.index()] = (lo, hi);
            listed.push(slot);
            for row in lo.row as usize..=hi.row as usize {
                for c in &mut offsets[row * n + lo.col as usize..=row * n + hi.col as usize] {
                    *c += 1;
                }
            }
        }
        // Inclusive prefix sums: `offsets[c]` becomes the end of cell c (the
        // trailing entry counted nothing, so it becomes the total).
        let mut total = 0u32;
        for offset in offsets.iter_mut() {
            total = total
                .checked_add(*offset)
                .expect("more region-cell entries than a u32 offset can address");
            *offset = total;
        }
        // Scatter back to front: each placement pulls its cell's end down
        // by one, so every cell fills from its end towards its start — in
        // input order once done — and `offsets[c]` ends at the start of c.
        slots.clear();
        slots.resize(total as usize, ClusterSlot(0));
        for &slot in listed.iter().rev() {
            let (lo, hi) = boxes[slot.index()];
            for row in lo.row as usize..=hi.row as usize {
                for at in &mut offsets[row * n + lo.col as usize..=row * n + hi.col as usize] {
                    *at -= 1;
                    slots[*at as usize] = slot;
                }
            }
        }
    }

    /// The clusters listed in a cell given by linear index.
    #[inline]
    pub fn cell(&self, linear: usize) -> &[ClusterSlot] {
        &self.slots[self.offsets[linear] as usize..self.offsets[linear + 1] as usize]
    }

    /// The lowest cell (smallest column and row) of the box of a slot
    /// listed in the last build. Meaningless for any other slot.
    #[inline]
    pub fn lowest_cell(&self, slot: ClusterSlot) -> CellIdx {
        self.boxes[slot.index()].0
    }

    /// Iterates over the non-empty cells and their cluster lists in cell
    /// order — the outer loop of the joining phase (Algorithm 1, step 8:
    /// "for c = 0 to MAX_GRID_CELL").
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (CellIdx, &[ClusterSlot])> + '_ {
        self.offsets
            .windows(2)
            .enumerate()
            .filter(|(_, run)| run[0] != run[1])
            .map(move |(linear, run)| {
                (
                    self.spec.from_linear(linear),
                    &self.slots[run[0] as usize..run[1] as usize],
                )
            })
    }

    /// Estimated heap footprint in bytes: the cell array and the build
    /// scratch.
    pub fn estimated_bytes(&self) -> usize {
        (self.offsets.capacity() + self.slots.capacity() + self.listed.capacity())
            * std::mem::size_of::<u32>()
            + self.boxes.capacity() * std::mem::size_of::<(CellIdx, CellIdx)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_spatial::rng::SplitMix64;
    use scuba_spatial::{Point, Rect};

    const AREA: f64 = 100.0;

    fn grid() -> ClusterGrid {
        ClusterGrid::new(GridSpec::new(Rect::square(AREA), 10))
    }

    /// A deterministic pseudo-random placement in `[0, 1)`.
    fn unit(seed: u64) -> f64 {
        SplitMix64::new(seed).gen_f64()
    }

    /// A deterministic scatter in ascending slot order: most circles crowd
    /// a hotspot, the rest spread uniformly; a few leak past the border.
    fn scatter(n: u32) -> Vec<(ClusterSlot, Circle)> {
        (0..n)
            .map(|i| {
                let s = i as u64;
                let (x, y, r) = if i % 4 != 3 {
                    // Hotspot around (20, 20).
                    (
                        15.0 + 10.0 * unit(s * 3 + 1),
                        15.0 + 10.0 * unit(s * 3 + 2),
                        0.3 + 1.2 * unit(s * 3 + 3),
                    )
                } else {
                    // Uniform background, occasionally out of bounds.
                    (
                        -5.0 + 110.0 * unit(s * 5 + 1),
                        -5.0 + 110.0 * unit(s * 5 + 2),
                        0.3 + 2.0 * unit(s * 5 + 3),
                    )
                };
                (ClusterSlot(i), Circle::new(Point::new(x, y), r))
            })
            .collect()
    }

    /// The linear cells listing `slot`, in cell order.
    fn cells_of(g: &ClusterGrid, slot: ClusterSlot) -> Vec<u32> {
        (0..g.spec().cell_count())
            .filter(|&cell| g.cell(cell).contains(&slot))
            .map(|cell| cell as u32)
            .collect()
    }

    /// The cells of the region's bounding box, or none when the box misses
    /// the area.
    fn expected_cells(spec: &GridSpec, region: &Circle) -> Vec<u32> {
        let (b, a) = (region.bounding_rect(), spec.area());
        if !(b.max.x >= a.min.x && b.min.x <= a.max.x && b.max.y >= a.min.y && b.min.y <= a.max.y) {
            return Vec::new();
        }
        spec.cells_overlapping_rect(&b)
            .map(|idx| spec.linear(idx) as u32)
            .collect()
    }

    #[test]
    fn every_slot_sits_in_exactly_its_overlapping_cells() {
        let mut g = grid();
        let circles = scatter(64);
        g.build(circles.iter().copied());
        assert_eq!(g.cluster_count(), circles.len());
        let spec = *g.spec();
        let mut missed = 0;
        for (slot, region) in &circles {
            let expected = expected_cells(&spec, region);
            missed += usize::from(expected.is_empty());
            assert_eq!(cells_of(&g, *slot), expected, "{slot:?}");
            if let Some(&first) = expected.first() {
                assert_eq!(spec.linear(g.lowest_cell(*slot)), first as usize);
            }
        }
        assert!(missed > 0, "some background circle lies off the area");
        // A circle centred on a 4-corner junction sits in all four cells.
        g.build([(ClusterSlot(2), Circle::new(Point::new(50.0, 50.0), 5.0))]);
        assert_eq!(cells_of(&g, ClusterSlot(2)), [44, 45, 54, 55]);
        // The box's corner cell (4, 4) is listed although the disc misses
        // it: its nearest point (50, 50) is 11.3 from the centre.
        g.build([(ClusterSlot(2), Circle::new(Point::new(58.0, 58.0), 9.0))]);
        assert_eq!(
            cells_of(&g, ClusterSlot(2)),
            [44, 45, 46, 54, 55, 56, 64, 65, 66]
        );
    }

    #[test]
    fn cells_list_slots_strictly_ascending() {
        let mut g = grid();
        g.build(scatter(96));
        let mut listed = 0;
        for (_, cell) in g.iter_nonempty() {
            assert!(cell.windows(2).all(|w| w[0] < w[1]), "{cell:?}");
            listed += cell.len();
        }
        assert!(listed > 96, "the hotspot spans cells");
    }

    /// Every pair of in-area circles sharing a point co-occurs in some cell,
    /// and every slot occupying a cell meets itself there.
    #[test]
    fn overlapping_pairs_share_a_cell() {
        let mut g = grid();
        let circles = scatter(64);
        g.build(circles.iter().copied());
        let mut pairs = Vec::new();
        for (_, cell) in g.iter_nonempty() {
            for (i, &a) in cell.iter().enumerate() {
                for &b in &cell[i..] {
                    pairs.push((a.0.min(b.0), a.0.max(b.0)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let area = g.spec().area();
        for (i, &(a, ca)) in circles.iter().enumerate() {
            assert!(
                pairs.binary_search(&(a.0, a.0)).is_ok() || cells_of(&g, a).is_empty(),
                "{a:?} is missing its self-pair"
            );
            for &(b, cb) in &circles[i + 1..] {
                let both_inside = area.union(&ca.bounding_rect()) == area
                    && area.union(&cb.bounding_rect()) == area;
                if both_inside && ca.overlaps(&cb) {
                    assert!(
                        pairs.binary_search(&(a.0, b.0)).is_ok(),
                        "overlapping pair {a:?}/{b:?} not covered"
                    );
                }
            }
        }
    }

    /// Post-join relocation can carry a cluster past the grid bounds before
    /// the maintenance pass that dissolves it: it still counts as built,
    /// but no cell lists it. `cell_of` clamps, so each way of missing the
    /// area is checked: both axes, one axis, and a NaN centre or radius.
    /// A box that only touches the border is listed, in the border cells.
    #[test]
    fn out_of_area_region_occupies_no_cell_but_counts() {
        let mut g = grid();
        let nan_radius = Circle {
            center: Point::new(50.0, 50.0),
            radius: f64::NAN,
        };
        g.build([
            (ClusterSlot(1), Circle::new(Point::new(55.0, 55.0), 3.0)),
            (ClusterSlot(3), Circle::new(Point::new(500.0, 500.0), 2.0)),
            (ClusterSlot(4), Circle::new(Point::new(50.0, 120.0), 5.0)),
            (ClusterSlot(5), Circle::new(Point::new(105.0, 50.0), 5.0)),
            (ClusterSlot(6), Circle::new(Point::new(f64::NAN, 50.0), 2.0)),
            (ClusterSlot(7), nan_radius),
        ]);
        assert_eq!(g.cluster_count(), 6);
        for slot in [3, 4, 6, 7] {
            assert!(cells_of(&g, ClusterSlot(slot)).is_empty(), "slot {slot}");
        }
        assert_eq!(cells_of(&g, ClusterSlot(5)), [49, 59]);
        assert_eq!(
            g.iter_nonempty().map(|(_, s)| s).collect::<Vec<_>>(),
            [&[ClusterSlot(5)][..], &[ClusterSlot(1)], &[ClusterSlot(5)]]
        );
    }

    #[test]
    fn rebuild_after_slot_reuse_leaves_no_trace() {
        let mut g = grid();
        let mut circles = scatter(64);
        g.build(circles.iter().copied());
        // Slot 5 (a hotspot circle near (20, 20)) dissolves, slot 9 too,
        // and slot 5 is re-founded near (80, 80).
        let (victim, old) = circles[5];
        circles.remove(9);
        circles[5].1 = Circle::new(Point::new(80.0, 80.0), 1.0);
        g.build(circles.iter().copied());
        assert_eq!(g.cluster_count(), 63);
        assert!(cells_of(&g, ClusterSlot(9)).is_empty());
        let spec = *g.spec();
        assert_eq!(cells_of(&g, victim), expected_cells(&spec, &circles[5].1));
        for cell in expected_cells(&spec, &old) {
            assert!(!g.cell(cell as usize).contains(&victim));
        }
        g.build(std::iter::empty());
        assert_eq!(g.cluster_count(), 0);
        assert_eq!(g.iter_nonempty().count(), 0);
    }

    /// The steady-state contract: rebuilding the same set reuses every
    /// buffer, and the footprint counts the build scratch.
    #[test]
    fn second_build_of_the_same_set_allocates_nothing() {
        let mut g = grid();
        let empty = g.estimated_bytes();
        g.build(scatter(64));
        let settled = g.estimated_bytes();
        assert!(settled > empty);
        let entries: usize = g.iter_nonempty().map(|(_, s)| s.len()).sum();
        assert!(
            settled >= empty + entries * 4 + g.listed.len() * (4 + 16),
            "scratch counted"
        );
        let before = g.clone();
        for _ in 0..3 {
            g.build(scatter(64));
            assert_eq!(g.estimated_bytes(), settled);
            assert_eq!(g.slots, before.slots);
            assert_eq!(g.offsets, before.offsets);
        }
    }
}
