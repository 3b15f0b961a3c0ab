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
//! **Two sides.** Algorithm 1 only ever joins one cluster's objects with
//! another cluster's queries (step 18's kind check), so the grid lists each
//! cluster by the role it plays. A cluster with queries is listed on the
//! *query side* by its effective region (the region inflated by its widest
//! query's reach); a cluster with objects is listed on the *object side* by
//! its plain region; a mixed cluster is listed on both (`roles`). The
//! walk (`ClusterGrid::directed_pairs`) then pairs the query side of a
//! cell with its object side only, never objects with objects or queries
//! with queries.
//!
//! A region is listed in every cell of its bounding box, clamped to the
//! area — the cells of a rectangle `(lo, hi)` of cell indices, which the
//! grid keeps per slot and side. That box is what lets the walk emit each
//! directed pair once: an object-side box and a query-side box that share a
//! cell share exactly one lowest cell, `lo` of both taken per axis.
//!
//! The layout is one flat entry array: cell `c` is
//! `entries[offsets[c]..offsets[c + 1]]`, its query-side slots ascending,
//! then its object-side slots ascending, each marked by a tag bit, so the
//! split is found from the entries themselves. A build counts per cell
//! while it records each slot's two boxes (16 bytes, `u16` cell
//! coordinates), then counting-sorts the entries by cell, reading the
//! recorded boxes. Every buffer keeps its capacity across builds, so a
//! steady-state Δ allocates nothing, and the heap footprint follows the
//! live registrations rather than the number of cells times a `Vec`
//! header. Clustering does not read this grid at all — its step-1 probe
//! runs on the engine's private centroid index (see [`crate::clustering`]).

use scuba_spatial::{Circle, GridSpec};

use crate::cluster::MovingCluster;
use crate::store::ClusterSlot;

/// Tags an object-side entry of a cell. Query-side entries are untagged,
/// so a cell's entries ascend as raw words: its query side, then its
/// object side.
const OBJECT_SIDE: u32 = 1 << 31;

/// The role a cluster is listed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Listed by its effective region: the cluster has queries.
    Query = 0,
    /// Listed by its plain region: the cluster has objects.
    Object = 1,
}

/// A slot's clamped cell rectangle on one side, `[col, row]` per corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellBox {
    lo: [u16; 2],
    hi: [u16; 2],
}

impl CellBox {
    /// No cell: the side was not given, or its box misses the area. `lo`
    /// is past `hi`, so the row and column ranges of the box are empty.
    const UNLISTED: CellBox = CellBox {
        lo: [u16::MAX; 2],
        hi: [0; 2],
    };

    fn is_listed(self) -> bool {
        self.lo[0] <= self.hi[0]
    }

    /// The box's cells on a grid of `n` cells per side, as one run of
    /// linear indices per row.
    fn rows(self, n: usize) -> impl Iterator<Item = std::ops::RangeInclusive<usize>> {
        let (lo, hi) = (self.lo.map(usize::from), self.hi.map(usize::from));
        (lo[1]..=hi[1]).map(move |row| row * n + lo[0]..=row * n + hi[0])
    }
}

/// What [`ClusterGrid::build`] lists a cluster as: its slot, its region
/// on the object side when it has objects, and its effective region on the
/// query side when it has queries.
pub(crate) fn roles(
    slot: ClusterSlot,
    cluster: &MovingCluster,
) -> (ClusterSlot, Option<Circle>, Option<Circle>) {
    (
        slot,
        (cluster.object_count() > 0).then(|| cluster.region()),
        (cluster.query_count() > 0).then(|| cluster.effective_region()),
    )
}

/// Spatial grid of moving-cluster regions, keyed by store slot, one list
/// per side.
#[derive(Debug, Clone)]
pub struct ClusterGrid {
    spec: GridSpec,
    /// Start of each cell's run in `entries`, plus the end of the last one
    /// (`cell_count() + 1` entries).
    offsets: Vec<u32>,
    /// Every cell's slots, cell after cell: the query side untagged, then
    /// the object side tagged with [`OBJECT_SIDE`], each ascending.
    entries: Vec<u32>,
    /// Each slot's cell boxes, indexed by slot and then by [`Side`]. Slots
    /// not in the last build read as unlisted.
    boxes: Vec<[CellBox; 2]>,
    /// Clusters in the last build, listed or not.
    clusters: usize,
}

impl ClusterGrid {
    /// Creates an empty grid over the given partitioning.
    ///
    /// # Panics
    ///
    /// If the grid has more than 2¹⁶ cells per side (cell coordinates are
    /// kept as `u16`; [`crate::ScubaParams`] allows at most 1 024).
    pub fn new(spec: GridSpec) -> Self {
        assert!(
            spec.cells_per_side() <= 1 << 16,
            "a ClusterGrid has at most 65 536 cells per side"
        );
        ClusterGrid {
            spec,
            offsets: vec![0; spec.cell_count() + 1],
            entries: Vec::new(),
            boxes: Vec::new(),
            clusters: 0,
        }
    }

    /// The partitioning geometry.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Number of clusters in the last build, including those listed in no
    /// cell.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }

    /// The clamped cell box of `region`, or [`CellBox::UNLISTED`] when the
    /// box misses the area or has a NaN coordinate.
    fn cell_box(&self, region: Circle) -> CellBox {
        let (b, area) = (region.bounding_rect(), self.spec.area());
        // `cell_of` clamps, so a box off the area must be caught here;
        // written as `!(… >= …)` so that a NaN is caught too.
        if !(b.max.x >= area.min.x
            && area.max.x >= b.min.x
            && b.max.y >= area.min.y
            && area.max.y >= b.min.y)
        {
            return CellBox::UNLISTED;
        }
        let (lo, hi) = (self.spec.cell_of(&b.min), self.spec.cell_of(&b.max));
        CellBox {
            lo: [lo.col as u16, lo.row as u16],
            hi: [hi.col as u16, hi.row as u16],
        }
    }

    /// Replaces the contents with `clusters`, each `(slot, object-side
    /// region, query-side region)` and each slot at most once (see
    /// `roles`). A given region is listed on its side in every cell of
    /// its bounding box clamped to the area, and in no other; a box that
    /// misses the area, or has a NaN coordinate, is listed nowhere. Within
    /// a cell each side lists its slots strictly ascending, whatever the
    /// input order.
    pub fn build(
        &mut self,
        clusters: impl IntoIterator<Item = (ClusterSlot, Option<Circle>, Option<Circle>)>,
    ) {
        let n = self.spec.cells_per_side() as usize;
        // Count per cell and record each slot's two boxes.
        self.offsets.fill(0);
        self.boxes.clear();
        self.clusters = 0;
        for (slot, objects, queries) in clusters {
            assert!(slot.0 < OBJECT_SIDE, "slot {} does not fit the tag", slot.0);
            self.clusters += 1;
            let mut sides = [CellBox::UNLISTED; 2];
            for (side, region) in [(Side::Query, queries), (Side::Object, objects)] {
                let Some(region) = region else { continue };
                let b = self.cell_box(region);
                for cells in b.rows(n) {
                    for c in &mut self.offsets[cells] {
                        *c += 1;
                    }
                }
                sides[side as usize] = b;
            }
            if self.boxes.len() <= slot.index() {
                self.boxes.resize(slot.index() + 1, [CellBox::UNLISTED; 2]);
            }
            self.boxes[slot.index()] = sides;
        }
        // Inclusive prefix sums: `offsets[c]` becomes the end of cell c (the
        // trailing entry counted nothing, so it becomes the total).
        let mut total = 0u32;
        for offset in self.offsets.iter_mut() {
            total = total
                .checked_add(*offset)
                .expect("more region-cell entries than a u32 offset can address");
            *offset = total;
        }
        // Scatter back to front: each placement pulls its cell's end down
        // by one, so every cell fills from its end towards its start. The
        // object side goes first and the slots descend, so each cell ends
        // up query side then object side, each ascending, and `offsets[c]`
        // ends at the start of c.
        let ClusterGrid {
            offsets,
            entries,
            boxes,
            ..
        } = self;
        entries.clear();
        entries.resize(total as usize, 0);
        for (side, tag) in [(Side::Object, OBJECT_SIDE), (Side::Query, 0)] {
            for (slot, sides) in boxes.iter().enumerate().rev() {
                for cells in sides[side as usize].rows(n) {
                    for at in &mut offsets[cells] {
                        *at -= 1;
                        entries[*at as usize] = slot as u32 | tag;
                    }
                }
            }
        }
    }

    /// Whether `slot` is listed on `side` in at least one cell.
    #[inline]
    pub(crate) fn lists(&self, slot: ClusterSlot, side: Side) -> bool {
        self.boxes
            .get(slot.index())
            .is_some_and(|sides| sides[side as usize].is_listed())
    }

    /// The pair walk (Algorithm 1, step 8, by role): clears `pairs` and
    /// fills it with every directed pair `(O, Q)`, `O ≠ Q`, whose
    /// object-side box shares a cell with `Q`'s query-side box, each
    /// exactly once. Returns `(entries walked, candidates)`: the entries
    /// of every non-empty cell, and `n_query × n_object` summed over cells.
    ///
    /// A pair is emitted only in its reference cell, the lowest cell of the
    /// intersection of the two boxes, `(max(lo_O.col, lo_Q.col),
    /// max(lo_O.row, lo_Q.row))` (Dittrich & Seeger). Both boxes cover the
    /// cell being walked, so their `lo` is at most its `(col, row)` and the
    /// cell is the pair's reference cell iff, on each axis, one of the two
    /// boxes starts there. So the walk sorts a cell's object side into four
    /// classes by where each box starts — on this column only, on both,
    /// on this row only, on neither — in that order in `classed`, and each
    /// query emits one contiguous run of it: all four classes when its own
    /// box starts here on both axes, the classes starting on the row (or
    /// on the column) it does not start on, or only the objects starting
    /// here on both axes. No candidate is tested one by one.
    pub(crate) fn directed_pairs(
        &self,
        pairs: &mut Vec<(ClusterSlot, ClusterSlot)>,
        classed: &mut Vec<ClusterSlot>,
    ) -> (u64, u64) {
        pairs.clear();
        let n = self.spec.cells_per_side() as usize;
        let (mut walked, mut candidates) = (0u64, 0u64);
        for (linear, run) in self.offsets.windows(2).enumerate() {
            let run = &self.entries[run[0] as usize..run[1] as usize];
            if run.is_empty() {
                continue;
            }
            let split = run.partition_point(|&e| e & OBJECT_SIDE == 0);
            let (queries, objects) = run.split_at(split);
            walked += run.len() as u64;
            candidates += (queries.len() * objects.len()) as u64;
            if queries.is_empty() || objects.is_empty() {
                continue;
            }
            let here = [(linear % n) as u16, (linear / n) as u16];
            let starts = |slot: u32, side: Side| {
                let lo = self.boxes[slot as usize][side as usize].lo;
                (lo[0] == here[0], lo[1] == here[1])
            };
            // Class of an object-side box: 0 starts on this column only,
            // 1 on both axes, 2 on this row only, 3 on neither.
            let class = |slot: u32| match starts(slot, Side::Object) {
                (true, false) => 0,
                (true, true) => 1,
                (false, true) => 2,
                (false, false) => 3,
            };
            let mut bounds = [0usize; 5];
            for &o in objects {
                bounds[class(o & !OBJECT_SIDE) + 1] += 1;
            }
            for c in 1..5 {
                bounds[c] += bounds[c - 1];
            }
            let mut fill = bounds;
            classed.clear();
            classed.resize(objects.len(), ClusterSlot(0));
            for &o in objects {
                let slot = o & !OBJECT_SIDE;
                let c = class(slot);
                classed[fill[c]] = ClusterSlot(slot);
                fill[c] += 1;
            }
            for &q in queries {
                let run = match starts(q, Side::Query) {
                    (true, true) => 0..bounds[4],
                    (true, false) => bounds[1]..bounds[3],
                    (false, true) => 0..bounds[2],
                    (false, false) => bounds[1]..bounds[2],
                };
                let q = ClusterSlot(q);
                pairs.extend(classed[run].iter().filter(|&&o| o != q).map(|&o| (o, q)));
            }
        }
        (walked, candidates)
    }

    /// Estimated heap footprint in bytes: the cell array and the per-slot
    /// boxes.
    pub fn estimated_bytes(&self) -> usize {
        (self.offsets.capacity() + self.entries.capacity()) * std::mem::size_of::<u32>()
            + self.boxes.capacity() * std::mem::size_of::<[CellBox; 2]>()
    }
}

#[cfg(test)]
impl ClusterGrid {
    /// Every entry as `(linear cell, side, slot)`, in layout order.
    pub(crate) fn listing(&self) -> Vec<(usize, Side, ClusterSlot)> {
        let mut out = Vec::new();
        for (linear, run) in self.offsets.windows(2).enumerate() {
            for &e in &self.entries[run[0] as usize..run[1] as usize] {
                let side = if e & OBJECT_SIDE == 0 {
                    Side::Query
                } else {
                    Side::Object
                };
                out.push((linear, side, ClusterSlot(e & !OBJECT_SIDE)));
            }
        }
        out
    }

    /// The linear cells listing `slot` on `side`, ascending.
    pub(crate) fn cells_of(&self, slot: ClusterSlot, side: Side) -> Vec<usize> {
        self.listing()
            .into_iter()
            .filter(|&(_, s, e)| s == side && e == slot)
            .map(|(cell, ..)| cell)
            .collect()
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

    /// The scatter as clusters with roles: every third slot objects only
    /// (its region), every third queries only (its region inflated by 3),
    /// and the rest mixed.
    fn with_roles(circles: &[(ClusterSlot, Circle)]) -> Vec<ClusterRoles> {
        circles
            .iter()
            .map(|&(slot, region)| {
                let reach = Circle::new(region.center, region.radius + 3.0);
                match slot.0 % 3 {
                    0 => (slot, Some(region), None),
                    1 => (slot, None, Some(reach)),
                    _ => (slot, Some(region), Some(reach)),
                }
            })
            .collect()
    }

    type ClusterRoles = (ClusterSlot, Option<Circle>, Option<Circle>);

    /// The cells of the region's bounding box, or none when the box misses
    /// the area.
    fn expected_cells(spec: &GridSpec, region: &Circle) -> Vec<usize> {
        let (b, a) = (region.bounding_rect(), spec.area());
        if !(b.max.x >= a.min.x && b.min.x <= a.max.x && b.max.y >= a.min.y && b.min.y <= a.max.y) {
            return Vec::new();
        }
        spec.cells_overlapping_rect(&b)
            .map(|idx| spec.linear(idx))
            .collect()
    }

    #[test]
    fn every_slot_sits_in_exactly_its_overlapping_cells_per_side() {
        let mut g = grid();
        let clusters = with_roles(&scatter(64));
        g.build(clusters.iter().copied());
        assert_eq!(g.cluster_count(), clusters.len());
        let spec = *g.spec();
        let mut missed = 0;
        for &(slot, objects, queries) in &clusters {
            for (side, region) in [(Side::Object, objects), (Side::Query, queries)] {
                let expected = region.map_or(Vec::new(), |r| expected_cells(&spec, &r));
                missed += usize::from(region.is_some() && expected.is_empty());
                assert_eq!(g.cells_of(slot, side), expected, "{slot:?} {side:?}");
                assert_eq!(g.lists(slot, side), !expected.is_empty());
                if let Some(&first) = expected.first() {
                    let lo = g.boxes[slot.index()][side as usize].lo;
                    assert_eq!(
                        spec.linear(scuba_spatial::CellIdx {
                            col: lo[0] as u32,
                            row: lo[1] as u32
                        }),
                        first
                    );
                }
            }
        }
        assert!(missed > 0, "some background circle lies off the area");
        // A circle centred on a 4-corner junction sits in all four cells.
        let junction = Circle::new(Point::new(50.0, 50.0), 5.0);
        g.build([(ClusterSlot(2), Some(junction), None)]);
        assert_eq!(g.cells_of(ClusterSlot(2), Side::Object), [44, 45, 54, 55]);
        assert!(g.cells_of(ClusterSlot(2), Side::Query).is_empty());
        // The box's corner cell (4, 4) is listed although the disc misses
        // it: its nearest point (50, 50) is 11.3 from the centre. The
        // object side keeps the plain region while the query side is wider.
        let region = Circle::new(Point::new(58.0, 58.0), 9.0);
        let reach = Circle::new(Point::new(58.0, 58.0), 12.0);
        g.build([(ClusterSlot(2), Some(region), Some(reach))]);
        assert_eq!(
            g.cells_of(ClusterSlot(2), Side::Object),
            [44, 45, 46, 54, 55, 56, 64, 65, 66]
        );
        assert_eq!(
            g.cells_of(ClusterSlot(2), Side::Query),
            [44, 45, 46, 47, 54, 55, 56, 57, 64, 65, 66, 67, 74, 75, 76, 77]
        );
    }

    /// Each cell lists its query side, then its object side, each strictly
    /// ascending by slot whatever the input order.
    #[test]
    fn cells_list_the_query_side_then_the_object_side_ascending() {
        let mut g = grid();
        let mut clusters = with_roles(&scatter(96));
        clusters.reverse();
        g.build(clusters.iter().copied());
        let listing = g.listing();
        let mut by_side = [0usize; 2];
        for w in listing.windows(2) {
            let ((c0, s0, a), (c1, s1, b)) = (w[0], w[1]);
            if c0 == c1 {
                assert!(
                    (s0 as u8, a) < (s1 as u8, b),
                    "cell {c0}: {s0:?} {a:?} before {s1:?} {b:?}"
                );
            }
        }
        for &(_, side, _) in &listing {
            by_side[side as usize] += 1;
        }
        assert!(by_side.iter().all(|&n| n > 64), "the hotspot spans cells");
    }

    /// Every object-side circle meets every query-side circle it overlaps
    /// (both inside the area) in some cell.
    #[test]
    fn overlapping_roles_share_a_cell() {
        let mut g = grid();
        let clusters = with_roles(&scatter(64));
        g.build(clusters.iter().copied());
        let listing = g.listing();
        let in_cell =
            |cell: usize, side: Side, slot: ClusterSlot| listing.contains(&(cell, side, slot));
        let area = g.spec().area();
        let inside = |c: &Circle| area.union(&c.bounding_rect()) == area;
        for &(o, objects, _) in &clusters {
            let Some(region) = objects.filter(inside) else {
                continue;
            };
            for &(q, _, queries) in &clusters {
                let Some(reach) = queries.filter(inside) else {
                    continue;
                };
                if region.overlaps(&reach) {
                    assert!(
                        (0..g.spec().cell_count())
                            .any(|c| in_cell(c, Side::Object, o) && in_cell(c, Side::Query, q)),
                        "overlapping {o:?} → {q:?} share no cell"
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
    /// A mixed cluster can be listed on its wider query side only.
    #[test]
    fn out_of_area_region_occupies_no_cell_but_counts() {
        let mut g = grid();
        let nan_radius = Circle {
            center: Point::new(50.0, 50.0),
            radius: f64::NAN,
        };
        let at = |x, y, r| Some(Circle::new(Point::new(x, y), r));
        g.build([
            (ClusterSlot(1), at(55.0, 55.0, 3.0), None),
            (ClusterSlot(3), None, at(500.0, 500.0, 2.0)),
            (ClusterSlot(4), at(50.0, 120.0, 5.0), None),
            (ClusterSlot(5), at(105.0, 50.0, 5.0), at(105.0, 50.0, 5.0)),
            (ClusterSlot(6), at(f64::NAN, 50.0, 2.0), None),
            (ClusterSlot(7), None, Some(nan_radius)),
            (ClusterSlot(8), at(-3.0, 55.0, 2.0), at(-3.0, 55.0, 4.0)),
        ]);
        assert_eq!(g.cluster_count(), 7);
        for slot in [3, 4, 6, 7] {
            for side in [Side::Object, Side::Query] {
                assert!(!g.lists(ClusterSlot(slot), side), "slot {slot}");
            }
        }
        assert!(!g.lists(ClusterSlot(8), Side::Object));
        assert_eq!(g.cells_of(ClusterSlot(8), Side::Query), [50]);
        assert!(!g.lists(ClusterSlot(9), Side::Query), "past the last slot");
        assert_eq!(g.cells_of(ClusterSlot(5), Side::Object), [49, 59]);
        assert_eq!(
            g.listing(),
            [
                (49, Side::Query, ClusterSlot(5)),
                (49, Side::Object, ClusterSlot(5)),
                (50, Side::Query, ClusterSlot(8)),
                (55, Side::Object, ClusterSlot(1)),
                (59, Side::Query, ClusterSlot(5)),
                (59, Side::Object, ClusterSlot(5)),
            ]
        );
    }

    #[test]
    fn rebuild_after_slot_reuse_leaves_no_trace() {
        let mut g = grid();
        let mut clusters = with_roles(&scatter(64));
        g.build(clusters.iter().copied());
        // Slot 5 (a mixed hotspot cluster near (20, 20)) dissolves, slot 9
        // too, and slot 5 is re-founded near (80, 80) as objects only.
        let (victim, _, old) = clusters[5];
        clusters.remove(9);
        clusters[5] = (victim, Some(Circle::new(Point::new(80.0, 80.0), 1.0)), None);
        g.build(clusters.iter().copied());
        assert_eq!(g.cluster_count(), 63);
        let spec = *g.spec();
        for side in [Side::Object, Side::Query] {
            assert!(!g.lists(ClusterSlot(9), side));
        }
        assert!(!g.lists(victim, Side::Query));
        assert_eq!(
            g.cells_of(victim, Side::Object),
            expected_cells(&spec, &clusters[5].1.unwrap())
        );
        let listing = g.listing();
        for cell in expected_cells(&spec, &old.unwrap()) {
            assert!(!listing.contains(&(cell, Side::Query, victim)));
        }
        g.build(std::iter::empty());
        assert_eq!(g.cluster_count(), 0);
        assert!(g.listing().is_empty());
    }

    /// The steady-state contract: rebuilding the same set reuses every
    /// buffer, and the footprint counts the boxes.
    #[test]
    fn second_build_of_the_same_set_allocates_nothing() {
        let mut g = grid();
        let empty = g.estimated_bytes();
        g.build(with_roles(&scatter(64)));
        let settled = g.estimated_bytes();
        assert!(settled > empty);
        assert!(
            settled >= empty + g.listing().len() * 4 + 64 * 16,
            "entries and boxes counted"
        );
        let before = g.clone();
        for _ in 0..3 {
            g.build(with_roles(&scatter(64)));
            assert_eq!(g.estimated_bytes(), settled);
            assert_eq!(g.entries, before.entries);
            assert_eq!(g.offsets, before.offsets);
        }
    }
}
