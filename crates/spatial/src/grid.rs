//! The N×N uniform spatial grid index.
//!
//! Both execution strategies of the paper sit on a uniform grid over the
//! coverage area:
//!
//! * the **regular** (baseline) operator hashes every object and query into
//!   the grid by location and joins cell by cell (§6 intro);
//! * SCUBA's **ClusterGrid** (`scuba::grid`, its own flat cell array over a
//!   [`GridSpec`]) lists every moving cluster in each cell of its region's
//!   bounding box (§4.1) and drives the join-between loop over cells
//!   (Algorithm 1, step 8).
//!
//! [`GridSpec`] is the pure geometry of the partitioning (cell-of-point,
//! cell rectangles, cells-overlapping-rectangle); [`SpatialGrid`] adds
//! per-cell payload storage for the baseline. Keeping the spec separate
//! lets SCUBA and the baseline share the exact same partitioning in
//! experiments that vary the grid granularity (Fig. 9).

use crate::point::Point;
use crate::rect::Rect;

/// Identifier of one grid cell: column and row, both in `0..cells_per_side`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellIdx {
    /// Column (x direction).
    pub col: u32,
    /// Row (y direction).
    pub row: u32,
}

impl CellIdx {
    /// Creates a cell index.
    #[inline]
    pub const fn new(col: u32, row: u32) -> Self {
        CellIdx { col, row }
    }
}

/// Geometry of an N×N uniform partitioning of a rectangular area.
///
/// # Examples
///
/// ```
/// use scuba_spatial::{Circle, GridSpec, Point, Rect};
///
/// // The paper's default: a 100×100 grid over the city.
/// let spec = GridSpec::new(Rect::square(10_000.0), 100);
/// assert_eq!(spec.cell_width(), 100.0);
///
/// // The box of a Θ_D-sized probe around an update covers 3×3 cells.
/// let probe = Circle::new(Point::new(5_050.0, 5_050.0), 100.0);
/// let cells = spec.cells_overlapping_rect(&probe.bounding_rect()).count();
/// assert_eq!(cells, 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    area: Rect,
    cells_per_side: u32,
    cell_w: f64,
    cell_h: f64,
}

impl GridSpec {
    /// Creates a spec dividing `area` into `cells_per_side × cells_per_side`
    /// cells. `cells_per_side` is clamped to at least 1; degenerate areas
    /// (zero width/height) produce cells of zero extent that still index
    /// consistently.
    pub fn new(area: Rect, cells_per_side: u32) -> Self {
        let n = cells_per_side.max(1);
        GridSpec {
            area,
            cells_per_side: n,
            cell_w: area.width() / n as f64,
            cell_h: area.height() / n as f64,
        }
    }

    /// The covered area.
    #[inline]
    pub fn area(&self) -> Rect {
        self.area
    }

    /// Number of cells per side (the N of N×N).
    #[inline]
    pub fn cells_per_side(&self) -> u32 {
        self.cells_per_side
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.cells_per_side as usize) * (self.cells_per_side as usize)
    }

    /// Width of one cell.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.cell_w
    }

    /// The cell containing `p`. Points outside the area are clamped to the
    /// nearest border cell, so every point maps to a valid cell (objects can
    /// momentarily overshoot the map while travelling toward an off-grid
    /// destination; dropping them would silently lose updates).
    #[inline]
    pub fn cell_of(&self, p: &Point) -> CellIdx {
        CellIdx {
            col: self.axis_cell(p.x - self.area.min.x, self.cell_w),
            row: self.axis_cell(p.y - self.area.min.y, self.cell_h),
        }
    }

    #[inline]
    fn axis_cell(&self, offset: f64, cell_extent: f64) -> u32 {
        if cell_extent <= 0.0 {
            return 0;
        }
        let idx = (offset / cell_extent).floor();
        if idx < 0.0 {
            0
        } else {
            (idx as u32).min(self.cells_per_side - 1)
        }
    }

    /// Linearised index of a cell (row-major).
    #[inline]
    pub fn linear(&self, idx: CellIdx) -> usize {
        (idx.row as usize) * (self.cells_per_side as usize) + idx.col as usize
    }

    /// Inverse of [`GridSpec::linear`].
    #[inline]
    fn cell_at(&self, linear: usize) -> CellIdx {
        let n = self.cells_per_side as usize;
        CellIdx {
            col: (linear % n) as u32,
            row: (linear / n) as u32,
        }
    }

    /// Iterates over the cells whose rectangles intersect `rect`
    /// (clamped to the grid area).
    pub fn cells_overlapping_rect(&self, rect: &Rect) -> impl Iterator<Item = CellIdx> + '_ {
        let lo = self.cell_of(&rect.min);
        let hi = self.cell_of(&rect.max);
        (lo.row..=hi.row)
            .flat_map(move |row| (lo.col..=hi.col).map(move |col| CellIdx { col, row }))
    }
}

/// A grid index with a `Vec<T>` payload per cell.
///
/// `T` is small and cheap to copy in practice (entity ids); a rectangle
/// insertion clones the value into every overlapped cell.
#[derive(Debug, Clone)]
pub struct SpatialGrid<T> {
    spec: GridSpec,
    cells: Vec<Vec<T>>,
    entries: usize,
}

impl<T: Clone> SpatialGrid<T> {
    /// Creates an empty grid with the given partitioning.
    pub fn new(spec: GridSpec) -> Self {
        SpatialGrid {
            spec,
            cells: vec![Vec::new(); spec.cell_count()],
            entries: 0,
        }
    }

    /// The partitioning geometry.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Inserts a value into the single cell containing `p`.
    #[inline]
    pub fn insert_at(&mut self, p: &Point, value: T) -> CellIdx {
        let idx = self.spec.cell_of(p);
        let linear = self.spec.linear(idx);
        self.cells[linear].push(value);
        self.entries += 1;
        idx
    }

    /// Inserts a value into every cell the rectangle overlaps.
    pub fn insert_rect(&mut self, rect: &Rect, value: T) -> usize {
        let targets: Vec<usize> = self
            .spec
            .cells_overlapping_rect(rect)
            .map(|idx| self.spec.linear(idx))
            .collect();
        let count = targets.len();
        for linear in targets {
            self.cells[linear].push(value.clone());
        }
        self.entries += count;
        count
    }

    /// The payload of one cell.
    #[inline]
    pub fn cell(&self, idx: CellIdx) -> &[T] {
        &self.cells[self.spec.linear(idx)]
    }

    /// Iterates `(cell, payload)` over non-empty cells.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (CellIdx, &[T])> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(move |(linear, v)| (self.spec.cell_at(linear), v.as_slice()))
    }

    /// Total number of stored entries (counting one per overlapped cell).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Removes all entries, keeping cell allocations for reuse (the grids
    /// are rebuilt every evaluation interval; reusing capacity avoids a
    /// re-allocation storm each Δ).
    pub fn clear(&mut self) {
        for cell in &mut self.cells {
            cell.clear();
        }
        self.entries = 0;
    }

    /// Estimated heap footprint in bytes: per-cell vector headers plus
    /// entry payloads. Used by the memory-consumption experiment (Fig. 9b).
    pub fn estimated_bytes(&self) -> usize {
        let header = std::mem::size_of::<Vec<T>>();
        let item = std::mem::size_of::<T>();
        self.cells.len() * header
            + self
                .cells
                .iter()
                .map(|c| c.capacity() * item)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: u32) -> GridSpec {
        GridSpec::new(Rect::square(100.0), n)
    }

    #[test]
    fn cell_of_interior_points() {
        let s = spec(10); // 10x10 cells of 10x10 units
        assert_eq!(s.cell_of(&Point::new(0.0, 0.0)), CellIdx::new(0, 0));
        assert_eq!(s.cell_of(&Point::new(15.0, 25.0)), CellIdx::new(1, 2));
        assert_eq!(s.cell_of(&Point::new(99.9, 99.9)), CellIdx::new(9, 9));
    }

    #[test]
    fn cell_of_boundary_and_outside_clamps() {
        let s = spec(10);
        assert_eq!(s.cell_of(&Point::new(100.0, 100.0)), CellIdx::new(9, 9));
        assert_eq!(s.cell_of(&Point::new(-5.0, 50.0)), CellIdx::new(0, 5));
        assert_eq!(s.cell_of(&Point::new(500.0, -500.0)), CellIdx::new(9, 0));
    }

    #[test]
    fn linear_roundtrip() {
        let s = spec(7);
        for linear in 0..s.cell_count() {
            assert_eq!(s.linear(s.cell_at(linear)), linear);
        }
    }

    #[test]
    fn cells_overlapping_rect_counts() {
        let s = spec(10);
        let r = Rect::from_corners(Point::new(5.0, 5.0), Point::new(25.0, 15.0));
        let cells: Vec<_> = s.cells_overlapping_rect(&r).collect();
        // spans columns 0..=2 and rows 0..=1 => 6 cells
        assert_eq!(cells.len(), 6);
    }

    #[test]
    fn insert_at_and_query() {
        let mut g: SpatialGrid<u64> = SpatialGrid::new(spec(10));
        let idx = g.insert_at(&Point::new(12.0, 34.0), 7);
        assert_eq!(idx, CellIdx::new(1, 3));
        assert_eq!(g.cell(idx), &[7]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn insert_rect_replicates_per_cell() {
        let mut g: SpatialGrid<u64> = SpatialGrid::new(spec(10));
        let r = Rect::from_corners(Point::new(0.0, 0.0), Point::new(19.0, 9.0));
        let n = g.insert_rect(&r, 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut g: SpatialGrid<u64> = SpatialGrid::new(spec(4));
        for i in 0..100 {
            g.insert_at(&Point::new((i % 10) as f64 * 10.0, 5.0), i);
        }
        let bytes_before = g.estimated_bytes();
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.estimated_bytes(), bytes_before, "capacity preserved");
    }

    #[test]
    fn one_cell_grid_absorbs_everything() {
        let s = spec(1);
        assert_eq!(s.cell_of(&Point::new(99.0, 1.0)), CellIdx::new(0, 0));
        let mut g: SpatialGrid<u8> = SpatialGrid::new(s);
        g.insert_rect(&Rect::square(1000.0), 1);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn zero_cells_clamped_to_one() {
        let s = GridSpec::new(Rect::square(10.0), 0);
        assert_eq!(s.cells_per_side(), 1);
        assert_eq!(s.cell_count(), 1);
    }

    #[test]
    fn degenerate_area() {
        let s = GridSpec::new(Rect::from_corners(Point::ORIGIN, Point::ORIGIN), 5);
        assert_eq!(s.cell_of(&Point::new(0.0, 0.0)), CellIdx::new(0, 0));
        assert_eq!(s.cell_of(&Point::new(3.0, -3.0)), CellIdx::new(0, 0));
    }

    #[test]
    fn estimated_bytes_grows_with_entries() {
        let mut g: SpatialGrid<u64> = SpatialGrid::new(spec(10));
        let empty = g.estimated_bytes();
        for i in 0..1000u64 {
            g.insert_at(&Point::new((i % 100) as f64, (i / 100) as f64), i);
        }
        assert!(g.estimated_bytes() > empty);
    }
}
