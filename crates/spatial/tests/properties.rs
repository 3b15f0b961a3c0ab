//! Property-based tests for the spatial substrate.

use scuba_spatial::{CellIdx, Circle, GridSpec, Point, Rect};
use scuba_testkit::{check, Xoshiro256};

/// Cases per property.
const CASES: u32 = 256;

fn point(rng: &mut Xoshiro256) -> Point {
    Point::new(rng.gen_range(-1e4..1e4), rng.gen_range(-1e4..1e4))
}

fn circle(rng: &mut Xoshiro256) -> Circle {
    let center = point(rng);
    Circle::new(center, rng.gen_range(0.0..500.0))
}

// ---- circles -----------------------------------------------------------

#[test]
fn overlap_symmetric() {
    check("overlap_symmetric", CASES, |rng| {
        let (a, b) = (circle(rng), circle(rng));
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
    });
}

#[test]
fn self_overlap() {
    check("self_overlap", CASES, |rng| {
        let a = circle(rng);
        assert!(a.overlaps(&a));
    });
}

#[test]
fn shared_point_implies_overlap() {
    check("shared_point_implies_overlap", CASES, |rng| {
        let (a, b) = (circle(rng), circle(rng));
        // If a point on the segment between centers lies in both disks the
        // predicate must be true.
        let p = a.center.lerp(&b.center, rng.gen_range(0.0..1.0));
        if a.contains(&p) && b.contains(&p) {
            assert!(a.overlaps(&b));
        }
    });
}

#[test]
fn bounding_rect_contains_disk_points() {
    check("bounding_rect_contains_disk_points", CASES, |rng| {
        let c = circle(rng);
        let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let p = Point::new(
            c.center.x + c.radius * theta.cos(),
            c.center.y + c.radius * theta.sin(),
        );
        assert!(c.bounding_rect().inflate(1e-9).contains(&p));
    });
}

// ---- grid ----------------------------------------------------------------

#[test]
fn grid_cell_contains_point() {
    check("grid_cell_contains_point", CASES, |rng| {
        let n: u32 = rng.gen_range(1..64);
        let spec = GridSpec::new(Rect::square(1000.0), n);
        let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
        let cell = spec.cell_of(&p);
        let w = spec.cell_width(); // square area: square cells
        let (x0, y0) = (cell.col as f64 * w, cell.row as f64 * w);
        assert!(
            x0 - 1e-9 <= p.x && p.x <= x0 + w + 1e-9,
            "{p:?} in {cell:?}"
        );
        assert!(
            y0 - 1e-9 <= p.y && p.y <= y0 + w + 1e-9,
            "{p:?} in {cell:?}"
        );
    });
}

#[test]
fn grid_linear_bijection() {
    check("grid_linear_bijection", CASES, |rng| {
        let spec = GridSpec::new(Rect::square(10.0), rng.gen_range(1..40));
        let mut seen = std::collections::HashSet::new();
        let n = spec.cells_per_side();
        for cell in (0..n).flat_map(|row| (0..n).map(move |col| CellIdx::new(col, row))) {
            let lin = spec.linear(cell);
            assert!(lin < spec.cell_count());
            assert!(seen.insert(lin), "duplicate linear index");
        }
        assert_eq!(seen.len(), spec.cell_count());
    });
}
