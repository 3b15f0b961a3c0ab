//! Axis-aligned rectangles.
//!
//! Rectangles model (a) the coverage area of the whole data space (the city
//! extent the grid index divides into N×N cells) and (b) the region of a
//! continuous *range query*: the paper's queries carry a `size of the range
//! query` attribute (§2), i.e. a rectangle centred on the query's moving
//! position.

use crate::point::Point;

/// An axis-aligned rectangle given by its min/max corners.
///
/// Invariant: `min.x <= max.x && min.y <= max.y` (enforced by constructors).
///
/// # Examples
///
/// A range query region centred on a moving query's position:
///
/// ```
/// use scuba_spatial::{Point, Rect};
///
/// let region = Rect::centered(Point::new(500.0, 500.0), 50.0, 50.0);
/// assert!(region.contains(&Point::new(480.0, 520.0)));
/// assert!(!region.contains(&Point::new(400.0, 500.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (in any order).
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle centred on `center` with the given full width and
    /// height. Negative extents are clamped to zero.
    #[inline]
    pub fn centered(center: Point, width: f64, height: f64) -> Self {
        let hw = (width.max(0.0)) / 2.0;
        let hh = (height.max(0.0)) / 2.0;
        Rect {
            min: Point::new(center.x - hw, center.y - hh),
            max: Point::new(center.x + hw, center.y + hh),
        }
    }

    /// The rectangle `[0, side] × [0, side]`.
    #[inline]
    pub fn square(side: f64) -> Self {
        Rect::from_corners(Point::ORIGIN, Point::new(side.max(0.0), side.max(0.0)))
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric center.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// Whether `p` lies inside or on the boundary (false when any
    /// coordinate involved is NaN).
    ///
    /// The four comparisons are combined with `&`, not `&&`: the answer is
    /// the same for every input, and the test compiles without a branch
    /// per comparison, which keeps join-within's product loop flat.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        (p.x >= self.min.x) & (p.x <= self.max.x) & (p.y >= self.min.y) & (p.y <= self.max.y)
    }

    /// The point of `self` closest to `p`.
    #[inline]
    pub fn clamp_point(&self, p: &Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// The smallest rectangle containing both inputs.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Grows the rectangle by `margin` on every side (shrinks for negative
    /// margins; collapses to a degenerate rectangle at the center rather
    /// than inverting).
    #[inline]
    pub fn inflate(&self, margin: f64) -> Rect {
        let c = self.center();
        let hw = (self.width() / 2.0 + margin).max(0.0);
        let hh = (self.height() / 2.0 + margin).max(0.0);
        Rect::centered(c, hw * 2.0, hh * 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_corners_normalises() {
        let r = Rect::from_corners(Point::new(5.0, -1.0), Point::new(-2.0, 4.0));
        assert_eq!(r.min, Point::new(-2.0, -1.0));
        assert_eq!(r.max, Point::new(5.0, 4.0));
    }

    #[test]
    fn centered_dimensions() {
        let r = Rect::centered(Point::new(10.0, 10.0), 4.0, 6.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 6.0);
        assert!(r.center().approx_eq(&Point::new(10.0, 10.0)));
    }

    #[test]
    fn contains_boundary_inclusive() {
        let r = Rect::square(10.0);
        assert!(r.contains(&Point::new(0.0, 0.0)));
        assert!(r.contains(&Point::new(10.0, 10.0)));
        assert!(r.contains(&Point::new(5.0, 5.0)));
        assert!(!r.contains(&Point::new(10.000001, 5.0)));
    }

    /// The non-short-circuit `contains` answers as the `&&` chain does, on
    /// every combination of signed zeros, infinities, NaN and subnormals —
    /// inverted rectangles included.
    #[test]
    fn contains_matches_the_short_circuit_form() {
        let sub = f64::from_bits(1);
        let values = [
            f64::NEG_INFINITY,
            -1.0,
            -sub,
            -0.0,
            0.0,
            sub,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for &x0 in &values {
            for &x1 in &values {
                for &y0 in &values {
                    for &y1 in &values {
                        let r = Rect {
                            min: Point::new(x0, y0),
                            max: Point::new(x1, y1),
                        };
                        for &px in &values {
                            for &py in &values {
                                let short = px >= x0 && px <= x1 && py >= y0 && py <= y1;
                                assert_eq!(
                                    r.contains(&Point::new(px, py)),
                                    short,
                                    "{r:?} ∋ ({px}, {py})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::square(1.0);
        let b = Rect::from_corners(Point::new(5.0, 5.0), Point::new(6.0, 7.0));
        let u = a.union(&b);
        assert_eq!(u, Rect::from_corners(Point::ORIGIN, Point::new(6.0, 7.0)));
    }

    #[test]
    fn inflate_and_deflate() {
        let r = Rect::square(10.0);
        let grown = r.inflate(2.0);
        assert_eq!(grown.width(), 14.0);
        let shrunk = r.inflate(-6.0);
        assert_eq!(shrunk.width(), 0.0);
        assert!(shrunk.center().approx_eq(&r.center()));
    }

    #[test]
    fn clamp_point_projects() {
        let r = Rect::square(10.0);
        assert!(r
            .clamp_point(&Point::new(-5.0, 5.0))
            .approx_eq(&Point::new(0.0, 5.0)));
        assert!(r
            .clamp_point(&Point::new(3.0, 4.0))
            .approx_eq(&Point::new(3.0, 4.0)));
    }

    #[test]
    fn area_and_degenerate() {
        assert_eq!(Rect::square(3.0).area(), 9.0);
        assert_eq!(Rect::centered(Point::ORIGIN, 0.0, 5.0).area(), 0.0);
        assert_eq!(Rect::centered(Point::ORIGIN, -3.0, 5.0).width(), 0.0);
    }
}
