//! Circles — the shape of a moving cluster.
//!
//! A moving cluster in SCUBA is a circular region around the centroid with a
//! radius that grows as members join (paper §3.1, Fig. 2). The
//! **join-between** pre-filter of Algorithm 2 is a circle/circle overlap
//! test between two clusters' regions.
//!
//! Note on Algorithm 2: the paper's listing tests
//! `dist² < (R_L − R_R)²`, which is the *containment* distance, not the
//! overlap distance — with that test two clearly separated circles would
//! pass and two overlapping ones could fail. The standard overlap predicate
//! is `dist² ≤ (R_L + R_R)²`, which is also the only reading consistent with
//! the prose ("checks if the circular regions of the two clusters overlap")
//! and with Fig. 7's example. We implement the sum form
//! ([`Circle::overlaps`]).

use crate::point::Point;
use crate::rect::Rect;

/// A circle given by center and radius.
///
/// Invariant: `radius >= 0` (enforced by [`Circle::new`]).
///
/// # Examples
///
/// The join-between pre-filter in two lines:
///
/// ```
/// use scuba_spatial::{Circle, Point};
///
/// let cluster_a = Circle::new(Point::new(0.0, 0.0), 40.0);
/// let cluster_b = Circle::new(Point::new(70.0, 0.0), 35.0);
/// assert!(cluster_a.overlaps(&cluster_b)); // 40 + 35 ≥ 70
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center point.
    pub center: Point,
    /// Radius in spatial units.
    pub radius: f64,
}

impl Circle {
    /// Creates a circle, clamping negative radii to zero.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        Circle {
            center,
            radius: radius.max(0.0),
        }
    }

    /// A degenerate circle of radius zero (how a brand-new single-member
    /// cluster starts: "the object forms its own cluster, with the centroid
    /// at the current location of the object, and the radius = 0",
    /// paper §3.2 step 2).
    #[inline]
    pub fn point(center: Point) -> Self {
        Circle {
            center,
            radius: 0.0,
        }
    }

    /// Whether `p` lies inside or on the circle.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Circle/circle overlap: do the two closed disks share any point?
    ///
    /// This is the join-between predicate (Algorithm 2, corrected to the
    /// sum-of-radii form — see the module docs).
    #[inline]
    pub fn overlaps(&self, other: &Circle) -> bool {
        let rsum = self.radius + other.radius;
        self.center.distance_sq(&other.center) <= rsum * rsum
    }

    /// The tight axis-aligned bounding box.
    #[inline]
    pub fn bounding_rect(&self) -> Rect {
        Rect::from_corners(
            Point::new(self.center.x - self.radius, self.center.y - self.radius),
            Point::new(self.center.x + self.radius, self.center.y + self.radius),
        )
    }

    /// Area of the disk.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_radius_clamped() {
        let c = Circle::new(Point::ORIGIN, -4.0);
        assert_eq!(c.radius, 0.0);
    }

    #[test]
    fn contains_boundary() {
        let c = Circle::new(Point::ORIGIN, 5.0);
        assert!(c.contains(&Point::new(3.0, 4.0)));
        assert!(c.contains(&Point::new(5.0, 0.0)));
        assert!(!c.contains(&Point::new(5.0, 0.1)));
    }

    #[test]
    fn overlaps_sum_of_radii() {
        let a = Circle::new(Point::new(0.0, 0.0), 2.0);
        let b = Circle::new(Point::new(5.0, 0.0), 3.0);
        assert!(a.overlaps(&b)); // touching at (2,0)..(2,0): 2+3 == 5
        let c = Circle::new(Point::new(5.1, 0.0), 3.0);
        assert!(!a.overlaps(&c), "2 + 3 < 5.1: gap of 0.1");
        let far = Circle::new(Point::new(10.0, 0.0), 3.0);
        assert!(!a.overlaps(&far));
    }

    #[test]
    fn overlaps_is_symmetric() {
        let a = Circle::new(Point::new(1.0, 2.0), 1.5);
        let b = Circle::new(Point::new(3.0, 4.0), 0.5);
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn paper_typo_would_misclassify() {
        // Demonstrates why Algorithm 2's printed `(R_L - R_R)^2` cannot be
        // the intended predicate: these two circles clearly overlap yet the
        // difference form rejects them.
        let a = Circle::new(Point::new(0.0, 0.0), 3.0);
        let b = Circle::new(Point::new(4.0, 0.0), 3.0);
        let dist_sq = a.center.distance_sq(&b.center);
        let printed_form = dist_sq < (a.radius - b.radius).powi(2);
        assert!(!printed_form, "printed form rejects an overlapping pair");
        assert!(a.overlaps(&b), "sum form accepts it");
    }

    #[test]
    fn bounding_rect_tight() {
        let c = Circle::new(Point::new(2.0, 3.0), 1.5);
        let r = c.bounding_rect();
        assert_eq!(r.min, Point::new(0.5, 1.5));
        assert_eq!(r.max, Point::new(3.5, 4.5));
    }

    #[test]
    fn degenerate_circles_overlap_iff_equal_center() {
        let a = Circle::point(Point::new(1.0, 1.0));
        let b = Circle::point(Point::new(1.0, 1.0));
        let c = Circle::point(Point::new(1.0, 1.0000001));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn area_of_unit_circle() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!((c.area() - std::f64::consts::PI).abs() < 1e-12);
    }
}
