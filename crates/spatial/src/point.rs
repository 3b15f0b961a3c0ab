//! Cartesian points and vectors.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::units::{approx_eq, Distance};

/// A position in the 2-D plane, in spatial units.
///
/// # Examples
///
/// ```
/// use scuba_spatial::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(&b), 5.0);
/// assert!(a.midpoint(&b).approx_eq(&Point::new(1.5, 2.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement in the 2-D plane, in spatial units.
///
/// SCUBA uses vectors for cluster velocity ("velocity vector", paper Fig. 2)
/// and for the *transformation vector* that records centroid drift between
/// periodic executions (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component.
    pub dx: f64,
    /// Vertical component.
    pub dy: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> Distance {
        self.distance_sq(other).sqrt()
    }

    /// Squared euclidean distance to `other`.
    ///
    /// Preferred in hot predicates (grid probing, Θ_D checks, the
    /// join-between overlap test of Algorithm 2) because it avoids the
    /// square root.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    ///
    /// This is the primitive behind the piecewise-linear motion model of
    /// paper §2: a moving object's position between two connection nodes is
    /// the interpolation along the road segment.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// Component-wise midpoint.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Returns `true` when both coordinates match within the crate
    /// tolerance.
    #[inline]
    pub fn approx_eq(&self, other: &Point) -> bool {
        approx_eq(self.x, other.x) && approx_eq(self.y, other.y)
    }
}

impl Vector {
    /// The zero displacement.
    pub const ZERO: Vector = Vector { dx: 0.0, dy: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(dx: f64, dy: f64) -> Self {
        Vector { dx, dy }
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.dx * self.dx + self.dy * self.dy).sqrt()
    }

    /// Returns the unit vector in this direction, or `None` for the zero
    /// vector.
    #[inline]
    fn normalized(&self) -> Option<Vector> {
        let n = self.norm();
        if n == 0.0 {
            None
        } else {
            Some(Vector {
                dx: self.dx / n,
                dy: self.dy / n,
            })
        }
    }

    /// Scales the vector so its length is `len`, or returns zero for the
    /// zero vector.
    #[inline]
    pub fn with_length(&self, len: f64) -> Vector {
        match self.normalized() {
            Some(u) => u * len,
            None => Vector::ZERO,
        }
    }

    /// Returns `true` when both components match within the crate tolerance.
    #[inline]
    pub fn approx_eq(&self, other: &Vector) -> bool {
        approx_eq(self.dx, other.dx) && approx_eq(self.dy, other.dy)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, v: Vector) -> Point {
        Point {
            x: self.x + v.dx,
            y: self.y + v.dy,
        }
    }
}

impl AddAssign<Vector> for Point {
    #[inline]
    fn add_assign(&mut self, v: Vector) {
        self.x += v.dx;
        self.y += v.dy;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, v: Vector) -> Point {
        Point {
            x: self.x - v.dx,
            y: self.y - v.dy,
        }
    }
}

impl SubAssign<Vector> for Point {
    #[inline]
    fn sub_assign(&mut self, v: Vector) {
        self.x -= v.dx;
        self.y -= v.dy;
    }
}

impl Sub<Point> for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, other: Point) -> Vector {
        Vector {
            dx: self.x - other.x,
            dy: self.y - other.y,
        }
    }
}

impl Add for Vector {
    type Output = Vector;
    #[inline]
    fn add(self, other: Vector) -> Vector {
        Vector {
            dx: self.dx + other.dx,
            dy: self.dy + other.dy,
        }
    }
}

impl AddAssign for Vector {
    #[inline]
    fn add_assign(&mut self, other: Vector) {
        self.dx += other.dx;
        self.dy += other.dy;
    }
}

impl Sub for Vector {
    type Output = Vector;
    #[inline]
    fn sub(self, other: Vector) -> Vector {
        Vector {
            dx: self.dx - other.dx,
            dy: self.dy - other.dy,
        }
    }
}

impl Neg for Vector {
    type Output = Vector;
    #[inline]
    fn neg(self) -> Vector {
        Vector {
            dx: -self.dx,
            dy: -self.dy,
        }
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, s: f64) -> Vector {
        Vector {
            dx: self.dx * s,
            dy: self.dy * s,
        }
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn div(self, s: f64) -> Vector {
        Vector {
            dx: self.dx / s,
            dy: self.dy / s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn distance_symmetric() {
        let a = Point::new(-2.0, 7.5);
        let b = Point::new(10.0, -3.25);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert!(a.lerp(&b, 0.0).approx_eq(&a));
        assert!(a.lerp(&b, 1.0).approx_eq(&b));
        assert!(a.midpoint(&b).approx_eq(&Point::new(5.0, 10.0)));
    }

    #[test]
    fn point_vector_arithmetic_roundtrip() {
        let p = Point::new(1.0, 2.0);
        let v = Vector::new(3.0, -4.0);
        let q = p + v;
        assert!((q - p).approx_eq(&v));
        assert!((q - v).approx_eq(&p));
    }

    #[test]
    fn vector_norm() {
        assert_eq!(Vector::new(3.0, 4.0).norm(), 5.0);
    }

    #[test]
    fn normalized_unit_length() {
        let v = Vector::new(10.0, 0.0);
        let u = v.normalized().unwrap();
        assert!(u.approx_eq(&Vector::new(1.0, 0.0)));
        assert!(Vector::ZERO.normalized().is_none());
    }

    #[test]
    fn with_length_rescales() {
        let v = Vector::new(0.0, 2.0);
        assert!(v.with_length(7.0).approx_eq(&Vector::new(0.0, 7.0)));
        assert!(Vector::ZERO.with_length(7.0).approx_eq(&Vector::ZERO));
    }

    #[test]
    fn scalar_ops() {
        let v = Vector::new(2.0, -6.0);
        assert!((v * 0.5).approx_eq(&Vector::new(1.0, -3.0)));
        assert!((v / 2.0).approx_eq(&Vector::new(1.0, -3.0)));
        assert!((-v).approx_eq(&Vector::new(-2.0, 6.0)));
    }
}
