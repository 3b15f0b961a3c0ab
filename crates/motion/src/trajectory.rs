//! Piecewise-linear motion along a polyline of connection nodes.
//!
//! Paper §2: objects "move in a piecewise linear manner in a road network".
//! A [`PiecewiseMotion`] walks a precomputed route (a polyline of connection
//! node positions) at a constant speed, crossing leg boundaries within a
//! single step when the step distance spans several short legs. The
//! current *target* waypoint is the entity's `cnloc`.

use scuba_spatial::{Point, Speed};

/// Errors constructing a motion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MotionError {
    /// The waypoint list was empty.
    NoWaypoints,
    /// The speed was negative or non-finite.
    BadSpeed,
}

impl std::fmt::Display for MotionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MotionError::NoWaypoints => write!(f, "motion requires at least one waypoint"),
            MotionError::BadSpeed => write!(f, "speed must be finite and non-negative"),
        }
    }
}

impl std::error::Error for MotionError {}

/// State of an entity moving along a fixed polyline at constant speed.
///
/// # Examples
///
/// ```
/// use scuba_motion::PiecewiseMotion;
/// use scuba_spatial::Point;
///
/// // An L-shaped trip: 10 units east, then 10 units north, at speed 2.
/// let mut m = PiecewiseMotion::new(
///     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(10.0, 10.0)],
///     2.0,
/// ).unwrap();
///
/// m.advance(6.0); // 12 units: crosses the corner
/// assert!(m.position().approx_eq(&Point::new(10.0, 2.0)));
/// assert!(m.cn_loc().approx_eq(&Point::new(10.0, 10.0))); // next connection node
/// assert!(m.advance(10.0)); // arrives
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseMotion {
    waypoints: Vec<Point>,
    /// Index of the waypoint currently being approached. When
    /// `next_idx == waypoints.len()` the motion has arrived.
    next_idx: usize,
    pos: Point,
    speed: Speed,
}

impl PiecewiseMotion {
    /// Creates a motion starting at the first waypoint.
    pub fn new(waypoints: Vec<Point>, speed: Speed) -> Result<Self, MotionError> {
        if waypoints.is_empty() {
            return Err(MotionError::NoWaypoints);
        }
        if !speed.is_finite() || speed < 0.0 {
            return Err(MotionError::BadSpeed);
        }
        let pos = waypoints[0];
        Ok(PiecewiseMotion {
            waypoints,
            next_idx: 1,
            pos,
            speed,
        })
    }

    /// Current position.
    #[inline]
    pub fn position(&self) -> Point {
        self.pos
    }

    /// Current speed.
    #[inline]
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// The connection node currently being approached — the entity's
    /// `cnloc`. After arrival this stays at the final waypoint (the paper's
    /// generator immediately re-routes arrived objects; until then the
    /// destination *is* the current node).
    #[inline]
    pub fn cn_loc(&self) -> Point {
        let idx = self.next_idx.min(self.waypoints.len() - 1);
        self.waypoints[idx]
    }

    /// Whether the final waypoint has been reached.
    #[inline]
    pub fn arrived(&self) -> bool {
        self.next_idx >= self.waypoints.len()
    }

    /// The full waypoint list.
    #[inline]
    pub fn waypoints(&self) -> &[Point] {
        &self.waypoints
    }

    /// Advances the motion by `dt` time units, crossing as many legs as the
    /// travelled distance covers. Returns `true` if the entity arrived at
    /// (or was already at) the final waypoint during this step.
    pub fn advance(&mut self, dt: f64) -> bool {
        let mut budget = self.speed * dt.max(0.0);
        while self.next_idx < self.waypoints.len() {
            let target = self.waypoints[self.next_idx];
            let leg = self.pos.distance(&target);
            if budget < leg {
                // Partial progress along the current leg.
                if leg > 0.0 {
                    self.pos = self.pos.lerp(&target, budget / leg);
                }
                return false;
            }
            budget -= leg;
            self.pos = target;
            self.next_idx += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> PiecewiseMotion {
        // 0,0 -> 10,0 -> 10,10
        PiecewiseMotion::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
            ],
            2.0,
        )
        .unwrap()
    }

    #[test]
    fn starts_at_first_waypoint() {
        let m = l_shape();
        assert!(m.position().approx_eq(&Point::new(0.0, 0.0)));
        assert!(m.cn_loc().approx_eq(&Point::new(10.0, 0.0)));
        assert!(!m.arrived());
    }

    #[test]
    fn advances_within_leg() {
        let mut m = l_shape();
        assert!(!m.advance(2.0)); // 4 units
        assert!(m.position().approx_eq(&Point::new(4.0, 0.0)));
        assert!(m.cn_loc().approx_eq(&Point::new(10.0, 0.0)));
    }

    #[test]
    fn crosses_leg_boundary_in_one_step() {
        let mut m = l_shape();
        assert!(!m.advance(6.0)); // 12 units: 10 on leg 1, 2 on leg 2
        assert!(m.position().approx_eq(&Point::new(10.0, 2.0)));
        assert!(m.cn_loc().approx_eq(&Point::new(10.0, 10.0)));
    }

    #[test]
    fn exact_landing_on_node_switches_target() {
        let mut m = l_shape();
        assert!(!m.advance(5.0)); // exactly 10 units
        assert!(m.position().approx_eq(&Point::new(10.0, 0.0)));
        assert!(m.cn_loc().approx_eq(&Point::new(10.0, 10.0)));
    }

    #[test]
    fn arrives_and_clamps() {
        let mut m = l_shape();
        assert!(m.advance(100.0));
        assert!(m.arrived());
        assert!(m.position().approx_eq(&Point::new(10.0, 10.0)));
        assert!(m.cn_loc().approx_eq(&Point::new(10.0, 10.0)));
        // Further advancing is a no-op that still reports arrival.
        assert!(m.advance(1.0));
        assert!(m.position().approx_eq(&Point::new(10.0, 10.0)));
    }

    #[test]
    fn multi_step_equals_single_step() {
        let mut a = l_shape();
        let mut b = l_shape();
        a.advance(7.3);
        for _ in 0..73 {
            b.advance(0.1);
        }
        assert!(a.position().distance(&b.position()) < 1e-9);
    }

    #[test]
    fn zero_speed_never_moves() {
        let mut m = PiecewiseMotion::new(vec![Point::ORIGIN, Point::new(5.0, 0.0)], 0.0).unwrap();
        assert!(!m.advance(100.0));
        assert!(m.position().approx_eq(&Point::ORIGIN));
    }

    #[test]
    fn single_waypoint_is_arrived() {
        let m = PiecewiseMotion::new(vec![Point::new(3.0, 4.0)], 1.0).unwrap();
        assert!(m.arrived());
        assert!(m.cn_loc().approx_eq(&Point::new(3.0, 4.0)));
    }

    #[test]
    fn constructor_validation() {
        assert_eq!(
            PiecewiseMotion::new(vec![], 1.0),
            Err(MotionError::NoWaypoints)
        );
        assert_eq!(
            PiecewiseMotion::new(vec![Point::ORIGIN], -1.0),
            Err(MotionError::BadSpeed)
        );
        assert_eq!(
            PiecewiseMotion::new(vec![Point::ORIGIN], f64::NAN),
            Err(MotionError::BadSpeed)
        );
    }

    #[test]
    fn duplicate_waypoints_are_crossed() {
        let mut m = PiecewiseMotion::new(
            vec![Point::ORIGIN, Point::ORIGIN, Point::new(2.0, 0.0)],
            1.0,
        )
        .unwrap();
        assert!(!m.advance(1.0));
        assert!(m.position().approx_eq(&Point::new(1.0, 0.0)));
    }

    #[test]
    fn negative_dt_is_clamped() {
        let mut m = l_shape();
        m.advance(-5.0);
        assert!(m.position().approx_eq(&Point::new(0.0, 0.0)));
    }
}
