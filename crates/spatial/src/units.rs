//! Unit types shared across the workspace.
//!
//! The paper measures space in abstract *spatial units* and time in abstract
//! *time units* (location updates arrive every time unit; queries are
//! evaluated every Δ time units). We keep both as plain newtypes-by-alias:
//! distances and speeds are `f64` (sub-unit precision is needed for
//! interpolated positions along road segments), while the logical clock is a
//! monotonically increasing `u64` tick counter.

/// A distance in spatial units.
pub type Distance = f64;

/// A speed in spatial units per time unit.
pub type Speed = f64;

/// A point in logical time, counted in whole time units since simulation
/// start.
pub type Time = u64;

/// A span of logical time in whole time units (e.g. the evaluation interval
/// Δ of the paper, default 2).
pub type TimeDelta = u64;

/// Relative tolerance used by the crate's approximate float comparisons.
const EPSILON: f64 = 1e-9;

/// Returns `true` when two floats are equal within `EPSILON` (1e-9) scaled by the
/// magnitude of the operands (plus an absolute floor for values near zero).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPSILON || diff <= EPSILON * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(0.0, 0.0));
    }

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(approx_eq(1e12, 1e12 + 1.0e2));
    }

    #[test]
    fn approx_eq_rejects_distinct() {
        assert!(!approx_eq(1.0, 1.1));
        assert!(!approx_eq(0.0, 1e-3));
    }

    #[test]
    fn approx_eq_symmetric() {
        assert_eq!(approx_eq(3.25, 3.25 + 1e-10), approx_eq(3.25 + 1e-10, 3.25));
    }
}
