//! Workload-generator configuration.

use scuba_roadnet::RouteMetric;

/// Parameters of a generated workload.
///
/// Defaults mirror the paper's experimental settings (§6.1): 10 000 moving
/// objects, 10 000 range queries, every entity reporting each time unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of moving objects.
    pub num_objects: usize,
    /// Number of continuous range queries.
    pub num_queries: usize,
    /// Average number of entities sharing spatio-temporal behaviour
    /// (paper §6.3). `1` means every entity moves distinctly.
    pub skew: u32,
    /// Fraction of entities reporting per time unit, in `(0, 1]`
    /// (paper default: 1.0 — "100% of objects and queries send their
    /// location updates every time unit").
    pub update_fraction: f64,
    /// Side of the square region monitored by each range query, in spatial
    /// units.
    pub query_range_side: f64,
    /// Base speed range entities draw from, spatial units / time unit.
    /// The default 10–50 spans the local→highway speed spectrum of the
    /// road classes.
    pub speed_min: f64,
    /// Upper end of the base speed range.
    pub speed_max: f64,
    /// Per-member speed jitter inside a group, in spatial units / time
    /// unit. Must stay below the clustering speed threshold Θ_S (default
    /// Θ_S = 10) for group members to remain clusterable; default 2.0.
    pub speed_jitter: f64,
    /// Total spread of a group along its route, in spatial units —
    /// consecutive members are staggered `group_spread / skew` apart, so a
    /// group occupies the same stretch of road regardless of its size.
    /// Keep below the distance threshold Θ_D (default 100) so a group
    /// "typically may form a cluster" (paper §6.3); default 80.0.
    pub group_spread: f64,
    /// Ticks an entity rests at each destination before starting its next
    /// trip (it reports speed 0 from the node while dwelling). Default 0 —
    /// the paper's entities re-route immediately.
    pub dwell_ticks: u32,
    /// Number of spatial hotspots trips are biased towards. `0` (the
    /// default) disables hotspot skew entirely and leaves the generated
    /// stream byte-identical to the pre-hotspot generator.
    pub hotspot_count: u32,
    /// Radius of each hotspot, in spatial units: hotspot-biased draws pick
    /// among network nodes within this distance of a hotspot centre. Must
    /// be positive when `hotspot_count > 0`.
    pub hotspot_radius: f64,
    /// Fraction of spawn/destination draws routed through a hotspot, in
    /// `[0, 1]`. `1.0` sends every trip endpoint to a hotspot; `0.0` keeps
    /// draws uniform even with hotspots configured.
    pub hotspot_intensity: f64,
    /// Per-tick probability that each registered query deregisters, in
    /// `[0, 1]`. `0.0` (the default) disables query churn entirely: no
    /// churn RNG is created and the generated stream is byte-identical to
    /// the pre-churn generator. When positive, the generator emits typed
    /// `ControlOp::Deregister`/`Register` events (drained via
    /// [`WorkloadGenerator::take_controls`](crate::WorkloadGenerator::take_controls))
    /// and suppresses data-plane reports from deregistered queries so the
    /// control plane alone governs the active set.
    pub query_churn_rate: f64,
    /// Mean number of ticks a churned query stays deregistered before
    /// re-registering. Revival delays are drawn uniformly from
    /// `[1, 2·mean − 1]`, so the long-run active fraction stays near
    /// `1 / (1 + rate·mean)` of the query population. Must be ≥ 1 when
    /// churn is on; ignored (and unvalidated) when `query_churn_rate == 0`.
    pub query_lifetime_mean: f64,
    /// Metric used to route trips.
    pub route_metric: RouteMetric,
    /// RNG seed; equal configs over equal networks generate identical
    /// workloads.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_objects: 10_000,
            num_queries: 10_000,
            skew: 100,
            update_fraction: 1.0,
            query_range_side: 50.0,
            speed_min: 10.0,
            speed_max: 50.0,
            speed_jitter: 2.0,
            group_spread: 80.0,
            dwell_ticks: 0,
            hotspot_count: 0,
            hotspot_radius: 200.0,
            hotspot_intensity: 0.8,
            query_churn_rate: 0.0,
            query_lifetime_mean: 20.0,
            route_metric: RouteMetric::TravelTime,
            seed: 0x5C0B_A001,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration for unit tests and examples.
    pub fn small() -> Self {
        WorkloadConfig {
            num_objects: 60,
            num_queries: 40,
            skew: 10,
            ..Default::default()
        }
    }

    /// Returns the config with hotspot skew configured: `count` hotspots
    /// of the given `radius`, attracting an `intensity` fraction of trip
    /// endpoints. `count == 0` disables hotspots.
    pub fn with_hotspots(self, count: u32, radius: f64, intensity: f64) -> Self {
        WorkloadConfig {
            hotspot_count: count,
            hotspot_radius: radius,
            hotspot_intensity: intensity,
            ..self
        }
    }

    /// Returns the config with query churn configured: each registered
    /// query deregisters with per-tick probability `rate` and returns
    /// after a seeded delay with mean `lifetime_mean` ticks.
    /// `rate == 0.0` disables churn.
    pub fn with_query_churn(self, rate: f64, lifetime_mean: f64) -> Self {
        WorkloadConfig {
            query_churn_rate: rate,
            query_lifetime_mean: lifetime_mean,
            ..self
        }
    }

    /// Validates parameter ranges, returning a description of the first
    /// problem found. Every `f64` must be finite: NaN passes no comparison,
    /// so each check is written to fail on it.
    pub fn validate(&self) -> Result<(), String> {
        if self.skew == 0 {
            return Err("skew must be >= 1".into());
        }
        if !(self.update_fraction > 0.0 && self.update_fraction <= 1.0) {
            return Err(format!(
                "update_fraction must be in (0, 1], got {}",
                self.update_fraction
            ));
        }
        if !(self.speed_min > 0.0 && self.speed_max >= self.speed_min && self.speed_max.is_finite())
        {
            return Err(format!(
                "speed range [{}, {}] invalid",
                self.speed_min, self.speed_max
            ));
        }
        if !(self.speed_jitter >= 0.0 && self.speed_jitter.is_finite()) {
            return Err(format!(
                "speed_jitter must be finite and non-negative, got {}",
                self.speed_jitter
            ));
        }
        if !(self.group_spread >= 0.0 && self.group_spread.is_finite()) {
            return Err(format!(
                "group_spread must be finite and non-negative, got {}",
                self.group_spread
            ));
        }
        if !(self.query_range_side >= 0.0 && self.query_range_side.is_finite()) {
            return Err(format!(
                "query_range_side must be finite and non-negative, got {}",
                self.query_range_side
            ));
        }
        if self.query_churn_rate != 0.0 {
            if !(0.0..=1.0).contains(&self.query_churn_rate) {
                return Err(format!(
                    "query_churn_rate must be in [0, 1], got {}",
                    self.query_churn_rate
                ));
            }
            if !(self.query_lifetime_mean >= 1.0 && self.query_lifetime_mean.is_finite()) {
                return Err(format!(
                    "query_lifetime_mean must be >= 1 when churn is on, got {}",
                    self.query_lifetime_mean
                ));
            }
        }
        if self.hotspot_count > 0 {
            if !(self.hotspot_radius > 0.0 && self.hotspot_radius.is_finite()) {
                return Err(format!(
                    "hotspot_radius must be positive, got {}",
                    self.hotspot_radius
                ));
            }
            if !(0.0..=1.0).contains(&self.hotspot_intensity) {
                return Err(format!(
                    "hotspot_intensity must be in [0, 1], got {}",
                    self.hotspot_intensity
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = WorkloadConfig::default();
        assert_eq!(c.num_objects, 10_000);
        assert_eq!(c.num_queries, 10_000);
        assert_eq!(c.update_fraction, 1.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_params() {
        let base = WorkloadConfig::default;
        let cases = [
            WorkloadConfig {
                update_fraction: 0.0,
                ..base()
            },
            WorkloadConfig {
                speed_min: -1.0,
                ..base()
            },
            WorkloadConfig {
                speed_min: 10.0,
                speed_max: 5.0,
                ..base()
            },
            WorkloadConfig {
                speed_jitter: -0.1,
                ..base()
            },
            WorkloadConfig { skew: 0, ..base() },
            WorkloadConfig {
                group_spread: -1.0,
                ..base()
            },
            base().with_hotspots(1, 0.0, 0.5),
            base().with_hotspots(1, 100.0, -0.1),
            base().with_hotspots(1, 100.0, 1.5),
            base().with_query_churn(1.5, 20.0),
            base().with_query_churn(-0.2, 20.0),
            base().with_query_churn(0.05, 0.5),
            // Non-finite values fail every check they reach.
            WorkloadConfig {
                query_range_side: f64::NAN,
                ..base()
            },
            WorkloadConfig {
                query_range_side: f64::INFINITY,
                ..base()
            },
            WorkloadConfig {
                speed_min: f64::NAN,
                ..base()
            },
            WorkloadConfig {
                speed_max: f64::INFINITY,
                ..base()
            },
            WorkloadConfig {
                speed_max: f64::NAN,
                ..base()
            },
            WorkloadConfig {
                speed_jitter: f64::NAN,
                ..base()
            },
            WorkloadConfig {
                group_spread: f64::INFINITY,
                ..base()
            },
            WorkloadConfig {
                update_fraction: f64::NAN,
                ..base()
            },
            base().with_hotspots(1, f64::NAN, 0.5),
            base().with_hotspots(1, f64::INFINITY, 0.5),
            base().with_hotspots(1, 100.0, f64::NAN),
            base().with_query_churn(f64::NAN, 20.0),
            base().with_query_churn(0.05, f64::INFINITY),
            base().with_query_churn(0.05, f64::NAN),
        ];
        for (i, c) in cases.iter().enumerate() {
            assert!(c.validate().is_err(), "case {i} should be rejected");
        }
    }

    #[test]
    fn hotspots_default_off_and_unvalidated_when_off() {
        let c = WorkloadConfig::default();
        assert_eq!(c.hotspot_count, 0);
        // Disabled hotspots do not constrain the other hotspot knobs.
        assert!(WorkloadConfig::default()
            .with_hotspots(0, -5.0, 7.0)
            .validate()
            .is_ok());
        let on = WorkloadConfig::default().with_hotspots(3, 150.0, 0.9);
        assert_eq!(on.hotspot_count, 3);
        assert_eq!(on.hotspot_radius, 150.0);
        assert_eq!(on.hotspot_intensity, 0.9);
        assert!(on.validate().is_ok());
    }
}
