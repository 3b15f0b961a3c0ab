//! SCUBA tuning parameters.

use scuba_spatial::TimeDelta;
use scuba_stream::ValidationPolicy;

use crate::shedding::SheddingMode;

/// The most cells per side [`ScubaParams::validate`] accepts. The paper's
/// grid sweep (Fig. 9) spans 50–150 cells; at this bound an engine's two
/// per-cell indexes take about 30 MB.
const MAX_GRID_CELLS: u32 = 1024;

/// A parameter set that cannot produce a working engine.
///
/// Typed so callers can react per-cause; `Display` renders the operator
/// message the CLI prints before exiting non-zero.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// Θ_D must be a positive, finite distance.
    NonPositiveThetaD(f64),
    /// Θ_S must be a positive, finite speed difference (a zero threshold
    /// admits no speed variation at all and degenerates clustering to
    /// exact-speed matching over `f64`s).
    NonPositiveThetaS(f64),
    /// The ClusterGrid needs at least one cell per side.
    ZeroGridCells,
    /// More than 1 024 cells per side: the grids allocate
    /// per cell, so an unbounded count (say, from a damaged checkpoint)
    /// asks for more memory than any host has.
    GridCellsAboveLimit(u32),
    /// The evaluation interval Δ must be at least one time unit.
    ZeroDelta,
    /// Partial shedding needs η ∈ \[0, 1\]; equivalently the nucleus
    /// radius Θ_N = η·Θ_D must not exceed Θ_D (§5: "0 ≤ Θ_N ≤ Θ_D").
    EtaOutOfRange(f64),
    /// The sharded executor needs at least one stripe-owning shard.
    ZeroShards,
    /// The overload deadline budget must be at least one microsecond.
    ZeroDeadline,
    /// A feature of the single-store operator combined with `shards > 1`:
    /// the stripes would ignore it or change the answers. Names the
    /// params field (`shedding`, `validation` or `deadline_us`).
    UnsupportedWithShards(&'static str),
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::NonPositiveThetaD(v) => {
                write!(f, "theta_d must be positive, got {v}")
            }
            ParamsError::NonPositiveThetaS(v) => {
                write!(f, "theta_s must be positive, got {v}")
            }
            ParamsError::ZeroGridCells => write!(f, "grid_cells must be >= 1"),
            ParamsError::GridCellsAboveLimit(v) => {
                write!(f, "grid_cells must be <= {MAX_GRID_CELLS}, got {v}")
            }
            ParamsError::ZeroDelta => write!(f, "delta must be >= 1"),
            ParamsError::EtaOutOfRange(v) => write!(
                f,
                "shedding eta must be in [0, 1] (nucleus radius within theta_d), got {v}"
            ),
            ParamsError::ZeroShards => write!(f, "shards must be >= 1"),
            ParamsError::ZeroDeadline => write!(f, "deadline_us must be >= 1 when set"),
            ParamsError::UnsupportedWithShards(field) => write!(
                f,
                "{field} is not supported with shards > 1 (single-store operator only)"
            ),
        }
    }
}

impl std::error::Error for ParamsError {}

impl From<ParamsError> for String {
    fn from(e: ParamsError) -> Self {
        e.to_string()
    }
}

/// All knobs of the SCUBA operator, with the defaults of the paper's
/// experimental section (§6.1): Θ_D = 100 spatial units, Θ_S = 10 spatial
/// units / time unit, a 100×100 ClusterGrid and Δ = 2 time units, no load
/// shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScubaParams {
    /// Distance threshold Θ_D: an entity may only join a cluster whose
    /// centroid is within this distance ("guarantees that the clustered
    /// entities are close to each other at the time of clustering", §3.1).
    pub theta_d: f64,
    /// Speed threshold Θ_S: an entity may only join a cluster whose average
    /// speed differs by at most this much ("assures that the entities will
    /// stay close to each other for some time in the future", §3.1).
    pub theta_s: f64,
    /// Cells per side of the ClusterGrid (the paper's default grid is
    /// 100×100).
    pub grid_cells: u32,
    /// Evaluation interval Δ in time units.
    pub delta: TimeDelta,
    /// Load-shedding policy (§5). `SheddingMode::None` by default.
    pub shedding: SheddingMode,
    /// Entities silent for more than this many time units are evicted
    /// during post-join maintenance (`None` disables TTL eviction — the
    /// paper's setting, where 100 % of entities report every time unit).
    pub entity_ttl: Option<u64>,
    /// Ingestion hardening policy: how the operator treats malformed
    /// location updates (NaN/out-of-region coordinates, time regressions,
    /// duplicate keys). [`ValidationPolicy::Off`] — the default — trusts
    /// the source, matching the paper's setting.
    pub validation: ValidationPolicy,
    /// Per-evaluation wall-time budget in microseconds, the deadline
    /// trigger of the shedding ladder ([`crate::shedding::ShedLadder`]):
    /// when evaluation + ingest time repeatedly exceeds it, the operator
    /// escalates load shedding; when load drops, it relaxes with
    /// hysteresis. `None` — the default — disables the trigger.
    pub deadline_us: Option<u64>,
    /// Stripe-owning shards of the region for the multi-worker executor
    /// ([`crate::shard::ShardedScubaOperator`]): the coverage area is split
    /// into this many contiguous column stripes, each owned by a worker
    /// thread with its own `ClusterStore` and region grid. Default 1 —
    /// the single-store engine. This is the one way to use more than one
    /// core: the executor routes updates to owner shards, each of which
    /// ingests and joins its slice. Results are bit-identical to the
    /// single-shard engine at any shard count. Load shedding, validation
    /// and a deadline are single-store features: combined with
    /// `shards > 1` they are refused with
    /// [`ParamsError::UnsupportedWithShards`].
    pub shards: usize,
}

impl Default for ScubaParams {
    fn default() -> Self {
        ScubaParams {
            theta_d: 100.0,
            theta_s: 10.0,
            grid_cells: 100,
            delta: 2,
            shedding: SheddingMode::None,
            entity_ttl: None,
            validation: ValidationPolicy::Off,
            deadline_us: None,
            shards: 1,
        }
    }
}

impl ScubaParams {
    /// Returns the params with a different grid granularity.
    pub fn with_grid_cells(self, grid_cells: u32) -> Self {
        ScubaParams {
            grid_cells: grid_cells.max(1),
            ..self
        }
    }

    /// Returns the params with a different shedding mode.
    pub fn with_shedding(self, shedding: SheddingMode) -> Self {
        ScubaParams { shedding, ..self }
    }

    /// Returns the params with different clustering thresholds.
    pub fn with_thresholds(self, theta_d: f64, theta_s: f64) -> Self {
        ScubaParams {
            theta_d,
            theta_s,
            ..self
        }
    }

    /// Returns the params with an ingestion validation policy.
    pub fn with_validation(self, validation: ValidationPolicy) -> Self {
        ScubaParams { validation, ..self }
    }

    /// Returns the params with an overload deadline budget (`None`
    /// disables the adaptive controller).
    pub fn with_deadline_us(self, deadline_us: Option<u64>) -> Self {
        ScubaParams {
            deadline_us,
            ..self
        }
    }

    /// Returns the params with a different stripe-shard count for the
    /// multi-worker executor (`1` — the default — is the single-store
    /// engine). Zero is rejected by [`validate`](ScubaParams::validate),
    /// not clamped, so a misconfigured `--shards 0` fails loudly.
    pub fn with_shards(self, shards: usize) -> Self {
        ScubaParams { shards, ..self }
    }

    /// Validating constructor: the params if they can produce a working
    /// engine, the first defect otherwise. Prefer this over bare struct
    /// literals at trust boundaries (config files, CLI flags, snapshots).
    pub fn validated(self) -> Result<Self, ParamsError> {
        self.validate()?;
        Ok(self)
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if !self.theta_d.is_finite() || self.theta_d <= 0.0 {
            return Err(ParamsError::NonPositiveThetaD(self.theta_d));
        }
        if !self.theta_s.is_finite() || self.theta_s <= 0.0 {
            return Err(ParamsError::NonPositiveThetaS(self.theta_s));
        }
        if self.grid_cells == 0 {
            return Err(ParamsError::ZeroGridCells);
        }
        if self.grid_cells > MAX_GRID_CELLS {
            return Err(ParamsError::GridCellsAboveLimit(self.grid_cells));
        }
        if self.delta == 0 {
            return Err(ParamsError::ZeroDelta);
        }
        if self.shards == 0 {
            return Err(ParamsError::ZeroShards);
        }
        if self.deadline_us == Some(0) {
            return Err(ParamsError::ZeroDeadline);
        }
        self.shedding.validate()?;
        if self.shards > 1 {
            let refused = [
                (self.shedding.is_active(), "shedding"),
                (self.validation != ValidationPolicy::Off, "validation"),
                (self.deadline_us.is_some(), "deadline_us"),
            ];
            if let Some(&(_, field)) = refused.iter().find(|(on, _)| *on) {
                return Err(ParamsError::UnsupportedWithShards(field));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = ScubaParams::default();
        assert_eq!(p.theta_d, 100.0);
        assert_eq!(p.theta_s, 10.0);
        assert_eq!(p.grid_cells, 100);
        assert_eq!(p.delta, 2);
        assert_eq!(p.shedding, SheddingMode::None);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builders() {
        let p = ScubaParams::default()
            .with_grid_cells(0)
            .with_thresholds(50.0, 5.0);
        assert_eq!(p.grid_cells, 1);
        assert_eq!(p.theta_d, 50.0);
        assert_eq!(p.theta_s, 5.0);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(ScubaParams::default()
            .with_thresholds(0.0, 10.0)
            .validate()
            .is_err());
        assert!(ScubaParams::default()
            .with_thresholds(100.0, -1.0)
            .validate()
            .is_err());
        let p = ScubaParams {
            delta: 0,
            ..ScubaParams::default()
        };
        assert!(p.validate().is_err());
        let p = ScubaParams {
            theta_d: f64::NAN,
            ..ScubaParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn typed_errors_identify_the_defect() {
        assert_eq!(
            ScubaParams::default()
                .with_thresholds(-1.0, 10.0)
                .validate()
                .unwrap_err(),
            ParamsError::NonPositiveThetaD(-1.0)
        );
        assert_eq!(
            ScubaParams::default()
                .with_thresholds(100.0, 0.0)
                .validate()
                .unwrap_err(),
            ParamsError::NonPositiveThetaS(0.0)
        );
        assert_eq!(
            ScubaParams {
                grid_cells: 0,
                ..ScubaParams::default()
            }
            .validate()
            .unwrap_err(),
            ParamsError::ZeroGridCells
        );
        assert_eq!(
            ScubaParams::default()
                .with_grid_cells(u32::MAX)
                .validate()
                .unwrap_err(),
            ParamsError::GridCellsAboveLimit(u32::MAX)
        );
        assert!(ScubaParams::default()
            .with_grid_cells(MAX_GRID_CELLS)
            .validate()
            .is_ok());
        assert_eq!(
            ScubaParams::default()
                .with_deadline_us(Some(0))
                .validate()
                .unwrap_err(),
            ParamsError::ZeroDeadline
        );
        assert_eq!(
            ScubaParams::default()
                .with_shedding(SheddingMode::Partial { eta: 1.5 })
                .validate()
                .unwrap_err(),
            ParamsError::EtaOutOfRange(1.5)
        );
    }

    #[test]
    fn validated_constructor_and_new_builders() {
        let p = ScubaParams::default()
            .with_validation(ValidationPolicy::Reject)
            .with_deadline_us(Some(500))
            .validated()
            .expect("valid params");
        assert_eq!(p.validation, ValidationPolicy::Reject);
        assert_eq!(p.deadline_us, Some(500));
        assert!(ScubaParams::default()
            .with_deadline_us(Some(0))
            .validated()
            .is_err());
        // Defaults: hardened knobs off, matching the paper's setting.
        let d = ScubaParams::default();
        assert_eq!(d.validation, ValidationPolicy::Off);
        assert_eq!(d.deadline_us, None);
    }

    #[test]
    fn errors_render_operator_messages() {
        let msg: String = ParamsError::NonPositiveThetaD(-2.0).into();
        assert_eq!(msg, "theta_d must be positive, got -2");
        assert!(ParamsError::ZeroDeadline
            .to_string()
            .contains("deadline_us"));
        assert!(ParamsError::EtaOutOfRange(7.0)
            .to_string()
            .contains("[0, 1]"));
    }

    #[test]
    fn shards_builder_and_validation() {
        let d = ScubaParams::default();
        assert_eq!(d.shards, 1, "single-store engine by default");
        assert_eq!(d.with_shards(4).shards, 4);
        assert_eq!(
            d.with_shards(0).validate().unwrap_err(),
            ParamsError::ZeroShards
        );
        assert!(ParamsError::ZeroShards.to_string().contains("shards"));
    }

    /// Stripes refuse the single-store features by name, one at a time,
    /// and accept them at one shard.
    #[test]
    fn stripes_refuse_single_store_features() {
        let stripes = ScubaParams::default().with_shards(2);
        let cases = [
            (
                stripes.with_shedding(SheddingMode::Partial { eta: 0.5 }),
                "shedding",
            ),
            (stripes.with_shedding(SheddingMode::Full), "shedding"),
            (
                stripes.with_validation(ValidationPolicy::Reject),
                "validation",
            ),
            (stripes.with_deadline_us(Some(500)), "deadline_us"),
        ];
        for (params, field) in cases {
            let err = params.validate().unwrap_err();
            assert_eq!(err, ParamsError::UnsupportedWithShards(field));
            assert!(err.to_string().starts_with(field), "{err}");
            assert!(params.with_shards(1).validate().is_ok(), "{field}");
        }
        // An inactive mode sheds nothing, so stripes accept it.
        assert!(stripes
            .with_shedding(SheddingMode::Partial { eta: 0.0 })
            .validate()
            .is_ok());
    }
}
