//! SCUBA tuning parameters.

use serde::{Deserialize, Serialize};

use scuba_spatial::TimeDelta;
use scuba_stream::ValidationPolicy;

use crate::index::IndexKind;
use crate::kernel::KernelKind;
use crate::shedding::SheddingMode;

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
    /// The evaluation interval Δ must be at least one time unit.
    ZeroDelta,
    /// Partial shedding needs η ∈ \[0, 1\]; equivalently the nucleus
    /// radius Θ_N = η·Θ_D must not exceed Θ_D (§5: "0 ≤ Θ_N ≤ Θ_D").
    EtaOutOfRange(f64),
    /// The connection-node comparison tolerance must be non-negative.
    NegativeCnlocTolerance(f64),
    /// Join-within needs at least one worker thread.
    ZeroParallelism,
    /// The sharded executor needs at least one stripe-owning shard.
    ZeroShards,
    /// The overload deadline budget must be at least one microsecond.
    ZeroDeadline,
    /// The adaptive-grid split threshold must leave room for a quadtree
    /// split to ever fire (at least two occupants per cell).
    SplitThresholdTooSmall(u32),
    /// The adaptive-grid merge threshold must sit strictly below the split
    /// threshold, otherwise the hysteresis band is empty and cells would
    /// oscillate between refined and flat every Δ.
    MergeNotBelowSplit {
        /// The configured split threshold.
        split: u32,
        /// The offending merge threshold.
        merge: u32,
    },
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
            ParamsError::ZeroDelta => write!(f, "delta must be >= 1"),
            ParamsError::EtaOutOfRange(v) => write!(
                f,
                "shedding eta must be in [0, 1] (nucleus radius within theta_d), got {v}"
            ),
            ParamsError::NegativeCnlocTolerance(v) => {
                write!(f, "cnloc_tolerance must be non-negative, got {v}")
            }
            ParamsError::ZeroParallelism => write!(f, "parallelism must be >= 1"),
            ParamsError::ZeroShards => write!(f, "shards must be >= 1"),
            ParamsError::ZeroDeadline => write!(f, "deadline_us must be >= 1 when set"),
            ParamsError::SplitThresholdTooSmall(v) => {
                write!(f, "split_threshold must be >= 2, got {v}")
            }
            ParamsError::MergeNotBelowSplit { split, merge } => write!(
                f,
                "merge_threshold must be below split_threshold ({split}), got {merge}"
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

/// How the §3.2 step-1 probe interprets "clusters in the proximity of the
/// current location". Ablation knob for DESIGN.md §3.5 #3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ProbeScope {
    /// Consider every cluster whose centroid lies in a cell the Θ_D box
    /// around the update touches (the default): clustering behaviour is
    /// independent of grid granularity.
    #[default]
    ThetaDisk,
    /// Consider only clusters whose centroid lies in the update's own cell
    /// — the literal reading of the pseudo-code. With cells smaller than
    /// Θ_D this fragments clusters.
    OwnCell,
}

/// All knobs of the SCUBA operator, with the defaults of the paper's
/// experimental section (§6.1): Θ_D = 100 spatial units, Θ_S = 10 spatial
/// units / time unit, a 100×100 ClusterGrid and Δ = 2 time units, no load
/// shedding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
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
    /// Tolerance when comparing connection-node positions for the
    /// direction check (`o.cnloc == m.cnloc`); positions are `f64` produced
    /// by identical arithmetic, so a tight tolerance suffices.
    pub cnloc_tolerance: f64,
    /// Load-shedding policy (§5). `SheddingMode::None` by default.
    pub shedding: SheddingMode,
    /// Scope of the step-1 candidate probe (ablation knob; default
    /// [`ProbeScope::ThetaDisk`]).
    pub probe_scope: ProbeScope,
    /// Whether join-within applies the member-vs-cluster reach filter
    /// before the nested loop (ablation knob; default `true`; never
    /// changes results, only work).
    pub member_filter: bool,
    /// Whether cluster radii are tightened to exact values before each
    /// joining phase (ablation knob; default `true`; never changes
    /// results — the conservative radii are sound, just less selective).
    pub tighten_radii: bool,
    /// Entities silent for more than this many time units are evicted
    /// during post-join maintenance (`None` disables TTL eviction — the
    /// paper's setting, where 100 % of entities report every time unit).
    pub entity_ttl: Option<u64>,
    /// Join-within workers: threads for the join-within stage of the
    /// evaluation pipeline, and nothing else — ingestion never reads it,
    /// so engine state is independent of it. Default 1 — the serial path.
    /// Any value yields the same results and work counters; only
    /// wall-clock time changes.
    pub parallelism: usize,
    /// Whether the operator carries a [`crate::join::JoinCache`] across
    /// epochs, replaying join-within results for cluster pairs that have
    /// not mutated since they were computed (default `true`). Never
    /// changes results — replays are bit-identical — only work done.
    pub join_cache: bool,
    /// Ingestion hardening policy: how the operator treats malformed
    /// location updates (NaN/out-of-region coordinates, time regressions,
    /// duplicate keys). [`ValidationPolicy::Off`] — the default — trusts
    /// the source, matching the paper's setting.
    pub validation: ValidationPolicy,
    /// Per-evaluation wall-time budget in microseconds for the adaptive
    /// overload controller ([`crate::overload::OverloadController`]):
    /// when evaluation + ingest time repeatedly exceeds it, the operator
    /// escalates load shedding; when load drops, it relaxes with
    /// hysteresis. `None` — the default — disables the controller.
    pub deadline_us: Option<u64>,
    /// Which spatial index backs the ClusterGrid role
    /// ([`IndexKind::Uniform`] — the paper's flat N×N grid — by default).
    /// [`IndexKind::Adaptive`] refines hot cells into quadtree subcells so
    /// candidate generation stays balanced under hotspot skew; results are
    /// bit-identical to the uniform grid, only work changes.
    pub index: IndexKind,
    /// Adaptive grid only: a base cell whose registration count reaches
    /// this threshold is refined into quadtree subcells at the next Δ
    /// re-balance. Must be at least 2.
    pub split_threshold: u32,
    /// Adaptive grid only: a refined base cell whose registration count
    /// falls to this threshold or below collapses back to a flat cell at
    /// the next Δ re-balance. Must be strictly below
    /// [`split_threshold`](ScubaParams::split_threshold); the gap is the
    /// hysteresis band in which a cell keeps its current shape.
    pub merge_threshold: u32,
    /// Stripe-owning shards of the region for the multi-worker executor
    /// ([`crate::shard::ShardedScubaOperator`]): the coverage area is split
    /// into this many contiguous column stripes, each owned by a worker
    /// thread with its own `ClusterStore` and spatial index. Default 1 —
    /// the single-store engine. This is the one way to ingest in parallel:
    /// the executor routes updates to owner shards, each of which ingests
    /// its slice update by update;
    /// [`parallelism`](ScubaParams::parallelism) sets join-within workers
    /// *inside each shard*. Results are bit-identical to the single-shard
    /// engine at any shard count, provided load shedding stays off.
    pub shards: usize,
    /// Which join-kernel implementation the evaluate pipeline runs
    /// ([`KernelKind::Scalar`] — the pair-at-a-time loops — by default).
    /// [`KernelKind::Simd`] runs the tiled lane-parallel
    /// filter-then-refine kernel over the store's SoA columns; results
    /// and work counters are bit-identical, only speed changes (see
    /// [`crate::kernel`]).
    pub kernel: KernelKind,
}

impl Default for ScubaParams {
    fn default() -> Self {
        ScubaParams {
            theta_d: 100.0,
            theta_s: 10.0,
            grid_cells: 100,
            delta: 2,
            cnloc_tolerance: 1e-6,
            shedding: SheddingMode::None,
            probe_scope: ProbeScope::ThetaDisk,
            member_filter: true,
            tighten_radii: true,
            entity_ttl: None,
            parallelism: 1,
            join_cache: true,
            validation: ValidationPolicy::Off,
            deadline_us: None,
            index: IndexKind::Uniform,
            split_threshold: 32,
            merge_threshold: 8,
            shards: 1,
            kernel: KernelKind::Scalar,
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

    /// Returns the params with a different join-within worker count
    /// (clamped to at least 1).
    pub fn with_parallelism(self, parallelism: usize) -> Self {
        ScubaParams {
            parallelism: parallelism.max(1),
            ..self
        }
    }

    /// Returns the params with the incremental join cache on or off.
    pub fn with_join_cache(self, join_cache: bool) -> Self {
        ScubaParams { join_cache, ..self }
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

    /// Returns the params with a different spatial index backing the
    /// ClusterGrid role.
    pub fn with_index(self, index: IndexKind) -> Self {
        ScubaParams { index, ..self }
    }

    /// Returns the params with a different join-kernel implementation.
    pub fn with_kernel(self, kernel: KernelKind) -> Self {
        ScubaParams { kernel, ..self }
    }

    /// Returns the params with a different stripe-shard count for the
    /// multi-worker executor (`1` — the default — is the single-store
    /// engine). Zero is rejected by [`validate`](ScubaParams::validate),
    /// not clamped, so a misconfigured `--shards 0` fails loudly.
    pub fn with_shards(self, shards: usize) -> Self {
        ScubaParams { shards, ..self }
    }

    /// Returns the params with different adaptive-grid split/merge
    /// thresholds (only observed when [`index`](ScubaParams::index) is
    /// [`IndexKind::Adaptive`]).
    pub fn with_split_merge(self, split_threshold: u32, merge_threshold: u32) -> Self {
        ScubaParams {
            split_threshold,
            merge_threshold,
            ..self
        }
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
        if self.delta == 0 {
            return Err(ParamsError::ZeroDelta);
        }
        if self.cnloc_tolerance.is_nan() || self.cnloc_tolerance < 0.0 {
            return Err(ParamsError::NegativeCnlocTolerance(self.cnloc_tolerance));
        }
        if self.parallelism == 0 {
            return Err(ParamsError::ZeroParallelism);
        }
        if self.shards == 0 {
            return Err(ParamsError::ZeroShards);
        }
        if self.deadline_us == Some(0) {
            return Err(ParamsError::ZeroDeadline);
        }
        if self.split_threshold < 2 {
            return Err(ParamsError::SplitThresholdTooSmall(self.split_threshold));
        }
        if self.merge_threshold >= self.split_threshold {
            return Err(ParamsError::MergeNotBelowSplit {
                split: self.split_threshold,
                merge: self.merge_threshold,
            });
        }
        self.shedding.validate()
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
        assert_eq!(p.parallelism, 1, "serial join-within is the default");
        assert!(p.join_cache, "incremental join cache is on by default");
        assert_eq!(p.index, IndexKind::Uniform, "the paper's flat grid");
        assert_eq!(p.kernel, KernelKind::Scalar, "scalar kernel by default");
        assert!(p.validate().is_ok());
    }

    #[test]
    fn kernel_builder_and_validation() {
        let p = ScubaParams::default().with_kernel(KernelKind::Simd);
        assert_eq!(p.kernel, KernelKind::Simd);
        assert!(p.validate().is_ok(), "any kernel kind is valid");
    }

    #[test]
    fn kernel_serde_default_and_roundtrip() {
        // Configs written before the kernel knob existed deserialize to
        // the scalar default.
        let old: ScubaParams = serde_json::from_str("{}").expect("all fields defaulted");
        assert_eq!(old.kernel, KernelKind::Scalar);
        assert_eq!(old.shards, 1, "pre-shard configs stay single-store");
        let p = ScubaParams::default().with_kernel(KernelKind::Simd);
        let roundtrip: ScubaParams =
            serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(roundtrip.kernel, KernelKind::Simd);
    }

    #[test]
    fn retired_ingest_knobs_in_json_are_ignored() {
        // Params, configs and snapshots written before the batch sharder
        // was deleted still carry its two knobs; they must keep loading.
        let old: ScubaParams = serde_json::from_str(
            r#"{"parallelism": 2, "ingest_shards": 8, "batch_ingest": false}"#,
        )
        .expect("unknown keys are ignored");
        assert_eq!(old, ScubaParams::default().with_parallelism(2));
    }

    #[test]
    fn index_builders_and_validation() {
        let p = ScubaParams::default()
            .with_index(IndexKind::Adaptive)
            .with_split_merge(16, 4)
            .validated()
            .expect("valid params");
        assert_eq!(p.index, IndexKind::Adaptive);
        assert_eq!(p.split_threshold, 16);
        assert_eq!(p.merge_threshold, 4);
        assert_eq!(
            ScubaParams::default()
                .with_split_merge(1, 0)
                .validate()
                .unwrap_err(),
            ParamsError::SplitThresholdTooSmall(1)
        );
        assert_eq!(
            ScubaParams::default()
                .with_split_merge(8, 8)
                .validate()
                .unwrap_err(),
            ParamsError::MergeNotBelowSplit { split: 8, merge: 8 }
        );
        assert!(ParamsError::MergeNotBelowSplit { split: 8, merge: 9 }
            .to_string()
            .contains("merge_threshold"));
    }

    #[test]
    fn join_cache_builder() {
        assert!(!ScubaParams::default().with_join_cache(false).join_cache);
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
        let p = ScubaParams {
            parallelism: 0,
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

    #[test]
    fn parallelism_builder_clamps_to_one() {
        assert_eq!(ScubaParams::default().with_parallelism(0).parallelism, 1);
        assert_eq!(ScubaParams::default().with_parallelism(4).parallelism, 4);
    }
}
