//! The five named workloads, the window of the trajectory a seed selects,
//! and the tick source that feeds them.
//!
//! Names are permanent: a result is only comparable with another result
//! of the same name. Sizes are the recorded tier; `--scale` shrinks the
//! populations for smoke use and is never recorded.

use std::sync::Arc;

use scuba::{ScubaParams, SheddingMode};
use scuba_generator::{WorkloadConfig, WorkloadGenerator};
use scuba_motion::{ControlOp, LocationUpdate};
use scuba_roadnet::{CityConfig, RoadNetwork, SyntheticCity};
use scuba_spatial::Rect;
use scuba_stream::{FaultInjector, FaultPlan, UpdateSource, ValidationPolicy};

/// Ticks run through the operator before the timed region; they count
/// toward `setup_s`.
pub const WARMUP_TICKS: u64 = 20;

/// Span of window starts a seed selects from, in ticks past
/// [`WorkloadSpec::settle_ticks`]. Wide enough that two seeds almost never
/// select the same window, narrow enough that skipping to the furthest one
/// (generator only, no operator) stays a few seconds.
pub const WINDOW_SPAN_TICKS: u64 = 1024;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 20_060_326;

/// Reserved for checking a later claim on input not seen while the change
/// was written. On every workload its window starts on a tick no run of
/// the recorded baseline (seeds 100–109) or of the default seed starts on;
/// windows of neighbouring starts still share most of their ticks, which
/// is as far apart as [`WINDOW_SPAN_TICKS`] lets eleven windows lie.
pub const HELD_OUT_SEED: u64 = 14_113_212;

/// What the durable (serve-shaped) workloads add around the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    /// Checkpoint period in ticks.
    pub checkpoint_every: u64,
    /// Share of updates the transport delivers twice; validation rejects
    /// the replayed `(time, entity)` key.
    ///
    /// The issue also proposed corrupting 0.5 % of updates. An entity whose
    /// every report in a Δ window is rejected has no defined position for
    /// that evaluation: it is answered from its last position if its
    /// cluster lived on, and not at all if the cluster dissolved — which
    /// depends on how entities were grouped, so `k1` and `k2` (and a
    /// resumed engine) legitimately answer differently there. Faults that
    /// lose no report keep every answer defined and the oracle exact.
    pub duplicate_prob: f64,
    /// How delivered updates are screened. The single-store operator does
    /// it itself (`ScubaParams::validation`, as `serve --validate` sets
    /// it). The sharded executor drives no validator and `serve` refuses
    /// `--validate` with `--shards > 1`, so on `k2` the harness screens in
    /// its stead, in front of the journal and the operator: otherwise the
    /// two engines would not ingest the same updates (validation also
    /// rejects a re-registering query's first report as a duplicate of
    /// its `Register` control — README, "Findings") and their answers
    /// could not be compared.
    pub validation: ValidationPolicy,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Permanent name.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Generator settings, trip seed included: the map and the trips taken
    /// on it are part of the workload's definition (see
    /// [`WorkloadSpec::window`] for what `--seed` varies).
    pub generator: WorkloadConfig,
    /// Engine settings: `default()` except where the workload says so.
    pub params: ScubaParams,
    /// `Some` for the durable, supervised loop; `None` for the bare loop.
    pub serve: Option<ServeSpec>,
    /// Whether the answers must equal the oracle's exactly.
    pub exact: bool,
    /// Ticks the trajectory needs to reach its steady state. Every convoy
    /// spawns bunched on one stretch of road and spreads over its first
    /// trips, so the cost of a Δ-cycle climbs for this long (it doubles on
    /// `paper_uniform`) and is level afterwards. No window starts earlier.
    pub settle_ticks: u64,
    /// Frozen calibration: timed ticks per second of `--seconds`, chosen
    /// so that the timed region lasts about `--seconds` on the reference
    /// host (2 cores). A run's input is therefore a function of
    /// `(seed, seconds)` alone — identical on every commit it compares,
    /// however fast that commit is.
    pub ticks_per_second: f64,
}

const SERVE: ServeSpec = ServeSpec {
    checkpoint_every: 8,
    duplicate_prob: 0.01,
    validation: ValidationPolicy::Reject,
};

fn serve_churn(
    name: &'static str,
    why: &'static str,
    shards: usize,
    ticks_per_second: f64,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        why,
        generator: WorkloadConfig {
            num_objects: 10_000,
            num_queries: 1_000,
            skew: 50,
            query_range_side: 100.0,
            ..WorkloadConfig::default()
        }
        .with_query_churn(0.05, 20.0),
        params: ScubaParams {
            shards,
            validation: if shards == 1 {
                SERVE.validation
            } else {
                ValidationPolicy::Off
            },
            ..ScubaParams::default()
        },
        serve: Some(SERVE),
        exact: true,
        settle_ticks: 3_200,
        ticks_per_second,
    }
}

/// Every workload, in reporting order.
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "paper_uniform",
            why: "paper 6.1 setting, 10k+10k in convoys of 100: clustering ingest is the largest span, the join is cheap",
            generator: WorkloadConfig::default(),
            params: ScubaParams::default(),
            serve: None,
            exact: true,
            settle_ticks: 2_600,
            ticks_per_second: 52.0,
        },
        WorkloadSpec {
            name: "hotspot_join",
            why: "8k+4k in small clusters piled on 4 hotspots, delta 1: pair discovery and the join dominate, ingest is the minority",
            generator: WorkloadConfig {
                num_objects: 8_000,
                num_queries: 4_000,
                skew: 10,
                query_range_side: 100.0,
                ..WorkloadConfig::default()
            }
            .with_hotspots(4, 400.0, 0.8),
            params: ScubaParams {
                delta: 1,
                ..ScubaParams::default()
            },
            serve: None,
            exact: true,
            settle_ticks: 1_400,
            ticks_per_second: 43.0,
        },
        serve_churn(
            "serve_churn_k1",
            "production shape, one store: WAL, checkpoints, in-operator validation and 5%/tick query churn do real work on the write path",
            1,
            88.0,
        ),
        serve_churn(
            "serve_churn_k2",
            "the same delivered ticks on 2 stripe workers (validated in front of them): isolates route, ghost exchange and merge against k1",
            2,
            88.0,
        ),
        WorkloadSpec {
            name: "shed_half",
            why: "paper_uniform at range 200 with half of each nucleus shed: reports the accuracy a speed-up must not spend",
            generator: WorkloadConfig {
                query_range_side: 200.0,
                ..WorkloadConfig::default()
            },
            params: ScubaParams::default().with_shedding(SheddingMode::Partial { eta: 0.5 }),
            serve: None,
            exact: false,
            settle_ticks: 2_600,
            ticks_per_second: 26.0,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|w| w.name == name)
}

/// Which part of a workload's trajectory one run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Ticks the generator is advanced, with no operator attached, before
    /// the warm-up: the operator's clock starts here.
    pub start: u64,
    /// Seed of the transport's fault plan (durable workloads).
    pub fault_seed: u64,
}

/// SplitMix64's finaliser: consecutive seeds select unrelated windows.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl WorkloadSpec {
    /// The generator config of a run: populations shrunk by `scale`.
    pub fn generator_config(&self, scale: f64) -> WorkloadConfig {
        let shrink = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        WorkloadConfig {
            num_objects: shrink(self.generator.num_objects),
            num_queries: shrink(self.generator.num_queries),
            ..self.generator
        }
    }

    /// Ticks one set-up consumes: the warm-up, rounded up so that the next
    /// set-up (see `Rig::rebuild`) starts on a whole period again.
    pub fn setup_stride(&self) -> u64 {
        WARMUP_TICKS.next_multiple_of(self.period())
    }

    /// Whole Δ-cycles and checkpoint periods both divide this many ticks.
    fn period(&self) -> u64 {
        let delta = self.params.delta.max(1);
        match self.serve {
            // Every recorded Δ divides the checkpoint period.
            Some(serve) => serve.checkpoint_every.max(delta),
            None => delta,
        }
    }

    /// What `--seed` selects: the window of the settled trajectory that is
    /// measured, one of `WINDOW_SPAN_TICKS / period` starts, and the fault
    /// plan's seed.
    ///
    /// The map and the trips taken on it stay fixed per workload, because
    /// the cost of a cycle depends on them far more than on anything a
    /// change to the engine is likely to move: over ten *trip* seeds
    /// `hotspot_join`'s `cycle_ms_p50` had an interquartile spread of 31 %
    /// (where its four hotspots land) and `paper_uniform`'s 6 %. A window
    /// of the settled trajectory is a different input — other positions,
    /// other cluster memberships, other answers — with the same statistics,
    /// so the ruler stays fine enough to see a 10 % change.
    pub fn window(&self, seed: u64) -> Window {
        let period = self.period();
        let slots = WINDOW_SPAN_TICKS / period;
        Window {
            start: self.settle_ticks.next_multiple_of(period) + period * (mix(seed) % slots),
            fault_seed: seed ^ 0xFA17,
        }
    }

    /// Timed ticks of a run of `seconds`: the frozen rate times the budget,
    /// rounded by [`Self::round_ticks`].
    pub fn ticks_for(&self, seconds: f64) -> u64 {
        self.round_ticks((self.ticks_per_second * seconds).ceil().max(1.0) as u64)
    }

    /// Rounds a tick budget up to whole Δ-cycles and, for the durable
    /// loop, to a region that ends on a complete cycle 4 ticks past a
    /// checkpoint, so the kill lands 5 ticks past it after one more tick.
    /// (Window starts are multiples of the checkpoint period, so the
    /// warm-up alone sets the region's phase.)
    pub fn round_ticks(&self, raw: u64) -> u64 {
        let delta = self.params.delta.max(1);
        match self.serve {
            None => raw.div_ceil(delta) * delta,
            Some(serve) => {
                let every = serve.checkpoint_every;
                let mut end = WARMUP_TICKS + raw;
                while end % every != 4 % every || !end.is_multiple_of(delta) {
                    end += 1;
                }
                end - WARMUP_TICKS
            }
        }
    }
}

/// The fixed map every workload runs on. The paper uses one road map
/// (Worcester, MA); the seed varies the window measured, not the map.
pub fn build_city() -> (Arc<RoadNetwork>, Rect) {
    let city = SyntheticCity::build(CityConfig::default());
    let area = city
        .network
        .extent()
        .expect("the synthetic city always has nodes");
    (Arc::new(city.network), area)
}

/// One tick as the transport delivers it.
#[derive(Debug, Clone, Default)]
pub struct Tick {
    /// Query-lifecycle ops, applied before the data batch.
    pub controls: Vec<ControlOp>,
    /// The delivered batch (post fault-injection, pre validation).
    pub updates: Vec<LocationUpdate>,
}

/// Generator plus seeded transport faults: everything outside the system.
#[derive(Debug)]
pub struct TickSource {
    generator: WorkloadGenerator,
    faults: Option<FaultInjector>,
    /// Ticks generated so far: the time the next tick's updates carry,
    /// less one.
    clock: u64,
    /// The batch `next_controls` generated, until `next_tick` takes it.
    pending: Vec<LocationUpdate>,
}

impl TickSource {
    /// Builds the source of one run, standing at tick 0.
    pub fn new(
        spec: &WorkloadSpec,
        network: Arc<RoadNetwork>,
        fault_seed: u64,
        scale: f64,
    ) -> Self {
        let generator = WorkloadGenerator::new(network, spec.generator_config(scale));
        let faults = spec.serve.map(|serve| {
            FaultInjector::new(FaultPlan {
                seed: fault_seed,
                duplicate_prob: serve.duplicate_prob,
                ..FaultPlan::default()
            })
        });
        TickSource {
            generator,
            faults,
            clock: 0,
            pending: Vec::new(),
        }
    }

    /// Advances the trajectory `ticks` ticks with nobody listening: the
    /// way to a window's start.
    pub fn skip(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.generator.tick();
            self.generator.take_controls();
        }
        self.clock += ticks;
    }

    /// Ticks generated so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Generates the next tick.
    pub fn generate(&mut self) -> Tick {
        let updates = self.generator.tick();
        let controls = self.generator.take_controls();
        self.clock += 1;
        let updates = match &mut self.faults {
            Some(faults) => faults.apply_tick(updates),
            None => updates,
        };
        Tick { controls, updates }
    }
}

/// The shape the library's own loops take: the loop-fidelity tests drive
/// `Executor::run` and `run_supervised` with it and compare them to the
/// ledger's unrolled loops.
impl UpdateSource for TickSource {
    fn next_controls(&mut self) -> Vec<ControlOp> {
        let tick = self.generate();
        self.pending = tick.updates;
        tick.controls
    }

    fn next_tick(&mut self) -> Vec<LocationUpdate> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_works() {
        let names: Vec<_> = all().iter().map(|w| w.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(by_name("shed_half").unwrap().name, "shed_half");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn tick_budgets_end_on_whole_cycles() {
        for spec in all() {
            for seconds in [1.0, 7.5, 10.0] {
                let ticks = spec.ticks_for(seconds);
                assert_eq!(ticks % spec.params.delta, 0, "{}", spec.name);
                if let Some(serve) = spec.serve {
                    assert_eq!((WARMUP_TICKS + ticks) % serve.checkpoint_every, 4);
                }
                assert!(ticks as f64 >= spec.ticks_per_second * seconds);
            }
        }
    }

    #[test]
    fn windows_are_settled_aligned_and_spread_out() {
        for spec in all() {
            let starts: Vec<u64> = (100..110).map(|seed| spec.window(seed).start).collect();
            for start in &starts {
                assert!(*start >= spec.settle_ticks, "{}", spec.name);
                assert!(*start < spec.settle_ticks + spec.period() + WINDOW_SPAN_TICKS);
                assert_eq!(start % spec.period(), 0, "{}", spec.name);
            }
            let mut distinct = starts.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), starts.len(), "{}: {starts:?}", spec.name);
            assert_eq!(spec.window(7), spec.window(7));
            assert_ne!(spec.window(7).fault_seed, spec.window(8).fault_seed);
        }
    }

    #[test]
    fn scale_shrinks_populations_only() {
        let spec = by_name("hotspot_join").unwrap();
        let cfg = spec.generator_config(0.05);
        assert_eq!((cfg.num_objects, cfg.num_queries), (400, 200));
        assert_eq!(cfg.seed, spec.generator.seed);
        assert_eq!(cfg.skew, spec.generator.skew);
        assert_eq!(cfg.hotspot_count, 4);
    }
}
