//! Deterministic fault injection between source and operator.
//!
//! Robustness claims need adversarial inputs that are *reproducible*: a
//! fault schedule that differs run-to-run turns every test failure into a
//! heisenbug. A [`FaultPlan`] is a seeded description of transport-level
//! faults — drop, duplicate, reorder-within-tick, corrupt-coordinates,
//! stall-tick — and a [`FaultInjector`] applies it to each tick's batch
//! with a private SplitMix64 stream, so the same plan over the same
//! workload produces bit-identical faulted streams on every run.
//!
//! The injector sits between an [`crate::executor::UpdateSource`] and the
//! operator: [`FaultInjector::apply_tick`] turns each tick's batch into its
//! faulted delivery, which the operator under test cannot tell from a real
//! one.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use scuba_motion::LocationUpdate;
use scuba_spatial::rng::SplitMix64;

/// A seeded, serialisable fault schedule. Probabilities are per-update in
/// `[0, 1]`; `stall_period` is in ticks (`0` disables stalling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the private PRNG stream.
    pub seed: u64,
    /// Probability an update is silently dropped.
    pub drop_prob: f64,
    /// Probability an update is delivered twice back-to-back.
    pub duplicate_prob: f64,
    /// Probability an update's coordinates are corrupted (rotating NaN /
    /// infinity / far-out-of-region, so every corruption class occurs).
    pub corrupt_prob: f64,
    /// Probability a tick's batch is delivered in shuffled order.
    pub reorder_prob: f64,
    /// Every `stall_period`-th tick delivers nothing; its updates arrive
    /// with the next tick's batch (a transport hiccup + burst).
    pub stall_period: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            reorder_prob: 0.0,
            stall_period: 0,
        }
    }
}

impl FaultPlan {
    /// Validates probability ranges.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("reorder_prob", self.reorder_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        Ok(())
    }
}

/// What the injector did, cumulatively.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Updates dropped.
    pub dropped: u64,
    /// Extra deliveries added by duplication.
    pub duplicated: u64,
    /// Updates with corrupted coordinates.
    pub corrupted: u64,
    /// Ticks delivered in shuffled order.
    pub reordered_ticks: u64,
    /// Ticks that delivered nothing.
    pub stalled_ticks: u64,
    /// Updates currently held back by a stall.
    pub deferred: u64,
}

/// Uniform in `0..n` (n > 0) from the fault stream, by modulo: recorded
/// fault plans replay this exact draw.
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Applies a [`FaultPlan`] tick by tick.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    tick: u64,
    /// Updates held back by a stalled tick, delivered with the next one.
    deferred: Vec<LocationUpdate>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for the plan (panics on an invalid plan — the
    /// plan is test/bench configuration, not runtime input).
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        FaultInjector {
            plan,
            rng: SplitMix64::new(plan.seed),
            tick: 0,
            deferred: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Cumulative fault counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Transforms one tick's batch into its faulted delivery.
    pub fn apply_tick(&mut self, updates: Vec<LocationUpdate>) -> Vec<LocationUpdate> {
        self.tick += 1;
        let mut incoming = std::mem::take(&mut self.deferred);
        incoming.extend(updates);

        if self.plan.stall_period > 0 && self.tick % self.plan.stall_period == 0 {
            self.stats.stalled_ticks += 1;
            self.stats.deferred = incoming.len() as u64;
            self.deferred = incoming;
            return Vec::new();
        }
        self.stats.deferred = 0;

        let mut out = Vec::with_capacity(incoming.len());
        for mut u in incoming {
            if self.plan.drop_prob > 0.0 && self.rng.gen_f64() < self.plan.drop_prob {
                self.stats.dropped += 1;
                continue;
            }
            if self.plan.corrupt_prob > 0.0 && self.rng.gen_f64() < self.plan.corrupt_prob {
                self.corrupt(&mut u);
            }
            let duplicate =
                self.plan.duplicate_prob > 0.0 && self.rng.gen_f64() < self.plan.duplicate_prob;
            out.push(u);
            if duplicate {
                self.stats.duplicated += 1;
                out.push(u);
            }
        }

        if out.len() > 1
            && self.plan.reorder_prob > 0.0
            && self.rng.gen_f64() < self.plan.reorder_prob
        {
            self.stats.reordered_ticks += 1;
            // Fisher–Yates with the private stream.
            for i in (1..out.len()).rev() {
                let j = below(&mut self.rng, i + 1);
                out.swap(i, j);
            }
        }
        out
    }

    /// Rotates through the corruption classes so every run with enough
    /// corruptions exercises NaN, infinity and out-of-region coordinates.
    fn corrupt(&mut self, u: &mut LocationUpdate) {
        match self.stats.corrupted % 3 {
            0 => u.loc.x = f64::NAN,
            1 => u.loc.y = f64::INFINITY,
            _ => {
                u.loc.x += 1e9;
                u.loc.y -= 1e9;
            }
        }
        self.stats.corrupted += 1;
    }
}

/// A seeded schedule of *worker panics*, the process-internal counterpart
/// to the transport faults above. `panic_prob` is evaluated independently
/// per `(tick, worker)` site with a pure SplitMix64 hash, so the decision
/// is a function of the plan alone — two injectors with the same plan
/// agree on every site, and a supervisor that restores state and retries
/// the same tick is spared a groundhog-day panic unless `rearm` asks for
/// one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanicPlan {
    /// Seed of the per-site hash.
    pub seed: u64,
    /// Probability a given `(tick, worker)` site panics, in `[0, 1]`.
    pub panic_prob: f64,
    /// When `true`, a site fires every time it is asked (a *persistent*
    /// fault: retrying the same tick panics again, exhausting any restart
    /// budget). When `false` (default) each site fires at most once per
    /// injector, modelling a transient fault that a retry survives.
    pub rearm: bool,
}

impl Default for PanicPlan {
    fn default() -> Self {
        PanicPlan {
            seed: 1,
            panic_prob: 0.0,
            rearm: false,
        }
    }
}

impl PanicPlan {
    /// Validates the probability range.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.panic_prob) {
            return Err(format!(
                "panic_prob must be in [0, 1], got {}",
                self.panic_prob
            ));
        }
        Ok(())
    }
}

/// Applies a [`PanicPlan`]. Shared by reference across worker threads:
/// every method takes `&self` and the fired-site memory is behind a lock.
#[derive(Debug)]
pub struct PanicInjector {
    plan: PanicPlan,
    fired_sites: Mutex<HashSet<(u64, u64)>>,
    fired: AtomicU64,
}

impl PanicInjector {
    /// Creates an injector for the plan (panics on an invalid plan — the
    /// plan is test/bench configuration, not runtime input).
    pub fn new(plan: PanicPlan) -> Self {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid panic plan: {e}"));
        PanicInjector {
            plan,
            fired_sites: Mutex::new(HashSet::new()),
            fired: AtomicU64::new(0),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> PanicPlan {
        self.plan
    }

    /// How many times [`PanicInjector::arm`] returned `true`.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// Decides whether the `(tick, worker)` site should panic now. The
    /// decision itself is a pure function of the plan; the injector only
    /// remembers which sites already fired (unless `rearm`). The caller is
    /// expected to `panic!` when this returns `true`.
    pub fn arm(&self, tick: u64, worker: u64) -> bool {
        if self.plan.panic_prob <= 0.0 {
            return false;
        }
        let mut site = SplitMix64::new(
            self.plan
                .seed
                .wrapping_add(tick.wrapping_mul(0x9e3779b97f4a7c15))
                .wrapping_add(worker.wrapping_mul(0xc2b2ae3d27d4eb4f)),
        );
        if site.gen_f64() >= self.plan.panic_prob {
            return false;
        }
        // The set is only ever inserted into, so a poisoned lock still
        // guards a consistent set and is taken back as is.
        if !self.plan.rearm
            && !self
                .fired_sites
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert((tick, worker))
        {
            return false;
        }
        self.fired.fetch_add(1, Ordering::SeqCst);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_motion::{ObjectAttrs, ObjectId};
    use scuba_spatial::Point;

    fn batch(tick: u64, n: u64) -> Vec<LocationUpdate> {
        (0..n)
            .map(|i| {
                LocationUpdate::object(
                    ObjectId(i),
                    Point::new(i as f64, tick as f64),
                    tick,
                    10.0,
                    Point::new(500.0, 500.0),
                    ObjectAttrs::default(),
                )
            })
            .collect()
    }

    #[test]
    fn default_plan_is_identity() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        for t in 1..=5u64 {
            let b = batch(t, 8);
            assert_eq!(inj.apply_tick(b.clone()), b);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    /// NaN-proof fingerprint of a faulted stream (corrupted updates carry
    /// NaN coordinates, so `PartialEq` would report self-inequality).
    fn fingerprint(ticks: &[Vec<LocationUpdate>]) -> Vec<Vec<(u64, u64, u64, u64)>> {
        ticks
            .iter()
            .map(|t| {
                t.iter()
                    .map(|u| {
                        (
                            u.time,
                            u.loc.x.to_bits(),
                            u.loc.y.to_bits(),
                            u.speed.to_bits(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_faults() {
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(FaultPlan {
                seed,
                drop_prob: 0.1,
                duplicate_prob: 0.1,
                corrupt_prob: 0.1,
                reorder_prob: 0.3,
                stall_period: 4,
            });
            let ticks: Vec<Vec<LocationUpdate>> =
                (1..=20u64).map(|t| inj.apply_tick(batch(t, 10))).collect();
            (fingerprint(&ticks), inj.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds differ");
    }

    #[test]
    fn drops_reduce_and_duplicates_grow_the_stream() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 7,
            drop_prob: 0.5,
            ..FaultPlan::default()
        });
        let total: usize = (1..=50u64)
            .map(|t| inj.apply_tick(batch(t, 10)).len())
            .sum();
        assert!(total < 500, "some of the 500 updates must drop");
        assert_eq!(total as u64, 500 - inj.stats().dropped);

        let mut inj = FaultInjector::new(FaultPlan {
            seed: 7,
            duplicate_prob: 0.5,
            ..FaultPlan::default()
        });
        let total: usize = (1..=50u64)
            .map(|t| inj.apply_tick(batch(t, 10)).len())
            .sum();
        assert!(total > 500, "some of the 500 updates must duplicate");
        assert_eq!(total as u64, 500 + inj.stats().duplicated);
    }

    #[test]
    fn stall_defers_to_next_tick() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 1,
            stall_period: 2,
            ..FaultPlan::default()
        });
        let t1 = inj.apply_tick(batch(1, 3));
        assert_eq!(t1.len(), 3);
        // Tick 2 stalls: nothing delivered.
        let t2 = inj.apply_tick(batch(2, 3));
        assert!(t2.is_empty());
        assert_eq!(inj.stats().stalled_ticks, 1);
        assert_eq!(inj.stats().deferred, 3);
        // Tick 3 delivers the burst: its own 3 plus the stalled 3.
        let t3 = inj.apply_tick(batch(3, 3));
        assert_eq!(t3.len(), 6);
        assert_eq!(t3[0].time, 2, "stalled updates lead the burst");
        assert_eq!(inj.stats().deferred, 0);
    }

    #[test]
    fn corruption_rotates_through_classes() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 3,
            corrupt_prob: 1.0,
            ..FaultPlan::default()
        });
        let out = inj.apply_tick(batch(1, 6));
        assert_eq!(inj.stats().corrupted, 6);
        assert!(out[0].loc.x.is_nan());
        assert!(out[1].loc.y.is_infinite());
        assert!(out[2].loc.x > 1e8, "far out of region");
        assert!(out[3].loc.x.is_nan(), "rotation wraps");
    }

    #[test]
    fn reorder_permutes_within_the_tick() {
        let mut inj = FaultInjector::new(FaultPlan {
            seed: 9,
            reorder_prob: 1.0,
            ..FaultPlan::default()
        });
        let original = batch(1, 20);
        let shuffled = inj.apply_tick(original.clone());
        assert_eq!(inj.stats().reordered_ticks, 1);
        assert_ne!(shuffled, original, "order changed");
        let mut a = original.clone();
        let mut b = shuffled.clone();
        let key = |u: &LocationUpdate| (u.time, u.entity);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "same multiset of updates");
    }

    #[test]
    fn invalid_probability_rejected() {
        assert!(FaultPlan {
            drop_prob: 1.5,
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(FaultPlan::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn injector_panics_on_invalid_plan() {
        let _ = FaultInjector::new(FaultPlan {
            corrupt_prob: -0.1,
            ..FaultPlan::default()
        });
    }

    #[test]
    fn panic_sites_are_deterministic_across_injectors() {
        let plan = PanicPlan {
            seed: 11,
            panic_prob: 0.2,
            rearm: true,
        };
        let a = PanicInjector::new(plan);
        let b = PanicInjector::new(plan);
        let sites = |inj: &PanicInjector| {
            let mut fired = Vec::new();
            for tick in 1..=50u64 {
                for worker in 0..4u64 {
                    if inj.arm(tick, worker) {
                        fired.push((tick, worker));
                    }
                }
            }
            fired
        };
        let fa = sites(&a);
        assert_eq!(fa, sites(&b), "same plan, same sites");
        assert!(!fa.is_empty(), "prob 0.2 over 200 sites must fire");
        assert!(fa.len() < 200, "and must not fire everywhere");
        assert_eq!(a.fired(), fa.len() as u64);
    }

    #[test]
    fn transient_sites_fire_once_persistent_sites_rearm() {
        let transient = PanicInjector::new(PanicPlan {
            seed: 5,
            panic_prob: 1.0,
            rearm: false,
        });
        assert!(transient.arm(3, 0), "first ask fires");
        assert!(!transient.arm(3, 0), "retry of the same site survives");
        assert!(transient.arm(3, 1), "other workers are independent sites");

        let persistent = PanicInjector::new(PanicPlan {
            seed: 5,
            panic_prob: 1.0,
            rearm: true,
        });
        assert!(persistent.arm(3, 0));
        assert!(persistent.arm(3, 0), "rearmed site fires again");
    }

    #[test]
    fn zero_probability_panic_plan_never_fires() {
        let inj = PanicInjector::new(PanicPlan::default());
        for tick in 1..=100u64 {
            assert!(!inj.arm(tick, 0));
        }
        assert_eq!(inj.fired(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid panic plan")]
    fn panic_injector_rejects_invalid_probability() {
        let _ = PanicInjector::new(PanicPlan {
            panic_prob: 2.0,
            ..PanicPlan::default()
        });
    }
}
