//! Moving-cluster-driven load shedding (paper §5).
//!
//! The nucleus is "a circular region that approximates the positions of the
//! cluster members near the centroid of the cluster. The size of the
//! nucleus is determined by its radius threshold Θ_N where
//! 0 ≤ Θ_N ≤ Θ_D. The larger the value of Θ_N, the more data is load
//! shed." A member whose position falls inside the nucleus has its
//! position discarded; during join-within it is answered from the nucleus
//! region instead of an exact point.
//!
//! [`ShedLadder`] walks the modes under load: one ladder, triggered by a
//! memory budget (§5) and/or a per-evaluation deadline.

use std::time::Duration;

/// How aggressively member positions are shed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SheddingMode {
    /// No load shedding: every member's position is kept
    /// (Fig. 8a).
    #[default]
    None,
    /// Partial shedding (Fig. 8c): members within the nucleus radius
    /// Θ_N = η·Θ_D lose their positions; η ∈ \[0, 1\].
    Partial {
        /// Nucleus size as a fraction of Θ_D.
        eta: f64,
    },
    /// Full shedding (Fig. 8b): no member positions are kept; the cluster
    /// region is the sole representation of its members.
    Full,
}

impl SheddingMode {
    /// The nucleus radius for a given distance threshold Θ_D, or `None`
    /// when no shedding is configured.
    ///
    /// `Full` maps to an unbounded nucleus (every member is inside).
    pub fn nucleus_radius(&self, theta_d: f64) -> Option<f64> {
        match self {
            SheddingMode::None => None,
            SheddingMode::Partial { eta } => Some(eta.clamp(0.0, 1.0) * theta_d),
            SheddingMode::Full => Some(f64::INFINITY),
        }
    }

    /// Whether a member at relative distance `r` from the centroid should
    /// have its position shed.
    pub fn sheds_at(&self, r: f64, theta_d: f64) -> bool {
        match self.nucleus_radius(theta_d) {
            None => false,
            Some(n) => r <= n,
        }
    }

    /// Whether any shedding happens at all.
    pub fn is_active(&self) -> bool {
        !matches!(
            self,
            SheddingMode::None | SheddingMode::Partial { eta: 0.0 }
        )
    }

    /// Validates the mode's parameters.
    pub fn validate(&self) -> Result<(), crate::params::ParamsError> {
        match self {
            SheddingMode::Partial { eta } if !(0.0..=1.0).contains(eta) => {
                Err(crate::params::ParamsError::EtaOutOfRange(*eta))
            }
            _ => Ok(()),
        }
    }

    /// The mode for a given fraction of *maintained* relative positions —
    /// the x-axis of Fig. 13 ("Relative Positions Maintained Percent").
    /// 100 % maintained ⇒ no shedding; 0 % maintained ⇒ full shedding.
    pub fn from_maintained_percent(percent: f64) -> SheddingMode {
        let maintained = (percent / 100.0).clamp(0.0, 1.0);
        let eta = 1.0 - maintained;
        if eta <= 0.0 {
            SheddingMode::None
        } else if eta >= 1.0 {
            SheddingMode::Full
        } else {
            SheddingMode::Partial { eta }
        }
    }
}

/// The shedding ladder, least → most aggressive.
const RUNGS: [SheddingMode; 5] = [
    SheddingMode::None,
    SheddingMode::Partial { eta: 0.25 },
    SheddingMode::Partial { eta: 0.5 },
    SheddingMode::Partial { eta: 0.75 },
    SheddingMode::Full,
];

/// The memory trigger votes to relax below this fraction of the budget.
const RELAX_FRACTION: f64 = 0.7;
/// Consecutive deadline misses before the deadline trigger votes to climb
/// (a single slow tick — a GC pause, a cold cache — sheds nothing).
const ESCALATE_AFTER_MISSES: u32 = 2;
/// Consecutive clean ticks before the deadline trigger votes to relax.
const RELAX_AFTER_CLEAN: u32 = 3;

/// Lifetime counters of a [`ShedLadder`], for reports and `--json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadCounters {
    /// Ticks observed.
    pub ticks: u64,
    /// Ticks whose cost exceeded the deadline.
    pub misses: u64,
    /// Ticks whose memory footprint exceeded the budget.
    pub over_budget: u64,
    /// Rung increases (None → Partial, Partial → Full, …).
    pub escalations: u64,
    /// Rung decreases.
    pub relaxations: u64,
}

/// One trigger's verdict on one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vote {
    Climb,
    Hold,
    Relax,
}

/// The deadline trigger's streaks.
#[derive(Debug, Clone, PartialEq)]
struct DeadlineTrigger {
    deadline: Duration,
    consecutive_misses: u32,
    consecutive_clean: u32,
}

impl DeadlineTrigger {
    fn vote(&mut self, missed: bool) -> Vote {
        if missed {
            self.consecutive_clean = 0;
            self.consecutive_misses += 1;
            if self.consecutive_misses >= ESCALATE_AFTER_MISSES {
                self.consecutive_misses = 0;
                return Vote::Climb;
            }
        } else {
            self.consecutive_misses = 0;
            self.consecutive_clean += 1;
            if self.consecutive_clean >= RELAX_AFTER_CLEAN {
                self.consecutive_clean = 0;
                return Vote::Relax;
            }
        }
        Vote::Hold
    }
}

/// What one [`ShedLadder::observe`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderStep {
    /// Whether the tick cost exceeded the deadline (`false` without a
    /// deadline trigger).
    pub missed: bool,
    /// The new mode, when the ladder moved a rung.
    pub moved_to: Option<SheddingMode>,
}

/// The escalating shedding controller: one ladder
/// `None → η=0.25 → η=0.5 → η=0.75 → Full`, one level, and up to two
/// triggers.
///
/// * **memory** (§5: "If the system is about to run out of memory, SCUBA
///   begins load shedding of cluster member positions… If memory
///   requirements are still high, then SCUBA load sheds positions of all
///   cluster members"): votes to climb on every observation over the
///   budget and to relax below 70 % of it;
/// * **deadline**: votes to climb on the 2nd consecutive tick whose cost
///   exceeds the deadline and to relax on the 3rd consecutive clean tick
///   (hysteresis, so the mode does not oscillate around the deadline).
///
/// The ladder climbs one rung when any attached trigger votes to climb,
/// and relaxes one rung only when every attached trigger votes to relax
/// on the same observation. With one trigger attached it is that
/// trigger's controller alone. It is a pure state machine over observed
/// footprints and durations — it never reads a clock itself — so tests
/// drive it with scripted values.
///
/// # Examples
///
/// ```
/// use scuba::{SheddingMode, ShedLadder};
/// use std::time::Duration;
///
/// let mut ladder = ShedLadder::default().with_memory_budget(1_000_000);
/// assert_eq!(ladder.current(), SheddingMode::None);
///
/// // Memory over budget: climb one rung.
/// let step = ladder.observe(1_500_000, Duration::ZERO);
/// assert_eq!(step.moved_to, Some(SheddingMode::Partial { eta: 0.25 }));
/// // Well under budget: relax again.
/// let step = ladder.observe(500_000, Duration::ZERO);
/// assert_eq!(step.moved_to, Some(SheddingMode::None));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShedLadder {
    level: usize,
    budget_bytes: Option<usize>,
    deadline: Option<DeadlineTrigger>,
    counters: OverloadCounters,
}

impl ShedLadder {
    /// Attaches the memory trigger with a budget in bytes.
    pub fn with_memory_budget(mut self, budget_bytes: usize) -> Self {
        self.budget_bytes = Some(budget_bytes);
        self
    }

    /// Attaches the deadline trigger: the per-evaluation wall-time budget
    /// (evaluation + ingest since the previous evaluation).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(DeadlineTrigger {
            deadline,
            consecutive_misses: 0,
            consecutive_clean: 0,
        });
        self
    }

    /// The deadline, when the deadline trigger is attached.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline.as_ref().map(|d| d.deadline)
    }

    /// The currently selected mode.
    pub fn current(&self) -> SheddingMode {
        RUNGS[self.level]
    }

    /// Lifetime counters; `ticks` counts while any trigger is attached,
    /// `misses` only with a deadline trigger and `over_budget` only with a
    /// memory trigger.
    pub fn counters(&self) -> OverloadCounters {
        self.counters
    }

    /// Feeds one evaluation's memory footprint and tick cost; a trigger
    /// that is not attached ignores its value.
    pub fn observe(&mut self, memory_bytes: usize, tick_cost: Duration) -> LadderStep {
        let memory = self.budget_bytes.map(|budget| {
            if memory_bytes > budget {
                self.counters.over_budget += 1;
                Vote::Climb
            } else if (memory_bytes as f64) < budget as f64 * RELAX_FRACTION {
                Vote::Relax
            } else {
                Vote::Hold
            }
        });
        let mut missed = false;
        let deadline = self.deadline.as_mut().map(|trigger| {
            missed = tick_cost > trigger.deadline;
            trigger.vote(missed)
        });
        if memory.is_some() || deadline.is_some() {
            self.counters.ticks += 1;
            self.counters.misses += missed as u64;
        }

        let votes = [memory, deadline];
        let before = self.level;
        if votes.contains(&Some(Vote::Climb)) {
            if self.level + 1 < RUNGS.len() {
                self.level += 1;
                self.counters.escalations += 1;
            }
        } else if votes.iter().flatten().all(|&v| v == Vote::Relax)
            && votes.iter().any(Option::is_some)
            && self.level > 0
        {
            self.level -= 1;
            self.counters.relaxations += 1;
        }
        LadderStep {
            missed,
            moved_to: (self.level != before).then(|| self.current()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_sheds() {
        assert_eq!(SheddingMode::None.nucleus_radius(100.0), None);
        assert!(!SheddingMode::None.sheds_at(0.0, 100.0));
        assert!(!SheddingMode::None.is_active());
    }

    #[test]
    fn partial_sheds_inside_nucleus() {
        let m = SheddingMode::Partial { eta: 0.45 };
        assert_eq!(m.nucleus_radius(100.0), Some(45.0));
        assert!(m.sheds_at(45.0, 100.0));
        assert!(m.sheds_at(0.0, 100.0));
        assert!(!m.sheds_at(45.1, 100.0));
        assert!(m.is_active());
    }

    #[test]
    fn full_sheds_everything() {
        assert!(SheddingMode::Full.sheds_at(1e12, 100.0));
        assert!(SheddingMode::Full.is_active());
    }

    #[test]
    fn partial_zero_is_inactive() {
        assert!(!SheddingMode::Partial { eta: 0.0 }.is_active());
    }

    #[test]
    fn validation() {
        assert!(SheddingMode::Partial { eta: 1.5 }.validate().is_err());
        assert!(SheddingMode::Partial { eta: -0.1 }.validate().is_err());
        assert!(SheddingMode::Partial { eta: 0.5 }.validate().is_ok());
        assert!(SheddingMode::None.validate().is_ok());
        assert!(SheddingMode::Full.validate().is_ok());
    }

    #[test]
    fn maintained_percent_mapping() {
        assert_eq!(
            SheddingMode::from_maintained_percent(100.0),
            SheddingMode::None
        );
        assert_eq!(
            SheddingMode::from_maintained_percent(0.0),
            SheddingMode::Full
        );
        match SheddingMode::from_maintained_percent(75.0) {
            SheddingMode::Partial { eta } => assert!((eta - 0.25).abs() < 1e-12),
            other => panic!("expected partial, got {other:?}"),
        }
        // Out-of-range values clamp.
        assert_eq!(
            SheddingMode::from_maintained_percent(150.0),
            SheddingMode::None
        );
        assert_eq!(
            SheddingMode::from_maintained_percent(-5.0),
            SheddingMode::Full
        );
    }

    #[derive(Debug, Clone, Copy)]
    enum Trigger {
        Memory,
        Deadline,
        Both,
    }

    /// A ladder with a 1000-byte budget and/or a 100 µs deadline.
    fn ladder(trigger: Trigger) -> ShedLadder {
        let memory = ShedLadder::default().with_memory_budget(1000);
        let deadline = Duration::from_micros(100);
        match trigger {
            Trigger::Memory => memory,
            Trigger::Deadline => ShedLadder::default().with_deadline(deadline),
            Trigger::Both => memory.with_deadline(deadline),
        }
    }

    /// Feeds one observation per character pair and returns the rung
    /// (index into [`RUNGS`]) after each. Memory: `O` over budget (1500),
    /// `B` in the hold band (900), `U` under 70 % (500); an empty script
    /// is all `U`. Cost: `S` slow (150 µs), `F` fast (10 µs), `=` exactly
    /// the deadline, `+` 1 µs over it; an empty script is all `F`.
    fn run(l: &mut ShedLadder, memory: &str, cost: &str) -> String {
        let len = memory.len().max(cost.len());
        let memory = memory.chars().chain(std::iter::repeat('U'));
        let cost = cost.chars().chain(std::iter::repeat('F'));
        memory
            .zip(cost)
            .take(len)
            .map(|(m, c)| {
                let bytes = match m {
                    'O' => 1500,
                    'B' => 900,
                    _ => 500,
                };
                let us = match c {
                    'S' => 150,
                    '=' => 100,
                    '+' => 101,
                    _ => 10,
                };
                l.observe(bytes, Duration::from_micros(us));
                RUNGS
                    .iter()
                    .position(|&r| r == l.current())
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// (trigger, memory script, cost script, the rung after each step).
    #[test]
    fn ladder_walks_each_script() {
        use Trigger::*;
        let cases = [
            // Memory: every observation over budget climbs; Full is the top.
            (Memory, "OOOOO", "", "12344"),
            // Memory: holds in the 70-100 % band, relaxes one rung below it.
            (Memory, "OOBUUU", "", "122100"),
            // Deadline: one miss does not climb; every 2nd consecutive does.
            (Deadline, "", "S", "0"),
            (Deadline, "", "SSSS", "0112"),
            // Deadline: a clean tick breaks the miss streak.
            (Deadline, "", "SFS", "000"),
            // Deadline: the 3rd consecutive clean tick relaxes; a miss
            // breaks the clean streak.
            (Deadline, "", "SSFFF", "01110"),
            (Deadline, "", "SSFFSFFF", "01111110"),
            // Deadline: exactly the deadline is clean.
            (Deadline, "", "==++", "0001"),
            // Deadline: saturates at Full, floors at None.
            (
                Deadline,
                "",
                "SSSSSSSSFFFFFFFFFFFFFF",
                "0112233444333222111000",
            ),
            // Both: an unmet budget holds the ladder up through clean
            // ticks; the deadline's relax vote alone moves nothing.
            (Both, "OOOOOOOOOOOO", "SSFFFFFFFFFF", "123444444444"),
            // Both: the deadline climbs alone; relaxing waits for it ...
            (Both, "UUUUU", "SSFFF", "01110"),
            // ... and for memory, whose hold band blocks the relax.
            (Both, "BBBBBBBB", "SSFFFFFF", "01111111"),
        ];
        for (trigger, memory, cost, rungs) in cases {
            let mut l = ladder(trigger);
            assert_eq!(
                run(&mut l, memory, cost),
                rungs,
                "{trigger:?} {memory} {cost}"
            );
        }
    }

    #[test]
    fn ladder_starts_at_none_with_no_counts() {
        for trigger in [Trigger::Memory, Trigger::Deadline, Trigger::Both] {
            let l = ladder(trigger);
            assert_eq!(l.current(), SheddingMode::None);
            assert_eq!(l.counters(), OverloadCounters::default());
        }
        assert_eq!(ladder(Trigger::Memory).deadline(), None);
        let deadline = ladder(Trigger::Deadline).deadline();
        assert_eq!(deadline, Some(Duration::from_micros(100)));
    }

    #[test]
    fn a_ladder_without_triggers_never_moves() {
        let mut l = ShedLadder::default();
        assert_eq!(run(&mut l, "OUUU", "SFFF"), "0000");
        assert_eq!(l.counters(), OverloadCounters::default());
    }

    #[test]
    fn steps_report_misses_and_moves() {
        let mut l = ladder(Trigger::Deadline);
        let slow = Duration::from_micros(150);
        let step = l.observe(0, slow);
        assert_eq!(
            step,
            LadderStep {
                missed: true,
                moved_to: None
            }
        );
        assert_eq!(l.observe(0, slow).moved_to, Some(RUNGS[1]));
        assert!(!l.observe(0, Duration::from_micros(100)).missed);
    }

    #[test]
    fn counters_track_ticks_misses_and_moves() {
        let mut l = ladder(Trigger::Deadline);
        run(&mut l, "", "SFS");
        assert_eq!((l.counters().ticks, l.counters().misses), (3, 2));

        let mut l = ladder(Trigger::Deadline);
        let rungs = run(&mut l, "", &format!("{}{}", "S".repeat(20), "F".repeat(40)));
        assert!(rungs.starts_with("0112233444") && rungs.ends_with("000"));
        let expected = OverloadCounters {
            ticks: 60,
            misses: 20,
            over_budget: 0,
            escalations: 4,
            relaxations: 4,
        };
        assert_eq!(l.counters(), expected, "four moves each way");

        // Memory alone counts its ticks and those over the budget.
        let mut l = ladder(Trigger::Memory);
        run(&mut l, "OOU", "");
        let k = l.counters();
        assert_eq!(
            (
                k.ticks,
                k.misses,
                k.over_budget,
                k.escalations,
                k.relaxations
            ),
            (3, 0, 2, 2, 1)
        );
    }
}
