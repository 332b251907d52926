//! The adaptive overload governor: closed-loop sample-rate control.
//!
//! PR 4 gave the pipeline sensors — buffer occupancy gauges, drain
//! stage timers, the flight recorder — but nothing *acted* on them: a
//! sustained overflow burst simply shed samples. This module closes the
//! loop, in the spirit of Metz & Lencevicius' argument that a profiler
//! must regulate its own overhead:
//!
//! * the daemon feeds one observation per drain window (ring occupancy
//!   before the drain, samples dropped since the last drain) into a
//!   [`Governor`];
//! * under pressure (drops, or occupancy at/above the **high
//!   watermark**) for a full **dwell** of consecutive windows, the
//!   governor backs the NMI overflow period off *multiplicatively*
//!   (fewer samples per cycle — load sheds at the source, not the ring);
//! * once calm (no drops, occupancy at/below the **low watermark**)
//!   for a full dwell, it walks the period back *additively* toward the
//!   configured base, restoring resolution gradually;
//! * hysteresis comes from the watermark gap plus a post-change
//!   cooldown of one dwell, so the controller cannot oscillate faster
//!   than the dwell window.
//!
//! The governor also owns the daemon's per-drain **deadline budget**:
//! a drain that costs more cycles than the budget is a miss; enough
//! consecutive misses escalate to the [`Supervisor`](crate::Supervisor)
//! (which treats the escalation like a missed heartbeat and schedules a
//! restart) instead of letting a chronically late daemon stall the
//! session silently.
//!
//! Everything here is a pure function of the observation sequence — no
//! randomness, no wall clock — so a fixed seed and fault plan replay to
//! a bit-identical period trajectory, which the telemetry determinism
//! tests rely on.

/// Tuning for the overload governor. All percentages are of ring
/// capacity; all periods are in primary-counter events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Occupancy at/above this percentage counts as a pressure window
    /// (drops always do).
    pub high_watermark_pct: u64,
    /// Occupancy at/below this percentage — with zero drops — counts as
    /// a calm window. The gap to `high_watermark_pct` is the hysteresis
    /// band where the controller holds.
    pub low_watermark_pct: u64,
    /// Consecutive windows a condition must persist before the period
    /// changes, and the cooldown after each change. The controller can
    /// never change the period twice within `dwell_windows` windows.
    pub dwell_windows: u64,
    /// Multiplicative back-off applied to the period under sustained
    /// pressure (≥ 2: the period at least doubles).
    pub backoff_factor: u64,
    /// Additive step the period recovers by per calm decision. `0`
    /// means "an eighth of the base period".
    pub recovery_step: u64,
    /// Ceiling on back-off, as a multiple of the base period.
    pub max_scale: u64,
    /// Per-drain cycle budget; a costlier drain is a deadline miss.
    /// `0` disables deadline tracking.
    pub deadline_cycles: u64,
    /// Consecutive deadline misses before the governor escalates to the
    /// supervisor.
    pub deadline_miss_threshold: u64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            high_watermark_pct: 60,
            low_watermark_pct: 20,
            dwell_windows: 2,
            backoff_factor: 2,
            recovery_step: 0,
            max_scale: 16,
            deadline_cycles: 0,
            deadline_miss_threshold: 3,
        }
    }
}

impl GovernorConfig {
    /// Sanity-check the tuning; called from `OpConfig::validate`.
    pub fn validate(&self) -> Result<(), String> {
        if self.high_watermark_pct > 100 {
            return Err(format!(
                "governor high watermark {}% exceeds 100%",
                self.high_watermark_pct
            ));
        }
        if self.low_watermark_pct >= self.high_watermark_pct {
            return Err(format!(
                "governor watermarks inverted: low {}% must be below high {}%",
                self.low_watermark_pct, self.high_watermark_pct
            ));
        }
        if self.dwell_windows == 0 {
            return Err("governor dwell must be at least one window".into());
        }
        if self.backoff_factor < 2 {
            return Err(format!(
                "governor backoff factor {} must be at least 2",
                self.backoff_factor
            ));
        }
        if self.max_scale == 0 {
            return Err("governor max scale must be at least 1".into());
        }
        if self.deadline_cycles > 0 && self.deadline_miss_threshold == 0 {
            return Err("governor deadline miss threshold must be at least 1".into());
        }
        Ok(())
    }
}

/// What the governor decided for one drain window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorDecision {
    /// No change (in the hysteresis band, mid-dwell, or cooling down).
    Hold,
    /// Pressure persisted a full dwell: the period backed off.
    Backoff { from: u64, to: u64 },
    /// Calm persisted a full dwell: the period stepped toward base.
    Recover { from: u64, to: u64 },
}

/// Verdict on one drain's cycle cost against the deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineVerdict {
    /// Within budget (or deadline tracking disabled).
    Met,
    /// Over budget. `escalate` is set when this miss crossed the
    /// consecutive-miss threshold; the caller must surface it to the
    /// supervisor (the streak resets so escalations re-arm).
    Missed { escalate: bool },
}

/// The controller state. One per session, owned by the daemon.
#[derive(Debug, Clone)]
pub struct Governor {
    config: GovernorConfig,
    base_period: u64,
    max_period: u64,
    recovery_step: u64,
    period: u64,
    pressure_streak: u64,
    calm_streak: u64,
    cooldown: u64,
    /// Multiplicative back-offs taken.
    pub backoffs: u64,
    /// Additive recovery steps taken.
    pub recoveries: u64,
    /// Total drain-deadline misses observed.
    pub deadline_misses: u64,
    /// Escalations handed to the supervisor.
    pub escalations: u64,
    consecutive_misses: u64,
}

impl Governor {
    /// `base_period` is the configured primary period: the floor the
    /// controller recovers to and the unit `max_scale` multiplies.
    pub fn new(base_period: u64, config: GovernorConfig) -> Governor {
        assert!(base_period > 0, "governor base period must be positive");
        config.validate().expect("invalid governor config");
        Governor {
            max_period: base_period.saturating_mul(config.max_scale),
            recovery_step: match config.recovery_step {
                0 => (base_period / 8).max(1),
                step => step,
            },
            base_period,
            period: base_period,
            pressure_streak: 0,
            calm_streak: 0,
            cooldown: 0,
            backoffs: 0,
            recoveries: 0,
            deadline_misses: 0,
            escalations: 0,
            consecutive_misses: 0,
            config,
        }
    }

    /// The period the controller currently wants programmed.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The configured (floor) period.
    pub fn base_period(&self) -> u64 {
        self.base_period
    }

    /// The back-off ceiling.
    pub fn max_period(&self) -> u64 {
        self.max_period
    }

    /// Feed one drain window: ring occupancy *before* the drain and the
    /// samples dropped since the previous window. Returns the decision;
    /// on `Backoff`/`Recover` the caller reprograms the counter to
    /// [`period()`](Self::period).
    pub fn observe(&mut self, occupancy: usize, capacity: usize, dropped: u64) -> GovernorDecision {
        let pct = occupancy as u64 * 100 / capacity.max(1) as u64;
        if dropped > 0 || pct >= self.config.high_watermark_pct {
            self.pressure_streak += 1;
            self.calm_streak = 0;
        } else if pct <= self.config.low_watermark_pct {
            self.calm_streak += 1;
            self.pressure_streak = 0;
        } else {
            // Hysteresis band: neither streak advances.
            self.pressure_streak = 0;
            self.calm_streak = 0;
        }

        if self.cooldown > 0 {
            self.cooldown -= 1;
            return GovernorDecision::Hold;
        }

        if self.pressure_streak >= self.config.dwell_windows && self.period < self.max_period {
            let from = self.period;
            self.period = self
                .period
                .saturating_mul(self.config.backoff_factor)
                .min(self.max_period);
            self.after_change();
            self.backoffs += 1;
            return GovernorDecision::Backoff { from, to: self.period };
        }

        if self.calm_streak >= self.config.dwell_windows && self.period > self.base_period {
            let from = self.period;
            self.period = self
                .period
                .saturating_sub(self.recovery_step)
                .max(self.base_period);
            self.after_change();
            self.recoveries += 1;
            return GovernorDecision::Recover { from, to: self.period };
        }

        GovernorDecision::Hold
    }

    fn after_change(&mut self) {
        self.cooldown = self.config.dwell_windows;
        self.pressure_streak = 0;
        self.calm_streak = 0;
    }

    /// Check one drain's cycle cost against the deadline budget.
    pub fn note_drain_cycles(&mut self, cycles: u64) -> DeadlineVerdict {
        if self.config.deadline_cycles == 0 || cycles <= self.config.deadline_cycles {
            self.consecutive_misses = 0;
            return DeadlineVerdict::Met;
        }
        self.deadline_misses += 1;
        self.consecutive_misses += 1;
        let escalate = self.consecutive_misses >= self.config.deadline_miss_threshold;
        if escalate {
            self.escalations += 1;
            self.consecutive_misses = 0;
        }
        DeadlineVerdict::Missed { escalate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(base: u64) -> Governor {
        Governor::new(base, GovernorConfig::default())
    }

    #[test]
    fn sustained_pressure_backs_off_multiplicatively() {
        let mut g = gov(90_000);
        // Dwell is 2: one pressure window holds, the second backs off.
        assert_eq!(g.observe(90, 100, 0), GovernorDecision::Hold);
        assert_eq!(
            g.observe(90, 100, 0),
            GovernorDecision::Backoff { from: 90_000, to: 180_000 }
        );
        assert_eq!(g.period(), 180_000);
        assert_eq!(g.backoffs, 1);
    }

    #[test]
    fn drops_count_as_pressure_regardless_of_occupancy() {
        let mut g = gov(90_000);
        g.observe(0, 100, 5);
        let d = g.observe(0, 100, 5);
        assert!(matches!(d, GovernorDecision::Backoff { .. }));
    }

    #[test]
    fn cooldown_blocks_consecutive_changes() {
        let mut g = gov(90_000);
        g.observe(100, 100, 1);
        assert!(matches!(g.observe(100, 100, 1), GovernorDecision::Backoff { .. }));
        // Two cooldown windows (dwell = 2) must hold even under pressure.
        assert_eq!(g.observe(100, 100, 1), GovernorDecision::Hold);
        assert_eq!(g.observe(100, 100, 1), GovernorDecision::Hold);
        assert!(matches!(g.observe(100, 100, 1), GovernorDecision::Backoff { .. }));
    }

    #[test]
    fn recovery_is_additive_and_floors_at_base() {
        let mut g = gov(80_000); // recovery step = 10_000
        g.observe(100, 100, 1);
        g.observe(100, 100, 1); // dwell met: one back-off to 160_000
        assert_eq!(g.period(), 160_000);
        let mut steps = Vec::new();
        for _ in 0..40 {
            if let GovernorDecision::Recover { from, to } = g.observe(0, 100, 0) {
                steps.push(from - to);
            }
        }
        assert_eq!(g.period(), 80_000, "converges back to base");
        assert!(steps.iter().all(|&s| s == 10_000), "additive steps: {steps:?}");
        // Once at base, calm windows change nothing.
        assert_eq!(g.observe(0, 100, 0), GovernorDecision::Hold);
    }

    #[test]
    fn backoff_saturates_at_max_scale() {
        let mut g = gov(1_000); // max period 16_000
        for _ in 0..100 {
            g.observe(100, 100, 10);
        }
        assert_eq!(g.period(), 16_000);
        assert_eq!(g.observe(100, 100, 10), GovernorDecision::Hold);
    }

    #[test]
    fn hysteresis_band_resets_both_streaks() {
        let mut g = gov(90_000);
        g.observe(90, 100, 0); // pressure 1 of 2
        g.observe(40, 100, 0); // mid-band: streak resets
        assert_eq!(g.observe(90, 100, 0), GovernorDecision::Hold, "streak restarted");
    }

    #[test]
    fn deadline_streak_escalates_then_rearms() {
        let mut g = Governor::new(
            90_000,
            GovernorConfig {
                deadline_cycles: 1_000,
                deadline_miss_threshold: 2,
                ..GovernorConfig::default()
            },
        );
        assert_eq!(g.note_drain_cycles(900), DeadlineVerdict::Met);
        assert_eq!(g.note_drain_cycles(1_500), DeadlineVerdict::Missed { escalate: false });
        assert_eq!(g.note_drain_cycles(1_500), DeadlineVerdict::Missed { escalate: true });
        // Streak reset: escalation re-arms.
        assert_eq!(g.note_drain_cycles(1_500), DeadlineVerdict::Missed { escalate: false });
        // A healthy drain also resets the streak.
        assert_eq!(g.note_drain_cycles(100), DeadlineVerdict::Met);
        assert_eq!(g.note_drain_cycles(1_500), DeadlineVerdict::Missed { escalate: false });
        assert_eq!(g.deadline_misses, 4);
        assert_eq!(g.escalations, 1);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = GovernorConfig::default();
        assert!(ok.validate().is_ok());
        assert!(GovernorConfig { high_watermark_pct: 101, ..ok }.validate().is_err());
        assert!(GovernorConfig { low_watermark_pct: 60, ..ok }.validate().is_err());
        assert!(GovernorConfig { dwell_windows: 0, ..ok }.validate().is_err());
        assert!(GovernorConfig { backoff_factor: 1, ..ok }.validate().is_err());
        assert!(GovernorConfig { max_scale: 0, ..ok }.validate().is_err());
        assert!(GovernorConfig {
            deadline_cycles: 1,
            deadline_miss_threshold: 0,
            ..ok
        }
        .validate()
        .is_err());
    }
}
