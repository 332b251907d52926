//! Adaptive optimization system (AOS).
//!
//! Jikes RVM compiles every method with the baseline compiler on first
//! invocation and *recompiles* hot methods at higher optimization
//! levels, guided by invocation and back-edge counters. Recompilation
//! is what makes a method's body exist "at several different memory
//! locations during a single execution" even before GC moves are
//! considered — one of the two events VIProf's code maps must track.

/// Compilation tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    #[default]
    Baseline,
    Opt1,
    Opt2,
}

impl OptLevel {
    pub fn next(self) -> Option<OptLevel> {
        match self {
            OptLevel::Baseline => Some(OptLevel::Opt1),
            OptLevel::Opt1 => Some(OptLevel::Opt2),
            OptLevel::Opt2 => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            OptLevel::Baseline => "base",
            OptLevel::Opt1 => "O1",
            OptLevel::Opt2 => "O2",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-method hotness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotnessCounters {
    pub invocations: u64,
    pub backedges: u64,
}

impl HotnessCounters {
    /// Jikes-style combined hotness: invocations weigh more than loop
    /// iterations (a back-edge is 1/8 of an invocation).
    pub fn score(&self) -> u64 {
        self.invocations + self.backedges / 8
    }
}

/// Recompilation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AosPolicy {
    /// Hotness score at which a baseline method is promoted to Opt1.
    pub opt1_threshold: u64,
    /// Hotness score at which an Opt1 method is promoted to Opt2.
    pub opt2_threshold: u64,
}

impl Default for AosPolicy {
    fn default() -> Self {
        AosPolicy {
            opt1_threshold: 1_000,
            opt2_threshold: 50_000,
        }
    }
}

impl AosPolicy {
    /// Promotion decision for a method at `current` level with the given
    /// counters. Returns the level to recompile at, if any.
    pub fn decide(&self, current: OptLevel, counters: &HotnessCounters) -> Option<OptLevel> {
        let score = counters.score();
        match current {
            OptLevel::Baseline if score >= self.opt1_threshold => Some(OptLevel::Opt1),
            OptLevel::Opt1 if score >= self.opt2_threshold => Some(OptLevel::Opt2),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ladder() {
        assert_eq!(OptLevel::Baseline.next(), Some(OptLevel::Opt1));
        assert_eq!(OptLevel::Opt1.next(), Some(OptLevel::Opt2));
        assert_eq!(OptLevel::Opt2.next(), None);
        assert!(OptLevel::Baseline < OptLevel::Opt2);
    }

    #[test]
    fn score_weights_backedges_down() {
        let c = HotnessCounters {
            invocations: 10,
            backedges: 80,
        };
        assert_eq!(c.score(), 20);
    }

    #[test]
    fn decide_promotes_at_thresholds() {
        let p = AosPolicy {
            opt1_threshold: 10,
            opt2_threshold: 100,
        };
        let cold = HotnessCounters {
            invocations: 5,
            backedges: 0,
        };
        let warm = HotnessCounters {
            invocations: 10,
            backedges: 0,
        };
        let hot = HotnessCounters {
            invocations: 100,
            backedges: 0,
        };
        assert_eq!(p.decide(OptLevel::Baseline, &cold), None);
        assert_eq!(p.decide(OptLevel::Baseline, &warm), Some(OptLevel::Opt1));
        // Warm isn't enough for the Opt2 jump.
        assert_eq!(p.decide(OptLevel::Opt1, &warm), None);
        assert_eq!(p.decide(OptLevel::Opt1, &hot), Some(OptLevel::Opt2));
        // Top tier never promotes.
        assert_eq!(p.decide(OptLevel::Opt2, &hot), None);
    }

    #[test]
    fn baseline_only_never_promotes() {
        let p = AosPolicy {
            opt1_threshold: u64::MAX,
            opt2_threshold: u64::MAX,
        };
        let very_hot = HotnessCounters {
            invocations: u64::MAX / 2,
            backedges: 0,
        };
        assert_eq!(p.decide(OptLevel::Baseline, &very_hot), None);
    }
}
