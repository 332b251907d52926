//! The global cycle clock.
//!
//! All simulated time in the stack is expressed in core cycles of a
//! single simulated CPU. Wall-clock seconds (what the paper's Figure 3
//! reports) are derived by dividing by the core frequency, which defaults
//! to the paper's 3.4 GHz Pentium 4 Xeon. (The paper's text says
//! "3.4MHz"; that is an obvious typo for GHz.)

/// Default core frequency in Hz (3.4 GHz).
pub const DEFAULT_FREQ_HZ: u64 = 3_400_000_000;

/// Monotone cycle counter with a fixed frequency for cycle↔second
/// conversion.
#[derive(Debug, Clone)]
pub struct Clock {
    cycles: u64,
    freq_hz: u64,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new(DEFAULT_FREQ_HZ)
    }
}

impl Clock {
    pub fn new(freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "clock frequency must be positive");
        Clock { cycles: 0, freq_hz }
    }

    /// Current cycle count since machine start.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Advance the clock by `n` cycles.
    pub fn advance(&mut self, n: u64) {
        self.cycles = self
            .cycles
            .checked_add(n)
            .expect("simulated clock overflowed u64");
    }

    /// Simulated elapsed seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / self.freq_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = Clock::default();
        assert_eq!(c.cycles(), 0);
        c.advance(100);
        c.advance(23);
        assert_eq!(c.cycles(), 123);
    }

    #[test]
    fn seconds_round_trip() {
        let mut c = Clock::new(1_000_000);
        c.advance(2_500_000);
        assert!((c.seconds() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn default_frequency_is_papers_machine() {
        assert_eq!(Clock::default().freq_hz(), 3_400_000_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Clock::new(0);
    }
}
