//! Event derivation for executed blocks.
//!
//! A block can describe its memory behaviour in two fidelities:
//!
//! * [`MemActivity::Detailed`] — an explicit access list, pushed through
//!   the cache hierarchy (used by the Figure-1 case study and tests);
//! * [`MemActivity::Stats`] — precomputed miss counts (used by the long
//!   Figure-2/3 runs, where per-access simulation of 10^11 cycles would
//!   be intractable).
//!
//! [`FracAcc`] converts fractional rates (e.g. 3.7 L2 misses per 1000
//! instructions) into exact integer event counts deterministically: the
//! fractional remainder is carried, never rounded away, so the long-run
//! event total is exact to ±1 regardless of how execution is chopped
//! into blocks.

/// Memory behaviour of one block.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum MemActivity {
    /// No memory activity beyond what the cycle count already reflects.
    #[default]
    None,
    /// Explicit accesses for the detailed cache model.
    Detailed(Vec<crate::cache::MemAccess>),
    /// Aggregate miss counts from the statistical model.
    Stats { l1d_misses: u64, l2_misses: u64 },
}

/// Fully-resolved event counts for one block, ready for the counter bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockEvents {
    pub cycles: u64,
    pub instructions: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub branches: u64,
}

impl BlockEvents {
    pub fn merge(&mut self, other: &BlockEvents) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.l1d_misses += other.l1d_misses;
        self.l2_misses += other.l2_misses;
        self.branches += other.branches;
    }
}

/// Deterministic fractional accumulator.
///
/// `take(rate, n)` returns `floor(rate * n + carry)` and retains the
/// remainder, so that the sum of `take` results over any partition of a
/// total `N` equals `floor(rate * N)` (within one unit at the very end).
/// Fixed-point (2^32 denominator) keeps it exactly reproducible across
/// platforms — no floating-point drift between runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FracAcc {
    /// Carried numerator, always `< 2^32`.
    carry: u64,
}

const FRAC_ONE: u128 = 1 << 32;

impl FracAcc {
    pub fn new() -> Self {
        FracAcc::default()
    }

    /// Accumulate `rate * n` events; returns the integer part, carrying
    /// the fraction. `rate` must be finite and non-negative.
    pub fn take(&mut self, rate: f64, n: u64) -> u64 {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be ≥ 0, got {rate}");
        // Convert the rate once to fixed point; the per-call conversion is
        // deterministic because it goes through the same f64 value.
        let rate_fp = (rate * FRAC_ONE as f64).round() as u128;
        let total = rate_fp * n as u128 + self.carry as u128;
        let whole = (total / FRAC_ONE) as u64;
        self.carry = (total % FRAC_ONE) as u64;
        whole
    }

    pub fn reset(&mut self) {
        self.carry = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fracacc_is_partition_invariant() {
        let rate = 0.0137;
        let total = 1_000_000u64;
        let mut whole = FracAcc::new();
        let expect = whole.take(rate, total);

        let mut split = FracAcc::new();
        let mut got = 0;
        let mut left = total;
        let chunks = [1u64, 7, 90_000, 45_000, 123_456, 3];
        let mut i = 0;
        while left > 0 {
            let c = chunks[i % chunks.len()].min(left);
            got += split.take(rate, c);
            left -= c;
            i += 1;
        }
        assert_eq!(got, expect, "chunked accumulation must match one-shot");
    }

    #[test]
    fn fracacc_zero_rate_yields_nothing() {
        let mut a = FracAcc::new();
        assert_eq!(a.take(0.0, u64::MAX >> 40), 0);
    }

    #[test]
    fn fracacc_integral_rate_is_exact() {
        let mut a = FracAcc::new();
        assert_eq!(a.take(3.0, 1000), 3000);
        assert_eq!(a.take(3.0, 1), 3);
    }

    #[test]
    #[should_panic(expected = "≥ 0")]
    fn fracacc_rejects_negative_rate() {
        FracAcc::new().take(-0.1, 10);
    }

    #[test]
    fn rates_produce_expected_magnitudes() {
        // Per-cycle rates over a million cycles, each through its own
        // accumulator. Fixed-point rate conversion is exact to ±1.
        let close = |got: u64, want: u64| (got as i64 - want as i64).abs() <= 1;
        for (rate, want) in [(1.5, 1_500_000), (0.01, 10_000), (0.001, 1_000), (0.2, 200_000)] {
            let got = FracAcc::new().take(rate, 1_000_000);
            assert!(close(got, want), "rate {rate}: {got}");
        }
    }

    #[test]
    fn block_events_merge() {
        let mut a = BlockEvents {
            cycles: 10,
            instructions: 20,
            l1d_misses: 1,
            l2_misses: 0,
            branches: 2,
        };
        let b = BlockEvents {
            cycles: 5,
            instructions: 5,
            l1d_misses: 1,
            l2_misses: 1,
            branches: 0,
        };
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.instructions, 25);
        assert_eq!(a.l2_misses, 1);
    }
}
