//! Deterministic PRNG shared by the simulated stack.
//!
//! SplitMix64: tiny, fast, and exactly reproducible from the seed every
//! experiment prints. The Figure-2 "system noise" model, workload
//! jitter and the property tests' case generator all draw from it.

/// SplitMix64 generator (public-domain algorithm by Sebastiano Vigna).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn f64_has_uniform_moments() {
        let mut r = SplitMix64::new(1234);
        let n = 100_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.next_f64();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.002, "var {var}");
    }

    #[test]
    fn fork_streams_are_independent_but_deterministic() {
        // A stream seeded from a parent's draw, the way callers derive
        // one per run.
        let fork = |parent: &mut SplitMix64| -> Vec<u64> {
            let mut f = SplitMix64::new(parent.next_u64());
            (0..5).map(|_| f.next_u64()).collect()
        };
        let mut a = SplitMix64::new(5);
        let fork1 = fork(&mut a);
        let fork2 = fork(&mut SplitMix64::new(5));
        assert_eq!(fork1, fork2);
        let parent: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
        assert_ne!(fork1, parent, "the fork does not replay its parent");
    }
}
