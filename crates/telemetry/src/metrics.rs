//! Atomic metric primitives: counters, gauges, log2-bucketed
//! histograms.
//!
//! Every primitive is an `Arc` around plain atomics, so handles are
//! cheap to clone and safe to hold across threads. All updates use
//! relaxed ordering: the pipeline only ever reads totals after the
//! writers are done (scoped-thread joins give the necessary
//! happens-before), and sums/bucket increments commute, so totals are
//! deterministic regardless of interleaving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-written value (occupancy, backoff, shard count, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `k >= 1` holds `[2^(k-1), 2^k - 1]`, and bucket 64 tops out at
/// `u64::MAX` — every `u64` lands in exactly one bucket.
pub const BUCKETS: usize = 65;

/// Bucket index for a value (see [`BUCKETS`]).
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value a bucket admits.
pub fn bucket_lo(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        1u64 << (k - 1)
    }
}

/// Largest value a bucket admits.
pub fn bucket_hi(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Log2-bucketed histogram with exact count and sum.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.0.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        self.0.count.fetch_add(n, Ordering::Relaxed);
        self.0.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn bucket_count(&self, k: usize) -> u64 {
        self.0.buckets[k].load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        (0..BUCKETS)
            .filter_map(|k| {
                let n = self.bucket_count(k);
                (n > 0).then_some((k, n))
            })
            .collect()
    }
}

/// A named pipeline stage: how many times it ran and how many virtual
/// cycles (or, for clock-less offline stages, work units) it consumed.
#[derive(Debug, Clone, Default)]
pub struct Stage {
    entries: Counter,
    cycles: Counter,
}

impl Stage {
    pub fn new() -> Stage {
        Stage::default()
    }

    /// One pass through the stage costing `cycles`.
    pub fn record(&self, cycles: u64) {
        self.entries.inc();
        self.cycles.add(cycles);
    }

    pub fn entries(&self) -> u64 {
        self.entries.get()
    }

    pub fn cycles(&self) -> u64 {
        self.cycles.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 43, "clones share the cell");

        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    /// Exhaustive boundary check: for every bucket, its lowest and
    /// highest admissible values map back to it and its neighbours'
    /// edges do not leak in.
    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_of(0), 0);
        for k in 1..BUCKETS {
            let lo = bucket_lo(k);
            let hi = bucket_hi(k);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), k, "low edge of bucket {k}");
            assert_eq!(bucket_of(hi), k, "high edge of bucket {k}");
            assert_eq!(bucket_of(lo - 1), k - 1, "below bucket {k}");
            if hi != u64::MAX {
                assert_eq!(bucket_of(hi + 1), k + 1, "above bucket {k}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record_n(1024, 5);
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 6 + 5 * 1024);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 2);
        assert_eq!(h.bucket_count(11), 5);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (2, 2), (11, 5)]
        );
    }
}
