//! Hardware performance counter bank.
//!
//! Mirrors how OProfile programs the Pentium 4 counters: each counter is
//! loaded with a *reset value* so that after `period` events it overflows
//! and raises an NMI. The paper's Figure 2 sweeps the period over
//! 45 000 / 90 000 / 450 000 cycles.
//!
//! Events are delivered to the bank in batches (one batch per executed
//! block); overflow positions *within* the batch are computed
//! analytically by [`Counter::add`] so the execution engine can
//! interpolate the program counter at the exact event that tripped the
//! counter.

use crate::types::HwEvent;

/// Maximum number of simultaneously programmed counters. The Pentium 4
/// had 18 but OProfile-era kernels commonly exposed a handful; 4 is
/// plenty for every experiment in the paper (which uses at most 2).
pub const MAX_COUNTERS: usize = 4;

/// Static configuration of one counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSpec {
    pub event: HwEvent,
    /// Overflow period: an NMI fires every `period` occurrences.
    pub period: u64,
}

impl CounterSpec {
    pub fn new(event: HwEvent, period: u64) -> Self {
        assert!(period > 0, "counter period must be positive");
        CounterSpec { event, period }
    }
}

/// Overflow positions produced by one batch of events.
///
/// If `count > 0`, the first overflow happened at the `first`-th event of
/// the batch (1-based: `first == 1` means the very first event in the
/// batch tripped the counter), and subsequent overflows occur every
/// `period` events after that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflows {
    pub count: u64,
    pub first: u64,
    pub period: u64,
}

impl Overflows {
    pub const NONE: Overflows = Overflows {
        count: 0,
        first: 0,
        period: 1,
    };

    /// 1-based event position of the `i`-th overflow (0-indexed `i`).
    pub fn position(&self, i: u64) -> u64 {
        debug_assert!(i < self.count);
        self.first + i * self.period
    }

    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(move |i| self.position(i))
    }
}

/// One live counter.
#[derive(Debug, Clone)]
pub struct Counter {
    spec: CounterSpec,
    /// Events remaining until the next overflow.
    remaining: u64,
}

impl Counter {
    pub fn new(spec: CounterSpec) -> Self {
        Counter {
            remaining: spec.period,
            spec,
        }
    }

    pub fn spec(&self) -> CounterSpec {
        self.spec
    }

    /// Deliver `n` events; returns the overflow positions within the
    /// batch (see [`Overflows`]).
    pub fn add(&mut self, n: u64) -> Overflows {
        if n < self.remaining {
            self.remaining -= n;
            return Overflows::NONE;
        }
        let first = self.remaining;
        let after_first = n - first;
        let count = 1 + after_first / self.spec.period;
        let leftover = after_first % self.spec.period;
        self.remaining = self.spec.period - leftover;
        Overflows {
            count,
            first,
            period: self.spec.period,
        }
    }

    /// Reprogram the overflow period in place, as the overload governor
    /// does when it backs the sample rate off (or recovers it). The
    /// in-flight countdown is clamped to the new period: shrinking the
    /// period takes effect within one window instead of waiting out the
    /// old reset value, while growing it never *lengthens* an already
    /// armed countdown — both choices are deterministic functions of the
    /// counter state, so replays stay bit-identical.
    pub fn set_period(&mut self, period: u64) {
        assert!(period > 0, "counter period must be positive");
        self.spec.period = period;
        self.remaining = self.remaining.min(period);
    }

    /// Deliver `n` events while NMIs are masked: events are counted but
    /// at most the final overflow state is preserved (extra overflows are
    /// coalesced, as on real hardware where the counter wraps while the
    /// handler runs). Returns the number of overflows that were lost to
    /// coalescing (0 or more); a pending overflow is reflected by
    /// `remaining` being reloaded.
    pub fn add_masked(&mut self, n: u64) -> u64 {
        let o = self.add(n);
        // `add` already reloaded the counter; report how many NMIs were
        // suppressed so the driver can account for them if it wants to.
        o.count
    }
}

/// The bank of programmed counters.
#[derive(Debug, Clone, Default)]
pub struct CounterBank {
    counters: Vec<Counter>,
}

impl CounterBank {
    pub fn new() -> Self {
        CounterBank::default()
    }

    /// Program a new counter; returns its index. Panics if the bank is
    /// full or the event is already being counted (one counter per event,
    /// as OProfile configures it).
    pub fn program(&mut self, spec: CounterSpec) -> usize {
        assert!(
            self.counters.len() < MAX_COUNTERS,
            "counter bank full ({MAX_COUNTERS} max)"
        );
        assert!(
            !self.counters.iter().any(|c| c.spec().event == spec.event),
            "event {:?} already programmed",
            spec.event
        );
        self.counters.push(Counter::new(spec));
        self.counters.len() - 1
    }

    pub fn clear(&mut self) {
        self.counters.clear();
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    pub fn len(&self) -> usize {
        self.counters.len()
    }

    pub fn counter(&self, idx: usize) -> &Counter {
        &self.counters[idx]
    }

    pub fn counters(&self) -> &[Counter] {
        &self.counters
    }

    /// Index of the counter watching `event`, if programmed.
    pub fn index_of(&self, event: HwEvent) -> Option<usize> {
        self.counters.iter().position(|c| c.spec().event == event)
    }

    /// Reprogram the period of the counter watching `event` without
    /// losing its accumulated state (totals, overflow counts, countdown).
    /// Returns `false` if no counter watches the event. This is the
    /// actuator of the overload governor: the daemon rescales the NMI
    /// rate while the session keeps running.
    pub fn reprogram_period(&mut self, event: HwEvent, period: u64) -> bool {
        match self.index_of(event) {
            Some(idx) => {
                self.counters[idx].set_period(period);
                true
            }
            None => false,
        }
    }

    /// Deliver a batch of `n` events of `event` type. Returns
    /// `(counter_index, overflows)` if a counter watches this event and
    /// overflowed.
    pub fn add_events(&mut self, event: HwEvent, n: u64) -> Option<(usize, Overflows)> {
        if n == 0 {
            return None;
        }
        let idx = self.index_of(event)?;
        let o = self.counters[idx].add(n);
        if o.count > 0 {
            Some((idx, o))
        } else {
            None
        }
    }

    /// Deliver events with NMIs masked (used while a handler runs).
    pub fn add_events_masked(&mut self, event: HwEvent, n: u64) -> u64 {
        match self.index_of(event) {
            Some(idx) if n > 0 => self.counters[idx].add_masked(n),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyc(period: u64) -> CounterSpec {
        CounterSpec::new(HwEvent::Cycles, period)
    }

    #[test]
    fn no_overflow_below_period() {
        let mut c = Counter::new(cyc(100));
        assert_eq!(c.add(99), Overflows::NONE);
        assert_eq!(c.remaining, 1);
    }

    #[test]
    fn exact_period_overflows_once() {
        let mut c = Counter::new(cyc(100));
        let o = c.add(100);
        assert_eq!(o.count, 1);
        assert_eq!(o.first, 100);
        assert_eq!(c.remaining, 100);
    }

    #[test]
    fn multiple_overflows_in_one_batch() {
        let mut c = Counter::new(cyc(100));
        c.add(30); // 70 remaining
        let o = c.add(250); // overflows at 70, 170; leftover 80 → 20 remaining... check
        assert_eq!(o.count, 2);
        assert_eq!(o.first, 70);
        assert_eq!(o.position(1), 170);
        // 250 - 70 = 180; 180 % 100 = 80 consumed after last overflow
        assert_eq!(c.remaining, 20);
    }

    #[test]
    fn overflow_positions_are_one_based() {
        let mut c = Counter::new(cyc(1));
        let o = c.add(3);
        let positions: Vec<u64> = o.iter().collect();
        assert_eq!(positions, vec![1, 2, 3]);
    }

    #[test]
    fn total_events_accumulate_across_batches() {
        let mut c = Counter::new(cyc(90_000));
        let overflows: u64 = (0..10).map(|_| c.add(45_000).count).sum();
        assert_eq!(overflows, 5, "450,000 events are five periods");
        assert_eq!(c.remaining, 90_000);
    }

    #[test]
    fn bank_routes_events_to_matching_counter() {
        let mut bank = CounterBank::new();
        bank.program(CounterSpec::new(HwEvent::Cycles, 10));
        bank.program(CounterSpec::new(HwEvent::L2Miss, 5));
        assert!(bank.add_events(HwEvent::Cycles, 9).is_none());
        let (idx, o) = bank.add_events(HwEvent::Cycles, 1).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(o.count, 1);
        let (idx, o) = bank.add_events(HwEvent::L2Miss, 12).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(o.count, 2);
        // Unwatched event type is ignored.
        assert!(bank.add_events(HwEvent::Branches, 1_000).is_none());
    }

    #[test]
    #[should_panic(expected = "already programmed")]
    fn bank_rejects_duplicate_event() {
        let mut bank = CounterBank::new();
        bank.program(cyc(10));
        bank.program(cyc(20));
    }

    #[test]
    fn masked_delivery_counts_but_coalesces() {
        let mut c = Counter::new(cyc(10));
        let lost = c.add_masked(35);
        assert_eq!(lost, 3);
        assert_eq!(c.remaining, 5);
    }

    #[test]
    fn set_period_preserves_state_and_clamps_countdown() {
        let mut c = Counter::new(cyc(100));
        c.add(30); // 70 remaining
        c.set_period(40); // shrink: countdown clamps to 40
        assert_eq!(c.remaining, 40);
        assert_eq!(c.spec().period, 40);
        let o = c.add(40);
        assert_eq!(o.count, 1);
        assert_eq!(o.period, 40);
        // Growing the period never lengthens an armed countdown.
        c.add(10); // 30 remaining of 40
        c.set_period(1_000);
        assert_eq!(c.remaining, 30);
        let o = c.add(30);
        assert_eq!(o.count, 1);
        assert_eq!(c.remaining, 1_000, "reload uses the new period");
    }

    #[test]
    fn bank_reprograms_only_the_matching_event() {
        let mut bank = CounterBank::new();
        bank.program(CounterSpec::new(HwEvent::Cycles, 10));
        bank.program(CounterSpec::new(HwEvent::L2Miss, 5));
        assert!(bank.reprogram_period(HwEvent::Cycles, 20));
        assert!(!bank.reprogram_period(HwEvent::Branches, 20));
        assert_eq!(bank.counter(0).spec().period, 20);
        assert_eq!(bank.counter(1).spec().period, 5, "other counters untouched");
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn set_period_rejects_zero() {
        let mut c = Counter::new(cyc(10));
        c.set_period(0);
    }

    #[test]
    fn zero_events_is_a_noop() {
        let mut bank = CounterBank::new();
        bank.program(cyc(10));
        assert!(bank.add_events(HwEvent::Cycles, 0).is_none());
        assert_eq!(bank.counter(0).remaining, 10);
    }
}
