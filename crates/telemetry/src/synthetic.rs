//! Deterministic synthetic session: a miniature drain schedule driven
//! through a real registry, so fixed-seed telemetry/timeline artifacts
//! exist without running the full simulator.
//!
//! `viprof diff --emit-baseline` and the differ's tests build their
//! artifacts here, and the committed `results/baseline_telemetry.json`
//! / `results/baseline_timeline.json` are this generator's output at
//! [`BASELINE_SEED`] — so `scripts/verify.sh` can regenerate a fresh
//! export and gate it against the reviewed baseline byte for byte. A
//! different seed perturbs every series, which is what the differ's
//! "nonzero deltas exit nonzero" test relies on.

use crate::{names, Telemetry, TelemetrySnapshot, Timeline};

/// The seed the committed `results/` baselines are generated with
/// (the bench harness default).
pub const BASELINE_SEED: u64 = 2007;

/// Windows the synthetic schedule drives (enough to exercise bursts,
/// quiet stretches and a governor ramp).
pub const SYNTHETIC_WINDOWS: u64 = 24;

/// One generated fixed-seed session: the final cumulative snapshot
/// and the timeline sampled after each synthetic drain window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticSession {
    pub telemetry: TelemetrySnapshot,
    pub timeline: Timeline,
}

/// SplitMix64, the crate-local convention for seeded generators.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Drive a fresh registry through [`SYNTHETIC_WINDOWS`] drain windows
/// seeded by `seed`. Pure: the same seed always produces the same
/// snapshot and timeline bytes.
pub fn synthetic_session(seed: u64) -> SyntheticSession {
    let mut rng = SplitMix64(seed ^ 0x51ED_BA5E);
    let t = Telemetry::new();
    let delivered = t.counter(names::CPU_SAMPLES_DELIVERED);
    let pushed = t.counter(names::BUFFER_PUSHED);
    let dropped = t.counter(names::BUFFER_DROPPED);
    let drains = t.counter(names::DAEMON_DRAINS);
    let wakeups = t.counter(names::DAEMON_WAKEUPS);
    let backoffs = t.counter(names::GOVERNOR_BACKOFFS);
    let recoveries = t.counter(names::GOVERNOR_RECOVERIES);
    let occupancy = t.gauge(names::BUFFER_OCCUPANCY);
    let capacity = t.gauge(names::BUFFER_CAPACITY);
    let period = t.gauge(names::GOVERNOR_PERIOD);
    let batch = t.histogram(names::DAEMON_BATCH_SAMPLES);
    let drain_stage = t.stage(names::STAGE_DAEMON_DRAIN);

    capacity.set(64);
    let base_period = 15_000 + rng.below(5_000);
    period.set(base_period);
    t.set_now(0);
    t.event(names::EVENT_SESSION_INSTALL, "synthetic", &[("seed", seed)]);

    let mut now = 0u64;
    for window in 0..SYNTHETIC_WINDOWS {
        now += 50_000 + rng.below(25_000);
        t.set_now(now);
        let arrivals = 40 + rng.below(80);
        delivered.add(arrivals);
        // A mid-session burst overflows the ring for a few windows and
        // the synthetic governor backs the period off, then recovers.
        let bursting = (8..12).contains(&window);
        if bursting {
            let shed = 5 + rng.below(10);
            dropped.add(shed);
            pushed.add(arrivals - shed);
            occupancy.set(60 + rng.below(4));
            if window == 8 {
                backoffs.inc();
                period.set(base_period * 4);
            }
        } else {
            pushed.add(arrivals);
            occupancy.set(rng.below(16));
            if window == 12 {
                recoveries.inc();
                period.set(base_period);
            }
        }
        wakeups.inc();
        drains.inc();
        batch.record(arrivals);
        drain_stage.record(200 + rng.below(300));
        t.sample_timeline();
    }
    t.event(names::EVENT_SESSION_STOP, "synthetic", &[("windows", SYNTHETIC_WINDOWS)]);
    SyntheticSession {
        telemetry: t.snapshot(),
        timeline: t.timeline_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HealthReport;

    #[test]
    fn same_seed_is_byte_identical_different_seed_is_not() {
        let a = synthetic_session(BASELINE_SEED);
        let b = synthetic_session(BASELINE_SEED);
        assert_eq!(a.telemetry.to_json(), b.telemetry.to_json());
        assert_eq!(a.timeline.to_json(), b.timeline.to_json());
        let c = synthetic_session(BASELINE_SEED + 1);
        assert_ne!(a.telemetry.to_json(), c.telemetry.to_json());
        assert_ne!(a.timeline.to_json(), c.timeline.to_json());
    }

    #[test]
    fn synthetic_timeline_telescopes_and_flags_the_burst() {
        let s = synthetic_session(BASELINE_SEED);
        assert_eq!(s.timeline.samples(), SYNTHETIC_WINDOWS);
        for name in [names::BUFFER_DROPPED, names::CPU_SAMPLES_DELIVERED] {
            let telescoped: u64 = s.timeline.windows().iter().map(|w| w.delta(name)).sum();
            assert_eq!(telescoped, s.telemetry.counter(name), "{name}");
        }
        let health = HealthReport::evaluate(&s.timeline);
        let overflow = health
            .finding(names::HEALTH_BUFFER_OVERFLOW)
            .expect("burst windows must fire the overflow rule");
        assert!(overflow.longest_run >= 3, "{overflow:?}");
        assert!(health.finding(names::HEALTH_GOVERNOR_BACKOFF).is_some());
        assert!(health.finding(names::HEALTH_JOURNAL_REPAIR).is_none());
    }
}
