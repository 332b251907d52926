//! Supervised daemon: heartbeat watchdog + restart with capped backoff.
//!
//! `oprofiled` is the pipeline's weakest process: it can stall on slow
//! I/O or die outright, and every missed drain window lets the driver's
//! ring buffer overflow (PR 1 measures exactly that decay). Production
//! deployments do not run such a daemon bare — an init system or
//! supervisor watches it and restarts it. This module is that
//! supervisor, in the simulation's terms:
//!
//! * **Heartbeat.** The [`Daemon`] counts `drains` next to `wakeups`. A
//!   wakeup that does not advance the drain counter is a missed window
//!   — the watchdog's only observable, exactly like a liveness probe
//!   that sees no progress file.
//! * **Watchdog.** After `miss_threshold` *consecutive* missed windows
//!   the supervisor schedules a restart. One miss can be a benign stall;
//!   a run of them is a dead process.
//! * **Capped exponential backoff, seeded jitter.** The restart lands
//!   `backoff + jitter` wakeups later. Backoff doubles per restart up
//!   to `backoff_cap` and resets on the next healthy drain; jitter is
//!   drawn from the supervisor's own [`SplitMix64`], so a fault plan's
//!   master seed replays the whole schedule bit for bit.
//! * **Catch-up drain.** A restart is not just a revived process: the
//!   supervisor immediately forces a drain (the daemon's one drain
//!   routine, run out of schedule) to empty whatever the ring buffer
//!   accumulated while the daemon was down — the step that turns
//!   "restarted eventually" into "lost strictly fewer samples".
//!
//! The supervisor *wraps* the daemon (it is the [`MachineService`]
//! registered with the machine) rather than running beside it, so its
//! observation point is exactly one delegated `poll` — no ordering
//! races between two services sharing one timer.

use crate::daemon::Daemon;
use sim_os::{MachineCtx, MachineService, SplitMix64};
use viprof_telemetry::{names, Counter, Gauge, Telemetry};

/// Watchdog/restart policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Consecutive missed drain windows before a restart is scheduled.
    pub miss_threshold: u64,
    /// Backoff (in daemon wakeups) before the first restart attempt.
    pub backoff_initial: u64,
    /// Backoff ceiling (restart storms double up to here).
    pub backoff_cap: u64,
    /// Max extra wakeups of seeded jitter added to each backoff.
    pub jitter: u64,
    /// Seed for the jitter stream (a fault plan derives this from its
    /// master seed so supervised runs replay deterministically).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            miss_threshold: 2,
            backoff_initial: 1,
            backoff_cap: 8,
            jitter: 1,
            seed: 0,
        }
    }
}

/// Point-in-time supervisor activity (the shape older call sites
/// consume and the fault-matrix tests compare).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Restarts performed.
    pub restarts: u64,
    /// Missed drain windows the watchdog observed.
    pub missed_observed: u64,
    /// Samples recovered by post-restart catch-up drains.
    pub redrained_samples: u64,
    /// Backoff (wakeups) used by the most recent restart.
    pub last_backoff: u64,
}

/// Live supervisor activity as lock-free atomic counters backed by the
/// telemetry registry's `supervisor.*` metrics (the supervisor is boxed
/// into the machine; the session keeps a clone of this handle), so the
/// session snapshot and [`SupervisorStats`] read the same atomics and
/// can never drift.
#[derive(Debug, Clone)]
pub struct SupervisorCounters {
    restarts: Counter,
    missed_observed: Counter,
    redrained_samples: Counter,
    last_backoff: Gauge,
}

impl SupervisorCounters {
    /// Counters resolved from the shared registry, so the exported
    /// telemetry snapshot carries the supervisor's activity.
    pub fn from_telemetry(registry: &Telemetry) -> Self {
        SupervisorCounters {
            restarts: registry.counter(names::SUPERVISOR_RESTARTS),
            missed_observed: registry.counter(names::SUPERVISOR_MISSED),
            redrained_samples: registry.counter(names::SUPERVISOR_REDRAINED_SAMPLES),
            last_backoff: registry.gauge(names::SUPERVISOR_LAST_BACKOFF),
        }
    }

    /// Point-in-time copy in the legacy [`SupervisorStats`] shape.
    pub fn snapshot(&self) -> SupervisorStats {
        SupervisorStats {
            restarts: self.restarts.get(),
            missed_observed: self.missed_observed.get(),
            redrained_samples: self.redrained_samples.get(),
            last_backoff: self.last_backoff.get(),
        }
    }
}

/// The service: wraps a [`Daemon`], delegates its timer, watches the
/// heartbeat, restarts on sustained silence.
pub struct Supervisor {
    daemon: Daemon,
    config: SupervisorConfig,
    rng: SplitMix64,
    /// Consecutive missed windows since the last drain.
    missed: u64,
    /// Current backoff (doubles per restart, resets on a drain).
    backoff: u64,
    /// Wakeup number at which the scheduled restart fires.
    restart_at: Option<u64>,
    stats: SupervisorCounters,
    /// Registry for watchdog events (`supervisor.missed_window`,
    /// `supervisor.restart`).
    telemetry: Telemetry,
}

impl Supervisor {
    /// Wrap `daemon`, reporting activity counters and watchdog events
    /// to `registry`.
    pub fn new(daemon: Daemon, config: SupervisorConfig, registry: &Telemetry) -> Supervisor {
        Supervisor {
            daemon,
            rng: SplitMix64::new(config.seed),
            missed: 0,
            backoff: config.backoff_initial.max(1),
            restart_at: None,
            stats: SupervisorCounters::from_telemetry(registry),
            telemetry: registry.clone(),
            config,
        }
    }

    /// Shared handle to the live atomic counters.
    pub fn stats_handle(&self) -> SupervisorCounters {
        self.stats.clone()
    }

    pub fn stats(&self) -> SupervisorStats {
        self.stats.snapshot()
    }

    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }
}

impl MachineService for Supervisor {
    fn poll(&mut self, ctx: &mut MachineCtx<'_>) {
        let wakeups_before = self.daemon.wakeups;
        let drains_before = self.daemon.drains;
        self.daemon.poll(ctx);
        if self.daemon.wakeups == wakeups_before {
            // Not a drain window — nothing to observe.
            return;
        }
        // A drain that repeatedly blows its deadline budget is as sick
        // as a stalled one; the governor applies its own consecutive-
        // miss threshold before raising this flag, so one escalation is
        // a full watchdog trip, not a single strike.
        let escalated = self.daemon.take_deadline_escalation();
        if self.daemon.drains > drains_before && !escalated {
            // Healthy heartbeat: reset the watchdog and the backoff.
            self.missed = 0;
            self.backoff = self.config.backoff_initial.max(1);
            self.restart_at = None;
            return;
        }
        // A wakeup passed with no drain — or with an escalation.
        if escalated {
            self.missed = self.missed.max(self.config.miss_threshold.saturating_sub(1));
            // The governor's own consecutive-miss threshold supplied
            // the dwell; restart now rather than waiting out a backoff
            // window that an interleaved on-time drain would cancel.
            self.restart_at = Some(self.daemon.wakeups);
        }
        self.missed += 1;
        self.stats.missed_observed.inc();
        self.telemetry.event(
            names::EVENT_SUPERVISOR_MISSED,
            if escalated {
                "governor escalated repeated drain-deadline misses"
            } else {
                "watchdog observed a missed drain window"
            },
            &[("wakeup", self.daemon.wakeups), ("consecutive", self.missed)],
        );
        match self.restart_at {
            Some(at) if self.daemon.wakeups >= at => {
                // Restart: revive the process and immediately drain the
                // backlog the outage accumulated.
                self.daemon.revive();
                let recovered = self.daemon.force_drain(ctx);
                self.stats.restarts.inc();
                self.stats.redrained_samples.add(recovered);
                self.stats.last_backoff.set(self.backoff);
                self.telemetry.event(
                    names::EVENT_SUPERVISOR_RESTART,
                    "daemon restarted after sustained silence",
                    &[("backoff", self.backoff), ("redrained", recovered)],
                );
                self.backoff = (self.backoff * 2).min(self.config.backoff_cap.max(1));
                self.restart_at = None;
                self.missed = 0;
            }
            Some(_) => {} // Restart pending; wait out the backoff.
            None if self.missed >= self.config.miss_threshold => {
                let jitter = self.rng.range_u64(0, self.config.jitter + 1);
                self.restart_at = Some(self.daemon.wakeups + self.backoff + jitter);
            }
            None => {} // Below the threshold; could be a lone stall.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::tests::{bucket, spawn_daemon};
    use crate::driver::Driver;
    use crate::faults::DaemonFaults;
    use crate::samples::SampleAccumulator;
    use sim_cpu::{BlockExec, CostModel, CpuMode, HwEvent, Pid};
    use sim_os::{Machine, MachineConfig};
    use std::sync::{Arc, Mutex, PoisonError};

    struct Rig {
        m: Machine,
        driver: Arc<Mutex<Driver>>,
        db: Arc<Mutex<SampleAccumulator>>,
        stats: SupervisorCounters,
    }

    /// Capacity-2 ring + 100-cycle daemon timer + supplied faults,
    /// wrapped in a supervisor with the given config, reporting to `t`.
    fn rig(faults: Option<DaemonFaults>, config: SupervisorConfig) -> Rig {
        rig_with_telemetry(faults, config, &Telemetry::new())
    }

    fn rig_with_telemetry(
        faults: Option<DaemonFaults>,
        config: SupervisorConfig,
        t: &Telemetry,
    ) -> Rig {
        let mut m = Machine::new(MachineConfig::default());
        let (mut d, driver, db, _) = spawn_daemon(&mut m, t, 2, CostModel::free(), 100, None);
        if let Some(f) = faults {
            d = d.with_faults(f);
        }
        let sup = Supervisor::new(d, config, t);
        let stats = sup.stats_handle();
        m.add_service(Box::new(sup));
        Rig { m, driver, db, stats }
    }

    fn run_windows(rig: &mut Rig, windows: u64) {
        for round in 0..windows {
            rig.driver
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .buffer
                .push(bucket(round * 16));
            rig.driver
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .buffer
                .push(bucket(round * 16 + 8));
            rig.m
                .exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }
    }

    #[test]
    fn healthy_daemon_is_never_restarted() {
        let mut r = rig(None, SupervisorConfig::default());
        run_windows(&mut r, 6);
        assert_eq!(r.stats.snapshot().restarts, 0);
        assert_eq!(r.stats.snapshot().missed_observed, 0);
        assert_eq!(
            r.db.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .db()
                .total_samples(),
            12,
            "all windows drained"
        );
    }

    #[test]
    fn crash_is_detected_and_restarted_with_catchup_drain() {
        // Crash at wakeup 1, 6 windows of injected downtime. Unsupervised
        // (cf. daemon.rs's crashed_daemon test) the daemon would sit dead
        // through all of them while the 2-slot ring overflows.
        let cfg = SupervisorConfig {
            jitter: 0,
            seed: 7,
            ..SupervisorConfig::default()
        };
        let mut r = rig(Some(DaemonFaults::new(1).with_crash(1, 6)), cfg);
        run_windows(&mut r, 8);
        let s = r.stats.snapshot();
        // Misses at wakeups 1 and 2 cross the threshold; backoff 1 puts
        // the restart at wakeup 3 — four windows before the injected
        // downtime would have ended on its own.
        assert_eq!(s.restarts, 1, "{s:?}");
        assert!(s.missed_observed >= 2);
        assert!(s.redrained_samples > 0, "catch-up drain recovered backlog");
        assert_eq!(s.last_backoff, 1);
        let mut db = r.db.lock().unwrap_or_else(PoisonError::into_inner);
        let db = db.db();
        // 8 rounds x 2 pushes: the supervised run keeps everything except
        // what overflowed during the short outage.
        assert!(db.total_samples() >= 10, "got {}", db.total_samples());
        assert!(db.dropped < 12, "outage was cut short: {}", db.dropped);
    }

    #[test]
    fn supervised_outage_loses_strictly_less_than_unsupervised() {
        let faults = || DaemonFaults::new(1).with_crash(1, 6);
        // Unsupervised baseline.
        let mut m = Machine::new(MachineConfig::default());
        let (d, driver, db, _) =
            spawn_daemon(&mut m, &Telemetry::new(), 2, CostModel::free(), 100, None);
        m.add_service(Box::new(d.with_faults(faults())));
        for round in 0..8u64 {
            driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(round * 16));
            driver
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .buffer
                .push(bucket(round * 16 + 8));
            m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }
        let bare = {
            let mut db = db.lock().unwrap_or_else(PoisonError::into_inner);
            let db = db.db();
            (db.total_samples(), db.dropped)
        };

        let cfg = SupervisorConfig {
            jitter: 0,
            seed: 7,
            ..SupervisorConfig::default()
        };
        let mut r = rig(Some(faults()), cfg);
        run_windows(&mut r, 8);
        let supervised = {
            let mut db = r.db.lock().unwrap_or_else(PoisonError::into_inner);
            let db = db.db();
            (db.total_samples(), db.dropped)
        };
        assert!(
            supervised.0 > bare.0,
            "supervised kept {} vs bare {}",
            supervised.0,
            bare.0
        );
        assert!(supervised.1 < bare.1, "supervised dropped less");
    }

    #[test]
    fn backoff_doubles_across_restarts_and_is_capped() {
        // A daemon that crashes, gets revived, and is immediately down
        // again: every revive clears `down_remaining`, but a huge
        // downtime re-arms nothing — so emulate repeated death with a
        // 100 % stall rate. Every window misses; the supervisor keeps
        // restarting into a stalled process and backs off further each
        // time.
        let cfg = SupervisorConfig {
            miss_threshold: 1,
            backoff_initial: 1,
            backoff_cap: 4,
            jitter: 0,
            seed: 3,
        };
        let mut r = rig(Some(DaemonFaults::new(2).with_stalls(1.0)), cfg);
        run_windows(&mut r, 40);
        let s = r.stats.snapshot();
        assert!(s.restarts >= 3, "{s:?}");
        assert_eq!(s.last_backoff, 4, "backoff reached and held the cap");
    }

    #[test]
    fn registry_backed_counters_match_stats_and_record_restart_events() {
        let t = Telemetry::new();
        let cfg = SupervisorConfig {
            jitter: 0,
            seed: 7,
            ..SupervisorConfig::default()
        };
        let mut r = rig_with_telemetry(Some(DaemonFaults::new(1).with_crash(1, 6)), cfg, &t);
        run_windows(&mut r, 8);
        let s = r.stats.snapshot();
        assert_eq!(s.restarts, 1);
        let snap = t.snapshot();
        // Same atomics, two views: the registry can never drift from
        // the compat accessor.
        assert_eq!(snap.counter(names::SUPERVISOR_RESTARTS), s.restarts);
        assert_eq!(snap.counter(names::SUPERVISOR_MISSED), s.missed_observed);
        assert_eq!(
            snap.counter(names::SUPERVISOR_REDRAINED_SAMPLES),
            s.redrained_samples
        );
        assert_eq!(snap.gauge(names::SUPERVISOR_LAST_BACKOFF), s.last_backoff);
        let restarts = snap.events_of(names::EVENT_SUPERVISOR_RESTART);
        assert_eq!(restarts.len(), 1);
        assert!(restarts[0].fields.iter().any(|(k, _)| k == "redrained"));
        assert!(!snap.events_of(names::EVENT_SUPERVISOR_MISSED).is_empty());
    }

    #[test]
    fn deadline_escalations_trip_the_watchdog_and_restart() {
        use crate::governor::{Governor, GovernorConfig};
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        let gov = Governor::new(
            90_000,
            GovernorConfig {
                deadline_cycles: 1,
                deadline_miss_threshold: 2,
                ..GovernorConfig::default()
            },
        );
        // Default cost model: every drain blows the 1-cycle budget.
        let (d, driver, _, _) = spawn_daemon(&mut m, &t, 64, CostModel::default(), 100, None);
        let cfg = SupervisorConfig {
            jitter: 0,
            seed: 1,
            ..SupervisorConfig::default()
        };
        let sup = Supervisor::new(d.with_governor(gov, HwEvent::Cycles), cfg, &t);
        let stats = sup.stats_handle();
        m.add_service(Box::new(sup));
        for round in 0..8u64 {
            driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(round * 16));
            m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }
        let s = stats.snapshot();
        assert!(s.missed_observed >= 1, "{s:?}");
        assert!(s.restarts >= 1, "escalation must drive a restart: {s:?}");
        let snap = t.snapshot();
        assert!(snap.counter(names::GOVERNOR_ESCALATIONS) >= 1);
        assert!(snap
            .events_of(names::EVENT_SUPERVISOR_MISSED)
            .iter()
            .any(|e| e.detail.contains("escalated")));
    }

    #[test]
    fn supervisor_schedule_replays_per_seed() {
        let run = |seed: u64| {
            let cfg = SupervisorConfig {
                jitter: 2,
                seed,
                ..SupervisorConfig::default()
            };
            let mut r = rig(Some(DaemonFaults::new(5).with_stalls(0.6)), cfg);
            run_windows(&mut r, 30);
            let s = r.stats.snapshot();
            let mut db = r.db.lock().unwrap_or_else(PoisonError::into_inner);
            let db = db.db();
            (s, db.total_samples(), db.dropped)
        };
        assert_eq!(run(11), run(11), "same seed, same schedule");
    }
}
