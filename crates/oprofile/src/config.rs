//! Profiler configuration.

use crate::faults::{DaemonFaults, DriverFaults};
use crate::governor::GovernorConfig;
use crate::supervisor::SupervisorConfig;
use sim_cpu::{CostModel, CounterSpec, HwEvent};
use viprof_telemetry::Telemetry;

/// Everything `opcontrol --setup` would take.
#[derive(Debug, Clone)]
pub struct OpConfig {
    /// Counters to program (event + overflow period).
    pub events: Vec<CounterSpec>,
    /// Ring-buffer capacity in samples (OProfile's `--buffer-size`).
    pub buffer_capacity: usize,
    /// Daemon wakeup period in cycles (~50 ms at 3.4 GHz by default).
    pub daemon_period_cycles: u64,
    /// Cycle costs of the profiling machinery.
    pub cost: CostModel,
    /// NMI-path fault injector (robustness testing; `None` normally).
    pub driver_faults: Option<DriverFaults>,
    /// Daemon fault schedule (robustness testing; `None` normally).
    pub daemon_faults: Option<DaemonFaults>,
    /// Journal drained sample batches to a write-ahead log so a crashed
    /// session's database can be rebuilt by replay.
    pub journal: bool,
    /// Wrap the daemon in a watchdog/restart supervisor.
    pub supervisor: Option<SupervisorConfig>,
    /// Close the overload loop: watch ring occupancy and dynamically
    /// rescale the NMI period (`None` = fixed period, the classic
    /// OProfile behaviour — and the default, so unregulated sessions
    /// replay bit-identically to older seeds).
    pub governor: Option<GovernorConfig>,
    /// Share a telemetry registry with the session. Telemetry is
    /// always on — `None` just means the session creates its own
    /// registry; pass a handle to observe it (or to share one registry
    /// across the VM agent and the profiler).
    pub telemetry: Option<Telemetry>,
}

impl Default for OpConfig {
    fn default() -> Self {
        OpConfig {
            events: vec![CounterSpec::new(HwEvent::Cycles, 90_000)],
            buffer_capacity: 65_536,
            daemon_period_cycles: 170_000_000,
            cost: CostModel::default(),
            driver_faults: None,
            daemon_faults: None,
            journal: false,
            supervisor: None,
            governor: None,
            telemetry: None,
        }
    }
}

impl OpConfig {
    /// Cycle sampling at the given period — the Figure-2 configurations
    /// use periods 45_000 / 90_000 / 450_000.
    pub fn time_at(period: u64) -> Self {
        OpConfig {
            events: vec![CounterSpec::new(HwEvent::Cycles, period)],
            ..OpConfig::default()
        }
    }

    /// The Figure-1 configuration: time (GLOBAL_POWER_EVENTS) plus L2
    /// data misses (BSQ_CACHE_REFERENCE), each with its own period.
    pub fn figure1(time_period: u64, l2_period: u64) -> Self {
        OpConfig {
            events: vec![
                CounterSpec::new(HwEvent::Cycles, time_period),
                CounterSpec::new(HwEvent::L2Miss, l2_period),
            ],
            ..OpConfig::default()
        }
    }

    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Install fault injectors for the driver and/or daemon layers.
    pub fn with_faults(
        mut self,
        driver: Option<DriverFaults>,
        daemon: Option<DaemonFaults>,
    ) -> Self {
        self.driver_faults = driver;
        self.daemon_faults = daemon;
        self
    }

    /// Enable the sample-batch write-ahead journal.
    pub fn with_journal(mut self) -> Self {
        self.journal = true;
        self
    }

    /// Wrap the daemon in a watchdog/restart supervisor.
    pub fn with_supervisor(mut self, config: SupervisorConfig) -> Self {
        self.supervisor = Some(config);
        self
    }

    /// Enable the adaptive overload governor.
    pub fn with_governor(mut self, config: GovernorConfig) -> Self {
        self.governor = Some(config);
        self
    }

    /// Validate the configuration before a session starts. An empty
    /// event list used to slip through here and surface later as a
    /// zero `primary_period()` — a divide-by-zero hazard once the
    /// governor started rescaling periods — so sessions now reject it
    /// up front (the core API wraps this in a typed `ViprofError`).
    pub fn validate(&self) -> Result<(), String> {
        if self.events.is_empty() {
            return Err("OpConfig.events must program at least one counter".into());
        }
        for spec in &self.events {
            if spec.period == 0 {
                return Err(format!("counter {:?} has a zero period", spec.event));
            }
        }
        if let Some(governor) = &self.governor {
            governor.validate()?;
        }
        Ok(())
    }

    /// Period of the primary (first) event.
    ///
    /// Panics on an empty event list rather than silently returning 0;
    /// [`validate`](Self::validate) rejects such configs before any
    /// session reaches this point.
    pub fn primary_period(&self) -> u64 {
        self.events
            .first()
            .map(|e| e.period)
            .expect("OpConfig.events is empty — OpConfig::validate rejects this")
    }

    pub fn primary_event(&self) -> HwEvent {
        self.events
            .first()
            .map(|e| e.event)
            .unwrap_or(HwEvent::Cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_median_rate() {
        let c = OpConfig::default();
        assert_eq!(c.primary_period(), 90_000);
        assert_eq!(c.primary_event(), HwEvent::Cycles);
    }

    #[test]
    fn figure1_programs_two_counters() {
        let c = OpConfig::figure1(90_000, 5_000);
        assert_eq!(c.events.len(), 2);
        assert_eq!(c.events[1].event, HwEvent::L2Miss);
        assert_eq!(c.events[1].period, 5_000);
    }

    #[test]
    fn with_cost_overrides() {
        let c = OpConfig::default().with_cost(CostModel::free());
        assert_eq!(c.cost, CostModel::free());
    }

    #[test]
    fn validate_rejects_empty_events() {
        let mut c = OpConfig::default();
        assert!(c.validate().is_ok());
        c.events.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "OpConfig.events is empty")]
    fn primary_period_no_longer_silently_returns_zero() {
        let mut c = OpConfig::default();
        c.events.clear();
        c.primary_period();
    }

    #[test]
    fn validate_checks_governor_and_cap() {
        use crate::governor::GovernorConfig;
        let bad_gov = OpConfig::default().with_governor(GovernorConfig {
            dwell_windows: 0,
            ..GovernorConfig::default()
        });
        assert!(bad_gov.validate().is_err());
        let good_gov = OpConfig::default().with_governor(GovernorConfig::default());
        assert!(good_gov.validate().is_ok());
        // The back-off cap, a multiple of the base period, must be at
        // least 1.
        let no_cap = OpConfig::default().with_governor(GovernorConfig {
            max_scale: 0,
            ..GovernorConfig::default()
        });
        assert!(no_cap.validate().is_err());
    }
}
