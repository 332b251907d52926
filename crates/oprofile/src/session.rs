//! Profiler lifecycle: `opcontrol --start` / `--stop`.

use crate::anon::AnonExtension;
use crate::config::OpConfig;
use crate::daemon::{Daemon, Drain};
use crate::driver::{Driver, DriverStats};
use crate::faults::{DaemonFaultStats, DaemonFaults, DriverFaultStats};
use crate::samples::{SampleAccumulator, SampleDb};
use crate::supervisor::{Supervisor, SupervisorCounters, SupervisorStats};
use sim_cpu::Pid;
use sim_os::journal::JournalWriter;
use sim_os::Machine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use viprof_telemetry::{names, Telemetry, TraceLayer};

/// VFS path where `stop` persists the final sample database.
pub const SAMPLES_PATH: &str = "/var/lib/oprofile/samples/current.db";

/// VFS path of the drained-batch write-ahead journal (when
/// [`OpConfig::journal`] is on).
pub const SAMPLE_JOURNAL_PATH: &str = "/var/lib/oprofile/samples/journal";

/// VFS path where `stop` persists the session's telemetry snapshot
/// (deterministic JSON; `viprof stat` reads it back).
pub const TELEMETRY_PATH: &str = "/var/log/viprof/telemetry.json";

/// VFS path where `stop` persists the session's causal trace as Chrome
/// trace-event JSON (`viprof trace` reads it back).
pub const TRACE_PATH: &str = "/var/log/viprof/trace.json";

/// VFS path where `stop` persists the session's sampled timeline
/// (per-drain-window telemetry deltas; the resolver evaluates health
/// rules over it and `viprof diff` compares two of them).
pub const TIMELINE_PATH: &str = "/var/log/viprof/timeline.json";

/// A running profiling session.
pub struct Oprofile {
    pub driver: Arc<Mutex<Driver>>,
    pub db: Arc<Mutex<SampleAccumulator>>,
    active: Arc<AtomicBool>,
    config: OpConfig,
    daemon_pid: Pid,
    /// Shared-stats handle to the daemon's fault schedule, if any.
    daemon_faults: Option<DaemonFaults>,
    /// Drain state shared with the daemon: `stop`'s final flush is one
    /// more run of the daemon's drain routine.
    drain: Arc<Mutex<Drain>>,
    /// Shared-counters handle to the supervisor, if one wraps the daemon.
    supervisor_stats: Option<SupervisorCounters>,
    /// The session's telemetry registry (always on; shared with every
    /// layer the session installs).
    telemetry: Telemetry,
}

impl Oprofile {
    /// Start stock OProfile.
    pub fn start(machine: &mut Machine, config: OpConfig) -> Oprofile {
        let driver = Arc::new(Mutex::new(Driver::new(config.cost, config.buffer_capacity)));
        Self::install(machine, config, driver)
    }

    /// Start with an anon extension (how VIProf builds on this crate).
    pub fn start_with_extension(
        machine: &mut Machine,
        config: OpConfig,
        ext: Box<dyn AnonExtension>,
    ) -> Oprofile {
        let driver = Arc::new(Mutex::new(Driver::with_extension(
            config.cost,
            config.buffer_capacity,
            ext,
        )));
        Self::install(machine, config, driver)
    }

    fn install(machine: &mut Machine, config: OpConfig, driver: Arc<Mutex<Driver>>) -> Oprofile {
        assert!(
            machine.cpu.bank.is_empty(),
            "another profiling session is already running"
        );
        if let Err(e) = config.validate() {
            panic!("invalid OpConfig: {e}");
        }
        let telemetry = config.telemetry.clone().unwrap_or_default();
        if let Some(faults) = config.driver_faults.clone() {
            driver.lock().unwrap_or_else(PoisonError::into_inner).set_faults(faults);
        }
        {
            let mut d = driver.lock().unwrap_or_else(PoisonError::into_inner);
            d.buffer.attach_telemetry(&telemetry);
        }
        machine.cpu.attach_telemetry(&telemetry);
        for spec in &config.events {
            machine.cpu.program_counter(*spec);
        }
        machine.set_handler(driver.clone());

        let db = Arc::new(Mutex::new(SampleAccumulator::new(config.db_bucket_cap)));
        let active = Arc::new(AtomicBool::new(true));
        let journal = config.journal.then(|| {
            let mut writer = JournalWriter::create(&mut machine.kernel.vfs, SAMPLE_JOURNAL_PATH);
            writer.set_telemetry(&telemetry);
            writer
        });
        let drain = Arc::new(Mutex::new(Drain::new(
            driver.clone(),
            db.clone(),
            config.cost,
            &telemetry,
            journal,
        )));
        let mut daemon = Daemon::spawn(
            &mut machine.kernel,
            drain.clone(),
            active.clone(),
            config.daemon_period_cycles,
        );
        // Clones share the stats handle: the daemon mutates, the
        // session reads.
        let daemon_faults = config.daemon_faults.clone();
        if let Some(faults) = daemon_faults.clone() {
            daemon = daemon.with_faults(faults);
        }
        if let Some(gov_config) = config.governor {
            let governor = crate::governor::Governor::new(config.primary_period(), gov_config);
            telemetry.gauge(names::GOVERNOR_PERIOD).set(governor.period());
            daemon = daemon.with_governor(governor, config.primary_event());
        }
        let daemon_pid = daemon.pid();
        let supervisor_stats = match &config.supervisor {
            Some(sup_config) => {
                let supervisor = Supervisor::new(daemon, *sup_config, &telemetry);
                let stats = supervisor.stats_handle();
                machine.add_service(Box::new(supervisor));
                Some(stats)
            }
            None => {
                machine.add_service(Box::new(daemon));
                None
            }
        };
        // Open the session's root span: every causal chain the pipeline
        // emits (NMI window → drain → journal → live) hangs off it.
        telemetry.set_now(machine.cpu.clock.cycles());
        telemetry.trace_begin(TraceLayer::Session, names::SPAN_SESSION, None);
        telemetry.counter(names::SESSION_INSTALLS).inc();
        telemetry.event(
            names::EVENT_SESSION_INSTALL,
            "profiling session installed",
            &[
                ("events", config.events.len() as u64),
                ("buffer_capacity", config.buffer_capacity as u64),
            ],
        );
        Oprofile {
            driver,
            db,
            active,
            config,
            daemon_pid,
            daemon_faults,
            drain,
            supervisor_stats,
            telemetry,
        }
    }

    /// Handle to the session's telemetry registry.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    pub fn config(&self) -> &OpConfig {
        &self.config
    }

    pub fn daemon_pid(&self) -> Pid {
        self.daemon_pid
    }

    pub fn driver_stats(&self) -> DriverStats {
        self.driver.lock().unwrap_or_else(PoisonError::into_inner).stats
    }

    /// Injected driver-fault counters (sessions started with faults).
    pub fn driver_fault_stats(&self) -> Option<DriverFaultStats> {
        self.driver.lock().unwrap_or_else(PoisonError::into_inner).fault_stats()
    }

    /// Injected daemon-fault counters (sessions started with faults).
    pub fn daemon_fault_stats(&self) -> Option<DaemonFaultStats> {
        self.daemon_faults.as_ref().map(|f| f.stats())
    }

    /// Supervisor activity counters (sessions with a supervisor).
    pub fn supervisor_stats(&self) -> Option<SupervisorStats> {
        self.supervisor_stats.as_ref().map(|s| s.snapshot())
    }

    /// Snapshot of the sample DB as accumulated so far (not including
    /// still-buffered samples).
    pub fn db_snapshot(&self) -> SampleDb {
        self.db.lock().unwrap_or_else(PoisonError::into_inner).db().clone()
    }

    /// Stop profiling: final buffer flush (charged to simulated time),
    /// deprogram counters, uninstall the handler, persist the sample
    /// database to the VFS, and return it.
    pub fn stop(&self, machine: &mut Machine) -> SampleDb {
        // The final flush is the daemon's drain routine run one last
        // time — reaped, traced, journaled and accounted like every
        // timer drain, so replay and telemetry cover the whole run.
        let now = machine.cpu.clock.cycles();
        let cycles = self
            .drain
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .run(&mut machine.kernel, now, false, |_, _| {})
            .cycles;
        self.active.store(false, Ordering::Relaxed);
        machine.cpu.clear_counters();
        machine.clear_handler();
        if cycles > 0 {
            // The flush runs in the daemon process; attribute to kernel
            // sys_write for the file part (coarse but stable).
            let range = machine.kernel.kernel_symbol_range("sys_write");
            machine.exec(&sim_cpu::BlockExec::compute(
                self.daemon_pid,
                sim_cpu::CpuMode::Kernel,
                range,
                cycles,
            ));
        }
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner).db().clone();
        machine.kernel.vfs.write(SAMPLES_PATH, db.to_bytes());
        // Telemetry epilogue: stamp the final clock, close the session,
        // and persist the artifacts next to the sample database.
        self.telemetry.set_now(machine.cpu.clock.cycles());
        self.telemetry.counter(names::SESSION_STOPS).inc();
        self.telemetry.event(
            names::EVENT_SESSION_STOP,
            "profiling session stopped",
            &[("samples", db.total_samples()), ("dropped", db.dropped)],
        );
        if let Some(root) = self.telemetry.trace_root() {
            self.telemetry.trace_end(
                root,
                &[("samples", db.total_samples()), ("dropped", db.dropped)],
            );
        }
        machine
            .kernel
            .vfs
            .write(TELEMETRY_PATH, self.telemetry.snapshot().to_json().into_bytes());
        machine.kernel.vfs.write(
            TRACE_PATH,
            self.telemetry.trace_snapshot().to_chrome_json().into_bytes(),
        );
        machine.kernel.vfs.write(
            TIMELINE_PATH,
            self.telemetry.timeline_snapshot().to_json().into_bytes(),
        );
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SupervisorConfig;
    use sim_cpu::{BlockExec, CpuMode, HwEvent};
    use sim_os::{MachineConfig, Vma};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn start_programs_counters_and_stop_clears_them() {
        let mut m = machine();
        let op = Oprofile::start(&mut m, OpConfig::time_at(90_000));
        assert_eq!(m.cpu.bank.len(), 1);
        op.stop(&mut m);
        assert!(m.cpu.bank.is_empty());
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn double_start_rejected() {
        let mut m = machine();
        let _a = Oprofile::start(&mut m, OpConfig::default());
        let _b = Oprofile::start(&mut m, OpConfig::default());
    }

    #[test]
    fn end_to_end_samples_flow_to_db() {
        let mut m = machine();
        let pid = m.kernel.spawn("app");
        m.kernel
            .process_mut(pid)
            .unwrap()
            .space
            .map(Vma::anon(0x6000_0000, 0x6100_0000))
            .unwrap();
        let op = Oprofile::start(&mut m, OpConfig::time_at(10_000));
        // 1M cycles in anon code → 100 samples.
        m.exec(&BlockExec::compute(
            pid,
            CpuMode::User,
            (0x6000_0000, 0x6100_0000),
            1_000_000,
        ));
        let db = op.stop(&mut m);
        assert_eq!(db.total(HwEvent::Cycles), 100);
        assert_eq!(op.driver_stats().anon, 100);
        // Persisted to the VFS and parseable.
        let raw = m.kernel.vfs.read(SAMPLES_PATH).unwrap();
        let parsed = SampleDb::from_bytes(raw).unwrap();
        assert_eq!(parsed.total(HwEvent::Cycles), 100);
    }

    #[test]
    fn profiling_overhead_is_visible_in_clock() {
        // Identical work with and without profiling: the profiled run
        // must take longer — that delta is Figure 2's subject.
        let work = 50_000_000u64;
        let mut base = machine();
        let pid_b = base.kernel.spawn("app");
        base.exec(&BlockExec::compute(pid_b, CpuMode::User, (0x1000, 0x2000), work));
        let base_cycles = base.cpu.clock.cycles();

        let mut prof = machine();
        let pid_p = prof.kernel.spawn("app");
        let op = Oprofile::start(&mut prof, OpConfig::time_at(90_000));
        prof.exec(&BlockExec::compute(pid_p, CpuMode::User, (0x1000, 0x2000), work));
        op.stop(&mut prof);
        let prof_cycles = prof.cpu.clock.cycles();

        assert!(prof_cycles > base_cycles);
        let overhead = (prof_cycles - base_cycles) as f64 / base_cycles as f64;
        assert!(
            overhead > 0.005 && overhead < 0.15,
            "overhead {overhead} outside plausible band"
        );
    }

    #[test]
    fn journaled_session_replays_to_the_persisted_db() {
        let mut m = machine();
        let pid = m.kernel.spawn("app");
        m.kernel
            .process_mut(pid)
            .unwrap()
            .space
            .map(Vma::anon(0x6000_0000, 0x6100_0000))
            .unwrap();
        let config = OpConfig {
            daemon_period_cycles: 200_000,
            ..OpConfig::time_at(10_000)
        }
        .with_journal();
        let op = Oprofile::start(&mut m, config);
        for _ in 0..5 {
            m.exec(&BlockExec::compute(
                pid,
                CpuMode::User,
                (0x6000_0000, 0x6100_0000),
                220_000,
            ));
        }
        let db = op.stop(&mut m);
        assert!(db.total_samples() > 0);
        // Replaying every committed batch record rebuilds the database
        // bit for bit.
        let scan = sim_os::journal::scan(&m.kernel.vfs, SAMPLE_JOURNAL_PATH).unwrap();
        assert_eq!(scan.damaged_bytes, 0);
        assert!(scan.records.len() >= 2, "timer drains + final flush");
        let mut replayed = SampleDb::new();
        for rec in &scan.records {
            // Telemetry is always on for sessions, so every batch record
            // carries a trace header.
            assert_eq!(rec.kind, sim_os::journal::KIND_SAMPLE_BATCH_TRACED);
            let (ctx, body) = rec.sample_batch().unwrap().unwrap();
            assert_ne!(ctx.unwrap().span, 0, "journal span identity persisted");
            replayed.merge(&SampleDb::from_bytes(body).unwrap());
        }
        assert_eq!(replayed, db);
    }

    #[test]
    fn final_flush_is_a_drain() {
        // Samples taken after the last timer drain (at 1M cycles) reach
        // the database only through the final flush, which must be
        // accounted, journaled and traced exactly like a timer drain.
        let mut m = machine();
        let pid = m.kernel.spawn("app");
        let config = OpConfig {
            daemon_period_cycles: 200_000,
            ..OpConfig::time_at(10_000)
        }
        .with_journal();
        let op = Oprofile::start(&mut m, config);
        m.exec(&BlockExec::compute(pid, CpuMode::User, (0x1000, 0x2000), 1_050_000));
        let db = op.stop(&mut m);
        let snap = op.telemetry().snapshot();
        let records = sim_os::journal::scan(&m.kernel.vfs, SAMPLE_JOURNAL_PATH).unwrap().records;
        assert_eq!(snap.counter(names::DAEMON_DRAINS), records.len() as u64);
        assert_eq!(
            snap.histogram(names::DAEMON_BATCH_SAMPLES).unwrap().sum,
            db.total_samples()
        );
        let trace = op.telemetry().trace_snapshot();
        let name_of = |id: u64| trace.spans.iter().find(|s| s.id == id).map(|s| s.name.as_str());
        let drains: Vec<_> =
            trace.spans.iter().filter(|s| s.name == names::SPAN_DAEMON_DRAIN).collect();
        assert_eq!(drains.len(), 2, "one timer drain and the final flush");
        for drain in drains {
            assert_eq!(name_of(drain.parent), Some(names::SPAN_NMI_WINDOW), "drain at {}", drain.begin);
        }
    }

    #[test]
    fn journal_costs_no_cycles() {
        // Journaled and unjournaled runs of the same workload burn the
        // same simulated time — the journal rides the drain's existing
        // I/O budget.
        let run = |journal: bool| {
            let mut m = machine();
            let pid = m.kernel.spawn("app");
            let mut config = OpConfig {
                daemon_period_cycles: 200_000,
                ..OpConfig::time_at(10_000)
            };
            config.journal = journal;
            let op = Oprofile::start(&mut m, config);
            m.exec(&BlockExec::compute(pid, CpuMode::User, (0x1000, 0x2000), 1_000_000));
            op.stop(&mut m);
            m.cpu.clock.cycles()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn supervised_session_exposes_stats() {
        let mut m = machine();
        let config = OpConfig::time_at(90_000).with_supervisor(SupervisorConfig::default());
        let op = Oprofile::start(&mut m, config);
        assert_eq!(op.supervisor_stats(), Some(SupervisorStats::default()));
        op.stop(&mut m);
        // Unsupervised sessions report none.
        let op2 = Oprofile::start(&mut m, OpConfig::default());
        assert_eq!(op2.supervisor_stats(), None);
        op2.stop(&mut m);
    }

    #[test]
    fn stop_persists_a_parseable_telemetry_snapshot() {
        use viprof_telemetry::TelemetrySnapshot;
        let mut m = machine();
        let pid = m.kernel.spawn("app");
        let op = Oprofile::start(&mut m, OpConfig::time_at(10_000));
        m.exec(&BlockExec::compute(pid, CpuMode::User, (0x1000, 0x2000), 1_000_000));
        op.stop(&mut m);
        let raw = m.kernel.vfs.read(TELEMETRY_PATH).unwrap();
        let snap = TelemetrySnapshot::from_json(std::str::from_utf8(raw).unwrap()).unwrap();
        assert_eq!(snap.counter(names::SESSION_INSTALLS), 1);
        assert_eq!(snap.counter(names::SESSION_STOPS), 1);
        assert_eq!(snap.counter(names::CPU_SAMPLES_DELIVERED), 100);
        assert_eq!(snap.counter(names::BUFFER_PUSHED), 100);
        assert_eq!(snap.events_of(names::EVENT_SESSION_STOP).len(), 1);
        assert!(snap.stage(names::STAGE_DAEMON_DRAIN).is_some(), "the final flush is a drain");
    }

    #[test]
    fn stop_persists_a_parseable_chrome_trace() {
        use viprof_telemetry::TraceSnapshot;
        let mut m = machine();
        let pid = m.kernel.spawn("app");
        let config = OpConfig {
            daemon_period_cycles: 200_000,
            ..OpConfig::time_at(10_000)
        };
        let op = Oprofile::start(&mut m, config);
        m.exec(&BlockExec::compute(pid, CpuMode::User, (0x1000, 0x2000), 1_000_000));
        op.stop(&mut m);
        let raw = m.kernel.vfs.read(TRACE_PATH).unwrap();
        let trace = TraceSnapshot::from_chrome_json(std::str::from_utf8(raw).unwrap()).unwrap();
        // One session root, closed at stop, with drains hanging off it.
        let roots = trace.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, names::SPAN_SESSION);
        assert_eq!(roots[0].end, m.cpu.clock.cycles());
        assert!(trace
            .spans
            .iter()
            .any(|s| s.name == names::SPAN_DAEMON_DRAIN && s.parent != 0));
    }

    #[test]
    #[should_panic(expected = "invalid OpConfig")]
    fn start_rejects_invalid_config() {
        let mut m = machine();
        let mut config = OpConfig::default();
        config.events.clear();
        let _ = Oprofile::start(&mut m, config);
    }

    #[test]
    fn governed_session_publishes_period_and_cap() {
        use crate::governor::GovernorConfig;
        let mut m = machine();
        let config = OpConfig::time_at(90_000)
            .with_governor(GovernorConfig::default())
            .with_db_bucket_cap(64);
        let op = Oprofile::start(&mut m, config);
        let snap = op.telemetry().snapshot();
        assert_eq!(snap.gauge(names::GOVERNOR_PERIOD), 90_000);
        assert_eq!(op.db.lock().unwrap_or_else(PoisonError::into_inner).db().admission_cap(), Some(64));
        op.stop(&mut m);
    }

    #[test]
    fn stop_returns_clean_machine_for_next_session() {
        let mut m = machine();
        let op1 = Oprofile::start(&mut m, OpConfig::time_at(50_000));
        op1.stop(&mut m);
        // A second session can start cleanly.
        let op2 = Oprofile::start(&mut m, OpConfig::time_at(90_000));
        assert_eq!(m.cpu.bank.len(), 1);
        op2.stop(&mut m);
    }
}
