//! The userspace daemon (`oprofiled`).
//!
//! "The runtime profiler is the OProfile daemon that runs whenever we
//! wish to log the samples. It is the main source of profiling
//! overhead" (paper §3). Modelled as a [`MachineService`]: on its timer
//! it drains the driver's ring buffer into the sample database and
//! executes a block of its own cycles — in its own process, at its own
//! symbols, so the daemon itself shows up in profiles exactly like the
//! real `oprofiled` does.
//!
//! Every drain — a timer wakeup, the supervisor's catch-up after a
//! restart, and the final flush at `opcontrol --stop` — is one call of
//! the same routine (`Drain::run`) on the drain state the daemon and the
//! session share.

use crate::driver::Driver;
use crate::faults::{DaemonFaultStats, DaemonFaults};
use crate::governor::{DeadlineVerdict, Governor, GovernorDecision};
use crate::samples::{SampleAccumulator, SampleDb, SampleOrigin};
use sim_cpu::{Addr, BlockExec, CostModel, Cpu, CpuMode, HwEvent, MemActivity, Pid};
use sim_os::journal::{encode_traced_payload, JournalWriter, KIND_SAMPLE_BATCH_TRACED};
use sim_os::loader::BIN_HINT;
use sim_os::{Image, Kernel, Loader, MachineCtx, MachineService, Symbol, Vfs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use viprof_telemetry::{names, Counter, Gauge, Histogram, Stage, Telemetry, TraceCtx, TraceLayer};

/// Telemetry handles for the daemon and its drain path, resolved once
/// when the drain state is built.
pub(crate) struct DaemonTelemetry {
    registry: Telemetry,
    wakeups: Counter,
    drains: Counter,
    stalls: Counter,
    batches_journaled: Counter,
    dead_gen_dropped: Counter,
    registry_reaps: Counter,
    deadline_misses: Counter,
    governor_backoffs: Counter,
    governor_recoveries: Counter,
    governor_escalations: Counter,
    governor_period: Gauge,
    batch_samples: Histogram,
    drain_stage: Stage,
}

impl DaemonTelemetry {
    fn attach(registry: &Telemetry) -> Self {
        DaemonTelemetry {
            registry: registry.clone(),
            wakeups: registry.counter(names::DAEMON_WAKEUPS),
            drains: registry.counter(names::DAEMON_DRAINS),
            stalls: registry.counter(names::DAEMON_STALLS),
            batches_journaled: registry.counter(names::DAEMON_BATCHES_JOURNALED),
            dead_gen_dropped: registry.counter(names::DAEMON_DEAD_GEN_DROPPED),
            registry_reaps: registry.counter(names::REGISTRY_REAPS),
            deadline_misses: registry.counter(names::DAEMON_DEADLINE_MISSES),
            governor_backoffs: registry.counter(names::GOVERNOR_BACKOFFS),
            governor_recoveries: registry.counter(names::GOVERNOR_RECOVERIES),
            governor_escalations: registry.counter(names::GOVERNOR_ESCALATIONS),
            governor_period: registry.gauge(names::GOVERNOR_PERIOD),
            batch_samples: registry.histogram(names::DAEMON_BATCH_SAMPLES),
            drain_stage: registry.stage(names::STAGE_DAEMON_DRAIN),
        }
    }

    /// Account one landed drain in its one causal record: count it,
    /// then close its span `span` at the virtual time the drain's
    /// charged cycles end. The span carries the batch's full loss
    /// accounting (`dropped`, of which `dead` were refused at admission
    /// because their incarnation was reaped, not lost to ring
    /// overflow), `window`, where the sampling window it drained began,
    /// and `seq`, the journal record the batch committed under, if any.
    /// Its `samples + dead` is the ring occupancy the drain found.
    fn note_drain(&self, span: TraceCtx, now: u64, window: u64, d: &Drained, seq: Option<u64>) {
        let samples = d.batch.total_samples();
        self.drains.inc();
        self.batch_samples.record(samples);
        self.drain_stage.record(d.cycles);
        self.dead_gen_dropped.add(d.dead);
        let mut fields = vec![
            ("samples", samples),
            ("dropped", d.batch.dropped),
            ("dead", d.dead),
            ("window", window),
        ];
        if let Some(seq) = seq {
            self.batches_journaled.inc();
            fields.push(("seq", seq));
        }
        self.registry.trace_end_at(now + d.cycles, span, &fields);
    }
}

/// A batch with no samples and no loss accounting: not journaled.
fn is_trivial(batch: &SampleDb) -> bool {
    batch.total_samples() == 0 && batch.dropped == 0
}

/// OS image name of the daemon binary.
pub const DAEMON_IMAGE: &str = "oprofiled";

/// What one [`Drain::run`] moved and what it cost.
pub(crate) struct Drained {
    /// The drained window, already merged into the shared database.
    pub batch: SampleDb,
    /// Daemon cycles the drain cost; the caller charges them.
    pub cycles: u64,
    /// Samples refused because their incarnation was reaped (part of
    /// `batch.dropped`).
    pub dead: u64,
    /// Ring occupancy when the drain began: the batch's samples plus
    /// `dead`.
    pub occupancy: u64,
    /// Ring capacity.
    pub capacity: usize,
}

/// Everything a drain touches, shared by the daemon (timer drains and
/// the supervisor's catch-up) and the session (the final flush at
/// `stop`), so all three run the same [`Drain::run`].
pub(crate) struct Drain {
    driver: Arc<Mutex<Driver>>,
    db: Arc<Mutex<SampleAccumulator>>,
    cost: CostModel,
    /// Write-ahead journal for drained batches: every non-trivial batch
    /// is appended as one committed record, so a crashed or corrupted
    /// `current.db` can be rebuilt by replay.
    journal: Option<JournalWriter>,
    t: DaemonTelemetry,
    /// Virtual time the previous drain began: where the sampling window
    /// the next drain empties began, recorded as that drain span's
    /// `window` field.
    window: u64,
}

impl Drain {
    pub(crate) fn new(
        driver: Arc<Mutex<Driver>>,
        db: Arc<Mutex<SampleAccumulator>>,
        cost: CostModel,
        registry: &Telemetry,
        journal: Option<JournalWriter>,
    ) -> Drain {
        Drain {
            driver,
            db,
            cost,
            journal,
            t: DaemonTelemetry::attach(registry),
            window: 0,
        }
    }

    /// The one drain routine, shared by a daemon wakeup, the
    /// supervisor's catch-up (`redrain`) and the final flush at `stop`.
    /// It writes two records per drain: the drain span (the causal
    /// record, which the journal record points at) and the timeline
    /// window (the counter record). In order: reap dead incarnations,
    /// open the drain span under the session root, move the ring into
    /// the database, journal the batch, account the drain and close its
    /// span, then close the timeline window at the drain's end.
    /// `govern` runs just before the window closes, so a period the
    /// daemon's governor reprograms lands in the window that caused it.
    /// The caller charges the returned cycles.
    pub(crate) fn run(
        &mut self,
        kernel: &mut Kernel,
        now: u64,
        redrain: bool,
        govern: impl FnOnce(&Drained, &DaemonTelemetry),
    ) -> Drained {
        let t = &self.t.registry;
        t.set_now(now);
        // Reap before draining: a registration whose process died in
        // this window must not admit the dead incarnation's samples.
        self.reap_dead(kernel);
        let (layer, name) = if redrain {
            (TraceLayer::Redrain, names::SPAN_SUPERVISOR_REDRAIN)
        } else {
            (TraceLayer::Drain, names::SPAN_DAEMON_DRAIN)
        };
        let span = t.trace_begin_at(now, layer, name, t.trace_root());
        let drained = self.drain_batch();
        let seq = self.journal_batch(&mut kernel.vfs, &drained.batch, span);
        self.t.note_drain(span, now, self.window, &drained, seq);
        self.window = now;
        govern(&drained, &self.t);
        self.t.registry.sample_timeline_at(now + drained.cycles);
        drained
    }

    /// Drop the extension's registrations for processes that died
    /// since the last window, so subsequent drains refuse their late
    /// samples instead of resolving them against whatever owns the pid
    /// now.
    fn reap_dead(&self, kernel: &Kernel) {
        let reaped = self
            .driver
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reap(&mut |pid, gen| kernel.process(pid).is_some_and(|p| p.gen == gen));
        if reaped > 0 {
            self.t.registry_reaps.add(reaped);
            self.t.registry.event(
                names::EVENT_REGISTRY_REAP,
                "registrations of dead incarnations reaped",
                &[("reaped", reaped)],
            );
        }
    }

    /// Move buffered samples into the database, returning the drained
    /// window as its own [`SampleDb`] (already merged into `db`) and
    /// the cycles the daemon consumed doing so. The batch is built by
    /// sorting the drained vector in place and counting its runs, not
    /// by one lookup per sample.
    /// The batch is what gets journaled: replaying every batch record
    /// in order rebuilds the full database, because the batch holds
    /// exactly what the drain admitted.
    /// The drained vector is recycled back into the ring before the
    /// driver lock drops, so steady-state drains allocate no ring
    /// slots.
    /// Samples refused because their `(pid, gen)` registration was
    /// reaped (the incarnation died unclean) are counted as `dead` and
    /// folded into `batch.dropped` — alongside ring overflow losses —
    /// so both the shared database and journal replay account them as
    /// dropped, never as resolvable samples.
    fn drain_batch(&self) -> Drained {
        let (batch, occupancy, capacity, probe, dead) = {
            let mut d = self.driver.lock().unwrap_or_else(PoisonError::into_inner);
            let (mut samples, dropped) = d.drain();
            let occupancy = samples.len() as u64;
            samples.retain(|s| match s.origin {
                SampleOrigin::JitApp { pid, gen } => d.admit(pid, gen),
                _ => true,
            });
            let dead = occupancy - samples.len() as u64;
            let mut batch = SampleDb::from_samples(&mut samples);
            batch.dropped = dropped + dead;
            d.recycle(samples);
            (batch, occupancy, d.buffer.capacity(), d.daemon_probe_cost(), dead)
        };
        self.db
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(&batch);
        let cycles = self.cost.daemon_drain(occupancy) + probe;
        Drained { batch, cycles, dead, occupancy, capacity }
    }

    /// Append one drained batch to the journal as a
    /// [`KIND_SAMPLE_BATCH_TRACED`] record whose header carries the
    /// drain span `span`, so an offline resolver can point at the exact
    /// drain where a sample was dropped. Returns the record's seq.
    /// Nothing is journaled without a journal, or for a trivial batch.
    /// Journal appends are part of the drain's existing I/O budget — no
    /// extra cycles — so journaled and unjournaled runs stay
    /// cycle-identical.
    fn journal_batch(&mut self, vfs: &mut Vfs, batch: &SampleDb, span: TraceCtx) -> Option<u64> {
        let journal = self.journal.as_mut()?;
        if is_trivial(batch) {
            return None;
        }
        let payload = encode_traced_payload(span, &batch.to_bytes());
        Some(journal.append(vfs, KIND_SAMPLE_BATCH_TRACED, &payload))
    }
}

/// The daemon service.
pub struct Daemon {
    drain: Arc<Mutex<Drain>>,
    active: Arc<AtomicBool>,
    period_cycles: u64,
    next_wakeup: u64,
    pid: Pid,
    pc_range: (Addr, Addr),
    /// Wakeups performed (tests/ablation).
    pub wakeups: u64,
    /// Drains that actually landed (wakeups minus missed windows). The
    /// supervisor's heartbeat: a wakeup without a drain is a stall or a
    /// crash.
    pub drains: u64,
    /// Optional fault schedule (stalls, crash-and-restart).
    faults: Option<DaemonFaults>,
    /// Closed-loop overload governor: observes occupancy and drop
    /// pressure each drain window, rescales the NMI period in response,
    /// and polices the per-drain deadline budget.
    governor: Option<Governor>,
    /// The event whose counter the governor reprograms.
    governed_event: HwEvent,
    /// Set when consecutive deadline misses cross the escalation
    /// threshold; the supervisor consumes it as a missed heartbeat.
    deadline_escalated: bool,
}

impl Daemon {
    /// Spawn the `oprofiled` process and build the service around the
    /// drain state it shares with the session.
    pub(crate) fn spawn(
        kernel: &mut Kernel,
        drain: Arc<Mutex<Drain>>,
        active: Arc<AtomicBool>,
        period_cycles: u64,
    ) -> Daemon {
        let image = match kernel.images.find_by_name(DAEMON_IMAGE) {
            Some(id) => id,
            None => kernel.images.insert(
                Image::new(DAEMON_IMAGE, 0x4000).with_symbols([
                    Symbol::new("opd_process_samples", 0x0000, 0x2000),
                    Symbol::new("sfile_log_sample", 0x2000, 0x1000),
                    Symbol::new("opd_open_files", 0x3000, 0x1000),
                ]),
            ),
        };
        let pid = kernel.spawn(DAEMON_IMAGE);
        let base = Loader::load_image(kernel, pid, image, BIN_HINT);
        Daemon {
            drain,
            active,
            period_cycles,
            next_wakeup: period_cycles,
            pid,
            pc_range: (base, base + 0x2000), // opd_process_samples
            wakeups: 0,
            drains: 0,
            faults: None,
            governor: None,
            governed_event: HwEvent::Cycles,
            deadline_escalated: false,
        }
    }

    /// Attach a fault schedule (chaos/robustness testing).
    pub fn with_faults(mut self, faults: DaemonFaults) -> Daemon {
        self.faults = Some(faults);
        self
    }

    /// Attach the overload governor, controlling the counter that
    /// watches `event` (the session's primary event).
    pub fn with_governor(mut self, governor: Governor, event: HwEvent) -> Daemon {
        self.governor = Some(governor);
        self.governed_event = event;
        self
    }

    /// The governor's controller state, if one is attached.
    pub fn governor(&self) -> Option<&Governor> {
        self.governor.as_ref()
    }

    /// Consume a pending deadline escalation (supervisor side). The
    /// flag re-arms on the next threshold crossing.
    pub fn take_deadline_escalation(&mut self) -> bool {
        std::mem::take(&mut self.deadline_escalated)
    }

    /// Restart a crashed daemon process: clears any remaining injected
    /// downtime so the next wakeup drains again. No-op without faults.
    pub fn revive(&mut self) -> u64 {
        self.faults.as_mut().map(|f| f.revive()).unwrap_or(0)
    }

    /// Immediate out-of-schedule drain (the supervisor's catch-up after
    /// a restart): [`Drain::run`] as a redrain, charged like a timer
    /// drain. Returns the samples recovered from the ring buffer.
    pub(crate) fn force_drain(&mut self, ctx: &mut MachineCtx<'_>) -> u64 {
        let now = ctx.cpu.clock.cycles();
        let drained = self
            .drain
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .run(ctx.kernel, now, true, |_, _| {});
        self.drains += 1;
        self.charge(ctx, drained.cycles);
        drained.batch.total_samples()
    }

    /// Injected-fault counters, if a schedule is installed.
    pub fn fault_stats(&self) -> Option<DaemonFaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Run the drain's cycles as a block of the daemon's own process.
    fn charge(&self, ctx: &mut MachineCtx<'_>, cycles: u64) {
        if cycles > 0 {
            ctx.exec(&BlockExec {
                pid: self.pid,
                mode: CpuMode::User,
                pc_range: self.pc_range,
                cycles,
                instructions: cycles,
                branches: cycles / 32,
                mem: MemActivity::None,
            });
        }
    }

    /// Close the overload loop: one observation per drain window,
    /// actuated by reprogramming the live counter. Every input
    /// (occupancy, drop count, drain cycles) is seed-deterministic and
    /// produced online, so the period trajectory cannot depend on
    /// offline post-processing choices like thread counts.
    fn govern(&mut self, cpu: &mut Cpu, t: &DaemonTelemetry, d: &Drained, now: u64) {
        let Some(gov) = &mut self.governor else {
            return;
        };
        // Dead-generation drops are admission refusals, not ring
        // pressure — the governor only sees real overflow losses.
        let ring_dropped = d.batch.dropped - d.dead;
        match gov.observe(d.occupancy as usize, d.capacity, ring_dropped) {
            GovernorDecision::Hold => {}
            GovernorDecision::Backoff { from, to } => {
                cpu.reprogram_period(self.governed_event, to);
                t.governor_backoffs.inc();
                t.governor_period.set(to);
                t.registry.event(
                    names::EVENT_GOVERNOR_RATE_CHANGE,
                    "overload pressure: sample period backed off",
                    &[
                        ("from", from),
                        ("to", to),
                        ("occupancy", d.occupancy),
                        ("dropped", ring_dropped),
                    ],
                );
            }
            GovernorDecision::Recover { from, to } => {
                cpu.reprogram_period(self.governed_event, to);
                t.governor_recoveries.inc();
                t.governor_period.set(to);
                t.registry.event(
                    names::EVENT_GOVERNOR_RATE_CHANGE,
                    "pressure subsided: sample period recovering",
                    &[("from", from), ("to", to), ("occupancy", d.occupancy)],
                );
            }
        }
        match gov.note_drain_cycles(d.cycles) {
            DeadlineVerdict::Met => {}
            DeadlineVerdict::Missed { escalate } => {
                // Retry at half the usual period instead of waiting out
                // a full window behind an oversized backlog.
                self.next_wakeup = now + (self.period_cycles / 2).max(1);
                t.deadline_misses.inc();
                if escalate {
                    self.deadline_escalated = true;
                    t.governor_escalations.inc();
                }
            }
        }
    }
}

impl MachineService for Daemon {
    fn poll(&mut self, ctx: &mut MachineCtx<'_>) {
        if !self.active.load(Ordering::Relaxed) {
            return;
        }
        let now = ctx.cpu.clock.cycles();
        if now < self.next_wakeup {
            return;
        }
        // Catch up (a long block may skip several periods — one drain
        // covers them, like a coalesced timer).
        while self.next_wakeup <= now {
            self.next_wakeup += self.period_cycles;
        }
        self.wakeups += 1;
        let shared = Arc::clone(&self.drain);
        let mut drain = shared.lock().unwrap_or_else(PoisonError::into_inner);
        drain.t.registry.set_now(now);
        drain.t.wakeups.inc();
        if let Some(faults) = &mut self.faults {
            if !faults.wakeup_allowed(self.wakeups) {
                // Stalled or crashed: the drain window is missed and the
                // ring buffer keeps filling. No daemon cycles are burned
                // either — a dead process costs nothing.
                drain.t.stalls.inc();
                drain.t.registry.event(
                    names::EVENT_DAEMON_STALL,
                    "drain window missed (stalled or crashed daemon)",
                    &[("wakeup", self.wakeups)],
                );
                return;
            }
        }
        let cycles = drain
            .run(ctx.kernel, now, false, |d, t| self.govern(ctx.cpu, t, d, now))
            .cycles;
        drop(drain);
        self.drains += 1;
        self.charge(ctx, cycles);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::samples::{SampleBucket, SampleOrigin};
    use sim_cpu::HwEvent;
    use sim_os::{Machine, MachineConfig};

    pub(crate) fn bucket(addr: u64) -> SampleBucket {
        SampleBucket {
            origin: SampleOrigin::Unknown,
            event: HwEvent::Cycles,
            addr,
            epoch: 0,
        }
    }

    /// A daemon with handles to its driver, database and activity flag.
    pub(crate) type DaemonParts =
        (Daemon, Arc<Mutex<Driver>>, Arc<Mutex<SampleAccumulator>>, Arc<AtomicBool>);

    /// A daemon on `m` over a fresh `capacity`-slot driver and database,
    /// reporting to `t` and journaling to `journal` if given. The caller
    /// adds builders and registers it (bare or supervised).
    pub(crate) fn spawn_daemon(
        m: &mut Machine,
        t: &Telemetry,
        capacity: usize,
        cost: CostModel,
        period: u64,
        journal: Option<JournalWriter>,
    ) -> DaemonParts {
        let driver = Arc::new(Mutex::new(Driver::new(cost, capacity)));
        let db = Arc::new(Mutex::new(SampleAccumulator::default()));
        let active = Arc::new(AtomicBool::new(true));
        let drain = Drain::new(driver.clone(), db.clone(), cost, t, journal);
        let d = Daemon::spawn(&mut m.kernel, Arc::new(Mutex::new(drain)), active.clone(), period);
        (d, driver, db, active)
    }

    type Rig = (Machine, Arc<Mutex<Driver>>, Arc<Mutex<SampleAccumulator>>, Arc<AtomicBool>);

    fn setup_with_cost(period: u64, cost: CostModel) -> Rig {
        let mut m = Machine::new(MachineConfig::default());
        let (d, driver, db, active) =
            spawn_daemon(&mut m, &Telemetry::new(), 1024, cost, period, None);
        m.add_service(Box::new(d));
        (m, driver, db, active)
    }

    fn setup(period: u64) -> Rig {
        setup_with_cost(period, CostModel::default())
    }

    #[test]
    fn daemon_drains_on_timer_and_burns_cycles() {
        let (mut m, driver, db, _) = setup(1_000);
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x10));
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x20));
        // Not yet due.
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 500));
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).db().total_samples(), 0);
        // Crossing the period triggers the drain.
        let before = m.cpu.clock.cycles();
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 600));
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).db().total_samples(), 2);
        let elapsed = m.cpu.clock.cycles() - before;
        assert!(
            elapsed > 600,
            "daemon work must consume cycles beyond the app block"
        );
        assert!(driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.is_empty());
    }

    #[test]
    fn inactive_daemon_does_nothing() {
        let (mut m, driver, db, active) = setup(100);
        active.store(false, Ordering::Relaxed);
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x10));
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 10_000));
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).db().total_samples(), 0);
        assert_eq!(m.cpu.clock.cycles(), 10_000, "no daemon cycles charged");
    }

    #[test]
    fn long_block_coalesces_wakeups() {
        // Free cost model so daemon work doesn't itself cross periods.
        let (mut m, driver, db, _) = setup_with_cost(1_000, CostModel::free());
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x10));
        // One block spanning 10 periods → exactly one catch-up drain.
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 10_500));
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).db().total_samples(), 1);
        // Next wakeup is aligned after `now`.
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x20));
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 400));
        assert_eq!(
            db.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .db()
                .total_samples(),
            1,
            "not due again yet"
        );
    }

    #[test]
    fn crashed_daemon_misses_windows_and_buffer_overflows() {
        // Capacity-2 buffer, daemon crashed from its first wakeup for 3
        // windows: pushes during the outage overflow, and the loss is
        // counted — never silent.
        let mut m = Machine::new(MachineConfig::default());
        let (d, driver, db, _) =
            spawn_daemon(&mut m, &Telemetry::new(), 2, CostModel::free(), 100, None);
        m.add_service(Box::new(d.with_faults(DaemonFaults::new(1).with_crash(1, 2))));
        for round in 0..4u64 {
            driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(round * 16));
            driver
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .buffer
                .push(bucket(round * 16 + 8));
            m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }
        // Wakeups 1-3 missed (crash + 2 down); wakeup 4 drains what the
        // 2-slot buffer still holds and propagates the overflow count.
        assert_eq!(
            db.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .db()
                .total_samples(),
            2,
            "only the restart drain landed"
        );
        assert_eq!(
            db.lock().unwrap_or_else(PoisonError::into_inner).db().dropped,
            6,
            "pushes during the outage overflowed"
        );
        let (rest, dropped) = driver.lock().unwrap_or_else(PoisonError::into_inner).drain();
        assert!(rest.is_empty());
        assert_eq!(dropped, 0, "drop counter was handed to the db");
    }

    #[test]
    fn telemetry_records_drains_stalls_and_overflow() {
        use viprof_telemetry::names;
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        let (d, driver, _, _) = spawn_daemon(&mut m, &t, 2, CostModel::free(), 100, None);
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.attach_telemetry(&t);
        m.add_service(Box::new(d.with_faults(DaemonFaults::new(1).with_crash(1, 1))));
        for round in 0..3u64 {
            {
                let mut d = driver.lock().unwrap_or_else(PoisonError::into_inner);
                d.buffer.push(bucket(round * 16));
                d.buffer.push(bucket(round * 16 + 8));
                d.buffer.push(bucket(round * 16 + 12)); // overflows
            }
            m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::DAEMON_WAKEUPS), 3);
        assert_eq!(snap.counter(names::DAEMON_STALLS), 2, "crash + 1 window down");
        assert_eq!(snap.counter(names::DAEMON_DRAINS), 1);
        assert_eq!(snap.events_of(names::EVENT_DAEMON_STALL).len(), 2);
        // The overflow is coalesced at the drain, on its one span and in
        // its one timeline window.
        let trace = t.trace_snapshot();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].field("dropped"), Some(7));
        assert_eq!(trace.spans[0].field("dead"), Some(0));
        let timeline = t.timeline_snapshot();
        assert_eq!(timeline.series(names::BUFFER_DROPPED), vec![(trace.spans[0].end, 7)]);
        let h = snap.histogram(names::DAEMON_BATCH_SAMPLES).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 2, "the surviving two samples were drained");
        assert!(snap.stage(names::STAGE_DAEMON_DRAIN).is_some());
    }

    #[test]
    fn drains_emit_causal_spans_and_traced_journal_records() {
        use sim_os::journal::scan;
        let t = Telemetry::new();
        let root = t.trace_begin(TraceLayer::Session, names::SPAN_SESSION, None);
        let mut m = Machine::new(MachineConfig::default());
        let journal = JournalWriter::create(&mut m.kernel.vfs, "/j");
        let (d, driver, _, _) =
            spawn_daemon(&mut m, &t, 64, CostModel::free(), 100, Some(journal));
        m.add_service(Box::new(d));
        for round in 0..2u64 {
            driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(round * 16));
            m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }

        // One span per drain, under the session root; each names where
        // its sampling window began (the previous drain's begin) and
        // the journal record its batch committed under.
        let trace = t.trace_snapshot();
        let drains: Vec<_> = trace.spans.iter().filter(|s| s.parent == root.span).collect();
        assert_eq!(trace.spans.len(), 3, "the root and one span per drain");
        assert_eq!(drains.len(), 2);
        for (seq, drain) in drains.iter().enumerate() {
            assert_eq!(drain.layer, TraceLayer::Drain);
            assert_eq!(drain.field("samples"), Some(1));
            assert_eq!(drain.field("seq"), Some(seq as u64));
        }
        assert_eq!(drains[0].field("window"), Some(0));
        assert_eq!(drains[1].field("window"), Some(drains[0].begin));

        // Each persisted record carries its drain span's identity and
        // the untouched SampleDb body.
        let s = scan(&m.kernel.vfs, "/j").unwrap();
        assert_eq!(s.records.len(), 2);
        for (rec, drain) in s.records.iter().zip(&drains) {
            assert_eq!(rec.kind, KIND_SAMPLE_BATCH_TRACED);
            let (rec_ctx, body) = rec.sample_batch().unwrap().unwrap();
            assert_eq!(rec_ctx, Some(TraceCtx { trace: drain.trace, span: drain.id }));
            assert_eq!(SampleDb::from_bytes(body).unwrap().total_samples(), 1);
        }
    }

    /// Admits JIT samples of generation 0 only: generation 1 is a
    /// reaped incarnation.
    struct DeadGenOne;

    impl crate::anon::AnonExtension for DeadGenOne {
        fn classify(
            &mut self,
            _pid: Pid,
            _pc: Addr,
            _vma: &sim_os::Vma,
        ) -> Option<crate::anon::JitClaim> {
            None
        }
        fn admit(&self, _pid: Pid, gen: u32) -> bool {
            gen == 0
        }
    }

    #[test]
    fn drain_span_samples_plus_dead_is_the_ring_occupancy() {
        // The drain span stores no occupancy: every sample the drain
        // finds in the ring is either admitted or refused as dead, and
        // ring overflow never reaches the ring. Checked over rings of
        // every fill level, overflowing ones included, with live, dead
        // and non-JIT samples mixed.
        let capacity = 8;
        for pushes in 0..20u64 {
            let t = Telemetry::new();
            let mut m = Machine::new(MachineConfig::default());
            let driver = Arc::new(Mutex::new(Driver::with_extension(
                CostModel::default(),
                capacity,
                Box::new(DeadGenOne),
            )));
            let db = Arc::new(Mutex::new(SampleAccumulator::default()));
            let mut drain = Drain::new(driver.clone(), db, CostModel::default(), &t, None);
            for i in 0..pushes {
                let origin = match i % 3 {
                    0 => SampleOrigin::Unknown,
                    k => SampleOrigin::JitApp { pid: Pid(7), gen: k as u32 - 1 },
                };
                let mut b = bucket(i * 16);
                b.origin = origin;
                driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(b);
            }
            let d = drain.run(&mut m.kernel, 1_000, false, |_, _| {});
            let occupancy = pushes.min(capacity as u64);
            let overflow = pushes - occupancy;
            assert_eq!(d.occupancy, occupancy);
            assert_eq!(d.batch.total_samples() + d.dead, occupancy, "{pushes} pushes");
            assert_eq!(d.dead, (0..occupancy).filter(|i| i % 3 == 2).count() as u64);
            let trace = t.trace_snapshot();
            let span = &trace.spans[0];
            let field = |k| span.field(k).unwrap();
            assert_eq!(field("samples") + field("dead"), occupancy, "{pushes} pushes");
            assert_eq!(field("dropped"), overflow + field("dead"));
        }
    }

    #[test]
    fn governor_backs_off_the_live_counter_under_pressure() {
        use crate::governor::{Governor, GovernorConfig};
        use viprof_telemetry::names;
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        // A live counter the governor will reprogram; period far above
        // the test's block sizes so it never actually overflows here.
        m.cpu.program_counter(sim_cpu::CounterSpec::new(HwEvent::Cycles, 1_000_000));
        let gov = Governor::new(
            1_000_000,
            GovernorConfig {
                high_watermark_pct: 50,
                low_watermark_pct: 20,
                dwell_windows: 1,
                backoff_factor: 2,
                max_scale: 4,
                ..GovernorConfig::default()
            },
        );
        let (d, driver, _, _) = spawn_daemon(&mut m, &t, 8, CostModel::free(), 100, None);
        m.add_service(Box::new(d.with_governor(gov, HwEvent::Cycles)));
        for round in 0..6u64 {
            // 6 of 8 slots = 75% occupancy: above the high watermark.
            for i in 0..6 {
                driver
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .buffer
                    .push(bucket(round * 128 + i * 16));
            }
            m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }
        // dwell 1 with a 1-window cooldown: back-offs land every other
        // drain until the 4× ceiling — 1M → 2M → 4M, then hold.
        assert_eq!(m.cpu.bank.counter(0).spec().period, 4_000_000);
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::GOVERNOR_BACKOFFS), 2);
        assert_eq!(snap.gauge(names::GOVERNOR_PERIOD), 4_000_000);
        assert_eq!(snap.events_of(names::EVENT_GOVERNOR_RATE_CHANGE).len(), 2);
    }

    #[test]
    fn deadline_misses_surface_and_escalate() {
        use crate::governor::{Governor, GovernorConfig};
        use viprof_telemetry::names;
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        // Default cost model: every drain costs well over 1 cycle, so a
        // 1-cycle budget misses each window.
        let gov = Governor::new(
            90_000,
            GovernorConfig {
                deadline_cycles: 1,
                deadline_miss_threshold: 2,
                ..GovernorConfig::default()
            },
        );
        let (d, driver, _, _) = spawn_daemon(&mut m, &t, 64, CostModel::default(), 100, None);
        m.add_service(Box::new(d.with_governor(gov, HwEvent::Cycles)));
        for round in 0..4u64 {
            driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(round * 16));
            m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }
        let snap = t.snapshot();
        assert!(snap.counter(names::DAEMON_DEADLINE_MISSES) >= 2);
        assert!(snap.counter(names::GOVERNOR_ESCALATIONS) >= 1, "threshold of 2 crossed");
    }

    #[test]
    fn dropped_samples_propagate_to_db() {
        let mut m = Machine::new(MachineConfig::default());
        let (d, driver, db, _) =
            spawn_daemon(&mut m, &Telemetry::new(), 2, CostModel::default(), 100, None);
        m.add_service(Box::new(d));
        for i in 0..5 {
            driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(i * 16));
        }
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 200));
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).db().total_samples(), 2);
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).db().dropped, 3);
    }
}
