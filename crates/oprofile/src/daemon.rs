//! The userspace daemon (`oprofiled`).
//!
//! "The runtime profiler is the OProfile daemon that runs whenever we
//! wish to log the samples. It is the main source of profiling
//! overhead" (paper §3). Modelled as a [`MachineService`]: on its timer
//! it drains the driver's ring buffer into the sample database and
//! executes a block of its own cycles — in its own process, at its own
//! symbols, so the daemon itself shows up in profiles exactly like the
//! real `oprofiled` does.

use crate::driver::Driver;
use crate::faults::{DaemonFaultStats, DaemonFaults};
use crate::governor::{DeadlineVerdict, Governor, GovernorDecision};
use crate::samples::{SampleDb, SampleOrigin};
use sim_cpu::{Addr, BlockExec, CostModel, CpuMode, HwEvent, MemActivity, Pid};
use sim_os::journal::{encode_traced_payload, JournalWriter, KIND_SAMPLE_BATCH, KIND_SAMPLE_BATCH_TRACED};
use sim_os::loader::BIN_HINT;
use sim_os::{Image, Kernel, Loader, MachineCtx, MachineService, Symbol, Vfs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use viprof_telemetry::{names, Counter, Gauge, Histogram, Stage, Telemetry, TraceCtx, TraceLayer};

/// Telemetry handles for the drain path, resolved once at attach.
struct DaemonTelemetry {
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
    db_evicted: Counter,
    governor_period: Gauge,
    batch_samples: Histogram,
    occupancy_at_drain: Histogram,
    drain_cycles: Histogram,
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
            db_evicted: registry.counter(names::DB_EVICTED_SAMPLES),
            governor_period: registry.gauge(names::GOVERNOR_PERIOD),
            batch_samples: registry.histogram(names::DAEMON_BATCH_SAMPLES),
            occupancy_at_drain: registry.histogram(names::BUFFER_OCCUPANCY_AT_DRAIN),
            drain_cycles: registry.histogram(names::DAEMON_DRAIN_CYCLES),
            drain_stage: registry.stage(names::STAGE_DAEMON_DRAIN),
        }
    }

    /// Account one landed drain: batch shape, drain cycles, and — when
    /// the ring overflowed since the previous drain — a coalesced
    /// `buffer.overflow` event carrying the loss count. `dead` is the
    /// portion of `batch.dropped` refused at admission because its
    /// incarnation was reaped (not a ring overflow), reported under its
    /// own counter/event.
    fn note_drain(&self, occupancy: u64, batch: &SampleDb, cycles: u64, journaled: bool, dead: u64) {
        self.drains.inc();
        self.occupancy_at_drain.record(occupancy);
        self.batch_samples.record(batch.total_samples());
        self.drain_cycles.record(cycles);
        self.drain_stage.record(cycles);
        if journaled && (batch.total_samples() > 0 || batch.dropped > 0 || batch.evicted > 0) {
            self.batches_journaled.inc();
        }
        let ring_dropped = batch.dropped - dead;
        if ring_dropped > 0 {
            self.registry.event(
                names::EVENT_BUFFER_OVERFLOW,
                "ring buffer overflowed since last drain",
                &[("dropped", ring_dropped), ("drained", batch.total_samples())],
            );
        }
        if dead > 0 {
            self.dead_gen_dropped.add(dead);
            self.registry.event(
                names::EVENT_DAEMON_DEAD_GEN_DROP,
                "late samples for reaped incarnations dropped at drain",
                &[("dropped", dead), ("drained", batch.total_samples())],
            );
        }
        if batch.evicted > 0 {
            self.db_evicted.add(batch.evicted);
            self.registry.event(
                names::EVENT_DB_EVICTION,
                "sample-db admission cap refused new buckets",
                &[("evicted", batch.evicted), ("drained", batch.total_samples())],
            );
        }
    }

    /// Open the causal spans for one landed drain: the NMI sampling
    /// window that just closed (retroactive — it began when the
    /// previous drain ended) and the drain itself as its child.
    /// `redrain` marks the supervisor's out-of-schedule catch-up.
    /// Returns the drain span, the parent for the journal append and
    /// everything downstream (live sink, lineage).
    fn begin_drain_spans(
        &self,
        window_begin: u64,
        now: u64,
        occupancy: u64,
        redrain: bool,
    ) -> TraceCtx {
        let root = self.registry.trace_root();
        let window = self.registry.trace_begin_at(
            window_begin.min(now),
            TraceLayer::Nmi,
            names::SPAN_NMI_WINDOW,
            root,
        );
        self.registry
            .trace_end_at(now, window, &[("occupancy", occupancy)]);
        let (layer, name) = if redrain {
            (TraceLayer::Redrain, names::SPAN_SUPERVISOR_REDRAIN)
        } else {
            (TraceLayer::Drain, names::SPAN_DAEMON_DRAIN)
        };
        self.registry.trace_begin_at(now, layer, name, Some(window))
    }

    /// Close a drain span opened by [`Self::begin_drain_spans`] at the
    /// virtual time the drain's charged cycles end, carrying the
    /// batch's full loss accounting.
    fn end_drain_span(&self, drain: TraceCtx, end: u64, batch: &SampleDb, dead: u64) {
        self.registry.trace_end_at(
            end,
            drain,
            &[
                ("samples", batch.total_samples()),
                ("dropped", batch.dropped),
                ("evicted", batch.evicted),
                ("dead", dead),
            ],
        );
    }
}

/// OS image name of the daemon binary.
pub const DAEMON_IMAGE: &str = "oprofiled";

/// Observer of drained sample batches — the seam the live resolution
/// engine feeds from. Fired after a drained window has been merged into
/// the shared database and journaled, for every batch that carries
/// samples or loss accounting (trivial empty windows are skipped, the
/// same rule the journal applies). `seq` is the journal sequence number
/// of the batch's record, `None` when the session runs unjournaled.
/// `ctx` is the drain span that delivered the batch — the causal parent
/// for any spans the sink opens — `None` when the session is untraced.
pub trait DrainSink: Send {
    fn on_batch(
        &mut self,
        kernel: &Kernel,
        seq: Option<u64>,
        batch: &SampleDb,
        ctx: Option<TraceCtx>,
    );
}

/// Cloneable shared handle to a [`DrainSink`], so `OpConfig` keeps its
/// `Debug`/`Clone` derives and the session, daemon, and caller can all
/// hold the same sink.
#[derive(Clone)]
pub struct SinkHandle(Arc<Mutex<dyn DrainSink>>);

impl SinkHandle {
    pub fn new(sink: impl DrainSink + 'static) -> SinkHandle {
        SinkHandle(Arc::new(Mutex::new(sink)))
    }

    pub fn on_batch(
        &self,
        kernel: &Kernel,
        seq: Option<u64>,
        batch: &SampleDb,
        ctx: Option<TraceCtx>,
    ) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).on_batch(kernel, seq, batch, ctx);
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

/// The daemon service.
pub struct Daemon {
    driver: Arc<Mutex<Driver>>,
    db: Arc<Mutex<SampleDb>>,
    active: Arc<AtomicBool>,
    cost: CostModel,
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
    /// Optional write-ahead journal for drained batches (shared with
    /// the session so the final synchronous flush journals too).
    journal: Option<Arc<Mutex<JournalWriter>>>,
    /// Closed-loop overload governor: observes occupancy and drop
    /// pressure each drain window, rescales the NMI period in response,
    /// and polices the per-drain deadline budget.
    governor: Option<Governor>,
    /// The event whose counter the governor reprograms.
    governed_event: HwEvent,
    /// Observer fed every non-trivial drained batch (live resolution).
    sink: Option<SinkHandle>,
    /// Set when consecutive deadline misses cross the escalation
    /// threshold; the supervisor consumes it as a missed heartbeat.
    deadline_escalated: bool,
    /// Virtual time the previous drain landed — the begin of the NMI
    /// sampling window the next drain's span closes retroactively.
    last_drain_end: u64,
    telemetry: Option<DaemonTelemetry>,
}

impl Daemon {
    /// Spawn the `oprofiled` process and build the service.
    pub fn spawn(
        kernel: &mut Kernel,
        driver: Arc<Mutex<Driver>>,
        db: Arc<Mutex<SampleDb>>,
        active: Arc<AtomicBool>,
        cost: CostModel,
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
            driver,
            db,
            active,
            cost,
            period_cycles,
            next_wakeup: period_cycles,
            pid,
            pc_range: (base, base + 0x2000), // opd_process_samples
            wakeups: 0,
            drains: 0,
            faults: None,
            journal: None,
            governor: None,
            governed_event: HwEvent::Cycles,
            sink: None,
            deadline_escalated: false,
            last_drain_end: 0,
            telemetry: None,
        }
    }

    /// Mirror wakeups, drains, stalls, and batch shapes into `registry`
    /// and record stall/overflow events on its flight recorder.
    pub fn with_telemetry(mut self, registry: &Telemetry) -> Daemon {
        self.telemetry = Some(DaemonTelemetry::attach(registry));
        self
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

    /// Attach a drain sink: every non-trivial drained batch is handed
    /// to it after the merge + journal append.
    pub fn with_sink(mut self, sink: SinkHandle) -> Daemon {
        self.sink = Some(sink);
        self
    }

    /// Consume a pending deadline escalation (supervisor side). The
    /// flag re-arms on the next threshold crossing.
    pub fn take_deadline_escalation(&mut self) -> bool {
        std::mem::take(&mut self.deadline_escalated)
    }

    /// Attach a sample-batch journal. Every drained batch is appended
    /// as one committed record before the daemon moves on, so a crashed
    /// or corrupted `current.db` can be rebuilt by replay.
    pub fn with_journal(mut self, journal: Arc<Mutex<JournalWriter>>) -> Daemon {
        self.journal = Some(journal);
        self
    }

    /// Restart a crashed daemon process: clears any remaining injected
    /// downtime so the next wakeup drains again. No-op without faults.
    pub fn revive(&mut self) -> u64 {
        self.faults.as_mut().map(|f| f.revive()).unwrap_or(0)
    }

    /// Immediate out-of-schedule drain (the supervisor's catch-up after
    /// a restart). Charges daemon cycles and journals the batch like a
    /// timer drain. Returns the samples recovered from the ring buffer.
    pub fn force_drain(&mut self, ctx: &mut MachineCtx<'_>) -> u64 {
        let now = ctx.cpu.clock.cycles();
        self.reap_dead(ctx.kernel, now);
        let occupancy = self
            .driver
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .buffer
            .len() as u64;
        let drain_span = self.telemetry.as_ref().map(|t| {
            t.registry.set_now(now);
            t.begin_drain_spans(self.last_drain_end, now, occupancy, true)
        });
        let (batch, cycles, dead) = Daemon::drain_batch(&self.driver, &self.db, &self.cost);
        let n = batch.total_samples();
        self.drains += 1;
        self.last_drain_end = now;
        let seq = Daemon::journal_batch(
            &self.journal,
            &mut ctx.kernel.vfs,
            &batch,
            drain_span,
            self.telemetry.as_ref().map(|t| &t.registry),
        );
        Daemon::notify_sink(&self.sink, ctx.kernel, seq, &batch, drain_span);
        if let Some(t) = &self.telemetry {
            t.note_drain(occupancy, &batch, cycles, self.journal.is_some(), dead);
            if let Some(span) = drain_span {
                t.end_drain_span(span, now + cycles, &batch, dead);
            }
            // A catch-up drain closes its own timeline window so restart
            // recovery is visible as a distinct sample on the timeline.
            t.registry.sample_timeline_at(now + cycles);
        }
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
        n
    }

    /// Append one drained batch to the journal (if one is attached and
    /// the batch carries anything worth replaying). Journal appends are
    /// part of the drain's existing I/O budget — no extra cycles — so
    /// journaled and unjournaled runs stay cycle-identical. Returns the
    /// sequence number of the appended record, `None` when nothing was
    /// journaled (no journal, or a trivial batch).
    ///
    /// When a registry is supplied the append is wrapped in a
    /// `span.journal_batch` child of `parent`, the record is written as
    /// [`KIND_SAMPLE_BATCH_TRACED`], and that journal span's identity
    /// rides in the record header — so an offline resolver can point at
    /// the exact batch where a sample was dropped or evicted. Without a
    /// registry the untagged v1 record format is written, byte-for-byte
    /// what pre-tracing builds produced.
    pub fn journal_batch(
        journal: &Option<Arc<Mutex<JournalWriter>>>,
        vfs: &mut Vfs,
        batch: &SampleDb,
        parent: Option<TraceCtx>,
        registry: Option<&Telemetry>,
    ) -> Option<u64> {
        let journal = journal.as_ref()?;
        if batch.total_samples() == 0 && batch.dropped == 0 && batch.evicted == 0 {
            return None;
        }
        let body = batch.to_bytes();
        let seq = match registry {
            Some(t) => {
                let span = t.trace_begin(TraceLayer::Journal, names::SPAN_JOURNAL_BATCH, parent);
                let payload = encode_traced_payload(span, &body);
                let seq = journal
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .append(vfs, KIND_SAMPLE_BATCH_TRACED, &payload);
                t.trace_end(
                    span,
                    &[
                        ("seq", seq),
                        ("samples", batch.total_samples()),
                        ("dropped", batch.dropped),
                        ("evicted", batch.evicted),
                    ],
                );
                seq
            }
            None => journal
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(vfs, KIND_SAMPLE_BATCH, &body),
        };
        Some(seq)
    }

    /// Hand a non-trivial drained batch to `sink`. Uses the same
    /// triviality rule as [`Daemon::journal_batch`], so a journaled
    /// session's sink sees exactly the journaled record stream (with
    /// matching sequence numbers) and an unjournaled one sees the same
    /// batches with `seq: None`. `ctx` is the drain span handed through
    /// to the sink as causal parent.
    pub fn notify_sink(
        sink: &Option<SinkHandle>,
        kernel: &Kernel,
        seq: Option<u64>,
        batch: &SampleDb,
        ctx: Option<TraceCtx>,
    ) {
        if let Some(sink) = sink {
            if batch.total_samples() > 0 || batch.dropped > 0 || batch.evicted > 0 {
                sink.on_batch(kernel, seq, batch, ctx);
            }
        }
    }

    /// Injected-fault counters, if a schedule is installed.
    pub fn fault_stats(&self) -> Option<DaemonFaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// One drain: move buffered samples into the DB, return the cycles
    /// the daemon consumed doing so. Shared by the timer path and the
    /// final synchronous flush at `stop`.
    pub fn drain_once(
        driver: &Mutex<Driver>,
        db: &Mutex<SampleDb>,
        cost: &CostModel,
    ) -> (u64, u64) {
        let (batch, cycles, _) = Daemon::drain_batch(driver, db, cost);
        (batch.total_samples(), cycles)
    }

    /// Drop the extension's registrations for processes that died
    /// since the last window, so subsequent drains refuse their late
    /// samples instead of resolving them against whatever owns the pid
    /// now. Returns how many registrations were reaped.
    pub fn reap_dead(&mut self, kernel: &Kernel, now: u64) -> u64 {
        let reaped = self
            .driver
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reap(&mut |pid, gen| kernel.process(pid).is_some_and(|p| p.gen == gen));
        if reaped > 0 {
            if let Some(t) = &self.telemetry {
                t.registry.set_now(now);
                t.registry_reaps.add(reaped);
                t.registry.event(
                    names::EVENT_REGISTRY_REAP,
                    "registrations of dead incarnations reaped",
                    &[("reaped", reaped)],
                );
            }
        }
        reaped
    }

    /// [`Daemon::drain_once`], returning the drained window as its own
    /// [`SampleDb`] (already merged into `db`). The batch is what gets
    /// journaled: replaying every batch record in order rebuilds the
    /// full database, because [`SampleDb::merge`] is the same operation
    /// the drain itself performs.
    /// The drained vector is recycled back into the ring before the
    /// driver lock drops, so steady-state drains allocate nothing. The
    /// returned batch's `evicted` counts samples the shared database's
    /// admission cap refused *from this batch* — mirroring how
    /// `dropped` carries this window's overflow losses — so journal
    /// replay rebuilds eviction accounting too.
    /// The third return value is the count of samples refused because
    /// their `(pid, gen)` registration was reaped (the incarnation died
    /// unclean). Those are folded into `batch.dropped` — alongside ring
    /// overflow losses — so both the shared database and journal replay
    /// account them as dropped, never as resolvable samples.
    pub fn drain_batch(
        driver: &Mutex<Driver>,
        db: &Mutex<SampleDb>,
        cost: &CostModel,
    ) -> (SampleDb, u64, u64) {
        let (mut batch, n, probe, dead) = {
            let mut d = driver.lock().unwrap_or_else(PoisonError::into_inner);
            let (samples, dropped) = d.drain();
            let n = samples.len() as u64;
            let mut batch = SampleDb::new();
            let mut dead = 0u64;
            for s in &samples {
                if let SampleOrigin::JitApp { pid, gen } = s.origin {
                    if !d.admit(pid, gen) {
                        dead += 1;
                        continue;
                    }
                }
                batch.add(*s, 1);
            }
            batch.dropped = dropped + dead;
            d.recycle(samples);
            let probe = d.daemon_probe_cost();
            (batch, n, probe, dead)
        };
        batch.evicted = {
            let mut db = db.lock().unwrap_or_else(PoisonError::into_inner);
            let before = db.evicted;
            db.merge(&batch);
            db.evicted - before
        };
        (batch, cost.daemon_drain(n) + probe, dead)
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
        if let Some(t) = &self.telemetry {
            t.registry.set_now(now);
            t.wakeups.inc();
        }
        if let Some(faults) = &mut self.faults {
            if !faults.wakeup_allowed(self.wakeups) {
                // Stalled or crashed: the drain window is missed and the
                // ring buffer keeps filling. No daemon cycles are burned
                // either — a dead process costs nothing.
                if let Some(t) = &self.telemetry {
                    t.stalls.inc();
                    t.registry.event(
                        names::EVENT_DAEMON_STALL,
                        "drain window missed (stalled or crashed daemon)",
                        &[("wakeup", self.wakeups)],
                    );
                }
                return;
            }
        }
        // Reap before draining: a registration whose process died in
        // this window must not admit the dead incarnation's samples.
        self.reap_dead(ctx.kernel, now);
        let (occupancy, capacity) = {
            let d = self.driver.lock().unwrap_or_else(PoisonError::into_inner);
            (d.buffer.len() as u64, d.buffer.capacity())
        };
        let drain_span = self
            .telemetry
            .as_ref()
            .map(|t| t.begin_drain_spans(self.last_drain_end, now, occupancy, false));
        let (batch, cycles, dead) = Daemon::drain_batch(&self.driver, &self.db, &self.cost);
        self.drains += 1;
        self.last_drain_end = now;
        let seq = Daemon::journal_batch(
            &self.journal,
            &mut ctx.kernel.vfs,
            &batch,
            drain_span,
            self.telemetry.as_ref().map(|t| &t.registry),
        );
        Daemon::notify_sink(&self.sink, ctx.kernel, seq, &batch, drain_span);
        if let Some(t) = &self.telemetry {
            t.note_drain(occupancy, &batch, cycles, self.journal.is_some(), dead);
            if let Some(span) = drain_span {
                t.end_drain_span(span, now + cycles, &batch, dead);
            }
        }

        // Close the overload loop: one observation per drain window,
        // actuated by reprogramming the live counter. Every input
        // (occupancy, drop count, drain cycles) is seed-deterministic
        // and produced online, so the period trajectory cannot depend
        // on offline post-processing choices like thread counts.
        if let Some(gov) = &mut self.governor {
            // Dead-generation drops are admission refusals, not ring
            // pressure — the governor only sees real overflow losses.
            let ring_dropped = batch.dropped - dead;
            match gov.observe(occupancy as usize, capacity, ring_dropped) {
                GovernorDecision::Hold => {}
                GovernorDecision::Backoff { from, to } => {
                    ctx.cpu.reprogram_period(self.governed_event, to);
                    if let Some(t) = &self.telemetry {
                        t.governor_backoffs.inc();
                        t.governor_period.set(to);
                        t.registry.event(
                            names::EVENT_GOVERNOR_RATE_CHANGE,
                            "overload pressure: sample period backed off",
                            &[
                                ("from", from),
                                ("to", to),
                                ("occupancy", occupancy),
                                ("dropped", ring_dropped),
                            ],
                        );
                    }
                }
                GovernorDecision::Recover { from, to } => {
                    ctx.cpu.reprogram_period(self.governed_event, to);
                    if let Some(t) = &self.telemetry {
                        t.governor_recoveries.inc();
                        t.governor_period.set(to);
                        t.registry.event(
                            names::EVENT_GOVERNOR_RATE_CHANGE,
                            "pressure subsided: sample period recovering",
                            &[("from", from), ("to", to), ("occupancy", occupancy)],
                        );
                    }
                }
            }
            match gov.note_drain_cycles(cycles) {
                DeadlineVerdict::Met => {}
                DeadlineVerdict::Missed { escalate } => {
                    // Retry at half the usual period instead of waiting
                    // out a full window behind an oversized backlog.
                    self.next_wakeup = now + (self.period_cycles / 2).max(1);
                    if let Some(t) = &self.telemetry {
                        t.deadline_misses.inc();
                        t.registry.event(
                            names::EVENT_GOVERNOR_DEADLINE_MISS,
                            "drain exceeded its cycle budget",
                            &[
                                ("cycles", cycles),
                                ("budget", gov.deadline_cycles()),
                                ("wakeup", self.wakeups),
                            ],
                        );
                    }
                    if escalate {
                        self.deadline_escalated = true;
                        if let Some(t) = &self.telemetry {
                            t.governor_escalations.inc();
                            t.registry.event(
                                names::EVENT_GOVERNOR_ESCALATION,
                                "repeated deadline misses escalated to the supervisor",
                                &[("misses", gov.deadline_misses)],
                            );
                        }
                    }
                }
            }
        }

        // One timeline window per drain, stamped at the drain's end and
        // taken *after* the governor acted so a reprogrammed period
        // lands in the window that caused it.
        if let Some(t) = &self.telemetry {
            t.registry.sample_timeline_at(now + cycles);
        }

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::{SampleBucket, SampleOrigin};
    use sim_cpu::HwEvent;
    use sim_os::{Machine, MachineConfig};

    fn bucket(addr: u64) -> SampleBucket {
        SampleBucket {
            origin: SampleOrigin::Unknown,
            event: HwEvent::Cycles,
            addr,
            epoch: 0,
        }
    }

    type Rig = (Machine, Arc<Mutex<Driver>>, Arc<Mutex<SampleDb>>, Arc<AtomicBool>);

    fn setup_with_cost(period: u64, cost: CostModel) -> Rig {
        let mut m = Machine::new(MachineConfig::default());
        let driver = Arc::new(Mutex::new(Driver::new(cost, 1024)));
        let db = Arc::new(Mutex::new(SampleDb::new()));
        let active = Arc::new(AtomicBool::new(true));
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db.clone(),
            active.clone(),
            cost,
            period,
        );
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
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).total_samples(), 0);
        // Crossing the period triggers the drain.
        let before = m.cpu.clock.cycles();
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 600));
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).total_samples(), 2);
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
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).total_samples(), 0);
        assert_eq!(m.cpu.clock.cycles(), 10_000, "no daemon cycles charged");
    }

    #[test]
    fn long_block_coalesces_wakeups() {
        // Free cost model so daemon work doesn't itself cross periods.
        let (mut m, driver, db, _) = setup_with_cost(1_000, CostModel::free());
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x10));
        // One block spanning 10 periods → exactly one catch-up drain.
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 10_500));
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).total_samples(), 1);
        // Next wakeup is aligned after `now`.
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x20));
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 400));
        assert_eq!(
            db.lock()
                .unwrap_or_else(PoisonError::into_inner)
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
        let driver = Arc::new(Mutex::new(Driver::new(CostModel::free(), 2)));
        let db = Arc::new(Mutex::new(SampleDb::new()));
        let active = Arc::new(AtomicBool::new(true));
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db.clone(),
            active,
            CostModel::free(),
            100,
        )
        .with_faults(DaemonFaults::new(1).with_crash(1, 2));
        m.add_service(Box::new(d));
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
                .total_samples(),
            2,
            "only the restart drain landed"
        );
        assert_eq!(
            db.lock().unwrap_or_else(PoisonError::into_inner).dropped,
            6,
            "pushes during the outage overflowed"
        );
        let (rest, dropped) = driver.lock().unwrap_or_else(PoisonError::into_inner).drain();
        assert!(rest.is_empty());
        assert_eq!(dropped, 0, "drop counter was handed to the db");
    }

    #[test]
    fn telemetry_records_drains_stalls_and_overflow_events() {
        use viprof_telemetry::{names, Telemetry};
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        let driver = Arc::new(Mutex::new(Driver::new(CostModel::free(), 2)));
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.attach_telemetry(&t);
        let db = Arc::new(Mutex::new(SampleDb::new()));
        let active = Arc::new(AtomicBool::new(true));
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db.clone(),
            active,
            CostModel::free(),
            100,
        )
        .with_faults(DaemonFaults::new(1).with_crash(1, 1))
        .with_telemetry(&t);
        m.add_service(Box::new(d));
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
        let overflows = snap.events_of(names::EVENT_BUFFER_OVERFLOW);
        assert_eq!(overflows.len(), 1, "overflow is coalesced at the drain");
        assert!(overflows[0]
            .fields
            .iter()
            .any(|(k, v)| k == "dropped" && *v == 7));
        let h = snap.histogram(names::DAEMON_BATCH_SAMPLES).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 2, "the surviving two samples were drained");
        assert!(snap.stage(names::STAGE_DAEMON_DRAIN).is_some());
    }

    #[test]
    fn drains_emit_causal_spans_and_traced_journal_records() {
        use sim_os::journal::scan;
        use viprof_telemetry::Telemetry;
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        let driver = Arc::new(Mutex::new(Driver::new(CostModel::free(), 64)));
        let db = Arc::new(Mutex::new(SampleDb::new()));
        let active = Arc::new(AtomicBool::new(true));
        let journal = Arc::new(Mutex::new(JournalWriter::create(&mut m.kernel.vfs, "/j")));
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db,
            active,
            CostModel::free(),
            100,
        )
        .with_journal(journal)
        .with_telemetry(&t);
        m.add_service(Box::new(d));
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x10));
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));

        // window → drain → journal, chained by parent links.
        let trace = t.trace_snapshot();
        let window = trace.spans.iter().find(|s| s.layer == TraceLayer::Nmi).unwrap();
        let drain = trace.spans.iter().find(|s| s.layer == TraceLayer::Drain).unwrap();
        let jspan = trace.spans.iter().find(|s| s.layer == TraceLayer::Journal).unwrap();
        assert_eq!(drain.parent, window.id);
        assert_eq!(jspan.parent, drain.id);
        assert_eq!(drain.field("samples"), Some(1));
        assert!(window.end <= drain.begin, "window closes before the drain runs");

        // The persisted record carries the journal span's identity and
        // the untouched SampleDb body.
        let s = scan(&m.kernel.vfs, "/j").unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].kind, KIND_SAMPLE_BATCH_TRACED);
        let (rec_ctx, body) = s.records[0].sample_batch().unwrap().unwrap();
        let rec_ctx = rec_ctx.unwrap();
        assert_eq!(rec_ctx.span, jspan.id);
        assert_eq!(rec_ctx.trace, jspan.trace);
        assert_eq!(SampleDb::from_bytes(body).unwrap().total_samples(), 1);
    }

    #[test]
    fn untraced_daemon_journals_plain_v1_records() {
        use sim_os::journal::scan;
        let mut m = Machine::new(MachineConfig::default());
        let driver = Arc::new(Mutex::new(Driver::new(CostModel::free(), 64)));
        let db = Arc::new(Mutex::new(SampleDb::new()));
        let active = Arc::new(AtomicBool::new(true));
        let journal = Arc::new(Mutex::new(JournalWriter::create(&mut m.kernel.vfs, "/j")));
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db,
            active,
            CostModel::free(),
            100,
        )
        .with_journal(journal);
        m.add_service(Box::new(d));
        driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(0x10));
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        let s = scan(&m.kernel.vfs, "/j").unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].kind, KIND_SAMPLE_BATCH, "no telemetry → v1 record");
        assert!(SampleDb::from_bytes(&s.records[0].payload).is_ok());
    }

    #[test]
    fn governor_backs_off_the_live_counter_under_pressure() {
        use crate::governor::{Governor, GovernorConfig};
        use viprof_telemetry::{names, Telemetry};
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        // A live counter the governor will reprogram; period far above
        // the test's block sizes so it never actually overflows here.
        m.cpu.program_counter(sim_cpu::CounterSpec::new(HwEvent::Cycles, 1_000_000));
        let driver = Arc::new(Mutex::new(Driver::new(CostModel::free(), 8)));
        let db = Arc::new(Mutex::new(SampleDb::new()));
        let active = Arc::new(AtomicBool::new(true));
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
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db.clone(),
            active,
            CostModel::free(),
            100,
        )
        .with_governor(gov, HwEvent::Cycles)
        .with_telemetry(&t);
        m.add_service(Box::new(d));
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
        use viprof_telemetry::{names, Telemetry};
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        // Default cost model: every drain costs well over 1 cycle, so a
        // 1-cycle budget misses each window.
        let driver = Arc::new(Mutex::new(Driver::new(CostModel::default(), 64)));
        let db = Arc::new(Mutex::new(SampleDb::new()));
        let active = Arc::new(AtomicBool::new(true));
        let gov = Governor::new(
            90_000,
            GovernorConfig {
                deadline_cycles: 1,
                deadline_miss_threshold: 2,
                ..GovernorConfig::default()
            },
        );
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db,
            active,
            CostModel::default(),
            100,
        )
        .with_governor(gov, HwEvent::Cycles)
        .with_telemetry(&t);
        m.add_service(Box::new(d));
        for round in 0..4u64 {
            driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(round * 16));
            m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        }
        let snap = t.snapshot();
        assert!(snap.counter(names::DAEMON_DEADLINE_MISSES) >= 2);
        assert!(snap.counter(names::GOVERNOR_ESCALATIONS) >= 1, "threshold of 2 crossed");
        assert!(!snap.events_of(names::EVENT_GOVERNOR_DEADLINE_MISS).is_empty());
        assert!(!snap.events_of(names::EVENT_GOVERNOR_ESCALATION).is_empty());
    }

    #[test]
    fn capped_db_counts_evictions_through_the_drain_path() {
        use viprof_telemetry::{names, Telemetry};
        let t = Telemetry::new();
        let mut m = Machine::new(MachineConfig::default());
        let driver = Arc::new(Mutex::new(Driver::new(CostModel::free(), 64)));
        let db = Arc::new(Mutex::new(SampleDb::new()));
        db.lock().unwrap_or_else(PoisonError::into_inner).set_admission_cap(Some(2));
        let active = Arc::new(AtomicBool::new(true));
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db.clone(),
            active,
            CostModel::free(),
            100,
        )
        .with_telemetry(&t);
        m.add_service(Box::new(d));
        for i in 0..5 {
            let mut d = driver.lock().unwrap_or_else(PoisonError::into_inner);
            d.buffer.push(bucket(i * 16)); // 5 distinct buckets
        }
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 110));
        assert_eq!(
            db.lock().unwrap_or_else(PoisonError::into_inner).len(),
            2,
            "cap bounds distinct buckets"
        );
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).evicted, 3);
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).total_samples(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::DB_EVICTED_SAMPLES), 3);
        assert!(!snap.events_of(names::EVENT_DB_EVICTION).is_empty());
    }

    #[test]
    fn dropped_samples_propagate_to_db() {
        let mut m = Machine::new(MachineConfig::default());
        let driver = Arc::new(Mutex::new(Driver::new(CostModel::default(), 2)));
        let db = Arc::new(Mutex::new(SampleDb::new()));
        let active = Arc::new(AtomicBool::new(true));
        let d = Daemon::spawn(
            &mut m.kernel,
            driver.clone(),
            db.clone(),
            active,
            CostModel::default(),
            100,
        );
        m.add_service(Box::new(d));
        for i in 0..5 {
            driver.lock().unwrap_or_else(PoisonError::into_inner).buffer.push(bucket(i * 16));
        }
        m.exec(&BlockExec::compute(Pid(1), CpuMode::User, (0, 0x100), 200));
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).total_samples(), 2);
        assert_eq!(db.lock().unwrap_or_else(PoisonError::into_inner).dropped, 3);
    }
}
