//! The VM Agent: VIProf's library hooked into the VM (paper §3).
//!
//! * compile/recompile hooks log "the beginning address, size and
//!   signature of the method that was just compiled into a buffer";
//! * the GC move hook only *flags* a method as moved ("we simply flag
//!   it instead of actually logging it in order to avoid undue
//!   overhead" — GC bodies are highly tuned);
//! * just before each collection the agent writes the ending epoch's
//!   *partial* code map: methods compiled/recompiled since the previous
//!   write plus methods moved by the previous collection (§3.1);
//! * at VM exit the final partial map is flushed.
//!
//! Every hook returns its cycle cost (from [`sim_cpu::CostModel`]) so
//! agent work lands in simulated time — the VIProf-minus-OProfile delta
//! of Figure 2.

use crate::callgraph::CallGraph;
use crate::codemap::{journal_path, map_path, render_line};
use crate::registry::{RegisterOutcome, SharedRegistry};
use sim_cpu::{Addr, CostModel, Pid, ProcKey};
use sim_jvm::{CompiledBodyInfo, MethodId, OptLevel, VmProfilerHooks};
use sim_os::journal::{JournalWriter, KIND_CODE_MAP};
use sim_os::{SplitMix64, Vfs};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use viprof_telemetry::{names, Counter, Stage, Telemetry, TraceLayer};

/// Telemetry handles for the agent's map-write path, resolved once.
struct AgentTelemetry {
    registry: Telemetry,
    maps_written: Counter,
    map_entries: Counter,
    gc_epochs: Counter,
    registrations: Counter,
    generation_bumps: Counter,
    map_write_stage: Stage,
}

impl AgentTelemetry {
    fn attach(registry: &Telemetry) -> Self {
        AgentTelemetry {
            registry: registry.clone(),
            maps_written: registry.counter(names::AGENT_MAPS_WRITTEN),
            map_entries: registry.counter(names::AGENT_MAP_ENTRIES),
            gc_epochs: registry.counter(names::AGENT_GC_EPOCHS),
            registrations: registry.counter(names::REGISTRY_REGISTRATIONS),
            generation_bumps: registry.counter(names::REGISTRY_GENERATION_BUMPS),
            map_write_stage: registry.stage(names::STAGE_AGENT_MAP_WRITE),
        }
    }
}

/// Counters for injected map-write faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapFaultStats {
    /// Epoch maps whose write was swallowed entirely.
    pub lost_maps: u64,
    /// Epoch maps truncated mid-write.
    pub torn_maps: u64,
    /// Individual lines garbled within surviving maps.
    pub garbled_lines: u64,
}

/// The live cells behind a [`MapFaults`] handle.
#[derive(Debug, Default)]
struct MapFaultCells {
    lost_maps: AtomicU64,
    torn_maps: AtomicU64,
    garbled_lines: AtomicU64,
}

/// Map-write fault injector: the agent-layer leg of a
/// [`crate::faults::FaultPlan`]. Models a VM dying between map writes
/// (lost map), a write cut short by a full disk or kill signal (torn
/// map), and on-disk line damage (garbled lines).
///
/// Stats are atomics behind a shared handle, like [`AgentCounters`]:
/// the injector is boxed into the VM with the agent, and the session
/// keeps a clone.
#[derive(Debug, Clone)]
pub struct MapFaults {
    rng: SplitMix64,
    /// Probability a whole map write is lost.
    pub lose_rate: f64,
    /// Probability a map write is torn (truncated).
    pub tear_rate: f64,
    /// Per-line garble probability in surviving maps.
    pub garble_rate: f64,
    stats: Arc<MapFaultCells>,
}

impl MapFaults {
    pub fn new(seed: u64) -> MapFaults {
        MapFaults {
            rng: SplitMix64::new(seed),
            lose_rate: 0.0,
            tear_rate: 0.0,
            garble_rate: 0.0,
            stats: Default::default(),
        }
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> MapFaultStats {
        MapFaultStats {
            lost_maps: self.stats.lost_maps.load(Relaxed),
            torn_maps: self.stats.torn_maps.load(Relaxed),
            garbled_lines: self.stats.garbled_lines.load(Relaxed),
        }
    }

    pub fn with_lost(mut self, rate: f64) -> MapFaults {
        self.lose_rate = rate;
        self
    }

    pub fn with_torn(mut self, rate: f64) -> MapFaults {
        self.tear_rate = rate;
        self
    }

    pub fn with_garbled(mut self, rate: f64) -> MapFaults {
        self.garble_rate = rate;
        self
    }

    /// Pass one rendered map through the fault schedule: `None` means
    /// the write is lost entirely; otherwise the bytes to write. An
    /// intact or torn write borrows `rendered` (a torn one a prefix of
    /// it); only garbling copies the map.
    pub fn corrupt_write<'a>(&mut self, rendered: &'a str) -> Option<Cow<'a, [u8]>> {
        if self.lose_rate > 0.0 && self.rng.next_f64() < self.lose_rate {
            self.stats.lost_maps.fetch_add(1, Relaxed);
            return None;
        }
        if self.tear_rate > 0.0 && self.rng.next_f64() < self.tear_rate {
            // A torn write keeps some prefix — cut in the second half so
            // the damage usually lands mid-line.
            self.stats.torn_maps.fetch_add(1, Relaxed);
            let len = rendered.len() as u64;
            let cut = if len < 2 {
                0
            } else {
                self.rng.range_u64(len / 2, len)
            };
            return Some(Cow::Borrowed(&rendered.as_bytes()[..cut as usize]));
        }
        if self.garble_rate > 0.0 {
            // Built from the first garbled line on: the lines before it
            // are copied then, so an undamaged map is never copied.
            let mut out: Option<String> = None;
            let mut garbled = 0u64;
            for (i, line) in rendered.lines().enumerate() {
                // Invalid leading field: the post-processor must
                // quarantine exactly this line.
                let garble = !line.is_empty() && self.rng.next_f64() < self.garble_rate;
                if garble && out.is_none() {
                    let mut head = String::with_capacity(rendered.len() + 8);
                    for kept in rendered.lines().take(i) {
                        head.push_str(kept);
                        head.push('\n');
                    }
                    out = Some(head);
                }
                if let Some(out) = &mut out {
                    if garble {
                        out.push_str("!! ");
                        garbled += 1;
                    }
                    out.push_str(line);
                    out.push('\n');
                }
            }
            if let Some(out) = out {
                self.stats.garbled_lines.fetch_add(garbled, Relaxed);
                return Some(Cow::Owned(out.into_bytes()));
            }
        }
        Some(Cow::Borrowed(rendered.as_bytes()))
    }
}

/// Agent-side counters (tests, ablations, EXPERIMENTS.md): a
/// point-in-time copy of an [`AgentCounters`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    pub compiles_logged: u64,
    pub moves_flagged: u64,
    pub maps_written: u64,
    pub entries_written: u64,
    pub call_edges_recorded: u64,
    /// Code-map records committed to the write-ahead journal.
    pub journal_appends: u64,
    /// Torn journal appends caught by read-back verification and
    /// rewritten whole.
    pub journal_repairs: u64,
}

/// The live cells behind an [`AgentCounters`] handle.
#[derive(Debug, Default)]
struct AgentCells {
    compiles_logged: AtomicU64,
    moves_flagged: AtomicU64,
    maps_written: AtomicU64,
    entries_written: AtomicU64,
    call_edges_recorded: AtomicU64,
    journal_appends: AtomicU64,
    journal_repairs: AtomicU64,
}

/// Shared handle to the agent's counters: plain atomics the hooks bump
/// without a lock, read on demand through [`AgentCounters::snapshot`].
/// They are the agent's own tallies, not registry counters, so they
/// add nothing to the session's telemetry export.
#[derive(Debug, Clone, Default)]
pub struct AgentCounters(Arc<AgentCells>);

impl AgentCounters {
    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> AgentStats {
        let c = &self.0;
        AgentStats {
            compiles_logged: c.compiles_logged.load(Relaxed),
            moves_flagged: c.moves_flagged.load(Relaxed),
            maps_written: c.maps_written.load(Relaxed),
            entries_written: c.entries_written.load(Relaxed),
            call_edges_recorded: c.call_edges_recorded.load(Relaxed),
            journal_appends: c.journal_appends.load(Relaxed),
            journal_repairs: c.journal_repairs.load(Relaxed),
        }
    }
}

/// Cycles the agent spends recording one sampled call edge.
const CALL_EDGE_CYCLES: u64 = 30;

/// One code body as the agent logs it: where it sits, its tier and its
/// method. The signature text lives once per method, in the method
/// table, so a record is `Copy`.
#[derive(Debug, Clone, Copy)]
struct BodyRecord {
    addr: Addr,
    size: u64,
    level: OptLevel,
    method: MethodId,
}

/// One known compiled method ("a list of known compiled methods", §3):
/// its current body and its signature.
#[derive(Debug)]
struct MethodSlot {
    body: BodyRecord,
    signature: Box<str>,
    /// Flagged as moved since the last map write (listed in
    /// `VmAgent::moved`).
    moved: bool,
}

/// The agent. One per VM; all agents share the [`SharedRegistry`].
pub struct VmAgent {
    registry: SharedRegistry,
    cost: CostModel,
    /// Identity of the incarnation this agent serves, known after
    /// `on_vm_start`. Map and journal paths are namespaced by it, so a
    /// restarted VM (same pid, bumped generation) starts a fresh chain
    /// at epoch 0 without touching its predecessor's files.
    key: Option<ProcKey>,
    /// Every known compiled method, indexed by `MethodId`: a method's
    /// id is its index in the program's method table, so the table is
    /// dense.
    methods: Vec<Option<MethodSlot>>,
    /// Every compile/recompile event since the last map write — a
    /// method recompiled twice in one epoch contributes *two* entries,
    /// so samples on the superseded body still resolve (§3: the hooks
    /// "log the beginning address, size and signature of the method
    /// that was just compiled into a buffer"). The map write also
    /// builds the epoch's map in this buffer, so its capacity is
    /// reused from epoch to epoch.
    pending_compiles: Vec<BodyRecord>,
    /// Methods moved by the previous collection (flag only), each once:
    /// its slot's `moved` bit is set while it is listed here.
    moved: Vec<MethodId>,
    /// Precise-move mode: snapshot (addr, size) at move time instead of
    /// reading the method's *current* location at map-write time. The
    /// paper's flag-only protocol (§3) loses samples when a body is
    /// moved by one collection and its method recompiled before the
    /// next map write — the current address then points at the new
    /// body and the moved location is never recorded. The paper
    /// acknowledges the possibility of unresolvable samples (§3.1);
    /// this switch quantifies it (experiment E4).
    precise_moves: bool,
    pending_moves: Vec<BodyRecord>,
    /// Optional map-write fault injector (robustness testing).
    map_faults: Option<MapFaults>,
    /// Journal epoch maps to a per-pid write-ahead log alongside the
    /// plain map files.
    journal_enabled: bool,
    /// Lazily created on the first map write (the pid is only known
    /// after `on_vm_start`).
    journal: Option<JournalWriter>,
    /// Optional cross-layer call-graph collector.
    callgraph: Option<Arc<Mutex<CallGraph>>>,
    /// Record every Nth call edge (sampling keeps the inline hook cheap).
    call_sample_interval: u64,
    call_counter: u64,
    telemetry: AgentTelemetry,
    stats: AgentCounters,
}

impl VmAgent {
    /// An agent whose map writes, GC epochs and registrations are
    /// recorded into the session's `telemetry` registry.
    pub fn new(registry: SharedRegistry, cost: CostModel, telemetry: &Telemetry) -> VmAgent {
        VmAgent {
            registry,
            cost,
            key: None,
            methods: Vec::new(),
            pending_compiles: Vec::new(),
            moved: Vec::new(),
            precise_moves: false,
            pending_moves: Vec::new(),
            map_faults: None,
            journal_enabled: false,
            journal: None,
            callgraph: None,
            call_sample_interval: 16,
            call_counter: 0,
            telemetry: AgentTelemetry::attach(telemetry),
            stats: AgentCounters::default(),
        }
    }

    /// Attach a call-graph collector (records every `interval`-th edge).
    pub fn with_callgraph(mut self, cg: Arc<Mutex<CallGraph>>, interval: u64) -> VmAgent {
        assert!(interval >= 1);
        self.callgraph = Some(cg);
        self.call_sample_interval = interval;
        self
    }

    /// Log moves precisely instead of flag-only (see the field docs).
    pub fn with_precise_moves(mut self, on: bool) -> VmAgent {
        self.precise_moves = on;
        self
    }

    /// Attach a map-write fault injector (robustness testing).
    pub fn with_map_faults(mut self, faults: MapFaults) -> VmAgent {
        self.map_faults = Some(faults);
        self
    }

    /// Journal every epoch map write (crash-consistent persistence).
    pub fn with_journal(mut self, on: bool) -> VmAgent {
        self.journal_enabled = on;
        self
    }

    /// Injected map-fault counters, if an injector is installed.
    pub fn map_fault_stats(&self) -> Option<MapFaultStats> {
        self.map_faults.as_ref().map(|f| f.stats())
    }

    /// Shared stats handle (readable after the agent is boxed into the
    /// VM).
    pub fn stats_handle(&self) -> AgentCounters {
        self.stats.clone()
    }

    /// Build and render the ending epoch's map: every compile event of
    /// the epoch, then the pending precise moves, then the current
    /// locations of bodies flagged as moved. One record per address,
    /// chosen in that order of precedence: the last compile at an
    /// address, else its first precise move, else the flagged method
    /// with the lowest id. Empties the epoch's buffers; returns the
    /// rendered text and its entry count.
    fn render_epoch(&mut self) -> (String, u64) {
        // Listed in precedence order, so a stable sort by address puts
        // each address's winner first and the dedup keeps it.
        let records = &mut self.pending_compiles;
        records.reverse();
        records.append(&mut self.pending_moves);
        self.moved.sort_unstable();
        for m in self.moved.drain(..) {
            let slot = self.methods[m.0 as usize]
                .as_mut()
                .expect("a flagged method is known");
            slot.moved = false;
            records.push(slot.body);
        }
        records.sort_by_key(|r| r.addr);
        records.dedup_by_key(|r| r.addr);
        let mut text = String::with_capacity(records.len() * 64);
        for r in records.iter() {
            let slot = self.methods[r.method.0 as usize]
                .as_ref()
                .expect("a logged body's method is known");
            render_line(&mut text, r.addr, r.size, r.level.as_str(), &slot.signature);
        }
        let entries = records.len() as u64;
        records.clear();
        (text, entries)
    }

    fn write_map(&mut self, epoch: u64, vfs: &mut Vfs) -> u64 {
        // An agent used before `on_vm_start` has nothing to attribute a
        // map to; skip gracefully rather than panicking inside a hook.
        let Some(key) = self.key else { return 0 };
        let (rendered, entries) = self.render_epoch();
        // The fault seam sits between rendering and the VFS: the agent
        // always does (and is charged for) the work; what reaches disk
        // may be lost, torn, or garbled.
        let written = match &mut self.map_faults {
            Some(f) => f.corrupt_write(&rendered),
            None => Some(Cow::Borrowed(rendered.as_bytes())),
        };
        if self.journal_enabled {
            self.journal_map(key, epoch, &rendered, written.as_deref(), vfs);
        }
        match written {
            None => {}
            Some(Cow::Owned(garbled)) => vfs.write(map_path(key, epoch), garbled),
            // Intact or torn: the rendered text itself becomes the file.
            Some(Cow::Borrowed(kept)) => {
                let len = kept.len();
                let mut bytes = rendered.into_bytes();
                bytes.truncate(len);
                vfs.write(map_path(key, epoch), bytes);
            }
        }
        self.stats.0.maps_written.fetch_add(1, Relaxed);
        self.stats.0.entries_written.fetch_add(entries, Relaxed);
        // Journal appends ride the map write's existing I/O budget, so
        // the charged cost is the same with or without journaling.
        let cost = self.cost.map_write(entries);
        let t = &self.telemetry;
        t.maps_written.inc();
        t.map_entries.add(entries);
        t.map_write_stage.record(cost);
        // Causal span: map writes are roots of the epoch's later
        // resolution story, parented under the session span.
        let span = t.registry.trace_begin(
            TraceLayer::Agent,
            names::SPAN_AGENT_MAP_WRITE,
            t.registry.trace_root(),
        );
        t.registry.trace_end(
            span,
            &[
                ("epoch", epoch),
                ("entries", entries),
                ("cost", cost),
            ],
        );
        cost
    }

    /// Mirror one map write into the journal, under the *same* fault
    /// outcome the map file suffered (`damaged` is what actually
    /// reached disk; `None` = the write was lost). No RNG is consumed
    /// here — the one `corrupt_write` draw drives both files, keeping
    /// faulted runs replayable bit for bit.
    ///
    /// * **Lost**: the VM died before either write — no record lands.
    /// * **Torn** (shorter than rendered): the journal record tears at
    ///   the same point, but the commit protocol's read-back check sees
    ///   the missing commit byte and rewrites the record whole. This is
    ///   the case a bare map file cannot recover.
    /// * **Garbled** (same length or longer, different bytes): bit rot
    ///   after commit — write-time verification cannot see it; recovery
    ///   detects the CRC mismatch and truncates the journal there.
    fn journal_map(
        &mut self,
        key: ProcKey,
        epoch: u64,
        rendered: &str,
        damaged: Option<&[u8]>,
        vfs: &mut Vfs,
    ) {
        let Some(damaged) = damaged else { return };
        if self.journal.is_none() {
            let mut writer = JournalWriter::create(vfs, journal_path(key));
            writer.set_telemetry(&self.telemetry.registry);
            self.journal = Some(writer);
        }
        let journal = self.journal.as_mut().expect("just created");
        // Payload: epoch tag + the pristine rendered map.
        let mut payload = Vec::with_capacity(8 + rendered.len());
        payload.extend_from_slice(&epoch.to_le_bytes());
        payload.extend_from_slice(rendered.as_bytes());
        if damaged.len() < rendered.len() {
            journal.append_torn_then_repair(vfs, KIND_CODE_MAP, &payload, 8 + damaged.len());
            self.stats.0.journal_repairs.fetch_add(1, Relaxed);
        } else if damaged != rendered.as_bytes() {
            let mut rot = Vec::with_capacity(payload.len());
            rot.extend_from_slice(&epoch.to_le_bytes());
            rot.extend_from_slice(damaged);
            journal.append_rotted(vfs, KIND_CODE_MAP, &payload, &rot);
        } else {
            journal.append(vfs, KIND_CODE_MAP, &payload);
        }
        self.stats.0.journal_appends.fetch_add(1, Relaxed);
    }
}

impl VmProfilerHooks for VmAgent {
    fn on_vm_start(&mut self, pid: Pid, gen: u32, heap_range: (Addr, Addr)) -> u64 {
        let key = ProcKey::new(pid, gen);
        if self.key != Some(key) {
            // A fresh incarnation gets a fresh journal under its own
            // generation directory; the predecessor's file is closed as
            // written.
            self.journal = None;
        }
        self.key = Some(key);
        let registered = self
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .register(pid, gen, heap_range);
        match registered {
            Ok(outcome) => {
                self.telemetry.registrations.inc();
                if gen > 0 || matches!(outcome, RegisterOutcome::Supplanted { .. }) {
                    self.telemetry.generation_bumps.inc();
                }
            }
            Err(_) => {
                // A conflicting incarnation (stale gen, zombie restart)
                // must not claim JIT samples — leave it unregistered so
                // its heap stays anonymous, and keep the hook total.
            }
        }
        self.cost.vm_probe_cycles
    }

    fn on_compile(&mut self, info: &CompiledBodyInfo<'_>) -> u64 {
        let i = info.method.0 as usize;
        if i >= self.methods.len() {
            self.methods.resize_with(i + 1, || None);
        }
        let body = BodyRecord {
            addr: info.addr,
            size: info.size,
            level: info.opt_level,
            method: info.method,
        };
        // A method's signature is its name in the program, so it is
        // stored at the method's first compile only.
        let slot = self.methods[i].get_or_insert_with(|| MethodSlot {
            body,
            signature: info.signature.into(),
            moved: false,
        });
        slot.body = body;
        self.pending_compiles.push(body);
        self.stats.0.compiles_logged.fetch_add(1, Relaxed);
        self.cost.agent_compile_log_cycles
    }

    fn on_code_moved(&mut self, method: MethodId, _old: Addr, new: Addr, size: u64) -> u64 {
        // Paper behaviour: flag only; the location is read from the
        // known-compiled-methods list at write time. A method the agent
        // never saw compiled has no location to flag.
        if let Some(Some(slot)) = self.methods.get_mut(method.0 as usize) {
            slot.body.addr = new;
            slot.body.size = size;
            if !slot.moved {
                slot.moved = true;
                self.moved.push(method);
            }
            if self.precise_moves {
                // Fix mode: snapshot the moved location now, so a later
                // recompile cannot shadow it.
                self.pending_moves.push(slot.body);
            }
        }
        self.stats.0.moves_flagged.fetch_add(1, Relaxed);
        self.cost.agent_move_flag_cycles
    }

    fn on_gc_begin(&mut self, ending_epoch: u64, vfs: &mut Vfs) -> u64 {
        self.write_map(ending_epoch, vfs)
    }

    fn on_gc_end(&mut self, new_epoch: u64) -> u64 {
        if let Some(key) = self.key {
            self.registry
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .set_epoch(key.pid, new_epoch);
        }
        self.telemetry.gc_epochs.inc();
        0
    }

    fn on_vm_exit(&mut self, final_epoch: u64, vfs: &mut Vfs) -> u64 {
        let cost = self.write_map(final_epoch, vfs);
        // Graceful exit: the final map is on disk, so the registration
        // retires (late in-ring samples stay resolvable) rather than
        // being reaped.
        if let Some(key) = self.key {
            self.registry.write().unwrap_or_else(PoisonError::into_inner).retire(key.pid);
        }
        cost
    }

    fn on_call(&mut self, caller: Option<&str>, callee: &str) -> u64 {
        let Some(cg) = &self.callgraph else {
            return 0;
        };
        self.call_counter += 1;
        if !self.call_counter.is_multiple_of(self.call_sample_interval) {
            return 0;
        }
        cg.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .add_edge(caller.unwrap_or("(root)"), callee);
        self.stats.0.call_edges_recorded.fetch_add(1, Relaxed);
        CALL_EDGE_CYCLES
    }

    fn on_call_batch(&mut self, caller: Option<&str>, callee: &str, count: u64) -> u64 {
        let Some(cg) = &self.callgraph else {
            return 0;
        };
        // Same sampling rate as the inline path, applied in bulk: the
        // accumulated counter carries remainders across batches.
        self.call_counter += count;
        let recorded = self.call_counter / self.call_sample_interval;
        self.call_counter %= self.call_sample_interval;
        if recorded == 0 {
            return 0;
        }
        cg.lock().unwrap_or_else(PoisonError::into_inner)
            .add_edge_n(caller.unwrap_or("(root)"), callee, recorded);
        self.stats.0.call_edges_recorded.fetch_add(recorded, Relaxed);
        recorded * CALL_EDGE_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{render_map, CodeMapEntry, CodeMapSet};
    use crate::registry::JitRegistry;
    use sim_jvm::OptLevel;

    fn agent() -> (VmAgent, SharedRegistry) {
        let reg = JitRegistry::shared();
        (VmAgent::new(reg.clone(), CostModel::default(), &Telemetry::new()), reg)
    }

    fn is_registered(reg: &SharedRegistry, pid: Pid) -> bool {
        let reg = reg.read().unwrap_or_else(PoisonError::into_inner);
        reg.registrations().iter().any(|r| r.pid == pid)
    }

    /// Announce a baseline compile of method `m` (`app.M{m}.run`).
    fn compile(hooks: &mut dyn VmProfilerHooks, m: u32, addr: Addr, epoch: u64) -> u64 {
        hooks.on_compile(&CompiledBodyInfo {
            method: MethodId(m),
            signature: &format!("app.M{m}.run"),
            addr,
            size: 0x40,
            opt_level: OptLevel::Baseline,
            is_recompile: false,
            epoch,
        })
    }

    #[test]
    fn vm_start_registers_heap() {
        let (mut a, reg) = agent();
        a.on_vm_start(Pid(7), 0, (0x6000_0000, 0x6400_0000));
        assert!(is_registered(&reg, Pid(7)));
        assert_eq!(
            reg.read()
                .unwrap_or_else(PoisonError::into_inner)
                .classify(Pid(7), 0x6100_0000),
            Some((0, 0))
        );
    }

    #[test]
    fn gc_end_bumps_epoch_in_registry() {
        let (mut a, reg) = agent();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        a.on_gc_end(3);
        assert_eq!(
            reg.read()
                .unwrap_or_else(PoisonError::into_inner)
                .classify(Pid(7), 0x1800),
            Some((3, 0))
        );
    }

    #[test]
    fn partial_maps_contain_only_new_and_moved() {
        let (mut a, _) = agent();
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        // Epoch 0: compile A and B.
        compile(&mut a, 0, 0x1000, 0);
        compile(&mut a, 1, 0x1100, 0);
        a.on_gc_begin(0, &mut vfs); // map.0: A, B
        // GC 0 moves only A.
        a.on_code_moved(MethodId(0), 0x1000, 0x1800, 0x40);
        a.on_gc_end(1);
        // Epoch 1: compile C.
        compile(&mut a, 2, 0x1200, 1);
        a.on_gc_begin(1, &mut vfs); // map.1: A (moved), C — NOT B
        let set = CodeMapSet::load(&vfs, Pid(7)).unwrap();
        let map1 = &set.maps()[1];
        assert_eq!(map1.epoch, 1);
        let name = |e: &crate::codemap::MapEntry| set.symbols().name(e.signature);
        let sigs: Vec<&str> = map1.entries().iter().map(name).collect();
        assert_eq!(sigs.len(), 2);
        assert!(sigs.contains(&"app.M0.run"), "moved method present");
        assert!(sigs.contains(&"app.M2.run"), "new compile present");
        assert!(!sigs.contains(&"app.M1.run"), "unmoved, uncompiled B absent");
        // The moved method's entry carries its NEW address.
        let a_entry = map1
            .entries()
            .iter()
            .find(|e| name(e) == "app.M0.run")
            .unwrap();
        assert_eq!(a_entry.addr, 0x1800);
    }

    #[test]
    fn backward_search_needed_for_stable_methods() {
        // B compiled in epoch 0, never moved after: absent from map 1+,
        // so a sample in epoch 1 must chain backwards to map 0.
        let (mut a, _) = agent();
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a, 1, 0x1100, 0);
        a.on_gc_begin(0, &mut vfs);
        a.on_gc_end(1);
        a.on_vm_exit(1, &mut vfs); // empty map.1
        let set = CodeMapSet::load(&vfs, Pid(7)).unwrap();
        assert_eq!(set.maps()[1].entries().len(), 0);
        let hit = set.resolve(0x1110, 1).expect("backward chain must find B");
        assert_eq!(hit, "app.M1.run");
    }

    #[test]
    fn hook_costs_match_cost_model() {
        let (mut a, _) = agent();
        let cost = CostModel::default();
        let mut vfs = Vfs::new();
        assert_eq!(a.on_vm_start(Pid(1), 0, (0, 0x1000)), cost.vm_probe_cycles);
        assert_eq!(
            compile(&mut a, 0, 0x10, 0),
            cost.agent_compile_log_cycles
        );
        assert_eq!(
            a.on_code_moved(MethodId(0), 0x10, 0x20, 0x40),
            cost.agent_move_flag_cycles
        );
        // Two entries: the compile event (old address) and the moved
        // body's current address — both addresses were occupied by this
        // method during the epoch.
        assert_eq!(a.on_gc_begin(0, &mut vfs), cost.map_write(2));
        // Empty map still pays the base write cost.
        assert_eq!(a.on_vm_exit(0, &mut vfs), cost.map_write(0));
    }

    #[test]
    fn call_edges_sampled_at_interval() {
        let cg = Arc::new(Mutex::new(CallGraph::new()));
        let reg = JitRegistry::shared();
        let mut a = VmAgent::new(reg, CostModel::default(), &Telemetry::new()).with_callgraph(cg.clone(), 4);
        let mut charged = 0;
        for _ in 0..16 {
            charged += a.on_call(Some("caller"), "callee");
        }
        assert_eq!(
            cg.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .total_edges(),
            4,
            "every 4th edge recorded"
        );
        assert_eq!(charged, 4 * CALL_EDGE_CYCLES);
        assert_eq!(a.stats.snapshot().call_edges_recorded, 4);
    }

    #[test]
    fn stats_handle_survives_boxing() {
        let (a, _) = agent();
        let stats = a.stats_handle();
        let mut boxed: Box<dyn VmProfilerHooks> = Box::new(a);
        compile(boxed.as_mut(), 0, 0x10, 0);
        assert_eq!(stats.snapshot().compiles_logged, 1);
    }

    #[test]
    fn lost_map_writes_leave_epoch_gaps() {
        let (mut a, _) = agent();
        a = a.with_map_faults(MapFaults::new(3).with_lost(1.0));
        let faults = a.map_faults.clone().unwrap();
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a, 0, 0x1000, 0);
        a.on_gc_begin(0, &mut vfs);
        a.on_vm_exit(1, &mut vfs);
        assert!(vfs.is_empty(), "every write swallowed");
        assert_eq!(faults.stats().lost_maps, 2);
        // The agent still believes it wrote (cost charged, stats kept).
        assert_eq!(a.stats.snapshot().maps_written, 2);
    }

    #[test]
    fn garbled_lines_are_quarantined_not_fatal() {
        let (mut a, _) = agent();
        a = a.with_map_faults(MapFaults::new(5).with_garbled(1.0));
        let faults = a.map_faults.clone().unwrap();
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a, 0, 0x1000, 0);
        compile(&mut a, 1, 0x1100, 0);
        a.on_gc_begin(0, &mut vfs);
        assert_eq!(faults.stats().garbled_lines, 2);
        let set = CodeMapSet::load(&vfs, Pid(7)).unwrap();
        assert_eq!(set.quarantined_lines, 2);
        assert_eq!(set.total_entries(), 0);
    }

    #[test]
    fn torn_write_keeps_a_parseable_prefix() {
        let mut f = MapFaults::new(11).with_torn(1.0);
        let rendered = render_map(&[
            CodeMapEntry {
                addr: 0x100,
                size: 0x40,
                level: "base".into(),
                signature: "app.A.run".into(),
            },
            CodeMapEntry {
                addr: 0x200,
                size: 0x40,
                level: "base".into(),
                signature: "app.B.run".into(),
            },
        ]);
        let bytes = f.corrupt_write(&rendered).expect("torn, not lost");
        assert!(bytes.len() < rendered.len(), "something was cut");
        assert!(bytes.len() >= rendered.len() / 2, "cut lands in 2nd half");
        assert_eq!(f.stats().torn_maps, 1);
        // Whatever survived must never panic the lossy parser.
        let parsed = crate::codemap::parse_map(
            std::str::from_utf8(&bytes).unwrap_or(""),
            &mut Default::default(),
        );
        assert!(parsed.entries.len() <= 2);
    }

    #[test]
    fn journal_records_carry_pristine_maps() {
        let (mut a, _) = agent();
        a = a.with_journal(true);
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a, 0, 0x1000, 0);
        a.on_gc_begin(0, &mut vfs);
        a.on_gc_end(1);
        compile(&mut a, 1, 0x1100, 1);
        a.on_vm_exit(1, &mut vfs);
        let scan = sim_os::journal::scan(&vfs, &journal_path(Pid(7))).unwrap();
        assert_eq!(scan.damaged_bytes, 0);
        assert_eq!(scan.records.len(), 2);
        for (rec, epoch) in scan.records.iter().zip([0u64, 1]) {
            assert_eq!(rec.kind, KIND_CODE_MAP);
            assert_eq!(u64::from_le_bytes(rec.payload[..8].try_into().unwrap()), epoch);
            // Journal payload matches the map file byte for byte.
            assert_eq!(
                &rec.payload[8..],
                vfs.read(&map_path(Pid(7), epoch)).unwrap()
            );
        }
        assert_eq!(a.stats.snapshot().journal_appends, 2);
        assert_eq!(a.stats.snapshot().journal_repairs, 0);
    }

    #[test]
    fn torn_map_write_is_repaired_in_the_journal() {
        // Tear every map write: the map files on disk are truncated,
        // but the journal's commit protocol catches each torn append
        // and rewrites it — the journal ends up pristine.
        let (mut a, _) = agent();
        a = a
            .with_map_faults(MapFaults::new(11).with_torn(1.0))
            .with_journal(true);
        let faults = a.map_faults.clone().unwrap();
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a, 0, 0x1000, 0);
        compile(&mut a, 1, 0x1100, 0);
        a.on_gc_begin(0, &mut vfs);
        assert!(faults.stats().torn_maps >= 1);
        let expected = render_map(&[
            CodeMapEntry {
                addr: 0x1000,
                size: 0x40,
                level: "base".into(),
                signature: "app.M0.run".into(),
            },
            CodeMapEntry {
                addr: 0x1100,
                size: 0x40,
                level: "base".into(),
                signature: "app.M1.run".into(),
            },
        ]);
        // The map file is damaged…
        assert!(vfs.read(&map_path(Pid(7), 0)).unwrap().len() < expected.len());
        // …the journal is not.
        let scan = sim_os::journal::scan(&vfs, &journal_path(Pid(7))).unwrap();
        assert_eq!(scan.damaged_bytes, 0);
        assert_eq!(&scan.records[0].payload[8..], expected.as_bytes());
        assert_eq!(a.stats.snapshot().journal_repairs, 1);
    }

    #[test]
    fn garbled_map_rots_the_journal_record_past_repair() {
        // Bit rot lands after the commit: the writer cannot see it, so
        // the scanner must — CRC mismatch, journal truncated there.
        let (mut a, _) = agent();
        a = a
            .with_map_faults(MapFaults::new(5).with_garbled(1.0))
            .with_journal(true);
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a, 0, 0x1000, 0);
        a.on_gc_begin(0, &mut vfs);
        let scan = sim_os::journal::scan(&vfs, &journal_path(Pid(7))).unwrap();
        assert!(scan.records.is_empty(), "rotted record must not replay");
        assert!(scan.damaged_bytes > 0);
    }

    #[test]
    fn lost_map_write_journals_nothing() {
        let (mut a, _) = agent();
        a = a
            .with_map_faults(MapFaults::new(3).with_lost(1.0))
            .with_journal(true);
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a, 0, 0x1000, 0);
        a.on_gc_begin(0, &mut vfs);
        // The VM died before either write — even the journal is absent
        // (it is created lazily by the first surviving write).
        assert!(sim_os::journal::scan(&vfs, &journal_path(Pid(7))).is_none());
        assert_eq!(a.stats.snapshot().journal_appends, 0);
    }

    #[test]
    fn telemetry_mirrors_map_writes_and_gc_epochs() {
        let t = Telemetry::new();
        let mut a = VmAgent::new(JitRegistry::shared(), CostModel::default(), &t);
        let mut vfs = Vfs::new();
        a.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a, 0, 0x1000, 0);
        a.on_gc_begin(0, &mut vfs);
        a.on_gc_end(1);
        compile(&mut a, 1, 0x1100, 1);
        a.on_vm_exit(1, &mut vfs);
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::AGENT_MAPS_WRITTEN), 2);
        assert_eq!(snap.counter(names::AGENT_MAP_ENTRIES), 2);
        assert_eq!(snap.counter(names::AGENT_GC_EPOCHS), 1);
        let stage = snap.stage(names::STAGE_AGENT_MAP_WRITE).unwrap();
        assert_eq!(stage.entries, 2);
        assert!(stage.cycles > 0);
        // The stats handle sees the same counts.
        assert_eq!(a.stats.snapshot().maps_written, 2);
    }

    #[test]
    fn restarted_incarnation_namespaces_maps_and_resets_epochs() {
        let reg = JitRegistry::shared();
        let mut vfs = Vfs::new();
        // Incarnation 0 lives and dies gracefully.
        let mut a0 = VmAgent::new(reg.clone(), CostModel::default(), &Telemetry::new()).with_journal(true);
        a0.on_vm_start(Pid(7), 0, (0x1000, 0x2000));
        compile(&mut a0, 0, 0x1000, 0);
        a0.on_vm_exit(0, &mut vfs);
        assert!(!is_registered(&reg, Pid(7)), "retired at exit");
        // Incarnation 1 reuses the pid: epoch counter restarts at 0.
        let mut a1 = VmAgent::new(reg.clone(), CostModel::default(), &Telemetry::new()).with_journal(true);
        a1.on_vm_start(Pid(7), 1, (0x3000, 0x4000));
        assert_eq!(
            reg.read()
                .unwrap_or_else(PoisonError::into_inner)
                .classify(Pid(7), 0x3800),
            Some((0, 1))
        );
        compile(&mut a1, 9, 0x3000, 0);
        a1.on_vm_exit(0, &mut vfs);
        // Each incarnation has its own chain and journal; neither
        // corrupted the other's.
        let g0 = CodeMapSet::load(&vfs, ProcKey::new(Pid(7), 0)).unwrap();
        let g1 = CodeMapSet::load(&vfs, ProcKey::new(Pid(7), 1)).unwrap();
        assert_eq!(g0.resolve(0x1010, 0).unwrap(), "app.M0.run");
        assert_eq!(g1.resolve(0x3010, 0).unwrap(), "app.M9.run");
        assert!(g0.resolve(0x3010, 0).is_none());
        for gen in [0u32, 1] {
            let scan =
                sim_os::journal::scan(&vfs, &journal_path(ProcKey::new(Pid(7), gen))).unwrap();
            assert_eq!(scan.damaged_bytes, 0);
            assert_eq!(scan.records.len(), 1);
        }
    }

    #[test]
    fn conflicting_registration_leaves_heap_anonymous() {
        let reg = JitRegistry::shared();
        // Generation 2 registered and was reaped (unclean death).
        reg.write()
            .unwrap_or_else(PoisonError::into_inner)
            .register(Pid(4), 2, (0x1000, 0x2000))
            .unwrap();
        reg.write().unwrap_or_else(PoisonError::into_inner).reap(&mut |_, _| false);
        // A zombie agent for the dead incarnation comes back: the
        // conflict is swallowed, nothing is registered.
        let mut a = VmAgent::new(reg.clone(), CostModel::default(), &Telemetry::new());
        let cost = a.on_vm_start(Pid(4), 2, (0x1000, 0x2000));
        assert_eq!(cost, CostModel::default().vm_probe_cycles);
        assert!(!is_registered(&reg, Pid(4)));
        assert_eq!(
            reg.read()
                .unwrap_or_else(PoisonError::into_inner)
                .classify(Pid(4), 0x1800),
            None
        );
    }

    #[test]
    fn map_faults_replay_from_the_seed() {
        let run = |seed| {
            let mut f = MapFaults::new(seed)
                .with_lost(0.3)
                .with_torn(0.3)
                .with_garbled(0.3);
            let rendered = render_map(&[CodeMapEntry {
                addr: 0x100,
                size: 0x40,
                level: "base".into(),
                signature: "app.A.run".into(),
            }]);
            (0..32)
                .map(|_| f.corrupt_write(&rendered).map(|w| w.into_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9), "same seed, same damage");
        assert_ne!(run(9), run(10), "different seed, different damage");
    }
}
