//! Property test of the paper's central mechanism: epoch code maps +
//! backward resolution, driven through the *real* heap and the *real*
//! VM agent against a ground-truth oracle.
//!
//! Random histories of {compile, recompile, GC} are executed; after
//! every event, every live code body's (epoch, address range, method)
//! is recorded as ground truth. At the end the agent's maps are loaded
//! from the VFS and each recorded point is resolved:
//!
//! * the **precise-move** agent must resolve every point to the right
//!   method;
//! * the **flag-only** agent (the paper's protocol) must resolve every
//!   point *except* the documented moved-then-recompiled race (E4), and
//!   must never resolve to the *wrong* method.
//!
//! The agent's own output is checked byte for byte against
//! [`OracleAgent`], a test-local copy of the straightforward writer
//! (one `BTreeMap` by address, one `format!` per line): on heap
//! histories and on hook histories that put many bodies at the same
//! few addresses, under both move protocols and under map-write faults
//! with journaling on, every map file, every journal record, every
//! hook's cycle charge and every counter must match.

mod support;

use std::collections::{BTreeMap, BTreeSet};
use support::{check, Gen};
use viprof_repro::sim_cpu::{Addr, CostModel, Pid, ProcKey};
use viprof_repro::sim_jvm::{CompiledBodyInfo, VmProfilerHooks};
use viprof_repro::sim_jvm::{Heap, MatureConfig, MethodId, ObjKind, OptLevel};
use viprof_repro::sim_os::journal::{self, JournalWriter, KIND_CODE_MAP};
use viprof_repro::sim_os::{SplitMix64, Vfs};
use viprof_repro::telemetry::Telemetry;
use viprof_repro::viprof::codemap::{
    journal_path, map_path, parse_map, render_map, CodeMapEntry, CodeMapSet, Symbols, JIT_MAP_DIR,
};
use viprof_repro::viprof::registry::JitRegistry;
use viprof_repro::viprof::{AgentStats, MapFaultStats, MapFaults, VmAgent};

#[derive(Debug, Clone)]
enum Event {
    /// Compile method `m % N_METHODS` with a body of `64 + size` bytes.
    Compile {
        m: u8,
        size: u16,
    },
    Gc,
}

const N_METHODS: u8 = 6;

/// Compiles and collections at 3:1 odds.
fn arb_events(g: &mut Gen) -> Vec<Event> {
    g.vec(1..60, |g| {
        if g.range(0u32..4) < 3 {
            Event::Compile {
                m: g.range(0u8..N_METHODS),
                size: g.range(0u16..400),
            }
        } else {
            Event::Gc
        }
    })
}

struct Truth {
    epoch: u64,
    addr: u64,
    method: MethodId,
    /// The body at this point was produced by a compile *in this
    /// epoch* (recorded in the epoch's pending buffer — immune to the
    /// flag-only race). Bodies placed by a GC move are not.
    from_compile: bool,
}

fn drive(events: &[Event], precise: bool) -> (Vec<Truth>, CodeMapSet) {
    let pid = Pid(77);
    let registry = JitRegistry::shared();
    let mut agent = VmAgent::new(registry, CostModel::free(), &Telemetry::new()).with_precise_moves(precise);
    let mut vfs = Vfs::new();
    let truth = run_on_heap(events, pid, &mut agent, &mut vfs);
    let maps = CodeMapSet::load(&vfs, pid).unwrap();
    (truth, maps)
}

/// Run `events` through a real heap with `agent` hooked in as the VM
/// would hook it, from VM start to exit; returns the ground truth
/// recorded after every event.
fn run_on_heap(
    events: &[Event],
    pid: Pid,
    agent: &mut dyn VmProfilerHooks,
    vfs: &mut Vfs,
) -> Vec<Truth> {
    let mut heap = Heap::with_mature(
        (0x6000_0000, 0x6000_0000 + 256 * 1024),
        MatureConfig {
            promote_after: 2,
            fraction: 0.25,
        },
    );
    agent.on_vm_start(pid, 0, heap.region());

    let mut bodies: Vec<Option<viprof_repro::sim_jvm::ObjRef>> = vec![None; N_METHODS as usize];
    // Epoch in which each method's current body was compiled.
    let mut body_epoch: Vec<u64> = vec![0; N_METHODS as usize];
    let mut truth: Vec<Truth> = Vec::new();

    let record = |heap: &Heap,
                  bodies: &[Option<viprof_repro::sim_jvm::ObjRef>],
                  body_epoch: &[u64],
                  truth: &mut Vec<Truth>| {
        for (i, b) in bodies.iter().enumerate() {
            if let Some(r) = b {
                let (start, end) = heap.range_of(*r);
                truth.push(Truth {
                    epoch: heap.collections,
                    addr: start + (end - start) / 2,
                    method: MethodId(i as u32),
                    from_compile: body_epoch[i] == heap.collections,
                });
            }
        }
    };

    let do_gc = |heap: &mut Heap,
                 agent: &mut dyn VmProfilerHooks,
                 vfs: &mut Vfs,
                 bodies: &[Option<viprof_repro::sim_jvm::ObjRef>]| {
        agent.on_gc_begin(heap.collections, vfs);
        let live: Vec<_> = bodies.iter().flatten().copied().collect();
        heap.collect(&[], &live, |ev| {
            if let ObjKind::Code(m) = ev.kind {
                agent.on_code_moved(m, ev.old_addr, ev.new_addr, ev.byte_size);
            }
        });
        agent.on_gc_end(heap.collections);
    };

    for ev in events {
        match ev {
            Event::Compile { m, size } => {
                let method = MethodId(*m as u32);
                let body = loop {
                    match heap.alloc_code(method, 64 + *size as u64) {
                        Ok(r) => break r,
                        Err(_) => do_gc(&mut heap, agent, vfs, &bodies),
                    }
                };
                bodies[*m as usize] = Some(body);
                body_epoch[*m as usize] = heap.collections;
                let (addr, _) = heap.range_of(body);
                agent.on_compile(&CompiledBodyInfo {
                    method,
                    signature: &format!("test.M{m}.run"),
                    addr,
                    size: heap.get(body).byte_size,
                    opt_level: OptLevel::Baseline,
                    is_recompile: false,
                    epoch: heap.collections,
                });
            }
            Event::Gc => do_gc(&mut heap, agent, vfs, &bodies),
        }
        record(&heap, &bodies, &body_epoch, &mut truth);
    }
    agent.on_vm_exit(heap.collections, vfs);
    truth
}

fn precise_resolves_every_point(events: Vec<Event>) {
    let (truth, maps) = drive(&events, true);
    for t in &truth {
        let hit = maps.resolve(t.addr, t.epoch);
        assert!(
            hit.is_some(),
            "addr {:#x} epoch {} unresolved",
            t.addr,
            t.epoch
        );
        assert_eq!(
            hit.unwrap(),
            format!("test.M{}.run", t.method.0),
            "addr {:#x} epoch {}",
            t.addr,
            t.epoch
        );
    }
}

fn flag_only_is_mostly_right_and_precise_fixes_the_rest(events: Vec<Event>) {
    // The paper's flag-only protocol has a documented race (the
    // method's current address is read at map-write time): a body
    // moved by one GC whose method recompiles before the next write
    // loses its moved location. The consequence is *misses*, and —
    // when a later collection recycles such an address for a
    // different method's body — occasional *misattribution* to the
    // stale occupant of an earlier map. Both rates must stay small,
    // and the precise-move agent must eliminate both on the exact
    // same history.
    let (truth, maps) = drive(&events, false);
    for t in &truth {
        let hit = maps.resolve(t.addr, t.epoch);
        if t.from_compile {
            // Compile records are buffered per event: immune.
            assert!(hit.is_some(), "compiled point must resolve");
            assert_eq!(
                hit.unwrap(),
                format!("test.M{}.run", t.method.0),
                "addr {:#x} epoch {}",
                t.addr,
                t.epoch
            );
        }
        // Moved points may miss or hit a stale occupant — the
        // documented race; no assertion beyond "no panic".
    }

    let (truth_p, maps_p) = drive(&events, true);
    for t in &truth_p {
        let hit = maps_p.resolve(t.addr, t.epoch);
        assert!(hit.is_some());
        assert_eq!(hit.unwrap(), format!("test.M{}.run", t.method.0));
    }
}

#[test]
fn precise_agent_resolves_every_point_correctly() {
    check(
        "precise_agent_resolves_every_point_correctly",
        64,
        arb_events,
        precise_resolves_every_point,
    );
}

#[test]
fn flag_only_agent_is_mostly_right_and_precise_fixes_the_rest() {
    check(
        "flag_only_agent_is_mostly_right_and_precise_fixes_the_rest",
        64,
        arb_events,
        flag_only_is_mostly_right_and_precise_fixes_the_rest,
    );
}

/// A history that once failed these properties: one method compiled,
/// then another compiled twice, with a collection before each.
#[test]
fn recompile_after_collections_resolves() {
    let events = vec![
        Event::Compile { m: 0, size: 49 },
        Event::Gc,
        Event::Compile { m: 4, size: 0 },
        Event::Gc,
        Event::Compile { m: 4, size: 0 },
    ];
    precise_resolves_every_point(events.clone());
    flag_only_is_mostly_right_and_precise_fixes_the_rest(events);
}

// ---------- lossy parse: corruption quarantines, never destroys ----------

#[test]
fn parse_map_keeps_clean_lines_and_counts_corrupt_ones() {
    check(
        "parse_map_keeps_clean_lines_and_counts_corrupt_ones",
        128,
        |g| {
            (
                g.vec(0..40, |g| {
                    (g.range(0u64..1u64 << 40), g.range(1u64..0x1000))
                }),
                g.vec(0..12, |g| (g.range(0usize..40), g.range(0usize..4))),
            )
        },
        |(bodies, corrupt)| {
            // Round trip with injected damage: render a map, overwrite a
            // random subset of lines with definitively-invalid records, and
            // check the lossy parser keeps exactly the clean entries (in
            // order) while counting exactly the damaged lines.
            let entries: Vec<CodeMapEntry> = bodies
                .iter()
                .enumerate()
                .map(|(i, (addr, size))| CodeMapEntry {
                    addr: *addr,
                    size: *size,
                    level: "opt0".to_string(),
                    signature: format!("test.C.m{i}"),
                })
                .collect();
            let rendered = render_map(&entries);
            let mut lines: Vec<String> = rendered.lines().map(str::to_string).collect();
            const GARBAGE: [&str; 4] = [
                "zz 10 opt0 test.C.bad", // unparseable hex address
                "10 zz opt0 test.C.bad", // unparseable hex size
                "10 20 opt0",            // missing field
                "!!",                    // not a record at all
            ];
            let mut damaged_lines = std::collections::BTreeSet::new();
            for (line, g) in corrupt {
                if line < lines.len() {
                    lines[line] = GARBAGE[g].to_string();
                    damaged_lines.insert(line);
                }
            }
            let mut symbols = Symbols::default();
            let parsed = parse_map(&lines.join("\n"), &mut symbols);
            assert_eq!(parsed.quarantined, damaged_lines.len() as u64);
            let survivors: Vec<&CodeMapEntry> = entries
                .iter()
                .enumerate()
                .filter(|(i, _)| !damaged_lines.contains(i))
                .map(|(_, e)| e)
                .collect();
            assert_eq!(parsed.entries.len(), survivors.len());
            for (got, want) in parsed.entries.iter().zip(survivors) {
                assert_eq!(&symbols.text(got), want);
            }
        },
    );
}

// ---------- byte-level oracle: the agent writes what the plain writer writes ----------

/// The straightforward VM agent: per-method state in a `BTreeMap` of
/// owned entries, moved flags in a `BTreeSet`, each epoch map built in
/// a `BTreeMap` by address and rendered one `format!` per line. It
/// shares no code with [`VmAgent`]'s map path, so the two agree only
/// when the agent keeps the one-address precedence rule: the last
/// compile at an address, else its first precise move, else the
/// flagged method with the lowest id.
struct OracleAgent {
    cost: CostModel,
    key: Option<ProcKey>,
    current: BTreeMap<MethodId, CodeMapEntry>,
    pending_compiles: Vec<CodeMapEntry>,
    moved_flags: BTreeSet<MethodId>,
    precise_moves: bool,
    pending_moves: Vec<CodeMapEntry>,
    faults: Option<OracleFaults>,
    journal_enabled: bool,
    journal: Option<JournalWriter>,
    stats: AgentStats,
}

/// The map-fault schedule, drawn from its own generator in the same
/// order as [`MapFaults`], copying the map whatever happens to it.
struct OracleFaults {
    rng: SplitMix64,
    lose_rate: f64,
    tear_rate: f64,
    garble_rate: f64,
    stats: MapFaultStats,
}

impl OracleFaults {
    fn corrupt_write(&mut self, rendered: &str) -> Option<Vec<u8>> {
        if self.lose_rate > 0.0 && self.rng.next_f64() < self.lose_rate {
            self.stats.lost_maps += 1;
            return None;
        }
        if self.tear_rate > 0.0 && self.rng.next_f64() < self.tear_rate {
            self.stats.torn_maps += 1;
            let len = rendered.len() as u64;
            let cut = if len < 2 {
                0
            } else {
                self.rng.range_u64(len / 2, len)
            };
            let mut bytes = rendered.as_bytes().to_vec();
            bytes.truncate(cut as usize);
            return Some(bytes);
        }
        if self.garble_rate > 0.0 {
            let mut garbled = 0u64;
            let mut out = String::new();
            for line in rendered.lines() {
                if !line.is_empty() && self.rng.next_f64() < self.garble_rate {
                    out.push_str("!! ");
                    garbled += 1;
                }
                out.push_str(line);
                out.push('\n');
            }
            if garbled > 0 {
                self.stats.garbled_lines += garbled;
                return Some(out.into_bytes());
            }
        }
        Some(rendered.as_bytes().to_vec())
    }
}

impl OracleAgent {
    fn write_map(&mut self, epoch: u64, vfs: &mut Vfs) -> u64 {
        let Some(key) = self.key else { return 0 };
        let mut by_addr: BTreeMap<Addr, CodeMapEntry> = BTreeMap::new();
        for e in self.pending_compiles.drain(..) {
            by_addr.insert(e.addr, e);
        }
        for e in self.pending_moves.drain(..) {
            by_addr.entry(e.addr).or_insert(e);
        }
        for m in &self.moved_flags {
            if let Some(e) = self.current.get(m) {
                by_addr.entry(e.addr).or_insert_with(|| e.clone());
            }
        }
        self.moved_flags.clear();
        let mut rendered = String::new();
        for e in by_addr.values() {
            rendered.push_str(&format!(
                "{:016x} {:08x} {} {}\n",
                e.addr, e.size, e.level, e.signature
            ));
        }
        let written = match &mut self.faults {
            Some(f) => f.corrupt_write(&rendered),
            None => Some(rendered.as_bytes().to_vec()),
        };
        if let Some(bytes) = &written {
            vfs.write(map_path(key, epoch), bytes.clone());
            if self.journal_enabled {
                self.journal_map(key, epoch, &rendered, bytes, vfs);
            }
        }
        self.stats.maps_written += 1;
        self.stats.entries_written += by_addr.len() as u64;
        self.cost.map_write(by_addr.len() as u64)
    }

    fn journal_map(&mut self, key: ProcKey, epoch: u64, rendered: &str, damaged: &[u8], vfs: &mut Vfs) {
        let journal = self
            .journal
            .get_or_insert_with(|| JournalWriter::create(vfs, journal_path(key)));
        let mut payload = epoch.to_le_bytes().to_vec();
        payload.extend_from_slice(rendered.as_bytes());
        if damaged.len() < rendered.len() {
            journal.append_torn_then_repair(vfs, KIND_CODE_MAP, &payload, 8 + damaged.len());
            self.stats.journal_repairs += 1;
        } else if damaged != rendered.as_bytes() {
            let mut rot = epoch.to_le_bytes().to_vec();
            rot.extend_from_slice(damaged);
            journal.append_rotted(vfs, KIND_CODE_MAP, &payload, &rot);
        } else {
            journal.append(vfs, KIND_CODE_MAP, &payload);
        }
        self.stats.journal_appends += 1;
    }
}

impl VmProfilerHooks for OracleAgent {
    fn on_vm_start(&mut self, pid: Pid, gen: u32, _heap_range: (Addr, Addr)) -> u64 {
        let key = ProcKey::new(pid, gen);
        if self.key != Some(key) {
            self.journal = None;
        }
        self.key = Some(key);
        self.cost.vm_probe_cycles
    }

    fn on_compile(&mut self, info: &CompiledBodyInfo<'_>) -> u64 {
        let entry = CodeMapEntry {
            addr: info.addr,
            size: info.size,
            level: info.opt_level.as_str().to_string(),
            signature: info.signature.to_string(),
        };
        self.current.insert(info.method, entry.clone());
        self.pending_compiles.push(entry);
        self.stats.compiles_logged += 1;
        self.cost.agent_compile_log_cycles
    }

    fn on_code_moved(&mut self, method: MethodId, _old: Addr, new: Addr, size: u64) -> u64 {
        if let Some(e) = self.current.get_mut(&method) {
            e.addr = new;
            e.size = size;
        }
        self.moved_flags.insert(method);
        if self.precise_moves {
            if let Some(e) = self.current.get(&method) {
                self.pending_moves.push(e.clone());
            }
        }
        self.stats.moves_flagged += 1;
        self.cost.agent_move_flag_cycles
    }

    fn on_gc_begin(&mut self, ending_epoch: u64, vfs: &mut Vfs) -> u64 {
        self.write_map(ending_epoch, vfs)
    }

    fn on_vm_exit(&mut self, final_epoch: u64, vfs: &mut Vfs) -> u64 {
        self.write_map(final_epoch, vfs)
    }
}

/// How one agent run is configured: the move protocol, the journal, and
/// an optional map-fault schedule `(seed, lost, torn, garbled)`.
#[derive(Debug, Clone)]
struct AgentSetup {
    precise: bool,
    journal: bool,
    faults: Option<(u64, f64, f64, f64)>,
}

fn arb_setup(g: &mut Gen) -> AgentSetup {
    const RATES: [f64; 3] = [0.0, 0.25, 0.6];
    let faults = g.option(|g| {
        let rate = |g: &mut Gen| RATES[g.range(0..RATES.len())];
        (g.u64(), rate(g), rate(g), rate(g))
    });
    AgentSetup {
        precise: g.bool(),
        // Faulted runs always journal, so every fault outcome also
        // reaches the journal's repair and rot paths.
        journal: faults.is_some() || g.bool(),
        faults,
    }
}

/// The agent under test and the oracle, fed the same hook calls; each
/// hook asserts that both charge the same cycles. The oracle writes to
/// its own VFS.
struct Paired {
    agent: VmAgent,
    oracle: OracleAgent,
    oracle_vfs: Vfs,
}

impl Paired {
    fn new(setup: &AgentSetup) -> Paired {
        let cost = CostModel::default();
        let mut agent = VmAgent::new(JitRegistry::shared(), cost, &Telemetry::new())
            .with_precise_moves(setup.precise)
            .with_journal(setup.journal);
        let mut faults = None;
        if let Some((seed, lost, torn, garbled)) = setup.faults {
            agent = agent.with_map_faults(
                MapFaults::new(seed)
                    .with_lost(lost)
                    .with_torn(torn)
                    .with_garbled(garbled),
            );
            faults = Some(OracleFaults {
                rng: SplitMix64::new(seed),
                lose_rate: lost,
                tear_rate: torn,
                garble_rate: garbled,
                stats: MapFaultStats::default(),
            });
        }
        let oracle = OracleAgent {
            cost,
            key: None,
            current: BTreeMap::new(),
            pending_compiles: Vec::new(),
            moved_flags: BTreeSet::new(),
            precise_moves: setup.precise,
            pending_moves: Vec::new(),
            faults,
            journal_enabled: setup.journal,
            journal: None,
            stats: AgentStats::default(),
        };
        Paired {
            agent,
            oracle,
            oracle_vfs: Vfs::new(),
        }
    }

    /// Every file the agent wrote equals the oracle's, byte for byte,
    /// and so do the counters.
    fn assert_same_output(&self, vfs: &Vfs) {
        let written = vfs.list(JIT_MAP_DIR);
        assert_eq!(written, self.oracle_vfs.list(JIT_MAP_DIR), "file listing");
        for path in &written {
            let (got, want) = (vfs.read(path), self.oracle_vfs.read(path));
            if got != want {
                panic!(
                    "{path} differs:\n--- agent\n{}\n--- oracle\n{}",
                    String::from_utf8_lossy(got.unwrap_or_default()),
                    String::from_utf8_lossy(want.unwrap_or_default()),
                );
            }
        }
        // The journal's records, as recovery would read them.
        if let Some(key) = self.oracle.key {
            let path = journal_path(key);
            let agent = journal::scan(vfs, &path).map(|s| s.records);
            let oracle = journal::scan(&self.oracle_vfs, &path).map(|s| s.records);
            assert_eq!(agent, oracle, "journal records");
        }
        assert_eq!(self.agent.stats_handle().snapshot(), self.oracle.stats, "agent stats");
        assert_eq!(
            self.agent.map_fault_stats(),
            self.oracle.faults.as_ref().map(|f| f.stats),
            "map fault stats"
        );
    }
}

impl VmProfilerHooks for Paired {
    fn on_vm_start(&mut self, pid: Pid, gen: u32, heap_range: (Addr, Addr)) -> u64 {
        let cycles = self.agent.on_vm_start(pid, gen, heap_range);
        assert_eq!(cycles, self.oracle.on_vm_start(pid, gen, heap_range));
        cycles
    }

    fn on_compile(&mut self, info: &CompiledBodyInfo<'_>) -> u64 {
        let cycles = self.agent.on_compile(info);
        assert_eq!(cycles, self.oracle.on_compile(info));
        cycles
    }

    fn on_code_moved(&mut self, method: MethodId, old: Addr, new: Addr, size: u64) -> u64 {
        let cycles = self.agent.on_code_moved(method, old, new, size);
        assert_eq!(cycles, self.oracle.on_code_moved(method, old, new, size));
        cycles
    }

    fn on_gc_begin(&mut self, ending_epoch: u64, vfs: &mut Vfs) -> u64 {
        let cycles = self.agent.on_gc_begin(ending_epoch, vfs);
        let want = self.oracle.on_gc_begin(ending_epoch, &mut self.oracle_vfs);
        assert_eq!(cycles, want, "map {ending_epoch} write cost");
        cycles
    }

    fn on_gc_end(&mut self, new_epoch: u64) -> u64 {
        self.agent.on_gc_end(new_epoch)
    }

    fn on_vm_exit(&mut self, final_epoch: u64, vfs: &mut Vfs) -> u64 {
        let cycles = self.agent.on_vm_exit(final_epoch, vfs);
        let want = self.oracle.on_vm_exit(final_epoch, &mut self.oracle_vfs);
        assert_eq!(cycles, want, "final map {final_epoch} write cost");
        cycles
    }
}

/// One hook call of a synthetic history.
#[derive(Debug, Clone)]
enum Hook {
    Compile {
        m: u32,
        addr: Addr,
        size: u64,
        level: OptLevel,
    },
    Move {
        m: u32,
        new: Addr,
        size: u64,
    },
    Gc,
}

/// Histories whose bodies crowd onto six addresses, so one epoch's map
/// sees same-address recompiles, compiles over moved bodies, several
/// precise moves to one place and several flagged methods sharing a
/// current address. Method 40 leaves a gap in the method ids, and a
/// move may name a method that was never compiled.
fn arb_hooks(g: &mut Gen) -> Vec<Hook> {
    const LEVELS: [OptLevel; 3] = [OptLevel::Baseline, OptLevel::Opt1, OptLevel::Opt2];
    let method = |g: &mut Gen| {
        if g.range(0u32..8) == 0 {
            40
        } else {
            g.range(0u32..5)
        }
    };
    let addr = |g: &mut Gen| 0x6000_0000 + 0x100 * g.range(0u64..6);
    g.vec(1..80, |g| match g.range(0u32..10) {
        0..=4 => Hook::Compile {
            m: method(g),
            addr: addr(g),
            size: g.range(1u64..0x100),
            level: LEVELS[g.range(0..LEVELS.len())],
        },
        5..=7 => Hook::Move {
            m: method(g),
            new: addr(g),
            size: g.range(1u64..0x100),
        },
        _ => Hook::Gc,
    })
}

fn agent_matches_oracle_on_hooks((setup, hooks): (AgentSetup, Vec<Hook>)) {
    let mut pair = Paired::new(&setup);
    let mut vfs = Vfs::new();
    let mut epoch = 0;
    pair.on_vm_start(Pid(77), 1, (0x6000_0000, 0x6100_0000));
    for hook in &hooks {
        match *hook {
            Hook::Compile { m, addr, size, level } => {
                pair.on_compile(&CompiledBodyInfo {
                    method: MethodId(m),
                    signature: &format!("test.M{m}.run"),
                    addr,
                    size,
                    opt_level: level,
                    is_recompile: false,
                    epoch,
                });
            }
            Hook::Move { m, new, size } => {
                pair.on_code_moved(MethodId(m), 0, new, size);
            }
            Hook::Gc => {
                pair.on_gc_begin(epoch, &mut vfs);
                epoch += 1;
                pair.on_gc_end(epoch);
            }
        }
    }
    pair.on_vm_exit(epoch, &mut vfs);
    pair.assert_same_output(&vfs);
}

fn agent_matches_oracle_on_heap((setup, events): (AgentSetup, Vec<Event>)) {
    let mut pair = Paired::new(&setup);
    let mut vfs = Vfs::new();
    run_on_heap(&events, Pid(77), &mut pair, &mut vfs);
    pair.assert_same_output(&vfs);
}

#[test]
fn agent_maps_equal_the_oracle_on_crowded_hook_histories() {
    check(
        "agent_maps_equal_the_oracle_on_crowded_hook_histories",
        256,
        |g| (arb_setup(g), arb_hooks(g)),
        agent_matches_oracle_on_hooks,
    );
}

#[test]
fn agent_maps_equal_the_oracle_on_heap_histories() {
    check(
        "agent_maps_equal_the_oracle_on_heap_histories",
        64,
        |g| (arb_setup(g), arb_events(g)),
        agent_matches_oracle_on_heap,
    );
}
