//! VIProf session orchestration: one-stop start → attach VM → run →
//! stop → report.

use crate::agent::{MapFaultStats, MapFaults, VmAgent};
use crate::bootmap::BootMap;
use crate::callgraph::CallGraph;
use crate::engine::ResolutionEngine;
use crate::error::ViprofError;
use crate::faults::FaultPlan;
use crate::live::{LiveEngine, LiveSpec};
use crate::recover::RecoveryReport;
use crate::registry::{JitRegistry, SharedRegistry};
use crate::resolve::{IncarnationSummary, ResolutionQuality, ResolveOptions};
use crate::runtime::ViprofExtension;
use oprofile::report::{Report, ReportOptions};
use oprofile::{
    DaemonFaultStats, DriverFaultStats, DriverStats, OpConfig, Oprofile, SampleDb,
    SupervisorConfig, SupervisorStats,
};
use sim_cpu::CostModel;
use sim_os::{crc32, ImageTable, Kernel, Machine, Vfs};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use viprof_telemetry::impl_to_json;
use viprof_telemetry::json::{get, parse_json, Json, ToJson};
use viprof_telemetry::{
    names, HealthReport, LineageTable, Telemetry, TelemetrySnapshot, TraceSnapshot,
};

/// Builder for a VIProf session — the single way to express every
/// start-time combination that used to be spread over
/// `start`/`start_with_faults` and manual `OpConfig::with_journal`/
/// `with_supervisor` chains:
///
/// ```ignore
/// let vp = Viprof::builder()
///     .config(OpConfig::time_at(20_000))
///     .journal(true)
///     .faults(&plan)
///     .supervised(true)
///     .start(&mut machine);
/// ```
///
/// Unset toggles inherit whatever the [`OpConfig`] already says, so
/// `Viprof::builder().config(c).start(m)` is exactly the old
/// `Viprof::start(m, c)`.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    config: OpConfig,
    plan: Option<FaultPlan>,
    journal: Option<bool>,
    supervised: Option<bool>,
    live: Option<LiveSpec>,
}

impl SessionBuilder {
    /// The base profiler configuration (events, periods, cost model).
    pub fn config(mut self, config: OpConfig) -> SessionBuilder {
        self.config = config;
        self
    }

    /// Toggle crash-consistent journaling (daemon sample batches + VM
    /// agent map writes). Unset → inherit `config.journal`.
    pub fn journal(mut self, on: bool) -> SessionBuilder {
        self.journal = Some(on);
        self
    }

    /// Run under a fault schedule: the plan's driver and daemon
    /// injectors are wired into the kernel-side pipeline, its map-write
    /// injector into every agent the session builds.
    pub fn faults(mut self, plan: &FaultPlan) -> SessionBuilder {
        self.plan = Some(plan.clone());
        self
    }

    /// Toggle daemon supervision. `true` uses the fault plan's
    /// seeded [`SupervisorConfig`] when a plan is set (the default
    /// config otherwise); `false` forces supervision off. Unset →
    /// inherit `config.supervisor`.
    pub fn supervised(mut self, on: bool) -> SessionBuilder {
        self.supervised = Some(on);
        self
    }

    /// Keep a [`LiveEngine`] index cache alongside the session, so
    /// [`Viprof::live_snapshot`] produces a full [`SessionReport`]
    /// at any point mid-run. The engine shares the session's
    /// telemetry registry.
    pub fn live(mut self, spec: LiveSpec) -> SessionBuilder {
        self.live = Some(spec);
        self
    }

    /// Start the session on `machine`. Panics on an unstartable
    /// configuration (the profiler would otherwise never fire a single
    /// NMI); use [`SessionBuilder::try_start`] to get the typed error
    /// instead.
    pub fn start(self, machine: &mut Machine) -> Viprof {
        self.try_start(machine)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SessionBuilder::start`] with the config checked first: an
    /// unstartable configuration comes back as
    /// [`ViprofError::InvalidConfig`] *before* any counter is
    /// programmed or any machine state touched.
    pub fn try_start(self, machine: &mut Machine) -> Result<Viprof, ViprofError> {
        let mut config = self.config;
        if let Some(journal) = self.journal {
            config.journal = journal;
        }
        match self.supervised {
            Some(true) => {
                let sup: SupervisorConfig = self
                    .plan
                    .as_ref()
                    .map(|p| p.supervisor_config())
                    .unwrap_or_default();
                config.supervisor = Some(sup);
            }
            Some(false) => config.supervisor = None,
            None => {}
        }
        let (config, agent_faults) = match &self.plan {
            Some(plan) => (plan.apply_to(config), plan.agent_faults()),
            None => (config, None),
        };
        config.validate().map_err(ViprofError::InvalidConfig)?;
        Ok(Viprof::start_inner(machine, config, agent_faults, self.live))
    }
}

/// What [`Viprof::make_report`] should produce.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ReportSpec {
    /// Row shaping: event columns, percent floor, row cap.
    pub options: ReportOptions,
    /// Run the journal-replay recovery pass before resolving, and
    /// report what it salvaged.
    pub recover: bool,
    /// Threads for the report: the resolution shards, and the cap on
    /// the map loading and index flattening workers (one incarnation
    /// per job); `0` or
    /// `1` = single-threaded. The report is bit-identical for every
    /// value.
    pub threads: usize,
    /// Deterministic shard-poison injection (fault-matrix tests): the
    /// named pid's buckets panic mid-resolution, exercising the
    /// engine's catch-unwind fallback and quarantine accounting.
    pub poison: Option<crate::engine::ShardPoison>,
}

impl ReportSpec {
    /// Spec with the recovery pass enabled.
    pub fn recovered() -> ReportSpec {
        ReportSpec::default().with_recover(true)
    }

    /// Set the row shaping (event columns, percent floor, row cap).
    pub fn with_options(mut self, options: ReportOptions) -> ReportSpec {
        self.options = options;
        self
    }

    /// Toggle the journal-replay recovery pass.
    pub fn with_recover(mut self, recover: bool) -> ReportSpec {
        self.recover = recover;
        self
    }

    /// Set the report's thread count: the resolution shards, and the
    /// cap on the map loading and index flattening workers; `0` or
    /// `1` = single-threaded.
    pub fn threads(mut self, threads: usize) -> ReportSpec {
        self.threads = threads;
        self
    }

    /// Poison the shard holding `pid`'s JIT buckets (see
    /// [`crate::engine::ShardPoison`]).
    pub fn poison(mut self, poison: crate::engine::ShardPoison) -> ReportSpec {
        self.poison = Some(poison);
        self
    }
}

/// Everything one post-processing pass produces.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SessionReport {
    /// The merged profile rows (Figure-1 upper half).
    pub lines: Report,
    /// Per-run resolution accounting; always sums to 100% of the
    /// emitted samples.
    pub quality: ResolutionQuality,
    /// Journal-replay outcome — `Some` iff [`ReportSpec::recover`] was
    /// set, with `samples_salvaged` measured against the degraded
    /// baseline.
    pub recovery: Option<RecoveryReport>,
    /// Per-incarnation breakdown of the JIT samples, one row per
    /// `(pid, gen)` seen in the database, sorted. Steady-state runs
    /// have one row per VM; restart/pid-reuse churn shows up as extra
    /// rows, each accounted against its own incarnation's maps only.
    pub incarnations: Vec<IncarnationSummary>,
    /// A snapshot of the registry the resolving engine records into:
    /// its `resolve.*` shard metrics, plus `stage.resolve_load` under
    /// [`Viprof::make_report`], or the whole session's metrics for a
    /// live snapshot.
    pub telemetry: TelemetrySnapshot,
    /// Causal attribution of every `quality` loss bucket: per bucket,
    /// the entry sum equals the quality count exactly — dropped and
    /// evicted samples point back to the journal span that persisted
    /// the losing drain, blocked samples to their incarnation, and
    /// quarantined samples to the shard pass.
    pub lineage: LineageTable,
    /// The resolve pass's own span tree (work-unit pseudo-time, so it
    /// is byte-identical across thread counts and batch-vs-live).
    pub trace: TraceSnapshot,
    /// Declarative health findings evaluated over the session's
    /// exported timeline (`/var/log/viprof/timeline.json`). A pure
    /// function of the timeline artifact, so batch and sealed-live
    /// reports always agree; empty when the session exported no
    /// timeline (e.g. plain OProfile runs).
    pub health: HealthReport,
}

/// A running VIProf session: OProfile with the runtime-profiler
/// extension installed, plus the shared state VM agents attach to.
pub struct Viprof {
    op: Oprofile,
    pub registry: SharedRegistry,
    pub callgraph: Arc<Mutex<CallGraph>>,
    cost: CostModel,
    /// Map-fault template cloned into every agent this session builds
    /// (clones share the stats handle).
    agent_faults: Option<MapFaults>,
    /// Whether agents built by this session journal their map writes
    /// (mirrors `OpConfig::journal`, which covers the daemon side).
    journal: bool,
    /// Index cache that resolves the daemon's database mid-run
    /// (sessions built with [`SessionBuilder::live`] only).
    live: Option<Mutex<LiveEngine>>,
}

impl Viprof {
    /// Start configuring a session; finish with
    /// [`SessionBuilder::start`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    fn start_inner(
        machine: &mut Machine,
        mut config: OpConfig,
        agent_faults: Option<MapFaults>,
        live: Option<LiveSpec>,
    ) -> Viprof {
        let live = live.map(|_| {
            // The live engine shares the session's registry (created
            // here when the config didn't bring one).
            let telemetry = config.telemetry.get_or_insert_with(Telemetry::new);
            Mutex::new(LiveEngine::new(telemetry))
        });
        let registry = JitRegistry::shared();
        let cost = config.cost;
        let journal = config.journal;
        let ext = Box::new(ViprofExtension::new(registry.clone(), cost.vm_probe_cycles));
        let op = Oprofile::start_with_extension(machine, config, ext);
        Viprof {
            op,
            registry,
            callgraph: Arc::new(Mutex::new(CallGraph::new())),
            cost,
            agent_faults,
            journal,
            live,
        }
    }

    /// Build a VM Agent wired to this session. Pass the result to
    /// `sim_jvm::Vm::boot` as its hooks. One agent per VM; all agents
    /// share the registry (and call graph) of this session.
    pub fn make_agent(&self) -> VmAgent {
        self.make_agent_with(false)
    }

    /// Agent with the precise-move extension toggled (E4 ablation; see
    /// `VmAgent::with_precise_moves`).
    pub fn make_agent_with(&self, precise_moves: bool) -> VmAgent {
        let mut agent = VmAgent::new(self.registry.clone(), self.cost, &self.op.telemetry())
            .with_callgraph(self.callgraph.clone(), 16)
            .with_precise_moves(precise_moves)
            .with_journal(self.journal);
        if let Some(faults) = &self.agent_faults {
            agent = agent.with_map_faults(faults.clone());
        }
        agent
    }

    /// The session's shared telemetry registry (the same one every
    /// layer — CPU, buffer, daemon, journal, agents — records into).
    pub fn telemetry(&self) -> Telemetry {
        self.op.telemetry()
    }

    pub fn driver_stats(&self) -> DriverStats {
        self.op.driver_stats()
    }

    /// Injected driver-fault counters (fault-plan sessions only).
    pub fn driver_fault_stats(&self) -> Option<DriverFaultStats> {
        self.op.driver_fault_stats()
    }

    /// Injected daemon-fault counters (fault-plan sessions only).
    pub fn daemon_fault_stats(&self) -> Option<DaemonFaultStats> {
        self.op.daemon_fault_stats()
    }

    /// Injected map-write fault counters (fault-plan sessions only).
    pub fn map_fault_stats(&self) -> Option<MapFaultStats> {
        self.agent_faults.as_ref().map(|f| f.stats())
    }

    /// Watchdog/restart counters (supervised sessions only).
    pub fn supervisor_stats(&self) -> Option<SupervisorStats> {
        self.op.supervisor_stats()
    }

    pub fn db_snapshot(&self) -> SampleDb {
        self.op.db_snapshot()
    }

    /// Stop profiling; returns the final sample database. A live
    /// session's index cache is refreshed here against the final
    /// maps, so a [`Viprof::live_snapshot`] after stop only resolves.
    /// The refresh runs before the final flush, which writes no map,
    /// so its counters and spans land in the telemetry the flush
    /// persists.
    pub fn stop(&self, machine: &mut Machine) -> SampleDb {
        if let Some(live) = &self.live {
            live.lock().unwrap_or_else(PoisonError::into_inner).refresh(&machine.kernel);
        }
        self.op.stop(machine)
    }

    /// Resolve the daemon's database as it stands now (the copy
    /// [`Viprof::db_snapshot`] takes) into a full [`SessionReport`] —
    /// mid-run or after [`Viprof::stop`] — through the live index
    /// cache, reloaded first when map files appeared since the last
    /// snapshot. `None` unless the session was built with
    /// [`SessionBuilder::live`]. Without a reload, cost is proportional
    /// to the aggregate (distinct buckets + rows), independent of how
    /// many samples have arrived.
    pub fn live_snapshot(&self, kernel: &Kernel, spec: &ReportSpec) -> Option<SessionReport> {
        let live = self.live.as_ref()?;
        let db = self.db_snapshot();
        Some(live.lock().unwrap_or_else(PoisonError::into_inner).snapshot(&db, kernel, spec))
    }

    /// Post-process one session: load maps from the VFS (optionally
    /// through journal-replay recovery) and flatten them into the
    /// [`ResolutionEngine`], one incarnation per job on up to
    /// `spec.threads` workers, then resolve the database across
    /// `spec.threads` shards. One entrypoint for everything the old
    /// `report`/`report_with_quality`/`report_with_recovery` trio did —
    /// lines, quality accounting and recovery outcome come back
    /// together in a [`SessionReport`].
    pub fn make_report(
        db: &SampleDb,
        kernel: &Kernel,
        spec: &ReportSpec,
    ) -> Result<SessionReport, ViprofError> {
        // Each pass gets a fresh registry: report telemetry describes
        // *this* resolve, and stays byte-identical across same-seed
        // runs.
        let telemetry = Telemetry::new();
        let workers = spec.threads.max(1);
        let bootmap = BootMap::load(&kernel.vfs)?;
        let options = ResolveOptions { recover: spec.recover };
        let (mut engine, mut rec) = ResolutionEngine::load_on(kernel, &bootmap, options, workers);
        telemetry
            .stage(names::STAGE_RESOLVE_LOAD)
            .record(engine.map_entries());
        engine.set_telemetry(&telemetry);
        let mut report = engine.resolve(db, kernel, spec);
        if spec.recover {
            // Measure the degraded baseline alongside, so the recovery
            // report can say how many samples replay salvaged. The
            // baseline engine records into its own registry: its pass
            // is scaffolding, not part of this report's accounting.
            let (degraded, _) =
                ResolutionEngine::load_on(kernel, &bootmap, ResolveOptions::default(), workers);
            let baseline = degraded.quality(db, spec.threads);
            rec.samples_salvaged = report.quality.resolved.saturating_sub(baseline.resolved);
            report.recovery = Some(rec);
        }
        Ok(report)
    }

    /// Export a complete, self-contained session to a real directory:
    /// the machine's VFS (sample db, epoch code maps, `RVM.map`) plus
    /// image/process metadata, so `viprof report` (or any external
    /// tool) can post-process offline — the `opreport`-after-
    /// `opcontrol --stop` workflow.
    pub fn export_session(
        machine: &mut Machine,
        dir: &std::path::Path,
    ) -> std::io::Result<usize> {
        let images = machine.kernel.images.to_json().to_pretty();
        machine.kernel.vfs.write(SESSION_META_IMAGES, images);
        let procs: Vec<&sim_os::Process> = machine.kernel.processes().collect();
        machine.kernel.vfs.write(SESSION_META_PROCESSES, procs.to_json().to_pretty());
        // The manifest goes in last so it covers everything above; it
        // cannot digest itself and is excluded from its own map.
        let manifest = session_manifest(&machine.kernel.vfs).to_json().to_pretty();
        machine.kernel.vfs.write(SESSION_MANIFEST, manifest);
        std::fs::create_dir_all(dir)?;
        machine.kernel.vfs.export_to_dir(dir)
    }

    /// Rebuild a kernel view from an exported session directory.
    /// The returned kernel carries the session's images, processes and
    /// VFS — everything `Viprof::report` needs. The session manifest
    /// (when present) is verified file-by-file; any integrity violation
    /// is a [`ViprofError::Corrupt`] — use
    /// [`Viprof::import_session_lenient`] to load anyway and inspect
    /// the damage.
    pub fn import_session(dir: &std::path::Path) -> Result<Kernel, ViprofError> {
        let (kernel, mismatches) = Self::import_session_lenient(dir)?;
        if let Some(first) = mismatches.first() {
            return Err(ViprofError::Corrupt {
                path: format!("{}", dir.display()),
                detail: format!(
                    "{} integrity violation(s); first: {first}",
                    mismatches.len()
                ),
            });
        }
        Ok(kernel)
    }

    /// [`Viprof::import_session`] that tolerates integrity violations:
    /// loads whatever is there and returns one human-readable line per
    /// manifest mismatch (the recovery workflow feeds these to the
    /// journal-replay pass instead of giving up).
    pub fn import_session_lenient(
        dir: &std::path::Path,
    ) -> Result<(Kernel, Vec<String>), ViprofError> {
        let vfs = sim_os::Vfs::import_from_dir(dir).map_err(|e| ViprofError::Io {
            path: format!("{}", dir.display()),
            detail: e.to_string(),
        })?;
        let mismatches = verify_manifest(&vfs)?;
        let mut kernel = Kernel::new();
        let images = vfs
            .read(SESSION_META_IMAGES)
            .ok_or_else(|| ViprofError::MissingArtifact {
                path: SESSION_META_IMAGES.to_string(),
            })?;
        kernel.images = parse_meta(SESSION_META_IMAGES, images, ImageTable::from_json)?;
        let procs = vfs
            .read(SESSION_META_PROCESSES)
            .ok_or_else(|| ViprofError::MissingArtifact {
                path: SESSION_META_PROCESSES.to_string(),
            })?;
        let procs = parse_meta(SESSION_META_PROCESSES, procs, |v| {
            let procs = v.as_arr("processes")?;
            procs.iter().map(sim_os::Process::from_json).collect::<Result<Vec<_>, _>>()
        })?;
        for p in procs {
            kernel.insert_process(p);
        }
        kernel.vfs = vfs;
        Ok((kernel, mismatches))
    }
}

/// Session-metadata paths written by [`Viprof::export_session`].
pub const SESSION_META_IMAGES: &str = "/meta/images.json";
pub const SESSION_META_PROCESSES: &str = "/meta/processes.json";
/// Integrity manifest covering every other file in the export.
pub const SESSION_MANIFEST: &str = "/meta/manifest.json";

/// Per-file integrity digest recorded in the session manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileDigest {
    pub len: u64,
    pub crc32: u32,
}

impl FileDigest {
    pub fn of(data: &[u8]) -> FileDigest {
        FileDigest {
            len: data.len() as u64,
            crc32: crc32(data),
        }
    }
}

impl_to_json!(FileDigest { len, crc32 });

impl FileDigest {
    fn from_json(v: &Json) -> Result<FileDigest, String> {
        let o = v.as_obj("file digest")?;
        Ok(FileDigest {
            len: get(o, "len")?.as_num("len")?,
            crc32: u32::try_from(get(o, "crc32")?.as_num("crc32")?)
                .map_err(|_| "crc32: out of range".to_string())?,
        })
    }
}

/// Parse one session-metadata file; any failure is corruption of
/// `path`.
fn parse_meta<T>(
    path: &str,
    raw: &[u8],
    decode: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, ViprofError> {
    std::str::from_utf8(raw)
        .map_err(|e| e.to_string())
        .and_then(parse_json)
        .and_then(|v| decode(&v))
        .map_err(|detail| ViprofError::Corrupt { path: path.to_string(), detail })
}

/// Digest every VFS file except the manifest itself.
fn session_manifest(vfs: &Vfs) -> BTreeMap<String, FileDigest> {
    vfs.list("")
        .into_iter()
        .filter(|p| *p != SESSION_MANIFEST)
        .map(|p| {
            let data = vfs.read(p).unwrap_or_default();
            (p.to_string(), FileDigest::of(data))
        })
        .collect()
}

/// Check an imported VFS against its manifest. A session without a
/// manifest (pre-manifest export) verifies vacuously; an unparseable
/// manifest is itself corruption.
fn verify_manifest(vfs: &Vfs) -> Result<Vec<String>, ViprofError> {
    let Some(raw) = vfs.read(SESSION_MANIFEST) else {
        return Ok(Vec::new());
    };
    let manifest = parse_meta(SESSION_MANIFEST, raw, |v| {
        v.as_obj("manifest")?
            .iter()
            .map(|(path, d)| Ok((path.clone(), FileDigest::from_json(d)?)))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut mismatches = Vec::new();
    for (path, want) in &manifest {
        match vfs.read(path) {
            None => mismatches.push(format!("{path}: listed in manifest but absent")),
            Some(data) => {
                let got = FileDigest::of(data);
                if got != *want {
                    mismatches.push(format!(
                        "{path}: digest mismatch (manifest {}B crc32 {:08x}, \
                         file {}B crc32 {:08x})",
                        want.len, want.crc32, got.len, got.crc32
                    ));
                }
            }
        }
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::HwEvent;
    use sim_jvm::{
        AosPolicy, ClassId, MethodAsm, NativeFn, NativeRegistry, Op, ProgramBuilder, ProgramDef,
        Tiering, Vm, VmConfig,
    };
    use sim_os::{Machine, MachineConfig};

    /// A small benchmark: hot arithmetic loop + allocation churn +
    /// a memset call, so samples land in JIT code, the VM, the GC and
    /// libc.
    fn bench_program(natives: &mut NativeRegistry) -> ProgramDef {
        let memset = natives.register(NativeFn::memset());
        let mut b = ProgramBuilder::new();
        let c = b.add_class("bench.Worker", 6);
        // Hot loop: pure compute.
        let mut hot = MethodAsm::new();
        hot.op(Op::Const(0)).op(Op::Store(0));
        hot.counted_loop(1, 50_000, |l| {
            l.op(Op::Load(0)).op(Op::Const(3)).op(Op::Add).op(Op::Store(0));
        });
        hot.op(Op::Load(0)).op(Op::Ret);
        let hot_m = b.add_method(c, "bench.Worker.hotLoop", 0, 2, hot.assemble().unwrap());
        // Churn: allocate objects.
        let mut churn = MethodAsm::new();
        churn.counted_loop(0, 300, |l| {
            l.op(Op::New(ClassId(0))).op(Op::Pop);
        });
        churn.op(Op::Const(0)).op(Op::Ret);
        let churn_m = b.add_method(c, "bench.Worker.churn", 0, 1, churn.assemble().unwrap());
        // Main: loop { hot(); churn(); memset(64k) }
        let mut main = MethodAsm::new();
        main.counted_loop(0, 8, |l| {
            l.op(Op::Call(hot_m))
                .op(Op::Pop)
                .op(Op::Call(churn_m))
                .op(Op::Pop)
                .op(Op::Const(65_536))
                .op(Op::NativeCall(memset))
                .op(Op::Pop);
        });
        main.op(Op::Const(0)).op(Op::Ret);
        let main_m = b.add_method(c, "bench.Worker.main", 0, 1, main.assemble().unwrap());
        b.set_entry(main_m);
        b.build_with_natives(natives).unwrap()
    }

    fn vm_config(heap_bytes: u64) -> VmConfig {
        VmConfig {
            heap_bytes,
            aos: AosPolicy {
                opt1_threshold: 4,
                opt2_threshold: 1_000_000,
            },
            tiering: Tiering::CompileOnFirstUse,
            ..VmConfig::default()
        }
    }

    #[test]
    fn end_to_end_vertical_profile() {
        let mut machine = Machine::new(MachineConfig::default());
        let viprof = Viprof::builder()
            .config(OpConfig::figure1(20_000, 400))
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let agent = viprof.make_agent();
        let agent_stats = agent.stats_handle();
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(agent),
        );
        vm.run(&mut machine);
        vm.shutdown(&mut machine);
        let db = viprof.stop(&mut machine);

        // The profile saw JIT samples (registered heap, not anon).
        let stats = viprof.driver_stats();
        assert!(stats.jit > 0, "JIT.App samples: {stats:?}");
        assert!(stats.image > 0, "boot-image/native samples: {stats:?}");
        assert_eq!(
            stats.anon, 0,
            "VM heap is registered — nothing should fall into anon"
        );

        // Agent produced maps (≥1 GC + final flush).
        let ast = agent_stats.snapshot();
        assert!(ast.compiles_logged >= 3);
        assert!(ast.maps_written >= 2);
        assert!(ast.moves_flagged > 0, "GC must move code at least once");

        // The merged report resolves JIT methods by name.
        let report = Viprof::make_report(&db, &machine.kernel, &ReportSpec::default())
            .unwrap()
            .lines;
        let jit_rows: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.image == "JIT.App")
            .collect();
        assert!(!jit_rows.is_empty());
        assert!(
            jit_rows.iter().any(|r| r.symbol == "bench.Worker.hotLoop"),
            "hot loop must dominate JIT rows: {:?}",
            jit_rows.iter().map(|r| &r.symbol).collect::<Vec<_>>()
        );
        assert!(
            jit_rows.iter().all(|r| r.symbol != "(unresolved jit)"),
            "every JIT sample resolves through the epoch maps"
        );
        // VM internals resolved through RVM.map.
        assert!(report.rows.iter().any(|r| r.image == "RVM.map"));
        // Native library present.
        assert!(report
            .rows
            .iter()
            .any(|r| r.image == "libc-2.3.2.so" && r.symbol == "memset"));
        // Two event columns (Figure 1).
        assert_eq!(report.events, vec![HwEvent::Cycles, HwEvent::L2Miss]);

        // Cross-layer call graph captured the Java→libc edge.
        let cg = viprof.callgraph.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(cg.total_edges() > 0);
        let top = cg.top_edges(20);
        assert!(
            top.iter()
                .any(|(a, b, _)| a.contains("bench.Worker.main") && *b == "memset"),
            "expected main->memset edge in {top:?}"
        );
    }

    #[test]
    fn faulted_session_degrades_but_accounts_for_everything() {
        // Moderate faults at all three layers: the run must complete,
        // and the quality report must cover every emitted sample.
        let mut machine = Machine::new(MachineConfig::default());
        let plan = FaultPlan::new(77)
            .with_overflow_bursts(0.25, 2)
            .with_lost_maps(0.5)
            .with_garbled_lines(0.25);
        let viprof = Viprof::builder()
            .config(OpConfig::time_at(20_000))
            .faults(&plan)
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(viprof.make_agent()),
        );
        vm.run(&mut machine);
        vm.shutdown(&mut machine);
        let db = viprof.stop(&mut machine);

        let drv = viprof.driver_fault_stats().expect("injector installed");
        assert!(drv.forced_drops > 0, "bursts at 25% must fire: {drv:?}");
        assert!(viprof.map_fault_stats().is_some());
        // Forced drops are counted, never silent.
        assert!(db.dropped >= drv.forced_drops, "db.dropped {}", db.dropped);

        let rep =
            Viprof::make_report(&db, &machine.kernel, &ReportSpec::default()).unwrap();
        let (report, q) = (rep.lines, rep.quality);
        assert_eq!(q.accounted(), db.total_samples());
        assert_eq!(q.dropped, db.dropped);
        assert!(!report.rows.is_empty());
        // Single-VM run: exactly one incarnation row, generation 0,
        // and no cross-incarnation refusals.
        assert_eq!(rep.incarnations.len(), 1, "{:?}", rep.incarnations);
        assert_eq!(rep.incarnations[0].gen, 0);
        assert_eq!(rep.incarnations[0].blocked, 0);
        assert_eq!(q.cross_incarnation_blocked, 0);
    }

    #[test]
    fn try_start_surfaces_invalid_config_as_typed_error() {
        // An unstartable config comes back as InvalidConfig before any
        // counter is programmed; the machine stays usable afterwards.
        let mut machine = Machine::new(MachineConfig::default());
        let mut config = OpConfig::time_at(20_000);
        config.events.clear();
        let Err(err) = Viprof::builder().config(config).try_start(&mut machine) else {
            panic!("an event-less config must not start");
        };
        assert!(matches!(err, ViprofError::InvalidConfig(_)), "{err:?}");
        assert!(
            err.to_string().starts_with("invalid session config:"),
            "{err}"
        );
        // Nothing was installed — a valid session still starts cleanly.
        let viprof = Viprof::builder()
            .config(OpConfig::time_at(20_000))
            .try_start(&mut machine)
            .unwrap();
        viprof.stop(&mut machine);
    }

    #[test]
    fn poisoned_report_spec_keeps_the_session_report_complete() {
        // A fatal shard poison routed through the high-level report
        // path: rows may shrink, but the quality accounting still
        // covers every emitted sample and the report never errors.
        let mut machine = Machine::new(MachineConfig::default());
        let viprof = Viprof::builder()
            .config(OpConfig::time_at(20_000))
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(viprof.make_agent()),
        );
        vm.run(&mut machine);
        vm.shutdown(&mut machine);
        let db = viprof.stop(&mut machine);
        let pid = db
            .iter()
            .find_map(|(b, _)| match b.origin {
                oprofile::SampleOrigin::JitApp { pid, .. } => Some(pid),
                _ => None,
            })
            .expect("workload produced JIT samples");

        let clean = Viprof::make_report(&db, &machine.kernel, &ReportSpec::default()).unwrap();
        let spec = ReportSpec::default()
            .threads(4)
            .poison(crate::engine::ShardPoison { pid, fatal: true });
        let poisoned = Viprof::make_report(&db, &machine.kernel, &spec).unwrap();
        assert!(poisoned.quality.quarantined > 0);
        assert_eq!(poisoned.quality.accounted(), db.total_samples());
        assert_eq!(clean.quality.accounted(), poisoned.quality.accounted());
        assert!(
            poisoned.telemetry.counter(names::RESOLVE_SHARD_PANICS) > 0,
            "panic surfaced in the pass telemetry"
        );
    }

    #[test]
    fn builder_toggles_supervision_and_journaling() {
        // supervised(true) without a plan installs the default
        // watchdog; journal(true) reaches both the daemon and the
        // agents this session builds.
        let mut machine = Machine::new(MachineConfig::default());
        let viprof = Viprof::builder()
            .config(OpConfig::time_at(20_000))
            .journal(true)
            .supervised(true)
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(viprof.make_agent()),
        );
        vm.run(&mut machine);
        vm.shutdown(&mut machine);
        let db = viprof.stop(&mut machine);
        assert!(viprof.supervisor_stats().is_some(), "watchdog installed");
        let replayed =
            crate::recover::recover_sample_db(&machine.kernel.vfs).expect("journaling on");
        assert_eq!(replayed.db, db);

        // supervised(false) overrides a config that asked for one.
        let mut machine = Machine::new(MachineConfig::default());
        let viprof = Viprof::builder()
            .config(OpConfig::time_at(20_000).with_supervisor(SupervisorConfig::default()))
            .supervised(false)
            .start(&mut machine);
        assert!(viprof.supervisor_stats().is_none());
        viprof.stop(&mut machine);
    }

    #[test]
    fn live_session_final_snapshot_matches_offline_report() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut config = OpConfig::time_at(20_000);
        // Drain often so the stream sees many incremental batches.
        config.daemon_period_cycles = 2_000_000;
        let viprof = Viprof::builder()
            .config(config)
            .journal(true)
            .live(LiveSpec::new())
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(viprof.make_agent()),
        );
        vm.run(&mut machine);

        // Mid-run: a full report is available and fully accounted
        // against the daemon's database so far.
        let mid = viprof
            .live_snapshot(&machine.kernel, &ReportSpec::default())
            .expect("live session");
        assert!(mid.quality.accounted() > 0, "{:?}", mid.quality);
        assert_eq!(mid.quality.accounted(), viprof.db_snapshot().total_samples());
        assert!(!mid.lines.rows.is_empty());

        vm.shutdown(&mut machine);
        let db = viprof.stop(&mut machine);
        let rebuilds = || viprof.telemetry().snapshot().counter(names::LIVE_FULL_REBUILDS);
        let rebuilds_at_stop = rebuilds();

        // After stop, the snapshot is bit-identical to the offline
        // report at every thread count.
        for threads in [1usize, 4] {
            let spec = ReportSpec::default().threads(threads);
            let snap = viprof
                .live_snapshot(&machine.kernel, &spec)
                .expect("live session");
            let offline = Viprof::make_report(&db, &machine.kernel, &spec).unwrap();
            assert_eq!(snap.lines, offline.lines, "threads={threads}");
            assert_eq!(snap.quality, offline.quality, "threads={threads}");
            assert_eq!(snap.incarnations, offline.incarnations, "threads={threads}");
            assert_eq!(snap.quality.accounted(), db.total_samples(), "threads={threads}");
        }

        // The index cache left its telemetry trail, and the snapshots
        // after stop reused what stop loaded.
        let t = viprof.telemetry().snapshot();
        assert!(rebuilds_at_stop > 0);
        assert_eq!(rebuilds(), rebuilds_at_stop, "snapshots after stop do not reload");
        assert!(t.histogram(names::RESOLVE_SHARD_SAMPLES).is_some(), "snapshots resolved");
    }

    #[test]
    fn mid_run_snapshots_reload_only_for_new_maps() {
        let mut machine = Machine::new(MachineConfig::default());
        let mut config = OpConfig::time_at(20_000);
        config.daemon_period_cycles = 2_000_000;
        let viprof = Viprof::builder()
            .config(config)
            .live(LiveSpec::new())
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(viprof.make_agent()),
        );
        let maps = |m: &Machine| m.kernel.vfs.list(crate::codemap::JIT_MAP_DIR).len();
        let rebuilds = || viprof.telemetry().snapshot().counter(names::LIVE_FULL_REBUILDS);
        // Each snapshot is the batch report over the daemon's database
        // and the maps on disk at that moment.
        let snapshot_equals_batch = |machine: &Machine| {
            let spec = ReportSpec::default();
            let snap = viprof.live_snapshot(&machine.kernel, &spec).expect("live session");
            let offline =
                Viprof::make_report(&viprof.db_snapshot(), &machine.kernel, &spec).unwrap();
            assert_eq!(snap.lines, offline.lines);
            assert_eq!(snap.quality, offline.quality);
            assert_eq!(snap.incarnations, offline.incarnations);
        };

        vm.run(&mut machine);
        let maps_first = maps(&machine);
        assert!(maps_first > 0, "the first run wrote epoch maps");
        snapshot_equals_batch(&machine);
        assert_eq!(rebuilds(), 1, "the first snapshot loads the cache");
        // No map written since: the cache is kept.
        snapshot_equals_batch(&machine);
        assert_eq!(rebuilds(), 1, "no new map file, no reload");

        // More GCs, more epoch maps: the next snapshot reloads once.
        vm.run(&mut machine);
        assert!(maps(&machine) > maps_first, "the second run wrote new epoch maps");
        snapshot_equals_batch(&machine);
        assert_eq!(rebuilds(), 2, "new map files reload the cache once");

        vm.shutdown(&mut machine);
        viprof.stop(&mut machine);
    }

    #[test]
    fn live_snapshot_treats_an_unparseable_rvm_map_as_absent() {
        use oprofile::SampleOrigin;
        use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL, RVM_MAP_PATH};
        let mut machine = Machine::new(MachineConfig::default());
        let viprof = Viprof::builder()
            .config(OpConfig::time_at(20_000))
            .journal(true)
            .live(LiveSpec::new())
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(viprof.make_agent()),
        );
        vm.run(&mut machine);
        vm.shutdown(&mut machine);
        let db = viprof.stop(&mut machine);
        machine.kernel.vfs.write(RVM_MAP_PATH, vec![0xff, 0xfe, 0xfd]);

        // The batch report refuses a boot map it cannot read...
        let spec = ReportSpec::default();
        match Viprof::make_report(&db, &machine.kernel, &spec) {
            Err(ViprofError::Corrupt { path, .. }) => assert_eq!(path, RVM_MAP_PATH),
            other => panic!("expected a corrupt RVM.map, got {other:?}"),
        }
        // ...while the live snapshot reads it as absent: every sample
        // is accounted, and boot-image samples land in `(no symbols)`.
        let snap = viprof.live_snapshot(&machine.kernel, &spec).expect("live session");
        assert_eq!(snap.quality.accounted(), db.total_samples());
        let boot = machine.kernel.images.find_by_name(BOOT_IMAGE_NAME).expect("boot image");
        let boot_samples: Vec<u64> = snap
            .lines
            .events
            .iter()
            .map(|event| {
                db.iter()
                    .filter(|(b, _)| b.origin == SampleOrigin::Image(boot) && b.event == *event)
                    .map(|(_, count)| *count)
                    .sum()
            })
            .collect();
        assert!(boot_samples[0] > 0, "the VM ran boot-image code");
        let row = snap
            .lines
            .rows
            .iter()
            .find(|r| r.image == BOOT_IMAGE_NAME && r.symbol == "(no symbols)")
            .expect("a (no symbols) row for the boot image");
        assert_eq!(row.counts, boot_samples);
        assert!(snap.lines.rows.iter().all(|r| r.image != RVM_MAP_IMAGE_LABEL));
    }

    #[test]
    fn oprofile_vs_viprof_same_workload_figure1_contrast() {
        // Run the identical benchmark under stock OProfile: JIT samples
        // must land in anon, and the boot image must stay symbol-less —
        // the paper's Figure-1 lower half.
        let mut machine = Machine::new(MachineConfig::default());
        let op = Oprofile::start(&mut machine, OpConfig::figure1(20_000, 400));
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(sim_jvm::NullHooks),
        );
        vm.run(&mut machine);
        vm.shutdown(&mut machine);
        let db = op.stop(&mut machine);
        let stats = op.driver_stats();
        assert!(stats.anon > 0, "JIT code is anon to stock OProfile");
        assert_eq!(stats.jit, 0);

        let report = oprofile::opreport(&db, &machine.kernel, &ReportOptions::default());
        assert!(report.rows.iter().any(|r| r.image.starts_with("anon (range:")));
        assert!(report
            .rows
            .iter()
            .any(|r| r.image == "RVM.code.image" && r.symbol == "(no symbols)"));
        assert!(!report.rows.iter().any(|r| r.image == "RVM.map"));
    }

    #[test]
    fn viprof_overhead_close_to_oprofile() {
        // §4.3: "On average, VIProf adds negligible overhead to what
        // Oprofile already introduces." Same workload, three runs. A
        // realistic heap keeps GC (and thus map-write) frequency sane;
        // the micro-benchmark is still short, so we assert the *regime*
        // here and leave the calibrated Figure-2 bands to the harness.
        fn run(profiler: u8) -> u64 {
            let mut machine = Machine::new(MachineConfig::default());
            let mut natives = NativeRegistry::new();
            let program = bench_program(&mut natives);
            type Stop = Box<dyn FnOnce(&mut Machine)>;
            let session: Option<Stop> = match profiler {
                0 => None,
                1 => {
                    let op = Oprofile::start(&mut machine, OpConfig::time_at(90_000));
                    Some(Box::new(move |m: &mut Machine| {
                        op.stop(m);
                    }))
                }
                _ => {
                    // Scale the map-write cost down to micro-benchmark
                    // proportions: this test asserts the *driver/agent
                    // inline* regime; the disk-write amortization story
                    // is the harness's job (Figure 2 / E5).
                    let cost = sim_cpu::CostModel {
                        mapwrite_base_cycles: 200_000,
                        mapwrite_per_entry_cycles: 420,
                        ..sim_cpu::CostModel::default()
                    };
                    let vp = Viprof::builder()
                        .config(OpConfig::time_at(90_000).with_cost(cost))
                        .start(&mut machine);
                    let hooks = Box::new(vp.make_agent());
                    let mut vm = Vm::boot(
                        &mut machine,
                        program.clone(),
                        natives.clone(),
                        vm_config(2 * 1024 * 1024),
                        hooks,
                    );
                    vm.run(&mut machine);
                    vm.shutdown(&mut machine);
                    vp.stop(&mut machine);
                    return machine.cpu.clock.cycles();
                }
            };
            let mut vm = Vm::boot(
                &mut machine,
                program,
                natives,
                vm_config(2 * 1024 * 1024),
                Box::new(sim_jvm::NullHooks),
            );
            vm.run(&mut machine);
            vm.shutdown(&mut machine);
            if let Some(stop) = session {
                stop(&mut machine);
            }
            machine.cpu.clock.cycles()
        }
        let base = run(0);
        let oprof = run(1);
        let viprof = run(2);
        assert!(oprof > base);
        assert!(viprof > base);
        let o = (oprof - base) as f64 / base as f64;
        let v = (viprof - base) as f64 / base as f64;
        // Driver-side sampling keeps both in single-digit percent; the
        // agent's map writes add a bounded extra on this *short* run
        // (long runs amortize it — paper §4.3, checked in the harness).
        assert!(o > 0.005 && o < 0.15, "oprof overhead {o:.4}");
        assert!(v > 0.005 && v < 0.30, "viprof overhead {v:.4}");
        assert!(
            v - o < 0.20,
            "VIProf must stay near OProfile: o={o:.4} v={v:.4}"
        );
    }

    #[test]
    fn export_manifest_catches_bit_rot_and_deletion() {
        let mut machine = Machine::new(MachineConfig::default());
        let viprof = Viprof::builder()
            .config(OpConfig::time_at(20_000))
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(viprof.make_agent()),
        );
        vm.run(&mut machine);
        vm.shutdown(&mut machine);
        viprof.stop(&mut machine);

        let dir =
            std::env::temp_dir().join(format!("viprof-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Viprof::export_session(&mut machine, &dir).unwrap();

        // Pristine round trip: strict import passes.
        let kernel = Viprof::import_session(&dir).unwrap();
        assert!(kernel.vfs.read(oprofile::SAMPLES_PATH).is_some());

        // Same-length bit rot in the sample db — the CRC catches what
        // a length check cannot.
        let victim = dir.join("var/lib/oprofile/samples/current.db");
        let mut rotted = std::fs::read(&victim).unwrap();
        let last = rotted.len() - 1;
        rotted[last] ^= 0xFF;
        std::fs::write(&victim, &rotted).unwrap();
        let err = Viprof::import_session(&dir).unwrap_err();
        assert!(matches!(err, ViprofError::Corrupt { .. }), "{err:?}");
        let (_, mismatches) = Viprof::import_session_lenient(&dir).unwrap();
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        assert!(mismatches[0].contains("current.db"), "{mismatches:?}");
        assert!(mismatches[0].contains("digest mismatch"), "{mismatches:?}");

        // Deleting it is the other violation class: listed but absent.
        std::fs::remove_file(&victim).unwrap();
        let (_, mismatches) = Viprof::import_session_lenient(&dir).unwrap();
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        assert!(mismatches[0].contains("absent"), "{mismatches:?}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journaled_session_recovers_torn_maps() {
        // Every map write torn on disk, but journaled: the recovery
        // replay must rebuild the pristine maps and account for every
        // sample, and the sample journal must replay to the final db.
        let mut machine = Machine::new(MachineConfig::default());
        let plan = FaultPlan::new(11).with_torn_maps(1.0);
        let viprof = Viprof::builder()
            .config(OpConfig::time_at(20_000))
            .journal(true)
            .faults(&plan)
            .start(&mut machine);
        let mut natives = NativeRegistry::new();
        let program = bench_program(&mut natives);
        let mut vm = Vm::boot(
            &mut machine,
            program,
            natives,
            vm_config(96 * 1024),
            Box::new(viprof.make_agent()),
        );
        vm.run(&mut machine);
        vm.shutdown(&mut machine);
        let db = viprof.stop(&mut machine);
        assert!(viprof.map_fault_stats().unwrap().torn_maps > 0);

        let degraded = Viprof::make_report(&db, &machine.kernel, &ReportSpec::default())
            .unwrap()
            .quality;
        let recovered =
            Viprof::make_report(&db, &machine.kernel, &ReportSpec::recovered()).unwrap();
        let (report, q) = (recovered.lines, recovered.quality);
        let rec = recovered.recovery.expect("recover spec returns a recovery report");
        assert!(rec.journals_scanned >= 1, "{rec:?}");
        assert!(rec.records_replayed > 0, "{rec:?}");
        assert!(q.resolved >= degraded.resolved);
        assert_eq!(rec.samples_salvaged, q.resolved - degraded.resolved);
        assert_eq!(q.accounted(), db.total_samples());
        assert!(!report.rows.is_empty());

        // Daemon-side: the batch journal replays to exactly the
        // persisted database, drops included.
        let replayed =
            crate::recover::recover_sample_db(&machine.kernel.vfs).expect("journaling on");
        assert_eq!(replayed.db, db);
        assert_eq!(replayed.truncated_bytes, 0);
    }
}
