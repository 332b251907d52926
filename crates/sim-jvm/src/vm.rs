//! The virtual machine: ties the interpreter, JIT tiers, AOS, heap and
//! boot image together and streams everything it does to the simulated
//! machine as attributed execution blocks.
//!
//! Attribution rules (who a sampled PC belongs to):
//!
//! * interpreted bytecode → the boot image's interpreter loop
//!   (`VM_Runtime.interpretMethod`) — OProfile sees `RVM.code.image`;
//! * JIT-compiled bytecode → the method's code body *inside the heap*
//!   — OProfile sees `anon`, VIProf sees `JIT.App` + epoch;
//! * compilation, GC, class loading → the matching boot-image methods
//!   (with the paper's Figure-1 sub-phase breakdown);
//! * native calls → the native library's symbol, plus the kernel symbol
//!   for the syscall part.
//!
//! Two execution fidelities share all of this machinery:
//! [`Vm::call`] interprets every op (detailed mode — used by tests,
//! examples and the Figure-1 case study), while [`Vm::run_batched`]
//! measures one invocation and replays its summary for long runs
//! (Figure 2/3), preserving exactly the events profilers care about:
//! sample placement, compiles, recompiles, GCs and epochs.

use crate::aos::{AosPolicy, HotnessCounters, OptLevel};
use crate::bootimage::{well_known, BootImage};
use crate::bytecode::{MethodId, NativeFnId, Op};
use crate::classes::{MemSpec, ProgramDef};
use crate::heap::{GcMode, Heap, MatureConfig, ObjKind, ObjRef, Value};
use crate::hooks::{CompiledBodyInfo, VmProfilerHooks};
use crate::interp::{Interp, StepError, StepEvent};
use crate::natives::NativeRegistry;
use sim_cpu::{Addr, BlockExec, CpuMode, FracAcc, MemAccess, MemActivity, Pid};
use sim_os::loader::{ANON_HINT, BIN_HINT, LIB_HINT};
use sim_os::{Image, Loader, Machine, Symbol};
use std::collections::BTreeMap;

/// Cycle/size model of the execution tiers and VM-internal activities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecCosts {
    pub interp_cycles_per_op: f64,
    pub baseline_cycles_per_op: f64,
    pub opt1_cycles_per_op: f64,
    pub opt2_cycles_per_op: f64,
    pub interp_instrs_per_op: f64,
    pub jit_instrs_per_op: f64,
    pub baseline_compile_cycles_per_op: u64,
    pub opt1_compile_cycles_per_op: u64,
    pub opt2_compile_cycles_per_op: u64,
    /// Machine-code bytes per `Op::size_weight` unit at each tier
    /// (optimized code is *larger*: inlining, maps, guards).
    pub code_bytes_factor_baseline: f64,
    pub code_bytes_factor_opt1: f64,
    pub code_bytes_factor_opt2: f64,
    pub gc_base_cycles: u64,
    pub gc_cycles_per_live_byte: f64,
    /// Amortized allocation fast-path cycles per allocation.
    pub alloc_cycles: u64,
    pub classload_cycles_per_method: u64,
    /// Ops per emitted block in detailed mode.
    pub quantum_ops: usize,
}

impl Default for ExecCosts {
    fn default() -> Self {
        ExecCosts {
            interp_cycles_per_op: 12.0,
            baseline_cycles_per_op: 4.5,
            opt1_cycles_per_op: 2.2,
            opt2_cycles_per_op: 1.5,
            interp_instrs_per_op: 14.0,
            jit_instrs_per_op: 5.0,
            baseline_compile_cycles_per_op: 450,
            opt1_compile_cycles_per_op: 5_000,
            opt2_compile_cycles_per_op: 15_000,
            code_bytes_factor_baseline: 1.0,
            code_bytes_factor_opt1: 1.6,
            code_bytes_factor_opt2: 2.2,
            gc_base_cycles: 150_000,
            gc_cycles_per_live_byte: 1.0,
            alloc_cycles: 25,
            classload_cycles_per_method: 40_000,
            quantum_ops: 512,
        }
    }
}

impl ExecCosts {
    fn cycles_per_op(&self, tier: Tier) -> f64 {
        match tier {
            Tier::Interp => self.interp_cycles_per_op,
            Tier::Jit(OptLevel::Baseline) => self.baseline_cycles_per_op,
            Tier::Jit(OptLevel::Opt1) => self.opt1_cycles_per_op,
            Tier::Jit(OptLevel::Opt2) => self.opt2_cycles_per_op,
        }
    }

    fn instrs_per_op(&self, tier: Tier) -> f64 {
        match tier {
            Tier::Interp => self.interp_instrs_per_op,
            Tier::Jit(_) => self.jit_instrs_per_op,
        }
    }

    fn compile_cycles_per_op(&self, level: OptLevel) -> u64 {
        match level {
            OptLevel::Baseline => self.baseline_compile_cycles_per_op,
            OptLevel::Opt1 => self.opt1_compile_cycles_per_op,
            OptLevel::Opt2 => self.opt2_compile_cycles_per_op,
        }
    }

    fn code_bytes_factor(&self, level: OptLevel) -> f64 {
        match level {
            OptLevel::Baseline => self.code_bytes_factor_baseline,
            OptLevel::Opt1 => self.code_bytes_factor_opt1,
            OptLevel::Opt2 => self.code_bytes_factor_opt2,
        }
    }
}

/// How methods reach executable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiering {
    /// Jikes RVM style: baseline-compile on first invocation (the
    /// configuration the paper evaluates).
    CompileOnFirstUse,
    /// Interpret until hot, then baseline-compile (exercises the
    /// interpreter attribution path).
    InterpretThenCompile { compile_threshold: u64 },
}

/// VM construction parameters.
#[derive(Debug, Clone)]
pub struct VmConfig {
    pub heap_bytes: u64,
    pub aos: AosPolicy,
    pub costs: ExecCosts,
    pub tiering: Tiering,
    /// Mature-space behaviour (None = pure semispace, everything moves
    /// on every GC). The default matches Jikes RVM's segregated heap:
    /// long-lived code stops moving once promoted (paper §4.3).
    /// Ignored when `gc_mode` is `NonMoving`.
    pub mature: Option<MatureConfig>,
    /// Copying (Jikes-like, the paper's setting) or non-moving
    /// mark-sweep (the E8 ablation: code never moves).
    pub gc_mode: GcMode,
    /// Feed real addresses through the cache hierarchy (requires the
    /// machine to have one). Off → statistical misses from `MemSpec`s.
    pub detailed_mem: bool,
    /// Self-telemetry registry: when present, GC collections are counted
    /// and each pause is traced as a `span.vm_gc` (zero simulated cost).
    pub telemetry: Option<viprof_telemetry::Telemetry>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            heap_bytes: 64 * 1024 * 1024,
            aos: AosPolicy::default(),
            costs: ExecCosts::default(),
            tiering: Tiering::CompileOnFirstUse,
            mature: Some(MatureConfig::default()),
            gc_mode: GcMode::Copying,
            detailed_mem: false,
            telemetry: None,
        }
    }
}

/// Execution tier of a block of app code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Interp,
    Jit(OptLevel),
}

/// Counters for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    pub compiles: u64,
    pub recompiles: u64,
    pub gcs: u64,
    pub ops_interpreted: u64,
    pub ops_jit: u64,
    pub native_calls: u64,
    pub batched_invocations: u64,
    pub classloads: u64,
}

/// Per-invocation behaviour summary for batched replay.
#[derive(Debug, Default)]
struct InvocationSummary {
    ops: u64,
    backedges: u64,
    calls: u64,
    heap_accesses: u64,
    allocations: u64,
    alloc_bytes: u64,
    /// Aggregated native calls, in id order: id → (count, total user
    /// cycles, total kernel cycles, total accesses).
    natives: BTreeMap<NativeFnId, (u64, u64, u64, u64)>,
}

#[derive(Debug, Default)]
struct MethodState {
    body: Option<ObjRef>,
    level: OptLevel,
    counters: HotnessCounters,
    compiles: u32,
    summary: Option<InvocationSummary>,
    fa_l1: FracAcc,
    fa_l2: FracAcc,
}

/// Block accumulator for detailed execution.
#[derive(Debug, Default)]
struct BlockAcc {
    ctx: Option<(Tier, MethodId)>,
    ops: u64,
    backedges: u64,
    calls: u64,
    heap_accesses: u64,
    alloc_extra_cycles: u64,
    detailed: Vec<MemAccess>,
}

/// The breakdown of VM-internal activities over boot-image methods —
/// this is what makes the Figure-1 VM rows appear with plausible
/// relative weights.
const BASELINE_COMPILE_PARTS: &[(&str, f64)] = &[
    (well_known::BASELINE_COMPILE, 0.85),
    (well_known::CLASSLOAD, 0.05),
    (well_known::OSR_PROLOGUE, 0.04),
    (well_known::HAS_ARRAY_READ, 0.06),
];

const OPT_COMPILE_PARTS: &[(&str, f64)] = &[
    (well_known::OPT_COMPILE, 0.70),
    (well_known::CODE_PATCH_MAPS, 0.08),
    (well_known::MC_OFFSET, 0.06),
    (well_known::FINALIZE_OSR, 0.06),
    (well_known::OSR_PROLOGUE, 0.04),
    (well_known::HAS_ARRAY_READ, 0.03),
    (well_known::AOS_DECIDE, 0.03),
];

const GC_PARTS: &[(&str, f64)] = &[
    (well_known::GC_COLLECT, 0.82),
    (well_known::MISSED_SPILLS, 0.10),
    (well_known::VECTOR_TRIM, 0.03),
    (well_known::ALLOC_SLOWPATH, 0.05),
];

/// Cache behaviour of the copying collector (streams the live set).
const GC_MEM: MemSpec = MemSpec {
    l1_miss_rate: 0.20,
    l2_miss_rate: 0.08,
};

/// Resolved PC ranges of a native function.
#[derive(Debug, Clone, Copy)]
struct NativeAddrs {
    user: (Addr, Addr),
    kernel: Option<(Addr, Addr)>,
}

/// The virtual machine.
pub struct Vm {
    pub pid: Pid,
    program: ProgramDef,
    natives: NativeRegistry,
    native_addrs: Vec<NativeAddrs>,
    pub boot: BootImage,
    heap: Heap,
    hooks: Box<dyn VmProfilerHooks>,
    interp: Interp,
    methods: Vec<MethodState>,
    config: VmConfig,
    pub stats: VmStats,
    /// Fraction accumulators for GC/native statistical misses.
    fa_gc: (FracAcc, FracAcc),
    fa_native: (FracAcc, FracAcc),
    /// When measuring an invocation for batching.
    measuring: Option<InvocationSummary>,
}

impl Vm {
    /// Boot a VM: spawn the process, map bootstrap binary, boot image,
    /// native libraries and the heap; register with the profiler hooks;
    /// charge class-loading time.
    pub fn boot(
        machine: &mut Machine,
        program: ProgramDef,
        natives: NativeRegistry,
        config: VmConfig,
        mut hooks: Box<dyn VmProfilerHooks>,
    ) -> Vm {
        let kernel = &mut machine.kernel;
        let pid = kernel.spawn("jikesrvm");

        // The small C bootstrap loader (profiled natively, paper §3.2).
        let boot_bin = match kernel.images.find_by_name("jikesrvm") {
            Some(id) => id,
            None => kernel.images.insert(
                Image::new("jikesrvm", 0x2000)
                    .with_symbols([Symbol::new("main", 0, 0x800), Symbol::new("bootRVM", 0x800, 0x1800)]),
            ),
        };
        Loader::load_image(kernel, pid, boot_bin, BIN_HINT);

        // Boot image + RVM.map.
        let mut boot = BootImage::jikes_standard();
        boot.install(kernel, pid, 0x0900_0000);

        // Native libraries: one image per distinct library, symbols laid
        // out 4 KiB apart per native function. Images are global (shared
        // by every process, like real shared libraries) but must be
        // mapped into *this* process; missing symbols are appended when
        // a second VM uses natives the first did not.
        let mut native_addrs = Vec::with_capacity(natives.len());
        for image_name in natives.image_names() {
            let id = match kernel.images.find_by_name(image_name) {
                Some(id) => id,
                None => kernel.images.insert(Image::new(image_name, 0x40000)),
            };
            for (_, f) in natives.iter().filter(|(_, f)| f.image == image_name) {
                let img = kernel.images.get_mut(id);
                if img.symbols().iter().all(|s| s.name != f.symbol) {
                    let off = img
                        .symbols()
                        .last()
                        .map(|s| s.offset + s.size + 0xc00)
                        .unwrap_or(0x1000);
                    img.add_symbol(Symbol::new(f.symbol.clone(), off, 0x400));
                }
            }
            if kernel.process(pid).unwrap().space.image_base(id).is_none() {
                Loader::load_image(kernel, pid, id, LIB_HINT);
            }
        }
        for (_, f) in natives.iter() {
            let img_id = kernel.images.find_by_name(&f.image).expect("native image mapped");
            let base = kernel
                .process(pid)
                .unwrap()
                .space
                .image_base(img_id)
                .expect("native image has a base");
            let sym = kernel
                .images
                .get(img_id)
                .symbols()
                .iter()
                .find(|s| s.name == f.symbol)
                .expect("native symbol registered")
                .clone();
            let kernel_range = f
                .kernel_symbol
                .as_deref()
                .map(|k| kernel.kernel_symbol_range(k));
            native_addrs.push(NativeAddrs {
                user: (base + sym.offset, base + sym.offset + sym.size),
                kernel: kernel_range,
            });
        }

        // The GC-managed heap (code + data interwound).
        let heap_region = Loader::map_anon(kernel, pid, config.heap_bytes, ANON_HINT);
        let heap = match (config.gc_mode, config.mature) {
            (GcMode::NonMoving, _) => Heap::non_moving(heap_region),
            (GcMode::Copying, Some(mc)) => Heap::with_mature(heap_region, mc),
            (GcMode::Copying, None) => Heap::new(heap_region),
        };

        // VM registration with the profiler (paper §3, Runtime Profiler).
        // The kernel generation distinguishes this incarnation from any
        // earlier process that held the same pid.
        let gen = kernel.generation(pid);
        hooks.on_vm_start(pid, gen, heap_region);

        let interp = Interp::new(&program);
        let n_methods = program.methods.len();
        let mut vm = Vm {
            pid,
            program,
            natives,
            native_addrs,
            boot,
            heap,
            hooks,
            interp,
            methods: (0..n_methods).map(|_| MethodState::default()).collect(),
            config,
            stats: VmStats::default(),
            fa_gc: (FracAcc::new(), FracAcc::new()),
            fa_native: (FracAcc::new(), FracAcc::new()),
            measuring: None,
        };

        // Class loading: charged to the boot classloader.
        let load_cycles = vm.config.costs.classload_cycles_per_method
            * (vm.program.methods.len() as u64 + vm.program.classes.len() as u64);
        vm.emit_internal(machine, &[(well_known::CLASSLOAD, 0.9), (well_known::MAIN_RUN, 0.1)], load_cycles);
        vm.stats.classloads = vm.program.methods.len() as u64;
        vm
    }

    pub fn program(&self) -> &ProgramDef {
        &self.program
    }

    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Current GC epoch (paper §3.1: one epoch per collection).
    pub fn epoch(&self) -> u64 {
        self.heap.collections
    }

    /// Current compiled-code range of a method, if compiled.
    pub fn code_range(&self, m: MethodId) -> Option<(Addr, Addr)> {
        self.methods[m.0 as usize].body.map(|b| self.heap.range_of(b))
    }

    /// Current optimization level of a method (meaningful once
    /// compiled).
    pub fn opt_level(&self, m: MethodId) -> OptLevel {
        self.methods[m.0 as usize].level
    }

    /// Allocate a long-lived object graph (caches, tables, warehouse
    /// state) rooted in statics: ~4 KiB arrays that survive every
    /// collection, get copied by the first few GCs and then mature.
    /// Charged to the allocation slow path.
    pub fn alloc_retained(&mut self, machine: &mut Machine, bytes: u64) {
        const ARRAY_SLOTS: usize = 512;
        // The retained set must leave the nursery workable: clamp to
        // half a semispace (it lives there until promoted) and to most
        // of the mature space (where it ends up).
        let budget = bytes
            .min(self.heap.semispace_bytes() / 2)
            .min(self.heap.mature_available().max(self.heap.semispace_bytes()) * 4 / 5);
        let mut allocated = 0u64;
        let mut count = 0u64;
        'outer: while allocated < budget {
            let r = {
                let mut gc_done = false;
                loop {
                    match self.heap.alloc_array(ARRAY_SLOTS) {
                        Ok(r) => break r,
                        Err(_) if !gc_done => {
                            self.do_gc(machine);
                            gc_done = true;
                        }
                        // No progress even after collecting: the heap is
                        // genuinely full — stop with what we have.
                        Err(_) => break 'outer,
                    }
                }
            };
            allocated += self.heap.get(r).byte_size;
            self.interp.statics.push(Value::Ref(Some(r)));
            count += 1;
        }
        let cycles = count * self.config.costs.alloc_cycles * 8; // slow path
        self.emit_internal(machine, &[(well_known::ALLOC_SLOWPATH, 1.0)], cycles);
    }

    /// VM shutdown: final agent flush (writes the last partial map).
    pub fn shutdown(&mut self, machine: &mut Machine) {
        let epoch = self.heap.collections;
        let cycles = self.hooks.on_vm_exit(epoch, &mut machine.kernel.vfs);
        if cycles > 0 {
            self.emit_internal(machine, &[(well_known::AGENT_MAPWRITE, 1.0)], cycles);
        }
    }

    /// Unclean death: the VM process vanishes from the kernel's table
    /// with *no* final map flush and no agent unregistration — exactly
    /// what a crash looks like to the profiler. The pid returns to the
    /// kernel's free list, so a later spawn may reuse it at a bumped
    /// generation. Consumes the VM; a restart is a fresh `Vm::boot`.
    pub fn kill(mut self, machine: &mut Machine) -> VmStats {
        machine.kernel.exit_process(self.pid);
        std::mem::take(&mut self.stats)
    }

    // ---------------- detailed execution ----------------

    /// Run the program's entry method.
    pub fn run(&mut self, machine: &mut Machine) -> Value {
        self.call(machine, self.program.entry, &[])
    }

    /// Call `method(args)`, interpreting/executing every op.
    pub fn call(&mut self, machine: &mut Machine, method: MethodId, args: &[Value]) -> Value {
        self.hooks
            .on_call(None, self.program.methods[method.0 as usize].name.as_str());
        self.prepare_invoke(machine, method);
        self.interp.enter(&self.program, method, args);
        let mut acc = BlockAcc::default();
        let result;
        loop {
            let pre_ctx = self.current_ctx();
            if acc.ctx.is_none() {
                acc.ctx = Some(pre_ctx);
            } else if acc.ctx != Some(pre_ctx) {
                self.flush(machine, &mut acc);
                acc.ctx = Some(pre_ctx);
            }
            match self.interp.step(&self.program, &mut self.heap, &self.natives) {
                Err(StepError::NeedGc { .. }) => {
                    self.flush(machine, &mut acc);
                    self.do_gc(machine);
                }
                Err(StepError::Halted) => unreachable!("loop exits on finished Ret"),
                Ok(info) => {
                    acc.ops += 1;
                    match pre_ctx.0 {
                        Tier::Interp => self.stats.ops_interpreted += 1,
                        Tier::Jit(_) => self.stats.ops_jit += 1,
                    }
                    if let Some(m) = &mut self.measuring {
                        m.ops += 1;
                    }
                    if let Some(addr) = info.heap_addr {
                        acc.heap_accesses += 1;
                        if let Some(m) = &mut self.measuring {
                            m.heap_accesses += 1;
                        }
                        if self.config.detailed_mem {
                            let kind = match info.op {
                                Op::PutField(_) | Op::AStore => MemAccess::write(addr),
                                _ => MemAccess::read(addr),
                            };
                            acc.detailed.push(kind);
                        }
                    }
                    match info.event {
                        StepEvent::Normal => {}
                        StepEvent::Backedge => {
                            acc.backedges += 1;
                            if let Some(m) = &mut self.measuring {
                                m.backedges += 1;
                            }
                            let (tier, mid) = pre_ctx;
                            let st = &mut self.methods[mid.0 as usize];
                            st.counters.backedges += 1;
                            // Periodic promotion check on loop backedges.
                            if st.counters.backedges.is_multiple_of(1024) {
                                if let Tier::Jit(level) = tier {
                                    if let Some(target) =
                                        self.config.aos.decide(level, &st.counters)
                                    {
                                        self.flush(machine, &mut acc);
                                        self.compile(machine, mid, target);
                                    }
                                }
                            }
                        }
                        StepEvent::Call(callee) => {
                            acc.calls += 1;
                            if let Some(m) = &mut self.measuring {
                                m.calls += 1;
                            }
                            acc.alloc_extra_cycles += self.hooks.on_call(
                                Some(self.program.methods[pre_ctx.1 .0 as usize].name.as_str()),
                                self.program.methods[callee.0 as usize].name.as_str(),
                            );
                            self.flush(machine, &mut acc);
                            self.prepare_invoke(machine, callee);
                        }
                        StepEvent::Ret { finished, value } => {
                            self.flush(machine, &mut acc);
                            if finished {
                                result = value;
                                break;
                            }
                        }
                        StepEvent::Native { id, arg0 } => {
                            acc.alloc_extra_cycles += self.hooks.on_call(
                                Some(self.program.methods[pre_ctx.1 .0 as usize].name.as_str()),
                                self.natives.get(id).symbol.as_str(),
                            );
                            self.flush(machine, &mut acc);
                            self.exec_native(machine, id, arg0, 1);
                        }
                        StepEvent::Alloc { bytes } => {
                            acc.alloc_extra_cycles += self.config.costs.alloc_cycles;
                            if let Some(m) = &mut self.measuring {
                                m.allocations += 1;
                                m.alloc_bytes += bytes;
                            }
                        }
                    }
                    if acc.ops as usize >= self.config.costs.quantum_ops {
                        self.flush(machine, &mut acc);
                    }
                }
            }
        }
        result
    }

    /// Context of the currently executing top frame.
    fn current_ctx(&self) -> (Tier, MethodId) {
        let mid = self
            .interp
            .current_method()
            .expect("no active frame");
        let st = &self.methods[mid.0 as usize];
        match st.body {
            Some(_) => (Tier::Jit(st.level), mid),
            None => (Tier::Interp, mid),
        }
    }

    /// Count an invocation and compile/promote per policy.
    fn prepare_invoke(&mut self, machine: &mut Machine, method: MethodId) {
        let st = &mut self.methods[method.0 as usize];
        st.counters.invocations += 1;
        let counters = st.counters;
        let has_body = st.body.is_some();
        let level = st.level;
        match self.config.tiering {
            Tiering::CompileOnFirstUse if !has_body => {
                self.compile(machine, method, OptLevel::Baseline);
            }
            Tiering::InterpretThenCompile { compile_threshold } if !has_body => {
                if counters.score() >= compile_threshold {
                    self.compile(machine, method, OptLevel::Baseline);
                }
            }
            _ => {
                if has_body {
                    if let Some(target) = self.config.aos.decide(level, &counters) {
                        self.compile(machine, method, target);
                    }
                }
            }
        }
    }

    /// Compile or recompile `method` at `level`.
    fn compile(&mut self, machine: &mut Machine, method: MethodId, level: OptLevel) {
        let decl = &self.program.methods[method.0 as usize];
        let weight: u64 = decl.code.iter().map(|o| o.size_weight() as u64).sum();
        let ops = decl.code.len() as u64;
        let size = (weight as f64 * self.config.costs.code_bytes_factor(level)).ceil() as u64;
        assert!(
            size + 32 < self.heap.semispace_bytes(),
            "method {} too large for the heap",
            decl.name
        );
        // Allocate the body, collecting as needed.
        let body = loop {
            match self.heap.alloc_code(method, size) {
                Ok(r) => break r,
                Err(_) => self.do_gc(machine),
            }
        };
        let is_recompile = self.methods[method.0 as usize].body.is_some();
        {
            let st = &mut self.methods[method.0 as usize];
            st.body = Some(body); // old body becomes garbage
            st.level = level;
            st.compiles += 1;
        }
        if is_recompile {
            self.stats.recompiles += 1;
        } else {
            self.stats.compiles += 1;
        }

        // Charge compilation time to the right boot methods.
        let cycles = ops * self.config.costs.compile_cycles_per_op(level);
        let parts = if level == OptLevel::Baseline {
            BASELINE_COMPILE_PARTS
        } else {
            OPT_COMPILE_PARTS
        };
        self.emit_internal(machine, parts, cycles);

        // VM Agent hook: log the fresh body (paper §3, VM Agent).
        let (addr, _) = self.heap.range_of(body);
        let info = CompiledBodyInfo {
            method,
            signature: &self.program.methods[method.0 as usize].name,
            addr,
            size: self.heap.get(body).byte_size,
            opt_level: level,
            is_recompile,
            epoch: self.heap.collections,
        };
        let hook_cycles = self.hooks.on_compile(&info);
        if hook_cycles > 0 {
            let lead = if level == OptLevel::Baseline {
                well_known::BASELINE_COMPILE
            } else {
                well_known::OPT_COMPILE
            };
            self.emit_internal(machine, &[(lead, 1.0)], hook_cycles);
        }
    }

    /// Run a garbage collection: agent map write, copy, move hooks,
    /// epoch bump — all charged to simulated time.
    pub fn do_gc(&mut self, machine: &mut Machine) {
        let ending_epoch = self.heap.collections;
        let agent_cycles = self
            .hooks
            .on_gc_begin(ending_epoch, &mut machine.kernel.vfs);

        let roots = self.interp.roots();
        let live_code: Vec<ObjRef> = self.methods.iter().filter_map(|m| m.body).collect();
        let mut move_cycles = 0u64;
        let Vm { heap, hooks, .. } = self;
        let stats = heap.collect(&roots, &live_code, |ev| {
            if let ObjKind::Code(mid) = ev.kind {
                move_cycles +=
                    hooks.on_code_moved(mid, ev.old_addr, ev.new_addr, ev.byte_size);
            }
        });
        self.stats.gcs += 1;

        // Copying dominates GC cost; mature (unmoved) objects only pay
        // the tracing fraction — the source of §4.3's amortization.
        let gc_cycles = self.config.costs.gc_base_cycles
            + (stats.copied_bytes as f64 * self.config.costs.gc_cycles_per_live_byte) as u64
            + (stats.live_bytes as f64 * self.config.costs.gc_cycles_per_live_byte * 0.15) as u64;
        // GC streams memory: statistical misses over the copied bytes.
        let accesses = stats.copied_bytes / 8;
        let l1 = self.fa_gc.0.take(GC_MEM.l1_miss_rate, accesses);
        let l2 = self.fa_gc.1.take(GC_MEM.l2_miss_rate, accesses);
        self.emit_internal_with_mem(machine, GC_PARTS, gc_cycles, l1, l2);
        // Move-flagging is inline in the GC; the map write is agent
        // library code (user) plus the actual file write (kernel) — the
        // profiler's own overhead is itself vertically profiled.
        if move_cycles > 0 {
            self.emit_internal(machine, &[(well_known::GC_COLLECT, 1.0)], move_cycles);
        }
        if agent_cycles > 0 {
            let user = agent_cycles * 3 / 10;
            let kern = agent_cycles - user;
            self.emit_internal(machine, &[(well_known::AGENT_MAPWRITE, 1.0)], user);
            let range = machine.kernel.kernel_symbol_range("sys_write");
            machine.exec(&BlockExec {
                pid: self.pid,
                mode: CpuMode::Kernel,
                pc_range: range,
                cycles: kern,
                instructions: kern,
                branches: kern / 24,
                mem: MemActivity::None,
            });
        }
        self.hooks.on_gc_end(self.heap.collections);
        if let Some(t) = &self.config.telemetry {
            use viprof_telemetry::{names, TraceLayer};
            let pause = gc_cycles + move_cycles;
            t.counter(names::VM_GC_COLLECTIONS).inc();
            // Retroactive pause span on the sim clock: the collection
            // ended at the cycles just charged to the machine.
            let end = machine.cpu.clock.cycles();
            let span = t.trace_begin_at(
                end.saturating_sub(pause),
                TraceLayer::Vm,
                names::SPAN_VM_GC,
                t.trace_root(),
            );
            t.trace_end_at(
                end,
                span,
                &[
                    ("epoch", ending_epoch),
                    ("copied_bytes", stats.copied_bytes),
                    ("pause_cycles", pause),
                ],
            );
        }
    }

    /// Execute `count` calls of a native function with argument `arg0`.
    fn exec_native(&mut self, machine: &mut Machine, id: NativeFnId, arg0: i64, count: u64) {
        let f = self.natives.get(id);
        let addrs = self.native_addrs[id.0 as usize];
        let (user, kernel) = f.cost(arg0);
        let accesses = f.accesses(arg0) * count;
        self.stats.native_calls += count;
        if let Some(m) = &mut self.measuring {
            let e = m.natives.entry(id).or_default();
            e.0 += count;
            e.1 += user * count;
            e.2 += kernel * count;
            e.3 += accesses;
        }

        let mem = if self.config.detailed_mem {
            // Stream over the native's scratch buffer: deterministic
            // sequential addresses, one per access.
            let base = 0x9000_0000u64 + id.0 as u64 * 0x0010_0000;
            let n = accesses.min(1 << 16); // cap per call-batch
            MemActivity::Detailed(
                (0..n)
                    .map(|i| MemAccess::write(base + (i * 64) % 0x0010_0000))
                    .collect(),
            )
        } else {
            let l1 = self.fa_native.0.take(f.mem.l1_miss_rate, accesses);
            let l2 = self.fa_native.1.take(f.mem.l2_miss_rate, accesses);
            MemActivity::Stats {
                l1d_misses: l1,
                l2_misses: l2,
            }
        };

        let user_cycles = user * count;
        if user_cycles > 0 {
            machine.exec(&BlockExec {
                pid: self.pid,
                mode: CpuMode::User,
                pc_range: addrs.user,
                cycles: user_cycles,
                instructions: (user_cycles as f64 * 1.2) as u64,
                branches: count,
                mem,
            });
        }
        if kernel > 0 {
            let range = addrs.kernel.expect("kernel cycles need a kernel symbol");
            machine.exec(&BlockExec {
                pid: self.pid,
                mode: CpuMode::Kernel,
                pc_range: range,
                cycles: kernel * count,
                instructions: (kernel * count) as f64 as u64,
                branches: count,
                mem: MemActivity::None,
            });
        }
    }

    /// Flush the accumulated app-execution block.
    fn flush(&mut self, machine: &mut Machine, acc: &mut BlockAcc) {
        let Some((tier, mid)) = acc.ctx else {
            debug_assert_eq!(acc.ops, 0);
            return;
        };
        if acc.ops == 0 && acc.alloc_extra_cycles == 0 {
            acc.detailed.clear();
            return;
        }
        let costs = &self.config.costs;
        let cycles =
            (acc.ops as f64 * costs.cycles_per_op(tier)).round() as u64 + acc.alloc_extra_cycles;
        let instructions = (acc.ops as f64 * costs.instrs_per_op(tier)).round() as u64;
        let pc_range = match tier {
            Tier::Interp => self.boot.range(well_known::INTERPRET),
            Tier::Jit(_) => {
                let body = self.methods[mid.0 as usize]
                    .body
                    .expect("JIT tier implies a body");
                self.heap.range_of(body)
            }
        };
        let mem = if self.config.detailed_mem {
            MemActivity::Detailed(std::mem::take(&mut acc.detailed))
        } else {
            let spec = self.program.methods[mid.0 as usize].mem;
            let st = &mut self.methods[mid.0 as usize];
            let l1 = st.fa_l1.take(spec.l1_miss_rate, acc.heap_accesses);
            let l2 = st.fa_l2.take(spec.l2_miss_rate, acc.heap_accesses);
            MemActivity::Stats {
                l1d_misses: l1,
                l2_misses: l2,
            }
        };
        machine.exec(&BlockExec {
            pid: self.pid,
            mode: CpuMode::User,
            pc_range,
            cycles,
            instructions,
            branches: acc.backedges + acc.calls,
            mem,
        });
        acc.ops = 0;
        acc.backedges = 0;
        acc.calls = 0;
        acc.heap_accesses = 0;
        acc.alloc_extra_cycles = 0;
        acc.detailed.clear();
        acc.ctx = None;
    }

    /// Emit VM-internal work spread over boot-image methods by weight.
    fn emit_internal(&mut self, machine: &mut Machine, parts: &[(&str, f64)], cycles: u64) {
        self.emit_internal_with_mem(machine, parts, cycles, 0, 0);
    }

    fn emit_internal_with_mem(
        &mut self,
        machine: &mut Machine,
        parts: &[(&str, f64)],
        cycles: u64,
        l1_misses: u64,
        l2_misses: u64,
    ) {
        if cycles == 0 {
            return;
        }
        let total_weight: f64 = parts.iter().map(|(_, w)| w).sum();
        let mut spent = 0u64;
        for (i, (name, w)) in parts.iter().enumerate() {
            let share = if i + 1 == parts.len() {
                cycles - spent // remainder to the last part: exact total
            } else {
                ((cycles as f64) * w / total_weight).round() as u64
            };
            spent += share;
            if share == 0 {
                continue;
            }
            let frac = share as f64 / cycles as f64;
            machine.exec(&BlockExec {
                pid: self.pid,
                mode: CpuMode::User,
                pc_range: self.boot.range(name),
                cycles: share,
                instructions: share, // VM internals ≈ IPC 1
                branches: share / 16,
                mem: MemActivity::Stats {
                    l1d_misses: (l1_misses as f64 * frac) as u64,
                    l2_misses: (l2_misses as f64 * frac) as u64,
                },
            });
        }
    }

    // ---------------- batched (fast-forward) execution ----------------

    /// Invoke `method(args)` `n` times. The first invocation (when no
    /// summary exists yet) runs through the detailed path and records a
    /// behaviour summary; the rest replay the summary in large blocks —
    /// with allocation pressure, GCs, epochs, recompilations and native
    /// calls all still happening on schedule. Returns the last computed
    /// result (batched invocations are assumed idempotent, which holds
    /// for every workload in this suite).
    pub fn run_batched(
        &mut self,
        machine: &mut Machine,
        method: MethodId,
        args: &[Value],
        n: u64,
    ) -> Value {
        if n == 0 {
            return Value::I64(0);
        }
        let mut remaining = n;
        let mut last = Value::I64(0);
        if self.methods[method.0 as usize].summary.is_none() {
            self.measuring = Some(InvocationSummary::default());
            last = self.call(machine, method, args);
            let s = self.measuring.take().expect("measurement in progress");
            self.methods[method.0 as usize].summary = Some(s);
            remaining -= 1;
        }

        // Out of the method's state while replaying; put back below.
        let summary = self.methods[method.0 as usize]
            .summary
            .take()
            .expect("summary just ensured");
        while remaining > 0 {
            let st = &self.methods[method.0 as usize];
            let tier = match st.body {
                Some(_) => Tier::Jit(st.level),
                None => Tier::Interp,
            };
            let cycles_per_inv =
                (summary.ops as f64 * self.config.costs.cycles_per_op(tier)).max(1.0);

            // Chunk boundaries: next GC, next promotion, block size cap.
            let until_gc = self
                .heap
                .available()
                .checked_div(summary.alloc_bytes)
                .map_or(u64::MAX, |n| n.max(1));
            let until_promote = {
                let c = st.counters;
                let next_threshold = match st.level {
                    OptLevel::Baseline => Some(self.config.aos.opt1_threshold),
                    OptLevel::Opt1 => Some(self.config.aos.opt2_threshold),
                    OptLevel::Opt2 => None,
                };
                match next_threshold {
                    Some(t) if st.body.is_some() => {
                        let score_per_inv = 1 + summary.backedges / 8;
                        let gap = t.saturating_sub(c.score());
                        (gap / score_per_inv.max(1)).max(1)
                    }
                    _ => u64::MAX,
                }
            };
            // Cap the block so PC interpolation stays fine-grained
            // relative to sampling periods (~10M cycles per block).
            let cap = ((10_000_000.0 / cycles_per_inv) as u64).max(1);
            let chunk = remaining.min(until_gc).min(until_promote).min(cap);

            // Account counters.
            {
                let st = &mut self.methods[method.0 as usize];
                st.counters.invocations += chunk;
                st.counters.backedges += summary.backedges * chunk;
            }
            self.stats.batched_invocations += chunk;
            match tier {
                Tier::Interp => self.stats.ops_interpreted += summary.ops * chunk,
                Tier::Jit(_) => self.stats.ops_jit += summary.ops * chunk,
            }

            // Emit the app block.
            let pc_range = match tier {
                Tier::Interp => self.boot.range(well_known::INTERPRET),
                Tier::Jit(_) => {
                    let body = self.methods[method.0 as usize].body.unwrap();
                    self.heap.range_of(body)
                }
            };
            let app_cycles = (cycles_per_inv * chunk as f64).round() as u64
                + summary.allocations * chunk * self.config.costs.alloc_cycles;
            let accesses = summary.heap_accesses * chunk;
            let spec = self.program.methods[method.0 as usize].mem;
            let (l1, l2) = {
                let st = &mut self.methods[method.0 as usize];
                (
                    st.fa_l1.take(spec.l1_miss_rate, accesses),
                    st.fa_l2.take(spec.l2_miss_rate, accesses),
                )
            };
            machine.exec(&BlockExec {
                pid: self.pid,
                mode: CpuMode::User,
                pc_range,
                cycles: app_cycles,
                instructions: ((summary.ops * chunk) as f64
                    * self.config.costs.instrs_per_op(tier))
                .round() as u64,
                branches: (summary.backedges + summary.calls) * chunk,
                mem: MemActivity::Stats {
                    l1d_misses: l1,
                    l2_misses: l2,
                },
            });

            // Natives, aggregated. Call edges are reported in batch so
            // the cross-layer call graph sees replayed invocations too.
            let mut edge_cycles = 0u64;
            for (&id, &(cnt, user, kern, accesses)) in &summary.natives {
                edge_cycles += self.hooks.on_call_batch(
                    Some(self.program.methods[method.0 as usize].name.as_str()),
                    self.natives.get(id).symbol.as_str(),
                    cnt * chunk,
                );
                self.emit_native_batched(machine, id, cnt * chunk, user * chunk, kern * chunk, accesses * chunk);
            }
            edge_cycles += self.hooks.on_call_batch(
                None,
                self.program.methods[method.0 as usize].name.as_str(),
                chunk,
            );
            if edge_cycles > 0 {
                machine.exec(&BlockExec {
                    pid: self.pid,
                    mode: CpuMode::User,
                    pc_range,
                    cycles: edge_cycles,
                    instructions: edge_cycles,
                    branches: 0,
                    mem: MemActivity::None,
                });
            }

            // Allocation pressure → GC on schedule.
            if summary.alloc_bytes > 0 {
                let mut bytes = summary.alloc_bytes * chunk;
                loop {
                    let consumed = self.heap.alloc_ephemeral(bytes);
                    bytes -= consumed;
                    if bytes == 0 {
                        break;
                    }
                    self.do_gc(machine);
                }
            }

            // Promotion on schedule.
            {
                let st = &self.methods[method.0 as usize];
                if st.body.is_some() {
                    if let Some(target) = self.config.aos.decide(st.level, &st.counters) {
                        self.compile(machine, method, target);
                    }
                }
            }

            remaining -= chunk;
        }
        self.methods[method.0 as usize].summary = Some(summary);
        last
    }

    /// Emit an aggregated native-call block (batched path).
    fn emit_native_batched(
        &mut self,
        machine: &mut Machine,
        id: NativeFnId,
        count: u64,
        user_cycles: u64,
        kernel_cycles: u64,
        accesses: u64,
    ) {
        let f = self.natives.get(id);
        let addrs = self.native_addrs[id.0 as usize];
        self.stats.native_calls += count;
        let l1 = self.fa_native.0.take(f.mem.l1_miss_rate, accesses);
        let l2 = self.fa_native.1.take(f.mem.l2_miss_rate, accesses);
        if user_cycles > 0 {
            machine.exec(&BlockExec {
                pid: self.pid,
                mode: CpuMode::User,
                pc_range: addrs.user,
                cycles: user_cycles,
                instructions: (user_cycles as f64 * 1.2) as u64,
                branches: count,
                mem: MemActivity::Stats {
                    l1d_misses: l1,
                    l2_misses: l2,
                },
            });
        }
        if kernel_cycles > 0 {
            let range = addrs.kernel.expect("kernel cycles need a kernel symbol");
            machine.exec(&BlockExec {
                pid: self.pid,
                mode: CpuMode::Kernel,
                pc_range: range,
                cycles: kernel_cycles,
                instructions: kernel_cycles,
                branches: count,
                mem: MemActivity::None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::MethodAsm;
    use crate::bytecode::ClassId;
    use crate::classes::ProgramBuilder;
    use crate::hooks::{NullHooks, RecordingHooks};
    use crate::natives::NativeFn;
    use sim_os::MachineConfig;
    use std::sync::{Arc, Mutex, PoisonError};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    fn simple_program() -> ProgramDef {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("Bench", 2);
        let mut a = MethodAsm::new();
        a.op(Op::Const(0)).op(Op::Store(0));
        a.counted_loop(1, 100, |l| {
            l.op(Op::Load(0)).op(Op::Const(1)).op(Op::Add).op(Op::Store(0));
        });
        a.op(Op::Load(0)).op(Op::Ret);
        let m = b.add_method(c, "Bench.loop", 0, 2, a.assemble().unwrap());
        b.set_entry(m);
        b.build().unwrap()
    }

    fn boot_simple(machine: &mut Machine, config: VmConfig) -> Vm {
        Vm::boot(
            machine,
            simple_program(),
            NativeRegistry::new(),
            config,
            Box::new(NullHooks),
        )
    }

    #[test]
    fn boot_maps_everything_and_registers() {
        let mut m = machine();
        let p = simple_program();
        // Hooks are boxed into the VM, so observe registration through a
        // shared wrapper.
        struct Shared(Arc<Mutex<RecordingHooks>>);
        impl VmProfilerHooks for Shared {
            fn on_vm_start(&mut self, pid: Pid, gen: u32, r: (Addr, Addr)) -> u64 {
                self.0.lock().unwrap_or_else(PoisonError::into_inner).on_vm_start(pid, gen, r)
            }
        }
        let rec = Arc::new(Mutex::new(RecordingHooks::default()));
        let vm = Vm::boot(
            &mut m,
            p,
            NativeRegistry::new(),
            VmConfig::default(),
            Box::new(Shared(rec.clone())),
        );
        assert_eq!(rec.lock().unwrap_or_else(PoisonError::into_inner).starts.len(), 1);
        let (pid, gen, range) = rec.lock().unwrap_or_else(PoisonError::into_inner).starts[0];
        assert_eq!(pid, vm.pid);
        assert_eq!(gen, 0, "first incarnation of a fresh pid");
        assert_eq!(range, vm.heap().region());
        // Boot image mapped, heap anon-mapped.
        let proc_ = m.kernel.process(vm.pid).unwrap();
        assert!(proc_.space.len() >= 3, "bootstrap + boot image + heap");
        // Class loading consumed simulated time.
        assert!(m.cpu.clock.cycles() > 0);
    }

    #[test]
    fn run_computes_correct_result_and_compiles_entry() {
        let mut m = machine();
        let mut vm = boot_simple(&mut m, VmConfig::default());
        let r = vm.run(&mut m);
        assert_eq!(r, Value::I64(100));
        assert_eq!(vm.stats.compiles, 1, "entry baseline-compiled on first use");
        assert!(vm.code_range(vm.program().entry).is_some());
        assert!(vm.stats.ops_jit > 0);
        assert_eq!(vm.stats.ops_interpreted, 0);
    }

    #[test]
    fn interpret_then_compile_exercises_interp_tier() {
        let mut m = machine();
        let mut vm = boot_simple(
            &mut m,
            VmConfig {
                tiering: Tiering::InterpretThenCompile {
                    compile_threshold: 3,
                },
                ..VmConfig::default()
            },
        );
        let entry = vm.program().entry;
        vm.call(&mut m, entry, &[]);
        assert!(vm.stats.ops_interpreted > 0, "first call interpreted");
        assert_eq!(vm.stats.compiles, 0);
        vm.call(&mut m, entry, &[]);
        vm.call(&mut m, entry, &[]); // third invocation crosses threshold
        assert_eq!(vm.stats.compiles, 1);
        assert!(vm.stats.ops_jit > 0);
    }

    #[test]
    fn hot_method_gets_recompiled() {
        let mut m = machine();
        let mut vm = boot_simple(
            &mut m,
            VmConfig {
                aos: AosPolicy {
                    opt1_threshold: 2,
                    opt2_threshold: 8,
                },
                ..VmConfig::default()
            },
        );
        let entry = vm.program().entry;
        for _ in 0..20 {
            vm.call(&mut m, entry, &[]);
        }
        assert!(vm.stats.recompiles >= 1, "eager AOS must promote");
        assert!(vm.opt_level(entry) > OptLevel::Baseline);
    }

    fn alloc_heavy_program() -> ProgramDef {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("Alloc", 8);
        let mut a = MethodAsm::new();
        a.counted_loop(0, 2_000, |l| {
            l.op(Op::New(ClassId(0))).op(Op::Pop);
        });
        a.op(Op::Const(0)).op(Op::Ret);
        let m = b.add_method(c, "Alloc.churn", 0, 1, a.assemble().unwrap());
        b.set_entry(m);
        b.build().unwrap()
    }

    #[test]
    fn allocation_pressure_drives_gc_and_epochs() {
        let mut m = machine();
        let mut vm = Vm::boot(
            &mut m,
            alloc_heavy_program(),
            NativeRegistry::new(),
            VmConfig {
                heap_bytes: 32 * 1024, // 16 KiB semispaces
                ..VmConfig::default()
            },
            Box::new(NullHooks),
        );
        vm.run(&mut m);
        assert!(vm.stats.gcs > 0, "tiny heap must collect");
        assert_eq!(vm.epoch(), vm.stats.gcs);
    }

    #[test]
    fn gc_moves_code_and_fires_move_hooks() {
        struct MoveCounter(Arc<Mutex<u64>>);
        impl VmProfilerHooks for MoveCounter {
            fn on_code_moved(&mut self, _m: MethodId, _o: Addr, _n: Addr, _s: u64) -> u64 {
                *self.0.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                10
            }
        }
        let moves = Arc::new(Mutex::new(0u64));
        let mut m = machine();
        let mut vm = Vm::boot(
            &mut m,
            alloc_heavy_program(),
            NativeRegistry::new(),
            VmConfig {
                heap_bytes: 32 * 1024,
                ..VmConfig::default()
            },
            Box::new(MoveCounter(moves.clone())),
        );
        let entry = vm.program().entry;
        let before = vm.code_range(entry);
        vm.run(&mut m);
        assert!(
            *moves.lock().unwrap_or_else(PoisonError::into_inner) > 0,
            "live code body must move during GC"
        );
        assert_ne!(vm.code_range(entry), before, "body address changed");
    }

    #[test]
    fn native_calls_emit_user_and_kernel_blocks() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("N", 0);
        let mut natives = NativeRegistry::new();
        let ms = natives.register(NativeFn::memset());
        let wr = natives.register(NativeFn::sys_write());
        let m = b.add_method(
            c,
            "N.io",
            0,
            0,
            vec![
                Op::Const(4096),
                Op::NativeCall(ms),
                Op::Pop,
                Op::Const(64),
                Op::NativeCall(wr),
                Op::Ret,
            ],
        );
        b.set_entry(m);
        let mut mach = machine();
        let mut vm = Vm::boot(
            &mut mach,
            b.build().unwrap(),
            natives,
            VmConfig::default(),
            Box::new(NullHooks),
        );
        let before = mach.cpu.clock.cycles();
        vm.run(&mut mach);
        assert_eq!(vm.stats.native_calls, 2);
        assert!(mach.cpu.clock.cycles() > before);
    }

    #[test]
    fn batched_run_matches_detailed_cycle_cost_approximately() {
        // Run the same workload detailed vs batched; total simulated
        // time must agree closely (same cost model, different engine).
        let total_invocations = 50;

        let mut m1 = machine();
        let mut vm1 = boot_simple(&mut m1, VmConfig::default());
        let e1 = vm1.program().entry;
        let start1 = m1.cpu.clock.cycles();
        for _ in 0..total_invocations {
            vm1.call(&mut m1, e1, &[]);
        }
        let detailed = m1.cpu.clock.cycles() - start1;

        let mut m2 = machine();
        let mut vm2 = boot_simple(&mut m2, VmConfig::default());
        let e2 = vm2.program().entry;
        let start2 = m2.cpu.clock.cycles();
        vm2.run_batched(&mut m2, e2, &[], total_invocations);
        let batched = m2.cpu.clock.cycles() - start2;

        let ratio = batched as f64 / detailed as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "batched {batched} vs detailed {detailed} (ratio {ratio})"
        );
        assert_eq!(vm2.stats.batched_invocations, total_invocations - 1);
    }

    #[test]
    fn batched_run_triggers_gcs_and_promotions() {
        let mut m = machine();
        let mut vm = Vm::boot(
            &mut m,
            alloc_heavy_program(),
            NativeRegistry::new(),
            VmConfig {
                heap_bytes: 256 * 1024,
                aos: AosPolicy {
                    opt1_threshold: 10,
                    opt2_threshold: 100,
                },
                ..VmConfig::default()
            },
            Box::new(NullHooks),
        );
        let entry = vm.program().entry;
        vm.run_batched(&mut m, entry, &[], 500);
        assert!(vm.stats.gcs > 1, "ephemeral pressure must collect repeatedly");
        assert!(vm.stats.recompiles >= 1, "hotness must promote");
        assert_eq!(vm.opt_level(entry), OptLevel::Opt2);
    }

    #[test]
    fn detailed_mem_mode_drives_the_real_cache_hierarchy() {
        // A scratch array far larger than L1D (16 KiB): walking it with
        // real addresses through the cache simulator must produce L1
        // misses; the same program with stats-mode and a zero-miss spec
        // must produce none.
        let build = || {
            let mut b = ProgramBuilder::new();
            let c = b.add_class("Mem", 0);
            let mut a = MethodAsm::new();
            a.op(Op::Const(16_384)).op(Op::NewArray).op(Op::Store(0));
            a.op(Op::Const(0)).op(Op::Store(1));
            a.counted_loop(2, 16_000, |l| {
                // a[i*8 % len] = i  (stride-8 slots = 64-byte lines)
                l.op(Op::Load(0))
                    .op(Op::Load(1))
                    .op(Op::Const(8))
                    .op(Op::Mul)
                    .op(Op::Const(16_384))
                    .op(Op::Rem)
                    .op(Op::Load(1))
                    .op(Op::AStore);
                l.op(Op::Load(1)).op(Op::Const(1)).op(Op::Add).op(Op::Store(1));
            });
            a.op(Op::Const(0)).op(Op::Ret);
            let m = b.add_method(c, "Mem.walk", 0, 3, a.assemble().unwrap());
            b.set_entry(m);
            b.set_mem(m, crate::classes::MemSpec::new(0.0, 0.0));
            b.build().unwrap()
        };

        let run = |detailed: bool| {
            let mut machine = Machine::new(sim_os::MachineConfig::default());
            machine
                .cpu
                .program_counter(sim_cpu::CounterSpec::new(sim_cpu::HwEvent::L1DMiss, 1));
            let mut vm = Vm::boot(
                &mut machine,
                build(),
                NativeRegistry::new(),
                VmConfig {
                    heap_bytes: 2 * 1024 * 1024,
                    detailed_mem: detailed,
                    ..VmConfig::default()
                },
                Box::new(NullHooks),
            );
            vm.run(&mut machine);
            // A period of 1 delivers one sample per miss.
            machine.cpu.stats.samples_delivered
        };

        let detailed_misses = run(true);
        let stats_misses = run(false);
        assert!(
            detailed_misses > 1_000,
            "a 128 KiB walk must miss a 16 KiB L1D: {detailed_misses}"
        );
        assert_eq!(
            stats_misses, 0,
            "stats mode with a zero-rate MemSpec reports no misses"
        );
    }

    #[test]
    fn retained_data_survives_collections_and_matures() {
        let mut m = machine();
        let mut vm = Vm::boot(
            &mut m,
            alloc_heavy_program(),
            NativeRegistry::new(),
            VmConfig {
                heap_bytes: 1024 * 1024,
                ..VmConfig::default()
            },
            Box::new(NullHooks),
        );
        vm.alloc_retained(&mut m, 128 * 1024);
        let live_before = vm.heap().live_object_count();
        assert!(live_before >= 128 * 1024 / 4128, "retained arrays exist");
        // Churn through several collections.
        for _ in 0..12 {
            vm.run(&mut m);
        }
        assert!(vm.stats.gcs >= 4, "churn must collect: {}", vm.stats.gcs);
        // The retained arrays are still live (statics root them)…
        assert!(vm.heap().live_object_count() >= live_before);
        // …and have been promoted to the mature space by now.
        assert!(vm.heap().promotions > 0);
    }

    #[test]
    fn retained_request_larger_than_heap_is_clamped_not_fatal() {
        let mut m = machine();
        let mut vm = boot_simple(
            &mut m,
            VmConfig {
                heap_bytes: 64 * 1024,
                ..VmConfig::default()
            },
        );
        // Ask for 10 MiB in a 64 KiB heap: must terminate and leave the
        // VM usable.
        vm.alloc_retained(&mut m, 10 * 1024 * 1024);
        let r = vm.run(&mut m);
        assert_eq!(r, Value::I64(100));
    }

    #[test]
    fn statics_survive_across_calls() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("S", 0);
        let m = b.add_method(c, "S.get", 0, 0, vec![Op::Const(5), Op::Ret]);
        b.set_entry(m);
        b.reserve_statics(4);
        let mut mach = machine();
        let mut vm = Vm::boot(
            &mut mach,
            b.build().unwrap(),
            NativeRegistry::new(),
            VmConfig::default(),
            Box::new(NullHooks),
        );
        vm.interp.statics[2] = Value::I64(99);
        vm.run(&mut mach);
        assert_eq!(vm.interp.statics[2], Value::I64(99));
    }
}
