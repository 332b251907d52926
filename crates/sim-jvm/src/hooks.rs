//! The profiler hook seam — where VIProf's VM Agent attaches.
//!
//! The paper's VM Agent is "a library with several hooks in the VM's
//! code" (§3): instructions added to the compile and recompile methods,
//! an instrumented GC move method that only *flags* moved bodies, and a
//! map-write step just before each garbage collection. This trait is
//! that set of hook points. Every hook returns the cycles its body
//! consumed so the VM can charge agent work to simulated time — the
//! source of the VIProf-vs-OProfile overhead delta in Figure 2.

use crate::aos::OptLevel;
use crate::bytecode::MethodId;
use sim_cpu::{Addr, Pid};
use sim_os::Vfs;

/// Everything the VM tells the agent about a (re)compilation. The
/// signature is borrowed from the program's method table: the VM
/// copies no text to announce a compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledBodyInfo<'a> {
    pub method: MethodId,
    /// Fully-qualified method signature (what the code map records).
    pub signature: &'a str,
    /// Start address of the fresh code body.
    pub addr: Addr,
    /// Machine-code size in bytes.
    pub size: u64,
    pub opt_level: OptLevel,
    pub is_recompile: bool,
    /// GC epoch during which the body was produced.
    pub epoch: u64,
}

/// Profiler hooks. All methods return consumed cycles.
pub trait VmProfilerHooks: Send {
    /// VM startup: the paper's VM *registration* — PID, incarnation
    /// generation and heap boundaries handed to the runtime profiler.
    /// `gen` is the kernel's per-pid generation counter, so a restarted
    /// VM (or a reused pid) registers as a distinct incarnation.
    fn on_vm_start(&mut self, _pid: Pid, _gen: u32, _heap_range: (Addr, Addr)) -> u64 {
        0
    }

    /// A method was compiled or recompiled.
    fn on_compile(&mut self, _info: &CompiledBodyInfo<'_>) -> u64 {
        0
    }

    /// GC moved a code body (the agent only flags it — §3).
    fn on_code_moved(&mut self, _method: MethodId, _old: Addr, _new: Addr, _size: u64) -> u64 {
        0
    }

    /// Just before collection `ending_epoch` runs: the agent writes the
    /// partial code map for that epoch (§3.1: "we perform this write
    /// just before the launching of the garbage collection").
    fn on_gc_begin(&mut self, _ending_epoch: u64, _vfs: &mut Vfs) -> u64 {
        0
    }

    /// Collection finished; `new_epoch` begins.
    fn on_gc_end(&mut self, _new_epoch: u64) -> u64 {
        0
    }

    /// VM shutdown: final map flush.
    fn on_vm_exit(&mut self, _final_epoch: u64, _vfs: &mut Vfs) -> u64 {
        0
    }

    /// A call edge was executed (caller → callee), including calls into
    /// native code — the raw feed for VIProf's cross-layer
    /// call-sequence profiles (paper §4.2 mentions the capability).
    /// `caller` is `None` for top-level entry invocations. Only the
    /// detailed execution path reports edges.
    fn on_call(&mut self, _caller: Option<&str>, _callee: &str) -> u64 {
        0
    }

    /// Batched-execution variant: `count` identical edges executed as
    /// one replayed chunk.
    fn on_call_batch(&mut self, _caller: Option<&str>, _callee: &str, _count: u64) -> u64 {
        0
    }
}

/// No profiler attached (base runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHooks;

impl VmProfilerHooks for NullHooks {}

/// Test helper: counts hook invocations at configurable cost.
#[derive(Debug, Default)]
pub struct RecordingHooks {
    pub starts: Vec<(Pid, u32, (Addr, Addr))>,
    /// Each compiled method and the signature it was announced with.
    pub compiles: Vec<(MethodId, String)>,
    pub moves: Vec<(MethodId, Addr, Addr)>,
    pub gc_begins: Vec<u64>,
    pub gc_ends: Vec<u64>,
    pub exits: u64,
    pub cost_per_hook: u64,
}

impl VmProfilerHooks for RecordingHooks {
    fn on_vm_start(&mut self, pid: Pid, gen: u32, heap_range: (Addr, Addr)) -> u64 {
        self.starts.push((pid, gen, heap_range));
        self.cost_per_hook
    }

    fn on_compile(&mut self, info: &CompiledBodyInfo<'_>) -> u64 {
        self.compiles.push((info.method, info.signature.to_string()));
        self.cost_per_hook
    }

    fn on_code_moved(&mut self, method: MethodId, old: Addr, new: Addr, _size: u64) -> u64 {
        self.moves.push((method, old, new));
        self.cost_per_hook
    }

    fn on_gc_begin(&mut self, ending_epoch: u64, _vfs: &mut Vfs) -> u64 {
        self.gc_begins.push(ending_epoch);
        self.cost_per_hook
    }

    fn on_gc_end(&mut self, new_epoch: u64) -> u64 {
        self.gc_ends.push(new_epoch);
        self.cost_per_hook
    }

    fn on_vm_exit(&mut self, _final_epoch: u64, _vfs: &mut Vfs) -> u64 {
        self.exits += 1;
        self.cost_per_hook
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_hooks_are_free() {
        let mut h = NullHooks;
        assert_eq!(h.on_vm_start(Pid(1), 0, (0, 100)), 0);
        assert_eq!(h.on_gc_end(3), 0);
        assert_eq!(
            h.on_code_moved(MethodId(0), 0x10, 0x20, 64),
            0
        );
    }

    #[test]
    fn recording_hooks_capture_everything() {
        let mut h = RecordingHooks {
            cost_per_hook: 5,
            ..Default::default()
        };
        let mut vfs = Vfs::new();
        assert_eq!(h.on_vm_start(Pid(2), 1, (0x100, 0x200)), 5);
        assert_eq!(h.on_gc_begin(0, &mut vfs), 5);
        assert_eq!(h.on_gc_end(1), 5);
        h.on_vm_exit(1, &mut vfs);
        assert_eq!(h.starts, vec![(Pid(2), 1, (0x100, 0x200))]);
        assert_eq!(h.gc_begins, vec![0]);
        assert_eq!(h.gc_ends, vec![1]);
        assert_eq!(h.exits, 1);
    }
}
