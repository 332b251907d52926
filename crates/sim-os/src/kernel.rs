//! The simulated kernel: process table, image table, PC resolution and
//! the NMI dispatch context OProfile's kernel module plugs into.

use crate::image::{Image, ImageId, ImageTable, Symbol};
use crate::process::Process;
use crate::vfs::Vfs;
use crate::vma::{Vma, VmaBacking};
use sim_cpu::{Addr, CpuMode, Pid};
use std::collections::BTreeMap;

/// Base virtual address of kernel text. Matches the default NMI vector
/// in `sim_cpu::CpuConfig` so handler cycles resolve to kernel symbols.
pub const KERNEL_TEXT_BASE: Addr = 0xffff_ffff_8000_0000;

/// Result of resolving a sampled PC, the way OProfile's driver does it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Image and offset within it, when the PC is file-backed (or
    /// kernel text).
    pub image: Option<(ImageId, u64)>,
    /// The VMA the PC fell into, when it belongs to a live process
    /// mapping (kernel text has no VMA here).
    pub vma: Option<Vma>,
}

impl Resolution {
    pub const UNKNOWN: Resolution = Resolution {
        image: None,
        vma: None,
    };

    pub fn is_anon(&self) -> bool {
        self.image.is_none() && matches!(self.vma, Some(v) if v.is_anon())
    }
}

/// The kernel.
#[derive(Debug)]
pub struct Kernel {
    pub images: ImageTable,
    processes: BTreeMap<u32, Process>,
    next_pid: u32,
    /// PIDs freed by `exit_process`, reused LIFO (most recently freed
    /// first) before `next_pid` advances — the deterministic analogue
    /// of a real kernel recycling low pid numbers.
    free_pids: Vec<u32>,
    /// Highest generation ever assigned per PID, including exited
    /// processes (the live process also carries its own `gen`).
    generations: BTreeMap<u32, u32>,
    /// The `vmlinux` image: kernel text symbols.
    pub kernel_image: ImageId,
    pub vfs: Vfs,
}

/// Kernel text symbols, roughly the set that shows up in OProfile
/// output on a 2.6 kernel under a JVM workload. Offsets/sizes are
/// arbitrary but fixed; the NMI handler must be first so that handler
/// cycles (charged at the NMI vector) resolve to it.
const KERNEL_SYMBOLS: &[(&str, u64, u64)] = &[
    ("nmi_int", 0x0000, 0x1000),
    ("do_page_fault", 0x1000, 0x2000),
    ("schedule", 0x3000, 0x1800),
    ("sys_write", 0x4800, 0x0800),
    ("sys_read", 0x5000, 0x0800),
    ("do_gettimeofday", 0x5800, 0x0400),
    ("copy_to_user", 0x5c00, 0x0c00),
    ("copy_from_user", 0x6800, 0x0c00),
    ("kmalloc", 0x7400, 0x0800),
    ("clear_page", 0x7c00, 0x0400),
    ("timer_interrupt", 0x8000, 0x0800),
    ("do_brk", 0x8800, 0x0800),
    ("sys_mmap", 0x9000, 0x1000),
];

impl Kernel {
    pub fn new() -> Self {
        let mut images = ImageTable::new();
        let kernel_image = images.insert(
            Image::new("vmlinux", 0x10000).with_symbols(
                KERNEL_SYMBOLS
                    .iter()
                    .map(|(n, o, s)| Symbol::new(*n, *o, *s)),
            ),
        );
        Kernel {
            images,
            processes: BTreeMap::new(),
            next_pid: 1,
            free_pids: Vec::new(),
            generations: BTreeMap::new(),
            kernel_image,
            vfs: Vfs::new(),
        }
    }

    /// Create a process. Freed PIDs are reused LIFO before fresh PIDs
    /// are handed out sequentially from 1; a reused PID gets its
    /// generation counter bumped so the new incarnation is
    /// distinguishable from every earlier one.
    pub fn spawn(&mut self, name: impl Into<String>) -> Pid {
        let (raw, gen) = match self.free_pids.pop() {
            Some(raw) => (raw, self.generations.get(&raw).map_or(0, |g| g + 1)),
            None => {
                let raw = self.next_pid;
                self.next_pid += 1;
                (raw, 0)
            }
        };
        self.generations.insert(raw, gen);
        self.processes
            .insert(raw, Process::with_gen(Pid(raw), name, gen));
        Pid(raw)
    }

    /// Tear down a process: remove it from the table and return its
    /// PID to the free list for reuse. Returns the removed process, or
    /// `None` if the PID names nothing live.
    pub fn exit_process(&mut self, pid: Pid) -> Option<Process> {
        let p = self.processes.remove(&pid.0)?;
        self.free_pids.push(pid.0);
        Some(p)
    }

    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.processes.get(&pid.0)
    }

    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.processes.get_mut(&pid.0)
    }

    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.processes.values()
    }

    /// Current generation of a PID: the live process's generation, or
    /// the last incarnation's if the PID is free. 0 for PIDs never
    /// handed out.
    pub fn generation(&self, pid: Pid) -> u32 {
        self.generations.get(&pid.0).copied().unwrap_or(0)
    }

    /// Insert a fully-formed process (session import); future `spawn`s
    /// won't collide with its PID, and its generation is recorded so a
    /// later reuse of the PID bumps past it.
    pub fn insert_process(&mut self, p: Process) {
        self.next_pid = self.next_pid.max(p.pid.0 + 1);
        let gen = self.generations.get(&p.pid.0).map_or(p.gen, |g| p.gen.max(*g));
        self.generations.insert(p.pid.0, gen);
        self.processes.insert(p.pid.0, p);
    }

    /// Address range of a kernel text symbol (for building kernel-mode
    /// execution blocks).
    pub fn kernel_symbol_range(&self, name: &str) -> (Addr, Addr) {
        let img = self.images.get(self.kernel_image);
        let sym = img
            .symbols()
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown kernel symbol {name}"));
        (
            KERNEL_TEXT_BASE + sym.offset,
            KERNEL_TEXT_BASE + sym.offset + sym.size,
        )
    }

    /// Resolve a sampled PC exactly the way OProfile's kernel module
    /// does: kernel-mode PCs against kernel text, user-mode PCs against
    /// the interrupted process's VMA list.
    pub fn resolve_pc(&self, pid: Pid, pc: Addr, mode: CpuMode) -> Resolution {
        if mode.is_kernel() || pc >= KERNEL_TEXT_BASE {
            let offset = pc.wrapping_sub(KERNEL_TEXT_BASE);
            if offset < self.images.get(self.kernel_image).text_size {
                return Resolution {
                    image: Some((self.kernel_image, offset)),
                    vma: None,
                };
            }
            return Resolution::UNKNOWN;
        }
        let Some(proc_) = self.process(pid) else {
            return Resolution::UNKNOWN;
        };
        let Some(vma) = proc_.space.lookup(pc) else {
            return Resolution::UNKNOWN;
        };
        let image = match vma.backing {
            VmaBacking::Image { image, file_offset } => {
                Some((image, pc - vma.start + file_offset))
            }
            VmaBacking::Anon => None,
        };
        Resolution {
            image,
            vma: Some(*vma),
        }
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

#[cfg(test)]
impl Kernel {
    /// Resolve a PC all the way to `(image, symbol)` names.
    pub(crate) fn symbolize(&self, pid: Pid, pc: Addr, mode: CpuMode) -> Option<(String, String)> {
        let (image_id, offset) = self.resolve_pc(pid, pc, mode).image?;
        let img = self.images.get(image_id);
        let sym = img.resolve(offset)?;
        Some((img.name.clone(), sym.name.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    #[test]
    fn spawn_assigns_sequential_pids() {
        let mut k = Kernel::new();
        assert_eq!(k.spawn("a"), Pid(1));
        assert_eq!(k.spawn("b"), Pid(2));
        assert_eq!(k.process(Pid(2)).unwrap().name, "b");
        assert!(k.process(Pid(99)).is_none());
    }

    #[test]
    fn exited_pids_are_reused_lifo_with_bumped_generations() {
        let mut k = Kernel::new();
        let a = k.spawn("a"); // Pid(1) gen 0
        let b = k.spawn("b"); // Pid(2) gen 0
        assert_eq!(k.generation(a), 0);
        assert!(k.exit_process(a).is_some());
        assert!(k.exit_process(b).is_some());
        assert!(k.process(a).is_none());
        // LIFO: b's pid (freed last) comes back first, generation bumped.
        let c = k.spawn("c");
        assert_eq!(c, b);
        assert_eq!(k.process(c).unwrap().gen, 1);
        assert_eq!(k.process(c).map(Process::key), Some(sim_cpu::ProcKey::new(b, 1)));
        let d = k.spawn("d");
        assert_eq!(d, a);
        assert_eq!(k.generation(d), 1);
        // Free list drained: fresh pids resume where next_pid left off.
        assert_eq!(k.spawn("e"), Pid(3));
        assert_eq!(k.generation(Pid(3)), 0);
    }

    #[test]
    fn exit_of_unknown_pid_is_none_and_generation_survives_exit() {
        let mut k = Kernel::new();
        assert!(k.exit_process(Pid(5)).is_none());
        let p = k.spawn("p");
        k.exit_process(p);
        // The last incarnation's generation is still queryable.
        assert_eq!(k.generation(p), 0);
        let p2 = k.spawn("q");
        k.exit_process(p2);
        let p3 = k.spawn("r");
        assert_eq!((p2, p3), (p, p));
        assert_eq!(k.generation(p), 2);
    }

    #[test]
    fn insert_process_records_imported_generation() {
        let mut k = Kernel::new();
        k.insert_process(Process::with_gen(Pid(4), "imported", 3));
        assert_eq!(k.generation(Pid(4)), 3);
        // A fresh spawn skips past the imported pid.
        assert_eq!(k.spawn("next"), Pid(5));
        // Reuse after exit bumps past the imported generation.
        k.exit_process(Pid(4));
        let again = k.spawn("again");
        assert_eq!(again, Pid(4));
        assert_eq!(k.process(again).unwrap().gen, 4);
    }

    #[test]
    fn kernel_pc_resolves_to_vmlinux_symbol() {
        let k = Kernel::new();
        let (start, _) = k.kernel_symbol_range("schedule");
        let (img, sym) = k.symbolize(Pid(1), start + 0x10, CpuMode::Kernel).unwrap();
        assert_eq!(img, "vmlinux");
        assert_eq!(sym, "schedule");
    }

    #[test]
    fn nmi_vector_resolves_to_nmi_int() {
        let k = Kernel::new();
        // The default CPU NMI vector is KERNEL_TEXT_BASE..+0x1000.
        let (img, sym) = k
            .symbolize(Pid(1), KERNEL_TEXT_BASE + 0x10, CpuMode::Kernel)
            .unwrap();
        assert_eq!((img.as_str(), sym.as_str()), ("vmlinux", "nmi_int"));
    }

    #[test]
    fn user_pc_resolves_through_process_vmas() {
        let mut k = Kernel::new();
        let libc = k
            .images
            .insert(Image::new("libc.so", 0x1000).with_symbols([Symbol::new("memset", 0x100, 0x80)]));
        let pid = k.spawn("app");
        k.process_mut(pid)
            .unwrap()
            .space
            .map(Vma::image(0x40000, 0x41000, libc, 0))
            .unwrap();
        let (img, sym) = k.symbolize(pid, 0x40110, CpuMode::User).unwrap();
        assert_eq!((img.as_str(), sym.as_str()), ("libc.so", "memset"));
    }

    #[test]
    fn anon_pc_is_classified_anon_not_symbolized() {
        let mut k = Kernel::new();
        let pid = k.spawn("jvm");
        k.process_mut(pid)
            .unwrap()
            .space
            .map(Vma::anon(0x60000000, 0x65000000))
            .unwrap();
        let r = k.resolve_pc(pid, 0x61000000, CpuMode::User);
        assert!(r.is_anon());
        assert!(k.symbolize(pid, 0x61000000, CpuMode::User).is_none());
    }

    #[test]
    fn unknown_pid_or_unmapped_pc_is_unknown() {
        let mut k = Kernel::new();
        assert_eq!(k.resolve_pc(Pid(9), 0x1234, CpuMode::User), Resolution::UNKNOWN);
        let pid = k.spawn("p");
        assert_eq!(k.resolve_pc(pid, 0x1234, CpuMode::User), Resolution::UNKNOWN);
    }

    #[test]
    fn kernel_pc_past_text_is_unknown() {
        let k = Kernel::new();
        let r = k.resolve_pc(Pid(1), KERNEL_TEXT_BASE + 0x20000, CpuMode::Kernel);
        assert_eq!(r, Resolution::UNKNOWN);
    }
}
