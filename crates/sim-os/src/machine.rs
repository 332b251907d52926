//! The whole machine: CPU + kernel + pluggable profiler + services.
//!
//! Every layer above (JVM, workloads) executes by handing
//! [`sim_cpu::BlockExec`]s to [`Machine::exec`]. The machine routes
//! counter-overflow NMIs to the installed handler (the profiler's
//! kernel driver) and, after each block, polls registered
//! [`MachineService`]s — most importantly the profiler's userspace
//! daemon, which wakes on its timer, drains the sample buffer and burns
//! its own (sampled!) cycles.
//!
//! The profiler handler is an [`OsNmiHandler`]: unlike the raw
//! `sim_cpu::NmiHandler` it receives `&Kernel`, because a real HPC
//! driver resolves the interrupted PC against the current task's memory
//! map *inside the NMI* — that lookup (and its cost) is the heart of
//! both OProfile's and VIProf's logging paths.

use crate::kernel::Kernel;
use crate::rng::SplitMix64;
use sim_cpu::{BlockEvents, BlockExec, Cpu, CpuConfig, NmiHandler, SampleContext};
use std::sync::{Arc, Mutex, PoisonError};

/// A profiler's kernel-side interrupt handler, with kernel access.
pub trait OsNmiHandler: Send {
    /// Handle one overflow; returns cycles consumed.
    fn handle_overflow(&mut self, kernel: &Kernel, ctx: &SampleContext) -> u64;
}

/// Handler used when profiling is off.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsNullHandler;

impl OsNmiHandler for OsNullHandler {
    fn handle_overflow(&mut self, _kernel: &Kernel, _ctx: &SampleContext) -> u64 {
        0
    }
}

/// Shared, lockable NMI handler. The profiler driver state lives behind
/// this so the daemon service (and tests) can reach it while it is
/// installed as the machine's handler.
pub type SharedHandler = Arc<Mutex<dyn OsNmiHandler + Send>>;

/// Wrap a concrete handler into a [`SharedHandler`].
pub fn share_handler<H: OsNmiHandler + 'static>(h: H) -> SharedHandler {
    Arc::new(Mutex::new(h))
}

/// Adapter: locks the shared handler and lends the kernel per delivery.
struct LockedHandler<'a> {
    handler: &'a SharedHandler,
    kernel: &'a Kernel,
}

impl NmiHandler for LockedHandler<'_> {
    fn handle_overflow(&mut self, ctx: &SampleContext) -> u64 {
        self.handler
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .handle_overflow(self.kernel, ctx)
    }
}

/// Context passed to services so they can execute work on the machine
/// without fighting the borrow checker over `Machine` itself.
pub struct MachineCtx<'a> {
    pub cpu: &'a mut Cpu,
    pub kernel: &'a mut Kernel,
    pub handler: &'a SharedHandler,
    pub rng: &'a mut SplitMix64,
}

impl MachineCtx<'_> {
    /// Execute a block on behalf of a service (e.g. the daemon's own
    /// drain loop, which is itself subject to sampling).
    pub fn exec(&mut self, block: &BlockExec) -> BlockEvents {
        self.cpu.execute_block(
            block,
            &mut LockedHandler {
                handler: self.handler,
                kernel: self.kernel,
            },
        )
    }
}

/// A background component polled after every executed block
/// (profiling daemons, background desktop processes, …).
pub trait MachineService: Send {
    fn poll(&mut self, ctx: &mut MachineCtx<'_>);
}

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    pub cpu: CpuConfig,
    pub seed: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cpu: CpuConfig::default(),
            seed: 0x5EED,
        }
    }
}

/// CPU + kernel + profiler seam + services.
pub struct Machine {
    pub cpu: Cpu,
    pub kernel: Kernel,
    pub rng: SplitMix64,
    handler: SharedHandler,
    services: Vec<Box<dyn MachineService>>,
}

impl Machine {
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            cpu: Cpu::new(config.cpu),
            kernel: Kernel::new(),
            rng: SplitMix64::new(config.seed),
            handler: share_handler(OsNullHandler),
            services: Vec::new(),
        }
    }

    /// Install the profiler's NMI handler. Returns the previous one.
    pub fn set_handler(&mut self, h: SharedHandler) -> SharedHandler {
        std::mem::replace(&mut self.handler, h)
    }

    /// Remove the profiler (back to the free-running null handler).
    pub fn clear_handler(&mut self) -> SharedHandler {
        self.set_handler(share_handler(OsNullHandler))
    }

    pub fn handler(&self) -> &SharedHandler {
        &self.handler
    }

    /// Register a background service.
    pub fn add_service(&mut self, s: Box<dyn MachineService>) {
        self.services.push(s);
    }

    /// Execute one block, then poll services.
    pub fn exec(&mut self, block: &BlockExec) -> BlockEvents {
        let events = self.cpu.execute_block(
            block,
            &mut LockedHandler {
                handler: &self.handler,
                kernel: &self.kernel,
            },
        );
        self.poll_services();
        events
    }

    /// Poll all services once (also called automatically by `exec`).
    pub fn poll_services(&mut self) {
        if self.services.is_empty() {
            return;
        }
        let mut services = std::mem::take(&mut self.services);
        {
            let mut ctx = MachineCtx {
                cpu: &mut self.cpu,
                kernel: &mut self.kernel,
                handler: &self.handler,
                rng: &mut self.rng,
            };
            for s in &mut services {
                s.poll(&mut ctx);
            }
        }
        // Services registered *by* services are appended after the
        // originals (take/put-back would drop them otherwise).
        services.append(&mut self.services);
        self.services = services;
    }

    /// Simulated seconds elapsed.
    pub fn seconds(&self) -> f64 {
        self.cpu.clock.seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::{CounterSpec, CpuMode, HwEvent, Pid};

    fn block(cycles: u64) -> BlockExec {
        BlockExec::compute(Pid(1), CpuMode::User, (0x1000, 0x2000), cycles)
    }

    /// OS-level counting handler that also symbolizes each sample.
    #[derive(Default)]
    struct Recorder {
        samples: Vec<(SampleContext, Option<(String, String)>)>,
        cost: u64,
    }

    impl OsNmiHandler for Recorder {
        fn handle_overflow(&mut self, kernel: &Kernel, ctx: &SampleContext) -> u64 {
            let sym = kernel.symbolize(ctx.pid, ctx.pc, ctx.mode);
            self.samples.push((*ctx, sym));
            self.cost
        }
    }

    #[test]
    fn exec_advances_clock() {
        let mut m = Machine::new(MachineConfig::default());
        m.exec(&block(1_000));
        assert_eq!(m.cpu.clock.cycles(), 1_000);
    }

    #[test]
    fn installed_handler_sees_kernel_and_charges() {
        let mut m = Machine::new(MachineConfig::default());
        m.cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 100));
        let rec = share_handler(Recorder {
            cost: 10,
            ..Default::default()
        });
        m.set_handler(rec.clone());
        // Sample kernel code so symbolization has something to find.
        let (s, e) = m.kernel.kernel_symbol_range("schedule");
        m.exec(&BlockExec::compute(Pid(1), CpuMode::Kernel, (s, e), 1_000));
        assert_eq!(m.cpu.stats.samples_delivered, 10);
        assert_eq!(m.cpu.stats.handler_cycles, 100);
        assert_eq!(m.cpu.clock.cycles(), 1_100);
        // The handler resolved samples against the kernel map.
        let guard = rec.lock().unwrap_or_else(PoisonError::into_inner);
        // (We can't downcast through the trait object; assert via stats
        // instead — the Recorder-specific check runs below with a
        // dedicated shared instance.)
        drop(guard);
    }

    #[test]
    fn handler_can_symbolize_at_nmi_time() {
        use std::sync::{Arc, Mutex, PoisonError};
        let mut m = Machine::new(MachineConfig::default());
        m.cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 500));
        let shared = Arc::new(Mutex::new(Recorder::default()));
        struct Fwd(Arc<Mutex<Recorder>>);
        impl OsNmiHandler for Fwd {
            fn handle_overflow(&mut self, k: &Kernel, c: &SampleContext) -> u64 {
                self.0.lock().unwrap_or_else(PoisonError::into_inner).handle_overflow(k, c)
            }
        }
        m.set_handler(share_handler(Fwd(shared.clone())));
        let (s, e) = m.kernel.kernel_symbol_range("sys_write");
        m.exec(&BlockExec::compute(Pid(1), CpuMode::Kernel, (s, e), 1_000));
        let rec = shared.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(rec.samples.len(), 2);
        for (_, sym) in &rec.samples {
            assert_eq!(
                sym.as_ref().map(|(i, s)| (i.as_str(), s.as_str())),
                Some(("vmlinux", "sys_write"))
            );
        }
    }

    #[test]
    fn clear_handler_stops_charging() {
        let mut m = Machine::new(MachineConfig::default());
        m.cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 100));
        let rec = share_handler(Recorder {
            cost: 10,
            ..Default::default()
        });
        m.set_handler(rec);
        m.exec(&block(1_000));
        m.clear_handler();
        m.exec(&block(1_000));
        assert_eq!(m.cpu.stats.handler_cycles, 100);
    }

    struct TickService {
        ticks: Arc<Mutex<u64>>,
    }

    impl MachineService for TickService {
        fn poll(&mut self, ctx: &mut MachineCtx<'_>) {
            *self.ticks.lock().unwrap_or_else(PoisonError::into_inner) += 1;
            // Services can execute their own (accounted) work.
            let b = BlockExec::compute(Pid(0), CpuMode::Kernel, (0, 0), 7);
            ctx.exec(&b);
        }
    }

    #[test]
    fn services_polled_after_each_block_and_their_work_is_charged() {
        let mut m = Machine::new(MachineConfig::default());
        let ticks = Arc::new(Mutex::new(0u64));
        m.add_service(Box::new(TickService { ticks: ticks.clone() }));
        m.exec(&block(100));
        m.exec(&block(100));
        assert_eq!(*ticks.lock().unwrap_or_else(PoisonError::into_inner), 2);
        assert_eq!(m.cpu.clock.cycles(), 2 * 100 + 2 * 7);
    }

    #[test]
    fn seconds_reflect_default_frequency() {
        let mut m = Machine::new(MachineConfig::default());
        m.exec(&block(3_400_000_000));
        assert!((m.seconds() - 1.0).abs() < 1e-9);
    }
}
