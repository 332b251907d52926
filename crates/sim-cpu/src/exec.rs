//! The block-execution engine.
//!
//! Everything that "runs" on the simulated machine — interpreted
//! bytecode, JIT-compiled method bodies, VM-internal work, libc calls,
//! kernel code, the profiling daemon itself — is presented to the CPU as
//! a sequence of [`BlockExec`]s. The CPU:
//!
//! 1. resolves the block's event counts (through the detailed cache
//!    model or from precomputed statistics),
//! 2. feeds them to the counter bank and, for every overflow, delivers
//!    an NMI to the registered handler with the interpolated PC,
//! 3. advances the clock by the block's cycles *plus whatever the NMI
//!    handler consumed* — which is how profiling overhead becomes part
//!    of measured execution time, exactly as on the paper's hardware.
//!
//! Handler cycles are delivered to the counters in *masked* mode: they
//! are counted (the profiler's own overhead is visible to the counters,
//! as on real hardware) but cannot recursively trigger more NMIs;
//! coalesced overflows are tallied in [`CpuStats::samples_suppressed`].

use crate::cache::{CacheHierarchy, HierarchyConfig};
use crate::clock::{Clock, DEFAULT_FREQ_HZ};
use crate::counters::{CounterBank, CounterSpec};
use crate::events::{BlockEvents, MemActivity};
use crate::nmi::{NmiHandler, SampleContext};
use crate::types::{Addr, CpuMode, HwEvent, Pid};
use viprof_telemetry::{names, Counter, Stage, Telemetry};

/// Static machine configuration.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    pub freq_hz: u64,
    /// Detailed cache hierarchy. `None` disables the detailed model
    /// (blocks must then carry `MemActivity::Stats` or `None`).
    pub hierarchy: Option<HierarchyConfig>,
    /// PC range of the kernel's NMI vector; handler cycles execute here.
    pub nmi_vector: (Addr, Addr),
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            freq_hz: DEFAULT_FREQ_HZ,
            hierarchy: Some(HierarchyConfig::default()),
            nmi_vector: (0xffff_ffff_8000_0000, 0xffff_ffff_8000_1000),
        }
    }
}

/// One contiguous stretch of execution.
#[derive(Debug, Clone)]
pub struct BlockExec {
    pub pid: Pid,
    pub mode: CpuMode,
    /// Half-open PC range the block's instructions live in. Overflow PCs
    /// are interpolated linearly across it.
    pub pc_range: (Addr, Addr),
    pub cycles: u64,
    pub instructions: u64,
    pub branches: u64,
    pub mem: MemActivity,
}

impl BlockExec {
    /// Convenience constructor for a compute-only block.
    pub fn compute(pid: Pid, mode: CpuMode, pc_range: (Addr, Addr), cycles: u64) -> Self {
        BlockExec {
            pid,
            mode,
            pc_range,
            cycles,
            instructions: cycles, // IPC 1 unless caller says otherwise
            branches: 0,
            mem: MemActivity::None,
        }
    }
}

/// Counters of interest for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    pub blocks_executed: u64,
    pub samples_delivered: u64,
    /// Overflows coalesced because they fired while NMIs were masked.
    pub samples_suppressed: u64,
    /// Total cycles consumed by NMI handlers.
    pub handler_cycles: u64,
    /// Cycles added by cache-miss penalties in detailed mode.
    pub penalty_cycles: u64,
}

/// Telemetry handles the hot path touches, resolved once at attach
/// time so `execute_block` never takes a registry lock.
#[derive(Debug, Clone)]
struct CpuTelemetry {
    registry: Telemetry,
    delivered: Counter,
    suppressed: Counter,
    handler: Stage,
}

impl CpuTelemetry {
    fn attach(registry: &Telemetry) -> CpuTelemetry {
        CpuTelemetry {
            delivered: registry.counter(names::CPU_SAMPLES_DELIVERED),
            suppressed: registry.counter(names::CPU_SAMPLES_SUPPRESSED),
            handler: registry.stage(names::STAGE_NMI_HANDLER),
            registry: registry.clone(),
        }
    }
}

/// The simulated CPU.
pub struct Cpu {
    pub clock: Clock,
    pub bank: CounterBank,
    pub caches: Option<CacheHierarchy>,
    nmi_vector: (Addr, Addr),
    pub stats: CpuStats,
    telemetry: Option<CpuTelemetry>,
}

impl Cpu {
    pub fn new(config: CpuConfig) -> Self {
        Cpu {
            clock: Clock::new(config.freq_hz),
            bank: CounterBank::new(),
            caches: config.hierarchy.map(CacheHierarchy::new),
            nmi_vector: config.nmi_vector,
            stats: CpuStats::default(),
            telemetry: None,
        }
    }

    /// Attach a telemetry registry: sample delivery/suppression and
    /// handler time get recorded, and the registry's virtual "now" is
    /// kept in step with the clock. Costs zero simulated cycles.
    pub fn attach_telemetry(&mut self, registry: &Telemetry) {
        registry.set_now(self.clock.cycles());
        self.telemetry = Some(CpuTelemetry::attach(registry));
    }

    /// Program a counter (delegates to the bank).
    pub fn program_counter(&mut self, spec: CounterSpec) -> usize {
        self.bank.program(spec)
    }

    /// Remove all programmed counters (profiling off).
    pub fn clear_counters(&mut self) {
        self.bank.clear();
    }

    /// Rescale the overflow period of the counter watching `event`
    /// without disturbing its accumulated state. Returns `false` if no
    /// such counter is programmed. Reprogramming itself is free — on
    /// real hardware it is a pair of MSR writes the daemon performs
    /// inside cycles it is already charged for.
    pub fn reprogram_period(&mut self, event: HwEvent, period: u64) -> bool {
        self.bank.reprogram_period(event, period)
    }

    /// Interpolate the PC of the `pos`-th event (1-based) out of `n`
    /// within `range`.
    fn interpolate_pc(range: (Addr, Addr), pos: u64, n: u64) -> Addr {
        debug_assert!(pos >= 1 && pos <= n);
        let (start, end) = range;
        if end <= start || n == 0 {
            return start;
        }
        let span = end - start;
        start + ((span as u128 * (pos - 1) as u128) / n as u128) as u64
    }

    /// Execute one block, delivering NMIs to `handler`.
    /// Returns the resolved event counts (after cache simulation).
    pub fn execute_block(&mut self, block: &BlockExec, handler: &mut dyn NmiHandler) -> BlockEvents {
        let mut events = BlockEvents {
            cycles: block.cycles,
            instructions: block.instructions,
            branches: block.branches,
            ..BlockEvents::default()
        };

        match &block.mem {
            MemActivity::None => {}
            MemActivity::Stats {
                l1d_misses,
                l2_misses,
            } => {
                events.l1d_misses = *l1d_misses;
                events.l2_misses = *l2_misses;
            }
            MemActivity::Detailed(accesses) => {
                let caches = self
                    .caches
                    .as_mut()
                    .expect("detailed memory activity requires a cache hierarchy");
                let mut penalty = 0u64;
                for a in accesses {
                    let r = caches.access(*a);
                    events.l1d_misses += r.l1_miss as u64;
                    events.l2_misses += r.l2_miss as u64;
                    penalty += r.penalty_cycles;
                }
                events.cycles += penalty;
                self.stats.penalty_cycles += penalty;
            }
        }

        self.stats.blocks_executed += 1;

        // Deliver events to the bank, firing NMIs on overflow.
        let mut handler_cost = 0u64;
        let mut delivered = 0u64;
        let deliveries = [
            (HwEvent::Cycles, events.cycles),
            (HwEvent::Instructions, events.instructions),
            (HwEvent::L1DMiss, events.l1d_misses),
            (HwEvent::L2Miss, events.l2_misses),
            (HwEvent::Branches, events.branches),
        ];
        for (event, n) in deliveries {
            if n == 0 {
                continue;
            }
            let Some((counter, overflows)) = self.bank.add_events(event, n) else {
                continue;
            };
            for pos in overflows.iter() {
                let frac_cycles = ((events.cycles as u128 * pos as u128) / n as u128) as u64;
                let ctx = SampleContext {
                    pc: Self::interpolate_pc(block.pc_range, pos, n),
                    pid: block.pid,
                    mode: block.mode,
                    event,
                    counter,
                    cycle: self.clock.cycles() + frac_cycles,
                };
                handler_cost += handler.handle_overflow(&ctx);
                self.stats.samples_delivered += 1;
                delivered += 1;
            }
        }

        self.clock.advance(events.cycles);

        let mut suppressed = 0u64;
        if handler_cost > 0 {
            // Handler runs in kernel mode at the NMI vector with further
            // NMIs masked: events are counted, overflows coalesced.
            self.stats.handler_cycles += handler_cost;
            suppressed = self.bank.add_events_masked(HwEvent::Cycles, handler_cost);
            self.stats.samples_suppressed += suppressed;
            self.clock.advance(handler_cost);
        }

        if let Some(t) = &self.telemetry {
            t.registry.set_now(self.clock.cycles());
            if delivered > 0 {
                t.delivered.add(delivered);
            }
            if suppressed > 0 {
                t.suppressed.add(suppressed);
            }
            if handler_cost > 0 {
                t.handler.record(handler_cost);
            }
        }

        events
    }

    /// PC range of the NMI vector (where handler time is attributed).
    pub fn nmi_vector(&self) -> (Addr, Addr) {
        self.nmi_vector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, MemAccess};
    use crate::nmi::{CountingHandler, NullHandler};

    fn cpu_no_cache() -> Cpu {
        Cpu::new(CpuConfig {
            freq_hz: 1_000_000,
            hierarchy: None,
            nmi_vector: (0xF000, 0xF100),
        })
    }

    fn user_block(cycles: u64) -> BlockExec {
        BlockExec::compute(Pid(7), CpuMode::User, (0x1000, 0x2000), cycles)
    }

    #[test]
    fn clock_advances_by_block_cycles() {
        let mut cpu = cpu_no_cache();
        cpu.execute_block(&user_block(500), &mut NullHandler);
        assert_eq!(cpu.clock.cycles(), 500);
    }

    #[test]
    fn samples_fire_at_period_with_interpolated_pc() {
        let mut cpu = cpu_no_cache();
        cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 100));
        let mut h = CountingHandler::new(0);
        cpu.execute_block(&user_block(250), &mut h);
        assert_eq!(h.samples.len(), 2);
        // Overflows at events 100 and 200 of 250 over a 0x1000-wide range.
        assert_eq!(h.samples[0].pc, 0x1000 + 0x1000 * 99 / 250);
        assert_eq!(h.samples[1].pc, 0x1000 + 0x1000 * 199 / 250);
        assert_eq!(h.samples[0].pid, Pid(7));
        assert_eq!(h.samples[0].event, HwEvent::Cycles);
    }

    #[test]
    fn handler_cost_extends_execution_time() {
        let mut cpu = cpu_no_cache();
        cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 100));
        let mut h = CountingHandler::new(30);
        cpu.execute_block(&user_block(1_000), &mut h);
        // 10 samples × 30 cycles on top of the block's 1000.
        assert_eq!(cpu.clock.cycles(), 1_000 + 10 * 30);
        assert_eq!(cpu.stats.handler_cycles, 300);
        assert_eq!(cpu.stats.samples_delivered, 10);
    }

    #[test]
    fn base_run_has_zero_overhead() {
        // Profiling off = no counters = clock advances exactly.
        let mut cpu = cpu_no_cache();
        let mut h = CountingHandler::new(1_000_000);
        cpu.execute_block(&user_block(10_000), &mut h);
        assert_eq!(cpu.clock.cycles(), 10_000);
        assert!(h.samples.is_empty());
    }

    #[test]
    fn sampling_rate_matches_period_over_long_run() {
        let mut cpu = cpu_no_cache();
        cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 90_000));
        let mut h = CountingHandler::new(0);
        // 9 million cycles in uneven chunks → exactly 100 samples.
        let chunks = [1_234_567u64, 2_000_000, 3_456_789, 2_308_644];
        for c in chunks {
            cpu.execute_block(&user_block(c), &mut h);
        }
        assert_eq!(chunks.iter().sum::<u64>(), 9_000_000);
        assert_eq!(h.samples.len(), 100);
    }

    #[test]
    fn masked_overflows_during_handler_are_suppressed_not_lost() {
        let mut cpu = cpu_no_cache();
        cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 100));
        // Handler costs 350 cycles: while it runs, 3 more overflows would
        // fire; they must be coalesced, not delivered.
        let mut h = CountingHandler::new(350);
        cpu.execute_block(&user_block(100), &mut h);
        assert_eq!(h.samples.len(), 1);
        assert_eq!(cpu.stats.samples_suppressed, 3);
        // The counter still observed every cycle: 450 events leave it
        // 50 short of the next overflow.
        assert!(cpu.bank.add_events(HwEvent::Cycles, 49).is_none());
        assert!(cpu.bank.add_events(HwEvent::Cycles, 1).is_some());
    }

    #[test]
    fn l2_miss_counter_fires_on_detailed_accesses() {
        let mut cpu = Cpu::new(CpuConfig {
            freq_hz: 1_000_000,
            hierarchy: Some(HierarchyConfig {
                l1i: CacheConfig::new(128, 16, 2),
                l1d: CacheConfig::new(128, 16, 2),
                l2: CacheConfig::new(512, 16, 4),
                l2_hit_penalty: 10,
                mem_penalty: 100,
            }),
            nmi_vector: (0xF000, 0xF100),
        });
        cpu.program_counter(CounterSpec::new(HwEvent::L2Miss, 1));
        let mut h = CountingHandler::new(0);
        // 4 cold reads at line-distinct addresses: 4 L2 misses.
        let accesses = (0..4).map(|i| MemAccess::read(i * 0x1000)).collect();
        let mut b = user_block(100);
        b.mem = MemActivity::Detailed(accesses);
        let ev = cpu.execute_block(&b, &mut h);
        assert_eq!(ev.l2_misses, 4);
        assert_eq!(h.samples.len(), 4);
        assert_eq!(h.samples[0].event, HwEvent::L2Miss);
        // Miss penalties extend the block's cycles.
        assert_eq!(ev.cycles, 100 + 4 * 100);
        assert_eq!(cpu.stats.penalty_cycles, 400);
    }

    #[test]
    fn stats_mem_activity_feeds_counters_without_caches() {
        let mut cpu = cpu_no_cache();
        cpu.program_counter(CounterSpec::new(HwEvent::L2Miss, 10));
        let mut h = CountingHandler::new(0);
        let mut b = user_block(1_000);
        b.mem = MemActivity::Stats {
            l1d_misses: 50,
            l2_misses: 25,
        };
        cpu.execute_block(&b, &mut h);
        assert_eq!(h.samples.len(), 2);
    }

    #[test]
    fn empty_pc_range_pins_samples_to_start() {
        let mut cpu = cpu_no_cache();
        cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 10));
        let mut h = CountingHandler::new(0);
        let b = BlockExec::compute(Pid(1), CpuMode::Kernel, (0x500, 0x500), 10);
        cpu.execute_block(&b, &mut h);
        assert_eq!(h.samples[0].pc, 0x500);
        assert_eq!(h.samples[0].mode, CpuMode::Kernel);
    }

    #[test]
    fn sample_cycle_timestamps_are_monotone_within_block() {
        let mut cpu = cpu_no_cache();
        cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 100));
        let mut h = CountingHandler::new(0);
        cpu.execute_block(&user_block(1_000), &mut h);
        let ts: Vec<u64> = h.samples.iter().map(|s| s.cycle).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
        assert!(ts[0] >= 100 && *ts.last().unwrap() <= 1_000);
    }

    #[test]
    fn reprogrammed_period_takes_effect_mid_run() {
        let mut cpu = cpu_no_cache();
        cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 100));
        let mut h = CountingHandler::new(0);
        cpu.execute_block(&user_block(1_000), &mut h);
        assert_eq!(h.samples.len(), 10);
        // Governor backs off 100 → 500: sample rate drops 5×.
        assert!(cpu.reprogram_period(HwEvent::Cycles, 500));
        cpu.execute_block(&user_block(1_000), &mut h);
        assert_eq!(h.samples.len(), 12);
        assert!(!cpu.reprogram_period(HwEvent::Branches, 500));
    }

    #[test]
    fn telemetry_mirrors_stats_without_touching_the_clock() {
        let run = |telemetry: Option<&Telemetry>| {
            let mut cpu = cpu_no_cache();
            if let Some(t) = telemetry {
                cpu.attach_telemetry(t);
            }
            cpu.program_counter(CounterSpec::new(HwEvent::Cycles, 100));
            let mut h = CountingHandler::new(350);
            cpu.execute_block(&user_block(100), &mut h);
            (cpu.clock.cycles(), cpu.stats)
        };
        let t = Telemetry::new();
        let (cycles_on, stats_on) = run(Some(&t));
        let (cycles_off, stats_off) = run(None);
        assert_eq!(cycles_on, cycles_off, "telemetry charges no cycles");
        assert_eq!(stats_on, stats_off);
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::CPU_SAMPLES_DELIVERED), stats_on.samples_delivered);
        assert_eq!(snap.counter(names::CPU_SAMPLES_SUPPRESSED), stats_on.samples_suppressed);
        let handler = snap.stage(names::STAGE_NMI_HANDLER).unwrap();
        assert_eq!(handler.cycles, stats_on.handler_cycles);
        assert_eq!(t.now(), cycles_on, "virtual now tracks the clock");
    }
}
