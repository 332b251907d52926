//! The kernel-side driver: OProfile's NMI handler.
//!
//! On every counter overflow it resolves the interrupted PC the way the
//! real module does — kernel text directly, user PCs through the
//! current task's VMA list — classifies the sample, pushes it into the
//! ring buffer, and returns the cycles the whole path consumed (which
//! the CPU charges to simulated time). The per-path costs come from
//! [`sim_cpu::CostModel`]; the anonymous path is the most expensive,
//! and the [`AnonExtension`] (VIProf) path replaces it with a cheap
//! registered-range check.

use crate::anon::{AnonExtension, AnonTable, NoExtension};
use crate::buffer::RingBuffer;
use crate::faults::{DriverFaults, FaultVerdict};
use crate::samples::{SampleBucket, SampleOrigin};
use sim_cpu::{CostModel, SampleContext};
use sim_os::{Kernel, OsNmiHandler};

/// Per-classification sample counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    pub total: u64,
    pub kernel: u64,
    pub image: u64,
    pub anon: u64,
    pub jit: u64,
    pub unknown: u64,
}

/// Driver state (lives behind the machine's shared handler).
pub struct Driver {
    cost: CostModel,
    pub buffer: RingBuffer,
    pub anon_table: AnonTable,
    ext: Box<dyn AnonExtension>,
    pub stats: DriverStats,
    /// Optional fault injector (tests/chaos harnesses); `None` in
    /// production paths.
    pub faults: Option<DriverFaults>,
}

impl Driver {
    pub fn new(cost: CostModel, buffer_capacity: usize) -> Self {
        Driver::with_extension(cost, buffer_capacity, Box::new(NoExtension))
    }

    pub fn with_extension(
        cost: CostModel,
        buffer_capacity: usize,
        ext: Box<dyn AnonExtension>,
    ) -> Self {
        Driver {
            cost,
            buffer: RingBuffer::new(buffer_capacity),
            anon_table: AnonTable::new(),
            ext,
            stats: DriverStats::default(),
            faults: None,
        }
    }

    /// Install an NMI-path fault injector.
    pub fn set_faults(&mut self, faults: DriverFaults) {
        self.faults = Some(faults);
    }

    /// Injected-fault counters, if an injector is installed.
    pub fn fault_stats(&self) -> Option<crate::faults::DriverFaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Extra daemon work per wakeup (delegated to the extension).
    pub fn daemon_probe_cost(&self) -> u64 {
        self.ext.daemon_probe_cost()
    }

    /// Is a drained `(pid, gen)` JIT sample still admissible?
    /// (Delegated to the extension's registration table.)
    pub fn admit(&self, pid: sim_cpu::Pid, gen: u32) -> bool {
        self.ext.admit(pid, gen)
    }

    /// Reap registrations of dead incarnations (delegated to the
    /// extension); returns how many were reaped.
    pub fn reap(&mut self, is_live: &mut dyn FnMut(sim_cpu::Pid, u32) -> bool) -> u64 {
        self.ext.reap(is_live)
    }

    /// Drain the ring buffer (daemon side).
    pub fn drain(&mut self) -> (Vec<SampleBucket>, u64) {
        let dropped = self.buffer.dropped;
        self.buffer.dropped = 0;
        (self.buffer.drain(), dropped)
    }

    /// Hand a consumed drain batch back for reuse, so steady-state
    /// drains allocate nothing (see [`RingBuffer::recycle`]).
    pub fn recycle(&mut self, batch: Vec<SampleBucket>) {
        self.buffer.recycle(batch);
    }
}

impl OsNmiHandler for Driver {
    fn handle_overflow(&mut self, kernel: &Kernel, ctx: &SampleContext) -> u64 {
        self.stats.total += 1;
        let res = kernel.resolve_pc(ctx.pid, ctx.pc, ctx.mode);
        let (mut bucket, cost) = match (res.image, res.vma) {
            // Kernel text or mapped image: offset-based sample.
            (Some((image, offset)), _) => {
                if ctx.mode.is_kernel() {
                    self.stats.kernel += 1;
                } else {
                    self.stats.image += 1;
                }
                (
                    SampleBucket {
                        origin: SampleOrigin::Image(image),
                        event: ctx.event,
                        addr: offset,
                        epoch: 0,
                    },
                    self.cost.nmi_mapped(),
                )
            }
            // Anonymous mapping: consult the extension first (paper §3),
            // fall back to the expensive anon-logging path.
            (None, Some(vma)) => match self.ext.classify(ctx.pid, ctx.pc, &vma) {
                Some(claim) => {
                    self.stats.jit += 1;
                    (
                        SampleBucket {
                            origin: SampleOrigin::JitApp {
                                pid: ctx.pid,
                                gen: claim.gen,
                            },
                            event: ctx.event,
                            addr: ctx.pc,
                            epoch: claim.epoch,
                        },
                        self.cost.nmi_jit(),
                    )
                }
                None => {
                    self.stats.anon += 1;
                    self.anon_table.note(ctx.pid, &vma);
                    (
                        SampleBucket {
                            origin: SampleOrigin::Anon {
                                pid: ctx.pid,
                                start: vma.start,
                                end: vma.end,
                            },
                            event: ctx.event,
                            addr: ctx.pc,
                            epoch: 0,
                        },
                        self.cost.nmi_anon(),
                    )
                }
            },
            // Unresolvable PC.
            (None, None) => {
                self.stats.unknown += 1;
                (
                    SampleBucket {
                        origin: SampleOrigin::Unknown,
                        event: ctx.event,
                        addr: 0,
                        epoch: 0,
                    },
                    self.cost.nmi_mapped(),
                )
            }
        };
        if let Some(faults) = &mut self.faults {
            if faults.on_sample(&mut bucket) == FaultVerdict::Drop {
                // Injected overflow: the sample is lost exactly like a
                // full buffer would lose it — visibly, via `dropped`.
                self.buffer.count_drop();
                return cost;
            }
        }
        self.buffer.push(bucket);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anon::JitClaim;
    use sim_cpu::{Addr, CpuMode, HwEvent, Pid};
    use sim_os::kernel::KERNEL_TEXT_BASE;
    use sim_os::{Image, Loader, Vma};

    fn ctx(pc: Addr, pid: Pid, mode: CpuMode) -> SampleContext {
        SampleContext {
            pc,
            pid,
            mode,
            event: HwEvent::Cycles,
            counter: 0,
            cycle: 0,
        }
    }

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        let img = k.images.insert(Image::new("app", 0x1000));
        let pid = k.spawn("app");
        Loader::load_image(&mut k, pid, img, 0x0804_8000);
        k.process_mut(pid)
            .unwrap()
            .space
            .map(Vma::anon(0x6000_0000, 0x6400_0000))
            .unwrap();
        (k, pid)
    }

    #[test]
    fn kernel_sample_classified_and_costed() {
        let (k, pid) = setup();
        let mut d = Driver::new(CostModel::default(), 16);
        let cost = d.handle_overflow(&k, &ctx(KERNEL_TEXT_BASE + 0x3000, pid, CpuMode::Kernel));
        assert_eq!(cost, CostModel::default().nmi_mapped());
        assert_eq!(d.stats.kernel, 1);
        let (samples, _) = d.drain();
        assert!(matches!(samples[0].origin, SampleOrigin::Image(_)));
        assert_eq!(samples[0].addr, 0x3000);
    }

    #[test]
    fn image_sample_records_offset() {
        let (k, pid) = setup();
        let mut d = Driver::new(CostModel::default(), 16);
        d.handle_overflow(&k, &ctx(0x0804_8000 + 0x123, pid, CpuMode::User));
        assert_eq!(d.stats.image, 1);
        let (samples, _) = d.drain();
        assert_eq!(samples[0].addr, 0x123);
    }

    #[test]
    fn anon_sample_takes_expensive_path() {
        let (k, pid) = setup();
        let mut d = Driver::new(CostModel::default(), 16);
        let cost = d.handle_overflow(&k, &ctx(0x6100_0000, pid, CpuMode::User));
        assert_eq!(cost, CostModel::default().nmi_anon());
        assert_eq!(d.stats.anon, 1);
        assert_eq!(d.anon_table.ranges().count(), 1);
        let (samples, _) = d.drain();
        match samples[0].origin {
            SampleOrigin::Anon { start, end, .. } => {
                assert_eq!((start, end), (0x6000_0000, 0x6400_0000));
            }
            o => panic!("expected anon, got {o:?}"),
        }
    }

    /// Extension claiming a sub-range, VIProf-style.
    struct RangeExt {
        range: (Addr, Addr),
        epoch: u64,
    }
    impl AnonExtension for RangeExt {
        fn classify(&mut self, _pid: Pid, pc: Addr, _vma: &Vma) -> Option<JitClaim> {
            (pc >= self.range.0 && pc < self.range.1).then_some(JitClaim {
                epoch: self.epoch,
                gen: 0,
            })
        }
        fn daemon_probe_cost(&self) -> u64 {
            42
        }
    }

    #[test]
    fn extension_claims_jit_samples_cheaper_than_anon() {
        let (k, pid) = setup();
        let cost_model = CostModel::default();
        let mut d = Driver::with_extension(
            cost_model,
            16,
            Box::new(RangeExt {
                range: (0x6000_0000, 0x6400_0000),
                epoch: 5,
            }),
        );
        let cost = d.handle_overflow(&k, &ctx(0x6100_0000, pid, CpuMode::User));
        assert_eq!(cost, cost_model.nmi_jit());
        assert!(cost < cost_model.nmi_anon(), "the paper's §4.3 claim");
        assert_eq!(d.stats.jit, 1);
        assert_eq!(d.stats.anon, 0);
        let (samples, _) = d.drain();
        assert_eq!(samples[0].epoch, 5);
        assert!(matches!(samples[0].origin, SampleOrigin::JitApp { .. }));
        assert_eq!(d.daemon_probe_cost(), 42);
    }

    #[test]
    fn unknown_pc_still_logged() {
        let (k, pid) = setup();
        let mut d = Driver::new(CostModel::default(), 16);
        d.handle_overflow(&k, &ctx(0xdead_0000, pid, CpuMode::User));
        assert_eq!(d.stats.unknown, 1);
        let (samples, _) = d.drain();
        assert_eq!(samples[0].origin, SampleOrigin::Unknown);
    }

    #[test]
    fn injected_bursts_surface_as_counted_drops() {
        let (k, pid) = setup();
        let mut d = Driver::new(CostModel::default(), 64);
        d.set_faults(DriverFaults::new(3).with_bursts(1.0, 4));
        for _ in 0..10 {
            d.handle_overflow(&k, &ctx(0x0804_8000, pid, CpuMode::User));
        }
        assert_eq!(d.stats.total, 10, "NMIs still counted");
        let (samples, dropped) = d.drain();
        assert_eq!(samples.len(), 0, "burst rate 1.0 drops everything");
        assert_eq!(dropped, 10);
        assert_eq!(d.fault_stats().unwrap().forced_drops, 10);
    }

    #[test]
    fn injected_skew_rewinds_jit_epochs() {
        let (k, pid) = setup();
        let mut d = Driver::with_extension(
            CostModel::default(),
            16,
            Box::new(RangeExt {
                range: (0x6000_0000, 0x6400_0000),
                epoch: 5,
            }),
        );
        d.set_faults(DriverFaults::new(1).with_epoch_skew(2));
        d.handle_overflow(&k, &ctx(0x6100_0000, pid, CpuMode::User));
        let (samples, _) = d.drain();
        assert_eq!(samples[0].epoch, 3, "driver lags the agent by 2 epochs");
    }

    #[test]
    fn buffer_overflow_reported_via_drain() {
        let (k, pid) = setup();
        let mut d = Driver::new(CostModel::default(), 2);
        for _ in 0..5 {
            d.handle_overflow(&k, &ctx(0x0804_8000, pid, CpuMode::User));
        }
        let (samples, dropped) = d.drain();
        assert_eq!(samples.len(), 2);
        assert_eq!(dropped, 3);
        // Drop counter resets after drain.
        let (_, dropped2) = d.drain();
        assert_eq!(dropped2, 0);
    }
}
