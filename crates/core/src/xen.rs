//! Xen / XenoProf extension (paper §5, future work).
//!
//! "As part of future work, we plan to integrate Xen virtualization
//! extensions into VIProf to integrate profiling of the Xen layer (via
//! XenoProf) as well as multiple concurrently executing software
//! stacks."
//!
//! The model: a hypervisor text image (`xen-syms`) whose scheduler and
//! hypercall paths consume (sampled!) cycles beneath the guests, a
//! domain table mapping guest processes to domains, and a XenoProf-style
//! post-processing pass that breaks a system-wide profile down by
//! domain — on top of which the normal VIProf resolution still applies
//! inside each guest, giving method-level attribution per stack.

use crate::error::ViprofError;
use crate::session::{ReportSpec, Viprof};
use oprofile::{SampleBucket, SampleDb, SampleOrigin};
use sim_cpu::{Addr, BlockExec, CpuMode, HwEvent, MemActivity, Pid};
use sim_os::loader::BIN_HINT;
use sim_os::{Image, Kernel, Loader, MachineCtx, MachineService, Symbol};
use std::collections::HashMap;

/// A guest domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u16);

/// Which processes belong to which domain. Unassigned PIDs are
/// reported as dom0 (the control domain), like XenoProf's "passive"
/// attribution.
#[derive(Debug, Default, Clone)]
pub struct DomainTable {
    names: Vec<String>,
    assignments: Vec<(Pid, DomainId)>,
}

impl DomainTable {
    /// Create with dom0 preregistered.
    pub fn new() -> DomainTable {
        let mut t = DomainTable::default();
        let dom0 = t.register("Domain-0");
        debug_assert_eq!(dom0, DomainId(0));
        t
    }

    pub fn register(&mut self, name: impl Into<String>) -> DomainId {
        self.names.push(name.into());
        DomainId(self.names.len() as u16 - 1)
    }

    pub fn assign(&mut self, pid: Pid, domain: DomainId) {
        assert!((domain.0 as usize) < self.names.len(), "unknown domain");
        self.assignments.retain(|(p, _)| *p != pid);
        self.assignments.push((pid, domain));
    }

    /// Domain of a PID (dom0 when unassigned).
    pub fn domain_of(&self, pid: Pid) -> DomainId {
        self.assignments
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, d)| *d)
            .unwrap_or(DomainId(0))
    }

    pub fn name(&self, d: DomainId) -> &str {
        &self.names[d.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Hypervisor text symbols (roughly XenoProf's hot xen-syms rows).
const XEN_SYMBOLS: &[(&str, u64, u64)] = &[
    ("hypercall", 0x0000, 0x1000),
    ("schedule_vcpu", 0x1000, 0x1000),
    ("evtchn_send", 0x2000, 0x0800),
    ("grant_table_op", 0x2800, 0x0800),
    ("flush_tlb_domain", 0x3000, 0x0800),
];

/// The hypervisor: a `xen-syms` image plus the pseudo-process its
/// cycles are charged to.
#[derive(Debug, Clone, Copy)]
pub struct Hypervisor {
    pub pid: Pid,
    base: Addr,
}

impl Hypervisor {
    /// Map `xen-syms` and spawn the hypervisor context.
    pub fn install(kernel: &mut Kernel) -> Hypervisor {
        let image = match kernel.images.find_by_name("xen-syms") {
            Some(id) => id,
            None => kernel.images.insert(
                Image::new("xen-syms", 0x4000).with_symbols(
                    XEN_SYMBOLS.iter().map(|(n, o, s)| Symbol::new(*n, *o, *s)),
                ),
            ),
        };
        let pid = kernel.spawn("xen");
        let base = Loader::load_image(kernel, pid, image, BIN_HINT);
        Hypervisor { pid, base }
    }

    /// PC range of a hypervisor symbol.
    pub fn range(&self, name: &str) -> (Addr, Addr) {
        let (_, off, size) = XEN_SYMBOLS
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown xen symbol {name}"));
        (self.base + off, self.base + off + size)
    }
}

/// Scheduler service: every quantum the hypervisor context-switches
/// between domains (consuming sampled cycles in `schedule_vcpu` and,
/// periodically, `flush_tlb_domain`).
pub struct XenScheduler {
    hv: Hypervisor,
    quantum_cycles: u64,
    next_switch: u64,
    switch_cost: u64,
    pub switches: u64,
}

impl XenScheduler {
    pub fn new(hv: Hypervisor, quantum_cycles: u64) -> XenScheduler {
        XenScheduler {
            hv,
            quantum_cycles,
            next_switch: quantum_cycles,
            switch_cost: 9_000, // save/restore vcpu, update timers
            switches: 0,
        }
    }
}

impl MachineService for XenScheduler {
    fn poll(&mut self, ctx: &mut MachineCtx<'_>) {
        let now = ctx.cpu.clock.cycles();
        if now < self.next_switch {
            return;
        }
        while self.next_switch <= now {
            self.next_switch += self.quantum_cycles;
        }
        self.switches += 1;
        let range = if self.switches.is_multiple_of(8) {
            self.hv.range("flush_tlb_domain")
        } else {
            self.hv.range("schedule_vcpu")
        };
        ctx.exec(&BlockExec {
            pid: self.hv.pid,
            mode: CpuMode::User,
            pc_range: range,
            cycles: self.switch_cost,
            instructions: self.switch_cost,
            branches: self.switch_cost / 32,
            mem: MemActivity::None,
        });
    }
}

/// One row of the XenoProf-style per-domain breakdown.
#[derive(Debug, Clone)]
pub struct DomainRow {
    pub domain: String,
    pub samples: u64,
    pub percent: f64,
}

/// Break a system-wide profile down by domain for `event`.
/// Kernel-text samples are charged to dom0 (the driver domain runs the
/// kernel in this single-kernel model); hypervisor samples to the
/// `xen` pseudo-process's domain (assign it one, or they land in dom0).
pub fn domain_breakdown(db: &SampleDb, table: &DomainTable, event: HwEvent) -> Vec<DomainRow> {
    let mut counts = vec![0u64; table.len()];
    let total = db.total(event).max(1);
    for (bucket, count) in db.iter() {
        if bucket.event != event {
            continue;
        }
        let pid = bucket_pid(bucket);
        let dom = pid.map(|p| table.domain_of(p)).unwrap_or(DomainId(0));
        counts[dom.0 as usize] += count;
    }
    let mut rows: Vec<DomainRow> = counts
        .into_iter()
        .enumerate()
        .map(|(i, samples)| DomainRow {
            domain: table.name(DomainId(i as u16)).to_string(),
            samples,
            percent: 100.0 * samples as f64 / total as f64,
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.samples));
    rows
}

/// The PID a bucket is attributable to, when it has one. Image-backed
/// samples carry no PID in the bucket (OProfile aggregates them by
/// image), so they go to dom0 — mirroring XenoProf's coarse handling of
/// shared text.
fn bucket_pid(bucket: &SampleBucket) -> Option<Pid> {
    match bucket.origin {
        SampleOrigin::Anon { pid, .. } | SampleOrigin::JitApp { pid, .. } => Some(pid),
        SampleOrigin::Image(_) | SampleOrigin::Unknown => None,
    }
}

/// Per-domain *method-level* profile (the "vertically integrated, per
/// stack" view of §5): `domain`'s own samples of `event`, the buckets
/// of the pids the table assigns it, resolved by
/// [`Viprof::make_report`] and folded by symbol, largest first.
pub fn domain_jit_profile(
    db: &SampleDb,
    kernel: &Kernel,
    table: &DomainTable,
    domain: DomainId,
    event: HwEvent,
) -> Result<Vec<(String, u64)>, ViprofError> {
    let mut own = SampleDb::new();
    for (bucket, count) in db.iter() {
        let in_domain = bucket_pid(bucket).is_some_and(|p| table.domain_of(p) == domain);
        if bucket.event == event && in_domain {
            own.add(*bucket, *count);
        }
    }
    let report = Viprof::make_report(&own, kernel, &ReportSpec::default())?.lines;
    let mut counts: HashMap<String, u64> = HashMap::new();
    for row in report.rows {
        *counts.entry(row.symbol).or_insert(0) += row.counts[0];
    }
    let mut rows: Vec<(String, u64)> = counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprofile::SampleBucket;

    fn bucket(pid: u32, addr: u64) -> SampleBucket {
        SampleBucket {
            origin: SampleOrigin::JitApp { pid: Pid(pid), gen: 0 },
            event: HwEvent::Cycles,
            addr,
            epoch: 0,
        }
    }

    #[test]
    fn domain_table_assigns_and_defaults_to_dom0() {
        let mut t = DomainTable::new();
        let dom1 = t.register("guest-a");
        t.assign(Pid(5), dom1);
        assert_eq!(t.domain_of(Pid(5)), dom1);
        assert_eq!(t.domain_of(Pid(99)), DomainId(0));
        assert_eq!(t.name(dom1), "guest-a");
        // Reassignment replaces.
        let dom2 = t.register("guest-b");
        t.assign(Pid(5), dom2);
        assert_eq!(t.domain_of(Pid(5)), dom2);
    }

    #[test]
    fn breakdown_groups_by_domain() {
        let mut t = DomainTable::new();
        let a = t.register("guest-a");
        let b = t.register("guest-b");
        t.assign(Pid(10), a);
        t.assign(Pid(20), b);
        let mut db = SampleDb::new();
        db.add(bucket(10, 0x100), 60);
        db.add(bucket(20, 0x200), 30);
        db.add(bucket(33, 0x300), 10); // unassigned → dom0
        let rows = domain_breakdown(&db, &t, HwEvent::Cycles);
        assert_eq!(rows[0].domain, "guest-a");
        assert_eq!(rows[0].samples, 60);
        assert!((rows[0].percent - 60.0).abs() < 1e-9);
        assert_eq!(rows[1].domain, "guest-b");
        assert_eq!(rows[2].domain, "Domain-0");
        assert_eq!(rows[2].samples, 10);
    }

    #[test]
    fn hypervisor_installs_and_resolves() {
        let mut k = Kernel::new();
        let hv = Hypervisor::install(&mut k);
        let (s, _) = hv.range("schedule_vcpu");
        let (image, offset) = k.resolve_pc(hv.pid, s, CpuMode::User).image.unwrap();
        let img = k.images.get(image);
        let sym = img.resolve(offset).unwrap();
        assert_eq!((img.name.as_str(), sym.name.as_str()), ("xen-syms", "schedule_vcpu"));
    }

    #[test]
    fn scheduler_injects_hypervisor_cycles() {
        use sim_os::{Machine, MachineConfig};
        let mut m = Machine::new(MachineConfig::default());
        let hv = Hypervisor::install(&mut m.kernel);
        m.add_service(Box::new(XenScheduler::new(hv, 1_000_000)));
        let app = m.kernel.spawn("guest");
        for _ in 0..10 {
            m.exec(&BlockExec::compute(
                app,
                CpuMode::User,
                (0x1000, 0x2000),
                1_000_000,
            ));
        }
        // 10 quanta crossed → ~10 switches × 9000 cycles.
        assert!(m.cpu.clock.cycles() >= 10_000_000 + 9 * 9_000);
    }

    #[test]
    fn jit_profile_keeps_each_domain_to_its_own_methods() {
        use crate::codemap::{map_path, render_map, CodeMapEntry};
        let mut k = Kernel::new();
        let vm_a = k.spawn("jikesrvm-a");
        let vm_b = k.spawn("jikesrvm-b");
        for (pid, sig) in [(vm_a, "a.Parser.run"), (vm_b, "b.Store.put")] {
            k.vfs.write(
                map_path(pid, 0),
                render_map(&[CodeMapEntry {
                    addr: 0x100,
                    size: 0x100,
                    level: "O1".into(),
                    signature: sig.into(),
                }])
                .into_bytes(),
            );
        }
        let mut t = DomainTable::new();
        let dom_a = t.register("guest-a");
        let dom_b = t.register("guest-b");
        t.assign(vm_a, dom_a);
        t.assign(vm_b, dom_b);
        let mut db = SampleDb::new();
        db.add(bucket(vm_a.0, 0x180), 40);
        db.add(bucket(vm_a.0, 0x900), 3);
        db.add(bucket(vm_b.0, 0x180), 25);
        // Another event in guest-a's own method: not a Cycles row.
        db.add(
            SampleBucket {
                event: HwEvent::L2Miss,
                ..bucket(vm_a.0, 0x180)
            },
            7,
        );
        let profile = |dom| domain_jit_profile(&db, &k, &t, dom, HwEvent::Cycles).unwrap();
        assert_eq!(
            profile(dom_a),
            vec![
                ("a.Parser.run".to_string(), 40),
                ("(unresolved jit)".to_string(), 3)
            ]
        );
        assert_eq!(profile(dom_b), vec![("b.Store.put".to_string(), 25)]);
        // dom0 runs no JIT'd code here.
        assert!(profile(DomainId(0)).is_empty());
    }
}
