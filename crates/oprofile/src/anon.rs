//! Anonymous-region handling — and the seam VIProf plugs into.
//!
//! Stock OProfile logs a PC inside an anonymous mapping against the
//! mapping's range (`anon (range:0x…-0x…)`), after a relatively
//! expensive bookkeeping path. The paper's §3 extension makes the
//! logging code "consult this [VM registration] information before
//! deciding to log a sample as being anonymous": that consult is the
//! [`AnonExtension`] trait here. The base profiler uses
//! [`NoExtension`]; VIProf's runtime profiler provides the real one.

use sim_cpu::{Addr, Pid};
use sim_os::Vma;
use std::collections::HashSet;

/// Outcome of the extension claiming an anon sample as JIT code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitClaim {
    /// GC epoch to tag the sample with (paper §3.1).
    pub epoch: u64,
    /// Process generation of the registrant whose heap range claimed
    /// the sample, stamped at NMI time.
    pub gen: u32,
}

/// Extension point consulted for every anon-region sample.
pub trait AnonExtension: Send {
    /// Return `Some` to log this sample as `JIT.App` instead of anon.
    fn classify(&mut self, pid: Pid, pc: Addr, vma: &Vma) -> Option<JitClaim>;

    /// Extra daemon work per wakeup while a VM is registered ("a few
    /// other limited VM probing routines", §3).
    fn daemon_probe_cost(&self) -> u64 {
        0
    }

    /// Should a drained sample stamped `(pid, gen)` still be admitted
    /// into the sample database? The daemon asks this per JIT sample so
    /// that late-arriving samples for a reaped (dead, unclean)
    /// incarnation become `dropped` instead of resolving against a
    /// successor's maps. The default admits everything.
    fn admit(&self, _pid: Pid, _gen: u32) -> bool {
        true
    }

    /// Drop registrations whose process is gone: `is_live(pid, gen)`
    /// is the kernel's process table. Returns how many registrations
    /// were reaped. The default extension keeps no registrations.
    fn reap(&mut self, _is_live: &mut dyn FnMut(Pid, u32) -> bool) -> u64 {
        0
    }
}

/// Stock OProfile: nothing claims anon samples.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoExtension;

impl AnonExtension for NoExtension {
    fn classify(&mut self, _pid: Pid, _pc: Addr, _vma: &Vma) -> Option<JitClaim> {
        None
    }
}

/// Bookkeeping of anonymous ranges the driver has logged against —
/// OProfile's "anon cookie" table. Tracked for reporting and so tests
/// can assert which ranges were hit.
#[derive(Debug, Default, Clone)]
pub struct AnonTable {
    ranges: HashSet<(Pid, Addr, Addr)>,
    pub samples: u64,
}

impl AnonTable {
    pub fn new() -> Self {
        AnonTable::default()
    }

    /// Record an anon sample; returns `true` the first time a range is
    /// seen.
    pub fn note(&mut self, pid: Pid, vma: &Vma) -> bool {
        self.samples += 1;
        self.ranges.insert((pid, vma.start, vma.end))
    }

    pub fn ranges(&self) -> impl Iterator<Item = &(Pid, Addr, Addr)> {
        self.ranges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_extension_never_claims() {
        let mut e = NoExtension;
        let vma = Vma::anon(0x1000, 0x2000);
        assert_eq!(e.classify(Pid(1), 0x1800, &vma), None);
        assert_eq!(e.daemon_probe_cost(), 0);
    }

    #[test]
    fn anon_table_dedups_ranges() {
        let mut t = AnonTable::new();
        let a = Vma::anon(0x1000, 0x2000);
        let b = Vma::anon(0x3000, 0x4000);
        assert!(t.note(Pid(1), &a));
        assert!(!t.note(Pid(1), &a));
        assert!(t.note(Pid(1), &b));
        assert!(t.note(Pid(2), &a), "per-pid ranges are distinct");
        assert_eq!(t.ranges().count(), 3);
        assert_eq!(t.samples, 4);
    }
}
