//! The VM registration table shared between the VM Agent (writer) and
//! the extended NMI logging path (reader).
//!
//! Paper §3: "we extend this daemon by a mechanism that allows a VM to
//! register the fact that it is executing dynamically generated code.
//! The virtual machine also registers the boundaries of its memory
//! heap." The epoch counter lives here too, updated by the agent at
//! each GC and read at NMI time to tag `JIT.App` samples.
//!
//! Registrations are *generation-tagged*: each incarnation of a pid
//! registers as `(pid, gen)` and moves through a three-state lifecycle:
//!
//! - **live** — claiming NMI samples and admitting drained ones;
//! - **retired** — the VM exited gracefully (`on_vm_exit` wrote its
//!   final map first), so late samples still in the ring remain
//!   resolvable against the flushed maps;
//! - **reaped** — the process died unclean (the daemon noticed its pid
//!   gone, or a newer incarnation supplanted it). Its late samples are
//!   refused at drain admission and become `dropped` — they must never
//!   resolve against a successor's maps.

use crate::error::ViprofError;
use std::sync::RwLock;
use sim_cpu::{Addr, Pid};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One registered VM incarnation.
#[derive(Debug)]
pub struct VmRegistration {
    pub pid: Pid,
    /// Kernel generation of this incarnation of the pid.
    pub gen: u32,
    pub heap_range: (Addr, Addr),
    epoch: AtomicU64,
}

impl VmRegistration {
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

/// What `register` did with an acceptable registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// First time this `(pid, gen)` was seen.
    Fresh,
    /// The live incarnation re-registered (heap growth); its epoch
    /// survives.
    Resumed,
    /// A newer incarnation displaced a live older one — the old one is
    /// implicitly reaped (its process must be gone for the kernel to
    /// have reused the pid).
    Supplanted { prior_gen: u32 },
}

/// Registration table. Registrations are few (one per VM), so lookups
/// are a linear scan — cheap enough for the NMI path, which is the
/// point of the design.
#[derive(Debug, Default)]
pub struct JitRegistry {
    vms: Vec<VmRegistration>,
    /// `(pid, gen)` of incarnations that exited gracefully.
    retired: BTreeSet<(u32, u32)>,
    /// `(pid, gen)` of incarnations that died unclean.
    reaped: BTreeSet<(u32, u32)>,
}

/// The shared handle both sides hold.
pub type SharedRegistry = Arc<RwLock<JitRegistry>>;

impl JitRegistry {
    pub fn new() -> Self {
        JitRegistry::default()
    }

    pub fn shared() -> SharedRegistry {
        Arc::new(RwLock::new(JitRegistry::new()))
    }

    /// Highest generation the table has seen for `pid`, across live,
    /// retired and reaped incarnations.
    fn max_known_gen(&self, pid: Pid) -> Option<u32> {
        let live = self.vms.iter().filter(|r| r.pid == pid).map(|r| r.gen);
        let dead = self
            .retired
            .iter()
            .chain(self.reaped.iter())
            .filter(|(p, _)| *p == pid.0)
            .map(|(_, g)| *g);
        live.chain(dead).max()
    }

    /// Register a VM incarnation's heap. Re-registering the live
    /// `(pid, gen)` replaces the range (a VM may grow its heap) and
    /// keeps its epoch; a *newer* generation supplants a live older
    /// one. Registering a generation the table already saw die —
    /// retired, reaped, or older than any known incarnation of the
    /// pid — is a [`ViprofError::RegistrationConflict`].
    pub fn register(
        &mut self,
        pid: Pid,
        gen: u32,
        heap_range: (Addr, Addr),
    ) -> Result<RegisterOutcome, ViprofError> {
        assert!(heap_range.0 < heap_range.1, "empty heap range");
        if self.retired.contains(&(pid.0, gen)) || self.reaped.contains(&(pid.0, gen)) {
            return Err(ViprofError::RegistrationConflict { pid, gen });
        }
        if let Some(i) = self.vms.iter().position(|r| r.pid == pid) {
            let live_gen = self.vms[i].gen;
            return if live_gen == gen {
                self.vms[i].heap_range = heap_range;
                Ok(RegisterOutcome::Resumed)
            } else if live_gen < gen {
                // The pid was reused, so its previous owner is dead
                // even if no reap pass ran in between.
                self.vms.remove(i);
                self.reaped.insert((pid.0, live_gen));
                self.vms.push(VmRegistration {
                    pid,
                    gen,
                    heap_range,
                    epoch: AtomicU64::new(0),
                });
                Ok(RegisterOutcome::Supplanted {
                    prior_gen: live_gen,
                })
            } else {
                Err(ViprofError::RegistrationConflict { pid, gen })
            };
        }
        if let Some(known) = self.max_known_gen(pid) {
            if gen < known {
                return Err(ViprofError::RegistrationConflict { pid, gen });
            }
        }
        self.vms.push(VmRegistration {
            pid,
            gen,
            heap_range,
            epoch: AtomicU64::new(0),
        });
        Ok(RegisterOutcome::Fresh)
    }

    /// Graceful unregistration (the agent's `on_vm_exit`, after the
    /// final map write): the incarnation moves to *retired*, so its
    /// late samples stay resolvable. Returns `false` if no live
    /// registration held the pid.
    pub fn retire(&mut self, pid: Pid) -> bool {
        match self.vms.iter().position(|r| r.pid == pid) {
            Some(i) => {
                let r = self.vms.remove(i);
                self.retired.insert((r.pid.0, r.gen));
                true
            }
            None => false,
        }
    }

    /// Reap live registrations whose process is gone: `is_live(pid,
    /// gen)` consults the kernel's process table. Reaped incarnations
    /// stop admitting samples. Returns how many were reaped.
    pub fn reap(&mut self, is_live: &mut dyn FnMut(Pid, u32) -> bool) -> u64 {
        let mut reaped = 0;
        let mut i = 0;
        while i < self.vms.len() {
            if is_live(self.vms[i].pid, self.vms[i].gen) {
                i += 1;
            } else {
                let r = self.vms.remove(i);
                self.reaped.insert((r.pid.0, r.gen));
                reaped += 1;
            }
        }
        reaped
    }

    /// Drain-time admission check: may a sample stamped `(pid, gen)`
    /// still enter the sample database? Only *reaped* incarnations are
    /// refused — live and retired ones have (or will have) maps to
    /// resolve against, and unknown pids are someone else's problem.
    pub fn admit(&self, pid: Pid, gen: u32) -> bool {
        !self.reaped.contains(&(pid.0, gen))
    }

    /// Bump the epoch for the live incarnation of `pid` (called by the
    /// agent at GC end).
    pub fn set_epoch(&self, pid: Pid, epoch: u64) {
        if let Some(r) = self.vms.iter().find(|r| r.pid == pid) {
            r.epoch.store(epoch, Ordering::Relaxed);
        }
    }

    /// NMI-path check: is `pc` inside `pid`'s registered heap? Returns
    /// the current epoch and the registrant's generation if so — the
    /// generation is what stamps the sample.
    pub fn classify(&self, pid: Pid, pc: Addr) -> Option<(u64, u32)> {
        self.vms
            .iter()
            .find(|r| r.pid == pid && pc >= r.heap_range.0 && pc < r.heap_range.1)
            .map(|r| (r.epoch(), r.gen))
    }

    pub fn len(&self) -> usize {
        self.vms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    pub fn registrations(&self) -> &[VmRegistration] {
        &self.vms
    }

    /// `(pid, gen)` pairs reaped so far (tests/reporting).
    pub fn reaped(&self) -> impl Iterator<Item = (Pid, u32)> + '_ {
        self.reaped.iter().map(|(p, g)| (Pid(*p), *g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_classify() {
        let mut r = JitRegistry::new();
        r.register(Pid(5), 0, (0x6000_0000, 0x6400_0000)).unwrap();
        assert_eq!(r.classify(Pid(5), 0x6200_0000), Some((0, 0)));
        assert_eq!(r.classify(Pid(5), 0x5fff_ffff), None, "below range");
        assert_eq!(r.classify(Pid(5), 0x6400_0000), None, "end exclusive");
        assert_eq!(r.classify(Pid(6), 0x6200_0000), None, "other pid");
    }

    #[test]
    fn epochs_update_and_tag() {
        let mut r = JitRegistry::new();
        r.register(Pid(5), 0, (0x1000, 0x2000)).unwrap();
        r.set_epoch(Pid(5), 7);
        assert_eq!(r.classify(Pid(5), 0x1800), Some((7, 0)));
        // Unknown pid is a no-op.
        r.set_epoch(Pid(9), 3);
    }

    #[test]
    fn reregistration_replaces_range() {
        let mut r = JitRegistry::new();
        assert_eq!(
            r.register(Pid(5), 0, (0x1000, 0x2000)),
            Ok(RegisterOutcome::Fresh)
        );
        r.set_epoch(Pid(5), 4);
        assert_eq!(
            r.register(Pid(5), 0, (0x1000, 0x4000)),
            Ok(RegisterOutcome::Resumed)
        );
        assert_eq!(r.len(), 1);
        // Epoch survives the re-registration.
        assert_eq!(r.classify(Pid(5), 0x3000), Some((4, 0)));
    }

    #[test]
    fn multiple_vms_coexist() {
        let mut r = JitRegistry::new();
        r.register(Pid(1), 0, (0x1000, 0x2000)).unwrap();
        r.register(Pid(2), 0, (0x1000, 0x2000)).unwrap();
        r.set_epoch(Pid(2), 9);
        assert_eq!(r.classify(Pid(1), 0x1500), Some((0, 0)));
        assert_eq!(r.classify(Pid(2), 0x1500), Some((9, 0)));
        assert!(r.retire(Pid(1)));
        assert!(!r.retire(Pid(1)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn new_generation_supplants_live_predecessor() {
        let mut r = JitRegistry::new();
        r.register(Pid(4), 0, (0x1000, 0x2000)).unwrap();
        r.set_epoch(Pid(4), 3);
        assert_eq!(
            r.register(Pid(4), 1, (0x5000, 0x6000)),
            Ok(RegisterOutcome::Supplanted { prior_gen: 0 })
        );
        assert_eq!(r.len(), 1);
        // The successor starts at epoch 0; the predecessor is reaped.
        assert_eq!(r.classify(Pid(4), 0x5800), Some((0, 1)));
        assert!(!r.admit(Pid(4), 0), "supplanted incarnation is reaped");
        assert!(r.admit(Pid(4), 1));
    }

    #[test]
    fn retired_incarnations_still_admit_but_cannot_reregister() {
        let mut r = JitRegistry::new();
        r.register(Pid(7), 0, (0x1000, 0x2000)).unwrap();
        assert!(r.retire(Pid(7)));
        assert!(r.admit(Pid(7), 0), "graceful exit: maps were flushed");
        assert_eq!(
            r.register(Pid(7), 0, (0x1000, 0x2000)),
            Err(ViprofError::RegistrationConflict {
                pid: Pid(7),
                gen: 0
            })
        );
        // The next incarnation registers fine.
        assert_eq!(
            r.register(Pid(7), 1, (0x1000, 0x2000)),
            Ok(RegisterOutcome::Fresh)
        );
    }

    #[test]
    fn reap_moves_dead_processes_out_of_admission() {
        let mut r = JitRegistry::new();
        r.register(Pid(1), 0, (0x1000, 0x2000)).unwrap();
        r.register(Pid(2), 5, (0x1000, 0x2000)).unwrap();
        // Pid(1) died; Pid(2) gen 5 lives on.
        let reaped = r.reap(&mut |pid, gen| pid == Pid(2) && gen == 5);
        assert_eq!(reaped, 1);
        assert_eq!(r.len(), 1);
        assert!(!r.admit(Pid(1), 0));
        assert!(r.admit(Pid(2), 5));
        assert_eq!(r.reaped().collect::<Vec<_>>(), vec![(Pid(1), 0)]);
        // Nothing more to reap.
        assert_eq!(r.reap(&mut |_, _| true), 0);
    }

    #[test]
    fn generation_regression_is_a_conflict() {
        let mut r = JitRegistry::new();
        r.register(Pid(3), 2, (0x1000, 0x2000)).unwrap();
        assert!(matches!(
            r.register(Pid(3), 1, (0x1000, 0x2000)),
            Err(ViprofError::RegistrationConflict { .. })
        ));
        // And after the live one retires, an older gen still conflicts.
        r.retire(Pid(3));
        assert!(matches!(
            r.register(Pid(3), 0, (0x1000, 0x2000)),
            Err(ViprofError::RegistrationConflict { .. })
        ));
    }
}
