//! Loading the post-processing inputs, and the types resolution
//! reports in.
//!
//! [`ViprofResolver`] loads the three sources the paper's
//! post-processing combines (§3.1–3.2): every incarnation's epoch code
//! maps, the boot-image map (`RVM.map`), and the boot image's id for
//! stock OProfile labels. It resolves nothing itself:
//! [`crate::engine::ResolutionEngine::build`] flattens what it loaded,
//! and the engine is the only production resolver. The per-bucket
//! epoch walk over a loaded resolver is kept as the test oracle in
//! [`crate::report`].
//!
//! Loading is *lossy by design* under damage: a pid whose maps are
//! unusable is skipped, bad map lines are quarantined, lost epochs are
//! salvaged from later maps — and every degradation is counted in a
//! [`ResolutionQuality`] report so the profile's trustworthiness is
//! itself measurable.

use crate::bootmap::BootMap;
use crate::codemap::{CodeMapSet, JIT_MAP_DIR};
use crate::engine::per_incarnation;
use crate::error::ViprofError;
use crate::recover::{recover_codemaps, RecoveryReport};
use sim_cpu::{Pid, ProcKey};
use sim_jvm::bootimage::BOOT_IMAGE_NAME;
use sim_os::{ImageId, Kernel};
use std::collections::HashMap;

/// Per-run accounting of how well resolution went. Every sample in the
/// database lands in exactly one of `resolved` / `stale_epoch` /
/// `unresolved`, so `accounted()` always equals the database's sample
/// total — degraded runs lose *precision*, never samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolutionQuality {
    /// Samples attributed through the normal path (backward epoch chain,
    /// boot map, or stock image symbols).
    pub resolved: u64,
    /// JIT samples recovered by the forward-salvage path: attributed,
    /// but possibly to a stale occupant of the address.
    pub stale_epoch: u64,
    /// Samples with no attribution beyond their raw origin (unresolved
    /// JIT, anon ranges, unknown PCs).
    pub unresolved: u64,
    /// Samples whose resolution shard panicked and whose fallback
    /// re-resolution panicked too: present in the database, counted
    /// here instead of silently vanishing from the report.
    pub quarantined: u64,
    /// JIT samples stamped with a generation that has no maps of its
    /// own while *another* incarnation of the same pid does. Resolving
    /// them against the other incarnation's maps would attribute a dead
    /// process's cycles to its pid-reusing successor (or vice versa),
    /// so the resolver refuses and counts them here instead.
    pub cross_incarnation_blocked: u64,
    /// Samples that never reached the database (ring-buffer overflow).
    pub dropped: u64,
    /// Samples an older session's admission cap refused, read from its
    /// v2/v3 sample-file header (`SampleDb::evicted`).
    pub evicted: u64,
    /// Map lines quarantined during load.
    pub quarantined_lines: u64,
    /// Whole map files skipped as unusable.
    pub skipped_map_files: u64,
    /// Pids whose code maps could not be loaded at all.
    pub failed_pids: u64,
    /// Epochs missing from otherwise-present map chains.
    pub missing_epochs: u64,
}

impl ResolutionQuality {
    /// Emitted samples this report accounts for — by construction equal
    /// to `db.total_samples()`, even when shards panicked.
    pub fn accounted(&self) -> u64 {
        self.resolved
            + self.stale_epoch
            + self.unresolved
            + self.quarantined
            + self.cross_incarnation_blocked
    }
}

/// Per-incarnation resolution breakdown: one row per `(pid, gen)` that
/// appears in the sample database's JIT origins. Churn-heavy sessions
/// (VM restarts, pid reuse) surface here as multiple rows per pid, each
/// accounted independently — the report's proof that attribution never
/// leaked across an incarnation boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncarnationSummary {
    pub pid: u32,
    pub gen: u32,
    /// All JIT samples stamped with this incarnation.
    pub samples: u64,
    pub resolved: u64,
    pub stale_epoch: u64,
    pub unresolved: u64,
    /// Samples refused because only *other* incarnations of this pid
    /// had maps (see [`ResolutionQuality::cross_incarnation_blocked`]).
    pub blocked: u64,
}

viprof_telemetry::impl_to_json!(IncarnationSummary {
    pid,
    gen,
    samples,
    resolved,
    stale_epoch,
    unresolved,
    blocked,
});

/// Discover incarnations with map directories: paths look like
/// `/var/lib/oprofile/jit/<pid>/<gen>/map.<epoch>` (or
/// `…/<pid>/<gen>/journal`).
pub(crate) fn discover_keys(kernel: &Kernel) -> Vec<ProcKey> {
    let prefix = format!("{JIT_MAP_DIR}/");
    let mut keys: Vec<ProcKey> = kernel
        .vfs
        .list(&prefix)
        .iter()
        .filter_map(|p| {
            let mut parts = p[prefix.len()..].split('/');
            let pid = parts.next()?.parse::<u32>().ok()?;
            let gen = parts.next()?.parse::<u32>().ok()?;
            Some(ProcKey::new(Pid(pid), gen))
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// How [`ViprofResolver::load_with`] should treat the on-disk map
/// artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ResolveOptions {
    /// Run the journal-replay recovery pass: per pid, pristine journal
    /// records are overlaid on the damaged disk state when a map
    /// journal exists; pids without one fall back to the plain
    /// degraded loader.
    pub recover: bool,
}

impl ResolveOptions {
    /// Options with the recovery pass enabled.
    pub fn recovered() -> ResolveOptions {
        ResolveOptions::default().with_recover(true)
    }

    /// Toggle the journal-replay recovery pass.
    pub fn with_recover(mut self, recover: bool) -> ResolveOptions {
        self.recover = recover;
        self
    }
}

/// What one load pass produced: the boot image's id, what each loaded
/// incarnation became in key order, the incarnations whose maps were
/// present but unloadable, and what journal replay did. `RVM.map` is
/// the caller's to read: the batch paths fail on one that does not
/// parse, the live cache treats it as absent.
pub(crate) struct Loaded<T> {
    pub boot_image: Option<ImageId>,
    pub incarnations: Vec<(ProcKey, T)>,
    pub failed_keys: Vec<ProcKey>,
    pub recovery: RecoveryReport,
}

/// Load every incarnation's maps on at most `workers` threads, the
/// calling one included, and hand each set to `then` on the thread that
/// read it. One job reads, parses and (with
/// [`ResolveOptions::recover`], when the incarnation has a map journal)
/// replays one incarnation; results are gathered in key order, so the
/// outcome is the same for every worker count.
pub(crate) fn load_each<T: Send>(
    kernel: &Kernel,
    options: ResolveOptions,
    workers: usize,
    then: impl Fn(CodeMapSet) -> T + Sync,
) -> Loaded<T> {
    let keys = discover_keys(kernel);
    let outcomes = per_incarnation(&keys, workers, |&key| {
        if options.recover {
            if let Some((set, rec)) = recover_codemaps(&kernel.vfs, key) {
                return Ok((then(set), Some(rec)));
            }
        }
        CodeMapSet::load(&kernel.vfs, key).map(|set| (then(set), None))
    });
    let mut loaded = Loaded {
        boot_image: kernel.images.find_by_name(BOOT_IMAGE_NAME),
        incarnations: Vec::with_capacity(keys.len()),
        failed_keys: Vec::new(),
        recovery: RecoveryReport::default(),
    };
    for (key, outcome) in keys.into_iter().zip(outcomes) {
        match outcome {
            Ok((done, rec)) => {
                if let Some(rec) = rec {
                    loaded.recovery.absorb(&rec);
                }
                loaded.incarnations.push((key, done));
            }
            Err(_) => loaded.failed_keys.push(key),
        }
    }
    loaded
}

/// The loaded post-processing inputs: every incarnation's code maps,
/// `RVM.map` and the boot image's id. Flatten it with
/// [`crate::engine::ResolutionEngine::build`] to resolve samples.
#[derive(Debug, Default)]
pub struct ViprofResolver {
    bootmap: BootMap,
    codemaps: HashMap<ProcKey, CodeMapSet>,
    boot_image: Option<ImageId>,
    /// Incarnations whose map sets failed to load (skipped, not fatal).
    failed_keys: Vec<ProcKey>,
}

impl ViprofResolver {
    /// Load every map artifact from the machine's VFS, optionally
    /// through the journal-replay recovery pass
    /// ([`ResolveOptions::recover`]).
    ///
    /// Loads on the calling thread: the resolver holds every
    /// incarnation's maps at once, and maps read on helper threads
    /// would stay in those threads' malloc arenas after it is gone.
    /// `Viprof::make_report` loads on its workers instead, where each
    /// worker flattens and drops one incarnation's maps before it reads
    /// the next.
    ///
    /// One pid's unloadable maps must not abort post-processing for
    /// every other pid: such pids are recorded (their samples degrade to
    /// "(unresolved jit)") and loading continues. The returned
    /// [`RecoveryReport`] is all-zero when recovery was off or no
    /// journals existed.
    pub fn load_with(
        kernel: &Kernel,
        options: ResolveOptions,
    ) -> Result<(ViprofResolver, RecoveryReport), ViprofError> {
        let bootmap = BootMap::load(&kernel.vfs)?;
        let loaded = load_each(kernel, options, 1, |set| set);
        Ok((
            ViprofResolver {
                bootmap,
                codemaps: loaded.incarnations.into_iter().collect(),
                boot_image: loaded.boot_image,
                failed_keys: loaded.failed_keys,
            },
            loaded.recovery,
        ))
    }

    pub fn codemaps(&self, key: impl Into<ProcKey>) -> Option<&CodeMapSet> {
        self.codemaps.get(&key.into())
    }

    /// Every loaded incarnation's map set, for index flattening.
    pub(crate) fn sets(&self) -> impl Iterator<Item = (&ProcKey, &CodeMapSet)> {
        self.codemaps.iter()
    }

    /// The image id the boot image registered under, if installed.
    pub(crate) fn boot_image_id(&self) -> Option<ImageId> {
        self.boot_image
    }

    pub fn bootmap(&self) -> &BootMap {
        &self.bootmap
    }

    /// Incarnations whose maps were present but unloadable.
    pub fn failed_pids(&self) -> &[ProcKey] {
        &self.failed_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{map_path, render_map, CodeMapEntry};
    use crate::engine::ResolutionEngine;
    use crate::session::ReportSpec;
    use oprofile::{SampleBucket, SampleDb, SampleOrigin};
    use sim_cpu::HwEvent;
    use sim_jvm::BootImage;

    fn bucket(origin: SampleOrigin, addr: u64, epoch: u64) -> SampleBucket {
        SampleBucket {
            origin,
            event: HwEvent::Cycles,
            addr,
            epoch,
        }
    }

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        let pid = k.spawn("jikesrvm");
        let mut boot = BootImage::jikes_standard();
        boot.install(&mut k, pid, 0x0900_0000);
        k.vfs.write(
            map_path(pid, 0),
            render_map(&[CodeMapEntry {
                addr: 0x6400_0040,
                size: 0x80,
                level: "O1".into(),
                signature: "app.Scanner.parseLine".into(),
            }])
            .into_bytes(),
        );
        (k, pid)
    }

    /// Load `k`'s maps and flatten them: the engine every test queries.
    fn engine(k: &Kernel, options: ResolveOptions) -> ResolutionEngine {
        ResolutionEngine::build(&ViprofResolver::load_with(k, options).unwrap().0)
    }

    /// The engine's `(image, symbol)` label.
    fn label(engine: &ResolutionEngine, b: SampleBucket, k: &Kernel) -> (String, String) {
        engine.label(&b, k)
    }

    #[test]
    fn boot_image_samples_resolve_to_rvm_map_rows() {
        let (k, _) = setup();
        let e = engine(&k, ResolveOptions::default());
        let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
        let (img, sym) = label(&e, bucket(SampleOrigin::Image(boot_id), 0x10, 0), &k);
        assert_eq!(img, "RVM.map");
        assert_eq!(sym, sim_jvm::bootimage::well_known::INTERPRET);
        // Offset past the image → degrades, not panics.
        let (img, sym) = label(&e, bucket(SampleOrigin::Image(boot_id), 0xffff_ff00, 0), &k);
        assert_eq!(
            (img.as_str(), sym.as_str()),
            ("RVM.code.image", "(no symbols)")
        );
    }

    #[test]
    fn jit_samples_resolve_through_code_maps() {
        let (k, pid) = setup();
        let e = engine(&k, ResolveOptions::default());
        let (img, sym) = label(
            &e,
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 0),
            &k,
        );
        assert_eq!(img, "JIT.App");
        assert_eq!(sym, "app.Scanner.parseLine");
        // Later epochs chain backwards to the same entry.
        let (_, sym) = label(
            &e,
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 5),
            &k,
        );
        assert_eq!(sym, "app.Scanner.parseLine");
        // Unknown address stays visibly unresolved.
        let (_, sym) = label(
            &e,
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x7000_0000, 0),
            &k,
        );
        assert_eq!(sym, "(unresolved jit)");
    }

    #[test]
    fn other_buckets_fall_back_to_oprofile_labels() {
        let (k, pid) = setup();
        let e = engine(&k, ResolveOptions::default());
        let (img, sym) = label(
            &e,
            bucket(SampleOrigin::Image(k.kernel_image), 0x3000, 0),
            &k,
        );
        assert_eq!((img.as_str(), sym.as_str()), ("vmlinux", "schedule"));
        let (img, _) = label(
            &e,
            bucket(
                SampleOrigin::Anon {
                    pid,
                    start: 0x1000,
                    end: 0x2000,
                },
                0x1800,
                0,
            ),
            &k,
        );
        assert!(img.starts_with("anon (range:0x1000-0x2000)"));
    }

    #[test]
    fn missing_artifacts_degrade_gracefully() {
        // Fresh kernel, no RVM.map, no code maps.
        let k = Kernel::new();
        let r = ViprofResolver::load_with(&k, ResolveOptions::default())
            .unwrap()
            .0;
        assert!(r.bootmap().is_empty());
        let e = ResolutionEngine::build(&r);
        let (img, sym) = label(
            &e,
            bucket(
                SampleOrigin::JitApp {
                    pid: Pid(1),
                    gen: 0,
                },
                0x10,
                0,
            ),
            &k,
        );
        assert_eq!(
            (img.as_str(), sym.as_str()),
            ("JIT.App", "(unresolved jit)")
        );
    }

    #[test]
    fn one_bad_pid_does_not_abort_the_others() {
        let (mut k, good) = setup();
        // A second VM whose only map file is binary garbage.
        let bad = k.spawn("jikesrvm2");
        k.vfs.write(map_path(bad, 0), vec![0xff, 0xfe, 0x80]);
        let r = ViprofResolver::load_with(&k, ResolveOptions::default())
            .unwrap()
            .0;
        assert_eq!(r.failed_pids(), &[ProcKey::new(bad, 0)]);
        assert!(r.codemaps(good).is_some(), "good pid still loaded");
        // The bad pid's samples degrade instead of erroring out, and the
        // failed load is counted.
        let e = ResolutionEngine::build(&r);
        let (_, sym) = label(
            &e,
            bucket(SampleOrigin::JitApp { pid: bad, gen: 0 }, 0x10, 0),
            &k,
        );
        assert_eq!(sym, "(unresolved jit)");
        assert_eq!(e.quality(&SampleDb::new(), 1).failed_pids, 1);
    }

    #[test]
    fn samples_never_resolve_across_incarnations() {
        // Only generation 0 of the pid has maps. A sample stamped with
        // generation 1 (the pid-reusing successor — or a predecessor's
        // ghost) must not borrow them.
        let (k, pid) = setup();
        let mut e = engine(&k, ResolveOptions::default());
        let (_, sym) = label(
            &e,
            bucket(SampleOrigin::JitApp { pid, gen: 1 }, 0x6400_0080, 0),
            &k,
        );
        assert_eq!(sym, "(unresolved jit)");
        let mut db = SampleDb::new();
        db.add(
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 0),
            10,
        );
        db.add(
            bucket(SampleOrigin::JitApp { pid, gen: 1 }, 0x6400_0080, 0),
            4,
        );
        // A pid with no maps under ANY generation stays plain unresolved.
        db.add(
            bucket(
                SampleOrigin::JitApp {
                    pid: Pid(99),
                    gen: 3,
                },
                0x10,
                0,
            ),
            2,
        );
        let q = e.quality(&db, 1);
        assert_eq!(q.resolved, 10);
        assert_eq!(q.cross_incarnation_blocked, 4);
        assert_eq!(q.unresolved, 2);
        assert_eq!(q.accounted(), db.total_samples());
        // The per-incarnation breakdown partitions the same samples,
        // in deterministic (pid, gen) order.
        let inc = e.resolve(&db, &k, &ReportSpec::default()).incarnations;
        assert_eq!(inc.len(), 3);
        assert_eq!((inc[0].pid, inc[0].gen, inc[0].resolved), (pid.0, 0, 10));
        assert_eq!((inc[1].pid, inc[1].gen, inc[1].blocked), (pid.0, 1, 4));
        assert_eq!((inc[2].pid, inc[2].gen, inc[2].unresolved), (99, 3, 2));
        let total: u64 = inc.iter().map(|i| i.samples).sum();
        assert_eq!(
            total,
            q.resolved + q.stale_epoch + q.cross_incarnation_blocked + 2
        );
    }

    #[test]
    fn salvage_recovers_samples_from_lost_epochs() {
        let (mut k, pid) = setup();
        // A method that only exists in epoch 4's map (earlier maps for
        // its address range were never written).
        k.vfs.write(
            map_path(pid, 4),
            render_map(&[CodeMapEntry {
                addr: 0x6500_0000,
                size: 0x40,
                level: "base".into(),
                signature: "app.Late.comer".into(),
            }])
            .into_bytes(),
        );
        let e = engine(&k, ResolveOptions::default());
        // A sample tagged epoch 1 on that address: backward chain
        // misses, forward salvage attributes it (stale).
        let (_, sym) = label(
            &e,
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6500_0010, 1),
            &k,
        );
        assert_eq!(sym, "app.Late.comer");
    }

    #[test]
    fn quality_accounts_for_every_sample() {
        let (k, pid) = setup();
        let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
        let mut db = SampleDb::new();
        db.add(
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 0),
            10,
        );
        db.add(
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x7000_0000, 0),
            3,
        );
        db.add(bucket(SampleOrigin::Image(boot_id), 0x10, 0), 5);
        db.add(bucket(SampleOrigin::Unknown, 0x0, 0), 2);
        db.dropped = 7;
        let q = engine(&k, ResolveOptions::default()).quality(&db, 1);
        assert_eq!(q.resolved, 15);
        assert_eq!(q.unresolved, 5);
        assert_eq!(q.stale_epoch, 0);
        assert_eq!(q.dropped, 7);
        assert_eq!(q.accounted(), db.total_samples());
    }

    #[test]
    fn load_recovered_replays_journals_and_matches_plain_load_without_them() {
        use crate::codemap::journal_path;
        use sim_os::journal::KIND_CODE_MAP;
        use sim_os::JournalWriter;
        // Without any journal, recovery degenerates to the plain loader.
        let (k, pid) = setup();
        let (r, report) = ViprofResolver::load_with(&k, ResolveOptions::recovered()).unwrap();
        assert_eq!(report, crate::recover::RecoveryReport::default());
        assert!(r.codemaps(pid).is_some());
        // Tear epoch 0's map on disk but journal the pristine render:
        // recovery resolves what plain load cannot.
        let (mut k, pid) = setup();
        let pristine = k.vfs.read(&map_path(pid, 0)).unwrap().to_vec();
        k.vfs.write(map_path(pid, 0), pristine[..10].to_vec());
        let mut payload = 0u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&pristine);
        let mut w = JournalWriter::create(&mut k.vfs, journal_path(pid));
        w.append(&mut k.vfs, KIND_CODE_MAP, &payload);
        let jit = bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 0);
        let degraded = engine(&k, ResolveOptions::default());
        let (_, sym) = label(&degraded, jit, &k);
        assert_eq!(sym, "(unresolved jit)");
        let (recovered, report) =
            ViprofResolver::load_with(&k, ResolveOptions::recovered()).unwrap();
        assert_eq!(report.journals_scanned, 1);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.epochs_recovered, 1);
        let (_, sym) = label(&ResolutionEngine::build(&recovered), jit, &k);
        assert_eq!(sym, "app.Scanner.parseLine");
    }

    #[test]
    fn multi_incarnation_reports_match_at_every_thread_count() {
        use crate::codemap::journal_path;
        use crate::Viprof;
        use sim_os::journal::KIND_CODE_MAP;
        use sim_os::JournalWriter;
        let (mut k, pid) = setup();
        let map = |addr: u64, sig: &str| {
            render_map(&[CodeMapEntry {
                addr,
                size: 0x40,
                level: "base".into(),
                signature: sig.into(),
            }])
        };
        // A restarted incarnation of the same pid, two incarnations whose
        // map files are all garbage, and one whose torn map only its
        // journal can restore.
        let restarted = ProcKey::new(pid, 1);
        k.vfs
            .write(map_path(restarted, 0), map(0x6400_0040, "app.Again.run"));
        k.vfs
            .write(map_path(restarted, 2), map(0x6500_0000, "app.Again.late"));
        let garbage = [
            ProcKey::new(k.spawn("bad1"), 0),
            ProcKey::new(k.spawn("bad2"), 3),
        ];
        for key in garbage {
            k.vfs.write(map_path(key, 0), vec![0xff, 0xfe, 0x80]);
            k.vfs.write(map_path(key, 1), vec![0xc0]);
        }
        let journaled = ProcKey::new(k.spawn("journaled"), 0);
        let pristine = map(0x6600_0000, "app.Saved.byJournal");
        k.vfs
            .write(map_path(journaled, 0), pristine.as_bytes()[..10].to_vec());
        let mut payload = 0u64.to_le_bytes().to_vec();
        payload.extend_from_slice(pristine.as_bytes());
        let mut w = JournalWriter::create(&mut k.vfs, journal_path(journaled));
        w.append(&mut k.vfs, KIND_CODE_MAP, &payload);

        for options in [ResolveOptions::default(), ResolveOptions::recovered()] {
            let (r, rec) = ViprofResolver::load_with(&k, options).unwrap();
            assert_eq!(r.failed_pids(), garbage.as_slice(), "{options:?}");
            assert_eq!(rec.journals_scanned, options.recover as u64);
            assert_eq!(r.sets().count(), 3);
        }

        let mut db = SampleDb::new();
        for (key, addr) in [
            (ProcKey::new(pid, 0), 0x6400_0080),
            (restarted, 0x6400_0050),
            (restarted, 0x6500_0010),
            (garbage[0], 0x10),
            (journaled, 0x6600_0010),
        ] {
            let origin = SampleOrigin::JitApp {
                pid: key.pid,
                gen: key.gen,
            };
            db.add(bucket(origin, addr, 1), 3 + addr % 7);
        }
        for spec in [ReportSpec::default(), ReportSpec::recovered()] {
            let (r, _) =
                ViprofResolver::load_with(&k, ResolveOptions::default().with_recover(spec.recover))
                    .unwrap();
            let two_step = ResolutionEngine::build(&r).resolve(&db, &k, &spec);
            for threads in [1, 2, 4] {
                let made = Viprof::make_report(&db, &k, &spec.clone().threads(threads)).unwrap();
                let at = format!("recover={} threads={threads}", spec.recover);
                assert_eq!(made.lines, two_step.lines, "{at}");
                assert_eq!(made.quality, two_step.quality, "{at}");
                assert_eq!(made.incarnations, two_step.incarnations, "{at}");
                assert_eq!(made.lineage, two_step.lineage, "{at}");
            }
            assert_eq!(two_step.quality.failed_pids, 2);
        }
    }

    #[test]
    fn quality_separates_stale_from_resolved() {
        let (mut k, pid) = setup();
        k.vfs.write(
            map_path(pid, 4),
            render_map(&[CodeMapEntry {
                addr: 0x6500_0000,
                size: 0x40,
                level: "base".into(),
                signature: "app.Late.comer".into(),
            }])
            .into_bytes(),
        );
        let mut db = SampleDb::new();
        // Backward hit.
        db.add(
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 2),
            4,
        );
        // Forward salvage.
        db.add(
            bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6500_0010, 1),
            6,
        );
        let q = engine(&k, ResolveOptions::default()).quality(&db, 1);
        assert_eq!(q.resolved, 4);
        assert_eq!(q.stale_epoch, 6);
        assert_eq!(q.accounted(), db.total_samples());
        // Epochs 1-3 are absent between map.0 and map.4.
        assert_eq!(q.missing_epochs, 3);
    }
}
