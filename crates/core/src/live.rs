//! # Live resolution
//!
//! The offline pipeline loads every map once the session has stopped,
//! flattens it into a [`ResolutionEngine`] and resolves the sample
//! database. A [`LiveEngine`] caches that engine, so a report can be
//! resolved **while the session runs**, and again and again, without
//! reloading the maps each time. It does work only when a report is
//! asked for: its one entry point, [`LiveEngine::snapshot`], takes the
//! database to resolve and first refreshes the cache. The refresh
//! fingerprints what the batch loader reads:
//!
//! - the boot image's id;
//! - `RVM.map`'s length and CRC-32;
//! - the path and length of every file under [`JIT_MAP_DIR`].
//!
//! When the fingerprint differs from the one the cached engine was
//! loaded at, the refresh reloads the whole engine through the batch
//! loader; otherwise it keeps the engine it has. Epoch map files are
//! written once and the map journal only grows, so a file that changed
//! changes the listing.
//!
//! The snapshot then delegates to [`ResolutionEngine::resolve`]:
//! O(aggregate size) — proportional to the number of distinct buckets
//! and report rows, *independent of epoch depth and of how many
//! samples arrived*. The engine holds no samples of its own: a session
//! hands it the daemon's database, `viprof top` the database it
//! replays from the journal. So a snapshot is the batch report of that
//! database by construction: the same loader and the same resolve code
//! run over the same inputs, and load damage (failed pids, quarantined
//! lines, skipped files, missing epochs) is tallied by the loader
//! itself (`tests/fault_matrix.rs` checks live ≡ batch ≡ journal
//! replay under the full fault matrix). The process table is never
//! read.
//!
//! One rule differs on purpose: an `RVM.map` that does not parse fails
//! a batch report ([`crate::ViprofError::Corrupt`]), while a snapshot
//! treats it as absent and files boot-image samples under
//! `(no symbols)`, so a live session always has a report.

use oprofile::SampleDb;
use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_PATH};
use sim_os::{crc32, ImageId, Kernel};
use viprof_telemetry::{names, Counter, Telemetry, TraceLayer};

use crate::bootmap::BootMap;
use crate::codemap::JIT_MAP_DIR;
use crate::engine::{host_parallelism, ResolutionEngine};
use crate::resolve::ResolveOptions;
use crate::session::{ReportSpec, SessionReport};

/// Requests a live engine from [`crate::SessionBuilder::live`]. The
/// engine has no tuning: it resolves from the sample database and the
/// map files alone, exactly as the batch engine does.
#[non_exhaustive]
#[derive(Debug, Clone, Default)]
pub struct LiveSpec {}

impl LiveSpec {
    pub fn new() -> LiveSpec {
        LiveSpec::default()
    }
}

/// Everything the batch loader reads, reduced to what tells a change.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    boot_image: Option<ImageId>,
    /// `(len, crc32)` of `RVM.map`.
    rvm_map: Option<(usize, u32)>,
    /// `(path, len)` of every file under [`JIT_MAP_DIR`], sorted.
    jit_files: Vec<(String, usize)>,
}

impl Fingerprint {
    fn of(kernel: &Kernel) -> Fingerprint {
        let vfs = &kernel.vfs;
        Fingerprint {
            boot_image: kernel.images.find_by_name(BOOT_IMAGE_NAME),
            rvm_map: vfs.read(RVM_MAP_PATH).map(|bytes| (bytes.len(), crc32(bytes))),
            jit_files: vfs
                .list(&format!("{JIT_MAP_DIR}/"))
                .into_iter()
                .map(|path| (path.to_string(), vfs.read(path).map_or(0, <[u8]>::len)))
                .collect(),
        }
    }
}

/// Streaming resolution engine: the batch engine, cached against a
/// fingerprint of its inputs, able to resolve a full [`SessionReport`]
/// at any point mid-run.
pub struct LiveEngine {
    engine: ResolutionEngine,
    /// What `engine` was loaded from; `None` before the first refresh.
    loaded: Option<Fingerprint>,
    registry: Telemetry,
    rebuilds: Counter,
}

impl std::fmt::Debug for LiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEngine")
            .field("loaded", &self.loaded.is_some())
            .finish()
    }
}

impl LiveEngine {
    /// A live engine recording into `registry`: live counters and
    /// spans, and the inner engine's `resolve.*` metrics (which
    /// accumulate once per snapshot pass).
    pub fn new(registry: &Telemetry) -> LiveEngine {
        LiveEngine {
            engine: ResolutionEngine::default(),
            loaded: None,
            registry: registry.clone(),
            rebuilds: registry.counter(names::LIVE_FULL_REBUILDS),
        }
    }

    /// Resolve `db` into a full report against the maps on disk now:
    /// refresh the cache, then run the batch engine's resolve code, so
    /// the snapshot is bit-identical to the offline report over the
    /// same database. Cost is proportional to the number of distinct
    /// sample buckets plus report rows, plus a full load when a map
    /// file appeared since the last snapshot.
    pub fn snapshot(
        &mut self,
        db: &SampleDb,
        kernel: &Kernel,
        spec: &ReportSpec,
    ) -> SessionReport {
        self.refresh(kernel);
        self.engine.resolve(db, kernel, spec)
    }

    /// Bring the cache up to the on-disk state: reload the engine
    /// through the batch loader when the fingerprint changed, and
    /// record the reload as one `live.full_rebuilds` and one
    /// `span.live_rebuild`.
    pub(crate) fn refresh(&mut self, kernel: &Kernel) {
        let fingerprint = Fingerprint::of(kernel);
        if self.loaded.as_ref() == Some(&fingerprint) {
            return;
        }
        let bootmap = BootMap::load(&kernel.vfs).unwrap_or_default();
        let (mut engine, _) = ResolutionEngine::load_on(
            kernel,
            &bootmap,
            ResolveOptions::default(),
            host_parallelism(),
        );
        engine.set_telemetry(&self.registry);
        self.rebuilds.inc();
        let ctx = self.registry.trace_begin(
            TraceLayer::Live,
            names::SPAN_LIVE_REBUILD,
            self.registry.trace_root(),
        );
        self.registry.trace_end(
            ctx,
            &[
                ("jit_files", fingerprint.jit_files.len() as u64),
                ("map_entries", engine.map_entries()),
            ],
        );
        self.engine = engine;
        self.loaded = Some(fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{journal_path, map_path, map_prefix, render_map, CodeMapEntry};
    use crate::resolve::ViprofResolver;
    use oprofile::{SampleBucket, SampleOrigin};
    use sim_cpu::{HwEvent, ProcKey};

    fn entry(addr: u64, size: u64, sig: &str) -> CodeMapEntry {
        CodeMapEntry {
            addr,
            size,
            level: "opt0".into(),
            signature: sig.into(),
        }
    }

    fn write_map(kernel: &mut Kernel, key: ProcKey, epoch: u64, entries: &[CodeMapEntry]) {
        kernel
            .vfs
            .write(map_path(key, epoch), render_map(entries).into_bytes());
    }

    fn jit_batch(key: ProcKey, addr: u64, epoch: u64, n: u64) -> SampleDb {
        let mut db = SampleDb::new();
        for _ in 0..n {
            db.add(
                SampleBucket {
                    origin: SampleOrigin::JitApp {
                        pid: key.pid,
                        gen: key.gen,
                    },
                    event: HwEvent::Cycles,
                    addr,
                    epoch,
                },
                1,
            );
        }
        db
    }

    /// A live snapshot of `db` equals the batch engine's report over
    /// the same database and the maps on disk now.
    fn snap_equals_batch(
        live: &mut LiveEngine,
        db: &SampleDb,
        kernel: &Kernel,
    ) -> SessionReport {
        let spec = ReportSpec::default();
        let snap = live.snapshot(db, kernel, &spec);
        let (resolver, _) =
            ViprofResolver::load_with(kernel, ResolveOptions::default()).expect("batch load");
        let mut batch = ResolutionEngine::build(&resolver);
        let offline = batch.resolve(db, kernel, &spec);
        assert_eq!(snap.lines, offline.lines);
        assert_eq!(snap.quality, offline.quality);
        assert_eq!(snap.incarnations, offline.incarnations);
        snap
    }

    #[test]
    fn new_map_files_reload_the_cache_once() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let t = Telemetry::new();
        let mut live = LiveEngine::new(&t);
        let mut db = SampleDb::new();
        let rebuilds = || t.snapshot().counter(names::LIVE_FULL_REBUILDS);

        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);
        db.merge(&jit_batch(key, 0x2000_0010, 0, 5));
        snap_equals_batch(&mut live, &db, &kernel);
        assert_eq!(rebuilds(), 1, "the first snapshot loads");
        write_map(&mut kernel, key, 1, &[entry(0x2000_0200, 0x80, "B.run()V")]);
        db.merge(&jit_batch(key, 0x2000_0210, 1, 3));
        snap_equals_batch(&mut live, &db, &kernel);
        assert_eq!(rebuilds(), 2, "a new map file reloads once");

        // New samples but no new map file: the cache is kept.
        db.merge(&jit_batch(key, 0x2000_0010, 1, 2));
        snap_equals_batch(&mut live, &db, &kernel);
        assert_eq!(rebuilds(), 2, "no new map file, no reload");
    }

    #[test]
    fn damaged_map_files_are_tallied_like_the_batch_loader() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let mut live = LiveEngine::new(&Telemetry::new());
        let mut db = SampleDb::new();

        let mut garbled = render_map(&[entry(0x2000_0000, 0x100, "A.run()V")]);
        garbled.push_str("not a map line\n");
        kernel.vfs.write(map_path(key, 0), garbled.into_bytes());
        kernel.vfs.write(format!("{}bogus", map_prefix(key)), b"junk".to_vec());
        db.merge(&jit_batch(key, 0x2000_0010, 0, 4));
        snap_equals_batch(&mut live, &db, &kernel);
        kernel.vfs.write(map_path(key, 1), vec![0xff, 0xfe, 0xfd]);
        write_map(&mut kernel, key, 2, &[entry(0x2000_0200, 0x80, "B.run()V")]);
        db.merge(&jit_batch(key, 0x2000_0210, 2, 3));

        let quality = snap_equals_batch(&mut live, &db, &kernel).quality;
        assert_eq!(quality.quarantined_lines, 1, "the garbled line");
        assert_eq!(quality.skipped_map_files, 2, "the bad suffix and the non-UTF-8 file");
        assert_eq!(quality.missing_epochs, 1, "epoch 1 never loaded");
    }

    #[test]
    fn out_of_order_epoch_forces_rebuild_and_stays_identical() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let t = Telemetry::new();
        let mut live = LiveEngine::new(&t);
        let mut db = SampleDb::new();

        write_map(&mut kernel, key, 2, &[entry(0x2000_0000, 0x100, "C.run()V")]);
        db.merge(&jit_batch(key, 0x2000_0010, 2, 2));
        snap_equals_batch(&mut live, &db, &kernel);
        // An older epoch appears late (torn agent flush): one reload,
        // like any new map file.
        write_map(&mut kernel, key, 1, &[entry(0x2000_0000, 0x100, "B.run()V")]);
        db.merge(&jit_batch(key, 0x2000_0010, 1, 2));
        snap_equals_batch(&mut live, &db, &kernel);

        assert_eq!(t.snapshot().counter(names::LIVE_FULL_REBUILDS), 2);
    }

    #[test]
    fn exited_process_resolves_like_batch() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);

        let mut live = LiveEngine::new(&Telemetry::new());
        let db = jit_batch(key, 0x2000_0010, 0, 4);
        snap_equals_batch(&mut live, &db, &kernel);
        kernel.exit_process(pid);
        snap_equals_batch(&mut live, &db, &kernel);
    }

    #[test]
    fn incarnation_whose_maps_all_fail_is_unresolved_not_blocked() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let mut live = LiveEngine::new(&Telemetry::new());
        let mut db = SampleDb::new();

        // Only the map journal so far: like the batch loader, live
        // installs an empty index for the directory.
        kernel.vfs.write(journal_path(key), Vec::new());
        db.merge(&jit_batch(key, 0x2000_0010, 0, 4));
        snap_equals_batch(&mut live, &db, &kernel);
        assert!(live.engine.index(key).is_some());
        // The first map file is not UTF-8: the batch loader fails the
        // pid and holds no index for it, so nothing can block its
        // samples at the incarnation boundary.
        kernel.vfs.write(map_path(key, 0), vec![0xff, 0xfe, 0xfd]);
        db.merge(&jit_batch(key, 0x2000_0010, 0, 3));

        let quality = snap_equals_batch(&mut live, &db, &kernel).quality;
        assert!(live.engine.index(key).is_none());
        assert_eq!(quality.unresolved, 7);
        assert_eq!(quality.cross_incarnation_blocked, 0);
        assert_eq!(quality.failed_pids, 1);
    }
}
