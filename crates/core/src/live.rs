//! # Live incremental resolution
//!
//! The offline pipeline builds flat indexes from scratch and resolves
//! the sample database once the session has stopped. A [`LiveEngine`]
//! is a cache of that index set, so a report can be resolved **while
//! the session runs** without re-flattening every map each time. It
//! does work only when a report is asked for: its one entry point,
//! [`LiveEngine::snapshot`], takes the database to resolve and first
//! refreshes the cache:
//!
//! 1. it reloads the flattened boot map when `RVM.map`'s fingerprint
//!    changed;
//! 2. it lists each incarnation's code-map directory and **extends**
//!    that incarnation's [`FlatIndex`] by the epoch maps that appeared
//!    since the last refresh — [`FlatIndex::extend`] re-sweeps just the
//!    address window each new map touches, instead of re-flattening
//!    the whole chain. A map that arrives out of order, or an extend
//!    that refuses, falls back to a rebuild of that incarnation;
//! 3. it installs the same index set the batch loader would for the
//!    directories on disk now: an incarnation with no usable map has
//!    no index, and a sample blocks at the incarnation boundary only
//!    while another incarnation of its pid holds one. The process
//!    table is never read — like the batch engine, live resolution
//!    depends on the sample database and the map files alone.
//!
//! The snapshot then delegates to [`ResolutionEngine::resolve`]:
//! O(aggregate size) — proportional to the number of distinct buckets
//! and report rows, *independent of epoch depth and of how many
//! samples arrived*. The engine holds no samples of its own: a session
//! hands it the daemon's database, `viprof top` the database it
//! replays from the journal. So a snapshot is the batch report of
//! that database by construction, because it runs the very same
//! resolve code over the very same inputs (`tests/fault_matrix.rs`
//! checks live ≡ batch ≡ journal replay under the full fault matrix).
//!
//! Epoch map files are written once and never mutated (the VM agent
//! creates `map.<epoch>` at epoch boundaries); the refresh relies on
//! that — a path already processed is never re-read.

use std::collections::{HashMap, HashSet};

use oprofile::SampleDb;
use sim_cpu::ProcKey;
use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_PATH};
use sim_os::journal;
use sim_os::{ImageId, Kernel};
use viprof_telemetry::{names, Counter, Telemetry, TraceLayer};

use crate::bootmap::BootMap;
use crate::codemap::{map_prefix, read_map_file, CodeMapSet, EpochMap, Symbols};
use crate::engine::ResolutionEngine;
use crate::flatindex::FlatIndex;
use crate::resolve::{discover_keys, ResolutionQuality};
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

/// Per-incarnation bookkeeping: what [`CodeMapSet::load`] would tally
/// for the same directory, by the same per-file rules
/// ([`read_map_file`]).
#[derive(Debug, Default)]
struct KeyState {
    /// Map-file paths already processed (write-once files).
    files: HashSet<String>,
    /// Epochs of the usable maps flattened so far, ascending — the
    /// live twin of `CodeMapSet::maps()`'s epoch sequence.
    epochs: Vec<u64>,
    /// Bad lines inside otherwise-usable files.
    quarantined_lines: u64,
    /// Files skipped whole (bad epoch suffix, unreadable, non-UTF8).
    skipped_files: u64,
    /// The table the incarnation's maps are parsed into, the one its
    /// index names symbols by.
    symbols: Symbols,
}

impl KeyState {
    /// `CodeMapSet::load` fails (and the batch resolver counts the pid
    /// as failed) exactly when the directory has files but none are
    /// usable.
    fn failed(&self) -> bool {
        !self.files.is_empty() && self.epochs.is_empty()
    }

    fn missing_epochs(&self) -> u64 {
        match self.epochs.last() {
            Some(&last) => (last + 1).saturating_sub(self.epochs.len() as u64),
            None => 0,
        }
    }
}

struct LiveTelemetry {
    registry: Telemetry,
    extends: Counter,
    rebuilds: Counter,
}

/// Streaming resolution engine: a cache of incrementally maintained
/// flat indexes, one per incarnation, plus the boot map, able to
/// resolve a full [`SessionReport`] at any point mid-run.
pub struct LiveEngine {
    engine: ResolutionEngine,
    keys: HashMap<ProcKey, KeyState>,
    /// `(len, crc32)` of `RVM.map` when the boot map was last loaded.
    boot_fp: Option<(usize, u32)>,
    boot_image: Option<ImageId>,
    telemetry: LiveTelemetry,
}

impl std::fmt::Debug for LiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEngine")
            .field("keys", &self.keys.len())
            .finish()
    }
}

impl LiveEngine {
    /// A live engine recording into `registry`: live counters and
    /// spans, and the inner engine's `resolve.*` metrics (which
    /// accumulate once per snapshot pass).
    pub fn new(registry: &Telemetry) -> LiveEngine {
        let mut engine = ResolutionEngine::default();
        engine.set_telemetry(registry);
        LiveEngine {
            engine,
            keys: HashMap::new(),
            boot_fp: None,
            boot_image: None,
            telemetry: LiveTelemetry {
                registry: registry.clone(),
                extends: registry.counter(names::LIVE_INCREMENTAL_EXTENDS),
                rebuilds: registry.counter(names::LIVE_FULL_REBUILDS),
            },
        }
    }

    /// Emit one instant live-layer span (begin == end at the registry's
    /// current sim time), parented to the session root.
    fn live_span(&self, name: &'static str, fields: &[(&str, u64)]) {
        let registry = &self.telemetry.registry;
        let ctx = registry.trace_begin(TraceLayer::Live, name, registry.trace_root());
        registry.trace_end(ctx, fields);
    }

    /// Resolve `db` into a full report against the maps on disk now:
    /// refresh the cache, then run the batch engine's resolve code, so
    /// the snapshot is bit-identical to the offline report over the
    /// same database. Cost is proportional to the number of distinct
    /// sample buckets plus report rows, plus the maps that are new
    /// since the last snapshot.
    pub fn snapshot(
        &mut self,
        db: &SampleDb,
        kernel: &Kernel,
        spec: &ReportSpec,
    ) -> SessionReport {
        self.refresh(kernel);
        self.engine.set_damage(self.damage());
        self.engine.resolve(db, kernel, spec)
    }

    /// Bring the cache up to the on-disk state: the boot map, then
    /// every incarnation's map directory — the set the batch loader
    /// discovers.
    pub(crate) fn refresh(&mut self, kernel: &Kernel) {
        self.refresh_boot(kernel);
        for key in discover_keys(kernel) {
            self.rescan_key(kernel, key);
        }
    }

    /// Resolution damage mirroring `ResolutionEngine::build`'s
    /// tally over a full `ViprofResolver::load`: per-key counts are
    /// summed only for incarnations with at least one usable map;
    /// a directory with files but no usable map contributes exactly
    /// one failed pid. (`dropped`/`evicted` come from the database at
    /// resolve time, not from here.)
    fn damage(&self) -> ResolutionQuality {
        let mut damage = ResolutionQuality::default();
        for st in self.keys.values() {
            if st.failed() {
                damage.failed_pids += 1;
            } else if !st.epochs.is_empty() {
                damage.quarantined_lines += st.quarantined_lines;
                damage.skipped_map_files += st.skipped_files;
                damage.missing_epochs += st.missing_epochs();
            }
        }
        damage
    }

    /// Reload the flattened boot map when `RVM.map` changed (or first
    /// appeared). The boot-image id is refreshed even when the map
    /// file is absent: boot-image samples are labelled through the
    /// image id regardless of whether any method row matches.
    fn refresh_boot(&mut self, kernel: &Kernel) {
        let boot_image = kernel.images.find_by_name(BOOT_IMAGE_NAME);
        let fp = kernel
            .vfs
            .read(RVM_MAP_PATH)
            .map(|bytes| (bytes.len(), journal::crc32(bytes)));
        if boot_image == self.boot_image && fp == self.boot_fp {
            return;
        }
        self.boot_image = boot_image;
        self.boot_fp = fp;
        let map = BootMap::load(&kernel.vfs).unwrap_or_default();
        self.engine.set_boot(&map, boot_image);
    }

    /// Incremental path: process map files not seen before, extending
    /// the incarnation's index one epoch at a time. Falls back to a
    /// full rebuild when a new epoch arrives out of order (older than
    /// an already-flattened one) or an extend refuses.
    fn rescan_key(&mut self, kernel: &Kernel, key: ProcKey) {
        let prefix = map_prefix(key);
        let paths = kernel.vfs.list(&prefix);
        if paths.is_empty() {
            // A discovered incarnation directory with no map files at
            // all (journal only — every map write torn, say) loads as
            // an *empty* set in the batch path, which still inserts an
            // empty index and claims the pid. Mirror that.
            if self.engine.index(key).is_none() {
                self.engine
                    .insert_index(key, FlatIndex::build(&CodeMapSet::default()));
            }
            return;
        }
        let st = self.keys.entry(key).or_default();
        let mut fresh: Vec<EpochMap> = Vec::new();
        for path in paths {
            if st.files.contains(path) {
                continue;
            }
            fresh.extend(read_map_file(
                &kernel.vfs,
                &prefix,
                path,
                &mut st.symbols,
                &mut st.quarantined_lines,
                &mut st.skipped_files,
            ));
            st.files.insert(path.to_string());
        }
        if fresh.is_empty() {
            if st.failed() {
                // Every file for this incarnation is unusable: the
                // batch loader errors out and loads no index.
                self.engine.remove_index(&key);
            }
            return;
        }
        fresh.sort_by_key(|m| m.epoch);
        let in_order = st
            .epochs
            .last()
            .is_none_or(|&last| fresh[0].epoch >= last);
        if in_order {
            if self.engine.index(key).is_none() {
                // An extend-grown index must start from the flattened
                // empty set, not `FlatIndex::default()` (the sweep
                // leaves a sentinel layer offset the splice needs).
                self.engine
                    .insert_index(key, FlatIndex::build(&CodeMapSet::default()));
            }
            let mut extended = 0u64;
            let mut ok = true;
            for map in &fresh {
                let ordinal = st.epochs.len() as u32;
                let index = self.engine.index_mut(&key).expect("index just ensured");
                if index.extend(map, &st.symbols, ordinal) {
                    st.epochs.push(map.epoch);
                    extended += 1;
                } else {
                    ok = false;
                    break;
                }
            }
            self.telemetry.extends.add(extended);
            if extended > 0 {
                self.live_span(
                    names::SPAN_LIVE_EXTEND,
                    &[
                        ("pid", key.pid.0 as u64),
                        ("gen", key.gen as u64),
                        ("epochs", extended),
                    ],
                );
            }
            if ok {
                return;
            }
        }
        self.rebuild_key(kernel, key);
    }

    /// Slow path: reload the incarnation from disk exactly the way the
    /// batch resolver does and rebuild its index from scratch.
    fn rebuild_key(&mut self, kernel: &Kernel, key: ProcKey) {
        let prefix = map_prefix(key);
        let files: HashSet<String> = kernel
            .vfs
            .list(&prefix)
            .iter()
            .map(|p| p.to_string())
            .collect();
        match CodeMapSet::load(&kernel.vfs, key) {
            Ok(set) => {
                let st = self.keys.entry(key).or_default();
                st.files = files;
                st.epochs = set.maps().iter().map(|m| m.epoch).collect();
                st.quarantined_lines = set.quarantined_lines;
                st.skipped_files = set.skipped_files;
                let epochs = st.epochs.len() as u64;
                self.engine.insert_index(key, FlatIndex::build(&set));
                st.symbols = set.into_symbols();
                self.telemetry.rebuilds.inc();
                self.live_span(
                    names::SPAN_LIVE_REBUILD,
                    &[
                        ("pid", key.pid.0 as u64),
                        ("gen", key.gen as u64),
                        ("epochs", epochs),
                    ],
                );
            }
            Err(_) => {
                // Directory has files but none usable — the batch
                // resolver counts this incarnation as a failed pid and
                // loads no index.
                let st = self.keys.entry(key).or_default();
                st.files = files;
                st.epochs.clear();
                self.engine.remove_index(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{journal_path, map_path, render_map, CodeMapEntry};
    use crate::resolve::{ResolveOptions, ViprofResolver};
    use oprofile::{SampleBucket, SampleOrigin};
    use sim_cpu::HwEvent;

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
    fn incremental_extends_match_batch() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let t = Telemetry::new();
        let mut live = LiveEngine::new(&t);
        let mut db = SampleDb::new();

        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);
        db.merge(&jit_batch(key, 0x2000_0010, 0, 5));
        snap_equals_batch(&mut live, &db, &kernel);
        write_map(&mut kernel, key, 1, &[entry(0x2000_0200, 0x80, "B.run()V")]);
        db.merge(&jit_batch(key, 0x2000_0210, 1, 3));
        snap_equals_batch(&mut live, &db, &kernel);

        // In-order epochs take the fast path: one extend each, no
        // rebuild; a snapshot with no new map extends nothing.
        snap_equals_batch(&mut live, &db, &kernel);
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::LIVE_INCREMENTAL_EXTENDS), 2);
        assert_eq!(snap.counter(names::LIVE_FULL_REBUILDS), 0);
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
        // An older epoch appears late (torn agent flush): rebuild path.
        write_map(&mut kernel, key, 1, &[entry(0x2000_0000, 0x100, "B.run()V")]);
        db.merge(&jit_batch(key, 0x2000_0010, 1, 2));
        snap_equals_batch(&mut live, &db, &kernel);

        assert_eq!(t.snapshot().counter(names::LIVE_FULL_REBUILDS), 1);
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
