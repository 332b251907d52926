//! # Live incremental resolution
//!
//! The offline pipeline waits for `opcontrol --stop` before it builds
//! flat indexes and resolves the sample database. This module keeps a
//! resolution engine **current while the session runs**: the daemon
//! feeds every drained batch to a [`LiveEngine`] through the
//! [`DrainSink`] seam, and the engine
//!
//! 1. merges the batch into a shadow [`SampleDb`]. A batch holds
//!    exactly what the daemon admitted into its own database, so the
//!    shadow converges to the authoritative one bucket-for-bucket,
//!    under an admission cap too;
//! 2. rescans each incarnation's code-map directory and **extends**
//!    its [`FlatIndex`] by the newly appeared epoch maps only —
//!    [`FlatIndex::extend`] re-sweeps just the address window each new
//!    map touches, instead of re-flattening the whole chain;
//! 3. installs the same index set the batch loader would for the
//!    directories on disk now: an incarnation with no usable map has
//!    no index, and a sample blocks at the incarnation boundary only
//!    while another incarnation of its pid holds one. The process
//!    table is never read — like the batch engine, live resolution
//!    depends on the sample database and the map files alone.
//!
//! [`LiveEngine::snapshot`] then delegates to
//! [`ResolutionEngine::resolve`] against the shadow database:
//! O(aggregate size) — proportional to the number of distinct buckets
//! and report rows, *independent of epoch depth and of how many
//! samples arrived* — and structurally bit-identical to the batch
//! report because it runs the very same resolve code over the very
//! same inputs.
//!
//! Batches are deduplicated by journal sequence number, so a
//! supervisor-restarted daemon replaying its write-ahead log cannot
//! double-count; [`LiveEngine::seal`] replays any journal records the
//! sink never delivered and does a final rescan, after which the
//! snapshot equals the offline report exactly (`tests/fault_matrix.rs`
//! checks the three-way identity under the full fault matrix).
//!
//! Epoch map files are written once and never mutated (the VM agent
//! creates `map.<epoch>` at epoch boundaries); the rescan relies on
//! that — a path already processed is never re-read.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use oprofile::daemon::DrainSink;
use oprofile::{SampleAccumulator, SampleDb, SinkHandle, SAMPLE_JOURNAL_PATH};
use sim_cpu::ProcKey;
use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_PATH};
use sim_os::journal;
use sim_os::{ImageId, Kernel};
use viprof_telemetry::{names, Counter, Telemetry, TraceCtx, TraceLayer};

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
    batches: Counter,
    extends: Counter,
    rebuilds: Counter,
}

/// Streaming resolution engine: a shadow sample database plus
/// incrementally maintained flat indexes, able to produce a full
/// [`SessionReport`] at any point mid-run.
pub struct LiveEngine {
    engine: ResolutionEngine,
    db: SampleAccumulator,
    keys: HashMap<ProcKey, KeyState>,
    /// Journal sequence numbers already merged (replay dedup).
    applied: HashSet<u64>,
    /// Batches accepted (post-dedup).
    batches: u64,
    /// `(len, crc32)` of `RVM.map` when the boot map was last loaded.
    boot_fp: Option<(usize, u32)>,
    boot_image: Option<ImageId>,
    sealed: bool,
    telemetry: LiveTelemetry,
    /// Causal parent for spans emitted during the current ingest: the
    /// daemon's drain span while an `on_batch` is in flight, the
    /// session root during `seal`'s replay, `None` otherwise.
    span_parent: Option<TraceCtx>,
}

impl std::fmt::Debug for LiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEngine")
            .field("batches", &self.batches)
            .field("keys", &self.keys.len())
            .field("sealed", &self.sealed)
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
            db: SampleAccumulator::default(),
            keys: HashMap::new(),
            applied: HashSet::new(),
            batches: 0,
            boot_fp: None,
            boot_image: None,
            sealed: false,
            telemetry: LiveTelemetry {
                registry: registry.clone(),
                batches: registry.counter(names::LIVE_BATCHES),
                extends: registry.counter(names::LIVE_INCREMENTAL_EXTENDS),
                rebuilds: registry.counter(names::LIVE_FULL_REBUILDS),
            },
            span_parent: None,
        }
    }

    /// Emit one instant live-layer span (begin == end at the registry's
    /// current sim time), parented to the in-flight drain span when the
    /// daemon provided one, else to the session root.
    fn live_span(&self, name: &'static str, fields: &[(&str, u64)]) {
        let registry = &self.telemetry.registry;
        let parent = self.span_parent.or_else(|| registry.trace_root());
        let ctx = registry.trace_begin(TraceLayer::Live, name, parent);
        registry.trace_end(ctx, fields);
    }

    /// The shadow sample database (converges to the daemon's).
    pub fn db(&mut self) -> &SampleDb {
        self.db.db()
    }

    /// Batches accepted so far (after journal-sequence deduplication).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Whether [`seal`](Self::seal) has run.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Wrap a shared engine as a daemon drain sink.
    pub fn sink(engine: Arc<Mutex<LiveEngine>>) -> SinkHandle {
        SinkHandle::new(LiveSink(engine))
    }

    /// Ingest one drained batch: merge samples and extend the indexes
    /// of every incarnation whose maps changed. `seq` is the batch's
    /// journal sequence number when journaling is on; a sequence seen
    /// before (supervisor restart replaying the write-ahead log) is
    /// dropped.
    /// `ctx` is the daemon's drain span: live spans emitted while this
    /// batch is processed (extends, rebuilds) chain to it.
    pub fn on_batch(
        &mut self,
        kernel: &Kernel,
        seq: Option<u64>,
        batch: &SampleDb,
        ctx: Option<TraceCtx>,
    ) {
        if self.sealed {
            return;
        }
        if let Some(seq) = seq {
            if !self.applied.insert(seq) {
                return;
            }
        }
        self.span_parent = ctx;
        self.batches += 1;
        self.db.merge(batch);
        self.refresh_boot(kernel);
        self.rescan_all(kernel);
        self.span_parent = None;
        self.telemetry.batches.inc();
    }

    /// Close the stream: replay journal records the sink never
    /// delivered (deduplicated by sequence number), refresh the boot
    /// map, and rescan every incarnation, so the engine reflects the
    /// final on-disk state. After sealing, further batches are ignored
    /// and the snapshot is the session's final report.
    pub fn seal(&mut self, kernel: &Kernel) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.span_parent = self.telemetry.registry.trace_root();
        if let Some(scan) = journal::scan(&kernel.vfs, SAMPLE_JOURNAL_PATH) {
            for rec in &scan.records {
                let Some(Ok((_, body))) = rec.sample_batch() else {
                    continue;
                };
                if !self.applied.insert(rec.seq) {
                    continue;
                }
                if let Ok(batch) = SampleDb::from_bytes(body) {
                    self.batches += 1;
                    self.db.merge(&batch);
                }
            }
        }
        self.refresh_boot(kernel);
        self.rescan_all(kernel);
        self.span_parent = None;
    }

    /// Produce a full report from the current live state. Runs the
    /// same resolve code as the batch engine over the shadow database,
    /// so a snapshot after [`seal`](Self::seal) is bit-identical to
    /// the offline report. Cost is proportional to the number of
    /// distinct sample buckets plus report rows.
    pub fn snapshot(&mut self, kernel: &Kernel, spec: &ReportSpec) -> SessionReport {
        self.engine.set_damage(self.damage());
        self.engine.resolve(self.db.db(), kernel, spec)
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

    /// Rescan the map directory of every incarnation on disk — the
    /// set the batch loader discovers.
    fn rescan_all(&mut self, kernel: &Kernel) {
        for key in discover_keys(kernel) {
            self.rescan_key(kernel, key);
        }
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

/// Adapter feeding daemon drain batches into a shared [`LiveEngine`].
pub struct LiveSink(pub Arc<Mutex<LiveEngine>>);

impl DrainSink for LiveSink {
    fn on_batch(
        &mut self,
        kernel: &Kernel,
        seq: Option<u64>,
        batch: &SampleDb,
        ctx: Option<TraceCtx>,
    ) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).on_batch(kernel, seq, batch, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{journal_path, map_path, render_map, CodeMapEntry};
    use crate::resolve::{ResolveOptions, ViprofResolver};
    use oprofile::{SampleBucket, SampleOrigin};
    use sim_cpu::HwEvent;
    use sim_os::journal::KIND_SAMPLE_BATCH;

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

    fn snap_equals_batch(live: &mut LiveEngine, kernel: &Kernel) {
        let spec = ReportSpec::default();
        let snap = live.snapshot(kernel, &spec);
        let (resolver, _) =
            ViprofResolver::load_with(kernel, ResolveOptions::default()).expect("batch load");
        let mut batch = ResolutionEngine::build(&resolver);
        let offline = batch.resolve(live.db(), kernel, &spec);
        assert_eq!(snap.lines, offline.lines);
        assert_eq!(snap.quality, offline.quality);
        assert_eq!(snap.incarnations, offline.incarnations);
    }

    #[test]
    fn incremental_extends_match_batch() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let t = Telemetry::new();
        let mut live = LiveEngine::new(&t);

        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);
        live.on_batch(&kernel, Some(0), &jit_batch(key, 0x2000_0010, 0, 5), None);
        write_map(&mut kernel, key, 1, &[entry(0x2000_0200, 0x80, "B.run()V")]);
        live.on_batch(&kernel, Some(1), &jit_batch(key, 0x2000_0210, 1, 3), None);

        assert_eq!(live.batches(), 2);
        // In-order epochs take the fast path: one extend each, no
        // rebuild.
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::LIVE_INCREMENTAL_EXTENDS), 2);
        assert_eq!(snap.counter(names::LIVE_FULL_REBUILDS), 0);
        snap_equals_batch(&mut live, &kernel);
    }

    #[test]
    fn damaged_map_files_are_tallied_like_the_batch_loader() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let mut live = LiveEngine::new(&Telemetry::new());

        let mut garbled = render_map(&[entry(0x2000_0000, 0x100, "A.run()V")]);
        garbled.push_str("not a map line\n");
        kernel.vfs.write(map_path(key, 0), garbled.into_bytes());
        kernel.vfs.write(format!("{}bogus", map_prefix(key)), b"junk".to_vec());
        live.on_batch(&kernel, Some(0), &jit_batch(key, 0x2000_0010, 0, 4), None);
        kernel.vfs.write(map_path(key, 1), vec![0xff, 0xfe, 0xfd]);
        write_map(&mut kernel, key, 2, &[entry(0x2000_0200, 0x80, "B.run()V")]);
        live.on_batch(&kernel, Some(1), &jit_batch(key, 0x2000_0210, 2, 3), None);

        let quality = live.snapshot(&kernel, &ReportSpec::default()).quality;
        assert_eq!(quality.quarantined_lines, 1, "the garbled line");
        assert_eq!(quality.skipped_map_files, 2, "the bad suffix and the non-UTF-8 file");
        assert_eq!(quality.missing_epochs, 1, "epoch 1 never loaded");
        snap_equals_batch(&mut live, &kernel);
    }

    #[test]
    fn replayed_sequences_are_deduplicated() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);

        let mut live = LiveEngine::new(&Telemetry::new());
        let batch = jit_batch(key, 0x2000_0010, 0, 7);
        live.on_batch(&kernel, Some(3), &batch, None);
        live.on_batch(&kernel, Some(3), &batch, None); // supervisor replay
        assert_eq!(live.batches(), 1);
        assert_eq!(live.db().total_samples(), 7);
    }

    #[test]
    fn out_of_order_epoch_forces_rebuild_and_stays_identical() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let t = Telemetry::new();
        let mut live = LiveEngine::new(&t);

        write_map(&mut kernel, key, 2, &[entry(0x2000_0000, 0x100, "C.run()V")]);
        live.on_batch(&kernel, Some(0), &jit_batch(key, 0x2000_0010, 2, 2), None);
        // An older epoch appears late (torn agent flush): rebuild path.
        write_map(&mut kernel, key, 1, &[entry(0x2000_0000, 0x100, "B.run()V")]);
        live.on_batch(&kernel, Some(1), &jit_batch(key, 0x2000_0010, 1, 2), None);

        assert_eq!(t.snapshot().counter(names::LIVE_FULL_REBUILDS), 1);
        snap_equals_batch(&mut live, &kernel);
    }

    #[test]
    fn exited_process_resolves_like_batch() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);

        let other = kernel.spawn("other");
        let mut live = LiveEngine::new(&Telemetry::new());
        live.on_batch(&kernel, Some(0), &jit_batch(key, 0x2000_0010, 0, 4), None);
        kernel.exit_process(pid);
        live.on_batch(&kernel, Some(1), &jit_batch(ProcKey::from(other), 0, 0, 0), None);
        snap_equals_batch(&mut live, &kernel);
    }

    #[test]
    fn incarnation_whose_maps_all_fail_is_unresolved_not_blocked() {
        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        let mut live = LiveEngine::new(&Telemetry::new());

        // Only the map journal so far: like the batch loader, live
        // installs an empty index for the directory.
        kernel.vfs.write(journal_path(key), Vec::new());
        live.on_batch(&kernel, Some(0), &jit_batch(key, 0x2000_0010, 0, 4), None);
        assert!(live.engine.index(key).is_some());
        // The first map file is not UTF-8: the batch loader fails the
        // pid and holds no index for it, so nothing can block its
        // samples at the incarnation boundary.
        kernel.vfs.write(map_path(key, 0), vec![0xff, 0xfe, 0xfd]);
        live.on_batch(&kernel, Some(1), &jit_batch(key, 0x2000_0010, 0, 3), None);

        let quality = live.snapshot(&kernel, &ReportSpec::default()).quality;
        assert_eq!(quality.unresolved, 7);
        assert_eq!(quality.cross_incarnation_blocked, 0);
        assert_eq!(quality.failed_pids, 1);
        snap_equals_batch(&mut live, &kernel);
    }

    #[test]
    fn seal_replays_missed_journal_batches() {
        use sim_os::journal::JournalWriter;

        let mut kernel = Kernel::new();
        let pid = kernel.spawn("java");
        let key = ProcKey::from(pid);
        write_map(&mut kernel, key, 0, &[entry(0x2000_0000, 0x100, "A.run()V")]);

        let delivered = jit_batch(key, 0x2000_0010, 0, 5);
        let missed = jit_batch(key, 0x2000_0020, 0, 3);
        let mut writer = JournalWriter::create(&mut kernel.vfs, SAMPLE_JOURNAL_PATH);
        let seq0 = writer.append(&mut kernel.vfs, KIND_SAMPLE_BATCH, &delivered.to_bytes());
        writer.append(&mut kernel.vfs, KIND_SAMPLE_BATCH, &missed.to_bytes());

        let mut live = LiveEngine::new(&Telemetry::new());
        live.on_batch(&kernel, Some(seq0), &delivered, None);
        assert_eq!(live.db().total_samples(), 5);
        live.seal(&kernel);
        // The record the sink never saw is merged exactly once.
        assert_eq!(live.db().total_samples(), 8);
        assert_eq!(live.batches(), 2);
        live.seal(&kernel); // idempotent
        assert_eq!(live.db().total_samples(), 8);
        snap_equals_batch(&mut live, &kernel);
    }
}
