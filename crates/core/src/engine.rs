//! The resolution engine: flattened epoch indexes + sharded
//! multi-threaded aggregation. This is the only production resolver.
//!
//! [`ViprofResolver`] loads the on-disk artifacts (epoch code maps,
//! `RVM.map`); [`ResolutionEngine::build`] turns what it loaded into
//! the state every query runs against. `Viprof::make_report` does both
//! in one pass per incarnation instead, so each worker holds one
//! incarnation's maps at a time:
//!
//! 1. every incarnation's epoch chain is collapsed into a
//!    [`FlatIndex`] (one binary search per
//!    lookup instead of one per epoch), one incarnation per job on
//!    scoped threads, and the boot-image map is flattened the same way;
//! 2. the sample database's sorted buckets are split into contiguous
//!    slices, and the shards are resolved concurrently via
//!    [`std::thread::scope`] against the shared immutable index.
//!    Each bucket costs one index lookup, which yields its class and
//!    its label together; rows are keyed by the *address* of borrowed
//!    label text, so the hot loop neither allocates nor touches shared
//!    reference counts, and strings are built once per distinct row at
//!    merge time. Per-shard [`ResolutionQuality`] tallies, row
//!    aggregates and per-incarnation breakdowns merge with plain
//!    commutative sums. One runner does the sharding, the per-shard
//!    panic isolation, the single-threaded retry and the quarantine for
//!    both the report and the quality-only pass.
//!
//! The engine produces **bit-identical** reports and quality totals
//! regardless of thread count, and identical to the per-bucket epoch
//! walk in [`crate::report`] — the test oracle, enforced by
//! `tests/prop_resolve_flat.rs` and the fault-matrix suite.

use crate::bootmap::BootMap;
use crate::flatindex::FlatIndex;
use crate::codemap::CodeMapSet;
use crate::recover::RecoveryReport;
use crate::resolve::{
    load_each, IncarnationSummary, ResolutionQuality, ResolveOptions, ViprofResolver,
};
use crate::session::{ReportSpec, SessionReport};
use oprofile::report::{bucket_label, finish_report, report_events, Report, ReportOptions};
use oprofile::{SampleBucket, SampleDb, SampleOrigin, SAMPLE_JOURNAL_PATH, TIMELINE_PATH};
use sim_cpu::{HwEvent, Pid, ProcKey};
use sim_jvm::bootimage::{BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL};
use sim_os::journal;
use sim_os::{ImageId, Kernel};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use viprof_telemetry::{
    names, Counter, Gauge, HealthReport, Histogram, LineageTable, SpanStore, Telemetry,
    Timeline, TraceCtx, TraceLayer, TraceSnapshot, DEFAULT_SPAN_CAPACITY,
};

/// Image column of every JIT row.
const JIT_APP: &str = "JIT.App";
/// Symbol column of a JIT sample no map covers.
const UNRESOLVED_JIT: &str = "(unresolved jit)";
/// Symbol column of an image sample no symbol covers.
const NO_SYMBOLS: &str = "(no symbols)";

/// How a bucket classified, mirroring the [`ResolutionQuality`]
/// buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Resolved,
    Stale,
    Unresolved,
    /// The sample's incarnation has no maps while another incarnation
    /// of the same pid does — refused, never cross-resolved.
    Blocked,
}

/// The FxHash step (rotate, xor, multiply per word) for the engine's
/// hot maps. Their keys are a few integers or addresses that the
/// engine itself derives, so SipHash's flooding resistance buys
/// nothing, and unlike `RandomState` the result is a pure function of
/// the key.
#[derive(Debug, Clone, Copy, Default)]
struct Mix(u64);

type MixState = BuildHasherDefault<Mix>;

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; rotate them
    /// down to where `HashMap` picks its slot.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Label text borrowed from the engine or the kernel, hashed and
/// compared by address and length. Equal keys are the same bytes, so a
/// key never stands for two texts; equal texts at two addresses (one
/// signature interned by two incarnations) merge when the rows become
/// strings.
#[derive(Debug, Clone, Copy)]
struct TextId<'a>(&'a str);

impl PartialEq for TextId<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for TextId<'_> {}

impl Hash for TextId<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.as_ptr() as usize);
        state.write_usize(self.0.len());
    }
}

/// A report row's identity while shards aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RowKey<'a> {
    /// `(image, symbol)` text borrowed from the engine or the kernel.
    Text(TextId<'a>, TextId<'a>),
    /// Anon ranges and unknown PCs, whose stock labels are formatted
    /// from the origin alone: one key per origin, formatted once per
    /// row at merge time.
    Formatted(SampleOrigin),
}

impl<'a> RowKey<'a> {
    fn text(image: &'a str, symbol: &'a str) -> RowKey<'a> {
        RowKey::Text(TextId(image), TextId(symbol))
    }

    /// The row's `(image, symbol)` columns as owned strings.
    fn to_strings(self, kernel: &Kernel) -> (String, String) {
        match self {
            RowKey::Text(image, symbol) => (image.0.to_string(), symbol.0.to_string()),
            RowKey::Formatted(origin) => bucket_label(
                &SampleBucket {
                    origin,
                    event: HwEvent::Cycles,
                    addr: 0,
                    epoch: 0,
                },
                kernel,
            ),
        }
    }
}

/// Counts per event for each row, keyed by borrowed identity.
type RowCounts<'a> = HashMap<RowKey<'a>, Vec<u64>, MixState>;

/// Per-shard partial sums; merged by addition, so the totals are
/// independent of the partition. Also one incarnation's breakdown.
#[derive(Debug, Clone, Copy, Default)]
struct ShardTally {
    resolved: u64,
    stale_epoch: u64,
    unresolved: u64,
    /// Samples whose shard panicked twice (worker + fallback): kept in
    /// the accounting so the report never silently shrinks.
    quarantined: u64,
    /// Samples refused by the cross-incarnation isolation invariant.
    blocked: u64,
}

impl ShardTally {
    fn add(&mut self, class: Class, count: u64) {
        match class {
            Class::Resolved => self.resolved += count,
            Class::Stale => self.stale_epoch += count,
            Class::Unresolved => self.unresolved += count,
            Class::Blocked => self.blocked += count,
        }
    }

    fn absorb(&mut self, other: &ShardTally) {
        self.resolved += other.resolved;
        self.stale_epoch += other.stale_epoch;
        self.unresolved += other.unresolved;
        self.quarantined += other.quarantined;
        self.blocked += other.blocked;
    }
}

/// One incarnation as a shard sees it: its index, looked up once per
/// run of its buckets rather than once per bucket, and its breakdown
/// so far.
struct ShardIncarnation<'a> {
    index: Option<&'a FlatIndex>,
    /// No index of its own while another incarnation of the pid has
    /// one.
    blocked: bool,
    tally: ShardTally,
}

impl<'a> ShardIncarnation<'a> {
    /// Class and JIT symbol of one of this incarnation's buckets, from
    /// a single index lookup. Must stay in lockstep with the oracle's
    /// per-bucket match ([`crate::report::quality`]).
    fn classify(&self, bucket: &SampleBucket) -> (Class, Option<&'a str>) {
        match self.index {
            Some(f) => match f.resolve_salvage(bucket.addr, bucket.epoch) {
                Some((sym, false)) => (Class::Resolved, Some(&**sym)),
                Some((sym, true)) => (Class::Stale, Some(&**sym)),
                None => (Class::Unresolved, None),
            },
            None if self.blocked => (Class::Blocked, None),
            None => (Class::Unresolved, None),
        }
    }
}

/// What one pass over a shard produced.
struct ShardPart<'a> {
    rows: RowCounts<'a>,
    tally: ShardTally,
    /// One entry per run of an incarnation's buckets, in shard order.
    incarnations: Vec<(ProcKey, ShardIncarnation<'a>)>,
}

/// Which pass over a shard is running; decides whether the poison knob
/// trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attempt {
    /// The first try, on a shard worker.
    Worker,
    /// The single-threaded retry of a shard whose worker panicked.
    Retry,
    /// The classify-only walk that recovers a quarantined shard's
    /// per-incarnation breakdown; never poisoned.
    Breakdown,
}

/// Deterministic shard-poison knob (fault-matrix and unit tests): any
/// bucket belonging to `pid` panics mid-resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPoison {
    /// JIT pid whose buckets trip the panic.
    pub pid: Pid,
    /// `false`: panic only inside parallel shard workers, so the
    /// engine's single-threaded fallback re-resolve succeeds and the
    /// report comes out identical to a clean run. `true`: the fallback
    /// panics too and the shard's samples are quarantined. A fatal
    /// poison quarantines whole shards, every sample of each shard the
    /// pid's buckets reach, so what it quarantines depends on the
    /// thread count.
    pub fatal: bool,
}

/// The engine's resolved telemetry handles: the shape of each resolve
/// pass (shard count and sizes) and its shard panics. Sample
/// accounting lives in [`ResolutionQuality`] alone.
#[derive(Debug, Clone)]
struct EngineTelemetry {
    registry: Telemetry,
    shard_panics: Counter,
    shards: Gauge,
    shard_samples: Histogram,
}

/// A new engine records into a registry of its own.
impl Default for EngineTelemetry {
    fn default() -> EngineTelemetry {
        EngineTelemetry::attach(&Telemetry::new())
    }
}

impl EngineTelemetry {
    fn attach(registry: &Telemetry) -> EngineTelemetry {
        EngineTelemetry {
            registry: registry.clone(),
            shard_panics: registry.counter(names::RESOLVE_SHARD_PANICS),
            shards: registry.gauge(names::RESOLVE_SHARDS),
            shard_samples: registry.histogram(names::RESOLVE_SHARD_SAMPLES),
        }
    }

    /// One shard worker died. Counts the panic and records whether the
    /// single-threaded fallback recovered the shard or its samples went
    /// to quarantine.
    fn note_shard_panic(&self, shard: u64, samples: u64, recovered: bool) {
        self.shard_panics.inc();
        self.registry.event(
            names::EVENT_RESOLVE_SHARD_QUARANTINE,
            if recovered {
                "shard panicked; fallback re-resolve recovered it"
            } else {
                "shard panicked twice; samples quarantined"
            },
            &[
                ("shard", shard),
                ("samples", samples),
                ("recovered", recovered as u64),
            ],
        );
    }

    /// Record the shape of one resolve pass.
    fn note_shards(&self, shard_sizes: impl ExactSizeIterator<Item = u64>) {
        self.shards.set(shard_sizes.len() as u64);
        for size in shard_sizes {
            self.shard_samples.record(size);
        }
    }
}

/// How many threads the host can run at once: the worker count of the
/// public [`ResolutionEngine::build`] and of the live cache's reloads.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `job` once per incarnation and return the results in `items`
/// order, exactly what a serial loop would return. The calling thread
/// and `min(items, workers) - 1` scoped helpers claim items one at a
/// time, so one large incarnation does not hold up the rest; with one
/// worker the loop runs inline. A panicking job panics the caller, as
/// in the serial loop.
pub(crate) fn per_incarnation<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    job: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(job).collect();
    }
    // Only hands out indices; results travel back through `join`, which
    // orders them, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, job(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// One incarnation as the engine keeps it: its index, and what its
/// maps showed at load time.
struct Flattened {
    index: FlatIndex,
    quarantined_lines: u64,
    skipped_files: u64,
    missing_epochs: u64,
    entries: u64,
}

impl Flattened {
    fn of(set: &CodeMapSet) -> Flattened {
        Flattened {
            index: FlatIndex::build(set),
            quarantined_lines: set.quarantined_lines,
            skipped_files: set.skipped_files,
            missing_epochs: set.missing_epochs(),
            entries: set.total_entries() as u64,
        }
    }
}

/// Immutable resolution state shared by every shard. Built once, from
/// a loaded [`ViprofResolver`] or straight from the map files; safe to
/// query from any number of scoped threads.
#[derive(Debug, Default)]
pub struct ResolutionEngine {
    /// Flattened epoch chain per incarnation. A sample of an
    /// incarnation with no entry here is blocked exactly when another
    /// incarnation of its pid has one.
    flat: HashMap<ProcKey, FlatIndex>,
    /// Flattened boot-image map: disjoint `[start, end)` offset ranges
    /// with method names, reproducing `BootMap::resolve`'s
    /// candidate/shadowing behaviour exactly.
    boot_starts: Vec<u64>,
    boot_ends: Vec<u64>,
    boot_names: Vec<String>,
    boot_image: Option<ImageId>,
    /// Load-time damage counters (quarantined lines, skipped files,
    /// failed pids, missing epochs) — the static part of every quality
    /// report.
    damage: ResolutionQuality,
    /// Map entries loaded across every incarnation.
    map_entries: u64,
    /// Resolved handles into the registry the engine records into: a
    /// private one until [`Self::set_telemetry`] attaches a shared one
    /// (handles never charge simulated cycles).
    telemetry: EngineTelemetry,
    /// Deterministic panic injector for the quarantine machinery.
    poison: Option<ShardPoison>,
}

impl ResolutionEngine {
    /// Flatten everything the resolver loaded, one incarnation per job
    /// on as many scoped threads as the host runs at once. Each index
    /// takes its signature ids from the loader's per-incarnation symbol
    /// table and shares its names, so flattening hashes and copies no
    /// text.
    pub fn build(resolver: &ViprofResolver) -> ResolutionEngine {
        let sets: Vec<_> = resolver.sets().collect();
        let flattened = per_incarnation(&sets, host_parallelism(), |(_, set)| Flattened::of(set));
        ResolutionEngine::assemble(
            resolver.bootmap(),
            resolver.boot_image_id(),
            resolver.failed_pids().len(),
            sets.iter().map(|(key, _)| **key).zip(flattened),
        )
    }

    /// Load and flatten in one pass on at most `workers` threads, the
    /// calling one included: the job that reads an incarnation's maps
    /// flattens them and drops them before it takes the next, so a
    /// worker holds one incarnation's maps at a time. `bootmap` is the
    /// caller's reading of `RVM.map`. The engine is the one
    /// [`ViprofResolver::load_with`] and [`Self::build`] produce.
    pub(crate) fn load_on(
        kernel: &Kernel,
        bootmap: &BootMap,
        options: ResolveOptions,
        workers: usize,
    ) -> (ResolutionEngine, RecoveryReport) {
        let loaded = load_each(kernel, options, workers, |set| Flattened::of(&set));
        let engine = ResolutionEngine::assemble(
            bootmap,
            loaded.boot_image,
            loaded.failed_keys.len(),
            loaded.incarnations,
        );
        (engine, loaded.recovery)
    }

    /// An engine from flattened incarnations and the boot map.
    fn assemble(
        bootmap: &BootMap,
        boot_image: Option<ImageId>,
        failed_pids: usize,
        incarnations: impl IntoIterator<Item = (ProcKey, Flattened)>,
    ) -> ResolutionEngine {
        let mut engine = ResolutionEngine::default();
        engine.damage.failed_pids = failed_pids as u64;
        for (key, flat) in incarnations {
            engine.damage.quarantined_lines += flat.quarantined_lines;
            engine.damage.skipped_map_files += flat.skipped_files;
            engine.damage.missing_epochs += flat.missing_epochs;
            engine.map_entries += flat.entries;
            engine.flat.insert(key, flat.index);
        }
        engine.set_boot(bootmap, boot_image);
        engine
    }

    /// Flatten the boot-image map with the same candidate rule its
    /// `resolve` applies: last entry per distinct offset, coverage cut
    /// at the next distinct offset.
    fn set_boot(&mut self, bootmap: &BootMap, boot_image: Option<ImageId>) {
        let methods = bootmap.methods();
        self.boot_image = boot_image;
        let mut i = 0;
        while i < methods.len() {
            let offset = methods[i].offset;
            let mut j = i + 1;
            while j < methods.len() && methods[j].offset == offset {
                j += 1;
            }
            let cand = &methods[j - 1];
            let mut end = offset.saturating_add(cand.size);
            if let Some(next) = methods.get(j) {
                end = end.min(next.offset);
            }
            if end > offset {
                self.boot_starts.push(offset);
                self.boot_ends.push(end);
                self.boot_names.push(cand.name.clone());
            }
            i = j;
        }
    }

    /// Install (or clear) the deterministic shard-poison injector.
    pub fn set_poison(&mut self, poison: Option<ShardPoison>) {
        self.poison = poison;
    }

    /// Panic if `bucket` is poisoned on this attempt — the seam the
    /// quarantine tests drive. A non-fatal poison only trips on the
    /// first attempt, leaving the retry clean; the breakdown walk never
    /// trips.
    fn trip_poison(&self, bucket: &SampleBucket, attempt: Attempt) {
        if let Some(p) = self.poison {
            if let SampleOrigin::JitApp { pid, .. } = bucket.origin {
                let armed = match attempt {
                    Attempt::Worker => true,
                    Attempt::Retry => p.fatal,
                    Attempt::Breakdown => false,
                };
                if pid == p.pid && armed {
                    panic!("poisoned resolution shard (pid {})", pid.0);
                }
            }
        }
    }

    /// Record the shape of every subsequent resolve pass (shard count,
    /// shard sizes, shard panics) into `registry`'s `resolve.*` metrics.
    /// Handles are resolved once here; the sharded hot path never locks
    /// the registry.
    pub fn set_telemetry(&mut self, registry: &Telemetry) {
        self.telemetry = EngineTelemetry::attach(registry);
    }

    /// Map entries loaded across every incarnation.
    pub(crate) fn map_entries(&self) -> u64 {
        self.map_entries
    }

    /// The flattened index for one incarnation, if its maps loaded. A
    /// bare `Pid` coerces to generation 0.
    pub fn index(&self, key: impl Into<ProcKey>) -> Option<&FlatIndex> {
        self.flat.get(&key.into())
    }

    /// One incarnation's index and blocking state, as a shard caches
    /// it.
    fn incarnation(&self, key: ProcKey) -> ShardIncarnation<'_> {
        let index = self.flat.get(&key);
        ShardIncarnation {
            index,
            blocked: index.is_none() && self.flat.keys().any(|k| k.pid == key.pid),
            tally: ShardTally::default(),
        }
    }

    /// The row of a JIT bucket whose lookup gave `symbol`.
    fn jit_row(symbol: Option<&str>) -> RowKey<'_> {
        RowKey::text(JIT_APP, symbol.unwrap_or(UNRESOLVED_JIT))
    }

    /// The row a bucket is filed under: the boot image through the
    /// flattened `RVM.map`, stock images through the kernel's symbol
    /// tables, JIT code through its incarnation's index, all borrowed;
    /// anon ranges and unknown PCs by origin. The sharded pass only
    /// calls this for non-JIT buckets, whose class needs no lookup.
    fn row_of<'a>(&'a self, bucket: &SampleBucket, kernel: &'a Kernel) -> RowKey<'a> {
        match bucket.origin {
            SampleOrigin::Image(id) if Some(id) == self.boot_image => {
                match self.boot_resolve(bucket.addr) {
                    Some(name) => RowKey::text(RVM_MAP_IMAGE_LABEL, name),
                    None => RowKey::text(BOOT_IMAGE_NAME, NO_SYMBOLS),
                }
            }
            SampleOrigin::Image(id) => {
                let img = kernel.images.get(id);
                let symbol = img.resolve(bucket.addr).map_or(NO_SYMBOLS, |s| &s.name);
                RowKey::text(&img.name, symbol)
            }
            SampleOrigin::JitApp { pid, gen } => {
                let (_, symbol) = self.incarnation(ProcKey::new(pid, gen)).classify(bucket);
                Self::jit_row(symbol)
            }
            origin => RowKey::Formatted(origin),
        }
    }

    fn boot_resolve(&self, offset: u64) -> Option<&str> {
        let pos = self.boot_starts.partition_point(|s| *s <= offset).checked_sub(1)?;
        (offset < self.boot_ends[pos]).then(|| self.boot_names[pos].as_str())
    }

    /// Label one bucket as `(image, symbol)` columns — content-identical
    /// to the oracle's [`crate::report::label`], and to the row the
    /// sharded pass files the bucket under.
    pub fn label(&self, bucket: &SampleBucket, kernel: &Kernel) -> (String, String) {
        self.row_of(bucket, kernel).to_strings(kernel)
    }

    /// Split the database's sorted buckets into `threads` contiguous
    /// slices of near-equal bucket count (one shard — every bucket —
    /// when `threads <= 1`). Shards borrow the database and copy
    /// nothing, and since the order is the buckets' own, shard sizes
    /// depend on the database's content alone.
    fn shard(db: &SampleDb, threads: usize) -> Vec<&[(SampleBucket, u64)]> {
        let buckets = db.buckets();
        let n = threads.max(1);
        (0..n)
            .map(|i| &buckets[i * buckets.len() / n..(i + 1) * buckets.len() / n])
            .collect()
    }

    fn base_quality(&self, db: &SampleDb) -> ResolutionQuality {
        ResolutionQuality {
            dropped: db.dropped,
            evicted: db.evicted,
            ..self.damage
        }
    }

    /// Resolve one shard in one pass: each bucket's class from a single
    /// index lookup, tallied for the shard and for its incarnation, and
    /// — when `labels` carries the kernel and report columns — its row.
    /// Aggregation only covers buckets whose event is a report column
    /// (like [`oprofile::report::aggregate`]); without `labels` no
    /// label work is done at all.
    ///
    /// Buckets sort by origin first, so one incarnation's buckets lie
    /// next to each other: the shard looks an incarnation up when its
    /// run begins and keeps it for the whole run.
    fn resolve_shard<'a>(
        &'a self,
        shard: &[(SampleBucket, u64)],
        labels: Option<(&'a Kernel, &[HwEvent])>,
        attempt: Attempt,
    ) -> ShardPart<'a> {
        let mut part = ShardPart {
            rows: RowCounts::default(),
            tally: ShardTally::default(),
            incarnations: Vec::new(),
        };
        for (bucket, count) in shard {
            let count = *count;
            self.trip_poison(bucket, attempt);
            let (class, row) = match bucket.origin {
                SampleOrigin::JitApp { pid, gen } => {
                    let key = ProcKey::new(pid, gen);
                    if part.incarnations.last().is_none_or(|(k, _)| *k != key) {
                        part.incarnations.push((key, self.incarnation(key)));
                    }
                    let (_, inc) = part.incarnations.last_mut().expect("pushed above");
                    let (class, symbol) = inc.classify(bucket);
                    inc.tally.add(class, count);
                    (class, Some(Self::jit_row(symbol)))
                }
                SampleOrigin::Image(_) => (Class::Resolved, None),
                SampleOrigin::Anon { .. } | SampleOrigin::Unknown => (Class::Unresolved, None),
            };
            part.tally.add(class, count);
            if let Some((kernel, events)) = labels {
                if let Some(col) = events.iter().position(|e| *e == bucket.event) {
                    let row = row.unwrap_or_else(|| self.row_of(bucket, kernel));
                    part.rows
                        .entry(row)
                        .or_insert_with(|| vec![0; events.len()])[col] += count;
                }
            }
        }
        part
    }

    /// Quarantine tally for a shard whose worker *and* fallback died:
    /// every sample is kept in the accounting, none get report rows.
    fn quarantine_tally(shard: &[(SampleBucket, u64)]) -> ShardTally {
        ShardTally {
            quarantined: shard.iter().map(|(_, c)| *c).sum(),
            ..ShardTally::default()
        }
    }

    /// Resolve `db` into a full [`SessionReport`] under `spec` — the
    /// builder-spec twin of [`Viprof::make_report`](crate::Viprof::make_report)
    /// for callers that already hold a loaded engine. Honors
    /// `spec.poison`, shards across `spec.threads`, and fills the
    /// per-incarnation breakdown; `recovery` is always `None` (replay
    /// is a load-time concern, not the engine's).
    pub fn resolve(&mut self, db: &SampleDb, kernel: &Kernel, spec: &ReportSpec) -> SessionReport {
        self.poison = spec.poison;
        let (lines, quality, incarnations) =
            self.resolve_rows(db, kernel, &spec.options, spec.threads);
        let (lineage, trace) = Self::lineage_and_trace(kernel, &quality, &incarnations);
        SessionReport {
            lines,
            quality,
            recovery: None,
            incarnations,
            telemetry: self.telemetry.registry.snapshot(),
            lineage,
            trace,
            health: Self::evaluate_health(kernel),
        }
    }

    /// Evaluate the default health rules over the timeline the session
    /// exported at stop. Health is a pure function of that artifact —
    /// not of resolve-time state — so batch reports, sealed-live
    /// snapshots and every thread count agree by construction. Sessions
    /// that exported no timeline (or an unreadable one) report healthy.
    fn evaluate_health(kernel: &Kernel) -> HealthReport {
        kernel
            .vfs
            .read(TIMELINE_PATH)
            .and_then(|raw| std::str::from_utf8(raw).ok())
            .and_then(|json| Timeline::from_json(json).ok())
            .map(|timeline| HealthReport::evaluate(&timeline))
            .unwrap_or_default()
    }

    /// Decompose every [`ResolutionQuality`] loss bucket by causal
    /// span, and record the resolve pass's own span tree.
    ///
    /// The trace runs on a *work-unit pseudo-clock* (one tick per
    /// logical step), never wall or sim time, and never emits
    /// per-worker spans — so the same `(journal, quality,
    /// incarnations)` inputs produce a byte-identical trace at every
    /// thread count, and batch vs sealed-live agree exactly.
    ///
    /// Reconciliation is by construction: dropped/evicted samples are
    /// attributed per traced journal batch (read from its header words
    /// alone) only when the journaled sums do not exceed the
    /// authoritative quality counts; any remainder — or, on
    /// disagreement, the whole count — lands on the ingest span as an
    /// `untraced` row. Per bucket, the lineage total therefore always
    /// equals the quality count exactly.
    fn lineage_and_trace(
        kernel: &Kernel,
        quality: &ResolutionQuality,
        incarnations: &[IncarnationSummary],
    ) -> (LineageTable, TraceSnapshot) {
        use viprof_telemetry::trace::{
            LINEAGE_BLOCKED, LINEAGE_DROPPED, LINEAGE_EVICTED, LINEAGE_QUARANTINED,
        };
        let mut store = SpanStore::new(DEFAULT_SPAN_CAPACITY);
        let mut now = 0u64;
        let (root, _) = store.begin(TraceLayer::Resolve, names::SPAN_RESOLVE, None, now);
        let mut lineage = LineageTable::default();

        // Traced journal batches: `(seq, runtime span ctx, dropped,
        // evicted)`. A scan yields each seq once, in order (a
        // supervisor restart never re-appends a seq), so no dedup is
        // needed here.
        let mut batches: Vec<(u64, TraceCtx, u64, u64)> = Vec::new();
        if let Some(scan) = journal::scan(&kernel.vfs, SAMPLE_JOURNAL_PATH) {
            for rec in &scan.records {
                let Some(Ok((Some(ctx), body))) = rec.sample_batch() else {
                    continue;
                };
                if let Ok((dropped, evicted)) = SampleDb::header_from_bytes(body) {
                    batches.push((rec.seq, ctx, dropped, evicted));
                }
            }
        }
        let journaled_dropped: u64 = batches.iter().map(|b| b.2).sum();
        let journaled_evicted: u64 = batches.iter().map(|b| b.3).sum();
        let drop_per_batch = journaled_dropped <= quality.dropped;
        let evict_per_batch = journaled_evicted <= quality.evicted;
        let (ingest, _) =
            store.begin(TraceLayer::Resolve, names::SPAN_RESOLVE_INGEST, Some(root), now);
        for (seq, ctx, dropped, evicted) in &batches {
            now += 1;
            let label = format!("journal batch seq {seq}");
            if drop_per_batch {
                lineage.push(
                    LINEAGE_DROPPED,
                    TraceLayer::Journal,
                    Some(*ctx),
                    label.as_str(),
                    *dropped,
                );
            }
            if evict_per_batch {
                lineage.push(LINEAGE_EVICTED, TraceLayer::Journal, Some(*ctx), label, *evicted);
            }
        }
        store.end(ingest, now, &[("batches", batches.len() as u64)]);
        let rem_dropped =
            quality.dropped - if drop_per_batch { journaled_dropped } else { 0 };
        let rem_evicted =
            quality.evicted - if evict_per_batch { journaled_evicted } else { 0 };
        lineage.push(LINEAGE_DROPPED, TraceLayer::Resolve, Some(ingest), "untraced", rem_dropped);
        lineage.push(LINEAGE_EVICTED, TraceLayer::Resolve, Some(ingest), "untraced", rem_evicted);

        // Blocked samples: one row per incarnation, provided the
        // per-row classification reconciles with the merged quality (a
        // quarantined shard hides some classifications — fall back to
        // one aggregate row attributed to the resolve pass).
        let rows_blocked: u64 = incarnations.iter().map(|r| r.blocked).sum();
        if rows_blocked == quality.cross_incarnation_blocked {
            for row in incarnations.iter().filter(|r| r.blocked > 0) {
                let (span, _) = store.begin(
                    TraceLayer::Resolve,
                    names::SPAN_RESOLVE_INCARNATION,
                    Some(root),
                    now,
                );
                now += 1;
                store.end(
                    span,
                    now,
                    &[
                        ("pid", row.pid as u64),
                        ("gen", row.gen as u64),
                        ("blocked", row.blocked),
                    ],
                );
                lineage.push(
                    LINEAGE_BLOCKED,
                    TraceLayer::Resolve,
                    Some(span),
                    format!("pid {} gen {}", row.pid, row.gen),
                    row.blocked,
                );
            }
        } else if quality.cross_incarnation_blocked > 0 {
            let (span, _) = store.begin(
                TraceLayer::Resolve,
                names::SPAN_RESOLVE_INCARNATION,
                Some(root),
                now,
            );
            now += 1;
            store.end(span, now, &[("blocked", quality.cross_incarnation_blocked)]);
            lineage.push(
                LINEAGE_BLOCKED,
                TraceLayer::Resolve,
                Some(span),
                "aggregate",
                quality.cross_incarnation_blocked,
            );
        }

        // Quarantine is a resolve-side loss: one total row against the
        // shard pass (per-worker spans would break thread invariance).
        if quality.quarantined > 0 {
            let (span, _) = store.begin(
                TraceLayer::Resolve,
                names::SPAN_RESOLVE_SHARDS,
                Some(root),
                now,
            );
            now += 1;
            store.end(span, now, &[("quarantined", quality.quarantined)]);
            lineage.push(
                LINEAGE_QUARANTINED,
                TraceLayer::Resolve,
                Some(span),
                "shard quarantine",
                quality.quarantined,
            );
        }
        store.end(
            root,
            now,
            &[
                ("accounted", quality.accounted()),
                ("dropped", quality.dropped),
                ("evicted", quality.evicted),
                ("quarantined", quality.quarantined),
                ("blocked", quality.cross_incarnation_blocked),
            ],
        );
        (lineage, store.snapshot())
    }

    /// The merged report, quality accounting and per-incarnation
    /// breakdown in one pass over the database, resolved across
    /// `threads` shards (`0`/`1` = single-threaded). Results are
    /// bit-identical for every thread count: shard sums are commutative
    /// and the final row shaping is [`finish_report`], the same code
    /// `aggregate` runs.
    ///
    /// The breakdown has one row per JIT incarnation in the database,
    /// sorted by `(pid, gen)`, partitioning the JIT share of the quality
    /// report exactly. Poison never hides samples from it: a
    /// quarantined shard's rows come from a classify-only walk.
    pub(crate) fn resolve_rows(
        &self,
        db: &SampleDb,
        kernel: &Kernel,
        options: &ReportOptions,
        threads: usize,
    ) -> (Report, ResolutionQuality, Vec<IncarnationSummary>) {
        let (events, totals) = report_events(db, options);
        let (merged, quality, incarnations) =
            self.run_shards(db, threads, Some((kernel, events.as_slice())));
        // One `String` materialization per distinct row — not per
        // bucket — to hand off to the shared row shaping. Rows whose
        // text matches at different addresses merge here.
        let mut rows: HashMap<(String, String), Vec<u64>> = HashMap::with_capacity(merged.len());
        for (key, counts) in merged {
            add_counts(rows.entry(key.to_strings(kernel)), counts);
        }
        let incarnations = incarnations
            .into_iter()
            .map(|(key, t)| IncarnationSummary {
                pid: key.pid.0,
                gen: key.gen,
                samples: t.resolved + t.stale_epoch + t.unresolved + t.blocked,
                resolved: t.resolved,
                stale_epoch: t.stale_epoch,
                unresolved: t.unresolved,
                blocked: t.blocked,
            })
            .collect();
        (
            finish_report(events, totals, rows, options),
            quality,
            incarnations,
        )
    }

    /// Quality accounting alone (no label work), sharded the same way.
    pub fn quality(&self, db: &SampleDb, threads: usize) -> ResolutionQuality {
        self.run_shards(db, threads, None).1
    }

    /// The one sharded runner behind [`Self::resolve_rows`] and
    /// [`Self::quality`]: shard `db`, resolve every shard (with label
    /// work only when `labels` is set), and merge rows, tallies and
    /// per-incarnation breakdowns.
    ///
    /// A panicking shard must not take the session report with it:
    /// every worker is isolated, and a dead shard is retried once
    /// single-threaded before its samples fall back to quarantine
    /// accounting.
    fn run_shards<'a>(
        &'a self,
        db: &'a SampleDb,
        threads: usize,
        labels: Option<(&'a Kernel, &[HwEvent])>,
    ) -> (
        RowCounts<'a>,
        ResolutionQuality,
        BTreeMap<ProcKey, ShardTally>,
    ) {
        let shards = Self::shard(db, threads);
        // The calling thread resolves the first shard itself, so a
        // single shard spawns nothing and `n` shards spawn `n - 1`
        // helpers.
        let attempts: Vec<Option<ShardPart<'a>>> = std::thread::scope(|scope| {
            let helpers: Vec<_> = shards[1..]
                .iter()
                .map(|shard| {
                    scope.spawn(move || self.resolve_shard(shard, labels, Attempt::Worker))
                })
                .collect();
            let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.resolve_shard(shards[0], labels, Attempt::Worker)
            }));
            std::iter::once(first.ok())
                .chain(helpers.into_iter().map(|h| h.join().ok()))
                .collect()
        });
        let parts: Vec<ShardPart<'a>> = attempts
            .into_iter()
            .enumerate()
            .map(|(i, attempt)| match attempt {
                Some(part) => part,
                None => {
                    let retried = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.resolve_shard(shards[i], labels, Attempt::Retry)
                    }));
                    let samples: u64 = shards[i].iter().map(|(_, c)| *c).sum();
                    self.telemetry.note_shard_panic(i as u64, samples, retried.is_ok());
                    retried.unwrap_or_else(|_| ShardPart {
                        tally: Self::quarantine_tally(shards[i]),
                        ..self.resolve_shard(shards[i], None, Attempt::Breakdown)
                    })
                }
            })
            .collect();

        self.telemetry
            .note_shards(shards.iter().map(|s| s.iter().map(|(_, c)| *c).sum()));
        let mut quality = self.base_quality(db);
        let mut merged = RowCounts::default();
        let mut incarnations: BTreeMap<ProcKey, ShardTally> = BTreeMap::new();
        for part in parts {
            let tally = part.tally;
            quality.resolved += tally.resolved;
            quality.stale_epoch += tally.stale_epoch;
            quality.unresolved += tally.unresolved;
            quality.quarantined += tally.quarantined;
            quality.cross_incarnation_blocked += tally.blocked;
            for (key, counts) in part.rows {
                add_counts(merged.entry(key), counts);
            }
            for (key, inc) in part.incarnations {
                incarnations.entry(key).or_default().absorb(&inc.tally);
            }
        }
        (merged, quality, incarnations)
    }
}

/// Add one row's per-event counts into a merge map's entry.
fn add_counts<K>(entry: Entry<'_, K, Vec<u64>>, counts: Vec<u64>) {
    match entry {
        Entry::Occupied(mut e) => {
            for (a, b) in e.get_mut().iter_mut().zip(&counts) {
                *a += b;
            }
        }
        Entry::Vacant(v) => {
            v.insert(counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{map_path, render_map, CodeMapEntry};
    use crate::report::{self as oracle, viprof_report};
    use crate::resolve::ResolveOptions;
    use sim_jvm::bootimage::RVM_MAP_PATH;
    use sim_jvm::BootImage;
    use sim_os::journal::KIND_SAMPLE_BATCH_TRACED;

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
        (k, pid)
    }

    fn mixed_db(k: &Kernel, pid: Pid) -> SampleDb {
        let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
        let mut db = SampleDb::new();
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 2), 10);
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6500_0010, 1), 6);
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x7000_0000, 0), 3);
        // A stamped generation with no maps of its own: blocked by the
        // isolation invariant, exercised through every engine path.
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 7 }, 0x6400_0080, 2), 2);
        db.add(bucket(SampleOrigin::Image(boot_id), 0x10, 0), 5);
        db.add(bucket(SampleOrigin::Image(k.kernel_image), 0x3000, 0), 4);
        db.add(bucket(SampleOrigin::Unknown, 0x0, 0), 2);
        db.dropped = 7;
        db
    }

    #[test]
    fn labels_match_the_reference_resolver_on_every_origin() {
        let (mut k, pid) = setup();
        // A boot method and a JIT body that run past the top of the
        // address space: both parsers accept them, and a lookup at
        // `u64::MAX - 1` or `u64::MAX` must neither overflow nor split
        // the two resolvers.
        let top = u64::MAX - 0x10;
        let mut rvm_map = k.vfs.read(RVM_MAP_PATH).unwrap().to_vec();
        rvm_map.extend_from_slice(format!("{top:x} 100 VM.Top.edge\n").as_bytes());
        k.vfs.write(RVM_MAP_PATH, rvm_map);
        let top_pid = k.spawn("jikesrvm");
        k.vfs.write(
            map_path(top_pid, 0),
            render_map(&[CodeMapEntry {
                addr: top,
                size: 0x100,
                level: "O2".into(),
                signature: "app.Top.edge".into(),
            }])
            .into_bytes(),
        );
        let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
        let mut db = mixed_db(&k, pid);
        for addr in [u64::MAX - 1, u64::MAX] {
            db.add(bucket(SampleOrigin::Image(boot_id), addr, 0), 1);
            db.add(bucket(SampleOrigin::JitApp { pid: top_pid, gen: 0 }, addr, 0), 1);
        }
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let engine = ResolutionEngine::build(&resolver);
        for (b, _) in db.iter() {
            assert_eq!(
                engine.label(b, &k),
                oracle::label(&resolver, b, &k),
                "label diverged on {b:?}"
            );
        }
        let top_label = |origin, addr| {
            let (img, sym) = engine.label(&bucket(origin, addr, 0), &k);
            format!("{img} {sym}")
        };
        let jit = SampleOrigin::JitApp { pid: top_pid, gen: 0 };
        assert_eq!(top_label(jit, u64::MAX - 1), "JIT.App app.Top.edge");
        assert_eq!(top_label(jit, u64::MAX), "JIT.App (unresolved jit)");
        let boot = SampleOrigin::Image(boot_id);
        assert_eq!(top_label(boot, u64::MAX - 1), "RVM.map VM.Top.edge");
        assert_eq!(top_label(boot, u64::MAX), "RVM.code.image (no symbols)");
    }

    #[test]
    fn quality_matches_the_reference_resolver() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let engine = ResolutionEngine::build(&resolver);
        let want = oracle::quality(&resolver, &db);
        assert_eq!(engine.quality(&db, 1), want);
        assert_eq!(engine.quality(&db, 4), want);
        assert_eq!(want.accounted(), db.total_samples());
    }

    #[test]
    fn sharded_report_is_bit_identical_to_walk_and_thread_count_invariant() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let engine = ResolutionEngine::build(&resolver);
        let options = ReportOptions::default();
        let legacy = viprof_report(&db, &k, &resolver, &options);
        let legacy_q = oracle::quality(&resolver, &db);
        for threads in [0, 1, 2, 3, 8] {
            let (report, q, _) = engine.resolve_rows(&db, &k, &options, threads);
            assert_eq!(report, legacy, "threads={threads}");
            assert_eq!(q, legacy_q, "threads={threads}");
        }
    }

    #[test]
    fn row_filters_apply_identically() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let engine = ResolutionEngine::build(&resolver);
        let options = ReportOptions {
            min_primary_percent: 10.0,
            max_rows: Some(2),
            ..ReportOptions::default()
        };
        let legacy = viprof_report(&db, &k, &resolver, &options);
        let (report, _, _) = engine.resolve_rows(&db, &k, &options, 4);
        assert_eq!(report, legacy);
        assert!(report.rows.len() <= 2);
    }

    #[test]
    fn shard_metrics_describe_the_partition_for_every_thread_count() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        for threads in [1, 4] {
            let mut engine = ResolutionEngine::build(&resolver);
            let t = Telemetry::default();
            engine.set_telemetry(&t);
            let (report, _, _) = engine.resolve_rows(&db, &k, &ReportOptions::default(), threads);
            assert!(!report.rows.is_empty());
            let snap = t.snapshot();
            assert_eq!(snap.gauge(names::RESOLVE_SHARDS), threads as u64);
            let shard_hist = snap.histogram(names::RESOLVE_SHARD_SAMPLES).unwrap();
            assert_eq!(shard_hist.count, threads as u64);
            assert_eq!(shard_hist.sum, db.total_samples());
        }
        // A shared registry accumulates across passes.
        let mut engine = ResolutionEngine::build(&resolver);
        let t = Telemetry::default();
        engine.set_telemetry(&t);
        let q1 = engine.quality(&db, 2);
        let q2 = engine.quality(&db, 3);
        assert_eq!(q1, q2);
        let snap = t.snapshot();
        let shard_hist = snap.histogram(names::RESOLVE_SHARD_SAMPLES).unwrap();
        assert_eq!((shard_hist.count, shard_hist.sum), (5, 2 * db.total_samples()));
    }

    #[test]
    fn nonfatal_poison_recovers_via_fallback_bit_identically() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let clean = ResolutionEngine::build(&resolver);
        let options = ReportOptions::default();
        let (clean_report, clean_q, _) = clean.resolve_rows(&db, &k, &options, 4);
        let mut poisoned = ResolutionEngine::build(&resolver);
        let t = Telemetry::default();
        poisoned.set_telemetry(&t);
        poisoned.set_poison(Some(ShardPoison { pid, fatal: false }));
        let (report, q, _) = poisoned.resolve_rows(&db, &k, &options, 4);
        assert_eq!(report, clean_report, "fallback must reproduce the clean report");
        assert_eq!(q, clean_q);
        assert_eq!(q.quarantined, 0);
        // The quality-only pass takes the same fallback path.
        let quality_only = poisoned.quality(&db, 4);
        assert_eq!(quality_only, clean_q, "quality-only fallback");
        assert_eq!(quality_only.quarantined, 0);
        let snap = t.snapshot();
        assert!(snap.counter(names::RESOLVE_SHARD_PANICS) >= 1);
        let events = snap.events_of(names::EVENT_RESOLVE_SHARD_QUARANTINE);
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| e.fields.iter().any(|(k, v)| k == "recovered" && *v == 1)));
    }

    #[test]
    fn fatal_poison_quarantines_without_losing_accounting() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        for threads in [1, 4] {
            let mut engine = ResolutionEngine::build(&resolver);
            let t = Telemetry::default();
            engine.set_telemetry(&t);
            engine.set_poison(Some(ShardPoison { pid, fatal: true }));
            let (_report, q, _) = engine.resolve_rows(&db, &k, &ReportOptions::default(), threads);
            assert!(q.quarantined > 0, "threads={threads}");
            assert_eq!(
                q.accounted(),
                db.total_samples(),
                "quarantine keeps the accounting complete (threads={threads})"
            );
            let quality_only = engine.quality(&db, threads);
            assert_eq!(quality_only, q, "both paths quarantine identically");
            let snap = t.snapshot();
            assert!(snap.counter(names::RESOLVE_SHARD_PANICS) >= 2, "worker and fallback");
            assert!(snap
                .events_of(names::EVENT_RESOLVE_SHARD_QUARANTINE)
                .iter()
                .any(|e| e.fields.iter().any(|(k, v)| k == "recovered" && *v == 0)));
            // The per-incarnation breakdown hides nothing: a quarantined
            // shard's rows come from the classify-only walk.
            let spec = ReportSpec::default().threads(threads);
            let clean = ResolutionEngine::build(&resolver).resolve(&db, &k, &spec);
            let poisoned = engine.resolve(&db, &k, &spec.poison(ShardPoison { pid, fatal: true }));
            assert!(poisoned.quality.quarantined > 0, "threads={threads}");
            assert_eq!(
                poisoned.incarnations, clean.incarnations,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fatal_poison_quarantines_only_the_slices_the_pid_reaches() {
        // Shards are contiguous slices of the sorted buckets, so a fatal
        // poison quarantines exactly the slices that hold one of the
        // pid's buckets: the damage depends on the database and the
        // thread count. Image buckets sort before JIT ones, so here the
        // pid's two buckets reach one slice of two, and one of four.
        let (k, pid) = setup();
        let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
        let mut db = SampleDb::new();
        for i in 1..=6 {
            db.add(bucket(SampleOrigin::Image(boot_id), i * 0x10, 0), 5);
        }
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, 2), 10);
        db.add(bucket(SampleOrigin::JitApp { pid, gen: 0 }, 0x6500_0010, 1), 6);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let mut engine = ResolutionEngine::build(&resolver);
        engine.set_poison(Some(ShardPoison { pid, fatal: true }));
        for (threads, quarantined) in [(1, 46), (2, 5 + 5 + 10 + 6), (4, 10 + 6)] {
            let q = engine.quality(&db, threads);
            assert_eq!(q.quarantined, quarantined, "threads={threads}");
            assert_eq!(q.accounted(), db.total_samples(), "threads={threads}");
        }
    }

    #[test]
    fn blocked_samples_agree_with_the_reference_and_stay_accounted() {
        let (k, pid) = setup();
        let db = mixed_db(&k, pid);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let engine = ResolutionEngine::build(&resolver);
        let want = oracle::quality(&resolver, &db);
        assert_eq!(want.cross_incarnation_blocked, 2);
        for threads in [1, 4] {
            let q = engine.quality(&db, threads);
            assert_eq!(q, want, "threads={threads}");
            assert_eq!(q.accounted(), db.total_samples());
        }
        // The blocked bucket's label never borrows the other
        // incarnation's symbols.
        let blocked = bucket(SampleOrigin::JitApp { pid, gen: 7 }, 0x6400_0080, 2);
        let (img, sym) = engine.label(&blocked, &k);
        assert_eq!(
            (img.as_str(), sym.as_str()),
            ("JIT.App", "(unresolved jit)")
        );
    }

    #[test]
    fn evictions_flow_from_db_into_quality() {
        let (k, pid) = setup();
        let mut db = mixed_db(&k, pid);
        db.evicted = 9;
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let engine = ResolutionEngine::build(&resolver);
        let q = engine.quality(&db, 2);
        assert_eq!(q.evicted, 9);
        assert_eq!(q, oracle::quality(&resolver, &db), "legacy walk agrees");
        // Evicted samples sit outside accounted(): they never reached
        // the database, like drops.
        assert_eq!(q.accounted(), db.total_samples());
    }

    #[test]
    fn an_old_capped_file_still_accounts_its_evictions() {
        // A v2 sample file from a session that ran under an admission
        // cap: its `evicted` header word is all that is left of the
        // samples the cap refused.
        let (k, pid) = setup();
        let mut old = mixed_db(&k, pid);
        old.evicted = 9;
        let mut v2 = old.to_bytes();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let db = SampleDb::from_bytes(&v2).unwrap();
        assert_eq!(db, old);
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let mut engine = ResolutionEngine::build(&resolver);
        let report = engine.resolve(&db, &k, &ReportSpec::default());
        assert_eq!(report.quality.evicted, 9);
        assert_eq!(report.lineage.total("evicted"), 9);
        assert_eq!(report.quality.accounted(), db.total_samples());
    }

    #[test]
    fn per_incarnation_keeps_order_and_its_worker_cap() {
        let items: Vec<u32> = (0..9).collect();
        let want: Vec<u32> = items.iter().map(|i| i * 3).collect();
        // Each job sleeps, so helpers, when spawned, claim items and the
        // gather sees the workers' results out of order.
        let slow = |&i: &u32| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            (i * 3, std::thread::current().id())
        };
        let here = std::thread::current().id();
        for workers in [0, 1, 4] {
            let ran = per_incarnation(&items, workers, slow);
            assert_eq!(ran.iter().map(|r| r.0).collect::<Vec<_>>(), want, "workers={workers}");
            if workers <= 1 {
                assert!(ran.iter().all(|r| r.1 == here), "workers={workers} left the caller");
            }
        }
    }

    #[test]
    fn empty_db_reports_empty_with_damage_counters_intact() {
        let (mut k, pid) = setup();
        // One garbled line so the damage counters are non-zero.
        k.vfs.write(
            map_path(pid, 1),
            b"!! garbage\n0000000065100000 00000040 base app.Ok.fine\n".to_vec(),
        );
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let engine = ResolutionEngine::build(&resolver);
        let db = SampleDb::new();
        let (report, q, _) = engine.resolve_rows(&db, &k, &ReportOptions::default(), 4);
        assert!(report.rows.is_empty());
        assert_eq!(q, oracle::quality(&resolver, &db));
        assert_eq!(q.quarantined_lines, 1);
    }

    #[test]
    fn lineage_reconciles_with_quality_and_is_thread_invariant() {
        let (k, pid) = setup();
        let mut db = mixed_db(&k, pid);
        db.evicted = 9;
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let mut first: Option<SessionReport> = None;
        for threads in [1, 4] {
            let mut engine = ResolutionEngine::build(&resolver);
            let spec = ReportSpec::default().threads(threads);
            let report = engine.resolve(&db, &k, &spec);
            let q = &report.quality;
            assert_eq!(report.lineage.total("dropped"), q.dropped);
            assert_eq!(report.lineage.total("evicted"), q.evicted);
            assert_eq!(report.lineage.total("quarantined"), q.quarantined);
            assert_eq!(
                report.lineage.total("blocked"),
                q.cross_incarnation_blocked
            );
            assert!(report.trace.roots().len() == 1);
            if let Some(prev) = &first {
                assert_eq!(prev.lineage, report.lineage, "threads={threads}");
                assert_eq!(
                    prev.trace.to_chrome_json(),
                    report.trace.to_chrome_json(),
                    "threads={threads}"
                );
            }
            first = Some(report);
        }
    }

    #[test]
    fn lineage_attributes_losses_to_journaled_batches() {
        let (mut k, pid) = setup();
        let mut db = mixed_db(&k, pid);
        db.dropped = 7;
        db.evicted = 4;
        // Two traced journal batches carrying (dropped, evicted) =
        // (3, 1) and (2, 3): dropped sums to 5 < 7 (remainder 2 goes
        // untraced), evicted sums to 4 == 4 (fully attributed).
        let mut writer =
            sim_os::journal::JournalWriter::create(&mut k.vfs, SAMPLE_JOURNAL_PATH);
        let mut batch1 = SampleDb::new();
        batch1.dropped = 3;
        batch1.evicted = 1;
        let mut batch2 = SampleDb::new();
        batch2.dropped = 2;
        batch2.evicted = 3;
        for (i, b) in [&batch1, &batch2].into_iter().enumerate() {
            let ctx = TraceCtx {
                trace: 0xAB,
                span: 0x100 + i as u64,
            };
            writer.append(
                &mut k.vfs,
                KIND_SAMPLE_BATCH_TRACED,
                &journal::encode_traced_payload(ctx, &b.to_bytes()),
            );
        }
        let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
        let mut engine = ResolutionEngine::build(&resolver);
        let report = engine.resolve(&db, &k, &ReportSpec::default());
        assert_eq!(report.lineage.total("dropped"), 7);
        assert_eq!(report.lineage.total("evicted"), 4);
        let text = report.lineage.render_text();
        assert!(text.contains("journal batch seq"), "{text}");
        assert!(text.contains("untraced"), "{text}");
    }
}
