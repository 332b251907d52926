//! Telemetry-layer integration tests: the self-observation contract
//! across the whole stack.
//!
//! * **Determinism** — the sim clock drives every timestamp, so a
//!   fixed seed exports byte-identical telemetry JSON, run after run,
//!   and the resolve-side snapshot is byte-stable per thread count
//!   with all substance (counters, stages) shard-invariant;
//! * **Partition** — the log2 histogram buckets tile the whole `u64`
//!   range with no gaps, overlaps, or misfiled boundaries;
//! * **Schema** — the metric catalog matches the reviewed golden list
//!   in `scripts/telemetry-schema.txt`, so instrumentation drift fails
//!   review here and in `scripts/verify.sh`, every recorded name
//!   has a reader, every span name and lineage bucket has a writer,
//!   every health id has a rule, and every `pub fn` has a caller;
//! * **Flight recorder** — a long session keeps the events operators
//!   read instead of evicting them.

use std::path::Path;
use viprof_repro::oprofile::session::TELEMETRY_PATH;
use viprof_repro::oprofile::{OpConfig, SampleDb, SampleOrigin};
use viprof_repro::telemetry::{
    bucket_hi, bucket_lo, bucket_of, names, Telemetry, TelemetrySnapshot, BUCKETS,
    DEFAULT_EVENT_CAPACITY, DEFAULT_HEALTH_RULES,
};
use viprof_repro::viprof::{ReportSpec, ShardPoison, Viprof};
use viprof_repro::workloads::{
    calibrate, find_benchmark, programs, run_benchmark, BuiltWorkload, ProfilerKind, WorkPlan,
};

fn small_workload() -> (BuiltWorkload, WorkPlan) {
    let mut params = find_benchmark("fop").expect("benchmark exists");
    params.support_methods = params.support_methods.min(120);
    params.heap_mb = 2;
    let built = programs::build(&params);
    let plan = calibrate(&built, 0.02);
    (built, plan)
}

#[test]
fn same_seed_exports_byte_identical_telemetry_json() {
    let (built, plan) = small_workload();
    let run = || run_benchmark(&built, &plan, ProfilerKind::viprof_at(50_000), 42, true);
    let a = run();
    let b = run();
    let raw_a = a
        .machine
        .kernel
        .vfs
        .read(TELEMETRY_PATH)
        .expect("stop persists the telemetry snapshot");
    let raw_b = b.machine.kernel.vfs.read(TELEMETRY_PATH).unwrap();
    assert_eq!(raw_a, raw_b, "same seed must export the same bytes");

    // The snapshot the harness hands back is the same state stop
    // persisted, and the JSON round-trips losslessly and canonically.
    let text = std::str::from_utf8(raw_a).unwrap();
    let snap = TelemetrySnapshot::from_json(text).expect("persisted JSON parses");
    assert_eq!(Some(&snap), a.telemetry.as_ref());
    assert_eq!(snap.to_json(), text, "export is canonical");
    assert!(snap.counter(names::CPU_SAMPLES_DELIVERED) > 0);
    assert_eq!(snap.counter(names::SESSION_STOPS), 1);
}

#[test]
fn resolve_telemetry_is_deterministic_per_thread_count() {
    let (built, plan) = small_workload();
    let out = run_benchmark(&built, &plan, ProfilerKind::viprof_at(60_000), 7, false);
    let db = out.db.as_ref().expect("profiled run");
    let kernel = &out.machine.kernel;
    let resolve = |threads: usize| {
        Viprof::make_report(db, kernel, &ReportSpec::default().threads(threads))
            .expect("report succeeds")
            .telemetry
    };

    // Byte-identical JSON per thread count, run after run.
    let t1 = resolve(1);
    assert_eq!(t1.to_json(), resolve(1).to_json(), "1 thread");
    let t4 = resolve(4);
    assert_eq!(t4.to_json(), resolve(4).to_json(), "4 threads");

    // Substance is shard-invariant: every counter and stage agrees
    // across thread counts; only the shard-shaped gauge and histogram
    // describe the partitioning itself.
    assert_eq!(t1.counters, t4.counters, "counters must not depend on sharding");
    assert_eq!(t1.stages, t4.stages, "stage work units must not depend on sharding");
    assert_eq!(t1.gauge(names::RESOLVE_SHARDS), 1);
    assert_eq!(t4.gauge(names::RESOLVE_SHARDS), 4);
    let h = t4.histogram(names::RESOLVE_SHARD_SAMPLES).expect("shard sizes recorded");
    assert_eq!(h.count, 4, "one record per shard");
    assert_eq!(h.sum, db.total_samples(), "shards partition the samples");
}

#[test]
fn resolve_shards_are_a_function_of_bucket_content() {
    let (built, plan) = small_workload();
    let out = run_benchmark(&built, &plan, ProfilerKind::viprof_at(60_000), 7, false);
    let db = out.db.as_ref().expect("profiled run");
    let kernel = &out.machine.kernel;
    let pid = db
        .iter()
        .find_map(|(b, _)| match b.origin {
            SampleOrigin::JitApp { pid, .. } => Some(pid),
            _ => None,
        })
        .expect("workload produced JIT samples");
    // Two decodes of the same bytes: equal content in two separate
    // databases. Shards are slices of the sorted buckets, so their
    // sizes must follow the content alone.
    let bytes = db.to_bytes();
    let a = SampleDb::from_bytes(&bytes).unwrap();
    let b = SampleDb::from_bytes(&bytes).unwrap();
    let telemetry = |copy: &SampleDb, spec: &ReportSpec| {
        Viprof::make_report(copy, kernel, &spec.clone().threads(4))
            .expect("report succeeds")
            .telemetry
    };
    let clean = ReportSpec::default();
    let shards = telemetry(&a, &clean);
    let sizes = shards
        .histogram(names::RESOLVE_SHARD_SAMPLES)
        .expect("shard sizes recorded");
    assert_eq!((sizes.count, sizes.sum), (4, db.total_samples()));
    assert_eq!(
        shards.to_json(),
        telemetry(&b, &clean).to_json(),
        "shard sizes must not follow iteration order"
    );
    // The log2 histogram can hide a small shift between shards; the
    // quarantine event of each poisoned shard records its exact size.
    let poisoned = ReportSpec::default().poison(ShardPoison { pid, fatal: true });
    let a = telemetry(&a, &poisoned);
    assert!(!a
        .events_of(names::EVENT_RESOLVE_SHARD_QUARANTINE)
        .is_empty());
    assert_eq!(a.to_json(), telemetry(&b, &poisoned).to_json());
}

#[test]
fn drain_allocation_is_bounded_by_ring_capacity_not_drain_count() {
    // The daemon recycles its drain vector back into the ring, so the
    // fresh allocation `drain` performs over a whole session is bounded
    // by the ring capacity (plus allocator slack) — *not* by
    // drains × batch size, which is what a drain that allocated a new
    // vector every wakeup would cost.
    let (built, plan) = small_workload();
    let config = OpConfig {
        buffer_capacity: 64,
        daemon_period_cycles: 300_000,
        ..OpConfig::time_at(15_000)
    };
    let out = run_benchmark(&built, &plan, ProfilerKind::Viprof(config), 9, false);
    let snap = out.telemetry.as_ref().expect("profiled run records telemetry");
    let drains = snap.counter(names::DAEMON_DRAINS);
    let pushed = snap.counter(names::BUFFER_PUSHED);
    let allocated = snap.counter(names::BUFFER_DRAIN_ALLOCATED_SLOTS);
    assert!(drains >= 4, "fast daemon timer must produce many drains: {drains}");
    assert!(pushed > 2 * 64, "the session must push well past one ring's worth");
    assert!(allocated > 0, "the first drain has no spare to recycle");
    assert!(
        allocated <= 2 * 64,
        "drain allocation must stay capacity-bounded: {allocated} slots over {drains} drains"
    );
}

#[test]
fn histogram_buckets_partition_the_u64_range() {
    assert_eq!(bucket_of(0), 0);
    assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    for k in 0..BUCKETS {
        let lo = bucket_lo(k);
        let hi = bucket_hi(k);
        assert!(lo <= hi, "bucket {k} bounds inverted");
        assert_eq!(bucket_of(lo), k, "lo of bucket {k} misfiled");
        assert_eq!(bucket_of(hi), k, "hi of bucket {k} misfiled");
        assert_eq!(bucket_of(lo + (hi - lo) / 2), k, "midpoint of bucket {k}");
        if k > 0 {
            assert_eq!(bucket_of(lo - 1), k - 1, "overlap below bucket {k}");
        }
        if k + 1 < BUCKETS {
            assert_eq!(bucket_lo(k + 1), hi + 1, "gap above bucket {k}");
        }
    }

    // A live histogram files every probe where the boundary math says,
    // with exact count and (wrapping) sum.
    let t = Telemetry::new();
    let h = t.histogram(names::DAEMON_BATCH_SAMPLES);
    let probes = [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX];
    for &v in &probes {
        h.record(v);
    }
    assert_eq!(h.count(), probes.len() as u64);
    assert_eq!(h.sum(), probes.iter().copied().fold(0u64, u64::wrapping_add));
    for &v in &probes {
        assert!(h.bucket_count(bucket_of(v)) >= 1, "probe {v} not in its bucket");
    }
}

#[test]
fn metric_catalog_matches_the_reviewed_golden_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/telemetry-schema.txt");
    let golden = std::fs::read_to_string(path).expect("golden schema exists");
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        names::schema_lines(),
        golden_lines,
        "metric catalog drifted from scripts/telemetry-schema.txt — \
         update the golden file in the same change"
    );
}

/// Every `.rs` file under `dir`, skipping build output and hidden
/// directories.
fn rust_sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path).expect("utf-8 source");
            out.push((path.display().to_string(), text));
        }
    }
}

/// The program code of `sources`: each file outside every `tests/`
/// directory, cut at its first `#[cfg(test)]`, with its path relative
/// to `root`.
fn program_code<'a>(root: &Path, sources: &'a [(String, String)]) -> Vec<(&'a Path, &'a str)> {
    sources
        .iter()
        .filter_map(|(path, text)| {
            let rel = Path::new(path).strip_prefix(root).expect("source under the root");
            let test_dir = rel.components().any(|c| c.as_os_str() == "tests");
            (!test_dir).then(|| (rel, text.split("#[cfg(test)]").next().unwrap_or_default()))
        })
        .collect()
}

/// The identifiers of `text`, in order.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// Whether `text` contains `word` with no identifier character on
/// either side.
fn mentions_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        !text[..at].chars().next_back().is_some_and(is_ident)
            && !text[at + word.len()..].chars().next().is_some_and(is_ident)
    })
}

/// A recorded name earns its place by being read: its `names.rs`
/// constant (or its literal text) must appear in at least two
/// workspace files besides `names.rs` — the one that records it and
/// one that reads it (a report line, a health rule, a test, a gate or
/// the benchmark). Timeline-allowlisted series are read by the
/// timeline itself.
///
/// Span names are read generically: the trace tree, `viprof trace
/// --top` and the Chrome export show every recorded span whatever its
/// name. So a span name is checked from the writer's side instead: its
/// constant (or literal) must appear in the non-test part (before the
/// first `#[cfg(test)]`) of some program source file besides
/// `names.rs`, outside every `tests/` directory. A lineage bucket is
/// read by the lineage table whatever its name, so it too is checked
/// from the writer's side: some program code must `push(` a row under
/// its constant. A health id must be the id of a rule in
/// `DEFAULT_HEALTH_RULES`, and that rule must watch a cataloged counter
/// or gauge.
#[test]
fn every_recorded_name_has_a_reader() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let catalog_path = root.join("crates/telemetry/src/names.rs");
    let catalog = std::fs::read_to_string(&catalog_path).expect("catalog source");
    // `pub const IDENT: &str = "value";`, possibly wrapped after `=`.
    let constant = |value: &str| -> String {
        let quoted = format!("\"{value}\";");
        let at = catalog.find(&quoted).unwrap_or_else(|| panic!("{value} not declared"));
        let decl = &catalog[..at];
        let start = decl.rfind("pub const ").expect("declaration") + "pub const ".len();
        decl[start..].split(':').next().unwrap().to_string()
    };
    let mut sources = Vec::new();
    rust_sources(root, &mut sources);
    sources.retain(|(path, _)| !Path::new(path).ends_with("crates/telemetry/src/names.rs"));
    let program: Vec<&str> = program_code(root, &sources).into_iter().map(|(_, text)| text).collect();
    // `push(IDENT` with any whitespace between.
    let pushes = |ident: &str| {
        program
            .iter()
            .any(|text| text.split("push(").skip(1).any(|rest| identifiers(rest).next() == Some(ident)))
    };
    let series = |name: &str| {
        names::ALL_METRICS.iter().any(|(k, n)| matches!(*k, "counter" | "gauge") && *n == name)
    };

    let mut unread = Vec::new();
    let mut unwritten = Vec::new();
    let mut unruled = Vec::new();
    for (kind, name) in names::ALL_METRICS {
        let literal = format!("\"{name}\"");
        if *kind == "span" {
            let ident = constant(name);
            if !program.iter().any(|text| mentions_word(text, &ident) || text.contains(&literal)) {
                unwritten.push(format!("{kind} {name}"));
            }
            continue;
        }
        if *kind == "lineage" {
            if !pushes(&constant(name)) {
                unwritten.push(format!("{kind} {name}"));
            }
            continue;
        }
        if *kind == "health" {
            match DEFAULT_HEALTH_RULES.iter().find(|rule| rule.id == *name) {
                Some(rule) if series(rule.series) => {}
                Some(rule) => unruled.push(format!("{name} watches uncataloged {}", rule.series)),
                None => unruled.push(format!("{name} has no rule")),
            }
            continue;
        }
        if !["counter", "gauge", "histogram", "stage", "event"].contains(kind)
            || names::TIMELINE_COUNTERS.contains(name)
            || names::TIMELINE_GAUGES.contains(name)
        {
            continue;
        }
        let ident = constant(name);
        let files = sources
            .iter()
            .filter(|(_, text)| mentions_word(text, &ident) || text.contains(&literal))
            .count();
        if files < 2 {
            unread.push(format!("{kind} {name}"));
        }
    }
    assert!(
        unread.is_empty(),
        "{} recorded name(s) have no reader outside the file that records them — \
         read them or delete them:\n{}",
        unread.len(),
        unread.join("\n")
    );
    assert!(
        unwritten.is_empty(),
        "{} span name(s) or lineage bucket(s) are never recorded by program code — \
         record them or delete them:\n{}",
        unwritten.len(),
        unwritten.join("\n")
    );
    assert!(
        unruled.is_empty(),
        "{} health id(s) lack a default rule over a cataloged series:\n{}",
        unruled.len(),
        unruled.join("\n")
    );
}

/// Public functions that no program code calls, each with why it stays
/// public. The `FaultPlan::with_*` builders and `set_poison` are the
/// deliberate test API of fault injection; the rest are read by tests,
/// some of them in another crate, and by nothing else.
const UNREAD_PUB_FNS: &[(&str, &str)] = &[
    ("distinct_ranges", "the driver's tests count the anon table's ranges through it"),
    ("events_for", "its unit test pins the stats-mode event rates exactly"),
    ("find_method", "its unit test looks a method up by name in a built program"),
    ("gauge_series", "fault_matrix reads the governor's period track through it"),
    ("has_symbols", "tests in three crates check stripped images through it"),
    ("is_backedge", "the assembler's and bytecode's tests count backward branches"),
    ("is_running", "the interpreter's tests step a frame stack until it empties"),
    ("jump_if_zero", "the assembler's test builds a conditional loop with it"),
    ("jvm98_members", "its unit test pins the seven JVM98 programs"),
    ("live_object_count", "the VM's GC test checks survivors through it"),
    ("primary_percent_sum", "its unit test checks report percentages sum to 100"),
    ("proc_key", "prop_churn checks generation-tagged process identity through it"),
    ("rate_per_mcycle", "its unit test pins the timeline's per-window rates"),
    ("reserve_statics", "interpreter and VM tests give programs static slots with it"),
    ("resolve_image_offset", "its unit test resolves file-backed addresses"),
    ("resolve_offset", "its unit test resolves boot-image offsets to methods"),
    ("seconds_to_cycles", "its unit test pins the clock's conversion"),
    ("set_max", "its unit test pins the gauge's high-water mark"),
    ("set_poison", "test API: resolution tests poison shards to reach quarantine"),
    ("symbolize", "kernel and machine tests resolve PCs to symbols with it"),
    ("total_bytes", "its unit test checks the VFS's byte accounting"),
    ("total_invocations", "its unit test pins a work plan's invocation count"),
    ("touches_heap", "its unit test pins which ops drive the memory model"),
    ("unmap", "its unit test removes a mapping from an address space"),
    ("with_daemon_stalls", "test API: fault-injection builder"),
    ("with_garbled_lines", "test API: fault-injection builder"),
    ("with_lost_maps", "test API: fault-injection builder"),
    ("with_overflow_bursts", "test API: fault-injection builder"),
    ("with_pid_reuse_collision", "test API: fault-injection builder"),
    ("with_sample_corruption", "test API: fault-injection builder"),
    ("with_torn_maps", "test API: fault-injection builder"),
];

/// A `pub fn` earns its place by being called. Its name must occur in
/// the workspace's program code (see [`program_code`]; bins, examples
/// and perfbench count) more often than `fn <name>` is defined there,
/// or be on [`UNREAD_PUB_FNS`] with its reason. The names checked are
/// those of the `pub fn`s in program code outside perfbench, which is
/// its own workspace. An allowlisted name that gains a caller or loses
/// its definition must leave the list.
#[test]
fn every_public_fn_has_a_reader() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(root, &mut sources);
    let program = program_code(root, &sources);

    let mut defined = std::collections::BTreeSet::new();
    for (path, text) in &program {
        if path.starts_with("perfbench") {
            continue;
        }
        for line in text.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("pub fn ") {
                defined.extend(identifiers(rest).next());
            }
        }
    }
    // Occurrences of each name, and how many of them follow `fn`.
    let mut uses: std::collections::HashMap<&str, (usize, usize)> = Default::default();
    for (_, text) in &program {
        let mut after_fn = false;
        for word in identifiers(text) {
            let entry = uses.entry(word).or_default();
            entry.0 += 1;
            entry.1 += after_fn as usize;
            after_fn = word == "fn";
        }
    }
    let unread: Vec<&str> = defined
        .iter()
        .copied()
        .filter(|name| uses.get(name).is_none_or(|(all, defs)| all <= defs))
        .collect();

    let listed: Vec<&str> = UNREAD_PUB_FNS.iter().map(|(name, _)| *name).collect();
    let mut sorted = listed.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(listed, sorted, "UNREAD_PUB_FNS must be sorted, with no name twice");
    let missing: Vec<&str> = unread.iter().copied().filter(|n| !listed.contains(n)).collect();
    assert!(
        missing.is_empty(),
        "{} pub fn(s) have no caller in program code — call them, delete them, make \
         them private, or list them in UNREAD_PUB_FNS with a reason:\n{}",
        missing.len(),
        missing.join("\n")
    );
    let stale: Vec<&str> = listed.iter().copied().filter(|n| !unread.contains(n)).collect();
    assert!(
        stale.is_empty(),
        "UNREAD_PUB_FNS lists name(s) that now have a caller or no definition — \
         remove them:\n{}",
        stale.join("\n")
    );
}

/// A live, journaled session with more daemon drains than the flight
/// recorder has slots must not evict its own history: routine
/// per-drain work records no events, so the install event survives.
#[test]
fn long_live_session_keeps_its_flight_recorder_history() {
    let (built, plan) = small_workload();
    let config = OpConfig {
        daemon_period_cycles: 20_000,
        ..OpConfig::time_at(50_000)
    }
    .with_journal();
    let out = run_benchmark(&built, &plan, ProfilerKind::ViprofLive(config, None), 3, false);
    let snap = out.telemetry.as_ref().expect("profiled run records telemetry");
    let drains = snap.counter(names::DAEMON_DRAINS);
    assert!(
        drains > DEFAULT_EVENT_CAPACITY as u64,
        "the session must drain more often than the recorder has slots: {drains}"
    );
    assert_eq!(
        snap.counter(names::LIVE_FULL_REBUILDS),
        1,
        "stop loads the cache once; the snapshot after stop does not reload"
    );
    let live = out.live.as_ref().expect("live run carries a snapshot");
    assert_eq!(live.quality.accounted(), out.db.as_ref().unwrap().total_samples());
    assert_eq!(snap.events_dropped, 0, "the flight recorder evicted events");
    assert_eq!(snap.events_of(names::EVENT_SESSION_INSTALL).len(), 1);
}
