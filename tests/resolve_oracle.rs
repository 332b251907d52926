//! The resolution engine against the per-bucket epoch walk
//! (`support::oracle`) on hand-built sessions: every origin's label,
//! the quality report, the report rows at every shard count and under
//! row filters, blocked incarnations, evictions, an empty database,
//! the paper's Figure 1 shape and the forward-salvage walk. The engine
//! is queried through its public surface: `resolve`, `quality` and
//! `label`.

mod support;

use support::oracle;
use viprof_repro::oprofile::{ReportOptions, SampleBucket, SampleDb, SampleOrigin};
use viprof_repro::sim_cpu::{HwEvent, Pid};
use viprof_repro::sim_jvm::bootimage::{well_known, BOOT_IMAGE_NAME, RVM_MAP_PATH};
use viprof_repro::sim_jvm::BootImage;
use viprof_repro::sim_os::{Image, Kernel, Symbol};
use viprof_repro::viprof::codemap::{map_path, render_map, CodeMapEntry};
use viprof_repro::viprof::resolve::ResolveOptions;
use viprof_repro::viprof::{CodeMapSet, FlatIndex, ReportSpec, ResolutionEngine, ViprofResolver};

fn bucket(origin: SampleOrigin, addr: u64, epoch: u64) -> SampleBucket {
    SampleBucket {
        origin,
        event: HwEvent::Cycles,
        addr,
        epoch,
    }
}

fn code(addr: u64, size: u64, level: &str, signature: &str) -> CodeMapEntry {
    CodeMapEntry {
        addr,
        size,
        level: level.into(),
        signature: signature.into(),
    }
}

/// A booted VM with two epoch maps: one method in epoch 0 and a late
/// one in epoch 4.
fn setup() -> (Kernel, Pid) {
    let mut k = Kernel::new();
    let pid = k.spawn("jikesrvm");
    let mut boot = BootImage::jikes_standard();
    boot.install(&mut k, pid, 0x0900_0000);
    k.vfs.write(
        map_path(pid, 0),
        render_map(&[code(0x6400_0040, 0x80, "O1", "app.Scanner.parseLine")]).into_bytes(),
    );
    k.vfs.write(
        map_path(pid, 4),
        render_map(&[code(0x6500_0000, 0x40, "base", "app.Late.comer")]).into_bytes(),
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

/// Load `k`'s maps once: the resolver the oracle walks and the engine
/// flattened from it.
fn load(k: &Kernel) -> (ViprofResolver, ResolutionEngine) {
    let (resolver, _) = ViprofResolver::load_with(k, ResolveOptions::default()).unwrap();
    let engine = ResolutionEngine::build(&resolver);
    (resolver, engine)
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
        render_map(&[code(top, 0x100, "O2", "app.Top.edge")]).into_bytes(),
    );
    let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
    let mut db = mixed_db(&k, pid);
    for addr in [u64::MAX - 1, u64::MAX] {
        db.add(bucket(SampleOrigin::Image(boot_id), addr, 0), 1);
        db.add(bucket(SampleOrigin::JitApp { pid: top_pid, gen: 0 }, addr, 0), 1);
    }
    let (resolver, engine) = load(&k);
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
    let (resolver, engine) = load(&k);
    let want = oracle::quality(&resolver, &k, &db);
    assert_eq!(engine.quality(&db, 1), want);
    assert_eq!(engine.quality(&db, 4), want);
    assert_eq!(want.accounted(), db.total_samples());
}

#[test]
fn sharded_report_is_bit_identical_to_walk_and_thread_count_invariant() {
    let (k, pid) = setup();
    let db = mixed_db(&k, pid);
    let (resolver, mut engine) = load(&k);
    let options = ReportOptions::default();
    let legacy = oracle::viprof_report(&db, &k, &resolver, &options);
    let legacy_q = oracle::quality(&resolver, &k, &db);
    for threads in [0, 1, 2, 3, 8] {
        let spec = ReportSpec::default().with_options(options.clone()).threads(threads);
        let session = engine.resolve(&db, &k, &spec);
        assert_eq!(session.lines, legacy, "threads={threads}");
        assert_eq!(session.quality, legacy_q, "threads={threads}");
    }
}

#[test]
fn row_filters_apply_identically() {
    let (k, pid) = setup();
    let db = mixed_db(&k, pid);
    let (resolver, mut engine) = load(&k);
    let options = ReportOptions {
        min_primary_percent: 10.0,
        max_rows: Some(2),
        ..ReportOptions::default()
    };
    let legacy = oracle::viprof_report(&db, &k, &resolver, &options);
    let report = engine
        .resolve(&db, &k, &ReportSpec::default().with_options(options).threads(4))
        .lines;
    assert_eq!(report, legacy);
    assert!(report.rows.len() <= 2);
}

#[test]
fn blocked_samples_agree_with_the_reference_and_stay_accounted() {
    let (k, pid) = setup();
    let db = mixed_db(&k, pid);
    let (resolver, engine) = load(&k);
    let want = oracle::quality(&resolver, &k, &db);
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
    let (resolver, engine) = load(&k);
    let q = engine.quality(&db, 2);
    assert_eq!(q.evicted, 9);
    assert_eq!(q, oracle::quality(&resolver, &k, &db), "legacy walk agrees");
    // Evicted samples sit outside accounted(): they never reached
    // the database, like drops.
    assert_eq!(q.accounted(), db.total_samples());
}

#[test]
fn empty_db_reports_empty_with_damage_counters_intact() {
    let (mut k, pid) = setup();
    // One garbled line so the damage counters are non-zero.
    k.vfs.write(
        map_path(pid, 1),
        b"!! garbage\n0000000065100000 00000040 base app.Ok.fine\n".to_vec(),
    );
    let (resolver, mut engine) = load(&k);
    let db = SampleDb::new();
    let session = engine.resolve(&db, &k, &ReportSpec::default().threads(4));
    assert!(session.lines.rows.is_empty());
    assert_eq!(session.quality, oracle::quality(&resolver, &k, &db));
    assert_eq!(session.quality.quarantined_lines, 1);
}

#[test]
fn figure1_shape_rvm_jit_and_libc_rows_coexist() {
    let mut k = Kernel::new();
    let pid = k.spawn("jikesrvm");
    let mut boot = BootImage::jikes_standard();
    boot.install(&mut k, pid, 0x0900_0000);
    let libc = k.images.insert(
        Image::new("libc-2.3.2.so", 0x4000).with_symbols([Symbol::new("memset", 0x1000, 0x400)]),
    );
    k.vfs.write(
        map_path(pid, 0),
        render_map(&[code(0x6400_0040, 0x100, "O2", "dacapo.ps.Scanner.parseLine")]).into_bytes(),
    );

    let boot_id = k.images.find_by_name(BOOT_IMAGE_NAME).unwrap();
    let mut db = SampleDb::new();
    let mut add = |origin, addr, event, n| {
        db.add(
            SampleBucket {
                origin,
                event,
                addr,
                epoch: 0,
            },
            n,
        )
    };
    // VM-internal time (interpreter method at offset 0).
    add(SampleOrigin::Image(boot_id), 0x10, HwEvent::Cycles, 30);
    // JIT'd app method.
    add(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, HwEvent::Cycles, 50);
    add(SampleOrigin::JitApp { pid, gen: 0 }, 0x6400_0080, HwEvent::L2Miss, 5);
    // Native memset with heavy misses (the paper's top Dmiss row).
    add(SampleOrigin::Image(libc), 0x1100, HwEvent::Cycles, 20);
    add(SampleOrigin::Image(libc), 0x1100, HwEvent::L2Miss, 15);

    let (resolver, mut engine) = load(&k);
    let walk = oracle::viprof_report(&db, &k, &resolver, &ReportOptions::default());
    let r = engine.resolve(&db, &k, &ReportSpec::default()).lines;
    assert_eq!(r, walk, "the engine's Figure 1 is the walk's");

    let jit = r.find("JIT.App", "dacapo.ps.Scanner.parseLine").unwrap();
    assert_eq!(jit.counts, vec![50, 5]);
    let vm = r.find("RVM.map", well_known::INTERPRET).unwrap();
    assert_eq!(vm.counts, vec![30, 0]);
    let memset = r.find("libc-2.3.2.so", "memset").unwrap();
    assert!((memset.percents[1] - 75.0).abs() < 1e-9, "Dmiss-dominant");
    // Figure-1 text shape.
    let text = r.render_text();
    assert!(text.contains("Time %"));
    assert!(text.contains("Dmiss %"));
    assert!(text.contains("RVM.map"));
    assert!(text.contains("JIT.App"));
    assert!(text.contains("memset"));
}

#[test]
fn salvage_searches_forward_after_backward_misses() {
    // Epoch 1's map was lost; method X only appears in epoch 3's
    // map. A sample tagged epoch 1 misses backwards but salvages
    // forwards — flagged stale. The flattened index agrees.
    let set = CodeMapSet::new(vec![
        (0, vec![code(0x900, 0x40, "base", "old")]),
        (3, vec![code(0x100, 0x40, "base", "X")]),
    ]);
    let flat = FlatIndex::build(&set);
    let fast = |pc, epoch| flat.resolve_salvage(pc, epoch).map(|(s, stale)| (s.as_ref(), stale));
    assert!(set.resolve(0x110, 1).is_none());
    let (hit, stale) = oracle::resolve_salvage(&set, 0x110, 1).unwrap();
    assert_eq!((hit, stale), ("X", true));
    assert_eq!(fast(0x110, 1), Some(("X", true)));
    // A backward hit is never marked stale.
    let (hit, stale) = oracle::resolve_salvage(&set, 0x910, 2).unwrap();
    assert_eq!((hit, stale), ("old", false));
    assert_eq!(fast(0x910, 2), Some(("old", false)));
    // Nothing anywhere: still a miss.
    assert!(oracle::resolve_salvage(&set, 0x500, 1).is_none());
    assert!(fast(0x500, 1).is_none());
}
