//! Property tests for the flattened epoch interval index and the
//! sharded resolution engine: on *random map chains* — overlapping
//! entries, duplicate start addresses, zero-sized bodies, duplicate
//! epochs, sparse chains — the flattened index must reproduce the
//! legacy backward walk and forward salvage **exactly**, including the
//! stale-epoch classification; and the engine must produce the same
//! labels, quality and report as the reference resolver for every
//! shard count.

mod support;

use std::collections::BTreeMap;
use support::{check, oracle, Gen};
use viprof_repro::oprofile::{SampleBucket, SampleDb, SampleOrigin};
use viprof_repro::sim_cpu::HwEvent;
use viprof_repro::sim_os::{Kernel, SplitMix64};
use viprof_repro::viprof::codemap::{map_path, render_map, CodeMapEntry, CodeMapSet};
use viprof_repro::viprof::resolve::ResolveOptions;
use viprof_repro::viprof::{FlatIndex, ReportSpec, ResolutionEngine, ViprofResolver};

const SIGS: [&str; 5] = [
    "app.A.run",
    "app.B.step",
    "app.C.scan",
    "app.D.gc",
    "app.E.init",
];

fn entry_strategy(g: &mut Gen) -> CodeMapEntry {
    CodeMapEntry {
        addr: g.range(0u64..0x2000),
        size: g.range(0u64..0x200),
        level: "O1".to_string(),
        signature: SIGS[g.range(0..SIGS.len())].to_string(),
    }
}

/// Random epoch-map chains; epochs may repeat (possible through the
/// public `CodeMapSet::new`, and the hardest case for flattening —
/// the walk breaks ties by position, not epoch value).
fn chain_strategy(g: &mut Gen) -> Vec<(u64, Vec<CodeMapEntry>)> {
    g.vec(0..6, |g| (g.range(0u64..12), g.vec(0..8, entry_strategy)))
}

fn queries_strategy(g: &mut Gen) -> Vec<(u64, u64)> {
    g.vec(1..64, |g| (g.range(0u64..0x2400), g.range(0u64..14)))
}

/// On-disk chains: one file per epoch (duplicates are covered by the
/// direct index property).
fn maps_strategy(g: &mut Gen) -> BTreeMap<u64, Vec<CodeMapEntry>> {
    g.vec(0..5, |g| (g.range(0u64..10), g.vec(0..6, entry_strategy)))
        .into_iter()
        .collect()
}

#[test]
fn flattened_index_matches_the_epoch_walk() {
    check(
        "flattened_index_matches_the_epoch_walk",
        256,
        |g| (chain_strategy(g), queries_strategy(g)),
        |(chain, queries)| {
            let set = CodeMapSet::new(chain);
            let flat = FlatIndex::build(&set);
            for (pc, epoch) in queries {
                // Backward walk only.
                let walk = set.resolve(pc, epoch);
                let fast = flat.resolve(pc, epoch).map(|s| s.as_ref());
                assert_eq!(walk, fast, "resolve(pc={:#x}, epoch={})", pc, epoch);
                // Walk + forward salvage, with the stale flag.
                let walk = oracle::resolve_salvage(&set, pc, epoch);
                let fast = flat
                    .resolve_salvage(pc, epoch)
                    .map(|(s, stale)| (s.as_ref(), stale));
                assert_eq!(walk, fast, "resolve_salvage(pc={:#x}, epoch={})", pc, epoch);
            }
        },
    );
}

/// Resolve `db` against the maps on `k` with the engine and with the
/// reference resolver, and assert they agree: every bucket's label,
/// and the report and quality at 1, 3 and 7 shards.
fn assert_engine_matches_the_oracle(k: &Kernel, db: &SampleDb) {
    let (resolver, _) = ViprofResolver::load_with(k, ResolveOptions::default()).unwrap();
    let mut engine = ResolutionEngine::build(&resolver);
    // Per-bucket label parity.
    for (bucket, _) in db.iter() {
        let (img, sym) = engine.label(bucket, k);
        assert_eq!(
            (img.to_string(), sym.to_string()),
            oracle::label(&resolver, bucket, k),
            "label diverged on {:?}",
            bucket
        );
    }
    // Whole-session parity, across shard counts.
    let options = Default::default();
    let walk_report = oracle::viprof_report(db, k, &resolver, &options);
    let walk_q = oracle::quality(&resolver, k, db);
    assert_eq!(walk_q.accounted(), db.total_samples());
    for threads in [1usize, 3, 7] {
        let spec = ReportSpec::default().threads(threads);
        let session = engine.resolve(db, k, &spec);
        assert_eq!(
            &session.lines, &walk_report,
            "report diverged at threads={}",
            threads
        );
        assert_eq!(
            session.quality, walk_q,
            "quality diverged at threads={}",
            threads
        );
        assert_eq!(engine.quality(db, threads), walk_q);
    }
}

#[test]
fn engine_matches_the_reference_resolver_on_random_sessions() {
    check(
        "engine_matches_the_reference_resolver_on_random_sessions",
        256,
        |g| {
            (
                maps_strategy(g),
                g.vec(0..48, |g| {
                    (
                        g.range(0u64..0x2400),
                        g.range(0u64..12),
                        g.range(0usize..HwEvent::ALL.len()),
                        g.bool(),
                        g.range(1u64..50),
                    )
                }),
                g.range(0u64..20),
            )
        },
        |(maps, buckets, dropped)| {
            let mut k = Kernel::new();
            let pid = k.spawn("jikesrvm");
            for (epoch, entries) in &maps {
                k.vfs
                    .write(map_path(pid, *epoch), render_map(entries).into_bytes());
            }
            let mut db = SampleDb::new();
            for (addr, epoch, ev, jit, count) in buckets {
                let origin = if jit {
                    SampleOrigin::JitApp { pid, gen: 0 }
                } else {
                    SampleOrigin::Unknown
                };
                db.add(
                    SampleBucket {
                        origin,
                        event: HwEvent::ALL[ev],
                        addr,
                        epoch,
                    },
                    count,
                );
            }
            db.dropped = dropped;

            assert_engine_matches_the_oracle(&k, &db);
        },
    );
}

/// The chain depth the random strategy never draws: 64 epochs. Each
/// of four pids compiles method `m` in epoch `m % 64`. Samples land at
/// the last epoch (backward walks up to 63 maps deep), at epoch 0
/// (forward salvage), at a random epoch, and in the gaps between
/// method bodies (unresolved).
#[test]
fn engine_matches_the_reference_resolver_on_a_64_epoch_chain() {
    const EPOCHS: u64 = 64;
    const METHODS: u64 = 256;
    const BASE: u64 = 0x6400_0000;
    const STRIDE: u64 = 0x100;
    const SIZE: u64 = 0x80;
    let chain = |i: usize| -> Vec<(u64, Vec<CodeMapEntry>)> {
        (0..EPOCHS)
            .map(|epoch| {
                let entries = (epoch..METHODS)
                    .step_by(EPOCHS as usize)
                    .map(|m| CodeMapEntry {
                        addr: BASE + m * STRIDE,
                        size: SIZE,
                        level: "O2".to_string(),
                        signature: format!("app.P{i}.M{m:03}.run"),
                    })
                    .collect();
                (epoch, entries)
            })
            .collect()
    };
    let mut k = Kernel::new();
    let pids: Vec<_> = (0..4)
        .map(|i| {
            let pid = k.spawn(format!("jikesrvm-{i}"));
            for (epoch, entries) in chain(i) {
                k.vfs.write(map_path(pid, epoch), render_map(&entries).into_bytes());
            }
            pid
        })
        .collect();
    let mut rng = SplitMix64::new(0x5EED);
    let mut below = |n: u64| rng.next_u64() % n;
    let mut db = SampleDb::new();
    for _ in 0..20_000 {
        let pid = pids[below(pids.len() as u64) as usize];
        let body = BASE + below(METHODS) * STRIDE;
        let offset = below(SIZE);
        let (addr, epoch) = match below(20) {
            0 => (body + offset, 0),
            1 => (body + offset, below(EPOCHS)),
            2 => (body + SIZE + offset, EPOCHS - 1),
            _ => (body + offset, EPOCHS - 1),
        };
        let event = if below(4) == 0 {
            HwEvent::L2Miss
        } else {
            HwEvent::Cycles
        };
        db.add(
            SampleBucket {
                origin: SampleOrigin::JitApp { pid, gen: 0 },
                event,
                addr,
                epoch,
            },
            1,
        );
    }
    let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
    let q = oracle::quality(&resolver, &k, &db);
    assert!(
        q.resolved > 0 && q.stale_epoch > 0 && q.unresolved > 0,
        "the session must reach every classification: {q:?}"
    );
    assert_engine_matches_the_oracle(&k, &db);
}
