//! Property tests for process-churn robustness (ISSUE 7):
//!
//! 1. The kernel's LIFO pid allocator is deterministic per op sequence:
//!    replaying the same spawn/exit schedule on a fresh kernel yields
//!    the identical `(pid, gen)` trace, and every reuse matches a
//!    brute-force stack oracle (most recently freed pid first, its
//!    generation bumped past every earlier incarnation).
//!
//! 2. Cross-incarnation isolation: a sample stamped `(pid, gen)` only
//!    ever resolves against maps written by that exact incarnation.
//!    Across 256 random multi-incarnation layouts the per-bucket walk,
//!    the sharded engine at every thread count, and the engine's
//!    per-incarnation breakdown all agree with a per-key oracle,
//!    samples of a map-less generation are blocked (never borrowed
//!    from a sibling), and `quality.accounted()` still covers 100 % of
//!    the database.

mod support;

use support::{check, oracle, Gen};
use viprof_repro::oprofile::{SampleBucket, SampleDb, SampleOrigin};
use viprof_repro::sim_cpu::{HwEvent, Pid, ProcKey};
use viprof_repro::sim_os::Kernel;
use viprof_repro::viprof::codemap::{map_path, render_map, CodeMapEntry};
use viprof_repro::viprof::resolve::ResolveOptions;
use viprof_repro::viprof::{ReportSpec, ResolutionEngine, ViprofResolver};

// ---------- LIFO pid allocator: determinism + stack oracle ----------

/// `None` = spawn, `Some(i)` = exit the `i % live`-th live process.
fn op_strategy(g: &mut Gen) -> Vec<Option<usize>> {
    g.vec(1..200, |g| g.option(|g| g.range(0usize..8)))
}

/// Run one schedule, checking each spawn against the oracle. Returns
/// the `(pid, gen)` trace of every spawn for cross-run comparison.
fn run_schedule(ops: &[Option<usize>]) -> Vec<(u32, u32)> {
    let mut k = Kernel::new();
    let mut live: Vec<Pid> = Vec::new();
    // Oracle state: fresh-pid counter, freed-pid stack, max gen per pid.
    let mut next_fresh = 1u32;
    let mut free: Vec<u32> = Vec::new();
    let mut gens: std::collections::BTreeMap<u32, u32> = Default::default();
    let mut trace = Vec::new();
    for op in ops {
        match op {
            Some(i) if !live.is_empty() => {
                let pid = live.remove(i % live.len());
                let p = k.exit_process(pid).expect("live process exits");
                assert_eq!(p.pid, pid);
                free.push(pid.0);
            }
            Some(_) => {} // Exit with nothing live: no-op.
            None => {
                let pid = k.spawn("vm");
                let (want_pid, want_gen) = match free.pop() {
                    Some(raw) => (raw, gens.get(&raw).map_or(0, |g| g + 1)),
                    None => {
                        let raw = next_fresh;
                        next_fresh += 1;
                        (raw, 0)
                    }
                };
                assert_eq!(pid.0, want_pid, "LIFO reuse order");
                assert_eq!(k.generation(pid), want_gen, "generation bump");
                assert_eq!(
                    k.process(pid).map(|p| p.key()),
                    Some(ProcKey::new(pid, want_gen)),
                    "live key matches the allocator's answer"
                );
                gens.insert(pid.0, want_gen);
                live.push(pid);
                trace.push((pid.0, want_gen));
            }
        }
    }
    trace
}

#[test]
fn pid_allocator_reuse_order_is_deterministic() {
    check(
        "pid_allocator_reuse_order_is_deterministic",
        256,
        op_strategy,
        |ops| {
            let first = run_schedule(&ops);
            // Same schedule, fresh kernel: bit-identical (pid, gen) trace.
            let second = run_schedule(&ops);
            assert_eq!(first, second);
        },
    );
}

// ---------- cross-incarnation isolation, 256 random layouts ----------

const SIGS: [&str; 4] = ["app.A.run", "app.B.step", "app.C.scan", "app.D.gc"];

fn entry_strategy(g: &mut Gen) -> CodeMapEntry {
    CodeMapEntry {
        addr: g.range(0u64..0x1000),
        size: g.range(1u64..0x100),
        level: "O1".to_string(),
        signature: SIGS[g.range(0..SIGS.len())].to_string(),
    }
}

/// Incarnations: map from `(pid, gen)` to the entries this incarnation
/// wrote (possibly none on disk at all, modelled by `None`).
fn incarnation_strategy(
    g: &mut Gen,
) -> std::collections::BTreeMap<(u32, u32), Option<Vec<CodeMapEntry>>> {
    g.vec(1..7, |g| {
        let key = (g.range(1u32..4), g.range(0u32..3));
        (key, g.option(|g| g.vec(0..5, entry_strategy)))
    })
    .into_iter()
    .collect()
}

/// Samples stamped with arbitrary `(pid, gen)` — including generations
/// that never wrote maps and pids nothing registered.
fn sample_strategy(g: &mut Gen) -> Vec<(u32, u32, u64, u64, u64)> {
    g.vec(1..40, |g| {
        (
            g.range(1u32..5),
            g.range(0u32..4),
            g.range(0u64..0x1100),
            g.range(0u64..3),
            g.range(1u64..20),
        )
    })
}

#[test]
fn samples_only_resolve_against_their_own_incarnation() {
    check(
        "samples_only_resolve_against_their_own_incarnation",
        256,
        |g| (incarnation_strategy(g), sample_strategy(g)),
        |(incarnations, samples)| {
            let mut k = Kernel::new();
            for ((pid, gen), entries) in &incarnations {
                let Some(entries) = entries else { continue };
                let key = ProcKey::new(Pid(*pid), *gen);
                // Two epochs per incarnation so chained lookups run too.
                for epoch in 0..2u64 {
                    k.vfs
                        .write(map_path(key, epoch), render_map(entries).into_bytes());
                }
            }
            let mut db = SampleDb::new();
            for (pid, gen, addr, epoch, count) in &samples {
                db.add(
                    SampleBucket {
                        origin: SampleOrigin::JitApp {
                            pid: Pid(*pid),
                            gen: *gen,
                        },
                        event: HwEvent::Cycles,
                        addr: *addr,
                        epoch: *epoch,
                    },
                    *count,
                );
            }

            let (resolver, _) = ViprofResolver::load_with(&k, ResolveOptions::default()).unwrap();
            let pids_with_maps: std::collections::BTreeSet<u32> = incarnations
                .iter()
                .filter(|(_, e)| e.is_some())
                .map(|((p, _), _)| *p)
                .collect();

            // Per-bucket oracle: resolution may consult the stamped
            // incarnation's own maps and nothing else.
            let mut want_resolved = 0u64;
            let mut want_stale = 0u64;
            let mut want_unresolved = 0u64;
            let mut want_blocked = 0u64;
            for (bucket, count) in db.iter() {
                let SampleOrigin::JitApp { pid, gen } = bucket.origin else {
                    unreachable!()
                };
                let own = resolver.codemaps(ProcKey::new(pid, gen));
                let (_, sym) = oracle::label(&resolver, bucket, &k);
                match own {
                    Some(set) => match oracle::resolve_salvage(set, bucket.addr, bucket.epoch) {
                        Some((signature, stale)) => {
                            assert_eq!(sym, signature, "label came from own maps");
                            if stale {
                                want_stale += count
                            } else {
                                want_resolved += count
                            }
                        }
                        None => {
                            assert_eq!(sym.as_str(), "(unresolved jit)");
                            want_unresolved += count;
                        }
                    },
                    None => {
                        // THE invariant: no maps for this generation means
                        // no symbol, even when a sibling incarnation of the
                        // pid has perfectly good maps covering this addr.
                        assert_eq!(sym.as_str(), "(unresolved jit)");
                        if pids_with_maps.contains(&pid.0) {
                            want_blocked += count;
                        } else {
                            want_unresolved += count;
                        }
                    }
                }
            }

            // Whole-run quality matches the oracle and accounts for 100 %.
            let q = oracle::quality(&resolver, &k, &db);
            assert_eq!(q.resolved, want_resolved);
            assert_eq!(q.stale_epoch, want_stale);
            assert_eq!(q.unresolved, want_unresolved);
            assert_eq!(q.cross_incarnation_blocked, want_blocked);
            assert_eq!(q.accounted(), db.total_samples());

            // The sharded engine agrees at every thread count.
            let mut engine = ResolutionEngine::build(&resolver);
            for threads in [1usize, 4] {
                assert_eq!(engine.quality(&db, threads), q, "threads={}", threads);
            }

            // The per-incarnation breakdown the report ships partitions
            // the same totals.
            let rows = engine.resolve(&db, &k, &ReportSpec::default()).incarnations;
            for w in rows.windows(2) {
                assert!((w[0].pid, w[0].gen) < (w[1].pid, w[1].gen), "sorted rows");
            }
            for r in &rows {
                assert_eq!(
                    r.samples,
                    r.resolved + r.stale_epoch + r.unresolved + r.blocked
                );
                if r.blocked > 0 {
                    assert!(
                        resolver.codemaps(ProcKey::new(Pid(r.pid), r.gen)).is_none()
                            && pids_with_maps.contains(&r.pid),
                        "blocked rows are exactly map-less gens of mapped pids"
                    );
                }
            }
            assert_eq!(
                rows.iter().map(|r| r.samples).sum::<u64>(),
                db.total_samples()
            );
            assert_eq!(rows.iter().map(|r| r.resolved).sum::<u64>(), q.resolved);
            assert_eq!(
                rows.iter().map(|r| r.stale_epoch).sum::<u64>(),
                q.stale_epoch
            );
            assert_eq!(rows.iter().map(|r| r.unresolved).sum::<u64>(), q.unresolved);
            assert_eq!(
                rows.iter().map(|r| r.blocked).sum::<u64>(),
                q.cross_incarnation_blocked
            );
        },
    );
}
