//! Property-based tests of the core data-structure invariants, checked
//! against straightforward oracles.

mod support;

use support::{check, Gen};
use viprof_repro::oprofile::{RingBuffer, SampleBucket, SampleOrigin};
use viprof_repro::sim_cpu::{Cache, CacheConfig, Counter, CounterSpec, FracAcc, HwEvent, Pid};
use viprof_repro::sim_os::{AddressSpace, Image, ImageId, Symbol, Vma};

// ---------- VMA map vs. linear-scan oracle ----------

fn arb_ranges(g: &mut Gen) -> Vec<(u64, u64)> {
    // Candidate [start, end) pairs within a small window so overlaps
    // actually happen.
    g.vec(0..40, |g| {
        let s = g.range(0u64..2_000);
        (s, s + g.range(1u64..200))
    })
}

#[test]
fn vma_map_matches_linear_oracle() {
    check(
        "vma_map_matches_linear_oracle",
        256,
        |g| {
            (
                arb_ranges(g),
                (0..50).map(|_| g.range(0u64..2_500)).collect::<Vec<_>>(),
            )
        },
        |(ranges, probes)| {
            let mut space = AddressSpace::new();
            let mut accepted: Vec<(u64, u64)> = Vec::new();
            for (s, e) in ranges {
                let overlaps = accepted.iter().any(|(as_, ae)| s < *ae && *as_ < e);
                let result = space.map(Vma::anon(s, e));
                assert_eq!(result.is_ok(), !overlaps, "map({:#x},{:#x})", s, e);
                if result.is_ok() {
                    accepted.push((s, e));
                }
            }
            for p in probes {
                let oracle = accepted.iter().find(|(s, e)| p >= *s && p < *e);
                let got = space.lookup(p).map(|v| (v.start, v.end));
                assert_eq!(got, oracle.copied(), "probe {:#x}", p);
            }
        },
    );
}

// ---------- counter overflow arithmetic ----------
#[test]
fn counter_overflow_count_is_partition_invariant() {
    check(
        "counter_overflow_count_is_partition_invariant",
        256,
        |g| {
            (
                g.range(1u64..200_000),
                g.vec(1..40, |g| g.range(0u64..500_000)),
            )
        },
        |(period, chunks)| {
            let total: u64 = chunks.iter().sum();
            let mut c = Counter::new(CounterSpec::new(HwEvent::Cycles, period));
            let mut overflows = 0;
            for n in &chunks {
                overflows += c.add(*n).count;
            }
            assert_eq!(overflows, total / period);
            // Remaining distance is consistent with the total: the next
            // overflow is the last of `period - total % period` events.
            let remaining = period - total % period;
            assert_eq!(c.add(remaining - 1).count, 0);
            assert_eq!(c.add(1).count, 1);
        },
    );
}

#[test]
fn counter_overflow_positions_are_strictly_spaced() {
    check(
        "counter_overflow_positions_are_strictly_spaced",
        256,
        |g| (g.range(1u64..10_000), g.range(1u64..100_000)),
        |(period, n)| {
            let mut c = Counter::new(CounterSpec::new(HwEvent::Cycles, period));
            let o = c.add(n);
            let positions: Vec<u64> = o.iter().collect();
            for w in positions.windows(2) {
                assert_eq!(w[1] - w[0], period);
            }
            if let Some(first) = positions.first() {
                // Fresh counter: the first overflow is exactly at `period`.
                assert_eq!(*first, period);
            }
            for p in &positions {
                assert!(*p >= 1 && *p <= n);
            }
        },
    );
}

// ---------- FracAcc ----------
#[test]
fn fracacc_partition_invariance() {
    check(
        "fracacc_partition_invariance",
        256,
        |g| {
            (
                g.range(0.0f64..8.0),
                g.vec(1..30, |g| g.range(0u64..100_000)),
            )
        },
        |(rate, chunks)| {
            let total: u64 = chunks.iter().sum();
            let mut one = FracAcc::new();
            let expected = one.take(rate, total);
            let mut split = FracAcc::new();
            let mut got = 0u64;
            for c in &chunks {
                got += split.take(rate, *c);
            }
            assert_eq!(got, expected);
            // And the total is within 1 of the ideal.
            let ideal = rate * total as f64;
            assert!(
                (got as f64 - ideal).abs() <= 1.0 + ideal * 1e-9,
                "got {} ideal {}",
                got,
                ideal
            );
        },
    );
}

// ---------- ring buffer vs. VecDeque oracle ----------
#[test]
fn ring_buffer_matches_deque_oracle() {
    check(
        "ring_buffer_matches_deque_oracle",
        256,
        |g| {
            (
                g.range(1usize..64),
                g.vec(1..300, |g| g.option(|g| g.range(0u64..1_000))),
            )
        },
        |(capacity, ops)| {
            let mut ring = RingBuffer::new(capacity);
            let mut oracle: std::collections::VecDeque<u64> = Default::default();
            let mut oracle_dropped = 0u64;
            let sample = |addr: u64| SampleBucket {
                origin: SampleOrigin::Unknown,
                event: HwEvent::Cycles,
                addr,
                epoch: 0,
            };
            for op in ops {
                match op {
                    Some(addr) => {
                        if oracle.len() == capacity {
                            oracle_dropped += 1;
                        } else {
                            oracle.push_back(addr);
                        }
                        ring.push(sample(addr));
                    }
                    None => {
                        let drained: Vec<u64> = ring.drain().iter().map(|b| b.addr).collect();
                        let expect: Vec<u64> = oracle.drain(..).collect();
                        assert_eq!(drained, expect);
                    }
                }
            }
            assert_eq!(ring.dropped, oracle_dropped);
            let drained: Vec<u64> = ring.drain().iter().map(|b| b.addr).collect();
            let expect: Vec<u64> = oracle.drain(..).collect();
            assert_eq!(drained, expect);
        },
    );
}

// ---------- ring buffer: total sample accounting ----------
#[test]
fn ring_buffer_accounts_for_every_push() {
    check(
        "ring_buffer_accounts_for_every_push",
        256,
        |g| {
            (
                g.range(0usize..32),
                g.vec(1..300, |g| g.option(|g| g.range(0u64..1_000))),
            )
        },
        |(capacity, ops)| {
            // Capacity 0 (a misconfigured --buffer-size) clamps to one slot
            // instead of panicking, and across arbitrary push/drain
            // interleavings every sample ever offered is accounted for:
            // attempts == accepted + dropped, accepted == drained + buffered.
            let mut ring = RingBuffer::new(capacity);
            assert_eq!(ring.capacity(), capacity.max(1));
            let sample = |addr: u64| SampleBucket {
                origin: SampleOrigin::Unknown,
                event: HwEvent::Cycles,
                addr,
                epoch: 0,
            };
            let mut attempts = 0u64;
            let mut drained_total = 0u64;
            for op in ops {
                match op {
                    Some(addr) => {
                        attempts += 1;
                        ring.push(sample(addr));
                    }
                    None => drained_total += ring.drain().len() as u64,
                }
                assert_eq!(attempts, ring.pushed + ring.dropped);
                assert_eq!(ring.pushed, drained_total + ring.len() as u64);
            }
        },
    );
}

// ---------- symbol table vs. linear oracle ----------
#[test]
fn symbol_resolution_matches_linear_oracle() {
    check(
        "symbol_resolution_matches_linear_oracle",
        256,
        |g| {
            (
                g.vec(1..60, |g| (g.range(1u64..100), g.range(0u64..50))),
                (0..40).map(|_| g.range(0u64..8_000)).collect::<Vec<_>>(),
            )
        },
        |(sizes, probes)| {
            // Build non-overlapping symbols with random gaps.
            let mut img = Image::new("test.so", 1 << 20);
            let mut offset = 0u64;
            let mut table: Vec<(u64, u64, String)> = Vec::new();
            for (i, (size, gap)) in sizes.iter().enumerate() {
                offset += gap;
                let name = format!("sym{i}");
                img.add_symbol(Symbol::new(name.clone(), offset, *size));
                table.push((offset, offset + size, name));
                offset += size;
            }
            for p in probes {
                let oracle = table
                    .iter()
                    .find(|(s, e, _)| p >= *s && p < *e)
                    .map(|(_, _, n)| n.clone());
                let got = img.resolve(p).map(|s| s.name.clone());
                assert_eq!(got, oracle);
            }
        },
    );
}

// ---------- cache: bounded capacity + LRU sanity ----------
#[test]
fn cache_hits_iff_within_associativity_window() {
    check(
        "cache_hits_iff_within_associativity_window",
        256,
        |g| g.vec(1..200, |g| g.range(0u64..16u64)),
        |accesses| {
            // Single-set cache (1 set × 4 ways): LRU over line indices —
            // compare against a brute-force LRU list.
            let mut cache = Cache::new(CacheConfig::new(4 * 64, 64, 4));
            let mut lru: Vec<u64> = Vec::new();
            for line in accesses {
                let addr = line * 64; // all map to set 0 only if sets==1
                let hit = cache.access(addr);
                let oracle_hit = lru.contains(&line);
                assert_eq!(hit, oracle_hit, "line {}", line);
                lru.retain(|l| *l != line);
                lru.push(line);
                if lru.len() > 4 {
                    lru.remove(0);
                }
            }
        },
    );
}

// ---------- registration table ----------
#[test]
fn registry_classification_matches_ranges() {
    check(
        "registry_classification_matches_ranges",
        256,
        |g| {
            (
                g.vec(0..8, |g| {
                    (g.range(1u32..20), g.range(0u64..1_000), g.range(1u64..500))
                }),
                (0..30)
                    .map(|_| (g.range(1u32..20), g.range(0u64..2_000)))
                    .collect::<Vec<_>>(),
            )
        },
        |(vms, probes)| {
            use viprof_repro::viprof::registry::JitRegistry;
            let mut reg = JitRegistry::new();
            let mut oracle: Vec<(u32, u64, u64)> = Vec::new();
            for (pid, start, len) in vms {
                // Same generation throughout: re-registration is a heap
                // resize (`Resumed`), never a conflict.
                reg.register(Pid(pid), 0, (start, start + len)).unwrap();
                oracle.retain(|(p, _, _)| *p != pid);
                oracle.push((pid, start, start + len));
            }
            for (pid, pc) in probes {
                let expect = oracle
                    .iter()
                    .any(|(p, s, e)| *p == pid && pc >= *s && pc < *e);
                assert_eq!(reg.classify(Pid(pid), pc).is_some(), expect);
            }
        },
    );
}

// ---------- sample DB serialization fuzz ----------

#[test]
fn sample_db_serialization_round_trips() {
    check(
        "sample_db_serialization_round_trips",
        256,
        |g| {
            (
                g.vec(0..150, |g| {
                    (
                        g.range(0u8..4),
                        g.range(0u32..9),
                        g.range(0u64..1u64 << 40),
                        g.range(0u64..64),
                        g.range(1u64..1_000),
                    )
                }),
                g.range(0u64..1_000),
            )
        },
        |(entries, dropped)| {
            use viprof_repro::oprofile::SampleDb;
            let mut db = SampleDb::new();
            for (tag, id, addr, epoch, count) in entries {
                let origin = match tag {
                    0 => SampleOrigin::Image(ImageId(id)),
                    1 => SampleOrigin::Anon {
                        pid: Pid(id),
                        start: addr & !0xfff,
                        end: (addr & !0xfff) + 0x1000,
                    },
                    2 => SampleOrigin::JitApp {
                        pid: Pid(id),
                        gen: id % 3,
                    },
                    _ => SampleOrigin::Unknown,
                };
                db.add(
                    SampleBucket {
                        origin,
                        event: HwEvent::Cycles,
                        addr,
                        epoch,
                    },
                    count,
                );
            }
            db.dropped = dropped;
            let back = SampleDb::from_bytes(&db.to_bytes()).unwrap();
            assert_eq!(back, db);
        },
    );
}

#[test]
fn sample_db_rejects_arbitrary_bytes() {
    check(
        "sample_db_rejects_arbitrary_bytes",
        256,
        |g| g.vec(0..200, |g| g.u64() as u8),
        |garbage| {
            use viprof_repro::oprofile::SampleDb;
            // Must never panic: either Ok (legit header by chance — only if
            // it starts with the magic) or Err.
            let _ = SampleDb::from_bytes(&garbage);
        },
    );
}
