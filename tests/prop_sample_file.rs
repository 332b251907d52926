//! Differential test of the sample-file readers over damaged bytes.
//!
//! `SampleDb::from_bytes` is the reference. The header reader
//! `header_from_bytes` (lineage) must accept exactly the files it
//! accepts and report the same header words. Journal recovery's reader
//! decodes with `from_bytes` and merges into a `SampleAccumulator`; it
//! must build the database `SampleDb::merge` builds, and a rejected
//! file must leave the merge target as it was. Inputs are real drained
//! batch bodies, in all three format versions, damaged by the seeded
//! mutator in `support`. They come from one journaled, supervised
//! session with ring overflow, so the `dropped` header words carry
//! data. No writer sets the `evicted` word any more, but files from
//! sessions that ran under an admission cap carry one, so a fixed
//! subset of the v2/v3 bodies has a seeded nonzero `evicted` word
//! stamped in. Mutated bodies, merge targets and reorderings are drawn
//! only from bodies that carry records, so every merge meets existing
//! buckets; bodies with header words and no records are read by the
//! header and pristine-decode checks.
//!
//! The same bodies, with their records shuffled and repeated, check the
//! linear decoder's fallback against a sort-and-sum written here, and
//! the session checks that its journal replays to its database.

mod support;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use support::{check, Gen};
use viprof_repro::oprofile::{
    OpConfig, SampleAccumulator, SampleBucket, SampleDb, SampleOrigin, SAMPLE_JOURNAL_PATH,
};
use viprof_repro::sim_cpu::{HwEvent, Pid};
use viprof_repro::sim_os::journal::scan;
use viprof_repro::sim_os::{ImageId, SplitMix64};
use viprof_repro::viprof::{recover_sample_db, FaultPlan};
use viprof_repro::workloads::{calibrate, find_benchmark, programs, run_benchmark, ProfilerKind};

/// Rewrite a v3 body as `version` (1, 2 or 3). v2 shares v3's layout;
/// v1 has no `evicted` header word.
fn as_version(v3: &[u8], version: u32) -> Vec<u8> {
    let mut out = v3[..4].to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&v3[8..16]);
    if version >= 2 {
        out.extend_from_slice(&v3[16..24]);
    }
    out.extend_from_slice(&v3[24..]);
    out
}

/// What the supervised, journaled session left behind.
struct Session {
    /// Every batch body the session journaled, each in v1, v2 and v3
    /// form; every third batch carries a stamped `evicted` word.
    all_bodies: Vec<Vec<u8>>,
    /// The entries of `all_bodies` that carry at least one record, in
    /// the same order.
    bodies: Vec<Vec<u8>>,
    /// The database the session stopped with.
    db: SampleDb,
    /// The database the session's journal replays to.
    recovered: SampleDb,
}

fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(|| {
        let mut params = find_benchmark("fop").expect("benchmark exists");
        params.support_methods = params.support_methods.min(120);
        params.heap_mb = 2;
        let built = programs::build(&params);
        let plan = calibrate(&built, 0.02);
        let config = OpConfig {
            daemon_period_cycles: 300_000,
            buffer_capacity: 64,
            ..OpConfig::time_at(20_000)
        };
        let faults = FaultPlan::new(5).with_overflow_bursts(0.1, 3);
        let kind = ProfilerKind::ViprofSupervised(config, faults);
        let out = run_benchmark(&built, &plan, kind, 5, false);
        let vfs = &out.machine.kernel.vfs;
        let journal = scan(vfs, SAMPLE_JOURNAL_PATH).expect("journaling on");
        let mut evicted = SplitMix64::new(48);
        let mut bodies = Vec::new();
        for (i, rec) in journal.records.iter().enumerate() {
            let Some(batch) = rec.sample_batch() else { continue };
            let (_, body) = batch.expect("traced header intact");
            let mut body = body.to_vec();
            if i % 3 == 1 {
                let word = 1 + evicted.next_u64() % 1_000;
                body[16..24].copy_from_slice(&word.to_le_bytes());
            }
            for version in 1..=3 {
                bodies.push(as_version(&body, version));
            }
        }
        let batches = bodies.len() / 3;
        assert!(batches >= 8, "too few journaled batches: {batches}");
        let db = out.db.expect("profiled run");
        let recovered = recover_sample_db(vfs).expect("journaling on").db;
        let with_records: Vec<Vec<u8>> = bodies
            .chunks_exact(3)
            .filter(|triple| !SampleDb::from_bytes(&triple[2]).expect("pristine").is_empty())
            .flatten()
            .cloned()
            .collect();
        Session {
            all_bodies: bodies,
            bodies: with_records,
            db,
            recovered,
        }
    })
}

/// Batch bodies journaled by the supervised session, each in v1, v2
/// and v3 form.
fn all_bodies() -> &'static [Vec<u8>] {
    &session().all_bodies
}

/// The bodies of [`all_bodies`] that carry records.
fn bodies() -> &'static [Vec<u8>] {
    &session().bodies
}

/// Buckets and header words compare through `PartialEq`; the per-event
/// totals `add` keeps beside them must agree as well.
fn assert_same_db(got: &SampleDb, want: &SampleDb, what: &str) {
    assert_eq!(got, want, "{what}");
    for e in HwEvent::ALL {
        assert_eq!(got.total(e), want.total(e), "{what}: {e:?} total");
    }
}

/// Journal recovery's reader: `data` decoded and merged into an
/// accumulator that holds `target`, or skipped if it is rejected.
fn recovered_merge(data: &[u8], target: &SampleDb) -> SampleDb {
    let mut acc = SampleAccumulator::default();
    acc.merge(target);
    if let Ok(batch) = SampleDb::from_bytes(data) {
        acc.merge(&batch);
    }
    acc.into_db()
}

/// The readers agree on `data`, merging into `target`. Returns whether
/// the file was accepted.
fn assert_readers_agree(data: &[u8], target: &SampleDb) -> bool {
    let reference = SampleDb::from_bytes(data);
    let header = SampleDb::header_from_bytes(data);
    let merged = recovered_merge(data, target);
    match &reference {
        Ok(db) => {
            assert_eq!(header, Ok((db.dropped, db.evicted)), "header reader");
            let mut want = target.clone();
            want.merge(db);
            assert_same_db(&merged, &want, "merge reader");
        }
        Err(e) => {
            assert_eq!(header.as_ref(), Err(e), "header reader");
            assert_same_db(&merged, target, "a rejected merge must not touch the target");
        }
    }
    reference.is_ok()
}

#[test]
fn real_bodies_have_nonzero_header_words() {
    // The session is configured so the `dropped` words carry data, and
    // the corpus stamps `evicted` words: a differential test over
    // all-zero headers would prove little.
    let headers: Vec<(u64, u64)> = all_bodies()
        .iter()
        .map(|b| SampleDb::header_from_bytes(b).expect("pristine bodies decode"))
        .collect();
    assert!(headers.iter().any(|h| h.0 > 0), "no batch recorded drops");
    assert!(headers.iter().any(|h| h.1 > 0), "no batch recorded evictions");
}

#[test]
fn pristine_bodies_decode_identically_in_every_version() {
    let bodies = all_bodies();
    for triple in bodies.chunks_exact(3) {
        let v3 = SampleDb::from_bytes(&triple[2]).unwrap();
        let v2 = SampleDb::from_bytes(&triple[1]).unwrap();
        let v1 = SampleDb::from_bytes(&triple[0]).unwrap();
        assert_same_db(&v2, &v3, "v2 vs v3");
        assert_eq!(v1.evicted, 0, "v1 has no eviction word");
        assert_eq!((v1.dropped, v1.len()), (v3.dropped, v3.len()));
        for body in triple {
            assert!(assert_readers_agree(body, &SampleDb::new()));
        }
    }
}

#[test]
fn readers_agree_on_mutated_bodies() {
    let n = bodies().len();
    let accepted = AtomicU32::new(0);
    check(
        "readers_agree_on_mutated_bodies",
        1024,
        |g: &mut Gen| {
            let body = g.range(0..n);
            let target = g.range(0..n);
            (body, target, g.mutate(&bodies()[body]))
        },
        |(_, target, data)| {
            // A non-empty target, so merges meet existing buckets.
            let target = SampleDb::from_bytes(&bodies()[target]).unwrap();
            assert!(!target.is_empty(), "the target holds buckets");
            if assert_readers_agree(&data, &target) {
                accepted.fetch_add(1, Ordering::Relaxed);
            }
        },
    );
    // Both outcomes must be well represented for the comparison to
    // mean anything.
    let accepted = accepted.into_inner();
    assert!((100..924).contains(&accepted), "{accepted} of 1024 mutated files accepted");
}

#[test]
fn every_rejection_path_is_shared() {
    let v3 = bodies()[2].clone();
    let target = SampleDb::from_bytes(&bodies()[5]).unwrap();
    assert!(!target.is_empty(), "the target holds buckets");
    assert!(v3.len() > 32, "the body holds a record to damage");
    let first_record = 32;
    let with = |at: usize, bytes: &[u8]| {
        let mut b = v3.clone();
        b[at..at + bytes.len()].copy_from_slice(bytes);
        b
    };
    let cases: Vec<(&str, Vec<u8>, String)> = vec![
        ("bad magic", with(0, b"OPDX"), "bad magic".into()),
        ("short file", v3[..23].to_vec(), "bad magic".into()),
        ("version 0", with(4, &0u32.to_le_bytes()), "unsupported version 0".into()),
        ("version 4", with(4, &4u32.to_le_bytes()), "unsupported version 4".into()),
        ("truncated v2 header", v3[..28].to_vec(), "truncated v2 header".into()),
        (
            "truncated record",
            v3[..v3.len() - 1].to_vec(),
            "truncated sample record".into(),
        ),
        ("origin tag 4", with(first_record, &[4]), "bad origin tag 4".into()),
        (
            "bad event code",
            with(first_record + 25, &[HwEvent::ALL.len() as u8]),
            format!("bad event code {}", HwEvent::ALL.len()),
        ),
    ];
    for (what, data, want) in cases {
        assert_eq!(SampleDb::from_bytes(&data).err(), Some(want.clone()), "{what}");
        assert_eq!(SampleDb::header_from_bytes(&data), Err(want.clone()), "{what}");
        assert_same_db(&recovered_merge(&data, &target), &target, what);
    }
}

#[test]
fn journal_replays_to_the_database() {
    let s = session();
    assert_same_db(&s.recovered, &s.db, "journal replay");
}

/// Header and record sizes of the v3 layout.
const HEADER_LEN: usize = 32;
const RECORD_LEN: usize = 50;

/// One record decoded by the format's layout, without the crate's
/// reader: tag, a, pad, x, y, event, addr, epoch, count.
fn decode(record: &[u8]) -> (SampleBucket, u64) {
    let word = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().unwrap());
    let long = |at: usize| u64::from_le_bytes(record[at..at + 8].try_into().unwrap());
    let origin = match record[0] {
        0 => SampleOrigin::Image(ImageId(word(1))),
        1 => SampleOrigin::Anon {
            pid: Pid(word(1)),
            start: long(9),
            end: long(17),
        },
        2 => SampleOrigin::JitApp {
            pid: Pid(word(1)),
            gen: word(5),
        },
        _ => SampleOrigin::Unknown,
    };
    let bucket = SampleBucket {
        origin,
        event: HwEvent::ALL[record[25] as usize],
        addr: long(26),
        epoch: long(34),
    };
    (bucket.quantize(), long(42))
}

/// The records of a v3 file.
fn records_of(v3: &[u8]) -> Vec<&[u8]> {
    v3[HEADER_LEN..].chunks_exact(RECORD_LEN).collect()
}

/// The reference reading: every record's count summed per bucket, in
/// bucket order.
fn sort_and_sum(records: &[&[u8]]) -> Vec<(SampleBucket, u64)> {
    let mut sums: BTreeMap<SampleBucket, u64> = BTreeMap::new();
    for record in records {
        let (bucket, count) = decode(record);
        let sum = sums.entry(bucket).or_insert(0);
        *sum = sum.saturating_add(count);
    }
    sums.into_iter().collect()
}

/// A v3 body with `order`'s records of `v3` (indices, repeats allowed)
/// and `v3`'s header words.
fn reordered(v3: &[u8], order: &[usize]) -> Vec<u8> {
    let records = records_of(v3);
    let mut out = v3[..24].to_vec();
    out.extend_from_slice(&(order.len() as u64).to_le_bytes());
    for &i in order {
        out.extend_from_slice(records[i]);
    }
    out
}

/// A v3 body index, and an order of its records: shuffled or kept, with
/// some records repeated at random places.
fn draw_reordering(g: &mut Gen) -> (usize, Vec<usize>) {
    let body = 3 * g.range(0..bodies().len() / 3) + 2;
    let n = records_of(&bodies()[body]).len();
    let mut order: Vec<usize> = (0..n).collect();
    if g.bool() {
        for i in (1..n).rev() {
            order.swap(i, g.range(0..i + 1));
        }
    }
    for _ in 0..g.range(0usize..n / 2 + 2) {
        if n == 0 {
            break;
        }
        let copy = order[g.range(0..order.len())];
        let at = g.range(0..order.len() + 1);
        order.insert(at, copy);
    }
    (body, order)
}

#[test]
fn shuffled_and_repeated_records_decode_as_sort_and_sum() {
    check(
        "shuffled_and_repeated_records_decode_as_sort_and_sum",
        256,
        draw_reordering,
        |(body, order)| {
            let data = reordered(&bodies()[body], &order);
            let records = records_of(&data);
            let want = sort_and_sum(&records);
            let db = SampleDb::from_bytes(&data).expect("reordered records stay valid");
            let got: Vec<(SampleBucket, u64)> = db.iter().map(|(b, c)| (*b, *c)).collect();
            assert_eq!(got, want);
            assert_eq!(
                SampleDb::header_from_bytes(&data),
                Ok((db.dropped, db.evicted))
            );
            for e in HwEvent::ALL {
                let total = want
                    .iter()
                    .filter(|(b, _)| b.event == e)
                    .fold(0u64, |sum, (_, c)| sum.saturating_add(*c));
                assert_eq!(db.total(e), total, "{e:?} total");
            }
            // Written back, the file is canonical: sorted, no bucket
            // twice, and it reads as the same database.
            let bytes = db.to_bytes();
            let written = records_of(&bytes);
            assert_eq!(written.len(), want.len());
            let buckets: Vec<SampleBucket> = written.iter().map(|r| decode(r).0).collect();
            assert!(buckets.windows(2).all(|w| w[0] < w[1]), "sorted with no repeat");
            assert_eq!(sort_and_sum(&written), want);
            assert_same_db(&SampleDb::from_bytes(&bytes).unwrap(), &db, "round trip");
        },
    );
}
