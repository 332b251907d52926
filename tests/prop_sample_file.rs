//! Differential test of the sample-file readers over damaged bytes.
//!
//! `SampleDb::from_bytes` is the reference. The two batch readers built
//! on its checking pass — `header_from_bytes` (lineage) and
//! `merge_from_bytes` (journal recovery) — must accept exactly the
//! files it accepts, report the same header words, and merge to the
//! same database; a rejected file must leave the merge target as it
//! was. Inputs are real drained batch bodies from a journaled session
//! with overflow and an admission cap, in all three format versions,
//! damaged by the seeded mutator in `support`.

mod support;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use support::{check, Gen};
use viprof_repro::oprofile::{OpConfig, SampleDb, SAMPLE_JOURNAL_PATH};
use viprof_repro::sim_cpu::HwEvent;
use viprof_repro::sim_os::journal::scan;
use viprof_repro::viprof::FaultPlan;
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

/// Batch bodies journaled by a supervised session, each in v1, v2 and
/// v3 form.
fn bodies() -> &'static [Vec<u8>] {
    static BODIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let mut params = find_benchmark("fop").expect("benchmark exists");
        params.support_methods = params.support_methods.min(120);
        params.heap_mb = 2;
        let built = programs::build(&params);
        let plan = calibrate(&built, 0.02);
        let config = OpConfig {
            daemon_period_cycles: 300_000,
            buffer_capacity: 64,
            db_bucket_cap: Some(48),
            ..OpConfig::time_at(20_000)
        };
        let faults = FaultPlan::new(5).with_overflow_bursts(0.1, 3);
        let kind = ProfilerKind::ViprofSupervised(config, faults);
        let out = run_benchmark(&built, &plan, kind, 5, false);
        let journal = scan(&out.machine.kernel.vfs, SAMPLE_JOURNAL_PATH).expect("journaling on");
        let mut bodies = Vec::new();
        for rec in &journal.records {
            let Some(batch) = rec.sample_batch() else { continue };
            let (_, body) = batch.expect("traced header intact");
            for version in 1..=3 {
                bodies.push(as_version(body, version));
            }
        }
        assert!(bodies.len() >= 3 * 8, "too few journaled batches: {}", bodies.len() / 3);
        bodies
    })
}

/// Buckets and header words compare through `PartialEq`; the per-event
/// totals `add` keeps beside them must agree as well.
fn assert_same_db(got: &SampleDb, want: &SampleDb, what: &str) {
    assert_eq!(got, want, "{what}");
    for e in HwEvent::ALL {
        assert_eq!(got.total(e), want.total(e), "{what}: {e:?} total");
    }
}

/// The three readers agree on `data`, merging into `target`. Returns
/// whether the file was accepted.
fn assert_readers_agree(data: &[u8], target: &SampleDb) -> bool {
    let reference = SampleDb::from_bytes(data);
    let header = SampleDb::header_from_bytes(data);
    let mut merged = target.clone();
    let merge = merged.merge_from_bytes(data);
    match &reference {
        Ok(db) => {
            assert_eq!(header, Ok((db.dropped, db.evicted)), "header reader");
            assert_eq!(merge, Ok(()), "merge reader");
            let mut want = target.clone();
            want.merge(db);
            assert_same_db(&merged, &want, "merge reader");
        }
        Err(e) => {
            assert_eq!(header.as_ref(), Err(e), "header reader");
            assert_eq!(merge.as_ref(), Err(e), "merge reader");
            assert_same_db(&merged, target, "a rejected merge must not touch the target");
        }
    }
    reference.is_ok()
}

#[test]
fn real_bodies_have_nonzero_header_words() {
    // The session is configured so the header words carry data: a
    // differential test over all-zero headers would prove little.
    let headers: Vec<(u64, u64)> = bodies()
        .iter()
        .map(|b| SampleDb::header_from_bytes(b).expect("pristine bodies decode"))
        .collect();
    assert!(headers.iter().any(|h| h.0 > 0), "no batch recorded drops");
    assert!(headers.iter().any(|h| h.1 > 0), "no batch recorded evictions");
}

#[test]
fn pristine_bodies_decode_identically_in_every_version() {
    let bodies = bodies();
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
        let mut merged = target.clone();
        assert_eq!(merged.merge_from_bytes(&data), Err(want), "{what}");
        assert_same_db(&merged, &target, what);
    }
}
