//! Property tests of the crash-consistency layer: the map journal's
//! commit protocol and the recovery replay built on it.
//!
//! Random epoch-map histories are journaled, the journal is cut at an
//! *arbitrary byte* (the crash), and the replay must rebuild exactly
//! the committed prefix — the same `CodeMapSet` an uninterrupted run
//! would hold, truncated at the same commit point. A second property
//! checks that reopening the cut journal truncates the torn tail and
//! resumes the sequence, whatever byte the crash landed on.

mod support;

use support::{check, Gen};
use viprof_repro::sim_cpu::Pid;
use viprof_repro::sim_os::journal::{scan_bytes, KIND_CODE_MAP};
use viprof_repro::sim_os::{JournalWriter, Vfs};
use viprof_repro::viprof::codemap::{
    journal_path, parse_map, render_map, CodeMapEntry, CodeMapSet, EpochMap, Symbols,
};
use viprof_repro::viprof::recover_codemaps;

const PID: Pid = Pid(77);

/// Up to 7 epochs, each a handful of (addr, size) code bodies.
fn arb_epochs(g: &mut Gen) -> Vec<Vec<(u64, u64)>> {
    g.vec(1..8, |g| {
        g.vec(0..8, |g| (g.range(0u64..1 << 40), g.range(1u64..0x1000)))
    })
}

fn entries_of(bodies: &[(u64, u64)]) -> Vec<CodeMapEntry> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, (addr, size))| CodeMapEntry {
            addr: *addr,
            size: *size,
            level: "opt0".to_string(),
            signature: format!("test.M{i}.run"),
        })
        .collect()
}

/// Journal one pristine map per epoch; return the raw journal bytes and
/// the per-epoch entry lists as the parser will see them.
fn build_journal(epochs: &[Vec<(u64, u64)>]) -> (Vec<u8>, Vec<Vec<CodeMapEntry>>) {
    let mut vfs = Vfs::new();
    let path = journal_path(PID);
    let mut w = JournalWriter::create(&mut vfs, path.clone());
    let mut expected = Vec::new();
    for (epoch, bodies) in epochs.iter().enumerate() {
        let rendered = render_map(&entries_of(bodies));
        let mut payload = (epoch as u64).to_le_bytes().to_vec();
        payload.extend_from_slice(rendered.as_bytes());
        w.append(&mut vfs, KIND_CODE_MAP, &payload);
        let mut symbols = Symbols::default();
        let parsed = parse_map(&rendered, &mut symbols);
        expected.push(parsed.entries.iter().map(|e| symbols.text(e)).collect());
    }
    (vfs.read(&path).unwrap().to_vec(), expected)
}

/// A loaded map's entries in the agent's writer form.
fn text_of(set: &CodeMapSet, map: &EpochMap) -> Vec<CodeMapEntry> {
    map.entries().iter().map(|e| set.symbols().text(e)).collect()
}

#[test]
fn crash_at_any_byte_recovers_exactly_the_committed_prefix() {
    check(
        "crash_at_any_byte_recovers_exactly_the_committed_prefix",
        96,
        |g| (arb_epochs(g), g.range(0.0f64..=1.0)),
        |(epochs, cut_frac)| {
            let (full, expected) = build_journal(&epochs);
            let cut = ((cut_frac * full.len() as f64) as usize).min(full.len());
            let s = scan_bytes(&full[..cut]);
            let k = s.records.len();

            let mut vfs = Vfs::new();
            vfs.write(journal_path(PID), full[..cut].to_vec());
            let (set, rec) = recover_codemaps(&vfs, PID).expect("journal file exists");
            assert_eq!(rec.records_replayed, k as u64);
            assert_eq!(
                rec.epochs_recovered, k as u64,
                "no disk maps: every replay improves"
            );
            assert_eq!(rec.truncated_bytes as usize, cut - s.valid_len);
            assert_eq!(set.maps().len(), k);
            for (i, m) in set.maps().iter().enumerate() {
                assert_eq!(m.epoch, i as u64);
                let mut want = expected[i].clone();
                want.sort_by_key(|e| e.addr);
                assert_eq!(text_of(&set, m), want, "epoch {i} diverged");
            }

            // Prefix-consistency against the uninterrupted run: the cut
            // recovery is the full recovery truncated at the same commit.
            let mut vfs_full = Vfs::new();
            vfs_full.write(journal_path(PID), full.clone());
            let (full_set, full_rec) = recover_codemaps(&vfs_full, PID).unwrap();
            assert_eq!(full_rec.truncated_bytes, 0);
            assert_eq!(full_set.maps().len(), epochs.len());
            for (a, b) in set.maps().iter().zip(full_set.maps()) {
                assert_eq!(a.epoch, b.epoch);
                assert_eq!(text_of(&set, a), text_of(&full_set, b));
            }
        },
    );
}

#[test]
fn reopen_after_crash_truncates_and_resumes_the_sequence() {
    check(
        "reopen_after_crash_truncates_and_resumes_the_sequence",
        96,
        |g| (arb_epochs(g), g.range(0.0f64..=1.0)),
        |(epochs, cut_frac)| {
            let (full, _) = build_journal(&epochs);
            let cut = ((cut_frac * full.len() as f64) as usize).min(full.len());
            let k = scan_bytes(&full[..cut]).records.len();

            let mut vfs = Vfs::new();
            let path = journal_path(PID);
            vfs.write(path.clone(), full[..cut].to_vec());
            let mut w = JournalWriter::open(&mut vfs, path.clone());
            let mut payload = 99u64.to_le_bytes().to_vec();
            payload.extend_from_slice(render_map(&entries_of(&[(0x9000, 0x40)])).as_bytes());
            let seq = w.append(&mut vfs, KIND_CODE_MAP, &payload);
            assert_eq!(seq, k as u64, "sequence resumes after the last commit");

            let after = scan_bytes(vfs.read(&path).unwrap());
            assert_eq!(after.records.len(), k + 1);
            assert_eq!(after.damaged_bytes, 0, "reopen left no torn tail");
            let (set, rec) = recover_codemaps(&vfs, PID).unwrap();
            assert_eq!(rec.records_replayed, (k + 1) as u64);
            assert!(
                set.maps().iter().any(|m| m.epoch == 99),
                "resumed epoch replayed"
            );
        },
    );
}
