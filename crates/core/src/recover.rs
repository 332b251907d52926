//! Recovery replay: rebuild consistent profiling state from the
//! write-ahead journals.
//!
//! PR-1-era degradation is *accounting*: a torn map loses entries, a
//! garbled line is quarantined, a crashed daemon's samples are gone, and
//! [`crate::resolve::ResolutionQuality`] counts the damage. The
//! journals added alongside ([`sim_os::journal`]) make a stronger move
//! possible: every committed journal record carries the *pristine*
//! payload (the agent journals the rendered map before faults touch the
//! map file; the daemon journals each drained batch), so a recovery
//! pass can replay the journal over the damaged on-disk state and get
//! back exactly what a clean run would have produced — up to the last
//! commit point.
//!
//! Two replay paths:
//!
//! * [`recover_codemaps`] — per pid: scan the agent's journal, parse
//!   each committed `KIND_CODE_MAP` record, and overlay the pristine
//!   epoch map over whatever the map files say. Epochs whose record
//!   never committed (lost write → nothing journaled; rotted record →
//!   journal truncated there) keep their on-disk state, so recovery is
//!   monotone: it never resolves fewer samples than the degraded
//!   baseline.
//! * [`recover_sample_db`] — scan the daemon's sample-batch journal and
//!   merge every committed `KIND_SAMPLE_BATCH` back into one
//!   [`SampleDb`] — a rebuild path for sessions whose final database
//!   never hit the VFS (daemon down at `stop`).
//!
//! Both report what they did through [`RecoveryReport`], which rides
//! alongside `ResolutionQuality` so "how much was saved" is as
//! measurable as "how much was lost".

use crate::codemap::{
    journal_path, map_prefix, parse_map, path_epoch, read_map_file, CodeMapSet, EpochMap, Symbols,
};
use oprofile::{SampleDb, SAMPLE_JOURNAL_PATH};
use sim_cpu::ProcKey;
use sim_os::journal::{self, KIND_CODE_MAP};
use sim_os::Vfs;
use std::collections::BTreeMap;

/// What one recovery pass accomplished, aggregated across every journal
/// it touched. Deterministic per fault seed: two replays of the same
/// session produce identical reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journals found and scanned (per-pid map journals + the sample
    /// journal when present).
    pub journals_scanned: u64,
    /// Committed records replayed across all journals.
    pub records_replayed: u64,
    /// Journals whose tail was damaged and cut at the last commit.
    pub truncated_journals: u64,
    /// Total bytes discarded past the last valid commit.
    pub truncated_bytes: u64,
    /// Epochs whose map was improved by replay (absent, unreadable,
    /// quarantined or torn on disk; pristine in the journal).
    pub epochs_recovered: u64,
    /// Sample batches merged while rebuilding a database.
    pub sample_batches_replayed: u64,
    /// Committed batch records whose payload no longer decoded.
    pub bad_sample_batches: u64,
    /// Whether the sample database itself was rebuilt from the journal
    /// (as opposed to recovery only repairing code maps).
    pub db_rebuilt: bool,
    /// Samples the recovered resolution attributes that the degraded
    /// baseline could not (filled in by the caller comparing quality
    /// reports; see `Viprof::make_report` with [`recover`] set).
    ///
    /// [`recover`]: crate::session::ReportSpec::recover
    pub samples_salvaged: u64,
}

impl RecoveryReport {
    /// Fold one pid's map recovery into the aggregate.
    pub fn absorb(&mut self, pid: &PidRecovery) {
        self.journals_scanned += 1;
        self.records_replayed += pid.records_replayed;
        self.truncated_bytes += pid.truncated_bytes;
        if pid.truncated_bytes > 0 {
            self.truncated_journals += 1;
        }
        self.epochs_recovered += pid.epochs_recovered;
    }
}

/// Per-pid accounting from [`recover_codemaps`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PidRecovery {
    pub records_replayed: u64,
    pub truncated_bytes: u64,
    pub epochs_recovered: u64,
}

/// Rebuild one incarnation's epoch code maps by replaying its map
/// journal over the on-disk map files. `None` when the incarnation
/// never journaled (plain [`CodeMapSet::load`] is all there is). A
/// bare `Pid` coerces to generation 0.
///
/// For every epoch the outcome is the better of the two sources:
/// a committed journal record carries the pristine render and wins;
/// epochs with no committed record fall back to whatever the map file
/// parse salvages — so per epoch the recovered entry set is a superset
/// of the degraded one, and resolution is monotonically no worse.
pub fn recover_codemaps(vfs: &Vfs, key: impl Into<ProcKey>) -> Option<(CodeMapSet, PidRecovery)> {
    let key = key.into();
    let scan = journal::scan(vfs, &journal_path(key))?;
    let mut rec = PidRecovery {
        truncated_bytes: scan.damaged_bytes as u64,
        ..PidRecovery::default()
    };
    // On-disk state first, read by the degraded loader's per-file
    // rules, into the one table the journal's maps are parsed into
    // too. Per epoch, every file naming it in listing order:
    // `Some((map, quarantined lines))` for a usable file, `None` for an
    // unusable one (a journal record for that epoch replaces them all).
    // Files naming no epoch stay skipped.
    let prefix = map_prefix(key);
    let mut symbols = Symbols::default();
    let mut epochs: BTreeMap<u64, Vec<Option<(EpochMap, u64)>>> = BTreeMap::new();
    let mut skipped_unnameable = 0u64;
    for path in vfs.list(&prefix) {
        let (mut quarantined, mut skipped) = (0, 0);
        let map = read_map_file(vfs, &prefix, path, &mut symbols, &mut quarantined, &mut skipped);
        match path_epoch(&prefix, path) {
            Some(epoch) => epochs
                .entry(epoch)
                .or_default()
                .push(map.map(|m| (m, quarantined))),
            None => skipped_unnameable += skipped,
        }
    }
    // Overlay the journal: each committed record is a pristine epoch
    // map (CRC-verified, so a decode failure here means a malformed
    // writer, not media damage — skip defensively rather than panic).
    for r in &scan.records {
        if r.kind != KIND_CODE_MAP || r.payload.len() < 8 {
            continue;
        }
        let epoch = u64::from_le_bytes(r.payload[..8].try_into().expect("8-byte prefix"));
        let Ok(text) = std::str::from_utf8(&r.payload[8..]) else {
            continue;
        };
        rec.records_replayed += 1;
        let parsed = parse_map(text, &mut symbols);
        let pristine = EpochMap::new(epoch, parsed.entries);
        // The disk already held the pristine map only when one clean
        // file names the epoch with the same entries. Both sides hold
        // their entries in address order (a fault only truncates or
        // garbles a file, never reorders it), and both parsed into one
        // table, so equal ids are equal text.
        let improved = !matches!(
            epochs.get(&epoch).map(Vec::as_slice),
            Some([Some((disk, 0))]) if disk.entries() == pristine.entries()
        );
        if improved {
            rec.epochs_recovered += 1;
        }
        epochs.insert(epoch, vec![Some((pristine, parsed.quarantined))]);
    }
    let mut maps = Vec::new();
    let mut quarantined = 0;
    let mut skipped = skipped_unnameable;
    for state in epochs.into_values().flatten() {
        match state {
            Some((map, lines)) => {
                quarantined += lines;
                maps.push(map);
            }
            None => skipped += 1,
        }
    }
    let mut set = CodeMapSet::from_parts(maps, symbols);
    set.quarantined_lines = quarantined;
    set.skipped_files = skipped;
    Some((set, rec))
}

/// A sample database rebuilt by journal replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredDb {
    pub db: SampleDb,
    /// Batches merged.
    pub batches: u64,
    /// Committed batch records whose payload failed to decode.
    pub bad_batches: u64,
    /// Bytes cut past the journal's last commit.
    pub truncated_bytes: u64,
}

/// Replay the daemon's sample-batch journal into a fresh [`SampleDb`].
/// `None` when the session never journaled samples.
pub fn recover_sample_db(vfs: &Vfs) -> Option<RecoveredDb> {
    let scan = journal::scan(vfs, SAMPLE_JOURNAL_PATH)?;
    let mut out = RecoveredDb {
        truncated_bytes: scan.damaged_bytes as u64,
        ..RecoveredDb::default()
    };
    for r in &scan.records {
        let body = match r.sample_batch() {
            None => continue,
            Some(Ok((_, body))) => body,
            Some(Err(_)) => {
                out.bad_batches += 1;
                continue;
            }
        };
        match out.db.merge_from_bytes(body) {
            Ok(()) => out.batches += 1,
            Err(_) => out.bad_batches += 1,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codemap::{map_path, render_map, CodeMapEntry};
    use oprofile::{SampleBucket, SampleOrigin};
    use sim_cpu::{HwEvent, Pid};
    use sim_os::journal::{KIND_SAMPLE_BATCH, KIND_SAMPLE_BATCH_TRACED};
    use sim_os::JournalWriter;

    fn entry(addr: u64, sig: &str) -> CodeMapEntry {
        CodeMapEntry {
            addr,
            size: 0x40,
            level: "base".into(),
            signature: sig.into(),
        }
    }

    fn map_payload(epoch: u64, entries: &[CodeMapEntry]) -> Vec<u8> {
        let mut p = epoch.to_le_bytes().to_vec();
        p.extend_from_slice(render_map(entries).as_bytes());
        p
    }

    #[test]
    fn no_journal_means_no_recovery_path() {
        let vfs = Vfs::new();
        assert!(recover_codemaps(&vfs, Pid(4)).is_none());
        assert!(recover_sample_db(&vfs).is_none());
    }

    #[test]
    fn journal_overlay_restores_a_torn_epoch() {
        let mut vfs = Vfs::new();
        let pid = Pid(9);
        let full = vec![entry(0x100, "app.A"), entry(0x200, "app.B")];
        // Disk: epoch 0 intact, epoch 1 torn to its first line.
        vfs.write(map_path(pid, 0), render_map(&full[..1]).into_bytes());
        let torn: String = render_map(&full).chars().take(20).collect();
        vfs.write(map_path(pid, 1), torn.into_bytes());
        // Journal: both epochs pristine.
        let mut w = JournalWriter::create(&mut vfs, journal_path(pid));
        w.append(&mut vfs, KIND_CODE_MAP, &map_payload(0, &full[..1]));
        w.append(&mut vfs, KIND_CODE_MAP, &map_payload(1, &full));
        let degraded = CodeMapSet::load(&vfs, pid).unwrap();
        assert!(degraded.resolve(0x210, 1).is_none(), "torn line lost B");
        let (set, rec) = recover_codemaps(&vfs, pid).unwrap();
        assert_eq!(set.resolve(0x210, 1).unwrap(), "app.B");
        assert_eq!(rec.records_replayed, 2);
        assert_eq!(rec.epochs_recovered, 1, "epoch 0 was already clean");
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(set.quarantined_lines, 0);
    }

    #[test]
    fn journal_restores_a_missing_epoch_entirely() {
        let mut vfs = Vfs::new();
        let pid = Pid(3);
        // Disk: nothing at all (every write lost)… but the journal has
        // epoch 0 committed (mixed-fault run: the loss hit the map file
        // write, not the journal append).
        let mut w = JournalWriter::create(&mut vfs, journal_path(pid));
        w.append(&mut vfs, KIND_CODE_MAP, &map_payload(0, &[entry(0x100, "app.X")]));
        let (set, rec) = recover_codemaps(&vfs, pid).unwrap();
        assert_eq!(set.maps().len(), 1);
        assert_eq!(set.resolve(0x110, 0).unwrap(), "app.X");
        assert_eq!(rec.epochs_recovered, 1);
    }

    #[test]
    fn rotted_journal_tail_falls_back_to_disk_state() {
        let mut vfs = Vfs::new();
        let pid = Pid(7);
        let a = [entry(0x100, "app.A")];
        let b = [entry(0x200, "app.B")];
        vfs.write(map_path(pid, 0), render_map(&a).into_bytes());
        vfs.write(map_path(pid, 1), render_map(&b).into_bytes());
        let mut w = JournalWriter::create(&mut vfs, journal_path(pid));
        // Record 0 rots on the media: the scan truncates there, so
        // record 1 (pristine) is unreachable — both epochs must come
        // from disk, and the damage must be counted.
        w.append_rotted(&mut vfs, KIND_CODE_MAP, &map_payload(0, &a), b"garbage!");
        w.append(&mut vfs, KIND_CODE_MAP, &map_payload(1, &b));
        let (set, rec) = recover_codemaps(&vfs, pid).unwrap();
        assert_eq!(rec.records_replayed, 0);
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.epochs_recovered, 0);
        assert_eq!(set.resolve(0x110, 0).unwrap(), "app.A");
        assert_eq!(set.resolve(0x210, 1).unwrap(), "app.B");
    }

    #[test]
    fn recovery_is_never_worse_than_the_degraded_load() {
        // Epoch 1 unreadable on disk, pristine in the journal; epoch 2
        // only on disk (its journal record never committed).
        let mut vfs = Vfs::new();
        let pid = Pid(5);
        vfs.write(map_path(pid, 1), vec![0xff, 0xfe, 0x80]);
        vfs.write(map_path(pid, 2), render_map(&[entry(0x300, "app.C")]).into_bytes());
        let mut w = JournalWriter::create(&mut vfs, journal_path(pid));
        w.append(&mut vfs, KIND_CODE_MAP, &map_payload(1, &[entry(0x200, "app.B")]));
        let degraded = CodeMapSet::load(&vfs, pid).unwrap();
        assert_eq!(degraded.skipped_files, 1);
        let (set, rec) = recover_codemaps(&vfs, pid).unwrap();
        assert_eq!(set.skipped_files, 0, "unreadable epoch replaced by replay");
        assert_eq!(rec.epochs_recovered, 1);
        assert!(set.total_entries() >= degraded.total_entries());
        assert_eq!(set.resolve(0x210, 1).unwrap(), "app.B");
        assert_eq!(set.resolve(0x310, 2).unwrap(), "app.C");
    }

    #[test]
    fn two_files_naming_one_epoch_are_both_kept() {
        // `map.0000000001` and `map.1` both name epoch 1, and the
        // journal holds epoch 0 only: like the degraded loader, recovery
        // keeps both files, in listing order, and skips neither.
        let mut vfs = Vfs::new();
        let pid = Pid(8);
        let a = [entry(0x100, "app.A")];
        vfs.write(map_path(pid, 0), render_map(&a).into_bytes());
        vfs.write(map_path(pid, 1), render_map(&[entry(0x200, "app.B")]).into_bytes());
        vfs.write(
            format!("{}1", map_prefix(pid.into())),
            render_map(&[entry(0x300, "app.C")]).into_bytes(),
        );
        let mut w = JournalWriter::create(&mut vfs, journal_path(pid));
        w.append(&mut vfs, KIND_CODE_MAP, &map_payload(0, &a));
        let degraded = CodeMapSet::load(&vfs, pid).unwrap();
        assert_eq!(degraded.resolve(0x210, 1), Some("app.B"));
        let (set, rec) = recover_codemaps(&vfs, pid).unwrap();
        assert_eq!(set.resolve(0x210, 1), Some("app.B"));
        assert_eq!(set.resolve(0x310, 1), Some("app.C"));
        assert_eq!(set.maps().len(), degraded.maps().len());
        assert_eq!(
            (set.quarantined_lines, set.skipped_files),
            (degraded.quarantined_lines, degraded.skipped_files)
        );
        assert_eq!(rec.epochs_recovered, 0, "epoch 0 was already clean");
    }

    #[test]
    fn a_replayed_epoch_skips_none_of_its_files() {
        // Two files name epoch 1, one of them unreadable; the journal
        // replaces the epoch, so neither file counts as skipped.
        let mut vfs = Vfs::new();
        let pid = Pid(6);
        vfs.write(map_path(pid, 1), vec![0xff, 0xfe]);
        vfs.write(
            format!("{}1", map_prefix(pid.into())),
            render_map(&[entry(0x300, "app.C")]).into_bytes(),
        );
        let mut w = JournalWriter::create(&mut vfs, journal_path(pid));
        w.append(&mut vfs, KIND_CODE_MAP, &map_payload(1, &[entry(0x200, "app.B")]));
        assert_eq!(CodeMapSet::load(&vfs, pid).unwrap().skipped_files, 1);
        let (set, rec) = recover_codemaps(&vfs, pid).unwrap();
        assert_eq!(set.skipped_files, 0);
        assert_eq!(set.maps().len(), 1);
        assert_eq!(set.resolve(0x210, 1), Some("app.B"));
        assert!(set.resolve(0x310, 1).is_none(), "the replay replaced the epoch");
        assert_eq!(rec.epochs_recovered, 1);
    }

    #[test]
    fn sample_db_rebuilds_from_batch_records() {
        let mut vfs = Vfs::new();
        let bucket = |addr| SampleBucket {
            origin: SampleOrigin::Unknown,
            event: HwEvent::Cycles,
            addr,
            epoch: 0,
        };
        let mut batch1 = SampleDb::new();
        batch1.add(bucket(0x100), 4);
        let mut batch2 = SampleDb::new();
        batch2.add(bucket(0x100), 1);
        batch2.add(bucket(0x200), 2);
        batch2.dropped = 3;
        let mut w = JournalWriter::create(&mut vfs, SAMPLE_JOURNAL_PATH);
        w.append(&mut vfs, KIND_SAMPLE_BATCH, &batch1.to_bytes());
        w.append(&mut vfs, KIND_SAMPLE_BATCH, &batch2.to_bytes());
        let got = recover_sample_db(&vfs).unwrap();
        assert_eq!(got.batches, 2);
        assert_eq!(got.bad_batches, 0);
        assert_eq!(got.truncated_bytes, 0);
        let mut want = SampleDb::new();
        want.merge(&batch1);
        want.merge(&batch2);
        assert_eq!(got.db, want);
        assert_eq!(got.db.dropped, 3);
    }

    #[test]
    fn sample_db_rebuild_accepts_traced_and_v1_records_mixed() {
        use sim_os::journal::encode_traced_payload;
        use viprof_telemetry::TraceCtx;
        let mut vfs = Vfs::new();
        let bucket = |addr| SampleBucket {
            origin: SampleOrigin::Unknown,
            event: HwEvent::Cycles,
            addr,
            epoch: 0,
        };
        let mut batch1 = SampleDb::new();
        batch1.add(bucket(0x100), 4);
        let mut batch2 = SampleDb::new();
        batch2.add(bucket(0x200), 2);
        let mut w = JournalWriter::create(&mut vfs, SAMPLE_JOURNAL_PATH);
        // An old untagged record followed by a traced one: replay reads
        // both — the header is stripped, not merged into the db.
        w.append(&mut vfs, KIND_SAMPLE_BATCH, &batch1.to_bytes());
        let ctx = TraceCtx { trace: 7, span: 9 };
        w.append(
            &mut vfs,
            KIND_SAMPLE_BATCH_TRACED,
            &encode_traced_payload(ctx, &batch2.to_bytes()),
        );
        // A traced record too short for its header is a bad batch; a
        // record of another kind is no batch at all.
        w.append(&mut vfs, KIND_SAMPLE_BATCH_TRACED, &[0; 7]);
        w.append(&mut vfs, KIND_CODE_MAP, &map_payload(0, &[]));
        let got = recover_sample_db(&vfs).unwrap();
        assert_eq!(got.batches, 2);
        assert_eq!(got.bad_batches, 1);
        let mut want = SampleDb::new();
        want.merge(&batch1);
        want.merge(&batch2);
        assert_eq!(got.db, want);
    }

    #[test]
    fn report_absorb_aggregates_per_pid_counts() {
        let mut report = RecoveryReport::default();
        report.absorb(&PidRecovery {
            records_replayed: 3,
            truncated_bytes: 0,
            epochs_recovered: 1,
        });
        report.absorb(&PidRecovery {
            records_replayed: 2,
            truncated_bytes: 40,
            epochs_recovered: 2,
        });
        assert_eq!(report.journals_scanned, 2);
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.truncated_journals, 1);
        assert_eq!(report.truncated_bytes, 40);
        assert_eq!(report.epochs_recovered, 3);
    }
}
