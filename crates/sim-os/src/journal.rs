//! Crash-consistent write-ahead journal on the [`Vfs`].
//!
//! Both halves of the profiling pipeline persist through ordinary
//! `write(2)`-style VFS calls, and both are crash points: the VM agent
//! writes one code map per GC epoch, the daemon flushes drained sample
//! batches. A torn or bit-rotted file is only detected *post mortem* —
//! after the run — when a lossy parser quarantines whatever no longer
//! decodes. This module adds the discipline that makes such damage
//! *recoverable* instead of merely counted: an append-only journal of
//! self-describing records, each carrying
//!
//! * a fixed **marker** byte (resynchronization is never attempted —
//!   a record that does not start where the previous one ended is
//!   damage, not drift);
//! * a **monotonic sequence number** (a valid-looking record from a
//!   previous generation, or one that skips ahead, is rejected);
//! * a **CRC32** over the record header and payload (bit rot is
//!   detected, not parsed);
//! * a trailing **commit byte** (a record is committed only when its
//!   last byte is on disk — the classic WAL commit protocol).
//!
//! [`scan`] replays the longest valid prefix and stops at the first
//! record that fails any of these checks; everything after that point
//! is untrusted, exactly like a database truncating its WAL at the last
//! commit. [`repair`] makes that truncation physical so a journal can
//! be appended to again after a crash.
//!
//! The writer side models two distinct failure modes the fault plans
//! inject:
//!
//! * a **short (torn) append** by a *living* writer —
//!   [`JournalWriter::append_torn_then_repair`]: the writer's read-back
//!   verification notices the missing commit byte immediately and
//!   rewrites the record in place (one retry; the write path is why a
//!   journal exists at all);
//! * **post-commit media damage** — [`JournalWriter::append_rotted`]:
//!   the bytes rot *after* the writer verified them, so nothing repairs
//!   them at write time; the damage surfaces at [`scan`] as a CRC
//!   mismatch and the journal is truncated there.

use crate::vfs::Vfs;
use viprof_telemetry::{names, Counter, Telemetry, TraceCtx};

/// Journal file header.
pub const JOURNAL_MAGIC: &[u8; 4] = b"VJL1";

/// First byte of every record.
pub const RECORD_MARKER: u8 = 0xA5;

/// Last byte of every committed record.
pub const COMMIT_BYTE: u8 = 0x5A;

/// Record kind: one epoch code map (payload: epoch `u64` LE + rendered
/// map text).
pub const KIND_CODE_MAP: u8 = 1;

/// Record kind: one drained sample batch (payload: `SampleDb` binary
/// encoding).
pub const KIND_SAMPLE_BATCH: u8 = 2;

/// Record kind: a traced sample batch — the payload is a 16-byte trace
/// header ([`TRACE_HEADER_LEN`]: trace id then span id, both `u64` LE,
/// see [`encode_traced_payload`]) followed by the same `SampleDb`
/// binary encoding as [`KIND_SAMPLE_BATCH`]. Untagged v1 (kind 2)
/// records stay valid forever; every batch reader accepts both kinds.
pub const KIND_SAMPLE_BATCH_TRACED: u8 = 3;

/// Length of the `(trace, span)` header prefixed to traced payloads.
pub const TRACE_HEADER_LEN: usize = 16;

/// Prefix `body` with `ctx`'s 16-byte trace header, producing the
/// payload of a [`KIND_SAMPLE_BATCH_TRACED`] record.
pub fn encode_traced_payload(ctx: TraceCtx, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(TRACE_HEADER_LEN + body.len());
    payload.extend_from_slice(&ctx.trace.to_le_bytes());
    payload.extend_from_slice(&ctx.span.to_le_bytes());
    payload.extend_from_slice(body);
    payload
}

/// marker + seq + kind + len.
const HEADER_LEN: usize = 1 + 8 + 1 + 4;
/// Header + crc + commit byte.
const RECORD_OVERHEAD: usize = HEADER_LEN + 4 + 1;

// --- CRC32 (IEEE 802.3, the zlib polynomial) -------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k`
/// zero bytes, so eight table lookups fold eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Incremental CRC32 hasher (no external crates in the simulator).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the CRC, eight bytes per step (slicing-by-8),
    /// the tail byte at a time. Same values as the byte-wise loop.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Byte-at-a-time reference that `update` is tested against.
    #[cfg(test)]
    fn update_bytewise(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ b as u32) & 0xFF) as usize;
            self.state = CRC_TABLES[0][idx] ^ (self.state >> 8);
        }
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

// --- records ---------------------------------------------------------

/// One committed journal record, as replayed by [`scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    pub seq: u64,
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// A decoded sample-batch record: the trace context of a traced
/// record, and the `SampleDb` body.
pub type SampleBatch<'a> = (Option<TraceCtx>, &'a [u8]);

impl JournalRecord {
    /// Decode a sample-batch record into its trace context and
    /// `SampleDb` body: `None` for a record of another kind, no context
    /// for an untagged [`KIND_SAMPLE_BATCH`]. A
    /// [`KIND_SAMPLE_BATCH_TRACED`] payload too short to carry its
    /// trace header is an `Err`: damage the CRC did not see, which
    /// each reader handles like an undecodable batch.
    pub fn sample_batch(&self) -> Option<Result<SampleBatch<'_>, String>> {
        match self.kind {
            KIND_SAMPLE_BATCH => Some(Ok((None, &self.payload))),
            KIND_SAMPLE_BATCH_TRACED => Some(match self.payload.split_at_checked(TRACE_HEADER_LEN) {
                Some((header, body)) => {
                    let (trace, span) = header.split_at(8);
                    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte half"));
                    let ctx = TraceCtx { trace: word(trace), span: word(span) };
                    Ok((Some(ctx), body))
                }
                None => Err(format!(
                    "torn trace header in record seq {}: {} of {TRACE_HEADER_LEN} bytes",
                    self.seq,
                    self.payload.len()
                )),
            }),
            _ => None,
        }
    }
}

/// Result of scanning a journal: the longest valid record prefix plus
/// how much trailing damage was cut off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Committed records, in sequence order.
    pub records: Vec<JournalRecord>,
    /// Bytes up to and including the last committed record (the length
    /// [`repair`] truncates to).
    pub valid_len: usize,
    /// Bytes past the last committed record (torn tail, rotted record,
    /// or a damaged header — untrusted either way).
    pub damaged_bytes: usize,
}

impl JournalScan {
    /// Sequence number the next append should carry.
    pub fn next_seq(&self) -> u64 {
        self.records.last().map(|r| r.seq + 1).unwrap_or(0)
    }
}

fn record_crc(seq: u64, kind: u8, payload: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(&seq.to_le_bytes());
    h.update(&[kind]);
    h.update(&(payload.len() as u32).to_le_bytes());
    h.update(payload);
    h.finalize()
}

fn encode_record(seq: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    rec.push(RECORD_MARKER);
    rec.extend_from_slice(&seq.to_le_bytes());
    rec.push(kind);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
    rec.extend_from_slice(&record_crc(seq, kind, payload).to_le_bytes());
    rec.push(COMMIT_BYTE);
    rec
}

/// Parse the record expected at `pos`. `None` on any violation: short
/// read, wrong marker, out-of-order sequence, CRC mismatch, missing
/// commit byte.
fn parse_record_at(data: &[u8], pos: usize, expect_seq: u64) -> Option<(JournalRecord, usize)> {
    let header_end = pos.checked_add(HEADER_LEN)?;
    if data.len() < header_end || data[pos] != RECORD_MARKER {
        return None;
    }
    let seq = u64::from_le_bytes(data[pos + 1..pos + 9].try_into().ok()?);
    if seq != expect_seq {
        return None;
    }
    let kind = data[pos + 9];
    let len = u32::from_le_bytes(data[pos + 10..pos + 14].try_into().ok()?) as usize;
    let end = pos.checked_add(RECORD_OVERHEAD)?.checked_add(len)?;
    if data.len() < end {
        return None;
    }
    let payload = &data[header_end..header_end + len];
    let crc = u32::from_le_bytes(data[header_end + len..header_end + len + 4].try_into().ok()?);
    if crc != record_crc(seq, kind, payload) || data[end - 1] != COMMIT_BYTE {
        return None;
    }
    Some((
        JournalRecord {
            seq,
            kind,
            payload: payload.to_vec(),
        },
        end,
    ))
}

/// Scan raw journal bytes: replay the longest valid prefix, stop at the
/// first check that fails. A damaged file header discredits everything.
pub fn scan_bytes(data: &[u8]) -> JournalScan {
    let mut out = JournalScan {
        records: Vec::new(),
        valid_len: 0,
        damaged_bytes: data.len(),
    };
    if data.len() < JOURNAL_MAGIC.len() || &data[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return out;
    }
    out.valid_len = JOURNAL_MAGIC.len();
    let mut pos = out.valid_len;
    let mut expect_seq = 0u64;
    while let Some((rec, end)) = parse_record_at(data, pos, expect_seq) {
        out.records.push(rec);
        pos = end;
        out.valid_len = end;
        expect_seq += 1;
    }
    out.damaged_bytes = data.len() - out.valid_len;
    out
}

/// Scan the journal at `path`. `None` when the file does not exist (a
/// run that never journaled — not the same thing as an empty journal).
pub fn scan(vfs: &Vfs, path: &str) -> Option<JournalScan> {
    vfs.read(path).map(scan_bytes)
}

/// Physically truncate `path` to its valid prefix so appends can resume
/// after a crash. Returns the bytes removed (0 if the file is absent or
/// already clean).
pub fn repair(vfs: &mut Vfs, path: &str) -> usize {
    let Some(s) = scan(vfs, path) else { return 0 };
    if s.damaged_bytes == 0 {
        return 0;
    }
    let kept: Vec<u8> = vfs
        .read(path)
        .map(|d| d[..s.valid_len].to_vec())
        .unwrap_or_default();
    vfs.write(path.to_string(), kept);
    s.damaged_bytes
}

// --- writer ----------------------------------------------------------

/// Telemetry handles for the journal write path, resolved once at
/// attach time. Journal work charges no simulated cycles.
#[derive(Debug, Clone)]
struct JournalTelemetry {
    appends: Counter,
    commits: Counter,
    repairs: Counter,
    appended_bytes: Counter,
}

impl JournalTelemetry {
    fn attach(registry: &Telemetry) -> JournalTelemetry {
        JournalTelemetry {
            appends: registry.counter(names::JOURNAL_APPENDS),
            commits: registry.counter(names::JOURNAL_COMMITS),
            repairs: registry.counter(names::JOURNAL_REPAIRS),
            appended_bytes: registry.counter(names::JOURNAL_APPENDED_BYTES),
        }
    }
}

/// Appending side of the journal: tracks the committed length and the
/// next sequence number, and implements the read-back commit protocol.
#[derive(Debug, Clone)]
pub struct JournalWriter {
    path: String,
    next_seq: u64,
    committed_len: usize,
    /// Torn appends detected by read-back verification and rewritten.
    pub repaired: u64,
    /// Records appended (committed or rotted-after-commit).
    pub appended: u64,
    telemetry: Option<JournalTelemetry>,
}

impl JournalWriter {
    /// Start a fresh journal at `path` (truncates any previous one).
    pub fn create(vfs: &mut Vfs, path: impl Into<String>) -> JournalWriter {
        let path = path.into();
        vfs.write(path.clone(), JOURNAL_MAGIC.to_vec());
        JournalWriter {
            path,
            next_seq: 0,
            committed_len: JOURNAL_MAGIC.len(),
            repaired: 0,
            appended: 0,
            telemetry: None,
        }
    }

    /// Reopen an existing journal for appending: scan it, truncate any
    /// damaged tail, continue after the last committed record. Creates
    /// the journal if it does not exist — or afresh when its *header*
    /// is damaged (nothing in such a file is trustworthy, and appending
    /// after a missing magic would leave the records unreachable).
    pub fn open(vfs: &mut Vfs, path: impl Into<String>) -> JournalWriter {
        let path = path.into();
        match scan(vfs, &path) {
            Some(s) if s.valid_len >= JOURNAL_MAGIC.len() => {
                repair(vfs, &path);
                JournalWriter {
                    next_seq: s.next_seq(),
                    committed_len: s.valid_len,
                    path,
                    repaired: 0,
                    appended: 0,
                    telemetry: None,
                }
            }
            _ => JournalWriter::create(vfs, path),
        }
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Record appends/commits/repairs into `registry` from here on.
    pub fn set_telemetry(&mut self, registry: &Telemetry) {
        self.telemetry = Some(JournalTelemetry::attach(registry));
    }

    /// Append one record; returns its sequence number.
    pub fn append(&mut self, vfs: &mut Vfs, kind: u8, payload: &[u8]) -> u64 {
        let seq = self.next_seq;
        let rec = encode_record(seq, kind, payload);
        vfs.append(&self.path, &rec);
        self.commit(rec.len());
        seq
    }

    /// Append that suffers a short write: only `payload_prefix` payload
    /// bytes reach disk, so the commit byte never lands. The commit
    /// protocol's read-back verification catches the uncommitted tail
    /// immediately, truncates it, and rewrites the record whole — the
    /// repair a plain map-file `write` cannot perform.
    pub fn append_torn_then_repair(
        &mut self,
        vfs: &mut Vfs,
        kind: u8,
        payload: &[u8],
        payload_prefix: usize,
    ) -> u64 {
        let seq = self.next_seq;
        let rec = encode_record(seq, kind, payload);
        // Short write: header + a payload prefix, never the commit byte.
        let keep = (HEADER_LEN + payload_prefix).min(rec.len() - 1);
        vfs.append(&self.path, &rec[..keep]);
        // Read-back verification fails (no committed record at the
        // tail), so truncate to the last commit and retry once.
        debug_assert!(vfs
            .read(&self.path)
            .and_then(|d| parse_record_at(d, self.committed_len, seq))
            .is_none());
        let kept: Vec<u8> = vfs
            .read(&self.path)
            .map(|d| d[..self.committed_len.min(d.len())].to_vec())
            .unwrap_or_else(|| JOURNAL_MAGIC.to_vec());
        vfs.write(self.path.clone(), kept);
        vfs.append(&self.path, &rec);
        self.commit(rec.len());
        self.repaired += 1;
        if let Some(t) = &self.telemetry {
            t.repairs.inc();
        }
        seq
    }

    /// Append whose stored payload bytes rot *after* the commit (media
    /// damage): the CRC covers the pristine payload, the bytes on disk
    /// are `rot` (clipped to the payload length). Write-time
    /// verification cannot see this — [`scan`] detects the mismatch and
    /// truncates the journal at the previous record.
    pub fn append_rotted(&mut self, vfs: &mut Vfs, kind: u8, payload: &[u8], rot: &[u8]) -> u64 {
        let seq = self.next_seq;
        let mut rec = encode_record(seq, kind, payload);
        let n = rot.len().min(payload.len());
        rec[HEADER_LEN..HEADER_LEN + n].copy_from_slice(&rot[..n]);
        vfs.append(&self.path, &rec);
        // The writer verified the pristine bytes before the rot landed,
        // so it believes the record committed and keeps appending after
        // it. Readers will stop here.
        self.commit(rec.len());
        seq
    }

    fn commit(&mut self, rec_len: usize) {
        self.next_seq += 1;
        self.committed_len += rec_len;
        self.appended += 1;
        if let Some(t) = &self.telemetry {
            t.appends.inc();
            t.commits.inc();
            t.appended_bytes.add(rec_len as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_is_incremental() {
        let mut h = Crc32::new();
        h.update(b"1234");
        h.update(b"56789");
        assert_eq!(h.finalize(), crc32(b"123456789"));
    }

    fn bytewise(bytes: &[u8]) -> u32 {
        let mut h = Crc32::new();
        h.update_bytewise(bytes);
        h.finalize()
    }

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_oracle() {
        let mut rng = SplitMix64::new(0x5EED_C3C3);
        // Every length across the 8-byte stride and its tail.
        for len in 0..=64 {
            let buf = random_bytes(&mut rng, len);
            assert_eq!(crc32(&buf), bytewise(&buf), "len {len}");
        }
        for _ in 0..200 {
            let len = rng.range_u64(0, 4097) as usize;
            let buf = random_bytes(&mut rng, len);
            let want = bytewise(&buf);
            assert_eq!(crc32(&buf), want, "len {len}");
            // Unaligned starts: the stride must not depend on where the
            // slice begins in memory.
            for off in 1..8.min(len + 1) {
                assert_eq!(crc32(&buf[off..]), bytewise(&buf[off..]), "len {len} offset {off}");
            }
            // Two incremental updates at a random split point.
            let cut = rng.range_u64(0, len as u64 + 1) as usize;
            let mut h = Crc32::new();
            h.update(&buf[..cut]);
            h.update(&buf[cut..]);
            assert_eq!(h.finalize(), want, "len {len} split {cut}");
        }
    }

    #[test]
    fn slicing_by_8_is_incremental_at_every_split_point() {
        let mut rng = SplitMix64::new(0x5EED_5917);
        let buf = random_bytes(&mut rng, 100);
        let want = bytewise(&buf);
        for cut in 0..=buf.len() {
            let mut h = Crc32::new();
            h.update(&buf[..cut]);
            h.update(&buf[cut..]);
            assert_eq!(h.finalize(), want, "split {cut}");
            // Three pieces, the middle one shorter than a stride.
            let mid = (cut + 5).min(buf.len());
            let mut h = Crc32::new();
            h.update(&buf[..cut]);
            h.update(&buf[cut..mid]);
            h.update(&buf[mid..]);
            assert_eq!(h.finalize(), want, "splits {cut}/{mid}");
        }
    }

    #[test]
    fn append_scan_round_trip() {
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        assert_eq!(w.append(&mut vfs, KIND_CODE_MAP, b"alpha"), 0);
        assert_eq!(w.append(&mut vfs, KIND_SAMPLE_BATCH, b""), 1);
        assert_eq!(w.append(&mut vfs, KIND_CODE_MAP, b"gamma"), 2);
        let s = scan(&vfs, "/j").unwrap();
        assert_eq!(s.damaged_bytes, 0);
        assert_eq!(s.valid_len, vfs.read("/j").unwrap().len());
        let kinds: Vec<(u64, u8, &[u8])> = s
            .records
            .iter()
            .map(|r| (r.seq, r.kind, r.payload.as_slice()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (0, KIND_CODE_MAP, &b"alpha"[..]),
                (1, KIND_SAMPLE_BATCH, &b""[..]),
                (2, KIND_CODE_MAP, &b"gamma"[..]),
            ]
        );
        assert_eq!(s.next_seq(), 3);
        // A scan yields consecutive seqs only, so readers need no dedup.
        let seqs: Vec<u64> = s.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..3).collect::<Vec<u64>>());
    }

    #[test]
    fn missing_file_scans_as_none_empty_journal_as_zero_records() {
        let mut vfs = Vfs::new();
        assert!(scan(&vfs, "/nope").is_none());
        JournalWriter::create(&mut vfs, "/j");
        let s = scan(&vfs, "/j").unwrap();
        assert!(s.records.is_empty());
        assert_eq!(s.damaged_bytes, 0);
    }

    #[test]
    fn crash_at_any_byte_keeps_a_committed_prefix() {
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        for i in 0..4u8 {
            w.append(&mut vfs, KIND_CODE_MAP, &[i; 24]);
        }
        let full = vfs.read("/j").unwrap().to_vec();
        let full_scan = scan_bytes(&full);
        assert_eq!(full_scan.records.len(), 4);
        for cut in 0..=full.len() {
            let s = scan_bytes(&full[..cut]);
            // Records are exactly the ones whose encoding fits in the cut.
            assert_eq!(
                s.records,
                full_scan.records[..s.records.len()],
                "cut {cut}: prefix property violated"
            );
            assert!(s.valid_len <= cut);
            assert_eq!(s.damaged_bytes, cut - s.valid_len);
            // A cut exactly on a record boundary loses nothing.
            if cut == full_scan.valid_len {
                assert_eq!(s.records.len(), 4);
            }
        }
    }

    #[test]
    fn corrupted_record_truncates_the_journal_there() {
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        w.append(&mut vfs, KIND_CODE_MAP, b"first");
        let good_len = vfs.read("/j").unwrap().len();
        w.append_rotted(&mut vfs, KIND_CODE_MAP, b"second", b"sEcOnd");
        w.append(&mut vfs, KIND_CODE_MAP, b"third");
        let s = scan(&vfs, "/j").unwrap();
        // Everything at and after the rotted record is untrusted — the
        // commit chain is broken even though "third" itself is intact.
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].payload, b"first");
        assert_eq!(s.valid_len, good_len);
        assert!(s.damaged_bytes > 0);
    }

    #[test]
    fn torn_append_is_repaired_in_place() {
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        w.append(&mut vfs, KIND_CODE_MAP, b"first");
        w.append_torn_then_repair(&mut vfs, KIND_CODE_MAP, b"second-payload", 3);
        assert_eq!(w.repaired, 1);
        let s = scan(&vfs, "/j").unwrap();
        assert_eq!(s.damaged_bytes, 0, "repair leaves no damage behind");
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[1].payload, b"second-payload");
        assert_eq!(s.records[1].seq, 1, "the retry reuses the seq");
    }

    #[test]
    fn repair_truncates_and_open_resumes() {
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        w.append(&mut vfs, KIND_CODE_MAP, b"kept");
        // Crash mid-append: raw torn tail, nobody around to retry.
        vfs.append("/j", &[RECORD_MARKER, 1, 2, 3]);
        let removed = repair(&mut vfs, "/j");
        assert_eq!(removed, 4);
        assert_eq!(repair(&mut vfs, "/j"), 0, "already clean");
        let mut w2 = JournalWriter::open(&mut vfs, "/j");
        w2.append(&mut vfs, KIND_CODE_MAP, b"resumed");
        let s = scan(&vfs, "/j").unwrap();
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[1].seq, 1, "sequence continues across reopen");
        assert_eq!(s.records[1].payload, b"resumed");
    }

    #[test]
    fn open_starts_fresh_over_a_damaged_header() {
        // A journal whose magic is gone is untrusted in full; reopening
        // must not append after the broken header (those records would
        // be unreachable) but start a fresh, readable journal.
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        w.append(&mut vfs, KIND_CODE_MAP, b"old-generation");
        let mut raw = vfs.read("/j").unwrap().to_vec();
        raw[1] ^= 0xFF;
        vfs.write("/j", raw);
        let mut w2 = JournalWriter::open(&mut vfs, "/j");
        assert_eq!(w2.append(&mut vfs, KIND_CODE_MAP, b"fresh"), 0);
        let s = scan(&vfs, "/j").unwrap();
        assert_eq!(s.damaged_bytes, 0);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].payload, b"fresh");
    }

    #[test]
    fn damaged_header_discredits_the_whole_file() {
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        w.append(&mut vfs, KIND_CODE_MAP, b"data");
        let mut raw = vfs.read("/j").unwrap().to_vec();
        raw[0] ^= 0xFF;
        let s = scan_bytes(&raw);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
        assert_eq!(s.damaged_bytes, raw.len());
    }

    #[test]
    fn stale_sequence_numbers_are_rejected() {
        // A record from a previous journal generation spliced after the
        // current tail: marker and CRC are fine, seq is not next.
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        w.append(&mut vfs, KIND_CODE_MAP, b"a");
        w.append(&mut vfs, KIND_CODE_MAP, b"b");
        let raw = vfs.read("/j").unwrap().to_vec();
        let s = scan_bytes(&raw);
        let first_end = {
            let one = scan_bytes(&raw[..s.valid_len - (raw.len() - s.valid_len)]);
            one.valid_len
        };
        // Duplicate record 0 after record 1: seq 0 != expected 2.
        let rec0 = encode_record(0, KIND_CODE_MAP, b"a");
        let mut spliced = raw.clone();
        spliced.extend_from_slice(&rec0);
        let s2 = scan_bytes(&spliced);
        assert_eq!(s2.records.len(), 2, "replayed generation rejected");
        assert!(s2.damaged_bytes >= rec0.len());
        let _ = first_end;
    }

    #[test]
    fn traced_payload_round_trips_and_rejects_short_headers() {
        let record = |kind, payload: &[u8]| JournalRecord { seq: 7, kind, payload: payload.to_vec() };
        let ctx = TraceCtx { trace: 0xDEAD_BEEF_0BAD_F00D, span: 42 };
        let payload = encode_traced_payload(ctx, b"batch-bytes");
        assert_eq!(payload.len(), TRACE_HEADER_LEN + 11);
        let traced = record(KIND_SAMPLE_BATCH_TRACED, &payload);
        assert_eq!(traced.sample_batch(), Some(Ok((Some(ctx), &b"batch-bytes"[..]))));
        // An empty body is legal (an empty batch was journaled).
        let empty = encode_traced_payload(ctx, b"");
        let traced = record(KIND_SAMPLE_BATCH_TRACED, &empty);
        assert_eq!(traced.sample_batch(), Some(Ok((Some(ctx), &b""[..]))));
        // Anything shorter than the header cannot be traced.
        let torn = record(KIND_SAMPLE_BATCH_TRACED, &empty[..TRACE_HEADER_LEN - 1]);
        assert!(matches!(torn.sample_batch(), Some(Err(_))));
        // An untagged batch has no context; other kinds are no batch.
        let plain = record(KIND_SAMPLE_BATCH, b"body");
        assert_eq!(plain.sample_batch(), Some(Ok((None, &b"body"[..]))));
        assert_eq!(record(KIND_CODE_MAP, &payload).sample_batch(), None);

        // Traced records ride the normal commit protocol.
        let mut vfs = Vfs::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        w.append(&mut vfs, KIND_SAMPLE_BATCH_TRACED, &payload);
        let s = scan(&vfs, "/j").unwrap();
        assert_eq!(s.records[0].kind, KIND_SAMPLE_BATCH_TRACED);
        assert_eq!(s.records[0].sample_batch().unwrap().unwrap().0, Some(ctx));
    }

    #[test]
    fn telemetry_counts_appends_commits_and_repairs() {
        let mut vfs = Vfs::new();
        let t = Telemetry::new();
        let mut w = JournalWriter::create(&mut vfs, "/j");
        w.set_telemetry(&t);
        w.append(&mut vfs, KIND_CODE_MAP, b"hello");
        w.append_torn_then_repair(&mut vfs, KIND_CODE_MAP, b"world", 2);
        w.append_rotted(&mut vfs, KIND_CODE_MAP, b"abcd", b"XY");
        let snap = t.snapshot();
        assert_eq!(snap.counter(names::JOURNAL_APPENDS), 3);
        assert_eq!(snap.counter(names::JOURNAL_COMMITS), 3);
        assert_eq!(snap.counter(names::JOURNAL_REPAIRS), 1);
        assert!(snap.counter(names::JOURNAL_APPENDED_BYTES) > 0);
        // The writer's own public counters agree with telemetry.
        assert_eq!(w.appended, 3);
        assert_eq!(w.repaired, 1);
    }
}
