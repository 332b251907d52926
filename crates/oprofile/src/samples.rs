//! Samples and the sample database.
//!
//! The driver classifies each overflow at NMI time into a
//! [`SampleBucket`]; the daemon accumulates bucket counts into a
//! [`SampleDb`], which post-processing reads. Addresses are quantized to
//! 16-byte lines before bucketing — heap objects (and hence JIT code
//! bodies) are 16-byte aligned, so quantization can never smear a sample
//! across two code bodies, while keeping the database size proportional
//! to code bytes rather than sample count.

use sim_cpu::{Addr, HwEvent, Pid};
use sim_os::ImageId;
use std::collections::HashMap;

/// Quantization granularity for sampled addresses.
pub const ADDR_QUANTUM: u64 = 16;

/// Where a sample landed, as far as the driver could tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SampleOrigin {
    /// File-backed (or kernel) text: resolvable offline via the image's
    /// symbol table. `addr` in the bucket is the image offset.
    Image(ImageId),
    /// Anonymous mapping — OProfile's dead end. `addr` is the absolute
    /// PC.
    Anon { pid: Pid, start: Addr, end: Addr },
    /// VIProf extension: inside a registered VM heap. `addr` is the
    /// absolute PC; the bucket's `epoch` holds the GC epoch the sample
    /// was taken in (paper §3.1). `gen` is the registrant's process
    /// generation stamped at NMI time, so samples from two incarnations
    /// of the same pid can never share a bucket.
    JitApp { pid: Pid, gen: u32 },
    /// Unmapped PC (stale process, race) — real OProfile drops these
    /// into a catch-all too.
    Unknown,
}

/// Aggregation key for one counter event at one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SampleBucket {
    pub origin: SampleOrigin,
    pub event: HwEvent,
    /// Image offset (Image) or absolute PC (Anon/JitApp), quantized.
    pub addr: u64,
    /// GC epoch for `JitApp`, 0 otherwise.
    pub epoch: u64,
}

impl SampleBucket {
    pub fn quantize(mut self) -> Self {
        self.addr -= self.addr % ADDR_QUANTUM;
        self
    }
}

/// Accumulated profile: bucket → sample count.
#[derive(Debug, Clone, Default)]
pub struct SampleDb {
    counts: HashMap<SampleBucket, u64>,
    totals: HashMap<HwEvent, u64>,
    /// Samples lost to ring-buffer overflow (reported by the daemon).
    pub dropped: u64,
    /// Samples refused by the admission cap: the database was at its
    /// bucket limit and the sample would have created a new bucket.
    /// Like `dropped`, these never enter `total_samples()` but are
    /// carried through serialization so quality accounting sees them.
    pub evicted: u64,
    /// Bounded-memory admission cap on distinct buckets (`None` =
    /// unbounded). Configuration, not content: excluded from equality
    /// and serialization.
    cap: Option<usize>,
}

/// Equality is over sample *content* (buckets, drop and eviction
/// counts), not configuration — a capped database equals its uncapped
/// round-trip through the sample-file format.
impl PartialEq for SampleDb {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
            && self.dropped == other.dropped
            && self.evicted == other.evicted
    }
}

impl SampleDb {
    pub fn new() -> Self {
        SampleDb::default()
    }

    /// Bound the database to at most `cap` distinct buckets. Samples
    /// for existing buckets always accumulate; samples that would mint
    /// a new bucket past the cap are counted in `evicted` instead.
    pub fn set_admission_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
    }

    pub fn admission_cap(&self) -> Option<usize> {
        self.cap
    }

    /// Count `n` samples in `bucket`. Counts saturate at `u64::MAX`, so
    /// a hostile sample file can neither wrap them nor panic a reader.
    pub fn add(&mut self, bucket: SampleBucket, n: u64) {
        let bucket = bucket.quantize();
        if let Some(cap) = self.cap {
            if self.counts.len() >= cap && !self.counts.contains_key(&bucket) {
                self.evicted = self.evicted.saturating_add(n);
                return;
            }
        }
        let count = self.counts.entry(bucket).or_insert(0);
        *count = count.saturating_add(n);
        let total = self.totals.entry(bucket.event).or_insert(0);
        *total = total.saturating_add(n);
    }

    pub fn total(&self, event: HwEvent) -> u64 {
        self.totals.get(&event).copied().unwrap_or(0)
    }

    pub fn total_samples(&self) -> u64 {
        self.totals.values().fold(0, |sum, n| sum.saturating_add(*n))
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&SampleBucket, &u64)> {
        self.counts.iter()
    }

    /// Buckets in deterministic order (for reports and serialization).
    pub fn sorted(&self) -> Vec<(SampleBucket, u64)> {
        let mut v: Vec<(SampleBucket, u64)> =
            self.counts.iter().map(|(b, c)| (*b, *c)).collect();
        v.sort_unstable();
        v
    }

    pub fn merge(&mut self, other: &SampleDb) {
        for (b, c) in other.iter() {
            self.add(*b, *c);
        }
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.evicted = self.evicted.saturating_add(other.evicted);
    }

    // --- binary serialization (the "sample files" on the VFS) ---

    fn event_code(e: HwEvent) -> u8 {
        HwEvent::ALL.iter().position(|x| *x == e).unwrap() as u8
    }

    fn event_from(code: u8) -> Result<HwEvent, String> {
        HwEvent::ALL
            .get(code as usize)
            .copied()
            .ok_or_else(|| format!("bad event code {code}"))
    }

    /// Serialize into the compact binary sample-file format (v3; v1
    /// files — which predate the `evicted` counter — and v2 files —
    /// which predate generation tags — still parse).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(40 + self.counts.len() * 40);
        buf.extend_from_slice(b"OPDB");
        buf.extend_from_slice(&3u32.to_le_bytes()); // version
        for word in [self.dropped, self.evicted, self.counts.len() as u64] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for (b, c) in self.sorted() {
            let (tag, a, pad, x, y) = match b.origin {
                SampleOrigin::Image(id) => (0u8, id.0, 0u32, 0u64, 0u64),
                SampleOrigin::Anon { pid, start, end } => (1, pid.0, 0, start, end),
                // v2's pad word carries the generation, 0 pre-generation.
                SampleOrigin::JitApp { pid, gen } => (2, pid.0, gen, 0, 0),
                SampleOrigin::Unknown => (3, 0, 0, 0, 0),
            };
            buf.push(tag);
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&pad.to_le_bytes());
            buf.extend_from_slice(&x.to_le_bytes());
            buf.extend_from_slice(&y.to_le_bytes());
            buf.push(Self::event_code(b.event));
            for word in [b.addr, b.epoch, c] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        buf
    }

    /// Parse a serialized sample file.
    pub fn from_bytes(data: &[u8]) -> Result<SampleDb, String> {
        let file = CheckedFile::check(data)?;
        let mut db = SampleDb {
            dropped: file.dropped,
            evicted: file.evicted,
            ..SampleDb::default()
        };
        // Sized from the checked records, never the header's count, so
        // a lying header cannot inflate the allocation.
        db.counts.reserve(file.records.len() / RECORD_LEN);
        for (bucket, count) in file.records() {
            db.add(bucket, count);
        }
        Ok(db)
    }

    /// The `(dropped, evicted)` header words of a serialized sample
    /// file, after the same checks [`from_bytes`](Self::from_bytes)
    /// makes: `Ok` exactly when it is, without building a database.
    pub fn header_from_bytes(data: &[u8]) -> Result<(u64, u64), String> {
        CheckedFile::check(data).map(|file| (file.dropped, file.evicted))
    }

    /// Merge a serialized sample file into `self`, all or nothing: the
    /// whole file is checked first, so on `Err` `self` is unchanged.
    /// On an uncapped database the result equals
    /// `self.merge(&SampleDb::from_bytes(data)?)`; under an admission
    /// cap, records are admitted in file order.
    pub fn merge_from_bytes(&mut self, data: &[u8]) -> Result<(), String> {
        let file = CheckedFile::check(data)?;
        for (bucket, count) in file.records() {
            self.add(bucket, count);
        }
        self.dropped = self.dropped.saturating_add(file.dropped);
        self.evicted = self.evicted.saturating_add(file.evicted);
        Ok(())
    }
}

/// Bytes of one serialized bucket: tag, a, pad, x, y, event, addr,
/// epoch, count.
const RECORD_LEN: usize = 1 + 4 + 4 + 8 + 8 + 1 + 8 + 8 + 8;

/// A serialized sample file that passed every check: magic, version,
/// header length, and each record's length, origin tag and event code.
/// Decoding its records can no longer fail.
struct CheckedFile<'a> {
    dropped: u64,
    evicted: u64,
    /// Exactly the file's records; trailing bytes are not included.
    records: &'a [u8],
}

impl<'a> CheckedFile<'a> {
    /// The one checking pass every reader goes through. Errors come in
    /// file order: the first failing check wins.
    fn check(data: &'a [u8]) -> Result<CheckedFile<'a>, String> {
        if data.len() < 24 || &data[..4] != b"OPDB" {
            return Err("bad magic".into());
        }
        let mut data = LeReader(&data[4..]);
        let version = data.u32();
        if !(1..=3).contains(&version) {
            return Err(format!("unsupported version {version}"));
        }
        let dropped = data.u64();
        let evicted = if version >= 2 {
            if data.0.len() < 16 {
                return Err("truncated v2 header".into());
            }
            data.u64()
        } else {
            0
        };
        let n = data.u64();
        let body = data.0;
        let mut rest = body;
        for _ in 0..n {
            let Some((record, tail)) = rest.split_first_chunk::<RECORD_LEN>() else {
                return Err("truncated sample record".into());
            };
            if record[0] > 3 {
                return Err(format!("bad origin tag {}", record[0]));
            }
            SampleDb::event_from(record[25])?;
            rest = tail;
        }
        Ok(CheckedFile {
            dropped,
            evicted,
            records: &body[..body.len() - rest.len()],
        })
    }

    /// Decode the checked records in file order.
    fn records(&self) -> impl Iterator<Item = (SampleBucket, u64)> + 'a {
        self.records.chunks_exact(RECORD_LEN).map(|record| {
            let mut r = LeReader(record);
            let tag = r.u8();
            let a = r.u32();
            let pad = r.u32();
            let x = r.u64();
            let y = r.u64();
            let origin = match tag {
                0 => SampleOrigin::Image(ImageId(a)),
                1 => SampleOrigin::Anon {
                    pid: Pid(a),
                    start: x,
                    end: y,
                },
                // Pre-v3 files predate generation tags: their pad word
                // is zero, which is exactly generation 0.
                2 => SampleOrigin::JitApp {
                    pid: Pid(a),
                    gen: pad,
                },
                _ => SampleOrigin::Unknown,
            };
            let event = HwEvent::ALL[r.u8() as usize];
            let bucket = SampleBucket {
                origin,
                event,
                addr: r.u64(),
                epoch: r.u64(),
            };
            (bucket, r.u64())
        })
    }
}

/// Little-endian cursor over a sample file. Callers check the
/// remaining length before each fixed-size read.
struct LeReader<'a>(&'a [u8]);

impl LeReader<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_first_chunk::<N>().expect("length checked by caller");
        self.0 = rest;
        *head
    }

    fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img_bucket(off: u64, event: HwEvent) -> SampleBucket {
        SampleBucket {
            origin: SampleOrigin::Image(ImageId(3)),
            event,
            addr: off,
            epoch: 0,
        }
    }

    #[test]
    fn add_quantizes_and_accumulates() {
        let mut db = SampleDb::new();
        db.add(img_bucket(0x101, HwEvent::Cycles), 1);
        db.add(img_bucket(0x10f, HwEvent::Cycles), 2);
        db.add(img_bucket(0x110, HwEvent::Cycles), 4);
        assert_eq!(db.len(), 2, "0x101 and 0x10f share a 16-byte line");
        assert_eq!(db.total(HwEvent::Cycles), 7);
        let sorted = db.sorted();
        assert_eq!(sorted[0].0.addr, 0x100);
        assert_eq!(sorted[0].1, 3);
    }

    #[test]
    fn totals_track_per_event() {
        let mut db = SampleDb::new();
        db.add(img_bucket(0, HwEvent::Cycles), 5);
        db.add(img_bucket(0, HwEvent::L2Miss), 2);
        assert_eq!(db.total(HwEvent::Cycles), 5);
        assert_eq!(db.total(HwEvent::L2Miss), 2);
        assert_eq!(db.total(HwEvent::Branches), 0);
        assert_eq!(db.total_samples(), 7);
    }

    #[test]
    fn jit_buckets_keep_epochs_distinct() {
        let mut db = SampleDb::new();
        let mk = |epoch| SampleBucket {
            origin: SampleOrigin::JitApp { pid: Pid(9), gen: 0 },
            event: HwEvent::Cycles,
            addr: 0x64000040,
            epoch,
        };
        db.add(mk(1), 1);
        db.add(mk(2), 1);
        assert_eq!(db.len(), 2, "same PC, different epoch = different bucket");
    }

    #[test]
    fn jit_buckets_keep_generations_distinct() {
        let mut db = SampleDb::new();
        let mk = |gen| SampleBucket {
            origin: SampleOrigin::JitApp { pid: Pid(9), gen },
            event: HwEvent::Cycles,
            addr: 0x64000040,
            epoch: 1,
        };
        db.add(mk(0), 1);
        db.add(mk(1), 1);
        assert_eq!(
            db.len(),
            2,
            "same PC and epoch, different incarnation = different bucket"
        );
        let back = SampleDb::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(back, db, "generation tags survive serialization");
    }

    #[test]
    fn serialization_round_trips() {
        let mut db = SampleDb::new();
        db.add(img_bucket(0x40, HwEvent::Cycles), 10);
        db.add(
            SampleBucket {
                origin: SampleOrigin::Anon {
                    pid: Pid(4),
                    start: 0x6000_0000,
                    end: 0x6400_0000,
                },
                event: HwEvent::L2Miss,
                addr: 0x6100_0040,
                epoch: 0,
            },
            3,
        );
        db.add(
            SampleBucket {
                origin: SampleOrigin::JitApp { pid: Pid(4), gen: 2 },
                event: HwEvent::Cycles,
                addr: 0x6200_0000,
                epoch: 7,
            },
            5,
        );
        db.add(
            SampleBucket {
                origin: SampleOrigin::Unknown,
                event: HwEvent::Cycles,
                addr: 0,
                epoch: 0,
            },
            1,
        );
        db.dropped = 12;
        let bytes = db.to_bytes();
        let back = SampleDb::from_bytes(&bytes).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(SampleDb::from_bytes(b"NOPE").is_err());
        assert!(SampleDb::from_bytes(b"OPDB").is_err());
        let mut db = SampleDb::new();
        db.add(img_bucket(0, HwEvent::Cycles), 1);
        let bytes = db.to_bytes();
        assert!(SampleDb::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn counts_past_u64_max_saturate_instead_of_panicking() {
        // Minimized from the reader differential test: two records of
        // one bucket whose counts sum past `u64::MAX`.
        let mut db = SampleDb::new();
        db.add(img_bucket(0, HwEvent::Cycles), u64::MAX);
        db.add(img_bucket(0x10, HwEvent::Cycles), 1);
        db.dropped = u64::MAX;
        let mut bytes = db.to_bytes();
        let second = bytes.len() - 50;
        bytes[second + 26..second + 34].copy_from_slice(&0u64.to_le_bytes());
        let back = SampleDb::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.total(HwEvent::Cycles), u64::MAX);
        let mut sink = back.clone();
        sink.merge_from_bytes(&bytes).unwrap();
        sink.merge(&back);
        assert_eq!(sink.sorted()[0].1, u64::MAX);
        assert_eq!(sink.dropped, u64::MAX);
        assert_eq!(sink.total_samples(), u64::MAX);
    }

    #[test]
    fn admission_cap_bounds_buckets_and_counts_evictions() {
        let mut db = SampleDb::new();
        db.set_admission_cap(Some(2));
        db.add(img_bucket(0x00, HwEvent::Cycles), 1);
        db.add(img_bucket(0x10, HwEvent::Cycles), 1);
        db.add(img_bucket(0x20, HwEvent::Cycles), 5); // third bucket: refused
        db.add(img_bucket(0x00, HwEvent::Cycles), 3); // existing: accumulates
        assert_eq!(db.len(), 2);
        assert_eq!(db.evicted, 5);
        assert_eq!(db.total_samples(), 5, "evicted samples never enter totals");
        assert_eq!(db.total(HwEvent::Cycles), 5);
    }

    #[test]
    fn evictions_survive_serialization_and_merge() {
        let mut db = SampleDb::new();
        db.set_admission_cap(Some(1));
        db.add(img_bucket(0x00, HwEvent::Cycles), 2);
        db.add(img_bucket(0x10, HwEvent::Cycles), 3);
        assert_eq!(db.evicted, 3);
        let back = SampleDb::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(back, db, "content equality ignores the cap config");
        assert_eq!(back.evicted, 3);
        assert_eq!(back.admission_cap(), None, "cap is config, not content");

        let mut sink = SampleDb::new();
        sink.merge(&back);
        assert_eq!(sink.evicted, 3);
    }

    #[test]
    fn v1_files_without_eviction_field_still_parse() {
        let mut db = SampleDb::new();
        db.add(img_bucket(0x40, HwEvent::Cycles), 7);
        db.dropped = 2;
        // Hand-build the v1 layout: no `evicted` word in the header.
        let v2 = db.to_bytes();
        let mut v1 = b"OPDB".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&db.dropped.to_le_bytes());
        // Skip the v2 `evicted` word (offset 16..24), keep the rest.
        v1.extend_from_slice(&v2[24..]);
        let back = SampleDb::from_bytes(&v1).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.evicted, 0);
    }

    #[test]
    fn merge_combines_counts_and_drops() {
        let mut a = SampleDb::new();
        a.add(img_bucket(0, HwEvent::Cycles), 1);
        a.dropped = 2;
        let mut b = SampleDb::new();
        b.add(img_bucket(0, HwEvent::Cycles), 3);
        b.add(img_bucket(0x20, HwEvent::Cycles), 1);
        b.dropped = 1;
        a.merge(&b);
        assert_eq!(a.total(HwEvent::Cycles), 5);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.len(), 2);
    }
}
