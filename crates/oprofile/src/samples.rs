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

/// Per-event totals, one slot per [`HwEvent::ALL`] entry.
const EVENTS: usize = HwEvent::ALL.len();

/// Accumulated profile: bucket → sample count, held as one vector
/// sorted by `SampleBucket`'s `Ord` with one entry per bucket. That is
/// the order of the sample file, so reading one is a linear decode and
/// writing one sorts nothing; the resolution engine shards the vector
/// into contiguous slices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleDb {
    /// Sorted by bucket, no bucket twice.
    buckets: Vec<(SampleBucket, u64)>,
    /// Samples per event, indexed by event code.
    totals: [u64; EVENTS],
    /// Samples lost to ring-buffer overflow (reported by the daemon).
    pub dropped: u64,
    /// Samples an older session's admission cap refused, read from the
    /// v2/v3 header word. Like `dropped`, these never enter
    /// `total_samples()` but are carried through serialization and
    /// merges so quality accounting sees them.
    pub evicted: u64,
}

impl SampleDb {
    pub fn new() -> Self {
        SampleDb::default()
    }

    /// A database of one sample per entry of `samples`, the way each
    /// drained batch is built: the samples are quantized as
    /// [`add`](Self::add) quantizes them and sorted in place, then each
    /// run of equal buckets is counted once. The database is allocated
    /// for its distinct buckets only.
    pub(crate) fn from_samples(samples: &mut [SampleBucket]) -> SampleDb {
        for sample in samples.iter_mut() {
            *sample = sample.quantize();
        }
        samples.sort_unstable();
        let distinct = samples.chunk_by(|a, b| a == b).count();
        let mut buckets = Vec::with_capacity(distinct);
        buckets.extend(
            samples
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u64)),
        );
        SampleDb::from_sorted(buckets)
    }

    /// A database over a run that is already sorted and coalesced.
    fn from_sorted(buckets: Vec<(SampleBucket, u64)>) -> SampleDb {
        SampleDb {
            totals: totals_of(&buckets),
            buckets,
            ..SampleDb::default()
        }
    }

    /// Count `n` samples in `bucket`. Counts saturate at `u64::MAX`, so
    /// a hostile sample file can neither wrap them nor panic a reader.
    /// A new bucket is inserted in place, which moves every bucket
    /// after it: writers of many samples merge sorted batches into a
    /// [`SampleAccumulator`] instead.
    pub fn add(&mut self, bucket: SampleBucket, n: u64) {
        let bucket = bucket.quantize();
        match self.buckets.binary_search_by(|(b, _)| b.cmp(&bucket)) {
            Ok(i) => {
                let count = &mut self.buckets[i].1;
                *count = count.saturating_add(n);
            }
            Err(i) => self.buckets.insert(i, (bucket, n)),
        }
        self.add_total(bucket.event, n);
    }

    fn add_total(&mut self, event: HwEvent, n: u64) {
        let total = &mut self.totals[Self::event_code(event) as usize];
        *total = total.saturating_add(n);
    }

    pub fn total(&self, event: HwEvent) -> u64 {
        self.totals[Self::event_code(event) as usize]
    }

    pub fn total_samples(&self) -> u64 {
        self.totals.iter().fold(0, |sum, n| sum.saturating_add(*n))
    }

    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Buckets and their counts in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (&SampleBucket, &u64)> {
        self.buckets.iter().map(|(b, c)| (b, c))
    }

    /// The buckets and their counts as one sorted slice, for callers
    /// that split it into contiguous ranges.
    pub fn buckets(&self) -> &[(SampleBucket, u64)] {
        &self.buckets
    }

    /// Merge `other` in one pass over both databases.
    pub fn merge(&mut self, other: &SampleDb) {
        self.merge_sorted(&other.buckets);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.evicted = self.evicted.saturating_add(other.evicted);
    }

    /// Merge `run`, sorted and coalesced, in one pass.
    fn merge_sorted(&mut self, run: &[(SampleBucket, u64)]) {
        if run.is_empty() {
            return;
        }
        let old = std::mem::take(&mut self.buckets);
        let mut merged = Vec::with_capacity(old.len() + run.len());
        let mut rest = old.as_slice();
        for &(bucket, count) in run {
            let below = count_below(rest, &bucket);
            merged.extend_from_slice(&rest[..below]);
            rest = &rest[below..];
            match rest.first() {
                Some(&(b, c)) if b == bucket => {
                    merged.push((b, c.saturating_add(count)));
                    rest = &rest[1..];
                }
                _ => merged.push((bucket, count)),
            }
            self.add_total(bucket.event, count);
        }
        merged.extend_from_slice(rest);
        self.buckets = merged;
    }

    // --- binary serialization (the "sample files" on the VFS) ---

    /// The event's index in [`HwEvent::ALL`], which is its discriminant
    /// (pinned by `event_codes_are_discriminants`).
    fn event_code(e: HwEvent) -> u8 {
        e as u8
    }

    fn event_from(code: u8) -> Result<HwEvent, String> {
        HwEvent::ALL
            .get(code as usize)
            .copied()
            .ok_or_else(|| format!("bad event code {code}"))
    }

    /// Serialize into the compact binary sample-file format (v3; v1
    /// files — which predate the `evicted` counter — and v2 files —
    /// which predate generation tags — still parse). Records are
    /// written in bucket order, the order they are held in.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.buckets.len() * RECORD_LEN);
        buf.extend_from_slice(b"OPDB");
        buf.extend_from_slice(&3u32.to_le_bytes()); // version
        for word in [self.dropped, self.evicted, self.buckets.len() as u64] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for (b, c) in &self.buckets {
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
            for word in [b.addr, b.epoch, *c] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        buf
    }

    /// Parse a serialized sample file: one linear decode when its
    /// records are in bucket order, as every file this crate writes
    /// is; a file out of order is sorted and summed instead.
    pub fn from_bytes(data: &[u8]) -> Result<SampleDb, String> {
        let file = CheckedFile::check(data)?;
        Ok(SampleDb {
            dropped: file.dropped,
            evicted: file.evicted,
            ..SampleDb::from_sorted(file.sorted_run())
        })
    }

    /// The `(dropped, evicted)` header words of a serialized sample
    /// file, after the same checks [`from_bytes`](Self::from_bytes)
    /// makes: `Ok` exactly when it is, without building a database.
    pub fn header_from_bytes(data: &[u8]) -> Result<(u64, u64), String> {
        CheckedFile::check(data).map(|file| (file.dropped, file.evicted))
    }
}

/// Samples per event over `run`, saturating.
fn totals_of(run: &[(SampleBucket, u64)]) -> [u64; EVENTS] {
    let mut totals = [0u64; EVENTS];
    for (bucket, count) in run {
        let total = &mut totals[SampleDb::event_code(bucket.event) as usize];
        *total = total.saturating_add(*count);
    }
    totals
}

/// Sort `run` by bucket and sum the counts of each bucket into one
/// entry, saturating.
fn sort_and_sum(run: &mut Vec<(SampleBucket, u64)>) {
    run.sort_unstable_by_key(|(bucket, _)| *bucket);
    run.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = kept.1.saturating_add(next.1);
        }
        same
    });
}

/// How many leading entries of `sorted` order below `bucket`. The
/// search gallops from the front, so a merge step costs the log of the
/// distance it advances, not of the whole slice.
fn count_below(sorted: &[(SampleBucket, u64)], bucket: &SampleBucket) -> usize {
    let mut probe = 1;
    while probe <= sorted.len() && sorted[probe - 1].0 < *bucket {
        probe *= 2;
    }
    let from = probe / 2;
    let to = (probe - 1).min(sorted.len());
    from + sorted[from..to].partition_point(|(b, _)| b < bucket)
}

/// A sample database being written by many merges: the daemon's and
/// journal replay's. A merged bucket the
/// database already holds is counted in place, found by a galloping
/// search that resumes where the previous bucket of the (sorted) batch
/// was found. A new bucket goes to an unsorted staging run, which is
/// sorted, summed and merged into the database in one linear pass once
/// it outgrows it. So a merge costs about the log of the database per
/// bucket, never a pass over the whole database, and the compactions
/// of a session cost O(N log N) in all. Every read goes through
/// [`db`](Self::db), which compacts first.
///
/// A linear [`SampleDb::merge`] per batch costs a pass over the whole
/// database each time: on the stream_recover benchmark (a few thousand
/// buckets, hundreds of drains, a 2-core host) it raised the session's
/// median time by 20–23 % and the recovered report's by 35–37 %.
#[derive(Debug, Clone, Default)]
pub struct SampleAccumulator {
    db: SampleDb,
    /// Buckets the database did not hold when they were merged, in no
    /// order and possibly repeated; counted in `db`'s totals only once
    /// compacted.
    staged: Vec<(SampleBucket, u64)>,
}

impl SampleAccumulator {
    /// Merge `batch`: in place for each
    /// bucket the database holds, staged for the rest. The batch is in
    /// bucket order, so its buckets are searched in one forward sweep.
    pub fn merge(&mut self, batch: &SampleDb) {
        let db = &mut self.db;
        db.dropped = db.dropped.saturating_add(batch.dropped);
        db.evicted = db.evicted.saturating_add(batch.evicted);
        let mut rest = db.buckets.as_mut_slice();
        for &(bucket, count) in &batch.buckets {
            let below = count_below(rest, &bucket);
            rest = &mut rest[below..];
            match rest.first_mut() {
                Some((held, sum)) if *held == bucket => {
                    *sum = sum.saturating_add(count);
                    let total = &mut db.totals[SampleDb::event_code(bucket.event) as usize];
                    *total = total.saturating_add(count);
                }
                _ => self.staged.push((bucket, count)),
            }
        }
        if self.staged.len() > self.db.len() {
            self.compact();
        }
    }

    /// Sort and sum the staging run and merge it into the database.
    /// The run's allocation is freed with it: between compactions a
    /// session stages few buckets, and a kept allocation would hold
    /// the largest run staged so far.
    fn compact(&mut self) {
        let mut staged = std::mem::take(&mut self.staged);
        if staged.is_empty() {
            return;
        }
        sort_and_sum(&mut staged);
        self.db.merge_sorted(&staged);
    }

    /// The accumulated database, compacted.
    pub fn db(&mut self) -> &SampleDb {
        self.compact();
        &self.db
    }

    pub fn into_db(mut self) -> SampleDb {
        self.compact();
        self.db
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

    /// The records as a sorted, coalesced run. A file in bucket order
    /// decodes in one pass, summing a bucket that repeats in adjacent
    /// records; any record that sorts below its predecessor sends the
    /// whole run through sort and sum.
    fn sorted_run(&self) -> Vec<(SampleBucket, u64)> {
        // Sized from the checked records, never the header's count, so
        // a lying header cannot inflate the allocation.
        let mut run: Vec<(SampleBucket, u64)> = Vec::with_capacity(self.records.len() / RECORD_LEN);
        let mut in_order = true;
        for (bucket, count) in self.records() {
            let bucket = bucket.quantize();
            match run.last_mut() {
                Some(last) if last.0 == bucket => last.1 = last.1.saturating_add(count),
                last => {
                    in_order &= last.is_none_or(|last| last.0 < bucket);
                    run.push((bucket, count));
                }
            }
        }
        if !in_order {
            sort_and_sum(&mut run);
        }
        run
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
    fn event_codes_are_discriminants() {
        // Sample files store `e as u8`; reordering the enum or `ALL`
        // would silently relabel every stored sample.
        for (i, &e) in HwEvent::ALL.iter().enumerate() {
            assert_eq!(e as usize, i, "{e:?}");
            assert_eq!(SampleDb::event_from(SampleDb::event_code(e)), Ok(e));
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
        let sorted = db.buckets();
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
        sink.merge(&SampleDb::from_bytes(&bytes).unwrap());
        sink.merge(&back);
        assert_eq!(sink.buckets()[0].1, u64::MAX);
        assert_eq!(sink.dropped, u64::MAX);
        assert_eq!(sink.total_samples(), u64::MAX);
    }

    #[test]
    fn evictions_survive_serialization_and_merge() {
        // An older session's admission cap wrote a nonzero `evicted`
        // word; the reader keeps it through every path.
        let mut db = SampleDb::new();
        db.add(img_bucket(0x00, HwEvent::Cycles), 2);
        db.evicted = 3;
        let back = SampleDb::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.evicted, 3);
        assert_eq!(back.total_samples(), 2, "evicted samples never enter totals");

        let mut sink = SampleDb::new();
        sink.merge(&back);
        assert_eq!(sink.evicted, 3);
        let mut acc = SampleAccumulator::default();
        acc.merge(&back);
        acc.merge(&back);
        assert_eq!(acc.db().evicted, 6);
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
    fn from_samples_quantizes_sorts_and_counts() {
        let jit = |addr, epoch| SampleBucket {
            origin: SampleOrigin::JitApp { pid: Pid(9), gen: 0 },
            event: HwEvent::Cycles,
            addr,
            epoch,
        };
        // Raw (0x101, epoch 5) sorts below (0x102, epoch 1), but once
        // quantized to one line the epochs order them the other way.
        let mut samples = vec![jit(0x101, 5), jit(0x102, 1), jit(0x10f, 5), jit(0x20, 9)];
        let db = SampleDb::from_samples(&mut samples);
        let want = [(jit(0x20, 9), 1), (jit(0x100, 1), 1), (jit(0x100, 5), 2)];
        assert_eq!(db.buckets(), want);
        assert_eq!(db.total(HwEvent::Cycles), 4);
        let mut by_add = SampleDb::new();
        for s in [jit(0x101, 5), jit(0x102, 1), jit(0x10f, 5), jit(0x20, 9)] {
            by_add.add(s, 1);
        }
        assert_eq!(db, by_add);
        assert!(SampleDb::from_samples(&mut []).is_empty());
    }

    #[test]
    fn accumulator_equals_merging_every_batch() {
        let batches: Vec<SampleDb> = (0..40u64)
            .map(|i| {
                let mut batch = SampleDb::new();
                for j in 0..(i % 7) * 3 {
                    batch.add(img_bucket(((i * 37 + j * 11) % 50) * 0x10, HwEvent::Cycles), j);
                }
                batch.dropped = i % 3;
                batch
            })
            .collect();
        let mut want = SampleDb::new();
        let mut acc = SampleAccumulator::default();
        for (i, batch) in batches.iter().enumerate() {
            want.merge(batch);
            acc.merge(batch);
            if i % 9 == 0 {
                assert_eq!(acc.db(), &want, "a read after batch {i} sees every batch");
            }
        }
        assert_eq!(acc.db().total_samples(), want.total_samples());
        let db = acc.into_db();
        assert_eq!(db, want);
        assert_eq!(db.total_samples(), want.total_samples());
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
