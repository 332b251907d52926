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
#[derive(Debug, Clone, Default)]
pub struct SampleDb {
    /// Sorted by bucket, no bucket twice.
    buckets: Vec<(SampleBucket, u64)>,
    /// Samples per event, indexed by event code.
    totals: [u64; EVENTS],
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
        self.buckets == other.buckets
            && self.dropped == other.dropped
            && self.evicted == other.evicted
    }
}

impl SampleDb {
    pub fn new() -> Self {
        SampleDb::default()
    }

    /// A database of one sample per entry of `samples`, the way each
    /// drained batch is built: the samples are quantized as
    /// [`add`](Self::add) quantizes them and sorted in place, then each
    /// run of equal buckets is counted once. The database is allocated
    /// for its distinct buckets only and has no admission cap.
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

    /// Bound the database to at most `cap` distinct buckets. Samples
    /// for existing buckets always accumulate; samples that would mint
    /// a new bucket past the cap are counted in `evicted` instead.
    pub fn set_admission_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
    }

    pub fn admission_cap(&self) -> Option<usize> {
        self.cap
    }

    fn at_cap(&self, held: usize) -> bool {
        self.cap.is_some_and(|cap| held >= cap)
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
            Err(_) if self.at_cap(self.buckets.len()) => {
                self.evicted = self.evicted.saturating_add(n);
                return;
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

    /// Merge `other` in one pass over both databases. Under an
    /// admission cap, new buckets are admitted in bucket order.
    pub fn merge(&mut self, other: &SampleDb) {
        let refused = self.merge_sorted(&other.buckets, |_| {});
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.evicted = self
            .evicted
            .saturating_add(other.evicted)
            .saturating_add(refused);
    }

    /// Merge a drained batch and trim it to what was admitted: buckets
    /// the admission cap refused leave `batch`, and their samples move
    /// to its `evicted` count, as they do to `self`'s. So the trimmed
    /// batch, merged into an uncapped database, adds exactly what it
    /// added here.
    pub(crate) fn merge_admitted(&mut self, batch: &mut SampleDb) {
        let mut refused_at = Vec::new();
        let refused = self.merge_sorted(&batch.buckets, |i| refused_at.push(i));
        batch.evicted = batch.evicted.saturating_add(refused);
        self.dropped = self.dropped.saturating_add(batch.dropped);
        self.evicted = self.evicted.saturating_add(batch.evicted);
        if !refused_at.is_empty() {
            let mut refused_at = refused_at.into_iter().peekable();
            let mut at = 0;
            batch.buckets.retain(|_| {
                let keep = refused_at.next_if_eq(&at).is_none();
                at += 1;
                keep
            });
            batch.totals = totals_of(&batch.buckets);
        }
    }

    /// Merge `run`, sorted and coalesced, in one pass. New buckets are
    /// admitted in run order while the admission cap has room;
    /// `refused` hears the index of each run entry it turns away.
    /// Returns the samples refused; the caller counts them as evicted.
    fn merge_sorted(&mut self, run: &[(SampleBucket, u64)], mut refused: impl FnMut(usize)) -> u64 {
        if run.is_empty() {
            return 0;
        }
        let old = std::mem::take(&mut self.buckets);
        let mut merged = Vec::with_capacity(old.len() + run.len());
        let mut rest = old.as_slice();
        let mut held = old.len();
        let mut evicted = 0u64;
        for (i, &(bucket, count)) in run.iter().enumerate() {
            let below = count_below(rest, &bucket);
            merged.extend_from_slice(&rest[..below]);
            rest = &rest[below..];
            match rest.first() {
                Some(&(b, c)) if b == bucket => {
                    merged.push((b, c.saturating_add(count)));
                    rest = &rest[1..];
                }
                _ if self.at_cap(held) => {
                    evicted = evicted.saturating_add(count);
                    refused(i);
                    continue;
                }
                _ => {
                    merged.push((bucket, count));
                    held += 1;
                }
            }
            self.add_total(bucket.event, count);
        }
        merged.extend_from_slice(rest);
        self.buckets = merged;
        evicted
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

    /// Merge a serialized sample file into `self`, all or nothing: the
    /// whole file is checked first, so on `Err` `self` is unchanged.
    /// The result equals `self.merge(&SampleDb::from_bytes(data)?)`,
    /// except that under an admission cap records are admitted in
    /// file order (bucket order, for a file this crate wrote).
    pub fn merge_from_bytes(&mut self, data: &[u8]) -> Result<(), String> {
        let file = CheckedFile::check(data)?;
        if self.cap.is_some() {
            for (bucket, count) in file.records() {
                self.add(bucket, count);
            }
        } else {
            self.merge_sorted(&file.sorted_run(), |_| {});
        }
        self.dropped = self.dropped.saturating_add(file.dropped);
        self.evicted = self.evicted.saturating_add(file.evicted);
        Ok(())
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
///
/// Under an admission cap nothing is staged: admission depends on the
/// buckets the database already holds, so the daemon's capped drains
/// go through `merge_admitted`, which merges at once.
/// [`merge`](Self::merge) is for uncapped accumulators only.
#[derive(Debug, Clone, Default)]
pub struct SampleAccumulator {
    db: SampleDb,
    /// Buckets the database did not hold when they were merged, in no
    /// order and possibly repeated; counted in `db`'s totals only once
    /// compacted.
    staged: Vec<(SampleBucket, u64)>,
}

impl SampleAccumulator {
    pub fn new(cap: Option<usize>) -> SampleAccumulator {
        let mut db = SampleDb::new();
        db.set_admission_cap(cap);
        SampleAccumulator {
            db,
            staged: Vec::new(),
        }
    }

    /// Merge `batch` into an uncapped accumulator: in place for each
    /// bucket the database holds, staged for the rest. The batch is in
    /// bucket order, so its buckets are searched in one forward sweep.
    pub fn merge(&mut self, batch: &SampleDb) {
        debug_assert!(self.db.cap.is_none(), "a capped accumulator merges through merge_admitted");
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

    /// [`SampleDb::merge_admitted`] into the accumulated database.
    /// Uncapped, every bucket is admitted and `batch` stays as it is.
    pub(crate) fn merge_admitted(&mut self, batch: &mut SampleDb) {
        match self.db.cap {
            Some(_) => self.db.merge_admitted(batch),
            None => self.merge(batch),
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
        self.db.merge_sorted(&staged, |_| {});
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
        sink.merge_from_bytes(&bytes).unwrap();
        sink.merge(&back);
        assert_eq!(sink.buckets()[0].1, u64::MAX);
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

    /// Ten distinct buckets, counts 1..=10, added highest first.
    fn ten_buckets() -> SampleDb {
        let mut batch = SampleDb::new();
        for i in (0..10u64).rev() {
            batch.add(img_bucket(i * 0x10, HwEvent::Cycles), i + 1);
        }
        batch
    }

    fn capped(cap: usize) -> SampleDb {
        let mut db = SampleDb::new();
        db.set_admission_cap(Some(cap));
        db.add(img_bucket(0x50, HwEvent::Cycles), 100);
        db
    }

    #[test]
    fn capped_merge_admits_in_bucket_order_like_the_file_reader() {
        let batch = ten_buckets();
        let mut merged = capped(3);
        merged.merge(&batch);
        for _ in 0..20 {
            let mut again = capped(3);
            again.merge(&batch);
            assert_eq!(again, merged, "identical inputs admit identical buckets");
        }
        let held: Vec<u64> = merged.iter().map(|(b, _)| b.addr).collect();
        assert_eq!(held, [0x00, 0x10, 0x50], "the lowest new buckets, then the held one");
        assert_eq!(merged.buckets()[2].1, 106, "a held bucket always accumulates");
        assert_eq!(merged.evicted, 55 - 1 - 2 - 6);
        let mut from_file = capped(3);
        from_file.merge_from_bytes(&batch.to_bytes()).unwrap();
        assert_eq!(from_file, merged, "merge ≡ merge_from_bytes under a cap");
        assert_eq!(from_file.total_samples(), merged.total_samples());
    }

    #[test]
    fn merge_admitted_trims_the_batch_to_what_replays() {
        let mut db = capped(3);
        let mut batch = ten_buckets();
        batch.dropped = 4;
        db.merge_admitted(&mut batch);
        let held: Vec<u64> = batch.iter().map(|(b, _)| b.addr).collect();
        assert_eq!(held, [0x00, 0x10, 0x50], "refused buckets leave the batch");
        assert_eq!(batch.total_samples(), 1 + 2 + 6);
        assert_eq!(batch.evicted, 55 - 1 - 2 - 6);
        assert_eq!(db.evicted, batch.evicted);
        // Replaying the trimmed batch over what the database held
        // before it rebuilds the database, with nothing counted twice.
        let mut replayed = SampleDb::new();
        replayed.add(img_bucket(0x50, HwEvent::Cycles), 100);
        replayed.merge(&batch);
        assert_eq!(replayed, db);
        assert_eq!(replayed.total_samples(), db.total_samples());
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
    fn capped_accumulator_merges_at_once() {
        let mut acc = SampleAccumulator::new(Some(3));
        acc.merge_admitted(&mut capped(3));
        let mut batch = ten_buckets();
        acc.merge_admitted(&mut batch);
        let mut direct = capped(3);
        direct.merge(&ten_buckets());
        assert_eq!(acc.db(), &direct);
        assert_eq!(batch.len(), 3);
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
