//! Deterministic span tracer: the causal layer between the flight
//! recorder and the report.
//!
//! Counters say *how much* each pipeline stage lost; spans say *where
//! in the causal chain* it happened. Every batch boundary — a
//! ring-buffer drain (which its journal record names), a supervisor
//! redrain, a live cache reload, a resolve pass —
//! opens a span that links to its parent, so a sample's whole vertical
//! path (paper §1's "vertically integrated" claim, applied to the
//! profiler itself) is reconstructible after the fact.
//!
//! Determinism contract, same as the rest of the crate:
//!
//! * **No wall clock.** Timestamps come from the published sim clock
//!   ([`crate::Telemetry::now`]) or from caller-supplied work units;
//!   two same-seed runs emit bit-identical traces.
//! * **Derived IDs.** A span id is a [`mix64`]-finalized bijection of
//!   `(layer code << 48) | per-layer sequence`; a root's trace id
//!   additionally folds in its begin cycle (the seeded sim clock), so
//!   ids replay without any global randomness.
//! * **Bounded, drop-newest.** The store holds at most `capacity`
//!   spans. Once full it stays full and every later begin is counted
//!   in `dropped` — never recorded — so a recorded span can never
//!   reference an evicted parent and every exported tree is
//!   well-formed (the property `tests/prop_trace.rs` pins).
//!
//! The Chrome trace-event export ([`TraceSnapshot::to_chrome_json`])
//! is canonical hand-rolled JSON like [`crate::export`]: integers and
//! sorted-at-source ordering only, byte-identical per seed, loadable
//! in `chrome://tracing` / Perfetto, and parseable back via
//! [`TraceSnapshot::from_chrome_json`].

use crate::json::{get, parse_json, JsonWriter};
use crate::metrics::{bucket_of, BUCKETS};
use std::collections::HashMap;

/// One causal position: the trace a span belongs to and the span
/// itself. Threaded by value through every batch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    pub trace: u64,
    pub span: u64,
}

/// Pipeline layer a span belongs to. The numeric code is part of the
/// export format (Chrome `tid`) and of span-id derivation — append
/// only, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLayer {
    /// Session install → stop (the root).
    Session,
    /// One NMI sampling window (between two drains). Nothing opens
    /// these any more — the drain span's `window` field holds the
    /// window's begin — but older exports carry them.
    Nmi,
    /// One daemon ring-buffer drain.
    Drain,
    /// One journal batch append. Nothing opens these any more — the
    /// journal record names its drain span — but older exports carry
    /// them, and lineage rows read from the journal use this layer.
    Journal,
    /// A supervisor catch-up redrain after a restart.
    Redrain,
    /// Live-cache reloads.
    Live,
    /// Agent map writes.
    Agent,
    /// VM activity observed by the session (GC pauses).
    Vm,
    /// Offline/live resolution pass.
    Resolve,
}

/// Every layer, in code order (`code = index + 1`).
pub const TRACE_LAYERS: [TraceLayer; 9] = [
    TraceLayer::Session,
    TraceLayer::Nmi,
    TraceLayer::Drain,
    TraceLayer::Journal,
    TraceLayer::Redrain,
    TraceLayer::Live,
    TraceLayer::Agent,
    TraceLayer::Vm,
    TraceLayer::Resolve,
];

impl TraceLayer {
    /// Stable numeric code (1-based; 0 is reserved for "no span").
    pub fn code(self) -> u64 {
        match self {
            TraceLayer::Session => 1,
            TraceLayer::Nmi => 2,
            TraceLayer::Drain => 3,
            TraceLayer::Journal => 4,
            TraceLayer::Redrain => 5,
            TraceLayer::Live => 6,
            TraceLayer::Agent => 7,
            TraceLayer::Vm => 8,
            TraceLayer::Resolve => 9,
        }
    }

    /// Stable lowercase name (the Chrome `cat` field).
    pub fn label(self) -> &'static str {
        match self {
            TraceLayer::Session => "session",
            TraceLayer::Nmi => "nmi",
            TraceLayer::Drain => "drain",
            TraceLayer::Journal => "journal",
            TraceLayer::Redrain => "redrain",
            TraceLayer::Live => "live",
            TraceLayer::Agent => "agent",
            TraceLayer::Vm => "vm",
            TraceLayer::Resolve => "resolve",
        }
    }

    /// Inverse of [`Self::code`].
    pub fn from_code(code: u64) -> Option<TraceLayer> {
        TRACE_LAYERS.get(code.checked_sub(1)? as usize).copied()
    }
}

/// One recorded span. `parent == 0` marks a trace root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub layer: TraceLayer,
    pub name: String,
    /// Virtual cycles (or work units) at begin/end; `begin <= end`.
    pub begin: u64,
    pub end: u64,
    pub fields: Vec<(String, u64)>,
}

impl SpanRecord {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }

    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix, so structured
/// inputs (layer code + sequence) become well-spread ids while staying
/// collision-free.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Default bound on recorded spans per store.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Bounded deterministic span store. Owned by a registry (behind its
/// mutex) for the runtime pipeline, or used standalone for the resolve
/// pass's local trace.
#[derive(Debug)]
pub struct SpanStore {
    spans: Vec<SpanRecord>,
    /// id → index into `spans`, for `end` updates.
    index: HashMap<u64, usize>,
    /// Per-layer sequence counters (index = code - 1), starting at 1
    /// so the mixed id is never 0.
    seq: [u64; TRACE_LAYERS.len()],
    capacity: usize,
    dropped: u64,
    /// First root opened (the session root, discoverable by layers
    /// that only hold a registry handle).
    root: Option<TraceCtx>,
}

impl Default for SpanStore {
    fn default() -> Self {
        SpanStore::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanStore {
    pub fn new(capacity: usize) -> SpanStore {
        SpanStore {
            spans: Vec::new(),
            index: HashMap::new(),
            seq: [0; TRACE_LAYERS.len()],
            capacity: capacity.max(1),
            dropped: 0,
            root: None,
        }
    }

    /// Open a span at `now`. Returns the new context and whether it
    /// was recorded (`false` once the store is full — the id is still
    /// allocated, so the sequence stream replays identically either
    /// way, but nothing downstream can reference an evicted parent
    /// because a full store never records again).
    pub fn begin(
        &mut self,
        layer: TraceLayer,
        name: &str,
        parent: Option<TraceCtx>,
        now: u64,
    ) -> (TraceCtx, bool) {
        let slot = (layer.code() - 1) as usize;
        self.seq[slot] += 1;
        let id = mix64((layer.code() << 48) | self.seq[slot]);
        let trace = match parent {
            Some(p) => p.trace,
            None => {
                let t = mix64(id ^ mix64(now ^ 0x9E37_79B9_7F4A_7C15));
                if t == 0 {
                    1
                } else {
                    t
                }
            }
        };
        let ctx = TraceCtx { trace, span: id };
        if parent.is_none() && self.root.is_none() {
            self.root = Some(ctx);
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return (ctx, false);
        }
        self.index.insert(id, self.spans.len());
        self.spans.push(SpanRecord {
            id,
            parent: parent.map_or(0, |p| p.span),
            trace,
            layer,
            name: name.to_string(),
            begin: now,
            end: now,
            fields: Vec::new(),
        });
        (ctx, true)
    }

    /// Close a span at `now`, attaching `fields`. Returns the span's
    /// duration, or `None` when the span was never recorded (dropped
    /// at begin, or a foreign id).
    pub fn end(&mut self, ctx: TraceCtx, now: u64, fields: &[(&str, u64)]) -> Option<u64> {
        let i = *self.index.get(&ctx.span)?;
        let span = &mut self.spans[i];
        span.end = span.begin.max(now);
        span.fields
            .extend(fields.iter().map(|(k, v)| (k.to_string(), *v)));
        Some(span.duration())
    }

    /// The first root opened in this store (the session root).
    pub fn root(&self) -> Option<TraceCtx> {
        self.root
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans that arrived after the store filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Materialize into ordered plain data (begin order).
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            spans: self.spans.clone(),
            dropped: self.dropped,
        }
    }
}

/// Materialized trace: plain ordered data, embeddable in reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// Recorded spans in begin order.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped because the store was full.
    pub dropped: u64,
}

impl TraceSnapshot {
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Trace roots (spans with no parent), in begin order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == 0).collect()
    }

    /// Direct children of `id`, in begin order.
    pub fn children(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Chrome trace-event JSON (complete-event `ph:"X"` records; `ts`
    /// and `dur` are virtual cycles, `tid` is the layer code).
    /// Canonical: same snapshot → same bytes.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.key("traceEvents");
        w.arr_open();
        for s in &self.spans {
            w.obj_open();
            w.key("name");
            w.str(&s.name);
            w.key("cat");
            w.str(s.layer.label());
            w.key("ph");
            w.str("X");
            w.key("ts");
            w.num(s.begin);
            w.key("dur");
            w.num(s.duration());
            w.key("pid");
            w.num(1);
            w.key("tid");
            w.num(s.layer.code());
            w.key("args");
            w.obj_open();
            w.key("id");
            w.num(s.id);
            w.key("parent");
            w.num(s.parent);
            w.key("trace");
            w.num(s.trace);
            for (k, v) in &s.fields {
                w.key(&format!("f.{k}"));
                w.num(*v);
            }
            w.obj_close();
            w.obj_close();
        }
        w.arr_close();
        w.key("otherData");
        w.obj_open();
        w.key("spans_dropped");
        w.num(self.dropped);
        w.obj_close();
        w.obj_close();
        w.finish()
    }

    /// Parse a trace previously written by [`Self::to_chrome_json`].
    /// Round-trips exactly: `from(to(x)) == x`.
    pub fn from_chrome_json(text: &str) -> Result<TraceSnapshot, String> {
        let root = parse_json(text)?;
        let top = root.as_obj("top level")?;
        let mut snap = TraceSnapshot::default();
        for v in get(top, "traceEvents")?.as_arr("traceEvents")? {
            let e = v.as_obj("event")?;
            let tid = get(e, "tid")?.as_num("tid")?;
            let layer = TraceLayer::from_code(tid)
                .ok_or_else(|| format!("unknown layer code {tid}"))?;
            let args = get(e, "args")?.as_obj("args")?;
            let mut fields = Vec::new();
            for (k, fv) in args {
                if let Some(name) = k.strip_prefix("f.") {
                    fields.push((name.to_string(), fv.as_num(k)?));
                }
            }
            let begin = get(e, "ts")?.as_num("ts")?;
            let end = begin
                .checked_add(get(e, "dur")?.as_num("dur")?)
                .ok_or("span ends past the clock's range")?;
            snap.spans.push(SpanRecord {
                id: get(args, "id")?.as_num("id")?,
                parent: get(args, "parent")?.as_num("parent")?,
                trace: get(args, "trace")?.as_num("trace")?,
                layer,
                name: get(e, "name")?.as_str("name")?.to_string(),
                begin,
                end,
                fields,
            });
        }
        let other = get(top, "otherData")?.as_obj("otherData")?;
        snap.dropped = get(other, "spans_dropped")?.as_num("spans_dropped")?;
        Ok(snap)
    }

    /// Log2 histogram of span durations for spans named `name` (all
    /// spans when `None`), as `(bucket, count)` pairs — the shape
    /// [`crate::export::log2_rows`] renders.
    pub fn duration_buckets(&self, name: Option<&str>) -> Vec<(usize, u64)> {
        let mut counts = [0u64; BUCKETS];
        for s in &self.spans {
            if name.is_none_or(|n| s.name == n) {
                counts[bucket_of(s.duration())] += 1;
            }
        }
        (0..BUCKETS)
            .filter_map(|k| (counts[k] > 0).then_some((k, counts[k])))
            .collect()
    }
}

// ---------------- lineage ----------------

/// Loss-bucket names, matching `ResolutionQuality`'s loss fields.
pub const LINEAGE_DROPPED: &str = "dropped";
pub const LINEAGE_EVICTED: &str = "evicted";
pub const LINEAGE_QUARANTINED: &str = "quarantined";
pub const LINEAGE_BLOCKED: &str = "blocked";

/// All loss buckets, in accounting order.
pub const LINEAGE_BUCKETS: [&str; 4] = [
    LINEAGE_DROPPED,
    LINEAGE_EVICTED,
    LINEAGE_QUARANTINED,
    LINEAGE_BLOCKED,
];

/// One attribution row: `samples` of loss bucket `bucket` occurred at
/// span `span` of trace `trace` (0 = unattributed: the loss predates
/// tracing, e.g. untagged v1 journal records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEntry {
    pub bucket: &'static str,
    pub layer: TraceLayer,
    pub trace: u64,
    pub span: u64,
    /// Human label for the causal site ("journal batch seq 7",
    /// "pid 3 gen 1", ...).
    pub label: String,
    pub samples: u64,
}

/// The report's lineage table: every `ResolutionQuality` loss bucket
/// decomposed by causal span. Totals reconcile *exactly* — per bucket,
/// the entry sum equals the quality count (the fault-matrix invariant).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineageTable {
    pub entries: Vec<LineageEntry>,
}

impl LineageTable {
    pub fn push(
        &mut self,
        bucket: &'static str,
        layer: TraceLayer,
        ctx: Option<TraceCtx>,
        label: impl Into<String>,
        samples: u64,
    ) {
        if samples == 0 {
            return;
        }
        self.entries.push(LineageEntry {
            bucket,
            layer,
            trace: ctx.map_or(0, |c| c.trace),
            span: ctx.map_or(0, |c| c.span),
            label: label.into(),
            samples,
        });
    }

    /// Sum of one bucket's entries.
    pub fn total(&self, bucket: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.bucket == bucket)
            .map(|e| e.samples)
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Aligned human rendering (the `viprof report --lineage` footer).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for bucket in LINEAGE_BUCKETS {
            let rows: Vec<&LineageEntry> =
                self.entries.iter().filter(|e| e.bucket == bucket).collect();
            if rows.is_empty() {
                continue;
            }
            let total: u64 = rows.iter().map(|e| e.samples).sum();
            out.push_str(&format!("{bucket}: {total} sample(s)\n"));
            for e in rows {
                let site = if e.span == 0 {
                    "(untraced)".to_string()
                } else {
                    format!("span {:016x}", e.span)
                };
                out.push_str(&format!(
                    "  {:<10} {:<28} {} {}\n",
                    e.layer.label(),
                    e.label,
                    e.samples,
                    site
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_and_layer_scoped() {
        let run = || {
            let mut s = SpanStore::new(16);
            let (root, _) = s.begin(TraceLayer::Session, "session", None, 100);
            let (a, _) = s.begin(TraceLayer::Drain, "drain", Some(root), 200);
            let (b, _) = s.begin(TraceLayer::Drain, "drain", Some(root), 300);
            (root, a, b)
        };
        let (r1, a1, b1) = run();
        let (r2, a2, b2) = run();
        assert_eq!((r1, a1, b1), (r2, a2, b2), "same inputs, same ids");
        assert_ne!(a1.span, b1.span, "sequence numbers separate siblings");
        assert_eq!(a1.trace, r1.trace, "children inherit the trace id");
        assert_ne!(r1.span, 0);
        assert_ne!(r1.trace, 0);
    }

    #[test]
    fn root_trace_id_folds_in_the_clock() {
        let mut a = SpanStore::new(4);
        let mut b = SpanStore::new(4);
        let (ra, _) = a.begin(TraceLayer::Session, "session", None, 100);
        let (rb, _) = b.begin(TraceLayer::Session, "session", None, 900);
        assert_eq!(ra.span, rb.span, "same layer+seq, same span id");
        assert_ne!(ra.trace, rb.trace, "begin cycle differentiates traces");
    }

    #[test]
    fn full_store_drops_newest_and_never_records_again() {
        let mut s = SpanStore::new(2);
        let (root, rec) = s.begin(TraceLayer::Session, "session", None, 0);
        assert!(rec);
        let (_, rec) = s.begin(TraceLayer::Drain, "d1", Some(root), 1);
        assert!(rec);
        let (late, rec) = s.begin(TraceLayer::Drain, "d2", Some(root), 2);
        assert!(!rec, "store is full");
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.end(late, 9, &[]), None, "dropped spans cannot close");
        // Recorded spans still close normally.
        assert_eq!(s.end(root, 10, &[("k", 3)]), Some(10));
        let snap = s.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.dropped, 1);
        // Every recorded span's parent is 0 or recorded (drop-newest
        // keeps trees closed under parenthood).
        for span in &snap.spans {
            assert!(span.parent == 0 || snap.span(span.parent).is_some());
        }
    }

    #[test]
    fn end_clamps_and_attaches_fields() {
        let mut s = SpanStore::new(4);
        let (ctx, _) = s.begin(TraceLayer::Nmi, "window", None, 500);
        assert_eq!(s.end(ctx, 400, &[]), Some(0), "never negative durations");
        let snap = s.snapshot();
        assert_eq!(snap.spans[0].end, 500);
        let (ctx2, _) = s.begin(TraceLayer::Nmi, "window", None, 600);
        s.end(ctx2, 700, &[("samples", 12)]);
        assert_eq!(s.snapshot().spans[1].field("samples"), Some(12));
    }

    #[test]
    fn chrome_json_round_trips_exactly() {
        let mut s = SpanStore::new(8);
        let (root, _) = s.begin(TraceLayer::Session, "session", None, 10);
        let (d, _) = s.begin(TraceLayer::Drain, "daemon.drain", Some(root), 20);
        s.end(d, 45, &[("samples", 7), ("dropped", 1)]);
        s.end(root, 90, &[]);
        let snap = s.snapshot();
        let json = snap.to_chrome_json();
        let back = TraceSnapshot::from_chrome_json(&json).expect("parse back");
        assert_eq!(back, snap);
        assert_eq!(back.to_chrome_json(), json, "re-export is byte-identical");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"spans_dropped\":0"));
    }

    #[test]
    fn chrome_json_is_deterministic() {
        let build = || {
            let mut s = SpanStore::new(8);
            let (root, _) = s.begin(TraceLayer::Session, "session", None, 5);
            let (j, _) = s.begin(TraceLayer::Journal, "journal.batch", Some(root), 6);
            s.end(j, 8, &[("seq", 0)]);
            s.snapshot().to_chrome_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn snapshot_tree_accessors() {
        let mut s = SpanStore::new(8);
        let (root, _) = s.begin(TraceLayer::Session, "session", None, 0);
        let (w, _) = s.begin(TraceLayer::Nmi, "window", Some(root), 1);
        let (_d, _) = s.begin(TraceLayer::Drain, "drain", Some(w), 2);
        let snap = s.snapshot();
        assert_eq!(snap.roots().len(), 1);
        assert_eq!(snap.children(root.span).len(), 1);
        assert_eq!(snap.children(w.span)[0].layer, TraceLayer::Drain);
        assert_eq!(snap.duration_buckets(None).len(), 1, "all zero-length");
    }

    #[test]
    fn layer_codes_round_trip() {
        for layer in TRACE_LAYERS {
            assert_eq!(TraceLayer::from_code(layer.code()), Some(layer));
        }
        assert_eq!(TraceLayer::from_code(0), None);
        assert_eq!(TraceLayer::from_code(99), None);
    }

    #[test]
    fn lineage_totals_and_rendering() {
        let mut t = LineageTable::default();
        let ctx = TraceCtx { trace: 9, span: 7 };
        t.push(LINEAGE_DROPPED, TraceLayer::Drain, Some(ctx), "batch seq 0", 5);
        t.push(LINEAGE_DROPPED, TraceLayer::Drain, None, "untraced", 2);
        t.push(LINEAGE_BLOCKED, TraceLayer::Resolve, None, "pid 3 gen 1", 4);
        t.push(LINEAGE_EVICTED, TraceLayer::Drain, Some(ctx), "ignored", 0);
        assert_eq!(t.total(LINEAGE_DROPPED), 7);
        assert_eq!(t.total(LINEAGE_BLOCKED), 4);
        assert_eq!(t.total(LINEAGE_EVICTED), 0, "zero rows are elided");
        assert_eq!(t.entries.len(), 3);
        let text = t.render_text();
        assert!(text.contains("dropped: 7 sample(s)"));
        assert!(text.contains("(untraced)"));
        assert!(text.contains("pid 3 gen 1"));
    }
}
