//! Property tests for the causal span tracer (ISSUE 9):
//!
//! 1. Span-tree well-formedness: any interleaved begin/end schedule —
//!    at any store capacity, with parents picked freely among open
//!    spans (including ones the full store refused to record) —
//!    yields a snapshot whose ids are unique and nonzero, whose
//!    parents always resolve to an earlier recorded span, whose
//!    children inherit the root's trace id, whose `begin <= end`, and
//!    whose drop accounting is exact. Replaying the schedule on a
//!    fresh store reproduces the snapshot byte-for-byte.
//!
//! 2. Chrome-trace export round-trip: `from_chrome_json(to_chrome_json(s))`
//!    recovers the exact snapshot (names with quotes, backslashes,
//!    newlines, control characters and multi-byte UTF-8 included) and
//!    re-serialization is byte-identical — the determinism contract
//!    `viprof trace --chrome` relies on.

mod support;

use support::{check, Gen};
use viprof_repro::telemetry::trace::{SpanStore, TraceCtx, TraceSnapshot, TRACE_LAYERS};

/// Span names chosen to stress the JSON escaper: quotes, backslashes,
/// newlines, a raw control character and multi-byte UTF-8.
const NAMES: &[&str] = &[
    "span.nmi_window",
    "span.daemon_drain",
    "journal \"batch\"",
    "live\\extend",
    "gc\npause",
    "r\u{e9}solve \u{1} bell\u{7}",
];

const FIELD_KEYS: &[&str] = &["samples", "dropped", "weird \"key\"", "\u{3b1}\u{3b2}"];

/// One step of a random tracing schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Open a span: layer pick, name pick, parent pick (`None` = a new
    /// root, `Some(i)` = the `i % open`-th currently open span), and a
    /// clock advance.
    Begin {
        layer: usize,
        name: usize,
        parent: Option<usize>,
        dt: u64,
    },
    /// Close the `pick % open`-th open span with `fields` fields.
    End { pick: usize, fields: usize, dt: u64 },
}

/// Begins and ends at 3:2 odds.
fn op_strategy(g: &mut Gen) -> Vec<Op> {
    g.vec(1..120, |g| {
        if g.range(0u32..5) < 3 {
            Op::Begin {
                layer: g.range(0usize..16),
                name: g.range(0..NAMES.len()),
                parent: g.option(|g| g.range(0usize..8)),
                dt: g.range(0u64..1_000),
            }
        } else {
            Op::End {
                pick: g.range(0usize..8),
                fields: g.range(0..FIELD_KEYS.len() + 1),
                dt: g.range(0u64..1_000),
            }
        }
    })
}

/// Replay a schedule against a fresh store. Returns the snapshot plus
/// the number of `begin` calls issued (for drop accounting).
fn drive(ops: &[Op], capacity: usize) -> (TraceSnapshot, usize) {
    let mut store = SpanStore::new(capacity);
    let mut now = 0u64;
    let mut open: Vec<(TraceCtx, bool)> = Vec::new();
    let mut begins = 0usize;
    for op in ops {
        match op {
            Op::Begin {
                layer,
                name,
                parent,
                dt,
            } => {
                now += dt;
                let parent_ctx =
                    parent.and_then(|i| (!open.is_empty()).then(|| open[i % open.len()].0));
                let layer = TRACE_LAYERS[layer % TRACE_LAYERS.len()];
                let (ctx, recorded) =
                    store.begin(layer, NAMES[name % NAMES.len()], parent_ctx, now);
                begins += 1;
                open.push((ctx, recorded));
            }
            Op::End { pick, fields, dt } => {
                if open.is_empty() {
                    continue;
                }
                now += dt;
                let (ctx, recorded) = open.remove(pick % open.len());
                let kv: Vec<(&str, u64)> = FIELD_KEYS
                    .iter()
                    .take(*fields)
                    .enumerate()
                    .map(|(i, k)| (*k, now.wrapping_mul(i as u64 + 1)))
                    .collect();
                let dur = store.end(ctx, now, &kv);
                // A recorded span always closes; an evicted one never does.
                assert_eq!(dur.is_some(), recorded);
            }
        }
    }
    (store.snapshot(), begins)
}

#[test]
fn span_trees_are_well_formed() {
    check(
        "span_trees_are_well_formed",
        256,
        |g| (op_strategy(g), g.range(1usize..48)),
        |(ops, cap)| {
            let (snap, begins) = drive(&ops, cap);

            // Capacity and drop accounting are exact.
            assert!(snap.spans.len() <= cap);
            assert_eq!(snap.dropped as usize, begins - snap.spans.len());

            let mut seen: std::collections::HashSet<u64> = Default::default();
            for (i, s) in snap.spans.iter().enumerate() {
                assert_ne!(s.id, 0, "span ids are never 0 (0 means 'no parent')");
                assert!(seen.insert(s.id), "span ids are unique");
                assert!(s.begin <= s.end, "spans never end before they begin");
                assert_ne!(s.trace, 0, "trace ids are never 0");
                if i > 0 {
                    assert!(
                        snap.spans[i - 1].begin <= s.begin,
                        "snapshot is in begin order under a monotonic clock"
                    );
                }
                if s.parent != 0 {
                    // Parents always resolve: an evicted parent implies a
                    // full store, and a full store never records children.
                    let parent = snap.span(s.parent);
                    assert!(parent.is_some(), "recorded spans never orphaned");
                    let parent = parent.unwrap();
                    assert_eq!(
                        parent.trace, s.trace,
                        "children inherit the trace id of their root"
                    );
                }
            }

            // Every span is reachable from exactly one root by walking
            // children(); i.e. roots() + children() cover the snapshot.
            let mut reached = 0usize;
            let mut stack: Vec<u64> = snap.roots().iter().map(|r| r.id).collect();
            while let Some(id) = stack.pop() {
                reached += 1;
                stack.extend(snap.children(id).iter().map(|c| c.id));
            }
            assert_eq!(reached, snap.spans.len());

            // Duration histogram covers every span exactly once.
            let total: u64 = snap.duration_buckets(None).iter().map(|(_, n)| n).sum();
            assert_eq!(total, snap.spans.len() as u64);

            // Replaying the schedule is deterministic down to the bytes.
            let (again, _) = drive(&ops, cap);
            assert_eq!(&again, &snap);
            assert_eq!(again.to_chrome_json(), snap.to_chrome_json());
        },
    );
}

#[test]
fn chrome_json_round_trips() {
    check(
        "chrome_json_round_trips",
        256,
        |g| (op_strategy(g), g.range(1usize..48)),
        |(ops, cap)| {
            let (snap, _) = drive(&ops, cap);
            let text = snap.to_chrome_json();
            let parsed = TraceSnapshot::from_chrome_json(&text);
            assert!(parsed.is_ok(), "export parses: {:?}", parsed.err());
            let parsed = parsed.unwrap();
            assert_eq!(&parsed, &snap, "round-trip recovers the snapshot");
            assert_eq!(
                parsed.to_chrome_json(),
                text,
                "canonical form is a fixed point"
            );
        },
    );
}
