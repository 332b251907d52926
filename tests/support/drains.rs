//! One record per drain: the checks a finished session's exports must
//! pass for every drain to have written exactly one span and one
//! timeline window.

use viprof_repro::oprofile::{SAMPLE_JOURNAL_PATH, TELEMETRY_PATH, TIMELINE_PATH, TRACE_PATH};
use viprof_repro::sim_os::{journal, Vfs};
use viprof_repro::telemetry::{names, SpanRecord, TelemetrySnapshot, Timeline, TraceSnapshot};

/// Names of the spans the daemon no longer writes; old exports carry
/// them, a session recorded now must not.
const RETIRED_SPANS: [&str; 2] = ["span.nmi_window", "span.journal_batch"];

/// The spans that record a drain: timer drains and the final flush
/// (`span.daemon_drain`) and supervisor catch-ups
/// (`span.supervisor_redrain`), in drain order.
pub fn drain_spans(trace: &TraceSnapshot) -> Vec<&SpanRecord> {
    trace
        .spans
        .iter()
        .filter(|s| s.name == names::SPAN_DAEMON_DRAIN || s.name == names::SPAN_SUPERVISOR_REDRAIN)
        .collect()
}

/// A drain span's field, which every drain span carries.
pub fn field(span: &SpanRecord, key: &str) -> u64 {
    span.field(key)
        .unwrap_or_else(|| panic!("{} at {} has no `{key}`", span.name, span.begin))
}

/// Check a finished session's exported telemetry, trace, timeline and
/// sample journal in `vfs` for one record per drain:
///
/// * the drain and redrain spans number `daemon.drains`, and so do the
///   timeline's samples; no NMI-window or journal-batch span exists;
/// * the drains close the timeline's windows in order, each window
///   at its last drain's end (one drain per window, unless the bounded
///   ring coalesced old windows), and a window's counter deltas are
///   its drains' fields summed: pushes are `samples + dead` (the ring
///   occupancy each drain found), overflow is `dropped - dead`,
///   dead-generation drops are `dead`;
/// * each drain's `window` is the previous drain's begin;
/// * every traced journal record names a recorded drain or redrain
///   span whose `seq` is the record's, and only journaled drains carry
///   a `seq`.
///
/// Returns the drain spans' `(dropped, dead)` totals and the number of
/// redrains, so a caller can show the scenario exercised them.
pub fn assert_one_record_per_drain(vfs: &Vfs) -> (u64, u64, usize) {
    let read = |path: &str| {
        let raw = vfs
            .read(path)
            .unwrap_or_else(|| panic!("no {path} in the session"));
        String::from_utf8(raw.to_vec()).expect("exported JSON is UTF-8")
    };
    let telemetry = TelemetrySnapshot::from_json(&read(TELEMETRY_PATH)).expect("telemetry parses");
    let trace = TraceSnapshot::from_chrome_json(&read(TRACE_PATH)).expect("trace parses");
    let timeline = Timeline::from_json(&read(TIMELINE_PATH)).expect("timeline parses");
    assert_eq!(trace.dropped, 0, "the span store kept every span");

    let drains = drain_spans(&trace);
    let n = drains.len() as u64;
    assert_eq!(
        n,
        telemetry.counter(names::DAEMON_DRAINS),
        "one span per drain"
    );
    assert_eq!(n, timeline.samples(), "one timeline sample per drain");
    for s in &trace.spans {
        assert!(
            !RETIRED_SPANS.contains(&s.name.as_str()),
            "{} recorded",
            s.name
        );
    }

    let mut rest = drains.as_slice();
    for window in timeline.windows() {
        let (group, tail) = rest.split_at(window.samples as usize);
        rest = tail;
        let last = group.last().expect("every window holds a drain");
        let at = window.cycles;
        assert_eq!(
            last.end, at,
            "the window at {at} closes with its last drain"
        );
        let sum = |key: &str| group.iter().map(|s| field(s, key)).sum::<u64>();
        let (dropped, dead) = (sum("dropped"), sum("dead"));
        assert_eq!(
            sum("samples") + dead,
            window.delta(names::BUFFER_PUSHED),
            "window at {at}: samples + dead is the ring occupancy"
        );
        assert_eq!(
            dropped - dead,
            window.delta(names::BUFFER_DROPPED),
            "window at {at}"
        );
        assert_eq!(
            dead,
            window.delta(names::DAEMON_DEAD_GEN_DROPPED),
            "window at {at}"
        );
    }
    for pair in drains.windows(2) {
        assert_eq!(
            field(pair[1], "window"),
            pair[0].begin,
            "a window begins at the last drain"
        );
    }

    let mut traced = 0u64;
    if let Some(scan) = journal::scan(vfs, SAMPLE_JOURNAL_PATH) {
        for rec in &scan.records {
            let Some(Ok((Some(ctx), _))) = rec.sample_batch() else {
                continue;
            };
            traced += 1;
            let span = trace
                .span(ctx.span)
                .unwrap_or_else(|| panic!("record seq {} names no recorded span", rec.seq));
            assert!(
                drains.iter().any(|d| d.id == span.id),
                "record seq {} names {}",
                rec.seq,
                span.name
            );
            assert_eq!(span.trace, ctx.trace, "record seq {}", rec.seq);
            assert_eq!(span.field("seq"), Some(rec.seq), "record seq {}", rec.seq);
        }
    }
    let with_seq = drains.iter().filter(|d| d.field("seq").is_some()).count() as u64;
    assert_eq!(with_seq, traced, "only journaled drains carry a seq");
    assert_eq!(traced, telemetry.counter(names::DAEMON_BATCHES_JOURNALED));

    let redrains = drains
        .iter()
        .filter(|d| d.name == names::SPAN_SUPERVISOR_REDRAIN)
        .count();
    let total = |key: &str| drains.iter().map(|s| field(s, key)).sum::<u64>();
    (total("dropped"), total("dead"), redrains)
}
