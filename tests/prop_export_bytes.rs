//! Adversarial bytes against the session's trace and timeline exports.
//!
//! [`Gen::mutate`] damages the golden sessions' `trace.json` and
//! `timeline.json` the way media rot, torn writes and hostile files
//! do. The readers, [`TraceSnapshot::from_chrome_json`] and
//! [`Timeline::from_json`], must return `Ok` or `Err` on every input
//! and never panic, and whatever they accept must re-export to a
//! canonical form that is a byte-level fixed point: parsing the
//! re-export gives the same value back, and exporting that gives the
//! same bytes.

mod support;

use support::{check, Gen};
use viprof_repro::telemetry::{Timeline, TraceSnapshot};

const TRACES: [&str; 2] = [
    include_str!("../results/golden/ps/trace.json"),
    include_str!("../results/golden/jbb_live/trace.json"),
];

const TIMELINES: [&str; 2] = [
    include_str!("../results/golden/ps/timeline.json"),
    include_str!("../results/golden/jbb_live/timeline.json"),
];

/// One golden export, mutated; non-UTF-8 damage is replaced so every
/// case reaches the reader.
fn mutated(g: &mut Gen, exports: &[&str]) -> String {
    let export = exports[g.range(0..exports.len())];
    String::from_utf8_lossy(&g.mutate(export.as_bytes())).into_owned()
}

/// The seeds parse and are canonical, so every mutation starts from a
/// valid export and the properties below cannot pass vacuously.
#[test]
fn goldens_are_canonical() {
    for text in TRACES {
        let snap = TraceSnapshot::from_chrome_json(text).expect("golden trace parses");
        assert_eq!(snap.to_chrome_json(), text.trim_end());
    }
    for text in TIMELINES {
        let timeline = Timeline::from_json(text).expect("golden timeline parses");
        assert_eq!(timeline.to_json(), text.trim_end());
    }
}

#[test]
fn out_of_range_sums_are_errors() {
    let trace = r#"{"traceEvents":[{"name":"s","cat":"drain","ph":"X","ts":18446744073709551615,"dur":1,"pid":1,"tid":3,"args":{"id":1,"parent":0,"trace":1}}],"otherData":{"spans_dropped":0}}"#;
    assert!(
        TraceSnapshot::from_chrome_json(trace).is_err(),
        "a span ending past u64"
    );
    let timeline = r#"{"capacity":4,"origin":0,"samples":2,"coalesced":0,"windows":[{"cycles":1,"samples":1,"counters":{"buffer.pushed":18446744073709551615},"gauges":{}},{"cycles":2,"samples":1,"counters":{"buffer.pushed":1},"gauges":{}}]}"#;
    assert!(
        Timeline::from_json(timeline).is_err(),
        "a counter total past u64"
    );
}

#[test]
fn mutated_trace_parses_or_errs_and_reexports_to_a_fixed_point() {
    check(
        "mutated_trace_parses_or_errs_and_reexports_to_a_fixed_point",
        1024,
        |g| mutated(g, &TRACES),
        |text| {
            let Ok(snap) = TraceSnapshot::from_chrome_json(&text) else {
                return;
            };
            let out = snap.to_chrome_json();
            let back = TraceSnapshot::from_chrome_json(&out).expect("a re-export parses");
            assert_eq!(back, snap, "the re-export parses to the same trace");
            assert_eq!(back.to_chrome_json(), out, "the re-export is a fixed point");
        },
    );
}

#[test]
fn mutated_timeline_parses_or_errs_and_reexports_to_a_fixed_point() {
    check(
        "mutated_timeline_parses_or_errs_and_reexports_to_a_fixed_point",
        1024,
        |g| mutated(g, &TIMELINES),
        |text| {
            let Ok(timeline) = Timeline::from_json(&text) else {
                return;
            };
            let out = timeline.to_json();
            let back = Timeline::from_json(&out).expect("a re-export parses");
            assert_eq!(back, timeline, "the re-export parses to the same timeline");
            assert_eq!(back.to_json(), out, "the re-export is a fixed point");
        },
    );
}
