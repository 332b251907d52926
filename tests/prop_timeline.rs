//! Property + unit tests for the temporal observability layer
//! (ISSUE 10): the timeline ring and the health rules over it.
//!
//! * **Telescoping** — any schedule of cumulative counter samples, at
//!   any ring capacity, yields per-window deltas that sum exactly to
//!   the final cumulative value of every series (coalescing loses
//!   resolution, never mass);
//! * **Monotonicity** — window stamps are strictly increasing in sim
//!   time;
//! * **Fixed point** — `Timeline::from_json(t.to_json())` re-exports
//!   byte-identically, and replaying the same schedule reproduces the
//!   same bytes;
//! * **Whole-stack determinism** — a fixed-seed session exports a
//!   byte-identical `timeline.json` run after run, the export
//!   telescopes against the cumulative telemetry snapshot written at
//!   the same stop, and neither the timeline nor the health report
//!   depends on the resolve thread count;
//! * **Health rules** — sustained-window hysteresis, severity
//!   escalation and ordering, and zero false positives on a clean
//!   fixed-seed session.

mod support;

use support::{check, Gen};
use viprof_repro::oprofile::session::{SAMPLES_PATH, TELEMETRY_PATH, TIMELINE_PATH};
use viprof_repro::oprofile::{OpConfig, SampleDb};
use viprof_repro::telemetry::{
    names, HealthReport, HealthRule, Severity, TelemetrySnapshot, Timeline,
};
use viprof_repro::viprof::{ReportSpec, Viprof};
use viprof_repro::workloads::{
    calibrate, find_benchmark, programs, run_benchmark, BuiltWorkload, ProfilerKind, WorkPlan,
};

// ---------------------------------------------------------------- //
// Timeline properties (direct drive)                               //
// ---------------------------------------------------------------- //

/// The tracked series the random schedules exercise.
const SERIES: &[&str] = &[
    names::BUFFER_PUSHED,
    names::BUFFER_DROPPED,
    names::DAEMON_DRAINS,
];

/// Replay a schedule of `(clock advance, per-series increments,
/// gauge)` steps against a fresh timeline. Returns the timeline plus
/// the final cumulative value per series.
fn drive(steps: &[(u64, [u64; 3], u64)], capacity: usize) -> (Timeline, [u64; 3]) {
    let mut t = Timeline::with_capacity(capacity);
    let mut now = 0u64;
    let mut cum = [0u64; 3];
    for (dt, inc, gauge) in steps {
        now += dt; // dt >= 1: the sim clock only moves forward
        for (c, i) in cum.iter_mut().zip(inc) {
            *c += i;
        }
        let counters: Vec<(&'static str, u64)> =
            SERIES.iter().zip(cum).map(|(n, v)| (*n, v)).collect();
        t.record(now, &counters, &[(names::GOVERNOR_PERIOD, *gauge)]);
    }
    (t, cum)
}

fn step_strategy(g: &mut Gen) -> Vec<(u64, [u64; 3], u64)> {
    g.vec(1..80, |g| {
        let dt = g.range(1u64..5_000);
        let deltas = [g.range(0u64..50), g.range(0u64..50), g.range(0u64..50)];
        (dt, deltas, g.range(0u64..100_000))
    })
}

#[test]
fn deltas_telescope_to_the_cumulative_totals() {
    check(
        "deltas_telescope_to_the_cumulative_totals",
        256,
        |g| (step_strategy(g), g.range(2usize..12)),
        |(steps, capacity)| {
            let (t, cum) = drive(&steps, capacity);
            for (name, expected) in SERIES.iter().zip(cum) {
                let telescoped: u64 = t.windows().iter().map(|w| w.delta(name)).sum();
                assert_eq!(telescoped, expected, "{} telescopes", name);
                assert_eq!(t.total(name), expected, "{} cumulative total", name);
            }
            assert!(t.len() <= capacity, "ring stays bounded");
            assert_eq!(t.samples(), steps.len() as u64, "every record counted");
        },
    );
}

#[test]
fn window_stamps_are_strictly_monotone() {
    check(
        "window_stamps_are_strictly_monotone",
        256,
        |g| (step_strategy(g), g.range(2usize..12)),
        |(steps, capacity)| {
            let (t, _) = drive(&steps, capacity);
            for pair in t.windows().windows(2) {
                assert!(
                    pair[0].cycles < pair[1].cycles,
                    "stamps must strictly increase: {} then {}",
                    pair[0].cycles,
                    pair[1].cycles
                );
            }
        },
    );
}

#[test]
fn json_export_import_is_a_fixed_point() {
    check(
        "json_export_import_is_a_fixed_point",
        256,
        |g| (step_strategy(g), g.range(2usize..12)),
        |(steps, capacity)| {
            let (t, _) = drive(&steps, capacity);
            let text = t.to_json();
            let parsed = Timeline::from_json(&text);
            assert!(
                parsed.is_ok(),
                "canonical export parses: {:?}",
                parsed.err()
            );
            assert_eq!(
                parsed.unwrap().to_json(),
                text,
                "re-export is byte-identical"
            );

            // Replaying the same schedule is also a fixed point.
            let (again, _) = drive(&steps, capacity);
            assert_eq!(again.to_json(), text, "same schedule, same bytes");
        },
    );
}

// ---------------------------------------------------------------- //
// Whole-stack determinism                                          //
// ---------------------------------------------------------------- //

fn small_workload() -> (BuiltWorkload, WorkPlan) {
    let mut params = find_benchmark("fop").expect("benchmark exists");
    params.support_methods = params.support_methods.min(120);
    params.heap_mb = 2;
    let built = programs::build(&params);
    let plan = calibrate(&built, 0.02);
    (built, plan)
}

/// A configuration that cannot overflow on the small workload: the
/// clean fixed-seed session the zero-false-positive gate runs on.
fn roomy_config() -> OpConfig {
    OpConfig {
        buffer_capacity: 4096,
        ..OpConfig::time_at(50_000)
    }
}

#[test]
fn same_seed_exports_byte_identical_timeline() {
    let (built, plan) = small_workload();
    let run = || {
        run_benchmark(
            &built,
            &plan,
            ProfilerKind::Viprof(roomy_config()),
            42,
            true,
        )
    };
    let a = run();
    let b = run();
    let raw_a = a
        .machine
        .kernel
        .vfs
        .read(TIMELINE_PATH)
        .expect("stop persists the timeline");
    let raw_b = b.machine.kernel.vfs.read(TIMELINE_PATH).unwrap();
    assert_eq!(
        raw_a, raw_b,
        "same seed must export the same timeline bytes"
    );

    // The export telescopes against the cumulative telemetry snapshot
    // written at the same stop, for every tracked pipeline counter.
    let timeline = Timeline::from_json(std::str::from_utf8(raw_a).unwrap()).unwrap();
    let snap = TelemetrySnapshot::from_json(
        std::str::from_utf8(a.machine.kernel.vfs.read(TELEMETRY_PATH).unwrap()).unwrap(),
    )
    .unwrap();
    assert!(!timeline.is_empty(), "the daemon sampled every drain");
    for name in [
        names::CPU_SAMPLES_DELIVERED,
        names::BUFFER_PUSHED,
        names::BUFFER_DROPPED,
        names::DAEMON_DRAINS,
        names::JOURNAL_APPENDS,
    ] {
        let telescoped: u64 = timeline.windows().iter().map(|w| w.delta(name)).sum();
        assert_eq!(telescoped, snap.counter(name), "{name} telescopes");
    }
}

#[test]
fn timeline_and_health_are_invariant_to_resolve_thread_count() {
    let (built, plan) = small_workload();
    let out = run_benchmark(&built, &plan, ProfilerKind::Viprof(roomy_config()), 7, true);
    let before = out.machine.kernel.vfs.read(TIMELINE_PATH).unwrap().to_vec();

    let raw = out.machine.kernel.vfs.read(SAMPLES_PATH).unwrap();
    let db = SampleDb::from_bytes(raw).unwrap();
    let report_at = |threads: usize| {
        Viprof::make_report(
            &db,
            &out.machine.kernel,
            &ReportSpec::default().threads(threads),
        )
        .expect("resolve succeeds")
    };
    let r1 = report_at(1);
    let r4 = report_at(4);
    assert_eq!(r1.health, r4.health, "health is shard-invariant");
    assert_eq!(
        out.machine.kernel.vfs.read(TIMELINE_PATH).unwrap(),
        &before[..],
        "resolving never rewrites the timeline export"
    );

    // Health is a pure function of the exported timeline: evaluating
    // the artifact by hand reproduces the in-report findings.
    let timeline = Timeline::from_json(std::str::from_utf8(&before).unwrap()).unwrap();
    assert_eq!(r1.health, HealthReport::evaluate(&timeline));
}

// ---------------------------------------------------------------- //
// Health rules                                                     //
// ---------------------------------------------------------------- //

/// Build a timeline where one series moves by `deltas[i]` in window
/// `i` (stamps 10 000 apart).
fn timeline_of(series: &'static str, deltas: &[u64]) -> Timeline {
    let mut t = Timeline::with_capacity(64);
    let mut now = 0u64;
    let mut cum = 0u64;
    for d in deltas {
        now += 10_000;
        cum += d;
        t.record(now, &[(series, cum)], &[]);
    }
    t
}

#[test]
fn sustain_gives_hysteresis_against_blips() {
    let rule = HealthRule {
        id: names::HEALTH_BUFFER_OVERFLOW,
        series: names::BUFFER_DROPPED,
        threshold: 1,
        sustain: 3,
        severity: Severity::Warning,
        escalate_sustain: 0,
    };
    // Two two-window bursts with a gap: longest run 2 < sustain 3.
    let blips = timeline_of(names::BUFFER_DROPPED, &[1, 1, 0, 1, 1]);
    assert!(
        HealthReport::evaluate_with(&[rule], &blips).is_healthy(),
        "interrupted runs must not fire a sustain-3 rule"
    );
    // Three consecutive windows: fires, with exact evidence.
    let sustained = timeline_of(names::BUFFER_DROPPED, &[0, 2, 1, 4, 0]);
    let report = HealthReport::evaluate_with(&[rule], &sustained);
    let f = report
        .finding(names::HEALTH_BUFFER_OVERFLOW)
        .expect("fires");
    assert_eq!((f.total, f.windows, f.peak, f.longest_run), (7, 3, 4, 3));
    assert_eq!((f.first_cycles, f.last_cycles), (20_000, 40_000));
}

#[test]
fn sustained_overflow_escalates_one_severity_level() {
    // The default buffer-overflow rule is Warning with escalate at a
    // 3-window run: a single-window drop stays Warning, a sustained
    // run becomes Critical.
    let blip = HealthReport::evaluate(&timeline_of(names::BUFFER_DROPPED, &[0, 5, 0]));
    assert_eq!(
        blip.finding(names::HEALTH_BUFFER_OVERFLOW)
            .unwrap()
            .severity,
        Severity::Warning
    );
    let sustained = HealthReport::evaluate(&timeline_of(names::BUFFER_DROPPED, &[2, 2, 2]));
    assert_eq!(
        sustained
            .finding(names::HEALTH_BUFFER_OVERFLOW)
            .unwrap()
            .severity,
        Severity::Critical
    );
    // Escalation saturates at the top.
    assert_eq!(Severity::Info.escalated(), Severity::Warning);
    assert_eq!(Severity::Warning.escalated(), Severity::Critical);
    assert_eq!(Severity::Critical.escalated(), Severity::Critical);
}

#[test]
fn findings_sort_by_severity_then_rule_id() {
    // Move four series so one Critical, two Warning and one Info rule
    // fire in the same report (cumulative values, one window apiece).
    let mut t = Timeline::with_capacity(16);
    t.record(10_000, &[(names::GOVERNOR_BACKOFFS, 1)], &[]);
    t.record(
        20_000,
        &[
            (names::GOVERNOR_BACKOFFS, 1),
            (names::BUFFER_DROPPED, 4),
            (names::DAEMON_DEADLINE_MISSES, 2),
        ],
        &[],
    );
    t.record(
        30_000,
        &[
            (names::GOVERNOR_BACKOFFS, 1),
            (names::BUFFER_DROPPED, 4),
            (names::DAEMON_DEADLINE_MISSES, 2),
            (names::GOVERNOR_ESCALATIONS, 1),
        ],
        &[],
    );
    let report = HealthReport::evaluate(&t);
    let order: Vec<(&str, Severity)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.severity))
        .collect();
    assert_eq!(
        order,
        vec![
            (names::HEALTH_GOVERNOR_ESCALATION, Severity::Critical),
            (names::HEALTH_BUFFER_OVERFLOW, Severity::Warning),
            (names::HEALTH_DEADLINE_MISS, Severity::Warning),
            (names::HEALTH_GOVERNOR_BACKOFF, Severity::Info),
        ],
        "severity descending, ties broken by rule id"
    );
    assert_eq!(report.worst(), Some(Severity::Critical));
    assert_eq!(
        HealthReport::from_json(&report.to_json()),
        Ok(report),
        "report JSON round-trips"
    );
}

#[test]
fn clean_fixed_seed_session_raises_no_findings() {
    let (built, plan) = small_workload();
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::Viprof(roomy_config()),
        42,
        true,
    );
    let timeline = Timeline::from_json(
        std::str::from_utf8(out.machine.kernel.vfs.read(TIMELINE_PATH).unwrap()).unwrap(),
    )
    .unwrap();
    let report = HealthReport::evaluate(&timeline);
    assert!(
        report.is_healthy(),
        "clean session must raise nothing, got:\n{}",
        report.render_text()
    );
}
