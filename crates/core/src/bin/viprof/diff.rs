//! `viprof diff` — differential observability.
//!
//! Loads two exported artifacts of the same kind and emits a
//! structured per-metric delta report, so a fixed-seed run can be
//! compared against a committed one (the golden session exports under
//! `results/golden/` are such baselines).
//!
//! Artifact kinds are detected from JSON shape (no flag needed):
//!
//! * runtime telemetry snapshot (`/var/log/viprof/telemetry.json`)
//! * timeline export (`/var/log/viprof/timeline.json`)
//! * health report (`viprof stat --health --json`)
//! * Chrome trace export, compared by span-duration log2 buckets
//! * bench envelope (`results/BENCH_*.json`)
//! * a session directory (compared by resolve quality, lineage totals
//!   and report shape)
//! * any other JSON document, compared by its numeric leaves
//!
//! ```text
//! viprof diff <baseline> <candidate> [--json] [--tolerance <pct>]
//!
//!   --json            print the delta report as one JSON document on
//!                     stdout (status stays on stderr)
//!   --tolerance P     treat relative deltas up to P percent as noise
//!                     (default 0: any delta is a regression)
//! ```
//!
//! Exits 1 when at least one metric regressed.

use crate::{open_session, read_artifact, report_spec, Args};
use oprofile::{SampleDb, SAMPLES_PATH};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use viprof::Viprof;
use viprof_telemetry::json::{get, parse_json, Json, ToJson};
use viprof_telemetry::{HealthReport, Timeline, TraceSnapshot};

/// One loaded artifact: its detected kind and the flattened numeric
/// metrics (dotted-path keys, sorted).
struct Artifact {
    kind: &'static str,
    metrics: BTreeMap<String, f64>,
}

pub(crate) fn run(words: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let args = Args::parse(words, &[], &["--tolerance"])?;
    let [first, second] = args.positional()?;
    let tolerance = args.value("--tolerance")?.unwrap_or(0.0f64);

    let load = |path: &str| {
        load_artifact(Path::new(path), args.recover).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(first)?, load(second)?);
    if a.kind != b.kind {
        return Err(format!(
            "kind mismatch: {first} is a {} artifact, {second} is a {} artifact",
            a.kind, b.kind
        ));
    }

    let rows = diff_metrics(&a.metrics, &b.metrics);
    let regressions = rows.iter().filter(|r| r.rel_pct > tolerance).count();
    if args.json {
        println!("{}", render_json(a.kind, tolerance, &rows, regressions));
    } else {
        print!("{}", render_text(a.kind, first, second, tolerance, &rows, regressions));
    }
    Ok(if regressions > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

/// One differing metric.
struct DiffRow {
    name: String,
    a: f64,
    b: f64,
    /// |b - a| relative to the baseline, in percent (a zero baseline
    /// makes any movement 100%).
    rel_pct: f64,
}

/// Compare two flattened metric maps over the union of their keys; a
/// key absent on one side reads as 0 there. Equal values produce no
/// row — two identical artifacts diff to an empty list.
fn diff_metrics(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let va = a.get(key).copied().unwrap_or(0.0);
        let vb = b.get(key).copied().unwrap_or(0.0);
        if va == vb {
            continue;
        }
        let base = va.abs();
        let rel_pct = if base > 0.0 {
            100.0 * (vb - va).abs() / base
        } else {
            100.0
        };
        rows.push(DiffRow {
            name: key.clone(),
            a: va,
            b: vb,
            rel_pct,
        });
    }
    rows
}

/// Trim trailing zeros so integers print as integers and the output
/// stays deterministic.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

fn render_text(
    kind: &str,
    a_path: &str,
    b_path: &str,
    tolerance: f64,
    rows: &[DiffRow],
    regressions: usize,
) -> String {
    let mut out = format!("viprof-diff: {kind} — {a_path} vs {b_path}\n");
    for r in rows {
        let mark = if r.rel_pct > tolerance { "!" } else { "~" };
        out.push_str(&format!(
            "  {mark} {:<48} {} -> {} ({}{:.2}%)\n",
            r.name,
            fmt_num(r.a),
            fmt_num(r.b),
            if r.b >= r.a { "+" } else { "-" },
            r.rel_pct
        ));
    }
    out.push_str(&format!(
        "{} metric(s) changed, {} beyond tolerance ({tolerance}%): {}\n",
        rows.len(),
        regressions,
        if regressions == 0 { "PASS" } else { "FAIL" }
    ));
    out
}

fn render_json(kind: &str, tolerance: f64, rows: &[DiffRow], regressions: usize) -> String {
    let metrics = rows.iter().map(|r| {
        let row = Json::obj([
            ("baseline", r.a.to_json()),
            ("candidate", r.b.to_json()),
            ("delta", (r.b - r.a).to_json()),
            ("rel_pct", r.rel_pct.to_json()),
            ("regression", (r.rel_pct > tolerance).to_json()),
        ]);
        (r.name.clone(), row)
    });
    Json::obj([
        ("kind", kind.to_json()),
        ("tolerance_pct", tolerance.to_json()),
        ("changed", rows.len().to_json()),
        ("regressions", regressions.to_json()),
        ("metrics", Json::obj(metrics)),
    ])
    .to_pretty()
}

/// Load one artifact: a session directory, or a JSON file whose kind
/// is detected from its shape.
fn load_artifact(path: &Path, recover: bool) -> Result<Artifact, String> {
    if path.is_dir() {
        return load_session(path, recover);
    }
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = parse_json(&text).map_err(|e| format!("not JSON: {e}"))?;
    let obj = value.as_obj("top level")?;
    let has = |key: &str| get(obj, key).is_ok();

    if has("traceEvents") {
        return load_trace(&text);
    }
    if has("name") && has("metrics") && has("gates") {
        let mut metrics = BTreeMap::new();
        for key in ["seed", "metrics", "gates"] {
            if let Ok(v) = get(obj, key) {
                flatten(v, key, &mut metrics);
            }
        }
        return Ok(Artifact {
            kind: "bench",
            metrics,
        });
    }
    if has("counters") && has("events_dropped") {
        let mut metrics = BTreeMap::new();
        for (key, v) in obj {
            // The flight-recorder tail is a debugging aid, not a
            // comparable metric surface; everything else is.
            if key != "events" {
                flatten(v, key, &mut metrics);
            }
        }
        return Ok(Artifact {
            kind: "telemetry",
            metrics,
        });
    }
    if has("windows") && has("origin") {
        // Re-parse through the canonical importer so a hand-edited
        // non-telescoping file is rejected, not silently diffed.
        let timeline = Timeline::from_json(&text)?;
        let mut metrics = BTreeMap::new();
        flatten(&value, "timeline", &mut metrics);
        for (name, total) in timeline.top_movers(usize::MAX) {
            metrics.insert(format!("total.{name}"), total as f64);
        }
        return Ok(Artifact {
            kind: "timeline",
            metrics,
        });
    }
    if has("findings") && obj.len() == 1 {
        let report = HealthReport::from_json(&text)?;
        let mut metrics = BTreeMap::new();
        metrics.insert("findings".to_string(), report.findings.len() as f64);
        for f in &report.findings {
            for (field, v) in [
                ("total", f.total),
                ("windows", f.windows),
                ("peak", f.peak),
                ("longest_run", f.longest_run),
            ] {
                metrics.insert(format!("{}.{field}", f.rule), v as f64);
            }
        }
        return Ok(Artifact {
            kind: "health",
            metrics,
        });
    }
    let mut metrics = BTreeMap::new();
    flatten(&value, "", &mut metrics);
    Ok(Artifact {
        kind: "json",
        metrics,
    })
}

/// A Chrome trace export, compared by span count and the log2
/// span-duration histogram (per-span begin/end stamps would make every
/// configuration change a wall of noise; the duration distribution is
/// the comparable shape).
fn load_trace(text: &str) -> Result<Artifact, String> {
    let snap = TraceSnapshot::from_chrome_json(text)?;
    let mut metrics = BTreeMap::new();
    metrics.insert("spans".to_string(), snap.spans.len() as f64);
    metrics.insert("dropped".to_string(), snap.dropped as f64);
    for (bucket, count) in snap.duration_buckets(None) {
        metrics.insert(format!("duration_bucket.{bucket:02}"), count as f64);
    }
    Ok(Artifact {
        kind: "trace",
        metrics,
    })
}

/// A session directory: import it, re-resolve, and compare the
/// resolution surface (quality tally, lineage totals, report shape,
/// health findings). The resolve pass is deterministic, so two
/// same-seed sessions diff to zero.
fn load_session(dir: &Path, recover: bool) -> Result<Artifact, String> {
    let kernel = open_session(dir, recover)?;
    let db = read_artifact(&kernel.vfs, SAMPLES_PATH, SampleDb::from_bytes)?;
    let report = Viprof::make_report(&db, &kernel, &report_spec()).map_err(|e| e.to_string())?;
    let q = &report.quality;
    let mut metrics = BTreeMap::new();
    for (name, v) in [
        ("lines.rows", report.lines.rows.len() as u64),
        ("quality.resolved", q.resolved),
        ("quality.stale_epoch", q.stale_epoch),
        ("quality.unresolved", q.unresolved),
        ("quality.dropped", q.dropped),
        ("quality.evicted", q.evicted),
        ("quality.quarantined", q.quarantined),
        ("quality.blocked", q.cross_incarnation_blocked),
        ("quality.quarantined_lines", q.quarantined_lines),
        ("quality.skipped_map_files", q.skipped_map_files),
        ("incarnations", report.incarnations.len() as u64),
        ("health.findings", report.health.findings.len() as u64),
    ] {
        metrics.insert(name.to_string(), v as f64);
    }
    for bucket in ["dropped", "evicted", "quarantined", "blocked"] {
        metrics.insert(
            format!("lineage.{bucket}"),
            report.lineage.total(bucket) as f64,
        );
    }
    Ok(Artifact {
        kind: "session",
        metrics,
    })
}

/// Recursively collect every numeric leaf into dotted-path keys
/// (array elements indexed). Strings and booleans are not comparable
/// magnitudes and are skipped.
fn flatten(value: &Json, prefix: &str, out: &mut BTreeMap<String, f64>) {
    let path = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match value {
        Json::Num(n) => {
            out.insert(prefix.to_string(), *n as f64);
        }
        Json::Float(x) => {
            out.insert(prefix.to_string(), *x);
        }
        Json::Obj(map) => {
            for (k, v) in map {
                flatten(v, &path(k), out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &path(&i.to_string()), out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed golden session exports: each artifact diffs to
    /// zero against itself, the two scenarios' telemetry and timelines
    /// differ, the three kinds detect as distinct, and the live
    /// scenario's supervisor restart makes an unhealthy report that
    /// round-trips through the differ as a health artifact.
    #[test]
    fn golden_artifacts_diff_to_zero_only_against_themselves() {
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
        let path = |scenario: &str, name: &str| golden.join(scenario).join(name);
        let load = |p: &Path| load_artifact(p, false).expect("golden artifact loads");

        for (name, kind) in [
            ("telemetry.json", "telemetry"),
            ("timeline.json", "timeline"),
            ("trace.json", "trace"),
        ] {
            for scenario in ["ps", "jbb_live"] {
                let (a, b) = (load(&path(scenario, name)), load(&path(scenario, name)));
                assert_eq!(a.kind, kind, "{scenario}/{name}");
                assert!(!a.metrics.is_empty(), "{scenario}/{name} flattens to metrics");
                assert!(
                    diff_metrics(&a.metrics, &b.metrics).is_empty(),
                    "{scenario}/{name} must diff to zero against itself"
                );
            }
        }
        for name in ["telemetry.json", "timeline.json"] {
            let rows = diff_metrics(
                &load(&path("ps", name)).metrics,
                &load(&path("jbb_live", name)).metrics,
            );
            assert!(rows.iter().any(|r| r.rel_pct > 0.0), "ps and jbb_live {name} differ");
        }

        let text = std::fs::read_to_string(path("jbb_live", "timeline.json")).expect("read");
        let health = HealthReport::evaluate(&Timeline::from_json(&text).expect("timeline"));
        assert!(!health.is_healthy(), "the supervisor restart fires a finding");
        assert!(health.finding(viprof_telemetry::names::HEALTH_SUPERVISOR_RESTART).is_some());
        let dir = std::env::temp_dir().join(format!("viprof-diff-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        let h = dir.join("health.json");
        std::fs::write(&h, health.to_json()).expect("write health artifact");
        let loaded = load(&h);
        assert_eq!(loaded.kind, "health");
        assert_eq!(loaded.metrics["findings"], health.findings.len() as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
