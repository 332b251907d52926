//! `viprof stat` — telemetry inspection.
//!
//! Reads the self-telemetry a session exported alongside its samples
//! (`/var/log/viprof/telemetry.json` inside the session directory) and
//! prints a pipeline health summary: sample flow, drop rates, daemon,
//! supervisor and overload-governor behaviour, resolution quality
//! ratios, per-stage breakdown, and the flight-recorder tail.
//!
//! ```text
//! viprof stat --schema
//! viprof stat <session-dir> [--json] [--health] [--events <n>] [--histograms]
//!
//!   --schema     print the metric catalog (one `<kind> <name>` line
//!                per metric) — diffed against scripts/telemetry-schema.txt
//!                by scripts/verify.sh
//!   --json       print the session's runtime telemetry snapshot as
//!                canonical JSON instead of the summary (stdout is
//!                exactly one JSON document; status goes to stderr)
//!   --health     evaluate the default health rules over the session's
//!                exported timeline and print the findings (with
//!                --json: the health report as canonical JSON)
//!   --events N   show the last N flight-recorder events (default 10)
//!   --histograms print every histogram's per-bucket log2 rows after
//!                the summary (the summary shows only quantile-ish
//!                spreads)
//! ```

use crate::{json, open_session, read_artifact, report_spec, Args};
use oprofile::{SampleDb, SAMPLES_PATH, TELEMETRY_PATH, TIMELINE_PATH};
use std::path::Path;
use viprof::{SessionReport, Viprof};
use viprof_telemetry::{
    bucket_hi, bucket_lo, log2_rows, names, HealthReport, TelemetrySnapshot, Timeline,
};

pub(crate) fn run(words: impl Iterator<Item = String>) -> Result<(), String> {
    let args = Args::parse(words, &["--schema", "--health", "--histograms"], &["--events"])?;
    if args.has("--schema") {
        for line in names::schema_lines() {
            println!("{line}");
        }
        return Ok(());
    }
    let [dir] = args.positional()?;
    let tail = args.value("--events")?.unwrap_or(10usize);

    let kernel = open_session(Path::new(dir), args.recover)?;
    let runtime = read_artifact(&kernel.vfs, TELEMETRY_PATH, json(TelemetrySnapshot::from_json))?;

    if args.has("--health") {
        let timeline = read_artifact(&kernel.vfs, TIMELINE_PATH, json(Timeline::from_json))?;
        let report = HealthReport::evaluate(&timeline);
        if args.json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.render_text());
        }
        return Ok(());
    }

    if args.json {
        // Re-serialize: the output is the canonical deterministic form
        // regardless of how the file on disk was formatted.
        println!("{}", runtime.to_json());
        return Ok(());
    }

    // Resolve-side metrics: re-run the resolve pass over the exported
    // database, if one is present (its telemetry is deterministic, so
    // "re-run" and "what the session saw" agree).
    let resolve = read_artifact(&kernel.vfs, SAMPLES_PATH, SampleDb::from_bytes)
        .ok()
        .and_then(|db| {
            let spec = report_spec().with_recover(args.recover);
            Viprof::make_report(&db, &kernel, &spec).ok()
        });

    println!("session {dir}");
    print_flow(&runtime);
    print_pipeline(&runtime);
    if let Some(report) = &resolve {
        print_resolution(report);
    }
    print_stages(&runtime, resolve.as_ref().map(|r| &r.telemetry));
    if args.has("--histograms") {
        print_histograms(&runtime, resolve.as_ref().map(|r| &r.telemetry));
    }
    print_events(&runtime, tail);
    Ok(())
}

/// Per-bucket log2 rows for every histogram — the full distribution
/// behind the summary's one-line spreads. Formatting shared with
/// `viprof trace --top` via [`log2_rows`].
fn print_histograms(runtime: &TelemetrySnapshot, resolve: Option<&TelemetrySnapshot>) {
    println!("-- histograms (log2 buckets) --");
    for snap in std::iter::once(runtime).chain(resolve) {
        for h in &snap.histograms {
            println!("  {} — count {}, sum {}", h.name, h.count, h.sum);
            for row in log2_rows(&h.buckets) {
                println!("    {row}");
            }
        }
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn print_flow(t: &TelemetrySnapshot) {
    let delivered = t.counter(names::CPU_SAMPLES_DELIVERED);
    let pushed = t.counter(names::BUFFER_PUSHED);
    let dropped = t.counter(names::BUFFER_DROPPED);
    println!("-- sample flow --");
    println!("  nmi samples delivered   {delivered}");
    println!("  suppressed (skipped nmi) {}", t.counter(names::CPU_SAMPLES_SUPPRESSED));
    println!(
        "  buffer pushed / dropped {pushed} / {dropped} ({:.2}% dropped)",
        pct(dropped, pushed + dropped)
    );
}

fn print_pipeline(t: &TelemetrySnapshot) {
    println!("-- daemon / journal --");
    println!(
        "  wakeups / drains / stalls {} / {} / {}",
        t.counter(names::DAEMON_WAKEUPS),
        t.counter(names::DAEMON_DRAINS),
        t.counter(names::DAEMON_STALLS)
    );
    println!(
        "  journal appends / commits / repairs {} / {} / {}",
        t.counter(names::JOURNAL_APPENDS),
        t.counter(names::JOURNAL_COMMITS),
        t.counter(names::JOURNAL_REPAIRS)
    );
    let restarts = t.counter(names::SUPERVISOR_RESTARTS);
    if restarts > 0 || t.counter(names::SUPERVISOR_MISSED) > 0 {
        println!(
            "  supervisor restarts / missed / redrained {} / {} / {} (last backoff {})",
            restarts,
            t.counter(names::SUPERVISOR_MISSED),
            t.counter(names::SUPERVISOR_REDRAINED_SAMPLES),
            t.gauge(names::SUPERVISOR_LAST_BACKOFF)
        );
    }
    let backoffs = t.counter(names::GOVERNOR_BACKOFFS);
    let recoveries = t.counter(names::GOVERNOR_RECOVERIES);
    let misses = t.counter(names::DAEMON_DEADLINE_MISSES);
    if backoffs > 0 || recoveries > 0 || misses > 0 {
        println!(
            "  governor backoffs / recoveries / escalations {} / {} / {} \
             (period {}, {} deadline misses)",
            backoffs,
            recoveries,
            t.counter(names::GOVERNOR_ESCALATIONS),
            t.gauge(names::GOVERNOR_PERIOD),
            misses
        );
        for e in t.events_of(names::EVENT_GOVERNOR_RATE_CHANGE) {
            let field = |key: &str| e.fields.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v);
            println!(
                "  governor cycle {}: period {} -> {} ({})",
                e.cycles,
                field("from"),
                field("to"),
                e.detail
            );
        }
    }
    println!(
        "  agent maps written {} ({} entries), gc epochs {}",
        t.counter(names::AGENT_MAPS_WRITTEN),
        t.counter(names::AGENT_MAP_ENTRIES),
        t.counter(names::AGENT_GC_EPOCHS)
    );
    let registrations = t.counter(names::REGISTRY_REGISTRATIONS);
    let bumps = t.counter(names::REGISTRY_GENERATION_BUMPS);
    let reaps = t.counter(names::REGISTRY_REAPS);
    let dead_dropped = t.counter(names::DAEMON_DEAD_GEN_DROPPED);
    if bumps > 0 || reaps > 0 || dead_dropped > 0 {
        println!(
            "  process churn: {} registration(s), {} generation bump(s), \
             {} reap(s), {} dead-generation sample(s) dropped",
            registrations, bumps, reaps, dead_dropped
        );
    }
}

/// The resolution section: sample accounting from the report's
/// quality, shard shape and panics from its telemetry.
fn print_resolution(report: &SessionReport) {
    let q = &report.quality;
    let t = &report.telemetry;
    let (resolved, stale, unresolved, blocked) = (
        q.resolved,
        q.stale_epoch,
        q.unresolved,
        q.cross_incarnation_blocked,
    );
    let total = resolved + stale + unresolved + blocked;
    println!("-- resolution --");
    println!(
        "  resolved {} ({:.2}%), stale-epoch {} ({:.2}%), unresolved {} ({:.2}%)",
        resolved,
        pct(resolved, total),
        stale,
        pct(stale, total),
        unresolved,
        pct(unresolved, total)
    );
    if blocked > 0 {
        println!(
            "  cross-incarnation blocked {} ({:.2}%) — attribution never crosses a restart",
            blocked,
            pct(blocked, total)
        );
    }
    println!(
        "  damage: {} quarantined lines, {} skipped map files, {} failed pids, {} missing epochs",
        q.quarantined_lines, q.skipped_map_files, q.failed_pids, q.missing_epochs
    );
    let panics = t.counter(names::RESOLVE_SHARD_PANICS);
    if panics > 0 {
        println!(
            "  shard panics {} — {} sample(s) quarantined",
            panics, q.quarantined
        );
    }
    if q.evicted > 0 {
        println!("  refused by an older session's admission cap {}", q.evicted);
    }
    if let Some(h) = t.histogram(names::RESOLVE_SHARD_SAMPLES) {
        let spread: Vec<String> = h
            .buckets
            .iter()
            .map(|(k, n)| format!("{}x[{}..{}]", n, bucket_lo(*k), bucket_hi(*k)))
            .collect();
        println!(
            "  shards {} — samples/shard {}",
            t.gauge(names::RESOLVE_SHARDS),
            spread.join(" ")
        );
    }
    println!("  report rows {}", report.lines.rows.len());
}

fn print_stages(runtime: &TelemetrySnapshot, resolve: Option<&TelemetrySnapshot>) {
    println!("-- stages (virtual cycles; resolve stages count work units) --");
    for snap in std::iter::once(runtime).chain(resolve) {
        for s in &snap.stages {
            println!("  {:<24} {:>8} entries {:>14} units", s.name, s.entries, s.cycles);
        }
    }
}

fn print_events(t: &TelemetrySnapshot, tail: usize) {
    println!(
        "-- flight recorder ({} events, {} evicted) --",
        t.events.len(),
        t.events_dropped
    );
    let skip = t.events.len().saturating_sub(tail);
    for e in &t.events[skip..] {
        let fields: Vec<String> = e
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!(
            "  [{:>12}] {:<24} {} {}",
            e.cycles,
            e.kind,
            e.detail,
            fields.join(" ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprofile::{OpConfig, Oprofile};
    use sim_cpu::{BlockExec, CpuMode};
    use sim_os::{Machine, MachineConfig};

    /// A tiny in-memory session must export telemetry that parses,
    /// round-trips byte-identically, and accounts for its own sample
    /// flow; its timeline must telescope to the same counters, and
    /// health over it must agree with them.
    #[test]
    fn session_exports_the_artifacts_stat_reads() {
        let mut m = Machine::new(MachineConfig::default());
        let pid = m.kernel.spawn("selftest");
        let op = Oprofile::start(&mut m, OpConfig::time_at(10_000));
        m.exec(&BlockExec::compute(pid, CpuMode::User, (0x1000, 0x2000), 1_000_000));
        op.stop(&mut m);

        let raw = m
            .kernel
            .vfs
            .read(oprofile::TELEMETRY_PATH)
            .expect("session exports telemetry");
        let text = std::str::from_utf8(raw).expect("telemetry is utf-8");
        let snap = TelemetrySnapshot::from_json(text).expect("telemetry parses");
        assert_eq!(snap.to_json(), text, "canonical JSON round-trips");
        assert_eq!(snap.counter(names::SESSION_INSTALLS), 1);
        assert_eq!(snap.counter(names::SESSION_STOPS), 1);
        let delivered = snap.counter(names::CPU_SAMPLES_DELIVERED);
        assert!(delivered > 0, "sampling ran");
        assert_eq!(
            snap.counter(names::BUFFER_PUSHED) + snap.counter(names::BUFFER_DROPPED),
            delivered,
            "every delivered sample was pushed or counted dropped"
        );
        assert_eq!(snap.events_of(names::EVENT_SESSION_STOP).len(), 1);

        // The timeline export must parse, round-trip byte-identically, and
        // telescope: its per-window deltas must sum to the cumulative
        // counters of the telemetry snapshot written at the same stop.
        let raw = m
            .kernel
            .vfs
            .read(oprofile::TIMELINE_PATH)
            .expect("session exports a timeline");
        let text = std::str::from_utf8(raw).expect("timeline is utf-8");
        let timeline = Timeline::from_json(text).expect("timeline parses");
        assert_eq!(timeline.to_json(), text, "canonical timeline JSON round-trips");
        assert!(!timeline.is_empty(), "drains sampled the timeline");
        for name in [names::CPU_SAMPLES_DELIVERED, names::BUFFER_PUSHED] {
            let telescoped: u64 = timeline.windows().iter().map(|w| w.delta(name)).sum();
            assert_eq!(telescoped, snap.counter(name), "{name} telescopes");
        }
        // Health is a pure function of the timeline: findings must agree
        // with the cumulative counters (no false positives, no misses).
        let report = HealthReport::evaluate(&timeline);
        assert_eq!(
            report.finding(names::HEALTH_BUFFER_OVERFLOW).is_some(),
            snap.counter(names::BUFFER_DROPPED) > 0,
            "overflow finding tracks the dropped counter"
        );
        assert!(report.finding(names::HEALTH_JOURNAL_REPAIR).is_none());
        assert_eq!(
            HealthReport::from_json(&report.to_json()),
            Ok(report),
            "health report JSON round-trips"
        );
    }
}
