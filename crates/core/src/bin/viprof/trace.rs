//! `viprof trace` — causal trace inspection.
//!
//! Reads the Chrome-trace JSON a session exported alongside its
//! samples (`/var/log/viprof/trace.json` inside the session
//! directory) and renders the causal span tree: each drain with its
//! sampling window, losses and journal record, and where the GC
//! pauses and agent map writes sat. `viprof report --lineage` prints
//! the matching sample-lineage table.
//!
//! ```text
//! viprof trace <session-dir> [--chrome] [--json] [--top <n>]
//!
//!   --chrome     print the canonical Chrome trace-event JSON
//!                (load it at chrome://tracing or ui.perfetto.dev)
//!   --json       print a structured span dump (ids, parents, layers,
//!                fields) instead of the human tree
//!   --top N      show the N span names with the largest total
//!                duration, each with its log2 duration histogram
//! ```

use crate::{json, open_session, read_artifact, Args};
use std::collections::BTreeMap;
use std::path::Path;
use viprof_telemetry::json::{Json, ToJson};
use viprof_telemetry::{log2_rows, TraceSnapshot};

pub(crate) fn run(words: impl Iterator<Item = String>) -> Result<(), String> {
    let args = Args::parse(words, &["--chrome"], &["--top"])?;
    let [dir] = args.positional()?;
    let top = args.value("--top")?.unwrap_or(0usize);

    let kernel = open_session(Path::new(dir), args.recover)?;
    let snap = read_artifact(&kernel.vfs, oprofile::TRACE_PATH, json(TraceSnapshot::from_chrome_json))?;

    if args.has("--chrome") {
        // Re-serialize: canonical form regardless of on-disk formatting.
        println!("{}", snap.to_chrome_json());
        return Ok(());
    }
    if args.json {
        println!("{}", span_dump_json(&snap));
        return Ok(());
    }

    println!("session {dir} — {} span(s)", snap.spans.len());
    for root in snap.roots() {
        print_tree(&snap, root.id, 0);
    }
    if top > 0 {
        print_top(&snap, top);
    }
    Ok(())
}

fn print_tree(snap: &TraceSnapshot, id: u64, depth: usize) {
    let Some(s) = snap.span(id) else { return };
    let fields: Vec<String> = s.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "{:indent$}{} [{}] {}..{} ({} cycles) {}",
        "",
        s.name,
        s.layer.label(),
        s.begin,
        s.end,
        s.duration(),
        fields.join(" "),
        indent = depth * 2
    );
    for child in snap.children(id) {
        print_tree(snap, child.id, depth + 1);
    }
}

/// The N span names with the largest total duration, each with its
/// per-bucket log2 duration rows (formatting shared with
/// `viprof stat --histograms` via [`log2_rows`]).
fn print_top(snap: &TraceSnapshot, top: usize) {
    let mut totals: Vec<(String, u64, u64)> = Vec::new();
    for s in &snap.spans {
        match totals.iter_mut().find(|(name, _, _)| *name == s.name) {
            Some(row) => {
                row.1 += s.duration();
                row.2 += 1;
            }
            None => totals.push((s.name.clone(), s.duration(), 1)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("== top {} span name(s) by total duration ==", top.min(totals.len()));
    for (name, total, count) in totals.iter().take(top) {
        println!("  {name} — {count} span(s), {total} cycles");
        for row in log2_rows(&snap.duration_buckets(Some(name))) {
            println!("    {row}");
        }
    }
}

fn span_dump_json(snap: &TraceSnapshot) -> String {
    let spans = snap
        .spans
        .iter()
        .map(|s| {
            let fields: BTreeMap<&str, u64> =
                s.fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            Json::obj([
                ("id", s.id.to_json()),
                ("parent", s.parent.to_json()),
                ("trace", s.trace.to_json()),
                ("layer", s.layer.label().to_json()),
                ("name", s.name.to_json()),
                ("begin", s.begin.to_json()),
                ("end", s.end.to_json()),
                ("fields", fields.to_json()),
            ])
        })
        .collect();
    Json::obj([("spans", Json::Arr(spans))]).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprofile::OpConfig;
    use sim_cpu::{BlockExec, CpuMode};
    use sim_os::{Machine, MachineConfig};
    use viprof::{ReportSpec, Viprof};

    /// Fixed-seed determinism:
    ///
    /// * two identical sessions export byte-identical Chrome trace JSON;
    /// * the resolve pass's trace and lineage are byte-identical across
    ///   thread counts {1, 4};
    /// * every lineage bucket total reconciles exactly with the
    ///   [`viprof::ResolutionQuality`] counts.
    #[test]
    fn trace_is_deterministic_and_lineage_reconciles() {
        let run = || {
            let mut m = Machine::new(MachineConfig {
                seed: 2007,
                ..MachineConfig::default()
            });
            let pid = m.kernel.spawn("selftest");
            let vp = Viprof::builder()
                .config(OpConfig::time_at(10_000))
                .journal(true)
                .start(&mut m);
            m.exec(&BlockExec::compute(
                pid,
                CpuMode::User,
                (0x1000, 0x2000),
                1_000_000,
            ));
            let db = vp.stop(&mut m);
            (m, db)
        };

        let (m1, db) = run();
        let (m2, _) = run();
        let raw1 = m1
            .kernel
            .vfs
            .read(oprofile::TRACE_PATH)
            .expect("session exports a trace");
        let raw2 = m2.kernel.vfs.read(oprofile::TRACE_PATH).unwrap();
        assert_eq!(raw1, raw2, "fixed seed exports byte-identical trace JSON");
        let text = std::str::from_utf8(raw1).expect("trace is utf-8");
        let snap = TraceSnapshot::from_chrome_json(text).expect("trace parses");
        assert_eq!(snap.to_chrome_json(), text, "canonical JSON round-trips");
        assert_eq!(snap.roots().len(), 1, "one session root");
        assert!(
            snap.spans.iter().any(|s| s.parent != 0),
            "pipeline spans hang off the root"
        );

        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let spec = ReportSpec::default().threads(threads);
            let report = Viprof::make_report(&db, &m1.kernel, &spec).expect("resolve succeeds");
            let q = &report.quality;
            for (bucket, want) in [
                ("dropped", q.dropped),
                ("evicted", q.evicted),
                ("quarantined", q.quarantined),
                ("blocked", q.cross_incarnation_blocked),
            ] {
                assert_eq!(
                    report.lineage.total(bucket),
                    want,
                    "lineage {bucket} reconciles at {threads} thread(s)"
                );
            }
            reports.push(report);
        }
        assert_eq!(
            reports[0].trace.to_chrome_json(),
            reports[1].trace.to_chrome_json(),
            "resolve trace is byte-identical across thread counts"
        );
        assert_eq!(reports[0].lineage, reports[1].lineage);
    }
}
