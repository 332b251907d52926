//! `viprof top` — streaming profile viewer.
//!
//! Replays an exported session's sample-batch journal in drain order
//! into a sample database, and resolves it through a
//! [`viprof::LiveEngine`] — the index cache a running session resolves
//! its daemon's database through — rendering the evolving profile the
//! way `top` renders processes: a snapshot every `--interval` batches,
//! and the sealed final profile at the end. The final profile is
//! bit-identical to `viprof report` over the same session.
//!
//! ```text
//! viprof top <session-dir> [--interval <n>] [--json] [--rows <n>]
//!
//!   --interval N  print a snapshot every N replayed batches
//!                 (default 0 = only the sealed final profile)
//!   --json        print the sealed final snapshot as JSON instead of
//!                 the table; every human-readable line (mid-run
//!                 snapshots, warnings) moves to stderr so stdout is
//!                 pure JSON
//!   --rows N      show at most N rows per snapshot (default 20)
//! ```

use crate::{open_session, report_spec, Args};
use oprofile::{SampleAccumulator, SampleDb, SAMPLE_JOURNAL_PATH};
use viprof::{LiveEngine, SessionReport};
use viprof_telemetry::json::{Json, ToJson};
use viprof_telemetry::Telemetry;

pub(crate) fn run(words: impl Iterator<Item = String>) -> Result<(), String> {
    let args = Args::parse(words, &[], &["--interval", "--rows"])?;
    let [dir] = args.positional()?;
    let interval = args.value("--interval")?.unwrap_or(0u64);
    let rows = args.value("--rows")?.unwrap_or(20usize);
    let json = args.json;

    let kernel = open_session(std::path::Path::new(dir), args.recover)?;
    let scan = sim_os::journal::scan(&kernel.vfs, SAMPLE_JOURNAL_PATH).ok_or_else(|| {
        format!(
            "no sample journal at {SAMPLE_JOURNAL_PATH} — re-export the session \
             with journaling on (`Viprof::builder().journal(true)`)"
        )
    })?;

    let mut db = SampleAccumulator::default();
    let mut live = LiveEngine::new(&Telemetry::new());
    let spec = report_spec();
    let mut replayed = 0u64;
    for rec in &scan.records {
        let body = match rec.sample_batch() {
            None => continue,
            Some(Ok((_, body))) => body,
            Some(Err(why)) => {
                eprintln!("viprof: skipping {why}");
                continue;
            }
        };
        let Ok(batch) = SampleDb::from_bytes(body) else {
            eprintln!("viprof: skipping corrupt batch record seq {}", rec.seq);
            continue;
        };
        db.merge(&batch);
        replayed += 1;
        if interval > 0 && replayed.is_multiple_of(interval) {
            let snap = live.snapshot(db.db(), &kernel, &spec);
            // Under --json, stdout carries nothing but the final JSON
            // document: progress snapshots go to stderr.
            status(json, format_args!("== after batch {replayed} =="));
            render(&snap, rows, json);
        }
    }
    if scan.damaged_bytes > 0 {
        eprintln!(
            "viprof: WARNING: {} damaged journal byte(s) ignored",
            scan.damaged_bytes
        );
    }

    let snap = live.snapshot(db.db(), &kernel, &spec);
    if json {
        println!("{}", final_json(&snap, replayed));
    } else {
        println!("== sealed ({replayed} batches) ==");
        render(&snap, rows, false);
    }
    Ok(())
}

/// A human-readable status line: stdout normally, stderr under
/// `--json` (stdout must stay machine-parseable).
fn status(json: bool, line: std::fmt::Arguments<'_>) {
    if json {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

fn render(snap: &SessionReport, rows: usize, to_stderr: bool) {
    let events: Vec<String> = snap.lines.events.iter().map(|e| format!("{e:?}")).collect();
    status(
        to_stderr,
        format_args!("{:>8}  {:<22} {:<34} {}", "%", "image", "symbol", events.join(" / ")),
    );
    for row in snap.lines.rows.iter().take(rows) {
        let counts: Vec<String> = row.counts.iter().map(u64::to_string).collect();
        status(
            to_stderr,
            format_args!(
                "{:>7.2}%  {:<22} {:<34} {}",
                row.percents.first().copied().unwrap_or(0.0),
                row.image,
                row.symbol,
                counts.join(" / ")
            ),
        );
    }
    if snap.lines.rows.len() > rows {
        status(
            to_stderr,
            format_args!("  ... {} more row(s)", snap.lines.rows.len() - rows),
        );
    }
    let q = &snap.quality;
    status(
        to_stderr,
        format_args!(
            "  accounted {} = {} resolved + {} stale + {} unresolved + {} blocked \
             + {} quarantined + {} dropped + {} evicted by an old cap",
            q.accounted(),
            q.resolved,
            q.stale_epoch,
            q.unresolved,
            q.cross_incarnation_blocked,
            q.quarantined,
            q.dropped,
            q.evicted
        ),
    );
}

fn final_json(snap: &SessionReport, batches: u64) -> String {
    let q = &snap.quality;
    let events: Vec<String> = snap.lines.events.iter().map(|e| format!("{e:?}")).collect();
    let quality = Json::obj([
        ("resolved", q.resolved.to_json()),
        ("stale_epoch", q.stale_epoch.to_json()),
        ("unresolved", q.unresolved.to_json()),
        ("quarantined", q.quarantined.to_json()),
        ("cross_incarnation_blocked", q.cross_incarnation_blocked.to_json()),
        ("dropped", q.dropped.to_json()),
        ("evicted", q.evicted.to_json()),
        ("quarantined_lines", q.quarantined_lines.to_json()),
        ("skipped_map_files", q.skipped_map_files.to_json()),
        ("failed_pids", q.failed_pids.to_json()),
        ("missing_epochs", q.missing_epochs.to_json()),
        ("accounted", q.accounted().to_json()),
    ]);
    Json::obj([
        ("batches", batches.to_json()),
        ("events", events.to_json()),
        ("rows", snap.lines.rows.to_json()),
        ("quality", quality),
        ("incarnations", snap.incarnations.to_json()),
    ])
    .to_pretty()
}
