//! `viprof report` — the merged VIProf profile of a session.
//!
//! ```text
//! viprof report <session-dir> [--classic] [--lineage] [--min <percent>] [--rows <n>] [--csv | --json] [--recover]
//!
//!   --classic    render what stock opreport would show (anon ranges,
//!                symbol-less boot image) instead of the merged view
//!   --recover    tolerate integrity violations and replay the crash
//!                journals: rebuild code maps (and, if the sample db is
//!                missing or corrupt, the db itself) from journal records
//!   --lineage    append the sample-lineage footer: every loss bucket
//!                (dropped/evicted/quarantined/blocked) broken down by
//!                the causal span where the loss occurred
//!   --min  P     hide rows below P percent of the primary event (0.05)
//!   --rows N     keep at most N rows
//!   --csv        emit CSV instead of the aligned text table
//!   --json       emit JSON
//! ```

use crate::{open_session, read_artifact, report_spec, Args};
use oprofile::{opreport, ReportOptions, SampleDb, SAMPLES_PATH};
use std::path::Path;
use viprof::{RecoveredDb, RecoveryReport, Viprof};
use viprof_telemetry::json::ToJson;

pub(crate) fn run(words: impl Iterator<Item = String>) -> Result<(), String> {
    let args = Args::parse(words, &["--classic", "--lineage", "--csv"], &["--min", "--rows"])?;
    let [dir] = args.positional()?;
    let recover = args.recover;
    let options = ReportOptions {
        min_primary_percent: args.value("--min")?.unwrap_or(0.05),
        max_rows: args.value("--rows")?,
        ..ReportOptions::default()
    };

    let kernel = open_session(Path::new(dir), recover)?;
    let mut rebuilt: Option<RecoveredDb> = None;
    let db = match read_artifact(&kernel.vfs, SAMPLES_PATH, SampleDb::from_bytes) {
        Ok(db) => db,
        Err(why) if recover => {
            eprintln!("viprof: WARNING: {why}; replaying the batch journal");
            let r = viprof::recover_sample_db(&kernel.vfs)
                .ok_or("no sample journal either — nothing to rebuild")?;
            let db = r.db.clone();
            rebuilt = Some(r);
            db
        }
        Err(why) => return Err(format!("{why} — did the session stop cleanly? (try --recover)")),
    };

    let mut incarnations: Vec<viprof::IncarnationSummary> = Vec::new();
    let mut lineage_table: Option<viprof_telemetry::LineageTable> = None;
    let mut health = viprof_telemetry::HealthReport::default();
    let (report, quality, recovery) = if args.has("--classic") {
        (opreport(&db, &kernel, &options), None, None)
    } else {
        let spec = report_spec().with_options(options.clone()).with_recover(recover);
        let sr = Viprof::make_report(&db, &kernel, &spec).map_err(|e| e.to_string())?;
        let recovery = sr.recovery.map(|mut rec| {
            if let Some(rb) = &rebuilt {
                rec.db_rebuilt = true;
                rec.sample_batches_replayed = rb.batches;
                rec.bad_sample_batches = rb.bad_batches;
                if rb.truncated_bytes > 0 {
                    rec.truncated_journals += 1;
                    rec.truncated_bytes += rb.truncated_bytes;
                }
            }
            rec
        });
        incarnations = sr.incarnations;
        lineage_table = Some(sr.lineage);
        health = sr.health;
        (sr.lines, Some(sr.quality), recovery)
    };
    if args.json {
        println!("{}", report.to_json().to_pretty());
        return Ok(());
    }
    if args.has("--csv") {
        print!("{}", report.render_csv());
        return Ok(());
    }
    println!("session {dir} — {} samples, {} dropped", db.total_samples(), db.dropped);
    print!("{}", report.render_text());
    if let Some(q) = quality {
        if q.stale_epoch > 0 || q.unresolved > 0 || q.quarantined_lines > 0 {
            println!(
                "NOTE: resolution quality — {} resolved, {} via stale-epoch fallback, \
                 {} unresolved; {} map lines quarantined, {} map files skipped",
                q.resolved, q.stale_epoch, q.unresolved, q.quarantined_lines, q.skipped_map_files
            );
        }
        if q.quarantined > 0 {
            println!(
                "WARNING: {} sample(s) quarantined — a resolution shard \
                 panicked twice; they are counted but carry no symbols",
                q.quarantined
            );
        }
        if q.evicted > 0 {
            println!(
                "NOTE: {} sample(s) refused by an older session's admission \
                 cap — counted in its sample files, never resolved",
                q.evicted
            );
        }
        if q.cross_incarnation_blocked > 0 {
            println!(
                "NOTE: {} sample(s) blocked at the incarnation boundary — \
                 stamped with a generation whose maps are gone while another \
                 incarnation of the pid has maps; attribution never crosses \
                 a restart",
                q.cross_incarnation_blocked
            );
        }
    }
    print_incarnation_footer(&incarnations);
    if let Some(rec) = &recovery {
        print_recovery(rec);
    }
    if db.dropped > 0 {
        let emitted = db.total_samples() + db.dropped;
        let pct = 100.0 * db.dropped as f64 / emitted as f64;
        println!("WARNING: {} samples dropped ({pct:.1}%)", db.dropped);
    }
    // HEALTH footer: rule findings over the session's exported
    // timeline. Silent on a clean run, like the other footers.
    if !health.is_healthy() {
        println!("== health ==");
        for f in &health.findings {
            println!("{}", f.render_line());
        }
    }
    if args.has("--lineage") {
        match &lineage_table {
            Some(table) => {
                println!("== sample lineage ==");
                print!("{}", table.render_text());
            }
            None => eprintln!("viprof: WARNING: --lineage has no effect with --classic"),
        }
    }
    Ok(())
}

/// Per-incarnation footer: printed only when the session actually saw
/// process churn (more than one incarnation, or blocked samples) — a
/// steady one-VM run keeps the classic single-section output.
fn print_incarnation_footer(incarnations: &[viprof::IncarnationSummary]) {
    let blocked: u64 = incarnations.iter().map(|i| i.blocked).sum();
    if incarnations.len() <= 1 && blocked == 0 {
        return;
    }
    println!("== incarnations ==");
    for i in incarnations {
        println!(
            "pid {} gen {}: {} sample(s) — {} resolved, {} stale-epoch, \
             {} unresolved, {} blocked",
            i.pid, i.gen, i.samples, i.resolved, i.stale_epoch, i.unresolved, i.blocked
        );
    }
}

fn print_recovery(rec: &RecoveryReport) {
    println!(
        "RECOVERY: {} map journal(s) scanned, {} record(s) replayed, \
         {} epoch(s) rebuilt, {} sample(s) salvaged",
        rec.journals_scanned, rec.records_replayed, rec.epochs_recovered, rec.samples_salvaged
    );
    if rec.truncated_journals > 0 {
        println!(
            "RECOVERY: {} journal(s) truncated at the last valid record ({} damaged bytes discarded)",
            rec.truncated_journals, rec.truncated_bytes
        );
    }
    if rec.db_rebuilt {
        println!(
            "RECOVERY: sample database rebuilt from {} batch record(s) ({} undecodable)",
            rec.sample_batches_replayed, rec.bad_sample_batches
        );
    }
}
