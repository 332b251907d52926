//! CLI contracts of the `viprof` binary:
//!
//! * with `--json` (and `--chrome`) each subcommand's stdout must be
//!   *exactly one* machine-parseable JSON document — all status,
//!   warnings, and progress go to stderr. Scripts pipe these outputs
//!   straight into `jq` or a JSON parser, so a single stray banner line
//!   is a regression;
//! * one exit-code rule: 0 on success, 1 only for a `diff` regression,
//!   2 for a usage error or a missing, corrupt or mismatched input;
//! * a session that fails its manifest checks is refused, and opened
//!   with one warning per mismatch under `--recover`.
//!
//! The fixture is a real fixed-config session exported to disk with
//! [`Viprof::export_session`], then inspected through the installed
//! binary via `CARGO_BIN_EXE_viprof` (which is why this test lives in
//! the `viprof` package rather than the workspace-root suite).

use oprofile::{OpConfig, SampleDb, SAMPLES_PATH};
use sim_cpu::{BlockExec, CpuMode};
use sim_os::{Machine, MachineConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use viprof::codemap::{map_path, render_map, CodeMapEntry};
use viprof::{ReportSpec, Viprof};
use viprof_telemetry::json::{get, parse_json, Json, ToJson};

const VIPROF: &str = env!("CARGO_BIN_EXE_viprof");

/// The one epoch code map the fixture carries, as a VM agent writes it.
const FIXTURE_MAP: &str = "var/lib/oprofile/jit/1/0/map.0000000000";

/// Build a small deterministic journaled session, with one agent code
/// map, and export it under a unique temp directory. Returns the
/// session dir (caller cleans up).
fn export_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viprof-cli-json-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");

    let mut m = Machine::new(MachineConfig::default());
    let pid = m.kernel.spawn("cli-json");
    let vp = Viprof::builder()
        .config(OpConfig::time_at(10_000))
        .journal(true)
        .start(&mut m);
    m.exec(&BlockExec::compute(pid, CpuMode::User, (0x1000, 0x2000), 1_000_000));
    vp.stop(&mut m);
    let entry = CodeMapEntry {
        addr: 0x1000,
        size: 0x100,
        level: "base".into(),
        signature: "app.Main.run".into(),
    };
    let map = map_path(pid, 0);
    assert_eq!(map, format!("/{FIXTURE_MAP}"));
    m.kernel.vfs.write(&map, render_map(&[entry]));
    Viprof::export_session(&mut m, &dir).expect("export session");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(VIPROF)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {VIPROF}: {e}"))
}

/// Write `telemetry` again with one nonzero counter raised by 1000: a
/// candidate that `diff` must flag as a regression.
fn perturbed_telemetry(telemetry: &Path, out: &Path) {
    let text = std::fs::read_to_string(telemetry).expect("read telemetry");
    let mut doc = parse_json(&text).expect("telemetry parses");
    let Json::Obj(top) = &mut doc else { panic!("telemetry is an object") };
    let Some((_, Json::Obj(counters))) = top.iter_mut().find(|(k, _)| k == "counters") else {
        panic!("counters object")
    };
    let counter = counters
        .iter_mut()
        .find_map(|(_, v)| match v {
            Json::Num(n) if *n > 0 => Some(n),
            _ => None,
        })
        .expect("some counter is nonzero");
    *counter += 1_000;
    std::fs::write(out, doc.to_string()).expect("write perturbed");
}

/// The contract under test: the whole of stdout is one JSON document.
/// `parse_json` rejects trailing garbage, so any banner, warning, or
/// second document printed to stdout fails here.
fn assert_stdout_is_one_json_document(out: &Output, what: &str) -> Json {
    assert!(
        out.status.success(),
        "{what} failed ({}): stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone())
        .unwrap_or_else(|e| panic!("{what}: stdout is not utf-8: {e}"));
    parse_json(stdout.trim_end_matches('\n')).unwrap_or_else(|e| {
        panic!("{what}: stdout is not exactly one JSON document ({e}):\n{stdout}")
    })
}

/// The top-level field `key` of a parsed document.
fn field<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    get(v.as_obj("document").ok()?, key).ok()
}

#[test]
fn json_modes_emit_exactly_one_document_on_stdout() {
    let dir = export_fixture("purity");
    let dir_s = dir.to_str().expect("utf-8 temp path");

    // report --json: the merged profile's rows.
    let out = run(&["report", dir_s, "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof report --json");
    assert!(field(&v, "rows").is_some(), "report shape: {v}");

    // stat --json: the runtime telemetry snapshot.
    let out = run(&["stat", dir_s, "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof stat --json");
    assert!(field(&v, "counters").is_some(), "telemetry snapshot shape: {v}");

    // stat --health --json: the health report over the timeline.
    let out = run(&["stat", dir_s, "--health", "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof stat --health --json");
    assert!(field(&v, "findings").is_some(), "health report shape: {v}");

    // trace --json: the structured span dump.
    let out = run(&["trace", dir_s, "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof trace --json");
    assert!(field(&v, "spans").is_some(), "span dump shape: {v}");

    // trace --chrome: the canonical Chrome trace-event JSON.
    let out = run(&["trace", dir_s, "--chrome"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof trace --chrome");
    assert!(field(&v, "traceEvents").is_some(), "chrome trace shape: {v}");

    // top --json with mid-run snapshots: they go to stderr, and stdout
    // is the sealed snapshot alone.
    let out = run(&["top", dir_s, "--json", "--interval", "1"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof top --json");
    assert!(field(&v, "quality").is_some(), "sealed snapshot shape: {v}");
    assert!(!out.stderr.is_empty(), "progress snapshots went to stderr");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `viprof top`'s final profile is the batch report over the same
/// session, whether or not it printed mid-run snapshots: the rows of
/// `report --json` (with `--min 0`, since top applies no percent
/// floor), and the quality and incarnations that
/// [`Viprof::make_report`] gives over the exported sample database.
#[test]
fn top_final_json_matches_the_batch_report() {
    let dir = export_fixture("top");
    let dir_s = dir.to_str().expect("utf-8 temp path");

    let out = run(&["report", dir_s, "--json", "--min", "0"]);
    let report = assert_stdout_is_one_json_document(&out, "viprof report --json");
    let rows = field(&report, "rows").expect("report rows");
    assert!(!rows.as_arr("rows").expect("rows array").is_empty(), "the fixture has samples");

    let kernel = Viprof::import_session(&dir).expect("import the fixture");
    let bytes = kernel.vfs.read(SAMPLES_PATH).expect("exported sample db");
    let db = SampleDb::from_bytes(bytes).expect("sample db decodes");
    let batch = Viprof::make_report(&db, &kernel, &ReportSpec::default()).expect("batch report");
    let q = &batch.quality;
    let quality = [
        ("resolved", q.resolved),
        ("stale_epoch", q.stale_epoch),
        ("unresolved", q.unresolved),
        ("quarantined", q.quarantined),
        ("cross_incarnation_blocked", q.cross_incarnation_blocked),
        ("dropped", q.dropped),
        ("evicted", q.evicted),
        ("quarantined_lines", q.quarantined_lines),
        ("skipped_map_files", q.skipped_map_files),
        ("failed_pids", q.failed_pids),
        ("missing_epochs", q.missing_epochs),
        ("accounted", q.accounted()),
    ];
    assert_eq!(q.accounted(), db.total_samples());

    for interval in ["0", "1"] {
        let what = format!("viprof top --json --interval {interval}");
        let out = run(&["top", dir_s, "--json", "--interval", interval]);
        let top = assert_stdout_is_one_json_document(&out, &what);
        assert_eq!(field(&top, "rows"), Some(rows), "{what}: rows differ from report --json");
        let top_quality = field(&top, "quality").expect("top quality");
        for (key, want) in quality {
            let got = field(top_quality, key).and_then(|v| v.as_num(key).ok());
            assert_eq!(got, Some(want), "{what}: quality.{key}");
        }
        assert_eq!(
            field(&top, "incarnations"),
            Some(&batch.incarnations.to_json()),
            "{what}: incarnations differ from the batch report"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_json_is_one_document_and_exit_codes_split_pass_fail() {
    let dir = export_fixture("diff");
    let telemetry = dir.join("var/log/viprof/telemetry.json");
    let timeline = dir.join("var/log/viprof/timeline.json");
    assert!(telemetry.is_file(), "export includes telemetry.json");
    assert!(timeline.is_file(), "export includes timeline.json");

    let path = |p: &Path| p.to_str().expect("utf-8 temp path").to_owned();

    // Identical artifacts: exit 0 and a single JSON report on stdout.
    let out = run(&["diff", &path(&telemetry), &path(&telemetry), "--json"]);
    let v = assert_stdout_is_one_json_document(&out, "viprof diff self vs self");
    assert_eq!(
        field(&v, "regressions"),
        Some(&Json::Num(0)),
        "self-diff reports no regressions: {v}"
    );

    // Artifacts of different kinds: usage/loader error, exit 2, stdout
    // stays empty (errors belong to stderr even in JSON mode).
    let out = run(&["diff", &path(&telemetry), &path(&timeline), "--json"]);
    assert_eq!(out.status.code(), Some(2), "kind mismatch is a usage error");
    assert!(out.stdout.is_empty(), "error path writes nothing to stdout");
    assert!(!out.stderr.is_empty(), "error path explains itself on stderr");

    // A genuinely different candidate: exit 1 and still exactly one
    // JSON document describing the regression.
    let perturbed = dir.join("perturbed-telemetry.json");
    perturbed_telemetry(&telemetry, &perturbed);
    let out = run(&["diff", &path(&telemetry), &path(&perturbed), "--json"]);
    assert_eq!(out.status.code(), Some(1), "regression exits 1");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let v = parse_json(stdout.trim_end_matches('\n'))
        .unwrap_or_else(|e| panic!("diff regression output is one JSON document ({e}):\n{stdout}"));
    let regressions = field(&v, "regressions").and_then(|r| r.as_num("regressions").ok());
    assert!(regressions.unwrap_or(0) >= 1, "regression recorded: {v}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_codes_follow_one_rule() {
    let dir = export_fixture("exit");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let telemetry = dir.join("var/log/viprof/telemetry.json");
    let timeline = dir.join("var/log/viprof/timeline.json");
    let perturbed = dir.join("perturbed-telemetry.json");
    perturbed_telemetry(&telemetry, &perturbed);
    let (telemetry, timeline, perturbed) = (
        telemetry.to_str().expect("utf-8 temp path"),
        timeline.to_str().expect("utf-8 temp path"),
        perturbed.to_str().expect("utf-8 temp path"),
    );
    let missing = dir.join("no-such-session");
    let missing = missing.to_str().expect("utf-8 temp path");

    let cases: &[(&[&str], i32)] = &[
        (&[], 2),
        (&["annotate", dir_s], 2),
        (&["report", dir_s, "--threads", "4"], 2),
        (&["stat", dir_s, "--events"], 2),
        (&["top", dir_s, "--rows", "many"], 2),
        (&["report", missing], 2),
        (&["stat", missing], 2),
        (&["trace", missing], 2),
        (&["top", missing], 2),
        (&["diff", missing, missing], 2),
        (&["diff", telemetry, timeline], 2),
        (&["diff", telemetry, perturbed], 1),
        (&["diff", telemetry, telemetry], 0),
        (&["report", dir_s], 0),
        (&["stat", dir_s], 0),
        (&["trace", dir_s], 0),
        (&["top", dir_s], 0),
    ];
    for (args, want) in cases {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(*want),
            "viprof {}: stderr:\n{}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        if *want == 2 {
            assert!(!out.stderr.is_empty(), "viprof {}: error explains itself", args.join(" "));
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_session_needs_recover_and_warns_per_mismatch() {
    let dir = export_fixture("recover");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let map = dir.join(FIXTURE_MAP);
    let mut text = std::fs::read_to_string(&map).expect("read exported map");
    text.push_str("0000000000002000 00000100 base app.Main.tampered\n");
    std::fs::write(&map, text).expect("tamper map");

    let subcommands: [&[&str]; 5] = [
        &["report", dir_s],
        &["stat", dir_s],
        &["trace", dir_s],
        &["top", dir_s],
        &["diff", dir_s, dir_s],
    ];
    for args in subcommands {
        let what = format!("viprof {}", args.join(" "));
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{what} refuses a tampered session");
        assert!(out.stdout.is_empty(), "{what} prints nothing on refusal");

        let out = run(&[args, &["--recover"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{what} --recover succeeds: stderr:\n{stderr}");
        assert!(!out.stdout.is_empty(), "{what} --recover prints its output");
        let warnings: Vec<&str> = stderr.lines().filter(|l| l.contains("WARNING")).collect();
        let sessions = args.iter().filter(|a| **a == dir_s).count();
        assert!(
            warnings.len() == sessions && warnings.iter().all(|l| l.contains(FIXTURE_MAP)),
            "{what} --recover warns once per mismatch: stderr:\n{stderr}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
