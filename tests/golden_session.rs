//! Golden sessions: two fixed-seed profiled runs whose exported
//! artifacts must match the committed files under
//! `results/golden/<scenario>/` byte for byte.
//!
//! * `ps` is exactly `fig1`'s VIProf session at `VIPROF_SCALE=0.05`
//!   (seed 2007, background load on), the paper-faithful path.
//! * `jbb_live` is pseudojbb under live, journaled, supervised VIProf
//!   with a seeded daemon crash, so drains, journal appends and a
//!   supervisor restart all show in the timeline.
//!
//! Each scenario pins four files: the session's `telemetry.json`,
//! `timeline.json` and `trace.json` as the profiler wrote them to the
//! VFS, and `report.json`, what `viprof report --json` prints for the
//! exported session. Any change to simulated behaviour — a cost-model
//! constant, a drain moved by one cycle, a renamed metric — fails here.
//! On a mismatch the fresh files are written under the cargo target's
//! temporary directory and the failure names the first differing line
//! and the `cp` command that refreshes the goldens, so the change that
//! moves them lands as a reviewed diff of real artifacts.

mod support;

use std::path::{Path, PathBuf};
use support::drains::assert_one_record_per_drain;
use viprof_repro::oprofile::{OpConfig, ReportOptions, TELEMETRY_PATH, TIMELINE_PATH, TRACE_PATH};
use viprof_repro::sim_cpu::CostModel;
use viprof_repro::telemetry::json::ToJson;
use viprof_repro::telemetry::{names, HealthReport, Timeline};
use viprof_repro::viprof::{FaultPlan, ReportSpec, Viprof};
use viprof_repro::workloads::{
    calibrate, find_benchmark, programs, run_benchmark, ProfilerKind, RunOutcome,
};

/// `fig1`'s session: DaCapo ps under the Figure-1 configuration with
/// the harness's default seed and background load, at scale 0.05.
fn ps(cost: CostModel) -> RunOutcome {
    let built = programs::build(&find_benchmark("ps").expect("ps in catalog"));
    let plan = calibrate(&built, 0.05);
    let config = OpConfig::figure1(90_000, 9_000).with_cost(cost);
    run_benchmark(&built, &plan, ProfilerKind::Viprof(config), 2007, true)
}

/// perfbench's `stream_recover` session shrunk to a committable size:
/// pseudojbb live and journaled at 90K, the daemon crashing at its
/// third wakeup and staying down for eight, the supervisor restarting
/// it.
fn jbb_live() -> RunOutcome {
    let built = programs::build(&find_benchmark("pseudojbb").expect("pseudojbb in catalog"));
    let plan = calibrate(&built, 0.01);
    let faults = FaultPlan::new(1).with_daemon_crash(3, 8);
    let config = OpConfig {
        daemon_period_cycles: 20_000_000,
        ..OpConfig::time_at(90_000)
    }
    .with_journal()
    .with_supervisor(faults.supervisor_config());
    run_benchmark(&built, &plan, ProfilerKind::ViprofLive(config, Some(faults)), 1, true)
}

/// The four exported artifacts of a finished run, by file name.
fn artifacts(out: &RunOutcome) -> [(&'static str, String); 4] {
    let vfs = &out.machine.kernel.vfs;
    let read = |path: &str| {
        let raw = vfs.read(path).unwrap_or_else(|| panic!("no {path} in the session"));
        String::from_utf8(raw.to_vec()).expect("exported JSON is UTF-8")
    };
    // `viprof report --json` with its default row options; the rows are
    // identical for every shard count, so any fixed count will do.
    let spec = ReportSpec::default().threads(2).with_options(ReportOptions {
        min_primary_percent: 0.05,
        ..ReportOptions::default()
    });
    let db = out.db.as_ref().expect("profiled run produces a db");
    let report = Viprof::make_report(db, &out.machine.kernel, &spec).expect("report");
    let mut report_json = report.lines.to_json().to_pretty();
    report_json.push('\n');
    [
        ("telemetry.json", read(TELEMETRY_PATH)),
        ("timeline.json", read(TIMELINE_PATH)),
        ("trace.json", read(TRACE_PATH)),
        ("report.json", report_json),
    ]
}

fn golden_dir(scenario: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results/golden").join(scenario)
}

/// Where the first difference between `want` and `got` is: its line
/// number and both sides of that line, clipped around the first
/// differing byte (the compact exports are one long line).
fn first_difference(want: &str, got: &str) -> String {
    let clip = |line: &str, at: usize| {
        let start = line.floor_char_boundary(at.saturating_sub(60));
        let end = line.ceil_char_boundary((at + 60).min(line.len()));
        line[start..end].to_string()
    };
    let mut want_lines = want.lines();
    let mut got_lines = got.lines();
    for n in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (None, None) => break,
            (w, g) if w == g => continue,
            (w, g) => {
                let (w, g) = (w.unwrap_or(""), g.unwrap_or(""));
                let at = w.bytes().zip(g.bytes()).take_while(|(a, b)| a == b).count();
                return format!(
                    "line {n}, byte {at}:\n  golden: {}\n  fresh:  {}",
                    clip(w, at),
                    clip(g, at)
                );
            }
        }
    }
    "line endings differ".to_string()
}

/// Compare `fresh` against the committed goldens of `scenario`; on a
/// mismatch write every fresh file out and fail with the first
/// difference and the command that adopts them.
fn assert_matches_golden(scenario: &str, fresh: &[(&'static str, String)]) {
    let golden = golden_dir(scenario);
    let mismatch = fresh.iter().find_map(|(name, got)| {
        let path = golden.join(name);
        match std::fs::read_to_string(&path) {
            Ok(want) if want == *got => None,
            Ok(want) => Some(format!("{name} differs at {}", first_difference(&want, got))),
            Err(e) => Some(format!("cannot read {}: {e}", path.display())),
        }
    });
    let Some(why) = mismatch else { return };
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden").join(scenario);
    std::fs::create_dir_all(&out_dir).expect("create the fresh-golden directory");
    for (name, data) in fresh {
        std::fs::write(out_dir.join(name), data).expect("write a fresh golden");
    }
    panic!(
        "golden session `{scenario}` moved: {why}\n\
         fresh files are in {out}; if the change is intended, adopt them with\n  \
         cp {out}/*.json {golden}/",
        out = out_dir.display(),
        golden = golden.display(),
    );
}

#[test]
fn ps_session_matches_its_golden_export() {
    assert_matches_golden("ps", &artifacts(&ps(CostModel::default())));
}

#[test]
fn jbb_live_session_matches_its_golden_export() {
    let fresh = artifacts(&jbb_live());
    assert_matches_golden("jbb_live", &fresh);
    // The scenario exists to put a supervisor restart on the timeline.
    let [_, (_, timeline), ..] = &fresh;
    let timeline = Timeline::from_json(timeline).expect("timeline parses");
    assert!(
        HealthReport::evaluate(&timeline)
            .finding(names::HEALTH_SUPERVISOR_RESTART)
            .is_some(),
        "jbb_live must fire {}",
        names::HEALTH_SUPERVISOR_RESTART
    );
}

#[test]
fn golden_sessions_write_one_record_per_drain() {
    let (_, _, redrains) = assert_one_record_per_drain(&ps(CostModel::default()).machine.kernel.vfs);
    assert_eq!(redrains, 0, "ps runs unsupervised");
    let (_, _, redrains) = assert_one_record_per_drain(&jbb_live().machine.kernel.vfs);
    assert_eq!(redrains, 1, "jbb_live's supervisor restarts the daemon once");
}

#[test]
fn a_one_cycle_cost_change_moves_the_ps_telemetry() {
    let cost = CostModel {
        buffer_push_cycles: CostModel::default().buffer_push_cycles + 1,
        ..CostModel::default()
    };
    let [(name, telemetry), ..] = &artifacts(&ps(cost));
    let golden = std::fs::read_to_string(golden_dir("ps").join(name))
        .expect("committed ps telemetry golden");
    assert_ne!(*telemetry, golden, "the golden must see a one-cycle cost change");
}
