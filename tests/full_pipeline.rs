//! Cross-crate integration tests: the whole stack driven end to end,
//! checking the properties the per-crate unit tests can't see.

use viprof_repro::oprofile::{opreport, OpConfig, Oprofile, ReportOptions, SampleDb};
use viprof_repro::sim_cpu::HwEvent;
use viprof_repro::viprof::codemap::CodeMapSet;
use viprof_repro::viprof::{ReportSpec, Viprof};
use viprof_repro::workloads::{
    calibrate, find_benchmark, programs, run_benchmark, BuiltWorkload, ProfilerKind, WorkPlan,
};

fn small_workload(name: &str) -> (BuiltWorkload, WorkPlan) {
    let mut params = find_benchmark(name).expect("benchmark exists");
    params.support_methods = params.support_methods.min(120);
    params.heap_mb = 2;
    let built = programs::build(&params);
    let plan = calibrate(&built, 0.02);
    (built, plan)
}

#[test]
fn whole_runs_are_bit_deterministic() {
    let (built, plan) = small_workload("fop");
    let a = run_benchmark(&built, &plan, ProfilerKind::viprof_at(50_000), 42, true);
    let b = run_benchmark(&built, &plan, ProfilerKind::viprof_at(50_000), 42, true);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.db.as_ref().unwrap(), b.db.as_ref().unwrap());
    assert_eq!(a.vm, b.vm);
}

#[test]
fn viprof_and_oprofile_count_the_same_events_differently() {
    // Same plan, same seed, no noise: both profilers see (nearly) the
    // same number of samples — they differ only in classification.
    let (built, plan) = small_workload("fop");
    let o = run_benchmark(&built, &plan, ProfilerKind::oprofile_at(90_000), 1, false);
    let v = run_benchmark(&built, &plan, ProfilerKind::viprof_at(90_000), 1, false);
    let od = o.driver.unwrap();
    let vd = v.driver.unwrap();
    // Sample counts are in the same ballpark (the VIProf run is longer:
    // its agent's map writes are themselves profiled — extra kernel and
    // VM-image samples, not extra JIT samples).
    let ratio = od.total as f64 / vd.total as f64;
    assert!((0.7..1.3).contains(&ratio), "{od:?} vs {vd:?}");
    // OProfile's anon ≈ VIProf's jit (the same PCs, reclassified).
    assert!(od.anon > 0);
    assert_eq!(od.jit, 0);
    assert_eq!(vd.anon, 0);
    assert!(vd.jit > 0);
    let reclass = od.anon as f64 / vd.jit as f64;
    assert!((0.8..1.25).contains(&reclass), "anon {} vs jit {}", od.anon, vd.jit);
}

#[test]
fn report_percentages_are_consistent() {
    let (built, plan) = small_workload("ps");
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::Viprof(OpConfig::figure1(50_000, 2_000)),
        3,
        true,
    );
    let db = out.db.as_ref().unwrap();
    let report = Viprof::make_report(db, &out.machine.kernel, &ReportSpec::default())
        .unwrap()
        .lines;
    assert_eq!(report.events, vec![HwEvent::Cycles, HwEvent::L2Miss]);
    // Unfiltered percentages sum to 100 per event column.
    for col in 0..report.events.len() {
        let sum: f64 = report.rows.iter().map(|r| r.percents[col]).sum();
        assert!(
            (sum - 100.0).abs() < 1e-6,
            "column {col} sums to {sum}"
        );
        // And counts sum to the db totals.
        let count: u64 = report.rows.iter().map(|r| r.counts[col]).sum();
        assert_eq!(count, db.total(report.events[col]));
    }
}

#[test]
fn sample_db_round_trips_through_the_vfs() {
    let (built, plan) = small_workload("fop");
    let out = run_benchmark(&built, &plan, ProfilerKind::viprof_at(70_000), 5, false);
    let db = out.db.as_ref().unwrap();
    let raw = out
        .machine
        .kernel
        .vfs
        .read(viprof_repro::oprofile::session::SAMPLES_PATH)
        .expect("stop() persists the db");
    let parsed = SampleDb::from_bytes(raw).unwrap();
    assert_eq!(&parsed, db);
}

#[test]
fn code_maps_on_disk_resolve_every_jit_sample() {
    let (built, plan) = small_workload("antlr");
    let out = run_benchmark(&built, &plan, ProfilerKind::viprof_at(40_000), 9, false);
    let db = out.db.as_ref().unwrap();
    let pid = db
        .iter()
        .find_map(|(b, _)| match b.origin {
            viprof_repro::oprofile::SampleOrigin::JitApp { pid, .. } => Some(pid),
            _ => None,
        })
        .expect("JIT samples exist");
    let maps = CodeMapSet::load(&out.machine.kernel.vfs, pid).unwrap();
    assert!(!maps.is_empty());
    let mut jit = 0u64;
    let mut resolved = 0u64;
    for (b, c) in db.iter() {
        if matches!(b.origin, viprof_repro::oprofile::SampleOrigin::JitApp { .. }) {
            jit += c;
            if maps.resolve(b.addr, b.epoch).is_some() {
                resolved += c;
            }
        }
    }
    assert!(jit > 100, "need a meaningful sample count, got {jit}");
    // Flag-only agent: ≥99 % (see E4 for the documented residue).
    assert!(
        resolved as f64 / jit as f64 > 0.99,
        "resolved {resolved}/{jit}"
    );
}

#[test]
fn profiler_sessions_are_serially_reusable() {
    // Start/stop OProfile then VIProf on one machine: no leakage.
    let mut params = find_benchmark("fop").unwrap();
    params.support_methods = 40;
    params.heap_mb = 2;
    let built = programs::build(&params);
    let mut machine = viprof_repro::sim_os::Machine::new(Default::default());

    let op = Oprofile::start(&mut machine, OpConfig::time_at(50_000));
    let mut vm = viprof_repro::sim_jvm::Vm::boot(
        &mut machine,
        built.program.clone(),
        built.natives.clone(),
        viprof_repro::workloads::runner::vm_config(&built.params),
        Box::new(viprof_repro::sim_jvm::NullHooks),
    );
    vm.call(&mut machine, built.startup, &[]);
    let db1 = op.stop(&mut machine);
    assert!(db1.total_samples() > 0);

    let vp = Viprof::builder()
        .config(OpConfig::time_at(50_000))
        .start(&mut machine);
    let mut vm2 = viprof_repro::sim_jvm::Vm::boot(
        &mut machine,
        built.program.clone(),
        built.natives.clone(),
        viprof_repro::workloads::runner::vm_config(&built.params),
        Box::new(vp.make_agent()),
    );
    vm2.call(&mut machine, built.startup, &[]);
    vm2.shutdown(&mut machine);
    let db2 = vp.stop(&mut machine);
    assert!(db2.total_samples() > 0);
    assert!(vp.driver_stats().jit + vp.driver_stats().image > 0);
}

#[test]
fn opreport_of_viprof_db_degrades_not_crashes() {
    // Classic opreport over a VIProf-tagged db: JIT buckets render as
    // opaque rows rather than panicking.
    let (built, plan) = small_workload("fop");
    let out = run_benchmark(&built, &plan, ProfilerKind::viprof_at(60_000), 2, false);
    let report = opreport(
        out.db.as_ref().unwrap(),
        &out.machine.kernel,
        &ReportOptions::default(),
    );
    assert!(report
        .rows
        .iter()
        .any(|r| r.image.starts_with("JIT.App") && r.symbol == "(no symbols)"));
}

#[test]
fn exported_session_reports_identically_offline() {
    // Export a finished session to disk, re-import it cold (no machine,
    // no simulation state) and check the merged report is identical —
    // the `viprof report` CLI path.
    let (built, plan) = small_workload("ps");
    let mut out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::Viprof(OpConfig::figure1(50_000, 2_000)),
        11,
        true,
    );
    let db = out.db.clone().unwrap();
    let live_report = Viprof::make_report(&db, &out.machine.kernel, &ReportSpec::default())
        .unwrap()
        .lines;

    let dir = std::env::temp_dir().join(format!("viprof-session-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Viprof::export_session(&mut out.machine, &dir).unwrap();
    let kernel = Viprof::import_session(&dir).unwrap();
    let raw = kernel
        .vfs
        .read(viprof_repro::oprofile::session::SAMPLES_PATH)
        .expect("db persisted in session");
    let db2 = SampleDb::from_bytes(raw).unwrap();
    assert_eq!(db2, db);
    let offline_report = Viprof::make_report(&db2, &kernel, &ReportSpec::default())
        .unwrap()
        .lines;
    assert_eq!(offline_report.rows, live_report.rows);
    assert_eq!(offline_report.totals, live_report.totals);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn faster_sampling_more_samples_more_overhead() {
    let (built, plan) = small_workload("fop");
    let mut last_samples = 0u64;
    let mut last_cycles = u64::MAX;
    for period in [450_000u64, 90_000, 45_000] {
        let out = run_benchmark(&built, &plan, ProfilerKind::viprof_at(period), 1, false);
        let samples = out.db.unwrap().total_samples();
        assert!(samples > last_samples, "period {period}");
        last_samples = samples;
        if last_cycles != u64::MAX {
            assert!(out.cycles > last_cycles, "period {period} must cost more");
        }
        last_cycles = out.cycles;
    }
}
