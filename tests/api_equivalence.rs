//! v0.3 surface equivalence: the consolidated API's spellings of one
//! post-processing pass must agree bit for bit. Same seed, same
//! workload → identical sample databases, cycle counts, quality
//! accounting and rendered report bytes — whether the caller goes
//! through `Viprof::make_report`, a hand-held `ResolutionEngine`, or
//! the streaming `LiveEngine`.
//!
//! This file compiles with `-D deprecated` in `scripts/verify.sh`: it
//! is the proof that the supported surface needs no removed shim.

use viprof_repro::oprofile::{OpConfig, ReportOptions, SampleDb, SupervisorConfig};
use viprof_repro::sim_os::{Machine, MachineConfig};
use viprof_repro::viprof::report as oracle;
use viprof_repro::viprof::resolve::ResolveOptions;
use viprof_repro::viprof::{
    viprof_report, FaultPlan, LiveSpec, ReportSpec, ResolutionEngine, Viprof, ViprofResolver,
};
use viprof_repro::workloads::runner::execute_plan;
use viprof_repro::workloads::{calibrate, find_benchmark, programs, BuiltWorkload, WorkPlan};

const SEED: u64 = 9;

fn small_workload() -> (BuiltWorkload, WorkPlan) {
    let mut params = find_benchmark("fop").expect("benchmark exists");
    params.support_methods = params.support_methods.min(120);
    params.heap_mb = 2;
    let built = programs::build(&params);
    let plan = calibrate(&built, 0.02);
    (built, plan)
}

/// Drive one full session with `start` supplying the profiler; returns
/// everything equivalence needs to compare.
fn run_session(
    built: &BuiltWorkload,
    plan: &WorkPlan,
    start: impl FnOnce(&mut Machine) -> Viprof,
) -> (SampleDb, u64, Machine) {
    let mut machine = Machine::new(MachineConfig {
        seed: SEED,
        ..MachineConfig::default()
    });
    let vp = start(&mut machine);
    execute_plan(&mut machine, built, plan, Box::new(vp.make_agent()));
    let db = vp.stop(&mut machine);
    (db, machine.cpu.clock.cycles(), machine)
}

#[test]
fn preconfigured_opconfig_equals_builder_toggles() {
    // Journal + supervisor hand-chained onto the config before the
    // builder sees it, vs. the builder's own toggles: bit-identical
    // sessions either way.
    let (built, plan) = small_workload();
    let fp = FaultPlan::new(33).with_daemon_crash(3, 2).with_torn_maps(0.5);
    let (db_old, cycles_old, m_old) = run_session(&built, &plan, |m| {
        Viprof::builder()
            .config(
                OpConfig::time_at(60_000)
                    .with_journal()
                    .with_supervisor(fp.supervisor_config()),
            )
            .faults(&fp)
            .start(m)
    });
    let (db_new, cycles_new, m_new) = run_session(&built, &plan, |m| {
        Viprof::builder()
            .config(OpConfig::time_at(60_000))
            .journal(true)
            .supervised(true)
            .faults(&fp)
            .start(m)
    });
    assert_eq!(cycles_old, cycles_new);
    assert_eq!(db_old, db_new);
    // The recovered reports agree byte for byte as well.
    let old = Viprof::make_report(&db_old, &m_old.kernel, &ReportSpec::recovered()).unwrap();
    let new = Viprof::make_report(&db_new, &m_new.kernel, &ReportSpec::recovered()).unwrap();
    assert_eq!(old, new);
}

#[test]
fn supervised_false_override_differs_from_supervised_config() {
    // Sanity that the toggle actually reaches the supervisor: forcing
    // it off beats a config that asked for one.
    let (built, plan) = small_workload();
    let mut machine = Machine::new(MachineConfig {
        seed: SEED,
        ..MachineConfig::default()
    });
    let vp = Viprof::builder()
        .config(OpConfig::time_at(60_000).with_supervisor(SupervisorConfig::default()))
        .supervised(false)
        .start(&mut machine);
    execute_plan(&mut machine, &built, &plan, Box::new(vp.make_agent()));
    vp.stop(&mut machine);
    assert!(vp.supervisor_stats().is_none());
}

#[test]
fn make_report_equals_engine_resolve() {
    // `Viprof::make_report` and a hand-held resolver + engine are the
    // same pass: lines, quality and incarnation rows all agree, for
    // every thread count.
    let (built, plan) = small_workload();
    let (db, _, machine) = run_session(&built, &plan, |m| {
        Viprof::builder().config(OpConfig::time_at(60_000)).start(m)
    });
    let kernel = &machine.kernel;
    let options = ReportOptions {
        min_primary_percent: 0.05,
        ..ReportOptions::default()
    };
    let spec = ReportSpec::default().with_options(options.clone());
    let unified = Viprof::make_report(&db, kernel, &spec).unwrap();

    let (resolver, rec) = ViprofResolver::load_with(kernel, ResolveOptions::default()).unwrap();
    assert_eq!(rec, Default::default(), "plain load reports no recovery");
    assert_eq!(
        viprof_report(&db, kernel, &resolver, &options),
        unified.lines,
        "legacy walk agrees with the unified pass"
    );
    for threads in [1usize, 4] {
        let mut engine = ResolutionEngine::build(&resolver);
        let session = engine.resolve(&db, kernel, &spec.clone().threads(threads));
        assert_eq!(session.lines, unified.lines);
        assert_eq!(session.lines.render_text(), unified.lines.render_text());
        assert_eq!(session.lines.render_csv(), unified.lines.render_csv());
        assert_eq!(session.quality, unified.quality);
        assert_eq!(session.incarnations, unified.incarnations);
        assert_eq!(session.recovery, None, "replay is a load-time concern");
    }
}

#[test]
fn recovered_spec_equals_recovered_load() {
    // `ReportSpec::recovered()` through `make_report` and
    // `ResolveOptions::recovered()` through `load_with` run the same
    // salvage pass.
    let (built, plan) = small_workload();
    let fp = FaultPlan::new(11).with_torn_maps(1.0);
    let (db, _, machine) = run_session(&built, &plan, |m| {
        Viprof::builder()
            .config(OpConfig::time_at(60_000))
            .journal(true)
            .faults(&fp)
            .start(m)
    });
    let kernel = &machine.kernel;
    let options = ReportOptions::default();
    let unified = Viprof::make_report(
        &db,
        kernel,
        &ReportSpec::recovered().with_options(options.clone()),
    )
    .unwrap();
    assert!(unified.recovery.is_some(), "recover: true fills recovery");

    let (resolver, recovery) =
        ViprofResolver::load_with(kernel, ResolveOptions::recovered()).unwrap();
    // `make_report` fills `samples_salvaged` by running the degraded
    // baseline alongside; the load-time half of the report must match
    // field for field.
    let unified_rec = unified.recovery.expect("recovery filled");
    let mut aligned = recovery;
    aligned.samples_salvaged = unified_rec.samples_salvaged;
    assert_eq!(aligned, unified_rec);
    assert_eq!(viprof_report(&db, kernel, &resolver, &options), unified.lines);
    assert_eq!(oracle::quality(&resolver, &db), unified.quality);
    // And the engine built from the recovered resolver agrees.
    assert_eq!(
        ResolutionEngine::build(&resolver).quality(&db, 4),
        unified.quality
    );
}

#[test]
fn spec_builders_reach_every_field() {
    // The `#[non_exhaustive]` specs are built exclusively through
    // `with_*` methods; each one must actually land.
    let spec = ReportSpec::default()
        .with_options(ReportOptions {
            min_primary_percent: 1.5,
            ..ReportOptions::default()
        })
        .with_recover(true)
        .threads(8);
    assert!((spec.options.min_primary_percent - 1.5).abs() < f64::EPSILON);
    assert!(spec.recover);
    assert_eq!(spec.threads, 8);
    assert!(spec.poison.is_none());
    assert!(ReportSpec::recovered().recover);

    assert!(ResolveOptions::recovered().recover);
    assert!(!ResolveOptions::default().with_recover(false).recover);
}

#[test]
fn live_builder_snapshot_equals_make_report() {
    // The streaming spelling of the same session: a `live(LiveSpec)`
    // builder session's sealed snapshot is the batch report.
    let (built, plan) = small_workload();
    let mut machine = Machine::new(MachineConfig {
        seed: SEED,
        ..MachineConfig::default()
    });
    let vp = Viprof::builder()
        .config(OpConfig::time_at(60_000))
        .journal(true)
        .live(LiveSpec::new())
        .start(&mut machine);
    execute_plan(&mut machine, &built, &plan, Box::new(vp.make_agent()));
    let db = vp.stop(&mut machine);

    let spec = ReportSpec::default();
    let offline = Viprof::make_report(&db, &machine.kernel, &spec).unwrap();
    let live = vp
        .live_snapshot(&machine.kernel, &spec)
        .expect("live session exposes its engine");
    assert_eq!(live.lines, offline.lines);
    assert_eq!(live.quality, offline.quality);
    assert_eq!(live.incarnations, offline.incarnations);

    // A session built without `live(..)` has no engine to expose.
    let (_, _, _) = run_session(&built, &plan, |m| {
        let vp = Viprof::builder().config(OpConfig::time_at(60_000)).start(m);
        assert!(vp.live_snapshot(&m.kernel, &ReportSpec::default()).is_none());
        vp
    });
}
