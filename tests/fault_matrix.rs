//! Fault-injection matrix: the whole pipeline driven end to end under
//! a seeded fault schedule at every layer, checking the degradation
//! contract the per-crate unit tests can't see:
//!
//! * a faulted run **never panics** — it completes and still reports;
//! * the [`ResolutionQuality`] buckets account for **100 %** of the
//!   samples the driver emitted, and drops are never silent;
//! * the same seed replays the same faults **bit for bit** — identical
//!   sample databases, fault counters and quality reports.
//!
//! The supervised variants re-run the same scenarios with the crash-
//! consistency layer on (map + sample journaling, daemon watchdog) and
//! check the *recovery* contract: journal replay never resolves fewer
//! samples than the degraded baseline, and strictly more where the
//! journal holds what the disk lost.

mod support;

use support::drains::{assert_one_record_per_drain, drain_spans, field};
use support::oracle;
use viprof_repro::oprofile::session::TIMELINE_PATH;
use viprof_repro::oprofile::{GovernorConfig, OpConfig, ReportOptions, SampleDb, SampleOrigin};
use viprof_repro::sim_os::{Machine, MachineConfig};
use viprof_repro::telemetry::{names, HealthReport, Timeline};
use viprof_repro::viprof::codemap::JIT_MAP_DIR;
use viprof_repro::viprof::resolve::ResolveOptions;
use viprof_repro::viprof::{
    recover_sample_db, FaultPlan, RecoveryReport, ReportSpec, ResolutionEngine,
    ResolutionQuality, ShardPoison, Viprof, ViprofResolver,
};
use viprof_repro::workloads::{
    calibrate, find_benchmark, programs, run_benchmark, BuiltWorkload, ProfilerKind, RunOutcome,
    WorkPlan,
};

const PERIOD: u64 = 60_000;
/// Shard count used for the multi-threaded leg of every scenario.
const SHARDS: usize = 4;

fn small_workload() -> (BuiltWorkload, WorkPlan) {
    let mut params = find_benchmark("fop").expect("benchmark exists");
    params.support_methods = params.support_methods.min(120);
    params.heap_mb = 2;
    let built = programs::build(&params);
    let plan = calibrate(&built, 0.02);
    (built, plan)
}

/// Post-process a finished run three ways — reference epoch walk,
/// flattened engine single-threaded, flattened engine sharded — and
/// enforce two contracts on every fault scenario in the matrix:
///
/// * accounting: quality buckets sum to exactly the emitted sample
///   count, and the drop counter matches the database's;
/// * bit-identity: all three paths produce the same report rows and
///   the same `ResolutionQuality`.
fn quality_of(out: &RunOutcome) -> ResolutionQuality {
    let db = out.db.as_ref().expect("profiled run");
    let kernel = &out.machine.kernel;
    let options = ReportOptions::default();
    // Reference: the legacy per-bucket epoch walk.
    let (resolver, _) = ViprofResolver::load_with(kernel, ResolveOptions::default())
        .expect("degraded sessions still report");
    let walk_report = oracle::viprof_report(db, kernel, &resolver, &options);
    let walk_q = oracle::quality(&resolver, kernel, db);
    // Production: flattened index, single-threaded and sharded.
    let single = Viprof::make_report(db, kernel, &ReportSpec::default())
        .expect("degraded sessions still report");
    let sharded = Viprof::make_report(db, kernel, &ReportSpec::default().threads(SHARDS))
        .expect("degraded sessions still report");
    assert_eq!(single.lines, walk_report, "flattened vs walk report");
    assert_eq!(single.quality, walk_q, "flattened vs walk quality");
    assert_eq!(sharded.lines, walk_report, "sharded vs walk report");
    assert_eq!(sharded.quality, walk_q, "sharded vs walk quality");
    // Lineage: every loss bucket decomposes to causal spans whose
    // totals reconcile *exactly* with the quality counts (and thus,
    // transitively, with the flight-recorder overflow accounting,
    // which the per-scenario tests pin to `db.dropped`), and the whole
    // trace is byte-identical at every shard count.
    for (label, report) in [("single", &single), ("sharded", &sharded)] {
        for (bucket, want) in [
            ("dropped", report.quality.dropped),
            ("evicted", report.quality.evicted),
            ("quarantined", report.quality.quarantined),
            ("blocked", report.quality.cross_incarnation_blocked),
        ] {
            assert_eq!(
                report.lineage.total(bucket),
                want,
                "{label}: lineage {bucket} diverged from quality"
            );
        }
    }
    assert_eq!(single.lineage, sharded.lineage, "lineage depends on shard count");
    assert_eq!(
        single.trace.to_chrome_json(),
        sharded.trace.to_chrome_json(),
        "trace export depends on shard count"
    );
    let q = single.quality;
    assert_eq!(q.accounted(), db.total_samples(), "unaccounted samples: {q:?}");
    assert_eq!(q.dropped, db.dropped, "silent drops: {q:?}");
    // Rendering must not panic either, however damaged the session.
    let _ = single.lines.render_text();
    let _ = single.lineage.render_text();
    q
}

/// Post-process with the journal-replay recovery pass, enforcing the
/// same accounting and three-way bit-identity contracts on the
/// recovered state.
fn recovery_of(out: &RunOutcome) -> (ResolutionQuality, RecoveryReport) {
    let db = out.db.as_ref().expect("profiled run");
    let kernel = &out.machine.kernel;
    let options = ReportOptions::default();
    let (resolver, _) = ViprofResolver::load_with(kernel, ResolveOptions::recovered())
        .expect("recovery still reports");
    let walk_report = oracle::viprof_report(db, kernel, &resolver, &options);
    let walk_q = oracle::quality(&resolver, kernel, db);
    let single =
        Viprof::make_report(db, kernel, &ReportSpec::recovered()).expect("recovery still reports");
    let sharded = Viprof::make_report(db, kernel, &ReportSpec::recovered().threads(SHARDS))
        .expect("recovery still reports");
    assert_eq!(single.lines, walk_report, "recovered flattened vs walk report");
    assert_eq!(single.quality, walk_q, "recovered flattened vs walk quality");
    assert_eq!(sharded.lines, walk_report, "recovered sharded vs walk report");
    assert_eq!(sharded.quality, walk_q, "recovered sharded vs walk quality");
    // The engine built directly from the recovered resolver agrees too.
    let engine = ResolutionEngine::build(&resolver);
    assert_eq!(engine.quality(db, SHARDS), walk_q, "direct engine quality");
    let q = single.quality;
    let rec = single.recovery.expect("recover spec returns a recovery report");
    assert_eq!(
        rec,
        sharded.recovery.expect("sharded recovery report"),
        "recovery report must not depend on shard count"
    );
    assert_eq!(q.accounted(), db.total_samples(), "unaccounted after recovery: {q:?}");
    assert_eq!(q.dropped, db.dropped, "silent drops after recovery: {q:?}");
    // Recovered passes carry the same lineage contract.
    for (bucket, want) in [
        ("dropped", q.dropped),
        ("evicted", q.evicted),
        ("quarantined", q.quarantined),
        ("blocked", q.cross_incarnation_blocked),
    ] {
        assert_eq!(
            single.lineage.total(bucket),
            want,
            "recovered lineage {bucket} diverged from quality"
        );
    }
    assert_eq!(
        single.lineage, sharded.lineage,
        "recovered lineage depends on shard count"
    );
    let _ = single.lines.render_text();
    (q, rec)
}

fn jit_samples(out: &RunOutcome) -> u64 {
    out.db
        .as_ref()
        .unwrap()
        .iter()
        .filter(|(b, _)| matches!(b.origin, SampleOrigin::JitApp { .. }))
        .map(|(_, c)| c)
        .sum()
}

#[test]
fn empty_fault_plan_changes_nothing() {
    let (built, plan) = small_workload();
    let base = run_benchmark(&built, &plan, ProfilerKind::viprof_at(PERIOD), 42, false);
    let faulty = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_faulty_at(PERIOD, FaultPlan::new(42)),
        42,
        false,
    );
    assert_eq!(faulty.cycles, base.cycles, "no-op plan must cost nothing");
    assert_eq!(faulty.db, base.db);
    let q = quality_of(&faulty);
    assert_eq!(q.quarantined_lines, 0);
    assert_eq!(q.failed_pids, 0);
}

#[test]
fn total_overflow_drops_every_sample_visibly() {
    let (built, plan) = small_workload();
    let plan_all_drop = FaultPlan::new(7).with_overflow_bursts(1.0, 4);
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_faulty_at(PERIOD, plan_all_drop),
        1,
        false,
    );
    let db = out.db.as_ref().unwrap();
    let fr = out.faults.unwrap();
    assert_eq!(db.total_samples(), 0, "burst rate 1.0 drops every sample");
    assert!(fr.driver.forced_drops > 0);
    assert_eq!(db.dropped, fr.driver.forced_drops, "every drop is counted");
    let q = quality_of(&out);
    assert_eq!(q.accounted(), 0);
    assert_eq!(q.dropped, db.dropped);
}

#[test]
fn daemon_crash_overflows_the_buffer_visibly() {
    let (built, plan) = small_workload();
    // A tiny ring buffer so the crash's missed drain windows must
    // overflow it — the organic failure mode, not an injected drop —
    // and a fast daemon timer so the crash schedule actually plays out
    // within a small workload.
    let config = OpConfig {
        buffer_capacity: 8,
        daemon_period_cycles: 300_000,
        ..OpConfig::time_at(PERIOD)
    };
    let chaos = FaultPlan::new(5).with_daemon_crash(2, 8);
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::ViprofFaulty(config, chaos),
        1,
        false,
    );
    let fr = out.faults.unwrap();
    assert_eq!(fr.daemon.crashes, 1);
    assert_eq!(fr.daemon.missed_drains, 9, "crash wakeup + 8 down windows");
    assert_eq!(fr.driver.forced_drops, 0, "no injected drops in this plan");
    let db = out.db.as_ref().unwrap();
    assert!(db.dropped > 0, "8-slot buffer must overflow while down");
    assert!(db.total_samples() > 0, "the restarted daemon drains again");
    // The trace explains the outage without the fault report: drain
    // spans carry per-drain overflow counts that reconcile with the
    // database exactly.
    let snap = out.telemetry.as_ref().expect("profiled run records telemetry");
    let trace = out.trace.as_ref().expect("profiled run records a trace");
    let overflows: Vec<u64> = drain_spans(trace)
        .iter()
        .map(|s| field(s, "dropped") - field(s, "dead"))
        .filter(|&n| n > 0)
        .collect();
    assert!(!overflows.is_empty(), "the overflow left no trace");
    let dropped_in_spans: u64 = overflows.iter().sum();
    assert_eq!(dropped_in_spans, db.dropped, "every drop traces to a drain span");
    assert_eq!(snap.counter(names::BUFFER_DROPPED), db.dropped);
    quality_of(&out);
}

#[test]
fn lost_maps_leave_jit_samples_unresolved_not_lost() {
    let (built, plan) = small_workload();
    let chaos = FaultPlan::new(3).with_lost_maps(1.0);
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_faulty_at(PERIOD, chaos),
        1,
        false,
    );
    let fr = out.faults.unwrap();
    assert!(fr.maps.lost_maps > 0, "every map write was swallowed");
    let jit = jit_samples(&out);
    assert!(jit > 0, "the driver still classifies JIT samples");
    let q = quality_of(&out);
    assert!(
        q.unresolved >= jit,
        "with no maps on disk every JIT sample is unresolved: {q:?}"
    );
    assert_eq!(q.resolved + q.stale_epoch + q.unresolved, q.accounted());
}

#[test]
fn torn_maps_degrade_resolution_not_timing() {
    let (built, plan) = small_workload();
    let base = run_benchmark(&built, &plan, ProfilerKind::viprof_at(PERIOD), 2, false);
    let chaos = FaultPlan::new(9).with_torn_maps(1.0);
    let torn = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_faulty_at(PERIOD, chaos),
        2,
        false,
    );
    // Map damage is post-mortem damage: sampling is untouched.
    assert_eq!(torn.cycles, base.cycles);
    assert_eq!(torn.db, base.db);
    assert!(torn.faults.unwrap().maps.torn_maps > 0);
    let bq = quality_of(&base);
    let tq = quality_of(&torn);
    // Each torn file keeps a parseable prefix, so resolution degrades
    // at worst — it never improves.
    assert!(tq.resolved <= bq.resolved, "torn {tq:?} vs base {bq:?}");
}

#[test]
fn garbled_maps_quarantine_lines_and_still_report() {
    let (built, plan) = small_workload();
    let chaos = FaultPlan::new(13).with_garbled_lines(1.0);
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_faulty_at(PERIOD, chaos),
        1,
        false,
    );
    let fr = out.faults.unwrap();
    assert!(fr.maps.garbled_lines > 0);
    let jit = jit_samples(&out);
    assert!(jit > 0);
    let q = quality_of(&out);
    assert!(q.quarantined_lines > 0, "damage is counted, not hidden");
    assert!(
        q.unresolved >= jit,
        "every map line was garbled, so no JIT sample resolves: {q:?}"
    );
}

#[test]
fn epoch_skew_falls_back_to_forward_salvage() {
    let (built, plan) = small_workload();
    let chaos = FaultPlan::new(21).with_epoch_skew(3);
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_faulty_at(PERIOD, chaos),
        1,
        false,
    );
    let fr = out.faults.unwrap();
    assert!(fr.driver.skewed > 0, "every JIT sample's epoch was rewound");
    let q = quality_of(&out);
    // Code compiled in later epochs is absent from the (rewound) epoch's
    // backward chain; the forward-salvage pass recovers it as stale.
    assert!(q.stale_epoch > 0, "salvage never fired: {q:?}");
    assert!(
        q.resolved + q.stale_epoch > 0,
        "skew must not zero out resolution: {q:?}"
    );
}

#[test]
fn chaos_plan_replays_bit_for_bit() {
    let (built, plan) = small_workload();
    let chaos = || {
        FaultPlan::new(42)
            .with_overflow_bursts(0.1, 3)
            .with_sample_corruption(0.05)
            .with_epoch_skew(1)
            .with_daemon_stalls(0.2)
            .with_daemon_crash(3, 2)
            .with_lost_maps(0.2)
            .with_torn_maps(0.2)
            .with_garbled_lines(0.1)
    };
    let run = |fault_seed: u64| {
        let mut p = chaos();
        p.seed = fault_seed;
        // Fast daemon timer so the stall/crash schedule gets exercised.
        let config = OpConfig {
            daemon_period_cycles: 300_000,
            ..OpConfig::time_at(PERIOD)
        };
        run_benchmark(&built, &plan, ProfilerKind::ViprofFaulty(config, p), 11, false)
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.db, b.db);
    assert_eq!(a.faults, b.faults);
    assert_eq!(quality_of(&a), quality_of(&b));
    // A different fault seed draws a different schedule.
    let c = run(43);
    assert_ne!(a.db, c.db, "fault schedule must depend on the seed");
}

// ---- supervised variants: the crash-consistency layer under the same
// ---- fault schedules ------------------------------------------------

#[test]
fn supervised_daemon_crash_salvages_dropped_samples() {
    // The daemon-crash scenario above, bare vs supervised. The watchdog
    // restarts the daemon mid-outage and catch-up-drains the backlog,
    // so the supervised run keeps strictly more samples and drops
    // strictly fewer — the first strict improvement over PR 1.
    let (built, plan) = small_workload();
    let config = || OpConfig {
        buffer_capacity: 8,
        daemon_period_cycles: 300_000,
        ..OpConfig::time_at(PERIOD)
    };
    let chaos = || FaultPlan::new(5).with_daemon_crash(2, 8);
    let bare = run_benchmark(
        &built,
        &plan,
        ProfilerKind::ViprofFaulty(config(), chaos()),
        1,
        false,
    );
    let sup = run_benchmark(
        &built,
        &plan,
        ProfilerKind::ViprofSupervised(config(), chaos()),
        1,
        false,
    );

    let stats = sup.supervisor.expect("supervised run carries stats");
    assert!(stats.restarts >= 1, "the watchdog must fire: {stats:?}");
    assert!(stats.missed_observed >= 2, "{stats:?}");
    assert!(stats.redrained_samples > 0, "catch-up drain recovered the backlog");
    // The revive is reconstructible from the flight recorder alone:
    // one event per missed window and per restart, with the restart
    // events carrying the exact catch-up salvage.
    let snap = sup.telemetry.as_ref().expect("supervised run records telemetry");
    let restarts = snap.events_of(names::EVENT_SUPERVISOR_RESTART);
    assert_eq!(restarts.len() as u64, stats.restarts, "each restart is an event");
    assert_eq!(
        snap.events_of(names::EVENT_SUPERVISOR_MISSED).len() as u64,
        stats.missed_observed,
        "each missed window is an event"
    );
    let redrained_in_events: u64 = restarts
        .iter()
        .filter_map(|e| e.fields.iter().find(|(k, _)| k == "redrained"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(redrained_in_events, stats.redrained_samples);

    let bare_db = bare.db.as_ref().unwrap();
    let sup_db = sup.db.as_ref().unwrap();
    assert!(
        sup_db.dropped < bare_db.dropped,
        "restart must cut the outage short: supervised dropped {} vs bare {}",
        sup_db.dropped,
        bare_db.dropped
    );
    assert!(
        sup_db.total_samples() > bare_db.total_samples(),
        "supervised kept {} vs bare {}",
        sup_db.total_samples(),
        bare_db.total_samples()
    );

    let bare_q = quality_of(&bare);
    let (sup_q, _) = recovery_of(&sup);
    assert!(
        sup_q.resolved >= bare_q.resolved,
        "recovery resolves no fewer: {sup_q:?} vs {bare_q:?}"
    );
}

#[test]
fn supervised_torn_maps_replay_to_the_clean_run() {
    // The torn-maps scenario, journaled. Map damage stays post-mortem
    // (sampling identical to the clean run), and replaying the journal
    // restores the clean run's resolution exactly. Then the disk is
    // wiped outright: the degraded baseline collapses while the replay
    // still restores everything — the second strict improvement.
    let (built, plan) = small_workload();
    let base = run_benchmark(&built, &plan, ProfilerKind::viprof_at(PERIOD), 2, false);
    let chaos = FaultPlan::new(9).with_torn_maps(1.0);
    let mut torn = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_supervised_at(PERIOD, chaos),
        2,
        false,
    );
    assert_eq!(torn.cycles, base.cycles, "journaling is off the sampling path");
    assert_eq!(torn.db, base.db);
    assert!(torn.faults.as_ref().unwrap().maps.torn_maps > 0);

    let bq = quality_of(&base);
    let (rq, rec) = recovery_of(&torn);
    assert!(rec.journals_scanned >= 1, "{rec:?}");
    assert!(rec.records_replayed > 0, "{rec:?}");
    assert_eq!(rq, bq, "journal replay restores clean-run resolution");

    // Escalate: every map file emptied post-run (disk wiped after the
    // crash). Resolution without the journal collapses; with it,
    // nothing changes.
    let jit = jit_samples(&torn);
    assert!(jit > 0, "workload must produce JIT samples");
    let map_files: Vec<String> = torn
        .machine
        .kernel
        .vfs
        .list(&format!("{JIT_MAP_DIR}/"))
        .into_iter()
        .filter(|p| p.contains("/map."))
        .map(str::to_string)
        .collect();
    assert!(!map_files.is_empty());
    for p in map_files {
        torn.machine.kernel.vfs.write(p, Vec::new());
    }
    let dq = quality_of(&torn);
    assert!(
        dq.unresolved >= jit,
        "wiped maps leave every JIT sample unresolved: {dq:?}"
    );
    let (rq2, rec2) = recovery_of(&torn);
    assert_eq!(rq2, bq, "replay does not depend on the map files at all");
    assert!(
        rq2.resolved > dq.resolved,
        "strict improvement: recovered {rq2:?} vs degraded {dq:?}"
    );
    assert!(rec2.samples_salvaged > 0);
    assert_eq!(rec2.samples_salvaged, rq2.resolved - dq.resolved);
}

#[test]
fn supervised_lost_maps_have_no_journal_to_replay() {
    // A lost write never reaches the journal either (the fault models
    // the writing process dying before any I/O): recovery must
    // degenerate to the degraded baseline, not invent data.
    let (built, plan) = small_workload();
    let chaos = FaultPlan::new(3).with_lost_maps(1.0);
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_supervised_at(PERIOD, chaos),
        1,
        false,
    );
    assert!(out.faults.as_ref().unwrap().maps.lost_maps > 0);
    let dq = quality_of(&out);
    let (rq, rec) = recovery_of(&out);
    assert_eq!(rq, dq, "nothing journaled, nothing recovered");
    assert_eq!(rec.journals_scanned, 0, "no surviving write ever created a journal");
    assert_eq!(rec.records_replayed, 0);
    assert_eq!(rec.samples_salvaged, 0);
}

#[test]
fn supervised_garbled_maps_truncate_the_journal_and_fall_back() {
    // Garbling models post-commit media rot: the writer verified the
    // pristine bytes, the rot landed afterwards. The scan's CRC catches
    // it, the journal truncates at the first rotted record, and
    // recovery falls back to the (equally garbled) disk state — never
    // worse than the degraded baseline, damage counted.
    let (built, plan) = small_workload();
    let chaos = FaultPlan::new(13).with_garbled_lines(1.0);
    let out = run_benchmark(
        &built,
        &plan,
        ProfilerKind::viprof_supervised_at(PERIOD, chaos),
        1,
        false,
    );
    assert!(out.faults.as_ref().unwrap().maps.garbled_lines > 0);
    let dq = quality_of(&out);
    let (rq, rec) = recovery_of(&out);
    assert_eq!(rq, dq, "rotted journal cannot improve on the disk state");
    assert_eq!(rec.epochs_recovered, 0);
    assert_eq!(rec.samples_salvaged, 0);
    assert!(rec.truncated_bytes > 0, "the rot is detected and cut: {rec:?}");
    assert!(rec.truncated_journals >= 1);
}

#[test]
fn supervised_chaos_recovery_is_deterministic_and_monotone() {
    // The full chaos plan, supervised: two runs replay bit for bit —
    // including the supervisor's restart schedule and the entire
    // recovery report — and recovery never resolves fewer samples than
    // the degraded baseline.
    let (built, plan) = small_workload();
    let chaos = || {
        FaultPlan::new(42)
            .with_overflow_bursts(0.1, 3)
            .with_sample_corruption(0.05)
            .with_epoch_skew(1)
            .with_daemon_stalls(0.2)
            .with_daemon_crash(3, 2)
            .with_lost_maps(0.2)
            .with_torn_maps(0.2)
            .with_garbled_lines(0.1)
    };
    let run = || {
        let config = OpConfig {
            daemon_period_cycles: 300_000,
            ..OpConfig::time_at(PERIOD)
        };
        run_benchmark(
            &built,
            &plan,
            ProfilerKind::ViprofSupervised(config, chaos()),
            11,
            false,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.db, b.db);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.supervisor, b.supervisor, "restart schedule replays per seed");
    let (qa, ra) = recovery_of(&a);
    let (qb, rb) = recovery_of(&b);
    assert_eq!(qa, qb, "recovered quality is deterministic");
    assert_eq!(ra, rb, "recovery report is deterministic");

    let dq = quality_of(&a);
    assert!(qa.resolved >= dq.resolved, "recovery is monotone: {qa:?} vs {dq:?}");
    assert_eq!(ra.samples_salvaged, qa.resolved - dq.resolved);

    // The daemon's batch journal replays to exactly the persisted
    // database — drops included — even across crashes and restarts.
    let replayed = recover_sample_db(&a.machine.kernel.vfs).expect("journaling on");
    assert_eq!(&replayed.db, a.db.as_ref().unwrap());
}

// ---- overload governor: backpressure closes the loop ----------------

#[test]
fn governed_burst_sheds_strictly_fewer_samples() {
    // A ring small enough that fixed-rate sampling must overflow it
    // (20 samples arrive per drain window, 8 fit). Same seed, same
    // workload: closing the loop strictly reduces the drop count, and
    // the controller's whole trajectory replays bit for bit.
    let (built, plan) = small_workload();
    let config = |governed: bool| {
        let base = OpConfig {
            buffer_capacity: 8,
            daemon_period_cycles: 300_000,
            ..OpConfig::time_at(15_000)
        };
        if governed {
            base.with_governor(GovernorConfig {
                high_watermark_pct: 50,
                low_watermark_pct: 20,
                dwell_windows: 1,
                backoff_factor: 4,
                recovery_step: 0,
                max_scale: 64,
                deadline_cycles: 0,
                deadline_miss_threshold: 3,
            })
        } else {
            base
        }
    };
    let fixed = run_benchmark(&built, &plan, ProfilerKind::Viprof(config(false)), 3, false);
    let governed = run_benchmark(&built, &plan, ProfilerKind::Viprof(config(true)), 3, false);

    let fixed_db = fixed.db.as_ref().unwrap();
    let gov_db = governed.db.as_ref().unwrap();
    assert!(fixed_db.dropped > 0, "the 8-slot ring must overflow at a fixed rate");
    assert!(
        gov_db.dropped < fixed_db.dropped,
        "the governor must shed load at the source: governed dropped {} vs fixed {}",
        gov_db.dropped,
        fixed_db.dropped
    );

    let snap = governed.telemetry.as_ref().expect("profiled run records telemetry");
    assert!(snap.counter(names::GOVERNOR_BACKOFFS) >= 1, "pressure must trigger a backoff");
    assert!(snap.gauge(names::GOVERNOR_PERIOD) > 15_000, "the period backed off from base");
    assert!(!snap.events_of(names::EVENT_GOVERNOR_RATE_CHANGE).is_empty());
    let fsnap = fixed.telemetry.as_ref().unwrap();
    assert_eq!(fsnap.counter(names::GOVERNOR_BACKOFFS), 0, "no governor, no governor metrics");

    // The governed run still honours the 100%-accounting contract.
    quality_of(&governed);

    // Same seed ⇒ identical cycles, database and telemetry JSON — the
    // closed loop is as deterministic as the open one.
    let replay = run_benchmark(&built, &plan, ProfilerKind::Viprof(config(true)), 3, false);
    assert_eq!(replay.cycles, governed.cycles);
    assert_eq!(replay.db, governed.db);
    assert_eq!(
        replay.telemetry.as_ref().unwrap().to_json(),
        snap.to_json(),
        "governor trajectory replays bit for bit"
    );

    // Streaming under backpressure: the live engine's snapshot of the
    // governed run's rate-scaled database is still the batch report.
    let live = run_benchmark(
        &built,
        &plan,
        ProfilerKind::ViprofLive(config(true), None),
        3,
        false,
    );
    let lsnap = live.telemetry.as_ref().unwrap();
    assert!(
        lsnap.counter(names::GOVERNOR_BACKOFFS) >= 1,
        "the governor must still engage in a live session"
    );
    assert_eq!(
        lsnap.counter(names::LIVE_FULL_REBUILDS),
        1,
        "stop loads the cache once; the snapshot after stop does not reload"
    );
    let live_snap = live.live.as_ref().expect("live run seals a snapshot");
    assert_eq!(live_snap.quality.accounted(), live.db.as_ref().unwrap().total_samples());
    for threads in [1usize, SHARDS] {
        let offline = Viprof::make_report(
            live.db.as_ref().unwrap(),
            &live.machine.kernel,
            &ReportSpec::default().threads(threads),
        )
        .unwrap();
        assert_eq!(live_snap.lines, offline.lines, "live vs batch rows ({threads} threads)");
        assert_eq!(live_snap.quality, offline.quality, "live vs batch quality ({threads} threads)");
        assert_eq!(live_snap.incarnations, offline.incarnations);
        assert_eq!(
            live_snap.lineage, offline.lineage,
            "live vs batch lineage ({threads} threads)"
        );
        assert_eq!(
            live_snap.trace.to_chrome_json(),
            offline.trace.to_chrome_json(),
            "live vs batch trace export ({threads} threads)"
        );
    }
}

#[test]
fn governed_burst_timeline_shows_the_ramp_and_health_flags_it() {
    // The temporal view of the same overload story (ISSUE 10): give
    // the governor a recovery step and a live drain deadline, and the
    // exported timeline must show the whole control trajectory — the
    // period gauge ramping up under pressure and stepping back down
    // once the ring calms — while the health rules flag exactly the
    // injected conditions and nothing else.
    const BASE_PERIOD: u64 = 15_000;
    let (built, plan) = small_workload();
    let config = OpConfig {
        buffer_capacity: 8,
        daemon_period_cycles: 300_000,
        ..OpConfig::time_at(BASE_PERIOD)
    }
    .with_governor(GovernorConfig {
        high_watermark_pct: 50,
        low_watermark_pct: 20,
        dwell_windows: 1,
        backoff_factor: 4,
        recovery_step: 1,
        max_scale: 64,
        // Every drain is over this budget, so the miss streak crosses
        // the threshold and the governor escalates — deliberately.
        deadline_cycles: 1,
        deadline_miss_threshold: 2,
    });
    let out = run_benchmark(&built, &plan, ProfilerKind::Viprof(config), 3, false);
    let snap = out.telemetry.as_ref().unwrap();
    assert!(snap.counter(names::GOVERNOR_BACKOFFS) >= 1, "scenario injects backoff");
    assert!(snap.counter(names::GOVERNOR_ESCALATIONS) >= 1, "scenario injects escalation");
    assert!(snap.counter(names::BUFFER_DROPPED) >= 1, "scenario injects overflow");

    let timeline = Timeline::from_json(
        std::str::from_utf8(out.machine.kernel.vfs.read(TIMELINE_PATH).unwrap()).unwrap(),
    )
    .unwrap();

    // The backoff ramp: the per-window period gauge starts at the base
    // rate, rises above it under pressure, and recovers (some later
    // window runs at a lower period than the peak).
    let series: Vec<(u64, u64)> = timeline
        .windows()
        .iter()
        .map(|w| (w.cycles, w.gauge(names::GOVERNOR_PERIOD)))
        .collect();
    assert!(series.len() >= 3, "enough windows to see a trajectory");
    let (peak_at, peak) = series
        .iter()
        .enumerate()
        .max_by_key(|(_, (_, v))| *v)
        .map(|(i, (_, v))| (i, *v))
        .unwrap();
    assert!(peak > BASE_PERIOD, "the period ramped up under pressure");
    assert!(
        series[peak_at + 1..].iter().any(|(_, v)| *v < peak),
        "the period stepped back down after the peak: {series:?}"
    );

    // Health flags exactly the injected conditions. The deadline
    // misses ride along with the escalation they cause; nothing else
    // may fire.
    let report = HealthReport::evaluate(&timeline);
    let fired: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    for expected in [
        names::HEALTH_BUFFER_OVERFLOW,
        names::HEALTH_GOVERNOR_BACKOFF,
        names::HEALTH_GOVERNOR_ESCALATION,
        names::HEALTH_DEADLINE_MISS,
    ] {
        assert!(fired.contains(&expected), "{expected} must fire, got {fired:?}");
    }
    for finding in &report.findings {
        assert!(
            [
                names::HEALTH_BUFFER_OVERFLOW,
                names::HEALTH_GOVERNOR_BACKOFF,
                names::HEALTH_GOVERNOR_ESCALATION,
                names::HEALTH_DEADLINE_MISS,
            ]
            .contains(&finding.rule.as_str()),
            "uninjected condition flagged: {}",
            finding.render_line()
        );
    }

    // And the clean control run — same workload, room to breathe, no
    // governor — raises no findings at all.
    let clean_config = OpConfig {
        buffer_capacity: 4096,
        ..OpConfig::time_at(50_000)
    };
    let clean = run_benchmark(&built, &plan, ProfilerKind::Viprof(clean_config), 3, false);
    let clean_timeline = Timeline::from_json(
        std::str::from_utf8(clean.machine.kernel.vfs.read(TIMELINE_PATH).unwrap()).unwrap(),
    )
    .unwrap();
    let clean_report = HealthReport::evaluate(&clean_timeline);
    assert!(
        clean_report.is_healthy(),
        "clean run must raise nothing, got:\n{}",
        clean_report.render_text()
    );
}

// ---- process churn: restarts, pid reuse, generation isolation -------

/// Boot a VM under a fresh session, run it, and kill it with samples
/// still in the ring: no final map flush, no unregistration, pid
/// freed. The daemon period is far beyond the run, so nothing drains
/// until `stop`, which returns the database.
fn kill_vm_in_flight(journal: bool) -> (Viprof, Machine, SampleDb) {
    use viprof_repro::sim_jvm::{Vm, VmConfig};

    let mut params = find_benchmark("fop").expect("benchmark exists");
    params.support_methods = 40;
    params.heap_mb = 2;
    let built = programs::build(&params);

    let mut machine = Machine::new(MachineConfig::default());
    let config = OpConfig {
        daemon_period_cycles: u64::MAX / 4,
        ..OpConfig::time_at(PERIOD)
    };
    let viprof = Viprof::builder().config(config).journal(journal).start(&mut machine);
    let mut vm = Vm::boot(
        &mut machine,
        built.program.clone(),
        built.natives.clone(),
        VmConfig {
            heap_bytes: 2 * 1024 * 1024,
            ..VmConfig::default()
        },
        Box::new(viprof.make_agent()),
    );
    vm.call(&mut machine, built.startup, &[]);
    vm.run_batched(&mut machine, built.workers[0], &[], 40);
    vm.kill(&mut machine);
    let db = viprof.stop(&mut machine);
    (viprof, machine, db)
}

#[test]
fn killed_vm_in_flight_samples_drop_not_unresolved() {
    // Regression (the latent drain-after-exit bug): a VM dies with
    // samples still in the ring. The stop-time drain must reap the dead
    // registration first and account those samples as *dropped* — they
    // must never surface as unresolved rows, and never resolve against
    // a successor's maps.
    let (viprof, machine, db) = kill_vm_in_flight(false);

    assert!(db.dropped > 0, "in-flight samples of the dead VM must drop");
    let jit_left: u64 = db
        .iter()
        .filter(|(b, _)| matches!(b.origin, SampleOrigin::JitApp { .. }))
        .map(|(_, c)| c)
        .sum();
    assert_eq!(
        jit_left, 0,
        "every JIT sample was in flight at death — none may reach the db"
    );
    let snap = viprof.telemetry().snapshot();
    assert!(snap.counter(names::REGISTRY_REAPS) >= 1, "the dead VM was reaped");
    assert_eq!(
        snap.counter(names::DAEMON_DEAD_GEN_DROPPED),
        db.dropped,
        "no ring overflow here: every drop is a dead-generation drop"
    );
    assert!(!snap.events_of(names::EVENT_REGISTRY_REAP).is_empty());
    let trace = viprof.telemetry().trace_snapshot();
    let dead: Vec<u64> =
        drain_spans(&trace).iter().map(|s| field(s, "dead")).filter(|&n| n > 0).collect();
    assert!(!dead.is_empty(), "the dead-generation drops left no trace");
    assert_eq!(dead.iter().sum::<u64>(), db.dropped, "every drop traces to a drain span");
    assert_eq!(assert_one_record_per_drain(&machine.kernel.vfs), (db.dropped, db.dropped, 0));

    // Post-processing stays fully accounted: the drops are visible in
    // the quality report, not smeared into unresolved.
    let rep = Viprof::make_report(&db, &machine.kernel, &ReportSpec::default()).unwrap();
    assert_eq!(rep.quality.accounted(), db.total_samples());
    assert_eq!(rep.quality.dropped, db.dropped);
}

#[test]
fn killed_vm_dead_generation_drops_replay_from_the_journal() {
    // The killed-VM scenario, journaled: the stop-time drain's
    // dead-generation drops are written to the sample journal with its
    // batch, so a database rebuilt by replay carries the same drops
    // and its report still accounts for every sample.
    let (viprof, machine, db) = kill_vm_in_flight(true);

    let trace = viprof.telemetry().trace_snapshot();
    let dead: u64 = drain_spans(&trace).iter().map(|s| field(s, "dead")).sum();
    assert!(dead > 0, "the scenario drops samples of a dead generation");
    let replayed = recover_sample_db(&machine.kernel.vfs).expect("journaling on");
    assert_eq!(replayed.db.dropped, db.dropped, "replay carries the live database's drops");
    let rep = Viprof::make_report(&replayed.db, &machine.kernel, &ReportSpec::default()).unwrap();
    assert_eq!(rep.quality.accounted(), replayed.db.total_samples());
    assert_eq!(rep.quality.dropped, db.dropped);
}

/// The churn chaos plan: VM restarts, forced pid reuse, overflow
/// bursts and a daemon crash mid-run.
fn churn_chaos() -> FaultPlan {
    FaultPlan::new(77)
        .with_vm_restarts(2)
        .with_pid_reuse_collision()
        .with_overflow_bursts(0.05, 2)
        .with_daemon_crash(2, 4)
}

/// A ring small enough for [`churn_chaos`] to overflow.
fn churn_config() -> OpConfig {
    OpConfig {
        buffer_capacity: 16,
        daemon_period_cycles: 300_000,
        ..OpConfig::time_at(PERIOD)
    }
}

#[test]
fn supervisor_restart_writes_one_record_per_drain() {
    // The churn chaos, journaled and supervised: overflow bursts and
    // supervisor redrains land on drain spans, one per drain, each in
    // step with its timeline window and its journal record. (The
    // killed-VM scenario runs the same check over dead-generation
    // drops.)
    let (built, plan) = small_workload();
    let kind = ProfilerKind::ViprofSupervised(churn_config(), churn_chaos());
    let out = run_benchmark(&built, &plan, kind, 11, false);
    let (dropped, dead, redrains) = assert_one_record_per_drain(&out.machine.kernel.vfs);
    let db = out.db.as_ref().unwrap();
    assert_eq!(dropped, db.dropped, "the drain spans carry every drop");
    assert!(dropped > dead, "the scenario overflows the ring");
    assert!(redrains >= 1, "the scenario restarts the daemon");
}

#[test]
fn churn_chaos_soak_replays_and_stays_accounted() {
    // The kitchen sink: VM restarts + forced pid reuse + a ring small
    // enough to overflow + a daemon crash mid-run, journaled and
    // supervised. Three contracts at once: bit-identical replay, the
    // legacy/1-thread/4-shard three-way identity (inside quality_of),
    // and 100% accounting with the isolation invariant visible in the
    // per-incarnation breakdown.
    let (built, plan) = small_workload();
    let run = || {
        run_benchmark(
            &built,
            &plan,
            ProfilerKind::ViprofSupervised(churn_config(), churn_chaos()),
            11,
            false,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles, "churn schedule replays bit for bit");
    assert_eq!(a.db, b.db);
    assert_eq!(a.faults, b.faults);

    // Three-way identity + accounting (legacy walk, 1 thread, 4 shards).
    let q = quality_of(&a);
    let db = a.db.as_ref().unwrap();
    assert_eq!(q.accounted(), db.total_samples());
    assert_eq!(q.dropped, db.dropped);

    // The restarts are visible: multiple incarnations in the report,
    // and distinct generations of the same pid in the database never
    // share attribution.
    let rep = Viprof::make_report(db, &a.machine.kernel, &ReportSpec::default()).unwrap();
    assert!(rep.incarnations.len() >= 2, "{:?}", rep.incarnations);
    let sample_sum: u64 = rep.incarnations.iter().map(|i| i.samples).sum();
    let jit_total: u64 = db
        .iter()
        .filter(|(b, _)| matches!(b.origin, SampleOrigin::JitApp { .. }))
        .map(|(_, c)| c)
        .sum();
    assert_eq!(sample_sum, jit_total, "incarnation rows partition the JIT samples");

    // Recovery leg: the same three-way identity holds through journal
    // replay, and the batch journal reproduces the db, overflow drops
    // included. This schedule drops no sample of a dead generation;
    // `killed_vm_dead_generation_drops_replay_from_the_journal` replays
    // those.
    let (rq, _) = recovery_of(&a);
    assert!(rq.resolved >= q.resolved, "recovery is monotone");
    let replayed = recover_sample_db(&a.machine.kernel.vfs).expect("journaling on");
    assert_eq!(&replayed.db, db, "journal replay reproduces churn drops exactly");

    // Live leg: the same chaos with the live index cache attached
    // (supervision pre-chained on the config — equivalent to the
    // `supervised(true)` toggle). Attaching it is invisible to the
    // simulation, and the snapshot after stop is the batch report —
    // under pid-reuse churn, overflow, a daemon crash with supervisor
    // restarts, and the batches the restarts redrain.
    let live_run = run_benchmark(
        &built,
        &plan,
        ProfilerKind::ViprofLive(
            churn_config()
                .with_journal()
                .with_supervisor(churn_chaos().supervisor_config()),
            Some(churn_chaos()),
        ),
        11,
        false,
    );
    assert_eq!(live_run.cycles, a.cycles, "the live engine perturbed the run");
    assert_eq!(live_run.db, a.db, "the live engine perturbed the profile");
    assert_eq!(live_run.faults, a.faults);
    let live_snap = live_run.live.as_ref().expect("live run seals a snapshot");
    for threads in [1usize, SHARDS] {
        let offline = Viprof::make_report(
            live_run.db.as_ref().unwrap(),
            &live_run.machine.kernel,
            &ReportSpec::default().threads(threads),
        )
        .unwrap();
        assert_eq!(live_snap.lines, offline.lines, "live vs batch rows ({threads} threads)");
        assert_eq!(live_snap.quality, offline.quality, "live vs batch quality ({threads} threads)");
        assert_eq!(
            live_snap.incarnations, offline.incarnations,
            "live vs batch incarnations ({threads} threads)"
        );
        assert_eq!(
            live_snap.lineage, offline.lineage,
            "live vs batch lineage ({threads} threads)"
        );
        assert_eq!(
            live_snap.trace.to_chrome_json(),
            offline.trace.to_chrome_json(),
            "live vs batch trace export ({threads} threads)"
        );
    }

    // A different seed draws a different churn schedule.
    let other = FaultPlan::new(78).with_vm_restarts(2).churn_schedule(plan.slices as u64);
    let ours = churn_chaos().churn_schedule(plan.slices as u64);
    assert!(ours.is_some() && other.is_some());
}

#[test]
fn poisoned_shard_never_loses_the_session_report() {
    // A resolution shard that panics mid-resolve must never take the
    // session report down with it: non-fatal panics heal bit-identically
    // through the single-threaded fallback, fatal ones quarantine the
    // shard's samples — counted, never silently lost.
    let (built, plan) = small_workload();
    let out = run_benchmark(&built, &plan, ProfilerKind::viprof_at(PERIOD), 4, false);
    let db = out.db.as_ref().unwrap();
    let kernel = &out.machine.kernel;
    let pid = db
        .iter()
        .find_map(|(b, _)| match b.origin {
            SampleOrigin::JitApp { pid, .. } => Some(pid),
            _ => None,
        })
        .expect("workload produced JIT samples");

    let clean = Viprof::make_report(db, kernel, &ReportSpec::default().threads(SHARDS)).unwrap();

    // Non-fatal: the parallel worker dies, the fallback re-resolve
    // succeeds — the report comes out identical to the clean run.
    let healed = Viprof::make_report(
        db,
        kernel,
        &ReportSpec::default()
            .threads(SHARDS)
            .poison(ShardPoison { pid, fatal: false }),
    )
    .expect("a panicking shard must not fail the report");
    assert_eq!(healed.lines, clean.lines, "fallback re-resolve is bit-identical");
    assert_eq!(healed.quality, clean.quality);
    assert!(healed.telemetry.counter(names::RESOLVE_SHARD_PANICS) >= 1);

    // Fatal: the fallback dies too; the shard's samples are quarantined
    // but the accounting still covers 100% of the emitted samples.
    let fatal_spec = |threads: usize| {
        ReportSpec::default()
            .threads(threads)
            .poison(ShardPoison { pid, fatal: true })
    };
    let maimed = Viprof::make_report(db, kernel, &fatal_spec(SHARDS))
        .expect("a twice-panicking shard must not fail the report");
    assert!(maimed.quality.quarantined > 0, "{:?}", maimed.quality);
    assert_eq!(maimed.quality.accounted(), db.total_samples());
    assert_eq!(maimed.quality.dropped, db.dropped);
    assert!(maimed.lines.rows.len() <= clean.lines.rows.len());
    assert!(
        !maimed
            .telemetry
            .events_of(names::EVENT_RESOLVE_SHARD_QUARANTINE)
            .is_empty(),
        "the quarantine leaves a flight-recorder trace"
    );
    // Shards are contiguous slices of the sorted buckets, and a fatal
    // poison quarantines every shard the poisoned pid's buckets reach.
    // In this database they reach every slice, so the damage is
    // identical at every thread count.
    assert_eq!(
        maimed.telemetry.counter(names::RESOLVE_SHARD_PANICS),
        maimed.telemetry.gauge(names::RESOLVE_SHARDS),
        "precondition: the poisoned pid's buckets must reach every one of the {SHARDS} \
         shards, or the 1- and {SHARDS}-thread quarantines differ by design"
    );
    let single = Viprof::make_report(db, kernel, &fatal_spec(1)).unwrap();
    assert_eq!(single.quality, maimed.quality);
    assert_eq!(single.lines, maimed.lines);
    // Even with quarantine skewing the per-incarnation classification,
    // the lineage decomposition must still reconcile every loss bucket
    // (via the aggregate fallback rows) at every thread count.
    for report in [&maimed, &single] {
        for (bucket, want) in [
            ("dropped", report.quality.dropped),
            ("evicted", report.quality.evicted),
            ("quarantined", report.quality.quarantined),
            ("blocked", report.quality.cross_incarnation_blocked),
        ] {
            assert_eq!(
                report.lineage.total(bucket),
                want,
                "quarantined lineage {bucket} diverged from quality"
            );
        }
    }
    assert_eq!(single.lineage, maimed.lineage);
    assert_eq!(single.trace.to_chrome_json(), maimed.trace.to_chrome_json());
}
