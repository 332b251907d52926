//! Run orchestration: one benchmark run under a chosen profiler.

use crate::background::{BackgroundConfig, BackgroundLoad};
use crate::plan::WorkPlan;
use crate::programs::BuiltWorkload;
use crate::spec::BenchParams;
use oprofile::{DriverStats, OpConfig, Oprofile, SampleDb, SupervisorStats};
use sim_jvm::{NullHooks, Vm, VmConfig, VmProfilerHooks, VmStats};
use sim_os::{Machine, MachineConfig};
use viprof::agent::AgentCounters;
use viprof::{ChurnSchedule, FaultPlan, FaultReport, LiveSpec, ReportSpec, SessionReport, Viprof};
use viprof_telemetry::{TelemetrySnapshot, TraceSnapshot};

/// Which profiler (if any) observes the run.
#[derive(Debug, Clone)]
pub enum ProfilerKind {
    /// Unprofiled base run (Figure 2's 1.0 line, Figure 3's table).
    None,
    /// Stock OProfile.
    Oprofile(OpConfig),
    /// VIProf (extended driver + VM agent).
    Viprof(OpConfig),
    /// VIProf with the precise-move agent extension (E4 ablation).
    ViprofPreciseMoves(OpConfig),
    /// VIProf under a seeded fault schedule (robustness matrix).
    ViprofFaulty(OpConfig, FaultPlan),
    /// [`ProfilerKind::ViprofFaulty`] with the crash-consistency layer
    /// on: map + sample journaling plus the daemon watchdog/restart
    /// supervisor (both seeded from the plan, so runs replay).
    ViprofSupervised(OpConfig, FaultPlan),
    /// VIProf with the streaming resolution engine riding the daemon's
    /// drain sink (journaled, so replayed batches exercise the
    /// sequence dedup). The optional fault plan puts the stream under
    /// the robustness matrix; the sealed final snapshot comes back in
    /// [`RunOutcome::live`].
    ViprofLive(OpConfig, Option<FaultPlan>),
}

impl ProfilerKind {
    /// Cycle sampling at `period` (the Figure-2 configurations).
    pub fn oprofile_at(period: u64) -> ProfilerKind {
        ProfilerKind::Oprofile(OpConfig::time_at(period))
    }

    pub fn viprof_at(period: u64) -> ProfilerKind {
        ProfilerKind::Viprof(OpConfig::time_at(period))
    }

    /// VIProf at `period` with faults injected per `plan`.
    pub fn viprof_faulty_at(period: u64, plan: FaultPlan) -> ProfilerKind {
        ProfilerKind::ViprofFaulty(OpConfig::time_at(period), plan)
    }

    /// Faulted VIProf at `period` with journaling + supervision on.
    pub fn viprof_supervised_at(period: u64, plan: FaultPlan) -> ProfilerKind {
        ProfilerKind::ViprofSupervised(OpConfig::time_at(period), plan)
    }
}

/// Everything a harness wants from one run.
pub struct RunOutcome {
    /// Simulated wall-clock of the whole run (the paper's measured
    /// quantity).
    pub seconds: f64,
    pub cycles: u64,
    pub vm: VmStats,
    /// Final sample database (profiled runs).
    pub db: Option<SampleDb>,
    pub driver: Option<DriverStats>,
    pub agent: Option<AgentCounters>,
    /// Injected-fault counters (fault-plan runs only).
    pub faults: Option<FaultReport>,
    /// Watchdog/restart counters (supervised runs only).
    pub supervisor: Option<SupervisorStats>,
    /// The session's final self-telemetry (profiled runs): counters,
    /// stage timings and the flight-recorder tail, snapshotted after
    /// the stop-time flush.
    pub telemetry: Option<TelemetrySnapshot>,
    /// The session's causal span tree (profiled runs), snapshotted
    /// after the stop-time flush — same data the session persists as
    /// Chrome trace JSON at `oprofile::TRACE_PATH`.
    pub trace: Option<TraceSnapshot>,
    /// The live engine's sealed final snapshot
    /// ([`ProfilerKind::ViprofLive`] runs only) — bit-identical to
    /// `Viprof::make_report` over [`RunOutcome::db`].
    pub live: Option<SessionReport>,
    /// The machine, for post-processing (reports read images + VFS).
    pub machine: Machine,
}

/// VM configuration for a benchmark.
pub fn vm_config(params: &BenchParams) -> VmConfig {
    VmConfig {
        heap_bytes: params.heap_mb * 1024 * 1024,
        ..VmConfig::default()
    }
}

/// Execute a calibrated plan on an existing machine. Returns the VM's
/// final stats.
pub fn execute_plan(
    machine: &mut Machine,
    built: &BuiltWorkload,
    plan: &WorkPlan,
    hooks: Box<dyn VmProfilerHooks>,
) -> VmStats {
    execute_plan_with_config(machine, built, plan, hooks, vm_config(&built.params))
}

/// [`execute_plan`] with an explicit VM configuration (GC-mode and
/// AOS ablations).
pub fn execute_plan_with_config(
    machine: &mut Machine,
    built: &BuiltWorkload,
    plan: &WorkPlan,
    hooks: Box<dyn VmProfilerHooks>,
    config: VmConfig,
) -> VmStats {
    let mut vm = Vm::boot(
        machine,
        built.program.clone(),
        built.natives.clone(),
        config,
        hooks,
    );
    // Long-lived data first (tables/caches), then class loading work.
    vm.alloc_retained(machine, built.params.retained_kb as u64 * 1024);
    vm.call(machine, built.startup, &[]);
    for slice in 0..plan.slices {
        for (i, w) in built.workers.iter().enumerate() {
            let n = plan.slice_share(i, slice);
            if n > 0 {
                vm.run_batched(machine, *w, &[], n);
            }
        }
    }
    vm.shutdown(machine);
    vm.stats
}

/// [`execute_plan_with_config`] under a process-churn schedule: at each
/// scheduled slice the running VM is *killed* — no final map flush, no
/// unregistration, pid back on the kernel's LIFO free list — optionally
/// a decoy process cycles the freed pid, and a fresh incarnation boots
/// with its own agent (same session registry, bumped generation).
/// Returns the summed stats of every incarnation.
fn execute_plan_churn(
    machine: &mut Machine,
    built: &BuiltWorkload,
    plan: &WorkPlan,
    viprof: &Viprof,
    precise: bool,
    config: &VmConfig,
    churn: &ChurnSchedule,
) -> VmStats {
    let mut total = VmStats::default();
    let absorb = |total: &mut VmStats, s: VmStats| {
        total.compiles += s.compiles;
        total.recompiles += s.recompiles;
        total.gcs += s.gcs;
        total.ops_interpreted += s.ops_interpreted;
        total.ops_jit += s.ops_jit;
        total.native_calls += s.native_calls;
        total.batched_invocations += s.batched_invocations;
        total.classloads += s.classloads;
    };
    let boot = |machine: &mut Machine| {
        Vm::boot(
            machine,
            built.program.clone(),
            built.natives.clone(),
            config.clone(),
            Box::new(viprof.make_agent_with(precise)),
        )
    };
    let mut vm = boot(machine);
    vm.alloc_retained(machine, built.params.retained_kb as u64 * 1024);
    vm.call(machine, built.startup, &[]);
    for slice in 0..plan.slices {
        for (i, w) in built.workers.iter().enumerate() {
            let n = plan.slice_share(i, slice);
            if n > 0 {
                vm.run_batched(machine, *w, &[], n);
            }
        }
        if churn.restart_after(slice as u64) && slice + 1 < plan.slices {
            absorb(&mut total, vm.kill(machine));
            if churn.reuse_collision {
                let decoy = machine.kernel.spawn("decoy");
                machine.kernel.exit_process(decoy);
            }
            vm = boot(machine);
            vm.call(machine, built.startup, &[]);
        }
    }
    vm.shutdown(machine);
    absorb(&mut total, vm.stats);
    total
}

/// Run `built` once with `plan` under `profiler`. `seed` drives the
/// background-noise model (pass a different seed per trial, as the
/// paper's ten repeated measurements implicitly did).
pub fn run_benchmark(
    built: &BuiltWorkload,
    plan: &WorkPlan,
    profiler: ProfilerKind,
    seed: u64,
    background: bool,
) -> RunOutcome {
    let mut machine = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    if background {
        let bg = BackgroundLoad::install(&mut machine.kernel, BackgroundConfig::default());
        machine.add_service(Box::new(bg));
    }

    let precise = matches!(&profiler, ProfilerKind::ViprofPreciseMoves(_));
    let supervised = matches!(&profiler, ProfilerKind::ViprofSupervised(..));
    let live = matches!(&profiler, ProfilerKind::ViprofLive(..));
    let fault_plan = match &profiler {
        ProfilerKind::ViprofFaulty(_, fp) | ProfilerKind::ViprofSupervised(_, fp) => {
            Some(fp.clone())
        }
        ProfilerKind::ViprofLive(_, fp) => fp.clone(),
        _ => None,
    };
    let (vm_stats, db, driver, agent, faults, supervisor, telemetry, trace, live_report) =
        match profiler {
        ProfilerKind::None => {
            let stats = execute_plan(&mut machine, built, plan, Box::new(NullHooks));
            (stats, None, None, None, None, None, None, None, None)
        }
        ProfilerKind::Oprofile(config) => {
            let op = Oprofile::start(&mut machine, config);
            let stats = execute_plan(&mut machine, built, plan, Box::new(NullHooks));
            let db = op.stop(&mut machine);
            let telemetry = Some(op.telemetry().snapshot());
            let trace = Some(op.telemetry().trace_snapshot());
            (
                stats,
                Some(db),
                Some(op.driver_stats()),
                None,
                None,
                None,
                telemetry,
                trace,
                None,
            )
        }
        // Every VIProf flavour is one builder chain now: faults and
        // supervision are orthogonal toggles, not enum plumbing.
        ProfilerKind::Viprof(config)
        | ProfilerKind::ViprofPreciseMoves(config)
        | ProfilerKind::ViprofFaulty(config, _)
        | ProfilerKind::ViprofSupervised(config, _)
        | ProfilerKind::ViprofLive(config, _) => {
            let mut builder = Viprof::builder().config(config);
            if let Some(fp) = &fault_plan {
                builder = builder.faults(fp);
            }
            if supervised {
                builder = builder.journal(true).supervised(true);
            }
            if live {
                builder = builder.journal(true).live(LiveSpec::new());
            }
            let vp = builder.start(&mut machine);
            let agent = vp.make_agent_with(precise);
            let agent_stats = agent.stats_handle();
            // The VM shares the session registry so GC collections and
            // pause cycles land in the same snapshot.
            let config = VmConfig {
                telemetry: Some(vp.telemetry()),
                ..vm_config(&built.params)
            };
            let churn = fault_plan
                .as_ref()
                .and_then(|fp| fp.churn_schedule(plan.slices as u64));
            let stats = match &churn {
                Some(schedule) => {
                    drop(agent); // churn boots its own per-incarnation agents
                    execute_plan_churn(
                        &mut machine,
                        built,
                        plan,
                        &vp,
                        precise,
                        &config,
                        schedule,
                    )
                }
                None => {
                    execute_plan_with_config(&mut machine, built, plan, Box::new(agent), config)
                }
            };
            let db = vp.stop(&mut machine);
            let live_report = vp.live_snapshot(&machine.kernel, &ReportSpec::default());
            let telemetry = Some(vp.telemetry().snapshot());
            let trace = Some(vp.telemetry().trace_snapshot());
            let report = fault_plan.is_some().then(|| FaultReport {
                driver: vp.driver_fault_stats().unwrap_or_default(),
                daemon: vp.daemon_fault_stats().unwrap_or_default(),
                maps: vp.map_fault_stats().unwrap_or_default(),
            });
            (
                stats,
                Some(db),
                Some(vp.driver_stats()),
                Some(agent_stats),
                report,
                vp.supervisor_stats(),
                telemetry,
                trace,
                live_report,
            )
        }
    };

    RunOutcome {
        seconds: machine.seconds(),
        cycles: machine.cpu.clock.cycles(),
        vm: vm_stats,
        db,
        driver,
        agent,
        faults,
        supervisor,
        telemetry,
        trace,
        live: live_report,
        machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::calibrate;
    use crate::programs::build;
    use crate::spec::find_benchmark;

    fn small_built() -> (BuiltWorkload, WorkPlan) {
        let mut p = find_benchmark("fop").unwrap();
        p.support_methods = 60;
        // Small heap so GCs (and VIProf map writes) happen even at 1 %
        // scale.
        p.heap_mb = 2;
        let built = build(&p);
        let plan = calibrate(&built, 0.01);
        (built, plan)
    }

    #[test]
    fn base_run_produces_no_profile() {
        let (built, plan) = small_built();
        let out = run_benchmark(&built, &plan, ProfilerKind::None, 1, false);
        assert!(out.db.is_none());
        assert!(out.seconds > 0.0);
        assert!(out.vm.compiles > 60);
    }

    #[test]
    fn profiled_runs_are_slower_and_produce_samples() {
        let (built, plan) = small_built();
        let base = run_benchmark(&built, &plan, ProfilerKind::None, 1, false);
        let oprof = run_benchmark(&built, &plan, ProfilerKind::oprofile_at(90_000), 1, false);
        let viprof = run_benchmark(&built, &plan, ProfilerKind::viprof_at(90_000), 1, false);
        assert!(oprof.seconds > base.seconds);
        assert!(viprof.seconds > base.seconds);
        assert!(oprof.db.unwrap().total_samples() > 0);
        assert!(viprof.db.unwrap().total_samples() > 0);
        // Classification differs: OProfile sees anon, VIProf sees JIT.
        assert!(oprof.driver.unwrap().anon > 0);
        let vd = viprof.driver.unwrap();
        assert_eq!(vd.anon, 0);
        assert!(vd.jit > 0);
        // The agent wrote maps.
        assert!(
            viprof.agent.unwrap().snapshot().maps_written >= 1
        );
        // Telemetry rode along the profiled runs (and only those).
        assert!(base.telemetry.is_none());
        use viprof_telemetry::names;
        let ot = oprof.telemetry.unwrap();
        assert!(ot.counter(names::CPU_SAMPLES_DELIVERED) > 0);
        let vt = viprof.telemetry.unwrap();
        assert!(vt.counter(names::AGENT_MAPS_WRITTEN) >= 1);
        assert!(vt.counter(names::VM_GC_COLLECTIONS) > 0, "VM shares the registry");
    }

    #[test]
    fn same_seed_same_cycles() {
        let (built, plan) = small_built();
        let a = run_benchmark(&built, &plan, ProfilerKind::None, 7, true);
        let b = run_benchmark(&built, &plan, ProfilerKind::None, 7, true);
        assert_eq!(a.cycles, b.cycles);
        let c = run_benchmark(&built, &plan, ProfilerKind::None, 8, true);
        assert_ne!(a.cycles, c.cycles, "different noise seed");
    }

    #[test]
    fn supervised_run_exposes_watchdog_stats_and_journals() {
        let (built, plan) = small_built();
        let out = run_benchmark(
            &built,
            &plan,
            ProfilerKind::viprof_supervised_at(90_000, FaultPlan::new(5)),
            1,
            false,
        );
        let sup = out.supervisor.expect("supervised run carries stats");
        assert_eq!(sup.restarts, 0, "no faults injected, no restarts");
        // The sample journal replays to exactly the persisted database.
        let replayed = viprof::recover::recover_sample_db(&out.machine.kernel.vfs)
            .expect("journaling was on");
        assert_eq!(&replayed.db, out.db.as_ref().unwrap());
        assert_eq!(replayed.truncated_bytes, 0);
        // Unsupervised runs carry no stats.
        let plain = run_benchmark(
            &built,
            &plan,
            ProfilerKind::viprof_faulty_at(90_000, FaultPlan::new(5)),
            1,
            false,
        );
        assert!(plain.supervisor.is_none());
    }

    #[test]
    fn live_run_sealed_snapshot_matches_offline_report() {
        let (built, plan) = small_built();
        // Fast wakeups so the stream sees several incremental batches.
        let config = OpConfig {
            daemon_period_cycles: 300_000,
            ..OpConfig::time_at(90_000)
        };
        let out = run_benchmark(
            &built,
            &plan,
            ProfilerKind::ViprofLive(config, None),
            1,
            false,
        );
        let db = out.db.as_ref().unwrap();
        let live = out.live.expect("live run carries a sealed snapshot");
        let offline = Viprof::make_report(db, &out.machine.kernel, &ReportSpec::default()).unwrap();
        assert_eq!(live.lines, offline.lines);
        assert_eq!(live.quality, offline.quality);
        assert_eq!(live.incarnations, offline.incarnations);
        use viprof_telemetry::names;
        let t = out.telemetry.as_ref().unwrap();
        assert!(t.counter(names::LIVE_BATCHES) > 0);
        // Non-live runs don't carry one.
        let plain = run_benchmark(&built, &plan, ProfilerKind::viprof_at(90_000), 1, false);
        assert!(plain.live.is_none());
    }

    #[test]
    fn churned_run_restarts_the_vm_and_stays_accounted() {
        let (built, plan) = small_built();
        let fp = FaultPlan::new(21).with_vm_restarts(2).with_pid_reuse_collision();
        assert!(fp.churn_schedule(plan.slices as u64).is_some());
        // Fast daemon wakeups: each incarnation's samples must reach
        // the database *before* its death, or the whole run collapses
        // into dead-generation drops (the default 170M-cycle period can
        // outlast a 1%-scale workload).
        let config = || OpConfig {
            daemon_period_cycles: 300_000,
            ..OpConfig::time_at(90_000)
        };
        let out = run_benchmark(
            &built,
            &plan,
            ProfilerKind::ViprofFaulty(config(), fp.clone()),
            1,
            false,
        );
        let db = out.db.unwrap();
        assert!(db.total_samples() > 0);
        let rep = Viprof::make_report(&db, &out.machine.kernel, &ReportSpec::default()).unwrap();
        assert_eq!(rep.quality.accounted(), db.total_samples());
        // The restarts left more than one incarnation in the profile,
        // and none of them borrowed another's maps.
        assert!(rep.incarnations.len() >= 2, "{:?}", rep.incarnations);
        // Same plan, same seed: the churned run replays bit-for-bit.
        let again = run_benchmark(
            &built,
            &plan,
            ProfilerKind::ViprofFaulty(config(), fp),
            1,
            false,
        );
        assert_eq!(out.cycles, again.cycles);
        assert_eq!(&db, again.db.as_ref().unwrap());
    }

    #[test]
    fn faster_sampling_costs_more() {
        let (built, plan) = small_built();
        let slow = run_benchmark(&built, &plan, ProfilerKind::viprof_at(450_000), 1, false);
        let fast = run_benchmark(&built, &plan, ProfilerKind::viprof_at(45_000), 1, false);
        assert!(
            fast.cycles > slow.cycles,
            "45K sampling must cost more than 450K"
        );
    }
}
