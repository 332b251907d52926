//! **E8 — GC-mode ablation: what if code never moved?**
//!
//! The paper's hard problem — attributing samples to code bodies that
//! "exist at several different memory locations during a single
//! execution" (§3.1) — only exists under a *moving* collector. This
//! experiment runs the same workload with the Jikes-like copying heap
//! and with a non-moving mark-sweep heap, under VIProf:
//!
//! * copying: the agent flags thousands of moves, maps carry one entry
//!   per moved body per epoch, and the backward search does real work;
//! * non-moving: zero move flags, maps shrink to compile records, the
//!   agent's steady-state cost collapses — quantifying how much of
//!   VIProf's machinery (and overhead) exists purely to cope with
//!   moving collectors.
//!
//! ```text
//! cargo run --release -p viprof-bench --bin ablation_gcmode
//! ```

use oprofile::OpConfig;
use sim_jvm::{GcMode, VmConfig};
use sim_os::{Machine, MachineConfig};
use viprof::Viprof;
use viprof_bench::{write_artifact, HarnessOpts};
use viprof_telemetry::impl_to_json;
use viprof_telemetry::json::{Json, ToJson};
use viprof_workloads::runner::{execute_plan_with_config, vm_config};
use viprof_workloads::{calibrate, find_benchmark, programs};

struct GcModeRow {
    mode: String,
    base_seconds: f64,
    viprof_seconds: f64,
    slowdown: f64,
    gcs: u64,
    moves_flagged: u64,
    maps_written: u64,
    entries_written: u64,
}

impl_to_json!(GcModeRow {
    mode,
    base_seconds,
    viprof_seconds,
    slowdown,
    gcs,
    moves_flagged,
    maps_written,
    entries_written,
});

fn run(mode: GcMode, profiled: bool, built: &viprof_workloads::BuiltWorkload, plan: &viprof_workloads::WorkPlan, seed: u64) -> GcModeRow {
    let mut machine = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    let config = VmConfig {
        gc_mode: mode,
        ..vm_config(&built.params)
    };
    if !profiled {
        let stats = execute_plan_with_config(
            &mut machine,
            built,
            plan,
            Box::new(sim_jvm::NullHooks),
            config,
        );
        return GcModeRow {
            mode: format!("{mode:?}"),
            base_seconds: machine.seconds(),
            viprof_seconds: 0.0,
            slowdown: 0.0,
            gcs: stats.gcs,
            moves_flagged: 0,
            maps_written: 0,
            entries_written: 0,
        };
    }
    let vp = Viprof::builder()
        .config(OpConfig::time_at(90_000))
        .start(&mut machine);
    let agent = vp.make_agent();
    let agent_stats = agent.stats_handle();
    let stats = execute_plan_with_config(&mut machine, built, plan, Box::new(agent), config);
    vp.stop(&mut machine);
    let ast = agent_stats.snapshot();
    GcModeRow {
        mode: format!("{mode:?}"),
        base_seconds: 0.0,
        viprof_seconds: machine.seconds(),
        slowdown: 0.0,
        gcs: stats.gcs,
        moves_flagged: ast.moves_flagged,
        maps_written: ast.maps_written,
        entries_written: ast.entries_written,
    }
}

fn main() {
    let opts = HarnessOpts::from_env();
    let params = find_benchmark("antlr").expect("antlr in catalog");
    let built = programs::build(&params);
    let plan = calibrate(&built, (0.5 * opts.scale).clamp(0.01, 4.0));

    println!("E8: VIProf under copying vs non-moving GC (antlr)");
    println!(
        "{:<12}{:>10}{:>12}{:>10}{:>12}{:>10}{:>12}",
        "gc mode", "gcs", "slowdown", "maps", "entries", "moves", "sim s"
    );
    let mut rows = Vec::new();
    for mode in [GcMode::Copying, GcMode::NonMoving] {
        let base = run(mode, false, &built, &plan, opts.seed);
        let mut prof = run(mode, true, &built, &plan, opts.seed);
        prof.base_seconds = base.base_seconds;
        prof.slowdown = prof.viprof_seconds / base.base_seconds;
        println!(
            "{:<12}{:>10}{:>12.4}{:>10}{:>12}{:>10}{:>12.2}",
            prof.mode,
            prof.gcs,
            prof.slowdown,
            prof.maps_written,
            prof.entries_written,
            prof.moves_flagged,
            prof.viprof_seconds
        );
        rows.push(prof);
    }
    let copying = &rows[0];
    let nonmoving = &rows[1];
    assert!(copying.moves_flagged > 0);
    assert_eq!(nonmoving.moves_flagged, 0, "non-moving GC never moves code");
    assert!(
        nonmoving.entries_written < copying.entries_written,
        "maps shrink to compile records without moves"
    );
    write_artifact(
        "ablation_gcmode.json",
        opts.seed,
        &opts.config_json(),
        &rows,
        &Json::obj([
            ("copying_flags_moves", true.to_json()),
            ("nonmoving_flags_none", true.to_json()),
            ("nonmoving_maps_smaller", true.to_json()),
        ]),
    );
}
