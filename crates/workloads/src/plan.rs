//! Work-plan calibration.
//!
//! The paper's benchmarks do a *fixed amount of work*; profiling
//! overhead then shows up as longer execution time. To reproduce that,
//! each benchmark's invocation counts are calibrated once on an
//! unprofiled, noise-free machine so the base run hits its Figure-3
//! target, and the *same plan* is reused for every profiled run — any
//! extra cycles the profiler steals lengthen the run instead of
//! shrinking the work.

use crate::programs::BuiltWorkload;
use crate::runner::{execute_plan, vm_config};
use sim_cpu::clock::DEFAULT_FREQ_HZ;
use sim_jvm::{NullHooks, Vm};
use sim_os::{Machine, MachineConfig};

/// Calibrated invocation counts.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkPlan {
    /// Main-phase invocations per worker.
    pub invocations: Vec<u64>,
    /// Interleaving granularity: each slice runs every worker once.
    pub slices: u32,
    /// Fraction of the paper's base time this plan targets (1.0 = the
    /// full Figure-3 seconds; harnesses may scale down for turnaround).
    pub scale: f64,
}

impl WorkPlan {
    /// Invocations of worker `i` in slice `s` (remainder goes to the
    /// last slice).
    pub fn slice_share(&self, worker: usize, slice: u32) -> u64 {
        let n = self.invocations[worker];
        let per = n / self.slices as u64;
        if slice + 1 == self.slices {
            per + n % self.slices as u64
        } else {
            per
        }
    }
}

fn fresh_machine() -> Machine {
    // Calibration runs on a quiet machine: no profiler, no background.
    Machine::new(MachineConfig::default())
}

/// Calibrate a plan targeting `base_seconds × scale` of simulated time.
pub fn calibrate(built: &BuiltWorkload, scale: f64) -> WorkPlan {
    assert!(scale > 0.0 && scale <= 4.0, "scale must be in (0, 4]");
    let target_cycles =
        (built.params.base_seconds * scale * DEFAULT_FREQ_HZ as f64) as u64;

    // Probe: startup cost + steady-state cycles-per-invocation of each
    // worker (second batch, after tiering has settled).
    let mut machine = fresh_machine();
    let mut vm = Vm::boot(
        &mut machine,
        built.program.clone(),
        built.natives.clone(),
        vm_config(&built.params),
        Box::new(NullHooks),
    );
    let t0 = machine.cpu.clock.cycles();
    vm.call(&mut machine, built.startup, &[]);
    let startup_cycles = machine.cpu.clock.cycles() - t0;

    let probe = 48u64;
    let mut cpi = Vec::with_capacity(built.workers.len());
    for w in &built.workers {
        vm.run_batched(&mut machine, *w, &[], probe); // warm: compile + promote
        let t = machine.cpu.clock.cycles();
        vm.run_batched(&mut machine, *w, &[], probe);
        cpi.push(((machine.cpu.clock.cycles() - t) as f64 / probe as f64).max(1.0));
    }

    let remaining = target_cycles.saturating_sub(startup_cycles).max(1) as f64;
    let share = remaining / built.workers.len() as f64;
    let mut invocations: Vec<u64> = cpi.iter().map(|c| ((share / c) as u64).max(1)).collect();

    // Refinement: execute the *full* plan on a fresh quiet machine and
    // rescale by the observed error. A full-scale dry run is cheap in
    // real time (batched execution costs O(blocks), not O(cycles)) and,
    // unlike a fractional dry run, sees the same tier schedule —
    // baseline → O1 → O2 promotions land at the same invocation counts
    // as the measured runs will.
    for _ in 0..4 {
        let plan = WorkPlan {
            invocations: invocations.clone(),
            slices: 48,
            scale,
        };
        let mut machine = fresh_machine();
        execute_plan(&mut machine, built, &plan, Box::new(NullHooks));
        let actual = machine.cpu.clock.cycles() as f64;
        if (actual / target_cycles as f64 - 1.0).abs() < 0.02 {
            break;
        }
        // Rescale only the main phase (startup is fixed work).
        let main_actual = (actual - startup_cycles as f64).max(1.0);
        let main_target = (target_cycles as f64 - startup_cycles as f64).max(1.0);
        let factor = (main_target / main_actual).clamp(0.1, 10.0);
        for n in &mut invocations {
            *n = (((*n as f64) * factor) as u64).max(1);
        }
    }

    WorkPlan {
        invocations,
        slices: 48,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::build;
    use crate::spec::find_benchmark;

    fn small_fop() -> BuiltWorkload {
        let mut p = find_benchmark("fop").unwrap();
        p.support_methods = 60; // keep the unit test fast
        build(&p)
    }

    #[test]
    fn calibrated_plan_hits_target_within_tolerance() {
        let built = small_fop();
        let scale = 0.01; // 32 ms of simulated time
        let plan = calibrate(&built, scale);
        let mut machine = fresh_machine();
        execute_plan(&mut machine, &built, &plan, Box::new(NullHooks));
        let target = built.params.base_seconds * scale;
        let got = machine.seconds();
        let err = (got - target).abs() / target;
        assert!(
            err < 0.20,
            "calibration error {err:.3}: target {target:.4}s got {got:.4}s"
        );
    }

    #[test]
    fn plan_slices_partition_invocations() {
        let plan = WorkPlan {
            invocations: vec![100, 7],
            slices: 8,
            scale: 1.0,
        };
        for w in 0..2 {
            let sum: u64 = (0..8).map(|s| plan.slice_share(w, s)).sum();
            assert_eq!(sum, plan.invocations[w]);
        }
        assert_eq!(plan.invocations.iter().sum::<u64>(), 107);
    }

    #[test]
    fn calibration_is_deterministic() {
        let built = small_fop();
        let a = calibrate(&built, 0.005);
        let b = calibrate(&built, 0.005);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        let built = small_fop();
        calibrate(&built, 0.0);
    }
}
