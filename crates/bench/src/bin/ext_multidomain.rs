//! **E7 — multiple concurrent software stacks over a hypervisor
//! (paper §5, future work).**
//!
//! "We plan to integrate Xen virtualization extensions into VIProf to
//! integrate profiling of the Xen layer (via XenoProf) as well as
//! multiple concurrently executing software stacks."
//!
//! This experiment realizes that design: a `xen-syms` hypervisor layer
//! with a vCPU scheduler consuming (sampled) cycles beneath the guests,
//! two guest stacks (two VMs running different benchmarks) time-sliced
//! above it, one VIProf session profiling the whole machine, and a
//! XenoProf-style post-processing pass:
//!
//! * per-domain sample breakdown (who used the machine),
//! * hypervisor-layer rows (`xen-syms schedule_vcpu`, …),
//! * *within* each domain, full VIProf resolution of JIT methods.
//!
//! ```text
//! cargo run --release -p viprof-bench --bin ext_multidomain
//! ```

use oprofile::{OpConfig, ReportOptions};
use sim_cpu::HwEvent;
use sim_jvm::Vm;
use sim_os::{Machine, MachineConfig};
use std::sync::PoisonError;
use viprof::xen::{domain_breakdown, domain_jit_profile, DomainTable, Hypervisor, XenScheduler};
use viprof::{ReportSpec, Viprof};
use viprof_bench::{write_artifact, HarnessOpts};
use viprof_telemetry::impl_to_json;
use viprof_telemetry::json::{Json, ToJson};
use viprof_workloads::runner::vm_config;
use viprof_workloads::{calibrate, find_benchmark, programs};

struct MultiDomainOut {
    breakdown: Vec<(String, u64, f64)>,
    dom1_top: Vec<(String, u64)>,
    dom2_top: Vec<(String, u64)>,
    xen_rows: Vec<(String, f64)>,
    unresolved_rows: usize,
}

impl_to_json!(MultiDomainOut { breakdown, dom1_top, dom2_top, xen_rows, unresolved_rows });

fn main() {
    let opts = HarnessOpts::from_env();
    let scale = (0.25 * opts.scale).clamp(0.01, 4.0);

    let p1 = find_benchmark("ps").unwrap();
    let p2 = find_benchmark("pseudojbb").unwrap();
    let b1 = programs::build(&p1);
    let b2 = programs::build(&p2);
    let plan1 = calibrate(&b1, scale);
    let plan2 = calibrate(&b2, scale);

    let mut machine = Machine::new(MachineConfig {
        seed: opts.seed,
        ..MachineConfig::default()
    });

    // The virtualization layer: hypervisor image + 30ms vCPU scheduler.
    let hv = Hypervisor::install(&mut machine.kernel);
    machine.add_service(Box::new(XenScheduler::new(hv, 102_000_000)));
    let mut domains = DomainTable::new();
    let dom1 = domains.register("domU-ps");
    let dom2 = domains.register("domU-jbb");

    let vp = Viprof::builder()
        .config(OpConfig::time_at(90_000))
        .start(&mut machine);

    // Two guest stacks, two agents, one shared registration table.
    let mut vm1 = Vm::boot(
        &mut machine,
        b1.program.clone(),
        b1.natives.clone(),
        vm_config(&p1),
        Box::new(vp.make_agent()),
    );
    let mut vm2 = Vm::boot(
        &mut machine,
        b2.program.clone(),
        b2.natives.clone(),
        vm_config(&p2),
        Box::new(vp.make_agent()),
    );
    domains.assign(vm1.pid, dom1);
    domains.assign(vm2.pid, dom2);
    assert_eq!(
        vp.registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len(),
        2,
        "both VMs registered"
    );

    vm1.call(&mut machine, b1.startup, &[]);
    vm2.call(&mut machine, b2.startup, &[]);
    // Interleave the two stacks slice by slice (coarse time sharing;
    // the Xen scheduler injects hypervisor work underneath).
    for slice in 0..plan1.slices.max(plan2.slices) {
        if slice < plan1.slices {
            for (i, w) in b1.workers.iter().enumerate() {
                let n = plan1.slice_share(i, slice);
                if n > 0 {
                    vm1.run_batched(&mut machine, *w, &[], n);
                }
            }
        }
        if slice < plan2.slices {
            for (i, w) in b2.workers.iter().enumerate() {
                let n = plan2.slice_share(i, slice);
                if n > 0 {
                    vm2.run_batched(&mut machine, *w, &[], n);
                }
            }
        }
    }
    vm1.shutdown(&mut machine);
    vm2.shutdown(&mut machine);
    let db = vp.stop(&mut machine);

    // ---- XenoProf-style per-domain breakdown ----
    let breakdown = domain_breakdown(&db, &domains, HwEvent::Cycles);
    println!("E7: two guest stacks over a hypervisor, one VIProf session\n");
    println!("Per-domain samples (XenoProf view):");
    for row in &breakdown {
        println!("  {:<12}{:>10}  {:>6.2}%", row.domain, row.samples, row.percent);
    }

    // ---- hypervisor layer visible in the merged report ----
    let report = Viprof::make_report(
        &db,
        &machine.kernel,
        &ReportSpec::default().with_options(ReportOptions {
            min_primary_percent: 0.005,
            ..ReportOptions::default()
        }),
    )
    .expect("merged report")
    .lines;
    let xen_rows: Vec<(String, f64)> = report
        .rows
        .iter()
        .filter(|r| r.image == "xen-syms")
        .map(|r| (r.symbol.clone(), r.percents[0]))
        .collect();
    println!("\nHypervisor rows:");
    for (sym, pct) in &xen_rows {
        println!("  {:<24}{:>8.4}%", sym, pct);
    }

    // ---- per-domain method resolution (vertical, per stack) ----
    let kernel = &machine.kernel;
    let profile = |dom| {
        domain_jit_profile(&db, kernel, &domains, dom, HwEvent::Cycles).expect("domain report")
    };
    let dom1_top = profile(dom1);
    let dom2_top = profile(dom2);
    println!("\nTop methods in domU-ps:");
    for (sym, n) in dom1_top.iter().take(4) {
        println!("  {:<70}{:>8}", sym, n);
    }
    println!("Top methods in domU-jbb:");
    for (sym, n) in dom2_top.iter().take(4) {
        println!("  {:<70}{:>8}", sym, n);
    }

    let unresolved = report
        .rows
        .iter()
        .filter(|r| r.symbol == "(unresolved jit)")
        .count();

    assert!(!xen_rows.is_empty(), "the hypervisor layer must be sampled");
    assert!(breakdown.iter().any(|r| r.domain == "domU-ps" && r.samples > 0));
    assert!(breakdown.iter().any(|r| r.domain == "domU-jbb" && r.samples > 0));
    assert!(dom1_top.iter().any(|(s, _)| s.starts_with(p1.package)));
    assert!(dom2_top.iter().any(|(s, _)| s.starts_with(p2.package)));
    assert_eq!(unresolved, 0, "all JIT samples resolve across both stacks");

    write_artifact(
        "ext_multidomain.json",
        opts.seed,
        &opts.config_json(),
        &MultiDomainOut {
            breakdown: breakdown
                .iter()
                .map(|r| (r.domain.clone(), r.samples, r.percent))
                .collect(),
            dom1_top: dom1_top.into_iter().take(8).collect(),
            dom2_top: dom2_top.into_iter().take(8).collect(),
            xen_rows,
            unresolved_rows: unresolved,
        },
        &Json::obj([
            ("hypervisor_sampled", true.to_json()),
            ("both_domains_sampled", true.to_json()),
            ("all_jit_resolved", (unresolved == 0).to_json()),
        ]),
    );
}
