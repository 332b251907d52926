//! Quickstart: profile a small Java-like program with VIProf and print
//! the vertically integrated report. Given a directory, it also exports
//! the session there, sample journal included, for the `viprof` CLI.
//!
//! ```text
//! cargo run --release --example quickstart [-- <session-dir>]
//! ```

use viprof_repro::oprofile::{OpConfig, ReportOptions};
use viprof_repro::sim_jvm::{
    ClassId, MethodAsm, NativeFn, NativeRegistry, Op, ProgramBuilder, Vm, VmConfig,
};
use viprof_repro::sim_os::{Machine, MachineConfig};
use viprof_repro::viprof::{ReportSpec, Viprof};

fn main() {
    // 1. A machine: 3.4 GHz CPU + Linux-like kernel, as in the paper.
    let mut machine = Machine::new(MachineConfig::default());

    // 2. Start VIProf: cycle samples every 90K cycles plus L2 misses,
    //    with every drained batch journaled (what `viprof top` replays).
    let viprof = Viprof::builder()
        .config(OpConfig::figure1(90_000, 2_000))
        .journal(true)
        .start(&mut machine);

    // 3. A little program: a hot loop, some allocation, and a memset.
    let mut natives = NativeRegistry::new();
    let memset = natives.register(NativeFn::memset());
    let mut b = ProgramBuilder::new();
    let class = b.add_class("demo.Item", 4);
    let mut asm = MethodAsm::new();
    asm.op(Op::Const(0)).op(Op::Store(0));
    asm.counted_loop(1, 200_000, |l| {
        l.op(Op::Load(0)).op(Op::Const(3)).op(Op::Add).op(Op::Store(0));
    });
    asm.counted_loop(2, 500, |l| {
        l.op(Op::New(ClassId(0))).op(Op::Pop);
    });
    asm.op(Op::Const(65_536)).op(Op::NativeCall(memset)).op(Op::Pop);
    asm.op(Op::Load(0)).op(Op::Ret);
    let main = b.add_method(class, "demo.Main.run", 0, 3, asm.assemble().unwrap());
    b.set_entry(main);
    let program = b.build_with_natives(&natives).unwrap();

    // 4. Boot a VM wired to the profiler (the VM Agent registers the
    //    heap, logs compiles, flags GC moves, writes epoch code maps).
    let mut vm = Vm::boot(
        &mut machine,
        program,
        natives,
        VmConfig {
            heap_bytes: 1024 * 1024,
            ..VmConfig::default()
        },
        Box::new(viprof.make_agent()),
    );

    // 5. Run it: a few detailed calls (the first baseline-compiles,
    //    repeats drive the adaptive optimizer), then a batched phase —
    //    the fast-forward mode the long benchmark runs use.
    for _ in 0..4 {
        vm.run(&mut machine);
    }
    let entry = vm.program().entry;
    vm.run_batched(&mut machine, entry, &[], 400);
    vm.shutdown(&mut machine);
    let db = viprof.stop(&mut machine);

    // 6. Post-process: JIT samples resolve to method names via the
    //    epoch code maps, VM internals via RVM.map.
    let report = Viprof::make_report(
        &db,
        &machine.kernel,
        &ReportSpec::default().with_options(ReportOptions {
            min_primary_percent: 0.2,
            ..ReportOptions::default()
        }),
    )
    .expect("post-processing")
    .lines;

    println!(
        "simulated {:.1} ms, {} samples, {} GC epochs\n",
        machine.seconds() * 1e3,
        db.total_samples(),
        vm.epoch() + 1
    );
    print!("{}", report.render_text());

    if let Some(dir) = std::env::args().nth(1) {
        let files = Viprof::export_session(&mut machine, std::path::Path::new(&dir))
            .expect("export session");
        eprintln!("exported {files} session files to {dir}");
    }
}
