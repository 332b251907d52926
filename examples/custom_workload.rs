//! Bring your own workload: write a program against the mini bytecode,
//! watch the adaptive optimizer promote it tier by tier, and see every
//! recompilation and GC-induced code move land in the epoch code maps.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use viprof_repro::oprofile::{OpConfig, ReportOptions};
use viprof_repro::sim_jvm::{
    AosPolicy, ClassId, MethodAsm, MethodId, Op, OptLevel, ProgramBuilder, NativeRegistry, Vm,
    VmConfig,
};
use viprof_repro::sim_os::{Machine, MachineConfig};
use viprof_repro::viprof::codemap::CodeMapSet;
use viprof_repro::viprof::{ReportSpec, Viprof};

fn main() {
    let mut b = ProgramBuilder::new();
    let cls = b.add_class("fib.Memo", 64);

    // fib(n) with an explicit memo array — recursion + heap traffic.
    let fib = MethodId(0);
    let code = vec![
        // if n < 2 return n
        Op::Load(0),
        Op::Const(2),
        Op::Lt,
        Op::JumpIfZero(2),
        Op::Load(0),
        Op::Ret,
        // return fib(n-1) + fib(n-2)
        Op::Load(0),
        Op::Const(1),
        Op::Sub,
        Op::Call(fib),
        Op::Load(0),
        Op::Const(2),
        Op::Sub,
        Op::Call(fib),
        Op::Add,
        Op::Ret,
    ];
    let fib_m = b.add_method(cls, "fib.Memo.fib", 1, 1, code);
    assert_eq!(fib_m, fib);

    // driver: sum fib(1..=18), allocating a scratch object per step.
    let mut asm = MethodAsm::new();
    asm.op(Op::Const(0)).op(Op::Store(1));
    asm.counted_loop(0, 18, |l| {
        l.op(Op::New(ClassId(0)))
            .op(Op::Pop)
            .op(Op::Load(0))
            .op(Op::Call(fib))
            .op(Op::Load(1))
            .op(Op::Add)
            .op(Op::Store(1));
    });
    asm.op(Op::Load(1)).op(Op::Ret);
    let main = b.add_method(cls, "fib.Main.run", 0, 2, asm.assemble().unwrap());
    b.set_entry(main);
    let program = b.build().unwrap();

    let mut machine = Machine::new(MachineConfig::default());
    let viprof = Viprof::builder()
        .config(OpConfig::time_at(30_000))
        .start(&mut machine);
    let mut vm = Vm::boot(
        &mut machine,
        program,
        NativeRegistry::new(),
        VmConfig {
            heap_bytes: 64 * 1024, // tiny: lots of GC epochs
            aos: AosPolicy {
                opt1_threshold: 50,
                opt2_threshold: 5_000,
            },
            ..VmConfig::default()
        },
        Box::new(viprof.make_agent()),
    );

    let pid = vm.pid;
    for round in 0..6 {
        let result = vm.run(&mut machine);
        println!(
            "round {round}: fib sum = {:?}, fib tier = {}, epoch = {}, code at {:?}",
            result,
            vm.opt_level(fib),
            vm.epoch(),
            vm.code_range(fib).map(|(s, _)| format!("{s:#x}"))
        );
    }
    assert_eq!(vm.opt_level(fib), OptLevel::Opt2, "fib must reach O2");
    vm.shutdown(&mut machine);
    let db = viprof.stop(&mut machine);

    // Inspect the epoch code maps the agent wrote.
    let maps = CodeMapSet::load(&machine.kernel.vfs, pid).expect("maps");
    println!(
        "\nagent wrote {} epoch maps, {} entries total",
        maps.maps().len(),
        maps.total_entries()
    );
    let symbols = maps.symbols();
    let fib_entries: Vec<String> = maps
        .maps()
        .iter()
        .flat_map(|m| {
            m.entries()
                .iter()
                .filter(|e| symbols.name(e.signature) == "fib.Memo.fib")
                .map(move |e| {
                    let level = symbols.name(e.level);
                    format!("epoch {} @ {:#x} ({level})", m.epoch, e.addr)
                })
        })
        .collect();
    println!("fib.Memo.fib body history ({} records):", fib_entries.len());
    for e in fib_entries.iter().take(10) {
        println!("  {e}");
    }

    let report = Viprof::make_report(
        &db,
        &machine.kernel,
        &ReportSpec::default().with_options(ReportOptions {
            min_primary_percent: 0.5,
            ..ReportOptions::default()
        }),
    )
    .unwrap()
    .lines;
    println!("\n{}", report.render_text());
}
