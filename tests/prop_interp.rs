//! Differential testing of the bytecode interpreter against a Rust
//! oracle, plus end-to-end "compilation doesn't change semantics"
//! checks: the same program must produce the same result interpreted,
//! baseline-compiled, recompiled at O2, and under GC pressure.

mod support;

use support::{check, Gen};
use viprof_repro::sim_jvm::{
    AosPolicy, ClassId, MethodAsm, NativeRegistry, Op, ProgramBuilder, ProgramDef, Tiering, Value,
    Vm, VmConfig,
};
use viprof_repro::sim_os::{Machine, MachineConfig};

/// A random straight-line arithmetic expression in RPN over one input.
#[derive(Debug, Clone)]
enum Step {
    PushConst(i64),
    PushInput,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Neg,
}

/// Steps at weights 3 (constant), 2 (input, add, sub) and 1 (the
/// rest), out of 13.
fn arb_steps(g: &mut Gen) -> Vec<Step> {
    g.vec(1..40, |g| match g.range(0u32..13) {
        0..=2 => Step::PushConst(g.range(-1_000i64..1_000)),
        3..=4 => Step::PushInput,
        5..=6 => Step::Add,
        7..=8 => Step::Sub,
        9 => Step::Mul,
        10 => Step::Div,
        11 => Step::Rem,
        _ => Step::Neg,
    })
}

/// Compile the steps to bytecode (tracking stack depth so the program
/// is well-formed) and simultaneously evaluate the oracle.
fn build_and_oracle(steps: &[Step], input: i64) -> (ProgramDef, i64) {
    let mut code = Vec::new();
    let mut stack: Vec<i64> = Vec::new();
    for s in steps {
        match s {
            Step::PushConst(v) => {
                code.push(Op::Const(*v));
                stack.push(*v);
            }
            Step::PushInput => {
                code.push(Op::Load(0));
                stack.push(input);
            }
            Step::Neg => {
                if stack.is_empty() {
                    continue;
                }
                code.push(Op::Neg);
                let a = stack.pop().unwrap();
                stack.push(a.wrapping_neg());
            }
            bin => {
                if stack.len() < 2 {
                    continue;
                }
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                let (op, r) = match bin {
                    Step::Add => (Op::Add, a.wrapping_add(b)),
                    Step::Sub => (Op::Sub, a.wrapping_sub(b)),
                    Step::Mul => (Op::Mul, a.wrapping_mul(b)),
                    Step::Div => (Op::Div, a.checked_div(b).unwrap_or(0)),
                    Step::Rem => (Op::Rem, a.checked_rem(b).unwrap_or(0)),
                    _ => unreachable!(),
                };
                code.push(op);
                stack.push(r);
            }
        }
    }
    let expected = stack.last().copied().unwrap_or(0);
    if stack.is_empty() {
        code.push(Op::Const(0));
    }
    code.push(Op::Ret);

    let mut b = ProgramBuilder::new();
    let c = b.add_class("prop.T", 0);
    let m = b.add_method(c, "prop.T.expr", 1, 1, code);
    b.set_entry(m);
    (b.build().expect("generated program valid"), expected)
}

fn run_with(program: &ProgramDef, input: i64, config: VmConfig, calls: u32) -> i64 {
    let mut machine = Machine::new(MachineConfig::default());
    let mut vm = Vm::boot(
        &mut machine,
        program.clone(),
        NativeRegistry::new(),
        config,
        Box::new(viprof_repro::sim_jvm::NullHooks),
    );
    let entry = vm.program().entry;
    let mut last = Value::I64(0);
    for _ in 0..calls {
        last = vm.call(&mut machine, entry, &[Value::I64(input)]);
    }
    last.as_i64()
}

#[test]
fn expression_semantics_match_oracle() {
    check(
        "expression_semantics_match_oracle",
        96,
        |g| (arb_steps(g), g.range(-10_000i64..10_000)),
        |(steps, input)| {
            let (program, expected) = build_and_oracle(&steps, input);
            // Interpreted.
            let interp = run_with(
                &program,
                input,
                VmConfig {
                    tiering: Tiering::InterpretThenCompile {
                        compile_threshold: u64::MAX,
                    },
                    ..VmConfig::default()
                },
                1,
            );
            assert_eq!(interp, expected, "interpreted");
            // Baseline-compiled on first use.
            let compiled = run_with(&program, input, VmConfig::default(), 1);
            assert_eq!(compiled, expected, "baseline");
            // Hot path: recompiled at O2 after many invocations.
            let hot = run_with(
                &program,
                input,
                VmConfig {
                    aos: AosPolicy {
                        opt1_threshold: 2,
                        opt2_threshold: 8,
                    },
                    ..VmConfig::default()
                },
                20,
            );
            assert_eq!(hot, expected, "optimized");
        },
    );
}

#[test]
fn loops_and_heap_survive_gc_pressure() {
    check(
        "loops_and_heap_survive_gc_pressure",
        32,
        |g| {
            (
                g.range(1i64..300),
                g.range(1i64..30),
                g.range(-1_000i64..1_000),
            )
        },
        |(iters, objs, field_val)| {
            // acc = Σ_{i=1..iters} 1, while allocating `objs` objects per
            // iteration and stashing one live object's field across GCs.
            let mut b = ProgramBuilder::new();
            let c = b.add_class("gc.Node", 2);
            let mut asm = MethodAsm::new();
            // keeper = new Node; keeper.f1 = field_val
            asm.op(Op::New(ClassId(0)))
                .op(Op::Store(2))
                .op(Op::Load(2))
                .op(Op::Const(field_val))
                .op(Op::PutField(1));
            asm.op(Op::Const(0)).op(Op::Store(1));
            asm.counted_loop(0, iters, |l| {
                l.op(Op::Load(1))
                    .op(Op::Const(1))
                    .op(Op::Add)
                    .op(Op::Store(1));
                l.counted_loop(3, objs, |inner| {
                    inner.op(Op::New(ClassId(0))).op(Op::Pop);
                });
            });
            // return acc + keeper.f1 (the keeper must survive every GC)
            asm.op(Op::Load(1))
                .op(Op::Load(2))
                .op(Op::GetField(1))
                .op(Op::Add)
                .op(Op::Ret);
            let m = b.add_method(c, "gc.Main.run", 0, 4, asm.assemble().unwrap());
            b.set_entry(m);
            let program = b.build().unwrap();

            let mut machine = Machine::new(MachineConfig::default());
            let mut vm = Vm::boot(
                &mut machine,
                program,
                NativeRegistry::new(),
                VmConfig {
                    heap_bytes: 8 * 1024, // force many collections
                    ..VmConfig::default()
                },
                Box::new(viprof_repro::sim_jvm::NullHooks),
            );
            let r = vm.run(&mut machine);
            assert_eq!(r, Value::I64(iters + field_val));
            // With enough churn the heap must actually have collected.
            if iters * objs > 200 {
                assert!(vm.stats.gcs > 0);
            }
        },
    );
}
