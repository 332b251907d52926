//! Bytecode interpreter: the VM's *semantic* engine.
//!
//! Executes ops against the heap one at a time and reports what each
//! step did ([`StepInfo`]) so the surrounding [`crate::vm::Vm`] can
//! charge cycles, drive JIT/AOS decisions, and attribute PCs. The
//! interpreter itself is policy-free: it does not know about tiers,
//! sampling, or costs.
//!
//! Allocation failures surface as [`StepError::NeedGc`] *without
//! advancing the program counter*, so the VM can collect and re-step —
//! the same retry discipline a real allocation slow path has.

use crate::bytecode::{MethodId, NativeFnId, Op};
use crate::classes::ProgramDef;
use crate::heap::{Heap, ObjRef, Value};
use crate::natives::{NativeRegistry, NativeResult};
use sim_cpu::Addr;

/// One activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    pub method: MethodId,
    pub pc: usize,
    pub locals: Vec<Value>,
    pub stack: Vec<Value>,
}

impl Frame {
    fn new(method: MethodId, nlocals: u16, args: &[Value]) -> Self {
        let mut locals = vec![Value::default(); nlocals as usize];
        locals[..args.len()].copy_from_slice(args);
        Frame {
            method,
            pc: 0,
            locals,
            stack: Vec::with_capacity(8),
        }
    }
}

/// What a successfully executed step did (beyond the op itself).
#[derive(Debug, Clone, PartialEq)]
pub enum StepEvent {
    Normal,
    /// A backward branch was taken.
    Backedge,
    /// Entered `method` (new frame pushed). The *caller's* op was the
    /// `Call`; the callee's first op has not run yet.
    Call(MethodId),
    /// Returned from a frame. `finished` means the outermost frame
    /// popped; `value` is the return value.
    Ret { finished: bool, value: Value },
    /// A native function ran (result already pushed). `arg0` is its
    /// first argument, for the cost model.
    Native { id: NativeFnId, arg0: i64 },
    /// An allocation succeeded (`bytes` rough size).
    Alloc { bytes: u64 },
}

/// Report for one executed op.
#[derive(Debug, Clone, PartialEq)]
pub struct StepInfo {
    pub op: Op,
    /// Heap address touched, for the detailed cache model.
    pub heap_addr: Option<Addr>,
    pub event: StepEvent,
}

/// Step failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// Allocation failed; the PC was not advanced. Collect and re-step.
    NeedGc { requested: u64 },
    /// The machine is halted (outermost frame already returned).
    Halted,
}

/// Interpreter state: a frame stack plus program statics.
#[derive(Debug, Clone)]
pub struct Interp {
    pub frames: Vec<Frame>,
    pub statics: Vec<Value>,
    finished: Option<Value>,
}

impl Interp {
    pub fn new(program: &ProgramDef) -> Self {
        Interp {
            frames: Vec::new(),
            statics: vec![Value::default(); program.static_slots as usize],
            finished: None,
        }
    }

    /// Begin executing `method` with `args`. Resets any finished state.
    pub fn enter(&mut self, program: &ProgramDef, method: MethodId, args: &[Value]) {
        let decl = program.method(method);
        assert_eq!(
            args.len(),
            decl.arity as usize,
            "arity mismatch calling {}",
            decl.name
        );
        self.finished = None;
        self.frames.push(Frame::new(method, decl.nlocals, args));
    }

    /// Result of the outermost frame once finished.
    pub fn result(&self) -> Option<Value> {
        self.finished
    }

    /// The currently executing method (top frame).
    pub fn current_method(&self) -> Option<MethodId> {
        self.frames.last().map(|f| f.method)
    }

    /// GC roots: every reference in every frame's locals/stack plus
    /// statics. Handles are stable so this is only needed for liveness,
    /// not for pointer fixup.
    pub fn roots(&self) -> Vec<ObjRef> {
        let mut out = Vec::new();
        let mut push = |v: &Value| {
            if let Some(r) = v.as_ref() {
                out.push(r);
            }
        };
        for f in &self.frames {
            f.locals.iter().for_each(&mut push);
            f.stack.iter().for_each(&mut push);
        }
        self.statics.iter().for_each(&mut push);
        out
    }

    /// Execute one op of the top frame.
    pub fn step(
        &mut self,
        program: &ProgramDef,
        heap: &mut Heap,
        natives: &NativeRegistry,
    ) -> Result<StepInfo, StepError> {
        let frame = self.frames.last_mut().ok_or(StepError::Halted)?;
        let method = program.method(frame.method);
        let op = method.code[frame.pc];

        // Most ops advance by one; branches/calls/returns override below.
        let mut next_pc = frame.pc + 1;
        let mut heap_addr = None;
        let mut event = StepEvent::Normal;

        macro_rules! pop {
            () => {
                frame.stack.pop().expect("operand stack underflow")
            };
        }
        macro_rules! pop_i64 {
            () => {
                pop!().as_i64()
            };
        }

        match op {
            Op::Nop => {}
            Op::Const(v) => frame.stack.push(Value::I64(v)),
            Op::Load(n) => {
                let v = frame.locals[n as usize];
                frame.stack.push(v);
            }
            Op::Store(n) => {
                let v = pop!();
                frame.locals[n as usize] = v;
            }
            Op::Dup => {
                let v = *frame.stack.last().expect("dup on empty stack");
                frame.stack.push(v);
            }
            Op::Pop => {
                pop!();
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem | Op::Eq | Op::Lt | Op::Gt => {
                let b = pop_i64!();
                let a = pop_i64!();
                let r = match op {
                    Op::Add => a.wrapping_add(b),
                    Op::Sub => a.wrapping_sub(b),
                    Op::Mul => a.wrapping_mul(b),
                    // No exceptions in the mini-ISA: x/0 == 0.
                    Op::Div => a.checked_div(b).unwrap_or(0),
                    Op::Rem => a.checked_rem(b).unwrap_or(0),
                    Op::Eq => (a == b) as i64,
                    Op::Lt => (a < b) as i64,
                    Op::Gt => (a > b) as i64,
                    _ => unreachable!(),
                };
                frame.stack.push(Value::I64(r));
            }
            Op::Neg => {
                let a = pop_i64!();
                frame.stack.push(Value::I64(a.wrapping_neg()));
            }
            Op::Jump(off) => {
                next_pc = (frame.pc as i64 + 1 + off as i64) as usize;
                if off < 0 {
                    event = StepEvent::Backedge;
                }
            }
            Op::JumpIfZero(off) => {
                if pop_i64!() == 0 {
                    next_pc = (frame.pc as i64 + 1 + off as i64) as usize;
                    if off < 0 {
                        event = StepEvent::Backedge;
                    }
                }
            }
            Op::JumpIfNonZero(off) => {
                if pop_i64!() != 0 {
                    next_pc = (frame.pc as i64 + 1 + off as i64) as usize;
                    if off < 0 {
                        event = StepEvent::Backedge;
                    }
                }
            }
            Op::Call(callee) => {
                let decl = program.method(callee);
                let arity = decl.arity as usize;
                let at = frame.stack.len() - arity;
                let args: Vec<Value> = frame.stack.split_off(at);
                frame.pc = next_pc; // resume after the call
                let nlocals = decl.nlocals;
                self.frames.push(Frame::new(callee, nlocals, &args));
                return Ok(StepInfo {
                    op,
                    heap_addr: None,
                    event: StepEvent::Call(callee),
                });
            }
            Op::Ret => {
                let value = frame.stack.pop().unwrap_or_default();
                self.frames.pop();
                let finished = self.frames.is_empty();
                if finished {
                    self.finished = Some(value);
                } else {
                    self.frames.last_mut().unwrap().stack.push(value);
                }
                return Ok(StepInfo {
                    op,
                    heap_addr: None,
                    event: StepEvent::Ret { finished, value },
                });
            }
            Op::New(class) => {
                let fields = program.class(class).field_count as usize;
                match heap.alloc_data(class, fields) {
                    Ok(r) => {
                        heap_addr = Some(heap.addr_of(r));
                        frame.stack.push(Value::Ref(Some(r)));
                        event = StepEvent::Alloc {
                            bytes: heap.get(r).byte_size,
                        };
                    }
                    Err(e) => return Err(StepError::NeedGc { requested: e.requested }),
                }
            }
            Op::NewArray => {
                // Peek (not pop) the length so a NeedGc retry sees an
                // unchanged stack.
                let len = frame.stack.last().expect("NewArray needs a length").as_i64();
                let len = len.clamp(0, 1 << 20) as usize;
                match heap.alloc_array(len) {
                    Ok(r) => {
                        frame.stack.pop();
                        heap_addr = Some(heap.addr_of(r));
                        frame.stack.push(Value::Ref(Some(r)));
                        event = StepEvent::Alloc {
                            bytes: heap.get(r).byte_size,
                        };
                    }
                    Err(e) => return Err(StepError::NeedGc { requested: e.requested }),
                }
            }
            Op::GetField(n) => {
                let r = pop!().as_ref().expect("GetField on non-reference");
                let obj = heap.get(r);
                heap_addr = Some(obj.addr + 16 + 8 * n as u64);
                frame.stack.push(obj.slot(n as usize));
            }
            Op::PutField(n) => {
                let v = pop!();
                let r = pop!().as_ref().expect("PutField on non-reference");
                let obj = heap.get_mut(r);
                heap_addr = Some(obj.addr + 16 + 8 * n as u64);
                obj.set_slot(n as usize, v);
            }
            Op::ALoad => {
                let idx = pop_i64!();
                let r = pop!().as_ref().expect("ALoad on non-reference");
                let obj = heap.get(r);
                assert!(
                    idx >= 0 && (idx as usize) < obj.slot_count(),
                    "array index {idx} out of bounds 0..{}",
                    obj.slot_count()
                );
                heap_addr = Some(obj.addr + 16 + 8 * idx as u64);
                frame.stack.push(obj.slot(idx as usize));
            }
            Op::AStore => {
                let v = pop!();
                let idx = pop_i64!();
                let r = pop!().as_ref().expect("AStore on non-reference");
                let obj = heap.get_mut(r);
                assert!(
                    idx >= 0 && (idx as usize) < obj.slot_count(),
                    "array index {idx} out of bounds 0..{}",
                    obj.slot_count()
                );
                heap_addr = Some(obj.addr + 16 + 8 * idx as u64);
                obj.set_slot(idx as usize, v);
            }
            Op::ArrayLen => {
                let r = pop!().as_ref().expect("ArrayLen on non-reference");
                let obj = heap.get(r);
                heap_addr = Some(obj.addr);
                frame.stack.push(Value::I64(obj.slot_count() as i64));
            }
            Op::NativeCall(id) => {
                let f = natives.get(id);
                let arity = f.arity as usize;
                let at = frame.stack.len() - arity;
                let args: Vec<Value> = frame.stack.split_off(at);
                let arg0 = args.first().map(|v| v.as_i64()).unwrap_or(0);
                let result = match f.result {
                    NativeResult::Zero => Value::I64(0),
                    NativeResult::Arg0 => Value::I64(arg0),
                };
                frame.stack.push(result);
                event = StepEvent::Native { id, arg0 };
            }
        }

        frame.pc = next_pc;
        Ok(StepInfo {
            op,
            heap_addr,
            event,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::ClassId;
    use crate::classes::ProgramBuilder;
    use crate::natives::NativeFn;

    fn run_to_completion(
        program: &ProgramDef,
        heap: &mut Heap,
        natives: &NativeRegistry,
        args: &[Value],
    ) -> i64 {
        let mut interp = Interp::new(program);
        interp.enter(program, program.entry, args);
        for _ in 0..1_000_000 {
            match interp.step(program, heap, natives) {
                Ok(info) => {
                    if let StepEvent::Ret { finished: true, value } = info.event {
                        return value.as_i64();
                    }
                }
                Err(StepError::NeedGc { .. }) => {
                    let roots = interp.roots();
                    heap.collect(&roots, &[], |_| {});
                }
                Err(StepError::Halted) => panic!("halted unexpectedly"),
            }
        }
        panic!("interpreter did not terminate");
    }

    fn small_heap() -> Heap {
        Heap::new((0x6000_0000, 0x6001_0000))
    }

    fn build_single(code: Vec<Op>, arity: u16, nlocals: u16) -> ProgramDef {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("T", 4);
        let m = b.add_method(c, "T.main", arity, nlocals, code);
        b.set_entry(m);
        b.build().unwrap()
    }

    #[test]
    fn arithmetic_works() {
        // (7 + 3) * 2 - 5 = 15
        let p = build_single(
            vec![
                Op::Const(7),
                Op::Const(3),
                Op::Add,
                Op::Const(2),
                Op::Mul,
                Op::Const(5),
                Op::Sub,
                Op::Ret,
            ],
            0,
            0,
        );
        let r = run_to_completion(&p, &mut small_heap(), &NativeRegistry::new(), &[]);
        assert_eq!(r, 15);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let p = build_single(
            vec![Op::Const(42), Op::Const(0), Op::Div, Op::Ret],
            0,
            0,
        );
        assert_eq!(
            run_to_completion(&p, &mut small_heap(), &NativeRegistry::new(), &[]),
            0
        );
    }

    #[test]
    fn loop_computes_sum() {
        // sum 1..=10 via a counted loop.
        let mut a = crate::asm::MethodAsm::new();
        // local0 = acc, local1 = i
        a.op(Op::Const(0)).op(Op::Store(0));
        a.counted_loop(1, 10, |b| {
            b.op(Op::Load(0)).op(Op::Load(1)).op(Op::Add).op(Op::Store(0));
        });
        a.op(Op::Load(0)).op(Op::Ret);
        let p = build_single(a.assemble().unwrap(), 0, 2);
        // counter counts 10,9,...,1 → sum 55
        assert_eq!(
            run_to_completion(&p, &mut small_heap(), &NativeRegistry::new(), &[]),
            55
        );
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("T", 0);
        // add(a, b) = a + b
        let add = b.add_method(
            c,
            "T.add",
            2,
            2,
            vec![Op::Load(0), Op::Load(1), Op::Add, Op::Ret],
        );
        let main = b.add_method(
            c,
            "T.main",
            0,
            0,
            vec![Op::Const(4), Op::Const(38), Op::Call(add), Op::Ret],
        );
        b.set_entry(main);
        let p = b.build().unwrap();
        assert_eq!(
            run_to_completion(&p, &mut small_heap(), &NativeRegistry::new(), &[]),
            42
        );
    }

    #[test]
    fn recursion_works() {
        // fib(n): n < 2 ? n : fib(n-1) + fib(n-2)
        let mut b = ProgramBuilder::new();
        let c = b.add_class("T", 0);
        let fib = MethodId(0); // self-id (first method added)
        let code = vec![
            Op::Load(0),
            Op::Const(2),
            Op::Lt,
            Op::JumpIfZero(2), // not < 2 → recurse
            Op::Load(0),
            Op::Ret,
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
        let m = b.add_method(c, "T.fib", 1, 1, code);
        assert_eq!(m, fib);
        b.set_entry(m);
        let p = b.build().unwrap();
        assert_eq!(
            run_to_completion(&p, &mut small_heap(), &NativeRegistry::new(), &[Value::I64(10)]),
            55
        );
    }

    #[test]
    fn objects_fields_roundtrip() {
        let p = build_single(
            vec![
                Op::New(ClassId(0)),
                Op::Store(0),
                Op::Load(0),
                Op::Const(99),
                Op::PutField(2),
                Op::Load(0),
                Op::GetField(2),
                Op::Ret,
            ],
            0,
            1,
        );
        assert_eq!(
            run_to_completion(&p, &mut small_heap(), &NativeRegistry::new(), &[]),
            99
        );
    }

    #[test]
    fn arrays_store_load_len() {
        let p = build_single(
            vec![
                Op::Const(5),
                Op::NewArray,
                Op::Store(0),
                // a[3] = 7
                Op::Load(0),
                Op::Const(3),
                Op::Const(7),
                Op::AStore,
                // return a[3] * len(a)
                Op::Load(0),
                Op::Const(3),
                Op::ALoad,
                Op::Load(0),
                Op::ArrayLen,
                Op::Mul,
                Op::Ret,
            ],
            0,
            1,
        );
        assert_eq!(
            run_to_completion(&p, &mut small_heap(), &NativeRegistry::new(), &[]),
            35
        );
    }

    #[test]
    fn allocation_pressure_triggers_needgc_and_survives() {
        // Allocate 1000 ephemeral arrays in a tiny heap: must complete
        // thanks to NeedGc retry, and data must stay correct.
        let mut a = crate::asm::MethodAsm::new();
        a.counted_loop(0, 1000, |b| {
            b.op(Op::Const(50)).op(Op::NewArray).op(Op::Pop);
        });
        a.op(Op::Const(1)).op(Op::Ret);
        let p = build_single(a.assemble().unwrap(), 0, 1);
        let mut heap = Heap::new((0x6000_0000, 0x6000_4000)); // 8 KiB semispaces
        assert_eq!(run_to_completion(&p, &mut heap, &NativeRegistry::new(), &[]), 1);
        assert!(heap.collections > 0, "GC must have run");
    }

    #[test]
    fn native_call_pushes_result_and_reports_arg0() {
        let mut natives = NativeRegistry::new();
        let memset = natives.register(NativeFn::memset());
        let p = build_single(
            vec![Op::Const(4096), Op::NativeCall(memset), Op::Ret],
            0,
            0,
        );
        let mut interp = Interp::new(&p);
        interp.enter(&p, p.entry, &[]);
        let mut heap = small_heap();
        let i1 = interp.step(&p, &mut heap, &natives).unwrap(); // Const
        assert_eq!(i1.event, StepEvent::Normal);
        let i2 = interp.step(&p, &mut heap, &natives).unwrap(); // NativeCall
        assert_eq!(
            i2.event,
            StepEvent::Native {
                id: memset,
                arg0: 4096
            }
        );
        let i3 = interp.step(&p, &mut heap, &natives).unwrap(); // Ret
        // memset returns Arg0.
        assert_eq!(
            i3.event,
            StepEvent::Ret {
                finished: true,
                value: Value::I64(4096)
            }
        );
    }

    #[test]
    fn roots_include_locals_stack_and_statics() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("T", 1);
        let m = b.add_method(c, "T.m", 0, 1, vec![Op::New(ClassId(0)), Op::Ret]);
        b.set_entry(m);
        b.reserve_statics(2);
        let p = b.build().unwrap();
        let mut heap = small_heap();
        let mut interp = Interp::new(&p);
        interp.enter(&p, p.entry, &[]);
        let r1 = heap.alloc_data(ClassId(0), 1).unwrap();
        interp.statics[0] = Value::Ref(Some(r1));
        let natives = NativeRegistry::new();
        interp.step(&p, &mut heap, &natives).unwrap(); // New → ref on stack
        let roots = interp.roots();
        assert!(roots.contains(&r1), "static root missing");
        assert_eq!(roots.len(), 2, "stack ref + static ref");
    }

    #[test]
    fn backedge_events_reported() {
        let mut a = crate::asm::MethodAsm::new();
        a.counted_loop(0, 3, |b| {
            b.op(Op::Nop);
        });
        a.op(Op::Const(0)).op(Op::Ret);
        let p = build_single(a.assemble().unwrap(), 0, 1);
        let mut interp = Interp::new(&p);
        interp.enter(&p, p.entry, &[]);
        let mut heap = small_heap();
        let natives = NativeRegistry::new();
        let mut backedges = 0;
        while !interp.frames.is_empty() {
            let info = interp.step(&p, &mut heap, &natives).unwrap();
            if info.event == StepEvent::Backedge {
                backedges += 1;
            }
        }
        assert_eq!(backedges, 2, "loop of 3 takes the backedge twice");
    }

    #[test]
    fn step_after_halt_errors() {
        let p = build_single(vec![Op::Const(0), Op::Ret], 0, 0);
        let mut interp = Interp::new(&p);
        interp.enter(&p, p.entry, &[]);
        let mut heap = small_heap();
        let natives = NativeRegistry::new();
        interp.step(&p, &mut heap, &natives).unwrap();
        interp.step(&p, &mut heap, &natives).unwrap();
        assert_eq!(
            interp.step(&p, &mut heap, &natives),
            Err(StepError::Halted)
        );
        assert_eq!(interp.result(), Some(Value::I64(0)));
    }
}
