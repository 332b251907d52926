//! The mini bytecode ISA.
//!
//! Architecture-independent, stack-based — the property the paper
//! highlights as the reason dynamically generated code defeats
//! system-wide profilers: the executable form only comes into existence
//! (and gets an address) when the JIT runs.

/// Index into [`crate::classes::ProgramDef`]'s method table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// Index into the class table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Index into the native-function registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NativeFnId(pub u32);

/// One bytecode operation. Branch offsets are relative to the *next*
/// instruction (so `Jump(-1)` is a self-loop on the jump itself being
/// re-decoded — i.e. `target = pc + 1 + offset`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    // -- stack / locals --
    /// Push a constant.
    Const(i64),
    /// Push local `n`.
    Load(u16),
    /// Pop into local `n`.
    Store(u16),
    Dup,
    Pop,
    // -- arithmetic (pop 2 push 1, except Neg) --
    Add,
    Sub,
    Mul,
    /// Division by zero pushes 0 (the mini-ISA has no exceptions).
    Div,
    Rem,
    Neg,
    // -- comparisons: pop 2, push 1 or 0 --
    Eq,
    Lt,
    Gt,
    // -- control flow --
    Jump(i32),
    /// Pop; branch if zero.
    JumpIfZero(i32),
    /// Pop; branch if non-zero.
    JumpIfNonZero(i32),
    // -- calls --
    /// Call a method: pops `arity` args (see the callee's declaration),
    /// pushes its return value.
    Call(MethodId),
    /// Return top-of-stack (or 0 from an empty stack).
    Ret,
    // -- heap --
    /// Allocate an instance of `class`; pushes a reference.
    New(ClassId),
    /// Pop ref, push field `n`.
    GetField(u16),
    /// Pop value, pop ref, store into field `n`.
    PutField(u16),
    /// Pop length, allocate an array, push ref.
    NewArray,
    /// Pop index, pop ref, push element.
    ALoad,
    /// Pop value, pop index, pop ref, store element.
    AStore,
    /// Pop ref, push length.
    ArrayLen,
    // -- native --
    /// Invoke a registered native function (libc/syscall model); pops
    /// the native's declared arity, pushes one result.
    NativeCall(NativeFnId),
    Nop,
}

impl Op {
    /// Relative weight of this op for code-size modelling: roughly how
    /// many machine-code bytes a baseline compiler would emit for it.
    pub fn size_weight(self) -> u32 {
        match self {
            Op::Nop => 1,
            Op::Const(_) | Op::Load(_) | Op::Store(_) | Op::Dup | Op::Pop => 4,
            Op::Add | Op::Sub | Op::Mul | Op::Neg | Op::Eq | Op::Lt | Op::Gt => 6,
            Op::Div | Op::Rem => 12,
            Op::Jump(_) | Op::JumpIfZero(_) | Op::JumpIfNonZero(_) => 8,
            Op::Call(_) | Op::NativeCall(_) | Op::Ret => 16,
            Op::New(_) | Op::NewArray => 24,
            Op::GetField(_) | Op::PutField(_) | Op::ALoad | Op::AStore | Op::ArrayLen => 10,
        }
    }
}

/// Static verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Branch at `pc` targets an out-of-range instruction.
    BranchOutOfRange { pc: usize, target: i64 },
    /// Code does not end every path with `Ret` (approximated: last op
    /// must be `Ret` or an unconditional backward `Jump`).
    MissingReturn,
    /// Empty method body.
    Empty,
    /// Operand-stack underflow provable at `pc`: the op needs `need`
    /// values but at most `have` can be on the stack there.
    StackUnderflow { pc: usize, need: usize, have: usize },
    /// Two paths reach `pc` with different stack depths.
    InconsistentStack { pc: usize, a: usize, b: usize },
    /// Execution can fall off the end of the method.
    FallsOffEnd,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BranchOutOfRange { pc, target } => {
                write!(f, "branch at pc {pc} targets out-of-range {target}")
            }
            VerifyError::MissingReturn => write!(f, "method does not end in Ret"),
            VerifyError::Empty => write!(f, "empty method body"),
            VerifyError::StackUnderflow { pc, need, have } => {
                write!(f, "stack underflow at pc {pc}: need {need}, have {have}")
            }
            VerifyError::InconsistentStack { pc, a, b } => {
                write!(f, "inconsistent stack depth at pc {pc}: {a} vs {b}")
            }
            VerifyError::FallsOffEnd => write!(f, "control flow falls off the end"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Stack effect (pops, pushes) of an op. `Call`/`NativeCall` pops are
/// resolved by the caller-provided arity lookup (the op itself doesn't
/// know the callee's arity).
fn stack_effect(op: Op, callee_arity: impl Fn(Op) -> usize) -> (usize, usize) {
    match op {
        Op::Nop | Op::Jump(_) => (0, 0),
        Op::Const(_) | Op::Load(_) => (0, 1),
        Op::Store(_) | Op::Pop | Op::JumpIfZero(_) | Op::JumpIfNonZero(_) => (1, 0),
        Op::Dup => (1, 2),
        Op::Neg | Op::ArrayLen | Op::NewArray => (1, 1),
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem | Op::Eq | Op::Lt | Op::Gt => (2, 1),
        Op::New(_) => (0, 1),
        Op::GetField(_) => (1, 1),
        Op::PutField(_) => (2, 0),
        Op::ALoad => (2, 1),
        Op::AStore => (3, 0),
        Op::Ret => (0, 0), // Ret accepts an empty stack (returns 0)
        Op::Call(_) | Op::NativeCall(_) => (callee_arity(op), 1),
    }
}

/// Verify a method body's structural invariants: branch targets in
/// range, no fall-through past the end, and — via a dataflow pass over
/// the control-flow graph — a consistent, non-underflowing operand
/// stack on every path. `callee_arity` supplies arities for `Call` /
/// `NativeCall` ops (use `verify` when the body has none).
pub fn verify_with_arities(
    code: &[Op],
    callee_arity: impl Fn(Op) -> usize + Copy,
) -> Result<(), VerifyError> {
    if code.is_empty() {
        return Err(VerifyError::Empty);
    }
    // Pass 1: branch targets.
    for (pc, op) in code.iter().enumerate() {
        let off = match op {
            Op::Jump(o) | Op::JumpIfZero(o) | Op::JumpIfNonZero(o) => *o as i64,
            _ => continue,
        };
        let target = pc as i64 + 1 + off;
        if target < 0 || target >= code.len() as i64 {
            return Err(VerifyError::BranchOutOfRange { pc, target });
        }
    }
    if !code.iter().any(|o| matches!(o, Op::Ret)) {
        return Err(VerifyError::MissingReturn);
    }

    // Pass 2: abstract interpretation of stack depth over the CFG.
    let mut depth_at: Vec<Option<usize>> = vec![None; code.len()];
    let mut worklist = vec![(0usize, 0usize)];
    let mut saw_ret = false;
    while let Some((pc, depth)) = worklist.pop() {
        match depth_at[pc] {
            Some(d) if d == depth => continue,
            Some(d) => {
                return Err(VerifyError::InconsistentStack { pc, a: d, b: depth });
            }
            None => depth_at[pc] = Some(depth),
        }
        let op = code[pc];
        // Ret tolerates an empty stack; everything else must not
        // underflow.
        let (pops, pushes) = stack_effect(op, callee_arity);
        if !matches!(op, Op::Ret) && depth < pops {
            return Err(VerifyError::StackUnderflow {
                pc,
                need: pops,
                have: depth,
            });
        }
        let after = if matches!(op, Op::Ret) {
            saw_ret = true;
            continue;
        } else {
            depth - pops + pushes
        };
        let next = pc + 1;
        match op {
            Op::Jump(o) => {
                worklist.push(((pc as i64 + 1 + o as i64) as usize, after));
            }
            Op::JumpIfZero(o) | Op::JumpIfNonZero(o) => {
                worklist.push(((pc as i64 + 1 + o as i64) as usize, after));
                if next >= code.len() {
                    return Err(VerifyError::FallsOffEnd);
                }
                worklist.push((next, after));
            }
            _ => {
                if next >= code.len() {
                    return Err(VerifyError::FallsOffEnd);
                }
                worklist.push((next, after));
            }
        }
    }
    if !saw_ret {
        return Err(VerifyError::MissingReturn);
    }
    Ok(())
}

/// [`verify_with_arities`] for bodies whose `Call`s/`NativeCall`s all
/// take 0 arguments (callers with real call graphs use
/// [`crate::classes::ProgramBuilder::build`], which passes the true
/// arities).
pub fn verify(code: &[Op]) -> Result<(), VerifyError> {
    verify_with_arities(code, |_| 0)
}

/// Structural checks only: branch targets in range and a `Ret` (or
/// trailing unconditional back-jump) present. Used by the assembler,
/// which cannot know callee arities; the full dataflow pass runs at
/// [`crate::classes::ProgramBuilder::build`] time.
pub fn verify_structure(code: &[Op]) -> Result<(), VerifyError> {
    if code.is_empty() {
        return Err(VerifyError::Empty);
    }
    for (pc, op) in code.iter().enumerate() {
        let off = match op {
            Op::Jump(o) | Op::JumpIfZero(o) | Op::JumpIfNonZero(o) => *o as i64,
            _ => continue,
        };
        let target = pc as i64 + 1 + off;
        if target < 0 || target >= code.len() as i64 {
            return Err(VerifyError::BranchOutOfRange { pc, target });
        }
    }
    match code.last() {
        Some(Op::Ret) => Ok(()),
        Some(Op::Jump(o)) if *o < 0 => Ok(()),
        _ => Err(VerifyError::MissingReturn),
    }
}

#[cfg(test)]
impl Op {
    /// Whether this op is a backward branch *given its offset* — the
    /// events the adaptive optimization system counts.
    pub(crate) fn is_backedge(self) -> bool {
        matches!(
            self,
            Op::Jump(o) | Op::JumpIfZero(o) | Op::JumpIfNonZero(o) if o < 0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backedge_detection() {
        assert!(Op::Jump(-3).is_backedge());
        assert!(Op::JumpIfNonZero(-1).is_backedge());
        assert!(!Op::Jump(2).is_backedge());
        assert!(!Op::Add.is_backedge());
    }

    #[test]
    fn verify_accepts_straightline_ret() {
        assert!(verify(&[Op::Const(1), Op::Ret]).is_ok());
    }

    #[test]
    fn verify_accepts_counted_loop() {
        // i = 5; while (i != 0) i -= 1; return 0
        let code = [
            Op::Const(5),
            Op::Store(0),
            Op::Load(0),          // 2: loop head
            Op::JumpIfZero(5),    // -> 8
            Op::Load(0),
            Op::Const(1),
            Op::Sub,
            Op::Store(0),
            // pc 8 would be next; use jump back to 2: offset = 2 - (8+1) = -7
        ];
        let mut v = code.to_vec();
        v.push(Op::Jump(-7));
        v.push(Op::Const(0));
        v.push(Op::Ret);
        assert!(verify(&v).is_ok());
    }

    #[test]
    fn verify_rejects_bad_branch() {
        let e = verify(&[Op::Jump(10), Op::Ret]).unwrap_err();
        assert!(matches!(e, VerifyError::BranchOutOfRange { pc: 0, .. }));
        let e = verify(&[Op::Jump(-5), Op::Ret]).unwrap_err();
        assert!(matches!(e, VerifyError::BranchOutOfRange { .. }));
    }

    #[test]
    fn verify_rejects_missing_ret_and_empty() {
        assert_eq!(verify(&[Op::Const(1)]), Err(VerifyError::MissingReturn));
        assert_eq!(verify(&[]), Err(VerifyError::Empty));
    }

    #[test]
    fn verify_rejects_provable_underflow() {
        // Add with only one value on the stack.
        let e = verify(&[Op::Const(1), Op::Add, Op::Ret]).unwrap_err();
        assert!(matches!(e, VerifyError::StackUnderflow { pc: 1, need: 2, have: 1 }));
        // Pop on an empty stack.
        let e = verify(&[Op::Pop, Op::Ret]).unwrap_err();
        assert!(matches!(e, VerifyError::StackUnderflow { pc: 0, .. }));
    }

    #[test]
    fn verify_rejects_inconsistent_merge_depths() {
        // One path pushes before the join, the other doesn't:
        //   0: Const 1            depth 1
        //   1: JumpIfZero +1 → 3  depth 0 on both exits
        //   2: Const 9            depth 1 at pc 3 via fallthrough
        //   3: Ret                but depth 0 when jumping 1 → 3
        let code = [Op::Const(1), Op::JumpIfZero(1), Op::Const(9), Op::Ret];
        let e = verify(&code).unwrap_err();
        assert!(matches!(e, VerifyError::InconsistentStack { pc: 3, .. }), "{e:?}");
    }

    #[test]
    fn verify_rejects_fall_off_end() {
        let e = verify(&[Op::Const(1), Op::JumpIfZero(-2), Op::Nop]).unwrap_err();
        // `Nop` at the end falls off (the Ret check fires first if
        // there's no Ret at all).
        assert!(matches!(e, VerifyError::MissingReturn | VerifyError::FallsOffEnd));
        // A *reachable* trailing op with no successor falls off.
        let code = [Op::Const(1), Op::JumpIfZero(1), Op::Ret, Op::Nop];
        let e = verify(&code).unwrap_err();
        assert!(matches!(e, VerifyError::FallsOffEnd), "{e:?}");
    }

    #[test]
    fn verify_accepts_balanced_branches() {
        // Both sides of a diamond leave one value.
        let code = [
            Op::Const(1),
            Op::JumpIfZero(3),  // → 5
            Op::Const(10),      // then-branch
            Op::Nop,
            Op::Jump(1),        // → 6
            Op::Const(20),      // else-branch
            Op::Ret,            // 6: one value either way
        ];
        assert!(verify(&code).is_ok());
    }

    #[test]
    fn verify_with_arities_checks_call_pops() {
        // Call of a 2-arg method with only one value available.
        let code = [Op::Const(1), Op::Call(MethodId(0)), Op::Ret];
        let arity2 = |_: Op| 2usize;
        let e = verify_with_arities(&code, arity2).unwrap_err();
        assert!(matches!(e, VerifyError::StackUnderflow { pc: 1, need: 2, have: 1 }));
        let code = [Op::Const(1), Op::Const(2), Op::Call(MethodId(0)), Op::Ret];
        assert!(verify_with_arities(&code, arity2).is_ok());
    }

    #[test]
    fn verify_allows_dead_code_after_unconditional_flow() {
        // pc 2 (Const) is unreachable; the verifier only checks
        // reachable code.
        let code = [Op::Const(0), Op::Ret, Op::Add, Op::Ret];
        assert!(verify(&code).is_ok());
    }

    #[test]
    fn size_weights_reasonable() {
        // Calls cost more than ALU which cost more than nops.
        assert!(Op::Call(MethodId(0)).size_weight() > Op::Add.size_weight());
        assert!(Op::Add.size_weight() > Op::Nop.size_weight());
    }
}
