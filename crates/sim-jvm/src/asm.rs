//! Label-based assembler for the mini bytecode.
//!
//! The workload programs (synthetic JVM98/DaCapo/pseudoJBB) are written
//! against this builder; it resolves symbolic labels to relative branch
//! offsets and verifies the result.

use crate::bytecode::{verify_structure, Op, VerifyError};
use std::collections::HashMap;

/// One assembler item: either a concrete op or a pending branch.
#[derive(Debug, Clone)]
enum Item {
    Op(Op),
    Jump(String),
    JumpIfNonZero(String),
}

/// Assembly error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    UnknownLabel(String),
    DuplicateLabel(String),
    Verify(VerifyError),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnknownLabel(l) => write!(f, "unknown label {l:?}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label {l:?}"),
            AsmError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// Builder for one method body.
#[derive(Debug, Clone, Default)]
pub struct MethodAsm {
    items: Vec<Item>,
    labels: HashMap<String, usize>,
}

impl MethodAsm {
    pub fn new() -> Self {
        MethodAsm::default()
    }

    /// Append a raw op.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.items.push(Item::Op(op));
        self
    }

    /// Append several raw ops.
    pub fn ops(&mut self, ops: impl IntoIterator<Item = Op>) -> &mut Self {
        for o in ops {
            self.op(o);
        }
        self
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_string(), self.items.len());
        assert!(prev.is_none(), "duplicate label {name:?}");
        self
    }

    pub fn jump(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::Jump(label.to_string()));
        self
    }

    pub fn jump_if_nonzero(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::JumpIfNonZero(label.to_string()));
        self
    }

    /// Emit a counted loop: `local[counter] = n; do { body } while (--local[counter] != 0);`
    /// The body is appended via the closure. `n` must be ≥ 1.
    pub fn counted_loop(
        &mut self,
        counter: u16,
        n: i64,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        assert!(n >= 1, "counted_loop needs n ≥ 1");
        // Unique label per loop, derived from current position.
        let head = format!("__loop_head_{}", self.items.len());
        self.op(Op::Const(n)).op(Op::Store(counter));
        self.label(&head);
        body(self);
        self.op(Op::Load(counter))
            .op(Op::Const(1))
            .op(Op::Sub)
            .op(Op::Dup)
            .op(Op::Store(counter));
        self.jump_if_nonzero(&head);
        self
    }

    /// Resolve labels and run the structural checks (branch targets,
    /// return present). The full stack-discipline verification — which
    /// needs callee arities — runs when the program is built.
    pub fn assemble(&self) -> Result<Vec<Op>, AsmError> {
        let resolve = |pc: usize, label: &str| -> Result<i32, AsmError> {
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| AsmError::UnknownLabel(label.to_string()))?;
            Ok(target as i32 - (pc as i32 + 1))
        };
        let mut code = Vec::with_capacity(self.items.len());
        for (pc, item) in self.items.iter().enumerate() {
            let op = match item {
                Item::Op(o) => *o,
                Item::Jump(l) => Op::Jump(resolve(pc, l)?),
                Item::JumpIfNonZero(l) => Op::JumpIfNonZero(resolve(pc, l)?),
            };
            code.push(op);
        }
        verify_structure(&code).map_err(AsmError::Verify)?;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = MethodAsm::new();
        a.label("start")
            .op(Op::Const(1))
            .jump_if_nonzero("end")
            .jump("start")
            .label("end")
            .op(Op::Const(7))
            .op(Op::Ret);
        let code = a.assemble().unwrap();
        // pc1 JumpIfNonZero → "end" at index 3: offset = 3 - 2 = 1
        assert_eq!(code[1], Op::JumpIfNonZero(1));
        // pc2 Jump → "start" at 0: offset = 0 - 3 = -3
        assert_eq!(code[2], Op::Jump(-3));
    }

    #[test]
    fn unknown_label_is_error() {
        let mut a = MethodAsm::new();
        a.jump("nowhere").op(Op::Ret);
        assert_eq!(
            a.assemble(),
            Err(AsmError::UnknownLabel("nowhere".to_string()))
        );
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = MethodAsm::new();
        a.label("x").label("x");
    }

    #[test]
    fn counted_loop_emits_backedge() {
        let mut a = MethodAsm::new();
        a.counted_loop(0, 10, |b| {
            b.op(Op::Nop);
        });
        a.op(Op::Const(0)).op(Op::Ret);
        let code = a.assemble().unwrap();
        assert!(
            code.iter().any(|o| o.is_backedge()),
            "loop must produce a backward branch: {code:?}"
        );
    }

    #[test]
    fn assembled_code_passes_verifier() {
        let mut a = MethodAsm::new();
        a.counted_loop(0, 3, |b| {
            b.op(Op::Const(1)).op(Op::Pop);
        });
        a.op(Op::Const(0)).op(Op::Ret);
        assert!(a.assemble().is_ok());
    }

    #[test]
    fn nested_counted_loops() {
        let mut a = MethodAsm::new();
        a.counted_loop(0, 3, |outer| {
            outer.counted_loop(1, 4, |inner| {
                inner.op(Op::Nop);
            });
        });
        a.op(Op::Const(0)).op(Op::Ret);
        let code = a.assemble().unwrap();
        assert_eq!(code.iter().filter(|o| o.is_backedge()).count(), 2);
    }
}
