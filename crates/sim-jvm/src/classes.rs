//! Classes, methods, and whole-program definitions.

use crate::bytecode::{verify_with_arities, ClassId, MethodId, Op, VerifyError};
use crate::natives::NativeRegistry;

/// Cache behaviour of a method's heap accesses, used by the
/// fast-forward execution mode (the detailed mode derives misses from
/// real addresses instead). Rates are per heap access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSpec {
    pub l1_miss_rate: f64,
    pub l2_miss_rate: f64,
}

impl Default for MemSpec {
    fn default() -> Self {
        // Warm, cache-friendly code.
        MemSpec {
            l1_miss_rate: 0.02,
            l2_miss_rate: 0.002,
        }
    }
}

impl MemSpec {
    pub fn new(l1_miss_rate: f64, l2_miss_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&l1_miss_rate));
        assert!((0.0..=1.0).contains(&l2_miss_rate));
        assert!(l2_miss_rate <= l1_miss_rate, "L2 misses are a subset of L1 misses");
        MemSpec {
            l1_miss_rate,
            l2_miss_rate,
        }
    }
}

/// A method declaration.
#[derive(Debug, Clone)]
pub struct MethodDecl {
    /// Fully-qualified Java-style name, e.g.
    /// `spec.benchmarks._201_compress.Compressor.compress`.
    pub name: String,
    pub class: ClassId,
    /// Number of arguments popped by `Call`.
    pub arity: u16,
    /// Locals slots (≥ arity; args land in locals `0..arity`).
    pub nlocals: u16,
    pub code: Vec<Op>,
    pub mem: MemSpec,
}

/// A class: name plus instance field count (drives `New` object size).
#[derive(Debug, Clone)]
pub struct ClassDecl {
    pub name: String,
    pub field_count: u16,
}

/// A complete program ready to load into a [`crate::vm::Vm`].
#[derive(Debug, Clone)]
pub struct ProgramDef {
    pub classes: Vec<ClassDecl>,
    pub methods: Vec<MethodDecl>,
    pub entry: MethodId,
    /// Static slots shared by all methods (index space for tests and
    /// benchmark state).
    pub static_slots: u16,
}

impl ProgramDef {
    pub fn method(&self, id: MethodId) -> &MethodDecl {
        &self.methods[id.0 as usize]
    }

    pub fn class(&self, id: ClassId) -> &ClassDecl {
        &self.classes[id.0 as usize]
    }
}

/// Builder with validation.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    classes: Vec<ClassDecl>,
    methods: Vec<MethodDecl>,
    entry: Option<MethodId>,
    static_slots: u16,
}

/// Program construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    Verify { method: String, error: VerifyError },
    NoEntry,
    BadCallTarget { method: String, target: MethodId },
    BadClass { method: String, class: ClassId },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Verify { method, error } => {
                write!(f, "method {method}: {error}")
            }
            ProgramError::NoEntry => write!(f, "no entry method set"),
            ProgramError::BadCallTarget { method, target } => {
                write!(f, "method {method} calls unknown method {target:?}")
            }
            ProgramError::BadClass { method, class } => {
                write!(f, "method {method} references unknown class {class:?}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl ProgramBuilder {
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    pub fn add_class(&mut self, name: impl Into<String>, field_count: u16) -> ClassId {
        self.classes.push(ClassDecl {
            name: name.into(),
            field_count,
        });
        ClassId(self.classes.len() as u32 - 1)
    }

    pub fn add_method(
        &mut self,
        class: ClassId,
        name: impl Into<String>,
        arity: u16,
        nlocals: u16,
        code: Vec<Op>,
    ) -> MethodId {
        assert!(nlocals >= arity, "locals must cover the arguments");
        self.methods.push(MethodDecl {
            name: name.into(),
            class,
            arity,
            nlocals,
            code,
            mem: MemSpec::default(),
        });
        MethodId(self.methods.len() as u32 - 1)
    }

    /// Override the memory profile of a method (benchmarks with known
    /// cache behaviour, e.g. the paper's memset-heavy `ps`).
    pub fn set_mem(&mut self, m: MethodId, mem: MemSpec) {
        self.methods[m.0 as usize].mem = mem;
    }

    pub fn set_entry(&mut self, m: MethodId) {
        self.entry = Some(m);
    }

    /// Validate and produce the program. Method bodies are verified
    /// with the *real* callee arities (`Call` targets from this
    /// program; `NativeCall` arities default to 0 — use
    /// [`ProgramBuilder::build_with_natives`] when natives take
    /// arguments).
    pub fn build(self) -> Result<ProgramDef, ProgramError> {
        self.build_inner(None)
    }

    /// Like [`ProgramBuilder::build`], with native arities supplied.
    pub fn build_with_natives(
        self,
        natives: &NativeRegistry,
    ) -> Result<ProgramDef, ProgramError> {
        self.build_inner(Some(natives))
    }

    fn build_inner(self, natives: Option<&NativeRegistry>) -> Result<ProgramDef, ProgramError> {
        let entry = self.entry.ok_or(ProgramError::NoEntry)?;
        for m in &self.methods {
            let arity_of = |op: Op| match op {
                Op::Call(target) => self
                    .methods
                    .get(target.0 as usize)
                    .map(|d| d.arity as usize)
                    .unwrap_or(0),
                Op::NativeCall(id) => natives
                    .and_then(|n| {
                        ((id.0 as usize) < n.len()).then(|| n.get(id).arity as usize)
                    })
                    .unwrap_or(0),
                _ => 0,
            };
            verify_with_arities(&m.code, arity_of).map_err(|error| ProgramError::Verify {
                method: m.name.clone(),
                error,
            })?;
            for op in &m.code {
                match *op {
                    Op::Call(target) if target.0 as usize >= self.methods.len() => {
                        return Err(ProgramError::BadCallTarget {
                            method: m.name.clone(),
                            target,
                        });
                    }
                    Op::New(class) if class.0 as usize >= self.classes.len() => {
                        return Err(ProgramError::BadClass {
                            method: m.name.clone(),
                            class,
                        });
                    }
                    _ => {}
                }
            }
        }
        Ok(ProgramDef {
            classes: self.classes,
            methods: self.methods,
            entry,
            static_slots: self.static_slots,
        })
    }
}

#[cfg(test)]
impl ProgramBuilder {
    pub(crate) fn reserve_statics(&mut self, slots: u16) {
        self.static_slots = self.static_slots.max(slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ret0() -> Vec<Op> {
        vec![Op::Const(0), Op::Ret]
    }

    #[test]
    fn build_valid_program() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("Main", 2);
        let helper = b.add_method(c, "Main.helper", 0, 0, ret0());
        let main = b.add_method(c, "Main.main", 0, 1, vec![Op::Call(helper), Op::Ret]);
        b.set_entry(main);
        let p = b.build().unwrap();
        assert_eq!(p.methods.len(), 2);
        let by_name = p.methods.iter().position(|m| m.name == "Main.helper");
        assert_eq!(by_name, Some(helper.0 as usize));
        assert_eq!(p.class(c).field_count, 2);
    }

    #[test]
    fn missing_entry_rejected() {
        let b = ProgramBuilder::new();
        assert_eq!(b.build().unwrap_err(), ProgramError::NoEntry);
    }

    #[test]
    fn bad_call_target_rejected() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", 0);
        let m = b.add_method(c, "C.m", 0, 0, vec![Op::Call(MethodId(99)), Op::Ret]);
        b.set_entry(m);
        assert!(matches!(
            b.build().unwrap_err(),
            ProgramError::BadCallTarget { .. }
        ));
    }

    #[test]
    fn bad_class_rejected() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", 0);
        let m = b.add_method(c, "C.m", 0, 0, vec![Op::New(ClassId(7)), Op::Ret]);
        b.set_entry(m);
        assert!(matches!(b.build().unwrap_err(), ProgramError::BadClass { .. }));
    }

    #[test]
    fn unverifiable_method_rejected() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", 0);
        let m = b.add_method(c, "C.m", 0, 0, vec![Op::Const(1)]);
        b.set_entry(m);
        assert!(matches!(b.build().unwrap_err(), ProgramError::Verify { .. }));
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn memspec_orders_miss_rates() {
        let _ = MemSpec::new(0.01, 0.5);
    }
}
