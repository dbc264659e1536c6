//! Possible-types analysis: which classes a reference may point to.
//!
//! The paper's first client (§6.2): "computes the possible types for a
//! value reference in the program. Such information can, for instance, be
//! used for virtual-method-call resolution. We track typing information
//! through method boundaries. Field and array assignments are treated with
//! weak updates in a field-sensitive manner, abstracting from receiver
//! objects."

use crate::common::*;
use spllift_ifds::IfdsProblem;
use spllift_ir::{
    ClassId, FieldId, LocalId, MethodId, Operand, ProgramIcfg, Rvalue, StmtKind, StmtRef,
};

/// A possible-type fact: "this location may point to an instance of
/// exactly this (runtime) class".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeFact {
    /// The tautology fact.
    Zero,
    /// Local `l` may point to an instance of class `c`.
    Local(LocalId, ClassId),
    /// Field `f` (any receiver) may point to an instance of class `c`.
    Field(FieldId, ClassId),
    /// Some array element (any array) may point to an instance of `c` —
    /// one summary cell, weak index-insensitive updates (paper §6.2).
    ArrayElem(ClassId),
}

/// The inter-procedural possible-types IFDS problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct PossibleTypes;

impl PossibleTypes {
    /// Creates the analysis.
    pub fn new() -> Self {
        PossibleTypes
    }
}

impl<'p> IfdsProblem<ProgramIcfg<'p>> for PossibleTypes {
    type Fact = TypeFact;

    fn zero(&self) -> TypeFact {
        TypeFact::Zero
    }

    fn flow_normal(
        &self,
        icfg: &ProgramIcfg<'p>,
        curr: StmtRef,
        _succ: StmtRef,
        d: &TypeFact,
        out: &mut Vec<TypeFact>,
    ) {
        let program = icfg.program();
        match &program.stmt(curr).kind {
            StmtKind::Assign { target, rvalue } => {
                // The class the assignment copies into `target` from `d`.
                let copied = match (rvalue, d) {
                    (Rvalue::New(c), TypeFact::Zero) => Some(*c),
                    (Rvalue::Use(Operand::Local(src)), TypeFact::Local(l, c)) if l == src => {
                        Some(*c)
                    }
                    (Rvalue::FieldLoad { field, .. }, TypeFact::Field(f, c)) if f == field => {
                        Some(*c)
                    }
                    (Rvalue::ArrayLoad { .. }, TypeFact::ArrayElem(c)) => Some(*c),
                    // Arithmetic / constants produce no reference types.
                    _ => None,
                };
                match copied {
                    Some(c) => out.extend([*d, TypeFact::Local(*target, c)]),
                    None if matches!(d, TypeFact::Local(l, _) if l == target) => {}
                    None => out.push(*d),
                }
            }
            StmtKind::FieldStore { field, value, .. } => {
                out.push(*d);
                if let TypeFact::Local(l, c) = d {
                    if value.as_local() == Some(*l) {
                        // Weak update: gen, never kill.
                        out.push(TypeFact::Field(*field, *c));
                    }
                }
            }
            StmtKind::ArrayStore { value, .. } => {
                out.push(*d);
                if let TypeFact::Local(l, c) = d {
                    if value.as_local() == Some(*l) {
                        out.push(TypeFact::ArrayElem(*c));
                    }
                }
            }
            StmtKind::Invoke { .. } => self.flow_call_to_return(icfg, curr, curr, d, out),
            _ => out.push(*d),
        }
    }

    fn flow_call(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        callee: MethodId,
        d: &TypeFact,
        out: &mut Vec<TypeFact>,
    ) {
        match d {
            TypeFact::Zero | TypeFact::Field(..) | TypeFact::ArrayElem(_) => out.push(*d),
            TypeFact::Local(l, c) => {
                for_each_binding(icfg.program(), call, callee, |actual, formal| {
                    if actual == *l {
                        out.push(TypeFact::Local(formal, *c));
                    }
                })
            }
        }
    }

    fn flow_return(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        _callee: MethodId,
        exit: StmtRef,
        _return_site: StmtRef,
        d: &TypeFact,
        out: &mut Vec<TypeFact>,
    ) {
        let program = icfg.program();
        match d {
            TypeFact::Zero | TypeFact::Field(..) | TypeFact::ArrayElem(_) => out.push(*d),
            TypeFact::Local(l, c) => {
                if returned_local(program, exit) == Some(*l) {
                    out.extend(result_local(program, call).map(|r| TypeFact::Local(r, *c)));
                }
            }
        }
    }

    fn flow_call_to_return(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        _return_site: StmtRef,
        d: &TypeFact,
        out: &mut Vec<TypeFact>,
    ) {
        let res = result_local(icfg.program(), call);
        match d {
            TypeFact::Local(l, _) if Some(*l) == res => {}
            other => out.push(*other),
        }
    }
}
