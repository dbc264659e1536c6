//! Linear constant propagation — the original motivating client of the
//! IDE framework (Sagiv, Reps, Horwitz, TAPSOFT 1995, "Precise
//! interprocedural dataflow analysis with applications to constant
//! propagation"), which the paper builds on (§2.4).
//!
//! Unlike the four IFDS clients, this is a *native IDE problem*: edge
//! functions are the linear transformers `λv. a·v + b`, closed under
//! composition, with a constant-or-⊥ join. It runs on the same
//! [`ProgramIcfg`] and the same [`spllift_ide::IdeSolver`] as the lifted
//! analyses, demonstrating that the IDE layer is a complete framework and
//! not merely a vehicle for the lifting. (SPLLIFT itself lifts IFDS
//! problems only — the paper's own restriction, §5.)

use crate::common::*;
use spllift_ide::{EdgeFn, IdeProblem};
use spllift_ir::{BinOp, LocalId, MethodId, Operand, ProgramIcfg, Rvalue, StmtKind, StmtRef};

/// A constant-propagation fact: a local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CpFact {
    /// The tautology fact.
    Zero,
    /// The tracked local.
    Local(LocalId),
}

/// The constant lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpValue {
    /// ⊤ — unreached / no information.
    Top,
    /// A known constant.
    Const(i64),
    /// ⊥ — provably non-constant.
    Bot,
}

/// Edge functions: the linear transformers of the IDE paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinearEdge {
    /// `λv. ⊤` — the kill function.
    Kill,
    /// `λv. a·v + b` (identity is `a=1, b=0`; constants are `a=0`).
    Linear(i64, i64),
    /// `λv. ⊥` — definitely non-constant.
    Bot,
}

impl LinearEdge {
    const ID: LinearEdge = LinearEdge::Linear(1, 0);
}

impl EdgeFn<CpValue> for LinearEdge {
    fn apply(&self, v: &CpValue) -> CpValue {
        match (self, v) {
            (LinearEdge::Kill, _) => CpValue::Top,
            (LinearEdge::Bot, _) => CpValue::Bot,
            // A constant edge ignores its input entirely.
            (LinearEdge::Linear(0, b), _) => CpValue::Const(*b),
            (LinearEdge::Linear(..), CpValue::Top) => CpValue::Top,
            (LinearEdge::Linear(..), CpValue::Bot) => CpValue::Bot,
            (LinearEdge::Linear(a, b), CpValue::Const(c)) => {
                CpValue::Const(a.wrapping_mul(*c).wrapping_add(*b))
            }
        }
    }

    fn compose_with(&self, after: &Self) -> Self {
        match (self, after) {
            (LinearEdge::Kill, _) | (_, LinearEdge::Kill) => LinearEdge::Kill,
            (_, LinearEdge::Linear(0, b)) => LinearEdge::Linear(0, *b),
            (LinearEdge::Bot, LinearEdge::Linear(..)) => LinearEdge::Bot,
            (_, LinearEdge::Bot) => LinearEdge::Bot,
            (LinearEdge::Linear(a1, b1), LinearEdge::Linear(a2, b2)) => {
                // after(self(v)) = a2·(a1·v + b1) + b2.
                LinearEdge::Linear(a2.wrapping_mul(*a1), a2.wrapping_mul(*b1).wrapping_add(*b2))
            }
        }
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (LinearEdge::Kill, f) | (f, LinearEdge::Kill) => *f,
            (a, b) if a == b => *a,
            _ => LinearEdge::Bot,
        }
    }

    fn is_kill(&self) -> bool {
        *self == LinearEdge::Kill
    }
}

/// Inter-procedural linear constant propagation over the IR.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearConstants;

impl LinearConstants {
    /// Creates the analysis.
    pub fn new() -> Self {
        LinearConstants
    }

    /// The edge transforming `source fact → target` for an assignment
    /// rvalue, when the rvalue is a linear function of a single local
    /// (`Some((source, edge))`), a constant (`source = Zero`), or
    /// non-linear (`None` → generate ⊥).
    fn linear_of(rvalue: &Rvalue) -> Option<(CpFact, LinearEdge)> {
        match rvalue {
            Rvalue::Use(Operand::IntConst(c)) => Some((CpFact::Zero, LinearEdge::Linear(0, *c))),
            Rvalue::Use(Operand::BoolConst(b)) => {
                Some((CpFact::Zero, LinearEdge::Linear(0, *b as i64)))
            }
            Rvalue::Use(Operand::Local(l)) => Some((CpFact::Local(*l), LinearEdge::ID)),
            Rvalue::Binary(op, Operand::Local(l), Operand::IntConst(c))
            | Rvalue::Binary(op, Operand::IntConst(c), Operand::Local(l)) => {
                let commuted = matches!(rvalue, Rvalue::Binary(_, Operand::IntConst(_), _));
                match op {
                    BinOp::Add => Some((CpFact::Local(*l), LinearEdge::Linear(1, *c))),
                    BinOp::Mul => Some((CpFact::Local(*l), LinearEdge::Linear(*c, 0))),
                    BinOp::Sub if !commuted => Some((CpFact::Local(*l), LinearEdge::Linear(1, -c))),
                    BinOp::Sub => Some((CpFact::Local(*l), LinearEdge::Linear(-1, *c))),
                    _ => None,
                }
            }
            Rvalue::Binary(
                BinOp::Add | BinOp::Sub | BinOp::Mul,
                Operand::IntConst(c1),
                Operand::IntConst(c2),
            ) => {
                let v = match rvalue {
                    Rvalue::Binary(BinOp::Add, ..) => c1 + c2,
                    Rvalue::Binary(BinOp::Sub, ..) => c1 - c2,
                    _ => c1 * c2,
                };
                Some((CpFact::Zero, LinearEdge::Linear(0, v)))
            }
            _ => None,
        }
    }
}

impl<'p> IdeProblem<ProgramIcfg<'p>> for LinearConstants {
    type Fact = CpFact;
    type Value = CpValue;
    type EF = LinearEdge;

    fn zero(&self) -> CpFact {
        CpFact::Zero
    }

    fn top(&self) -> CpValue {
        CpValue::Top
    }

    fn seed_value(&self) -> CpValue {
        CpValue::Bot // "reached, nothing known"
    }

    fn join_values(&self, a: &CpValue, b: &CpValue) -> CpValue {
        match (a, b) {
            (CpValue::Top, v) | (v, CpValue::Top) => *v,
            (CpValue::Const(x), CpValue::Const(y)) if x == y => CpValue::Const(*x),
            _ => CpValue::Bot,
        }
    }

    fn id_edge(&self) -> LinearEdge {
        LinearEdge::ID
    }

    fn flow_normal(
        &self,
        icfg: &ProgramIcfg<'p>,
        curr: StmtRef,
        _succ: StmtRef,
        d: &CpFact,
        out: &mut Vec<(CpFact, LinearEdge)>,
    ) {
        let program = icfg.program();
        let kind = &program.stmt(curr).kind;
        if matches!(kind, StmtKind::Invoke { .. }) {
            return self.flow_call_to_return(icfg, curr, curr, d, out);
        }
        let StmtKind::Assign { target, rvalue } = kind else {
            out.push((*d, LinearEdge::ID));
            return;
        };
        let t = CpFact::Local(*target);
        match Self::linear_of(rvalue) {
            Some((source, edge)) if *d == source => {
                out.push((t, edge));
                if source != t {
                    out.push((*d, LinearEdge::ID));
                }
            }
            // Non-linear: the target is ⊥, generated from 0.
            None if *d == CpFact::Zero => {
                out.extend([(CpFact::Zero, LinearEdge::ID), (t, LinearEdge::Bot)])
            }
            // Strong update.
            _ if *d == t => {}
            _ => out.push((*d, LinearEdge::ID)),
        }
    }

    fn flow_call(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        callee: MethodId,
        d: &CpFact,
        out: &mut Vec<(CpFact, LinearEdge)>,
    ) {
        match d {
            CpFact::Zero => {
                // Constants passed as actuals enter through the zero fact.
                out.push((CpFact::Zero, LinearEdge::ID));
                if let StmtKind::Invoke { args, .. } = &icfg.program().stmt(call).kind {
                    let callee_body = icfg.program().body(callee);
                    for (i, a) in args.iter().enumerate() {
                        if let Operand::IntConst(c) = a {
                            if let Some(&formal) = callee_body.param_locals.get(i) {
                                out.push((CpFact::Local(formal), LinearEdge::Linear(0, *c)));
                            }
                        }
                    }
                }
            }
            CpFact::Local(l) => for_each_binding(icfg.program(), call, callee, |actual, formal| {
                if actual == *l {
                    out.push((CpFact::Local(formal), LinearEdge::ID));
                }
            }),
        }
    }

    fn flow_return(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        _callee: MethodId,
        exit: StmtRef,
        _return_site: StmtRef,
        d: &CpFact,
        out: &mut Vec<(CpFact, LinearEdge)>,
    ) {
        let program = icfg.program();
        match d {
            CpFact::Zero => {
                out.push((CpFact::Zero, LinearEdge::ID));
                // A constant return value flows out through zero.
                if let StmtKind::Return {
                    value: Some(Operand::IntConst(c)),
                } = &program.stmt(exit).kind
                {
                    if let Some(res) = result_local(program, call) {
                        out.push((CpFact::Local(res), LinearEdge::Linear(0, *c)));
                    }
                }
            }
            CpFact::Local(l) => {
                if returned_local(program, exit) == Some(*l) {
                    out.extend(
                        result_local(program, call).map(|r| (CpFact::Local(r), LinearEdge::ID)),
                    );
                }
            }
        }
    }

    fn flow_call_to_return(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        _return_site: StmtRef,
        d: &CpFact,
        out: &mut Vec<(CpFact, LinearEdge)>,
    ) {
        let res = result_local(icfg.program(), call);
        match d {
            CpFact::Local(l) if Some(*l) == res => {}
            other => out.push((*other, LinearEdge::ID)),
        }
    }
}
