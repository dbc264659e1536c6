//! Inter-procedural uninitialized-variables analysis.
//!
//! The paper's third client (§6.2): "finds potentially uninitialized
//! variables. Assume a call foo(x), where x is potentially uninitialized.
//! Our analysis will determine that all uses of the formal parameter of
//! foo may also access an uninitialized value."
//!
//! This is also the motivating bug class of the paper's §1: a Java SPL can
//! compile per-product yet use a variable that is undefined in *some*
//! configurations — the lifted analysis reports the exact configurations.

use crate::common::*;
use spllift_ifds::IfdsProblem;
use spllift_ir::{LocalId, MethodId, ProgramIcfg, StmtKind, StmtRef};

/// An uninitialized-variable fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UninitFact {
    /// The tautology fact.
    Zero,
    /// The local may be read before initialization.
    Local(LocalId),
}

/// The inter-procedural uninitialized-variables IFDS problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct UninitVars;

impl UninitVars {
    /// Creates the analysis.
    pub fn new() -> Self {
        UninitVars
    }

    /// Locals of `m` that start out uninitialized: everything except
    /// parameters and `this`.
    fn initially_uninit<'a>(
        icfg: &'a ProgramIcfg<'_>,
        m: MethodId,
    ) -> impl Iterator<Item = LocalId> + 'a {
        let body = icfg.program().body(m);
        (0..body.locals.len() as u32)
            .map(LocalId)
            .filter(|l| !body.param_locals.contains(l) && body.this_local != Some(*l))
    }

    /// Statements of the solved program that *use* a potentially
    /// uninitialized local, with the offending local.
    pub fn uses_of_uninit(
        icfg: &ProgramIcfg<'_>,
        solver: &spllift_ifds::IfdsSolver<ProgramIcfg<'_>, UninitFact>,
    ) -> Vec<(StmtRef, LocalId)> {
        use spllift_ifds::Icfg as _;
        let mut out = Vec::new();
        for m in icfg.methods() {
            for s in icfg.stmts_of(m) {
                let facts = solver.results_at(s);
                for u in icfg.program().stmt(s).kind.uses() {
                    if facts.contains(&UninitFact::Local(u)) {
                        out.push((s, u));
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl<'p> IfdsProblem<ProgramIcfg<'p>> for UninitVars {
    type Fact = UninitFact;

    fn zero(&self) -> UninitFact {
        UninitFact::Zero
    }

    fn flow_normal(
        &self,
        icfg: &ProgramIcfg<'p>,
        curr: StmtRef,
        _succ: StmtRef,
        d: &UninitFact,
        out: &mut Vec<UninitFact>,
    ) {
        let program = icfg.program();
        let kind = &program.stmt(curr).kind;
        // The synthetic entry nop generates "uninitialized" for every
        // non-parameter local.
        if curr.index == 0 {
            out.push(*d);
            if *d == UninitFact::Zero {
                out.extend(Self::initially_uninit(icfg, curr.method).map(UninitFact::Local));
            }
            return;
        }
        if matches!(kind, StmtKind::Invoke { .. }) {
            return self.flow_call_to_return(icfg, curr, curr, d, out);
        }
        match (kind, d) {
            // Uninitializedness propagates through reads: x = y + 1
            // with y uninit leaves x possibly uninit (garbage).
            (StmtKind::Assign { target, rvalue }, UninitFact::Local(l))
                if rvalue.uses().any(|u| u == *l) =>
            {
                out.extend([*d, UninitFact::Local(*target)])
            }
            (StmtKind::Assign { target, .. }, UninitFact::Local(l)) if l == target => {}
            _ => out.push(*d),
        }
    }

    fn flow_call(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        callee: MethodId,
        d: &UninitFact,
        out: &mut Vec<UninitFact>,
    ) {
        match d {
            UninitFact::Zero => out.push(UninitFact::Zero),
            UninitFact::Local(l) => {
                for_each_binding(icfg.program(), call, callee, |actual, formal| {
                    if actual == *l {
                        out.push(UninitFact::Local(formal));
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
        d: &UninitFact,
        out: &mut Vec<UninitFact>,
    ) {
        let program = icfg.program();
        match d {
            UninitFact::Zero => out.push(UninitFact::Zero),
            UninitFact::Local(l) => {
                if returned_local(program, exit) == Some(*l) {
                    out.extend(result_local(program, call).map(UninitFact::Local));
                }
            }
        }
    }

    fn flow_call_to_return(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        _return_site: StmtRef,
        d: &UninitFact,
        out: &mut Vec<UninitFact>,
    ) {
        let res = result_local(icfg.program(), call);
        match d {
            UninitFact::Local(l) if Some(*l) == res => {}
            other => out.push(*other),
        }
    }
}
