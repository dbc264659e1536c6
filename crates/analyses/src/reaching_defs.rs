//! Inter-procedural reaching definitions.
//!
//! The paper's second client (§6.2): "a reaching-definitions analysis that
//! computes variable definitions for their uses. To obtain inter-procedural
//! flows, we implement a variant that tracks definitions through parameter
//! and return-value assignments."

use crate::common::*;
use spllift_ifds::IfdsProblem;
use spllift_ir::{LocalId, MethodId, ProgramIcfg, StmtKind, StmtRef};

/// A reaching-definition fact: the definition created at `site` currently
/// defines local `var` (in the scope the fact lives in — the variable is
/// renamed as the definition crosses call boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DefFact {
    /// The tautology fact.
    Zero,
    /// The definition at `site` reaches, currently naming `var`.
    Def {
        /// The defining statement (assignment or call).
        site: StmtRef,
        /// The local it defines in the current scope.
        var: LocalId,
    },
}

/// The inter-procedural reaching-definitions IFDS problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReachingDefs;

impl ReachingDefs {
    /// Creates the analysis.
    pub fn new() -> Self {
        ReachingDefs
    }
}

impl<'p> IfdsProblem<ProgramIcfg<'p>> for ReachingDefs {
    type Fact = DefFact;

    fn zero(&self) -> DefFact {
        DefFact::Zero
    }

    fn flow_normal(
        &self,
        icfg: &ProgramIcfg<'p>,
        curr: StmtRef,
        _succ: StmtRef,
        d: &DefFact,
        out: &mut Vec<DefFact>,
    ) {
        let program = icfg.program();
        let kind = &program.stmt(curr).kind;
        if matches!(kind, StmtKind::Invoke { .. }) {
            return self.flow_call_to_return(icfg, curr, curr, d, out);
        }
        let def = kind.def();
        match d {
            DefFact::Zero => {
                out.push(DefFact::Zero);
                if let Some(t) = def {
                    out.push(DefFact::Def { site: curr, var: t });
                }
            }
            DefFact::Def { var, .. } if Some(*var) == def => {}
            other => out.push(*other),
        }
    }

    fn flow_call(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        callee: MethodId,
        d: &DefFact,
        out: &mut Vec<DefFact>,
    ) {
        match d {
            DefFact::Zero => out.push(DefFact::Zero),
            DefFact::Def { site, var } => {
                for_each_binding(icfg.program(), call, callee, |actual, formal| {
                    if actual == *var {
                        out.push(DefFact::Def {
                            site: *site,
                            var: formal,
                        });
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
        d: &DefFact,
        out: &mut Vec<DefFact>,
    ) {
        let program = icfg.program();
        match d {
            DefFact::Zero => out.push(DefFact::Zero),
            DefFact::Def { site, var } => {
                if returned_local(program, exit) == Some(*var) {
                    out.extend(result_local(program, call).map(|r| DefFact::Def {
                        site: *site,
                        var: r,
                    }));
                }
            }
        }
    }

    fn flow_call_to_return(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        _return_site: StmtRef,
        d: &DefFact,
        out: &mut Vec<DefFact>,
    ) {
        let res = result_local(icfg.program(), call);
        match d {
            DefFact::Zero => {
                out.push(DefFact::Zero);
                if let Some(r) = res {
                    // The call statement itself is a definition of `r`.
                    out.push(DefFact::Def { site: call, var: r });
                }
            }
            DefFact::Def { var, .. } if Some(*var) == res => {}
            other => out.push(*other),
        }
    }
}
