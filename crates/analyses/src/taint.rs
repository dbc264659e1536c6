//! Secure-information-flow (taint) analysis — the paper's running example.

use crate::common::*;
use spllift_ifds::{Icfg, IfdsProblem, IfdsSolver};
use spllift_ir::{FieldId, LocalId, MethodId, Operand, ProgramIcfg, Rvalue, StmtKind, StmtRef};
use std::collections::HashSet;

/// A taint fact: "this storage location may hold a secret value".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaintFact {
    /// The tautology fact.
    Zero,
    /// A (method-scoped) local may be tainted.
    Local(LocalId),
    /// A field may be tainted (field-sensitive in the field, abstracting
    /// from receiver objects — the paper's treatment, §6.2).
    Field(FieldId),
    /// Some array element may be tainted (one summary cell for all
    /// arrays: index- and base-insensitive weak updates, the paper's
    /// treatment of "field and array assignments", §6.2).
    ArrayElem,
}

/// A detected source→sink flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Leak {
    /// The sink call statement.
    pub sink_call: StmtRef,
    /// The tainted local passed to the sink.
    pub tainted_arg: LocalId,
}

/// Inter-procedural taint analysis: values returned by *source* methods
/// are tainted; passing a tainted value to a *sink* method is a leak.
///
/// Matching is by unqualified method name, mirroring how such analyses are
/// typically configured.
#[derive(Debug, Clone)]
pub struct TaintAnalysis {
    sources: HashSet<String>,
    sinks: HashSet<String>,
    sanitizers: HashSet<String>,
}

impl TaintAnalysis {
    /// Creates an analysis with the given source and sink method names.
    pub fn new<S: Into<String>>(
        sources: impl IntoIterator<Item = S>,
        sinks: impl IntoIterator<Item = S>,
    ) -> Self {
        TaintAnalysis {
            sources: sources.into_iter().map(Into::into).collect(),
            sinks: sinks.into_iter().map(Into::into).collect(),
            sanitizers: HashSet::new(),
        }
    }

    /// Declares *sanitizer* methods: their return value is always clean,
    /// even when computed from tainted inputs (e.g. `hash`, `escape`).
    #[must_use]
    pub fn with_sanitizers<S: Into<String>>(
        mut self,
        sanitizers: impl IntoIterator<Item = S>,
    ) -> Self {
        self.sanitizers = sanitizers.into_iter().map(Into::into).collect();
        self
    }

    /// The default configuration of the examples: `secret` → `print`.
    pub fn secret_to_print() -> Self {
        Self::new(["secret"], ["print"])
    }

    fn is_source(&self, icfg: &ProgramIcfg<'_>, call: StmtRef) -> bool {
        called_name(icfg.program(), call).is_some_and(|n| self.sources.contains(n))
    }

    fn is_sink(&self, icfg: &ProgramIcfg<'_>, call: StmtRef) -> bool {
        called_name(icfg.program(), call).is_some_and(|n| self.sinks.contains(n))
    }

    fn is_sanitizer(&self, icfg: &ProgramIcfg<'_>, call: StmtRef) -> bool {
        called_name(icfg.program(), call).is_some_and(|n| self.sanitizers.contains(n))
    }

    /// All source→sink flows in a solved instance.
    pub fn leaks(
        &self,
        icfg: &ProgramIcfg<'_>,
        solver: &IfdsSolver<ProgramIcfg<'_>, TaintFact>,
    ) -> Vec<Leak> {
        let mut out = Vec::new();
        for m in icfg.methods() {
            for s in icfg.stmts_of(m) {
                if !self.is_sink(icfg, s) {
                    continue;
                }
                let StmtKind::Invoke { args, .. } = &icfg.program().stmt(s).kind else {
                    continue;
                };
                let facts = solver.results_at(s);
                for arg in args {
                    if let Operand::Local(l) = arg {
                        if facts.contains(&TaintFact::Local(*l)) {
                            out.push(Leak {
                                sink_call: s,
                                tainted_arg: *l,
                            });
                        }
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl<'p> IfdsProblem<ProgramIcfg<'p>> for TaintAnalysis {
    type Fact = TaintFact;

    fn zero(&self) -> TaintFact {
        TaintFact::Zero
    }

    fn flow_normal(
        &self,
        icfg: &ProgramIcfg<'p>,
        curr: StmtRef,
        _succ: StmtRef,
        d: &TaintFact,
        out: &mut Vec<TaintFact>,
    ) {
        let program = icfg.program();
        match &program.stmt(curr).kind {
            StmtKind::Assign { target, rvalue } => {
                let target = TaintFact::Local(*target);
                let tainted_src = match rvalue {
                    Rvalue::Use(Operand::Local(src)) => *d == TaintFact::Local(*src),
                    Rvalue::Binary(_, a, b) => [a, b]
                        .iter()
                        .filter_map(|o| o.as_local())
                        .any(|l| *d == TaintFact::Local(l)),
                    Rvalue::FieldLoad { field, .. } => *d == TaintFact::Field(*field),
                    Rvalue::ArrayLoad { .. } => *d == TaintFact::ArrayElem,
                    // Constants and fresh allocations are clean.
                    _ => false,
                };
                if tainted_src {
                    out.extend([*d, target]);
                } else if *d != target {
                    out.push(*d);
                }
            }
            StmtKind::FieldStore { field, value, .. } => {
                // Weak update: generate, never kill field taint.
                out.push(*d);
                if value.as_local().is_some_and(|l| *d == TaintFact::Local(l)) {
                    out.push(TaintFact::Field(*field));
                }
            }
            StmtKind::ArrayStore { value, .. } => {
                // Weak update on the array summary cell.
                out.push(*d);
                if value.as_local().is_some_and(|l| *d == TaintFact::Local(l)) {
                    out.push(TaintFact::ArrayElem);
                }
            }
            // An invoke with no resolvable callee body flows as a normal
            // statement; treat it like the call-to-return function.
            StmtKind::Invoke { .. } => self.flow_call_to_return(icfg, curr, curr, d, out),
            _ => out.push(*d),
        }
    }

    fn flow_call(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        callee: MethodId,
        d: &TaintFact,
        out: &mut Vec<TaintFact>,
    ) {
        match d {
            TaintFact::Zero | TaintFact::Field(_) | TaintFact::ArrayElem => out.push(*d),
            TaintFact::Local(l) => {
                for_each_binding(icfg.program(), call, callee, |actual, formal| {
                    if actual == *l {
                        out.push(TaintFact::Local(formal));
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
        d: &TaintFact,
        out: &mut Vec<TaintFact>,
    ) {
        let program = icfg.program();
        match d {
            TaintFact::Zero | TaintFact::Field(_) | TaintFact::ArrayElem => out.push(*d),
            TaintFact::Local(l) => {
                // A sanitizer's return value is clean regardless of what
                // its body computed.
                if !self.is_sanitizer(icfg, call) && returned_local(program, exit) == Some(*l) {
                    out.extend(result_local(program, call).map(TaintFact::Local));
                }
            }
        }
    }

    fn flow_call_to_return(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        _return_site: StmtRef,
        d: &TaintFact,
        out: &mut Vec<TaintFact>,
    ) {
        let program = icfg.program();
        let res = result_local(program, call);
        match d {
            // Source calls taint their result.
            TaintFact::Zero => {
                out.push(TaintFact::Zero);
                if self.is_source(icfg, call) {
                    out.extend(res.map(TaintFact::Local));
                }
            }
            // The call overwrites its result local.
            TaintFact::Local(l) if Some(*l) == res => {}
            other => out.push(*other),
        }
    }
}
