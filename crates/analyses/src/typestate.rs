//! A typestate-like analysis in the style of Fink et al. / Naeem &
//! Lhoták, which the paper lists among the classic IFDS clients (§1:
//! "typestate [2, 3, 6]").
//!
//! Tracks objects of one class through a two-state open/closed protocol:
//! allocation starts *closed*, a configured `open` method moves to
//! *open*, a `close` method back to *closed*, and a set of `use` methods
//! *require* the open state. Copies propagate states without alias
//! analysis (the paper's own implementation shares this simplification —
//! see its §5 discussion of feature-insensitive points-to information).
//!
//! Lifted with SPLLIFT, the analysis answers questions like "under which
//! feature combinations may this stream be read after it was closed?".

use crate::common::*;
use spllift_ifds::{Icfg, IfdsProblem, IfdsSolver};
use spllift_ir::{
    Callee, ClassId, LocalId, MethodId, Operand, ProgramIcfg, Rvalue, StmtKind, StmtRef,
};

/// The two protocol states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum State {
    /// The resource is open / acquired.
    Open,
    /// The resource is closed / released (also the post-allocation state).
    Closed,
}

/// A typestate fact: a tracked local is possibly in the given state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateFact {
    /// The tautology fact.
    Zero,
    /// Local `l` may be in state `s`.
    Local(LocalId, State),
}

/// A protocol violation: a `use` method may be invoked while closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// The offending call.
    pub call: StmtRef,
    /// The receiver that may be closed.
    pub receiver: LocalId,
}

/// The open/closed typestate IFDS problem.
#[derive(Debug, Clone)]
pub struct Typestate {
    tracked: ClassId,
    open_methods: Vec<String>,
    close_methods: Vec<String>,
    use_methods: Vec<String>,
}

impl Typestate {
    /// Tracks instances of `tracked`; `open`/`close` name the transition
    /// methods, `use_methods` the operations requiring the open state.
    pub fn new<S: Into<String>>(
        tracked: ClassId,
        open: impl IntoIterator<Item = S>,
        close: impl IntoIterator<Item = S>,
        use_methods: impl IntoIterator<Item = S>,
    ) -> Self {
        Typestate {
            tracked,
            open_methods: open.into_iter().map(Into::into).collect(),
            close_methods: close.into_iter().map(Into::into).collect(),
            use_methods: use_methods.into_iter().map(Into::into).collect(),
        }
    }

    /// The receiver of a virtual call at `s`, if any.
    fn receiver(icfg: &ProgramIcfg<'_>, s: StmtRef) -> Option<LocalId> {
        match &icfg.program().stmt(s).kind {
            StmtKind::Invoke {
                callee: Callee::Virtual { base, .. },
                ..
            } => Some(*base),
            _ => None,
        }
    }

    fn protocol_effect(&self, icfg: &ProgramIcfg<'_>, s: StmtRef) -> Option<State> {
        let name = called_name(icfg.program(), s)?;
        if self.open_methods.iter().any(|m| m == name) {
            Some(State::Open)
        } else if self.close_methods.iter().any(|m| m == name) {
            Some(State::Closed)
        } else {
            None
        }
    }

    /// Applies the protocol at a call site to a fact (used both for the
    /// call-to-return function and for invokes treated as normal
    /// statements).
    fn through_call(
        &self,
        icfg: &ProgramIcfg<'_>,
        call: StmtRef,
        d: &StateFact,
        out: &mut Vec<StateFact>,
    ) {
        match d {
            // Allocations are Assign/New, handled in flow_normal: a call
            // generates nothing.
            StateFact::Zero => out.push(StateFact::Zero),
            // The call overwrites its result local.
            StateFact::Local(l, _) if Some(*l) == result_local(icfg.program(), call) => {}
            StateFact::Local(l, state) => {
                let state = match (Self::receiver(icfg, call), self.protocol_effect(icfg, call)) {
                    (Some(base), Some(new_state)) if base == *l => new_state,
                    _ => *state,
                };
                out.push(StateFact::Local(*l, state));
            }
        }
    }

    /// All protocol violations in a solved instance: `use` calls whose
    /// receiver may be closed.
    pub fn violations(
        &self,
        icfg: &ProgramIcfg<'_>,
        solver: &IfdsSolver<ProgramIcfg<'_>, StateFact>,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        for m in icfg.methods() {
            for s in icfg.stmts_of(m) {
                let Some(name) = called_name(icfg.program(), s) else {
                    continue;
                };
                if !self.use_methods.iter().any(|m| m == name) {
                    continue;
                }
                let Some(base) = Self::receiver(icfg, s) else {
                    continue;
                };
                if solver
                    .results_at(s)
                    .contains(&StateFact::Local(base, State::Closed))
                {
                    out.push(Violation {
                        call: s,
                        receiver: base,
                    });
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl<'p> IfdsProblem<ProgramIcfg<'p>> for Typestate {
    type Fact = StateFact;

    fn zero(&self) -> StateFact {
        StateFact::Zero
    }

    fn flow_normal(
        &self,
        icfg: &ProgramIcfg<'p>,
        curr: StmtRef,
        _succ: StmtRef,
        d: &StateFact,
        out: &mut Vec<StateFact>,
    ) {
        let program = icfg.program();
        match &program.stmt(curr).kind {
            StmtKind::Assign { target, rvalue } => {
                let kills_target = matches!(d, StateFact::Local(l, _) if l == target);
                match (rvalue, d) {
                    (Rvalue::New(c), StateFact::Zero) if *c == self.tracked => {
                        out.extend([StateFact::Zero, StateFact::Local(*target, State::Closed)])
                    }
                    (Rvalue::Use(Operand::Local(src)), StateFact::Local(l, st)) if l == src => {
                        out.extend([*d, StateFact::Local(*target, *st)])
                    }
                    _ if kills_target => {}
                    _ => out.push(*d),
                }
            }
            StmtKind::Invoke { .. } => self.through_call(icfg, curr, d, out),
            _ => out.push(*d),
        }
    }

    fn flow_call(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        callee: MethodId,
        d: &StateFact,
        out: &mut Vec<StateFact>,
    ) {
        match d {
            StateFact::Zero => out.push(StateFact::Zero),
            StateFact::Local(l, st) => {
                for_each_binding(icfg.program(), call, callee, |actual, formal| {
                    if actual == *l {
                        out.push(StateFact::Local(formal, *st));
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
        d: &StateFact,
        out: &mut Vec<StateFact>,
    ) {
        let program = icfg.program();
        match d {
            StateFact::Zero => out.push(StateFact::Zero),
            StateFact::Local(l, st) => {
                if returned_local(program, exit) == Some(*l) {
                    out.extend(result_local(program, call).map(|r| StateFact::Local(r, *st)));
                }
            }
        }
    }

    fn flow_call_to_return(
        &self,
        icfg: &ProgramIcfg<'p>,
        call: StmtRef,
        _return_site: StmtRef,
        d: &StateFact,
        out: &mut Vec<StateFact>,
    ) {
        // When the callee has a body and the receiver is passed in, the
        // protocol transition already happens inside the callee; we still
        // apply the transition here because the receiver local itself is
        // not passed as an ordinary argument in this IR (virtual calls
        // bind it to `this` — whose state flows back only through
        // returns). Applying the transition at the call site keeps the
        // receiver's caller-side state in sync.
        self.through_call(icfg, call, d, out)
    }
}
