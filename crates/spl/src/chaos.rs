//! Deterministic fault injection for chaos-testing the solve path.
//!
//! [`ChaosWrapper`] generalizes the fuzzing campaign's
//! [`BugWrapper`](crate::BugWrapper): instead of corrupting *results*, it
//! injects operational faults — a panic, a constraint-budget blowout, or
//! a pathological slowdown — at a precisely reproducible point (the first
//! flow-function evaluation after arming). Each wrapper carries a finite
//! number of *charges*; once they are spent the wrapper is transparent,
//! so a degraded re-solve of the same problem (the governor's lower
//! ladder rungs) runs clean. That is what makes chaos outcomes
//! deterministic: rung 1 always absorbs the fault, rung 2 always
//! completes.
//!
//! The analysis server's `--inject-fault {kind}@{n}` flag builds a
//! [`FaultPlan`] and arms a one-charge wrapper on the `n`-th `analyze`
//! request only, so golden-transcript tests can pin byte-exact responses
//! for both the victim and every healthy session.

use spllift_ifds::{Icfg, IfdsProblem};
use std::cell::Cell;
use std::fmt;
use std::time::Duration;

/// The fault classes the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside a flow-function evaluation — models a client-analysis
    /// bug escaping into the solver. The panic message is fixed
    /// (`"injected fault: panic-in-flow"`) so quarantine transcripts are
    /// reproducible.
    PanicInFlow,
    /// Burn the constraint engine's operation budget — models feature
    /// constraint blow-up tripping `BddError::BudgetExceeded`.
    BddBlowup,
    /// Sleep through the wall-clock allowance — models a pathologically
    /// slow edge-function evaluation tripping the deadline.
    SlowEdge,
    /// Deterministically exhaust the BDD *operation* budget at a chosen
    /// point: the server arms an op budget of exactly `N`
    /// (`--inject-fault budget-exhaust@N`), so the meter trips on the
    /// operation after the `N`-th — mid-solve, at a reproducible spot —
    /// and the governor descends the variability-abstraction lattice.
    /// In-process tests use the wrapper form instead
    /// ([`ChaosWrapper::with_delay`]): the fault fires at the chosen
    /// flow evaluation and burns the remaining budget via `on_blowup`.
    BudgetExhaust,
}

impl FaultKind {
    /// Stable flag spelling, as accepted by `--inject-fault`.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::PanicInFlow => "panic-in-flow",
            FaultKind::BddBlowup => "bdd-blowup",
            FaultKind::SlowEdge => "slow-edge",
            FaultKind::BudgetExhaust => "budget-exhaust",
        }
    }

    /// Parses the flag spelling.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic-in-flow" => Some(FaultKind::PanicInFlow),
            "bdd-blowup" => Some(FaultKind::BddBlowup),
            "slow-edge" => Some(FaultKind::SlowEdge),
            "budget-exhaust" => Some(FaultKind::BudgetExhaust),
            _ => None,
        }
    }

    /// All fault classes, for exhaustive chaos sweeps.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::PanicInFlow,
        FaultKind::BddBlowup,
        FaultKind::SlowEdge,
        FaultKind::BudgetExhaust,
    ];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed `--inject-fault {kind}@{n}` plan.
///
/// For the operational faults (`panic-in-flow`, `bdd-blowup`,
/// `slow-edge`), `n` is the 1-based ordinal of the `analyze` request to
/// sabotage. For `budget-exhaust`, `n` is the *operation count*: the
/// victim request (always the first qualifying `analyze`) is armed with
/// a BDD op budget of exactly `n`, so the meter trips deterministically
/// on the operation after the `n`-th.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to inject.
    pub kind: FaultKind,
    /// 1-based ordinal of the event to sabotage.
    pub trigger: u64,
    /// [`FaultKind::BudgetExhaust`] only: the op budget to arm (the
    /// meter admits exactly this many operations).
    pub ops: u64,
}

/// Default op budget for a bare `budget-exhaust` plan — small enough to
/// trip on any non-trivial subject, large enough to survive lifting a
/// handful of annotation constraints.
pub const DEFAULT_EXHAUST_OPS: u64 = 1000;

impl FaultPlan {
    /// Parses `"kind@n"` (e.g. `"panic-in-flow@2"`, where `n` is the
    /// trigger ordinal, or `"budget-exhaust@500"`, where `n` is the op
    /// count). A bare `"kind"` means trigger 1 (resp.
    /// [`DEFAULT_EXHAUST_OPS`] operations).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (kind_s, trig_s) = match s.split_once('@') {
            Some((k, t)) => (k, Some(t)),
            None => (s, None),
        };
        let kind = FaultKind::parse(kind_s).ok_or_else(|| {
            format!(
                "unknown fault kind `{kind_s}` (expected one of: panic-in-flow, bdd-blowup, slow-edge, budget-exhaust)"
            )
        })?;
        let n =
            match trig_s {
                None => None,
                Some(t) => Some(t.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("invalid fault trigger `{t}` (expected integer >= 1)")
                })?),
            };
        Ok(match kind {
            FaultKind::BudgetExhaust => FaultPlan {
                kind,
                trigger: 1,
                ops: n.unwrap_or(DEFAULT_EXHAUST_OPS),
            },
            _ => FaultPlan {
                kind,
                trigger: n.unwrap_or(1),
                ops: DEFAULT_EXHAUST_OPS,
            },
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::BudgetExhaust => write!(f, "{}@{}", self.kind, self.ops),
            _ => write!(f, "{}@{}", self.kind, self.trigger),
        }
    }
}

/// The panic payload [`FaultKind::PanicInFlow`] raises — fixed so
/// structured panic responses are byte-reproducible.
pub const PANIC_IN_FLOW_MESSAGE: &str = "injected fault: panic-in-flow";

/// Wraps an [`IfdsProblem`], injecting one operational fault on the
/// first flow-function evaluation, then becoming transparent.
///
/// `charges` counts how many evaluations still sabotage (normally 1).
/// The wrapper delegates every flow function unchanged — unlike
/// [`BugWrapper`](crate::BugWrapper) it never alters results, only the
/// *process* of computing them.
pub struct ChaosWrapper<'a, P> {
    inner: &'a P,
    kind: FaultKind,
    charges: Cell<u64>,
    /// How long a [`FaultKind::SlowEdge`] evaluation stalls. Must exceed
    /// the governor's per-rung allowance for the fault to be observed.
    slow_for: Duration,
    /// [`FaultKind::BddBlowup`] / [`FaultKind::BudgetExhaust`] handler:
    /// burns the constraint budget. Injected by the harness because the
    /// wrapper itself is representation-agnostic (the server passes a
    /// closure charging the session's BDD manager).
    on_blowup: Box<dyn Fn() + 'a>,
    /// Flow evaluations to let through untouched before the charges
    /// start being claimed — lets a test exhaust the budget at a chosen
    /// point *mid-solve* instead of on the very first evaluation.
    delay: Cell<u64>,
}

impl<'a, P> ChaosWrapper<'a, P> {
    /// Wraps `inner` with `charges` charges of `kind`.
    ///
    /// `slow_for` is the [`FaultKind::SlowEdge`] stall; `on_blowup` is
    /// invoked (once per charge) for [`FaultKind::BddBlowup`] and
    /// [`FaultKind::BudgetExhaust`].
    pub fn new(
        inner: &'a P,
        kind: FaultKind,
        charges: u64,
        slow_for: Duration,
        on_blowup: Box<dyn Fn() + 'a>,
    ) -> Self {
        Self::with_delay(inner, kind, charges, 0, slow_for, on_blowup)
    }

    /// Like [`new`](Self::new), but the first `delay` flow evaluations
    /// pass through untouched — the fault fires on evaluation
    /// `delay + 1` (deterministic: Phase 1 is sequential).
    pub fn with_delay(
        inner: &'a P,
        kind: FaultKind,
        charges: u64,
        delay: u64,
        slow_for: Duration,
        on_blowup: Box<dyn Fn() + 'a>,
    ) -> Self {
        ChaosWrapper {
            inner,
            kind,
            charges: Cell::new(charges),
            slow_for,
            on_blowup,
            delay: Cell::new(delay),
        }
    }

    /// Charges left (0 = transparent from now on).
    pub fn charges_left(&self) -> u64 {
        self.charges.get()
    }

    fn trip(&self) {
        // Spend the delay before any charge can be claimed.
        if let Some(d) = self.delay.get().checked_sub(1) {
            self.delay.set(d);
            return;
        }
        let Some(c) = self.charges.get().checked_sub(1) else {
            return;
        };
        self.charges.set(c);
        match self.kind {
            FaultKind::PanicInFlow => panic!("{}", PANIC_IN_FLOW_MESSAGE),
            FaultKind::BddBlowup | FaultKind::BudgetExhaust => (self.on_blowup)(),
            FaultKind::SlowEdge => std::thread::sleep(self.slow_for),
        }
    }
}

impl<'a, G, P> IfdsProblem<G> for ChaosWrapper<'a, P>
where
    G: Icfg,
    P: IfdsProblem<G>,
{
    type Fact = P::Fact;

    fn zero(&self) -> P::Fact {
        self.inner.zero()
    }

    fn flow_normal(
        &self,
        icfg: &G,
        curr: G::Stmt,
        succ: G::Stmt,
        fact: &P::Fact,
        out: &mut Vec<P::Fact>,
    ) {
        self.trip();
        self.inner.flow_normal(icfg, curr, succ, fact, out)
    }

    fn flow_call(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        fact: &P::Fact,
        out: &mut Vec<P::Fact>,
    ) {
        self.trip();
        self.inner.flow_call(icfg, call, callee, fact, out)
    }

    fn flow_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        exit: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
        out: &mut Vec<P::Fact>,
    ) {
        self.trip();
        self.inner
            .flow_return(icfg, call, callee, exit, return_site, fact, out)
    }

    fn flow_call_to_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
        out: &mut Vec<P::Fact>,
    ) {
        self.trip();
        self.inner
            .flow_call_to_return(icfg, call, return_site, fact, out)
    }

    fn initial_seeds(&self, icfg: &G) -> Vec<(G::Stmt, P::Fact)> {
        self.inner.initial_seeds(icfg)
    }
}
