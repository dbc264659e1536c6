//! The IFDS problem interface: the four flow-function classes of the
//! paper's §2.2.

use crate::Icfg;
use std::fmt::Debug;
use std::hash::Hash;

/// An IFDS data-flow problem over an ICFG `G`.
///
/// Data-flow facts `Fact` must be a finite set; flow functions must be
/// distributive over set union (which is automatic in this encoding, since
/// a flow function maps a *single* source fact to a set of target facts —
/// the representation-relation encoding of Reps–Horwitz–Sagiv).
///
/// The distinguished [`zero`](IfdsProblem::zero) fact is the tautology `0`
/// of the framework. **Implementations must propagate `0` to `0`** in every
/// flow function (the solver does not do it implicitly) — returning the
/// input fact unchanged is the usual default. Facts are *generated* by
/// returning them from a flow function applied to `0`, and *killed* by not
/// returning them.
///
/// Every flow function *appends* its target facts to the caller-owned
/// buffer `out`, in a deterministic order, and leaves the entries already
/// in `out` alone. The solvers clear and reuse one buffer per nesting
/// level, so evaluating a flow function allocates nothing once the
/// buffers have grown; the order of the appended facts is the order in
/// which the solver queues them.
pub trait IfdsProblem<G: Icfg> {
    /// A data-flow fact.
    type Fact: Clone + Eq + Hash + Debug;

    /// The distinguished tautology fact `0`.
    fn zero(&self) -> Self::Fact;

    /// Flow through a non-call, non-exit statement `curr` towards its
    /// control-flow successor `succ`.
    ///
    /// The default is the identity function.
    fn flow_normal(
        &self,
        icfg: &G,
        curr: G::Stmt,
        succ: G::Stmt,
        fact: &Self::Fact,
        out: &mut Vec<Self::Fact>,
    ) {
        let _ = (icfg, curr, succ);
        out.push(fact.clone());
    }

    /// Flow from call site `call` into `callee` (actual→formal transfer).
    ///
    /// The default maps `0` to `0` and kills everything else (no
    /// caller-local state enters the callee).
    fn flow_call(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        fact: &Self::Fact,
        out: &mut Vec<Self::Fact>,
    ) {
        let _ = (icfg, call, callee);
        if *fact == self.zero() {
            out.push(self.zero());
        }
    }

    /// Flow from `exit` of `callee` back to `return_site` of the call at
    /// `call` (return-value transfer).
    ///
    /// The default maps `0` to `0` and kills everything else.
    #[allow(clippy::too_many_arguments)] // the four program points of a return edge, plus the buffer
    fn flow_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        exit: G::Stmt,
        return_site: G::Stmt,
        fact: &Self::Fact,
        out: &mut Vec<Self::Fact>,
    ) {
        let _ = (icfg, call, callee, exit, return_site);
        if *fact == self.zero() {
            out.push(self.zero());
        }
    }

    /// Intra-procedural flow across a call site, from `call` directly to
    /// `return_site` (facts not passed to the callee, e.g. locals).
    ///
    /// The default is the identity function.
    fn flow_call_to_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        return_site: G::Stmt,
        fact: &Self::Fact,
        out: &mut Vec<Self::Fact>,
    ) {
        let _ = (icfg, call, return_site);
        out.push(fact.clone());
    }

    /// Initial seeds: facts assumed to hold at the start points of the
    /// entry methods. The default seeds `0` at every entry point.
    fn initial_seeds(&self, icfg: &G) -> Vec<(G::Stmt, Self::Fact)> {
        icfg.entry_points()
            .into_iter()
            .map(|m| (icfg.start_point_of(m), self.zero()))
            .collect()
    }
}
