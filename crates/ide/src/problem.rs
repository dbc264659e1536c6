//! The IDE problem interface.

use crate::EdgeFn;
use spllift_ifds::Icfg;
use std::fmt::Debug;
use std::hash::Hash;

/// An IDE data-flow problem over an ICFG `G`.
///
/// Like [`spllift_ifds::IfdsProblem`], but every flow-function entry also
/// carries an [`EdgeFn`] describing how the value associated with the
/// source fact is transformed along that exploded-supergraph edge.
///
/// The value lattice is described by [`top`](IdeProblem::top) (the neutral
/// element of [`join_values`](IdeProblem::join_values), meaning "the fact
/// does not hold" in SPLLIFT's reading) and the seed value
/// [`seed_value`](IdeProblem::seed_value) assumed at the entry points
/// (the paper initializes the program start node with `true`, §3.4).
///
/// As in [`spllift_ifds::IfdsProblem`], every flow function *appends* its
/// `(target fact, edge function)` pairs to the caller-owned buffer `out`
/// and leaves the entries already there alone; the solver clears and
/// reuses its buffers, and pushes the appended pairs in order. Phase 1
/// pops by statement, so the order only breaks ties between pending
/// triples at one statement.
pub trait IdeProblem<G: Icfg> {
    /// A data-flow fact.
    type Fact: Clone + Eq + Hash + Debug;
    /// The value lattice element.
    type Value: Clone + Eq + Debug;
    /// The edge-function representation.
    type EF: EdgeFn<Self::Value>;

    /// The distinguished tautology fact `0`.
    fn zero(&self) -> Self::Fact;

    /// ⊤: the neutral element of the value join ("no information").
    fn top(&self) -> Self::Value;

    /// The value seeded at entry points (SPLLIFT: the constraint `true`).
    fn seed_value(&self) -> Self::Value;

    /// Join (⊔) of two values, used at control-flow merges in phase 2.
    fn join_values(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// The identity edge function.
    fn id_edge(&self) -> Self::EF;

    /// Flow through a non-call, non-exit statement.
    fn flow_normal(
        &self,
        icfg: &G,
        curr: G::Stmt,
        succ: G::Stmt,
        fact: &Self::Fact,
        out: &mut Vec<(Self::Fact, Self::EF)>,
    );

    /// Flow from a call site into a callee.
    fn flow_call(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        fact: &Self::Fact,
        out: &mut Vec<(Self::Fact, Self::EF)>,
    );

    /// Flow from a callee exit back to a return site.
    #[allow(clippy::too_many_arguments)] // the four program points of a return edge, plus the buffer
    fn flow_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        exit: G::Stmt,
        return_site: G::Stmt,
        fact: &Self::Fact,
        out: &mut Vec<(Self::Fact, Self::EF)>,
    );

    /// Intra-procedural flow across a call site.
    fn flow_call_to_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        return_site: G::Stmt,
        fact: &Self::Fact,
        out: &mut Vec<(Self::Fact, Self::EF)>,
    );

    /// Initial seeds; default: `0` at every entry point.
    fn initial_seeds(&self, icfg: &G) -> Vec<(G::Stmt, Self::Fact)> {
        icfg.entry_points()
            .into_iter()
            .map(|m| (icfg.start_point_of(m), self.zero()))
            .collect()
    }

    /// Reports whether the problem's value domain has exhausted a
    /// resource budget. Governed solves
    /// ([`IdeSolverOptions::poll_budget`](crate::IdeSolverOptions)) poll
    /// this between propagations and abort with
    /// [`SolveAbort::Budget`](crate::SolveAbort) on `Err`; results
    /// computed while a budget is exhausted are garbage, so the solver
    /// must stop rather than tabulate with them. Default: always `Ok`.
    fn budget_check(&self) -> Result<(), String> {
        Ok(())
    }
}
