//! The binary-domain embedding of IFDS into IDE (paper §2.4).
//!
//! Every IFDS problem is an IDE problem over the two-point lattice
//! `{⊤, ⊥}`, where `d ↦ ⊥` means "fact `d` holds" and `d ↦ ⊤` means it
//! does not. This module provides that embedding generically; it is used
//! in tests to validate that the IDE solver subsumes the IFDS solver, and
//! it is the "least expressive instance" the paper's lifting generalizes.

use crate::{EdgeFn, IdeProblem};
use spllift_ifds::{Icfg, IfdsProblem};
use std::cell::RefCell;
use std::fmt::Debug;
use std::hash::Hash;

/// The binary value lattice: `Holds` (⊥) or `Top` (fact does not hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binary {
    /// ⊤ — no information / fact does not hold.
    Top,
    /// ⊥ — the fact holds.
    Holds,
}

/// Edge functions of the binary domain: identity or "kill everything".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryEdge {
    /// The identity function.
    Id,
    /// `λv. ⊤` — the kill function.
    Kill,
}

impl EdgeFn<Binary> for BinaryEdge {
    fn apply(&self, v: &Binary) -> Binary {
        match self {
            BinaryEdge::Id => *v,
            BinaryEdge::Kill => Binary::Top,
        }
    }

    fn compose_with(&self, after: &Self) -> Self {
        match (self, after) {
            (BinaryEdge::Id, BinaryEdge::Id) => BinaryEdge::Id,
            _ => BinaryEdge::Kill,
        }
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (BinaryEdge::Kill, BinaryEdge::Kill) => BinaryEdge::Kill,
            _ => BinaryEdge::Id,
        }
    }

    fn is_kill(&self) -> bool {
        *self == BinaryEdge::Kill
    }
}

/// Wraps an [`IfdsProblem`] as an [`IdeProblem`] over the binary domain.
///
/// A fact holds at `n` in the IFDS solution iff the embedded IDE solution
/// computes `Binary::Holds` for it — asserted by this crate's tests.
///
/// `D` is the problem's fact type; the embedding keeps one scratch buffer
/// of facts, which each flow function fills through the IFDS problem and
/// drains into the IDE output buffer.
#[derive(Debug)]
pub struct IfdsAsIde<'p, P, D> {
    problem: &'p P,
    scratch: RefCell<Vec<D>>,
}

impl<'p, P, D> IfdsAsIde<'p, P, D> {
    /// Embeds `problem`.
    pub fn new(problem: &'p P) -> Self {
        IfdsAsIde {
            problem,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// Runs one IFDS flow function into the scratch buffer and appends
    /// its facts to `out`, each under the identity edge.
    fn embed(&self, out: &mut Vec<(D, BinaryEdge)>, flow: impl FnOnce(&mut Vec<D>)) {
        let mut facts = self.scratch.borrow_mut();
        facts.clear();
        flow(&mut facts);
        out.extend(facts.drain(..).map(|d| (d, BinaryEdge::Id)));
    }
}

impl<G, P, D> IdeProblem<G> for IfdsAsIde<'_, P, D>
where
    G: Icfg,
    P: IfdsProblem<G, Fact = D>,
    D: Clone + Eq + Hash + Debug,
{
    type Fact = D;
    type Value = Binary;
    type EF = BinaryEdge;

    fn zero(&self) -> D {
        self.problem.zero()
    }

    fn top(&self) -> Binary {
        Binary::Top
    }

    fn seed_value(&self) -> Binary {
        Binary::Holds
    }

    fn join_values(&self, a: &Binary, b: &Binary) -> Binary {
        if *a == Binary::Holds || *b == Binary::Holds {
            Binary::Holds
        } else {
            Binary::Top
        }
    }

    fn id_edge(&self) -> BinaryEdge {
        BinaryEdge::Id
    }

    fn flow_normal(
        &self,
        icfg: &G,
        curr: G::Stmt,
        succ: G::Stmt,
        fact: &D,
        out: &mut Vec<(D, BinaryEdge)>,
    ) {
        self.embed(out, |facts| {
            self.problem.flow_normal(icfg, curr, succ, fact, facts)
        });
    }

    fn flow_call(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        fact: &D,
        out: &mut Vec<(D, BinaryEdge)>,
    ) {
        self.embed(out, |facts| {
            self.problem.flow_call(icfg, call, callee, fact, facts)
        });
    }

    fn flow_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        exit: G::Stmt,
        return_site: G::Stmt,
        fact: &D,
        out: &mut Vec<(D, BinaryEdge)>,
    ) {
        self.embed(out, |facts| {
            self.problem
                .flow_return(icfg, call, callee, exit, return_site, fact, facts)
        });
    }

    fn flow_call_to_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        return_site: G::Stmt,
        fact: &D,
        out: &mut Vec<(D, BinaryEdge)>,
    ) {
        self.embed(out, |facts| {
            self.problem
                .flow_call_to_return(icfg, call, return_site, fact, facts)
        });
    }

    fn initial_seeds(&self, icfg: &G) -> Vec<(G::Stmt, D)> {
        self.problem.initial_seeds(icfg)
    }
}
