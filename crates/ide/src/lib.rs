//! The IDE framework: inter-procedural distributive environment problems
//! (Sagiv, Reps, Horwitz — TAPSOFT 1995).
//!
//! This crate is the SPLLIFT reproduction's stand-in for the IDE half of
//! Heros. IDE generalizes IFDS: besides reachability of (statement, fact)
//! nodes in the exploded supergraph, it computes a *value* from a second
//! lattice `V` along the edges, by composing *edge functions* in phase 1
//! (jump-function construction) and propagating concrete values in
//! phase 2.
//!
//! SPLLIFT instantiates `V` with Boolean feature constraints and edge
//! functions of the form `λc. c ∧ F` — see `spllift-core`.
//!
//! * [`EdgeFn`] — distributive value-transformers attached to exploded
//!   supergraph edges (compose / join / apply),
//! * [`IdeProblem`] — the four flow-function classes, each appending
//!   (fact, edge-function) pairs to a buffer the solver owns,
//! * [`IdeSolver`] — the two-phase solver with summary functions,
//! * [`embed_ifds`](binary::IfdsAsIde) — the binary-domain embedding that
//!   proves every IFDS problem is an IDE problem (paper §2.4).

#![warn(missing_docs)]
pub mod binary;
mod edge_fn;
mod problem;
mod solver;

pub use edge_fn::EdgeFn;
pub use problem::IdeProblem;
pub use solver::{IdeSolver, IdeSolverOptions, IdeStats, SolveAbort, SolveLimits, SolverMemo};

#[cfg(test)]
mod tests;
