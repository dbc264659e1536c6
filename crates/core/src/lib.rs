//! SPLLIFT — the paper's core contribution: transparently lifting any
//! IFDS-based analysis to a feature-sensitive IDE analysis over an entire
//! software product line.
//!
//! Given an unchanged [`spllift_ifds::IfdsProblem`] and an ICFG whose
//! statements carry feature annotations, [`LiftedProblem`] produces an
//! [`spllift_ide::IdeProblem`] whose value domain is Boolean feature
//! constraints: where the original analysis reports "fact `d` may hold at
//! `s`", the lifted analysis reports the exact feature constraint under
//! which it may hold (paper §3).
//!
//! The lifting follows Figure 4 of the paper:
//!
//! * a *normal* statement annotated `F` has its original flow labeled `F`
//!   disjoined with an identity flow labeled `¬F`,
//! * an *unconditional branch* flows to its target under `F` and falls
//!   through (identity) under `¬F`,
//! * a *conditional branch* flows normally under `F` and falls through
//!   under `¬F`,
//! * a *call* flows into (and back out of) the callee under `F` only —
//!   the disabled case is the kill-all function — while the
//!   call-to-return flow gets the usual `F` / `¬F` disjunction,
//! * constraints conjoin along paths and disjoin at merges, and
//! * the feature model `m` is conjoined onto every edge (§4.2), which lets
//!   the solver terminate contradictory paths *during graph construction*.
//!
//! # Example
//!
//! See `examples/quickstart.rs` at the workspace root: the Figure 1 taint
//! analysis reports the leak exactly under `¬F ∧ G ∧ ¬H`.
//!
//! # Thread and sharing boundary
//!
//! A [`LiftedSolution`] over BDD constraints holds live BDD handles,
//! which are `!Send`, so the compiler binds it to the thread of the
//! constraint context that produced it. Long-lived consumers that
//! share or cache results across threads (the analysis server's
//! cross-session solution cache, DESIGN.md §9) first *render* the
//! solution into manager-free form — constraint strings plus plain
//! [`spllift_features::FeatureExpr`] trees — and share that. The same
//! holds for a [`SolverMemo`]: it embeds jump functions over live
//! constraints, so incremental-solve state is per-session and stays on
//! its session's thread.

#![warn(missing_docs)]
mod annotated;
mod edge;
mod lift;
pub mod report;

pub use annotated::{AnnotatedIcfg, LiftedIcfg};
pub use edge::ConstraintEdge;
pub use lift::{
    GovernorOptions, LatticeHints, LiftedProblem, LiftedSolution, ModelMode, SolveOutcome,
};
pub use spllift_features::{AbstractionStep, LatticePoint};
pub use spllift_ide::{SolveAbort, SolverMemo};

#[cfg(test)]
mod tests;
