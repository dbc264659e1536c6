//! A lifted Datalog engine: the reproduction's second, independent
//! analysis backend.
//!
//! SPLLIFT's core move — pair every dataflow fact with a feature
//! constraint so one lifted run replaces exponentially many
//! per-configuration runs — is not specific to IFDS/IDE.
//! Shahin–Chechik–Salay (*Lifting Datalog-Based Analyses to Software
//! Product Lines*, PAPERS.md) lift semi-naive Datalog evaluation with
//! exactly the same annotated-fact shape. This crate implements that
//! engine in-tree and uses it to express two analyses declaratively
//! against the `spllift-ir` program representation:
//!
//! * **lifted reaching definitions** ([`solve_reaching_defs`]) — a
//!   Datalog transcription of the IFDS *tabulation* (path edges,
//!   summary edges, entry values), whose per-fact [`spllift_bdd::Bdd`]
//!   constraints are *semantically identical* to the IDE lifting's, so
//!   the two backends cross-check bit-for-bit via
//!   [`spllift_bdd::Bdd::semantic_digest`],
//! * **call-graph / statement reachability** — the Zero-fact projection
//!   of the same tabulation: under which configurations is a statement
//!   reachable, and which methods are live.
//!
//! See `DESIGN.md` §13 for the engine architecture, the lifted
//! semi-naive evaluation rules, and the soundness argument relating the
//! Datalog fixpoint to the IDE solver's phased computation.

#![warn(missing_docs)]
mod analyses;
mod dump;
mod engine;

pub use analyses::{
    decode_fact, decode_stmt, encode_fact, encode_stmt, solve_reaching_defs, DatalogSolution,
    EvalOptions, Relations,
};
pub use dump::{render_dump, DUMP_HEADER};
pub use engine::{
    evaluate, neg, pos, Atom, Database, DatalogError, DatalogProgram, EvalStats, Literal, RelId,
    Rule, Term, Tuple,
};

#[cfg(test)]
mod tests;
