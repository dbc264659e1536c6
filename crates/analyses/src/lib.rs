//! Off-the-shelf IFDS client analyses for the Jimple-like IR.
//!
//! These are the reproduction's analogue of the paper's ~550 LoC of client
//! analyses (§6.2): they are written as *plain* [`spllift_ifds::IfdsProblem`]s
//! with no knowledge of features or product lines whatsoever. SPLLIFT lifts
//! them unchanged — that is the paper's headline claim ("without changing a
//! single line of code").
//!
//! * [`TaintAnalysis`] — the running-example client (§1, §2.3): tracks
//!   values from configurable source methods to sink methods.
//! * [`PossibleTypes`] — the paper's *Possible Types* client: which classes
//!   a reference may point to (usable for virtual-call resolution).
//! * [`ReachingDefs`] — the paper's *Reaching Definitions* client, the
//!   inter-procedural variant that follows parameter and return-value
//!   assignments.
//! * [`UninitVars`] — the paper's *Uninitialized Variables* client: which
//!   locals may be read before assignment, across method boundaries.
//! * [`Typestate`] — an open/closed typestate protocol checker, one of
//!   the classic IFDS clients the paper cites in §1.
//!
//! Plus one *native IDE* client (not liftable — SPLLIFT lifts IFDS
//! problems only, the paper's §5 restriction):
//!
//! * [`LinearConstants`] — inter-procedural linear constant propagation,
//!   the IDE framework's original motivating analysis (§2.4).
//!
//! The first four are the clients the front ends offer by name:
//! [`AnalysisKind`] names them and [`with_analysis!`] turns a kind into
//! its problem.

#![warn(missing_docs)]
mod common;
mod kind;
mod linear_const;
mod possible_types;
mod reaching_defs;
mod taint;
mod typestate;
mod uninit;

pub use common::{for_each_binding, result_local, returned_local};
pub use kind::AnalysisKind;
pub use linear_const::{CpFact, CpValue, LinearConstants, LinearEdge};
pub use possible_types::{PossibleTypes, TypeFact};
pub use reaching_defs::{DefFact, ReachingDefs};
pub use taint::{Leak, TaintAnalysis, TaintFact};
pub use typestate::{State, StateFact, Typestate, Violation};
pub use uninit::{UninitFact, UninitVars};

#[cfg(test)]
mod tests;
