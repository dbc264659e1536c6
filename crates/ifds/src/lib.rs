//! The IFDS framework: inter-procedural, finite, distributive, subset
//! problems solved by graph reachability (Reps, Horwitz, Sagiv — POPL 1995).
//!
//! This crate is the SPLLIFT reproduction's stand-in for the IFDS half of
//! Heros. It provides:
//!
//! * [`Icfg`] — the inter-procedural control-flow-graph abstraction every
//!   solver in this workspace runs on,
//! * [`IfdsProblem`] — the four flow-function classes of §2.2 of the paper
//!   (normal, call, return, call-to-return),
//! * [`IfdsSolver`] — the tabulation algorithm with path edges, summary
//!   edges, and a worklist,
//! * [`SimpleGraph`] — a tiny hand-buildable ICFG for tests and examples,
//! * [`supergraph`] — DOT export of the exploded supergraph (paper Fig. 3).
//!
//! # Example
//!
//! A two-method "taint" toy: `main` generates a fact and calls `f`, which
//! propagates it to its exit.
//!
//! ```
//! use spllift_ifds::{IfdsProblem, IfdsSolver, Icfg, SimpleGraph};
//!
//! let mut g = SimpleGraph::new();
//! let main = g.add_method("main");
//! let s0 = g.add_stmt(main, "gen");   // generates fact "x"
//! let s1 = g.add_stmt(main, "use");
//! g.add_edge(s0, s1);
//! g.set_entry(main);
//!
//! struct Gen;
//! impl IfdsProblem<SimpleGraph> for Gen {
//!     type Fact = &'static str;
//!     fn zero(&self) -> &'static str { "0" }
//!     // Flow functions append their target facts to a buffer the
//!     // solver owns and reuses.
//!     fn flow_normal(
//!         &self,
//!         g: &SimpleGraph,
//!         curr: u32,
//!         _succ: u32,
//!         d: &&'static str,
//!         out: &mut Vec<&'static str>,
//!     ) {
//!         out.push(*d);
//!         if g.label(curr) == "gen" && *d == "0" {
//!             out.push("x");
//!         }
//!     }
//! }
//!
//! let solver = IfdsSolver::solve(&Gen, &g);
//! assert!(solver.results_at(s1).contains("x"));
//! ```

#![warn(missing_docs)]
mod icfg;
mod problem;
mod simple_graph;
mod solver;
pub mod supergraph;

pub use icfg::Icfg;
pub use problem::IfdsProblem;
pub use simple_graph::{SimpleGraph, StmtKind};
pub use solver::{IfdsSolver, SolverStats};

#[cfg(test)]
mod tests;
