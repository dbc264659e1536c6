//! A Jimple-like three-address intermediate representation for a mini-Java
//! language, with feature annotations on statements.
//!
//! This crate is the SPLLIFT reproduction's stand-in for Soot: it provides
//! the typed three-address code the paper's analyses run on (§5 — "Jimple
//! statements are never nested, and all control-flow constructs are reduced
//! to simple conditional and unconditional branches"), plus:
//!
//! * a class hierarchy with CHA-based virtual dispatch ([`Hierarchy`]),
//! * a call graph reachable from declared entry points ([`CallGraph`]) —
//!   computed *feature-insensitively*, reproducing the limitation the paper
//!   discusses in §5,
//! * an implementation of [`spllift_ifds::Icfg`] ([`ProgramIcfg`]) so all
//!   solvers in the workspace run directly on programs,
//! * per-statement feature annotations ([`Stmt::annotation`]) as produced
//!   by the CIDE-style frontend,
//! * product derivation ([`Program::derive_product`]) — the "preprocessor"
//!   that turns the product line into a single product for a configuration
//!   (used by the A1 baseline and by differential tests),
//! * a [`ProgramBuilder`] for constructing programs programmatically and a
//!   pretty-printer for a Jimple-like text form,
//! * a round-trippable plain-text program format ([`text`]) for committed
//!   fuzzing repros (`tests/corpus/`).
//!
//! Statements are addressed by [`StmtRef`] (method + index); index 0 is a
//! synthetic entry `nop`, and every method body ends with an unannotated
//! `return` so that disabled trailing returns still fall through somewhere.

#![warn(missing_docs)]
mod builder;
mod callgraph;
mod fingerprint;
mod hierarchy;
mod icfg;
pub mod interp;
pub mod pretty;
mod product;
pub mod samples;
pub mod text;
mod types;

pub use builder::{Label, MethodBuilder, ProgramBuilder};
pub use callgraph::CallGraph;
pub use fingerprint::fingerprint;
pub use hierarchy::Hierarchy;
pub use icfg::ProgramIcfg;
pub use types::{
    BinOp, Body, Callee, Class, ClassId, ElemType, Field, FieldId, IrError, Local, LocalId, Method,
    MethodId, Operand, Program, Rvalue, Stmt, StmtKind, StmtRef, Type,
};

#[cfg(test)]
mod tests;
