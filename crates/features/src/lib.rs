//! Feature models, feature expressions, configurations, and constraint
//! representations for software product lines.
//!
//! This crate is the SPLLIFT reproduction's stand-in for CIDE's feature-model
//! layer. It provides:
//!
//! * [`FeatureTable`] — an interner mapping feature names to dense
//!   [`FeatureId`]s,
//! * [`FeatureExpr`] — propositional formulas over features, as written in
//!   `#ifdef` annotations (with a parser for the `F && !G || H` syntax),
//! * [`FeatureModel`] — the usual tree of mandatory/optional features with
//!   OR/XOR groups and cross-tree constraints, translated to a single
//!   propositional constraint following Batory (SPLC 2005), exactly as the
//!   paper describes in §4.1,
//! * [`Configuration`] — a concrete feature selection, i.e. one product,
//! * [`Constraint`]/[`ConstraintContext`] — the abstract interface the
//!   SPLLIFT value domain needs (conjunction, disjunction, `is_false`),
//!   with two implementations: the BDD-backed [`BddConstraintContext`]
//!   (what the paper ships) and the DNF-based [`DnfConstraintContext`]
//!   (what the paper tried first and abandoned, kept here for the ablation
//!   benchmark).
//!
//! # Example
//!
//! ```
//! use spllift_features::{FeatureExpr, FeatureTable};
//!
//! let mut table = FeatureTable::new();
//! let expr = FeatureExpr::parse("!F && G", &mut table)?;
//! let f = table.intern("F");
//! let g = table.intern("G");
//! assert!(expr.eval(|id| id == g));
//! assert!(!expr.eval(|id| id == f));
//! # Ok::<(), spllift_features::ParseExprError>(())
//! ```

#![warn(missing_docs)]
pub mod abstraction;
mod config;
mod constraint;
mod dnf;
mod expr;
mod model;
mod model_text;

pub use abstraction::{AbstractionStep, LatticePoint, NamedFeature};
pub use config::{all_configurations, partition_slice, Configuration};
pub use constraint::{BddConstraint, BddConstraintContext, Constraint, ConstraintContext};
pub use dnf::{Dnf, DnfConstraintContext};
pub use expr::{FeatureExpr, FeatureId, FeatureTable, ParseExprError};
pub use model::{FeatureModel, GroupKind, ModelError};
pub use model_text::{parse_feature_model, ModelTextError};

#[cfg(test)]
mod tests;
