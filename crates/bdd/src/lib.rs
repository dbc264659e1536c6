//! A reduced ordered binary decision diagram (ROBDD) engine.
//!
//! This crate is the SPLLIFT reproduction's stand-in for JavaBDD/BuDDy: a
//! from-scratch BDD package with hash-consed nodes and memoized operations.
//! The paper relies on exactly four Boolean operations being fast —
//! conjunction, disjunction, negation, and the constant-time `is_false`
//! check on reduced diagrams — all of which this crate provides.
//!
//! All operations memoize through an `ite` op-cache keyed by node id.
//! Commutative operations (`and`, `or`, `xor`, `iff`) sort their two
//! operands by node id before the cache probe, so `f ∧ g` and `g ∧ f`
//! share a single cache slot — the SPLLIFT solver joins the same
//! constraint pairs from both directions constantly, and without the
//! normalization every symmetric pair would be computed twice.
//!
//! The store is **thread-safe**: managers clone cheaply (`Arc`), handles
//! are `Send + Sync`, and each operation locks the manager's one store
//! once, so concurrent server sessions sharing one per-program BDD space
//! can build formulas from several threads. Memoized digests
//! ([`Bdd::semantic_digest`]) live in the store too. See the `manager`
//! module docs and DESIGN.md §12.
//!
//! # Example
//!
//! ```
//! use spllift_bdd::BddManager;
//!
//! let mgr = BddManager::new();
//! let f = mgr.var("F");
//! let g = mgr.var("G");
//! // ¬F ∧ G
//! let c = f.not().and(&g);
//! assert!(!c.is_false());
//! // (¬F ∧ G) ∧ F ≡ false — contradiction detection is constant time.
//! assert!(c.and(&f).is_false());
//! ```

#![warn(missing_docs)]
mod manager;

pub use manager::{Bdd, BddBudget, BddError, BddManager, BddStats, BudgetResource, VarId};

#[cfg(test)]
mod concurrency_tests;
#[cfg(test)]
mod tests;
