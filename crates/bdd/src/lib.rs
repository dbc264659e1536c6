//! A reduced ordered binary decision diagram (ROBDD) engine.
//!
//! This crate is the SPLLIFT reproduction's stand-in for JavaBDD/BuDDy: a
//! from-scratch BDD package with hash-consed nodes and memoized operations.
//! The paper relies on exactly four Boolean operations being fast —
//! conjunction, disjunction, negation, and the constant-time `is_false`
//! check on reduced diagrams — all of which this crate provides.
//!
//! The Boolean connectives memoize through an `ite` op-cache keyed by
//! node id. Like BuDDy's, the cache is lossy: an array of slots, one
//! per node rounded up to a power of two, where a new triple overwrites
//! whatever shared its slot and an evicted triple is simply
//! recomputed. `ite` rewrites its arguments into standard triples
//! before the probe: `ite(f, f, h)` becomes `f ∨ h`, `ite(f, g, f)`
//! becomes `f ∧ g`, and conjunctions and disjunctions take the smaller
//! node id as the condition at every level of the recursion. So `f ∧ g`
//! and `g ∧ f` share a single cache slot — the SPLLIFT solver joins the
//! same constraint pairs from both directions constantly, and without
//! the normalization every symmetric pair would be computed twice.
//! `xor` and `iff` sort their two operands by id at entry.
//!
//! A manager is **owned by one thread**: managers clone cheaply (`Rc`),
//! each operation borrows the manager's one store once, and handles
//! are `!Send`, so a thread that needs formulas (a server session, a
//! parallel cross-check worker) builds its own manager. Memoized
//! digests ([`Bdd::semantic_digest`]) live in the store too. See the
//! `manager` module docs and DESIGN.md §12.
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
mod tests;
