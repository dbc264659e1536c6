//! The inter-procedural control-flow-graph abstraction.

use std::fmt::Debug;
use std::hash::Hash;

/// An inter-procedural control-flow graph (ICFG).
///
/// This is the interface both the IFDS tabulation solver and the IDE solver
/// require from a program representation. `spllift-ir` implements it for the
/// Jimple-like IR; [`crate::SimpleGraph`] implements it for hand-built test
/// graphs.
///
/// Conventions (matching Soot/Heros):
///
/// * every method has exactly one *start point* (a synthetic entry is fine),
/// * a *call* statement transfers control to the start points of its
///   callees; its intra-procedural successors are its *return sites*,
/// * an *exit* statement has no successors; control returns to the return
///   sites of the corresponding call.
pub trait Icfg {
    /// A program statement (a node of the graph). Cheap to copy.
    type Stmt: Copy + Eq + Ord + Hash + Debug;
    /// A method / procedure. Cheap to copy.
    type Method: Copy + Eq + Ord + Hash + Debug;

    /// The analysis entry points (e.g. `main`).
    fn entry_points(&self) -> Vec<Self::Method>;

    /// The unique start point of `m`.
    fn start_point_of(&self, m: Self::Method) -> Self::Stmt;

    /// The method containing `s`.
    fn method_of(&self, s: Self::Stmt) -> Self::Method;

    /// Intra-procedural successors of `s`. For a call statement these are
    /// its return sites; for an exit statement this is empty.
    ///
    /// The adjacency queries return slices into tables the graph builds
    /// once, so the solvers' inner loops never allocate to walk an edge.
    fn successors_of(&self, s: Self::Stmt) -> &[Self::Stmt];

    /// `true` iff `s` is a call statement.
    fn is_call(&self, s: Self::Stmt) -> bool;

    /// The methods possibly called at call site `s` (per the call graph).
    fn callees_of(&self, s: Self::Stmt) -> &[Self::Method];

    /// The return sites of call site `s` (its intra-procedural successors).
    fn return_sites_of(&self, s: Self::Stmt) -> &[Self::Stmt] {
        self.successors_of(s)
    }

    /// `true` iff `s` is an exit (return) statement of its method.
    fn is_exit(&self, s: Self::Stmt) -> bool;

    /// All statements of method `m`, in a deterministic order.
    fn stmts_of(&self, m: Self::Method) -> Vec<Self::Stmt>;

    /// All call sites inside method `m`.
    fn calls_in(&self, m: Self::Method) -> Vec<Self::Stmt> {
        self.stmts_of(m)
            .into_iter()
            .filter(|&s| self.is_call(s))
            .collect()
    }

    /// All methods of the program, in a deterministic order.
    fn methods(&self) -> Vec<Self::Method>;

    /// Human-readable label for a statement (diagnostics, DOT export).
    fn stmt_label(&self, s: Self::Stmt) -> String {
        format!("{s:?}")
    }

    /// Human-readable label for a method.
    fn method_label(&self, m: Self::Method) -> String {
        format!("{m:?}")
    }
}
