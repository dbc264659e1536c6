//! Feature-annotated ICFGs and the lifted CFG view.

use spllift_features::FeatureExpr;
use spllift_hash::FastMap;
use spllift_ifds::Icfg;
use spllift_ir::{ProgramIcfg, StmtKind};

/// An ICFG whose statements carry feature annotations — the interface the
/// lifting (and the A2 baseline) needs beyond plain [`Icfg`].
pub trait AnnotatedIcfg: Icfg {
    /// The feature annotation of `s` (`FeatureExpr::True` if unannotated).
    fn annotation(&self, s: Self::Stmt) -> FeatureExpr;

    /// The fall-through successor of `s` (`index + 1`): where control goes
    /// when `s` is *disabled* (paper Fig. 4).
    fn fall_through_of(&self, s: Self::Stmt) -> Option<Self::Stmt>;

    /// The branch target of `s`, if `s` is a conditional or unconditional
    /// branch.
    fn branch_target_of(&self, s: Self::Stmt) -> Option<Self::Stmt>;

    /// `true` iff `s` is an unconditional branch (`goto`/`throw`,
    /// paper Fig. 4b).
    fn is_unconditional_branch(&self, s: Self::Stmt) -> bool;

    /// `true` iff `s` is a conditional branch (`if … goto`, Fig. 4c).
    fn is_conditional_branch(&self, s: Self::Stmt) -> bool;
}

impl AnnotatedIcfg for ProgramIcfg<'_> {
    fn annotation(&self, s: Self::Stmt) -> FeatureExpr {
        ProgramIcfg::annotation_of(self, s).clone()
    }

    fn fall_through_of(&self, s: Self::Stmt) -> Option<Self::Stmt> {
        ProgramIcfg::fall_through_of(self, s)
    }

    fn branch_target_of(&self, s: Self::Stmt) -> Option<Self::Stmt> {
        ProgramIcfg::branch_target_of(self, s)
    }

    fn is_unconditional_branch(&self, s: Self::Stmt) -> bool {
        matches!(self.program().stmt(s).kind, StmtKind::Goto { .. })
    }

    fn is_conditional_branch(&self, s: Self::Stmt) -> bool {
        matches!(self.program().stmt(s).kind, StmtKind::If { .. })
    }
}

/// The *lifted* CFG view of an annotated ICFG: identical to the inner
/// graph except that annotated `goto`s and `return`s gain their
/// fall-through successor — the edge control takes when the statement is
/// disabled (paper Fig. 4b and our handling of disabled exits).
///
/// Both SPLLIFT and the feature-aware A2 baseline run on this view;
/// plain product analyses (A1) run on the inner graph of the derived
/// product, where no statement is annotated and the views coincide.
#[derive(Debug)]
pub struct LiftedIcfg<'g, G: Icfg> {
    inner: &'g G,
    /// The full successor list of each statement that gains its
    /// disabled fall-through edge; every other statement's successors
    /// are the inner graph's.
    disabled: FastMap<G::Stmt, Vec<G::Stmt>>,
}

impl<'g, G: AnnotatedIcfg> LiftedIcfg<'g, G> {
    /// Wraps `inner`, adding the disabled fall-through edges of its
    /// annotated `goto`s and `return`s.
    pub fn new(inner: &'g G) -> Self {
        let mut disabled = FastMap::default();
        for m in inner.methods() {
            for s in inner.stmts_of(m) {
                if !(inner.is_unconditional_branch(s) || inner.is_exit(s)) {
                    continue;
                }
                let Some(ft) = inner.fall_through_of(s) else {
                    continue;
                };
                let succs = inner.successors_of(s);
                if succs.contains(&ft) || inner.annotation(s) == FeatureExpr::True {
                    continue;
                }
                disabled.insert(s, succs.iter().copied().chain([ft]).collect());
            }
        }
        LiftedIcfg { inner, disabled }
    }

    /// The wrapped graph.
    pub fn inner(&self) -> &'g G {
        self.inner
    }
}

impl<G: AnnotatedIcfg> Icfg for LiftedIcfg<'_, G> {
    type Stmt = G::Stmt;
    type Method = G::Method;

    fn entry_points(&self) -> Vec<G::Method> {
        self.inner.entry_points()
    }

    fn start_point_of(&self, m: G::Method) -> G::Stmt {
        self.inner.start_point_of(m)
    }

    fn method_of(&self, s: G::Stmt) -> G::Method {
        self.inner.method_of(s)
    }

    fn successors_of(&self, s: G::Stmt) -> &[G::Stmt] {
        match self.disabled.get(&s) {
            Some(succs) => succs,
            None => self.inner.successors_of(s),
        }
    }

    fn is_call(&self, s: G::Stmt) -> bool {
        self.inner.is_call(s)
    }

    fn callees_of(&self, s: G::Stmt) -> &[G::Method] {
        self.inner.callees_of(s)
    }

    fn return_sites_of(&self, s: G::Stmt) -> &[G::Stmt] {
        self.inner.return_sites_of(s)
    }

    fn is_exit(&self, s: G::Stmt) -> bool {
        self.inner.is_exit(s)
    }

    fn stmts_of(&self, m: G::Method) -> Vec<G::Stmt> {
        self.inner.stmts_of(m)
    }

    fn methods(&self) -> Vec<G::Method> {
        self.inner.methods()
    }

    fn stmt_label(&self, s: G::Stmt) -> String {
        self.inner.stmt_label(s)
    }

    fn method_label(&self, m: G::Method) -> String {
        self.inner.method_label(m)
    }
}

impl<G: AnnotatedIcfg> AnnotatedIcfg for LiftedIcfg<'_, G> {
    fn annotation(&self, s: G::Stmt) -> FeatureExpr {
        self.inner.annotation(s)
    }

    fn fall_through_of(&self, s: G::Stmt) -> Option<G::Stmt> {
        self.inner.fall_through_of(s)
    }

    fn branch_target_of(&self, s: G::Stmt) -> Option<G::Stmt> {
        self.inner.branch_target_of(s)
    }

    fn is_unconditional_branch(&self, s: G::Stmt) -> bool {
        self.inner.is_unconditional_branch(s)
    }

    fn is_conditional_branch(&self, s: G::Stmt) -> bool {
        self.inner.is_conditional_branch(s)
    }
}
