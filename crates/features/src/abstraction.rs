//! Variability abstractions: a lattice of sound, composable weakenings
//! of the feature-constraint domain (Dimovski–Brabrand–Wasowski,
//! *Variability Abstractions: Trading Precision for Speed*).
//!
//! Each [`AbstractionStep`] is a constraint transformer `τ` that is
//! *weakening*: for every constraint `c`, `c ⊨ τ(c)` — on every
//! assignment, not just the feature model's valid configurations. A
//! lifted solve whose per-statement annotations and feature model are
//! all passed through `τ` therefore over-approximates the precise
//! solve: conjunction and disjunction are monotone w.r.t. entailment,
//! so every constraint the abstracted solve reports is entailed by the
//! full-precision one (the degraded answer may claim a fact holds in
//! more configurations, never fewer — sound for may-analyses).
//!
//! The shipped transformers, most precise first over the same feature
//! set `S` (each is entailed by the previous applied to the same `c`):
//!
//! * **confound** — a feature-model OR-group `p ↔ s₁ ∨ … ∨ sₖ` is
//!   collapsed into the single literal `p`: the members are joined
//!   (below), so constraints stop distinguishing *which* member was
//!   picked while the model still ties "some member" to `p`.
//! * **join(S)** — the features of `S` become one proxy: with
//!   `d = ⋁S`, `τ(c) = (d ∧ ∃S.(c ∧ d)) ∨ (¬d ∧ c[S ↦ 0])`.
//!   Assignments with all of `S` off keep `c` exactly; assignments
//!   with any of `S` on are merged into "at least one on".
//! * **project(S)** — `τ(c) = ∃S. c`: constraints forget everything
//!   about `S`.
//!
//! A [`LatticePoint`] composes zero or more steps with two further
//! (coarsest) weakenings inherited from the PR 5 ladder: dropping the
//! feature model (`c ∧ m ⊨ c`) and collapsing every annotation to
//! *unknown* (every constraint becomes `true`, entailed by anything).
//! The three old rungs are the canonical points [`LatticePoint::full`]
//! (top), [`LatticePoint::no_model`], and
//! [`LatticePoint::constraint_true`] (bottom), and keep their exact
//! wire names.

use crate::FeatureId;
use std::collections::BTreeSet;
use std::fmt;

/// One named feature: the id (for applying the transformer) paired
/// with its display name (for stable wire/stats labels).
pub type NamedFeature = (FeatureId, String);

fn sorted(mut features: Vec<NamedFeature>) -> Vec<NamedFeature> {
    features.sort_by(|a, b| a.1.cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));
    features.dedup();
    features
}

fn name_list(features: &[NamedFeature]) -> String {
    features
        .iter()
        .map(|(_, n)| n.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

/// One composable, provably weakening constraint transformer.
///
/// Steps carry the display names of the features they abstract so a
/// [`LatticePoint`]'s [`name`](LatticePoint::name) is self-contained
/// (server responses, stats keys, and bench JSON all render it without
/// access to the feature table).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AbstractionStep {
    /// Existentially quantify `features` out of every constraint.
    Project {
        /// The features forgotten, sorted by name.
        features: Vec<NamedFeature>,
    },
    /// Merge `features` into one proxy ("at least one enabled").
    Join {
        /// The features merged, sorted by name.
        features: Vec<NamedFeature>,
    },
    /// Collapse a feature-model OR-group into its parent literal by
    /// joining the members (the parent itself is untouched and remains
    /// the group's representative).
    Confound {
        /// The group's parent feature.
        parent: NamedFeature,
        /// The group members joined away, sorted by name.
        members: Vec<NamedFeature>,
    },
}

impl AbstractionStep {
    /// A project step over `features` (sorted/deduped by name).
    pub fn project(features: impl IntoIterator<Item = NamedFeature>) -> Self {
        AbstractionStep::Project {
            features: sorted(features.into_iter().collect()),
        }
    }

    /// A join step over `features` (sorted/deduped by name).
    pub fn join(features: impl IntoIterator<Item = NamedFeature>) -> Self {
        AbstractionStep::Join {
            features: sorted(features.into_iter().collect()),
        }
    }

    /// A confound step for the OR-group `parent ↔ ⋁ members`.
    pub fn confound(parent: NamedFeature, members: impl IntoIterator<Item = NamedFeature>) -> Self {
        AbstractionStep::Confound {
            parent,
            members: sorted(members.into_iter().collect()),
        }
    }

    /// The features this step abstracts away (loses precision on).
    /// A confound's parent is *not* abstracted — it survives as the
    /// group's representative literal.
    pub fn abstracted_features(&self) -> &[NamedFeature] {
        match self {
            AbstractionStep::Project { features } | AbstractionStep::Join { features } => features,
            AbstractionStep::Confound { members, .. } => members,
        }
    }

    /// Stable machine-readable rendering, e.g. `project(F,G)` or
    /// `confound(Base)`.
    pub fn name(&self) -> String {
        match self {
            AbstractionStep::Project { features } => format!("project({})", name_list(features)),
            AbstractionStep::Join { features } => format!("join({})", name_list(features)),
            AbstractionStep::Confound { parent, .. } => format!("confound({})", parent.1),
        }
    }
}

impl fmt::Display for AbstractionStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// A point of the variability-abstraction lattice: a composition of
/// [`AbstractionStep`]s, optionally also dropping the feature model,
/// optionally collapsed to the bottom (every constraint `true`).
///
/// Precision order: the top is [`LatticePoint::full`] (no steps, model
/// kept); adding steps, dropping the model, or collapsing each move
/// strictly down (weaker constraints). The governor descends this
/// lattice on budget exhaustion.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LatticePoint {
    steps: Vec<AbstractionStep>,
    drop_model: bool,
    collapse: bool,
}

impl LatticePoint {
    /// The top: full SPLLIFT precision (PR 5's `full` rung).
    pub fn full() -> Self {
        LatticePoint {
            steps: Vec::new(),
            drop_model: false,
            collapse: false,
        }
    }

    /// Feature model dropped, annotations precise (the `no-model` rung).
    pub fn no_model() -> Self {
        LatticePoint {
            steps: Vec::new(),
            drop_model: true,
            collapse: false,
        }
    }

    /// The bottom: every annotation abstracted to *unknown*, every
    /// reported constraint `true` (the `constraint-true` rung).
    pub fn constraint_true() -> Self {
        LatticePoint {
            steps: Vec::new(),
            drop_model: true,
            collapse: true,
        }
    }

    /// A point applying `steps` (model kept).
    pub fn abstracted(steps: Vec<AbstractionStep>) -> Self {
        LatticePoint {
            steps,
            drop_model: false,
            collapse: false,
        }
    }

    /// The same point with the feature model additionally dropped.
    #[must_use]
    pub fn without_model(mut self) -> Self {
        self.drop_model = true;
        self
    }

    /// The composed transformer steps, applied left to right.
    pub fn steps(&self) -> &[AbstractionStep] {
        &self.steps
    }

    /// Whether the feature model is dropped at this point.
    pub fn drops_model(&self) -> bool {
        self.drop_model
    }

    /// Whether this is the bottom (constraint-true) point.
    pub fn is_collapsed(&self) -> bool {
        self.collapse
    }

    /// Whether this is the top (full-precision) point.
    pub fn is_full(&self) -> bool {
        self.steps.is_empty() && !self.drop_model && !self.collapse
    }

    /// Every feature some step abstracts away, with names.
    pub fn abstracted_features(&self) -> BTreeSet<NamedFeature> {
        self.steps
            .iter()
            .flat_map(|s| s.abstracted_features().iter().cloned())
            .collect()
    }

    /// Stable machine-readable name. The three canonical points render
    /// exactly as the rung names of the old three-rung degradation
    /// ladder — `full`, `no-model`, `constraint-true` — so existing
    /// clients and goldens keep their vocabulary; composite points
    /// render their steps joined by `+`, e.g.
    /// `confound(Base)+project(F,G)` or `no-model+project(F,G)`.
    pub fn name(&self) -> String {
        if self.collapse {
            return "constraint-true".to_string();
        }
        let mut parts: Vec<String> = Vec::new();
        if self.drop_model {
            parts.push("no-model".to_string());
        }
        parts.extend(self.steps.iter().map(AbstractionStep::name));
        if parts.is_empty() {
            return "full".to_string();
        }
        parts.join("+")
    }
}

impl fmt::Display for LatticePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BddConstraintContext, Configuration, ConstraintContext, FeatureExpr, FeatureTable,
    };
    use spllift_bdd::Bdd;

    fn fixture() -> (FeatureTable, BddConstraintContext) {
        let mut t = FeatureTable::new();
        for n in ["A", "B", "C", "D"] {
            t.intern(n);
        }
        let ctx = BddConstraintContext::new(&t);
        (t, ctx)
    }

    fn named(t: &FeatureTable, n: &str) -> NamedFeature {
        let id = t.iter().find(|(_, name)| *name == n).unwrap().0;
        (id, n.to_string())
    }

    /// A small battery of structurally diverse constraints over A–D.
    fn samples(t: &mut FeatureTable, ctx: &BddConstraintContext) -> Vec<Bdd> {
        [
            "A",
            "!A",
            "A && B",
            "A || B",
            "(A && !B) || (C && D)",
            "(A || B) && (!C || D)",
            "((A && B) || !C) && (D || !A)",
            "!(A && B && C && D)",
        ]
        .iter()
        .map(|s| ctx.of_expr(&FeatureExpr::parse(s, t).unwrap()))
        .collect()
    }

    #[test]
    fn every_step_is_weakening_on_every_constraint() {
        let (mut t, ctx) = fixture();
        let steps = [
            AbstractionStep::project(vec![named(&t, "B")]),
            AbstractionStep::project(vec![named(&t, "A"), named(&t, "C")]),
            AbstractionStep::join(vec![named(&t, "B"), named(&t, "C")]),
            AbstractionStep::join(vec![named(&t, "A"), named(&t, "B"), named(&t, "D")]),
            AbstractionStep::confound(named(&t, "A"), vec![named(&t, "B"), named(&t, "C")]),
        ];
        for c in samples(&mut t, &ctx) {
            for step in &steps {
                let tau = ctx.apply_abstraction(std::slice::from_ref(step), &c);
                assert!(
                    c.entails(&tau),
                    "{step} must weaken: {} ⊭ {}",
                    c.to_cube_string(),
                    tau.to_cube_string()
                );
            }
            // Compositions weaken too (monotone chaining).
            let tau = ctx.apply_abstraction(&steps, &c);
            assert!(c.entails(&tau));
        }
    }

    #[test]
    fn join_is_at_least_as_precise_as_project_on_the_same_set() {
        let (mut t, ctx) = fixture();
        let set = vec![named(&t, "B"), named(&t, "C")];
        let join = AbstractionStep::join(set.clone());
        let project = AbstractionStep::project(set);
        for c in samples(&mut t, &ctx) {
            let j = ctx.apply_abstraction(std::slice::from_ref(&join), &c);
            let p = ctx.apply_abstraction(std::slice::from_ref(&project), &c);
            assert!(j.entails(&p), "join(S) ⊨ project(S) must hold");
        }
    }

    #[test]
    fn join_keeps_all_off_assignments_exact_and_merges_on_assignments() {
        let (t, ctx) = fixture();
        let (a, b, c_id) = (named(&t, "A"), named(&t, "B"), named(&t, "C"));
        // c = B ∧ ¬C: distinguishes the two joined features.
        let c = ctx.lit(b.0, true).and(&ctx.lit(c_id.0, false));
        let step = AbstractionStep::join(vec![b.clone(), c_id.clone()]);
        let tau = ctx.apply_abstraction(std::slice::from_ref(&step), &c);
        // All-off: c was false with B=C=0, stays false.
        assert!(!ctx.satisfied_by(&tau, &Configuration::from_enabled([a.0])));
        // Any-on: both B-only (where c held) and C-only (where it did
        // not) now satisfy τ(c) — the join cannot tell them apart.
        assert!(ctx.satisfied_by(&tau, &Configuration::from_enabled([b.0])));
        assert!(ctx.satisfied_by(&tau, &Configuration::from_enabled([c_id.0])));
    }

    #[test]
    fn project_forgets_exactly_the_projected_features() {
        let (t, ctx) = fixture();
        let (a, b) = (named(&t, "A"), named(&t, "B"));
        let c = ctx.lit(a.0, true).and(&ctx.lit(b.0, true));
        let step = AbstractionStep::project(vec![b]);
        let tau = ctx.apply_abstraction(std::slice::from_ref(&step), &c);
        assert_eq!(tau, ctx.lit(a.0, true));
    }

    #[test]
    fn canonical_names_match_the_pr5_rungs() {
        assert_eq!(LatticePoint::full().name(), "full");
        assert_eq!(LatticePoint::no_model().name(), "no-model");
        assert_eq!(LatticePoint::constraint_true().name(), "constraint-true");
        assert!(LatticePoint::full().is_full());
        assert!(LatticePoint::constraint_true().is_collapsed());
    }

    #[test]
    fn composite_names_are_deterministic() {
        let (t, _) = fixture();
        let p = LatticePoint::abstracted(vec![
            AbstractionStep::confound(named(&t, "A"), vec![named(&t, "C"), named(&t, "B")]),
            AbstractionStep::project(vec![named(&t, "D"), named(&t, "B")]),
        ]);
        assert_eq!(p.name(), "confound(A)+project(B,D)");
        assert_eq!(
            p.clone().without_model().name(),
            "no-model+confound(A)+project(B,D)"
        );
        assert_eq!(
            p.abstracted_features()
                .into_iter()
                .map(|(_, n)| n)
                .collect::<Vec<_>>(),
            ["B", "C", "D"]
        );
    }

    #[test]
    fn unknown_features_are_ignored_by_application() {
        let (t, ctx) = fixture();
        let a = named(&t, "A");
        let ghost = (crate::FeatureId(999), "Ghost".to_string());
        let c = ctx.lit(a.0, true);
        let step = AbstractionStep::project(vec![ghost]);
        assert_eq!(ctx.apply_abstraction(std::slice::from_ref(&step), &c), c);
    }
}
