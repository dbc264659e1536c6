//! The constraint abstraction used as SPLLIFT's IDE value domain, and its
//! primary (BDD-backed) implementation.

use crate::{AbstractionStep, Configuration, FeatureExpr, FeatureId};
use spllift_bdd::{Bdd, BddManager, VarId};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// A Boolean feature constraint: the value domain `V` of the lifted IDE
/// problem (§3 of the paper).
///
/// The paper needs exactly conjunction, disjunction, negation (only to form
/// literals), and an `is_false` test. `Eq` must coincide with semantic
/// equivalence for the BDD implementation; the DNF implementation is allowed
/// to be coarser (syntactic), which only delays the solver's fixpoint — see
/// the ablation discussion in `DESIGN.md`.
pub trait Constraint: Clone + Eq + Hash + Debug {
    /// `self ∧ other`.
    #[must_use]
    fn and(&self, other: &Self) -> Self;
    /// `self ∨ other`.
    #[must_use]
    fn or(&self, other: &Self) -> Self;
    /// `true` iff the constraint is unsatisfiable.
    ///
    /// Must be exact: the lifted solver prunes paths on it (§4.2).
    fn is_false(&self) -> bool;
    /// `true` iff the constraint is *recognizably* a tautology.
    ///
    /// May under-approximate (return `false` for a semantic tautology);
    /// it is only used as an optimization hint. The BDD implementation is
    /// exact, the DNF one is not — one of the reasons the paper picked BDDs.
    fn is_true(&self) -> bool;
}

/// Factory and evaluator for a [`Constraint`] representation.
///
/// One context instance corresponds to one product line: it knows the
/// feature universe and how to build literals and constants.
pub trait ConstraintContext {
    /// The constraint representation this context produces.
    type C: Constraint;

    /// The constant `true`.
    fn tt(&self) -> Self::C;
    /// The constant `false`.
    fn ff(&self) -> Self::C;
    /// The literal `f` (if `positive`) or `¬f`.
    fn lit(&self, f: FeatureId, positive: bool) -> Self::C;
    /// `true` iff `config` satisfies `c`.
    fn satisfied_by(&self, c: &Self::C, config: &Configuration) -> bool;

    /// Arms a resource budget on the underlying constraint engine, if it
    /// supports one. `None` means unlimited for that resource. The
    /// default implementation (for unbudgetable representations) is a
    /// no-op.
    fn arm_budget(&self, _max_nodes: Option<u64>, _max_ops: Option<u64>) {}

    /// Removes any armed budget, e.g. before rendering the results of a
    /// solve that completed within budget.
    fn disarm_budget(&self) {}

    /// `Ok(())` if no armed budget has been exceeded, otherwise a
    /// human-readable description of the exhausted resource. Solvers
    /// poll this to abort instead of computing with garbage constraints.
    fn budget_status(&self) -> Result<(), String> {
        Ok(())
    }

    /// Applies a composition of variability-abstraction steps to `c`,
    /// left to right (see [`crate::abstraction`]).
    ///
    /// Implementations must be *weakening*: the result is entailed by
    /// `c` on every assignment. The default (for representations
    /// without quantification, like the DNF ablation context) is the
    /// identity — trivially weakening (`c ⊨ c`), it just gains no
    /// resource headroom from descending the lattice.
    fn apply_abstraction(&self, _steps: &[AbstractionStep], c: &Self::C) -> Self::C {
        c.clone()
    }

    /// Translates a feature expression to a constraint.
    fn of_expr(&self, e: &FeatureExpr) -> Self::C {
        match e {
            FeatureExpr::True => self.tt(),
            FeatureExpr::False => self.ff(),
            FeatureExpr::Var(f) => self.lit(*f, true),
            FeatureExpr::Not(inner) => match &**inner {
                // Literals negate directly; general negation is pushed
                // inwards (the lifted analysis never needs general NOT at
                // runtime, only when translating annotations).
                FeatureExpr::Var(f) => self.lit(*f, false),
                FeatureExpr::True => self.ff(),
                FeatureExpr::False => self.tt(),
                FeatureExpr::Not(e2) => self.of_expr(e2),
                FeatureExpr::And(es) => es
                    .iter()
                    .map(|e2| self.of_expr(&e2.clone().not()))
                    .fold(self.ff(), |a, b| a.or(&b)),
                FeatureExpr::Or(es) => es
                    .iter()
                    .map(|e2| self.of_expr(&e2.clone().not()))
                    .fold(self.tt(), |a, b| a.and(&b)),
            },
            FeatureExpr::And(es) => es
                .iter()
                .map(|e2| self.of_expr(e2))
                .fold(self.tt(), |a, b| a.and(&b)),
            FeatureExpr::Or(es) => es
                .iter()
                .map(|e2| self.of_expr(e2))
                .fold(self.ff(), |a, b| a.or(&b)),
        }
    }
}

/// A feature constraint backed by a reduced ordered BDD.
///
/// Equality is semantic (canonical diagrams), and [`Constraint::is_false`]
/// is constant time — the two properties §5 and §8 of the paper credit for
/// SPLLIFT's performance.
pub type BddConstraint = Bdd;

impl Constraint for Bdd {
    fn and(&self, other: &Self) -> Self {
        Bdd::and(self, other)
    }
    fn or(&self, other: &Self) -> Self {
        Bdd::or(self, other)
    }
    fn is_false(&self) -> bool {
        Bdd::is_false(self)
    }
    fn is_true(&self) -> bool {
        Bdd::is_true(self)
    }
}

/// BDD-backed [`ConstraintContext`]: maps features to BDD variables
/// (in feature-id order — the paper picks one order and keeps it).
///
/// # Example
///
/// ```
/// use spllift_features::{BddConstraintContext, Configuration, ConstraintContext, FeatureTable};
/// let mut t = FeatureTable::new();
/// let f = t.intern("F");
/// let g = t.intern("G");
/// let ctx = BddConstraintContext::new(&t);
/// let c = ctx.lit(f, false).and(&ctx.lit(g, true)); // ¬F ∧ G
/// assert!(ctx.satisfied_by(&c, &Configuration::from_enabled([g])));
/// assert!(!ctx.satisfied_by(&c, &Configuration::from_enabled([f, g])));
/// ```
#[derive(Debug)]
pub struct BddConstraintContext {
    mgr: BddManager,
    vars: HashMap<FeatureId, VarId>,
    /// Inverse mapping, indexed by `VarId`; var ids are dense.
    features_by_var: Vec<FeatureId>,
}

impl BddConstraintContext {
    /// Creates a context with one BDD variable per feature in `table`,
    /// in id order.
    pub fn new(table: &crate::FeatureTable) -> Self {
        let order: Vec<FeatureId> = table.iter().map(|(id, _)| id).collect();
        Self::with_order(table, &order)
    }

    /// Creates a context with an explicit BDD variable *order* over the
    /// features of `table` (first element = topmost variable).
    ///
    /// The paper picks one order and defers the impact of orderings to
    /// future work (§5, §8); `report -- ordering` uses this constructor to
    /// run that experiment.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the table's features.
    pub fn with_order(table: &crate::FeatureTable, order: &[FeatureId]) -> Self {
        assert_eq!(order.len(), table.len(), "order must cover every feature");
        let mgr = BddManager::new();
        let mut vars = HashMap::new();
        let mut features_by_var = Vec::new();
        for &id in order {
            let v = mgr.new_var(table.name(id));
            assert!(
                vars.insert(id, v).is_none(),
                "duplicate feature {id:?} in order"
            );
            features_by_var.push(id);
        }
        BddConstraintContext {
            mgr,
            vars,
            features_by_var,
        }
    }

    /// The underlying BDD manager.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// The BDD variable assigned to feature `f`, if any.
    pub fn var_of(&self, f: FeatureId) -> Option<VarId> {
        self.vars.get(&f).copied()
    }

    /// Number of satisfying assignments of `c` over the full feature set.
    pub fn sat_count(&self, c: &Bdd) -> u128 {
        c.sat_count()
    }

    /// The BDD variables for `features`, skipping features unknown to
    /// this context (they cannot occur in any constraint it produced,
    /// so abstracting them is a no-op).
    fn vars_for(&self, features: &[(FeatureId, String)]) -> Vec<VarId> {
        features
            .iter()
            .filter_map(|(f, _)| self.var_of(*f))
            .collect()
    }

    /// The join transformer over the variables `vars` with proxy
    /// `d = ⋁ vars`: `τ(c) = (d ∧ ∃vars.(c ∧ d)) ∨ (¬d ∧ c[vars ↦ 0])`.
    ///
    /// Weakening on *every* assignment: if all of `vars` are off the
    /// value is exactly `c`; if any is on, `c`'s value implies the
    /// existential. (No feature-model validity assumption — this is
    /// what makes confound sound even on invalid configurations.)
    fn join_vars(&self, vars: &[VarId], c: &Bdd) -> Bdd {
        if vars.is_empty() {
            return c.clone();
        }
        let d = vars
            .iter()
            .fold(self.mgr.bottom(), |acc, &v| acc.or(&self.mgr.var_bdd(v)));
        let all_off = vars
            .iter()
            .fold(c.clone(), |acc, &v| acc.restrict(v, false));
        let any_on = c.and(&d).exists_many(vars);
        d.and(&any_on).or(&d.not().and(&all_off))
    }

    /// Applies one variability-abstraction step to `c` (see
    /// [`crate::abstraction`] for the transformer definitions and the
    /// weakening argument).
    pub fn apply_step(&self, step: &AbstractionStep, c: &Bdd) -> Bdd {
        match step {
            AbstractionStep::Project { features } => c.exists_many(&self.vars_for(features)),
            AbstractionStep::Join { features } => self.join_vars(&self.vars_for(features), c),
            AbstractionStep::Confound { members, .. } => self.join_vars(&self.vars_for(members), c),
        }
    }

    /// Translates a BDD back into a [`FeatureExpr`] by Shannon expansion
    /// on its topmost variable — the inverse direction of
    /// [`ConstraintContext::of_expr`].
    ///
    /// The result is semantically equivalent to `c` (not syntactically
    /// canonical); it lets constraint-valued analysis results be
    /// re-evaluated against [`Configuration`]s without the manager, e.g.
    /// for the analysis server's `holds_in` queries on a cached solution
    /// that any shard thread may read (a `FeatureExpr` is plain data —
    /// no node store behind it).
    pub fn to_expr(&self, c: &Bdd) -> FeatureExpr {
        if c.is_true() {
            return FeatureExpr::True;
        }
        if c.is_false() {
            return FeatureExpr::False;
        }
        let v = c.support()[0];
        let f = self.features_by_var[v.0 as usize];
        let lo = self.to_expr(&c.restrict(v, false));
        let hi = self.to_expr(&c.restrict(v, true));
        let pos = match hi {
            FeatureExpr::False => FeatureExpr::False,
            FeatureExpr::True => FeatureExpr::var(f),
            hi => FeatureExpr::var(f).and(hi),
        };
        let neg = match lo {
            FeatureExpr::False => FeatureExpr::False,
            FeatureExpr::True => FeatureExpr::var(f).not(),
            lo => FeatureExpr::var(f).not().and(lo),
        };
        match (pos, neg) {
            (FeatureExpr::False, e) | (e, FeatureExpr::False) => e,
            (pos, neg) => pos.or(neg),
        }
    }
}

impl ConstraintContext for BddConstraintContext {
    type C = Bdd;

    fn tt(&self) -> Bdd {
        self.mgr.top()
    }

    fn ff(&self) -> Bdd {
        self.mgr.bottom()
    }

    fn lit(&self, f: FeatureId, positive: bool) -> Bdd {
        let var = *self
            .vars
            .get(&f)
            .unwrap_or_else(|| panic!("feature {f:?} not known to this context"));
        let v = self.mgr.var_bdd(var);
        if positive {
            v
        } else {
            v.not()
        }
    }

    fn satisfied_by(&self, c: &Bdd, config: &Configuration) -> bool {
        c.eval(|v| {
            self.features_by_var
                .get(v.0 as usize)
                .is_some_and(|f| config.is_enabled(*f))
        })
    }

    fn apply_abstraction(&self, steps: &[AbstractionStep], c: &Bdd) -> Bdd {
        steps
            .iter()
            .fold(c.clone(), |acc, s| self.apply_step(s, &acc))
    }

    fn arm_budget(&self, max_nodes: Option<u64>, max_ops: Option<u64>) {
        self.mgr
            .set_budget(spllift_bdd::BddBudget { max_nodes, max_ops });
    }

    fn disarm_budget(&self) {
        self.mgr.clear_budget();
    }

    fn budget_status(&self) -> Result<(), String> {
        self.mgr.budget_status().map_err(|e| e.to_string())
    }
}
