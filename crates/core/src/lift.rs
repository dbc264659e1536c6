//! The automatic IFDS → IDE lifting (paper §3–§4).

use crate::{AnnotatedIcfg, ConstraintEdge, LiftedIcfg};
use spllift_features::{
    AbstractionStep, Configuration, Constraint, ConstraintContext, FeatureExpr, FeatureId,
    LatticePoint,
};
use spllift_hash::{FastMap, FastSet};
use spllift_ide::{IdeProblem, IdeSolver, IdeSolverOptions, IdeStats, SolveAbort, SolverMemo};
use spllift_ifds::{IfdsProblem, SolveLimits};
use std::time::{Duration, Instant};

/// How the product line's feature model is taken into account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelMode {
    /// Conjoin the model constraint `m` onto every edge (paper §4.2's
    /// final design): contradictions reduce to `false` *during* exploded
    /// supergraph construction, so the solver terminates those paths
    /// early.
    #[default]
    OnEdges,
    /// Replace the start value `true` by `m` (the paper's first attempt,
    /// from the PLAS 2012 workshop paper): same results, but early
    /// termination only in the value-propagation phase. Kept for the
    /// ablation benchmark.
    AtStartValue,
    /// Ignore the feature model entirely (the "ignored" rows of Table 3).
    Ignore,
}

/// An [`IdeProblem`] obtained by lifting an unchanged [`IfdsProblem`]
/// over feature constraints.
///
/// `G` is the *annotated* ICFG the original problem runs on; the lifted
/// problem runs on [`LiftedIcfg<G>`]. Constraints for each statement's
/// enabled/disabled cases are precomputed (including the feature-model
/// conjunction, depending on [`ModelMode`]).
#[derive(Debug)]
pub struct LiftedProblem<'a, G: AnnotatedIcfg, P, Ctx: ConstraintContext> {
    problem: &'a P,
    ctx: &'a Ctx,
    model: Ctx::C,
    /// stmt → (enabled-case constraint, disabled-case constraint).
    ann: FastMap<G::Stmt, (Ctx::C, Ctx::C)>,
}

impl<'a, G, P, Ctx> LiftedProblem<'a, G, P, Ctx>
where
    G: AnnotatedIcfg,
    P: IfdsProblem<G>,
    Ctx: ConstraintContext,
{
    /// Lifts `problem` over the annotations of `icfg`.
    ///
    /// `model` is the feature model's propositional constraint (from
    /// [`spllift_features::FeatureModel::to_expr`]); pass `None` to
    /// analyze without a model. `mode` selects how the model is applied
    /// (irrelevant when `model` is `None`).
    pub fn new(
        problem: &'a P,
        icfg: &G,
        ctx: &'a Ctx,
        model: Option<&FeatureExpr>,
        mode: ModelMode,
    ) -> Self {
        let model_c = match (model, mode) {
            (Some(expr), ModelMode::OnEdges | ModelMode::AtStartValue) => ctx.of_expr(expr),
            _ => ctx.tt(),
        };
        let on_edges = mode == ModelMode::OnEdges;
        let mut ann = FastMap::default();
        for m in icfg.methods() {
            for s in icfg.stmts_of(m) {
                let a = icfg.annotation(s);
                let (en, dis) = if a == FeatureExpr::True {
                    (ctx.tt(), ctx.ff())
                } else {
                    (ctx.of_expr(&a), ctx.of_expr(&a.clone().not()))
                };
                let (en, dis) = if on_edges {
                    (en.and(&model_c), dis.and(&model_c))
                } else {
                    (en, dis)
                };
                ann.insert(s, (en, dis));
            }
        }
        LiftedProblem {
            problem,
            ctx,
            model: model_c,
            ann,
        }
    }

    /// Lifts `problem` at an arbitrary point of the variability-
    /// abstraction lattice: every per-statement annotation constraint
    /// and (unless the point drops it) the feature-model constraint are
    /// passed through the point's composed weakening transformer before
    /// the solve. Since every transformer is weakening (`c ⊨ τ(c)`) and
    /// the lifting only combines these inputs with `∧`/`∨` — both
    /// monotone w.r.t. entailment — every constraint the abstracted
    /// solve reports is entailed by the full-precision one.
    ///
    /// Note the disabled-case constraint is `τ(¬a) ∧ τ(m)`, i.e. the
    /// transformer is applied to the *negated annotation*, never
    /// negated afterwards: `¬τ(a)` would strengthen, breaking
    /// soundness.
    ///
    /// Also returns the [`AbstractionImpact`]: which methods' stored
    /// constraints actually changed relative to [`LiftedProblem::new`]
    /// — the governor uses it to keep still-valid memoized jump
    /// functions (closed under transitive callers) when re-solving.
    pub fn abstracted(
        problem: &'a P,
        icfg: &G,
        ctx: &'a Ctx,
        model: Option<&FeatureExpr>,
        mode: ModelMode,
        point: &LatticePoint,
    ) -> (Self, AbstractionImpact<G::Method>) {
        if point.is_collapsed() {
            let impact = AbstractionImpact {
                model_changed: true,
                changed_methods: FastSet::default(),
            };
            return (Self::collapsed(problem, icfg, ctx), impact);
        }
        let steps = point.steps();
        let model_in_play = matches!(
            (model, mode),
            (Some(_), ModelMode::OnEdges | ModelMode::AtStartValue)
        );
        let (model_c, model_changed) = if !model_in_play {
            (ctx.tt(), false)
        } else if point.drops_model() {
            (ctx.tt(), true)
        } else {
            let m0 = ctx.of_expr(model.expect("model_in_play"));
            let m1 = ctx.apply_abstraction(steps, &m0);
            let changed = m1 != m0;
            (m1, changed)
        };
        let on_edges = mode == ModelMode::OnEdges && !point.drops_model();
        let mut ann = FastMap::default();
        let mut changed_methods = FastSet::default();
        for m in icfg.methods() {
            let mut method_changed = false;
            for s in icfg.stmts_of(m) {
                let a = icfg.annotation(s);
                let (en, dis) = if a == FeatureExpr::True {
                    (ctx.tt(), ctx.ff())
                } else {
                    let en0 = ctx.of_expr(&a);
                    let dis0 = ctx.of_expr(&a.clone().not());
                    let en1 = ctx.apply_abstraction(steps, &en0);
                    let dis1 = ctx.apply_abstraction(steps, &dis0);
                    if en1 != en0 || dis1 != dis0 {
                        method_changed = true;
                    }
                    (en1, dis1)
                };
                let (en, dis) = if on_edges {
                    (en.and(&model_c), dis.and(&model_c))
                } else {
                    (en, dis)
                };
                ann.insert(s, (en, dis));
            }
            if method_changed {
                changed_methods.insert(m);
            }
        }
        let lifted = LiftedProblem {
            problem,
            ctx,
            model: model_c,
            ann,
        };
        let impact = AbstractionImpact {
            model_changed,
            changed_methods,
        };
        (lifted, impact)
    }

    /// The maximally collapsed lifting (the lattice's A1-style bottom
    /// point, [`LatticePoint::constraint_true`]): every feature
    /// annotation is abstracted to *unknown* — the annotated flow and
    /// the identity fall-back both fire under the constraint `true` —
    /// and the feature model is ignored.
    ///
    /// This is the variability join abstraction of Dimovski et al.: the
    /// constraint lattice collapses to `{true, false}`, so the solve
    /// performs no non-trivial constraint operations at all and cannot
    /// exhaust a constraint budget. Every reported fact carries the
    /// constraint `true`, which is entailed by any precise constraint —
    /// a sound over-approximation of [`LiftedProblem::new`]'s answer.
    pub fn collapsed(problem: &'a P, icfg: &G, ctx: &'a Ctx) -> Self {
        let mut ann = FastMap::default();
        for m in icfg.methods() {
            for s in icfg.stmts_of(m) {
                let (en, dis) = if icfg.annotation(s) == FeatureExpr::True {
                    (ctx.tt(), ctx.ff())
                } else {
                    (ctx.tt(), ctx.tt())
                };
                ann.insert(s, (en, dis));
            }
        }
        LiftedProblem {
            problem,
            ctx,
            model: ctx.tt(),
            ann,
        }
    }

    /// The constraint context in use.
    pub fn context(&self) -> &'a Ctx {
        self.ctx
    }

    fn constraints_of(&self, s: G::Stmt) -> (Ctx::C, Ctx::C) {
        self.ann
            .get(&s)
            .cloned()
            .unwrap_or_else(|| (self.ctx.tt(), self.ctx.ff()))
    }

    /// Disjoins `(fact, constraint)` into `out`, merging duplicates
    /// (an edge annotated `F` in one case and `¬F` in the other becomes
    /// unconditional — the solid edges of Fig. 4).
    fn push(out: &mut Vec<(P::Fact, ConstraintEdge<Ctx::C>)>, fact: P::Fact, c: Ctx::C) {
        if c.is_false() {
            return;
        }
        if let Some(entry) = out.iter_mut().find(|(f, _)| *f == fact) {
            entry.1 = ConstraintEdge(entry.1 .0.or(&c));
        } else {
            out.push((fact, ConstraintEdge(c)));
        }
    }

    /// Original flow labeled `enabled`, plus the identity flow labeled
    /// `disabled` — the generic disjunction of Fig. 4a.
    fn lift_with_identity(
        &self,
        orig: Vec<P::Fact>,
        fact: &P::Fact,
        enabled: &Ctx::C,
        disabled: &Ctx::C,
    ) -> Vec<(P::Fact, ConstraintEdge<Ctx::C>)> {
        let mut out = Vec::with_capacity(orig.len() + 1);
        for d in orig {
            Self::push(&mut out, d, enabled.clone());
        }
        Self::push(&mut out, fact.clone(), disabled.clone());
        out
    }

    fn lift_plain(
        &self,
        orig: Vec<P::Fact>,
        enabled: &Ctx::C,
    ) -> Vec<(P::Fact, ConstraintEdge<Ctx::C>)> {
        let mut out = Vec::with_capacity(orig.len());
        for d in orig {
            Self::push(&mut out, d, enabled.clone());
        }
        out
    }
}

impl<'a, 'g, G, P, Ctx> IdeProblem<LiftedIcfg<'g, G>> for LiftedProblem<'a, G, P, Ctx>
where
    G: AnnotatedIcfg,
    P: IfdsProblem<G>,
    Ctx: ConstraintContext,
{
    type Fact = P::Fact;
    type Value = Ctx::C;
    type EF = ConstraintEdge<Ctx::C>;

    fn zero(&self) -> P::Fact {
        self.problem.zero()
    }

    fn top(&self) -> Ctx::C {
        self.ctx.ff()
    }

    fn seed_value(&self) -> Ctx::C {
        // §3.4 seeds `true` at the program start node. With a feature
        // model we seed `m` instead: in AtStartValue mode that is the
        // whole mechanism; in OnEdges mode it only states that the entry
        // point itself is reachable in valid configurations only (every
        // edge re-conjoins `m` anyway, so this adds nothing downstream
        // and makes both modes produce identical constraints).
        self.model.clone()
    }

    fn join_values(&self, a: &Ctx::C, b: &Ctx::C) -> Ctx::C {
        a.or(b)
    }

    fn id_edge(&self) -> ConstraintEdge<Ctx::C> {
        ConstraintEdge(self.ctx.tt())
    }

    fn flow_normal(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        curr: G::Stmt,
        succ: G::Stmt,
        fact: &P::Fact,
    ) -> Vec<(P::Fact, ConstraintEdge<Ctx::C>)> {
        let inner = icfg.inner();
        let (en, dis) = self.constraints_of(curr);
        let fall_through = inner.fall_through_of(curr);
        let target = inner.branch_target_of(curr);

        if inner.is_exit(curr) {
            // Only reached for the synthetic disabled-exit fall-through
            // edge: the return does not execute, identity under ¬F.
            debug_assert_eq!(Some(succ), fall_through);
            return self.lift_with_identity(Vec::new(), fact, &en, &dis);
        }
        if inner.is_unconditional_branch(curr) {
            // Fig. 4b: to the target under F; fall through under ¬F.
            let mut out = Vec::new();
            if Some(succ) == target {
                for d in self.problem.flow_normal(inner, curr, succ, fact) {
                    Self::push(&mut out, d, en.clone());
                }
            }
            if Some(succ) == fall_through {
                Self::push(&mut out, fact.clone(), dis.clone());
            }
            return out;
        }
        if inner.is_conditional_branch(curr) {
            // Fig. 4c: normal flow to both outcomes under F; identity to
            // the fall-through under ¬F.
            let mut out = Vec::new();
            if Some(succ) == target || Some(succ) == fall_through {
                for d in self.problem.flow_normal(inner, curr, succ, fact) {
                    Self::push(&mut out, d, en.clone());
                }
            }
            if Some(succ) == fall_through {
                Self::push(&mut out, fact.clone(), dis.clone());
            }
            return out;
        }
        // Fig. 4a: plain statements.
        self.lift_with_identity(
            self.problem.flow_normal(inner, curr, succ, fact),
            fact,
            &en,
            &dis,
        )
    }

    fn flow_call(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        callee: G::Method,
        fact: &P::Fact,
    ) -> Vec<(P::Fact, ConstraintEdge<Ctx::C>)> {
        // Fig. 4d: call flow under F; kill-all under ¬F.
        let (en, _) = self.constraints_of(call);
        self.lift_plain(
            self.problem.flow_call(icfg.inner(), call, callee, fact),
            &en,
        )
    }

    fn flow_return(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        callee: G::Method,
        exit: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
    ) -> Vec<(P::Fact, ConstraintEdge<Ctx::C>)> {
        // Return flow exists only when both the call and the return
        // statement are enabled.
        let (en_call, _) = self.constraints_of(call);
        let (en_exit, _) = self.constraints_of(exit);
        self.lift_plain(
            self.problem
                .flow_return(icfg.inner(), call, callee, exit, return_site, fact),
            &en_call.and(&en_exit),
        )
    }

    fn flow_call_to_return(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
    ) -> Vec<(P::Fact, ConstraintEdge<Ctx::C>)> {
        // Fig. 4a applied at the call site: the call's intra-procedural
        // effect under F, identity under ¬F.
        let (en, dis) = self.constraints_of(call);
        self.lift_with_identity(
            self.problem
                .flow_call_to_return(icfg.inner(), call, return_site, fact),
            fact,
            &en,
            &dis,
        )
    }

    fn initial_seeds(&self, icfg: &LiftedIcfg<'g, G>) -> Vec<(G::Stmt, P::Fact)> {
        self.problem.initial_seeds(icfg.inner())
    }

    fn budget_check(&self) -> Result<(), String> {
        self.ctx.budget_status()
    }
}

/// Which methods an abstraction actually touched, reported by
/// [`LiftedProblem::abstracted`].
///
/// A method whose per-statement constraints are unchanged by the
/// point's transformer (and whose model conjunct is unchanged) has
/// bit-identical edge functions at that point, so its full-precision
/// memoized jump functions and end summaries remain valid — provided
/// the dirty set is closed under transitive *callers* (summaries embed
/// callee summaries; see [`SolverMemo`]).
#[derive(Debug, Clone)]
pub struct AbstractionImpact<M> {
    /// Whether the feature-model conjunct differs from full precision
    /// (dropped or weakened). When it does, every edge changed and no
    /// memo reuse is possible.
    pub model_changed: bool,
    /// Methods with at least one statement whose (enabled, disabled)
    /// constraints changed. *Not* closed under callers.
    pub changed_methods: FastSet<M>,
}

/// How a governed solve ([`LiftedSolution::solve_governed`]) finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The precise solve fit the resource envelope.
    Complete,
    /// One or more lattice points aborted; the answer comes from
    /// `point` and every reported constraint is weaker-or-equal to
    /// (entailed by) the precise one.
    Degraded {
        /// The exact lattice point that produced the returned solution
        /// — clients can read off precisely which features were
        /// projected, joined, or confounded.
        point: LatticePoint,
        /// Each abandoned attempt, in descent order, with the abort
        /// reason.
        attempts: Vec<(LatticePoint, String)>,
    },
}

impl SolveOutcome {
    /// The lattice point the returned solution was computed at
    /// ([`LatticePoint::full`] for a complete solve).
    pub fn point(&self) -> LatticePoint {
        match self {
            SolveOutcome::Complete => LatticePoint::full(),
            SolveOutcome::Degraded { point, .. } => point.clone(),
        }
    }

    /// `true` iff the solution is degraded (not from the top point).
    pub fn is_degraded(&self) -> bool {
        matches!(self, SolveOutcome::Degraded { .. })
    }
}

/// Feature-universe hints the governor needs to pick lattice points
/// adaptively. With no `keep` set, the governor's descent is exactly
/// PR 5's hard ladder (full → no-model → constraint-true), so existing
/// clients see byte-identical behavior.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatticeHints {
    /// The full feature universe, `(id, name)` — names feed the stable
    /// lattice-point labels. Required for adaptive descent (an empty
    /// universe disables the adaptive points).
    pub universe: Vec<(FeatureId, String)>,
    /// Features the pending query cares about: abstractions that touch
    /// any of these are skipped, so precision is spent only where the
    /// client asked for it (`keep_features` on the wire,
    /// `--keep-features` on the CLI). `None` = hard ladder.
    pub keep: Option<Vec<FeatureId>>,
    /// The feature model's OR groups (`FeatureModel::or_groups`) —
    /// candidates for the *confound* abstraction.
    pub or_groups: Vec<(FeatureId, Vec<FeatureId>)>,
}

impl LatticeHints {
    fn named(&self, id: FeatureId) -> (FeatureId, String) {
        let name = self
            .universe
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("f{}", id.0));
        (id, name)
    }

    /// The descent schedule, most precise first. Always starts at
    /// [`LatticePoint::full`] and ends at
    /// [`LatticePoint::constraint_true`]; what lies between depends on
    /// `keep`:
    ///
    /// * `keep = None` — the PR 5 ladder: `no-model` (when a model is
    ///   in play), nothing else.
    /// * `keep = Some(K)` — cheapest-first adaptive points sparing `K`:
    ///   confound every OR group disjoint from `K` (model kept, only
    ///   group-member distinctions lost), then project away the entire
    ///   non-kept universe, then the same projection with the model
    ///   dropped too.
    fn schedule(&self, model_in_play: bool) -> Vec<LatticePoint> {
        let mut points = vec![LatticePoint::full()];
        match &self.keep {
            Some(keep) if !self.universe.is_empty() => {
                let keep: FastSet<FeatureId> = keep.iter().copied().collect();
                if model_in_play {
                    let confounds: Vec<AbstractionStep> = self
                        .or_groups
                        .iter()
                        .filter(|(p, ms)| !keep.contains(p) && ms.iter().all(|m| !keep.contains(m)))
                        .map(|(p, ms)| {
                            AbstractionStep::confound(
                                self.named(*p),
                                ms.iter().map(|&m| self.named(m)),
                            )
                        })
                        .collect();
                    if !confounds.is_empty() {
                        points.push(LatticePoint::abstracted(confounds));
                    }
                }
                let away: Vec<(FeatureId, String)> = self
                    .universe
                    .iter()
                    .filter(|(id, _)| !keep.contains(id))
                    .cloned()
                    .collect();
                if !away.is_empty() {
                    let project = LatticePoint::abstracted(vec![AbstractionStep::project(away)]);
                    points.push(project.clone());
                    if model_in_play {
                        points.push(project.without_model());
                    }
                } else if model_in_play {
                    points.push(LatticePoint::no_model());
                }
            }
            _ => {
                if model_in_play {
                    points.push(LatticePoint::no_model());
                }
            }
        }
        points.push(LatticePoint::constraint_true());
        points.dedup();
        points
    }
}

/// Resource envelope for a governed solve. Every limit defaults to
/// unlimited; with all limits off, [`LiftedSolution::solve_governed`] is
/// exactly [`LiftedSolution::solve`] plus an `Ok(Complete)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GovernorOptions {
    /// BDD node budget per lattice-point attempt (nodes allocated since
    /// arming).
    pub max_bdd_nodes: Option<u64>,
    /// BDD operation budget per lattice-point attempt.
    pub max_bdd_ops: Option<u64>,
    /// Phase-1 propagation cap per lattice-point attempt.
    pub max_propagations: Option<u64>,
    /// Wall-clock allowance per attempt (each lattice point gets a
    /// fresh deadline — a point that burns its allowance must not
    /// starve the cheaper fallback below it).
    pub timeout: Option<Duration>,
    /// Feature-universe hints for adaptive descent; default = PR 5's
    /// hard ladder.
    pub lattice: LatticeHints,
}

impl GovernorOptions {
    fn arms_budget(&self) -> bool {
        self.max_bdd_nodes.is_some() || self.max_bdd_ops.is_some()
    }

    fn solver_options(&self) -> IdeSolverOptions {
        IdeSolverOptions {
            limits: SolveLimits {
                max_propagations: self.max_propagations,
                deadline: self.timeout.map(|t| Instant::now() + t),
            },
            poll_budget: self.arms_budget(),
        }
    }
}

/// The transitive-caller closure of `changed`: every method from which
/// some changed method is reachable in the call graph (including the
/// changed methods themselves). This is the dirty set memo reuse needs
/// — a caller's summaries embed callee summaries, so a clean caller of
/// a changed callee would leak stale constraints.
fn transitive_callers<G: AnnotatedIcfg>(
    icfg: &G,
    changed: &FastSet<G::Method>,
) -> FastSet<G::Method> {
    let mut callers_of: FastMap<G::Method, Vec<G::Method>> = FastMap::default();
    for m in icfg.methods() {
        for s in icfg.calls_in(m) {
            for callee in icfg.callees_of(s) {
                callers_of.entry(callee).or_default().push(m);
            }
        }
    }
    let mut dirty: FastSet<G::Method> = changed.clone();
    let mut work: Vec<G::Method> = changed.iter().copied().collect();
    while let Some(m) = work.pop() {
        if let Some(callers) = callers_of.get(&m) {
            for &c in callers {
                if dirty.insert(c) {
                    work.push(c);
                }
            }
        }
    }
    dirty
}

/// The result of running SPLLIFT: for every (statement, fact) pair, the
/// feature constraint under which the fact may hold.
#[derive(Debug)]
pub struct LiftedSolution<'g, G: AnnotatedIcfg, D, C>
where
    D: Clone + Eq + std::hash::Hash,
{
    solver: IdeSolver<LiftedIcfg<'g, G>, D, C>,
}

impl<'g, G, D, C> LiftedSolution<'g, G, D, C>
where
    G: AnnotatedIcfg,
    D: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    C: Constraint,
{
    /// Runs SPLLIFT: lifts `problem` over `icfg`'s annotations and solves
    /// it in one pass over the entire product line.
    ///
    /// # Example
    ///
    /// The paper's running example — the lifted taint analysis reports
    /// the leak constraint `¬F ∧ G ∧ ¬H`:
    ///
    /// ```
    /// use spllift_analyses::{TaintAnalysis, TaintFact};
    /// use spllift_core::{LiftedSolution, ModelMode};
    /// use spllift_features::BddConstraintContext;
    /// use spllift_ir::{samples::fig1, LocalId, ProgramIcfg};
    ///
    /// let ex = fig1();
    /// let icfg = ProgramIcfg::new(&ex.program);
    /// let ctx = BddConstraintContext::new(&ex.table);
    /// let analysis = TaintAnalysis::secret_to_print();
    /// let solution =
    ///     LiftedSolution::solve(&analysis, &icfg, &ctx, None, ModelMode::Ignore);
    /// let leak = solution
    ///     .constraint_of(ex.print_call, &TaintFact::Local(LocalId(1)));
    /// assert_eq!(leak.to_cube_string(), "(!F & G & !H)");
    /// ```
    pub fn solve<P, Ctx>(
        problem: &P,
        icfg: &'g G,
        ctx: &Ctx,
        model: Option<&FeatureExpr>,
        mode: ModelMode,
    ) -> Self
    where
        P: IfdsProblem<G, Fact = D>,
        Ctx: ConstraintContext<C = C>,
    {
        let lifted_icfg = LiftedIcfg::new(icfg);
        let lifted = LiftedProblem::new(problem, icfg, ctx, model, mode);
        let solver = IdeSolver::solve(&lifted, &lifted_icfg);
        LiftedSolution { solver }
    }

    /// SPLLIFT at an explicit lattice point, ungoverned — the
    /// entailment-differential harness and the fuzz campaign's
    /// weakening verdict compare this against [`solve`](Self::solve).
    pub fn solve_abstracted<P, Ctx>(
        problem: &P,
        icfg: &'g G,
        ctx: &Ctx,
        model: Option<&FeatureExpr>,
        mode: ModelMode,
        point: &LatticePoint,
    ) -> Self
    where
        P: IfdsProblem<G, Fact = D>,
        Ctx: ConstraintContext<C = C>,
    {
        let lifted_icfg = LiftedIcfg::new(icfg);
        let (lifted, _) = LiftedProblem::abstracted(problem, icfg, ctx, model, mode, point);
        let solver = IdeSolver::solve(&lifted, &lifted_icfg);
        LiftedSolution { solver }
    }

    /// Resource-governed SPLLIFT: solves under the `gov` envelope,
    /// descending the variability-abstraction lattice on exhaustion.
    ///
    /// The attempt order is the `LatticeHints::schedule` descent: the
    /// full-precision top first, then — when `gov.lattice.keep` names
    /// the features the pending query cares about — progressively
    /// coarser points that spare exactly those features (confound
    /// unrelated OR groups, project away the non-kept universe, drop
    /// the model), ending at the constraint-true bottom. Without
    /// `keep`, the descent is PR 5's hard ladder. Each attempt re-arms
    /// the constraint budget and gets a fresh deadline; a successful
    /// attempt disarms the budget (so result rendering runs unmetered)
    /// and reports which lattice point answered via [`SolveOutcome`].
    /// `Err` is returned only when even the bottom point aborted (e.g.
    /// a deadline too short for any solve).
    pub fn solve_governed<P, Ctx>(
        problem: &P,
        icfg: &'g G,
        ctx: &Ctx,
        model: Option<&FeatureExpr>,
        mode: ModelMode,
        gov: GovernorOptions,
    ) -> Result<(Self, SolveOutcome), SolveAbort>
    where
        P: IfdsProblem<G, Fact = D>,
        Ctx: ConstraintContext<C = C>,
    {
        Self::solve_governed_memoized(
            problem,
            icfg,
            ctx,
            model,
            mode,
            gov,
            &SolverMemo::default(),
            &|_| false,
        )
        .map(|(solution, outcome, _)| (solution, outcome))
    }

    /// [`solve_governed`](Self::solve_governed) warm-started from a memo.
    ///
    /// The full-precision attempt consults `memo` as usual. A degraded
    /// attempt still reuses the memo *selectively*: methods whose
    /// constraints the lattice point leaves bit-identical (per
    /// [`AbstractionImpact`], closed under transitive callers) keep
    /// their retained jump functions — they encode exactly the same
    /// edge functions at that point. When the point changes the
    /// feature-model conjunct (drops or weakens it) every edge changed,
    /// so the attempt runs cold. The *returned* memo is non-empty only
    /// when the full attempt completed — a degraded solve's jump
    /// functions encode weakened constraints that must not seed a later
    /// full-precision round.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn solve_governed_memoized<P, Ctx>(
        problem: &P,
        icfg: &'g G,
        ctx: &Ctx,
        model: Option<&FeatureExpr>,
        mode: ModelMode,
        gov: GovernorOptions,
        memo: &SolverMemo<G::Method, G::Stmt, D, ConstraintEdge<C>>,
        clean: &dyn Fn(G::Method) -> bool,
    ) -> Result<
        (
            Self,
            SolveOutcome,
            SolverMemo<G::Method, G::Stmt, D, ConstraintEdge<C>>,
        ),
        SolveAbort,
    >
    where
        P: IfdsProblem<G, Fact = D>,
        Ctx: ConstraintContext<C = C>,
    {
        let lifted_icfg = LiftedIcfg::new(icfg);
        let model_in_play = model.is_some() && mode != ModelMode::Ignore;
        let points = gov.lattice.schedule(model_in_play);

        let mut attempts: Vec<(LatticePoint, String)> = Vec::new();
        let empty_memo = SolverMemo::default();
        let mut last_abort = None;
        for point in points {
            // Arm before *constructing* the problem: translating the
            // annotations and the model (and applying the abstraction
            // transformers) runs constraint operations that can
            // themselves blow up.
            if gov.arms_budget() {
                ctx.arm_budget(gov.max_bdd_nodes, gov.max_bdd_ops);
            }
            let options = gov.solver_options();
            let is_full = point.is_full();
            let (lifted, impact) = if is_full {
                (LiftedProblem::new(problem, icfg, ctx, model, mode), None)
            } else {
                let (lifted, impact) =
                    LiftedProblem::abstracted(problem, icfg, ctx, model, mode, &point);
                (lifted, Some(impact))
            };
            // The constraint work above can already exhaust the budget;
            // bail out before solving on garbage constraints.
            if let Err(reason) = ctx.budget_status() {
                let abort = SolveAbort::Budget(reason);
                attempts.push((point, abort.to_string()));
                last_abort = Some(abort);
                continue;
            }
            // Memo reuse: the full attempt uses the caller's clean
            // predicate as-is. A degraded attempt additionally dirties
            // every method the abstraction touched, closed under
            // transitive callers; a changed model conjunct invalidates
            // everything (run cold).
            let reuse_memo = match &impact {
                None => true,
                Some(impact) => !impact.model_changed,
            };
            let dirty = impact
                .as_ref()
                .filter(|impact| !impact.model_changed && !impact.changed_methods.is_empty())
                .map(|impact| transitive_callers(icfg, &impact.changed_methods));
            let composed_clean =
                |m: G::Method| clean(m) && dirty.as_ref().is_none_or(|d| !d.contains(&m));
            let point_memo = if reuse_memo { memo } else { &empty_memo };
            match IdeSolver::try_solve_seeded(
                &lifted,
                &lifted_icfg,
                options,
                point_memo,
                &composed_clean,
            ) {
                Ok((solver, next_memo)) => {
                    ctx.disarm_budget();
                    let solution = LiftedSolution { solver };
                    return Ok(if is_full {
                        (solution, SolveOutcome::Complete, next_memo)
                    } else {
                        (
                            solution,
                            SolveOutcome::Degraded { point, attempts },
                            SolverMemo::default(),
                        )
                    });
                }
                Err(abort) => {
                    attempts.push((point, abort.to_string()));
                    last_abort = Some(abort);
                }
            }
        }
        ctx.disarm_budget();
        Err(last_abort.expect("lattice descent has at least one point"))
    }

    /// The constraint under which `fact` may hold at `stmt`
    /// (`false` if it never holds).
    pub fn constraint_of(&self, stmt: G::Stmt, fact: &D) -> C {
        self.solver.value_at(stmt, fact)
    }

    /// The reachability constraint of `stmt` (the zero fact's value,
    /// paper §3.3).
    pub fn reachability_of(&self, stmt: G::Stmt) -> C {
        self.solver.reachability_of(stmt)
    }

    /// All facts with a satisfiable constraint at `stmt`.
    pub fn results_at(&self, stmt: G::Stmt) -> FastMap<D, C> {
        self.solver.results_at(stmt)
    }

    /// Whether `fact` holds at `stmt` in the product selected by `config`
    /// — the RQ1 cross-check query.
    pub fn holds_in<Ctx>(&self, ctx: &Ctx, stmt: G::Stmt, fact: &D, config: &Configuration) -> bool
    where
        Ctx: ConstraintContext<C = C>,
    {
        ctx.satisfied_by(&self.constraint_of(stmt, fact), config)
    }

    /// Solver statistics (jump-function constructions etc.).
    pub fn stats(&self) -> IdeStats {
        self.solver.stats()
    }

    /// Every (stmt, fact, constraint) triple with a satisfiable
    /// constraint.
    pub fn all_results(&self) -> impl Iterator<Item = (G::Stmt, &D, &C)> + use<'_, 'g, G, D, C> {
        self.solver.all_results()
    }
}
