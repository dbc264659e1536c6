//! The automatic IFDS → IDE lifting (paper §3–§4).

use crate::{AnnotatedIcfg, ConstraintEdge, LiftedIcfg};
use spllift_features::{
    AbstractionStep, Configuration, Constraint, ConstraintContext, FeatureExpr, FeatureId,
    LatticePoint,
};
use spllift_hash::{FastMap, FastSet};
use spllift_ide::{
    IdeProblem, IdeSolver, IdeSolverOptions, IdeStats, SolveAbort, SolveLimits, SolverMemo,
};
use spllift_ifds::IfdsProblem;
use std::cell::{RefCell, RefMut};
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
    /// termination only in the value-propagation phase. Kept for
    /// ablation B of `report ablations`.
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
pub struct LiftedProblem<'a, G: AnnotatedIcfg, P: IfdsProblem<G>, Ctx: ConstraintContext> {
    problem: &'a P,
    ctx: &'a Ctx,
    model: Ctx::C,
    /// stmt → (enabled-case constraint, disabled-case constraint).
    ann: FastMap<G::Stmt, (Ctx::C, Ctx::C)>,
    /// The constraints of a statement `ann` does not list:
    /// `(true, false)`.
    unannotated: (Ctx::C, Ctx::C),
    /// The original problem's flow results, lifted from here straight
    /// into the solver's buffer.
    scratch: RefCell<Vec<P::Fact>>,
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
        Self::abstracted(problem, icfg, ctx, model, mode, &LatticePoint::full())
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
    /// The bottom point ([`LatticePoint::constraint_true`]) is the
    /// variability join abstraction of Dimovski et al.: every feature
    /// annotation is abstracted to *unknown* — the annotated flow and
    /// the identity fall-back both fire under the constraint `true` —
    /// and the feature model is ignored. The constraint lattice
    /// collapses to `{true, false}`, so neither the lifting nor the
    /// solve performs a non-trivial constraint operation, and neither
    /// can exhaust a constraint budget. Every reported fact carries
    /// `true`, a sound over-approximation of the precise answer.
    fn abstracted(
        problem: &'a P,
        icfg: &G,
        ctx: &'a Ctx,
        model: Option<&FeatureExpr>,
        mode: ModelMode,
        point: &LatticePoint,
    ) -> Self {
        let steps = point.steps();
        let collapsed = point.is_collapsed();
        let model_c = match model {
            Some(m) if mode != ModelMode::Ignore && !collapsed && !point.drops_model() => {
                ctx.apply_abstraction(steps, &ctx.of_expr(m))
            }
            _ => ctx.tt(),
        };
        let on_edges = mode == ModelMode::OnEdges && !point.drops_model();
        let mut ann = FastMap::default();
        for m in icfg.methods() {
            for s in icfg.stmts_of(m) {
                let a = icfg.annotation(s);
                let (en, dis) = if a == FeatureExpr::True {
                    (ctx.tt(), ctx.ff())
                } else if collapsed {
                    (ctx.tt(), ctx.tt())
                } else {
                    let en = ctx.of_expr(&a);
                    let dis = ctx.of_expr(&a.clone().not());
                    (
                        ctx.apply_abstraction(steps, &en),
                        ctx.apply_abstraction(steps, &dis),
                    )
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
            unannotated: (ctx.tt(), ctx.ff()),
            scratch: RefCell::new(Vec::new()),
        }
    }

    fn constraints_of(&self, s: G::Stmt) -> (&Ctx::C, &Ctx::C) {
        let (en, dis) = self.ann.get(&s).unwrap_or(&self.unannotated);
        (en, dis)
    }

    /// Disjoins `(fact, c)` into the entries of `out` from `start` on —
    /// the ones this flow evaluation appended — merging duplicates (an
    /// edge annotated `F` in one case and `¬F` in the other becomes
    /// unconditional — the solid edges of Fig. 4).
    fn push(
        out: &mut Vec<(P::Fact, ConstraintEdge<Ctx::C>)>,
        start: usize,
        fact: P::Fact,
        c: &Ctx::C,
    ) {
        if c.is_false() {
            return;
        }
        if let Some(entry) = out[start..].iter_mut().find(|(f, _)| *f == fact) {
            entry.1 = ConstraintEdge(entry.1 .0.or(c));
        } else {
            out.push((fact, ConstraintEdge(c.clone())));
        }
    }

    /// Runs one flow function of the original problem into the scratch
    /// buffer and returns the buffer, holding its facts.
    fn original(&self, flow: impl FnOnce(&mut Vec<P::Fact>)) -> RefMut<'_, Vec<P::Fact>> {
        let mut facts = self.scratch.borrow_mut();
        facts.clear();
        flow(&mut facts);
        facts
    }

    /// Disjoins every fact of `facts` into `out` under `c`, emptying
    /// `facts`.
    fn push_all(
        out: &mut Vec<(P::Fact, ConstraintEdge<Ctx::C>)>,
        start: usize,
        facts: &mut Vec<P::Fact>,
        c: &Ctx::C,
    ) {
        for d in facts.drain(..) {
            Self::push(out, start, d, c);
        }
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
        out: &mut Vec<(P::Fact, ConstraintEdge<Ctx::C>)>,
    ) {
        let inner = icfg.inner();
        let (en, dis) = self.constraints_of(curr);
        let start = out.len();
        // Which of the two cases flows along `curr → succ`: the original
        // flow when `curr` is enabled, the identity when it is disabled.
        let (original, identity) = if inner.is_exit(curr) {
            // Only reached for the synthetic disabled-exit fall-through
            // edge: the return does not execute, identity under ¬F.
            debug_assert_eq!(Some(succ), inner.fall_through_of(curr));
            (false, true)
        } else if inner.is_unconditional_branch(curr) {
            // Fig. 4b: to the target under F; fall through under ¬F.
            (
                Some(succ) == inner.branch_target_of(curr),
                Some(succ) == inner.fall_through_of(curr),
            )
        } else if inner.is_conditional_branch(curr) {
            // Fig. 4c: normal flow to both outcomes under F; identity to
            // the fall-through under ¬F.
            let fall_through = Some(succ) == inner.fall_through_of(curr);
            (
                fall_through || Some(succ) == inner.branch_target_of(curr),
                fall_through,
            )
        } else {
            // Fig. 4a: plain statements.
            (true, true)
        };
        if original {
            let mut facts =
                self.original(|facts| self.problem.flow_normal(inner, curr, succ, fact, facts));
            Self::push_all(out, start, &mut facts, en);
        }
        if identity {
            Self::push(out, start, fact.clone(), dis);
        }
    }

    fn flow_call(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        callee: G::Method,
        fact: &P::Fact,
        out: &mut Vec<(P::Fact, ConstraintEdge<Ctx::C>)>,
    ) {
        // Fig. 4d: call flow under F; kill-all under ¬F.
        let start = out.len();
        let mut facts = self.original(|facts| {
            self.problem
                .flow_call(icfg.inner(), call, callee, fact, facts)
        });
        Self::push_all(out, start, &mut facts, self.constraints_of(call).0);
    }

    fn flow_return(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        callee: G::Method,
        exit: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
        out: &mut Vec<(P::Fact, ConstraintEdge<Ctx::C>)>,
    ) {
        // Return flow exists only when both the call and the return
        // statement are enabled.
        let start = out.len();
        let mut facts = self.original(|facts| {
            self.problem
                .flow_return(icfg.inner(), call, callee, exit, return_site, fact, facts)
        });
        let enabled = self.constraints_of(call).0.and(self.constraints_of(exit).0);
        Self::push_all(out, start, &mut facts, &enabled);
    }

    fn flow_call_to_return(
        &self,
        icfg: &LiftedIcfg<'g, G>,
        call: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
        out: &mut Vec<(P::Fact, ConstraintEdge<Ctx::C>)>,
    ) {
        // Fig. 4a applied at the call site: the call's intra-procedural
        // effect under F, identity under ¬F.
        let (en, dis) = self.constraints_of(call);
        let start = out.len();
        let mut facts = self.original(|facts| {
            self.problem
                .flow_call_to_return(icfg.inner(), call, return_site, fact, facts)
        });
        Self::push_all(out, start, &mut facts, en);
        Self::push(out, start, fact.clone(), dis);
    }

    fn initial_seeds(&self, icfg: &LiftedIcfg<'g, G>) -> Vec<(G::Stmt, P::Fact)> {
        self.problem.initial_seeds(icfg.inner())
    }

    fn budget_check(&self) -> Result<(), String> {
        self.ctx.budget_status()
    }
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
/// unlimited; with all limits off, a cold
/// [`LiftedSolution::solve_governed`] is exactly
/// [`LiftedSolution::solve`] plus an `Ok(Complete)`.
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
        let lifted = LiftedProblem::abstracted(problem, icfg, ctx, model, mode, point);
        let solver = IdeSolver::solve(&lifted, &lifted_icfg);
        LiftedSolution { solver }
    }

    /// Resource-governed, incremental SPLLIFT: solves under the `gov`
    /// envelope, descending the variability-abstraction lattice on
    /// exhaustion, warm-started from `memo`.
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
    ///
    /// `changed` names the methods whose bodies differ from the program
    /// `memo` was solved on; with an empty memo the solve is cold, and
    /// with an unlimited `gov` as well it is exactly
    /// [`solve`](Self::solve). The full-precision attempt consumes the
    /// memo through [`IdeSolver::try_solve_seeded`], which re-tabulates
    /// the changed methods and their transitive callers; every degraded
    /// attempt solves cold. The *returned* memo is non-empty only when
    /// the full attempt completed — a degraded solve's jump functions
    /// encode weakened constraints that must not seed a later
    /// full-precision round.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn solve_governed<P, Ctx>(
        problem: &P,
        icfg: &'g G,
        ctx: &Ctx,
        model: Option<&FeatureExpr>,
        mode: ModelMode,
        gov: GovernorOptions,
        memo: SolverMemo<G::Method, G::Stmt, D, ConstraintEdge<C>>,
        changed: &[G::Method],
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
        // The schedule starts at the full point, the one attempt whose
        // edges the memo's jump functions were built from: it takes the
        // memo, and every later attempt finds `None` and solves cold.
        let mut seed = Some((memo, changed));
        let mut last_abort = None;
        for point in points {
            let (memo, changed) = seed.take().unwrap_or_default();
            // Arm before *constructing* the problem: translating the
            // annotations and the model (and applying the abstraction
            // transformers) runs constraint operations that can
            // themselves blow up.
            if gov.arms_budget() {
                ctx.arm_budget(gov.max_bdd_nodes, gov.max_bdd_ops);
            }
            let options = gov.solver_options();
            let is_full = point.is_full();
            let lifted = LiftedProblem::abstracted(problem, icfg, ctx, model, mode, &point);
            // The constraint work above can already exhaust the budget;
            // bail out before solving on garbage constraints.
            if let Err(reason) = ctx.budget_status() {
                let abort = SolveAbort::Budget(reason);
                attempts.push((point, abort.to_string()));
                last_abort = Some(abort);
                continue;
            }
            match IdeSolver::try_solve_seeded(&lifted, &lifted_icfg, options, memo, changed) {
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
