//! The two-phase IDE solver.
//!
//! Phase 1 tabulates *jump functions* — symbolic compositions of edge
//! functions from `(sp(m), d1)` to `(n, d2)` — together with summary
//! functions for calls, exactly like the IFDS tabulation but over
//! (fact, edge-function) pairs. Phase 2 seeds concrete values at the entry
//! points, pushes them across call edges to all procedure entries, and
//! finally evaluates every jump function once.

use crate::{EdgeFn, IdeProblem};
use spllift_hash::{FastMap, FastSet};
use spllift_ifds::{Icfg, SolveAbort, SolveLimits};
use std::collections::VecDeque;

/// Counters collected during an IDE solver run.
///
/// `jump_fn_constructions` counts every time a jump function is created or
/// strengthened — the quantity the paper's §6.2 correlates with running
/// time (ρ > 0.99). The solver is sequential, so every counter —
/// including the scheduling counters `propagations`, `flow_evals` and
/// `value_updates` — is deterministic for a given problem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdeStats {
    /// Phase-1 worklist items processed.
    pub propagations: u64,
    /// Flow-function evaluations (phase 1).
    pub flow_evals: u64,
    /// Jump-function creations + strengthenings.
    pub jump_fn_constructions: u64,
    /// Propagations discarded because the jump function was a kill
    /// function (early termination, paper §4.2).
    pub killed_early: u64,
    /// Phase-2 value updates.
    pub value_updates: u64,
}

/// Tuning knobs for the IDE solver.
///
/// The defaults are what [`IdeSolver::solve`] uses; pass an explicit
/// value to [`IdeSolver::solve_with`] or [`IdeSolver::try_solve_seeded`]
/// to govern a solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdeSolverOptions {
    /// Propagation cap and wall-clock deadline. When any bound is set,
    /// [`IdeSolver::try_solve_seeded`] aborts with the matching
    /// [`SolveAbort`]; the infallible entry points panic. Unlimited by
    /// default, in which case the per-iteration checks are skipped and
    /// the hot path is byte-for-byte the ungoverned one.
    pub limits: SolveLimits,
    /// Poll [`IdeProblem::budget_check`] between propagations and abort
    /// with [`SolveAbort::Budget`] when the value domain's resource
    /// budget is exhausted. Off by default (the poll costs a virtual
    /// call per propagation); governed solves that arm a constraint
    /// budget must turn it on.
    pub poll_budget: bool,
}

/// Reusable Phase-1 artifacts of a completed solve: jump functions and
/// Reps–Horwitz–Sagiv end summaries, keyed exactly as Phase 1 keeps
/// them. [`IdeSolver::try_solve_seeded`] consumes a memo to warm-start an
/// *incremental* re-solve: entries belonging to methods the caller
/// declares clean are preloaded at their fixpoint, so the solver only
/// re-tabulates the dirty region; entries for dirty methods are
/// discarded and recomputed.
///
/// Soundness requires the clean set to be closed under "calls into":
/// a clean method must only call clean methods (equivalently, the dirty
/// set must contain every transitive *caller* of an edited method).
/// Under that closure a clean method's summaries depend only on
/// unchanged code, so they are final, and the warm solve's fixpoint —
/// and therefore its values — is identical to a cold solve's.
pub struct SolverMemo<M, S, D, EF> {
    /// `(stmt, entry-fact) → target-fact → jump function`, at fixpoint.
    jump: FastMap<(S, D), FastMap<D, EF>>,
    /// `(method, entry-fact) → (exit stmt, exit fact) → summary`.
    end_summary: FastMap<(M, D), FastMap<(S, D), EF>>,
}

impl<M, S, D, EF> Default for SolverMemo<M, S, D, EF> {
    fn default() -> Self {
        SolverMemo {
            jump: FastMap::default(),
            end_summary: FastMap::default(),
        }
    }
}

impl<M, S, D, EF> SolverMemo<M, S, D, EF> {
    /// `true` if the memo carries no retained state (a seeded solve with
    /// an empty memo is exactly a cold solve).
    pub fn is_empty(&self) -> bool {
        self.jump.is_empty() && self.end_summary.is_empty()
    }

    /// Number of retained jump-function entries.
    pub fn jump_fns(&self) -> usize {
        self.jump.values().map(FastMap::len).sum()
    }

    /// Number of retained `(method, entry-fact)` summary keys.
    pub fn summary_keys(&self) -> usize {
        self.end_summary.len()
    }
}

/// The IDE solver. Build with [`IdeSolver::solve`].
#[derive(Debug)]
pub struct IdeSolver<G: Icfg, D, V>
where
    D: Clone + Eq + std::hash::Hash,
{
    /// Values keyed per statement, then per fact — so per-statement
    /// queries (`results_at`) are O(facts at that statement).
    values: FastMap<G::Stmt, FastMap<D, V>>,
    top: V,
    zero: D,
    stats: IdeStats,
}

impl<G, D, V> IdeSolver<G, D, V>
where
    G: Icfg,
    D: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    V: Clone + Eq + std::fmt::Debug,
{
    /// Runs both phases of the IDE algorithm to a fixpoint with the
    /// default [`IdeSolverOptions`].
    pub fn solve<P>(problem: &P, icfg: &G) -> Self
    where
        P: IdeProblem<G, Fact = D, Value = V>,
    {
        Self::solve_with(problem, icfg, IdeSolverOptions::default())
    }

    /// Runs both phases of the IDE algorithm to a fixpoint with explicit
    /// [`IdeSolverOptions`]; panics if a governance bound aborts the
    /// solve (use [`try_solve_seeded`](Self::try_solve_seeded) to handle
    /// [`SolveAbort`]).
    pub fn solve_with<P>(problem: &P, icfg: &G, options: IdeSolverOptions) -> Self
    where
        P: IdeProblem<G, Fact = D, Value = V>,
    {
        Self::try_solve_seeded(problem, icfg, options, &SolverMemo::default(), &|_| false)
            .expect("governed solve aborted; use try_solve_seeded to handle SolveAbort")
            .0
    }

    /// Governed, incremental solve: warm-starts Phase 1 from `memo`,
    /// keeping the retained jump functions and end summaries of every
    /// method `m` with `clean(m)`, and re-tabulating everything else.
    /// Returns the solution together with a fresh memo for the *next*
    /// solve.
    ///
    /// The caller guarantees the clean-set closure documented on
    /// [`SolverMemo`]; with it, the result is identical to a cold
    /// [`solve_with`](Self::solve_with) while
    /// [`IdeStats::propagations`] only counts work in the dirty region
    /// (plus any new entry facts flowing into clean methods).
    ///
    /// Aborts with a [`SolveAbort`] when an [`IdeSolverOptions::limits`]
    /// bound is hit or (with [`IdeSolverOptions::poll_budget`]) the
    /// problem reports budget exhaustion. The partial tabulation is
    /// discarded on abort.
    pub fn try_solve_seeded<P>(
        problem: &P,
        icfg: &G,
        options: IdeSolverOptions,
        memo: &SolverMemo<G::Method, G::Stmt, D, P::EF>,
        clean: &dyn Fn(G::Method) -> bool,
    ) -> Result<(Self, SolverMemo<G::Method, G::Stmt, D, P::EF>), SolveAbort>
    where
        P: IdeProblem<G, Fact = D, Value = V>,
    {
        // Preload clean methods' Phase-1 state. Jump entries enter with
        // a cleared pending flag: they are already at fixpoint, so the
        // initial seeds re-joining the identity edge find no change and
        // queue nothing — a fully clean program re-solves with zero
        // propagations.
        let mut jump: FastMap<(G::Stmt, P::Fact), FastMap<P::Fact, JumpEntry<P::EF>>> =
            FastMap::default();
        for (key, fns) in &memo.jump {
            if clean(icfg.method_of(key.0)) {
                jump.insert(
                    key.clone(),
                    fns.iter()
                        .map(|(d, f)| (d.clone(), (f.clone(), false)))
                        .collect(),
                );
            }
        }
        let mut end_summary: FastMap<(G::Method, P::Fact), FastMap<(G::Stmt, P::Fact), P::EF>> =
            FastMap::default();
        let mut sealed: FastSet<(G::Method, P::Fact)> = FastSet::default();
        for (key, summaries) in &memo.end_summary {
            if clean(key.0) {
                sealed.insert(key.clone());
                end_summary.insert(key.clone(), summaries.clone());
            }
        }
        let mut phase1 = Phase1::<G, P> {
            jump,
            worklist: VecDeque::new(),
            incoming: FastMap::default(),
            end_summary,
            sealed,
            stats: IdeStats::default(),
        };
        phase1.run(problem, icfg, &options)?;
        let (values, stats) = phase2(problem, icfg, &phase1.jump, phase1.stats, &options)?;
        let next_memo = SolverMemo {
            jump: phase1
                .jump
                .into_iter()
                .map(|(k, fns)| (k, fns.into_iter().map(|(d, (f, _))| (d, f)).collect()))
                .collect(),
            end_summary: phase1.end_summary,
        };
        Ok((
            IdeSolver {
                values,
                top: problem.top(),
                zero: problem.zero(),
                stats,
            },
            next_memo,
        ))
    }

    /// The value computed for `fact` at `stmt` (⊤ if never reached).
    pub fn value_at(&self, stmt: G::Stmt, fact: &D) -> V {
        self.values
            .get(&stmt)
            .and_then(|m| m.get(fact))
            .cloned()
            .unwrap_or_else(|| self.top.clone())
    }

    /// All (fact, value) pairs at `stmt` whose value is not ⊤.
    pub fn results_at(&self, stmt: G::Stmt) -> FastMap<D, V> {
        self.values
            .get(&stmt)
            .map(|m| {
                m.iter()
                    .filter(|(_, v)| **v != self.top)
                    .map(|(d, v)| (d.clone(), v.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The value of the zero fact at `stmt` — in SPLLIFT, the reachability
    /// constraint of the statement (paper §3.3).
    pub fn reachability_of(&self, stmt: G::Stmt) -> V {
        self.value_at(stmt, &self.zero)
    }

    /// Every (stmt, fact, value) triple with a non-⊤ value.
    pub fn all_results(&self) -> impl Iterator<Item = (G::Stmt, &D, &V)> {
        self.values.iter().flat_map(move |(s, m)| {
            m.iter()
                .filter(move |(_, v)| **v != self.top)
                .map(move |(d, v)| (*s, d, v))
        })
    }

    /// Solver counters.
    pub fn stats(&self) -> IdeStats {
        self.stats
    }
}

/// A Phase-1 jump function plus its worklist status. The `bool` is
/// `true` while the owning `(d1, n, d2)` triple sits in the worklist —
/// tracked inline so dedup costs no extra hashing or fact clones (the
/// flag rides on map lookups `propagate`/`run` perform anyway).
type JumpEntry<EF> = (EF, bool);

/// Phase-1 state. Jump functions are keyed `(stmt, d1) → d2 → EF`, where
/// `d1` is the fact at the start point of `stmt`'s method.
struct Phase1<G: Icfg, P: IdeProblem<G>> {
    jump: FastMap<(G::Stmt, P::Fact), FastMap<P::Fact, JumpEntry<P::EF>>>,
    worklist: VecDeque<(P::Fact, G::Stmt, P::Fact)>,
    /// (callee, entry fact) → {(call stmt, fact at call, caller sp fact)}.
    incoming: FastMap<(G::Method, P::Fact), FastSet<(G::Stmt, P::Fact, P::Fact)>>,
    /// (callee, entry fact) → (exit stmt, exit fact) → summary EF.
    end_summary: FastMap<(G::Method, P::Fact), FastMap<(G::Stmt, P::Fact), P::EF>>,
    /// `(method, entry fact)` keys whose end summaries were preloaded
    /// from a [`SolverMemo`] and are known final: calls reaching such an
    /// entry apply the cached summaries without re-tabulating the callee
    /// body for that entry fact.
    sealed: FastSet<(G::Method, P::Fact)>,
    stats: IdeStats,
}

impl<G, P> Phase1<G, P>
where
    G: Icfg,
    P: IdeProblem<G>,
{
    fn propagate(&mut self, d1: P::Fact, n: G::Stmt, d2: P::Fact, f: P::EF) {
        if f.is_kill() {
            self.stats.killed_early += 1;
            return;
        }
        let slot = self.jump.entry((n, d1.clone())).or_default();
        // `queue` means: strengthened AND not already pending (a pending
        // entry reads the latest jump function when it is popped, so
        // re-queuing it would only burn a propagation).
        let (changed, queue) = match slot.get_mut(&d2) {
            None => {
                slot.insert(d2.clone(), (f, true));
                (true, true)
            }
            Some((old, queued)) => {
                let joined = old.join(&f);
                if joined != *old {
                    *old = joined;
                    let requeue = !*queued;
                    *queued = true;
                    (true, requeue)
                } else {
                    (false, false)
                }
            }
        };
        if changed {
            self.stats.jump_fn_constructions += 1;
        }
        if queue {
            self.worklist.push_back((d1, n, d2));
        }
    }

    fn jump_of(&self, n: G::Stmt, d1: &P::Fact, d2: &P::Fact) -> Option<P::EF> {
        self.jump
            .get(&(n, d1.clone()))?
            .get(d2)
            .map(|(f, _)| f.clone())
    }

    /// [`jump_of`](Self::jump_of) for the just-popped worklist triple:
    /// additionally clears its pending flag, so later strengthenings
    /// queue it again.
    fn take_jump(&mut self, n: G::Stmt, d1: &P::Fact, d2: &P::Fact) -> Option<P::EF> {
        let (f, queued) = self.jump.get_mut(&(n, d1.clone()))?.get_mut(d2)?;
        *queued = false;
        Some(f.clone())
    }

    fn run(&mut self, problem: &P, icfg: &G, options: &IdeSolverOptions) -> Result<(), SolveAbort> {
        let governed = options.limits.armed() || options.poll_budget;
        for (sp, fact) in problem.initial_seeds(icfg) {
            self.propagate(fact.clone(), sp, fact, problem.id_edge());
        }
        while let Some((d1, n, d2)) = self.worklist.pop_front() {
            self.stats.propagations += 1;
            if governed {
                governance_check(options, self.stats.propagations, problem)?;
            }
            // Snapshot of the (current) jump function for this triple;
            // clears its pending flag.
            let Some(f) = self.take_jump(n, &d1, &d2) else {
                continue;
            };
            let method = icfg.method_of(n);
            if icfg.is_call(n) {
                self.process_call(problem, icfg, &d1, n, &d2, &f);
            } else {
                if icfg.is_exit(n) {
                    self.process_exit(problem, icfg, method, &d1, n, &d2, &f);
                }
                // Exit statements normally have no successors, but in a
                // lifted SPL graph a *disabled* return falls through
                // (paper Fig. 4): propagate normal flow along any extra
                // successors the ICFG reports.
                for succ in icfg.successors_of(n) {
                    self.stats.flow_evals += 1;
                    for (d3, g) in problem.flow_normal(icfg, n, succ, &d2) {
                        self.propagate(d1.clone(), succ, d3, f.compose_with(&g));
                    }
                }
            }
        }
        Ok(())
    }

    fn process_call(
        &mut self,
        problem: &P,
        icfg: &G,
        d1: &P::Fact,
        n: G::Stmt,
        d2: &P::Fact,
        f: &P::EF,
    ) {
        for callee in icfg.callees_of(n) {
            self.stats.flow_evals += 1;
            for (d3, g_call) in problem.flow_call(icfg, n, callee, d2) {
                let sp = icfg.start_point_of(callee);
                let key = (callee, d3.clone());
                // Callee-local jump functions start from the identity —
                // unless this entry is sealed (its summaries were
                // preloaded at fixpoint), in which case re-tabulating
                // the callee body would be pure wasted work.
                if !self.sealed.contains(&key) {
                    self.propagate(d3.clone(), sp, d3.clone(), problem.id_edge());
                }
                self.incoming
                    .entry(key.clone())
                    .or_default()
                    .insert((n, d2.clone(), d1.clone()));
                let summaries: Vec<((G::Stmt, P::Fact), P::EF)> = self
                    .end_summary
                    .get(&key)
                    .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
                    .unwrap_or_default();
                for ((exit, d4), f_summary) in summaries {
                    for r in icfg.return_sites_of(n) {
                        self.stats.flow_evals += 1;
                        for (d5, g_ret) in problem.flow_return(icfg, n, callee, exit, r, &d4) {
                            let composed = f
                                .compose_with(&g_call)
                                .compose_with(&f_summary)
                                .compose_with(&g_ret);
                            self.propagate(d1.clone(), r, d5, composed);
                        }
                    }
                }
            }
        }
        for r in icfg.return_sites_of(n) {
            self.stats.flow_evals += 1;
            for (d3, g) in problem.flow_call_to_return(icfg, n, r, d2) {
                self.propagate(d1.clone(), r, d3, f.compose_with(&g));
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_exit(
        &mut self,
        problem: &P,
        icfg: &G,
        method: G::Method,
        d1: &P::Fact,
        n: G::Stmt,
        d2: &P::Fact,
        f: &P::EF,
    ) {
        let key = (method, d1.clone());
        let entry = self
            .end_summary
            .entry(key.clone())
            .or_default()
            .entry((n, d2.clone()));
        use std::collections::hash_map::Entry;
        let changed = match entry {
            Entry::Vacant(v) => {
                v.insert(f.clone());
                true
            }
            Entry::Occupied(mut o) => {
                let joined = o.get().join(f);
                if joined != *o.get() {
                    o.insert(joined);
                    true
                } else {
                    false
                }
            }
        };
        if !changed {
            return;
        }
        let callers: Vec<(G::Stmt, P::Fact, P::Fact)> = self
            .incoming
            .get(&key)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        for (call, d2c, d1c) in callers {
            let Some(f_prefix) = self.jump_of(call, &d1c, &d2c) else {
                continue;
            };
            self.stats.flow_evals += 1;
            for (d3, g_call) in problem.flow_call(icfg, call, method, &d2c) {
                if d3 != *d1 {
                    continue;
                }
                for r in icfg.return_sites_of(call) {
                    self.stats.flow_evals += 1;
                    for (d5, g_ret) in problem.flow_return(icfg, call, method, n, r, d2) {
                        let composed = f_prefix
                            .compose_with(&g_call)
                            .compose_with(&f.clone())
                            .compose_with(&g_ret);
                        self.propagate(d1c.clone(), r, d5, composed);
                    }
                }
            }
        }
    }
}

/// The per-propagation governance probe: bounds first (cheap integer /
/// clock tests), then the value-domain budget poll.
fn governance_check<G, P>(
    options: &IdeSolverOptions,
    propagations: u64,
    problem: &P,
) -> Result<(), SolveAbort>
where
    G: Icfg,
    P: IdeProblem<G>,
{
    options.limits.check(propagations)?;
    if options.poll_budget {
        problem.budget_check().map_err(SolveAbort::Budget)?;
    }
    Ok(())
}

/// Phase 2: propagate concrete values to all procedure entries, then
/// evaluate every jump function once.
fn phase2<G, P>(
    problem: &P,
    icfg: &G,
    jump: &FastMap<(G::Stmt, P::Fact), FastMap<P::Fact, JumpEntry<P::EF>>>,
    mut stats: IdeStats,
    options: &IdeSolverOptions,
) -> Result<(FastMap<G::Stmt, FastMap<P::Fact, P::Value>>, IdeStats), SolveAbort>
where
    G: Icfg,
    P: IdeProblem<G>,
{
    let governed = options.limits.armed() || options.poll_budget;
    let mut values: FastMap<G::Stmt, FastMap<P::Fact, P::Value>> = FastMap::default();
    let mut worklist: VecDeque<(G::Method, P::Fact)> = VecDeque::new();
    let top = problem.top();

    let update = |values: &mut FastMap<G::Stmt, FastMap<P::Fact, P::Value>>,
                  stats: &mut IdeStats,
                  stmt: G::Stmt,
                  fact: P::Fact,
                  v: P::Value|
     -> bool {
        let slot = values
            .entry(stmt)
            .or_default()
            .entry(fact)
            .or_insert_with(|| top.clone());
        let joined = problem.join_values(slot, &v);
        if joined != *slot {
            *slot = joined;
            stats.value_updates += 1;
            true
        } else {
            false
        }
    };

    for (sp, fact) in problem.initial_seeds(icfg) {
        if update(
            &mut values,
            &mut stats,
            sp,
            fact.clone(),
            problem.seed_value(),
        ) {
            worklist.push_back((icfg.method_of(sp), fact));
        }
    }

    // Inter-procedural value propagation between procedure entries.
    while let Some((m, d1)) = worklist.pop_front() {
        if governed {
            governance_check(options, stats.propagations, problem)?;
        }
        let sp = icfg.start_point_of(m);
        let v = values
            .get(&sp)
            .and_then(|facts| facts.get(&d1))
            .cloned()
            .unwrap_or_else(|| top.clone());
        for call in icfg.calls_in(m) {
            let Some(fns) = jump.get(&(call, d1.clone())) else {
                continue;
            };
            for (d2, (f, _)) in fns {
                let vc = f.apply(&v);
                if vc == top {
                    continue;
                }
                for callee in icfg.callees_of(call) {
                    for (d3, g) in problem.flow_call(icfg, call, callee, d2) {
                        let nv = g.apply(&vc);
                        if nv == top {
                            continue;
                        }
                        let spq = icfg.start_point_of(callee);
                        if update(&mut values, &mut stats, spq, d3.clone(), nv) {
                            worklist.push_back((callee, d3));
                        }
                    }
                }
            }
        }
    }

    // Evaluate jump functions at every node from the entry values.
    let mut entry_values: Vec<(G::Stmt, P::Fact, P::Value)> = Vec::new();
    for (&sp, facts) in &values {
        if icfg.start_point_of(icfg.method_of(sp)) != sp {
            continue;
        }
        for (d1, v) in facts {
            entry_values.push((sp, d1.clone(), v.clone()));
        }
    }
    for (sp, d1, v) in entry_values {
        if governed {
            governance_check(options, stats.propagations, problem)?;
        }
        let m = icfg.method_of(sp);
        for n in icfg.stmts_of(m) {
            let Some(fns) = jump.get(&(n, d1.clone())) else {
                continue;
            };
            for (d2, (f, _)) in fns {
                let nv = f.apply(&v);
                if nv == top {
                    continue;
                }
                update(&mut values, &mut stats, n, d2.clone(), nv);
            }
        }
    }

    // Value application itself runs constraint operations; a budget can
    // therefore first trip here, after phase 1 fit. Catch it before the
    // garbage values escape.
    if governed {
        governance_check(options, stats.propagations, problem)?;
    }

    Ok((values, stats))
}
