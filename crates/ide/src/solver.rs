//! The two-phase IDE solver.
//!
//! Phase 1 tabulates *jump functions* — symbolic compositions of edge
//! functions from `(sp(m), d1)` to `(n, d2)` — together with summary
//! functions for calls, exactly like the IFDS tabulation but over
//! (fact, edge-function) pairs. Phase 2 seeds concrete values at the entry
//! points, pushes them across call edges to all procedure entries, and
//! finally evaluates every jump function once.
//!
//! Phase 1's worklist pops the pending triple whose statement is smallest
//! under `Icfg::Stmt`'s `Ord` (source order for the MiniJava ICFG), the
//! earliest push first among equal statements. Where statement order
//! follows control flow, a jump function is usually final before it is
//! propagated, so it is propagated once instead of once per
//! strengthening. Any order that eventually pops every pending triple
//! reaches the same least fixpoint: the order moves the scheduling
//! counters, never a value.

use crate::{EdgeFn, IdeProblem};
use spllift_hash::{FastMap, FastSet};
use spllift_ifds::Icfg;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Counters collected during an IDE solver run.
///
/// `jump_fn_constructions` counts every time a jump function is created or
/// strengthened — the quantity the paper's §6.2 correlates with running
/// time (ρ > 0.99). The solver is sequential, so every counter is
/// deterministic for a given problem. All but `value_updates` count the
/// Phase-1 schedule, so they move with the worklist order while the
/// values do not; `value_updates` moves only where a jump table's
/// iteration order does.
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

/// Why a governed solve stopped before reaching its fixpoint.
///
/// Returned by [`IdeSolver::try_solve_seeded`] when a [`SolveLimits`]
/// bound (or the constraint engine's resource budget) was hit. The
/// partial state computed up to the abort is discarded — a degraded
/// re-solve, not a partial answer, is the supported recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveAbort {
    /// The value domain's resource budget (e.g. the BDD node or op
    /// budget) was exhausted; the payload is the engine's description.
    Budget(String),
    /// The propagation cap was reached.
    PropagationLimit(u64),
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for SolveAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveAbort::Budget(why) => write!(f, "budget exhausted: {why}"),
            SolveAbort::PropagationLimit(n) => write!(f, "propagation limit {n} reached"),
            SolveAbort::Deadline => f.write_str("deadline exceeded"),
        }
    }
}

impl std::error::Error for SolveAbort {}

/// Resource bounds for a governed solve. The default is unlimited, under
/// which a governed solve behaves exactly like a plain one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveLimits {
    /// Abort with [`SolveAbort::PropagationLimit`] after this many
    /// worklist items.
    pub max_propagations: Option<u64>,
    /// Abort with [`SolveAbort::Deadline`] once `Instant::now()` passes
    /// this point.
    pub deadline: Option<Instant>,
}

impl SolveLimits {
    /// `true` if any bound is set (the solver skips per-iteration checks
    /// entirely otherwise, keeping the ungoverned hot path unchanged).
    fn armed(&self) -> bool {
        self.max_propagations.is_some() || self.deadline.is_some()
    }

    /// Checks the bounds against the current propagation count.
    fn check(&self, propagations: u64) -> Result<(), SolveAbort> {
        if let Some(max) = self.max_propagations {
            if propagations > max {
                return Err(SolveAbort::PropagationLimit(max));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(SolveAbort::Deadline);
            }
        }
        Ok(())
    }
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

/// `(stmt, entry fact) → target fact → jump function`, each entry with
/// its pending flag (see [`JumpEntry`]).
type JumpTable<S, D, EF> = FastMap<(S, D), FastMap<D, JumpEntry<EF>>>;

/// `(method, entry fact) → (exit stmt, exit fact) → summary`.
type EndSummaries<M, S, D, EF> = FastMap<(M, D), FastMap<(S, D), EF>>;

/// `(callee, entry fact) → {(call stmt, fact at call, caller sp fact)}`.
type Incoming<M, S, D> = FastMap<(M, D), FastSet<(S, D, D)>>;

/// Phase 2's values: `stmt → fact → value`.
type Values<S, D, V> = FastMap<S, FastMap<D, V>>;

/// Phase 2's values for a solve of problem `P` over `G`.
type ValuesOf<G, P> =
    Values<<G as Icfg>::Stmt, <P as IdeProblem<G>>::Fact, <P as IdeProblem<G>>::Value>;

/// The memo type of a solve of problem `P` over `G`.
type MemoOf<G, P> = SolverMemo<
    <G as Icfg>::Method,
    <G as Icfg>::Stmt,
    <P as IdeProblem<G>>::Fact,
    <P as IdeProblem<G>>::EF,
>;

/// Reusable Phase-1 artifacts of a completed solve: jump functions and
/// Reps–Horwitz–Sagiv end summaries — Phase 1's own tables, moved out of
/// the solve at its fixpoint (where every pending flag is clear).
/// [`IdeSolver::try_solve_seeded`] consumes a memo to warm-start an
/// *incremental* re-solve from the methods whose flow functions the
/// caller names as changed: the solver keeps, in place and at their
/// fixpoint, the entries of every method that is reachable in the
/// current ICFG and does not transitively call a changed method, drops
/// the rest, and re-tabulates them on the same tables.
///
/// Each kept method therefore only calls kept methods, whose
/// bodies are unchanged, so its summaries are final and the warm solve's
/// fixpoint — and therefore its values — is identical to a cold solve's.
/// Phase 1 only tabulates reachable methods and a warm start keeps
/// only reachable ones, so a memo never holds entries of a method that
/// was unreachable in the program it was solved on: the changed set of
/// an edit need not cover callers that the edit's program cannot reach.
pub struct SolverMemo<M, S, D, EF> {
    jump: JumpTable<S, D, EF>,
    end_summary: EndSummaries<M, S, D, EF>,
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
}

/// The IDE solver. Build with [`IdeSolver::solve`].
#[derive(Debug)]
pub struct IdeSolver<G: Icfg, D, V>
where
    D: Clone + Eq + std::hash::Hash,
{
    /// Values keyed per statement, then per fact — so per-statement
    /// queries (`results_at`) are O(facts at that statement).
    values: Values<G::Stmt, D, V>,
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
        Self::try_solve_seeded(problem, icfg, options, SolverMemo::default(), &[])
            .expect("governed solve aborted; use try_solve_seeded to handle SolveAbort")
            .0
    }

    /// Governed, incremental solve: warm-starts Phase 1 from `memo`,
    /// which it consumes. `changed` must name every method whose flow
    /// functions or call edges differ from those of the solve `memo`
    /// came from; the solver keeps the jump functions and end summaries
    /// of every method that is reachable in `icfg` and none of whose
    /// transitive callees is in `changed` (see [`SolverMemo`]), drops
    /// the others, and re-tabulates everything else on the same tables.
    /// Returns the solution together with the memo for the *next* solve:
    /// this solve's Phase-1 tables, moved, not copied.
    ///
    /// The result is identical to a cold [`solve_with`](Self::solve_with)
    /// while [`IdeStats::propagations`] only counts work outside the
    /// kept methods (plus any new entry facts flowing into them).
    /// An empty memo is a cold solve, which computes no reachability.
    ///
    /// Aborts with a [`SolveAbort`] when an [`IdeSolverOptions::limits`]
    /// bound is hit or (with [`IdeSolverOptions::poll_budget`]) the
    /// problem reports budget exhaustion. The partial tabulation is
    /// discarded on abort, and `memo` with it.
    pub fn try_solve_seeded<P>(
        problem: &P,
        icfg: &G,
        options: IdeSolverOptions,
        mut memo: MemoOf<G, P>,
        changed: &[G::Method],
    ) -> Result<(Self, MemoOf<G, P>), SolveAbort>
    where
        P: IdeProblem<G, Fact = D, Value = V>,
    {
        // Keep the reusable methods' Phase-1 state. The memo's jump
        // entries carry cleared pending flags: they are already at
        // fixpoint, so the initial seeds re-joining the identity edge —
        // and calls re-joining a kept callee's entry — find no change
        // and queue nothing: a program with nothing changed re-solves
        // with zero propagations. Both phases only look the outer tables
        // up, never iterate them, so filtering them in place rather than
        // copying the kept entries out moves no value or counter.
        if !memo.is_empty() {
            let reusable = reusable_methods(icfg, changed);
            memo.jump
                .retain(|key, _| reusable.contains(&icfg.method_of(key.0)));
            memo.end_summary.retain(|key, _| reusable.contains(&key.0));
        }
        let SolverMemo { jump, end_summary } = memo;
        let mut phase1 = Phase1::<G, P> {
            tab: Tabulation {
                jump,
                worklist: Worklist {
                    heap: BinaryHeap::new(),
                    pushes: 0,
                },
                stats: IdeStats::default(),
            },
            incoming: FastMap::default(),
            end_summary,
            normal_buf: Vec::new(),
            call_buf: Vec::new(),
            ret_buf: Vec::new(),
        };
        phase1.run(problem, icfg, &options)?;
        let Phase1 {
            tab, end_summary, ..
        } = phase1;
        let mut stats = tab.stats;
        let values = phase2(problem, icfg, &tab.jump, &mut stats, &options)?;
        Ok((
            IdeSolver {
                values,
                top: problem.top(),
                zero: problem.zero(),
                stats,
            },
            SolverMemo {
                jump: tab.jump,
                end_summary,
            },
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

/// A pending `(d1, n, d2)` triple. Ordered by `(n, seq)` alone,
/// reversed, so the max-heap [`BinaryHeap`] pops the smallest statement
/// first and, among equal statements, the earliest push; facts are never
/// compared.
struct Pending<S, D> {
    stmt: S,
    seq: u64,
    d1: D,
    d2: D,
}

impl<S: Ord, D> Ord for Pending<S, D> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&other.stmt, other.seq).cmp(&(&self.stmt, self.seq))
    }
}

impl<S: Ord, D> PartialOrd for Pending<S, D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S: Ord, D> PartialEq for Pending<S, D> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<S: Ord, D> Eq for Pending<S, D> {}

/// Phase 1's worklist: pending triples popped in statement order (see
/// the module docs), each push numbered to break ties first-in first-out.
struct Worklist<S, D> {
    heap: BinaryHeap<Pending<S, D>>,
    pushes: u64,
}

impl<S: Ord, D> Worklist<S, D> {
    fn push(&mut self, d1: D, stmt: S, d2: D) {
        self.pushes += 1;
        self.heap.push(Pending {
            stmt,
            seq: self.pushes,
            d1,
            d2,
        });
    }

    fn pop(&mut self) -> Option<(D, S, D)> {
        self.heap.pop().map(|p| (p.d1, p.stmt, p.d2))
    }
}

/// What [`Tabulation::propagate`] writes: the jump table, the worklist
/// and the counters. Jump functions are keyed `(stmt, d1) → d2 → EF`,
/// where `d1` is the fact at the start point of `stmt`'s method.
struct Tabulation<G: Icfg, P: IdeProblem<G>> {
    jump: JumpTable<G::Stmt, P::Fact, P::EF>,
    worklist: Worklist<G::Stmt, P::Fact>,
    stats: IdeStats,
}

/// Phase-1 state. The caller and end-summary tables sit beside the
/// [`Tabulation`], so a call or exit reads them in place while it
/// propagates.
struct Phase1<G: Icfg, P: IdeProblem<G>> {
    tab: Tabulation<G, P>,
    incoming: Incoming<G::Method, G::Stmt, P::Fact>,
    end_summary: EndSummaries<G::Method, G::Stmt, P::Fact, P::EF>,
    /// Flow-result buffers, one per nesting level: a call's return flows
    /// are evaluated while its call flow's results are still being read.
    normal_buf: Vec<(P::Fact, P::EF)>,
    call_buf: Vec<(P::Fact, P::EF)>,
    ret_buf: Vec<(P::Fact, P::EF)>,
}

impl<G, P> Tabulation<G, P>
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
            self.worklist.push(d1, n, d2);
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
}

impl<G, P> Phase1<G, P>
where
    G: Icfg,
    P: IdeProblem<G>,
{
    fn run(&mut self, problem: &P, icfg: &G, options: &IdeSolverOptions) -> Result<(), SolveAbort> {
        let governed = options.limits.armed() || options.poll_budget;
        for (sp, fact) in problem.initial_seeds(icfg) {
            self.tab
                .propagate(fact.clone(), sp, fact, problem.id_edge());
        }
        while let Some((d1, n, d2)) = self.tab.worklist.pop() {
            self.tab.stats.propagations += 1;
            if governed {
                governance_check(options, self.tab.stats.propagations, problem)?;
            }
            // Snapshot of the (current) jump function for this triple;
            // clears its pending flag.
            let Some(f) = self.tab.take_jump(n, &d1, &d2) else {
                continue;
            };
            if icfg.is_call(n) {
                self.process_call(problem, icfg, &d1, n, &d2, &f);
            } else {
                if icfg.is_exit(n) {
                    self.process_exit(problem, icfg, &d1, n, &d2, &f);
                }
                // Exit statements normally have no successors, but in a
                // lifted SPL graph a *disabled* return falls through
                // (paper Fig. 4): propagate normal flow along any extra
                // successors the ICFG reports.
                for &succ in icfg.successors_of(n) {
                    self.tab.stats.flow_evals += 1;
                    self.normal_buf.clear();
                    problem.flow_normal(icfg, n, succ, &d2, &mut self.normal_buf);
                    for (d3, g) in self.normal_buf.drain(..) {
                        self.tab.propagate(d1.clone(), succ, d3, f.compose_with(&g));
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
        for &callee in icfg.callees_of(n) {
            self.tab.stats.flow_evals += 1;
            self.call_buf.clear();
            problem.flow_call(icfg, n, callee, d2, &mut self.call_buf);
            for (d3, g_call) in self.call_buf.iter() {
                let sp = icfg.start_point_of(callee);
                let key = (callee, d3.clone());
                // Callee-local jump functions start from the identity.
                self.tab
                    .propagate(d3.clone(), sp, d3.clone(), problem.id_edge());
                self.incoming
                    .entry(key.clone())
                    .or_default()
                    .insert((n, d2.clone(), d1.clone()));
                let Some(summaries) = self.end_summary.get(&key) else {
                    continue;
                };
                for ((exit, d4), f_summary) in summaries {
                    for &r in icfg.return_sites_of(n) {
                        self.tab.stats.flow_evals += 1;
                        self.ret_buf.clear();
                        problem.flow_return(icfg, n, callee, *exit, r, d4, &mut self.ret_buf);
                        for (d5, g_ret) in self.ret_buf.drain(..) {
                            let composed = f
                                .compose_with(g_call)
                                .compose_with(f_summary)
                                .compose_with(&g_ret);
                            self.tab.propagate(d1.clone(), r, d5, composed);
                        }
                    }
                }
            }
        }
        for &r in icfg.return_sites_of(n) {
            self.tab.stats.flow_evals += 1;
            self.normal_buf.clear();
            problem.flow_call_to_return(icfg, n, r, d2, &mut self.normal_buf);
            for (d3, g) in self.normal_buf.drain(..) {
                self.tab.propagate(d1.clone(), r, d3, f.compose_with(&g));
            }
        }
    }

    fn process_exit(
        &mut self,
        problem: &P,
        icfg: &G,
        d1: &P::Fact,
        n: G::Stmt,
        d2: &P::Fact,
        f: &P::EF,
    ) {
        let method = icfg.method_of(n);
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
        let Some(callers) = self.incoming.get(&key) else {
            return;
        };
        for (call, d2c, d1c) in callers {
            let Some(f_prefix) = self.tab.jump_of(*call, d1c, d2c) else {
                continue;
            };
            self.tab.stats.flow_evals += 1;
            self.call_buf.clear();
            problem.flow_call(icfg, *call, method, d2c, &mut self.call_buf);
            for (d3, g_call) in self.call_buf.iter() {
                if d3 != d1 {
                    continue;
                }
                for &r in icfg.return_sites_of(*call) {
                    self.tab.stats.flow_evals += 1;
                    self.ret_buf.clear();
                    problem.flow_return(icfg, *call, method, n, r, d2, &mut self.ret_buf);
                    for (d5, g_ret) in self.ret_buf.drain(..) {
                        let composed = f_prefix
                            .compose_with(g_call)
                            .compose_with(f)
                            .compose_with(&g_ret);
                        self.tab.propagate(d1c.clone(), r, d5, composed);
                    }
                }
            }
        }
    }
}

/// The methods whose memo entries a warm start keeps: every method
/// reachable from `icfg`'s entry points, minus the transitive callers
/// of `changed` over the reachable call edges (`changed` included).
fn reusable_methods<G: Icfg>(icfg: &G, changed: &[G::Method]) -> FastSet<G::Method> {
    let mut reachable: FastSet<G::Method> = FastSet::default();
    let mut callers: FastMap<G::Method, Vec<G::Method>> = FastMap::default();
    let mut work = icfg.entry_points();
    reachable.extend(work.iter().copied());
    while let Some(m) = work.pop() {
        for call in icfg.calls_in(m) {
            for &callee in icfg.callees_of(call) {
                callers.entry(callee).or_default().push(m);
                if reachable.insert(callee) {
                    work.push(callee);
                }
            }
        }
    }
    // An unreachable changed method has no reachable caller.
    let mut dirty = changed.to_vec();
    while let Some(m) = dirty.pop() {
        if reachable.remove(&m) {
            dirty.extend(callers.get(&m).into_iter().flatten());
        }
    }
    reachable
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
/// evaluate every jump function once. Counts its value updates in
/// `stats`.
fn phase2<G, P>(
    problem: &P,
    icfg: &G,
    jump: &JumpTable<G::Stmt, P::Fact, P::EF>,
    stats: &mut IdeStats,
    options: &IdeSolverOptions,
) -> Result<ValuesOf<G, P>, SolveAbort>
where
    G: Icfg,
    P: IdeProblem<G>,
{
    let governed = options.limits.armed() || options.poll_budget;
    let mut values: ValuesOf<G, P> = FastMap::default();
    let mut worklist: VecDeque<(G::Method, P::Fact)> = VecDeque::new();
    let mut call_buf: Vec<(P::Fact, P::EF)> = Vec::new();
    let top = problem.top();

    let update = |values: &mut ValuesOf<G, P>,
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
        if update(&mut values, stats, sp, fact.clone(), problem.seed_value()) {
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
                for &callee in icfg.callees_of(call) {
                    call_buf.clear();
                    problem.flow_call(icfg, call, callee, d2, &mut call_buf);
                    for (d3, g) in call_buf.drain(..) {
                        let nv = g.apply(&vc);
                        if nv == top {
                            continue;
                        }
                        let spq = icfg.start_point_of(callee);
                        if update(&mut values, stats, spq, d3.clone(), nv) {
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
                update(&mut values, stats, n, d2.clone(), nv);
            }
        }
    }

    // Value application itself runs constraint operations; a budget can
    // therefore first trip here, after phase 1 fit. Catch it before the
    // garbage values escape.
    if governed {
        governance_check(options, stats.propagations, problem)?;
    }

    Ok(values)
}
