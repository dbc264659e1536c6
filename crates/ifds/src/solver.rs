//! The IFDS tabulation solver (Reps–Horwitz–Sagiv, POPL 1995).

use crate::{Icfg, IfdsProblem};
use spllift_hash::{FastMap, FastSet};
use std::collections::VecDeque;

/// Counters collected during a solver run.
///
/// The paper's qualitative performance analysis (§6.2) observes that
/// analysis time correlates (ρ > 0.99) with the number of flow functions
/// constructed; these counters let the bench harness reproduce that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Worklist items processed.
    pub propagations: u64,
    /// Flow-function evaluations.
    pub flow_evals: u64,
    /// Distinct path edges discovered.
    pub path_edges: u64,
    /// Summary edges installed.
    pub summaries: u64,
}

/// A path edge `⟨sp, d1⟩ → ⟨n, d2⟩` (the `sp` is implicit: the start point
/// of `n`'s method).
type PathEdge<S, D> = (D, S, D);

/// The IFDS tabulation solver.
///
/// Build with [`IfdsSolver::solve`]; query with
/// [`results_at`](IfdsSolver::results_at).
#[derive(Debug)]
pub struct IfdsSolver<G: Icfg, D: Clone + Eq + std::hash::Hash> {
    results: FastMap<G::Stmt, FastSet<D>>,
    /// First-discoverer back-pointers: (stmt, fact) → predecessor
    /// (stmt, fact), for witness reconstruction.
    predecessors: FastMap<(G::Stmt, D), (G::Stmt, D)>,
    zero: D,
    stats: SolverStats,
}

impl<G, D> IfdsSolver<G, D>
where
    G: Icfg,
    D: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    /// Runs the tabulation algorithm of `problem` over `icfg` to a
    /// fixpoint and returns the solved instance.
    pub fn solve<P>(problem: &P, icfg: &G) -> Self
    where
        P: IfdsProblem<G, Fact = D>,
    {
        let zero = problem.zero();
        let mut state = State::<G, D> {
            path_edges: FastSet::default(),
            worklist: VecDeque::new(),
            predecessors: FastMap::default(),
            results: FastMap::default(),
            stats: SolverStats::default(),
        };
        let mut incoming: Incoming<G, D> = FastMap::default();
        let mut end_summary: EndSummaries<G, D> = FastMap::default();
        // One flow-result buffer per nesting level: a call's return flows
        // are evaluated while its call flow's results are still read.
        let mut buf: Vec<D> = Vec::new();
        let mut ret_buf: Vec<D> = Vec::new();

        for (sp, fact) in problem.initial_seeds(icfg) {
            state.propagate(fact.clone(), sp, fact, None);
        }

        while let Some((d1, n, d2)) = state.worklist.pop_front() {
            state.stats.propagations += 1;
            let method = icfg.method_of(n);
            if icfg.is_call(n) {
                // Call flows into callees.
                for &callee in icfg.callees_of(n) {
                    state.stats.flow_evals += 1;
                    buf.clear();
                    problem.flow_call(icfg, n, callee, &d2, &mut buf);
                    for d3 in &buf {
                        let sp = icfg.start_point_of(callee);
                        state.propagate(d3.clone(), sp, d3.clone(), Some((n, d2.clone())));
                        let inc_key = (callee, d3.clone());
                        incoming.entry(inc_key.clone()).or_default().insert((
                            n,
                            d2.clone(),
                            d1.clone(),
                        ));
                        // Apply already-known summaries for this callee
                        // entry fact.
                        let Some(summaries) = end_summary.get(&inc_key) else {
                            continue;
                        };
                        for (exit, d4) in summaries {
                            for &r in icfg.return_sites_of(n) {
                                state.stats.flow_evals += 1;
                                ret_buf.clear();
                                problem.flow_return(icfg, n, callee, *exit, r, d4, &mut ret_buf);
                                for d5 in ret_buf.drain(..) {
                                    state.propagate(d1.clone(), r, d5, Some((*exit, d4.clone())));
                                }
                            }
                        }
                    }
                }
                // Intra-procedural flow across the call.
                for &r in icfg.return_sites_of(n) {
                    state.stats.flow_evals += 1;
                    buf.clear();
                    problem.flow_call_to_return(icfg, n, r, &d2, &mut buf);
                    for d3 in buf.drain(..) {
                        state.propagate(d1.clone(), r, d3, Some((n, d2.clone())));
                    }
                }
            } else {
                if icfg.is_exit(n) {
                    // Record an end summary and resolve pending callers.
                    let key = (method, d1.clone());
                    if end_summary
                        .entry(key.clone())
                        .or_default()
                        .insert((n, d2.clone()))
                    {
                        state.stats.summaries += 1;
                    }
                    for (call, _d2_caller, d1_caller) in incoming.get(&key).into_iter().flatten() {
                        for &r in icfg.return_sites_of(*call) {
                            state.stats.flow_evals += 1;
                            buf.clear();
                            problem.flow_return(icfg, *call, method, n, r, &d2, &mut buf);
                            for d5 in buf.drain(..) {
                                state.propagate(d1_caller.clone(), r, d5, Some((n, d2.clone())));
                            }
                        }
                    }
                }
                // Exit statements normally have no successors, but in a
                // lifted SPL graph a *disabled* return falls through
                // (paper Fig. 4): propagate normal flow along any extra
                // successors the ICFG reports.
                for &succ in icfg.successors_of(n) {
                    state.stats.flow_evals += 1;
                    buf.clear();
                    problem.flow_normal(icfg, n, succ, &d2, &mut buf);
                    for d3 in buf.drain(..) {
                        state.propagate(d1.clone(), succ, d3, Some((n, d2.clone())));
                    }
                }
            }
        }

        state.stats.path_edges = state.path_edges.len() as u64;
        IfdsSolver {
            results: state.results,
            predecessors: state.predecessors,
            zero,
            stats: state.stats,
        }
    }

    /// The facts holding at `s`, including the zero fact if `s` is
    /// reachable.
    pub fn results_at(&self, s: G::Stmt) -> FastSet<D> {
        self.results.get(&s).cloned().unwrap_or_default()
    }

    /// The non-zero facts holding at `s`.
    pub fn facts_at(&self, s: G::Stmt) -> FastSet<D> {
        let mut r = self.results_at(s);
        r.remove(&self.zero);
        r
    }

    /// `true` iff `s` was reached at all (its zero fact was propagated).
    pub fn is_reachable(&self, s: G::Stmt) -> bool {
        self.results
            .get(&s)
            .is_some_and(|set| set.contains(&self.zero))
    }

    /// All statements with at least one discovered fact.
    pub fn statements(&self) -> impl Iterator<Item = G::Stmt> + '_ {
        self.results.keys().copied()
    }

    /// Solver counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Reconstructs one witness path explaining how `fact` arrived at
    /// `stmt`: a chain of (statement, fact) pairs from a seed to the
    /// query, following first-discoverer back-pointers. Returns `None`
    /// if the fact does not hold at `stmt`.
    ///
    /// This is the diagnostic a taint tool prints as a "source → sink
    /// trace".
    pub fn witness(&self, stmt: G::Stmt, fact: &D) -> Option<Vec<(G::Stmt, D)>> {
        if !self.results.get(&stmt).is_some_and(|s| s.contains(fact)) {
            return None;
        }
        let mut path = vec![(stmt, fact.clone())];
        let mut cur = (stmt, fact.clone());
        while let Some(pred) = self.predecessors.get(&cur) {
            path.push(pred.clone());
            cur = pred.clone();
        }
        path.reverse();
        Some(path)
    }
}

/// (callee, entry fact) → callers: (call stmt, fact at call, caller sp fact).
type Incoming<G, D> = FastMap<(<G as Icfg>::Method, D), FastSet<(<G as Icfg>::Stmt, D, D)>>;

/// (method, entry fact) → exits: (exit stmt, exit fact).
type EndSummaries<G, D> = FastMap<(<G as Icfg>::Method, D), FastSet<(<G as Icfg>::Stmt, D)>>;

/// What [`State::propagate`] writes. The caller and end-summary tables
/// live beside it, so a solve can read them in place while it
/// propagates.
struct State<G: Icfg, D: Clone + Eq + std::hash::Hash> {
    path_edges: FastSet<PathEdge<G::Stmt, D>>,
    worklist: VecDeque<PathEdge<G::Stmt, D>>,
    predecessors: FastMap<(G::Stmt, D), (G::Stmt, D)>,
    results: FastMap<G::Stmt, FastSet<D>>,
    stats: SolverStats,
}

impl<G, D> State<G, D>
where
    G: Icfg,
    D: Clone + Eq + std::hash::Hash,
{
    fn propagate(&mut self, d1: D, n: G::Stmt, d2: D, pred: Option<(G::Stmt, D)>) {
        let edge = (d1, n, d2);
        if self.path_edges.insert(edge.clone()) {
            let is_new_node = self.results.entry(n).or_default().insert(edge.2.clone());
            if is_new_node {
                if let Some(p) = pred {
                    self.predecessors.insert((n, edge.2.clone()), p);
                }
            }
            self.worklist.push_back(edge);
        }
    }
}
