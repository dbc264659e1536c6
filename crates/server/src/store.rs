//! Per-session mutable state: the [`Store`].
//!
//! One [`Store`] corresponds to one client session over one loaded
//! product line. It is the cheap, session-private half of the
//! engine/store split: a shared [`crate::engine::LoadedSpl`] artifact
//! (copy-on-write on edit), a handle to that artifact's shared BDD
//! space, and per-analysis incremental solver state.
//!
//! The BDD manager is the thread-safe hash-consed store (DESIGN.md
//! §12), so the context handle here is a cheap clone of the artifact's
//! [`crate::engine::SharedBddSpace`]: every session of the same
//! interned product line builds constraints in one shared node store.
//! A `Store` still lives its whole life on the executor shard that
//! created it — shard confinement is what keeps each session's
//! response stream in submission order — and every solve, with the
//! rendering of its solution, serializes on the space's solve lock
//! (budgets arm per-manager baselines). Rendering turns each distinct
//! constraint into its cube string and [`FeatureExpr`] once per
//! solution: thousands of rows share a few dozen constraints. Worker
//! threads outside the shard only ever see [`RenderedSolution`] — plain
//! strings and [`FeatureExpr`]s.
//!
//! Each `(analysis, model-mode)` pair owns a slot with the
//! [`SolverMemo`] of its most recent solve. An `edit` records the edited
//! method as a dirty root in every slot; the next `analyze` of a slot
//! derives the dirty *set* as the transitive-caller closure of the
//! accumulated roots ([`spllift_ir::transitive_callers`]) and re-solves
//! incrementally, reusing the memo entries of every clean method.

use crate::engine::LoadedSpl;
use spllift_analyses::{with_analysis, AnalysisKind};
use spllift_bdd::Bdd;
use spllift_core::{
    ConstraintEdge, GovernorOptions, LatticePoint, LiftedSolution, ModelMode, SolveOutcome,
    SolverMemo,
};
use spllift_features::{BddConstraintContext, FeatureExpr};
use spllift_hash::{FastMap, FxHasher64};
use spllift_ide::IdeStats;
use spllift_ifds::{Icfg, IfdsProblem};
use spllift_ir::text::parse_body_edit;
use spllift_ir::{transitive_callers, MethodId, Program, ProgramIcfg};
use spllift_spl::{ChaosWrapper, FaultKind};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// One `(statement, fact)` result row of a rendered solution.
#[derive(Debug, Clone)]
pub struct FactRow {
    /// Canonical statement key (`m<method>:<index>`).
    pub stmt: String,
    /// The fact, in its `Debug` rendering (e.g. `Local(LocalId(1))`).
    pub fact: String,
    /// Canonical sum-of-cubes constraint string.
    pub cube: String,
    /// The constraint as a manager-free feature expression, for
    /// `holds_in` evaluation on worker threads.
    pub expr: FeatureExpr,
    /// `true` when the constraint comes from a degraded (non-top-rung)
    /// solve — it is then weaker-or-equal to the precise one, and query
    /// responses flag it so reports stay honest.
    pub degraded: bool,
}

/// The reachability row of one statement.
#[derive(Debug, Clone)]
pub struct ReachRow {
    /// Canonical statement key.
    pub stmt: String,
    /// Reachability constraint (sum of cubes).
    pub cube: String,
    /// Manager-free form of the constraint.
    pub expr: FeatureExpr,
    /// See [`FactRow::degraded`].
    pub degraded: bool,
}

/// A fully rendered, immutable solution of one `(program, analysis,
/// mode)` triple: every constraint is materialized as a canonical cube
/// string plus a manager-free [`FeatureExpr`].
///
/// This is the value the engine's solution cache stores and the query
/// worker pool reads — it is `Send + Sync` by construction (no BDD
/// handles), and its rendering is deterministic, so two solves of
/// identical input produce identical `digest`s.
#[derive(Debug)]
pub struct RenderedSolution {
    /// All satisfiable `(stmt, fact)` rows, sorted by statement then
    /// fact (the analyses' fact `Ord`).
    pub facts: Vec<FactRow>,
    /// One row per statement of every entry-reachable method, in
    /// method/index order; unreachable statements render as `false`.
    pub reach: Vec<ReachRow>,
    /// Counters of the solve that produced this solution.
    pub stats: IdeStats,
    /// Stable name of the variability-abstraction lattice point that
    /// produced this solution (`"full"` unless the solve degraded under
    /// resource pressure; e.g. `"no-model"` or
    /// `"confound(Base)+project(F,G)"`).
    pub rung: String,
    /// `true` iff `rung` is not the top of the lattice.
    pub degraded: bool,
    /// Order-sensitive hash over every rendered row (and the rung).
    pub digest: u64,
    /// Approximate retained size, for the cache's byte budget.
    pub bytes: usize,
    fact_index: FastMap<(String, String), usize>,
    reach_index: FastMap<String, usize>,
}

impl RenderedSolution {
    /// The row for `(stmt, fact)`, if its constraint is satisfiable.
    pub fn fact_row(&self, stmt: &str, fact: &str) -> Option<&FactRow> {
        self.fact_index
            .get(&(stmt.to_owned(), fact.to_owned()))
            .map(|&i| &self.facts[i])
    }

    /// The reachability row for `stmt`, if the statement belongs to an
    /// entry-reachable method.
    pub fn reach_row(&self, stmt: &str) -> Option<&ReachRow> {
        self.reach_index.get(stmt).map(|&i| &self.reach[i])
    }
}

fn render_solution<D>(
    solution: &LiftedSolution<'_, ProgramIcfg<'_>, D, Bdd>,
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    point: &LatticePoint,
) -> RenderedSolution
where
    D: Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    let rung = point.name();
    let degraded = !point.is_full();
    // Thousands of rows share a few dozen constraints: render each
    // distinct one once. (A `Bdd` hashes by its node id, which never
    // changes; the shared store it points into is what clippy sees as
    // mutable.)
    #[allow(clippy::mutable_key_type)]
    let mut rendered: FastMap<Bdd, (String, FeatureExpr)> = FastMap::default();
    let mut render = |c: Bdd| {
        rendered
            .entry(c)
            .or_insert_with_key(|c| (c.to_cube_string(), ctx.to_expr(c)))
            .clone()
    };
    let mut facts = Vec::new();
    let mut reach = Vec::new();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let (cube, expr) = render(solution.reachability_of(s));
            reach.push(ReachRow {
                stmt: s.to_string(),
                cube,
                expr,
                degraded,
            });
            let mut rows: Vec<(D, Bdd)> = solution.results_at(s).into_iter().collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for (d, c) in rows {
                let (cube, expr) = render(c);
                facts.push(FactRow {
                    stmt: s.to_string(),
                    fact: format!("{d:?}"),
                    cube,
                    expr,
                    degraded,
                });
            }
        }
    }
    let mut h = FxHasher64::default();
    rung.as_str().hash(&mut h);
    let mut bytes = 0usize;
    for row in &facts {
        row.stmt.hash(&mut h);
        row.fact.hash(&mut h);
        row.cube.hash(&mut h);
        bytes += row.stmt.len() + row.fact.len() + row.cube.len() + 96;
    }
    for row in &reach {
        row.stmt.hash(&mut h);
        row.cube.hash(&mut h);
        bytes += row.stmt.len() + row.cube.len() + 64;
    }
    let fact_index = facts
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.stmt.clone(), r.fact.clone()), i))
        .collect();
    let reach_index = reach
        .iter()
        .enumerate()
        .map(|(i, r)| (r.stmt.clone(), i))
        .collect();
    RenderedSolution {
        facts,
        reach,
        stats: solution.stats(),
        rung,
        degraded,
        digest: h.finish(),
        bytes,
        fact_index,
        reach_index,
    }
}

/// The incremental solver memo of an analysis with fact type `D`.
type Memo<D> = SolverMemo<MethodId, spllift_ir::StmtRef, D, ConstraintEdge<Bdd>>;

/// Per-`(analysis, mode)` incremental solver state.
#[derive(Default)]
struct Slot {
    /// The last full-precision solve's [`Memo`], with the fingerprint of
    /// the program state it was computed on. Type-erased: the slot key
    /// fixes the analysis, hence the fact type `analyze_generic`
    /// downcasts it to.
    memo: Option<(u64, Box<dyn Any + Send>)>,
    /// Methods edited since `memo` was computed.
    dirty_roots: BTreeSet<MethodId>,
    /// The most recent solution for this slot, with the fingerprint it
    /// belongs to.
    last: Option<(u64, Arc<RenderedSolution>)>,
}

/// The outcome of one `analyze`.
pub struct AnalyzeOutcome {
    /// `"cold"` or `"incremental"` (the server adds `"cached"`).
    pub solve: &'static str,
    /// Counters of this solve.
    pub stats: IdeStats,
    /// How the governed solve finished (which ladder rung answered, and
    /// every abandoned attempt with its abort reason).
    pub outcome: SolveOutcome,
    /// The rendered solution.
    pub solution: Arc<RenderedSolution>,
}

/// A one-shot fault to inject into the next solve (the server's
/// `--inject-fault` hook). The wrapper carries a single charge, so the
/// first ladder rung absorbs the fault and the fallback runs clean.
pub struct ChaosSpec {
    /// The fault class.
    pub kind: FaultKind,
    /// How long a [`FaultKind::SlowEdge`] evaluation stalls; must exceed
    /// the governor's per-rung deadline to be observed.
    pub slow_for: Duration,
}

fn analyze_generic<P, D>(
    problem: &P,
    program: &Program,
    ctx: &BddConstraintContext,
    model: Option<&FeatureExpr>,
    mode: ModelMode,
    fp: u64,
    gov: GovernorOptions,
    chaos: Option<&ChaosSpec>,
    slot: &mut Slot,
) -> Result<AnalyzeOutcome, String>
where
    P: for<'p> IfdsProblem<ProgramIcfg<'p>, Fact = D>,
    D: Clone + Eq + Ord + Hash + std::fmt::Debug + Send + 'static,
{
    let icfg = ProgramIcfg::new(program);
    // The downcast cannot fail (the slot key fixes the fact type); if it
    // did, the solve would merely run cold.
    let memo = slot
        .memo
        .as_ref()
        .and_then(|(mfp, m)| Some((*mfp, m.downcast_ref::<Memo<D>>()?)));
    // Pick the clean set. The memo's soundness contract (SolverMemo)
    // requires the dirty set to contain every transitive caller of every
    // edited method. Computing the closure on the *current* program is
    // sound because an edit can only replace a method body — signatures,
    // classes, and the hierarchy are fixed — so call edges out of
    // unchanged bodies are identical before and after the edit.
    let (kind, clean): (&'static str, Box<dyn Fn(MethodId) -> bool>) = match memo {
        Some((mfp, _)) if mfp == fp => ("incremental", Box::new(|_| true)),
        Some(_) if !slot.dirty_roots.is_empty() => {
            let dirty = transitive_callers(program, icfg.hierarchy(), &slot.dirty_roots);
            ("incremental", Box::new(move |m| !dirty.contains(&m)))
        }
        _ => ("cold", Box::new(|_| false)),
    };
    let empty = Memo::default();
    let memo = memo.map_or(&empty, |(_, m)| m);
    let result = match chaos {
        None => LiftedSolution::solve_governed_memoized(
            problem, &icfg, ctx, model, mode, gov, memo, &*clean,
        ),
        Some(spec) => {
            let wrapped = ChaosWrapper::new(
                problem,
                spec.kind,
                1,
                spec.slow_for,
                Box::new(|| ctx.manager().charge_ops(u64::MAX)),
            );
            LiftedSolution::solve_governed_memoized(
                &wrapped, &icfg, ctx, model, mode, gov, memo, &*clean,
            )
        }
    };
    let (solution, outcome, next_memo) =
        result.map_err(|abort| format!("solve aborted at every ladder rung: {abort}"))?;
    let stats = solution.stats();
    let rendered = Arc::new(render_solution(&solution, &icfg, ctx, &outcome.point()));
    // A degraded solve's jump functions are weaker than full precision;
    // keeping them would leak the degradation into the next (possibly
    // re-budgeted) round. Start that round cold.
    slot.memo = (!outcome.is_degraded()).then(|| (fp, Box::new(next_memo) as Box<dyn Any + Send>));
    slot.dirty_roots.clear();
    slot.last = Some((fp, Arc::clone(&rendered)));
    Ok(AnalyzeOutcome {
        solve: kind,
        stats,
        outcome,
        solution: rendered,
    })
}

/// Parses a protocol model-mode string.
pub fn parse_mode(s: &str) -> Result<ModelMode, String> {
    match s {
        "on-edges" => Ok(ModelMode::OnEdges),
        "start-value" => Ok(ModelMode::AtStartValue),
        "ignore" => Ok(ModelMode::Ignore),
        other => Err(format!(
            "unknown mode `{other}` (on-edges|start-value|ignore)"
        )),
    }
}

/// The protocol string of a model mode.
pub fn mode_str(mode: ModelMode) -> &'static str {
    match mode {
        ModelMode::OnEdges => "on-edges",
        ModelMode::AtStartValue => "start-value",
        ModelMode::Ignore => "ignore",
    }
}

fn slot_key(analysis: &str, mode: ModelMode) -> String {
    format!("{analysis}/{}", mode_str(mode))
}

/// One session's private state: a shared artifact (copy-on-write), a
/// handle to its shared BDD space, and per-analysis incremental state.
/// Confined to one executor shard so the session's responses keep
/// their submission order.
pub struct Store {
    /// The loaded product line, shared with the engine's intern table
    /// and any other session of the same fingerprint until edited.
    pub spl: Arc<LoadedSpl>,
    /// Cheap handle to the artifact's shared BDD space: sessions of
    /// the same interned product line hash-cons into one node store.
    pub ctx: BddConstraintContext,
    /// `analyze` requests this session has served — the per-session
    /// fault trigger sequence (`--inject-fault-session`).
    pub analyze_seq: u64,
    slots: BTreeMap<String, Slot>,
}

impl Store {
    /// Creates a store over an already-validated artifact, joining the
    /// artifact's shared BDD space.
    pub fn new(spl: Arc<LoadedSpl>) -> Store {
        let ctx = spl.space.ctx.clone();
        Store {
            spl,
            ctx,
            analyze_seq: 0,
            slots: BTreeMap::new(),
        }
    }

    /// The session's current program fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.spl.fingerprint
    }

    /// The slot keys that currently hold state, for `stats`.
    pub fn slot_keys(&self) -> Vec<String> {
        self.slots.keys().cloned().collect()
    }

    /// Replaces the body of `method` (resolved by name) with a body
    /// parsed from repro-format text, marks the method dirty in every
    /// analysis slot, and refreshes the fingerprint. Returns the method
    /// id and the new statement count.
    ///
    /// The artifact is copy-on-write: the first edit detaches this
    /// session's `LoadedSpl` from the engine's shared copy
    /// ([`Arc::make_mut`]); other sessions of the same fingerprint are
    /// unaffected.
    pub fn edit(
        &mut self,
        method: &str,
        locals: &str,
        stmt_lines: &[&str],
    ) -> Result<(MethodId, usize), String> {
        let mid = self
            .spl
            .program
            .find_method(method)
            .ok_or_else(|| format!("unknown method `{method}`"))?;
        if self.spl.program.method(mid).body.is_none() {
            return Err(format!("method `{method}` has no body to edit"));
        }
        let new_body = parse_body_edit(&self.spl.program, &self.spl.table, mid, locals, stmt_lines)
            .map_err(|e| format!("edit `{method}`: {e}"))?;
        let spl = Arc::make_mut(&mut self.spl);
        let old_body = spl.program.body(mid).clone();
        *spl.program.body_mut(mid) = new_body;
        if let Err(e) = spl.program.check() {
            *spl.program.body_mut(mid) = old_body;
            return Err(format!("edit `{method}` produces an invalid program: {e}"));
        }
        spl.refresh_fingerprint();
        for slot in self.slots.values_mut() {
            slot.dirty_roots.insert(mid);
        }
        Ok((mid, self.spl.program.body(mid).stmts.len()))
    }

    /// Runs (or incrementally re-runs) `analysis` under `mode`, governed
    /// by the `gov` resource envelope (all-unlimited for the classic
    /// ungoverned behavior). `chaos` injects a one-shot fault into this
    /// solve — the fault-injection harness only; `None` in production.
    pub fn analyze(
        &mut self,
        analysis: &str,
        mode: ModelMode,
        gov: GovernorOptions,
        chaos: Option<&ChaosSpec>,
    ) -> Result<AnalyzeOutcome, String> {
        let kind = AnalysisKind::parse(analysis)?;
        let slot = self.slots.entry(slot_key(analysis, mode)).or_default();
        let fp = self.spl.fingerprint;
        let spl = &self.spl;
        let model = spl.model.as_ref();
        // Serialize governed solves on the shared BDD space: budgets
        // arm per-manager baselines, so a concurrently armed solve in
        // another session of the same artifact would meter (and could
        // exhaust) this one. Sessions over different product lines hold
        // different locks and proceed concurrently. A solve that
        // panicked (chaos, quarantine) poisons the lock but not the
        // store — hash-consing is append-only and budgets latch
        // separately — so poison is recovered, or a re-loaded session
        // could never solve its program again.
        let _armed = spl
            .space
            .solve_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        with_analysis!(kind, |p| analyze_generic(
            p,
            &spl.program,
            &self.ctx,
            model,
            mode,
            fp,
            gov,
            chaos,
            slot
        ))
    }

    /// Installs a cache-hit solution as the slot's current one (so
    /// queries work without a re-solve), creating the slot if needed.
    pub fn install_cached(
        &mut self,
        analysis: &str,
        mode: ModelMode,
        solution: Arc<RenderedSolution>,
    ) -> Result<(), String> {
        AnalysisKind::parse(analysis)?;
        let slot = self.slots.entry(slot_key(analysis, mode)).or_default();
        slot.last = Some((self.spl.fingerprint, solution));
        Ok(())
    }

    /// The current solution for `(analysis, mode)`, if one exists *and*
    /// matches the session's present fingerprint (i.e. no edit since).
    pub fn current_solution(
        &self,
        analysis: &str,
        mode: ModelMode,
    ) -> Option<&Arc<RenderedSolution>> {
        let (fp, rc) = self.slots.get(&slot_key(analysis, mode))?.last.as_ref()?;
        (*fp == self.spl.fingerprint).then_some(rc)
    }
}
