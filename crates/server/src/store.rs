//! Per-session mutable state: the [`Store`].
//!
//! One [`Store`] corresponds to one client session over one loaded
//! product line. It is the session-private half of the engine/store
//! split: a shared [`crate::engine::LoadedSpl`] artifact (copy-on-write
//! on edit), the session's own BDD constraint context, and
//! per-analysis incremental solver state.
//!
//! A `Store` lives its whole life on the executor shard that created
//! it — shard confinement is what keeps each session's response stream
//! in submission order — and so does its BDD manager, which is `!Send`
//! (DESIGN.md §12). No other session touches the manager, so a
//! budgeted solve meters only this session's work, and a `load` that
//! replaces the session frees its nodes. Rendering turns each distinct
//! constraint into its cube string and [`FeatureExpr`] once per
//! solution, and every row of that constraint shares the one
//! `Arc<FeatureExpr>`: thousands of rows share a few dozen
//! constraints. Queries and the cross-session solution cache read only
//! the [`RenderedSolution`] — plain strings and [`FeatureExpr`]s, no
//! BDD handles.
//!
//! Each `(analysis, model-mode)` pair owns a slot that holds a
//! [`SolverMemo`] only after a complete full-precision solve. An `edit`
//! records the edited method as a dirty root in every slot; the next
//! `analyze` of a slot moves the memo and the accumulated roots into
//! [`LiftedSolution::solve_governed`], and the IDE solver re-tabulates
//! the roots and their transitive callers while reusing the memo
//! entries of every other reachable method. A slot whose memo matches
//! the current program passes no roots; one whose program changed with
//! no edit recorded solves cold. A degraded solve, or one that aborted
//! at every lattice point, leaves the slot without a memo, so the next
//! `analyze` solves cold.

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
use spllift_ir::{MethodId, Program, ProgramIcfg};
use spllift_spl::{ChaosWrapper, FaultKind};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;
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
    /// `holds_in` evaluation without the BDD manager. Shared by every
    /// row of the solution with the same constraint.
    pub expr: Arc<FeatureExpr>,
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
    /// Manager-free form of the constraint, shared like
    /// [`FactRow::expr`].
    pub expr: Arc<FeatureExpr>,
    /// See [`FactRow::degraded`].
    pub degraded: bool,
}

/// A fully rendered, immutable solution of one `(program, analysis,
/// mode)` triple: every constraint is materialized as a canonical cube
/// string plus a manager-free [`FeatureExpr`].
///
/// This is the value the engine's solution cache stores and every
/// shard's queries read — it is `Send + Sync` by construction (no BDD
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
    /// Statement key → its reach row and the range of its fact rows.
    reach_index: FastMap<String, (usize, Range<usize>)>,
}

impl RenderedSolution {
    /// The row for `(stmt, fact)`, if its constraint is satisfiable (the
    /// last such row, should two facts render alike).
    pub fn fact_row(&self, stmt: &str, fact: &str) -> Option<&FactRow> {
        let (_, rows) = self.reach_index.get(stmt)?;
        self.facts[rows.clone()].iter().rfind(|r| r.fact == fact)
    }

    /// The reachability row for `stmt`, if the statement belongs to an
    /// entry-reachable method.
    pub fn reach_row(&self, stmt: &str) -> Option<&ReachRow> {
        self.reach_index.get(stmt).map(|(i, _)| &self.reach[*i])
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
    // Thousands of rows share a few dozen constraints and facts: render
    // each distinct one once. (A `Bdd` hashes by its node id, which
    // never changes; the store it points into is what clippy sees as
    // mutable.)
    #[allow(clippy::mutable_key_type)]
    let mut rendered: FastMap<Bdd, (String, Arc<FeatureExpr>)> = FastMap::default();
    let mut render = |c: Bdd| {
        let (cube, expr) = rendered
            .entry(c)
            .or_insert_with_key(|c| (c.to_cube_string(), Arc::new(ctx.to_expr(c))));
        (cube.clone(), Arc::clone(expr))
    };
    let mut names: FastMap<D, String> = FastMap::default();
    let mut facts = Vec::new();
    let mut reach = Vec::new();
    let mut reach_index = FastMap::default();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let stmt = s.to_string();
            let (cube, expr) = render(solution.reachability_of(s));
            let first = facts.len();
            let mut rows: Vec<(D, Bdd)> = solution.results_at(s).into_iter().collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for (d, c) in rows {
                let (cube, expr) = render(c);
                let fact = names.entry(d).or_insert_with_key(|d| format!("{d:?}"));
                facts.push(FactRow {
                    stmt: stmt.clone(),
                    fact: fact.clone(),
                    cube,
                    expr,
                    degraded,
                });
            }
            reach_index.insert(stmt.clone(), (reach.len(), first..facts.len()));
            reach.push(ReachRow {
                stmt,
                cube,
                expr,
                degraded,
            });
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
    RenderedSolution {
        facts,
        reach,
        stats: solution.stats(),
        rung,
        degraded,
        digest: h.finish(),
        bytes,
        reach_index,
    }
}

/// The incremental solver memo of an analysis with fact type `D`.
type Memo<D> = SolverMemo<MethodId, spllift_ir::StmtRef, D, ConstraintEdge<Bdd>>;

/// Per-`(analysis, mode)` incremental solver state.
#[derive(Default)]
struct Slot {
    /// The [`Memo`] of the last solve, with the fingerprint of the
    /// program state it was computed on — present only if that solve
    /// completed at full precision. Type-erased: the slot key fixes the
    /// analysis, hence the fact type `analyze_generic` downcasts it to.
    memo: Option<(u64, Box<dyn Any>)>,
    /// Methods edited since the last solve.
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

#[allow(clippy::too_many_arguments)] // one solve's inputs, its governance and the session slot
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
    D: Clone + Eq + Ord + Hash + std::fmt::Debug + 'static,
{
    let icfg = ProgramIcfg::new(program);
    // The solve consumes the slot's memo and dirty roots: the slot gets
    // a memo back only from a complete solve. The downcast cannot fail
    // (the slot key fixes the fact type); if it did, the solve would
    // merely run cold. The solver re-tabulates the edited methods and
    // their transitive callers (`SolverMemo`).
    let memo = slot
        .memo
        .take()
        .and_then(|(mfp, m)| Some((mfp, *m.downcast::<Memo<D>>().ok()?)));
    let changed: Vec<MethodId> = std::mem::take(&mut slot.dirty_roots).into_iter().collect();
    let (kind, memo, changed) = match memo {
        Some((mfp, m)) if mfp == fp => ("incremental", m, &[][..]),
        Some((_, m)) if !changed.is_empty() => ("incremental", m, &changed[..]),
        _ => ("cold", Memo::default(), &[][..]),
    };
    let result = match chaos {
        None => {
            LiftedSolution::solve_governed(problem, &icfg, ctx, model, mode, gov, memo, changed)
        }
        Some(spec) => {
            let wrapped = ChaosWrapper::new(
                problem,
                spec.kind,
                1,
                spec.slow_for,
                Box::new(|| ctx.manager().charge_ops(u64::MAX)),
            );
            LiftedSolution::solve_governed(&wrapped, &icfg, ctx, model, mode, gov, memo, changed)
        }
    };
    let (solution, outcome, next_memo) =
        result.map_err(|abort| format!("solve aborted at every ladder rung: {abort}"))?;
    let stats = solution.stats();
    let rendered = Arc::new(render_solution(&solution, &icfg, ctx, &outcome.point()));
    // A degraded solve returns an empty memo: its jump functions are
    // weaker than full precision, and keeping them would leak the
    // degradation into the next (possibly re-budgeted) round. Start that
    // round cold.
    slot.memo = (!outcome.is_degraded()).then(|| (fp, Box::new(next_memo) as Box<dyn Any>));
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

/// One session's private state: a shared artifact (copy-on-write), the
/// session's own BDD constraint context, and per-analysis incremental
/// state. Confined to one executor shard so the session's responses
/// keep their submission order.
pub struct Store {
    /// The loaded product line, shared with any other session of the
    /// same fingerprint (through the engine's intern table) until
    /// edited.
    pub spl: Arc<LoadedSpl>,
    /// This session's constraint context: one BDD variable per feature
    /// of the artifact's table, in table order, in a manager no other
    /// session reaches.
    pub ctx: BddConstraintContext,
    /// `analyze` requests this session has served — the per-session
    /// fault trigger sequence (`--inject-fault-session`).
    pub analyze_seq: u64,
    slots: BTreeMap<String, Slot>,
}

impl Store {
    /// Creates a store over an already-validated artifact, with a
    /// fresh BDD constraint context over its feature table.
    pub fn new(spl: Arc<LoadedSpl>) -> Store {
        let ctx = BddConstraintContext::new(&spl.table);
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

#[cfg(test)]
mod tests {
    use super::*;
    use spllift_benchgen::{parse_subject_spec, GeneratedSpl};

    fn solve(analysis: &str) -> Arc<RenderedSolution> {
        let spl = GeneratedSpl::generate(parse_subject_spec("synthetic:6:600:1").expect("spec"));
        let model = Some(spl.model_expr());
        let or_groups = spl.model.or_groups();
        let GeneratedSpl { program, table, .. } = spl;
        let spl = LoadedSpl::new(program, table, model, or_groups).expect("valid program");
        Store::new(Arc::new(spl))
            .analyze(
                analysis,
                ModelMode::OnEdges,
                GovernorOptions::default(),
                None,
            )
            .expect("unbudgeted solve completes")
            .solution
    }

    /// Row lookups agree with a linear scan (the last match wins), rows
    /// of one constraint share one expression, and the digest and byte
    /// count are pinned: analyze responses carry the digest, and
    /// `stats` reports the cache's bytes.
    #[test]
    fn rendered_rows_are_indexed_shared_and_digest_stable() {
        for (analysis, digest, bytes) in [
            ("taint", 0x4d6d_775b_9206_35df, 1_688_152),
            ("reaching-defs", 0x2fdd_e1bb_6ea9_b121, 3_132_515),
        ] {
            let sol = solve(analysis);
            assert_eq!((sol.digest, sol.bytes), (digest, bytes), "{analysis}");
            // One pass over the rows: the last row of each key, as a
            // linear scan from the back finds it.
            let mut last_fact = BTreeMap::new();
            for row in &sol.facts {
                last_fact.insert((row.stmt.as_str(), row.fact.as_str()), row);
            }
            for row in &sol.facts {
                let found = sol.fact_row(&row.stmt, &row.fact).expect("row");
                assert!(std::ptr::eq(found, last_fact[&(&*row.stmt, &*row.fact)]));
                assert!(sol.fact_row(&row.stmt, "NoSuchFact").is_none());
            }
            let mut last_reach = BTreeMap::new();
            for row in &sol.reach {
                last_reach.insert(row.stmt.as_str(), row);
            }
            for row in &sol.reach {
                let found = sol.reach_row(&row.stmt).expect("row");
                assert!(std::ptr::eq(found, last_reach[&*row.stmt]));
            }
            assert!(sol.reach_row("m99999:0").is_none());
            assert!(sol.fact_row("m99999:0", &sol.facts[0].fact).is_none());
            let mut shared: BTreeMap<&str, &Arc<FeatureExpr>> = BTreeMap::new();
            let rows = sol.facts.iter().map(|r| (&r.cube, &r.expr));
            for (cube, expr) in rows.chain(sol.reach.iter().map(|r| (&r.cube, &r.expr))) {
                let first = shared.entry(cube).or_insert(expr);
                assert!(
                    Arc::ptr_eq(first, expr),
                    "{analysis}: `{cube}` rendered twice"
                );
            }
        }
    }
}
