//! Incremental re-analysis equals a cold solve after a random body edit.
//!
//! The server's incremental `analyze` warm-starts Phase 1 from the memo
//! of the previous solve — Phase 1's own jump and end-summary tables,
//! moved out of that solve — and re-tabulates only the transitive
//! callers of an edited method. For random product lines and each
//! analysis, this suite edits one method body, re-solves warm from the
//! memo, and requires every `(stmt, fact)` constraint to equal a cold
//! solve of the edited program. Before the edit, an all-clean re-solve
//! of the unedited program must find every jump function at its
//! fixpoint and run no propagation at all.

use spllift::analyses::{with_analysis, AnalysisKind};
use spllift::bdd::Bdd;
use spllift::benchgen::{mutate_once, random_spl, Mutation};
use spllift::features::{BddConstraintContext, FeatureTable};
use spllift::ide::SolverMemo;
use spllift::ifds::{Icfg, IfdsProblem};
use spllift::ir::{transitive_callers, MethodId, Program, ProgramIcfg, StmtRef};
use spllift::lift::{ConstraintEdge, GovernorOptions, LiftedSolution, ModelMode};
use spllift_rng::SplitMix64;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// The statement a mutation edited.
fn edited_stmt(mutation: &Mutation) -> StmtRef {
    match *mutation {
        Mutation::Drop(s)
        | Mutation::Duplicate(s)
        | Mutation::Reannotate(s)
        | Mutation::RewireCall(s, _)
        | Mutation::FlipLiteral(s) => s,
    }
}

/// The memo of a lifted solve over a program's ICFG.
type Memo<D> = SolverMemo<MethodId, StmtRef, D, ConstraintEdge<Bdd>>;

/// One unbudgeted lifted solve, warm-started from `memo` for the
/// methods `clean` admits.
fn solve_seeded<'g, 'p, P, D>(
    problem: &P,
    icfg: &'g ProgramIcfg<'p>,
    ctx: &BddConstraintContext,
    memo: &Memo<D>,
    clean: &dyn Fn(MethodId) -> bool,
) -> (LiftedSolution<'g, ProgramIcfg<'p>, D, Bdd>, Memo<D>)
where
    P: IfdsProblem<ProgramIcfg<'p>, Fact = D>,
    D: Clone + Eq + Hash + Debug,
{
    let (solution, _, memo) = LiftedSolution::solve_governed_memoized(
        problem,
        icfg,
        ctx,
        None,
        ModelMode::OnEdges,
        GovernorOptions::default(),
        memo,
        clean,
    )
    .expect("an unbudgeted solve completes");
    (solution, memo)
}

/// Solves `program` cold, checks the all-clean re-solve, then re-solves
/// `edited` (which differs from `program` in the body of `edited_method`
/// only) warm from the memo and compares it with a cold solve of it.
fn assert_incremental_equals_cold<P, D>(
    problem: &P,
    program: &Program,
    edited: &Program,
    table: &FeatureTable,
    edited_method: MethodId,
    label: &str,
) where
    P: for<'a> IfdsProblem<ProgramIcfg<'a>, Fact = D>,
    D: Clone + Eq + Hash + Debug,
{
    let ctx = BddConstraintContext::new(table);
    let icfg = ProgramIcfg::new(program);
    let (_, memo) = solve_seeded(problem, &icfg, &ctx, &Memo::default(), &|_| false);
    let (clean, _) = solve_seeded(problem, &icfg, &ctx, &memo, &|_| true);
    assert_eq!(
        clean.stats().propagations,
        0,
        "{label}: an all-clean re-solve propagated"
    );

    let edited_icfg = ProgramIcfg::new(edited);
    let dirty = transitive_callers(
        edited,
        edited_icfg.hierarchy(),
        &BTreeSet::from([edited_method]),
    );
    let (warm, _) = solve_seeded(problem, &edited_icfg, &ctx, &memo, &|m| !dirty.contains(&m));
    let cold = LiftedSolution::solve(problem, &edited_icfg, &ctx, None, ModelMode::OnEdges);
    for m in edited_icfg.methods() {
        for s in edited_icfg.stmts_of(m) {
            assert_eq!(
                warm.reachability_of(s),
                cold.reachability_of(s),
                "{label}: reachability of {s}"
            );
            assert_eq!(
                warm.results_at(s),
                cold.results_at(s),
                "{label}: constraints at {s}"
            );
        }
    }
}

#[test]
fn incremental_solve_after_a_random_edit_equals_a_cold_solve() {
    for seed in 0..24u64 {
        let spl = random_spl(seed, 3, 5);
        let mut edited = spl.program.clone();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mutation = (0..64)
            .find_map(|_| mutate_once(&mut edited, &spl.features, &mut rng))
            .unwrap_or_else(|| panic!("seed {seed}: no applicable mutation"));
        let edited_method = edited_stmt(&mutation).method;
        for kind in AnalysisKind::ALL {
            let label = format!("seed {seed} {} after {mutation:?}", kind.name());
            with_analysis!(kind, |p| assert_incremental_equals_cold(
                p,
                &spl.program,
                &edited,
                &spl.table,
                edited_method,
                &label,
            ));
        }
    }
}
