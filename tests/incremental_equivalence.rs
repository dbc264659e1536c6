//! Incremental re-analysis equals a cold solve after a random body edit.
//!
//! The server's incremental `analyze` warm-starts Phase 1 from the memo
//! of the previous solve — Phase 1's own jump and end-summary tables,
//! moved out of that solve — and names the edited method, whose
//! transitive callers the solver re-tabulates. For random product lines
//! and each analysis, this suite edits one method body, re-solves warm
//! from the memo, and requires every `(stmt, fact)` constraint to equal
//! a cold solve of the edited program. A second edit then re-solves warm
//! from the first warm solve's own memo, as the server does on every
//! edit after the first. Before the edits, a re-solve of the unedited
//! program must find every jump function at its fixpoint and run no
//! propagation at all.

use spllift::analyses::{with_analysis, AnalysisKind};
use spllift::bdd::Bdd;
use spllift::benchgen::{mutate_once, random_spl, Mutation};
use spllift::features::{BddConstraintContext, FeatureTable};
use spllift::ide::SolverMemo;
use spllift::ifds::{Icfg, IfdsProblem};
use spllift::ir::{MethodId, Program, ProgramIcfg, StmtRef};
use spllift::lift::{ConstraintEdge, GovernorOptions, LiftedSolution, ModelMode};
use spllift_rng::SplitMix64;
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

/// One unbudgeted lifted solve, warm-started from `memo`, whose program
/// differs from `icfg`'s in the bodies of `changed`.
fn solve_seeded<'g, 'p, P, D>(
    problem: &P,
    icfg: &'g ProgramIcfg<'p>,
    ctx: &BddConstraintContext,
    memo: Memo<D>,
    changed: &[MethodId],
) -> (LiftedSolution<'g, ProgramIcfg<'p>, D, Bdd>, Memo<D>)
where
    P: IfdsProblem<ProgramIcfg<'p>, Fact = D>,
    D: Clone + Eq + Hash + Debug,
{
    let (solution, _, memo) = LiftedSolution::solve_governed(
        problem,
        icfg,
        ctx,
        None,
        ModelMode::OnEdges,
        GovernorOptions::default(),
        memo,
        changed,
    )
    .expect("an unbudgeted solve completes");
    (solution, memo)
}

/// Solves `program` cold and checks the all-clean re-solve. Then, for
/// each `(edited, method, edit)` of `edits` — each program differs from
/// the one before it in the body of `method` only — re-solves `edited`
/// warm from the previous solve's memo and compares it with a cold solve
/// of it.
fn assert_incremental_equals_cold<P, D>(
    problem: &P,
    program: &Program,
    edits: &[(Program, MethodId, Mutation)],
    table: &FeatureTable,
    label: &str,
) where
    P: for<'a> IfdsProblem<ProgramIcfg<'a>, Fact = D>,
    D: Clone + Eq + Hash + Debug,
{
    let ctx = BddConstraintContext::new(table);
    let icfg = ProgramIcfg::new(program);
    let (_, memo) = solve_seeded(problem, &icfg, &ctx, Memo::default(), &[]);
    let (clean, mut memo) = solve_seeded(problem, &icfg, &ctx, memo, &[]);
    assert_eq!(
        clean.stats().propagations,
        0,
        "{label}: an all-clean re-solve propagated"
    );

    for (edited, edited_method, mutation) in edits {
        let label = format!("{label} after {mutation:?}");
        let edited_icfg = ProgramIcfg::new(edited);
        let (warm, next) = solve_seeded(problem, &edited_icfg, &ctx, memo, &[*edited_method]);
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
        memo = next;
    }
}

#[test]
fn incremental_solve_after_a_random_edit_equals_a_cold_solve() {
    for seed in 0..24u64 {
        let spl = random_spl(seed, 3, 5);
        let mut edited = spl.program.clone();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let edits: Vec<(Program, MethodId, Mutation)> = (0..2)
            .map(|_| {
                let mutation = (0..64)
                    .find_map(|_| mutate_once(&mut edited, &spl.features, &mut rng))
                    .unwrap_or_else(|| panic!("seed {seed}: no applicable mutation"));
                (edited.clone(), edited_stmt(&mutation).method, mutation)
            })
            .collect();
        for kind in AnalysisKind::ALL {
            let label = format!("seed {seed} {}", kind.name());
            with_analysis!(kind, |p| assert_incremental_equals_cold(
                p,
                &spl.program,
                &edits,
                &spl.table,
                &label,
            ));
        }
    }
}
