//! The Datalog-backend acceptance battery (DESIGN.md §13): reaching
//! definitions solved by the lifted Datalog engine
//! ([`spllift::datalog::solve_reaching_defs`]) must be semantically
//! identical to the IDE lifting — per-fact [`Bdd::semantic_digest`]
//! equality, checked in **both** directions, plus the reachability
//! (Zero-fact) projection — on the paper's benchmark subjects and on
//! every committed fuzz-corpus repro. The benchmark subjects' exact
//! evaluation counters are pinned too.
//!
//! Lampiro also passes (119 658 facts), but its debug-mode run takes
//! over a minute, so it is `#[ignore]`d here; the release-mode CI smoke
//! in `scripts/ci.sh` cross-checks it instead. Run it explicitly with
//! `cargo test --release --test datalog_crosscheck -- --ignored`.
//!
//! [`Bdd::semantic_digest`]: spllift::bdd::Bdd::semantic_digest

use spllift::analyses::ReachingDefs;
use spllift::benchgen::{subject_by_name, GeneratedSpl};
use spllift::datalog::{solve_reaching_defs, EvalOptions, EvalStats};
use spllift::features::{BddConstraintContext, FeatureExpr, FeatureTable};
use spllift::ifds::Icfg;
use spllift::ir::text::parse_repro;
use spllift::ir::{Program, ProgramIcfg};
use spllift::lift::{LiftedSolution, ModelMode};

/// An evaluation's `(strata, rounds, derivations, tuples)`.
type Counters = (usize, usize, u64, usize);

fn counters(stats: &EvalStats) -> Counters {
    (stats.strata, stats.rounds, stats.derivations, stats.tuples)
}

/// Solves `program` with both backends, asserts semantic equality
/// fact-for-fact, and returns the Datalog evaluation counters.
fn assert_backends_agree(
    program: &Program,
    table: &FeatureTable,
    model: Option<&FeatureExpr>,
    label: &str,
) -> Counters {
    let icfg = ProgramIcfg::new(program);
    let ctx = BddConstraintContext::new(table);
    let ide = LiftedSolution::solve(&ReachingDefs::new(), &icfg, &ctx, model, ModelMode::OnEdges);

    let dl = solve_reaching_defs(&icfg, &ctx, model, &EvalOptions::default())
        .unwrap_or_else(|e| panic!("{label}: datalog evaluation failed: {e}"));

    let mut facts = 0usize;
    let by_stmt = dl.reaching_by_stmt();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let want = ide.results_at(s);
            for (fact, c) in &want {
                let dc = dl.reaching_constraint(s, fact);
                assert_eq!(
                    dc.map(|x| x.semantic_digest()),
                    Some(c.semantic_digest()),
                    "{label}: at {s} fact {fact:?}: IDE has {}, Datalog has {}",
                    c.to_cube_string(),
                    dc.map_or_else(|| "no fact".into(), |x| x.to_cube_string()),
                );
                facts += 1;
            }
            for (fact, c) in by_stmt.get(&s).into_iter().flatten() {
                assert!(
                    want.contains_key(fact),
                    "{label}: at {s} fact {fact:?} derived only by Datalog ({})",
                    c.to_cube_string()
                );
            }
            let ide_reach = ide.reachability_of(s);
            match dl.reachability_of(s) {
                Some(c) => assert_eq!(
                    c.semantic_digest(),
                    ide_reach.semantic_digest(),
                    "{label}: reachability at {s}: IDE has {}, Datalog has {}",
                    ide_reach.to_cube_string(),
                    c.to_cube_string(),
                ),
                None => assert!(
                    ide_reach.is_false(),
                    "{label}: {s} reachable under {} per IDE but has no Datalog fact",
                    ide_reach.to_cube_string()
                ),
            }
        }
    }
    assert!(facts > 0, "{label}: IDE solution is empty");
    counters(dl.stats())
}

fn check_generated(name: &str) -> Counters {
    let spl = GeneratedSpl::generate(subject_by_name(name).expect("known subject"));
    let model = spl.model_expr();
    assert_backends_agree(&spl.program, &spl.table, Some(&model), name)
}

// Exact evaluation counters: a join plan may change the order of the
// work, never the work.

#[test]
fn mm08_matches_ide() {
    assert_eq!(check_generated("MM08"), (2, 147, 56_709, 35_103));
}

#[test]
fn gpl_matches_ide() {
    assert_eq!(check_generated("GPL"), (2, 137, 126_798, 80_818));
}

#[test]
#[ignore = "debug-mode Lampiro evaluation is slow; run with --release -- --ignored"]
fn lampiro_matches_ide() {
    assert_eq!(check_generated("Lampiro"), (2, 210, 483_288, 279_614));
}

#[test]
fn corpus_repros_match_ide() {
    let dir = std::path::Path::new("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "repro"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus must not be empty");
    for path in paths {
        let label = path.display().to_string();
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let (program, table) = parse_repro(&text).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert_backends_agree(&program, &table, None, &label);
    }
}
