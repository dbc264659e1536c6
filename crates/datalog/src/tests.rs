//! Engine edge cases, the dump format, and equivalence against the
//! IDE-lifted solver.

use crate::*;
use spllift_analyses::{DefFact, ReachingDefs};
use spllift_core::{LiftedSolution, ModelMode};
use spllift_features::{
    BddConstraintContext, ConstraintContext, FeatureExpr, FeatureId, FeatureTable,
};
use spllift_hash::FastMap;
use spllift_ifds::Icfg;
use spllift_ir::samples::{fig1, shapes};
use spllift_ir::ProgramIcfg;

fn two_feature_ctx() -> (FeatureTable, BddConstraintContext) {
    let mut table = FeatureTable::new();
    table.intern("A");
    table.intern("B");
    let ctx = BddConstraintContext::new(&table);
    (table, ctx)
}

/// edge/2 EDB with per-edge constraints; path/2 as its transitive
/// closure. The lifted join must AND constraints along a path and OR
/// them across alternative paths.
#[test]
fn transitive_closure_joins_and_merges_constraints() {
    let (_table, ctx) = two_feature_ctx();
    let a = ctx.lit(FeatureId(0), true);
    let b = ctx.lit(FeatureId(1), true);
    let mut p = DatalogProgram::new();
    let edge = p.relation("edge", 2);
    let path = p.relation("path", 2);
    let v = Term::Var;
    p.rule(
        "path-base",
        Atom::new(path, vec![v(0), v(1)]),
        vec![pos(edge, vec![v(0), v(1)])],
    );
    p.rule(
        "path-step",
        Atom::new(path, vec![v(0), v(2)]),
        vec![pos(path, vec![v(0), v(1)]), pos(edge, vec![v(1), v(2)])],
    );
    let mut db = Database::new(&p);
    db.insert(edge, vec![1, 2], a.clone());
    db.insert(edge, vec![2, 3], b.clone());
    db.insert(edge, vec![1, 3], ctx.tt());
    let stats = evaluate(&p, &mut db, &ctx).unwrap();
    // 1→3 directly (true) or via 2 (A ∧ B): merged constraint is true.
    assert_eq!(db.constraint_of(path, &[1, 3]), Some(&ctx.tt()));
    // 1→2 only under A, 2→3 only under B.
    assert_eq!(db.constraint_of(path, &[1, 2]), Some(&a));
    assert_eq!(db.constraint_of(path, &[2, 3]), Some(&b));
    assert!(stats.rounds >= 2);
}

/// A body whose joined constraint is unsatisfiable must not materialize
/// the head tuple at all (not even with a `false` constraint).
#[test]
fn contradictory_join_does_not_materialize() {
    let (_table, ctx) = two_feature_ctx();
    let a = ctx.lit(FeatureId(0), true);
    let mut p = DatalogProgram::new();
    let l = p.relation("l", 1);
    let r = p.relation("r", 1);
    let out = p.relation("out", 1);
    let v = Term::Var;
    p.rule(
        "join",
        Atom::new(out, vec![v(0)]),
        vec![pos(l, vec![v(0)]), pos(r, vec![v(0)])],
    );
    let mut db = Database::new(&p);
    db.insert(l, vec![7], a.clone());
    db.insert(r, vec![7], a.not());
    evaluate(&p, &mut db, &ctx).unwrap();
    assert_eq!(db.len(out), 0, "A ∧ ¬A join must derive nothing");
    // Inserting an explicitly false tuple is also a no-op.
    assert!(!db.insert(out, vec![9], ctx.ff()));
    assert_eq!(db.len(out), 0);
}

/// Re-deriving a tuple under an already-covered constraint is subsumed:
/// the stored BDD is unchanged and the fixpoint terminates.
#[test]
fn repeated_derivation_is_subsumed() {
    let (_table, ctx) = two_feature_ctx();
    let a = ctx.lit(FeatureId(0), true);
    let mut p = DatalogProgram::new();
    let e = p.relation("e", 2);
    let t = p.relation("t", 2);
    let v = Term::Var;
    p.rule(
        "base",
        Atom::new(t, vec![v(0), v(1)]),
        vec![pos(e, vec![v(0), v(1)])],
    );
    p.rule(
        "step",
        Atom::new(t, vec![v(0), v(2)]),
        vec![pos(t, vec![v(0), v(1)]), pos(e, vec![v(1), v(2)])],
    );
    let mut db = Database::new(&p);
    // A cycle: 1→2→1, both under A. t(1,1) keeps re-deriving as A∧A∧…
    db.insert(e, vec![1, 2], a.clone());
    db.insert(e, vec![2, 1], a.clone());
    let stats = evaluate(&p, &mut db, &ctx).unwrap();
    assert_eq!(db.constraint_of(t, &[1, 1]), Some(&a));
    assert_eq!(db.len(t), 4); // (1,1) (1,2) (2,1) (2,2)
    assert!(
        stats.derivations > db.len(t) as u64,
        "the cycle re-derives tuples; subsumption must retire them"
    );
}

/// Lifted stratified negation: `!R(t)` contributes ¬c for a stored
/// constraint c, and `true` when the tuple is absent.
#[test]
fn negation_is_lifted() {
    let (_table, ctx) = two_feature_ctx();
    let a = ctx.lit(FeatureId(0), true);
    let mut p = DatalogProgram::new();
    let node = p.relation("node", 1);
    let bad = p.relation("bad", 1);
    let good = p.relation("good", 1);
    let v = Term::Var;
    p.rule(
        "good",
        Atom::new(good, vec![v(0)]),
        vec![pos(node, vec![v(0)]), neg(bad, vec![v(0)])],
    );
    let mut db = Database::new(&p);
    db.insert(node, vec![1], ctx.tt());
    db.insert(node, vec![2], ctx.tt());
    db.insert(bad, vec![1], a.clone());
    evaluate(&p, &mut db, &ctx).unwrap();
    assert_eq!(db.constraint_of(good, &[1]), Some(&a.not()));
    assert_eq!(db.constraint_of(good, &[2]), Some(&ctx.tt()));
}

/// Negation through a cycle is rejected as unstratifiable.
#[test]
fn negative_cycle_is_unstratifiable() {
    let (_table, ctx) = two_feature_ctx();
    let mut p = DatalogProgram::new();
    let n = p.relation("n", 1);
    let odd = p.relation("odd", 1);
    let even = p.relation("even", 1);
    let v = Term::Var;
    p.rule(
        "odd",
        Atom::new(odd, vec![v(0)]),
        vec![pos(n, vec![v(0)]), neg(even, vec![v(0)])],
    );
    p.rule(
        "even",
        Atom::new(even, vec![v(0)]),
        vec![pos(n, vec![v(0)]), neg(odd, vec![v(0)])],
    );
    let mut db = Database::new(&p);
    let err = evaluate(&p, &mut db, &ctx).unwrap_err();
    assert!(matches!(err, DatalogError::Unstratifiable { .. }), "{err}");
}

/// Structural validation surfaces as errors, not panics.
#[test]
fn validation_errors() {
    let (_table, ctx) = two_feature_ctx();
    let v = Term::Var;

    // Arity mismatch.
    let mut p = DatalogProgram::new();
    let e = p.relation("e", 2);
    p.rule(
        "bad",
        Atom::new(e, vec![v(0)]),
        vec![pos(e, vec![v(0), v(1)])],
    );
    let mut db = Database::new(&p);
    assert!(matches!(
        evaluate(&p, &mut db, &ctx),
        Err(DatalogError::ArityMismatch { .. })
    ));

    // Unbound head variable.
    let mut p = DatalogProgram::new();
    let e = p.relation("e", 2);
    let o = p.relation("o", 2);
    p.rule(
        "bad",
        Atom::new(o, vec![v(0), v(9)]),
        vec![pos(e, vec![v(0), v(1)])],
    );
    let mut db = Database::new(&p);
    assert!(matches!(
        evaluate(&p, &mut db, &ctx),
        Err(DatalogError::UnboundVariable { .. })
    ));

    // A rule with no positive literal.
    let mut p = DatalogProgram::new();
    let e = p.relation("e", 1);
    let o = p.relation("o", 1);
    p.rule(
        "bad",
        Atom::new(o, vec![Term::Const(1)]),
        vec![neg(e, vec![Term::Const(1)])],
    );
    let mut db = Database::new(&p);
    assert!(matches!(
        evaluate(&p, &mut db, &ctx),
        Err(DatalogError::NoPositiveLiteral { .. })
    ));
}

/// A program with declared relations but no rules (every stratum empty)
/// evaluates to a no-op instead of erroring.
#[test]
fn empty_strata_are_a_noop() {
    let (_table, ctx) = two_feature_ctx();
    let mut p = DatalogProgram::new();
    let e = p.relation("e", 2);
    let mut db = Database::new(&p);
    db.insert(e, vec![1, 2], ctx.tt());
    let stats = evaluate(&p, &mut db, &ctx).unwrap();
    assert_eq!(stats.rounds, 0);
    assert_eq!(db.len(e), 1);
}

/// Exhausting the BDD manager's budget mid-evaluation surfaces as a
/// structured error, not a panic.
#[test]
fn budget_exhaustion_is_a_structured_error() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    ctx.arm_budget(None, Some(1));
    let err = solve_reaching_defs(&icfg, &ctx, None, &EvalOptions::default());
    ctx.disarm_budget();
    match err {
        Err(DatalogError::BudgetExceeded { .. }) => {}
        Ok(_) => panic!("expected BudgetExceeded, got a completed solve"),
        Err(e) => panic!("expected BudgetExceeded, got {e}"),
    }
}

// ---------------------------------------------------------------------
// Differential against a brute-force lifted fixpoint.
// ---------------------------------------------------------------------

/// Every stored fact: (relation, tuple) → constraint.
type Facts = FastMap<(RelId, Tuple), spllift_bdd::Bdd>;

fn facts_of(program: &DatalogProgram, db: &Database) -> Facts {
    (0..program.relation_count())
        .flat_map(|r| {
            db.tuples(RelId(r))
                .map(move |(t, c)| ((RelId(r), t.to_vec()), c.clone()))
        })
        .collect()
}

/// The lifted least fixpoint computed without joins, plans or deltas:
/// every rule, over every binding of its variables to `domain`, ORs the
/// AND of its positive body constraints and the negations of its
/// negated ones (an absent fact is `false`, so its negation is `true`)
/// into the head, until nothing changes. Kleene iteration is exact here
/// because every negated literal is over an EDB relation.
fn brute_force_fixpoint(
    program: &DatalogProgram,
    mut facts: Facts,
    domain: &[u64],
    ctx: &BddConstraintContext,
) -> Facts {
    loop {
        let mut changed = false;
        for rule in program.rules() {
            let nvars = rule
                .head
                .terms
                .iter()
                .chain(rule.body.iter().flat_map(|l| &l.atom.terms))
                .filter_map(|t| match t {
                    Term::Var(v) => Some(v + 1),
                    Term::Const(_) => None,
                })
                .max()
                .unwrap_or(0);
            for code in 0..domain.len().pow(nvars as u32) {
                let binding: Vec<u64> = (0..nvars)
                    .map(|v| domain[code / domain.len().pow(v as u32) % domain.len()])
                    .collect();
                let ground = |atom: &Atom| -> (RelId, Tuple) {
                    let tuple = atom
                        .terms
                        .iter()
                        .map(|t| match *t {
                            Term::Var(v) => binding[v],
                            Term::Const(k) => k,
                        })
                        .collect();
                    (atom.relation, tuple)
                };
                let mut c = ctx.tt();
                for lit in &rule.body {
                    let stored = facts.get(&ground(&lit.atom));
                    c = match (lit.negated, stored) {
                        (false, Some(s)) => c.and(s),
                        (false, None) => ctx.ff(),
                        (true, Some(s)) => c.and(&s.not()),
                        (true, None) => c,
                    };
                }
                if c.is_false() {
                    continue;
                }
                let head = ground(&rule.head);
                let old = facts.get(&head).cloned().unwrap_or_else(|| ctx.ff());
                let new = old.or(&c);
                if new != old {
                    facts.insert(head, new);
                    changed = true;
                }
            }
        }
        if !changed {
            return facts;
        }
    }
}

/// Four rule shapes the join planner reorders, over random EDBs whose
/// constraints range over three features: non-linear recursion (its
/// indexed step reads a relation that grows every round, so a stale
/// index would lose derivations), a body written cross-product-first, a
/// constant column with a repeated variable, and a negated EDB literal.
/// The engine must store exactly the brute-force fixpoint's constraint
/// for every tuple.
#[test]
fn evaluate_matches_a_brute_force_fixpoint() {
    let mut table = FeatureTable::new();
    for name in ["A", "B", "C"] {
        table.intern(name);
    }
    let ctx = BddConstraintContext::new(&table);
    let mut p = DatalogProgram::new();
    let e = p.relation("e", 2);
    let f = p.relation("f", 2);
    let g = p.relation("g", 1);
    let path = p.relation("path", 2);
    let hop = p.relation("hop", 2);
    let loops = p.relation("loops", 1);
    let open = p.relation("open", 2);
    let (v, k) = (Term::Var, Term::Const);
    p.rule(
        "path-base",
        Atom::new(path, vec![v(0), v(1)]),
        vec![pos(e, vec![v(0), v(1)])],
    );
    p.rule(
        "path-square",
        Atom::new(path, vec![v(0), v(2)]),
        vec![pos(path, vec![v(0), v(1)]), pos(path, vec![v(1), v(2)])],
    );
    // `hop` feeds `path` new base tuples round after round, so
    // `path-square` keeps joining tuples that are both new.
    p.rule(
        "path-hop",
        Atom::new(path, vec![v(1), v(0)]),
        vec![pos(hop, vec![v(0), v(1)])],
    );
    p.rule(
        "hop-cross",
        Atom::new(hop, vec![v(0), v(3)]),
        vec![
            pos(e, vec![v(0), v(1)]),
            pos(f, vec![v(2), v(3)]),
            pos(path, vec![v(1), v(2)]),
        ],
    );
    p.rule(
        "hop-cross-rec",
        Atom::new(hop, vec![v(0), v(3)]),
        vec![
            pos(f, vec![v(2), v(3)]),
            pos(e, vec![v(0), v(1)]),
            pos(hop, vec![v(1), v(2)]),
        ],
    );
    p.rule(
        "loops-const",
        Atom::new(loops, vec![v(0)]),
        vec![pos(path, vec![k(1), v(0)]), pos(hop, vec![v(0), v(0)])],
    );
    p.rule(
        "open-neg",
        Atom::new(open, vec![v(0), v(1)]),
        vec![pos(hop, vec![v(0), v(1)]), neg(g, vec![v(1)])],
    );
    let domain: Vec<u64> = (0..5).collect();
    let mut derived = FastMap::default();
    for seed in 0..16u64 {
        let mut rng = spllift_rng::SplitMix64::seed_from_u64(seed);
        let constraint = |rng: &mut spllift_rng::SplitMix64| {
            let shape = rng.gen_range(0..4u32);
            let mut lit = || ctx.lit(FeatureId(rng.gen_range(0..3u32)), rng.gen_bool(0.5));
            match shape {
                0 => ctx.tt(),
                1 => lit(),
                2 => lit().and(&lit()),
                _ => lit().or(&lit()),
            }
        };
        let mut seeded = Database::new(&p);
        for (rel, arity, count) in [(e, 2, 9), (f, 2, 7), (g, 1, 2)] {
            for _ in 0..count {
                let tuple = (0..arity).map(|_| *rng.choose(&domain)).collect();
                let c = constraint(&mut rng);
                seeded.insert(rel, tuple, c);
            }
        }
        let want = brute_force_fixpoint(&p, facts_of(&p, &seeded), &domain, &ctx);
        for (rel, _) in want.keys() {
            *derived.entry(*rel).or_insert(0) += 1;
        }
        let mut db = seeded;
        evaluate(&p, &mut db, &ctx).unwrap();
        assert_eq!(facts_of(&p, &db), want, "seed {seed}");
    }
    for rel in [path, hop, loops, open] {
        assert!(
            derived.get(&rel).is_some_and(|&n| n >= 16),
            "{} derived too few tuples over all seeds: {derived:?}",
            p.relation_name(rel)
        );
    }
}

// ---------------------------------------------------------------------
// Equivalence against the IDE-lifted solver.
// ---------------------------------------------------------------------

/// Asserts that the Datalog solve of reaching definitions produces the
/// exact per-fact constraints of the IDE lifting, both directions, plus
/// matching reachability constraints.
fn assert_matches_ide(
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    model: Option<&FeatureExpr>,
) {
    let analysis = ReachingDefs::new();
    let mode = if model.is_some() {
        ModelMode::OnEdges
    } else {
        ModelMode::Ignore
    };
    let ide = LiftedSolution::solve(&analysis, icfg, ctx, model, mode);
    let dl = solve_reaching_defs(icfg, ctx, model, &EvalOptions::default()).unwrap();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let want: FastMap<DefFact, _> = ide.results_at(s);
            let got = dl.reaching_at(s);
            for (fact, c) in &want {
                let dc = dl.reaching_constraint(s, fact);
                assert_eq!(
                    dc,
                    Some(c),
                    "at {s} fact {fact:?}: ide={} datalog={:?}",
                    c.to_cube_string(),
                    dc.map(|x| x.to_cube_string()),
                );
            }
            for (fact, c) in &got {
                assert_eq!(
                    want.get(fact),
                    Some(c),
                    "at {s} fact {fact:?} derived only by datalog ({})",
                    c.to_cube_string()
                );
            }
            // Reachability: the Zero-fact projection.
            let ide_reach = ide.reachability_of(s);
            match dl.reachability_of(s) {
                Some(c) => assert_eq!(c, &ide_reach, "reachability at {s}"),
                None => assert!(ide_reach.is_false(), "reachability at {s} missing"),
            }
        }
    }
}

#[test]
fn fig1_matches_ide() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    assert_matches_ide(&icfg, &ctx, None);
}

#[test]
fn fig1_with_model_matches_ide() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    let mut table = ex.table.clone();
    let model = FeatureExpr::parse("(F && G) || (!F && !G)", &mut table).unwrap();
    assert_matches_ide(&icfg, &ctx, Some(&model));
}

#[test]
fn shapes_matches_ide() {
    let ex = shapes();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    assert_matches_ide(&icfg, &ctx, None);
}

#[test]
fn random_programs_match_ide() {
    for seed in [1u64, 7, 13, 21, 34, 55] {
        let spl = spllift_benchgen::random_spl(seed, 4, 5);
        let icfg = ProgramIcfg::new(&spl.program);
        let ctx = BddConstraintContext::new(&spl.table);
        assert_matches_ide(&icfg, &ctx, None);
        if spl.features.len() >= 2 {
            let model =
                FeatureExpr::var(spl.features[0]).implies(FeatureExpr::var(spl.features[1]));
            assert_matches_ide(&icfg, &ctx, Some(&model));
        }
    }
}

/// Method reachability agrees with the IDE solution's start-point
/// reachability constraints.
#[test]
fn reachable_methods_match_ide_start_points() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    let analysis = ReachingDefs::new();
    let ide = LiftedSolution::solve(&analysis, &icfg, &ctx, None, ModelMode::Ignore);
    let dl = solve_reaching_defs(&icfg, &ctx, None, &EvalOptions::default()).unwrap();
    let reached: FastMap<_, _> = dl.reachable_methods().into_iter().collect();
    for m in icfg.methods() {
        let ide_c = ide.reachability_of(icfg.start_point_of(m));
        match reached.get(&m) {
            Some(c) => assert_eq!(*c, &ide_c, "method {m:?}"),
            None => assert!(ide_c.is_false(), "method {m:?} missing from MReach"),
        }
    }
}

// ---------------------------------------------------------------------
// Determinism and the dump format.
// ---------------------------------------------------------------------

#[test]
fn dump_renders_every_tuple_deterministically() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let render = || {
        let ctx = BddConstraintContext::new(&ex.table);
        let sol = solve_reaching_defs(&icfg, &ctx, None, &EvalOptions::default()).unwrap();
        let text = render_dump(&sol, &ctx, &ex.table);
        // Each `relation name/arity` line opens a section holding one
        // line per tuple of that relation.
        let mut sections: Vec<(&str, usize)> = Vec::new();
        for line in text.lines().skip(2) {
            match line.strip_prefix("relation ") {
                Some(header) => sections.push((header, 0)),
                None => sections.last_mut().expect("a section").1 += 1,
            }
        }
        let program = sol.program();
        assert_eq!(sections.len(), program.relation_count());
        for (r, (header, tuples)) in sections.iter().enumerate() {
            let rel = RelId(r);
            let name = program.relation_name(rel);
            assert_eq!(*header, format!("{name}/{}", program.arity(rel)));
            assert_eq!(*tuples, sol.database().len(rel), "{name}");
        }
        text
    };
    let text = render();
    assert!(
        text.starts_with(&format!("{DUMP_HEADER}\nfeatures ")),
        "{text}"
    );
    assert_eq!(render(), text, "a second solve must render the same bytes");
}
