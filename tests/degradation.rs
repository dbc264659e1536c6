//! Soundness of the governed solver's variability-abstraction lattice:
//! every lattice point answers with constraints that are weaker-or-equal
//! (entailed by) the full-precision ones, so degrading under resource
//! pressure can only over-approximate — it never loses a fact.
//!
//! The lattice generalizes the old three-rung ladder (full → no-model →
//! constraint-true) with composable abstraction steps: *project* away
//! feature subsets (∃-quantification), *join* features into one proxy
//! decision, and *confound* a feature-model OR group into its parent.
//! These tests run the entailment differential for each step, for
//! compositions of steps, and for the adaptive descent the governor
//! performs when a request names `keep_features`.

use spllift::analyses::TaintAnalysis;
use spllift::benchgen::{subject_by_name, synthetic_spec, GeneratedSpl, ModelShape};
use spllift::features::{BddConstraintContext, FeatureId};
use spllift::ifds::SolveAbort;
use spllift::ir::ProgramIcfg;
use spllift::lift::{
    AbstractionStep, GovernorOptions, LatticeHints, LatticePoint, LiftedSolution, ModelMode,
    SolveOutcome, SolverMemo,
};
use spllift::spl::{ChaosWrapper, FaultKind};
use std::time::Duration;

fn subject() -> GeneratedSpl {
    GeneratedSpl::generate(synthetic_spec(4, 160, 11))
}

/// `(id, name)` pairs for the whole feature universe, in table order.
fn universe(spl: &GeneratedSpl) -> Vec<(FeatureId, String)> {
    spl.table.iter().map(|(id, n)| (id, n.to_owned())).collect()
}

/// Asserts the entailment differential at `point`: every constraint the
/// full-precision solve reports must entail the abstracted one, for
/// facts and reachability alike. Returns how many rows were compared.
fn assert_weaker_or_equal(spl: &GeneratedSpl, point: &LatticePoint) -> usize {
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let full = LiftedSolution::solve(&analysis, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
    let weak = LiftedSolution::solve_abstracted(
        &analysis,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        point,
    );
    let mut checked = 0usize;
    for (stmt, fact, c) in full.all_results() {
        assert!(
            c.entails(&weak.constraint_of(stmt, fact)),
            "{}: constraint at {stmt:?}/{fact:?} is not weaker-or-equal",
            point.name()
        );
        assert!(
            full.reachability_of(stmt)
                .entails(&weak.reachability_of(stmt)),
            "{}: reachability at {stmt:?} is not weaker-or-equal",
            point.name()
        );
        checked += 1;
    }
    checked
}

/// A spread of lattice points exercising every abstraction step and
/// their compositions, derived from the subject's own universe: project
/// a prefix, join a suffix, both at once, and the same with the model
/// dropped on top.
fn sample_points(spl: &GeneratedSpl) -> Vec<LatticePoint> {
    let uni = universe(spl);
    let half = (uni.len() / 2).max(1);
    let front: Vec<_> = uni.iter().take(half).cloned().collect();
    let back: Vec<_> = uni.iter().skip(half).cloned().collect();
    let mut points = vec![
        LatticePoint::abstracted(vec![AbstractionStep::project(front.clone())]),
        LatticePoint::abstracted(vec![AbstractionStep::project(uni.clone())]),
    ];
    if !back.is_empty() {
        points.push(LatticePoint::abstracted(vec![AbstractionStep::join(
            back.clone(),
        )]));
        points.push(LatticePoint::abstracted(vec![
            AbstractionStep::project(front.clone()),
            AbstractionStep::join(back.clone()),
        ]));
        points.push(
            LatticePoint::abstracted(vec![
                AbstractionStep::project(front),
                AbstractionStep::join(back),
            ])
            .without_model(),
        );
    }
    // Confound every OR group the model has (none for `free`-shaped
    // models; the groups-model test below exercises a real one).
    let confounds: Vec<AbstractionStep> = spl
        .model
        .or_groups()
        .into_iter()
        .map(|(p, ms)| {
            let name = |id: FeatureId| (id, spl.table.name(id).to_owned());
            AbstractionStep::confound(name(p), ms.into_iter().map(name))
        })
        .collect();
    if !confounds.is_empty() {
        points.push(LatticePoint::abstracted(confounds));
    }
    points
}

/// The entailment differential on the small synthetic subject, one
/// point at a time, with a minimum row count so the check is not
/// vacuous.
#[test]
fn every_abstraction_is_weaker_or_equal_on_synthetic() {
    let spl = subject();
    for point in sample_points(&spl) {
        let checked = assert_weaker_or_equal(&spl, &point);
        assert!(checked > 50, "{}: only {checked} rows", point.name());
    }
}

/// The same differential across the Table 1 subjects the paper
/// evaluates (scaled): MM08, GPL, and Lampiro.
#[test]
fn every_abstraction_is_weaker_or_equal_on_table1_subjects() {
    for name in ["MM08", "GPL", "Lampiro"] {
        let spl = GeneratedSpl::generate(subject_by_name(name).expect("table 1 subject"));
        for point in sample_points(&spl) {
            let checked = assert_weaker_or_equal(&spl, &point);
            assert!(checked > 0, "{name}/{}: no rows compared", point.name());
        }
    }
}

/// Confounding a real OR group (groups-shaped model) is a weakening,
/// and joining a group's members is at-least-as-coarse as projecting
/// them away is weak: `join(S) ⊨ project(S)` per point, pointwise.
#[test]
fn confound_and_join_on_a_groups_model_are_weaker_or_equal() {
    let spl =
        GeneratedSpl::generate(synthetic_spec(12, 400, 23).with_model_shape(ModelShape::Groups));
    let groups = spl.model.or_groups();
    assert!(
        !groups.is_empty(),
        "groups-shaped model must have OR groups"
    );
    for point in sample_points(&spl) {
        assert_weaker_or_equal(&spl, &point);
    }
    // join(S) is more precise than project(S): the full solve entails
    // the join point, and the join point entails the project point.
    let name = |id: FeatureId| (id, spl.table.name(id).to_owned());
    let (_, members) = groups[0].clone();
    let named: Vec<_> = members.iter().map(|&m| name(m)).collect();
    let join = LatticePoint::abstracted(vec![AbstractionStep::join(named.clone())]);
    let project = LatticePoint::abstracted(vec![AbstractionStep::project(named)]);
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let solve_at = |point: &LatticePoint| {
        LiftedSolution::solve_abstracted(
            &analysis,
            &icfg,
            &ctx,
            Some(&model),
            ModelMode::OnEdges,
            point,
        )
    };
    let joined = solve_at(&join);
    let projected = solve_at(&project);
    let mut rows = 0usize;
    for (stmt, fact, c) in joined.all_results() {
        assert!(
            c.entails(&projected.constraint_of(stmt, fact)),
            "join point must entail project point at {stmt:?}/{fact:?}"
        );
        rows += 1;
    }
    assert!(rows > 0);
}

/// Rung 2 differential: dropping the feature model (`no-model`) weakens
/// every constraint (`c ∧ m ⊨ c`), for facts and reachability alike.
#[test]
fn no_model_rung_is_weaker_or_equal_than_full() {
    let spl = subject();
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let full = LiftedSolution::solve(&analysis, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
    let no_model = LiftedSolution::solve(&analysis, &icfg, &ctx, None, ModelMode::Ignore);
    let mut checked = 0usize;
    for (stmt, fact, c) in full.all_results() {
        assert!(
            c.entails(&no_model.constraint_of(stmt, fact)),
            "no-model constraint at {stmt:?}/{fact:?} is not weaker-or-equal"
        );
        checked += 1;
    }
    assert!(
        checked > 50,
        "subject too small to be meaningful: {checked}"
    );
}

/// Bottom-of-lattice differential, forced through the governor: a node
/// budget too small for any constraint work sends the default descent
/// to `constraint-true`, which still completes and reports every
/// full-precision fact — under the trivially weaker constraint `true`.
/// The default descent (no `keep_features`) is exactly the old ladder:
/// full → no-model → constraint-true.
#[test]
fn blowup_subject_completes_under_node_budget_via_the_ladder() {
    let spl = subject();
    let icfg = ProgramIcfg::new(&spl.program);
    // Fresh context: with a warm unique table (from an earlier solve of
    // the same product line) the full point needs no *new* nodes and
    // legitimately completes under any node budget. The blowup scenario
    // is a cold manager.
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let gov = GovernorOptions {
        max_bdd_nodes: Some(2),
        ..GovernorOptions::default()
    };
    let (degraded, outcome) = LiftedSolution::solve_governed(
        &analysis,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        gov,
    )
    .expect("bottom point needs no constraint nodes and must complete");
    assert_eq!(outcome.point().name(), "constraint-true");
    assert!(outcome.point().is_collapsed());
    let SolveOutcome::Degraded { attempts, .. } = &outcome else {
        panic!("expected a degraded outcome, got {outcome:?}");
    };
    let tried: Vec<String> = attempts.iter().map(|(p, _)| p.name()).collect();
    assert_eq!(tried, ["full", "no-model"]);
    for (_, reason) in attempts {
        assert!(
            reason.contains("budget exhausted") && reason.contains("nodes"),
            "unexpected abort reason: {reason}"
        );
    }
    // Sound over-approximation: every fact the precise solve reports is
    // reported by the degraded one, with the weaker constraint `true`.
    // (The full solve runs second, on the now-unbudgeted manager.)
    let full = LiftedSolution::solve(&analysis, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
    for (stmt, fact, c) in full.all_results() {
        let weak = degraded.constraint_of(stmt, fact);
        assert!(
            weak.is_true(),
            "constraint-true point reported {} at {stmt:?}/{fact:?}",
            weak.to_cube_string()
        );
        assert!(c.entails(&weak));
    }
}

/// The lattice bottom is exactly today's constraint-true semantics:
/// solving at [`LatticePoint::constraint_true`] reports the same rows
/// as the governor's bottom fallback.
#[test]
fn lattice_bottom_matches_constraint_true_semantics() {
    let spl = subject();
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let explicit = LiftedSolution::solve_abstracted(
        &analysis,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        &LatticePoint::constraint_true(),
    );
    let fresh_ctx = BddConstraintContext::new(&spl.table);
    let (governed, outcome) = LiftedSolution::solve_governed(
        &analysis,
        &icfg,
        &fresh_ctx,
        Some(&model),
        ModelMode::OnEdges,
        GovernorOptions {
            max_bdd_nodes: Some(2),
            ..GovernorOptions::default()
        },
    )
    .expect("bottom completes");
    assert!(outcome.point().is_collapsed());
    let mut rows = 0usize;
    for (stmt, fact, c) in explicit.all_results() {
        assert!(c.is_true());
        assert!(governed.constraint_of(stmt, fact).is_true());
        rows += 1;
    }
    let governed_rows = governed.all_results().count();
    assert_eq!(rows, governed_rows);
    assert!(rows > 0);
}

/// Adaptive descent: on a wide groups-model subject whose full-precision
/// solve blows a tiny op budget, a request that names `keep_features`
/// lands on a feature-sparing lattice point — not the bottom — and the
/// outcome records exactly which abstraction answered.
#[test]
fn adaptive_descent_spares_kept_features() {
    let spl =
        GeneratedSpl::generate(synthetic_spec(128, 900, 7).with_model_shape(ModelShape::Groups));
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let uni = universe(&spl);
    // Keep the first two reachable features precise.
    let keep: Vec<FeatureId> = spl.reachable.iter().take(2).copied().collect();
    assert_eq!(keep.len(), 2);
    // Tuned window (measured: full ≈770k ops, confound ≈560k, the
    // keep-sparing projection ≈31k): full precision and the confound
    // point blow 50k, the projection fits.
    let gov = GovernorOptions {
        max_bdd_ops: Some(50_000),
        lattice: LatticeHints {
            universe: uni,
            keep: Some(keep.clone()),
            or_groups: spl.model.or_groups(),
        },
        ..GovernorOptions::default()
    };
    let (solution, outcome) = LiftedSolution::solve_governed(
        &analysis,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        gov,
    )
    .expect("some lattice point must fit the envelope");
    let point = outcome.point();
    assert!(outcome.is_degraded(), "full precision must not fit 2k ops");
    assert!(
        !point.is_collapsed(),
        "descent fell to the bottom: {outcome:?}"
    );
    // The point spares exactly the kept features: nothing it projects,
    // joins, or confounds is in `keep`.
    let abstracted = point.abstracted_features();
    for id in &keep {
        assert!(
            !abstracted.iter().any(|(a, _)| a == id),
            "kept feature {id:?} was abstracted by {}",
            point.name()
        );
    }
    assert!(
        !abstracted.is_empty(),
        "non-bottom degraded point must abstract something"
    );
    // And the name records the exact lattice point, machine-readably.
    assert!(
        point.name().contains("project(") || point.name().contains("confound("),
        "unexpected point name: {}",
        point.name()
    );
    // Soundness spot-check against full precision (the governed solve
    // disarmed the budget on success, so the same manager can run the
    // precise solve now).
    let full = LiftedSolution::solve(&analysis, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
    for (stmt, fact, c) in full.all_results() {
        assert!(c.entails(&solution.constraint_of(stmt, fact)));
    }
}

/// Selective memo reuse at a degraded point: methods whose constraints
/// the abstraction leaves unchanged keep their jump functions, and the
/// warm-started result is identical to a cold solve at the same point.
#[test]
fn degraded_memo_reuse_matches_cold_solve() {
    let spl = subject();
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let uni = universe(&spl);
    let keep: Vec<FeatureId> = uni.iter().take(2).map(|(id, _)| *id).collect();
    // Warm up: a full-precision memoized solve retains jump functions.
    let (_, outcome, memo) = LiftedSolution::solve_governed_memoized(
        &analysis,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        GovernorOptions::default(),
        &SolverMemo::default(),
        &|_| false,
    )
    .expect("unlimited solve completes");
    assert_eq!(outcome, SolveOutcome::Complete);
    // Degrade: a one-charge injected blow-up fails exactly the full
    // attempt (warm unique tables make node budgets unreliable here);
    // the keep-sparing projection then runs clean, consulting the memo
    // selectively.
    let chaotic = ChaosWrapper::new(
        &analysis,
        FaultKind::BudgetExhaust,
        1,
        Duration::from_millis(0),
        Box::new(|| ctx.manager().charge_ops(u64::MAX)),
    );
    let gov = GovernorOptions {
        max_bdd_ops: Some(u64::MAX / 2),
        lattice: LatticeHints {
            universe: uni.clone(),
            keep: Some(keep),
            or_groups: vec![],
        },
        ..GovernorOptions::default()
    };
    let (warm, outcome, returned) = LiftedSolution::solve_governed_memoized(
        &chaotic,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        gov,
        &memo,
        &|_| true,
    )
    .expect("the projection point must complete");
    assert!(outcome.is_degraded());
    let point = outcome.point();
    assert!(!point.is_collapsed(), "descent fell to bottom: {outcome:?}");
    assert!(
        returned.is_empty(),
        "a degraded solve must not seed later full-precision rounds"
    );
    let cold = LiftedSolution::solve_abstracted(
        &analysis,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        &point,
    );
    let mut rows = 0usize;
    for (stmt, fact, c) in cold.all_results() {
        assert_eq!(
            *c,
            warm.constraint_of(stmt, fact),
            "warm-started degraded solve diverged at {stmt:?}/{fact:?}"
        );
        rows += 1;
    }
    assert_eq!(rows, warm.all_results().count());
    assert!(rows > 0);
}

/// With no limits armed, the governed entry point is exactly the plain
/// solver plus `Complete`.
#[test]
fn ungoverned_solve_is_unchanged() {
    let spl = subject();
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let plain = LiftedSolution::solve(&analysis, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
    let (governed, outcome) = LiftedSolution::solve_governed(
        &analysis,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        GovernorOptions::default(),
    )
    .expect("unlimited governed solve cannot abort");
    assert_eq!(outcome, SolveOutcome::Complete);
    let mut rows = 0usize;
    for (stmt, fact, c) in plain.all_results() {
        assert_eq!(*c, governed.constraint_of(stmt, fact));
        rows += 1;
    }
    assert!(rows > 0);
}

/// A limit that no lattice point can satisfy (the propagation count
/// does not shrink down the descent) surfaces as a structured abort,
/// not a hang or a panic.
#[test]
fn impossible_limit_aborts_every_rung_with_a_structured_error() {
    let spl = subject();
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let gov = GovernorOptions {
        max_propagations: Some(1),
        ..GovernorOptions::default()
    };
    let err = LiftedSolution::solve_governed(
        &analysis,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        gov,
    )
    .expect_err("1 propagation cannot finish any rung");
    assert_eq!(err, SolveAbort::PropagationLimit(1));
}

/// A `budget-exhaust` chaos fault burning the op budget *mid-solve* (a
/// delayed [`ChaosWrapper`]) degrades the governed solve exactly like
/// an organic blow-up: the full attempt aborts with a budget reason,
/// the wrapper's charge is spent, and a lower point answers clean.
#[test]
fn mid_solve_budget_exhaustion_degrades_deterministically() {
    let spl = subject();
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let analysis = TaintAnalysis::secret_to_print();
    let chaotic = ChaosWrapper::with_delay(
        &analysis,
        FaultKind::BudgetExhaust,
        1,
        40,
        Duration::from_millis(0),
        Box::new(|| ctx.manager().charge_ops(u64::MAX)),
    );
    let gov = GovernorOptions {
        max_bdd_ops: Some(1_000_000),
        ..GovernorOptions::default()
    };
    let (degraded, outcome) = LiftedSolution::solve_governed(
        &chaotic,
        &icfg,
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
        gov,
    )
    .expect("the fault carries one charge; a lower point completes");
    assert_eq!(chaotic.charges_left(), 0, "the fault never fired");
    let SolveOutcome::Degraded { attempts, .. } = &outcome else {
        panic!("expected a degraded outcome, got {outcome:?}");
    };
    assert_eq!(attempts[0].0.name(), "full");
    assert!(
        attempts[0].1.contains("budget exhausted"),
        "unexpected abort reason: {}",
        attempts[0].1
    );
    // Soundness unchanged under injected exhaustion (full solve second,
    // on the now-unbudgeted manager).
    let full = LiftedSolution::solve(&analysis, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
    for (stmt, fact, c) in full.all_results() {
        assert!(c.entails(&degraded.constraint_of(stmt, fact)));
    }
}
