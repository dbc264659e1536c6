use crate::a2::solve_a2;
use crate::{crosscheck, valid_configurations, A1Run, A2Problem};
use spllift_analyses::{PossibleTypes, ReachingDefs, TaintAnalysis, UninitVars};
use spllift_core::LiftedIcfg;
use spllift_features::{BddConstraintContext, Configuration, FeatureExpr, FeatureId, FeatureTable};
use spllift_ifds::{Icfg, IfdsSolver};
use spllift_ir::samples::fig1;
use spllift_ir::ProgramIcfg;

fn all_fig1_configs() -> Vec<Configuration> {
    (0u64..8)
        .map(|bits| Configuration::from_bits(bits, 3))
        .collect()
}

#[test]
fn valid_configurations_respects_model() {
    let mut t = FeatureTable::new();
    let f = t.intern("F");
    let g = t.intern("G");
    let model = FeatureExpr::parse("(F && G) || (!F && !G)", &mut t).unwrap();
    let configs = valid_configurations(&model, &[f, g]);
    assert_eq!(configs.len(), 2);
    assert!(configs.contains(&Configuration::empty()));
    assert!(configs.contains(&Configuration::from_enabled([f, g])));
}

#[test]
fn a2_matches_a1_on_every_fig1_configuration() {
    // A2 on the annotated SPL must equal A1 on the derived product —
    // statement indices are stable across derivation, so results are
    // directly comparable.
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let lifted_icfg = LiftedIcfg::new(&icfg);
    let analysis = TaintAnalysis::secret_to_print();
    for config in all_fig1_configs() {
        let a2 = solve_a2(&analysis, &lifted_icfg, &config);
        let a1 = A1Run::analyze(&ex.program, &analysis, config.clone());
        for m in icfg.methods() {
            for s in icfg.stmts_of(m) {
                assert_eq!(
                    a2.results_at(s),
                    a1.results_at(s),
                    "config {config:?} at {s}"
                );
            }
        }
    }
}

#[test]
fn a2_detects_leak_only_in_leaky_config() {
    let ex = fig1();
    let [f, g, h] = ex.features;
    let icfg = ProgramIcfg::new(&ex.program);
    let lifted_icfg = LiftedIcfg::new(&icfg);
    let analysis = TaintAnalysis::secret_to_print();
    for config in all_fig1_configs() {
        let a2 = solve_a2(&analysis, &lifted_icfg, &config);
        let leaky = !config.is_enabled(f) && config.is_enabled(g) && !config.is_enabled(h);
        let tainted = a2
            .results_at(ex.print_call)
            .contains(&spllift_analyses::TaintFact::Local(spllift_ir::LocalId(1)));
        assert_eq!(tainted, leaky, "config {config:?}");
    }
}

#[test]
fn crosscheck_taint_on_fig1_has_no_mismatches() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    let analysis = TaintAnalysis::secret_to_print();
    let mismatches = crosscheck(&icfg, &analysis, &ctx, None, &all_fig1_configs());
    assert!(mismatches.is_empty(), "{mismatches:?}");
}

#[test]
fn crosscheck_all_three_paper_analyses_on_fig1() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    let configs = all_fig1_configs();
    let m1 = crosscheck(&icfg, &PossibleTypes::new(), &ctx, None, &configs);
    assert!(m1.is_empty(), "possible types: {m1:?}");
    let m2 = crosscheck(&icfg, &ReachingDefs::new(), &ctx, None, &configs);
    assert!(m2.is_empty(), "reaching defs: {m2:?}");
    let m3 = crosscheck(&icfg, &UninitVars::new(), &ctx, None, &configs);
    assert!(m3.is_empty(), "uninit vars: {m3:?}");
}

#[test]
fn crosscheck_with_feature_model() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    let mut table = ex.table.clone();
    let model = FeatureExpr::parse("(F && G) || (!F && !G)", &mut table).unwrap();
    let [f, g, h] = ex.features;
    let configs = valid_configurations(&model, &[f, g, h]);
    assert_eq!(configs.len(), 4);
    let analysis = TaintAnalysis::secret_to_print();
    let mismatches = crosscheck(&icfg, &analysis, &ctx, Some(&model), &configs);
    assert!(mismatches.is_empty(), "{mismatches:?}");
}

#[test]
fn crosscheck_reports_oracle_disagreement() {
    // Sanity: a deliberately broken "analysis pair" must be caught. We
    // simulate it by cross-checking against configurations that are NOT
    // valid for the model (so the model-laden constraints reject them
    // while A2 still computes facts).
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let ctx = BddConstraintContext::new(&ex.table);
    let mut table = ex.table.clone();
    // Model that forbids G — but we pass a config with G enabled.
    let model = FeatureExpr::parse("!G", &mut table).unwrap();
    let [_, g, _] = ex.features;
    let bad_config = Configuration::from_enabled([g]);
    let analysis = TaintAnalysis::secret_to_print();
    let mismatches = crosscheck(&icfg, &analysis, &ctx, Some(&model), &[bad_config]);
    assert!(
        !mismatches.is_empty(),
        "invalid configs must surface as disagreements"
    );
    assert!(mismatches.iter().all(|m| m.missing_in_lifted));
    // Display rendering sanity.
    assert!(mismatches[0].to_string().contains("A2 has fact"));
}

#[test]
fn a2_uses_single_shared_call_graph() {
    // A2's advantage over A1: the icfg (with its call graph) is built
    // once. This test just pins the API shape: many configs, one icfg.
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let lifted_icfg = LiftedIcfg::new(&icfg);
    let analysis = TaintAnalysis::secret_to_print();
    let mut total_propagations = 0;
    for config in all_fig1_configs() {
        let solver = solve_a2(&analysis, &lifted_icfg, &config);
        total_propagations += solver.stats().propagations;
    }
    assert!(total_propagations > 0);
}

#[test]
fn a2_problem_is_reusable_via_new() {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let lifted_icfg = LiftedIcfg::new(&icfg);
    let analysis = TaintAnalysis::secret_to_print();
    let config = Configuration::from_enabled([ex.features[1]]);
    let a2 = A2Problem::new(&analysis, &config);
    let solver = IfdsSolver::solve(&a2, &lifted_icfg);
    assert!(solver.is_reachable(icfg.start_point_of(ex.main)));
}

#[test]
fn enumerating_too_many_features_panics() {
    let universe: Vec<FeatureId> = (0..31).map(FeatureId).collect();
    let result = std::panic::catch_unwind(|| valid_configurations(&FeatureExpr::True, &universe));
    assert!(result.is_err());
}

/// Property-based RQ1: the cross-check holds on *randomly generated*
/// annotated programs, for all four analyses, over every configuration
/// of a 3-feature universe. This is the strongest correctness evidence
/// in the workspace: any disagreement between the lifting (Fig. 4 rules,
/// IDE solver, BDD algebra) and the simple A2 oracle fails the test.
mod property {
    use super::*;
    use spllift_features::FeatureExpr;
    use spllift_ir::{BinOp, LocalId, Operand, Program, ProgramBuilder, Rvalue, Type};
    use spllift_rng::SplitMix64;

    /// One random statement of a method body.
    #[derive(Debug, Clone)]
    enum Op {
        AssignConst(u8, i8),
        Copy(u8, u8),
        Add(u8, u8, u8),
        /// Conditional forward branch skipping `skip` ops.
        IfSkip(u8),
        /// Unconditional forward branch skipping `skip` ops.
        GotoSkip(u8),
        CallSecret(u8),
        CallPrint(u8),
        /// Call generated method `m % N`, passing local, storing result.
        CallM(u8, u8, u8),
        Ret(u8),
    }

    /// Annotation palette over features F0, F1, F2.
    fn annotation(code: u8, f: &[spllift_features::FeatureId; 3]) -> FeatureExpr {
        match code % 8 {
            0 | 1 | 2 => FeatureExpr::True,
            3 => FeatureExpr::var(f[0]),
            4 => FeatureExpr::var(f[1]),
            5 => FeatureExpr::var(f[2]).not(),
            6 => FeatureExpr::var(f[0]).and(FeatureExpr::var(f[1])),
            _ => FeatureExpr::var(f[1]).or(FeatureExpr::var(f[2])),
        }
    }

    fn random_op(rng: &mut SplitMix64) -> Op {
        match rng.gen_range(0..9u32) {
            0 => Op::AssignConst(rng.gen_range(0..3u8), rng.gen_range(-5..6i8)),
            1 => Op::Copy(rng.gen_range(0..3u8), rng.gen_range(0..3u8)),
            2 => Op::Add(
                rng.gen_range(0..3u8),
                rng.gen_range(0..3u8),
                rng.gen_range(0..3u8),
            ),
            3 => Op::IfSkip(rng.gen_range(1..4u8)),
            4 => Op::GotoSkip(rng.gen_range(1..3u8)),
            5 => Op::CallSecret(rng.gen_range(0..3u8)),
            6 => Op::CallPrint(rng.gen_range(0..3u8)),
            7 => Op::CallM(
                rng.gen_range(0..4u8),
                rng.gen_range(0..3u8),
                rng.gen_range(0..3u8),
            ),
            _ => Op::Ret(rng.gen_range(0..3u8)),
        }
    }

    fn random_body(rng: &mut SplitMix64) -> Vec<(Op, u8)> {
        (0..rng.gen_range(2..9usize))
            .map(|_| (random_op(rng), rng.gen_range(0..256u32) as u8))
            .collect()
    }

    fn random_bodies(rng: &mut SplitMix64, range: std::ops::Range<usize>) -> Vec<Vec<(Op, u8)>> {
        (0..rng.gen_range(range))
            .map(|_| random_body(rng))
            .collect()
    }

    fn build_program(bodies: &[Vec<(Op, u8)>], f: &[spllift_features::FeatureId; 3]) -> Program {
        let n = bodies.len() - 1; // last body is main
        let mut pb = ProgramBuilder::new();
        let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
        let print = pb.declare_method("print", None, &[Type::Int], None, true);
        {
            let mut mb = pb.method_body(secret);
            let v = mb.local("v", Type::Int);
            mb.assign(v, Rvalue::Use(Operand::IntConst(7)));
            mb.ret(Some(Operand::Local(v)));
            pb.finish_body(mb);
        }
        {
            let mb = pb.method_body(print);
            pb.finish_body(mb);
        }
        let gen_methods: Vec<_> = (0..n.max(1))
            .map(|i| pb.declare_method(&format!("m{i}"), None, &[Type::Int], Some(Type::Int), true))
            .collect();
        let main = pb.declare_method("main", None, &[], None, true);

        let emit = |pb: &mut ProgramBuilder,
                    mid: spllift_ir::MethodId,
                    ops: &[(Op, u8)],
                    has_param: bool| {
            let mut mb = pb.method_body(mid);
            let locals: Vec<LocalId> = if has_param {
                let p = mb.param_local(0);
                vec![p, mb.local("a", Type::Int), mb.local("b", Type::Int)]
            } else {
                vec![
                    mb.local("a", Type::Int),
                    mb.local("b", Type::Int),
                    mb.local("c", Type::Int),
                ]
            };
            // Pre-create one label per op position for forward jumps.
            let labels: Vec<_> = (0..ops.len() + 1).map(|_| mb.fresh_label()).collect();
            for (i, (op, ann)) in ops.iter().enumerate() {
                mb.bind(labels[i]);
                let a = annotation(*ann, f);
                let annotated = a != FeatureExpr::True;
                if annotated {
                    mb.push_annotation(a);
                }
                let l = |x: u8| locals[(x as usize) % locals.len()];
                match op {
                    Op::AssignConst(t, c) => {
                        mb.assign(l(*t), Rvalue::Use(Operand::IntConst(*c as i64)));
                    }
                    Op::Copy(t, s) => {
                        mb.assign(l(*t), Rvalue::Use(Operand::Local(l(*s))));
                    }
                    Op::Add(t, x, y) => {
                        mb.assign(
                            l(*t),
                            Rvalue::Binary(
                                BinOp::Add,
                                Operand::Local(l(*x)),
                                Operand::Local(l(*y)),
                            ),
                        );
                    }
                    Op::IfSkip(skip) => {
                        let target = (i + 1 + *skip as usize).min(ops.len());
                        mb.if_cmp(
                            BinOp::Lt,
                            Operand::Local(locals[0]),
                            Operand::IntConst(3),
                            labels[target],
                        );
                    }
                    Op::GotoSkip(skip) => {
                        let target = (i + 1 + *skip as usize).min(ops.len());
                        mb.goto(labels[target]);
                    }
                    Op::CallSecret(t) => {
                        mb.invoke(Some(l(*t)), spllift_ir::Callee::Static(secret), vec![]);
                    }
                    Op::CallPrint(s) => {
                        mb.invoke(
                            None,
                            spllift_ir::Callee::Static(print),
                            vec![Operand::Local(l(*s))],
                        );
                    }
                    Op::CallM(m, arg, res) => {
                        let callee = gen_methods[(*m as usize) % gen_methods.len()];
                        mb.invoke(
                            Some(l(*res)),
                            spllift_ir::Callee::Static(callee),
                            vec![Operand::Local(l(*arg))],
                        );
                    }
                    Op::Ret(s) => {
                        mb.ret(Some(Operand::Local(l(*s))));
                    }
                }
                if annotated {
                    mb.pop_annotation();
                }
            }
            mb.bind(labels[ops.len()]);
            pb.finish_body(mb);
        };

        for (i, &mid) in gen_methods.iter().enumerate() {
            emit(&mut pb, mid, &bodies[i.min(bodies.len() - 2)], true);
        }
        emit(&mut pb, main, bodies.last().unwrap(), false);
        pb.add_entry_point(main);
        let p = pb.finish();
        assert!(p.check().is_ok(), "generated program must validate");
        p
    }

    fn features3() -> (FeatureTable, [spllift_features::FeatureId; 3]) {
        let mut t = FeatureTable::new();
        let f = [t.intern("F0"), t.intern("F1"), t.intern("F2")];
        (t, f)
    }

    /// SPLLIFT ≡ A2 on random annotated programs, all configurations,
    /// all four analyses (and reaching defs under a feature model).
    #[test]
    fn crosscheck_random_programs() {
        let mut rng = SplitMix64::seed_from_u64(0x591_0001);
        for _ in 0..24 {
            let bodies = random_bodies(&mut rng, 2..5);
            let (t, f) = features3();
            let program = build_program(&bodies, &f);
            let icfg = ProgramIcfg::new(&program);
            let ctx = BddConstraintContext::new(&t);
            let configs: Vec<_> = (0u64..8).map(|b| Configuration::from_bits(b, 3)).collect();

            let m = crosscheck(
                &icfg,
                &TaintAnalysis::secret_to_print(),
                &ctx,
                None,
                &configs,
            );
            assert!(m.is_empty(), "taint: {m:?}");
            let m = crosscheck(&icfg, &UninitVars::new(), &ctx, None, &configs);
            assert!(m.is_empty(), "uninit: {m:?}");
            let m = crosscheck(&icfg, &ReachingDefs::new(), &ctx, None, &configs);
            assert!(m.is_empty(), "reaching defs: {m:?}");
            let m = crosscheck(&icfg, &PossibleTypes::new(), &ctx, None, &configs);
            assert!(m.is_empty(), "possible types: {m:?}");

            // With a feature model: only valid configs participate.
            let mut t2 = t.clone();
            let model = FeatureExpr::parse("F0 || !F1", &mut t2).unwrap();
            let valid: Vec<_> = configs
                .iter()
                .filter(|c| c.satisfies(&model))
                .cloned()
                .collect();
            let m = crosscheck(&icfg, &ReachingDefs::new(), &ctx, Some(&model), &valid);
            assert!(m.is_empty(), "reaching defs + model: {m:?}");
        }
    }

    /// BDD- and DNF-backed liftings agree semantically on random
    /// programs (every fact, every statement, every configuration).
    #[test]
    fn bdd_and_dnf_liftings_agree() {
        use spllift_core::{LiftedSolution, ModelMode};
        use spllift_features::{ConstraintContext as _, DnfConstraintContext};
        let mut rng = SplitMix64::seed_from_u64(0x591_0002);
        for _ in 0..24 {
            let bodies = random_bodies(&mut rng, 2..4);
            let (t, f) = features3();
            let program = build_program(&bodies, &f);
            let icfg = ProgramIcfg::new(&program);
            let bctx = BddConstraintContext::new(&t);
            let dctx = DnfConstraintContext::new(&t);
            let analysis = UninitVars::new();
            let bsol = LiftedSolution::solve(&analysis, &icfg, &bctx, None, ModelMode::Ignore);
            let dsol = LiftedSolution::solve(&analysis, &icfg, &dctx, None, ModelMode::Ignore);
            for m in icfg.methods() {
                for s in icfg.stmts_of(m) {
                    let br = bsol.results_at(s);
                    let dr = dsol.results_at(s);
                    for bits in 0u64..8 {
                        let cfg = Configuration::from_bits(bits, 3);
                        for (fact, bc) in &br {
                            let holds_b = bctx.satisfied_by(bc, &cfg);
                            let holds_d =
                                dr.get(fact).is_some_and(|dc| dctx.satisfied_by(dc, &cfg));
                            assert_eq!(holds_b, holds_d, "fact {fact:?} at {s} under {cfg:?}");
                        }
                        for (fact, dc) in &dr {
                            let holds_d = dctx.satisfied_by(dc, &cfg);
                            let holds_b =
                                br.get(fact).is_some_and(|bc| bctx.satisfied_by(bc, &cfg));
                            assert_eq!(holds_d, holds_b);
                        }
                    }
                }
            }
        }
    }
}

/// Pins Phase-1 worklist deduplication: a `(d1, n, d2)` triple whose
/// jump function strengthens while it is still queued is not queued a
/// second time. Beside it, pins the BDD work of the lifted solves.
mod phase1_dedup {
    use super::*;
    use spllift_analyses::{with_analysis, AnalysisKind};
    use spllift_benchgen::{subject_by_name, GeneratedSpl};
    use spllift_core::{LiftedSolution, ModelMode};
    use spllift_frontend::parse_spl;
    use spllift_ifds::IfdsProblem;
    use spllift_ir::Program;

    fn propagations<P, D>(spl: &GeneratedSpl, problem: &P) -> u64
    where
        P: for<'a> IfdsProblem<ProgramIcfg<'a>, Fact = D>,
        D: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    {
        let icfg = ProgramIcfg::new(&spl.program);
        let ctx = BddConstraintContext::new(&spl.table);
        let model = spl.model_expr();
        LiftedSolution::solve(problem, &icfg, &ctx, Some(&model), ModelMode::OnEdges)
            .stats()
            .propagations
    }

    #[test]
    fn mm08_propagations_are_pinned_at_the_deduplicated_counts() {
        // MM08 is large enough for jump functions to strengthen while
        // their triple is queued, so a solver that stops deduplicating
        // processes more worklist items than these exact counts.
        let spl = GeneratedSpl::generate(subject_by_name("MM08").unwrap());
        let counts = (
            propagations(&spl, &TaintAnalysis::secret_to_print()),
            propagations(&spl, &ReachingDefs::new()),
            propagations(&spl, &UninitVars::new()),
        );
        assert_eq!(
            counts,
            (982, 17808, 14226),
            "MM08 (Taint, R. Def., U. Var.)"
        );
    }

    /// `(nodes, ops)` one cold lifted solve allocates and charges on the
    /// benchmark's cell path: a fresh context, the budget cleared, then
    /// lift + solve with the feature model on the edges.
    fn bdd_work(spl: &GeneratedSpl, kind: AnalysisKind) -> (u64, u64) {
        let icfg = ProgramIcfg::new(&spl.program);
        let ctx = BddConstraintContext::new(&spl.table);
        let model = spl.model_expr();
        let mgr = ctx.manager();
        mgr.clear_budget();
        with_analysis!(kind, |p| {
            LiftedSolution::solve(p, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
        });
        (mgr.nodes_since_arm(), mgr.ops_used())
    }

    #[test]
    fn bdd_work_is_pinned_on_mm08_and_gpl() {
        // Reduced diagrams are canonical, so the node counts are fixed
        // by the analyses alone. The op counts also depend on node ids,
        // which decide the operand order of a commutative `and`/`or`:
        // the ids of the former sharded store charged 880/881/1228/1334
        // (MM08) and 14057/4285/8628/34739 (GPL) for the same work.
        for (subject, nodes, ops) in [
            ("MM08", [257, 257, 297, 303], [881, 882, 1224, 1330]),
            ("GPL", [3028, 974, 1789, 7014], [14117, 4285, 8646, 34359]),
        ] {
            let spl = GeneratedSpl::generate(subject_by_name(subject).unwrap());
            let (got_nodes, got_ops): (Vec<u64>, Vec<u64>) = AnalysisKind::ALL
                .iter()
                .map(|&kind| bdd_work(&spl, kind))
                .unzip();
            assert_eq!(
                got_nodes, nodes,
                "{subject} nodes (Taint, Types, R. Def., U. Var.)"
            );
            assert_eq!(
                got_ops, ops,
                "{subject} ops (Taint, Types, R. Def., U. Var.)"
            );
        }
    }

    fn load_chat() -> (Program, FeatureTable, FeatureExpr) {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples_data");
        let source = std::fs::read_to_string(format!("{dir}/chat.minijava")).unwrap();
        let mut table = FeatureTable::new();
        let program = parse_spl(&source, &mut table).unwrap();
        let model_text = std::fs::read_to_string(format!("{dir}/chat.model")).unwrap();
        let model = spllift_features::parse_feature_model(&model_text, &mut table)
            .unwrap()
            .to_expr();
        (program, table, model)
    }

    #[test]
    fn crosscheck_still_clean_with_dedup_default() {
        // `crosscheck` runs the default (deduplicating) solver: SPLLIFT
        // must still agree with the A2 oracle per configuration.
        let (program, table, model) = load_chat();
        let icfg = ProgramIcfg::new(&program);
        let ctx = BddConstraintContext::new(&table);
        let features: Vec<_> = (0..table.len() as u32).map(FeatureId).collect();
        let configs = valid_configurations(&model, &features);
        let analysis = TaintAnalysis::secret_to_print();
        let mismatches = crosscheck(&icfg, &analysis, &ctx, Some(&model), &configs);
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }
}
