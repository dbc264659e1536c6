use crate::samples::{fig1, shapes};
use crate::*;
use spllift_features::{Configuration, FeatureExpr, FeatureTable};
use spllift_ifds::Icfg;

mod builder {
    use super::*;

    #[test]
    fn entry_nop_and_final_return_are_synthesized() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mb = pb.method_body(m);
        pb.finish_body(mb);
        let p = pb.finish();
        let body = p.body(m);
        assert!(matches!(body.stmts[0].kind, StmtKind::Nop));
        assert!(matches!(
            body.stmts.last().unwrap().kind,
            StmtKind::Return { .. }
        ));
        assert!(p.check().is_ok());
    }

    #[test]
    fn annotated_final_return_gets_backstop() {
        let mut t = FeatureTable::new();
        let f = t.intern("F");
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mut mb = pb.method_body(m);
        mb.push_annotation(FeatureExpr::var(f));
        mb.ret(None);
        mb.pop_annotation();
        pb.finish_body(mb);
        let p = pb.finish();
        // The annotated return must be followed by an unannotated one.
        let body = p.body(m);
        assert_eq!(body.stmts.len(), 3);
        assert!(p.check().is_ok());
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mut mb = pb.method_body(m);
        let x = mb.local("x", Type::Int);
        let loop_head = mb.fresh_label();
        let done = mb.fresh_label();
        mb.bind(loop_head);
        mb.if_cmp(BinOp::Ge, Operand::Local(x), Operand::IntConst(10), done);
        mb.assign(
            x,
            Rvalue::Binary(BinOp::Add, Operand::Local(x), Operand::IntConst(1)),
        );
        mb.goto(loop_head);
        mb.bind(done);
        mb.ret(None);
        pb.finish_body(mb);
        let p = pb.finish();
        assert!(p.check().is_ok());
        // if at index 1 targets the return at index 4; goto at 3 targets 1.
        let body = p.body(m);
        match &body.stmts[1].kind {
            StmtKind::If { target, .. } => assert_eq!(*target, 4),
            other => panic!("expected if, got {other:?}"),
        }
        match &body.stmts[3].kind {
            StmtKind::Goto { target } => assert_eq!(*target, 1),
            other => panic!("expected goto, got {other:?}"),
        }
    }

    #[test]
    fn param_locals_and_this() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let m = pb.declare_method("m", Some(c), &[Type::Int, Type::Boolean], None, false);
        let mb = pb.method_body(m);
        assert_eq!(mb.this_local(), Some(LocalId(0)));
        assert_eq!(mb.param_local(0), LocalId(1));
        assert_eq!(mb.param_local(1), LocalId(2));
        pb.finish_body(mb);
        let p = pb.finish();
        let body = p.body(m);
        assert_eq!(body.locals[0].ty, Type::Ref(c));
        assert_eq!(body.locals[1].ty, Type::Int);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mut mb = pb.method_body(m);
        let l = mb.fresh_label();
        mb.goto(l);
        pb.finish_body(mb);
    }
}

mod cfg {
    use super::*;

    #[test]
    fn successors_of_branches() {
        let ex = fig1();
        let p = &ex.program;
        // In foo: 0 nop, 1 p=0 (H), 2 return p (unannotated, no backstop).
        let body = p.body(ex.foo);
        assert_eq!(body.stmts.len(), 3);
        let s0 = StmtRef {
            method: ex.foo,
            index: 0,
        };
        let s2 = StmtRef {
            method: ex.foo,
            index: 2,
        };
        assert_eq!(
            p.successors_of(s0).collect::<Vec<_>>(),
            vec![StmtRef {
                method: ex.foo,
                index: 1
            }]
        );
        assert_eq!(p.successors_of(s2).count(), 0, "return has no successors");
    }

    #[test]
    fn if_has_two_successors() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mut mb = pb.method_body(m);
        let done = mb.fresh_label();
        mb.if_cmp(BinOp::Eq, Operand::IntConst(1), Operand::IntConst(2), done);
        mb.nop();
        mb.bind(done);
        mb.ret(None);
        pb.finish_body(mb);
        let p = pb.finish();
        let s_if = StmtRef {
            method: m,
            index: 1,
        };
        assert_eq!(p.successors_of(s_if).count(), 2);
        assert_eq!(
            p.fall_through_of(s_if),
            Some(StmtRef {
                method: m,
                index: 2
            })
        );
        assert_eq!(
            p.branch_target_of(s_if),
            Some(StmtRef {
                method: m,
                index: 3
            })
        );
    }

    #[test]
    fn check_rejects_bad_branch_target() {
        let ex = fig1();
        let mut p = ex.program.clone();
        let body = p.methods[ex.main.index()].body.as_mut().unwrap();
        body.stmts[1].kind = StmtKind::Goto { target: 999 };
        assert!(matches!(p.check(), Err(IrError::BadBranchTarget(_, 999))));
    }
}

mod hierarchy_and_callgraph {
    use super::*;

    #[test]
    fn cha_resolves_all_overrides() {
        let ex = shapes();
        let icfg = ProgramIcfg::new(&ex.program);
        let callees = icfg.callees_of(ex.call_site);
        // Declared type Shape: all three implementations are candidates.
        assert_eq!(callees.len(), 3);
        for m in &ex.methods[..3] {
            assert!(callees.contains(m));
        }
    }

    #[test]
    fn dispatch_walks_superclass_chain() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", None);
        let b = pb.add_class("B", Some(a));
        let m = pb.declare_method("f", Some(a), &[], None, false);
        {
            let mb = pb.method_body(m);
            pb.finish_body(mb);
        }
        let p = pb.finish();
        let h = Hierarchy::new(&p);
        // B does not override f: dispatch on B resolves to A.f.
        assert_eq!(h.dispatch(b, "f", 0), Some(m));
        assert_eq!(h.resolve_virtual(a, "f", 0), vec![m]);
        assert!(h.is_subtype(&p, b, a));
        assert!(!h.is_subtype(&p, a, b));
        assert_eq!(h.subtypes_of(a), vec![a, b]);
    }

    #[test]
    fn call_graph_reaches_transitively() {
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        let cg = icfg.call_graph();
        for m in [ex.main, ex.foo, ex.secret, ex.print] {
            assert!(cg.is_reachable(m), "{m} must be reachable");
        }
        assert!(cg.edge_count() >= 3);
    }

    #[test]
    fn unreachable_methods_excluded() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let dead = pb.declare_method("dead", None, &[], None, true);
        for m in [main, dead] {
            let mb = pb.method_body(m);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        assert!(icfg.call_graph().is_reachable(main));
        assert!(!icfg.call_graph().is_reachable(dead));
        assert_eq!(icfg.methods(), vec![main]);
    }

    #[test]
    fn call_graph_is_feature_insensitive() {
        // The #ifdef G call to foo still produces a call edge (paper §5).
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        assert!(icfg.call_graph().is_reachable(ex.foo));
    }
}

mod icfg_impl {
    use super::*;

    #[test]
    fn icfg_trait_views_fig1() {
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        assert_eq!(icfg.entry_points(), vec![ex.main]);
        let sp = icfg.start_point_of(ex.main);
        assert_eq!(sp.index, 0);
        assert!(!icfg.is_call(sp));
        // Statement 1 of main is the secret() call.
        let call = StmtRef {
            method: ex.main,
            index: 1,
        };
        assert!(icfg.is_call(call));
        assert_eq!(icfg.callees_of(call), vec![ex.secret]);
        assert_eq!(icfg.return_sites_of(call).len(), 1);
        let exits: Vec<_> = icfg
            .stmts_of(ex.main)
            .into_iter()
            .filter(|&s| icfg.is_exit(s))
            .collect();
        assert!(!exits.is_empty());
    }

    #[test]
    fn annotations_visible_through_icfg() {
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        let [f, _, _] = ex.features;
        // Statement 3 of main is `x = 0` under F.
        let s = StmtRef {
            method: ex.main,
            index: 3,
        };
        assert_eq!(*icfg.annotation_of(s), FeatureExpr::var(f));
        assert_eq!(
            *icfg.annotation_of(icfg.start_point_of(ex.main)),
            FeatureExpr::True
        );
    }

    #[test]
    fn stmt_labels_render() {
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        let label = icfg.stmt_label(StmtRef {
            method: ex.main,
            index: 1,
        });
        assert!(label.contains("secret"), "{label}");
        assert_eq!(icfg.method_label(ex.main), "main");
    }
}

mod product {
    use super::*;

    #[test]
    fn derive_product_disables_statements() {
        let ex = fig1();
        let [f, g, _h] = ex.features;
        // ¬F ∧ G ∧ ¬H: the leaky product of Figure 1b.
        let config = Configuration::from_enabled([g]);
        let product = ex.program.derive_product(&config);
        assert!(product.check().is_ok());
        // x = 0 under F (main index 3) must be a nop now.
        let s = StmtRef {
            method: ex.main,
            index: 3,
        };
        assert!(matches!(product.stmt(s).kind, StmtKind::Nop));
        // y = foo(x) under G (main index 4) must survive.
        let s = StmtRef {
            method: ex.main,
            index: 4,
        };
        assert!(matches!(product.stmt(s).kind, StmtKind::Invoke { .. }));
        // Annotations are gone.
        assert!(product
            .stmts_of(ex.main)
            .all(|s| product.stmt(s).annotation == FeatureExpr::True));
        let _ = f;
    }

    #[test]
    fn derive_product_full_config_is_annotation_erasure() {
        let ex = fig1();
        let [f, g, h] = ex.features;
        let config = Configuration::from_enabled([f, g, h]);
        let product = ex.program.derive_product(&config);
        for (orig, derived) in ex.program.stmts_of(ex.main).zip(product.stmts_of(ex.main)) {
            assert_eq!(ex.program.stmt(orig).kind, product.stmt(derived).kind);
        }
    }

    #[test]
    fn reachable_features_of_fig1() {
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        let feats = ex.program.reachable_features(icfg.call_graph());
        assert_eq!(feats.len(), 3);
        let all = ex.program.annotated_features();
        assert_eq!(feats, all);
    }

    #[test]
    fn unreachable_annotations_not_counted() {
        let mut t = FeatureTable::new();
        let f = t.intern("DEAD_FEATURE");
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let dead = pb.declare_method("dead", None, &[], None, true);
        {
            let mb = pb.method_body(main);
            pb.finish_body(mb);
        }
        {
            let mut mb = pb.method_body(dead);
            mb.push_annotation(FeatureExpr::var(f));
            mb.nop();
            mb.pop_annotation();
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        assert!(p.reachable_features(icfg.call_graph()).is_empty());
        assert_eq!(p.annotated_features().len(), 1);
    }
}

mod pretty {
    use super::*;

    #[test]
    fn program_renders_with_annotations() {
        let ex = fig1();
        let text = crate::pretty::program_to_string(&ex.program, &ex.table);
        assert!(text.contains("main"));
        assert!(text.contains("@ifdef F"));
        assert!(text.contains("@ifdef G"));
        assert!(text.contains("return"));
        assert!(text.contains("foo(")); // invoke rendering
    }

    #[test]
    fn stmt_rendering_covers_kinds() {
        let ex = shapes();
        let p = &ex.program;
        let texts: Vec<String> = p
            .stmts_of(ex.methods[3])
            .map(|s| crate::pretty::stmt_to_string(p, s))
            .collect();
        assert!(texts.iter().any(|t| t.contains("new Circle")));
        assert!(texts.iter().any(|t| t.contains(".area(")));
    }
}

mod uses_defs {
    use super::*;

    #[test]
    fn def_and_uses() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mut mb = pb.method_body(m);
        let x = mb.local("x", Type::Int);
        let y = mb.local("y", Type::Int);
        mb.assign(
            y,
            Rvalue::Binary(BinOp::Add, Operand::Local(x), Operand::IntConst(1)),
        );
        mb.ret(Some(Operand::Local(y)));
        pb.finish_body(mb);
        let p = pb.finish();
        let assign = p.stmt(StmtRef {
            method: m,
            index: 1,
        });
        assert_eq!(assign.kind.def(), Some(y));
        assert_eq!(assign.kind.uses(), vec![x]);
        let ret = p.stmt(StmtRef {
            method: m,
            index: 2,
        });
        assert_eq!(ret.kind.def(), None);
        assert_eq!(ret.kind.uses(), vec![y]);
    }
}

mod properties {
    use super::*;
    use spllift_features::Configuration;
    use spllift_rng::SplitMix64;

    /// Random annotated straight-line-with-branches method bodies,
    /// validating structural invariants and product derivation.
    fn random_ops(rng: &mut SplitMix64) -> Vec<(u8, u8)> {
        (0..rng.gen_range(1..12usize))
            .map(|_| (rng.gen_range(0..4u8), rng.gen_range(0..6u8)))
            .collect()
    }

    fn annotation_of(code: u8, f: &[spllift_features::FeatureId; 2]) -> FeatureExpr {
        match code {
            0 | 1 => FeatureExpr::True,
            2 => FeatureExpr::var(f[0]),
            3 => FeatureExpr::var(f[1]),
            4 => FeatureExpr::var(f[0]).not(),
            _ => FeatureExpr::var(f[0]).and(FeatureExpr::var(f[1])),
        }
    }

    fn build(ops: &[(u8, u8)], f: &[spllift_features::FeatureId; 2]) -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mut mb = pb.method_body(m);
        let x = mb.local("x", Type::Int);
        let y = mb.local("y", Type::Int);
        let labels: Vec<_> = (0..ops.len() + 1).map(|_| mb.fresh_label()).collect();
        for (i, &(op, ann)) in ops.iter().enumerate() {
            mb.bind(labels[i]);
            let a = annotation_of(ann, f);
            let push = a != FeatureExpr::True;
            if push {
                mb.push_annotation(a);
            }
            match op % 4 {
                0 => {
                    mb.assign(x, Rvalue::Use(Operand::IntConst(op as i64)));
                }
                1 => {
                    mb.assign(
                        y,
                        Rvalue::Binary(BinOp::Add, Operand::Local(x), Operand::IntConst(1)),
                    );
                }
                2 => {
                    let t = (i + 2).min(ops.len());
                    mb.if_cmp(
                        BinOp::Lt,
                        Operand::Local(x),
                        Operand::IntConst(5),
                        labels[t],
                    );
                }
                _ => {
                    let t = (i + 2).min(ops.len());
                    mb.goto(labels[t]);
                }
            }
            if push {
                mb.pop_annotation();
            }
        }
        mb.bind(labels[ops.len()]);
        pb.finish_body(mb);
        pb.add_entry_point(m);
        pb.finish()
    }

    /// Every generated program passes structural validation, and so
    /// does every derived product; deriving twice equals deriving
    /// once (annotation erasure is idempotent).
    #[test]
    fn derivation_is_valid_and_idempotent() {
        let mut rng = SplitMix64::seed_from_u64(0x18_0001);
        for _ in 0..256 {
            let ops = random_ops(&mut rng);
            let bits = rng.gen_range(0..4u64);
            let mut t = spllift_features::FeatureTable::new();
            let f = [t.intern("A"), t.intern("B")];
            let p = build(&ops, &f);
            assert!(p.check().is_ok(), "ops {ops:?}");
            let config = Configuration::from_bits(bits, 2);
            let once = p.derive_product(&config);
            assert!(once.check().is_ok(), "ops {ops:?} bits {bits:b}");
            let twice = once.derive_product(&config);
            assert_eq!(&once, &twice);
            // Derived products carry no annotations.
            for m in 0..once.methods().len() {
                let mid = MethodId(m as u32);
                if once.method(mid).body.is_none() {
                    continue;
                }
                for s in once.stmts_of(mid) {
                    assert_eq!(&once.stmt(s).annotation, &FeatureExpr::True);
                }
            }
        }
    }

    /// CFG sanity: every successor is in range and non-return
    /// statements always have at least one successor.
    #[test]
    fn cfg_well_formed() {
        let mut rng = SplitMix64::seed_from_u64(0x18_0002);
        for _ in 0..256 {
            let ops = random_ops(&mut rng);
            let mut t = spllift_features::FeatureTable::new();
            let f = [t.intern("A"), t.intern("B")];
            let p = build(&ops, &f);
            let m = MethodId(0);
            let n = p.body(m).stmts.len() as u32;
            for s in p.stmts_of(m) {
                let succs: Vec<StmtRef> = p.successors_of(s).collect();
                for succ in &succs {
                    assert!(succ.index < n);
                }
                let is_return = matches!(p.stmt(s).kind, StmtKind::Return { .. });
                assert_eq!(succs.is_empty(), is_return, "at {s}");
            }
        }
    }
}

mod interp {
    use super::*;
    use crate::interp::{run, Event, InterpConfig};
    use spllift_features::Configuration;

    #[test]
    fn fig1_products_leak_dynamically_exactly_when_static_says() {
        let ex = fig1();
        let [f, g, h] = ex.features;
        let config_leaks =
            |cfg: &Configuration| !cfg.is_enabled(f) && cfg.is_enabled(g) && !cfg.is_enabled(h);
        for bits in 0u64..8 {
            let mut cfg = Configuration::empty();
            for (i, feat) in [f, g, h].into_iter().enumerate() {
                if bits & (1 << i) != 0 {
                    cfg.enable(feat);
                }
            }
            let product = ex.program.derive_product(&cfg);
            let trace = run(&product, &InterpConfig::secret_to_print());
            let leaked = trace.events.iter().any(|e| matches!(e, Event::Leak(_)));
            assert_eq!(leaked, config_leaks(&cfg), "config {cfg:?}");
            assert!(!trace.budget_exhausted);
        }
    }

    #[test]
    fn uninit_read_is_observed() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let y = mb.local("y", Type::Int);
        let use_idx = mb.assign(
            y,
            Rvalue::Binary(BinOp::Add, Operand::Local(x), Operand::IntConst(1)),
        );
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let trace = run(&p, &InterpConfig::default());
        assert_eq!(
            trace.events,
            vec![Event::UninitRead(
                StmtRef {
                    method: main,
                    index: use_idx
                },
                x
            )]
        );
    }

    #[test]
    fn loops_terminate_via_budget_or_condition() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        mb.assign(x, Rvalue::Use(Operand::IntConst(100)));
        let head = mb.fresh_label();
        let done = mb.fresh_label();
        mb.bind(head);
        mb.if_cmp(BinOp::Le, Operand::Local(x), Operand::IntConst(0), done);
        mb.assign(
            x,
            Rvalue::Binary(BinOp::Sub, Operand::Local(x), Operand::IntConst(1)),
        );
        mb.goto(head);
        mb.bind(done);
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let trace = run(&p, &InterpConfig::default());
        assert!(!trace.budget_exhausted);
        assert!(trace.steps > 300, "the loop actually ran: {}", trace.steps);

        // Infinite loop: the budget stops it.
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let head = mb.fresh_label();
        mb.bind(head);
        mb.nop();
        mb.goto(head);
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let trace = run(
            &p,
            &InterpConfig {
                step_budget: 1_000,
                ..Default::default()
            },
        );
        assert!(trace.budget_exhausted);
    }

    #[test]
    fn virtual_dispatch_uses_runtime_type() {
        let ex = shapes();
        let [f, ..] = [ex.table.get("F").unwrap()];
        // F on: s = new Circle (area=1); F off: Square (area=2).
        for (cfg, _expected_area) in [
            (Configuration::from_enabled([f]), 1),
            (Configuration::empty(), 2),
        ] {
            let product = ex.program.derive_product(&cfg);
            let trace = run(&product, &InterpConfig::default());
            assert!(!trace.budget_exhausted);
            assert!(trace.events.is_empty());
        }
    }

    #[test]
    fn deep_recursion_is_bounded() {
        let mut pb = ProgramBuilder::new();
        let rec = pb.declare_method("rec", None, &[Type::Int], Some(Type::Int), true);
        let main = pb.declare_method("main", None, &[], None, true);
        {
            let mut mb = pb.method_body(rec);
            let p0 = mb.param_local(0);
            let r = mb.local("r", Type::Int);
            // rec(n) = rec(n+1): infinite recursion.
            let arg = mb.local("arg", Type::Int);
            mb.assign(
                arg,
                Rvalue::Binary(BinOp::Add, Operand::Local(p0), Operand::IntConst(1)),
            );
            mb.invoke(Some(r), Callee::Static(rec), vec![Operand::Local(arg)]);
            mb.ret(Some(Operand::Local(r)));
            pb.finish_body(mb);
        }
        {
            let mut mb = pb.method_body(main);
            let r = mb.local("r", Type::Int);
            mb.invoke(Some(r), Callee::Static(main), vec![]); // harmless self-call shape
            mb.invoke(Some(r), Callee::Static(rec), vec![Operand::IntConst(0)]);
            mb.ret(None);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let trace = run(
            &p,
            &InterpConfig {
                step_budget: 50_000,
                ..Default::default()
            },
        );
        // Either budget or depth guard fires; no stack overflow.
        assert!(trace.budget_exhausted);
    }

    #[test]
    fn arrays_carry_taint_concretely() {
        let mut pb = ProgramBuilder::new();
        let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
        let print = pb.declare_method("print", None, &[Type::Int], None, true);
        let main = pb.declare_method("main", None, &[], None, true);
        {
            let mut mb = pb.method_body(secret);
            let v = mb.local("v", Type::Int);
            mb.assign(v, Rvalue::Use(Operand::IntConst(9)));
            mb.ret(Some(Operand::Local(v)));
            pb.finish_body(mb);
        }
        {
            let mb = pb.method_body(print);
            pb.finish_body(mb);
        }
        let mut mb = pb.method_body(main);
        let buf = mb.local("buf", Type::Array(ElemType::Int));
        let s = mb.local("s", Type::Int);
        let out = mb.local("out", Type::Int);
        mb.assign(
            buf,
            Rvalue::NewArray {
                elem: ElemType::Int,
                len: Operand::IntConst(3),
            },
        );
        mb.invoke(Some(s), Callee::Static(secret), vec![]);
        mb.array_store(Operand::Local(buf), Operand::IntConst(1), Operand::Local(s));
        mb.assign(
            out,
            Rvalue::ArrayLoad {
                base: Operand::Local(buf),
                index: Operand::IntConst(1),
            },
        );
        let sink = mb.invoke(None, Callee::Static(print), vec![Operand::Local(out)]);
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let trace = run(&p, &InterpConfig::secret_to_print());
        assert!(trace.events.contains(&Event::Leak(StmtRef {
            method: main,
            index: sink
        })));
    }
}

mod arrays_ir {
    use super::*;

    #[test]
    fn array_pretty_printing() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mut mb = pb.method_body(m);
        let buf = mb.local("buf", Type::Array(ElemType::Int));
        let v = mb.local("v", Type::Int);
        mb.assign(
            buf,
            Rvalue::NewArray {
                elem: ElemType::Int,
                len: Operand::IntConst(8),
            },
        );
        mb.array_store(
            Operand::Local(buf),
            Operand::IntConst(0),
            Operand::IntConst(5),
        );
        mb.assign(
            v,
            Rvalue::ArrayLoad {
                base: Operand::Local(buf),
                index: Operand::IntConst(0),
            },
        );
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(m);
        let p = pb.finish();
        let texts: Vec<String> = p
            .stmts_of(m)
            .map(|s| crate::pretty::stmt_to_string(&p, s))
            .collect();
        assert!(texts.iter().any(|t| t.contains("new int[8]")));
        assert!(texts.iter().any(|t| t.contains("buf[0] = 5")));
        assert!(texts.iter().any(|t| t.contains("v = buf[0]")));
    }

    #[test]
    fn array_uses_and_defs() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("m", None, &[], None, true);
        let mut mb = pb.method_body(m);
        let buf = mb.local("buf", Type::Array(ElemType::Int));
        let i = mb.local("i", Type::Int);
        let v = mb.local("v", Type::Int);
        let store = mb.array_store(Operand::Local(buf), Operand::Local(i), Operand::Local(v));
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(m);
        let p = pb.finish();
        let s = p.stmt(StmtRef {
            method: m,
            index: store,
        });
        assert_eq!(s.kind.def(), None, "array stores define no local");
        let uses = s.kind.uses();
        for l in [buf, i, v] {
            assert!(uses.contains(&l));
        }
    }

    #[test]
    fn elem_type_conversion() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        drop(pb);
        assert_eq!(Type::from(ElemType::Int), Type::Int);
        assert_eq!(Type::from(ElemType::Boolean), Type::Boolean);
        assert_eq!(Type::from(ElemType::Ref(c)), Type::Ref(c));
    }
}

mod interp_fields {
    use super::*;
    use crate::interp::{run, Event, InterpConfig};

    /// Taint flows through instance fields concretely: store the secret
    /// in an object field, read it back, leak it.
    #[test]
    fn taint_through_object_fields() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Box", None);
        let fld = pb.add_field(c, "payload", Type::Int);
        let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
        let print = pb.declare_method("print", None, &[Type::Int], None, true);
        {
            let mut mb = pb.method_body(secret);
            let v = mb.local("v", Type::Int);
            mb.assign(v, Rvalue::Use(Operand::IntConst(3)));
            mb.ret(Some(Operand::Local(v)));
            pb.finish_body(mb);
        }
        {
            let mb = pb.method_body(print);
            pb.finish_body(mb);
        }
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let b = mb.local("b", Type::Ref(c));
        let s = mb.local("s", Type::Int);
        let out = mb.local("out", Type::Int);
        mb.assign(b, Rvalue::New(c));
        mb.invoke(Some(s), Callee::Static(secret), vec![]);
        mb.field_store(Some(Operand::Local(b)), fld, Operand::Local(s));
        mb.assign(
            out,
            Rvalue::FieldLoad {
                base: Some(Operand::Local(b)),
                field: fld,
            },
        );
        let sink = mb.invoke(None, Callee::Static(print), vec![Operand::Local(out)]);
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let trace = run(&p, &InterpConfig::secret_to_print());
        assert!(trace.events.contains(&Event::Leak(StmtRef {
            method: main,
            index: sink
        })));
    }

    /// Distinct objects have distinct field storage: taint in one box
    /// does not contaminate another (the concrete semantics is *more*
    /// precise than the receiver-abstracted static analysis, as it
    /// should be for a soundness comparison).
    #[test]
    fn distinct_objects_do_not_alias() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Box", None);
        let fld = pb.add_field(c, "payload", Type::Int);
        let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
        let print = pb.declare_method("print", None, &[Type::Int], None, true);
        for m in [secret, print] {
            let mb = pb.method_body(m);
            pb.finish_body(mb);
        }
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let b1 = mb.local("b1", Type::Ref(c));
        let b2 = mb.local("b2", Type::Ref(c));
        let s = mb.local("s", Type::Int);
        let out = mb.local("out", Type::Int);
        mb.assign(b1, Rvalue::New(c));
        mb.assign(b2, Rvalue::New(c));
        mb.invoke(Some(s), Callee::Static(secret), vec![]);
        mb.field_store(Some(Operand::Local(b1)), fld, Operand::Local(s));
        mb.field_store(Some(Operand::Local(b2)), fld, Operand::IntConst(0));
        // Read from the CLEAN box only.
        mb.assign(
            out,
            Rvalue::FieldLoad {
                base: Some(Operand::Local(b2)),
                field: fld,
            },
        );
        mb.invoke(None, Callee::Static(print), vec![Operand::Local(out)]);
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let trace = run(&p, &InterpConfig::secret_to_print());
        assert!(
            !trace.events.iter().any(|e| matches!(e, Event::Leak(_))),
            "concretely clean (though the static analysis may warn): {:?}",
            trace.events
        );
    }
}
