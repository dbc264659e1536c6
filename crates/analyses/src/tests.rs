use crate::*;
use spllift_features::Configuration;
use spllift_ifds::IfdsSolver;
use spllift_ir::samples::{fig1, shapes};
use spllift_ir::{BinOp, Callee, Operand, ProgramBuilder, ProgramIcfg, Rvalue, StmtRef, Type};

mod taint {
    use super::*;

    #[test]
    fn fig1_product_leaks_secret() {
        // Figure 1b: the product ¬F ∧ G ∧ ¬H leaks.
        let ex = fig1();
        let [_, g, _] = ex.features;
        let product = ex.program.derive_product(&Configuration::from_enabled([g]));
        let icfg = ProgramIcfg::new(&product);
        let analysis = TaintAnalysis::secret_to_print();
        let solver = IfdsSolver::solve(&analysis, &icfg);
        let leaks = analysis.leaks(&icfg, &solver);
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].sink_call, ex.print_call);
    }

    #[test]
    fn fig1_safe_products_do_not_leak() {
        let ex = fig1();
        let [f, g, h] = ex.features;
        let analysis = TaintAnalysis::secret_to_print();
        // F on: x is overwritten with 0 before the call.
        // G off: y is never assigned from foo.
        // H on: foo zeroes p.
        for config in [
            Configuration::from_enabled([f, g]),
            Configuration::empty(),
            Configuration::from_enabled([g, h]),
            Configuration::from_enabled([f, g, h]),
        ] {
            let product = ex.program.derive_product(&config);
            let icfg = ProgramIcfg::new(&product);
            let solver = IfdsSolver::solve(&analysis, &icfg);
            assert!(
                analysis.leaks(&icfg, &solver).is_empty(),
                "config {config:?} must not leak"
            );
        }
    }

    #[test]
    fn taint_through_binary_ops() {
        let mut pb = ProgramBuilder::new();
        let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
        let print = pb.declare_method("print", None, &[Type::Int], None, true);
        let main = pb.declare_method("main", None, &[], None, true);
        for m in [secret, print] {
            let mb = pb.method_body(m);
            pb.finish_body(mb);
        }
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let y = mb.local("y", Type::Int);
        mb.invoke(Some(x), Callee::Static(secret), vec![]);
        mb.assign(
            y,
            Rvalue::Binary(BinOp::Add, Operand::Local(x), Operand::IntConst(1)),
        );
        let sink = mb.invoke(None, Callee::Static(print), vec![Operand::Local(y)]);
        mb.ret(None);
        let sink = StmtRef {
            method: main,
            index: sink,
        };
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let analysis = TaintAnalysis::secret_to_print();
        let solver = IfdsSolver::solve(&analysis, &icfg);
        let leaks = analysis.leaks(&icfg, &solver);
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].sink_call, sink);
    }

    #[test]
    fn taint_through_fields_weak_update() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let fld = pb.add_field(c, "data", Type::Int);
        let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
        let print = pb.declare_method("print", None, &[Type::Int], None, true);
        let main = pb.declare_method("main", None, &[], None, true);
        for m in [secret, print] {
            let mb = pb.method_body(m);
            pb.finish_body(mb);
        }
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let z = mb.local("z", Type::Int);
        mb.invoke(Some(x), Callee::Static(secret), vec![]);
        mb.field_store(None, fld, Operand::Local(x));
        // Overwrite with a clean value — weak update keeps the taint.
        mb.field_store(None, fld, Operand::IntConst(0));
        mb.assign(
            z,
            Rvalue::FieldLoad {
                base: None,
                field: fld,
            },
        );
        mb.invoke(None, Callee::Static(print), vec![Operand::Local(z)]);
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let analysis = TaintAnalysis::secret_to_print();
        let solver = IfdsSolver::solve(&analysis, &icfg);
        assert_eq!(analysis.leaks(&icfg, &solver).len(), 1);
    }

    #[test]
    fn overwrite_kills_taint() {
        let mut pb = ProgramBuilder::new();
        let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
        let print = pb.declare_method("print", None, &[Type::Int], None, true);
        let main = pb.declare_method("main", None, &[], None, true);
        for m in [secret, print] {
            let mb = pb.method_body(m);
            pb.finish_body(mb);
        }
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        mb.invoke(Some(x), Callee::Static(secret), vec![]);
        mb.assign(x, Rvalue::Use(Operand::IntConst(0)));
        mb.invoke(None, Callee::Static(print), vec![Operand::Local(x)]);
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let analysis = TaintAnalysis::secret_to_print();
        let solver = IfdsSolver::solve(&analysis, &icfg);
        assert!(analysis.leaks(&icfg, &solver).is_empty());
    }
}

mod possible_types {
    use super::*;

    #[test]
    fn allocation_types_tracked_through_copies() {
        // Analyzed as a *plain* program (annotations ignored), the second
        // allocation strongly updates `s`, so only Square survives. (The
        // lifted analysis instead keeps Circle under F — that is exactly
        // the point of SPLLIFT and is asserted in spllift-core's tests.)
        let ex = shapes();
        let icfg = ProgramIcfg::new(&ex.program);
        let solver = IfdsSolver::solve(&PossibleTypes::new(), &icfg);
        let [_, circle, square] = ex.classes;
        let facts = solver.results_at(ex.call_site);
        let types: Vec<_> = facts
            .iter()
            .filter_map(|f| match f {
                TypeFact::Local(_, c) => Some(*c),
                _ => None,
            })
            .collect();
        assert!(types.contains(&square));
        assert!(
            !types.contains(&circle),
            "plain analysis strongly updates s"
        );
    }

    #[test]
    fn types_flow_through_calls_and_returns() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let make = pb.declare_method("make", None, &[], Some(Type::Ref(c)), true);
        let main = pb.declare_method("main", None, &[], None, true);
        {
            let mut mb = pb.method_body(make);
            let t = mb.local("t", Type::Ref(c));
            mb.assign(t, Rvalue::New(c));
            mb.ret(Some(Operand::Local(t)));
            pb.finish_body(mb);
        }
        let sink;
        {
            let mut mb = pb.method_body(main);
            let r = mb.local("r", Type::Ref(c));
            mb.invoke(Some(r), Callee::Static(make), vec![]);
            sink = mb.nop();
            mb.ret(None);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let solver = IfdsSolver::solve(&PossibleTypes::new(), &icfg);
        let facts = solver.results_at(StmtRef {
            method: main,
            index: sink,
        });
        assert!(facts
            .iter()
            .any(|f| matches!(f, TypeFact::Local(_, cc) if *cc == c)));
    }

    #[test]
    fn reassignment_kills_old_type() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", None);
        let b = pb.add_class("B", None);
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Ref(a));
        mb.assign(x, Rvalue::New(a));
        mb.assign(x, Rvalue::New(b));
        let probe = mb.nop();
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let solver = IfdsSolver::solve(&PossibleTypes::new(), &icfg);
        let facts = solver.results_at(StmtRef {
            method: main,
            index: probe,
        });
        assert!(facts.contains(&TypeFact::Local(x, b)));
        assert!(
            !facts.contains(&TypeFact::Local(x, a)),
            "strong update on x"
        );
    }
}

mod reaching_defs {
    use super::*;

    #[test]
    fn defs_reach_uses_and_get_killed() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let d1 = mb.assign(x, Rvalue::Use(Operand::IntConst(1)));
        let probe1 = mb.nop();
        let d2 = mb.assign(x, Rvalue::Use(Operand::IntConst(2)));
        let probe2 = mb.nop();
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let solver = IfdsSolver::solve(&ReachingDefs::new(), &icfg);
        let site1 = StmtRef {
            method: main,
            index: d1,
        };
        let site2 = StmtRef {
            method: main,
            index: d2,
        };
        let at1 = solver.results_at(StmtRef {
            method: main,
            index: probe1,
        });
        assert!(at1.contains(&DefFact::Def {
            site: site1,
            var: x
        }));
        let at2 = solver.results_at(StmtRef {
            method: main,
            index: probe2,
        });
        assert!(at2.contains(&DefFact::Def {
            site: site2,
            var: x
        }));
        assert!(
            !at2.contains(&DefFact::Def {
                site: site1,
                var: x
            }),
            "d1 killed by d2"
        );
    }

    #[test]
    fn defs_flow_through_params() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare_method("use_it", None, &[Type::Int], None, true);
        let main = pb.declare_method("main", None, &[], None, true);
        let probe;
        {
            let mut mb = pb.method_body(callee);
            probe = mb.nop();
            mb.ret(None);
            pb.finish_body(mb);
        }
        let d1;
        {
            let mut mb = pb.method_body(main);
            let x = mb.local("x", Type::Int);
            d1 = mb.assign(x, Rvalue::Use(Operand::IntConst(1)));
            mb.invoke(None, Callee::Static(callee), vec![Operand::Local(x)]);
            mb.ret(None);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let formal = p.body(callee).param_locals[0];
        let icfg = ProgramIcfg::new(&p);
        let solver = IfdsSolver::solve(&ReachingDefs::new(), &icfg);
        let facts = solver.results_at(StmtRef {
            method: callee,
            index: probe,
        });
        assert!(facts.contains(&DefFact::Def {
            site: StmtRef {
                method: main,
                index: d1
            },
            var: formal
        }));
    }
}

mod uninit {
    use super::*;

    /// main: int x; foo(x) — the formal of foo is potentially uninit.
    #[test]
    fn uninit_flows_into_callee() {
        let mut pb = ProgramBuilder::new();
        let foo = pb.declare_method("foo", None, &[Type::Int], None, true);
        let main = pb.declare_method("main", None, &[], None, true);
        let use_stmt;
        {
            let mut mb = pb.method_body(foo);
            let t = mb.local("t", Type::Int);
            let param = mb.param_local(0);
            use_stmt = mb.assign(
                t,
                Rvalue::Binary(BinOp::Add, Operand::Local(param), Operand::IntConst(1)),
            );
            mb.ret(None);
            pb.finish_body(mb);
        }
        {
            let mut mb = pb.method_body(main);
            let x = mb.local("x", Type::Int);
            mb.invoke(None, Callee::Static(foo), vec![Operand::Local(x)]);
            mb.ret(None);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let formal = p.body(foo).param_locals[0];
        let icfg = ProgramIcfg::new(&p);
        let solver = IfdsSolver::solve(&UninitVars::new(), &icfg);
        let uses = UninitVars::uses_of_uninit(&icfg, &solver);
        assert!(uses.contains(&(
            StmtRef {
                method: foo,
                index: use_stmt
            },
            formal
        )));
    }

    #[test]
    fn assignment_initializes() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let y = mb.local("y", Type::Int);
        mb.assign(x, Rvalue::Use(Operand::IntConst(1)));
        let ok_use = mb.assign(y, Rvalue::Use(Operand::Local(x)));
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let solver = IfdsSolver::solve(&UninitVars::new(), &icfg);
        let uses = UninitVars::uses_of_uninit(&icfg, &solver);
        assert!(!uses.iter().any(|(s, _)| *s
            == StmtRef {
                method: main,
                index: ok_use
            }));
    }

    #[test]
    fn branch_sensitive_maybe_uninit() {
        // if (..) x = 1;  use(x)  — x maybe uninit on the fall-through.
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let y = mb.local("y", Type::Int);
        let skip = mb.fresh_label();
        mb.if_cmp(BinOp::Eq, Operand::IntConst(0), Operand::IntConst(0), skip);
        mb.assign(x, Rvalue::Use(Operand::IntConst(1)));
        mb.bind(skip);
        let use_idx = mb.assign(y, Rvalue::Use(Operand::Local(x)));
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let solver = IfdsSolver::solve(&UninitVars::new(), &icfg);
        let uses = UninitVars::uses_of_uninit(&icfg, &solver);
        assert!(uses.contains(&(
            StmtRef {
                method: main,
                index: use_idx
            },
            x
        )));
    }

    #[test]
    fn params_are_initialized() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_method("f", None, &[Type::Int], None, true);
        let main = pb.declare_method("main", None, &[], None, true);
        let probe;
        {
            let mut mb = pb.method_body(f);
            let t = mb.local("t", Type::Int);
            let param = mb.param_local(0);
            probe = mb.assign(t, Rvalue::Use(Operand::Local(param)));
            mb.ret(None);
            pb.finish_body(mb);
        }
        {
            let mut mb = pb.method_body(main);
            mb.invoke(None, Callee::Static(f), vec![Operand::IntConst(7)]);
            mb.ret(None);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let solver = IfdsSolver::solve(&UninitVars::new(), &icfg);
        let uses = UninitVars::uses_of_uninit(&icfg, &solver);
        assert!(!uses.iter().any(|(s, _)| *s
            == StmtRef {
                method: f,
                index: probe
            }));
    }
}

mod typestate {
    use super::*;
    use crate::{State, StateFact, Typestate};

    /// Builds: File with open/close/read; main drives a protocol.
    /// Returns (program-builder artifacts) for several driver shapes.
    fn file_program(
        drive: impl FnOnce(
            &mut spllift_ir::MethodBuilder,
            spllift_ir::ClassId,
            [spllift_ir::MethodId; 3],
        ),
    ) -> (spllift_ir::Program, spllift_ir::ClassId) {
        let mut pb = ProgramBuilder::new();
        let file = pb.add_class("File", None);
        let open = pb.declare_method("open", Some(file), &[], None, false);
        let close = pb.declare_method("close", Some(file), &[], None, false);
        let read = pb.declare_method("read", Some(file), &[], Some(Type::Int), false);
        for m in [open, close, read] {
            let mb = pb.method_body(m);
            pb.finish_body(mb);
        }
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        drive(&mut mb, file, [open, close, read]);
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        (pb.finish(), file)
    }

    fn analysis(file: spllift_ir::ClassId) -> Typestate {
        Typestate::new(file, ["open"], ["close"], ["read"])
    }

    fn virt(base: spllift_ir::LocalId, name: &str) -> Callee {
        Callee::Virtual {
            base,
            name: name.into(),
            argc: 0,
        }
    }

    #[test]
    fn read_before_open_is_violation() {
        let (p, file) = file_program(|mb, file, _| {
            let f = mb.local("f", Type::Ref(file));
            let r = mb.local("r", Type::Int);
            mb.assign(f, Rvalue::New(file));
            mb.invoke(Some(r), virt(f, "read"), vec![]);
        });
        let icfg = ProgramIcfg::new(&p);
        let a = analysis(file);
        let solver = IfdsSolver::solve(&a, &icfg);
        assert_eq!(a.violations(&icfg, &solver).len(), 1);
    }

    #[test]
    fn open_then_read_is_clean() {
        let (p, file) = file_program(|mb, file, _| {
            let f = mb.local("f", Type::Ref(file));
            let r = mb.local("r", Type::Int);
            mb.assign(f, Rvalue::New(file));
            mb.invoke(None, virt(f, "open"), vec![]);
            mb.invoke(Some(r), virt(f, "read"), vec![]);
        });
        let icfg = ProgramIcfg::new(&p);
        let a = analysis(file);
        let solver = IfdsSolver::solve(&a, &icfg);
        assert!(a.violations(&icfg, &solver).is_empty());
    }

    #[test]
    fn read_after_close_is_violation() {
        let (p, file) = file_program(|mb, file, _| {
            let f = mb.local("f", Type::Ref(file));
            let r = mb.local("r", Type::Int);
            mb.assign(f, Rvalue::New(file));
            mb.invoke(None, virt(f, "open"), vec![]);
            mb.invoke(None, virt(f, "close"), vec![]);
            mb.invoke(Some(r), virt(f, "read"), vec![]);
        });
        let icfg = ProgramIcfg::new(&p);
        let a = analysis(file);
        let solver = IfdsSolver::solve(&a, &icfg);
        assert_eq!(a.violations(&icfg, &solver).len(), 1);
    }

    #[test]
    fn state_follows_copies() {
        let (p, file) = file_program(|mb, file, _| {
            let f = mb.local("f", Type::Ref(file));
            let g = mb.local("g", Type::Ref(file));
            let r = mb.local("r", Type::Int);
            mb.assign(f, Rvalue::New(file));
            mb.invoke(None, virt(f, "open"), vec![]);
            mb.assign(g, Rvalue::Use(Operand::Local(f)));
            mb.invoke(Some(r), virt(g, "read"), vec![]); // g is open
        });
        let icfg = ProgramIcfg::new(&p);
        let a = analysis(file);
        let solver = IfdsSolver::solve(&a, &icfg);
        assert!(a.violations(&icfg, &solver).is_empty());
    }

    #[test]
    fn branch_makes_state_uncertain() {
        // if (..) close(); read();  — may-Closed at the read.
        let (p, file) = file_program(|mb, file, _| {
            let f = mb.local("f", Type::Ref(file));
            let r = mb.local("r", Type::Int);
            mb.assign(f, Rvalue::New(file));
            mb.invoke(None, virt(f, "open"), vec![]);
            let skip = mb.fresh_label();
            mb.if_cmp(BinOp::Eq, Operand::IntConst(1), Operand::IntConst(1), skip);
            mb.invoke(None, virt(f, "close"), vec![]);
            mb.bind(skip);
            mb.invoke(Some(r), virt(f, "read"), vec![]);
        });
        let icfg = ProgramIcfg::new(&p);
        let a = analysis(file);
        let solver = IfdsSolver::solve(&a, &icfg);
        assert_eq!(a.violations(&icfg, &solver).len(), 1);
    }

    #[test]
    fn lifted_typestate_reports_feature_constraint() {
        // #ifdef EAGER_CLOSE close(); #endif  read();
        use spllift_core::{LiftedSolution, ModelMode};
        use spllift_features::{
            BddConstraintContext, ConstraintContext, FeatureExpr, FeatureTable,
        };
        let mut t = FeatureTable::new();
        let feat = t.intern("EAGER_CLOSE");
        let mut pb = ProgramBuilder::new();
        let file = pb.add_class("File", None);
        let open = pb.declare_method("open", Some(file), &[], None, false);
        let close = pb.declare_method("close", Some(file), &[], None, false);
        let read = pb.declare_method("read", Some(file), &[], Some(Type::Int), false);
        for m in [open, close, read] {
            let mb = pb.method_body(m);
            pb.finish_body(mb);
        }
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let f = mb.local("f", Type::Ref(file));
        let r = mb.local("r", Type::Int);
        mb.assign(f, Rvalue::New(file));
        mb.invoke(
            None,
            Callee::Virtual {
                base: f,
                name: "open".into(),
                argc: 0,
            },
            vec![],
        );
        mb.push_annotation(FeatureExpr::var(feat));
        mb.invoke(
            None,
            Callee::Virtual {
                base: f,
                name: "close".into(),
                argc: 0,
            },
            vec![],
        );
        mb.pop_annotation();
        let read_idx = mb.invoke(
            Some(r),
            Callee::Virtual {
                base: f,
                name: "read".into(),
                argc: 0,
            },
            vec![],
        );
        let read_stmt = StmtRef {
            method: main,
            index: read_idx,
        };
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let ctx = BddConstraintContext::new(&t);
        let a = Typestate::new(file, ["open"], ["close"], ["read"]);
        let solution = LiftedSolution::solve(&a, &icfg, &ctx, None, ModelMode::Ignore);
        let c = solution.constraint_of(read_stmt, &StateFact::Local(f, State::Closed));
        assert_eq!(c, ctx.lit(feat, true), "read-after-close iff EAGER_CLOSE");
        let open_c = solution.constraint_of(read_stmt, &StateFact::Local(f, State::Open));
        assert_eq!(open_c, ctx.lit(feat, false));
    }
}

mod sanitizers {
    use super::*;

    #[test]
    fn sanitizer_cleans_return_value() {
        // x = secret(); y = hash(x); print(y) — no leak with `hash` as
        // sanitizer, leak without.
        let build = || {
            let mut pb = ProgramBuilder::new();
            let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
            let print = pb.declare_method("print", None, &[Type::Int], None, true);
            let hash = pb.declare_method("hash", None, &[Type::Int], Some(Type::Int), true);
            for m in [secret, print] {
                let mb = pb.method_body(m);
                pb.finish_body(mb);
            }
            {
                // hash's body returns its argument — without sanitizer
                // status, taint flows straight through.
                let mut mb = pb.method_body(hash);
                let p = mb.param_local(0);
                mb.ret(Some(Operand::Local(p)));
                pb.finish_body(mb);
            }
            let main = pb.declare_method("main", None, &[], None, true);
            let mut mb = pb.method_body(main);
            let x = mb.local("x", Type::Int);
            let y = mb.local("y", Type::Int);
            mb.invoke(Some(x), Callee::Static(secret), vec![]);
            mb.invoke(Some(y), Callee::Static(hash), vec![Operand::Local(x)]);
            mb.invoke(None, Callee::Static(print), vec![Operand::Local(y)]);
            mb.ret(None);
            pb.finish_body(mb);
            pb.add_entry_point(main);
            pb.finish()
        };
        let p = build();
        let icfg = ProgramIcfg::new(&p);

        let plain = TaintAnalysis::secret_to_print();
        let solver = IfdsSolver::solve(&plain, &icfg);
        assert_eq!(
            plain.leaks(&icfg, &solver).len(),
            1,
            "without sanitizer: leak"
        );

        let sanitized = TaintAnalysis::secret_to_print().with_sanitizers(["hash"]);
        let solver = IfdsSolver::solve(&sanitized, &icfg);
        assert!(sanitized.leaks(&icfg, &solver).is_empty(), "hash() cleans");
    }
}

mod linear_const {
    use super::*;
    use crate::{CpFact, CpValue, LinearConstants};
    use spllift_ide::IdeSolver;

    fn value_at(
        s: &IdeSolver<ProgramIcfg<'_>, CpFact, CpValue>,
        stmt: StmtRef,
        l: spllift_ir::LocalId,
    ) -> CpValue {
        s.value_at(stmt, &CpFact::Local(l))
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let y = mb.local("y", Type::Int);
        mb.assign(x, Rvalue::Use(Operand::IntConst(5)));
        mb.assign(
            y,
            Rvalue::Binary(BinOp::Mul, Operand::Local(x), Operand::IntConst(3)),
        );
        mb.assign(
            y,
            Rvalue::Binary(BinOp::Add, Operand::Local(y), Operand::IntConst(2)),
        );
        let probe = mb.nop();
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let s = IdeSolver::solve(&LinearConstants::new(), &icfg);
        let at = StmtRef {
            method: main,
            index: probe,
        };
        assert_eq!(value_at(&s, at, x), CpValue::Const(5));
        assert_eq!(value_at(&s, at, y), CpValue::Const(17)); // 5*3+2
    }

    #[test]
    fn branch_merges() {
        // if (..) x = 4 else x = 4  → Const(4);  then x = x - x → ⊥.
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let else_l = mb.fresh_label();
        let join_l = mb.fresh_label();
        mb.if_cmp(
            BinOp::Eq,
            Operand::IntConst(0),
            Operand::IntConst(0),
            else_l,
        );
        mb.assign(x, Rvalue::Use(Operand::IntConst(4)));
        mb.goto(join_l);
        mb.bind(else_l);
        mb.assign(x, Rvalue::Use(Operand::IntConst(4)));
        mb.bind(join_l);
        let probe1 = mb.nop();
        mb.assign(
            x,
            Rvalue::Binary(BinOp::Add, Operand::Local(x), Operand::Local(x)),
        );
        let probe2 = mb.nop();
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let s = IdeSolver::solve(&LinearConstants::new(), &icfg);
        assert_eq!(
            value_at(
                &s,
                StmtRef {
                    method: main,
                    index: probe1
                },
                x
            ),
            CpValue::Const(4)
        );
        // x + x is not linear in ONE variable in our encoding → ⊥.
        assert_eq!(
            value_at(
                &s,
                StmtRef {
                    method: main,
                    index: probe2
                },
                x
            ),
            CpValue::Bot
        );
    }

    #[test]
    fn constants_flow_through_calls() {
        // inc(v) { return v + 1 }  main: r = inc(41)  → r = 42.
        let mut pb = ProgramBuilder::new();
        let inc = pb.declare_method("inc", None, &[Type::Int], Some(Type::Int), true);
        let main = pb.declare_method("main", None, &[], None, true);
        {
            let mut mb = pb.method_body(inc);
            let v = mb.param_local(0);
            let r = mb.local("r", Type::Int);
            mb.assign(
                r,
                Rvalue::Binary(BinOp::Add, Operand::Local(v), Operand::IntConst(1)),
            );
            mb.ret(Some(Operand::Local(r)));
            pb.finish_body(mb);
        }
        let probe;
        let r;
        {
            let mut mb = pb.method_body(main);
            r = mb.local("r", Type::Int);
            mb.invoke(Some(r), Callee::Static(inc), vec![Operand::IntConst(41)]);
            probe = mb.nop();
            mb.ret(None);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let s = IdeSolver::solve(&LinearConstants::new(), &icfg);
        assert_eq!(
            value_at(
                &s,
                StmtRef {
                    method: main,
                    index: probe
                },
                r
            ),
            CpValue::Const(42)
        );
    }

    #[test]
    fn two_contexts_stay_precise() {
        // r1 = inc(1); r2 = inc(10): context sensitivity keeps 2 and 11.
        let mut pb = ProgramBuilder::new();
        let inc = pb.declare_method("inc", None, &[Type::Int], Some(Type::Int), true);
        let main = pb.declare_method("main", None, &[], None, true);
        {
            let mut mb = pb.method_body(inc);
            let v = mb.param_local(0);
            let r = mb.local("r", Type::Int);
            mb.assign(
                r,
                Rvalue::Binary(BinOp::Add, Operand::Local(v), Operand::IntConst(1)),
            );
            mb.ret(Some(Operand::Local(r)));
            pb.finish_body(mb);
        }
        let (r1, r2, probe);
        {
            let mut mb = pb.method_body(main);
            r1 = mb.local("r1", Type::Int);
            r2 = mb.local("r2", Type::Int);
            mb.invoke(Some(r1), Callee::Static(inc), vec![Operand::IntConst(1)]);
            mb.invoke(Some(r2), Callee::Static(inc), vec![Operand::IntConst(10)]);
            probe = mb.nop();
            mb.ret(None);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let s = IdeSolver::solve(&LinearConstants::new(), &icfg);
        let at = StmtRef {
            method: main,
            index: probe,
        };
        assert_eq!(value_at(&s, at, r1), CpValue::Const(2));
        assert_eq!(value_at(&s, at, r2), CpValue::Const(11));
    }

    #[test]
    fn loop_variable_is_bottom() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        mb.assign(x, Rvalue::Use(Operand::IntConst(0)));
        let head = mb.fresh_label();
        let done = mb.fresh_label();
        mb.bind(head);
        mb.if_cmp(BinOp::Ge, Operand::Local(x), Operand::IntConst(10), done);
        mb.assign(
            x,
            Rvalue::Binary(BinOp::Add, Operand::Local(x), Operand::IntConst(1)),
        );
        mb.goto(head);
        mb.bind(done);
        let probe = mb.nop();
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let p = pb.finish();
        let icfg = ProgramIcfg::new(&p);
        let s = IdeSolver::solve(&LinearConstants::new(), &icfg);
        assert_eq!(
            value_at(
                &s,
                StmtRef {
                    method: main,
                    index: probe
                },
                x
            ),
            CpValue::Bot
        );
    }
}

mod registry {
    use super::*;

    #[test]
    fn every_name_parses_back_to_its_kind() {
        for k in AnalysisKind::ALL {
            assert_eq!(AnalysisKind::parse(k.name()), Ok(k));
        }
        let mut names: Vec<&str> = AnalysisKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), AnalysisKind::ALL.len(), "names must be unique");
    }

    #[test]
    fn unknown_name_lists_every_valid_name() {
        let err = AnalysisKind::parse("reaching").unwrap_err();
        assert!(err.starts_with("unknown analysis `reaching`"), "{err}");
        for k in AnalysisKind::ALL {
            assert!(err.contains(k.name()), "{err} misses {}", k.name());
        }
    }

    #[test]
    fn paper_three_carry_the_papers_labels() {
        let labels: Vec<&str> = AnalysisKind::PAPER_THREE
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(labels, ["P. Types", "R. Def.", "U. Var."]);
    }

    fn fact_type<P: for<'p> spllift_ifds::IfdsProblem<ProgramIcfg<'p>>>(_: &P) -> &'static str {
        std::any::type_name::<<P as spllift_ifds::IfdsProblem<ProgramIcfg<'static>>>::Fact>()
    }

    #[test]
    fn with_analysis_binds_the_kinds_problem() {
        // The bound problem's fact type tells the four arms apart.
        let of = |k: AnalysisKind| with_analysis!(k, |p| fact_type(p));
        assert!(of(AnalysisKind::Taint).ends_with("TaintFact"));
        assert!(of(AnalysisKind::Types).ends_with("TypeFact"));
        assert!(of(AnalysisKind::ReachingDefs).ends_with("DefFact"));
        assert!(of(AnalysisKind::Uninit).ends_with("UninitFact"));
    }
}
