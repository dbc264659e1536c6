//! Seeded random IR programs (no source text, straight through the
//! builder) — shared by differential and fuzz-style tests across the
//! workspace.
//!
//! Programs contain assignments, arithmetic, forward/backward branches,
//! static calls (including recursion), taint sources/sinks, and
//! `#ifdef`-style annotations over a small feature set. They always pass
//! [`spllift_ir::Program::check`], always terminate under the
//! interpreter's budget in practice, and exercise every lifted
//! flow-function class.

use spllift_features::{FeatureExpr, FeatureId, FeatureTable};
use spllift_ir::{BinOp, Callee, LocalId, Operand, Program, ProgramBuilder, Rvalue, Type};
use spllift_rng::SplitMix64;

/// A random annotated program plus its feature table.
#[derive(Debug)]
pub struct RandomSpl {
    /// The program (entry point `main`; `secret`/`print` present).
    pub program: Program,
    /// Feature table with `nfeatures` features.
    pub table: FeatureTable,
    /// The features, in order.
    pub features: Vec<FeatureId>,
}

/// Generates a random annotated program. Deterministic in `seed`.
///
/// `nfeatures` ≤ 8 keeps exhaustive configuration sweeps cheap.
pub fn random_spl(seed: u64, nfeatures: usize, nmethods: usize) -> RandomSpl {
    assert!((1..=8).contains(&nfeatures));
    assert!((1..=8).contains(&nmethods));
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut table = FeatureTable::new();
    let features: Vec<FeatureId> = (0..nfeatures)
        .map(|i| table.intern(&format!("F{i}")))
        .collect();

    let mut pb = ProgramBuilder::new();
    let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
    let print = pb.declare_method("print", None, &[Type::Int], None, true);
    {
        let mut mb = pb.method_body(secret);
        let v = mb.local("v", Type::Int);
        mb.assign(v, Rvalue::Use(Operand::IntConst(1234)));
        mb.ret(Some(Operand::Local(v)));
        pb.finish_body(mb);
    }
    {
        let mb = pb.method_body(print);
        pb.finish_body(mb);
    }
    let methods: Vec<_> = (0..nmethods)
        .map(|i| pb.declare_method(&format!("m{i}"), None, &[Type::Int], Some(Type::Int), true))
        .collect();
    let main = pb.declare_method("main", None, &[], None, true);

    let annotation = |rng: &mut SplitMix64| -> FeatureExpr {
        match rng.gen_range(0..8u32) {
            0..=3 => FeatureExpr::True,
            4 => FeatureExpr::var(features[rng.gen_range(0..features.len())]),
            5 => FeatureExpr::var(features[rng.gen_range(0..features.len())]).not(),
            6 => FeatureExpr::var(features[rng.gen_range(0..features.len())])
                .and(FeatureExpr::var(features[rng.gen_range(0..features.len())])),
            _ => FeatureExpr::var(features[rng.gen_range(0..features.len())])
                .or(FeatureExpr::var(features[rng.gen_range(0..features.len())])),
        }
    };

    let emit_body = |pb: &mut ProgramBuilder, rng: &mut SplitMix64, mid, has_param: bool| {
        let mut mb = pb.method_body(mid);
        let mut locals: Vec<LocalId> = Vec::new();
        if has_param {
            locals.push(mb.param_local(0));
        }
        for i in 0..3 {
            locals.push(mb.local(&format!("v{i}"), Type::Int));
        }
        // One possibly-uninitialized local.
        let u = mb.local("u", Type::Int);
        let nops = rng.gen_range(4..12usize);
        let labels: Vec<_> = (0..nops + 1).map(|_| mb.fresh_label()).collect();
        for i in 0..nops {
            mb.bind(labels[i]);
            let ann = annotation(rng);
            let push = ann != FeatureExpr::True;
            if push {
                mb.push_annotation(ann);
            }
            let pick = |rng: &mut SplitMix64| locals[rng.gen_range(0..locals.len())];
            match rng.gen_range(0..10u32) {
                0 | 1 => {
                    let t = pick(rng);
                    let c = rng.gen_range(-4..20);
                    mb.assign(t, Rvalue::Use(Operand::IntConst(c)));
                }
                2 => {
                    let (t, a, b) = (pick(rng), pick(rng), pick(rng));
                    mb.assign(
                        t,
                        Rvalue::Binary(BinOp::Add, Operand::Local(a), Operand::Local(b)),
                    );
                }
                3 => {
                    // Forward conditional branch.
                    let target = (i + 1 + rng.gen_range(1..3)).min(nops);
                    mb.if_cmp(
                        BinOp::Lt,
                        Operand::Local(pick(rng)),
                        Operand::IntConst(rng.gen_range(0..10)),
                        labels[target],
                    );
                }
                4 => {
                    // Forward goto.
                    let target = (i + 1 + rng.gen_range(1..3)).min(nops);
                    mb.goto(labels[target]);
                }
                5 => {
                    let t = pick(rng);
                    mb.invoke(Some(t), Callee::Static(secret), vec![]);
                }
                6 => {
                    mb.invoke(None, Callee::Static(print), vec![Operand::Local(pick(rng))]);
                }
                7 => {
                    let callee = methods[rng.gen_range(0..methods.len())];
                    let (t, a) = (pick(rng), pick(rng));
                    mb.invoke(Some(t), Callee::Static(callee), vec![Operand::Local(a)]);
                }
                8 => {
                    // Use of the possibly-uninitialized local.
                    let t = pick(rng);
                    mb.assign(
                        t,
                        Rvalue::Binary(BinOp::Add, Operand::Local(u), Operand::IntConst(1)),
                    );
                }
                _ => {
                    // Sometimes initialize u (possibly under an annotation).
                    mb.assign(u, Rvalue::Use(Operand::IntConst(7)));
                }
            }
            if push {
                mb.pop_annotation();
            }
        }
        mb.bind(labels[nops]);
        if has_param {
            mb.ret(Some(Operand::Local(locals[rng.gen_range(0..locals.len())])));
        }
        pb.finish_body(mb);
    };

    for &mid in &methods {
        emit_body(&mut pb, &mut rng, mid, true);
    }
    emit_body(&mut pb, &mut rng, main, false);
    pb.add_entry_point(main);
    let program = pb.finish();
    debug_assert!(program.check().is_ok());
    RandomSpl {
        program,
        table,
        features,
    }
}
