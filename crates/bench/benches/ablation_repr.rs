//! Ablation A: BDD vs. DNF constraint representation.
//!
//! The paper reports that it first used a hand-written DNF data structure
//! and switched to BDDs because "others do not scale nearly as well for
//! the Boolean operations we require" (§5, §7). This bench reproduces
//! that comparison by instantiating the *same* lifting with either
//! constraint context.

use spllift_analyses::{with_analysis, AnalysisKind, TaintAnalysis};
use spllift_bench::harness::Harness;
use spllift_benchgen::{subject_by_name, GeneratedSpl};
use spllift_core::{LiftedSolution, ModelMode};
use spllift_features::{BddConstraintContext, DnfConstraintContext};
use spllift_ir::samples::fig1;
use spllift_ir::ProgramIcfg;

fn bench_fig1(h: &Harness) {
    let ex = fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let bctx = BddConstraintContext::new(&ex.table);
    let dctx = DnfConstraintContext::new(&ex.table);
    let analysis = TaintAnalysis::secret_to_print();
    let h = h.group("fig1-taint");
    h.bench("bdd", || {
        let _ = LiftedSolution::solve(&analysis, &icfg, &bctx, None, ModelMode::Ignore);
    });
    h.bench("dnf", || {
        let _ = LiftedSolution::solve(&analysis, &icfg, &dctx, None, ModelMode::Ignore);
    });
}

fn bench_mm08(h: &Harness) {
    let spl = GeneratedSpl::generate(subject_by_name("MM08").unwrap());
    let icfg = ProgramIcfg::new(&spl.program);
    let bctx = BddConstraintContext::new(&spl.table);
    let dctx = DnfConstraintContext::new(&spl.table);
    let h = h.group("MM08");
    for kind in [AnalysisKind::ReachingDefs, AnalysisKind::Uninit] {
        let label = kind.label();
        with_analysis!(kind, |p| {
            h.bench(&format!("bdd/{label}"), || {
                let _ = LiftedSolution::solve(p, &icfg, &bctx, None, ModelMode::Ignore);
            });
            h.bench(&format!("dnf/{label}"), || {
                let _ = LiftedSolution::solve(p, &icfg, &dctx, None, ModelMode::Ignore);
            });
        });
    }
}

fn main() {
    let h = Harness::new("ablation_repr", 10);
    bench_fig1(&h);
    bench_mm08(&h);
}
