//! Benches behind Table 3: the cost of regarding the feature model
//! (edge conjunction) vs. ignoring it, per subject × analysis.

use spllift_analyses::{with_analysis, AnalysisKind};
use spllift_bench::harness::Harness;
use spllift_benchgen::{subject_by_name, GeneratedSpl};
use spllift_core::{LiftedSolution, ModelMode};
use spllift_features::BddConstraintContext;
use spllift_ir::ProgramIcfg;

fn bench_subject(h: &Harness, name: &str) {
    let spl = GeneratedSpl::generate(subject_by_name(name).unwrap());
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let h = h.group(name);

    for analysis in AnalysisKind::PAPER_THREE {
        let label = analysis.label();
        with_analysis!(analysis, |p| {
            h.bench(&format!("regarded/{label}"), || {
                let _ = LiftedSolution::solve(p, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
            });
            h.bench(&format!("ignored/{label}"), || {
                let _ = LiftedSolution::solve(p, &icfg, &ctx, None, ModelMode::Ignore);
            });
        });
    }
}

fn main() {
    let h = Harness::new("table3", 10);
    for name in ["MM08", "GPL"] {
        bench_subject(&h, name);
    }
}
