//! Ablations B and C: *where* the feature model enters the computation.
//!
//! * `on-edges` — the paper's final design (§4.2): `m` conjoined on every
//!   edge, early termination during supergraph construction;
//! * `start-value` — the earlier PLAS 2012 design: seed the start value
//!   with `m`, edges unchanged — same results, later termination (the
//!   paper: "it wastes performance ... exchanging the start value only
//!   leads to early termination in the propagation phase");
//! * `ignore` — no model at all (baseline for both).

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

    for kind in [AnalysisKind::ReachingDefs, AnalysisKind::Uninit] {
        let label = kind.label();
        with_analysis!(kind, |p| {
            h.bench(&format!("on-edges/{label}"), || {
                let _ = LiftedSolution::solve(p, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
            });
            h.bench(&format!("start-value/{label}"), || {
                let _ =
                    LiftedSolution::solve(p, &icfg, &ctx, Some(&model), ModelMode::AtStartValue);
            });
            h.bench(&format!("ignore/{label}"), || {
                let _ = LiftedSolution::solve(p, &icfg, &ctx, None, ModelMode::Ignore);
            });
        });
    }
}

fn main() {
    let h = Harness::new("ablation_model", 10);
    for name in ["MM08", "GPL"] {
        bench_subject(&h, name);
    }
}
