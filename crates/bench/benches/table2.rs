//! Benches behind Table 2: one SPLLIFT pass over the product line vs.
//! the A2 baseline — a single-configuration run per analysis, plus the
//! full brute-force campaign sharded across worker threads (the
//! `report` binary does the complete cutoff-and-extrapolate version).

use spllift_analyses::{PossibleTypes, ReachingDefs, UninitVars};
use spllift_bench::harness::Harness;
use spllift_bench::ClientAnalysis;
use spllift_benchgen::{subject_by_name, GeneratedSpl};
use spllift_core::{LiftedIcfg, LiftedSolution, ModelMode};
use spllift_features::{default_jobs, BddConstraintContext};
use spllift_ifds::IfdsProblem;
use spllift_ir::ProgramIcfg;
use spllift_spl::{a2_campaign_parallel, solve_a2};
use std::hash::Hash;

fn bench_subject(h: &Harness, name: &str) {
    let spl = GeneratedSpl::generate(subject_by_name(name).unwrap());
    let icfg = ProgramIcfg::new(&spl.program);
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let [full, _] = spl.extrapolation_configs();
    let lifted_icfg = LiftedIcfg::new(&icfg);
    let h = h.group(name);

    macro_rules! cells {
        ($label:expr, $problem:expr) => {{
            let p = $problem;
            h.bench(&format!("spllift/{}", $label), || {
                run_spllift(&p, &icfg, &ctx, &model);
            });
            h.bench(&format!("a2-one-config/{}", $label), || {
                let _ = solve_a2(&p, &lifted_icfg, &full);
            });
        }};
    }
    for analysis in ClientAnalysis::PAPER_THREE {
        match analysis {
            ClientAnalysis::PossibleTypes => {
                cells!(analysis.label(), PossibleTypes::new())
            }
            ClientAnalysis::ReachingDefs => cells!(analysis.label(), ReachingDefs::new()),
            ClientAnalysis::UninitVars => cells!(analysis.label(), UninitVars::new()),
            ClientAnalysis::Taint => unreachable!(),
        }
    }

    // The brute-force arm: the whole A2 campaign, sequential vs. sharded
    // across all cores. Only for subjects whose campaign is cheap enough
    // to sample repeatedly (GPL's 1872 configs belong to `report`, which
    // runs each campaign once with a cutoff).
    if spl.reachable.len() <= 30 {
        let configs = spl.valid_configurations();
        if configs.len() > 128 {
            return;
        }
        let jobs = default_jobs();
        let p = ReachingDefs::new();
        let seq = h.bench(
            &format!("a2-campaign/R. Def./jobs=1 ({} cfgs)", configs.len()),
            || {
                let _ = a2_campaign_parallel(&icfg, &p, &configs, 1);
            },
        );
        let par = h.bench(&format!("a2-campaign/R. Def./jobs={jobs}"), || {
            let _ = a2_campaign_parallel(&icfg, &p, &configs, jobs);
        });
        println!(
            "table2/{name}/a2-campaign: speedup {:.2}x at {jobs} threads",
            seq.mean.as_secs_f64() / par.mean.as_secs_f64().max(1e-9),
        );
    }
}

fn run_spllift<P, D>(
    problem: &P,
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    model: &spllift_features::FeatureExpr,
) where
    P: for<'p> IfdsProblem<ProgramIcfg<'p>, Fact = D>,
    D: Clone + Eq + Hash + std::fmt::Debug,
{
    let _ = LiftedSolution::solve(problem, icfg, ctx, Some(model), ModelMode::OnEdges);
}

fn main() {
    let h = Harness::new("table2", 10);
    for name in ["MM08", "GPL", "Lampiro"] {
        bench_subject(&h, name);
    }
}
