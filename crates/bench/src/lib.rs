//! The benchmark harness: shared measurement machinery for the `report`
//! binary and the in-tree benches, regenerating the paper's Tables 1–3.

#![warn(missing_docs)]
pub mod harness;

use spllift_analyses::{with_analysis, AnalysisKind};
use spllift_benchgen::GeneratedSpl;
use spllift_core::{LiftedIcfg, LiftedSolution, ModelMode};
use spllift_features::BddConstraintContext;
use spllift_ide::IdeStats;
use spllift_ifds::IfdsProblem;
use spllift_ir::ProgramIcfg;
use spllift_spl::a2_campaign_parallel;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Measured SPLLIFT run.
#[derive(Debug, Clone, Copy)]
pub struct SplliftMeasurement {
    /// Wall-clock solve time (lifting + both IDE phases).
    pub time: Duration,
    /// IDE solver counters.
    pub stats: IdeStats,
}

/// Measured (or extrapolated) A2 campaign over all valid configurations.
#[derive(Debug, Clone, Copy)]
pub enum A2Outcome {
    /// All valid configurations were analyzed within the cutoff.
    Exact {
        /// Campaign wall-clock time (sharded across `jobs` workers).
        total: Duration,
        /// Summed per-shard worker time — the sequential-equivalent
        /// cost, `≈ total × jobs` when the shards balance.
        cpu: Duration,
        /// Number of configurations analyzed.
        configs: u128,
        /// Worker threads the campaign was sharded across.
        jobs: usize,
    },
    /// The cutoff was hit; the total is extrapolated as the paper does
    /// (§6.2): average per-run time × number of valid configurations,
    /// divided by the worker count.
    Estimated {
        /// Mean per-configuration worker time over the measured sample.
        per_run: Duration,
        /// Total number of valid configurations.
        configs: u128,
        /// Configurations actually measured.
        measured: u64,
        /// Worker threads the projection assumes.
        jobs: usize,
    },
}

impl A2Outcome {
    /// The (possibly extrapolated) campaign wall-clock total, in
    /// seconds, at this outcome's worker count. With `jobs = 1` the
    /// estimate is exactly the paper's sequential extrapolation.
    pub fn total_secs(&self) -> f64 {
        match self {
            A2Outcome::Exact { total, .. } => total.as_secs_f64(),
            A2Outcome::Estimated {
                per_run,
                configs,
                jobs,
                ..
            } => per_run.as_secs_f64() * (*configs as f64) / (*jobs).max(1) as f64,
        }
    }

    /// `true` if the value is an estimate (the paper greys those cells).
    pub fn is_estimate(&self) -> bool {
        matches!(self, A2Outcome::Estimated { .. })
    }

    /// Worker threads used (or assumed) by the campaign.
    pub fn jobs(&self) -> usize {
        match self {
            A2Outcome::Exact { jobs, .. } | A2Outcome::Estimated { jobs, .. } => (*jobs).max(1),
        }
    }

    /// Average per-configuration worker time in seconds (the Table 3
    /// "average A2" row) — independent of the worker count.
    pub fn per_run_secs(&self) -> f64 {
        match self {
            A2Outcome::Exact { cpu, configs, .. } => cpu.as_secs_f64() / (*configs).max(1) as f64,
            A2Outcome::Estimated { per_run, .. } => per_run.as_secs_f64(),
        }
    }
}

/// Times the ICFG construction (class hierarchy + call graph) — the
/// "Soot/CG" column of Table 2.
pub fn time_icfg(spl: &GeneratedSpl) -> (Duration, ProgramIcfg<'_>) {
    let start = Instant::now();
    let icfg = ProgramIcfg::new(&spl.program);
    (start.elapsed(), icfg)
}

/// Runs SPLLIFT once over the whole product line.
pub fn time_spllift<P, D>(
    spl: &GeneratedSpl,
    icfg: &ProgramIcfg<'_>,
    problem: &P,
    mode: ModelMode,
) -> SplliftMeasurement
where
    P: for<'p> IfdsProblem<ProgramIcfg<'p>, Fact = D>,
    D: Clone + Eq + Hash + std::fmt::Debug,
{
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    let model_opt = match mode {
        ModelMode::Ignore => None,
        _ => Some(&model),
    };
    let start = Instant::now();
    let solution = LiftedSolution::solve(problem, icfg, &ctx, model_opt, mode);
    let time = start.elapsed();
    SplliftMeasurement {
        time,
        stats: solution.stats(),
    }
}

/// Runs the A2 baseline over every valid configuration, sharded across
/// `jobs` worker threads (see [`spllift_spl::a2_campaign_parallel`]),
/// stopping at `cutoff` and extrapolating like the paper when exceeded.
/// Subjects whose configurations cannot even be enumerated (BerkeleyDB's
/// 2^39) are estimated from the full and empty configurations directly —
/// exactly the paper's §6.2 estimation recipe, projected onto `jobs`
/// workers.
pub fn time_a2_all<P, D>(
    spl: &GeneratedSpl,
    icfg: &ProgramIcfg<'_>,
    problem: &P,
    cutoff: Duration,
    jobs: usize,
) -> A2Outcome
where
    P: for<'p> IfdsProblem<ProgramIcfg<'p>, Fact = D> + Sync,
    D: Clone + Eq + Hash + std::fmt::Debug,
{
    let jobs = jobs.max(1);
    let total_configs = spl.count_valid_configs();
    if spl.reachable.len() > 30 {
        let lifted_icfg = LiftedIcfg::new(icfg);
        let [full, empty] = spl.extrapolation_configs();
        let start = Instant::now();
        let _ = spllift_spl::solve_a2(problem, &lifted_icfg, &full);
        let _ = spllift_spl::solve_a2(problem, &lifted_icfg, &empty);
        return A2Outcome::Estimated {
            per_run: start.elapsed() / 2,
            configs: total_configs,
            measured: 2,
            jobs,
        };
    }
    let configs = spl.valid_configurations();
    // Run in batches so the cutoff is honored between fan-outs: each
    // batch is one parallel campaign, and the cutoff check happens at
    // batch boundaries (a batch is at most a few seconds of work).
    let batch = (jobs * 16).max(32);
    let start = Instant::now();
    let mut wall = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let mut measured = 0u64;
    for chunk in configs.chunks(batch) {
        let outcome = a2_campaign_parallel(icfg, problem, chunk, jobs);
        wall += outcome.wall;
        cpu += outcome.shards.iter().map(|s| s.wall).sum::<Duration>();
        measured += chunk.len() as u64;
        if start.elapsed() > cutoff && measured < configs.len() as u64 {
            return A2Outcome::Estimated {
                per_run: cpu / measured as u32,
                configs: total_configs,
                measured,
                jobs,
            };
        }
    }
    A2Outcome::Exact {
        total: wall,
        cpu,
        configs: configs.len() as u128,
        jobs,
    }
}

/// One Table 2 / Table 3 cell: everything measured for a subject ×
/// analysis pair.
#[derive(Debug)]
pub struct Cell {
    /// Subject name.
    pub subject: &'static str,
    /// Analysis label.
    pub analysis: &'static str,
    /// Call-graph construction time (shared by both approaches).
    pub cg_time: Duration,
    /// SPLLIFT, feature model regarded (§4.2, on edges).
    pub spllift_regarded: SplliftMeasurement,
    /// SPLLIFT, feature model ignored (Table 3's second row).
    pub spllift_ignored: SplliftMeasurement,
    /// The A2 campaign.
    pub a2: A2Outcome,
}

/// Measures one cell. `cutoff` bounds the A2 campaign, which is sharded
/// across `jobs` worker threads.
pub fn measure_cell(
    spl: &GeneratedSpl,
    analysis: AnalysisKind,
    cutoff: Duration,
    jobs: usize,
) -> Cell {
    let (cg_time, icfg) = time_icfg(spl);
    with_analysis!(analysis, |p| Cell {
        subject: spl.spec.name,
        analysis: analysis.label(),
        cg_time,
        spllift_regarded: time_spllift(spl, &icfg, p, ModelMode::OnEdges),
        spllift_ignored: time_spllift(spl, &icfg, p, ModelMode::Ignore),
        a2: time_a2_all(spl, &icfg, p, cutoff, jobs),
    })
}

/// Pretty-prints a duration the way the paper does (`4s`, `2m06s`,
/// `9h03m`, `~days`, `~years`).
pub fn fmt_duration(secs: f64) -> String {
    if secs.is_nan() {
        return "-".into();
    }
    if secs < 60.0 {
        return format!("{secs:.1}s");
    }
    let mins = secs / 60.0;
    if mins < 60.0 {
        return format!("{}m{:02}s", mins as u64, (secs % 60.0) as u64);
    }
    let hours = mins / 60.0;
    if hours < 48.0 {
        return format!("{}h{:02}m", hours as u64, (mins % 60.0) as u64);
    }
    let days = hours / 24.0;
    if days < 365.0 {
        return format!("{:.0} days", days);
    }
    format!("{:.1} years", days / 365.0)
}

/// Pearson correlation coefficient, for the §6.2 qualitative analysis
/// (time vs. number of jump functions constructed; the paper reports
/// ρ > 0.99).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spllift_benchgen::subject_by_name;

    #[test]
    fn measure_cell_smoke_mm08() {
        let spl = GeneratedSpl::generate(subject_by_name("MM08").unwrap());
        let cell = measure_cell(&spl, AnalysisKind::Uninit, Duration::from_secs(20), 2);
        assert_eq!(cell.subject, "MM08");
        assert!(cell.spllift_regarded.stats.jump_fn_constructions > 0);
        match cell.a2 {
            A2Outcome::Exact { configs, .. } => assert_eq!(configs, 26),
            A2Outcome::Estimated { configs, .. } => assert_eq!(configs, 26),
        }
    }

    #[test]
    fn spllift_beats_a2_on_mm08() {
        // The headline claim at miniature scale: one SPLLIFT pass is
        // faster than 26 A2 runs. jobs = 1 so the comparison matches
        // the paper's single-threaded campaign.
        let spl = GeneratedSpl::generate(subject_by_name("MM08").unwrap());
        let cell = measure_cell(&spl, AnalysisKind::ReachingDefs, Duration::from_secs(60), 1);
        assert!(
            cell.spllift_regarded.time.as_secs_f64() < cell.a2.total_secs(),
            "SPLLIFT {}s vs A2 {}s",
            cell.spllift_regarded.time.as_secs_f64(),
            cell.a2.total_secs()
        );
    }

    #[test]
    fn fmt_duration_scales() {
        assert_eq!(fmt_duration(4.0), "4.0s");
        assert_eq!(fmt_duration(126.0), "2m06s");
        assert!(fmt_duration(9.0 * 3600.0).starts_with("9h"));
        assert!(fmt_duration(3.0 * 86400.0).contains("days"));
        assert!(fmt_duration(2.0 * 365.0 * 86400.0).contains("years"));
    }

    #[test]
    fn pearson_of_linear_data_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod outcome_tests {
    use super::*;

    #[test]
    fn exact_outcome_math() {
        let o = A2Outcome::Exact {
            total: Duration::from_secs(10),
            cpu: Duration::from_secs(10),
            configs: 5,
            jobs: 1,
        };
        assert!(!o.is_estimate());
        assert_eq!(o.total_secs(), 10.0);
        assert_eq!(o.per_run_secs(), 2.0);
        assert_eq!(o.jobs(), 1);
    }

    #[test]
    fn estimated_outcome_extrapolates() {
        let o = A2Outcome::Estimated {
            per_run: Duration::from_millis(100),
            configs: 1_000_000,
            measured: 7,
            jobs: 1,
        };
        assert!(o.is_estimate());
        assert!((o.total_secs() - 100_000.0).abs() < 1e-6);
        assert!((o.per_run_secs() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn estimated_outcome_divides_by_jobs() {
        // Projecting the sequential extrapolation onto 4 workers.
        let o = A2Outcome::Estimated {
            per_run: Duration::from_millis(100),
            configs: 1_000_000,
            measured: 7,
            jobs: 4,
        };
        assert!((o.total_secs() - 25_000.0).abs() < 1e-6);
        // The per-run (per-worker) cost does not change with jobs.
        assert!((o.per_run_secs() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn exact_with_zero_configs_is_safe() {
        let o = A2Outcome::Exact {
            total: Duration::ZERO,
            cpu: Duration::ZERO,
            configs: 0,
            jobs: 1,
        };
        assert_eq!(o.per_run_secs(), 0.0);
    }
}
