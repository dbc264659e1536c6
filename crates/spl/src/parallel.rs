//! Parallel configuration-sharded solving: the A2 baseline and the RQ1
//! cross-check, fanned out over `std::thread::scope` workers.
//!
//! Configuration-specific solving is embarrassingly parallel — every A2
//! run reads the shared program and writes only its own results — so a
//! production-scale baseline should use every core. The BDD store is
//! thread-safe nowadays, but per-worker constraint contexts are still
//! the right shape here: each A2 shard's scratch constraints are
//! garbage to every other shard, so sharing a node store would only
//! contend. The driver therefore:
//!
//! 1. partitions the configuration slice into contiguous, ordered shards
//!    ([`spllift_features::partition_configurations`]),
//! 2. gives each worker its *own* constraint context (built by a caller
//!    supplied factory) and, for the cross-check, its own lifted
//!    solution — BDD state is created, used, and dropped on one thread,
//! 3. merges per-shard results **in shard index order**, which equals
//!    the sequential configuration order regardless of how the OS
//!    scheduled the workers.
//!
//! Because each shard also reports mismatches in the sequential order
//! (see `check_shard` in the crosscheck module) and caps locally at the
//! same `max_mismatches` budget, the merged, truncated mismatch vector
//! is byte-identical to the sequential pass for every worker count.

use crate::crosscheck::{check_shard, Mismatch, DEFAULT_MAX_MISMATCHES};
use spllift_core::{LiftedIcfg, LiftedSolution, ModelMode};
use spllift_features::{
    default_jobs, map_shards, Configuration, ConstraintContext, FeatureExpr, ShardStats,
};
use spllift_ifds::{Icfg, IfdsProblem};
use spllift_ir::ProgramIcfg;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Tuning knobs of the parallel driver.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Worker threads (shards). Clamped to at least 1; shards never
    /// outnumber configurations.
    pub jobs: usize,
    /// Cap on collected mismatches, applied per shard *and* to the
    /// merged result — see the module docs for why this keeps the
    /// output identical to the sequential pass.
    pub max_mismatches: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            jobs: default_jobs(),
            max_mismatches: DEFAULT_MAX_MISMATCHES,
        }
    }
}

impl ParallelOptions {
    /// Options with `jobs` workers and the default mismatch cap.
    pub fn with_jobs(jobs: usize) -> Self {
        ParallelOptions {
            jobs,
            ..Default::default()
        }
    }
}

/// Result of a parallel cross-check.
#[derive(Debug)]
pub struct CrosscheckOutcome {
    /// Mismatches in sequential configuration order, capped at
    /// [`ParallelOptions::max_mismatches`]. Identical to what
    /// [`crate::crosscheck_with`] returns for the same inputs.
    pub mismatches: Vec<Mismatch>,
    /// Per-shard wall-clock stats, in shard order.
    pub shards: Vec<ShardStats>,
    /// Worker threads actually used (after clamping).
    pub jobs: usize,
    /// Wall-clock time of the whole fan-out, including the merge.
    pub wall: Duration,
}

/// Result of a parallel A2 campaign (every configuration solved).
#[derive(Debug)]
pub struct A2CampaignOutcome {
    /// Total number of (statement, fact) results across all
    /// configurations — an order-independent checksum, so it is equal
    /// for every `jobs` value.
    pub facts: u64,
    /// Per-shard wall-clock stats, in shard order.
    pub shards: Vec<ShardStats>,
    /// Worker threads actually used (after clamping).
    pub jobs: usize,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
}

/// Runs the §6.1 bidirectional cross-check with configurations sharded
/// across `opts.jobs` scoped threads.
///
/// `make_ctx` is called once per worker: giving each worker a private
/// constraint context keeps its scratch BDD nodes out of everyone
/// else's unique-table shards. Each worker solves its own lifted
/// instance — that repeats the cheap single-pass SPLLIFT solve per
/// worker, but the A2 oracle (one full IFDS solve *per configuration*)
/// dominates, which is the point of sharding by configuration.
///
/// The merged mismatch vector is byte-identical to
/// [`crate::crosscheck_with`] with the same `max_mismatches`, for every
/// `jobs` value.
pub fn crosscheck_parallel<'p, P, Ctx, F>(
    icfg: &ProgramIcfg<'p>,
    problem: &P,
    make_ctx: F,
    model: Option<&FeatureExpr>,
    configs: &[Configuration],
    opts: &ParallelOptions,
) -> CrosscheckOutcome
where
    P: IfdsProblem<ProgramIcfg<'p>> + Sync,
    P::Fact: Ord + Hash + Send + Sync,
    Ctx: ConstraintContext + Sync,
    Ctx::C: Send + Sync,
    F: Fn() -> Ctx + Sync,
{
    let start = Instant::now();
    let budget = opts.max_mismatches;

    let (per_shard, stats, jobs) = map_shards(configs, opts.jobs, |_shard, chunk| {
        let ctx = make_ctx();
        let lifted = LiftedSolution::solve(problem, icfg, &ctx, model, ModelMode::OnEdges);
        let lifted_icfg = LiftedIcfg::new(icfg);
        let mut mismatches = Vec::new();
        check_shard(
            icfg,
            &lifted,
            &lifted_icfg,
            problem,
            &ctx,
            chunk,
            budget,
            &mut mismatches,
        );
        mismatches
    });

    let mut mismatches: Vec<Mismatch> = per_shard.into_iter().flatten().collect();
    mismatches.truncate(budget);
    CrosscheckOutcome {
        mismatches,
        shards: stats,
        jobs,
        wall: start.elapsed(),
    }
}

/// Solves A2 for every configuration, sharded across `jobs` scoped
/// threads — the brute-force "A2 × every valid configuration" arm of
/// Table 2, parallelized.
///
/// A2 consults the concrete configuration directly (no constraints are
/// built), so no per-worker constraint context is needed; each worker
/// only builds its own [`LiftedIcfg`] view. Returns an
/// order-independent fact count as a determinism checksum together with
/// per-shard and total wall-clock times.
pub fn a2_campaign_parallel<'p, P>(
    icfg: &ProgramIcfg<'p>,
    problem: &P,
    configs: &[Configuration],
    jobs: usize,
) -> A2CampaignOutcome
where
    P: IfdsProblem<ProgramIcfg<'p>> + Sync,
    P::Fact: Hash,
{
    let start = Instant::now();

    let (per_shard, stats, jobs) = map_shards(configs, jobs, |_shard, chunk| {
        let lifted_icfg = LiftedIcfg::new(icfg);
        let stmts: Vec<_> = icfg
            .methods()
            .into_iter()
            .flat_map(|m| icfg.stmts_of(m))
            .collect();
        let mut facts = 0u64;
        for config in chunk {
            let a2 = crate::a2::solve_a2(problem, &lifted_icfg, config);
            for &s in &stmts {
                facts += a2.results_at(s).len() as u64;
            }
        }
        facts
    });

    A2CampaignOutcome {
        facts: per_shard.into_iter().sum(),
        shards: stats,
        jobs,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosscheck_with;
    use spllift_analyses::TaintAnalysis;
    use spllift_features::BddConstraintContext;
    use spllift_ir::samples::fig1;

    #[test]
    fn empty_config_slice_is_trivial() {
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        let analysis = TaintAnalysis::secret_to_print();
        let outcome = crosscheck_parallel(
            &icfg,
            &analysis,
            || BddConstraintContext::new(&ex.table),
            None,
            &[],
            &ParallelOptions::with_jobs(4),
        );
        assert!(outcome.mismatches.is_empty());
        assert!(outcome.shards.is_empty());
        let campaign = a2_campaign_parallel(&icfg, &analysis, &[], 4);
        assert_eq!(campaign.facts, 0);
    }

    #[test]
    fn parallel_equals_sequential_on_fig1() {
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        let analysis = TaintAnalysis::secret_to_print();
        let configs: Vec<_> = (0u64..8).map(|b| Configuration::from_bits(b, 3)).collect();
        let ctx = BddConstraintContext::new(&ex.table);
        let sequential = crosscheck_with(&icfg, &analysis, &ctx, None, &configs, 100);
        for jobs in [1, 2, 3, 8, 64] {
            let outcome = crosscheck_parallel(
                &icfg,
                &analysis,
                || BddConstraintContext::new(&ex.table),
                None,
                &configs,
                &ParallelOptions {
                    jobs,
                    max_mismatches: 100,
                },
            );
            assert_eq!(outcome.mismatches, sequential, "jobs = {jobs}");
            assert_eq!(
                outcome.shards.iter().map(|s| s.items).sum::<usize>(),
                configs.len()
            );
        }
    }

    #[test]
    fn campaign_checksum_is_jobs_invariant() {
        let ex = fig1();
        let icfg = ProgramIcfg::new(&ex.program);
        let analysis = TaintAnalysis::secret_to_print();
        let configs: Vec<_> = (0u64..8).map(|b| Configuration::from_bits(b, 3)).collect();
        let reference = a2_campaign_parallel(&icfg, &analysis, &configs, 1).facts;
        assert!(reference > 0, "fig1 taint campaign computes facts");
        for jobs in [2, 3, 8] {
            assert_eq!(
                a2_campaign_parallel(&icfg, &analysis, &configs, jobs).facts,
                reference
            );
        }
    }
}
