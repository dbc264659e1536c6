//! Baseline analysis strategies for software product lines, and the RQ1
//! correctness cross-check.
//!
//! The paper evaluates SPLLIFT against two product-based baselines:
//!
//! * **A1** — the *traditional* approach: generate every valid product
//!   with a preprocessor, then run the plain IFDS analysis on each
//!   product ([`a1`]). Requires one parse + call-graph computation per
//!   product, which is why the paper calls it intractable.
//! * **A2** — a *configuration-specific feature-aware* analysis
//!   ([`a2::A2Problem`]): runs on the annotated product line directly,
//!   consulting one concrete configuration to decide per statement whether
//!   to apply its flow function or fall through (§6.1). It shares the
//!   single parse/call graph across configurations and is "so simple that
//!   we consider it foolproof" — the paper (and we) use it as the RQ1
//!   oracle for SPLLIFT.
//!
//! [`crosscheck()`](crosscheck::crosscheck) implements the paper's §6.1 bidirectional validation:
//! whenever A2 computes a fact for configuration `c`, SPLLIFT's constraint
//! must allow `c`; and every SPLLIFT result satisfied by `c` must also be
//! computed by A2.

#![warn(missing_docs)]
pub mod a1;
pub mod a2;
pub mod chaos;
pub mod crosscheck;
pub mod fuzz;
pub mod parallel;

pub use a1::A1Run;
pub use a2::{solve_a2, A2Problem};
pub use chaos::{ChaosWrapper, FaultKind, FaultPlan, PANIC_IN_FLOW_MESSAGE};
pub use crosscheck::{
    compare_datalog, crosscheck, crosscheck_with, Mismatch, DEFAULT_MAX_MISMATCHES,
};
pub use fuzz::{
    check_program, failure_persists, fuzz_campaign, subject_for_seed, AnalysisVerdict, BugWrapper,
    FailureReport, FuzzOptions, FuzzReport, InjectedBug, SeedVerdict, UnpredictedEvent, ANALYSES,
};
pub use parallel::{
    a2_campaign_parallel, crosscheck_parallel, default_jobs, A2CampaignOutcome, CrosscheckOutcome,
    ParallelOptions, ShardStats,
};

use spllift_features::{all_configurations, Configuration, FeatureExpr, FeatureId};

/// Enumerates the configurations over `universe` that satisfy
/// `model` — the "Configurations valid" column of Table 1, as concrete
/// configurations. Intended for baseline runs on small universes.
///
/// # Panics
///
/// Panics if `universe` has more than 30 features (enumerate via BDD
/// `sat_count` instead — this is exactly the wall the paper hits with
/// BerkeleyDB's 2^39 reachable configurations).
pub fn valid_configurations(model: &FeatureExpr, universe: &[FeatureId]) -> Vec<Configuration> {
    all_configurations(universe)
        .filter(|config| config.satisfies(model))
        .collect()
}

#[cfg(test)]
mod tests;
