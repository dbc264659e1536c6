//! The differential fuzzing campaign: seeded random (and mutated)
//! product lines, checked four ways per seed, with automatic ddmin
//! reduction of every failure.
//!
//! For each seed the driver generates a random annotated program
//! ([`spllift_benchgen::random_spl`]), optionally applies structural
//! mutations ([`spllift_benchgen::mutate()`]), and then checks:
//!
//! 1. **SPLLIFT ↔ A2, both directions** (§6.1) for all five liftable
//!    client analyses — every A2 fact's constraint must allow the
//!    configuration, and every constraint-allowed fact must be computed
//!    by A2;
//! 2. **SPLLIFT ↔ Datalog, both directions** — reaching definitions
//!    re-solved by the independent lifted Datalog engine
//!    ([`spllift_datalog::solve_reaching_defs`]) must carry the same
//!    constraint as the IDE lifting for every fact, and neither backend
//!    may derive a fact the other lacks; the Datalog relation dump must
//!    also be byte-identical at `jobs = 1` and `jobs = 2` (the engine's
//!    sharded-evaluation differential);
//! 3. **lattice soundness** — the subject re-solved at a seed-derived
//!    random [`spllift_features::LatticePoint`] (random feature subsets
//!    projected away / joined, optionally also dropping the model): every
//!    constraint the full-precision solve reports must *entail* the
//!    abstracted one — abstractions may widen, never narrow;
//! 4. **interpreter soundness** — every dynamic leak / uninitialized
//!    read the concrete interpreter observes in a derived product must
//!    be predicted by the corresponding lifted analysis.
//!
//! Seeds are sharded across `jobs` worker threads with the same
//! contiguous-ordered rule as the configuration shards
//! ([`spllift_features::partition_slice`] via
//! [`spllift_features::map_shards`]), so the merged verdict list — and
//! hence [`FuzzReport::render`] — is byte-identical for every `jobs`
//! value. Wall-clock stats are reported separately and never enter the
//! rendered report.
//!
//! Failures are minimized *after* the merge, sequentially and in seed
//! order, by the delta-debugging reducer ([`spllift_benchgen::reduce()`]);
//! each failure carries a pretty-printed repro in the
//! [`spllift_ir::text`] format, ready to be committed to
//! `tests/corpus/`.
//!
//! # The injected-bug hook
//!
//! [`InjectedBug`] deliberately corrupts the **lifted side only** (A2,
//! the Datalog engine and the interpreter stay honest), which is how
//! the reducer demo test
//! proves the campaign actually detects and minimizes real
//! disagreements. It is a test/demo hook; production campaigns run with
//! [`InjectedBug::None`].

use crate::crosscheck::{check_shard, compare_datalog, Mismatch, DEFAULT_MAX_MISMATCHES};
use spllift_analyses::{
    with_analysis, AnalysisKind, ReachingDefs, TaintAnalysis, TaintFact, Typestate, UninitFact,
    UninitVars,
};
use spllift_benchgen::{mutate, random_spl, reduce, RandomSpl, ReduceOptions, ReduceOutcome};
use spllift_core::{LiftedIcfg, LiftedSolution, ModelMode};
use spllift_datalog::{solve_reaching_defs, DumpDoc, EvalOptions};
use spllift_features::{
    all_configurations, default_jobs, map_shards, AbstractionStep, BddConstraintContext,
    Configuration, FeatureId, FeatureTable, LatticePoint, NamedFeature, ShardStats,
};
use spllift_ifds::{Icfg, IfdsProblem};
use spllift_ir::interp::{run as interp_run, Event, InterpConfig};
use spllift_ir::{ClassId, Operand, Program, ProgramIcfg, StmtKind};
use spllift_rng::SplitMix64;
use std::fmt::Write as _;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Salt mixed into the seed for the mutation RNG stream, so generation
/// and mutation draw from independent streams of the same master seed.
const MUTATION_SALT: u64 = 0x6d75_7461_7465_5f21;

/// Salt for the lattice-point RNG stream of the abstraction
/// differential, independent of generation and mutation.
const ABSTRACTION_SALT: u64 = 0x6162_7374_7261_6374;

/// Rule-evaluation workers of the sharded Datalog run that every seed
/// diffs against the sequential one.
const DATALOG_SHARDED_JOBS: usize = 2;

/// A deliberately wrong flow function, applied to the lifted solve only.
///
/// This is the campaign's self-test hook: with a bug injected, SPLLIFT's
/// answers diverge from the (unmodified) A2 oracle and interpreter, the
/// campaign must flag the seed, and the reducer must shrink the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectedBug {
    /// No bug: the production configuration.
    #[default]
    None,
    /// Kill every non-zero fact on the call-to-return edge — models the
    /// classic "forgot locals survive a call" flow-function mistake.
    /// SPLLIFT loses facts A2 keeps, producing `missing_in_lifted`
    /// mismatches and unpredicted dynamic events.
    KillAtCallToReturn,
}

/// Wraps an IFDS problem, corrupting its flow functions per
/// [`InjectedBug`]. Fact type (and hence solver typing) is unchanged, so
/// a solution lifted from the wrapper cross-checks directly against the
/// raw problem's A2 oracle.
pub struct BugWrapper<'a, P> {
    inner: &'a P,
    bug: InjectedBug,
}

impl<'a, P> BugWrapper<'a, P> {
    /// Wraps `inner` with `bug`.
    pub fn new(inner: &'a P, bug: InjectedBug) -> Self {
        BugWrapper { inner, bug }
    }
}

impl<'a, G, P> IfdsProblem<G> for BugWrapper<'a, P>
where
    G: Icfg,
    P: IfdsProblem<G>,
{
    type Fact = P::Fact;

    fn zero(&self) -> P::Fact {
        self.inner.zero()
    }

    fn flow_normal(&self, icfg: &G, curr: G::Stmt, succ: G::Stmt, fact: &P::Fact) -> Vec<P::Fact> {
        self.inner.flow_normal(icfg, curr, succ, fact)
    }

    fn flow_call(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        fact: &P::Fact,
    ) -> Vec<P::Fact> {
        self.inner.flow_call(icfg, call, callee, fact)
    }

    fn flow_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        callee: G::Method,
        exit: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
    ) -> Vec<P::Fact> {
        self.inner
            .flow_return(icfg, call, callee, exit, return_site, fact)
    }

    fn flow_call_to_return(
        &self,
        icfg: &G,
        call: G::Stmt,
        return_site: G::Stmt,
        fact: &P::Fact,
    ) -> Vec<P::Fact> {
        let out = self
            .inner
            .flow_call_to_return(icfg, call, return_site, fact);
        match self.bug {
            InjectedBug::None => out,
            InjectedBug::KillAtCallToReturn => {
                let zero = self.inner.zero();
                out.into_iter().filter(|f| *f == zero).collect()
            }
        }
    }

    fn initial_seeds(&self, icfg: &G) -> Vec<(G::Stmt, P::Fact)> {
        self.inner.initial_seeds(icfg)
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Features per random program (configuration space is `2^nfeatures`).
    pub nfeatures: usize,
    /// Helper methods per random program.
    pub nmethods: usize,
    /// Structural mutations applied on top of each generated program.
    pub mutations: usize,
    /// Worker threads; seeds are sharded contiguously across them.
    pub jobs: usize,
    /// Per-analysis mismatch cap (same budget rule as the crosscheck).
    pub max_mismatches: usize,
    /// Optional wall-clock budget. When set, shards stop picking up new
    /// seeds once the deadline passes — skipped seeds are reported, and
    /// the rendered report is **no longer** `jobs`-invariant (only the
    /// pure seed-range mode is).
    pub budget: Option<Duration>,
    /// Deliberate lifted-side bug (test/demo hook; see [`InjectedBug`]).
    pub bug: InjectedBug,
    /// Run the ddmin reducer on every failing seed.
    pub reduce_failures: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed_start: 0,
            seed_end: 32,
            nfeatures: 3,
            nmethods: 3,
            mutations: 2,
            jobs: default_jobs(),
            max_mismatches: DEFAULT_MAX_MISMATCHES,
            budget: None,
            bug: InjectedBug::None,
            reduce_failures: true,
        }
    }
}

/// The campaign checks, by name: the five liftable client analyses
/// (each cross-checked against A2; the first four are the
/// [`AnalysisKind::ALL`] names), the Datalog-backend differential
/// (`"datalog-reaching"`, reaching definitions re-solved by the
/// independent lifted Datalog engine), and the variability-abstraction
/// differential (`"abstraction"`, the full-precision solve's
/// constraints must entail a random lattice point's).
pub const ANALYSES: [&str; 7] = [
    AnalysisKind::Taint.name(),
    AnalysisKind::Types.name(),
    AnalysisKind::ReachingDefs.name(),
    AnalysisKind::Uninit.name(),
    "typestate",
    "datalog-reaching",
    "abstraction",
];

/// One analysis' crosscheck result on one seed.
#[derive(Debug, Clone)]
pub struct AnalysisVerdict {
    /// Campaign name of the analysis (one of [`ANALYSES`]).
    pub analysis: &'static str,
    /// SPLLIFT↔A2 mismatches, in deterministic order, capped at
    /// [`FuzzOptions::max_mismatches`].
    pub mismatches: Vec<Mismatch>,
}

/// An interpreter-observed event the lifted analysis failed to predict.
#[derive(Debug, Clone)]
pub struct UnpredictedEvent {
    /// Which lifted analysis missed it (`"taint"` or `"uninit"`).
    pub analysis: &'static str,
    /// The configuration whose derived product exhibited the event.
    pub config: Configuration,
    /// Rendering of the dynamic event.
    pub event: String,
}

/// Everything the campaign learned about one seed.
#[derive(Debug, Clone)]
pub struct SeedVerdict {
    /// The seed.
    pub seed: u64,
    /// Per-analysis crosscheck results, in [`ANALYSES`] order.
    pub analyses: Vec<AnalysisVerdict>,
    /// Dynamic events the static analyses failed to cover.
    pub unpredicted: Vec<UnpredictedEvent>,
}

impl SeedVerdict {
    /// `true` iff every check agreed.
    pub fn ok(&self) -> bool {
        self.analyses.iter().all(|a| a.mismatches.is_empty()) && self.unpredicted.is_empty()
    }

    /// A short description of the first failing check, if any.
    pub fn first_failure(&self) -> Option<String> {
        for a in &self.analyses {
            if let Some(m) = a.mismatches.first() {
                let dir = if m.missing_in_lifted {
                    "missing in lifted"
                } else {
                    "spurious in lifted"
                };
                return Some(format!(
                    "{} crosscheck: {} mismatches, first {dir} at {}",
                    a.analysis,
                    a.mismatches.len(),
                    m.stmt
                ));
            }
        }
        self.unpredicted
            .first()
            .map(|u| format!("{} unsound vs interpreter: {}", u.analysis, u.event))
    }
}

/// A reduced failing seed.
#[derive(Debug)]
pub struct FailureReport {
    /// The failing seed.
    pub seed: u64,
    /// Campaign name of the analysis whose failure was minimized.
    pub analysis: &'static str,
    /// `true` if the minimized failure is an interpreter-soundness
    /// violation, `false` for a SPLLIFT↔A2 crosscheck mismatch.
    pub dynamic: bool,
    /// Short description of the failure that was minimized.
    pub what: String,
    /// Payload statements before reduction.
    pub payload_before: usize,
    /// The reducer's outcome (minimal program + repro text).
    pub reduced: ReduceOutcome,
}

/// The campaign's result.
#[derive(Debug)]
pub struct FuzzReport {
    /// Options the campaign ran with.
    pub options: FuzzOptions,
    /// Per-seed verdicts, in seed order.
    pub verdicts: Vec<SeedVerdict>,
    /// Seeds skipped because the wall-clock budget ran out.
    pub skipped: Vec<u64>,
    /// Reduced failures, in seed order (empty if
    /// [`FuzzOptions::reduce_failures`] is off or nothing failed).
    pub failures: Vec<FailureReport>,
    /// Per-shard wall-clock stats (reported out of band; not rendered).
    pub shards: Vec<ShardStats>,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Total campaign wall-clock time.
    pub wall: Duration,
}

impl FuzzReport {
    /// `true` iff every checked seed agreed everywhere.
    pub fn ok(&self) -> bool {
        self.verdicts.iter().all(SeedVerdict::ok)
    }

    /// The deterministic campaign summary: one line per seed plus a
    /// trailer, and one line per reduced failure. Contains no timings or
    /// thread counts, so it is byte-identical across `--jobs` values
    /// (budget-free campaigns only; see [`FuzzOptions::budget`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            match v.first_failure() {
                None => {
                    let _ = writeln!(out, "seed {:>4}: ok", v.seed);
                }
                Some(what) => {
                    let _ = writeln!(out, "seed {:>4}: FAIL {what}", v.seed);
                }
            }
        }
        let failed = self.verdicts.iter().filter(|v| !v.ok()).count();
        let _ = writeln!(
            out,
            "fuzz: {} seeds checked, {} ok, {} failed{}",
            self.verdicts.len(),
            self.verdicts.len() - failed,
            failed,
            if self.skipped.is_empty() {
                String::new()
            } else {
                format!(", {} skipped (budget)", self.skipped.len())
            }
        );
        for f in &self.failures {
            let _ = writeln!(
                out,
                "reduced seed {}: {} -> {} payload stmts ({} oracle runs) [{}]",
                f.seed, f.payload_before, f.reduced.payload_stmts, f.reduced.oracle_runs, f.what
            );
        }
        out
    }
}

/// Generates (and mutates) the program for `seed` exactly as the
/// campaign does — the reducer and the corpus tooling reuse this so a
/// seed written in a report always reproduces the same subject.
pub fn subject_for_seed(seed: u64, opts: &FuzzOptions) -> RandomSpl {
    let mut spl = random_spl(seed, opts.nfeatures, opts.nmethods);
    if opts.mutations > 0 {
        let mut rng = SplitMix64::seed_from_u64(seed ^ MUTATION_SALT);
        mutate(&mut spl.program, &spl.features, &mut rng, opts.mutations);
    }
    spl
}

/// Cross-checks one analysis on one program: SPLLIFT (with the bug
/// wrapper applied) against the *raw* problem's A2 oracle, over
/// `configs`, both directions.
fn crosscheck_analysis<'p, P>(
    icfg: &ProgramIcfg<'p>,
    problem: &P,
    table: &FeatureTable,
    configs: &[Configuration],
    bug: InjectedBug,
    max_mismatches: usize,
) -> Vec<Mismatch>
where
    P: IfdsProblem<ProgramIcfg<'p>>,
    P::Fact: Ord + Hash,
{
    let ctx = BddConstraintContext::new(table);
    let wrapped = BugWrapper::new(problem, bug);
    let lifted = LiftedSolution::solve(&wrapped, icfg, &ctx, None, ModelMode::OnEdges);
    let lifted_icfg = LiftedIcfg::new(icfg);
    let mut out = Vec::new();
    check_shard(
        icfg,
        &lifted,
        &lifted_icfg,
        problem,
        &ctx,
        configs,
        max_mismatches,
        &mut out,
    );
    out
}

/// Cross-checks the Datalog backend on one program: reaching
/// definitions solved by SPLLIFT (with the bug wrapper applied) against
/// the independent lifted Datalog engine ([`compare_datalog`]). The
/// Datalog side is never wrapped, so an injected bug surfaces as a
/// backend disagreement.
///
/// The Datalog evaluation also runs sharded at [`DATALOG_SHARDED_JOBS`]
/// and its relation dump must be byte-identical to the sequential
/// evaluation's — the engine's own jobs-invariance differential.
fn crosscheck_datalog(
    icfg: &ProgramIcfg<'_>,
    table: &FeatureTable,
    bug: InjectedBug,
    cap: usize,
) -> Vec<Mismatch> {
    let ctx = BddConstraintContext::new(table);
    let problem = ReachingDefs::new();
    let wrapped = BugWrapper::new(&problem, bug);
    let lifted = LiftedSolution::solve(&wrapped, icfg, &ctx, None, ModelMode::OnEdges);
    let solve = |jobs| {
        solve_reaching_defs(icfg, &ctx, None, &EvalOptions { jobs })
            .expect("datalog evaluation failed (the fuzz campaign arms no budget)")
    };
    let dl = solve(1);
    let sharded = solve(DATALOG_SHARDED_JOBS);
    assert_eq!(
        DumpDoc::from_solution(&dl, &ctx, table).render(),
        DumpDoc::from_solution(&sharded, &ctx, table).render(),
        "sharded datalog evaluation (jobs = {DATALOG_SHARDED_JOBS}) diverged from the sequential one"
    );
    compare_datalog(icfg, &lifted, &dl, cap).1
}

/// Draws a random non-trivial lattice point over `features` from the
/// seed's dedicated RNG stream: a random non-empty subset is projected
/// away, joined into one proxy, or split between a join and a project
/// step, and the point optionally drops the feature model on top. The
/// same seed (and feature list) always yields the same point, so a
/// failure report reproduces and the reducer's oracle re-derives the
/// point per shrunken candidate.
fn random_lattice_point(seed: u64, table: &FeatureTable, features: &[FeatureId]) -> LatticePoint {
    let mut rng = SplitMix64::seed_from_u64(seed ^ ABSTRACTION_SALT);
    let named: Vec<NamedFeature> = features
        .iter()
        .map(|&f| (f, table.name(f).to_string()))
        .collect();
    if named.is_empty() {
        // The reducer can strip every feature from a candidate; dropping
        // the model is the only weakening left to exercise then.
        return LatticePoint::no_model();
    }
    let mut subset: Vec<NamedFeature> = named
        .iter()
        .filter(|_| rng.gen_bool(0.5))
        .cloned()
        .collect();
    if subset.is_empty() {
        subset.push(named[rng.gen_range(0..named.len())].clone());
    }
    let steps = match rng.gen_range(0..3u32) {
        0 => vec![AbstractionStep::project(subset)],
        1 => vec![AbstractionStep::join(subset)],
        _ if subset.len() >= 2 => {
            let (joined, projected) = subset.split_at(subset.len() / 2);
            vec![
                AbstractionStep::join(joined.to_vec()),
                AbstractionStep::project(projected.to_vec()),
            ]
        }
        _ => vec![AbstractionStep::join(subset)],
    };
    let point = LatticePoint::abstracted(steps);
    if rng.gen_bool(0.5) {
        point.without_model()
    } else {
        point
    }
}

/// The variability-abstraction differential: the subject solved at full
/// precision and at a seed-derived random [`LatticePoint`]; every
/// constraint the full solve reports must *entail* the abstracted
/// solve's (per fact and for per-statement reachability) — abstraction
/// may widen a constraint, never narrow it. Like the Datalog
/// differential this is configuration-free, so mismatch rows carry the
/// empty configuration. The injected bug is applied to both sides: the
/// check is relative and stays green under `--inject-bug` campaigns.
fn crosscheck_abstraction(
    icfg: &ProgramIcfg<'_>,
    table: &FeatureTable,
    features: &[FeatureId],
    seed: u64,
    bug: InjectedBug,
    cap: usize,
) -> Vec<Mismatch> {
    let point = random_lattice_point(seed, table, features);
    let ctx = BddConstraintContext::new(table);
    let problem = ReachingDefs::new();
    let wrapped = BugWrapper::new(&problem, bug);
    let full = LiftedSolution::solve(&wrapped, icfg, &ctx, None, ModelMode::OnEdges);
    let weak =
        LiftedSolution::solve_abstracted(&wrapped, icfg, &ctx, None, ModelMode::OnEdges, &point);
    // Statements in ICFG order, facts in `Ord` order — the same
    // deterministic-output contract as the other differentials.
    let mut out = Vec::new();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            if out.len() >= cap {
                return out;
            }
            let want = full.results_at(s);
            let mut rows: Vec<_> = want.iter().collect();
            rows.sort_by(|a, b| a.0.cmp(b.0));
            for (fact, c) in rows {
                if out.len() >= cap {
                    return out;
                }
                let wc = weak.constraint_of(s, fact);
                if !c.entails(&wc) {
                    out.push(Mismatch {
                        config: Configuration::empty(),
                        stmt: s,
                        fact: format!(
                            "{fact:?}: full has {}, `{}` has {} (abstraction narrowed)",
                            c.to_cube_string(),
                            point.name(),
                            wc.to_cube_string(),
                        ),
                        missing_in_lifted: false,
                    });
                }
            }
            let full_reach = full.reachability_of(s);
            let weak_reach = weak.reachability_of(s);
            if !full_reach.entails(&weak_reach) {
                out.push(Mismatch {
                    config: Configuration::empty(),
                    stmt: s,
                    fact: format!(
                        "reachability: full has {}, `{}` has {} (abstraction narrowed)",
                        full_reach.to_cube_string(),
                        point.name(),
                        weak_reach.to_cube_string(),
                    ),
                    missing_in_lifted: false,
                });
            }
        }
    }
    out
}

/// Runs the five A2 crosschecks over `configs`, plus the
/// configuration-free Datalog-backend and variability-abstraction
/// differentials.
fn crosscheck_all<'p>(
    icfg: &ProgramIcfg<'p>,
    table: &FeatureTable,
    features: &[FeatureId],
    configs: &[Configuration],
    seed: u64,
    bug: InjectedBug,
    cap: usize,
) -> Vec<AnalysisVerdict> {
    // Typestate tracks a class that classless random programs never
    // allocate — the protocol lattice stays empty, but the full lifted
    // pipeline (zero facts, identity edges, model conjunction) still
    // runs and must agree with A2.
    let typestate = Typestate::new(ClassId(0), ["open"], ["close"], ["read"]);
    let mut verdicts: Vec<AnalysisVerdict> = AnalysisKind::ALL
        .into_iter()
        .map(|kind| AnalysisVerdict {
            analysis: kind.name(),
            mismatches: with_analysis!(kind, |p| {
                crosscheck_analysis(icfg, p, table, configs, bug, cap)
            }),
        })
        .collect();
    verdicts.extend([
        AnalysisVerdict {
            analysis: ANALYSES[4],
            mismatches: crosscheck_analysis(icfg, &typestate, table, configs, bug, cap),
        },
        AnalysisVerdict {
            analysis: ANALYSES[5],
            mismatches: crosscheck_datalog(icfg, table, bug, cap),
        },
        AnalysisVerdict {
            analysis: ANALYSES[6],
            mismatches: crosscheck_abstraction(icfg, table, features, seed, bug, cap),
        },
    ]);
    verdicts
}

/// The interpreter-soundness direction: run every derived product
/// concretely and demand the lifted taint / uninit analyses (bug wrapper
/// applied) predict each observed event.
fn interp_soundness(
    program: &Program,
    table: &FeatureTable,
    configs: &[Configuration],
    bug: InjectedBug,
) -> Vec<UnpredictedEvent> {
    let icfg = ProgramIcfg::new(program);
    let ctx = BddConstraintContext::new(table);
    let taint_problem = TaintAnalysis::secret_to_print();
    let uninit_problem = UninitVars::new();
    let taint = LiftedSolution::solve(
        &BugWrapper::new(&taint_problem, bug),
        &icfg,
        &ctx,
        None,
        ModelMode::Ignore,
    );
    let uninit = LiftedSolution::solve(
        &BugWrapper::new(&uninit_problem, bug),
        &icfg,
        &ctx,
        None,
        ModelMode::Ignore,
    );
    let mut out = Vec::new();
    for config in configs {
        let product = program.derive_product(config);
        let trace = interp_run(&product, &InterpConfig::secret_to_print());
        for event in &trace.events {
            match event {
                Event::Leak(call) => {
                    let StmtKind::Invoke { args, .. } = &program.stmt(*call).kind else {
                        continue;
                    };
                    let covered = args.iter().any(|a| {
                        matches!(a, Operand::Local(l)
                            if taint.holds_in(&ctx, *call, &TaintFact::Local(*l), config))
                    });
                    if !covered {
                        out.push(UnpredictedEvent {
                            analysis: AnalysisKind::Taint.name(),
                            config: config.clone(),
                            event: format!("leak at {call}"),
                        });
                    }
                }
                Event::UninitRead(stmt, local) => {
                    if !uninit.holds_in(&ctx, *stmt, &UninitFact::Local(*local), config) {
                        out.push(UnpredictedEvent {
                            analysis: AnalysisKind::Uninit.name(),
                            config: config.clone(),
                            event: format!("uninit read of {local} at {stmt}"),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Runs every check the campaign knows — the seven crosschecks and the
/// interpreter-soundness sweep — on an arbitrary annotated program over
/// the configuration space `2^features`. This is the per-seed worker,
/// public so the CLI's `reduce` subcommand and the corpus replay test
/// apply the exact same battery to stand-alone repro files.
///
/// `seed` only feeds the abstraction differential's lattice-point RNG
/// stream (the program itself is passed in, already generated); callers
/// without a campaign seed — stand-alone repro files — pass `0` and
/// still get a deterministic, subject-dependent point.
pub fn check_program(
    program: &Program,
    table: &FeatureTable,
    features: &[FeatureId],
    seed: u64,
    bug: InjectedBug,
    max_mismatches: usize,
) -> (Vec<AnalysisVerdict>, Vec<UnpredictedEvent>) {
    let configs: Vec<Configuration> = all_configurations(features).collect();
    let icfg = ProgramIcfg::new(program);
    let analyses = crosscheck_all(&icfg, table, features, &configs, seed, bug, max_mismatches);
    let unpredicted = interp_soundness(program, table, &configs, bug);
    (analyses, unpredicted)
}

/// Runs all checks for one seed.
fn check_seed(seed: u64, opts: &FuzzOptions) -> SeedVerdict {
    let spl = subject_for_seed(seed, opts);
    let (analyses, unpredicted) = check_program(
        &spl.program,
        &spl.table,
        &spl.features,
        seed,
        opts.bug,
        opts.max_mismatches,
    );
    SeedVerdict {
        seed,
        analyses,
        unpredicted,
    }
}

/// Re-checks a candidate program during reduction: `true` iff the named
/// check still fails. `features` shrinks as the reducer eliminates
/// features, so the configuration space is re-enumerated per candidate.
/// Public: the CLI's `reduce` subcommand builds its ddmin oracle from
/// this.
pub fn failure_persists(
    program: &Program,
    table: &FeatureTable,
    features: &[FeatureId],
    seed: u64,
    bug: InjectedBug,
    analysis: &str,
    dynamic: bool,
) -> bool {
    if program.check().is_err() {
        return false;
    }
    let configs: Vec<Configuration> = all_configurations(features).collect();
    if dynamic {
        return interp_soundness(program, table, &configs, bug)
            .iter()
            .any(|u| u.analysis == analysis);
    }
    let icfg = ProgramIcfg::new(program);
    // One mismatch suffices for the verdict — the oracle must be cheap.
    let verdicts = crosscheck_all(&icfg, table, features, &configs, seed, bug, 1);
    verdicts
        .iter()
        .any(|v| v.analysis == analysis && !v.mismatches.is_empty())
}

/// Reduces the first failing check of `verdict` to a minimal repro.
fn reduce_failure(verdict: &SeedVerdict, opts: &FuzzOptions) -> Option<FailureReport> {
    let (analysis, dynamic, what) =
        if let Some(a) = verdict.analyses.iter().find(|a| !a.mismatches.is_empty()) {
            (a.analysis, false, format!("{} crosscheck", a.analysis))
        } else {
            let u = verdict.unpredicted.first()?;
            (u.analysis, true, format!("{} vs interpreter", u.analysis))
        };
    let spl = subject_for_seed(verdict.seed, opts);
    let payload_before = spllift_benchgen::payload_stmt_count(&spl.program);
    let mut oracle = |p: &Program, feats: &[FeatureId]| {
        failure_persists(
            p,
            &spl.table,
            feats,
            verdict.seed,
            opts.bug,
            analysis,
            dynamic,
        )
    };
    let reduced = reduce(
        &spl.program,
        &spl.table,
        &spl.features,
        &mut oracle,
        ReduceOptions::default(),
    );
    Some(FailureReport {
        seed: verdict.seed,
        analysis,
        dynamic,
        what,
        payload_before,
        reduced,
    })
}

/// Runs the campaign described by `opts`.
///
/// Seeds are sharded contiguously across `opts.jobs` threads and the
/// verdicts merged in seed order, so the whole report (minus wall-clock
/// stats) is deterministic in `opts` — and, without a budget, invariant
/// in `opts.jobs`.
pub fn fuzz_campaign(opts: &FuzzOptions) -> FuzzReport {
    let start = Instant::now();
    let deadline = opts.budget.map(|b| start + b);
    let seeds: Vec<u64> = (opts.seed_start..opts.seed_end).collect();

    let (per_shard, shards, jobs) = map_shards(&seeds, opts.jobs, |_shard, chunk| {
        let mut verdicts = Vec::with_capacity(chunk.len());
        let mut skipped = Vec::new();
        for &seed in chunk {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                skipped.push(seed);
                continue;
            }
            verdicts.push(check_seed(seed, opts));
        }
        (verdicts, skipped)
    });

    let mut verdicts = Vec::with_capacity(seeds.len());
    let mut skipped = Vec::new();
    for (shard_verdicts, shard_skipped) in per_shard {
        verdicts.extend(shard_verdicts);
        skipped.extend(shard_skipped);
    }

    let failures = if opts.reduce_failures {
        verdicts
            .iter()
            .filter(|v| !v.ok())
            .filter_map(|v| reduce_failure(v, opts))
            .collect()
    } else {
        Vec::new()
    };

    FuzzReport {
        options: opts.clone(),
        verdicts,
        skipped,
        failures,
        shards,
        jobs,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed_end: u64, bug: InjectedBug, reduce_failures: bool) -> FuzzOptions {
        FuzzOptions {
            seed_end,
            jobs: 2,
            bug,
            reduce_failures,
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn clean_campaign_passes_and_is_jobs_invariant() {
        let reference = fuzz_campaign(&FuzzOptions {
            jobs: 1,
            ..quick(6, InjectedBug::None, true)
        });
        assert!(reference.ok(), "{}", reference.render());
        assert!(reference.failures.is_empty());
        for jobs in [2, 5] {
            let report = fuzz_campaign(&FuzzOptions {
                jobs,
                ..quick(6, InjectedBug::None, true)
            });
            assert_eq!(report.render(), reference.render(), "jobs = {jobs}");
        }
    }

    #[test]
    fn injected_bug_is_found_and_reduced_small() {
        // The reducer-demo acceptance check: a deliberate call-to-return
        // bug must be detected by the campaign and ddmin must shrink the
        // first failure to a handful of statements.
        let report = fuzz_campaign(&quick(8, InjectedBug::KillAtCallToReturn, true));
        assert!(!report.ok(), "bugged campaign must fail");
        let failure = report
            .failures
            .first()
            .expect("at least one failure reduced");
        assert!(
            failure.reduced.payload_stmts <= 10,
            "reduced to {} payload stmts, repro:\n{}",
            failure.reduced.payload_stmts,
            failure.reduced.repro
        );
        assert!(failure.reduced.payload_stmts < failure.payload_before);
        // The repro must round-trip through the text format and still
        // fail the same check when re-run from the parsed program.
        let (parsed, table) =
            spllift_ir::text::parse_repro(&failure.reduced.repro).expect("repro parses");
        assert_eq!(parsed, failure.reduced.program);
        assert!(failure_persists(
            &parsed,
            &table,
            &failure.reduced.features,
            failure.seed,
            InjectedBug::KillAtCallToReturn,
            failure.analysis,
            failure.dynamic,
        ));
    }

    #[test]
    fn budget_zero_skips_everything() {
        let report = fuzz_campaign(&FuzzOptions {
            budget: Some(Duration::ZERO),
            ..quick(4, InjectedBug::None, false)
        });
        assert!(report.verdicts.is_empty());
        assert_eq!(report.skipped.len(), 4);
    }
}
