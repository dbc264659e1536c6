//! The batch workloads: `lifted-paper` and `lifted-bdd` (lift → IDE
//! solve → digest per subject × analysis cell) and `datalog-rdefs`
//! (the lifted Datalog backend's reaching definitions).
//!
//! Every cell runs in a fresh `BddConstraintContext`, so no cell reuses
//! another's BDD nodes or op caches: each one pays the cold cost a
//! one-shot analysis pays.

use crate::measure::{ms, pearson, Counters, HostSpeed, Pass};
use crate::{Goldens, RunOpts};
use spllift_analyses::{PossibleTypes, ReachingDefs, TaintAnalysis, UninitVars};
use spllift_bdd::Bdd;
use spllift_benchgen::{parse_subject_spec, GeneratedSpl};
use spllift_core::{LiftedIcfg, LiftedProblem, ModelMode};
use spllift_datalog::{solve_reaching_defs, DatalogSolution, EvalOptions};
use spllift_features::{BddConstraintContext, Configuration, ConstraintContext, FeatureExpr};
use spllift_hash::FxHasher64;
use spllift_ide::{IdeSolver, IdeSolverOptions};
use spllift_ifds::{Icfg, IfdsProblem};
use spllift_ir::{ProgramIcfg, StmtRef};
use spllift_rng::SplitMix64;
use spllift_spl::a2::solve_a2;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// The four IFDS analyses of the paper's Tables 2–3.
pub const ANALYSES: [&str; 4] = ["taint", "types", "reaching-defs", "uninit"];

/// Seeded valid configurations the A2 oracle checks per cell.
const A2_CONFIGS: usize = 2;

/// A generated subject with its feature-model constraint.
pub struct Subject {
    pub name: &'static str,
    pub spl: GeneratedSpl,
    pub model: FeatureExpr,
}

/// The A2 oracle configurations of one subject, drawn from the seed.
type SubjectConfigs = Vec<Configuration>;

fn generate(names: &[&'static str], pass: &mut Pass, parent: u64) -> Vec<Subject> {
    names
        .iter()
        .map(|&name| {
            let t0 = Instant::now();
            let spl = GeneratedSpl::generate(parse_subject_spec(name).expect("known subject"));
            let model = spl.model_expr();
            let id = pass.trace.id();
            pass.trace.record(
                id,
                parent,
                parent,
                "benchgen.generate",
                t0,
                Instant::now(),
                &[],
            );
            Subject { name, spl, model }
        })
        .collect()
}

fn icfgs<'s>(subjects: &'s [Subject], pass: &mut Pass, parent: u64) -> Vec<ProgramIcfg<'s>> {
    subjects
        .iter()
        .map(|s| {
            let t0 = Instant::now();
            let icfg = ProgramIcfg::new(&s.spl.program);
            let id = pass.trace.id();
            pass.trace
                .record(id, parent, parent, "ir.icfg", t0, Instant::now(), &[]);
            icfg
        })
        .collect()
}

/// Records one set-up repetition, its time rescaled to the nominal host
/// speed by a reference sample taken right after it.
fn end_setup(pass: &mut Pass, host: &mut HostSpeed, span: u64, t0: Instant) {
    host.add(&mut pass.trace, span, [t0.elapsed().as_secs_f64(), 0.0]);
    let [setup, _] = host.finish();
    pass.setup_s.push(setup);
    pass.trace
        .record(span, 0, span, "setup", t0, Instant::now(), &[]);
}

/// Set-up, `opts.setup_reps` times: generate every subject and build its
/// ICFG. The last repetition's subjects (kept in `keep`) and ICFGs are
/// returned for the rounds.
fn setup<'s>(
    names: &[&'static str],
    opts: &RunOpts,
    pass: &mut Pass,
    host: &mut HostSpeed,
    keep: &'s mut Vec<Subject>,
) -> (&'s [Subject], Vec<ProgramIcfg<'s>>) {
    for _ in 1..opts.setup_reps {
        let span = pass.trace.id();
        let t0 = Instant::now();
        let subjects = generate(names, pass, span);
        drop(icfgs(&subjects, pass, span));
        end_setup(pass, host, span, t0);
    }
    let span = pass.trace.id();
    let t0 = Instant::now();
    *keep = generate(names, pass, span);
    let subjects: &'s [Subject] = keep;
    let out = icfgs(subjects, pass, span);
    end_setup(pass, host, span, t0);
    (subjects, out)
}

/// Draws `A2_CONFIGS` valid configurations: each feature's value is a
/// seeded coin flip, flipped back whenever it would falsify the model.
fn sample_configs(subject: &Subject, rng: &mut SplitMix64) -> SubjectConfigs {
    let table = &subject.spl.table;
    let ctx = BddConstraintContext::new(table);
    (0..A2_CONFIGS)
        .map(|_| {
            let mut rest = ctx.of_expr(&subject.model);
            let mut enabled = Vec::new();
            for (id, _) in table.iter() {
                let var = ctx.var_of(id).expect("every feature has a BDD variable");
                let mut value = rng.gen_bool(0.5);
                if rest.restrict(var, value).is_false() {
                    value = !value;
                }
                rest = rest.restrict(var, value);
                if value {
                    enabled.push(id);
                }
            }
            let config = Configuration::from_enabled(enabled);
            assert!(
                config.satisfies(&subject.model),
                "sampled an invalid configuration"
            );
            config
        })
        .collect()
}

/// Hashes one statement's row of a solution: its reachability constraint
/// and its `(fact, constraint)` pairs in fact order. Both backends feed
/// the same rows, so equal digests mean semantically equal solutions.
fn hash_stmt<'a, D: Hash + 'a>(
    h: &mut FxHasher64,
    s: StmtRef,
    reach: &Bdd,
    rows: impl Iterator<Item = (&'a D, &'a Bdd)>,
) {
    s.hash(h);
    reach.semantic_digest().hash(h);
    for (d, c) in rows {
        d.hash(h);
        c.semantic_digest().hash(h);
    }
}

type LiftedSolver<'g, 'p, D> = IdeSolver<LiftedIcfg<'g, ProgramIcfg<'p>>, D, Bdd>;

/// Digest of every `(stmt, fact)` constraint of a lifted IDE solution.
fn ide_digest<D: Clone + Eq + Ord + Hash + Debug>(
    icfg: &ProgramIcfg<'_>,
    solver: &LiftedSolver<'_, '_, D>,
) -> u64 {
    let mut h = FxHasher64::default();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let mut rows: Vec<(D, Bdd)> = solver.results_at(s).into_iter().collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            hash_stmt(
                &mut h,
                s,
                &solver.reachability_of(s),
                rows.iter().map(|(d, c)| (d, c)),
            );
        }
    }
    h.finish()
}

/// Digest of a Datalog reaching-definitions solution, row for row as
/// [`ide_digest`] hashes the IDE lifting's.
fn datalog_digest(icfg: &ProgramIcfg<'_>, ctx: &BddConstraintContext, dl: &DatalogSolution) -> u64 {
    let by_stmt = dl.reaching_by_stmt();
    let unreachable = ctx.ff();
    let mut h = FxHasher64::default();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let rows = by_stmt.get(&s).map_or(&[][..], Vec::as_slice);
            hash_stmt(
                &mut h,
                s,
                dl.reachability_of(s).unwrap_or(&unreachable),
                rows.iter().map(|(d, c)| (d, c)),
            );
        }
    }
    h.finish()
}

/// Both directions of the paper's RQ1 check on one configuration:
/// every fact A2 computes holds under the lifted constraint, and every
/// lifted constraint the configuration satisfies has its fact in A2.
fn a2_disagreements<P, D>(
    problem: &P,
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    solver: &LiftedSolver<'_, '_, D>,
    configs: &[Configuration],
) -> Vec<String>
where
    P: for<'x> IfdsProblem<ProgramIcfg<'x>, Fact = D>,
    D: Clone + Eq + Ord + Hash + Debug,
{
    let lifted_icfg = LiftedIcfg::new(icfg);
    let mut out = Vec::new();
    for config in configs {
        let a2 = solve_a2(problem, &lifted_icfg, config);
        for m in icfg.methods() {
            for s in icfg.stmts_of(m) {
                let a2_facts = a2.results_at(s);
                for f in &a2_facts {
                    if !ctx.satisfied_by(&solver.value_at(s, f), config) {
                        out.push(format!(
                            "A2 derives {f:?} at {s}; the lifted constraint rejects {config:?}"
                        ));
                    }
                }
                for (f, c) in solver.results_at(s) {
                    if ctx.satisfied_by(&c, config) && !a2_facts.contains(&f) {
                        out.push(format!("the lifted constraint admits {f:?} at {s} under {config:?}; A2 does not derive it"));
                    }
                }
            }
        }
    }
    out
}

/// What one cell measured.
struct Cell {
    digest: u64,
    lift_ms: f64,
    solve_ms: f64,
    digest_ms: f64,
    counters: [(&'static str, u64); 8],
    disagreements: Vec<String>,
}

/// One lifted cell: lift → IDE solve → digest, in a fresh BDD context.
fn lifted_cell<P, D>(
    problem: &P,
    subject: &Subject,
    icfg: &ProgramIcfg<'_>,
    a2: Option<&[Configuration]>,
    pass: &mut Pass,
    parent: u64,
) -> Cell
where
    P: for<'x> IfdsProblem<ProgramIcfg<'x>, Fact = D> + Sync,
    D: Clone + Eq + Ord + Hash + Debug + Send + Sync,
{
    let ctx = BddConstraintContext::new(&subject.spl.table);
    let mgr = ctx.manager();
    mgr.clear_budget();
    let t0 = Instant::now();
    let lifted_icfg = LiftedIcfg::new(icfg);
    let lifted = LiftedProblem::new(
        problem,
        icfg,
        &ctx,
        Some(&subject.model),
        ModelMode::OnEdges,
    );
    let t1 = Instant::now();
    let solver = IdeSolver::solve_with(&lifted, &lifted_icfg, IdeSolverOptions::default());
    let t2 = Instant::now();
    let (ops, nodes) = (mgr.ops_used(), mgr.nodes_since_arm());
    let digest = ide_digest(icfg, &solver);
    let t3 = Instant::now();
    let st = solver.stats();
    let counters = [
        ("ide.propagations", st.propagations),
        ("ide.flow_evals", st.flow_evals),
        ("ide.jump_fns", st.jump_fn_constructions),
        ("ide.value_updates", st.value_updates),
        ("ide.killed_early", st.killed_early),
        ("bdd.ops", ops),
        ("bdd.nodes", nodes),
        ("bdd.cache_entries", mgr.stats().cache_entries as u64),
    ];
    for (name, a, b, c) in [
        ("core.lift", t0, t1, &counters[..0]),
        ("ide.solve", t1, t2, &counters[..]),
        ("bdd.digest", t2, t3, &counters[..0]),
    ] {
        let id = pass.trace.id();
        pass.trace.record(id, parent, parent, name, a, b, c);
    }
    let disagreements = a2.map_or_else(Vec::new, |configs| {
        a2_disagreements(problem, icfg, &ctx, &solver, configs)
    });
    Cell {
        digest,
        lift_ms: ms(t1 - t0),
        solve_ms: ms(t2 - t1),
        digest_ms: ms(t3 - t2),
        counters,
        disagreements,
    }
}

fn run_lifted_cell(
    analysis: &str,
    subject: &Subject,
    icfg: &ProgramIcfg<'_>,
    a2: Option<&[Configuration]>,
    pass: &mut Pass,
    parent: u64,
) -> Cell {
    match analysis {
        "taint" => lifted_cell(
            &TaintAnalysis::secret_to_print(),
            subject,
            icfg,
            a2,
            pass,
            parent,
        ),
        "types" => lifted_cell(&PossibleTypes::new(), subject, icfg, a2, pass, parent),
        "reaching-defs" => lifted_cell(&ReachingDefs::new(), subject, icfg, a2, pass, parent),
        "uninit" => lifted_cell(&UninitVars::new(), subject, icfg, a2, pass, parent),
        other => unreachable!("unknown analysis {other}"),
    }
}

fn check_golden(pass: &mut Pass, goldens: &Goldens, subject: &str, analysis: &str, digest: u64) {
    let want = goldens
        .get(&(subject.to_owned(), analysis.to_owned()))
        .copied();
    pass.check(want == Some(digest), || {
        format!(
            "{subject} {analysis}: digest {digest:016x}, golden {}",
            want.map_or("missing".to_owned(), |w| format!("{w:016x}"))
        )
    });
}

fn counter(counters: &[(&'static str, u64)], key: &str) -> u64 {
    counters.iter().find(|c| c.0 == key).map_or(0, |c| c.1)
}

fn add(total: &mut Counters, counters: &[(&'static str, u64)]) {
    for &(k, v) in counters {
        *total.entry(k).or_default() += v;
    }
}

/// `lifted-paper` / `lifted-bdd`: every round runs every cell of
/// `subjects` × `analyses`.
pub fn run_lifted(
    subjects: &[&'static str],
    analyses: &[&'static str],
    opts: &RunOpts,
    goldens: &Goldens,
) -> Pass {
    let mut pass = Pass::new(opts.traced);
    let mut host = HostSpeed::new();
    let mut keep = Vec::new();
    let (generated, icfgs) = setup(subjects, opts, &mut pass, &mut host, &mut keep);
    let mut rng = SplitMix64::seed_from_u64(opts.seed);
    let configs: Vec<SubjectConfigs> = generated
        .iter()
        .map(|s| sample_configs(s, &mut rng))
        .collect();
    let mut corr: Vec<(f64, f64)> = Vec::new();
    let peak = crate::measure::run_rounds(opts, |round, traced| {
        pass.trace.set_on(traced);
        let span = pass.trace.id();
        let t0 = Instant::now();
        let mut totals = Counters::new();
        for ((subject, icfg), cfgs) in generated.iter().zip(&icfgs).zip(&configs) {
            for &analysis in analyses {
                let cell_span = pass.trace.id();
                // The A2 oracle runs once per run, on the first round's
                // solutions, after the cell's timed phases.
                let a2 = (round == 0).then_some(cfgs.as_slice());
                let c0 = Instant::now();
                let cell = run_lifted_cell(analysis, subject, icfg, a2, &mut pass, cell_span);
                let c1 = Instant::now();
                pass.trace
                    .record(cell_span, span, cell_span, "cell", c0, c1, &[]);
                let phases = [(cell.lift_ms + cell.solve_ms) / 1e3, cell.digest_ms / 1e3];
                host.add(&mut pass.trace, span, phases);
                pass.op_ms
                    .push(cell.lift_ms + cell.solve_ms + cell.digest_ms);
                corr.push((
                    cell.solve_ms,
                    counter(&cell.counters, "ide.jump_fns") as f64,
                ));
                add(&mut totals, &cell.counters);
                check_golden(&mut pass, goldens, subject.name, analysis, cell.digest);
                let ops = counter(&cell.counters, "bdd.ops");
                pass.check(ops > 0, || {
                    format!("{} {analysis}: round {round} ran 0 BDD ops", subject.name)
                });
                if a2.is_some() {
                    let n = cell.disagreements.len();
                    pass.check(n == 0, || {
                        format!(
                            "{} {analysis}: {n} A2 disagreements, first: {}",
                            subject.name, cell.disagreements[0]
                        )
                    });
                }
            }
        }
        let phases = host.finish();
        end_round(&mut pass, span, t0, phases, totals)
    });
    pass.peak_rss_mb = peak - host.resident_mb;
    println!("{}", host.report());
    pass.layer.insert("ide.jump_fn_time_corr", pearson(&corr));
    pass.check_counters_repeat();
    pass
}

/// Records a batch round: its span, its rescaled (write, read) phase
/// seconds and their sum, and its counters. Returns the round's wall
/// time, reference samples and oracle included, for the time budget.
fn end_round(
    pass: &mut Pass,
    span: u64,
    t0: Instant,
    phases: [f64; 2],
    totals: Counters,
) -> Duration {
    let took = t0.elapsed();
    pass.trace
        .record(span, 0, span, "round", t0, Instant::now(), &[]);
    pass.round_s.push(phases[0] + phases[1]);
    pass.write_ms.push(phases[0] * 1e3);
    pass.read_ms.push(phases[1] * 1e3);
    pass.counters.push(totals);
    took
}

/// `datalog-rdefs`: every round solves reaching definitions of every
/// subject with the lifted Datalog engine and digests the result.
pub fn run_datalog(subjects: &[&'static str], opts: &RunOpts, goldens: &Goldens) -> Pass {
    let mut pass = Pass::new(opts.traced);
    let mut host = HostSpeed::new();
    let mut keep = Vec::new();
    let (generated, icfgs) = setup(subjects, opts, &mut pass, &mut host, &mut keep);
    let mut last_digests = vec![0u64; generated.len()];
    let peak = crate::measure::run_rounds(opts, |round, traced| {
        pass.trace.set_on(traced);
        let span = pass.trace.id();
        let t0 = Instant::now();
        let mut totals = Counters::new();
        for (i, (subject, icfg)) in generated.iter().zip(&icfgs).enumerate() {
            let cell_span = pass.trace.id();
            let ctx = BddConstraintContext::new(&subject.spl.table);
            let mgr = ctx.manager();
            mgr.clear_budget();
            let c0 = Instant::now();
            let solved =
                solve_reaching_defs(icfg, &ctx, Some(&subject.model), &EvalOptions::default());
            let c1 = Instant::now();
            let dl = match solved {
                Ok(dl) => dl,
                Err(e) => {
                    pass.check(false, || {
                        format!("{}: datalog evaluation failed: {e}", subject.name)
                    });
                    continue;
                }
            };
            let (ops, nodes) = (mgr.ops_used(), mgr.nodes_since_arm());
            let digest = datalog_digest(icfg, &ctx, &dl);
            let c2 = Instant::now();
            let st = dl.stats();
            let counters = [
                ("datalog.rounds", st.rounds as u64),
                ("datalog.derivations", st.derivations),
                ("datalog.tuples", st.tuples as u64),
                ("bdd.ops", ops),
                ("bdd.nodes", nodes),
                ("bdd.cache_entries", mgr.stats().cache_entries as u64),
            ];
            for (name, a, b, c) in [
                ("datalog.solve", c0, c1, &counters[..]),
                ("bdd.digest", c1, c2, &counters[..0]),
            ] {
                let id = pass.trace.id();
                pass.trace.record(id, cell_span, cell_span, name, a, b, c);
            }
            pass.trace
                .record(cell_span, span, cell_span, "cell", c0, c2, &[]);
            let phases = [(c1 - c0).as_secs_f64(), (c2 - c1).as_secs_f64()];
            host.add(&mut pass.trace, span, phases);
            pass.op_ms.push(ms(c2 - c0));
            add(&mut totals, &counters);
            check_golden(&mut pass, goldens, subject.name, "reaching-defs", digest);
            pass.check(ops > 0, || {
                format!("{}: round {round} ran 0 BDD ops", subject.name)
            });
            last_digests[i] = digest;
        }
        let phases = host.finish();
        end_round(&mut pass, span, t0, phases, totals)
    });
    pass.peak_rss_mb = peak - host.resident_mb;
    println!("{}", host.report());
    pass.check_counters_repeat();
    // The second opinion, untimed: an IDE reaching-definitions solve of
    // each subject must digest equal to the Datalog result.
    let mut scratch = Pass::new(false);
    for ((subject, icfg), &dl) in generated.iter().zip(&icfgs).zip(&last_digests) {
        let cell = run_lifted_cell("reaching-defs", subject, icfg, None, &mut scratch, 0);
        pass.check(cell.digest == dl, || {
            format!(
                "{}: Datalog digest {dl:016x} differs from the IDE lifting's {:016x}",
                subject.name, cell.digest
            )
        });
    }
    pass
}
