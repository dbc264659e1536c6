//! `spllift-cli` — analyze a mini-Java product line from the command line.
//!
//! ```text
//! spllift-cli <INPUT> [--analysis taint|types|reaching-defs|uninit]
//!                     [--model <MODEL-FILE>]
//!                     [--format table|dot|leaks|crosscheck|a2-bench]
//!                     [--jobs N] [--max-mismatches N]
//!
//! spllift-cli fuzz   [--seeds A..B] [--jobs N] [--nfeatures N]
//!                    [--nmethods N] [--mutations N] [--budget-secs S]
//!                    [--corpus-dir DIR] [--inject-bug kill-call-to-return]
//!                    [--no-reduce]
//!
//! spllift-cli reduce gen:<seed>:<nfeatures>:<nmethods> [--mutations N]
//! spllift-cli reduce <FILE.repro> [--check CHECK] [--mutations N]
//!                    [--inject-bug kill-call-to-return]
//!
//! spllift-cli datalog <INPUT> [--model FILE] [--dump-relations]
//!                     [--crosscheck]
//!
//! <INPUT> is a product-line source file (mini-Java with `#ifdef`
//! annotations), or one of the built-in generated benchmark subjects:
//!
//!   gen:MM08 | gen:GPL | gen:Lampiro | gen:BerkeleyDB
//!   gen:synthetic:<features>:<loc>:<seed>
//!
//! The `--analysis` names are those of `spllift::analyses::AnalysisKind`,
//! the one analysis registry the server and the fuzz campaign share.
//! Every flag is validated before the input is read.
//!
//! `--format leaks` (taint only) prints one line per possible
//! source-to-sink flow with the feature constraint it happens under.
//!
//! `--format crosscheck` runs the §6.1 bidirectional SPLLIFT ↔ A2
//! cross-check over every valid configuration, sharded across `--jobs`
//! worker threads; mismatch collection stops at `--max-mismatches`
//! (default 100).
//!
//! `--format a2-bench` times the brute-force A2 campaign (one full IFDS
//! solve per valid configuration) sequentially and sharded across
//! `--jobs` threads, and reports the wall-clock speedup.
//!
//! For both parallel formats, stdout carries only the deterministic
//! results — byte-identical for every `--jobs` value — while per-shard
//! wall-clock stats and speedups go to stderr.
//!
//! The `fuzz` subcommand runs the differential fuzzing campaign: seeded
//! random mutated product lines, all five analyses cross-checked against
//! A2 in both directions, the Datalog-backend and variability-abstraction
//! differentials, plus the interpreter-soundness sweep, failures
//! auto-reduced by ddmin. Stdout is the deterministic campaign report
//! (byte-identical for every `--jobs` value when no `--budget-secs` is
//! set); timings go to stderr; the exit code is non-zero iff a seed
//! failed. `--corpus-dir` writes each reduced failure as a `.repro` file.
//!
//! The `reduce` subcommand either prints the repro text of a generated
//! subject (`reduce gen:<seed>:<nfeatures>:<nmethods>`, for seeding
//! `tests/corpus/`), or minimizes a failing `.repro` file against a
//! named check: one of the campaign's seven (`taint`, `types`,
//! `reaching-defs`, `uninit`, `typestate`, `datalog-reaching`,
//! `abstraction`) or an interpreter sweep (`interp-taint`,
//! `interp-uninit`). Without `--check` it takes the first failing one.
//!
//! The `datalog` subcommand runs the lifted Datalog backend's reaching
//! definitions (plus statement/method reachability) on the subject.
//! `--dump-relations` prints every relation tuple with its feature
//! constraint in a line-oriented dump format; `--crosscheck` also
//! solves with the IDE lifting and compares every fact's constraint
//! digest in both directions, exiting non-zero on any disagreement.
//! ```
//!
//! Reads the product line, optionally a feature model in the
//! `spllift::features` text format, runs the chosen analysis lifted with
//! SPLLIFT, and prints either the per-statement constraint table or the
//! constraint-labeled exploded supergraph in Graphviz DOT.
//!
//! Example:
//!
//! ```text
//! cargo run --bin spllift-cli -- examples_data/fig1.minijava --analysis taint
//! cargo run --release --bin spllift-cli -- gen:synthetic:6:400:42 --format a2-bench
//! ```

use spllift::analyses::{with_analysis, AnalysisKind, ReachingDefs, TaintAnalysis};
use spllift::benchgen::{parse_subject_spec, GeneratedSpl};
use spllift::features::{
    all_configurations, parse_feature_model, BddConstraintContext, Configuration, FeatureExpr,
    FeatureId, FeatureTable,
};
use spllift::frontend::parse_spl;
use spllift::ifds::IfdsProblem;
use spllift::ir::{Program, ProgramIcfg};
use spllift::lift::{report, LiftedIcfg, LiftedProblem, LiftedSolution, ModelMode};
use spllift::server::{Server, ServerOptions};
use spllift::spl::{
    a2_campaign_parallel, crosscheck_parallel, default_jobs, fuzz_campaign, FaultPlan, FuzzOptions,
    InjectedBug, ParallelOptions, ShardStats, ANALYSES, DEFAULT_MAX_MISMATCHES,
};
use std::hash::Hash;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::str::FromStr;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A closed stdout (`spllift-cli ... | head`) ends
/// the output: the process exits 0 without a message.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Printed by `spllift-cli help` (and `--help`/`-h`), and to stderr on
/// an unknown subcommand.
const HELP: &str = "\
spllift-cli — SPLLIFT product-line analysis

USAGE
  spllift-cli <INPUT> [options]         analyze a product line once
  spllift-cli serve [options]           resident analysis server (JSON on stdin/stdout)
  spllift-cli fuzz [options]            differential fuzzing campaign
  spllift-cli reduce <INPUT> [options]  print or minimize a .repro subject
  spllift-cli datalog <INPUT> [options] lifted Datalog backend (second opinion)
  spllift-cli help                      this text (also --help, -h)

INPUT
  A product-line source file (mini-Java with #ifdef annotations), a
  `# spllift repro v1` file, or a generated benchmark subject:
    gen:MM08 | gen:GPL | gen:Lampiro | gen:BerkeleyDB
    gen:synthetic:<features>:<loc>:<seed>

ANALYZE OPTIONS
  --analysis taint|types|reaching-defs|uninit    client analysis (default taint)
  --model FILE            feature model in the spllift text format
  --format table|dot|leaks|crosscheck|a2-bench   output (default table)
  --jobs N                worker threads for crosscheck / a2-bench
  --max-mismatches N      stop collecting crosscheck mismatches after N

SERVE OPTIONS
  --listen ADDR           serve the protocol on a TCP socket (e.g.
                          127.0.0.1:7077; port 0 picks one) instead of
                          stdin/stdout; many concurrent connections
  --shards N              executor shards (concurrent session groups)
  --max-inflight N        per-shard in-flight request bound (default 256)
  --cache-entries N       solution-cache entry budget (default 64)
  --cache-bytes N         solution-cache byte budget (default 16777216)
  --solve-timeout-ms N    per-rung wall-clock allowance per solve
  --bdd-node-budget N     per-rung BDD node budget per solve
  --bdd-op-budget N       per-rung BDD operation budget per solve
  --max-propagations N    per-rung phase-1 propagation cap per solve
  --keep-features A,B     features every degraded solve must keep precise:
                          on budget exhaustion the governor abstracts only
                          the *other* features (confound OR groups, project
                          the rest away) before falling to no-model /
                          constraint-true; requests override with
                          \"keep_features\"
  --inject-fault K[@N]    chaos harness: sabotage the N-th analyze (default 1)
                          with K = panic-in-flow | bdd-blowup | slow-edge;
                          budget-exhaust@N instead arms a BDD op budget of
                          exactly N on the first qualifying analyze
  --inject-fault-session NAME  scope the fault trigger to NAME's own
                          analyze ordinal (deterministic under concurrency)
  Line-delimited JSON requests on stdin, one response per line on stdout
  (or per connection under --listen): load, analyze, query, edit, stats,
  evict, shutdown. When a solve exhausts its budget the server descends a
  variability-abstraction lattice (project / join / confound features,
  then no-model, then constraint-true) and flags the weaker answers with
  the exact lattice point. The wire contract lives in docs/PROTOCOL.md.

FUZZ OPTIONS
  --seeds A..B  --jobs N  --nfeatures N  --nmethods N
  --mutations N  --budget-secs S  --corpus-dir DIR
  --inject-bug kill-call-to-return
  --no-reduce

REDUCE
  reduce gen:<seed>:<nfeatures>:<nmethods>        print the repro text
  reduce FILE.repro [--check CHECK] [--mutations N] [--inject-bug ...]
  CHECK: taint | types | reaching-defs | uninit | typestate |
         datalog-reaching | abstraction | interp-taint | interp-uninit

DATALOG OPTIONS
  --model FILE            feature model (file inputs only)
  --dump-relations        print every relation tuple with its feature
                          constraint (`# spllift datalog dump v1`)
  --crosscheck            also solve with the IDE lifting and compare
                          every fact's constraint digest, both directions
";

/// `true` for a first argument that reads as a subcommand word rather
/// than an input path (`fig1.minijava`, `dir/file`, `gen:MM08`).
fn looks_like_subcommand(arg: &str) -> bool {
    !arg.starts_with('-') && !arg.contains('.') && !arg.contains('/') && !arg.starts_with("gen:")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => {
            out!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("reduce") => run_reduce(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("datalog") => run_datalog(&args[1..]),
        Some(cmd) if looks_like_subcommand(cmd) => {
            eprintln!("spllift-cli: unknown subcommand `{cmd}`\n");
            eprint!("{HELP}");
            return ExitCode::from(2);
        }
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("spllift-cli: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--help`/`-h` after a subcommand: print [`HELP`] and succeed.
fn print_help() -> Result<(), String> {
    out!("{HELP}");
    Ok(())
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let mut opts = ServerOptions::default();
    let mut listen: Option<String> = None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(args.next().ok_or("--listen needs an address")?),
            "--shards" => opts.shards = positive("--shards", args.next())?,
            "--max-inflight" => opts.max_inflight = positive("--max-inflight", args.next())?,
            "--cache-entries" => opts.cache_entries = positive("--cache-entries", args.next())?,
            "--cache-bytes" => opts.cache_bytes = positive("--cache-bytes", args.next())?,
            "--solve-timeout-ms" => {
                opts.solve_timeout_ms = Some(positive("--solve-timeout-ms", args.next())?)
            }
            "--bdd-node-budget" => {
                opts.bdd_node_budget = Some(positive("--bdd-node-budget", args.next())?)
            }
            "--bdd-op-budget" => {
                opts.bdd_op_budget = Some(positive("--bdd-op-budget", args.next())?)
            }
            "--max-propagations" => {
                opts.max_propagations = Some(positive("--max-propagations", args.next())?)
            }
            "--inject-fault" => {
                let v = args.next().ok_or("--inject-fault needs a value")?;
                opts.inject_fault =
                    Some(FaultPlan::parse(&v).map_err(|e| format!("--inject-fault: {e}"))?);
            }
            "--inject-fault-session" => {
                opts.fault_session =
                    Some(args.next().ok_or("--inject-fault-session needs a name")?);
            }
            "--keep-features" => {
                let v = args
                    .next()
                    .ok_or("--keep-features needs a comma-separated feature list")?;
                let names: Vec<String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|n| !n.is_empty())
                    .map(str::to_owned)
                    .collect();
                if names.is_empty() {
                    return Err("--keep-features needs at least one feature name".into());
                }
                opts.keep_features = Some(names);
            }
            "--help" | "-h" => return print_help(),
            other => {
                return Err(format!(
                    "unexpected serve argument `{other}` (try `spllift-cli help`)"
                ))
            }
        }
    }
    if let Some(addr) = listen {
        let server = spllift::server::SocketServer::spawn(opts, &addr)
            .map_err(|e| format!("serve --listen {addr}: {e}"))?;
        eprintln!("serve: listening on {}", server.addr());
        server.join();
        return Ok(());
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    // A closed stdout ends the session, as it ends the analysis output.
    match Server::new(opts).run(stdin.lock(), stdout.lock()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        result => result.map_err(|e| format!("serve: {e}")),
    }
}

/// The value of an integer flag (`Ok` for `0` too).
fn int_flag<T: FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or(format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} needs an integer, got `{v}`"))
}

/// The value of a positive-integer flag: counts, budgets and thread
/// numbers, for every subcommand.
fn positive<T: FromStr + Default + PartialOrd>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or(format!("{flag} needs a value"))?;
    v.parse::<T>()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or(format!("{flag} needs a positive integer, got `{v}`"))
}

/// The analyze-mode `--format` values.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Dot,
    Leaks,
    Crosscheck,
    A2Bench,
}

impl Format {
    fn parse(v: &str) -> Result<Format, String> {
        Ok(match v {
            "table" => Format::Table,
            "dot" => Format::Dot,
            "leaks" => Format::Leaks,
            "crosscheck" => Format::Crosscheck,
            "a2-bench" => Format::A2Bench,
            other => {
                return Err(format!(
                    "unknown format `{other}` (table|dot|leaks|crosscheck|a2-bench)"
                ))
            }
        })
    }
}

struct Options {
    file: String,
    analysis: AnalysisKind,
    model_file: Option<String>,
    format: Format,
    jobs: usize,
    max_mismatches: usize,
}

/// Parses and validates the analyze-mode arguments before any input is
/// read; `Ok(None)` means `--help` was requested (the caller prints
/// [`HELP`] and exits successfully).
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut args = args.iter().cloned();
    let mut file = None;
    let mut analysis = AnalysisKind::Taint;
    let mut model_file = None;
    let mut format = Format::Table;
    let mut jobs = default_jobs();
    let mut max_mismatches = DEFAULT_MAX_MISMATCHES;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--analysis" => {
                analysis = AnalysisKind::parse(&args.next().ok_or("--analysis needs a value")?)?;
            }
            "--model" => {
                model_file = Some(args.next().ok_or("--model needs a file")?);
            }
            "--format" => {
                format = Format::parse(&args.next().ok_or("--format needs a value")?)?;
            }
            "--jobs" => jobs = positive("--jobs", args.next())?,
            "--max-mismatches" => max_mismatches = positive("--max-mismatches", args.next())?,
            "--help" | "-h" => return Ok(None),
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if format == Format::Leaks && analysis != AnalysisKind::Taint {
        return Err("--format leaks requires --analysis taint".into());
    }
    Ok(Some(Options {
        file: file.ok_or("missing input file (try `spllift-cli help`)")?,
        analysis,
        model_file,
        format,
        jobs,
        max_mismatches,
    }))
}

/// A fully loaded product line, whichever way it came in.
struct Loaded {
    program: Program,
    table: FeatureTable,
    model: Option<FeatureExpr>,
    /// Pre-enumerated valid configurations, for `gen:` inputs.
    configs: Option<Vec<Configuration>>,
}

fn load(file: &str, model_file: Option<&str>) -> Result<Loaded, String> {
    if let Some(spec) = file.strip_prefix("gen:") {
        if model_file.is_some() {
            return Err(
                "--model cannot be combined with gen: inputs (the generated feature model is used)"
                    .into(),
            );
        }
        let spl = GeneratedSpl::generate(parse_subject_spec(spec)?);
        let model = Some(spl.model_expr());
        let configs = (spl.reachable.len() <= 20).then(|| spl.valid_configurations());
        let GeneratedSpl { program, table, .. } = spl;
        return Ok(Loaded {
            program,
            table,
            model,
            configs,
        });
    }
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut table = FeatureTable::new();
    let program = parse_spl(&source, &mut table).map_err(|e| format!("{file}: {e}"))?;
    let model: Option<FeatureExpr> = match model_file {
        None => None,
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let m = parse_feature_model(&text, &mut table).map_err(|e| format!("{path}: {e}"))?;
            Some(m.to_expr())
        }
    };
    Ok(Loaded {
        program,
        table,
        model,
        configs: None,
    })
}

/// The valid configurations to brute-force over: pre-enumerated for
/// `gen:` inputs, every model-satisfying assignment for file inputs.
fn configurations(loaded: &Loaded) -> Result<Vec<Configuration>, String> {
    if let Some(configs) = &loaded.configs {
        return Ok(configs.clone());
    }
    let universe: Vec<FeatureId> = loaded.table.iter().map(|(id, _)| id).collect();
    let n = universe.len();
    if n > 16 {
        return Err(format!(
            "refusing to enumerate 2^{n} configurations; use a gen: subject instead"
        ));
    }
    Ok(all_configurations(&universe)
        .filter(|cfg| loaded.model.as_ref().is_none_or(|m| cfg.satisfies(m)))
        .collect())
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(opts) = parse_args(args)? else {
        out!("{HELP}");
        return Ok(());
    };
    let loaded = load(&opts.file, opts.model_file.as_deref())?;
    if loaded.program.entry_points().is_empty() {
        return Err("no entry point: declare a method named `main`".into());
    }
    let icfg = ProgramIcfg::new(&loaded.program);
    let model = &loaded.model;
    match opts.format {
        Format::Crosscheck => run_crosscheck(&opts, &icfg, &loaded),
        Format::A2Bench => run_a2_bench(&opts, &icfg, &loaded),
        Format::Leaks => emit_leaks(&icfg, &BddConstraintContext::new(&loaded.table), model),
        Format::Table | Format::Dot => {
            let ctx = BddConstraintContext::new(&loaded.table);
            with_analysis!(opts.analysis, |p| emit(opts.format, &icfg, &ctx, p, model))
        }
    }
}

fn print_shards(label: &str, shards: &[ShardStats]) {
    for s in shards {
        eprintln!(
            "  {label} shard {:>2}: {:>6} items in {:>10.3?}",
            s.shard, s.items, s.wall
        );
    }
}

/// `--format crosscheck`: the §6.1 bidirectional SPLLIFT ↔ A2 check over
/// every valid configuration, sharded across `--jobs` worker threads.
/// Results go to stdout (deterministic across `--jobs`), per-shard
/// timings to stderr.
fn run_crosscheck(opts: &Options, icfg: &ProgramIcfg<'_>, loaded: &Loaded) -> Result<(), String> {
    let configs = configurations(loaded)?;
    let popts = ParallelOptions {
        jobs: opts.jobs,
        max_mismatches: opts.max_mismatches,
    };
    let model = loaded.model.as_ref();
    let make_ctx = || BddConstraintContext::new(&loaded.table);
    let outcome = with_analysis!(opts.analysis, |p| {
        crosscheck_parallel(icfg, p, make_ctx, model, &configs, &popts)
    });
    eprintln!(
        "crosscheck: {} configurations across {} worker thread(s), wall {:.3?}",
        configs.len(),
        outcome.jobs,
        outcome.wall
    );
    print_shards("crosscheck", &outcome.shards);
    outln!(
        "crosscheck: {} analysis over {} valid configurations",
        opts.analysis.name(),
        configs.len()
    );
    if outcome.mismatches.is_empty() {
        outln!("OK: SPLLIFT and A2 agree on every configuration");
        Ok(())
    } else {
        for m in &outcome.mismatches {
            outln!("MISMATCH: {m}");
        }
        let capped = if outcome.mismatches.len() == opts.max_mismatches {
            " (cap reached)"
        } else {
            ""
        };
        outln!("{} mismatch(es){capped}", outcome.mismatches.len());
        Err(format!(
            "crosscheck found {} mismatch(es)",
            outcome.mismatches.len()
        ))
    }
}

/// `--format a2-bench`: times the brute-force A2 campaign sequentially
/// and sharded across `--jobs` threads, reporting the wall-clock
/// speedup on stderr. Stdout carries only the configuration count and
/// the order-independent fact checksum, which are `--jobs`-invariant.
fn run_a2_bench(opts: &Options, icfg: &ProgramIcfg<'_>, loaded: &Loaded) -> Result<(), String> {
    let configs = configurations(loaded)?;
    let (seq, par) = with_analysis!(opts.analysis, |p| (
        a2_campaign_parallel(icfg, p, &configs, 1),
        a2_campaign_parallel(icfg, p, &configs, opts.jobs)
    ));
    if seq.facts != par.facts {
        return Err(format!(
            "a2-bench determinism violation: sequential checksum {} != parallel checksum {}",
            seq.facts, par.facts
        ));
    }
    eprintln!("a2-bench: jobs=1 wall {:.3?}", seq.wall);
    print_shards("jobs=1", &seq.shards);
    eprintln!("a2-bench: jobs={} wall {:.3?}", par.jobs, par.wall);
    print_shards(&format!("jobs={}", par.jobs), &par.shards);
    eprintln!(
        "a2-bench: speedup {:.2}x at {} threads",
        seq.wall.as_secs_f64() / par.wall.as_secs_f64().max(1e-9),
        par.jobs
    );
    outln!(
        "a2-bench: {} analysis, {} valid configurations, facts checksum {}",
        opts.analysis.name(),
        configs.len(),
        par.facts
    );
    Ok(())
}

/// `--format table|dot`: one lifted solve, printed as the per-statement
/// constraint table or the constraint-labeled exploded supergraph.
fn emit<P, D>(
    format: Format,
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    problem: &P,
    model: &Option<FeatureExpr>,
) -> Result<(), String>
where
    P: for<'p> IfdsProblem<ProgramIcfg<'p>, Fact = D>,
    D: Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    let solution = LiftedSolution::solve(problem, icfg, ctx, model.as_ref(), ModelMode::OnEdges);
    if format == Format::Dot {
        let lifted_icfg = LiftedIcfg::new(icfg);
        let lifted = LiftedProblem::new(problem, icfg, ctx, model.as_ref(), ModelMode::OnEdges);
        outln!(
            "{}",
            report::lifted_supergraph_dot(
                &lifted,
                &lifted_icfg,
                |s| solution.results_at(s).into_keys().collect(),
                |c| c.to_cube_string(),
            )
        );
    } else {
        out!(
            "{}",
            report::constraints_table(&solution, icfg, |c| c.to_cube_string())
        );
    }
    Ok(())
}

/// Prints each sink call whose argument may be tainted, with the exact
/// feature constraint — the headline output of the paper's Figure 1.
fn emit_leaks(
    icfg: &ProgramIcfg<'_>,
    ctx: &BddConstraintContext,
    model: &Option<FeatureExpr>,
) -> Result<(), String> {
    use spllift::analyses::TaintFact;
    use spllift::ifds::Icfg as _;
    use spllift::ir::{Operand, StmtKind};
    let analysis = TaintAnalysis::secret_to_print();
    let solution = LiftedSolution::solve(&analysis, icfg, ctx, model.as_ref(), ModelMode::OnEdges);
    let mut found = 0;
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            let StmtKind::Invoke { args, .. } = &icfg.program().stmt(s).kind else {
                continue;
            };
            for arg in args {
                let Operand::Local(l) = arg else { continue };
                let c = solution.constraint_of(s, &TaintFact::Local(*l));
                if !c.is_false() {
                    // Only report at *sink* calls; cheap name check.
                    let label = icfg.stmt_label(s);
                    if label.contains("print(") {
                        found += 1;
                        outln!("LEAK at [{label}] iff {}", c.to_cube_string());
                    }
                }
            }
        }
    }
    if found == 0 {
        outln!("no source-to-sink flows in any configuration");
    }
    Ok(())
}

/// Parses `A..B` into a half-open seed range.
fn parse_seed_range(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("--seeds takes A..B (half-open), got `{s}`"))?;
    let parse = |v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("--seeds bound must be an integer, got `{v}`"))
    };
    let (start, end) = (parse(a)?, parse(b)?);
    if start >= end {
        return Err(format!("--seeds range `{s}` is empty"));
    }
    Ok((start, end))
}

fn parse_injected_bug(v: &str) -> Result<InjectedBug, String> {
    match v {
        "kill-call-to-return" => Ok(InjectedBug::KillAtCallToReturn),
        other => Err(format!(
            "unknown --inject-bug `{other}` (kill-call-to-return)"
        )),
    }
}

/// `spllift-cli fuzz`: the differential fuzzing campaign. Stdout is the
/// deterministic report; per-shard timings go to stderr; exit code 2 if
/// any seed failed.
fn run_fuzz(args: &[String]) -> Result<(), String> {
    let mut opts = FuzzOptions::default();
    let mut corpus_dir: Option<String> = None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a range A..B")?;
                (opts.seed_start, opts.seed_end) = parse_seed_range(&v)?;
            }
            "--jobs" => opts.jobs = positive("--jobs", args.next())?,
            "--nfeatures" => opts.nfeatures = int_flag("--nfeatures", args.next())?,
            "--nmethods" => opts.nmethods = int_flag("--nmethods", args.next())?,
            "--mutations" => opts.mutations = int_flag("--mutations", args.next())?,
            "--max-mismatches" => opts.max_mismatches = positive("--max-mismatches", args.next())?,
            "--budget-secs" => {
                opts.budget = Some(std::time::Duration::from_secs(int_flag(
                    "--budget-secs",
                    args.next(),
                )?));
            }
            "--inject-bug" => {
                let v = args.next().ok_or("--inject-bug needs a value")?;
                opts.bug = parse_injected_bug(&v)?;
            }
            "--no-reduce" => opts.reduce_failures = false,
            "--corpus-dir" => {
                corpus_dir = Some(args.next().ok_or("--corpus-dir needs a directory")?);
            }
            "--help" | "-h" => return print_help(),
            other => {
                return Err(format!(
                    "unexpected fuzz argument `{other}` (try `spllift-cli help`)"
                ))
            }
        }
    }

    let report = fuzz_campaign(&opts);
    eprintln!(
        "fuzz: {} seeds across {} worker thread(s), wall {:.3?}",
        report.verdicts.len() + report.skipped.len(),
        report.jobs,
        report.wall
    );
    print_shards("fuzz", &report.shards);
    out!("{}", report.render());

    if let Some(dir) = corpus_dir {
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for f in &report.failures {
            let path = format!("{dir}/fuzz-seed{}-{}.repro", f.seed, f.analysis);
            std::fs::write(&path, &f.reduced.repro)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("fuzz: wrote reduced repro to {path}");
        }
    }

    if report.ok() {
        Ok(())
    } else {
        let failed = report.verdicts.iter().filter(|v| !v.ok()).count();
        Err(format!("fuzz campaign found {failed} failing seed(s)"))
    }
}

/// `spllift-cli datalog`: the lifted Datalog backend. Runs the
/// declarative reaching-definitions + reachability program, prints a
/// deterministic summary (and optionally the full relation dump), and
/// with `--crosscheck` compares every fact's constraint against the
/// IDE lifting in both directions.
fn run_datalog(args: &[String]) -> Result<(), String> {
    use spllift::datalog::{render_dump, solve_reaching_defs, EvalOptions, RelId};
    use spllift::ifds::Icfg as _;
    use spllift::spl::compare_datalog;

    let mut file: Option<String> = None;
    let mut model_file: Option<String> = None;
    let mut dump_relations = false;
    let mut crosscheck = false;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => model_file = Some(args.next().ok_or("--model needs a file")?),
            "--dump-relations" => dump_relations = true,
            "--crosscheck" => crosscheck = true,
            "--help" | "-h" => return print_help(),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            other => {
                return Err(format!(
                    "unexpected datalog argument `{other}` (try `spllift-cli help`)"
                ))
            }
        }
    }
    let file = file.ok_or("datalog needs an input (try `spllift-cli help`)")?;
    let loaded = load(&file, model_file.as_deref())?;
    if loaded.program.entry_points().is_empty() {
        return Err("no entry point: declare a method named `main`".into());
    }
    let icfg = ProgramIcfg::new(&loaded.program);
    let ctx = BddConstraintContext::new(&loaded.table);
    let model = loaded.model.as_ref();
    let sol = solve_reaching_defs(&icfg, &ctx, model, &EvalOptions::default())
        .map_err(|e| format!("datalog: {e}"))?;

    if dump_relations {
        out!("{}", render_dump(&sol, &ctx, &loaded.table));
    }
    let stats = sol.stats();
    outln!(
        "datalog: {} strata, {} rounds, {} derivations, {} tuples",
        stats.strata,
        stats.rounds,
        stats.derivations,
        stats.tuples
    );
    let program = sol.program();
    for r in 0..program.relation_count() {
        let rel = RelId(r);
        outln!(
            "  {}/{}: {} tuples",
            program.relation_name(rel),
            program.arity(rel),
            sol.database().len(rel)
        );
    }
    let reachable = sol.reachable_methods();
    outln!(
        "datalog: {} of {} methods reachable",
        reachable.len(),
        icfg.methods().len()
    );

    if !crosscheck {
        return Ok(());
    }
    let mode = if model.is_some() {
        ModelMode::OnEdges
    } else {
        ModelMode::Ignore
    };
    let ide = LiftedSolution::solve(&ReachingDefs::new(), &icfg, &ctx, model, mode);
    let (facts, mismatches) = compare_datalog(&icfg, &ide, &sol, usize::MAX);
    if mismatches.is_empty() {
        outln!("crosscheck: SPLLIFT and Datalog agree on all {facts} fact constraints");
        return Ok(());
    }
    for m in &mismatches {
        outln!("MISMATCH at [{}] {}", icfg.stmt_label(m.stmt), m.fact);
    }
    let n = mismatches.len();
    outln!("crosscheck: {n} mismatch(es) over {facts} fact constraints");
    Err(format!("datalog crosscheck found {n} mismatch(es)"))
}

/// A `reduce --check` name: a campaign check ([`ANALYSES`]), or
/// `interp-taint` / `interp-uninit` for the interpreter-soundness sweep.
/// Returns the campaign name and whether the check is the dynamic one.
fn parse_check(name: &str) -> Result<(&'static str, bool), String> {
    if let Some(check) = ANALYSES.into_iter().find(|a| *a == name) {
        return Ok((check, false));
    }
    match name {
        "interp-taint" => Ok((AnalysisKind::Taint.name(), true)),
        "interp-uninit" => Ok((AnalysisKind::Uninit.name(), true)),
        other => Err(format!(
            "unknown check `{other}` ({}|interp-taint|interp-uninit)",
            ANALYSES.join("|")
        )),
    }
}

/// `spllift-cli reduce`: print the repro text of a generated subject
/// (`gen:` input), or ddmin-minimize a failing `.repro` file.
fn run_reduce(args: &[String]) -> Result<(), String> {
    use spllift::benchgen::reduce;
    use spllift::ir::text::{parse_repro, to_repro_string};
    use spllift::spl::{check_program, failure_persists, subject_for_seed};

    let mut input: Option<String> = None;
    let mut check = None;
    let mut mutations = 0usize;
    let mut bug = InjectedBug::None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                check = Some(parse_check(&args.next().ok_or("--check needs a value")?)?);
            }
            "--mutations" => mutations = int_flag("--mutations", args.next())?,
            "--inject-bug" => {
                let v = args.next().ok_or("--inject-bug needs a value")?;
                bug = parse_injected_bug(&v)?;
            }
            "--help" | "-h" => return print_help(),
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_owned()),
            other => {
                return Err(format!(
                    "unexpected reduce argument `{other}` (try `spllift-cli help`)"
                ))
            }
        }
    }
    let input = input
        .ok_or("reduce needs an input: gen:SEED:NF:NM or FILE.repro (try `spllift-cli help`)")?;

    // gen: mode — emit the repro text of a (possibly mutated) generated
    // subject. This is the corpus-seeding tool.
    if let Some(spec) = input.strip_prefix("gen:") {
        let parts: Vec<&str> = spec.split(':').collect();
        let [seed, nf, nm] = parts.as_slice() else {
            return Err("reduce gen: takes gen:<seed>:<nfeatures>:<nmethods>".into());
        };
        let parse = |what: &str, v: &str| -> Result<usize, String> {
            v.parse()
                .map_err(|_| format!("gen: {what} must be an integer, got `{v}`"))
        };
        let fopts = FuzzOptions {
            seed_start: 0,
            seed_end: 1,
            nfeatures: parse("nfeatures", nf)?,
            nmethods: parse("nmethods", nm)?,
            mutations,
            ..FuzzOptions::default()
        };
        let spl = subject_for_seed(parse("seed", seed)? as u64, &fopts);
        let repro = to_repro_string(&spl.program, &spl.table)
            .map_err(|e| format!("generated subject outside the repro subset: {e}"))?;
        out!("{repro}");
        return Ok(());
    }

    // File mode — parse, find (or take) the failing check, minimize.
    let text = std::fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let (program, table) = parse_repro(&text).map_err(|e| format!("{input}: {e}"))?;
    let features: Vec<_> = table.iter().map(|(f, _)| f).collect();
    let (analysis, dynamic) = match check {
        Some(check) => check,
        None => {
            // No check named: pick the first failing one. Stand-alone
            // repro files carry no campaign seed, so the abstraction
            // differential's lattice-point stream is seeded with 0.
            let (verdicts, unpredicted) = check_program(&program, &table, &features, 0, bug, 1);
            if let Some(v) = verdicts.iter().find(|v| !v.mismatches.is_empty()) {
                (v.analysis, false)
            } else if let Some(u) = unpredicted.first() {
                (u.analysis, true)
            } else {
                return Err(format!(
                    "{input} passes every check; nothing to reduce (name one with --check, or use --inject-bug)"
                ));
            }
        }
    };
    if !failure_persists(&program, &table, &features, 0, bug, analysis, dynamic) {
        return Err(format!(
            "{input} does not fail the `{analysis}` check; nothing to reduce"
        ));
    }
    let mut oracle = |p: &spllift::ir::Program, feats: &[spllift::features::FeatureId]| {
        failure_persists(p, &table, feats, 0, bug, analysis, dynamic)
    };
    let out = reduce(&program, &table, &features, &mut oracle);
    eprintln!(
        "reduce: {} check, {} -> {} payload stmts in {} oracle runs",
        analysis,
        spllift::benchgen::payload_stmt_count(&program),
        out.payload_stmts,
        out.oracle_runs
    );
    out!("{}", out.repro);
    Ok(())
}
