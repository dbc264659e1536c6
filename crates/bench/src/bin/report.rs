//! Regenerates the paper's evaluation artifacts from the command line.
//!
//! ```text
//! cargo run -p spllift-bench --release --bin report -- all [--cutoff SECS] [--sample N] [--jobs N]
//! cargo run -p spllift-bench --release --bin report -- table1
//! cargo run -p spllift-bench --release --bin report -- table2 [--cutoff SECS] [--jobs N]
//! cargo run -p spllift-bench --release --bin report -- table3 [--cutoff SECS] [--jobs N]
//! cargo run -p spllift-bench --release --bin report -- correlation [--jobs N]
//! cargo run -p spllift-bench --release --bin report -- scaling [--jobs N]
//! cargo run -p spllift-bench --release --bin report -- density
//! cargo run -p spllift-bench --release --bin report -- ordering
//! cargo run -p spllift-bench --release --bin report -- ablations
//! cargo run -p spllift-bench --release --bin report -- rq1 [--sample N] [--jobs N]
//! ```
//!
//! `--jobs N` sets the worker-thread count for the configuration-sharded
//! arms (the A2 brute-force campaigns and the RQ1 cross-check); it
//! defaults to the machine's available parallelism. `--cutoff SECS`
//! (default 30) bounds each A2 campaign before it is extrapolated, and
//! `--sample N` (default 40) caps the configurations RQ1 checks per
//! subject: a stride through the valid ones, or for BerkeleyDB, whose
//! 2^39 cannot be enumerated, a seeded random draw. `rq1` exits 1 on
//! any mismatch. A bad command or flag is one `report: ...` line on
//! stderr and exit code 2, before any subject is generated.
//!
//! Every SPLLIFT time is one cold lift and solve on a fresh constraint
//! context ([`spllift_bench::time_spllift`]).

use spllift_analyses::{with_analysis, AnalysisKind, ReachingDefs, TaintAnalysis};
use spllift_bench::{fmt_duration, measure_cell, pearson, time_a2_all, time_spllift, Cell};
use spllift_benchgen::{subject_by_name, subjects, GeneratedSpl};
use spllift_core::ModelMode;
use spllift_features::{
    BddConstraintContext, Configuration, ConstraintContext, DnfConstraintContext, FeatureTable,
};
use spllift_ifds::IfdsProblem;
use spllift_ir::ProgramIcfg;
use spllift_rng::SplitMix64;
use spllift_spl::{crosscheck_parallel, default_jobs, ParallelOptions};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::time::Duration;

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A closed stdout (`report ... | head`) ends the
/// output: the process exits 0 without a message.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// What a command runs, given the parsed flags.
type Command = fn(&Options);

/// Every command and what it runs; `all` (the default) runs them all.
const COMMANDS: [(&str, Command); 10] = [
    ("all", all),
    ("table1", |_| table1()),
    ("table2", |o| print_table2(&measure_all(o.cutoff, o.jobs))),
    ("table3", |o| print_table3(&measure_all(o.cutoff, o.jobs))),
    ("correlation", |o| {
        print_correlation(&measure_all(Duration::from_secs(5), o.jobs))
    }),
    ("scaling", |o| scaling(o.jobs)),
    ("density", |_| density()),
    ("ordering", |_| ordering()),
    ("ablations", |_| ablations()),
    ("rq1", |o| rq1(o.sample, o.jobs)),
];

struct Options {
    cutoff: Duration,
    sample: usize,
    jobs: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((run, opts)) => {
            warm_up();
            run(&opts);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("report: {msg}");
            ExitCode::from(2)
        }
    }
}

/// One untimed cold solve (MM08 R. Def.) before the first timed cell:
/// a process's first solves run slower than its later ones, so without
/// it the first cells of a subcommand read high against the same cells
/// late in `report all`.
fn warm_up() {
    let spl = GeneratedSpl::generate(subject_by_name("MM08").unwrap());
    let ctx = BddConstraintContext::new(&spl.table);
    let model = spl.model_expr();
    time_spllift(
        &ReachingDefs::new(),
        &spl.icfg(),
        &ctx,
        Some(&model),
        ModelMode::OnEdges,
    );
}

fn all(o: &Options) {
    table1();
    let cells = measure_all(o.cutoff, o.jobs);
    print_table2(&cells);
    print_table3(&cells);
    print_correlation(&cells);
    scaling(o.jobs);
    density();
    ordering();
    ablations();
    rq1(o.sample, o.jobs);
}

/// Parses `[COMMAND] [--cutoff SECS] [--sample N] [--jobs N]`.
fn parse_args(args: &[String]) -> Result<(Command, Options), String> {
    let mut run = None;
    let mut opts = Options {
        cutoff: Duration::from_secs(30),
        sample: 40,
        jobs: default_jobs(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cutoff" => {
                let v = args.next().ok_or("--cutoff needs a value")?;
                opts.cutoff = v
                    .parse()
                    .ok()
                    .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                    .ok_or(format!(
                        "--cutoff needs a non-negative number of seconds, got `{v}`"
                    ))?;
            }
            "--sample" => opts.sample = positive("--sample", args.next())?,
            "--jobs" => opts.jobs = positive("--jobs", args.next())?,
            name if run.is_none() && !name.starts_with('-') => {
                let (_, f) = COMMANDS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or(format!("unknown command `{name}`"))?;
                run = Some(*f);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok((run.unwrap_or(all), opts))
}

fn positive(flag: &str, v: Option<&String>) -> Result<usize, String> {
    let v = v.ok_or(format!("{flag} needs a value"))?;
    v.parse()
        .ok()
        .filter(|n| *n > 0)
        .ok_or(format!("{flag} needs a positive integer, got `{v}`"))
}

fn generate_all() -> Vec<GeneratedSpl> {
    subjects().into_iter().map(GeneratedSpl::generate).collect()
}

// ----------------------------------------------------------------------
// Table 1: key information about benchmarks used.
// ----------------------------------------------------------------------

fn table1() {
    outln!("== Table 1: key information about benchmarks used ==");
    outln!(
        "{:<12} {:>6} {:>9} {:>10} {:>16} {:>14}",
        "Benchmark",
        "KLOC",
        "F.total",
        "F.reach",
        "Configs.reach",
        "Configs.valid"
    );
    for spl in generate_all() {
        let valid = spl.count_valid_configs();
        let valid_str = if spl.spec.paper_valid_configs.is_none() {
            // The paper reports "unknown" here — we can count with BDDs.
            format!("{valid} (*)")
        } else {
            valid.to_string()
        };
        outln!(
            "{:<12} {:>6.1} {:>9} {:>10} {:>16} {:>14}",
            spl.spec.name,
            spl.loc as f64 / 1000.0,
            spl.spec.total_features,
            spl.spec.reachable_features,
            format_pow2(spl.spec.reachable_features),
            valid_str,
        );
    }
    outln!("(*) the paper reports 'unknown'; our BDD sat-count resolves it\n");
}

fn format_pow2(n: usize) -> String {
    if n <= 40 {
        format!("{}", 1u64 << n)
    } else {
        format!("2^{n}")
    }
}

// ----------------------------------------------------------------------
// Tables 2 and 3.
// ----------------------------------------------------------------------

fn measure_all(cutoff: Duration, jobs: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for spl in generate_all() {
        eprintln!("measuring {} ...", spl.spec.name);
        for analysis in AnalysisKind::PAPER_THREE {
            cells.push(measure_cell(&spl, analysis, cutoff, jobs));
        }
    }
    cells
}

fn print_table2(cells: &[Cell]) {
    outln!("== Table 2: SPLLIFT vs A2 (feature model regarded) ==");
    outln!(
        "{:<12} {:>14} {:>9} | {:>12} {:>12} {:>9}",
        "Benchmark",
        "valid configs",
        "CG",
        "SPLLIFT",
        "A2 (all)",
        "speedup"
    );
    let mut jobs = 1;
    for c in cells {
        let a2 = c.a2.total_secs();
        let lift = c.spllift_regarded.time.as_secs_f64();
        let configs = match c.a2 {
            spllift_bench::A2Outcome::Exact { configs, .. }
            | spllift_bench::A2Outcome::Estimated { configs, .. } => configs,
        };
        let marker = if c.a2.is_estimate() { "~" } else { "" };
        jobs = c.a2.jobs();
        outln!(
            "{:<12} {:>14} {:>9} | {:>12} {:>13} {:>11}  [{}]",
            c.subject,
            configs,
            fmt_duration(c.cg_time.as_secs_f64()),
            fmt_duration(lift),
            format!("{}{}", marker, fmt_duration(a2)),
            format!("{:.0}x", a2 / lift),
            c.analysis,
        );
    }
    outln!("(~ = extrapolated past the cutoff, as in the paper's grey cells)");
    outln!("(A2 brute-force arm sharded across {jobs} worker thread(s); times are wall-clock)\n");
}

fn print_table3(cells: &[Cell]) {
    outln!("== Table 3: cost of regarding the feature model ==");
    outln!(
        "{:<12} {:<10} {:>12} {:>12} {:>12}",
        "Benchmark",
        "Analysis",
        "regarded",
        "ignored",
        "avg A2"
    );
    for c in cells {
        outln!(
            "{:<12} {:<10} {:>12} {:>12} {:>12}",
            c.subject,
            c.analysis,
            fmt_duration(c.spllift_regarded.time.as_secs_f64()),
            fmt_duration(c.spllift_ignored.time.as_secs_f64()),
            fmt_duration(c.a2.per_run_secs()),
        );
    }
    outln!(
        "(avg A2 = mean single-configuration A2 time: the paper's 'gold standard' lower bound)\n"
    );
}

// ----------------------------------------------------------------------
// §6.2 qualitative analysis: time correlates with jump functions.
// ----------------------------------------------------------------------

fn print_correlation(cells: &[Cell]) {
    outln!("== Qualitative analysis (§6.2): time vs. jump-function constructions ==");
    let xs: Vec<f64> = cells
        .iter()
        .map(|c| c.spllift_regarded.stats.jump_fn_constructions as f64)
        .collect();
    let ys: Vec<f64> = cells
        .iter()
        .map(|c| c.spllift_regarded.time.as_secs_f64())
        .collect();
    for (c, (x, y)) in cells.iter().zip(xs.iter().zip(&ys)) {
        outln!(
            "  {:<12} {:<10} jump-fns {:>10}   time {:>10}",
            c.subject,
            c.analysis,
            x,
            fmt_duration(*y)
        );
    }
    outln!(
        "Pearson correlation across heterogeneous cells: {:.4}",
        pearson(&xs, &ys)
    );
    // The paper's correlation is measured across runs of comparable
    // workloads; reproduce that with a controlled sweep: 12 MM08-shaped
    // subjects of varying size and seed, one analysis.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..12u64 {
        let mut spec = subject_by_name("MM08").unwrap();
        spec.seed = spec.seed.wrapping_add(i * 7919);
        spec.loc_target = 300 + (i as usize) * 150;
        let spl = GeneratedSpl::generate(spec);
        let m = time_spllift(
            &ReachingDefs::new(),
            &spl.icfg(),
            &BddConstraintContext::new(&spl.table),
            Some(&spl.model_expr()),
            ModelMode::OnEdges,
        );
        xs.push(m.stats.jump_fn_constructions as f64);
        ys.push(m.time.as_secs_f64());
    }
    outln!(
        "Pearson correlation over a controlled size/seed sweep (12 MM08-shaped subjects, R. Def.): {:.4} (paper: > 0.99)\n",
        pearson(&xs, &ys)
    );
}

// ----------------------------------------------------------------------
// Scaling sweep: the exponential blowup SPLLIFT avoids.
// ----------------------------------------------------------------------

/// Fixes the code size and grows only the feature count; all `2^n`
/// configurations are valid. A2's cost doubles per feature while
/// SPLLIFT's stays roughly flat — the claim of the paper's §8 ("SPLLIFT
/// successfully avoids the exponential blowup") as a measurable curve.
fn scaling(jobs: usize) {
    outln!("== Scaling sweep: features vs. time (Reaching Definitions, A2 on {jobs} thread(s)) ==");
    outln!(
        "{:>9} {:>9} {:>12} {:>12} {:>9}",
        "features",
        "configs",
        "SPLLIFT",
        "A2 (all)",
        "ratio"
    );
    for n in [2usize, 4, 6, 8, 10, 12] {
        let spl = GeneratedSpl::generate(spllift_benchgen::synthetic_spec(n, 500, 42));
        let icfg = spl.icfg();
        let analysis = ReachingDefs::new();
        let lift = time_spllift(
            &analysis,
            &icfg,
            &BddConstraintContext::new(&spl.table),
            Some(&spl.model_expr()),
            ModelMode::OnEdges,
        );
        let a2 = time_a2_all(&spl, &icfg, &analysis, Duration::from_secs(20), jobs);
        outln!(
            "{:>9} {:>9} {:>12} {:>12} {:>8.0}x",
            n,
            1u64 << n,
            fmt_duration(lift.time.as_secs_f64()),
            fmt_duration(a2.total_secs()),
            a2.total_secs() / lift.time.as_secs_f64().max(1e-9),
        );
    }
    outln!();
}

// ----------------------------------------------------------------------
// Annotation-density sweep: constraint churn vs. #ifdef frequency.
// ----------------------------------------------------------------------

/// Fixes features and code size, varying only how often statements are
/// `#ifdef`-wrapped. SPLLIFT's conclusion (§8) credits its efficiency to
/// performing "splits and joins of configurations as sparsely as
/// possible": cost should grow with annotation density, not with the
/// (constant) configuration count — which A2's cost tracks instead.
fn density() {
    outln!("== Annotation-density sweep (GPL shape, Reaching Definitions) ==");
    outln!("One fixed program; annotations thinned to a fraction of the original.");
    outln!(
        "{:>9} {:>10} {:>12} {:>14}",
        "keep %",
        "annotated",
        "SPLLIFT",
        "jump-fns"
    );
    // Generate once at high density, then thin annotations only — the
    // CFG, the statements, and the call graph stay identical across rows.
    let params = spllift_benchgen::CodegenParams {
        ifdef_percent: 60,
        ..Default::default()
    };
    let spec = subject_by_name("GPL").unwrap();
    let base = GeneratedSpl::generate_with_params(spec, params);
    for keep_pct in [0u32, 25, 50, 75, 100] {
        // Deterministic thinning: keep an annotation iff its statement
        // hash falls below the threshold.
        let mut kept = 0usize;
        let program = base.program.map_annotations(|s, a| {
            use spllift_features::FeatureExpr;
            if *a == FeatureExpr::True {
                return a.clone();
            }
            let h = (s.method.0 as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(s.index as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                % 100;
            if (h as u32) < keep_pct {
                kept += 1;
                a.clone()
            } else {
                FeatureExpr::True
            }
        });
        let m = time_spllift(
            &ReachingDefs::new(),
            &ProgramIcfg::new(&program),
            &BddConstraintContext::new(&base.table),
            None,
            ModelMode::Ignore,
        );
        outln!(
            "{:>9} {:>10} {:>12} {:>14}",
            keep_pct,
            kept,
            fmt_duration(m.time.as_secs_f64()),
            m.stats.jump_fn_constructions,
        );
    }
    outln!("(cost tracks annotation density — the 'splits and joins as sparsely as possible' claim of §8)");
    outln!();
}

// ----------------------------------------------------------------------
// BDD variable-ordering impact (the paper's declared future work).
// ----------------------------------------------------------------------

/// §5: "The size of a BDD can heavily depend on its variable ordering. In
/// our case, because we did not perceive the BDD operations to be a
/// bottleneck, we just pick one ordering and leave the search for an
/// optimal ordering to future work." §8 promises to "investigate the
/// performance impact of BDD variable orderings". This experiment does:
/// same subject, same analysis, three orderings.
fn ordering() {
    outln!("== BDD variable-ordering impact (Reaching Definitions) ==");
    outln!(
        "{:<12} {:<12} {:>12} {:>12} {:>12}",
        "Benchmark",
        "order",
        "SPLLIFT",
        "BDD nodes",
        "jump-fns"
    );
    for name in ["GPL", "BerkeleyDB"] {
        let spl = GeneratedSpl::generate(subject_by_name(name).unwrap());
        let icfg = spl.icfg();
        let analysis = ReachingDefs::new();
        let model = spl.model_expr();
        let natural: Vec<_> = spl.table.iter().map(|(id, _)| id).collect();
        let reversed: Vec<_> = natural.iter().rev().copied().collect();
        // Interleave reachable and unreachable features.
        let mut interleaved = Vec::with_capacity(natural.len());
        let half = natural.len() / 2;
        for i in 0..half {
            interleaved.push(natural[i]);
            interleaved.push(natural[natural.len() - 1 - i]);
        }
        if natural.len() % 2 == 1 {
            interleaved.push(natural[half]);
        }
        for (label, order) in [
            ("natural", &natural),
            ("reversed", &reversed),
            ("interleaved", &interleaved),
        ] {
            let ctx = BddConstraintContext::with_order(&spl.table, order);
            let m = time_spllift(&analysis, &icfg, &ctx, Some(&model), ModelMode::OnEdges);
            outln!(
                "{:<12} {:<12} {:>12} {:>12} {:>12}",
                name,
                label,
                fmt_duration(m.time.as_secs_f64()),
                ctx.manager().stats().nodes,
                m.stats.jump_fn_constructions,
            );
        }
    }
    outln!("(the paper's deferred experiment: order affects BDD size, rarely the verdicts)\n");
}

// ----------------------------------------------------------------------
// Ablations: the design choices of §4.2, §5 and §7.
// ----------------------------------------------------------------------

fn ablations() {
    ablation_repr();
    ablation_model();
}

/// Ablation A. The paper first stored constraints in a hand-written DNF
/// structure and switched to BDDs because "others do not scale nearly
/// as well for the Boolean operations we require" (§5, §7). The same
/// lifting runs on either constraint context, feature model ignored.
fn ablation_repr() {
    outln!("== Ablation A (§5, §7): BDD vs. DNF constraints (feature model ignored) ==");
    outln!(
        "{:<12} {:<10} {:>12} {:>12} {:>9}",
        "Benchmark",
        "Analysis",
        "BDD",
        "DNF",
        "DNF/BDD"
    );
    let ex = spllift_ir::samples::fig1();
    let icfg = ProgramIcfg::new(&ex.program);
    let taint = TaintAnalysis::secret_to_print();
    repr_row("fig1", "Taint", &taint, &icfg, &ex.table);
    let spl = GeneratedSpl::generate(subject_by_name("MM08").unwrap());
    let icfg = spl.icfg();
    for kind in [AnalysisKind::ReachingDefs, AnalysisKind::Uninit] {
        with_analysis!(kind, |p| repr_row(
            "MM08",
            kind.label(),
            p,
            &icfg,
            &spl.table
        ));
    }
    outln!("(both representations denote the same constraints; asserted by the BDD/DNF tests)\n");
}

fn repr_row<'a, P: IfdsProblem<ProgramIcfg<'a>>>(
    subject: &str,
    analysis: &str,
    problem: &P,
    icfg: &ProgramIcfg<'a>,
    table: &FeatureTable,
) {
    let bdd = BddConstraintContext::new(table);
    let bdd = time_spllift(problem, icfg, &bdd, None, ModelMode::Ignore).time;
    let dnf = DnfConstraintContext::new(table);
    let dnf = time_spllift(problem, icfg, &dnf, None, ModelMode::Ignore).time;
    outln!(
        "{:<12} {:<10} {:>12} {:>12} {:>8.1}x",
        subject,
        analysis,
        fmt_duration(bdd.as_secs_f64()),
        fmt_duration(dnf.as_secs_f64()),
        dnf.as_secs_f64() / bdd.as_secs_f64().max(1e-9),
    );
}

/// Ablations B and C (§4.2): where the feature model enters. `on-edges`
/// conjoins it onto every edge, the paper's final design, so a
/// contradiction ends its path while jump functions are built.
/// `start-value` seeds it as the start value instead, the PLAS 2012
/// design: same results, pruned only in the value phase. `ignore`
/// drops it, the baseline for both.
fn ablation_model() {
    outln!("== Ablations B/C (§4.2): where the feature model enters ==");
    outln!(
        "{:<12} {:<10} {:>12} {:>12} {:>12}   jump-fns (on-edges/start-value/ignore)",
        "Benchmark",
        "Analysis",
        "on-edges",
        "start-value",
        "ignore"
    );
    for name in ["MM08", "GPL"] {
        let spl = GeneratedSpl::generate(subject_by_name(name).unwrap());
        let icfg = spl.icfg();
        let model = spl.model_expr();
        for kind in [AnalysisKind::ReachingDefs, AnalysisKind::Uninit] {
            let cells = [
                (Some(&model), ModelMode::OnEdges),
                (Some(&model), ModelMode::AtStartValue),
                (None, ModelMode::Ignore),
            ]
            .map(|(model, mode)| {
                let ctx = BddConstraintContext::new(&spl.table);
                with_analysis!(kind, |p| time_spllift(p, &icfg, &ctx, model, mode))
            });
            let [edges, start, ignore] = cells.map(|m| fmt_duration(m.time.as_secs_f64()));
            let [je, js, ji] = cells.map(|m| m.stats.jump_fn_constructions);
            outln!(
                "{:<12} {:<10} {:>12} {:>12} {:>12}   {je}/{js}/{ji}",
                name,
                kind.label(),
                edges,
                start,
                ignore,
            );
        }
    }
    outln!(
        "(on-edges and start-value compute the same constraints, asserted in spllift-core's tests;"
    );
    outln!(" ignore drops the model's restrictions)\n");
}

// ----------------------------------------------------------------------
// RQ1: correctness cross-check against the A2 oracle.
// ----------------------------------------------------------------------

/// Cross-checks every subject on at most `sample` valid configurations
/// and exits 1 if any disagrees with A2.
fn rq1(sample: usize, jobs: usize) {
    outln!("== RQ1: SPLLIFT vs A2 oracle cross-check (§6.1, {jobs} worker thread(s)) ==");
    let mut mismatches = 0usize;
    for spl in generate_all() {
        let (configs, note) = if spl.reachable.len() > 30 {
            // 2^39 configurations for BerkeleyDB: too many to enumerate.
            (sample_configurations(&spl, sample), " (seeded random draw)")
        } else {
            let configs = spl.valid_configurations();
            // Deterministic stride sample.
            let stride = (configs.len() / sample).max(1);
            (configs.into_iter().step_by(stride).collect(), "")
        };
        let icfg = spl.icfg();
        let model = spl.model_expr();
        let opts = ParallelOptions::with_jobs(jobs);
        let mut total = 0usize;
        for analysis in AnalysisKind::PAPER_THREE {
            let make_ctx = || BddConstraintContext::new(&spl.table);
            let outcome = with_analysis!(analysis, |p| {
                crosscheck_parallel(&icfg, p, make_ctx, Some(&model), &configs, &opts)
            });
            for m in outcome.mismatches.iter().take(3) {
                eprintln!("  MISMATCH: {m}");
            }
            total += outcome.mismatches.len();
        }
        outln!(
            "{:<12} {} configs x 3 analyses: {} mismatches{note}",
            spl.spec.name,
            configs.len(),
            total
        );
        mismatches += total;
    }
    outln!();
    if mismatches > 0 {
        std::process::exit(1);
    }
}

/// `count` valid configurations of `spl`, each drawn by a walk over the
/// features that flips a seeded coin per feature and flips it back
/// whenever the choice would falsify the feature model.
fn sample_configurations(spl: &GeneratedSpl, count: usize) -> Vec<Configuration> {
    let ctx = BddConstraintContext::new(&spl.table);
    let model = ctx.of_expr(&spl.model_expr());
    let mut rng = SplitMix64::seed_from_u64(spl.spec.seed);
    (0..count)
        .map(|_| {
            let mut rest = model.clone();
            let mut enabled = Vec::new();
            for (id, _) in spl.table.iter() {
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
            Configuration::from_enabled(enabled)
        })
        .collect()
}
