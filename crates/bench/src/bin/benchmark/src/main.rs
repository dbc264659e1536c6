//! `benchmark` — end-to-end and per-layer measurement of the SPLLIFT
//! reproduction. See README.md for the workloads, metrics and how to
//! run it.
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//! benchmark --smoke [--workload NAME] [--seed N]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`,
//! carrying the end-to-end metrics untraced and the per-layer metrics
//! with `--trace 1`. Any failed check makes the exit status 1.

mod batch;
mod measure;
mod serve;

use measure::{median, quantile, sorted, Pass};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["lifted-paper", "lifted-bdd", "datalog-rdefs", "serve-edit"];

/// End-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("write_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
];

/// Per-layer metrics (name, unit), reported by every traced run. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("bench.op_p90_ms", "ms"),
    ("ir.icfg_share", "frac"),
    ("core.lift_share", "frac"),
    ("ide.solve_share", "frac"),
    ("ide.propagations", "count"),
    ("ide.flow_evals", "count"),
    ("ide.jump_fns", "count"),
    ("ide.value_updates", "count"),
    ("ide.killed_early", "count"),
    ("ide.propagations_per_ms", "1/ms"),
    ("ide.jump_fn_time_corr", "r"),
    ("bdd.ops", "count"),
    ("bdd.nodes", "count"),
    ("bdd.cache_entries", "count"),
    ("bdd.ops_per_propagation", "ratio"),
    ("bdd.digest_share", "frac"),
    ("datalog.solve_share", "frac"),
    ("datalog.rounds", "count"),
    ("datalog.derivations", "count"),
    ("datalog.tuples", "count"),
    ("datalog.tuples_per_derivation", "ratio"),
    ("server.transport_share", "frac"),
    ("server.queue_share", "frac"),
    ("server.handle_read_share", "frac"),
    ("server.handle_write_share", "frac"),
    ("server.cache_hit_ratio", "frac"),
    ("server.cache_evictions", "count"),
    ("server.solves_cold", "count"),
    ("server.solves_cached", "count"),
    ("server.solves_incremental", "count"),
    ("server.incremental_prop_ratio", "ratio"),
    ("bench.trace_overhead_frac", "frac"),
];

/// Span names whose self time becomes a `*_share` per-layer metric.
const SHARES: [(&str, &str); 5] = [
    ("ir.icfg", "ir.icfg_share"),
    ("core.lift", "core.lift_share"),
    ("ide.solve", "ide.solve_share"),
    ("bdd.digest", "bdd.digest_share"),
    ("datalog.solve", "datalog.solve_share"),
];

/// Committed result digests: `(subject, analysis) → digest`.
pub type Goldens = BTreeMap<(String, String), u64>;

pub fn goldens() -> Goldens {
    parse_goldens(include_str!("../goldens.txt"))
}

fn parse_goldens(text: &str) -> Goldens {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(
                f.len(),
                3,
                "golden line `{l}` is not `SUBJECT ANALYSIS DIGEST`"
            );
            let digest = u64::from_str_radix(f[2], 16).expect("hex digest");
            ((f[0].to_owned(), f[1].to_owned()), digest)
        })
        .collect()
}

/// How one pass of a workload runs.
pub struct RunOpts {
    pub seed: u64,
    /// Measuring time; rounds stop once the next one would overrun it.
    pub budget: Duration,
    pub max_rounds: usize,
    pub setup_reps: usize,
    /// Record spans: set-up is traced, and rounds alternate untraced and
    /// traced (see [`measure::traced_round`]).
    pub traced: bool,
    pub smoke: bool,
}

/// Where the binary may write scratch files and traces: its own build
/// directory, which lies inside the checkout it was built in.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Runs one pass of `workload`.
pub fn run_pass(workload: &str, opts: &RunOpts, goldens: &Goldens) -> Pass {
    const PAPER: [&str; 3] = ["MM08", "GPL", "Lampiro"];
    match (workload, opts.smoke) {
        ("lifted-paper", _) => batch::run_lifted(&PAPER, &batch::ANALYSES, opts, goldens),
        ("lifted-bdd", false) => {
            batch::run_lifted(&["BerkeleyDB"], &batch::ANALYSES, opts, goldens)
        }
        // The two cheap BerkeleyDB cells: a smoke run checks wiring,
        // not BDD scale.
        ("lifted-bdd", true) => {
            batch::run_lifted(&["BerkeleyDB"], &["taint", "types"], opts, goldens)
        }
        ("datalog-rdefs", false) => batch::run_datalog(&["MM08", "GPL"], opts, goldens),
        ("datalog-rdefs", true) => batch::run_datalog(&["MM08"], opts, goldens),
        ("serve-edit", smoke) => {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let work = out_dir().join(format!("serve-work-{}-{n}", std::process::id()));
            let mut pass = Pass::new(opts.traced);
            match std::fs::create_dir_all(&work) {
                Ok(()) => pass = serve::run_serve(opts, if smoke { 3 } else { 7 }, &work),
                Err(e) => pass.check(false, || format!("cannot create {}: {e}", work.display())),
            }
            let _ = std::fs::remove_dir_all(&work);
            pass
        }
        (other, _) => unreachable!("workload `{other}` was validated"),
    }
}

/// A metric value with the samples it summarizes.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

fn end_to_end(pass: &Pass) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = match name {
                "setup_s" => (median(&pass.setup_s), pass.setup_s.clone()),
                "analysis_s" => (median(&pass.round_s), pass.round_s.clone()),
                "peak_rss_mb" => (pass.peak_rss_mb, vec![pass.peak_rss_mb]),
                "write_p50_ms" => (median(&pass.write_ms), pass.write_ms.clone()),
                "read_p50_ms" => (median(&pass.read_ms), pass.read_ms.clone()),
                other => unreachable!("unknown end-to-end metric {other}"),
            };
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}

fn per_layer(traced: &Pass, opts: &RunOpts) -> Vec<Metric> {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (i, &s) in traced.round_s.iter().enumerate() {
        if measure::traced_round(opts, i) {
            on.push(s);
        } else {
            off.push(s);
        }
    }
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, _) in PER_LAYER.iter() {
        let per_round: Vec<f64> = traced
            .counters
            .iter()
            .filter_map(|c| c.get(name).map(|&x| x as f64))
            .collect();
        if !per_round.is_empty() {
            v.insert(name, median(&per_round));
        }
    }
    let self_times = traced.trace.self_times();
    let root = traced.trace.root_ms();
    for (span, metric) in SHARES {
        if let Some(&(_, _, self_ms)) = self_times.get(span) {
            v.insert(metric, if root > 0.0 { self_ms / root } else { 0.0 });
        }
    }
    let get = |v: &BTreeMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let props = get(&v, "ide.propagations");
    if let Some(&(_, solve_ms, _)) = self_times.get("ide.solve") {
        let rounds = on.len().max(1) as f64;
        v.insert("ide.propagations_per_ms", ratio(props, solve_ms / rounds));
    }
    v.insert("bdd.ops_per_propagation", ratio(get(&v, "bdd.ops"), props));
    v.insert(
        "datalog.tuples_per_derivation",
        ratio(get(&v, "datalog.tuples"), get(&v, "datalog.derivations")),
    );
    v.insert("bench.op_p90_ms", quantile(&sorted(&traced.op_ms), 0.9));
    v.insert(
        "bench.trace_overhead_frac",
        ratio(median(&on), median(&off)) - 1.0,
    );
    // Values the workload derived itself take precedence.
    for (k, x) in &traced.layer {
        v.insert(k, *x);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: get(&v, name),
            samples: Vec::new(),
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

fn print_metrics(metrics: &[Metric]) {
    println!(
        "{:<32} {:>14} {:<6} {:>6} {:>12} {:>12} {:>12}",
        "metric", "value", "unit", "n", "q1", "median", "q3"
    );
    for m in metrics {
        let s = sorted(&m.samples);
        if s.is_empty() {
            println!("{:<32} {:>14.4} {:<6}", m.name, m.value, m.unit);
            continue;
        }
        println!(
            "{:<32} {:>14.4} {:<6} {:>6} {:>12.4} {:>12.4} {:>12.4}",
            m.name,
            m.value,
            m.unit,
            s.len(),
            quantile(&s, 0.25),
            quantile(&s, 0.5),
            quantile(&s, 0.75)
        );
    }
}

fn print_self_times(pass: &Pass) {
    let root = pass.trace.root_ms();
    println!(
        "{:<20} {:>8} {:>12} {:>12} {:>8}",
        "span", "calls", "total_ms", "self_ms", "of_root"
    );
    for (name, (calls, total, own)) in pass.trace.self_times() {
        println!(
            "{name:<20} {calls:>8} {total:>12.3} {own:>12.3} {:>8.4}",
            if root > 0.0 { own / root } else { 0.0 }
        );
    }
}

/// Parsed command line.
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: benchmark --workload lifted-paper|lifted-bdd|datalog-rdefs|serve-edit \
                     --seed N [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 25.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                out.workloads.push(w.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if out.workloads.is_empty() {
        if !out.smoke {
            return Err("--workload is required".into());
        }
        out.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    }
    Ok(out)
}

/// Runs one workload as the command line asks, prints its report and
/// result line, and says whether every check passed.
fn run_workload(workload: &str, args: &Args, goldens: &Goldens) -> bool {
    let opts = RunOpts {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        max_rounds: if args.smoke { 1 } else { usize::MAX },
        setup_reps: if args.smoke { 1 } else { 9 },
        traced: args.trace,
        smoke: args.smoke,
    };
    println!(
        "benchmark: workload {workload}, seed {}, {} s, trace {}{}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { ", smoke" } else { "" }
    );
    let mut pass = run_pass(workload, &opts, goldens);
    println!("rounds: {}", pass.round_s.len());
    let metrics = if args.trace {
        let path = out_dir().join(format!("trace-{workload}-seed{}.jsonl", args.seed));
        match std::fs::write(&path, pass.trace.jsonl()) {
            Ok(()) => println!(
                "spans: {} written to {}",
                pass.trace.spans.len(),
                path.display()
            ),
            Err(e) => pass.check(false, || format!("cannot write {}: {e}", path.display())),
        }
        print_self_times(&pass);
        per_layer(&pass, &opts)
    } else {
        end_to_end(&pass)
    };
    let (attempted, failures) = (pass.attempted, pass.failures);
    print_metrics(&metrics);
    for f in failures.iter().take(20) {
        eprintln!("benchmark: FAILED {f}");
    }
    println!(
        "{}",
        result_json(attempted.max(1), failures.len() as u64, &metrics)
    );
    failures.is_empty()
}

fn main() -> ExitCode {
    let args = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let goldens = goldens();
    let mut ok = true;
    for w in &args.workloads {
        ok &= run_workload(w, &args, &goldens);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spllift_json::{parse_json, Json};

    fn smoke(workload: &str, rounds: usize, goldens: &Goldens) -> Pass {
        let opts = RunOpts {
            seed: 3,
            budget: Duration::from_secs(600),
            max_rounds: rounds,
            setup_reps: 1,
            traced: false,
            smoke: true,
        };
        run_pass(workload, &opts, goldens)
    }

    /// The CI smoke: every workload at one round checks out clean, and
    /// `serve-edit` answers cold, cached and incremental analyzes (the
    /// run itself fails otherwise).
    #[test]
    fn smoke_runs_every_workload_correctly() {
        let goldens = goldens();
        for w in WORKLOADS {
            let pass = smoke(w, 1, &goldens);
            assert!(pass.failures.is_empty(), "{w}: {:?}", pass.failures);
            assert!(pass.attempted > 0 && pass.round_s.len() == 1, "{w}");
            for m in end_to_end(&pass) {
                assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
            }
        }
    }

    /// Two rounds of the same cells do identical, non-zero BDD work: the
    /// manager is fresh per cell, never warm from an earlier round.
    #[test]
    fn rounds_repeat_exact_counters_and_never_run_warm() {
        let goldens = goldens();
        for w in ["lifted-paper", "datalog-rdefs"] {
            let pass = smoke(w, 2, &goldens);
            assert!(pass.failures.is_empty(), "{w}: {:?}", pass.failures);
            assert_eq!(pass.counters.len(), 2, "{w}");
            assert_eq!(pass.counters[0], pass.counters[1], "{w}");
            assert!(pass.counters[0]["bdd.ops"] > 0, "{w}");
        }
    }

    #[test]
    fn a_wrong_golden_fails_the_run() {
        let mut goldens = goldens();
        *goldens
            .get_mut(&("MM08".to_owned(), "taint".to_owned()))
            .expect("MM08 taint golden") ^= 1;
        let pass = smoke("lifted-paper", 1, &goldens);
        assert_eq!(pass.failures.len(), 1, "{:?}", pass.failures);
        let line = result_json(
            pass.attempted,
            pass.failures.len() as u64,
            &end_to_end(&pass),
        );
        let json = parse_json(&line).expect("result line is JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
        let args = parse_args(&["--smoke".into(), "--workload".into(), "lifted-paper".into()])
            .expect("valid args");
        assert!(!run_workload("lifted-paper", &args, &goldens));
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit").and_then(Json::as_str).map(str::to_owned),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), Some((*u).to_owned())))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|n| n.0).collect();
        assert_eq!(workloads, WORKLOADS);
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name `{name}`"
            );
        }
        for w in WORKLOADS {
            assert!(w
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
