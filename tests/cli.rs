//! Integration: drive the `spllift-cli` binary end to end on the checked-in
//! example data, the way a downstream user would.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spllift-cli"))
}

#[test]
fn taint_table_on_fig1() {
    let out = cli()
        .args(["examples_data/fig1.minijava", "--analysis", "taint"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Main.main"), "{stdout}");
    // The headline constraint appears in some variable order.
    assert!(
        stdout.contains("!F") && stdout.contains("G") && stdout.contains("!H"),
        "{stdout}"
    );
}

#[test]
fn taint_with_feature_model() {
    let out = cli()
        .args([
            "examples_data/fig1.minijava",
            "--analysis",
            "taint",
            "--model",
            "examples_data/fig1.model",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Under F ⇔ G, y is never tainted at the print call: LocalId(1)
    // must not appear.
    assert!(!stdout.contains("Local(LocalId(1))"), "{stdout}");
}

#[test]
fn dot_output() {
    let out = cli()
        .args(["examples_data/fig1.minijava", "--format", "dot"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph lifted"), "{stdout}");
}

#[test]
fn all_analyses_run() {
    for analysis in ["taint", "types", "reaching-defs", "uninit"] {
        let out = cli()
            .args(["examples_data/fig1.minijava", "--analysis", analysis])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "analysis {analysis}");
    }
}

#[test]
fn errors_are_reported() {
    let out = cli().args(["does-not-exist.minijava"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = cli()
        .args(["examples_data/fig1.minijava", "--analysis", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown analysis"));
}

#[test]
fn bad_flags_are_reported_before_the_input_is_read() {
    for (flag, value, needle) in [
        ("--format", "nope", "unknown format `nope`"),
        ("--analysis", "nope", "unknown analysis `nope`"),
    ] {
        let out = cli()
            .args(["does-not-exist.minijava", flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{flag} {value}: {stderr}");
    }
    // Every subcommand rejects a zero count the same way.
    for flag in ["--jobs", "--max-mismatches"] {
        let out = cli()
            .args(["fuzz", "--seeds", "0..1", flag, "0"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "fuzz {flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs a positive integer"), "{stderr}");
    }
}

#[test]
fn help_and_fuzz_checks_name_every_registered_analysis() {
    use spllift::analyses::AnalysisKind;
    let out = cli().args(["help"]).output().unwrap();
    let help = String::from_utf8_lossy(&out.stdout);
    for kind in AnalysisKind::ALL {
        assert!(help.contains(kind.name()), "help misses `{}`", kind.name());
    }
    let names: Vec<&str> = AnalysisKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(spllift::spl::ANALYSES[..4], names[..]);
}

#[test]
fn reduce_check_takes_the_registry_names_and_rejects_unknown_ones() {
    let reduce = |check: &str| {
        cli()
            .args([
                "reduce",
                "tests/corpus/fuzz-seed0-taint.repro",
                "--check",
                check,
                "--inject-bug",
                "kill-call-to-return",
            ])
            .output()
            .unwrap()
    };
    let out = reduce("reaching-defs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("# spllift repro v1"));
    let out = reduce("bogus");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown check `bogus`"), "{stderr}");
    assert!(stderr.contains("interp-uninit"), "{stderr}");
}

#[test]
fn help_lists_subcommands_formats_and_gen_syntax() {
    for invocation in [&["help"][..], &["--help"], &["-h"]] {
        let out = cli().args(invocation).output().unwrap();
        assert!(out.status.success(), "{invocation:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for needle in [
            "serve",
            "fuzz",
            "reduce",
            "table|dot|leaks|crosscheck|a2-bench",
            "gen:synthetic:<features>:<loc>:<seed>",
            "gen:MM08",
        ] {
            assert!(stdout.contains(needle), "{invocation:?} missing `{needle}`");
        }
    }
    // `--help` after other analyze-mode arguments also prints it.
    let out = cli()
        .args(["examples_data/fig1.minijava", "--help"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// Every serve flag, exactly as the `serve` arg parser spells it. The
/// test below keeps `help`, the README flags table, and the parser
/// reconciled: a flag added to one place must be added to all three.
const SERVE_FLAGS: [&str; 13] = [
    "--listen",
    "--jobs",
    "--shards",
    "--max-inflight",
    "--cache-entries",
    "--cache-bytes",
    "--solve-timeout-ms",
    "--bdd-node-budget",
    "--bdd-op-budget",
    "--max-propagations",
    "--keep-features",
    "--inject-fault",
    "--inject-fault-session",
];

#[test]
fn serve_help_readme_and_parser_agree_on_the_flag_set() {
    let help = cli().args(["help"]).output().unwrap();
    assert!(help.status.success());
    let help = String::from_utf8_lossy(&help.stdout).into_owned();
    let readme = std::fs::read_to_string("README.md").unwrap();
    for flag in SERVE_FLAGS {
        assert!(help.contains(flag), "help output missing `{flag}`");
        assert!(
            readme.contains(&format!("`{flag}")),
            "README flags table missing `{flag}`"
        );
        // The parser knows the flag: every serve flag takes a value, so
        // a trailing flag must die with a "needs" diagnostic naming it
        // (and not with "unknown argument") before the server starts.
        let out = cli().args(["serve", flag]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "serve {flag} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("needs"),
            "serve {flag} without a value: expected a `needs ...` \
             diagnostic naming the flag, got: {stderr}"
        );
    }
    // The help's serve section points at the full wire contract.
    assert!(
        help.contains("docs/PROTOCOL.md"),
        "help must reference docs/PROTOCOL.md"
    );
    // No serve flag exists in the parser without being listed here:
    // probing an undeclared spelling must be rejected as unknown.
    let out = cli().args(["serve", "--no-such-flag"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected serve argument"));
}

/// Every datalog flag, exactly as the `datalog` arg parser spells it,
/// split by whether the flag takes a value. Mirrors [`SERVE_FLAGS`]:
/// the test below keeps `help`, the README "Datalog backend" section,
/// and the parser reconciled — a flag added to one place must be added
/// to all three.
const DATALOG_VALUE_FLAGS: [&str; 2] = ["--jobs", "--model"];
const DATALOG_SWITCH_FLAGS: [&str; 2] = ["--dump-relations", "--crosscheck"];

#[test]
fn datalog_help_readme_and_parser_agree_on_the_flag_set() {
    let help = cli().args(["help"]).output().unwrap();
    assert!(help.status.success());
    let help = String::from_utf8_lossy(&help.stdout).into_owned();
    assert!(
        help.contains("spllift-cli datalog"),
        "help must list the datalog subcommand"
    );
    let readme = std::fs::read_to_string("README.md").unwrap();
    for flag in DATALOG_VALUE_FLAGS.iter().chain(&DATALOG_SWITCH_FLAGS) {
        assert!(help.contains(flag), "help output missing `{flag}`");
        assert!(
            readme.contains(&format!("`{flag}")),
            "README Datalog section missing `{flag}`"
        );
    }
    // Value flags without a value must die with a `needs` diagnostic
    // naming the flag, before any analysis runs.
    for flag in DATALOG_VALUE_FLAGS {
        let out = cli().args(["datalog", flag]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "datalog {flag} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("needs"),
            "datalog {flag} without a value: expected a `needs ...` \
             diagnostic naming the flag, got: {stderr}"
        );
    }
    // No datalog flag exists in the parser without being listed here.
    let out = cli()
        .args(["datalog", "examples_data/fig1.minijava", "--no-such-flag"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected datalog argument"));
}

#[test]
fn datalog_crosschecks_fig1_and_is_jobs_invariant() {
    let run = |jobs: &str, extra: &[&str]| {
        let mut args = vec![
            "datalog",
            "examples_data/fig1.minijava",
            "--crosscheck",
            "--jobs",
            jobs,
        ];
        args.extend_from_slice(extra);
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let reference = run("1", &[]);
    let text = String::from_utf8_lossy(&reference).into_owned();
    assert!(text.contains("SPLLIFT and Datalog agree on all"), "{text}");
    for jobs in ["2", "5"] {
        assert_eq!(
            run(jobs, &[]),
            reference,
            "stdout differs for --jobs {jobs}"
        );
    }
    // With the feature model the backends must still agree.
    let modeled = run("2", &["--model", "examples_data/fig1.model"]);
    let text = String::from_utf8_lossy(&modeled);
    assert!(text.contains("SPLLIFT and Datalog agree on all"), "{text}");
}

#[test]
fn datalog_dump_has_header_and_relations() {
    let out = cli()
        .args(["datalog", "examples_data/fig1.minijava", "--dump-relations"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# spllift datalog dump v1"), "{stdout}");
    for needle in ["features ", "relation PE/7", "relation Val/4"] {
        assert!(stdout.contains(needle), "dump missing `{needle}`");
    }
}

#[test]
fn unknown_subcommand_prints_help_to_stderr() {
    let out = cli().args(["analyse"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand `analyse`"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn leaks_format() {
    let out = cli()
        .args(["examples_data/fig1.minijava", "--format", "leaks"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LEAK at"), "{stdout}");

    // Under the model F ⇔ G the leak disappears.
    let out = cli()
        .args([
            "examples_data/fig1.minijava",
            "--format",
            "leaks",
            "--model",
            "examples_data/fig1.model",
        ])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("no source-to-sink flows"));

    // leaks + non-taint analysis is an error.
    let out = cli()
        .args([
            "examples_data/fig1.minijava",
            "--analysis",
            "uninit",
            "--format",
            "leaks",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn fuzz_stdout_is_byte_identical_across_jobs() {
    // Acceptance criterion of the fuzz driver: for a fixed seed range the
    // report on stdout is byte-identical no matter how the seeds were
    // sharded. Timings and shard stats go to stderr only.
    let run = |jobs: &str| {
        let out = cli()
            .args(["fuzz", "--seeds", "0..16", "--jobs", jobs])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let reference = run("1");
    let text = String::from_utf8_lossy(&reference).into_owned();
    assert!(text.contains("fuzz: 16 seeds checked, 16 ok"), "{text}");
    for jobs in ["2", "8"] {
        assert_eq!(run(jobs), reference, "stdout differs for --jobs {jobs}");
    }
}

#[test]
fn fuzz_reports_and_reduces_injected_bug() {
    let out = cli()
        .args([
            "fuzz",
            "--seeds",
            "0..4",
            "--jobs",
            "2",
            "--inject-bug",
            "kill-call-to-return",
        ])
        .output()
        .expect("binary runs");
    // Mismatches => exit code 2, like a failing crosscheck.
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("reduced seed"), "{stdout}");
}

#[test]
fn reduce_gen_emits_parseable_repro() {
    let out = cli()
        .args(["reduce", "gen:3:3:3"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# spllift repro v1"), "{stdout}");
    assert!(stdout.contains("entry main"), "{stdout}");
}

#[test]
fn chat_product_line_leak_analysis() {
    // Without a model: the raw key reaches the log under LOGGING && !ENCRYPT.
    let out = cli()
        .args(["examples_data/chat.minijava", "--format", "leaks"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LEAK at"), "{stdout}");
    assert!(stdout.contains("LOGGING"), "{stdout}");
    assert!(stdout.contains("!ENCRYPT"), "{stdout}");

    // The model does not forbid LOGGING && !ENCRYPT, so the leak remains.
    let out = cli()
        .args([
            "examples_data/chat.minijava",
            "--format",
            "leaks",
            "--model",
            "examples_data/chat.model",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LEAK at"), "{stdout}");
}
