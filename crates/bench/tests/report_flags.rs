//! `report` answers a bad command or flag with one `report: ...` line
//! on stderr and exit code 2, before it generates any subject — so
//! nothing here waits on a measurement, except the check that a closed
//! stdout ends a run quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn rejects(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("report: ") && stderr.contains(needle),
        "{args:?}: {stderr}"
    );
}

#[test]
fn a_zero_sample_is_rejected_instead_of_dividing_by_zero() {
    rejects(
        &["rq1", "--sample", "0"],
        "--sample needs a positive integer",
    );
    rejects(&["rq1", "--jobs", "0"], "--jobs needs a positive integer");
}

#[test]
fn a_negative_or_nan_cutoff_is_rejected_instead_of_panicking() {
    for bad in ["-1", "NaN", "inf"] {
        rejects(
            &["table1", "--cutoff", bad],
            "--cutoff needs a non-negative",
        );
    }
}

#[test]
fn unparsable_values_and_unknown_arguments_are_not_ignored() {
    rejects(&["table2", "--cutoff", "abc"], "got `abc`");
    rejects(&["rq1", "--sample", "2.5"], "got `2.5`");
    rejects(&["table1", "--jobs"], "--jobs needs a value");
    rejects(&["table1", "--bogus"], "unexpected argument `--bogus`");
    rejects(&["table1", "table2"], "unexpected argument `table2`");
    rejects(&["tables"], "unknown command `tables`");
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("ablations")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("report runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("== Ablation A"), "{first}");
    let out = child.wait_with_output().expect("report exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
