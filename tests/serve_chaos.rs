//! Chaos tests for the resident server's fault isolation: replay the
//! committed chaos request file with each `--inject-fault` class and
//! check that (a) the healthy session's responses are byte-identical to
//! a fault-free run at every `--shards` value, (b) the victim session is
//! handled per fault class (quarantined after a panic, degraded down
//! the abstraction ladder on budget/deadline exhaustion), and (c) a
//! fresh `load` fully recovers the victim.

use std::io::Write;
use std::process::{Command, Stdio};

const REQUESTS: &str = "tests/serve/chaos.requests";

fn serve(extra_args: &[&str], input: &str) -> String {
    let mut args = vec!["serve"];
    args.extend_from_slice(extra_args);
    let mut child = Command::new(env!("CARGO_BIN_EXE_spllift-cli"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve {extra_args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 responses")
}

/// Responses that belong to the healthy session (every response
/// carrying its session name). The `stats` response is excluded: it
/// aggregates over all sessions and the governance counters, which
/// legitimately record the fault.
fn healthy_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.contains("\"session\":\"healthy\"") && !l.contains("\"request\":\"stats\""))
        .collect()
}

fn victim_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.contains("\"session\":\"victim\"") || l.contains("`victim`"))
        .collect()
}

/// The core chaos invariant: for each fault class and each `--shards`
/// value, the healthy session's responses are byte-identical to the
/// fault-free run's.
#[test]
fn healthy_session_is_byte_identical_under_every_fault_class() {
    let requests = std::fs::read_to_string(REQUESTS).unwrap();
    for shards in ["1", "2"] {
        let baseline = serve(&["--shards", shards], &requests);
        let healthy_baseline = healthy_lines(&baseline);
        assert!(
            healthy_baseline.len() >= 5,
            "fixture must exercise the healthy session: {baseline}"
        );
        for fault in ["panic-in-flow@2", "bdd-blowup@2", "slow-edge@2"] {
            let faulted = serve(&["--shards", shards, "--inject-fault", fault], &requests);
            assert_eq!(
                healthy_lines(&faulted),
                healthy_baseline,
                "healthy session diverged under --inject-fault {fault} --shards {shards}"
            );
        }
    }
}

#[test]
fn injected_panic_quarantines_only_the_victim_and_load_recovers() {
    let requests = std::fs::read_to_string(REQUESTS).unwrap();
    let out = serve(&["--inject-fault", "panic-in-flow@2"], &requests);
    let victim = victim_lines(&out);
    // Victim's sabotaged analyze -> structured panic error + quarantine.
    assert!(
        victim.iter().any(|l| l.contains("\"error\":\"panic\"")
            && l.contains("injected fault: panic-in-flow")
            && l.contains("\"quarantined\":true")),
        "{out}"
    );
    // Queries against the quarantined session answer structured errors.
    assert!(victim.iter().any(|l| l.contains("is quarantined")), "{out}");
    // The stats response records the isolation.
    let stats = out
        .lines()
        .find(|l| l.contains("\"request\":\"stats\""))
        .expect("stats response");
    assert!(stats.contains("\"panics_isolated\":1"), "{stats}");
    assert!(stats.contains("\"quarantined\":[\"victim\"]"), "{stats}");
    // After the re-load, the victim analyzes cleanly at full precision.
    let recovered = victim
        .iter()
        .filter(|l| l.contains("\"request\":\"analyze\"") && l.contains("\"outcome\":\"complete\""))
        .count();
    assert_eq!(recovered, 1, "{out}");
}

#[test]
fn budget_and_deadline_faults_degrade_soundly_and_recover() {
    let requests = std::fs::read_to_string(REQUESTS).unwrap();
    for (fault, reason) in [
        ("bdd-blowup@2", "budget exhausted"),
        ("slow-edge@2", "deadline exceeded"),
    ] {
        let out = serve(&["--inject-fault", fault], &requests);
        let victim = victim_lines(&out);
        // The sabotaged solve degrades one rung down and says why.
        let degraded = victim
            .iter()
            .find(|l| l.contains("\"outcome\":\"degraded\""))
            .unwrap_or_else(|| panic!("no degraded analyze under {fault}: {out}"));
        assert!(degraded.contains("\"rung\":\"no-model\""), "{degraded}");
        assert!(degraded.contains(reason), "{degraded}");
        // Degraded query answers are flagged.
        assert!(
            victim
                .iter()
                .any(|l| l.contains("\"request\":\"query\"") && l.contains("\"degraded\":true")),
            "{out}"
        );
        // No quarantine: the session survived, merely degraded.
        let stats = out
            .lines()
            .find(|l| l.contains("\"request\":\"stats\""))
            .expect("stats response");
        assert!(stats.contains("\"degraded_solves\":1"), "{stats}");
        assert!(stats.contains("\"quarantined\":[]"), "{stats}");
        // Degraded results are not cached: the post-reload analyze of
        // the same fingerprint re-solves cold and completes fully.
        assert!(
            victim.iter().any(|l| l.contains("\"solve\":\"cold\"")
                && l.contains("\"outcome\":\"complete\"")
                && l.contains("\"rung\":\"full\"")),
            "{out}"
        );
    }
}

const BUDGET_REQUESTS: &str = "tests/serve/chaos-budget.requests";
const BUDGET_FAULT: &[&str] = &[
    "--inject-fault",
    "budget-exhaust@1000",
    "--inject-fault-session",
    "victim",
];

/// `budget-exhaust@N` arms a BDD op budget of exactly N on the victim's
/// first analyze: the full-precision attempt and the confound point
/// both blow it, the `keep_features`-sparing projection completes, and
/// the response records the exact lattice descent. The healthy session
/// never notices, the degraded answer stays out of the cache, and the
/// unbudgeted retry re-solves at full precision.
#[test]
fn budget_exhaust_descends_the_lattice_and_spares_kept_features() {
    let requests = std::fs::read_to_string(BUDGET_REQUESTS).unwrap();
    let out = serve(BUDGET_FAULT, &requests);
    let victim = victim_lines(&out);
    // The sabotaged solve lands on the keep-sparing projection — a
    // non-bottom lattice point that names every abstracted feature and
    // spares F0/F1 — after full and confound(Root) both blew the meter.
    let degraded = victim
        .iter()
        .find(|l| l.contains("\"outcome\":\"degraded\""))
        .unwrap_or_else(|| panic!("no degraded analyze: {out}"));
    assert!(
        degraded.contains("\"rung\":\"project(F10,F11,F2,F3,F4,F5,F6,F7,F8,F9,Root)\""),
        "{degraded}"
    );
    assert!(
        degraded.contains("{\"rung\":\"full\",\"reason\":\"budget exhausted: bdd ops budget exceeded: 1001 > 1000\"}"),
        "{degraded}"
    );
    assert!(
        degraded.contains("\"rung\":\"confound(Root)\""),
        "{degraded}"
    );
    // Degraded query answers are flagged.
    assert!(
        victim
            .iter()
            .any(|l| l.contains("\"request\":\"query\"") && l.contains("\"degraded\":true")),
        "{out}"
    );
    // Stats: the per-point counter names the exact lattice point; no
    // quarantine, one injected fault.
    let stats = out
        .lines()
        .find(|l| l.contains("\"request\":\"stats\""))
        .expect("stats response");
    assert!(
        stats.contains("\"degraded_points\":{\"project(F10,F11,F2,F3,F4,F5,F6,F7,F8,F9,Root)\":1}"),
        "{stats}"
    );
    assert!(stats.contains("\"faults_injected\":1"), "{stats}");
    assert!(stats.contains("\"quarantined\":[]"), "{stats}");
    // Uncached: the unbudgeted retry re-solves cold at full precision.
    assert!(
        victim.iter().any(|l| l.contains("\"solve\":\"cold\"")
            && l.contains("\"outcome\":\"complete\"")
            && l.contains("\"rung\":\"full\"")),
        "{out}"
    );
}

/// The healthy session is byte-identical under an injected budget
/// exhaustion, at multiple `--shards` values.
#[test]
fn healthy_session_is_byte_identical_under_budget_exhaust() {
    let requests = std::fs::read_to_string(BUDGET_REQUESTS).unwrap();
    for shards in ["1", "2"] {
        let baseline = serve(&["--shards", shards], &requests);
        let mut args = vec!["--shards", shards];
        args.extend_from_slice(BUDGET_FAULT);
        let faulted = serve(&args, &requests);
        assert_eq!(
            healthy_lines(&faulted),
            healthy_lines(&baseline),
            "healthy session diverged under budget-exhaust --shards {shards}"
        );
    }
}

/// A request naming an unknown feature in `keep_features` is rejected
/// with a structured error; the session keeps serving.
#[test]
fn unknown_keep_feature_is_a_structured_error() {
    let input = concat!(
        "{\"type\":\"load\",\"session\":\"s\",\"gen\":\"synthetic:4:120:7\"}\n",
        "{\"type\":\"analyze\",\"session\":\"s\",\"keep_features\":[\"NotAFeature\"]}\n",
        "{\"type\":\"analyze\",\"session\":\"s\",\"keep_features\":42}\n",
        "{\"type\":\"analyze\",\"session\":\"s\"}\n",
        "{\"type\":\"shutdown\"}\n",
    );
    let out = serve(&[], input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "{out}");
    assert!(
        lines[1].contains("unknown feature `NotAFeature` in `keep_features`"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains("`keep_features` must be an array of feature-name strings"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].contains("\"outcome\":\"complete\"") && lines[3].contains("\"rung\":\"full\""),
        "{}",
        lines[3]
    );
}

/// Out-of-range numeric governance fields in requests are rejected with
/// structured errors instead of truncation or panic, and a valid
/// per-request budget degrades the solve (retrying with a bigger budget
/// then completes it — the retry-after-degrade path).
#[test]
fn per_request_budgets_validate_and_degrade() {
    let input = concat!(
        "{\"type\":\"load\",\"session\":\"s\",\"gen\":\"synthetic:4:120:7\"}\n",
        "{\"type\":\"analyze\",\"session\":\"s\",\"bdd_node_budget\":-3}\n",
        "{\"type\":\"analyze\",\"session\":\"s\",\"timeout_ms\":1.5}\n",
        "{\"type\":\"analyze\",\"session\":\"s\",\"max_propagations\":0}\n",
        "{\"type\":\"analyze\",\"session\":\"s\",\"bdd_op_budget\":\"many\"}\n",
        "{\"type\":\"analyze\",\"session\":\"s\",\"max_propagations\":5}\n",
        "{\"type\":\"analyze\",\"session\":\"s\"}\n",
        "{\"type\":\"shutdown\"}\n",
    );
    let out = serve(&[], input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 8, "{out}");
    assert!(
        lines[1].contains("`bdd_node_budget` must be a non-negative integer"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains("`timeout_ms` must be a non-negative integer"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].contains("`max_propagations` must be >= 1"),
        "{}",
        lines[3]
    );
    assert!(
        lines[4].contains("`bdd_op_budget` must be a non-negative integer"),
        "{}",
        lines[4]
    );
    // 5 propagations cannot finish any rung on this subject -> the
    // ladder itself aborts, with a structured error naming the limit.
    assert!(
        lines[5].contains("propagation limit 5 reached"),
        "{}",
        lines[5]
    );
    // The unrestricted retry completes at full precision.
    assert!(
        lines[6].contains("\"outcome\":\"complete\"") && lines[6].contains("\"rung\":\"full\""),
        "{}",
        lines[6]
    );
    assert!(lines[7].contains("shutdown"), "{}", lines[7]);
}
