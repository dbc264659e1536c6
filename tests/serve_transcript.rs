//! Golden-transcript test for `spllift-cli serve`: replays the
//! committed request file and diffs the responses byte-exactly against
//! the committed expected output, at several `--shards` values — the
//! protocol promises responses independent of the executor's shard
//! count.

use std::io::Write;
use std::process::{Command, Stdio};

const REQUESTS: &str = "tests/serve/transcript.requests";
const EXPECTED: &str = "tests/serve/transcript.expected";

fn serve(shards: &str, input: &str) -> (String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spllift-cli"))
        .args(["serve", "--shards", shards])
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
    (
        String::from_utf8(out.stdout).expect("utf-8 responses"),
        out.status.success(),
    )
}

#[test]
fn golden_transcript_replays_byte_exactly() {
    let requests = std::fs::read_to_string(REQUESTS).unwrap();
    let expected = std::fs::read_to_string(EXPECTED).unwrap();
    for shards in ["1", "2", "4"] {
        let (stdout, ok) = serve(shards, &requests);
        assert!(ok, "serve --shards {shards} failed");
        assert_eq!(
            stdout, expected,
            "serve --shards {shards} diverges from the committed transcript"
        );
    }
}

#[test]
fn malformed_requests_keep_the_server_serving() {
    // Truncated JSON, an unknown request type, and a query against a
    // session that was never loaded each yield a structured error; the
    // final valid request still succeeds.
    let input = concat!(
        "{\"type\":\"que\n",
        "{\"type\":\"warmup\"}\n",
        "{\"type\":\"query\",\"session\":\"ghost\",\"queries\":[]}\n",
        "{\"type\":\"load\",\"session\":\"s\",\"path\":\"tests/serve/subject.repro\"}\n",
        "{\"type\":\"shutdown\"}\n",
    );
    let (stdout, ok) = serve("2", input);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "{stdout}");
    assert!(lines[0].starts_with("{\"type\":\"error\""), "{}", lines[0]);
    assert!(lines[0].contains("json parse error"), "{}", lines[0]);
    assert!(lines[1].contains("unknown request type"), "{}", lines[1]);
    assert!(lines[2].contains("unknown session"), "{}", lines[2]);
    assert!(lines[3].starts_with("{\"type\":\"ok\""), "{}", lines[3]);
    assert!(lines[4].contains("shutdown"), "{}", lines[4]);
}

#[test]
fn hostile_lines_are_answered_and_the_server_keeps_serving() {
    // docs/PROTOCOL.md §Framing: a line nesting 100,000 arrays and a
    // line carrying a 4 MiB string each get one error line, and the
    // request behind them is served.
    let input = format!(
        "{}\n{{\"type\":\"bogus\",\"pad\":\"{}\"}}\n{{\"type\":\"stats\"}}\n",
        "[".repeat(100_000),
        "x".repeat(4 << 20)
    );
    let (stdout, ok) = serve("2", &input);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(
        lines[0].contains("nesting deeper than 128 levels"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("unknown request type `bogus`"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].starts_with("{\"type\":\"ok\",\"request\":\"stats\""),
        "{}",
        lines[2]
    );
}

#[test]
fn eof_without_shutdown_exits_cleanly() {
    let (stdout, ok) = serve("1", "{\"type\":\"stats\"}\n");
    assert!(ok);
    assert!(stdout.starts_with("{\"type\":\"ok\""), "{stdout}");
}
