//! Socket-transport tests for the multi-client server: per-session
//! determinism (each session's response stream is byte-identical to the
//! single-client stdio server, at any shard count and under
//! concurrency), fault isolation between co-resident sessions,
//! admission control, and request framing.
//!
//! The committed fixtures `tests/serve/socket-client{1,2,3}.*` are three
//! scripted clients: the first test below replays them concurrently at
//! 1, 2 and 4 shards and checks that their goldens are not stale.

use spllift::server::{Server, ServerOptions, SocketServer};
use spllift_spl::FaultPlan;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn fixture(name: &str) -> String {
    std::fs::read_to_string(format!("tests/serve/{name}")).expect("fixture file")
}

/// Replays `requests` over one fresh connection, one response per
/// request, and returns the newline-terminated response stream.
fn replay(addr: SocketAddr, requests: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut got = String::new();
    for req in requests.lines().filter(|l| !l.trim().is_empty()) {
        writeln!(writer, "{req}").expect("write");
        writer.flush().expect("flush");
        let mut resp = String::new();
        assert!(
            reader.read_line(&mut resp).expect("read") > 0,
            "server closed the connection mid-script"
        );
        got.push_str(&resp);
    }
    got
}

/// Runs the three fixture clients concurrently against `addr` and
/// returns their response streams in client order.
fn replay_fixtures_concurrently(addr: SocketAddr) -> Vec<String> {
    let clients: Vec<_> = (1..=3)
        .map(|n| {
            let requests = fixture(&format!("socket-client{n}.requests"));
            std::thread::spawn(move || replay(addr, &requests))
        })
        .collect();
    clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect()
}

fn shut_down(addr: SocketAddr, server: SocketServer) {
    let out = replay(addr, r#"{"type":"shutdown"}"#);
    assert_eq!(out, "{\"type\":\"ok\",\"request\":\"shutdown\"}\n");
    server.join();
}

/// What the single-client stdio server answers for `requests` — the
/// reference the socket streams are pinned to.
fn stdio_reference(requests: &str) -> String {
    let mut out = Vec::new();
    Server::new(ServerOptions::default())
        .run(requests.as_bytes(), &mut out)
        .expect("stdio serve");
    String::from_utf8(out).expect("utf-8 responses")
}

/// The core determinism claim: every session's response stream over the
/// socket transport — concurrent with other sessions, at 1, 2, and 4
/// shards — is byte-identical to the single-client stdio server's
/// answers for the same requests, which in turn match the committed
/// goldens (so the smoke fixtures cannot rot silently).
#[test]
fn concurrent_socket_streams_match_single_client_server_at_every_shard_count() {
    let reference: Vec<String> = (1..=3)
        .map(|n| stdio_reference(&fixture(&format!("socket-client{n}.requests"))))
        .collect();
    for (n, r) in reference.iter().enumerate() {
        assert_eq!(
            r,
            &fixture(&format!("socket-client{}.expected", n + 1)),
            "committed golden socket-client{}.expected is stale",
            n + 1
        );
    }
    for shards in [1, 2, 4] {
        let opts = ServerOptions {
            shards,
            ..ServerOptions::default()
        };
        let server = SocketServer::spawn(opts, "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let streams = replay_fixtures_concurrently(addr);
        for (n, (got, want)) in streams.iter().zip(&reference).enumerate() {
            assert_eq!(
                got,
                want,
                "client {} stream diverged from the stdio server at --shards {shards}",
                n + 1
            );
        }
        shut_down(addr, server);
    }
}

/// Fault isolation under concurrency: a session quarantined by an
/// injected panic must not perturb the response streams of healthy
/// sessions sharing its shard (shards = 1 forces co-residency), and the
/// engine keeps the healthy sessions' cached solutions.
#[test]
fn quarantined_session_does_not_perturb_concurrent_healthy_sessions() {
    let opts = ServerOptions {
        shards: 1,
        inject_fault: Some(FaultPlan::parse("panic-in-flow@1").expect("fault plan")),
        fault_session: Some("victim".to_owned()),
        ..ServerOptions::default()
    };
    let server = SocketServer::spawn(opts, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let victim = std::thread::spawn(move || {
        let script = concat!(
            r#"{"type":"load","session":"victim","gen":"synthetic:3:40:77"}"#,
            "\n",
            r#"{"type":"analyze","session":"victim","analysis":"taint"}"#,
            "\n",
            r#"{"type":"analyze","session":"victim","analysis":"taint"}"#,
            "\n",
            r#"{"type":"load","session":"victim","gen":"synthetic:3:40:77"}"#,
            "\n",
        );
        replay(addr, script)
    });
    let healthy = replay_fixtures_concurrently(addr);
    let victim = victim.join().expect("victim thread");

    // Healthy sessions: byte-identical to their goldens despite the
    // concurrent panic on their own shard worker.
    for (n, got) in healthy.iter().enumerate() {
        assert_eq!(
            got,
            &fixture(&format!("socket-client{}.expected", n + 1)),
            "healthy client {} diverged while victim was quarantined",
            n + 1
        );
    }

    // Victim session: load ok, analyze answers the isolated panic and
    // quarantines, the next request bounces off the quarantine, a fresh
    // load recovers.
    let victim: Vec<&str> = victim.lines().collect();
    assert_eq!(victim.len(), 4, "{victim:?}");
    assert!(victim[0].contains("\"request\":\"load\""), "{}", victim[0]);
    assert!(
        victim[1].contains("\"error\":\"panic\"") && victim[1].contains("\"quarantined\":true"),
        "{}",
        victim[1]
    );
    assert!(
        victim[2].contains("is quarantined after a panic"),
        "{}",
        victim[2]
    );
    assert!(victim[3].contains("\"request\":\"load\""), "{}", victim[3]);

    // Governance + cache state after the dust settles: exactly one
    // isolated panic, nobody quarantined (the reload recovered), and
    // the healthy sessions' solutions still cached (the panicked solve
    // contributed nothing and evicted nothing).
    let stats = replay(addr, r#"{"type":"stats"}"#);
    let stats = spllift::json::parse_json(stats.trim()).expect("stats parses");
    let gov = stats.get("governance").expect("governance");
    assert_eq!(gov.get("panics_isolated").and_then(|j| j.as_u64()), Some(1));
    assert_eq!(
        gov.get("quarantined")
            .and_then(|j| j.as_arr())
            .map(|a| a.len()),
        Some(0)
    );
    let cache = stats.get("cache").expect("cache");
    assert!(
        cache.get("entries").and_then(|j| j.as_u64()).unwrap_or(0) >= 3,
        "healthy sessions' solutions must stay cached: {cache:?}"
    );
    shut_down(addr, server);
}

/// Admission control: with a per-shard in-flight bound of 1, a request
/// submitted while another is still being solved on the same shard is
/// refused with an `overloaded` error instead of queueing.
///
/// Whichever of the two competing connections wins admission stalls on
/// the injected slow edge (a generous solve timeout widens the stall
/// to seconds, so the loser is guaranteed to arrive mid-flight even on
/// a loaded single-core runner); scheduling decides the winner, so the
/// assertion is role-symmetric: exactly one request completes and the
/// other bounces with `overloaded`.
#[test]
fn admission_control_refuses_requests_beyond_the_inflight_bound() {
    let opts = ServerOptions {
        shards: 1,
        max_inflight: 1,
        // The per-rung deadline sets the injected stall length
        // (deadline + margin), keeping the winner in flight for >3s.
        solve_timeout_ms: Some(2500),
        inject_fault: Some(FaultPlan::parse("slow-edge@1").expect("fault plan")),
        ..ServerOptions::default()
    };
    let server = SocketServer::spawn(opts, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    assert!(replay(
        addr,
        r#"{"type":"load","session":"s","gen":"synthetic:3:40:5"}"#
    )
    .contains("\"request\":\"load\""));

    const ANALYZE: &str = r#"{"type":"analyze","session":"s","analysis":"taint"}"#;
    let racer = std::thread::spawn(move || replay(addr, ANALYZE));
    std::thread::sleep(std::time::Duration::from_millis(300));
    let second = replay(addr, ANALYZE);
    let first = racer.join().expect("racer client");

    let refused = |s: &str| s.contains("\"error\":\"overloaded\"") && s.contains("at capacity");
    let completed = |s: &str| s.contains("\"request\":\"analyze\"") && !s.contains("overloaded");
    assert!(
        (completed(&first) && refused(&second)) || (refused(&first) && completed(&second)),
        "exactly one analyze must complete and the other bounce:\n\
         first:  {first}\
         second: {second}"
    );
    shut_down(addr, server);
}

/// docs/PROTOCOL.md §Framing over TCP: a request line that is not valid
/// UTF-8 is answered with a message-only error and the connection keeps
/// serving the requests behind it.
#[test]
fn non_utf8_line_is_answered_and_the_connection_keeps_serving() {
    let server = SocketServer::spawn(ServerOptions::default(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(b"\xff\xfe\n{\"type\":\"evict\"}\n")
        .expect("write");
    writer.flush().expect("flush");
    let mut got = String::new();
    for _ in 0..2 {
        assert!(
            reader.read_line(&mut got).expect("read") > 0,
            "server closed the connection after: {got:?}"
        );
    }
    assert_eq!(
        got,
        "{\"type\":\"error\",\"message\":\"request line is not valid UTF-8\"}\n\
         {\"type\":\"ok\",\"request\":\"evict\",\"evicted\":0}\n"
    );
    shut_down(addr, server);
}
