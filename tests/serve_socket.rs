//! Socket-transport tests for the multi-client server: per-session
//! determinism (each session's response stream is byte-identical to the
//! single-client stdio server, at any shard count and under
//! concurrency), fault isolation between co-resident sessions,
//! admission control, request framing, and round trips free of the
//! delayed-ACK stall.
//!
//! The committed fixtures `tests/serve/socket-client{1,2,3}.*` are three
//! scripted clients: the first test below replays them concurrently at
//! 1, 2 and 4 shards and checks that their goldens are not stale.

use spllift::server::{Server, ServerOptions, SocketServer};
use spllift_spl::FaultPlan;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn fixture(name: &str) -> String {
    std::fs::read_to_string(format!("tests/serve/{name}")).expect("fixture file")
}

/// Opens a connection with Nagle's algorithm off on the client side.
/// Every client here writes a request line in one `write_all`, so a
/// request leaves at once and only the server can stall a round trip.
fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut resp = String::new();
    assert!(
        reader.read_line(&mut resp).expect("read") > 0,
        "server closed the connection mid-script"
    );
    resp
}

/// Replays `requests` over one fresh connection, one response per
/// request, and returns the newline-terminated response stream.
fn replay(addr: SocketAddr, requests: &str) -> String {
    let (mut reader, mut writer) = connect(addr);
    let mut got = String::new();
    for req in requests.lines().filter(|l| !l.trim().is_empty()) {
        writer
            .write_all(format!("{req}\n").as_bytes())
            .expect("write");
        got.push_str(&read_response(&mut reader));
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
    let (mut reader, mut writer) = connect(addr);
    writer
        .write_all(b"\xff\xfe\n{\"type\":\"evict\"}\n")
        .expect("write");
    let got = read_response(&mut reader) + &read_response(&mut reader);
    assert_eq!(
        got,
        "{\"type\":\"error\",\"message\":\"request line is not valid UTF-8\"}\n\
         {\"type\":\"ok\",\"request\":\"evict\",\"evicted\":0}\n"
    );
    shut_down(addr, server);
}

/// docs/PROTOCOL.md §Framing over TCP: a line nesting 100,000 arrays
/// (deep enough to overflow the connection thread's stack were nesting
/// unbounded) and a line carrying a 4 MiB string are each answered with
/// one error line, and the same connection keeps serving.
#[test]
fn hostile_lines_are_answered_and_the_connection_keeps_serving() {
    let server = SocketServer::spawn(ServerOptions::default(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let (mut reader, mut writer) = connect(addr);
    let deep = "[".repeat(100_000);
    let long = format!(r#"{{"type":"bogus","pad":"{}"}}"#, "x".repeat(4 << 20));
    for line in [deep, long, r#"{"type":"stats"}"#.to_owned()] {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }
    let deep = read_response(&mut reader);
    assert!(
        deep.starts_with(r#"{"type":"error","message":"json parse error"#)
            && deep.contains("nesting deeper than 128 levels"),
        "{deep}"
    );
    let long = read_response(&mut reader);
    assert!(
        long.starts_with(r#"{"type":"error","message":"unknown request type `bogus`"#),
        "{}",
        &long[..long.len().min(200)]
    );
    let stats = read_response(&mut reader);
    assert!(
        stats.starts_with(r#"{"type":"ok","request":"stats""#),
        "{stats}"
    );
    shut_down(addr, server);
}

/// docs/PROTOCOL.md §Framing over TCP: requests are framed by their
/// newlines, not by the writes that carry them. A line split across
/// three writes is answered once, after its newline; three lines in one
/// write are answered in order, one response line each.
#[test]
fn requests_are_framed_by_newlines_not_by_writes() {
    const LOAD: &str = r#"{"type":"load","session":"f","gen":"synthetic:3:40:5"}"#;
    const PIPELINED: &str = concat!(
        r#"{"type":"analyze","session":"f"}"#,
        "\n",
        r#"{"type":"bogus"}"#,
        "\n",
        r#"{"type":"evict"}"#,
        "\n",
    );
    let server = SocketServer::spawn(ServerOptions::default(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let (mut reader, mut writer) = connect(addr);

    let (head, rest) = LOAD.split_at(10);
    let (middle, tail) = rest.split_at(20);
    let pause = Some(Duration::from_millis(50));
    reader.get_ref().set_read_timeout(pause).expect("timeout");
    for part in [head, middle] {
        writer.write_all(part.as_bytes()).expect("write");
        let mut early = String::new();
        let err = reader
            .read_line(&mut early)
            .expect_err("no response before the newline");
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{err}: {early:?}"
        );
    }
    reader.get_ref().set_read_timeout(None).expect("timeout");
    writer
        .write_all(format!("{tail}\n").as_bytes())
        .expect("write");
    let mut got = read_response(&mut reader);

    writer.write_all(PIPELINED.as_bytes()).expect("write");
    for _ in 0..3 {
        got.push_str(&read_response(&mut reader));
    }
    assert_eq!(got, stdio_reference(&format!("{LOAD}\n{PIPELINED}")));
    shut_down(addr, server);
}

const STATS: &str = "{\"type\":\"stats\"}\n";

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Sends `count` `stats` requests in one write on `writer` and reads
/// their responses; returns the time from the write to the last one.
fn stats_batch(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    count: usize,
) -> Duration {
    let start = Instant::now();
    writer
        .write_all(STATS.repeat(count).as_bytes())
        .expect("write");
    for _ in 0..count {
        let resp = read_response(reader);
        assert!(resp.contains("\"request\":\"stats\""), "{resp}");
    }
    start.elapsed()
}

/// A small response is not held back for a delayed-ACK interval
/// (at least 40 ms on Linux): sequential `stats` round trips on one
/// connection, after a warm-up, take well under that.
#[test]
fn sequential_round_trips_have_no_delayed_ack_floor() {
    let server = SocketServer::spawn(ServerOptions::default(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let (mut reader, mut writer) = connect(addr);
    stats_batch(&mut reader, &mut writer, 1);
    let trips = (0..20)
        .map(|_| stats_batch(&mut reader, &mut writer, 1))
        .collect();
    let median = median(trips);
    assert!(
        median < Duration::from_millis(15),
        "median sequential stats round trip {median:?}: a response waited for a delayed ACK"
    );
    shut_down(addr, server);
}

/// Pipelined requests: 20 `stats` sent in one write are answered
/// without a response waiting for the client to acknowledge the one
/// before it (the stall `TCP_NODELAY` on the server side removes).
#[test]
fn pipelined_responses_have_no_delayed_ack_floor() {
    let server = SocketServer::spawn(ServerOptions::default(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let (mut reader, mut writer) = connect(addr);
    let batches = (0..5)
        .map(|_| stats_batch(&mut reader, &mut writer, 20))
        .collect();
    let median = median(batches);
    assert!(
        median < Duration::from_millis(20),
        "median time for 20 pipelined stats {median:?}: a response waited for a delayed ACK"
    );
    shut_down(addr, server);
}
