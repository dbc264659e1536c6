//! Acceptance tests for the resident analysis server: warm-path cache
//! hits with zero propagations, incremental re-analysis strictly below
//! a cold solve with bit-identical results, a solver memo kept only
//! after a complete solve, shard-invariant responses, budgeted solves
//! that no other session perturbs, malformed-input resilience (down to
//! request lines that are not valid UTF-8 or exceed the line cap, and
//! generated subjects past their size bounds), one write per response
//! line, and an injected fault counted only when a solve runs with it.

use spllift_json::{parse_json, Json};
use spllift_server::{Server, ServerOptions, MAX_REQUEST_LINE};
use spllift_spl::{FaultPlan, PANIC_IN_FLOW_MESSAGE};

/// A taint subject in the repro text format (so statement indices are
/// pinned): `main` calls `secret` → `h2` → `h1` and `h3`; the `y = 0`
/// kill is annotated with feature `F`, so the `print(y)` leak exists
/// exactly under `!F`. Method ids: secret=m0, print=m1, h1=m2, h2=m3,
/// h3=m4, main=m5.
const SRC: &str = "\
# spllift repro v1
features F G

method secret(): int
  locals
    0: nop
    1: return 7

method print(p0: int)
  locals
    0: nop
    1: return

method h1(a: int): int
  locals t: int
    0: nop
    1: t = a + 1
    2: return t

method h2(a: int): int
  locals t: int, u: int
    0: nop
    1: t = h1(a)
    2: u = t + 2
    3: return u

method h3(a: int): int
  locals t: int
    0: nop
    1: t = a + 2
    2: return t

method main()
  locals s: int, x: int, y: int
    0: nop
    1: s = secret()
    2: x = h2(s)
    3: y = h3(x)
    4: y = 0 @ F
    5: print(y)
    6: return

entry main
";

fn server(shards: usize) -> Server {
    Server::new(ServerOptions {
        shards,
        ..ServerOptions::default()
    })
}

fn send(srv: &mut Server, req: &Json) -> Json {
    let (resp, _) = srv.handle_line(&req.render());
    parse_json(&resp).unwrap_or_else(|e| panic!("unparseable response: {e}"))
}

fn obj(fields: &[(&str, Json)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    )
}

fn load_req(session: &str) -> Json {
    obj(&[
        ("type", Json::str("load")),
        ("session", Json::str(session)),
        ("source", Json::str(SRC)),
    ])
}

fn analyze_req(session: &str) -> Json {
    obj(&[
        ("type", Json::str("analyze")),
        ("session", Json::str(session)),
        ("analysis", Json::str("taint")),
    ])
}

/// Replaces `h3` with a body computing `a + 5` instead of `a + 2` —
/// a change that dirties only `h3` and its one caller `main`.
fn edit_req(session: &str) -> Json {
    obj(&[
        ("type", Json::str("edit")),
        ("session", Json::str(session)),
        ("method", Json::str("h3")),
        ("locals", Json::str("t: int")),
        (
            "stmts",
            Json::Arr(vec![
                Json::str("0: nop"),
                Json::str("1: t = a + 5"),
                Json::str("2: return t"),
            ]),
        ),
    ])
}

fn field<'a>(resp: &'a Json, key: &str) -> &'a Json {
    resp.get(key)
        .unwrap_or_else(|| panic!("missing `{key}` in {}", resp.render()))
}

fn num(resp: &Json, key: &str) -> u64 {
    field(resp, key)
        .as_u64()
        .unwrap_or_else(|| panic!("`{key}` not a u64 in {}", resp.render()))
}

fn text<'a>(resp: &'a Json, key: &str) -> &'a str {
    field(resp, key)
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` not a string in {}", resp.render()))
}

fn assert_ok(resp: &Json) {
    assert_eq!(text(resp, "type"), "ok", "response: {}", resp.render());
}

#[test]
fn warm_path_serves_from_cache_with_zero_propagations() {
    let mut srv = server(2);
    assert_ok(&send(&mut srv, &load_req("s1")));

    let cold = send(&mut srv, &analyze_req("s1"));
    assert_ok(&cold);
    assert_eq!(text(&cold, "solve"), "cold");
    assert!(num(&cold, "propagations") > 0);
    let digest = text(&cold, "digest").to_owned();

    // Second analyze: cache hit, zero solver work.
    let warm = send(&mut srv, &analyze_req("s1"));
    assert_ok(&warm);
    assert_eq!(text(&warm, "solve"), "cached");
    assert_eq!(num(&warm, "propagations"), 0);
    assert_eq!(text(&warm, "digest"), digest);

    // Even with the cache evicted, the retained solver memo re-solves
    // the unchanged program without a single propagation.
    let evict = send(&mut srv, &obj(&[("type", Json::str("evict"))]));
    assert_ok(&evict);
    assert_eq!(num(&evict, "evicted"), 1);
    let memo = send(&mut srv, &analyze_req("s1"));
    assert_ok(&memo);
    assert_eq!(text(&memo, "solve"), "incremental");
    assert_eq!(num(&memo, "propagations"), 0);
    assert_eq!(text(&memo, "digest"), digest);

    let stats = send(&mut srv, &obj(&[("type", Json::str("stats"))]));
    assert_ok(&stats);
    let cache = field(&stats, "cache");
    assert_eq!(num(cache, "hits"), 1);
    assert_eq!(num(cache, "misses"), 2);
    assert_eq!(num(cache, "evictions"), 1);
    assert_eq!(num(field(&stats, "last_solve"), "propagations"), 0);
}

#[test]
fn incremental_reanalysis_beats_cold_and_is_bit_identical() {
    let mut srv = server(2);
    // Session `a`: cold solve, then edit h3, then incremental re-solve.
    assert_ok(&send(&mut srv, &load_req("a")));
    let cold_orig = send(&mut srv, &analyze_req("a"));
    assert_eq!(text(&cold_orig, "solve"), "cold");

    let edit = send(&mut srv, &edit_req("a"));
    assert_ok(&edit);
    assert_eq!(num(&edit, "stmts"), 3);

    let inc = send(&mut srv, &analyze_req("a"));
    assert_ok(&inc);
    assert_eq!(text(&inc, "solve"), "incremental");
    let p_inc = num(&inc, "propagations");
    assert!(p_inc > 0, "an edited method must be re-solved");

    // Session `b`: same program, same edit, but solved cold (the cache
    // is cleared so the incremental result cannot leak in).
    assert_ok(&send(&mut srv, &load_req("b")));
    assert_ok(&send(&mut srv, &edit_req("b")));
    assert_ok(&send(&mut srv, &obj(&[("type", Json::str("evict"))])));
    let cold_edit = send(&mut srv, &analyze_req("b"));
    assert_ok(&cold_edit);
    assert_eq!(text(&cold_edit, "solve"), "cold");
    let p_cold = num(&cold_edit, "propagations");

    assert!(
        p_inc < p_cold,
        "incremental ({p_inc}) must be strictly below cold ({p_cold})"
    );
    // Bit-identical solution: same digest over every (stmt, fact,
    // constraint) row, and the same fact count.
    assert_eq!(text(&inc, "digest"), text(&cold_edit, "digest"));
    assert_eq!(num(&inc, "facts"), num(&cold_edit, "facts"));
}

/// A slot keeps a memo only after a complete full-precision solve. Each
/// case solves cold, annotates `h3`'s assignment with `G` (so its
/// re-solve conjoins constraints), and then sends an `analyze` with one
/// extra field: none (it completes), an op budget only the
/// constraint-true point fits (it degrades), or a propagation cap no
/// lattice point fits (it aborts at every point). After a second edit,
/// an unbudgeted `analyze` re-solves incrementally only after the
/// complete one.
#[test]
fn a_slot_keeps_a_memo_only_after_a_complete_solve() {
    let cases = [
        (None, "complete", "incremental"),
        (Some(("bdd_op_budget", 1)), "degraded", "cold"),
        (Some(("max_propagations", 1)), "aborted", "cold"),
    ];
    for (budget, middle, next) in cases {
        let mut srv = server(1);
        assert_ok(&send(&mut srv, &load_req("s")));
        assert_eq!(text(&send(&mut srv, &analyze_req("s")), "solve"), "cold");
        assert_ok(&send(&mut srv, &edit_t("s", "h3", "a + 5 @ G")));
        let mut budgeted = analyze_req("s");
        if let (Json::Obj(fields), Some((key, value))) = (&mut budgeted, budget) {
            fields.push((key.to_owned(), Json::Num(f64::from(value))));
        }
        let resp = send(&mut srv, &budgeted);
        let outcome = match resp.get("outcome").and_then(Json::as_str) {
            Some(outcome) => outcome,
            None => {
                assert!(
                    text(&resp, "message").contains("solve aborted at every ladder rung"),
                    "response: {}",
                    resp.render()
                );
                "aborted"
            }
        };
        assert_eq!(outcome, middle, "response: {}", resp.render());
        assert_ok(&send(&mut srv, &edit_t("s", "h3", "a + 6")));
        let after = send(&mut srv, &analyze_req("s"));
        assert_ok(&after);
        assert_eq!(text(&after, "solve"), next, "after the {middle} solve");
    }
}

#[test]
fn queries_answer_constraints_and_configurations() {
    let mut srv = server(3);
    assert_ok(&send(&mut srv, &load_req("q")));
    assert_ok(&send(&mut srv, &analyze_req("q")));

    let query = obj(&[
        ("type", Json::str("query")),
        ("session", Json::str("q")),
        ("analysis", Json::str("taint")),
        (
            "queries",
            Json::Arr(vec![
                // The entry nop is reachable unconditionally.
                obj(&[
                    ("kind", Json::str("reachability_of")),
                    ("stmt", Json::str("main:0")),
                ]),
                // `y = 0 @ F` is still *reached* in every variant — the
                // annotation gates its effect, not its CFG position.
                obj(&[
                    ("kind", Json::str("reachability_of")),
                    ("stmt", Json::str("main:4")),
                ]),
                // y (LocalId(2)) is tainted at the print call iff !F.
                obj(&[
                    ("kind", Json::str("constraint_of")),
                    ("stmt", Json::str("main:5")),
                    ("fact", Json::str("Local(LocalId(2))")),
                ]),
                obj(&[
                    ("kind", Json::str("holds_in")),
                    ("stmt", Json::str("main:5")),
                    ("fact", Json::str("Local(LocalId(2))")),
                    ("config", Json::Arr(vec![])),
                ]),
                obj(&[
                    ("kind", Json::str("holds_in")),
                    ("stmt", Json::str("main:5")),
                    ("fact", Json::str("Local(LocalId(2))")),
                    ("config", Json::Arr(vec![Json::str("F")])),
                ]),
                // Unknown fact: semantically ⊥, not an error.
                obj(&[
                    ("kind", Json::str("constraint_of")),
                    ("stmt", Json::str("main:0")),
                    ("fact", Json::str("Local(LocalId(99))")),
                ]),
                // Unknown statement: a per-query error.
                obj(&[
                    ("kind", Json::str("reachability_of")),
                    ("stmt", Json::str("main:99")),
                ]),
            ]),
        ),
    ]);
    let resp = send(&mut srv, &query);
    assert_ok(&resp);
    assert_eq!(num(&resp, "count"), 7);
    let results = field(&resp, "results").as_arr().unwrap();

    assert_eq!(text(&results[0], "constraint"), "true");
    assert_eq!(results[0].get("stmt").unwrap().as_str(), Some("m5:0"));
    assert_eq!(text(&results[1], "constraint"), "true");
    assert_eq!(text(&results[2], "constraint"), "(!F)");
    assert_eq!(results[3].get("holds"), Some(&Json::Bool(true)));
    assert_eq!(results[4].get("holds"), Some(&Json::Bool(false)));
    assert_eq!(text(&results[5], "constraint"), "false");
    assert!(text(&results[6], "error").contains("out of range"));
}

#[test]
fn responses_are_byte_identical_for_every_shard_count() {
    let requests: Vec<String> = vec![
        load_req("j").render(),
        analyze_req("j").render(),
        obj(&[
            ("type", Json::str("query")),
            ("session", Json::str("j")),
            (
                "queries",
                Json::Arr(
                    (0..7)
                        .flat_map(|i| {
                            [
                                obj(&[
                                    ("kind", Json::str("reachability_of")),
                                    ("stmt", Json::str(format!("main:{i}"))),
                                ]),
                                obj(&[
                                    ("kind", Json::str("constraint_of")),
                                    ("stmt", Json::str(format!("main:{i}"))),
                                    ("fact", Json::str("Local(LocalId(2))")),
                                ]),
                            ]
                        })
                        .collect(),
                ),
            ),
        ])
        .render(),
        edit_req("j").render(),
        analyze_req("j").render(),
        obj(&[("type", Json::str("stats"))]).render(),
        obj(&[("type", Json::str("shutdown"))]).render(),
    ];
    let transcript = |shards: usize| -> String {
        let mut srv = server(shards);
        let mut out = String::new();
        for req in &requests {
            let (resp, shutdown) = srv.handle_line(req);
            out.push_str(&resp);
            out.push('\n');
            if shutdown {
                break;
            }
        }
        out
    };
    let one = transcript(1);
    assert_eq!(one, transcript(2), "shards=2 diverges from shards=1");
    assert_eq!(one, transcript(8), "shards=8 diverges from shards=1");
}

/// A budget meters only its own session's BDD work: session `b`'s
/// budgeted `analyze` answers the same bytes whether or not session `a`
/// first solved another analysis of the same program. (Sessions of one
/// program that share a BDD manager let `a`'s nodes and memo entries
/// spare `b`'s budget, which then lands on a different lattice point.)
#[test]
fn budgeted_solve_is_independent_of_other_sessions_of_the_same_program() {
    const LOAD_A: &str = r#"{"type":"load","session":"a","gen":"synthetic:4:120:7"}"#;
    const LOAD_B: &str = r#"{"type":"load","session":"b","gen":"synthetic:4:120:7"}"#;
    const ANALYZE_A: &str = r#"{"type":"analyze","session":"a","analysis":"reaching-defs"}"#;
    let last_response = |lines: &[&str]| {
        let mut srv = server(1);
        lines.iter().map(|l| srv.handle_line(l).0).last().unwrap()
    };
    for budget in [r#""bdd_node_budget":20"#, r#""bdd_op_budget":60"#] {
        let analyze_b =
            format!(r#"{{"type":"analyze","session":"b","analysis":"taint",{budget}}}"#);
        let alone = last_response(&[LOAD_B, &analyze_b]);
        assert!(
            alone.starts_with(r#"{"type":"ok","request":"analyze""#),
            "{alone}"
        );
        let after_a = last_response(&[LOAD_A, LOAD_B, ANALYZE_A, &analyze_b]);
        assert_eq!(after_a, alone, "{budget}");
    }
}

/// [`analyze_req`] plus a `threads` field.
fn analyze_threads_req(session: &str, threads: u64) -> Json {
    obj(&[
        ("type", Json::str("analyze")),
        ("session", Json::str(session)),
        ("analysis", Json::str("taint")),
        ("threads", Json::Num(threads as f64)),
    ])
}

#[test]
fn analyze_threads_field_is_validated_but_has_no_effect() {
    // Protocol versioning is additive-only: `threads` is still accepted
    // and validated, but the solver is sequential, so the field must not
    // change a single response byte.
    let transcript = |analyze: &dyn Fn(&str) -> Json| -> String {
        let mut srv = server(1);
        let requests = [
            load_req("t"),
            analyze("t"),
            edit_req("t"),
            analyze("t"),
            analyze("t"),
        ];
        let mut out = String::new();
        for req in &requests {
            out.push_str(&srv.handle_line(&req.render()).0);
            out.push('\n');
        }
        out
    };
    assert_eq!(
        transcript(&|s| analyze_threads_req(s, 4)),
        transcript(&analyze_req)
    );

    let mut srv = server(1);
    assert_ok(&send(&mut srv, &load_req("z")));
    let resp = send(&mut srv, &analyze_threads_req("z", 0));
    assert_eq!(text(&resp, "type"), "error", "response: {}", resp.render());
    assert!(
        text(&resp, "message").contains("`threads` must be >= 1"),
        "response: {}",
        resp.render()
    );
}

#[test]
fn malformed_requests_error_and_the_server_keeps_serving() {
    let mut srv = server(2);
    let err = |srv: &mut Server, line: &str| -> String {
        let (resp, shutdown) = srv.handle_line(line);
        assert!(!shutdown);
        let v = parse_json(&resp).unwrap();
        assert_eq!(text(&v, "type"), "error", "response: {resp}");
        text(&v, "message").to_owned()
    };

    // Truncated JSON.
    assert!(err(&mut srv, "{\"type\":\"loa").contains("json parse error"));
    // Unknown request type.
    assert!(err(&mut srv, "{\"type\":\"flush\"}").contains("unknown request type"));
    // Query against a session that was never loaded.
    let unloaded = obj(&[
        ("type", Json::str("query")),
        ("session", Json::str("ghost")),
        ("queries", Json::Arr(vec![])),
    ]);
    assert!(err(&mut srv, &unloaded.render()).contains("unknown session"));
    // Load with no program payload at all.
    assert!(err(&mut srv, "{\"type\":\"load\",\"session\":\"x\"}").contains("exactly one"));
    // Generated subjects past their size bounds, refused before any
    // generation work, each error naming its bound.
    for (spec, bound) in [
        ("synthetic:3:20000000:1", "at most 100000"),
        ("synthetic:3:40:1:depth=20000", "1..=10000"),
    ] {
        let load = obj(&[
            ("type", Json::str("load")),
            ("session", Json::str("big")),
            ("gen", Json::str(spec)),
        ]);
        let msg = err(&mut srv, &load.render());
        assert!(msg.contains(bound), "{spec}: {msg}");
    }

    // The server still serves after every failure above.
    assert_ok(&send(&mut srv, &load_req("x")));
    // Query before analyze is an error, then analyze unlocks it.
    let early = obj(&[
        ("type", Json::str("query")),
        ("session", Json::str("x")),
        ("queries", Json::Arr(vec![])),
    ]);
    assert!(err(&mut srv, &early.render()).contains("analyze"));
    assert_ok(&send(&mut srv, &analyze_req("x")));
    // Edit of an unknown method fails and leaves the session usable...
    let bad_edit = obj(&[
        ("type", Json::str("edit")),
        ("session", Json::str("x")),
        ("method", Json::str("nope")),
        ("stmts", Json::Arr(vec![])),
    ]);
    assert!(err(&mut srv, &bad_edit.render()).contains("unknown method"));
    // ...with its solution still current (no spurious invalidation).
    let warm = send(&mut srv, &analyze_req("x"));
    assert_eq!(text(&warm, "solve"), "cached");

    // An edit that breaks a program invariant is rejected atomically.
    let broken_edit = obj(&[
        ("type", Json::str("edit")),
        ("session", Json::str("x")),
        ("method", Json::str("h3")),
        ("stmts", Json::Arr(vec![Json::str("0: nop")])),
    ]);
    let msg = err(&mut srv, &broken_edit.render());
    assert!(msg.contains("invalid program"), "got: {msg}");
    let still = send(&mut srv, &analyze_req("x"));
    assert_eq!(
        text(&still, "solve"),
        "cached",
        "edit must have rolled back"
    );
}

#[test]
fn unknown_analysis_is_a_message_only_error_and_the_session_keeps_serving() {
    let mut srv = server(1);
    assert_ok(&send(&mut srv, &load_req("u")));
    assert_ok(&send(&mut srv, &analyze_req("u")));
    for request in ["analyze", "query"] {
        let bogus = obj(&[
            ("type", Json::str(request)),
            ("session", Json::str("u")),
            ("analysis", Json::str("bogus")),
            ("queries", Json::Arr(vec![])),
        ]);
        let (resp, shutdown) = srv.handle_line(&bogus.render());
        assert!(!shutdown);
        let names = ["taint", "types", "reaching-defs", "uninit"].join("|");
        let want = format!(r#"{{"type":"error","message":"unknown analysis `bogus` ({names})"}}"#);
        assert_eq!(resp, want, "{request}");
    }
    // The session's slot survived: the same analyze is still a cache hit.
    assert_eq!(text(&send(&mut srv, &analyze_req("u")), "solve"), "cached");
}

/// docs/PROTOCOL.md §Framing: every request line gets exactly one
/// response and a bad line never closes the stream — including a line
/// that is not valid UTF-8, fed as raw bytes through the stdio
/// transport. `\r\n` terminators and blank lines frame as before.
#[test]
fn non_utf8_line_is_answered_and_the_stdio_stream_keeps_serving() {
    let input: &[u8] = b"{\"type\":\"evict\"}\n\xff\xfe\r\n\n{\"type\":\"evict\"}\r\n";
    let mut out = Vec::new();
    server(1)
        .run(input, &mut out)
        .expect("a bad request line is not an I/O error");
    assert_eq!(
        String::from_utf8(out).expect("utf-8 responses"),
        "{\"type\":\"ok\",\"request\":\"evict\",\"evicted\":0}\n\
         {\"type\":\"error\",\"message\":\"request line is not valid UTF-8\"}\n\
         {\"type\":\"ok\",\"request\":\"evict\",\"evicted\":0}\n"
    );
}

/// A `Write` that records every `write` call it receives.
#[derive(Default)]
struct WriteLog(Vec<Vec<u8>>);

impl std::io::Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// docs/PROTOCOL.md §Framing: each response line — payload and `\n` —
/// leaves in one write. A terminator written on its own becomes a
/// second TCP segment that Nagle's algorithm can hold for a delayed-ACK
/// interval.
#[test]
fn each_response_line_is_one_write() {
    let input = concat!(
        r#"{"type":"load","session":"w","gen":"synthetic:3:40:5"}"#,
        "\n",
        r#"{"type":"analyze","session":"w"}"#,
        "\n",
        r#"{"type":"stats"}"#,
        "\n",
        "{\"type\":\"loa\n",
    );
    let mut log = WriteLog::default();
    server(1)
        .run(input.as_bytes(), &mut log)
        .expect("in-memory serve");
    let kinds = ["load", "analyze", "stats", "json parse error"];
    assert_eq!(log.0.len(), kinds.len(), "one write per response");
    for (write, kind) in log.0.iter().zip(kinds) {
        let line = std::str::from_utf8(write).expect("utf-8 response");
        assert!(
            line.ends_with('\n') && line.matches('\n').count() == 1,
            "a write must be exactly one response line: {line:?}"
        );
        assert!(line.contains(kind), "expected a {kind} response: {line}");
    }
}

/// docs/PROTOCOL.md §Framing: a request line longer than
/// `MAX_REQUEST_LINE` bytes is answered with one message-only error,
/// its remainder is discarded, and the stream keeps serving. A line of
/// exactly the cap is still a request.
#[test]
fn overlong_request_line_is_answered_and_the_stream_keeps_serving() {
    const EVICT: &str = r#"{"type":"evict"}"#;
    let padded = |len: usize| format!("{EVICT}{}\n", " ".repeat(len - EVICT.len()));
    let input = format!(
        "{}{}{EVICT}\n",
        padded(MAX_REQUEST_LINE),
        padded(MAX_REQUEST_LINE + 1)
    );
    let mut out = Vec::new();
    server(1)
        .run(input.as_bytes(), &mut out)
        .expect("an overlong request line is not an I/O error");
    let evicted = "{\"type\":\"ok\",\"request\":\"evict\",\"evicted\":0}\n";
    assert_eq!(
        String::from_utf8(out).expect("utf-8 responses"),
        format!(
            "{evicted}\
             {{\"type\":\"error\",\"message\":\"request line exceeds 16777216 bytes\"}}\n\
             {evicted}"
        )
    );
}

#[test]
fn cache_evicts_least_recently_used_under_entry_budget() {
    let mut srv = Server::new(ServerOptions {
        cache_entries: 1,
        cache_bytes: 1 << 30,
        ..ServerOptions::default()
    });
    assert_ok(&send(&mut srv, &load_req("s")));
    assert_ok(&send(&mut srv, &analyze_req("s")));
    // A second analysis displaces the first from the 1-entry cache.
    let types = obj(&[
        ("type", Json::str("analyze")),
        ("session", Json::str("s")),
        ("analysis", Json::str("types")),
    ]);
    assert_ok(&send(&mut srv, &types));
    let stats = send(&mut srv, &obj(&[("type", Json::str("stats"))]));
    let cache = field(&stats, "cache");
    assert_eq!(num(cache, "entries"), 1);
    assert_eq!(num(cache, "evictions"), 1);
    // The taint entry is gone (miss), the types entry survives as LRU.
    let again = send(&mut srv, &analyze_req("s"));
    assert_ne!(text(&again, "solve"), "cached");
}

/// Replays `requests` through a server armed with the fault `plan`, and
/// returns `stats.governance`'s `faults_injected` and `analyze_requests`
/// with the number of responses that report the injected panic.
fn fault_counters(plan: &str, requests: &[Json]) -> (u64, u64, u64) {
    let mut srv = Server::new(ServerOptions {
        inject_fault: Some(FaultPlan::parse(plan).expect("fault plan")),
        ..ServerOptions::default()
    });
    let fired = requests
        .iter()
        .filter(|req| {
            let resp = send(&mut srv, req);
            resp.get("message").and_then(Json::as_str) == Some(PANIC_IN_FLOW_MESSAGE)
        })
        .count() as u64;
    let stats = send(&mut srv, &obj(&[("type", Json::str("stats"))]));
    let governance = field(&stats, "governance");
    (
        num(governance, "faults_injected"),
        num(governance, "analyze_requests"),
        fired,
    )
}

#[test]
fn an_injected_fault_is_counted_only_when_a_solve_runs_with_it() {
    // The trigger ordinal is an `analyze` of a session never loaded: it
    // is answered `unknown session`, and `s` then solves clean.
    let ghost = [analyze_req("ghost"), load_req("s"), analyze_req("s")];
    assert_eq!(fault_counters("panic-in-flow@1", &ghost), (0, 2, 0));
    // The trigger ordinal is answered from the cross-session cache: `b`
    // holds the program `a` already solved.
    let cached = [
        load_req("a"),
        analyze_req("a"),
        load_req("b"),
        analyze_req("b"),
    ];
    assert_eq!(fault_counters("panic-in-flow@2", &cached), (0, 2, 0));
    // A cold solve at the trigger ordinal runs with the fault.
    let cold = [load_req("s"), analyze_req("s")];
    assert_eq!(fault_counters("panic-in-flow@1", &cold), (1, 1, 1));
}

/// A call chain `main → a → m → c` whose end `c` returns `secret()`, so
/// `main` prints a tainted value. Method ids: secret=m0, print=m1, c=m2,
/// m=m3, a=m4, main=m5.
const CHAIN: &str = "\
# spllift repro v1
features F

method secret(): int
  locals
    0: nop
    1: return 7

method print(p0: int)
  locals
    0: nop
    1: return

method c(): int
  locals t: int
    0: nop
    1: t = secret()
    2: return t

method m(): int
  locals t: int
    0: nop
    1: t = c()
    2: return t

method a(): int
  locals t: int
    0: nop
    1: t = m()
    2: return t

method main()
  locals x: int
    0: nop
    1: x = a()
    2: print(x)
    3: return

entry main
";

/// Replaces the body of the one-local method `method` with `t = <rhs>;
/// return t`.
fn edit_t(session: &str, method: &str, rhs: &str) -> Json {
    obj(&[
        ("type", Json::str("edit")),
        ("session", Json::str(session)),
        ("method", Json::str(method)),
        ("locals", Json::str("t: int")),
        (
            "stmts",
            Json::Arr(vec![
                Json::str("0: nop"),
                Json::str(format!("1: t = {rhs}")),
                Json::str("2: return t"),
            ]),
        ),
    ])
}

/// A memo holds no entries of a method that was unreachable when it was
/// solved. Cutting `a → m` makes `m` and `c` unreachable; the edit of
/// `c` that follows then dirties no reachable method, so a memo that
/// still held `m`'s summary — which returns `c`'s secret — would hand
/// it back, stale, once `a` calls `m` again.
#[test]
fn an_edit_to_an_unreachable_callee_leaves_no_stale_summary() {
    let mut srv = server(2);
    let load = |session: &str| {
        obj(&[
            ("type", Json::str("load")),
            ("session", Json::str(session)),
            ("source", Json::str(CHAIN)),
        ])
    };
    assert_ok(&send(&mut srv, &load("s")));
    assert_eq!(text(&send(&mut srv, &analyze_req("s")), "solve"), "cold");
    let mut answers = Vec::new();
    for (method, rhs) in [("a", "1"), ("c", "0"), ("a", "m()")] {
        assert_ok(&send(&mut srv, &edit_t("s", method, rhs)));
        let answer = send(&mut srv, &analyze_req("s"));
        assert_ok(&answer);
        answers.push(answer);
    }
    let third = &answers[2];
    assert_eq!(text(third, "solve"), "incremental");

    // The same program, solved cold in a fresh session: without the
    // evict it would be answered from the cache.
    assert_ok(&send(&mut srv, &load("fresh")));
    assert_ok(&send(&mut srv, &edit_t("fresh", "c", "0")));
    assert_ok(&send(&mut srv, &obj(&[("type", Json::str("evict"))])));
    let cold = send(&mut srv, &analyze_req("fresh"));
    assert_eq!(text(&cold, "solve"), "cold");
    assert_eq!(text(third, "digest"), text(&cold, "digest"));
}
