//! Acceptance tests for the resident analysis server: warm-path cache
//! hits with zero propagations, incremental re-analysis strictly below
//! a cold solve with bit-identical results, jobs-invariant responses,
//! and malformed-input resilience (down to request lines that are not
//! valid UTF-8).

use spllift_json::{parse_json, Json};
use spllift_server::{Server, ServerOptions};

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

fn server(jobs: usize) -> Server {
    Server::new(ServerOptions {
        jobs,
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
fn responses_are_byte_identical_for_every_jobs_value() {
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
    let transcript = |jobs: usize| -> String {
        let mut srv = server(jobs);
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
    assert_eq!(one, transcript(2), "jobs=2 diverges from jobs=1");
    assert_eq!(one, transcript(8), "jobs=8 diverges from jobs=1");
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

#[test]
fn cache_evicts_least_recently_used_under_entry_budget() {
    let mut srv = Server::new(ServerOptions {
        jobs: 1,
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
