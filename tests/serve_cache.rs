//! Solution-cache eviction under a byte budget: with a budget that fits
//! roughly one rendered solution, analyzing several subjects in
//! rotation must evict (visible in the `stats` counters), and a
//! re-analyze after eviction must be a genuine cold solve whose digest
//! is bit-identical to the original — eviction costs time, never
//! correctness.

use spllift::json::{parse_json, Json};
use spllift::server::{Server, ServerOptions};

fn drive(server: &mut Server, line: &str) -> Json {
    let (resp, _shutdown) = server.handle_line(line);
    parse_json(&resp).expect("server responses are valid json")
}

fn field<'a>(resp: &'a Json, key: &str) -> &'a Json {
    resp.get(key)
        .unwrap_or_else(|| panic!("response missing `{key}`: {resp:?}"))
}

fn analyze(server: &mut Server, session: &str) -> (String, String) {
    let resp = drive(
        server,
        &format!("{{\"type\":\"analyze\",\"session\":\"{session}\"}}"),
    );
    assert_eq!(field(&resp, "type").as_str(), Some("ok"), "{resp:?}");
    (
        field(&resp, "solve").as_str().unwrap().to_owned(),
        field(&resp, "digest").as_str().unwrap().to_owned(),
    )
}

#[test]
fn eviction_under_byte_budget_keeps_solves_bit_identical() {
    // ~8 KiB fits one rendered solution of these subjects, not three.
    let mut server = Server::new(ServerOptions {
        cache_bytes: 8 << 10,
        ..ServerOptions::default()
    });
    let subjects = [
        ("a", "synthetic:3:80:1"),
        ("b", "synthetic:3:80:2"),
        ("c", "synthetic:3:80:3"),
    ];
    for (name, spec) in subjects {
        let resp = drive(
            &mut server,
            &format!("{{\"type\":\"load\",\"session\":\"{name}\",\"gen\":\"{spec}\"}}"),
        );
        assert_eq!(field(&resp, "type").as_str(), Some("ok"), "{resp:?}");
    }

    // First pass: three cold solves, whose digests we pin.
    let mut cold = Vec::new();
    for (name, _) in subjects {
        let (solve, digest) = analyze(&mut server, name);
        assert_eq!(solve, "cold");
        cold.push(digest);
    }

    // The byte budget cannot hold all three: evictions must be counted.
    let stats = drive(&mut server, "{\"type\":\"stats\"}");
    let cache = field(&stats, "cache");
    let evictions = field(cache, "evictions").as_u64().unwrap();
    let entries = field(cache, "entries").as_u64().unwrap();
    assert!(evictions >= 2, "no evictions under 8 KiB budget: {stats:?}");
    // The newest entry is always retained, even when it alone exceeds
    // the byte budget; everything older must have been evicted.
    assert_eq!(entries, 1, "{stats:?}");

    // Second pass: the evicted subjects re-solve (cold — their sessions'
    // memos are intact but the rotation also proves the cache path), and
    // every digest is bit-identical to the first pass.
    let mut hits = 0;
    for ((name, _), expected) in subjects.iter().zip(&cold) {
        let (solve, digest) = analyze(&mut server, name);
        assert_eq!(
            &digest, expected,
            "re-analyze of `{name}` after eviction diverged"
        );
        if solve == "cached" {
            hits += 1;
        }
    }
    assert!(hits < 3, "nothing was evicted, test is vacuous");

    let stats = drive(&mut server, "{\"type\":\"stats\"}");
    let cache = field(&stats, "cache");
    assert!(field(cache, "evictions").as_u64().unwrap() >= evictions);
    assert!(field(cache, "misses").as_u64().unwrap() >= 4);
}

#[test]
fn degraded_solves_at_any_lattice_point_never_enter_the_cache() {
    // A budget that forces the governor off full precision but not to
    // the bottom: on the 12-feature groups subject 1000 BDD ops rule out
    // `full` and `confound(Root)` while the keep-sparing projection
    // fits, so the solve lands on a composite, non-bottom lattice point.
    let mut server = Server::new(ServerOptions::default());
    let resp = drive(
        &mut server,
        "{\"type\":\"load\",\"session\":\"s\",\"gen\":\"synthetic:12:400:23:model=groups\"}",
    );
    assert_eq!(field(&resp, "type").as_str(), Some("ok"), "{resp:?}");

    let degraded = drive(
        &mut server,
        "{\"type\":\"analyze\",\"session\":\"s\",\"bdd_op_budget\":1000,\
         \"keep_features\":[\"F0\",\"F1\"]}",
    );
    assert_eq!(field(&degraded, "outcome").as_str(), Some("degraded"));
    let rung = field(&degraded, "rung").as_str().unwrap().to_owned();
    assert!(
        rung.starts_with("project(") && rung != "constraint-true",
        "want a non-bottom lattice point, got `{rung}`"
    );
    // The degraded answer must not occupy a cache slot: a later,
    // better-funded solve of the same program would be shadowed by it
    // (the key carries no budget).
    let stats = drive(&mut server, "{\"type\":\"stats\"}");
    assert_eq!(
        field(field(&stats, "cache"), "entries").as_u64(),
        Some(0),
        "degraded solution entered the cache: {stats:?}"
    );

    // Retry with the budget raised (lifted entirely): a genuine cold
    // re-solve at full precision.
    let (solve, digest) = analyze(&mut server, "s");
    assert_eq!(solve, "cold");
    let full = drive(&mut server, "{\"type\":\"analyze\",\"session\":\"s\"}");
    assert_eq!(field(&full, "solve").as_str(), Some("cached"));
    assert_eq!(field(&full, "outcome").as_str(), Some("complete"));
    assert_eq!(field(&full, "rung").as_str(), Some("full"));
    assert_eq!(field(&full, "digest").as_str(), Some(digest.as_str()));
    let stats = drive(&mut server, "{\"type\":\"stats\"}");
    assert_eq!(field(field(&stats, "cache"), "entries").as_u64(), Some(1));
    // The governance counters attribute the one degradation to the
    // exact lattice point it landed on.
    let gov = field(&stats, "governance");
    let by_point = field(field(gov, "degraded_points"), &rung);
    assert_eq!(by_point.as_u64(), Some(1), "{stats:?}");
}
