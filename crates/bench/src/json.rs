//! Machine-readable benchmark output: the `BENCH_solver.json` and
//! `BENCH_server.json` emitters and the schema validators CI runs
//! against the emitted files.
//!
//! The JSON value type, parser, and string escaping live in the shared
//! [`spllift_json`] crate (also used by the analysis server's request
//! protocol); this module keeps only the `spllift-bench-solver/v4` and
//! `spllift-bench-server/v2` schemas layered on top.
//!
//! # Schema (`spllift-bench-solver/v4`)
//!
//! ```json
//! {
//!   "schema": "spllift-bench-solver/v4",
//!   "samples": 3,
//!   "machine": {"os": "linux", "arch": "x86_64", "cpus": 8},
//!   "provenance": {"bin": "solver_bench",
//!                  "subjects": "fig1,chat,MM08", "threads": "1,2"},
//!   "entries": [
//!     {
//!       "subject": "MM08",
//!       "analysis": "R. Def.",
//!       "outcome": "complete",
//!       "rung": "full",
//!       "ide": {"propagations": 10, "flow_evals": 20,
//!               "jump_fn_constructions": 8, "killed_early": 1,
//!               "value_updates": 5},
//!       "bdd": {"nodes": 40, "vars": 9, "cache_entries": 100},
//!       "threads": [
//!         {"threads": 1, "samples": 3,
//!          "wall_ns": {"mean": 1234, "min": 1200, "max": 1300},
//!          "results_digest": "a633e32ce4db1594"},
//!         {"threads": 2, "samples": 3,
//!          "wall_ns": {"mean": 700, "min": 690, "max": 720},
//!          "results_digest": "a633e32ce4db1594"}
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Every number is a non-negative integer (nanoseconds for the wall
//! times); the validator additionally rejects any value that does not
//! parse as a *finite* `f64`, so a corrupted emitter fails CI fast.
//!
//! v2 added the governance fields: `outcome` records whether the
//! measured solve completed at full precision (`complete`) or degraded
//! under a resource budget (`degraded`), and `rung` names the
//! abstraction-ladder rung that produced the numbers (`full`,
//! `no-model`, `constraint-true`) — benchmark runs are unbudgeted, so a
//! committed document is expected to say `complete`/`full`, and the
//! validator rejects anything else outside that vocabulary.
//!
//! v3 turned the single wall-clock measurement into a **threads
//! dimension**: each entry is benched per phase-1 worker count (the
//! solver's `--threads`), one cell per count, carrying that cell's
//! wall-clock stats and a `results_digest` over the canonically
//! rendered solution. The validator requires every cell of an entry to
//! carry the *same* digest — the determinism contract (results are
//! byte-identical at every thread count) is checked on every committed
//! document, not just in the test battery. The `ide` counters are
//! taken from the sequential cell: scheduling counters are only
//! deterministic at one thread.
//!
//! v4 (and server v2) made the documents **comparable across runs** for
//! the regression gate (`crate::regress`): a top-level `machine` block
//! (`os`/`arch`/`cpus` — the gate warns when two documents come from
//! different machines), a solver `provenance` block recording the bin
//! and the exact subject/thread lists (so `--check` can re-run the same
//! matrix without re-stating it), and a per-cell `samples` count — the
//! emitter sizes sampling adaptively, so each cell must say how many
//! samples its `min` was taken over. The validator rejects v4 cells
//! lacking any comparator field (`samples`, `wall_ns.min`).
//!
//! The solver has since become sequential: `solver_bench` emits one
//! cell per entry, at `threads = 1`, and `provenance.threads` is `"1"`.
//! A one-cell array is already valid v4, so the schema is unchanged.

use crate::harness::BenchStats;
use spllift_bdd::BddStats;
use spllift_ide::IdeStats;
pub use spllift_json::{escape, parse_json, Json};

/// The schema identifier written to (and required in) the JSON file.
pub const SOLVER_BENCH_SCHEMA: &str = "spllift-bench-solver/v4";

/// The schema identifier of `BENCH_server.json` (the concurrent-server
/// load benchmark emitted by the `server_bench` bin).
pub const SERVER_BENCH_SCHEMA: &str = "spllift-bench-server/v2";

/// The `machine` block both schemas carry: where the numbers were
/// measured. The regression gate never *fails* over a machine change,
/// but it does warn — cross-machine wall-clock ratios are not
/// regressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism at measurement time.
    pub cpus: usize,
}

impl MachineInfo {
    /// The block describing the machine this process runs on.
    pub fn current() -> MachineInfo {
        MachineInfo {
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn render(&self) -> String {
        format!(
            "{{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}}",
            escape(&self.os),
            escape(&self.arch),
            self.cpus
        )
    }

    /// Reads the `machine` block out of a parsed benchmark document
    /// (`None` when absent or malformed — the caller decides whether
    /// that is an error; the validators make it one).
    pub fn from_doc(doc: &Json) -> Option<MachineInfo> {
        let m = doc.get("machine")?;
        Some(MachineInfo {
            os: m.get("os")?.as_str()?.to_owned(),
            arch: m.get("arch")?.as_str()?.to_owned(),
            cpus: m.get("cpus")?.as_f64().filter(|c| *c >= 1.0)? as usize,
        })
    }
}

/// The solver document's `provenance` block: which bin produced it and
/// the exact subject/thread matrix it measured, so `--check` can replay
/// the same matrix from the baseline alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Emitting binary (`solver_bench`).
    pub bin: String,
    /// The `--subjects` list as given.
    pub subjects: String,
    /// The benched thread counts (`"1"`: the solver is sequential).
    pub threads: String,
}

impl Provenance {
    fn render(&self) -> String {
        format!(
            "{{\"bin\": \"{}\", \"subjects\": \"{}\", \"threads\": \"{}\"}}",
            escape(&self.bin),
            escape(&self.subjects),
            escape(&self.threads)
        )
    }

    /// Reads the `provenance` block out of a parsed solver document.
    pub fn from_doc(doc: &Json) -> Option<Provenance> {
        let p = doc.get("provenance")?;
        Some(Provenance {
            bin: p.get("bin")?.as_str()?.to_owned(),
            subjects: p.get("subjects")?.as_str()?.to_owned(),
            threads: p.get("threads")?.as_str()?.to_owned(),
        })
    }
}

/// One concurrency level of the server load benchmark: `sessions`
/// concurrent connections, each driving its own session through a fixed
/// request script against one shared server.
#[derive(Debug, Clone)]
pub struct ServerBenchLevel {
    /// Concurrent sessions (== connections; one session per connection).
    pub sessions: usize,
    /// Total requests answered across all sessions.
    pub requests: usize,
    /// Responses with `"type":"error"` (must be zero in a committed
    /// document — the script only sends valid requests).
    pub errors: usize,
    /// Wall-clock of the whole level, nanoseconds.
    pub wall_ns: u128,
    /// Requests per second over the level's wall-clock.
    pub throughput_rps: f64,
    /// Client-observed per-request latency percentiles (nearest-rank)
    /// and maximum, nanoseconds.
    pub p50_ns: u128,
    /// 90th percentile latency, nanoseconds.
    pub p90_ns: u128,
    /// 99th percentile latency, nanoseconds.
    pub p99_ns: u128,
    /// Maximum latency, nanoseconds.
    pub max_ns: u128,
}

/// Renders the full `BENCH_server.json` document.
pub fn render_server_bench(
    shards: usize,
    requests_per_session: usize,
    machine: &MachineInfo,
    levels: &[ServerBenchLevel],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SERVER_BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"machine\": {},\n", machine.render()));
    out.push_str(&format!("  \"shards\": {shards},\n"));
    out.push_str(&format!(
        "  \"requests_per_session\": {requests_per_session},\n"
    ));
    out.push_str("  \"levels\": [\n");
    for (i, l) in levels.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"sessions\": {}, \"requests\": {}, \"errors\": {},\n",
            l.sessions, l.requests, l.errors
        ));
        out.push_str(&format!(
            "      \"wall_ns\": {}, \"throughput_rps\": {:.3},\n",
            l.wall_ns, l.throughput_rps
        ));
        out.push_str(&format!(
            "      \"latency_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}\n",
            l.p50_ns, l.p90_ns, l.p99_ns, l.max_ns
        ));
        out.push_str(if i + 1 == levels.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `BENCH_server.json` document against the
/// [`SERVER_BENCH_SCHEMA`] shape: schema id, a well-formed `machine`
/// block, at least three concurrency levels, every number finite and
/// non-negative, zero errors, positive throughput, and monotone latency
/// percentiles (p50 ≤ p90 ≤ p99 ≤ max). Returns the level count.
pub fn validate_server_bench(text: &str) -> Result<usize, String> {
    let doc = parse_json(text)?;
    let schema = doc.get("schema").ok_or("missing `schema` key")?.clone();
    if schema != Json::Str(SERVER_BENCH_SCHEMA.into()) {
        return Err(format!(
            "schema mismatch: expected \"{SERVER_BENCH_SCHEMA}\", got {schema:?}"
        ));
    }
    MachineInfo::from_doc(&doc)
        .ok_or("missing or malformed `machine` block (os/arch strings, cpus >= 1)")?;
    let finite = |v: Option<&Json>, what: &str| -> Result<f64, String> {
        v.and_then(Json::as_f64)
            .filter(|n| *n >= 0.0)
            .ok_or_else(|| format!("`{what}` must be a finite non-negative number"))
    };
    finite(doc.get("shards"), "shards")?;
    finite(doc.get("requests_per_session"), "requests_per_session")?;
    let Some(Json::Arr(levels)) = doc.get("levels") else {
        return Err("missing or non-array `levels`".into());
    };
    if levels.len() < 3 {
        return Err(format!(
            "`levels` must cover at least 3 concurrency levels, got {}",
            levels.len()
        ));
    }
    for (i, l) in levels.iter().enumerate() {
        let ctx = |k: &str| format!("levels[{i}].{k}");
        for key in ["sessions", "requests", "wall_ns"] {
            if finite(l.get(key), &ctx(key))? <= 0.0 {
                return Err(format!("{} must be positive", ctx(key)));
            }
        }
        if finite(l.get("errors"), &ctx("errors"))? != 0.0 {
            return Err(format!("{} must be zero", ctx("errors")));
        }
        if finite(l.get("throughput_rps"), &ctx("throughput_rps"))? <= 0.0 {
            return Err(format!("{} must be positive", ctx("throughput_rps")));
        }
        let lat = l
            .get("latency_ns")
            .ok_or_else(|| format!("missing {}", ctx("latency_ns")))?;
        let mut prev = 0.0;
        for key in ["p50", "p90", "p99", "max"] {
            let v = finite(lat.get(key), &format!("{}.{key}", ctx("latency_ns")))?;
            if v < prev {
                return Err(format!(
                    "{} percentiles must be monotone ({key} dropped)",
                    ctx("latency_ns")
                ));
            }
            prev = v;
        }
    }
    Ok(levels.len())
}

/// One thread-count cell of a [`SolverBenchEntry`]: the wall-clock
/// stats of the solve, plus the digest of the canonically rendered
/// solution (identical across an entry's cells, or the validator
/// rejects the document).
#[derive(Debug, Clone)]
pub struct ThreadCell {
    /// Thread count this cell was benched at (`solver_bench` emits 1:
    /// the solver is sequential).
    pub threads: usize,
    /// Wall-clock samples of the full lifted solve at this count.
    pub wall: BenchStats,
    /// `FxHasher64` digest (16 hex digits) over the rendered solution.
    pub results_digest: String,
}

/// One per-subject/per-analysis measurement destined for
/// `BENCH_solver.json`.
#[derive(Debug, Clone)]
pub struct SolverBenchEntry {
    /// Subject name (`fig1`, `chat`, `MM08`, …).
    pub subject: String,
    /// Analysis label (the paper's column label, e.g. `R. Def.`).
    pub analysis: String,
    /// Governed-solve outcome (`complete` or `degraded`).
    pub outcome: String,
    /// Abstraction-ladder rung the numbers came from (`full`,
    /// `no-model`, `constraint-true`).
    pub rung: String,
    /// IDE solver counters.
    pub ide: IdeStats,
    /// BDD manager counters after all samples (shared manager).
    pub bdd: BddStats,
    /// Per-thread-count measurements, in ascending thread order.
    pub threads: Vec<ThreadCell>,
}

/// Renders the full `BENCH_solver.json` document. `samples` is the
/// *requested* sample count; each cell records the count actually taken
/// (adaptive sampling reduces slow cells to one).
pub fn render_solver_bench(
    samples: usize,
    machine: &MachineInfo,
    provenance: &Provenance,
    entries: &[SolverBenchEntry],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SOLVER_BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"machine\": {},\n", machine.render()));
    out.push_str(&format!("  \"provenance\": {},\n", provenance.render()));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"subject\": \"{}\",\n", escape(&e.subject)));
        out.push_str(&format!(
            "      \"analysis\": \"{}\",\n",
            escape(&e.analysis)
        ));
        out.push_str(&format!(
            "      \"outcome\": \"{}\",\n      \"rung\": \"{}\",\n",
            escape(&e.outcome),
            escape(&e.rung)
        ));
        out.push_str(&format!(
            "      \"ide\": {{\"propagations\": {}, \"flow_evals\": {}, \"jump_fn_constructions\": {}, \"killed_early\": {}, \"value_updates\": {}}},\n",
            e.ide.propagations,
            e.ide.flow_evals,
            e.ide.jump_fn_constructions,
            e.ide.killed_early,
            e.ide.value_updates
        ));
        out.push_str(&format!(
            "      \"bdd\": {{\"nodes\": {}, \"vars\": {}, \"cache_entries\": {}}},\n",
            e.bdd.nodes, e.bdd.vars, e.bdd.cache_entries
        ));
        out.push_str("      \"threads\": [\n");
        for (j, c) in e.threads.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"threads\": {}, \"samples\": {}, \"wall_ns\": {{\"mean\": {}, \"min\": {}, \"max\": {}}}, \"results_digest\": \"{}\"}}{}\n",
                c.threads,
                c.wall.samples,
                c.wall.mean.as_nanos(),
                c.wall.min.as_nanos(),
                c.wall.max.as_nanos(),
                escape(&c.results_digest),
                if j + 1 == e.threads.len() { "" } else { "," }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 == entries.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `BENCH_solver.json` document against the
/// [`SOLVER_BENCH_SCHEMA`] shape: schema id, well-formed `machine` and
/// `provenance` blocks, non-empty `entries`, every required key present
/// (including the per-cell comparator fields `samples` and `wall_ns`),
/// every number finite and non-negative, and — the determinism contract
/// — every thread cell of an entry carrying the same `results_digest`.
/// Returns the entry count.
pub fn validate_solver_bench(text: &str) -> Result<usize, String> {
    let doc = parse_json(text)?;
    let schema = doc.get("schema").ok_or("missing `schema` key")?.clone();
    if schema != Json::Str(SOLVER_BENCH_SCHEMA.into()) {
        return Err(format!(
            "schema mismatch: expected \"{SOLVER_BENCH_SCHEMA}\", got {schema:?}"
        ));
    }
    MachineInfo::from_doc(&doc)
        .ok_or("missing or malformed `machine` block (os/arch strings, cpus >= 1)")?;
    Provenance::from_doc(&doc)
        .ok_or("missing or malformed `provenance` block (bin/subjects/threads strings)")?;
    let num = |v: &Json, what: &str| -> Result<f64, String> {
        match v {
            Json::Num(n) if n.is_finite() && *n >= 0.0 => Ok(*n),
            other => Err(format!(
                "`{what}` must be a finite non-negative number, got {other:?}"
            )),
        }
    };
    num(
        doc.get("samples").ok_or("missing `samples` key")?,
        "samples",
    )?;
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        return Err("missing or non-array `entries`".into());
    };
    if entries.is_empty() {
        return Err("`entries` is empty".into());
    }
    for (i, e) in entries.iter().enumerate() {
        let ctx = |k: &str| format!("entries[{i}].{k}");
        for key in ["subject", "analysis"] {
            match e.get(key) {
                Some(Json::Str(s)) if !s.is_empty() => {}
                _ => return Err(format!("{} must be a non-empty string", ctx(key))),
            }
        }
        {
            let allowed = &["complete", "degraded"][..];
            match e.get("outcome") {
                Some(Json::Str(s)) if allowed.contains(&s.as_str()) => {}
                other => {
                    return Err(format!(
                        "{} must be one of {allowed:?}, got {other:?}",
                        ctx("outcome")
                    ))
                }
            }
        }
        // `rung` is a variability-abstraction lattice-point name: the
        // canonical points (`full`, `no-model`, `constraint-true`) or a
        // `+`-joined composite of abstraction steps like
        // `no-model+project(F,G)` — any non-empty name is accepted.
        match e.get("rung") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            other => {
                return Err(format!(
                    "{} must be a non-empty lattice-point name, got {other:?}",
                    ctx("rung")
                ))
            }
        }
        let groups: [(&str, &[&str]); 2] = [
            (
                "ide",
                &[
                    "propagations",
                    "flow_evals",
                    "jump_fn_constructions",
                    "killed_early",
                    "value_updates",
                ],
            ),
            ("bdd", &["nodes", "vars", "cache_entries"]),
        ];
        for (group, keys) in groups {
            let obj = e
                .get(group)
                .ok_or_else(|| format!("missing {}", ctx(group)))?;
            for key in keys {
                let v = obj
                    .get(key)
                    .ok_or_else(|| format!("missing {}.{key}", ctx(group)))?;
                num(v, &format!("{}.{key}", ctx(group)))?;
            }
        }
        let Some(Json::Arr(cells)) = e.get("threads") else {
            return Err(format!("missing or non-array {}", ctx("threads")));
        };
        if cells.is_empty() {
            return Err(format!("{} is empty", ctx("threads")));
        }
        let mut digest: Option<&str> = None;
        let mut prev_threads = 0.0;
        for (j, c) in cells.iter().enumerate() {
            let cctx = |k: &str| format!("entries[{i}].threads[{j}].{k}");
            let t = num(
                c.get("threads")
                    .ok_or_else(|| format!("missing {}", cctx("threads")))?,
                &cctx("threads"),
            )?;
            if t < 1.0 {
                return Err(format!("{} must be >= 1", cctx("threads")));
            }
            if t <= prev_threads {
                return Err(format!(
                    "{} must be in strictly ascending thread order",
                    ctx("threads")
                ));
            }
            prev_threads = t;
            // The comparator fields the regression gate reads: how many
            // samples this cell took (adaptive sampling makes it
            // per-cell) and the wall-clock block its min lives in.
            let s = num(
                c.get("samples")
                    .ok_or_else(|| format!("missing {} (comparator field)", cctx("samples")))?,
                &cctx("samples"),
            )?;
            if s < 1.0 {
                return Err(format!("{} must be >= 1", cctx("samples")));
            }
            let wall = c
                .get("wall_ns")
                .ok_or_else(|| format!("missing {} (comparator field)", cctx("wall_ns")))?;
            for key in ["mean", "min", "max"] {
                let v = wall
                    .get(key)
                    .ok_or_else(|| format!("missing {}.{key}", cctx("wall_ns")))?;
                num(v, &format!("{}.{key}", cctx("wall_ns")))?;
            }
            match c.get("results_digest") {
                Some(Json::Str(d)) if !d.is_empty() => {
                    // The determinism contract: every cell of this
                    // entry must have rendered the exact same solution.
                    match digest {
                        None => digest = Some(d),
                        Some(first) if first == d => {}
                        Some(first) => {
                            return Err(format!(
                                "{}: results_digest \"{d}\" differs from the entry's first cell \"{first}\" — solves are not thread-count invariant",
                                cctx("results_digest")
                            ))
                        }
                    }
                }
                _ => {
                    return Err(format!(
                        "{} must be a non-empty string",
                        cctx("results_digest")
                    ))
                }
            }
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn machine() -> MachineInfo {
        MachineInfo {
            os: "linux".into(),
            arch: "x86_64".into(),
            cpus: 8,
        }
    }

    fn provenance() -> Provenance {
        Provenance {
            bin: "solver_bench".into(),
            subjects: "MM08".into(),
            threads: "1,2,4".into(),
        }
    }

    fn render(samples: usize, entries: &[SolverBenchEntry]) -> String {
        render_solver_bench(samples, &machine(), &provenance(), entries)
    }

    fn cell(threads: usize, mean_ns: u64) -> ThreadCell {
        ThreadCell {
            threads,
            wall: BenchStats {
                name: format!("solver/MM08/R. Def.@t{threads}"),
                samples: 3,
                mean: Duration::from_nanos(mean_ns),
                min: Duration::from_nanos(mean_ns.saturating_sub(500)),
                max: Duration::from_nanos(mean_ns + 500),
            },
            results_digest: "a633e32ce4db1594".into(),
        }
    }

    fn entry() -> SolverBenchEntry {
        SolverBenchEntry {
            subject: "MM08".into(),
            analysis: "R. Def.".into(),
            outcome: "complete".into(),
            rung: "full".into(),
            ide: IdeStats {
                propagations: 10,
                flow_evals: 20,
                jump_fn_constructions: 8,
                killed_early: 1,
                value_updates: 5,
            },
            bdd: BddStats {
                nodes: 40,
                vars: 9,
                cache_entries: 100,
            },
            threads: vec![cell(1, 1500), cell(2, 900), cell(4, 700)],
        }
    }

    #[test]
    fn emitted_document_validates() {
        let text = render(3, &[entry()]);
        assert_eq!(validate_solver_bench(&text), Ok(1));
    }

    #[test]
    fn emitted_document_round_trips() {
        let text = render(3, &[entry(), entry()]);
        let doc = parse_json(&text).unwrap();
        assert_eq!(
            doc.get("schema"),
            Some(&Json::Str(SOLVER_BENCH_SCHEMA.into()))
        );
        let Some(Json::Arr(entries)) = doc.get("entries") else {
            panic!("entries missing");
        };
        assert_eq!(entries.len(), 2);
        let Some(Json::Arr(cells)) = entries[0].get("threads") else {
            panic!("threads cells missing");
        };
        assert_eq!(cells.len(), 3);
        let wall = cells[0].get("wall_ns").unwrap();
        assert_eq!(wall.get("mean"), Some(&Json::Num(1500.0)));
        assert_eq!(cells[1].get("threads"), Some(&Json::Num(2.0)));
        assert_eq!(
            cells[2].get("results_digest"),
            Some(&Json::Str("a633e32ce4db1594".into()))
        );
        assert_eq!(
            entries[0].get("ide").unwrap().get("jump_fn_constructions"),
            Some(&Json::Num(8.0))
        );
    }

    fn level(sessions: usize) -> ServerBenchLevel {
        ServerBenchLevel {
            sessions,
            requests: sessions * 7,
            errors: 0,
            wall_ns: 5_000_000,
            throughput_rps: 1234.5,
            p50_ns: 1000,
            p90_ns: 2000,
            p99_ns: 3000,
            max_ns: 4000,
        }
    }

    #[test]
    fn server_bench_document_validates() {
        let text = render_server_bench(4, 7, &machine(), &[level(16), level(64), level(256)]);
        assert_eq!(validate_server_bench(&text), Ok(3));
    }

    #[test]
    fn server_bench_validator_rejects_bad_documents() {
        assert!(validate_server_bench("{}").is_err());
        // Fewer than three concurrency levels.
        let short = render_server_bench(4, 7, &machine(), &[level(16), level(64)]);
        assert!(validate_server_bench(&short)
            .unwrap_err()
            .contains("3 concurrency levels"));
        // A non-zero error count.
        let errs = render_server_bench(4, 7, &machine(), &[level(16), level(64), level(256)])
            .replace("\"errors\": 0", "\"errors\": 2");
        assert!(validate_server_bench(&errs).unwrap_err().contains("zero"));
        // Non-monotone percentiles.
        let bad = render_server_bench(4, 7, &machine(), &[level(16), level(64), level(256)])
            .replace("\"p99\": 3000", "\"p99\": 1");
        assert!(validate_server_bench(&bad)
            .unwrap_err()
            .contains("monotone"));
    }

    #[test]
    fn validator_rejects_missing_keys_and_bad_numbers() {
        assert!(validate_solver_bench("{}").is_err());
        assert!(validate_solver_bench("not json").is_err());
        let wrong_schema = r#"{"schema": "other/v9", "samples": 1, "entries": []}"#;
        assert!(validate_solver_bench(wrong_schema)
            .unwrap_err()
            .contains("schema mismatch"));
        let empty = format!(
            r#"{{"schema": "{SOLVER_BENCH_SCHEMA}", "samples": 1,
                 "machine": {{"os": "linux", "arch": "x86_64", "cpus": 8}},
                 "provenance": {{"bin": "solver_bench", "subjects": "x", "threads": "1"}},
                 "entries": []}}"#
        );
        assert!(validate_solver_bench(&empty).unwrap_err().contains("empty"));
        // A key present but non-finite (parser rejects before shape check).
        let text = render(3, &[entry()]).replace("1500", "1e999");
        assert!(validate_solver_bench(&text).is_err());
        // A missing ide counter.
        let text = render(3, &[entry()]).replace("\"killed_early\"", "\"other\"");
        assert!(validate_solver_bench(&text)
            .unwrap_err()
            .contains("killed_early"));
        // Any non-empty lattice-point name is a valid rung (composite
        // points like `no-model+project(F,G)` must pass), but an empty
        // name is rejected.
        let text = render(3, &[entry()]).replace("\"full\"", "\"no-model+project(F,G)\"");
        assert!(validate_solver_bench(&text).is_ok());
        let text = render(3, &[entry()]).replace("\"full\"", "\"\"");
        assert!(validate_solver_bench(&text).unwrap_err().contains("rung"));
    }

    #[test]
    fn validator_rejects_missing_v4_blocks_and_comparator_fields() {
        // No machine block.
        let text = render(3, &[entry()]).replace("\"machine\"", "\"mach\"");
        assert!(validate_solver_bench(&text)
            .unwrap_err()
            .contains("machine"));
        // No provenance block.
        let text = render(3, &[entry()]).replace("\"provenance\"", "\"prov\"");
        assert!(validate_solver_bench(&text)
            .unwrap_err()
            .contains("provenance"));
        // A cell without its per-cell sample count (a v3-era cell): the
        // regression gate cannot weigh its min, so the document is
        // rejected outright.
        let text = render(3, &[entry()]).replace("\"samples\": 3, \"wall_ns\"", "\"wall_ns\"");
        let err = validate_solver_bench(&text).unwrap_err();
        assert!(
            err.contains("samples") && err.contains("comparator"),
            "{err}"
        );
        // A zero sample count.
        let text = render(3, &[entry()])
            .replace("\"samples\": 3, \"wall_ns\"", "\"samples\": 0, \"wall_ns\"");
        assert!(validate_solver_bench(&text).unwrap_err().contains(">= 1"));
        // Server documents need the machine block too.
        let text = render_server_bench(4, 7, &machine(), &[level(16), level(64), level(256)])
            .replace("\"machine\"", "\"mach\"");
        assert!(validate_server_bench(&text)
            .unwrap_err()
            .contains("machine"));
    }

    #[test]
    fn validator_rejects_thread_dimension_violations() {
        // A digest mismatch between an entry's cells: the thread-count
        // determinism contract is enforced on the document itself.
        let mut broken = entry();
        broken.threads[2].results_digest = "deadbeefdeadbeef".into();
        let text = render(3, &[broken]);
        assert!(validate_solver_bench(&text)
            .unwrap_err()
            .contains("not thread-count invariant"));
        // Cells out of thread order.
        let mut disordered = entry();
        disordered.threads.swap(0, 1);
        let text = render(3, &[disordered]);
        assert!(validate_solver_bench(&text)
            .unwrap_err()
            .contains("ascending"));
        // No cells at all.
        let mut hollow = entry();
        hollow.threads.clear();
        let text = render(3, &[hollow]);
        assert!(validate_solver_bench(&text).unwrap_err().contains("empty"));
        // A zero thread count.
        let mut zero = entry();
        zero.threads[0].threads = 0;
        let text = render(3, &[zero]);
        assert!(validate_solver_bench(&text).unwrap_err().contains(">= 1"));
    }
}
