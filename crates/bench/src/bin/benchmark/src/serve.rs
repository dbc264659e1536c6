//! The `serve-edit` workload: a TCP [`SocketServer`] at its default
//! options with two clients in a closed loop. Each client runs its
//! sessions one after another; a session loads a generated subject from
//! a file the benchmark wrote, analyzes it, queries the solution,
//! re-analyzes it (a cache hit), edits one method, re-analyzes it
//! incrementally, queries again and runs a second analysis.
//!
//! Every subject is loaded by one session on each client, one session
//! apart, so the second load usually finds the first one's solutions in
//! the cross-session cache; the solutions of one round outgrow the
//! default 16 MiB cache, so the cache also evicts.
//!
//! Every analyze digest and every query answer is checked against a
//! cold, single-session solve of the same program state
//! ([`spllift_server::store::Store`]), computed before the rounds.

use crate::measure::{ms, pearson, Counters, HostSpeed, Pass};
use crate::RunOpts;
use spllift_benchgen::{parse_subject_spec, GeneratedSpl};
use spllift_core::{GovernorOptions, ModelMode};
use spllift_features::{parse_feature_model, Configuration, FeatureId, FeatureTable};
use spllift_json::{parse_json, Json};
use spllift_rng::SplitMix64;
use spllift_server::store::{RenderedSolution, Store};
use spllift_server::{Engine, Executor, LoadedSpl, ServerOptions, SocketServer, Submitted};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Clients in the closed loop.
const CLIENTS: usize = 2;
/// Queries per `query` request.
const QUERIES: usize = 8;
/// The local the edited method bodies assign.
const EDIT_LOCALS: &str = "t: int";

/// One subject as the benchmark writes it for the server.
struct SubjectFile {
    path: PathBuf,
    source: String,
    model: String,
}

/// Generates `n` subjects and writes their sources to `dir`. The
/// subjects are fixed, not drawn from the seed: generated programs
/// differ several-fold in analysis cost, and a seed must change which
/// requests run, not how much work a round is.
fn write_subjects(n: usize, dir: &Path) -> std::io::Result<Vec<SubjectFile>> {
    (0..n)
        .map(|i| {
            let spec = format!("synthetic:6:600:{i}");
            let spl =
                GeneratedSpl::generate(parse_subject_spec(&spec).expect("valid synthetic spec"));
            let model = format!(
                "root Root\nconstraint {}\n",
                spl.model_expr().display(&spl.table)
            );
            let path = dir.join(format!("subject-{i}.minijava"));
            std::fs::write(&path, &spl.source)?;
            Ok(SubjectFile {
                path,
                source: spl.source,
                model,
            })
        })
        .collect()
}

/// Parses a subject exactly as the server's `load` does.
fn load(subject: &SubjectFile) -> LoadedSpl {
    let mut table = FeatureTable::new();
    let program = spllift_frontend::parse_source(&subject.source, &mut table)
        .expect("generated source parses");
    let fm = parse_feature_model(&subject.model, &mut table).expect("rendered model parses");
    LoadedSpl::new(program, table, Some(fm.to_expr()), fm.or_groups()).expect("valid program")
}

fn cold(store: &mut Store, analysis: &str) -> Arc<RenderedSolution> {
    store
        .analyze(
            analysis,
            ModelMode::OnEdges,
            GovernorOptions::default(),
            None,
        )
        .expect("unbudgeted solve completes")
        .solution
}

/// What a request's response must say.
enum Expect {
    Ok,
    Digest(u64),
    /// One answer per query: a constraint string or a `holds` boolean.
    Answers(Vec<Json>),
}

/// One request of a client's stream.
struct Request {
    line: String,
    expect: Expect,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Picks `QUERIES` seeded queries on `sol` and their expected answers.
fn queries(
    sol: &RenderedSolution,
    table: &FeatureTable,
    rng: &mut SplitMix64,
) -> (Json, Vec<Json>) {
    let mut items = Vec::new();
    let mut answers = Vec::new();
    for q in 0..QUERIES {
        let fact = &sol.facts[rng.gen_range(0..sol.facts.len())];
        match q % 3 {
            0 => {
                items.push(obj(vec![
                    ("kind", Json::str("constraint_of")),
                    ("stmt", Json::str(&fact.stmt)),
                    ("fact", Json::str(&fact.fact)),
                ]));
                answers.push(Json::str(&fact.cube));
            }
            1 => {
                let reach = &sol.reach[rng.gen_range(0..sol.reach.len())];
                items.push(obj(vec![
                    ("kind", Json::str("reachability_of")),
                    ("stmt", Json::str(&reach.stmt)),
                ]));
                answers.push(Json::str(&reach.cube));
            }
            _ => {
                let enabled: Vec<(FeatureId, &str)> =
                    table.iter().filter(|_| rng.gen_bool(0.5)).collect();
                let config = Configuration::from_enabled(enabled.iter().map(|f| f.0));
                items.push(obj(vec![
                    ("kind", Json::str("holds_in")),
                    ("stmt", Json::str(&fact.stmt)),
                    ("fact", Json::str(&fact.fact)),
                    (
                        "config",
                        Json::Arr(enabled.iter().map(|f| Json::str(f.1)).collect()),
                    ),
                ]));
                answers.push(Json::Bool(config.satisfies(&fact.expr)));
            }
        }
    }
    (Json::Arr(items), answers)
}

/// One session's nine requests on `subject`, each with the response a
/// cold single-session solve of the same program state gives.
fn session(name: &str, subject: &SubjectFile, rng: &mut SplitMix64) -> Vec<Request> {
    let spl = load(subject);
    let table = spl.table.clone();
    // The generated `M<i>.h<j>(int, int): int` helpers, with the name of
    // their first parameter's local.
    let editable: Vec<(String, String)> = spl
        .program
        .methods()
        .iter()
        .filter(|m| m.is_static && m.name.starts_with('h') && m.params.len() == 2)
        .filter_map(|m| {
            let class = &spl.program.class(m.class?).name;
            let param = &m.body.as_ref()?.locals.first()?.name;
            class
                .starts_with('M')
                .then(|| (format!("{class}.{}", m.name), param.clone()))
        })
        .collect();
    let features: Vec<&str> = table
        .iter()
        .map(|(_, n)| n)
        .filter(|n| n.starts_with('F'))
        .collect();
    let (method, param) = rng.choose(&editable).clone();
    let edit = [
        "0: nop".to_owned(),
        format!("1: t = Util.secret() @ {}", rng.choose(&features)),
        format!("2: t = t + {param}"),
        "3: return t".to_owned(),
    ];

    let mut store = Store::new(Arc::new(spl));
    let before = cold(&mut store, "taint");
    let (q1, a1) = queries(&before, &table, rng);
    let (q2, a2) = queries(&before, &table, rng);
    let mut store = Store::new(Arc::new(load(subject)));
    let lines: Vec<&str> = edit.iter().map(String::as_str).collect();
    store
        .edit(&method, EDIT_LOCALS, &lines)
        .expect("seeded edit is valid");
    let after = cold(&mut store, "taint");
    let rdefs = cold(&mut store, "reaching-defs");
    let (q3, a3) = queries(&after, &table, rng);

    let request = |ty: &str, mut fields: Vec<(&str, Json)>, expect: Expect| {
        fields.splice(
            0..0,
            [("type", Json::str(ty)), ("session", Json::str(name))],
        );
        Request {
            line: obj(fields).render(),
            expect,
        }
    };
    let analyze = |a: &str, digest: u64| {
        request(
            "analyze",
            vec![("analysis", Json::str(a))],
            Expect::Digest(digest),
        )
    };
    let query = |q: Json, answers: Vec<Json>| {
        request(
            "query",
            vec![("analysis", Json::str("taint")), ("queries", q)],
            Expect::Answers(answers),
        )
    };
    vec![
        request(
            "load",
            vec![
                ("path", Json::str(subject.path.display().to_string())),
                ("model", Json::str(&subject.model)),
            ],
            Expect::Ok,
        ),
        analyze("taint", before.digest),
        query(q1, a1),
        query(q2, a2),
        analyze("taint", before.digest),
        request(
            "edit",
            vec![
                ("method", Json::str(&method)),
                ("locals", Json::str(EDIT_LOCALS)),
                ("stmts", Json::Arr(edit.iter().map(Json::str).collect())),
            ],
            Expect::Ok,
        ),
        analyze("taint", after.digest),
        query(q3, a3),
        analyze("reaching-defs", rdefs.digest),
    ]
}

/// Builds every client's request stream. Untimed.
fn streams(seed: u64, per_client: usize, subjects: &[SubjectFile]) -> Vec<Vec<Request>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = subjects.len();
    let first = rng.gen_range(0..n);
    (0..CLIENTS)
        .map(|c| {
            (0..per_client)
                .flat_map(|j| {
                    // Client `c` trails client 0 by `c` sessions, close
                    // enough that the subject's solutions are still cached.
                    let subject = &subjects[(first + j + c * (n - 1)) % n];
                    session(&format!("c{c}s{j}"), subject, &mut rng)
                })
                .collect()
        })
        .collect()
}

/// A sent request's response and round trip.
struct Sent {
    start: Instant,
    end: Instant,
    response: String,
}

/// Sends `requests` one at a time on a fresh connection, each as a
/// single write of the line and its newline, with Nagle's algorithm off
/// on the client side.
fn client(addr: SocketAddr, requests: &[Request], go: &Barrier) -> std::io::Result<Vec<Sent>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    go.wait();
    let mut out = Vec::with_capacity(requests.len());
    for r in requests {
        let start = Instant::now();
        writer.write_all(format!("{}\n", r.line).as_bytes())?;
        let mut response = String::new();
        reader.read_line(&mut response)?;
        out.push(Sent {
            start,
            end: Instant::now(),
            response,
        });
    }
    Ok(out)
}

/// Sends control requests (`stats`, `shutdown`) on one connection.
fn control(addr: SocketAddr, lines: &[&str]) -> std::io::Result<Vec<Json>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out = Vec::new();
    for line in lines {
        writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        reader.read_line(&mut response)?;
        out.push(parse_json(response.trim()).map_err(std::io::Error::other)?);
    }
    Ok(out)
}

fn spawn() -> std::io::Result<SocketServer> {
    SocketServer::spawn(ServerOptions::default(), "127.0.0.1:0")
}

fn shutdown(server: SocketServer) -> std::io::Result<Json> {
    let stats = control(
        server.addr(),
        &[r#"{"type":"stats"}"#, r#"{"type":"shutdown"}"#],
    )?;
    server.join();
    Ok(stats.into_iter().next().expect("stats answered"))
}

/// Whether a request reads a solution that already exists: queries and
/// analyzes answered from the cache.
fn is_read(line: &str, response: &Json) -> bool {
    line.contains(r#""type":"query""#)
        || response.get("solve").and_then(Json::as_str) == Some("cached")
}

fn num(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Checks one response against its expectation; `Err` says why not.
fn verify(r: &Request, response: &Json) -> Result<(), String> {
    if response.get("type").and_then(Json::as_str) != Some("ok") {
        return Err(format!("error response {}", response.render()));
    }
    match &r.expect {
        Expect::Ok => Ok(()),
        Expect::Digest(want) => {
            let got = response.get("digest").and_then(Json::as_str);
            let want = format!("{want:016x}");
            (got == Some(want.as_str()))
                .then_some(())
                .ok_or_else(|| format!("digest {got:?}, cold solve {want}"))
        }
        Expect::Answers(want) => {
            let results = response
                .get("results")
                .and_then(Json::as_arr)
                .unwrap_or(&[]);
            let got: Vec<&Json> = results
                .iter()
                .filter_map(|x| x.get("constraint").or_else(|| x.get("holds")))
                .collect();
            (got.len() == want.len() && got.iter().zip(want).all(|(g, w)| *g == w))
                .then_some(())
                .ok_or_else(|| "query answers differ from the cold solve".to_owned())
        }
    }
}

/// The TCP round trips of one round, per client, in stream order.
type RoundTrips = Vec<Vec<f64>>;

/// Totals over every round, for the cache and incremental-solve ratios.
#[derive(Default)]
struct Totals {
    cache_hits: u64,
    cache_misses: u64,
    cold_taint: (u64, u64),
    incremental: (u64, u64),
}

/// `(solves, propagations)` as a mean, if any solve ran.
fn mean_props((n, props): (u64, u64)) -> Option<f64> {
    (n > 0).then(|| props as f64 / n as f64)
}

fn tcp_round(
    streams: &[Vec<Request>],
    round: usize,
    pass: &mut Pass,
    totals: &mut Totals,
) -> std::io::Result<(Duration, RoundTrips)> {
    let server = spawn()?;
    let addr = server.addr();
    let go = Barrier::new(CLIENTS + 1);
    let (t0, sent) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|s| scope.spawn(|| client(addr, s, &go)))
            .collect();
        go.wait();
        let t0 = Instant::now();
        let sent: Vec<std::io::Result<Vec<Sent>>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (t0, sent)
    });
    let took = t0.elapsed();
    let stats = shutdown(server)?;
    let span = pass.trace.id();
    let mut counters = Counters::new();
    let mut rtts = Vec::new();
    for (c, (stream, sent)) in streams.iter().zip(sent).enumerate() {
        let sent = sent?;
        let mut client_rtts = Vec::new();
        for (i, (r, s)) in stream.iter().zip(&sent).enumerate() {
            let rtt = ms(s.end - s.start);
            client_rtts.push(rtt);
            pass.op_ms.push(rtt);
            let response = match parse_json(s.response.trim()) {
                Ok(j) => j,
                Err(e) => {
                    pass.check(false, || {
                        format!("client {c} request {i}: unparsable response: {e}")
                    });
                    continue;
                }
            };
            if is_read(&r.line, &response) {
                pass.read_ms.push(rtt);
            } else {
                pass.write_ms.push(rtt);
            }
            let outcome = verify(r, &response);
            pass.check(outcome.is_ok(), || {
                format!(
                    "round {round} client {c} request {i} ({}): {}",
                    r.line.chars().take(60).collect::<String>(),
                    outcome.unwrap_err()
                )
            });
            if let Some(solve) = response.get("solve").and_then(Json::as_str) {
                let key = match solve {
                    "cold" => "server.solves_cold",
                    "cached" => "server.solves_cached",
                    _ => "server.solves_incremental",
                };
                *counters.entry(key).or_default() += 1;
                for (k, f) in [
                    ("ide.propagations", "propagations"),
                    ("ide.flow_evals", "flow_evals"),
                    ("ide.jump_fns", "jump_fns"),
                    ("ide.value_updates", "value_updates"),
                ] {
                    *counters.entry(k).or_default() += num(&response, f);
                }
                let props = num(&response, "propagations");
                let taint = response.get("analysis").and_then(Json::as_str) == Some("taint");
                let slot = match solve {
                    "cold" if taint => Some(&mut totals.cold_taint),
                    "incremental" => Some(&mut totals.incremental),
                    _ => None,
                };
                if let Some((n, p)) = slot {
                    *n += 1;
                    *p += props;
                }
            }
            let group = request_group(c, i);
            let id = pass.trace.id();
            pass.trace.record(
                id,
                span,
                group,
                "server.rtt",
                s.start,
                s.end,
                &[("client", c as u64), ("index", i as u64)],
            );
        }
        rtts.push(client_rtts);
    }
    pass.trace
        .record(span, 0, span, "round", t0, t0 + took, &[]);
    let cache = |k: &str| stats.get("cache").map_or(0, |c| num(c, k));
    totals.cache_hits += cache("hits");
    totals.cache_misses += cache("misses");
    counters.insert("server.cache_evictions", cache("evictions"));
    pass.counters.push(counters);
    Ok((took, rtts))
}

/// Spans of one request share this group id across the TCP round and
/// the in-process replays.
fn request_group(client: usize, index: usize) -> u64 {
    ((client as u64 + 1) << 32) | index as u64
}

/// Replays the request streams in-process through a fresh
/// [`Executor`]: concurrently (one thread per client, as over TCP) or
/// one request at a time, alternating clients, so that no request waits
/// behind another. Returns each request's submit-to-response time in ms
/// and response.
fn replay(streams: &[Vec<Request>], concurrent: bool, pass: &mut Pass) -> Vec<Vec<(f64, Json)>> {
    let exec = Executor::new(Arc::new(Engine::new(ServerOptions::default())));
    let one = |line: &str| {
        let t0 = Instant::now();
        let text = match exec.submit(line) {
            Submitted::Ready(s) | Submitted::Shutdown(s) => s,
            Submitted::Pending(rx) => rx.recv().unwrap_or_default(),
        };
        (t0, Instant::now(), parse_json(&text).unwrap_or(Json::Null))
    };
    let timed: Vec<Vec<(Instant, Instant, Json)>> = if concurrent {
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .map(|s| scope.spawn(|| s.iter().map(|r| one(&r.line)).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        })
    } else {
        let mut out: Vec<Vec<_>> = streams.iter().map(|_| Vec::new()).collect();
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (c, s) in streams.iter().enumerate() {
                if let Some(r) = s.get(i) {
                    out[c].push(one(&r.line));
                }
            }
        }
        out
    };
    let name = if concurrent {
        "server.exec"
    } else {
        "server.exec_idle"
    };
    let span = pass.trace.id();
    let (first, last) =
        timed
            .iter()
            .flatten()
            .fold((None::<Instant>, None::<Instant>), |(a, b), (s, e, _)| {
                (
                    Some(a.map_or(*s, |a| a.min(*s))),
                    Some(b.map_or(*e, |b| b.max(*e))),
                )
            });
    let mut out = Vec::new();
    for (c, reqs) in timed.into_iter().enumerate() {
        let mut client_out = Vec::new();
        for (i, (s, e, json)) in reqs.into_iter().enumerate() {
            let id = pass.trace.id();
            pass.trace
                .record(id, span, request_group(c, i), name, s, e, &[]);
            client_out.push((ms(e - s), json));
        }
        out.push(client_out);
    }
    if let (Some(a), Some(b)) = (first, last) {
        pass.trace.record(span, 0, span, "replay", a, b, &[]);
    }
    out
}

/// Splits the traced round trips into server stages, as shares of the
/// summed round-trip time: transport (round trip minus the concurrent
/// in-process executor time), queueing (concurrent minus idle executor
/// time) and handling (idle executor time, by read/write class).
fn stage_shares(streams: &[Vec<Request>], rtts: &RoundTrips, pass: &mut Pass) {
    let conc = replay(streams, true, pass);
    let idle = replay(streams, false, pass);
    let (mut rtt_sum, mut transport, mut queue, mut read, mut write) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut corr = Vec::new();
    let (mut props, mut solve_ms) = (0u64, 0.0);
    for c in 0..streams.len() {
        for (i, r) in streams[c].iter().enumerate() {
            let (rtt, (exec, _), (handle, resp)) = (rtts[c][i], &conc[c][i], &idle[c][i]);
            rtt_sum += rtt;
            transport += rtt - exec;
            queue += exec - handle;
            if is_read(&r.line, resp) {
                read += handle;
            } else {
                write += handle;
            }
            if resp
                .get("solve")
                .and_then(Json::as_str)
                .is_some_and(|s| s != "cached")
            {
                let jf = num(resp, "jump_fns");
                corr.push((*handle, jf as f64));
                props += num(resp, "propagations");
                solve_ms += handle;
            }
        }
    }
    let share = |x: f64| if rtt_sum > 0.0 { x / rtt_sum } else { 0.0 };
    pass.layer
        .insert("server.transport_share", share(transport));
    pass.layer.insert("server.queue_share", share(queue));
    pass.layer.insert("server.handle_read_share", share(read));
    pass.layer.insert("server.handle_write_share", share(write));
    pass.layer.insert("ide.jump_fn_time_corr", pearson(&corr));
    if solve_ms > 0.0 {
        pass.layer
            .insert("ide.propagations_per_ms", props as f64 / solve_ms);
    }
}

/// Runs `serve-edit` with `per_client` sessions on each of the two
/// clients per round.
pub fn run_serve(opts: &RunOpts, per_client: usize, work: &Path) -> Pass {
    let mut pass = Pass::new(opts.traced);
    if let Err(e) = serve(opts, per_client, work, &mut pass) {
        pass.check(false, || format!("serve-edit: {e}"));
    }
    pass
}

fn serve(opts: &RunOpts, per_client: usize, work: &Path, pass: &mut Pass) -> std::io::Result<()> {
    let subjects = write_subjects(per_client, work)?;
    let streams = streams(opts.seed, per_client, &subjects);
    // Set-up is mostly this thread's computing, so it is rescaled to the
    // nominal host speed as the batch set-ups are; the round trips are
    // mostly the server's fixed response floor, and are not.
    let mut host = HostSpeed::new();
    for _ in 0..opts.setup_reps {
        // Set-up: generate and write the subjects, start the server and
        // connect both clients.
        let span = pass.trace.id();
        let t0 = Instant::now();
        write_subjects(per_client, work)?;
        let server = spawn()?;
        let conns: Vec<TcpStream> = (0..CLIENTS)
            .map(|_| TcpStream::connect(server.addr()))
            .collect::<Result<_, _>>()?;
        host.add(&mut pass.trace, span, [t0.elapsed().as_secs_f64(), 0.0]);
        pass.setup_s.push(host.finish()[0]);
        pass.trace
            .record(span, 0, span, "setup", t0, Instant::now(), &[]);
        drop(conns);
        shutdown(server)?;
    }
    println!("{}", host.report());
    // Unmaps the reference table before the rounds set the peak RSS.
    drop(host);
    let mut totals = Totals::default();
    let mut traced_rtts: Option<RoundTrips> = None;
    let mut failed: Option<std::io::Error> = None;
    pass.peak_rss_mb = crate::measure::run_rounds(opts, |round, traced| {
        pass.trace.set_on(traced);
        match tcp_round(&streams, round, pass, &mut totals) {
            Ok((took, rtts)) => {
                pass.round_s.push(took.as_secs_f64());
                if traced {
                    traced_rtts.get_or_insert(rtts);
                }
                took
            }
            Err(e) => {
                failed.get_or_insert(e);
                Duration::MAX
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let kinds = [
        "server.solves_cold",
        "server.solves_cached",
        "server.solves_incremental",
    ];
    for kind in kinds {
        let seen = pass
            .counters
            .iter()
            .any(|c| c.get(kind).copied().unwrap_or(0) > 0);
        pass.check(seen, || format!("serve-edit saw no `{kind}` analyze"));
    }
    let lookups = totals.cache_hits + totals.cache_misses;
    if lookups > 0 {
        pass.layer.insert(
            "server.cache_hit_ratio",
            totals.cache_hits as f64 / lookups as f64,
        );
    }
    if let (Some(incr), Some(cold)) = (
        mean_props(totals.incremental),
        mean_props(totals.cold_taint),
    ) {
        pass.layer
            .insert("server.incremental_prop_ratio", incr / cold);
    }
    if let Some(rtts) = traced_rtts {
        pass.trace.set_on(true);
        stage_shares(&streams, &rtts, pass);
    }
    Ok(())
}
