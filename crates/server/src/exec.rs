//! The session-sharded executor: the router between transports and
//! shard workers.
//!
//! Requests enter through [`Executor::submit`] (one line of protocol
//! JSON). The router parses and classifies the line on the caller's
//! thread:
//!
//! * **parse errors / unknown types** answer immediately,
//! * **`stats`** broadcasts a snapshot job to every shard and merges
//!   the replies with the engine's counters,
//! * **`evict`** and **`shutdown`** act on the shared engine directly,
//! * **session-scoped requests** (`load`/`analyze`/`query`/`edit`) are
//!   enqueued on the session's shard.
//!
//! A session is placed at its first `load`, on the shard with the
//! fewest requests in flight (ties: fewest placed sessions, then lowest
//! index), and never moves: its store and any quarantine entry live
//! there. A request naming a session that was never loaded goes to the
//! least busy shard without placing it; no shard holds that session,
//! so the answer is the same from any of them.
//!
//! One shard is one worker thread owning the `ShardState` (sessions'
//! slots, memos, and dirty sets) of every session placed on it. A
//! session's requests execute on its shard in submission order, so each
//! session's response stream is deterministic — byte-identical to a
//! single-client server run — regardless of shard count or how many
//! connections interleave at the socket.
//!
//! Admission control is a per-shard in-flight bound
//! ([`crate::ServerOptions::max_inflight`]): when a shard's queue is
//! full, `submit` answers an `overloaded` error immediately instead of
//! queueing unboundedly — the client retries; nothing blocks.

use crate::engine::Engine;
use crate::handler::{obj, req_str, stats_obj, ShardSnapshot, ShardState};
use crate::REQUEST_TYPES;
use spllift_json::{parse_json, Json};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// The executor's answer to a submitted line.
pub enum Submitted {
    /// Answered on the submitting thread (errors, `stats`, `evict`).
    Ready(String),
    /// Enqueued on a shard; the response arrives on the channel.
    Pending(mpsc::Receiver<String>),
    /// A `shutdown` request: the rendered ok-response. The transport
    /// decides how to drain and stop; the executor itself stops
    /// accepting new work once [`Executor::stop_accepting`] is called.
    Shutdown(String),
}

enum Job {
    Request {
        req: Json,
        ty: String,
        session: String,
        reply: mpsc::Sender<String>,
        inflight: Arc<AtomicUsize>,
    },
    Snapshot {
        reply: mpsc::Sender<ShardSnapshot>,
    },
}

struct Shard {
    tx: mpsc::Sender<Job>,
    inflight: Arc<AtomicUsize>,
}

/// The routing table: the shard of every placed session, and how many
/// sessions each shard holds. Session names come from clients, so the
/// table keeps the standard library's collision-resistant hasher.
struct Routes {
    shard: HashMap<String, usize>,
    placed: Vec<usize>,
}

/// The sharded executor. Owns the worker threads; dropping it drains
/// and joins them.
pub struct Executor {
    engine: Arc<Engine>,
    shards: Vec<Shard>,
    routes: Mutex<Routes>,
    workers: Vec<JoinHandle<()>>,
    accepting: AtomicBool,
}

pub(crate) fn error_line(message: String) -> String {
    obj(vec![
        ("type", Json::str("error")),
        ("message", Json::str(message)),
    ])
    .render()
}

fn flagged_error_line(kind: &str, message: String) -> String {
    obj(vec![
        ("type", Json::str("error")),
        ("error", Json::str(kind)),
        ("message", Json::str(message)),
    ])
    .render()
}

/// The fallback response when a shard worker disappears mid-request
/// (cannot happen short of the process dying, but the transport must
/// never hang on a closed channel).
pub(crate) fn internal_error() -> String {
    flagged_error_line("internal", "shard worker lost".to_owned())
}

/// The shard a new session is placed on, given each shard's
/// `(requests in flight, placed sessions)`: the fewest in flight, ties
/// going to the fewest placed, then to the lowest index.
fn least_busy(shards: impl IntoIterator<Item = (usize, usize)>) -> usize {
    shards
        .into_iter()
        .enumerate()
        .min_by_key(|&(i, (inflight, placed))| (inflight, placed, i))
        .map_or(0, |(i, _)| i)
}

fn shard_worker(engine: Arc<Engine>, rx: mpsc::Receiver<Job>) {
    let mut state = ShardState::new(engine);
    while let Ok(job) = rx.recv() {
        match job {
            Job::Request {
                req,
                ty,
                session,
                reply,
                inflight,
            } => {
                // Panic isolation: a panic escaping any handler (a
                // solver bug, an injected fault) tears down and
                // quarantines only the session it was operating on; the
                // worker and every other session keep serving.
                // `AssertUnwindSafe` is justified because the only state
                // the panicking handler could have left half-updated is
                // the store, which `isolate_panic` discards wholesale.
                let outcome = catch_unwind(AssertUnwindSafe(|| state.handle(&req, &ty, &session)));
                let text = match outcome {
                    Ok(Ok(resp)) => resp.render(),
                    Ok(Err(msg)) => error_line(msg),
                    Err(payload) => state.isolate_panic(&session, &*payload).render(),
                };
                // Free the slot before answering: a client that sends its
                // next request as soon as it reads this response must not
                // find its own finished request still counted.
                inflight.fetch_sub(1, Ordering::SeqCst);
                let _ = reply.send(text);
            }
            Job::Snapshot { reply } => {
                let _ = reply.send(state.snapshot());
            }
        }
    }
}

impl Executor {
    /// Spawns `engine.opts.shards` worker threads over the shared
    /// engine.
    pub fn new(engine: Arc<Engine>) -> Executor {
        let n = engine.opts.shards.max(1);
        let mut shards = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = mpsc::channel();
            let inflight = Arc::new(AtomicUsize::new(0));
            let eng = Arc::clone(&engine);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("spllift-shard-{i}"))
                    .spawn(move || shard_worker(eng, rx))
                    .expect("spawn shard worker"),
            );
            shards.push(Shard { tx, inflight });
        }
        Executor {
            engine,
            shards,
            routes: Mutex::new(Routes {
                shard: HashMap::new(),
                placed: vec![0; n],
            }),
            workers,
            accepting: AtomicBool::new(true),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stops admitting new requests; every subsequent `submit` answers
    /// a `shutting-down` error immediately. In-flight work completes.
    pub fn stop_accepting(&self) {
        self.accepting.store(false, Ordering::SeqCst);
    }

    /// Routes one request line. Never blocks beyond the `stats` shard
    /// barrier; session-scoped work is answered through the returned
    /// channel.
    pub fn submit(&self, line: &str) -> Submitted {
        if !self.accepting.load(Ordering::SeqCst) {
            return Submitted::Ready(flagged_error_line(
                "shutting-down",
                "server is shutting down".to_owned(),
            ));
        }
        let req = match parse_json(line) {
            Ok(req) => req,
            Err(e) => return Submitted::Ready(error_line(e)),
        };
        let ty = match req_str(&req, "type") {
            Ok(t) => t.to_owned(),
            Err(e) => return Submitted::Ready(error_line(e)),
        };
        match ty.as_str() {
            "shutdown" => Submitted::Shutdown(
                obj(vec![
                    ("type", Json::str("ok")),
                    ("request", Json::str("shutdown")),
                ])
                .render(),
            ),
            "evict" => {
                let n = self.engine.evict();
                Submitted::Ready(
                    obj(vec![
                        ("type", Json::str("ok")),
                        ("request", Json::str("evict")),
                        ("evicted", Json::num(n as u64)),
                    ])
                    .render(),
                )
            }
            "stats" => Submitted::Ready(self.stats_response()),
            "load" | "analyze" | "query" | "edit" => {
                let session = match req_str(&req, "session") {
                    Ok(s) => s.to_owned(),
                    Err(e) => return Submitted::Ready(error_line(e)),
                };
                let shard = &self.shards[self.route(&session, ty == "load")];
                // Admission control: bound the per-shard queue. The slot
                // is claimed optimistically and released on rejection so
                // racing submitters cannot overshoot the bound.
                let occupied = shard.inflight.fetch_add(1, Ordering::SeqCst);
                if occupied >= self.engine.opts.max_inflight {
                    shard.inflight.fetch_sub(1, Ordering::SeqCst);
                    return Submitted::Ready(flagged_error_line(
                        "overloaded",
                        format!(
                            "shard for session `{session}` is at capacity \
                             ({} requests in flight); retry later",
                            self.engine.opts.max_inflight
                        ),
                    ));
                }
                let (reply, rx) = mpsc::channel();
                let job = Job::Request {
                    req,
                    ty,
                    session,
                    reply,
                    inflight: Arc::clone(&shard.inflight),
                };
                if shard.tx.send(job).is_err() {
                    shard.inflight.fetch_sub(1, Ordering::SeqCst);
                    return Submitted::Ready(internal_error());
                }
                Submitted::Pending(rx)
            }
            other => Submitted::Ready(error_line(format!(
                "unknown request type `{other}` ({})",
                REQUEST_TYPES.join("|")
            ))),
        }
    }

    /// The shard that serves `session`: where it was placed, else the
    /// least busy one, where a `load` places it for good.
    fn route(&self, session: &str, load: bool) -> usize {
        let mut routes = self.routes.lock().expect("routes lock");
        if let Some(&i) = routes.shard.get(session) {
            return i;
        }
        let busy = self
            .shards
            .iter()
            .map(|s| s.inflight.load(Ordering::SeqCst));
        let i = least_busy(busy.zip(routes.placed.iter().copied()));
        if load {
            routes.shard.insert(session.to_owned(), i);
            routes.placed[i] += 1;
        }
        i
    }

    /// Builds the merged `stats` response: a snapshot barrier over every
    /// shard (each answers after its queued work, so the numbers are
    /// per-shard consistent), merged name-sorted, plus the engine's
    /// cache and governance counters.
    fn stats_response(&self) -> String {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (tx, rx) = mpsc::channel();
            if shard.tx.send(Job::Snapshot { reply: tx }).is_ok() {
                pending.push(rx);
            }
        }
        let mut sessions: Vec<(String, Json)> = Vec::new();
        let mut quarantined: Vec<String> = Vec::new();
        for rx in pending {
            if let Ok(snap) = rx.recv() {
                sessions.extend(snap.sessions);
                quarantined.extend(snap.quarantined);
            }
        }
        sessions.sort_by(|a, b| a.0.cmp(&b.0));
        quarantined.sort();
        let (entries, bytes, hits, misses, evictions) = self.engine.cache_stats();
        let gov = &self.engine.gov;
        let load = |c: &std::sync::atomic::AtomicU64| Json::num(c.load(Ordering::SeqCst));
        obj(vec![
            ("type", Json::str("ok")),
            ("request", Json::str("stats")),
            (
                "sessions",
                Json::Arr(sessions.into_iter().map(|(_, s)| s).collect()),
            ),
            (
                "cache",
                obj(vec![
                    ("entries", Json::num(entries as u64)),
                    ("bytes", Json::num(bytes as u64)),
                    ("hits", Json::num(hits)),
                    ("misses", Json::num(misses)),
                    ("evictions", Json::num(evictions)),
                ]),
            ),
            (
                "governance",
                obj(vec![
                    ("analyze_requests", load(&gov.analyze_requests)),
                    ("panics_isolated", load(&gov.panics_isolated)),
                    ("degraded_solves", load(&gov.degraded_solves)),
                    (
                        "degraded_points",
                        Json::Obj(
                            gov.degraded_points_snapshot()
                                .into_iter()
                                .map(|(point, n)| (point, Json::num(n)))
                                .collect(),
                        ),
                    ),
                    ("solve_failures", load(&gov.solve_failures)),
                    ("faults_injected", load(&gov.faults_injected)),
                    (
                        "quarantined",
                        Json::Arr(quarantined.into_iter().map(Json::str).collect()),
                    ),
                ]),
            ),
            ("last_solve", stats_obj(&self.engine.last_solve())),
        ])
        .render()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Closing the channels lets each worker drain its queue and
        // exit; joining publishes any worker panic as a server panic.
        self.shards.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerOptions;
    use spllift_spl::FaultPlan;

    #[test]
    fn least_busy_orders_by_inflight_then_placed_then_index() {
        assert_eq!(least_busy([(2, 0), (1, 5), (1, 3)]), 2);
        assert_eq!(least_busy([(0, 4), (1, 0)]), 0);
        assert_eq!(least_busy([(1, 2), (1, 1), (1, 1)]), 1);
        assert_eq!(least_busy([(0, 0), (0, 0)]), 0);
    }

    /// Two shards admitting one request each; `victim`'s first
    /// `analyze` stalls for 3.5 s (the `slow-edge` fault sleeps past the
    /// 2.5 s per-rung deadline), holding its shard's only slot.
    fn stalling_executor(victim: &str) -> Executor {
        Executor::new(Arc::new(Engine::new(ServerOptions {
            shards: 2,
            max_inflight: 1,
            solve_timeout_ms: Some(2500),
            inject_fault: Some(FaultPlan::parse("slow-edge@1").expect("fault plan")),
            fault_session: Some(victim.to_owned()),
            ..ServerOptions::default()
        })))
    }

    fn answer(submitted: Submitted) -> String {
        match submitted {
            Submitted::Pending(rx) => rx.recv().expect("shard answers"),
            Submitted::Ready(line) | Submitted::Shutdown(line) => line,
        }
    }

    fn load(session: &str) -> String {
        format!(r#"{{"type":"load","session":"{session}","gen":"synthetic:3:40:5"}}"#)
    }

    fn analyze(session: &str) -> String {
        format!(r#"{{"type":"analyze","session":"{session}","analysis":"taint"}}"#)
    }

    /// A hash of the name would put `c0s3` and `c1s3` on the same one of
    /// two shards; placed by load, they land on different ones, so one's
    /// stalled solve does not hold the other's `analyze` back.
    #[test]
    fn sessions_loaded_together_are_placed_on_different_shards() {
        let exec = stalling_executor("c0s3");
        for s in ["c0s3", "c1s3"] {
            assert!(answer(exec.submit(&load(s))).contains(r#""request":"load""#));
        }
        let stalled = exec.submit(&analyze("c0s3"));
        let other = answer(exec.submit(&analyze("c1s3")));
        assert!(other.contains(r#""request":"analyze""#), "{other}");
        let stalled = answer(stalled);
        assert!(stalled.contains(r#""request":"analyze""#), "{stalled}");
    }

    /// A placed session never moves: while its own shard is stalled, a
    /// re-`load` bounces instead of going to the idle shard. A request
    /// for a session never loaded places nothing.
    #[test]
    fn a_placed_session_stays_on_its_shard() {
        let exec = stalling_executor("s");
        assert!(answer(exec.submit(&load("s"))).contains(r#""request":"load""#));
        let stalled = exec.submit(&analyze("s"));
        let reload = answer(exec.submit(&load("s")));
        assert!(reload.contains(r#""error":"overloaded""#), "{reload}");
        assert!(answer(stalled).contains(r#""request":"analyze""#));
        let unknown = answer(exec.submit(&analyze("ghost")));
        assert!(unknown.contains("unknown session `ghost`"), "{unknown}");
        let routes = exec.routes.lock().expect("routes lock");
        assert_eq!(routes.shard.keys().collect::<Vec<_>>(), ["s"]);
        assert_eq!(routes.placed, [1, 0]);
    }
}
