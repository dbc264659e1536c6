//! Shard-local request handling.
//!
//! A [`ShardState`] is the per-worker half of the executor: the stores
//! (sessions) this shard owns, its quarantine list, and a handle to the
//! shared [`Engine`]. Sessions are routed to shards by hashing the
//! session name, so one session's requests are always handled by the
//! same worker thread in submission order — the per-session response
//! stream is deterministic no matter how many shards or connections
//! the server runs.
//!
//! Every request runs behind a panic-isolation barrier in the worker
//! loop (`exec.rs`); [`ShardState::isolate_panic`] tears down and
//! quarantines only the session the panicking request addressed.

use crate::engine::{Engine, LoadedSpl};
use crate::store::{mode_str, parse_mode, ChaosSpec, RenderedSolution, Store, ANALYSES};
use crate::ServerOptions;
use spllift_benchgen::{parse_subject_spec, GeneratedSpl, SubjectSpec};
use spllift_core::{GovernorOptions, LatticeHints, ModelMode, SolveOutcome};
use spllift_features::{map_shards, parse_feature_model, Configuration, FeatureId, FeatureTable};
use spllift_frontend::parse_source;
use spllift_ide::IdeStats;
use spllift_ir::{MethodId, Program};
use spllift_json::Json;
use spllift_spl::FaultKind;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Implicit per-rung operation budget armed for a `bdd-blowup` fault
/// when no `--bdd-op-budget` is configured — the injected blowout must
/// have a meter to trip.
const FAULT_OP_BUDGET: u64 = 1 << 32;

/// Implicit per-rung deadline armed for a `slow-edge` fault when no
/// `--solve-timeout-ms` is configured.
const FAULT_TIMEOUT_MS: u64 = 250;

/// How much longer than the per-rung deadline an injected `slow-edge`
/// stall sleeps, so the deadline check after it always trips.
const FAULT_STALL_MARGIN_MS: u64 = 1000;

/// A statement/fact query, parsed and validated on the shard thread so
/// the worker pool only ever touches `Sync` data.
enum ParsedQuery {
    /// `constraint_of`: the feature constraint of `(stmt, fact)`.
    Constraint { stmt: String, fact: String },
    /// `reachability_of`: the constraint under which `stmt` executes.
    Reach { stmt: String },
    /// `holds_in`: does `(stmt, fact)` hold in one configuration?
    Holds {
        stmt: String,
        fact: String,
        config: Configuration,
    },
}

pub(crate) fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub(crate) fn hex16(fp: u64) -> String {
    format!("{fp:016x}")
}

pub(crate) fn req_str<'a>(req: &'a Json, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .ok_or_else(|| format!("missing `{key}` field"))?
        .as_str()
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn opt_str<'a>(req: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

/// Optional unsigned integer field. Rejects non-numbers, negatives,
/// fractions, and values outside `u64` with a structured error instead
/// of truncating or panicking.
fn opt_u64(req: &Json, key: &str) -> Result<Option<u64>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            format!(
                "`{key}` must be a non-negative integer (got {})",
                v.render()
            )
        }),
    }
}

/// Like [`opt_u64`] but additionally rejects zero (every governance
/// knob is a budget; a zero budget can never admit a solve) and falls
/// back to the server-wide default.
fn governance_u64(req: &Json, key: &str, default: Option<u64>) -> Result<Option<u64>, String> {
    match opt_u64(req, key)? {
        None => Ok(default),
        Some(0) => Err(format!("`{key}` must be >= 1")),
        some => Ok(some),
    }
}

fn parse_gen_spec(s: &str) -> Result<SubjectSpec, String> {
    // One grammar for every front end (see spllift_benchgen docs):
    //   MM08|GPL|Lampiro|BerkeleyDB
    //   synthetic:<features>:<loc>:<seed>[:model=free|chain|groups][:depth=N]
    parse_subject_spec(s)
}

/// Resolves a `<method>:<index>` key to the canonical `m<N>:<I>` form
/// ([`spllift_ir::StmtRef`]'s `Display`), validating both parts.
fn parse_stmt_key(program: &Program, s: &str) -> Result<String, String> {
    let (mpart, ipart) = s
        .rsplit_once(':')
        .ok_or_else(|| format!("bad statement `{s}` (want `method:index`)"))?;
    let index: u32 = ipart
        .trim()
        .parse()
        .map_err(|_| format!("bad statement index in `{s}`"))?;
    let mid = resolve_method(program, mpart.trim())?;
    let m = program.method(mid);
    let n = m
        .body
        .as_ref()
        .map(|b| b.stmts.len())
        .ok_or_else(|| format!("method `{}` has no body", m.name))?;
    if index as usize >= n {
        return Err(format!(
            "statement index {index} out of range for `{}` ({n} statements)",
            m.name
        ));
    }
    Ok(format!("m{}:{}", mid.0, index))
}

fn resolve_method(program: &Program, m: &str) -> Result<MethodId, String> {
    if let Some(mid) = program.find_method(m) {
        return Ok(mid);
    }
    // Fall back to the raw id form the server itself emits.
    if let Some(n) = m.strip_prefix('m').and_then(|d| d.parse::<u32>().ok()) {
        if (n as usize) < program.methods().len() {
            return Ok(MethodId(n));
        }
    }
    Err(format!("unknown method `{m}`"))
}

fn parse_query(program: &Program, table: &FeatureTable, q: &Json) -> Result<ParsedQuery, String> {
    let kind = req_str(q, "kind")?;
    match kind {
        "constraint_of" => Ok(ParsedQuery::Constraint {
            stmt: parse_stmt_key(program, req_str(q, "stmt")?)?,
            fact: req_str(q, "fact")?.to_owned(),
        }),
        "reachability_of" => Ok(ParsedQuery::Reach {
            stmt: parse_stmt_key(program, req_str(q, "stmt")?)?,
        }),
        "holds_in" => {
            let entries = q
                .get("config")
                .and_then(Json::as_arr)
                .ok_or("`config` must be an array of feature names")?;
            let mut enabled = Vec::new();
            for e in entries {
                let fname = e
                    .as_str()
                    .ok_or_else(|| "`config` entries must be strings".to_owned())?;
                enabled.push(
                    table
                        .get(fname)
                        .ok_or_else(|| format!("unknown feature `{fname}`"))?,
                );
            }
            Ok(ParsedQuery::Holds {
                stmt: parse_stmt_key(program, req_str(q, "stmt")?)?,
                fact: req_str(q, "fact")?.to_owned(),
                config: Configuration::from_enabled(enabled),
            })
        }
        other => Err(format!(
            "unknown query kind `{other}` (constraint_of|reachability_of|holds_in)"
        )),
    }
}

/// Renders one query result. A missing row is the ⊥ constraint, not an
/// error — the server cannot tell "fact never holds" from "no such
/// fact", and the paper's semantics make both `false`.
fn render_query(sol: &RenderedSolution, item: &Result<ParsedQuery, String>) -> Json {
    let q = match item {
        Ok(q) => q,
        Err(msg) => return obj(vec![("error", Json::str(msg.clone()))]),
    };
    let mut fields = match q {
        ParsedQuery::Constraint { stmt, fact } => {
            let cube = sol
                .fact_row(stmt, fact)
                .map_or("false", |r| r.cube.as_str());
            vec![
                ("kind", Json::str("constraint_of")),
                ("stmt", Json::str(stmt.clone())),
                ("fact", Json::str(fact.clone())),
                ("constraint", Json::str(cube)),
            ]
        }
        ParsedQuery::Reach { stmt } => {
            let cube = sol.reach_row(stmt).map_or("false", |r| r.cube.as_str());
            vec![
                ("kind", Json::str("reachability_of")),
                ("stmt", Json::str(stmt.clone())),
                ("constraint", Json::str(cube)),
            ]
        }
        ParsedQuery::Holds { stmt, fact, config } => {
            let holds = sol
                .fact_row(stmt, fact)
                .is_some_and(|r| config.satisfies(&r.expr));
            vec![
                ("kind", Json::str("holds_in")),
                ("stmt", Json::str(stmt.clone())),
                ("fact", Json::str(fact.clone())),
                ("holds", Json::Bool(holds)),
            ]
        }
    };
    // Degraded solutions answer with weaker-or-equal constraints (and
    // thus possibly-spurious `holds`); flag every answer drawn from one.
    if sol.degraded {
        fields.push(("degraded", Json::Bool(true)));
    }
    obj(fields)
}

pub(crate) fn stats_obj(stats: &IdeStats) -> Json {
    obj(vec![
        ("propagations", Json::num(stats.propagations)),
        ("flow_evals", Json::num(stats.flow_evals)),
        ("jump_fns", Json::num(stats.jump_fn_constructions)),
        ("killed_early", Json::num(stats.killed_early)),
        ("value_updates", Json::num(stats.value_updates)),
    ])
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A `stats` snapshot of one shard: its sessions' summary objects and
/// its quarantine list. The executor merges all shards' snapshots into
/// one globally name-sorted response.
pub(crate) struct ShardSnapshot {
    pub sessions: Vec<(String, Json)>,
    pub quarantined: Vec<String>,
}

/// One executor shard's session state plus the shared engine handle.
pub(crate) struct ShardState {
    pub engine: Arc<Engine>,
    stores: BTreeMap<String, Store>,
    /// Sessions destroyed by a caught panic, with the panic message.
    /// Requests against them get a structured error until a fresh `load`
    /// replaces them; every other session keeps serving normally.
    quarantined: BTreeMap<String, String>,
}

impl ShardState {
    pub fn new(engine: Arc<Engine>) -> ShardState {
        ShardState {
            engine,
            stores: BTreeMap::new(),
            quarantined: BTreeMap::new(),
        }
    }

    /// Handles one session-scoped request (`load`/`analyze`/`query`/
    /// `edit` — the router keeps everything else off the shards).
    pub fn handle(&mut self, req: &Json, ty: &str, session: &str) -> Result<Json, String> {
        // Quarantined sessions answer structured errors for everything
        // except a fresh `load`, which replaces them.
        if ty != "load" {
            if let Some(reason) = self.quarantined.get(session) {
                return Err(format!(
                    "session `{session}` is quarantined after a panic ({reason}); \
                     send a `load` to replace it"
                ));
            }
        }
        match ty {
            "load" => self.do_load(req, session),
            "analyze" => self.do_analyze(req, session),
            "query" => self.do_query(req, session),
            "edit" => self.do_edit(req, session),
            other => Err(format!("internal: `{other}` routed to a shard")),
        }
    }

    /// Quarantines the session a panicking request addressed and renders
    /// the structured panic error. The half-updated store is discarded
    /// wholesale — nothing it touched is shared (the engine only holds
    /// immutable artifacts and fully-rendered solutions), so concurrent
    /// sessions and the cache are unaffected.
    pub fn isolate_panic(&mut self, session: &str, payload: &(dyn std::any::Any + Send)) -> Json {
        self.engine
            .gov
            .panics_isolated
            .fetch_add(1, Ordering::SeqCst);
        let message = panic_message(payload);
        self.stores.remove(session);
        self.quarantined.insert(session.to_owned(), message.clone());
        obj(vec![
            ("type", Json::str("error")),
            ("error", Json::str("panic")),
            ("message", Json::str(message)),
            ("session", Json::str(session)),
            ("quarantined", Json::Bool(true)),
        ])
    }

    /// This shard's contribution to a `stats` response.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            sessions: self
                .stores
                .iter()
                .map(|(name, s)| {
                    let summary = obj(vec![
                        ("session", Json::str(name.clone())),
                        ("fingerprint", Json::str(hex16(s.fingerprint()))),
                        ("methods", Json::num(s.spl.program.methods().len() as u64)),
                        ("stmts", Json::num(s.spl.program.stmt_count() as u64)),
                        (
                            "analyses",
                            Json::Arr(s.slot_keys().into_iter().map(Json::str).collect()),
                        ),
                    ]);
                    (name.clone(), summary)
                })
                .collect(),
            quarantined: self.quarantined.keys().cloned().collect(),
        }
    }

    fn store(&self, name: &str) -> Result<&Store, String> {
        self.stores
            .get(name)
            .ok_or_else(|| format!("unknown session `{name}` (send a `load` first)"))
    }

    fn store_mut(&mut self, name: &str) -> Result<&mut Store, String> {
        self.stores
            .get_mut(name)
            .ok_or_else(|| format!("unknown session `{name}` (send a `load` first)"))
    }

    fn do_load(&mut self, req: &Json, name: &str) -> Result<Json, String> {
        let source = opt_str(req, "source")?;
        let path = opt_str(req, "path")?;
        let gen = opt_str(req, "gen")?;
        let model_text = opt_str(req, "model")?;
        if [source.is_some(), path.is_some(), gen.is_some()]
            .iter()
            .filter(|b| **b)
            .count()
            != 1
        {
            return Err("load takes exactly one of `source`, `path`, `gen`".into());
        }
        let (program, table, model, or_groups) = if let Some(spec) = gen {
            if model_text.is_some() {
                return Err(
                    "`model` cannot be combined with `gen` (the generated feature model is used)"
                        .into(),
                );
            }
            let spl = GeneratedSpl::generate(parse_gen_spec(spec)?);
            let model = Some(spl.model_expr());
            let or_groups = spl.model.or_groups();
            let GeneratedSpl { program, table, .. } = spl;
            (program, table, model, or_groups)
        } else {
            let text = match (source, path) {
                (Some(s), _) => s.to_owned(),
                (_, Some(p)) => {
                    std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?
                }
                _ => unreachable!("counted above"),
            };
            let mut table = FeatureTable::new();
            let program = parse_source(&text, &mut table)?;
            let (model, or_groups) = match model_text {
                None => (None, Vec::new()),
                Some(mt) => {
                    let fm =
                        parse_feature_model(mt, &mut table).map_err(|e| format!("model: {e}"))?;
                    let or_groups = fm.or_groups();
                    (Some(fm.to_expr()), or_groups)
                }
            };
            (program, table, model, or_groups)
        };
        // Intern through the engine: a session loading an already-resident
        // product line shares the parsed artifact instead of retaining a
        // second copy.
        let spl = self
            .engine
            .intern(LoadedSpl::new(program, table, model, or_groups)?);
        let store = Store::new(spl);
        let resp = obj(vec![
            ("type", Json::str("ok")),
            ("request", Json::str("load")),
            ("session", Json::str(name)),
            ("fingerprint", Json::str(hex16(store.fingerprint()))),
            (
                "methods",
                Json::num(store.spl.program.methods().len() as u64),
            ),
            ("stmts", Json::num(store.spl.program.stmt_count() as u64)),
            ("features", Json::num(store.spl.table.len() as u64)),
        ]);
        self.quarantined.remove(name);
        self.stores.insert(name.to_owned(), store);
        Ok(resp)
    }

    fn analysis_and_mode(req: &Json) -> Result<(&str, ModelMode), String> {
        let analysis = opt_str(req, "analysis")?.unwrap_or("taint");
        if !ANALYSES.contains(&analysis) {
            return Err(format!(
                "unknown analysis `{analysis}` (taint|types|reaching-defs|uninit)"
            ));
        }
        let mode = parse_mode(opt_str(req, "mode")?.unwrap_or("on-edges"))?;
        Ok((analysis, mode))
    }

    /// Builds this request's resource envelope: per-request knobs
    /// (`timeout_ms`, `bdd_node_budget`, `bdd_op_budget`,
    /// `max_propagations`) override the server-wide defaults — the
    /// retry-after-degrade path: re-send the same `analyze` with a
    /// bigger budget and the (uncached) degraded slot re-solves fully.
    /// The `threads` field is still validated, because protocol
    /// versioning is additive-only, but it has no effect: the solver is
    /// sequential.
    fn request_governor(&self, req: &Json) -> Result<GovernorOptions, String> {
        let opts = &self.engine.opts;
        match opt_u64(req, "threads")? {
            Some(0) => return Err("`threads` must be >= 1".into()),
            Some(n) if usize::try_from(n).is_err() => {
                return Err("`threads` is out of range".into());
            }
            _ => {}
        }
        Ok(GovernorOptions {
            max_bdd_nodes: governance_u64(req, "bdd_node_budget", opts.bdd_node_budget)?,
            max_bdd_ops: governance_u64(req, "bdd_op_budget", opts.bdd_op_budget)?,
            max_propagations: governance_u64(req, "max_propagations", opts.max_propagations)?,
            timeout: governance_u64(req, "timeout_ms", opts.solve_timeout_ms)?
                .map(Duration::from_millis),
            ..GovernorOptions::default()
        })
    }

    /// Resolves this request's lattice hints: the feature universe, the
    /// features the client needs kept precise (the request's
    /// `keep_features` array, else the server-wide `--keep-features`
    /// default), and the model's OR groups — everything the governor
    /// needs to schedule feature-sparing abstractions before it falls
    /// back to the canonical ladder. The per-request list is strict
    /// (naming an unknown feature is an error, since the client is
    /// talking about *this* product line); the server-wide default is
    /// filtered to the session's universe, because one flag may serve
    /// sessions over different product lines.
    fn lattice_hints(
        req: &Json,
        opts: &ServerOptions,
        spl: &LoadedSpl,
    ) -> Result<LatticeHints, String> {
        const KEEP_ERR: &str = "`keep_features` must be an array of feature-name strings";
        let requested: Option<Vec<String>> = match req.get("keep_features") {
            None => None,
            Some(j) => Some(
                j.as_arr()
                    .ok_or(KEEP_ERR)?
                    .iter()
                    .map(|item| item.as_str().map(str::to_owned).ok_or(KEEP_ERR))
                    .collect::<Result<_, _>>()?,
            ),
        };
        let keep = match requested {
            Some(names) => {
                let mut ids = Vec::with_capacity(names.len());
                for n in &names {
                    ids.push(
                        spl.table
                            .get(n)
                            .ok_or_else(|| format!("unknown feature `{n}` in `keep_features`"))?,
                    );
                }
                Some(ids)
            }
            None => match &opts.keep_features {
                None => return Ok(LatticeHints::default()),
                Some(names) => {
                    let ids: Vec<FeatureId> =
                        names.iter().filter_map(|n| spl.table.get(n)).collect();
                    if ids.is_empty() {
                        // None of the default names exist here — behave
                        // exactly as if no default were configured.
                        return Ok(LatticeHints::default());
                    }
                    Some(ids)
                }
            },
        };
        Ok(LatticeHints {
            universe: spl.table.iter().map(|(id, n)| (id, n.to_owned())).collect(),
            keep,
            or_groups: spl.or_groups.clone(),
        })
    }

    /// Arms the injected fault for this request if the plan's trigger
    /// matches, patching implicit budgets so the fault class has a
    /// meter to trip (a blowup needs an op budget, a stall a deadline).
    fn armed_fault(&self, seq: u64, gov: &mut GovernorOptions) -> Option<ChaosSpec> {
        if seq == 0 {
            return None;
        }
        let plan = self.engine.opts.inject_fault.filter(|p| p.trigger == seq)?;
        match plan.kind {
            FaultKind::BddBlowup => {
                gov.max_bdd_ops = gov.max_bdd_ops.or(Some(FAULT_OP_BUDGET));
            }
            FaultKind::SlowEdge => {
                gov.timeout = gov
                    .timeout
                    .or(Some(Duration::from_millis(FAULT_TIMEOUT_MS)));
            }
            FaultKind::PanicInFlow => {}
            FaultKind::BudgetExhaust => {
                // The armed meter *is* the fault: a per-attempt op budget
                // of exactly `ops` trips mid-solve at a reproducible
                // operation, with no wrapper in the flow path. Override
                // (rather than `.or()`) so the plan wins even when a
                // server-wide budget is configured.
                gov.max_bdd_ops = Some(plan.ops);
                self.engine
                    .gov
                    .faults_injected
                    .fetch_add(1, Ordering::SeqCst);
                return None;
            }
        }
        self.engine
            .gov
            .faults_injected
            .fetch_add(1, Ordering::SeqCst);
        let allowance = gov
            .timeout
            .unwrap_or(Duration::from_millis(FAULT_TIMEOUT_MS));
        Some(ChaosSpec {
            kind: plan.kind,
            slow_for: allowance + Duration::from_millis(FAULT_STALL_MARGIN_MS),
        })
    }

    fn do_analyze(&mut self, req: &Json, name: &str) -> Result<Json, String> {
        let global_seq = self.engine.gov.bump_analyze();
        let (analysis, mode) = Self::analysis_and_mode(req)?;
        let analysis = analysis.to_owned();
        let mut gov = self.request_governor(req)?;
        // The fault trigger sequence: by default the global `analyze`
        // ordinal (deterministic for the single-client transcript
        // harness); with `--inject-fault-session` the named session's
        // own ordinal, which stays deterministic under concurrency.
        let trigger_seq = match &self.engine.opts.fault_session {
            None => global_seq,
            Some(fs) if fs == name => self.stores.get(name).map_or(0, |s| s.analyze_seq + 1),
            Some(_) => 0,
        };
        let chaos = self.armed_fault(trigger_seq, &mut gov);
        let engine = Arc::clone(&self.engine);
        let store = self
            .stores
            .get_mut(name)
            .ok_or_else(|| format!("unknown session `{name}` (send a `load` first)"))?;
        gov.lattice = Self::lattice_hints(req, &engine.opts, &store.spl)?;
        store.analyze_seq += 1;
        let key = (
            store.fingerprint(),
            analysis.clone(),
            mode_str(mode).to_owned(),
        );
        let (solve, stats, outcome, solution) = match engine.cache_get(&key) {
            Some(cached) => {
                store.install_cached(&analysis, mode, Arc::clone(&cached))?;
                (
                    "cached",
                    IdeStats::default(),
                    SolveOutcome::Complete,
                    cached,
                )
            }
            None => {
                let out = match store.analyze(&analysis, mode, gov, chaos.as_ref()) {
                    Ok(out) => out,
                    Err(e) => {
                        engine.gov.solve_failures.fetch_add(1, Ordering::SeqCst);
                        return Err(e);
                    }
                };
                // Only full-precision solutions enter the cache: a
                // degraded answer must not shadow a later, better-funded
                // solve of the same fingerprint.
                if out.outcome.is_degraded() {
                    engine.gov.note_degraded(&out.solution.rung);
                } else {
                    engine.cache_insert(key, Arc::clone(&out.solution));
                }
                (out.solve, out.stats, out.outcome, out.solution)
            }
        };
        engine.set_last_solve(stats);
        let mut fields = vec![
            ("type", Json::str("ok")),
            ("request", Json::str("analyze")),
            ("session", Json::str(name)),
            ("analysis", Json::str(analysis)),
            ("mode", Json::str(mode_str(mode))),
            ("solve", Json::str(solve)),
            (
                "outcome",
                Json::str(if outcome.is_degraded() {
                    "degraded"
                } else {
                    "complete"
                }),
            ),
            ("rung", Json::str(solution.rung.clone())),
            ("propagations", Json::num(stats.propagations)),
            ("flow_evals", Json::num(stats.flow_evals)),
            ("jump_fns", Json::num(stats.jump_fn_constructions)),
            ("value_updates", Json::num(stats.value_updates)),
            ("facts", Json::num(solution.facts.len() as u64)),
            ("digest", Json::str(hex16(solution.digest))),
        ];
        if let SolveOutcome::Degraded { attempts, .. } = &outcome {
            fields.push((
                "attempts",
                Json::Arr(
                    attempts
                        .iter()
                        .map(|(point, reason)| {
                            obj(vec![
                                ("rung", Json::str(point.name())),
                                ("reason", Json::str(reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
            fields.push(("degraded_facts", Json::num(solution.facts.len() as u64)));
        }
        Ok(obj(fields))
    }

    fn do_query(&mut self, req: &Json, name: &str) -> Result<Json, String> {
        let (analysis, mode) = Self::analysis_and_mode(req)?;
        let jobs = self.engine.opts.jobs;
        let store = self.store(name)?;
        let solution = store.current_solution(analysis, mode).ok_or_else(|| {
            format!(
                "no current solution for {analysis}/{} in session `{name}` \
                 (send an `analyze` first, and after every `edit`)",
                mode_str(mode)
            )
        })?;
        let queries = req
            .get("queries")
            .and_then(Json::as_arr)
            .ok_or("`queries` must be an array")?;
        let parsed: Vec<Result<ParsedQuery, String>> = queries
            .iter()
            .map(|q| parse_query(&store.spl.program, &store.spl.table, q))
            .collect();
        // Fan out over the worker pool. Workers borrow the rendered
        // solution (plain strings + feature expressions — no BDD handles
        // leave this thread); contiguous ordered shards keep the result
        // order, and thus the response bytes, independent of `jobs`.
        let sol: &RenderedSolution = solution;
        let (shards, _shard_stats, _jobs) = map_shards(&parsed, jobs, |_, chunk| {
            chunk
                .iter()
                .map(|item| render_query(sol, item))
                .collect::<Vec<Json>>()
        });
        let results: Vec<Json> = shards.into_iter().flatten().collect();
        Ok(obj(vec![
            ("type", Json::str("ok")),
            ("request", Json::str("query")),
            ("session", Json::str(name)),
            ("analysis", Json::str(analysis)),
            ("mode", Json::str(mode_str(mode))),
            ("count", Json::num(results.len() as u64)),
            ("results", Json::Arr(results)),
        ]))
    }

    fn do_edit(&mut self, req: &Json, name: &str) -> Result<Json, String> {
        let method = req_str(req, "method")?;
        let locals = opt_str(req, "locals")?.unwrap_or("");
        let stmts = req
            .get("stmts")
            .and_then(Json::as_arr)
            .ok_or("`stmts` must be an array of strings")?;
        let mut lines = Vec::with_capacity(stmts.len());
        for s in stmts {
            lines.push(
                s.as_str()
                    .ok_or_else(|| "`stmts` entries must be strings".to_owned())?,
            );
        }
        let method = method.to_owned();
        let locals = locals.to_owned();
        let store = self.store_mut(name)?;
        let (_mid, n) = store.edit(&method, &locals, &lines)?;
        Ok(obj(vec![
            ("type", Json::str("ok")),
            ("request", Json::str("edit")),
            ("session", Json::str(name)),
            ("method", Json::str(method)),
            ("fingerprint", Json::str(hex16(store.fingerprint()))),
            ("stmts", Json::num(n as u64)),
        ]))
    }
}
