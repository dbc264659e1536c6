//! The shared, immutable half of the server: the [`Engine`].
//!
//! Following the wasmtime `Engine`/`Store` split, everything that is
//! safe to share between concurrent sessions lives here behind `Arc` +
//! fine-grained locking:
//!
//! * **loaded artifacts** — fingerprinted parsed programs + feature
//!   models ([`LoadedSpl`]), interned so N sessions that load the same
//!   product line retain one copy; the table holds them weakly, so an
//!   artifact lives only as long as a session uses it,
//! * the **cross-session solution cache** — LRU over
//!   [`RenderedSolution`]s keyed by `(fingerprint, analysis, mode)`;
//!   rendered solutions are manager-free (strings + `FeatureExpr`), so
//!   they are `Send + Sync` by construction and one `Arc` can serve
//!   every shard,
//! * **governance counters** — plain atomics, and
//! * the **last-solve statistics** published by `stats`.
//!
//! Nothing here holds a BDD: a BDD manager is owned by the thread that
//! built it (DESIGN.md §12). Everything *mutable per session* — its
//! own BDD manager, `SolverMemo`s, dirty-root sets — lives in
//! [`crate::store::Store`], which stays confined to one executor shard
//! so each session's response stream keeps its submission order.

use crate::cache::{CacheKey, SolutionCache};
use crate::store::RenderedSolution;
use crate::ServerOptions;
use spllift_features::{FeatureExpr, FeatureId, FeatureTable};
use spllift_hash::FastMap;
use spllift_ide::IdeStats;
use spllift_ir::{fingerprint, Program};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// One loaded product line: the parsed program, its feature universe,
/// the optional feature-model constraint, and the fingerprint over all
/// three. It is plain data, `Send + Sync`, and shared (`Arc`) across
/// every shard through the engine's intern table. Edits copy-on-write
/// ([`Arc::make_mut`] in the store).
#[derive(Debug, Clone)]
pub struct LoadedSpl {
    /// The checked program.
    pub program: Program,
    /// The feature universe (fixed at load: edits cannot grow it).
    pub table: FeatureTable,
    /// The feature-model constraint, if any.
    pub model: Option<FeatureExpr>,
    /// The model's OR groups (`parent`, members) — candidates for the
    /// governor's *confound* abstraction when a request names
    /// `keep_features`. Empty when the model has none (or none was
    /// loaded).
    pub or_groups: Vec<(FeatureId, Vec<FeatureId>)>,
    /// Fingerprint of `(program, table, model)`.
    pub fingerprint: u64,
}

impl LoadedSpl {
    /// Validates and fingerprints a freshly parsed product line.
    pub fn new(
        program: Program,
        table: FeatureTable,
        model: Option<FeatureExpr>,
        or_groups: Vec<(FeatureId, Vec<FeatureId>)>,
    ) -> Result<LoadedSpl, String> {
        if program.entry_points().is_empty() {
            return Err("no entry point: declare a method named `main`".into());
        }
        program
            .check()
            .map_err(|e| format!("invalid program: {e}"))?;
        let fp = fingerprint(&program, &table, model.as_ref());
        Ok(LoadedSpl {
            program,
            table,
            model,
            or_groups,
            fingerprint: fp,
        })
    }

    /// Recomputes the fingerprint after an in-place program mutation
    /// (only reachable through a store's private, copy-on-write copy).
    pub fn refresh_fingerprint(&mut self) {
        self.fingerprint = fingerprint(&self.program, &self.table, self.model.as_ref());
    }
}

/// Cross-shard governance counters (the `stats` response's
/// `governance` object, minus the per-shard quarantine lists).
#[derive(Debug, Default)]
pub struct GovCounters {
    /// `analyze` requests seen (the global fault trigger counts these).
    pub analyze_requests: AtomicU64,
    /// Panics caught by the per-request isolation barrier.
    pub panics_isolated: AtomicU64,
    /// Solves answered from a lattice point below full precision.
    pub degraded_solves: AtomicU64,
    /// Solves where every lattice point aborted.
    pub solve_failures: AtomicU64,
    /// Faults actually injected by `--inject-fault`.
    pub faults_injected: AtomicU64,
    /// Per-lattice-point degradation counters: stable point name →
    /// how many solves completed at that abstraction. Sorted map so the
    /// `stats` rendering is deterministic.
    pub degraded_points: Mutex<BTreeMap<String, u64>>,
}

impl GovCounters {
    /// Increments `analyze_requests` and returns the new (1-based)
    /// ordinal — the global fault trigger sequence.
    pub fn bump_analyze(&self) -> u64 {
        self.analyze_requests.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Records one degraded solve completing at the lattice point named
    /// `point` (also bumps the `degraded_solves` total).
    pub fn note_degraded(&self, point: &str) {
        self.degraded_solves.fetch_add(1, Ordering::SeqCst);
        let mut map = self.degraded_points.lock().expect("degraded_points lock");
        *map.entry(point.to_owned()).or_insert(0) += 1;
    }

    /// A sorted snapshot of the per-point counters.
    pub fn degraded_points_snapshot(&self) -> Vec<(String, u64)> {
        let map = self.degraded_points.lock().expect("degraded_points lock");
        map.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }
}

/// The shared immutable engine. One per server process; every shard and
/// every connection holds the same `Arc<Engine>`.
pub struct Engine {
    /// Server-wide configuration (immutable after startup).
    pub opts: ServerOptions,
    /// Governance counters.
    pub gov: GovCounters,
    cache: Mutex<SolutionCache>,
    artifacts: Mutex<FastMap<u64, Weak<LoadedSpl>>>,
    last_solve: Mutex<IdeStats>,
}

impl Engine {
    /// Creates an engine with an empty cache and intern table.
    pub fn new(opts: ServerOptions) -> Engine {
        let cache = SolutionCache::new(opts.cache_entries, opts.cache_bytes);
        Engine {
            opts,
            gov: GovCounters::default(),
            cache: Mutex::new(cache),
            artifacts: Mutex::new(FastMap::default()),
            last_solve: Mutex::new(IdeStats::default()),
        }
    }

    /// Interns a loaded artifact by fingerprint: if an identical product
    /// line is already resident (another session holds the same bytes),
    /// the existing `Arc` is returned and the fresh copy is dropped.
    /// Entries of artifacts no session holds any more are pruned first.
    pub fn intern(&self, spl: LoadedSpl) -> Arc<LoadedSpl> {
        let mut artifacts = self.artifacts.lock().expect("artifact lock");
        artifacts.retain(|_, w| w.strong_count() > 0);
        if let Some(live) = artifacts.get(&spl.fingerprint).and_then(Weak::upgrade) {
            return live;
        }
        let spl = Arc::new(spl);
        artifacts.insert(spl.fingerprint, Arc::downgrade(&spl));
        spl
    }

    /// Cache lookup (counts a hit or miss).
    pub fn cache_get(&self, key: &CacheKey) -> Option<Arc<RenderedSolution>> {
        self.cache.lock().expect("cache lock").get(key)
    }

    /// Caches a full-precision solution.
    pub fn cache_insert(&self, key: CacheKey, solution: Arc<RenderedSolution>) {
        self.cache.lock().expect("cache lock").insert(key, solution);
    }

    /// Cache snapshot for `stats`: `(entries, bytes, hits, misses,
    /// evictions)` under one lock acquisition, so the numbers are
    /// mutually consistent.
    pub fn cache_stats(&self) -> (usize, usize, u64, u64, u64) {
        let cache = self.cache.lock().expect("cache lock");
        let (hits, misses, evictions) = cache.counters();
        (cache.len(), cache.total_bytes(), hits, misses, evictions)
    }

    /// Clears the solution cache (returns the number of entries
    /// dropped, for the `evict` response) and the artifact intern table
    /// — the table holds no artifact alive, so nothing in use is freed.
    pub fn evict(&self) -> usize {
        self.artifacts.lock().expect("artifact lock").clear();
        self.cache.lock().expect("cache lock").clear()
    }

    /// Publishes the statistics of the most recent solve.
    pub fn set_last_solve(&self, stats: IdeStats) {
        *self.last_solve.lock().expect("last_solve lock") = stats;
    }

    /// The statistics of the most recent solve.
    pub fn last_solve(&self) -> IdeStats {
        *self.last_solve.lock().expect("last_solve lock")
    }
}

// The whole point of the engine: it is shareable. Compile-time proof
// that nothing thread-confined (a BDD handle) snuck in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<LoadedSpl>();
    assert_send_sync::<RenderedSolution>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use spllift_benchgen::{parse_subject_spec, GeneratedSpl};

    fn artifact(seed: u64) -> LoadedSpl {
        let spec = format!("synthetic:3:40:{seed}");
        let spl = GeneratedSpl::generate(parse_subject_spec(&spec).expect("spec"));
        let model = Some(spl.model_expr());
        let or_groups = spl.model.or_groups();
        let GeneratedSpl { program, table, .. } = spl;
        LoadedSpl::new(program, table, model, or_groups).expect("valid program")
    }

    /// A live artifact interns to the one shared `Arc`; once no session
    /// holds it, the next intern drops its entry.
    #[test]
    fn intern_shares_live_artifacts_and_forgets_dropped_ones() {
        let engine = Engine::new(ServerOptions::default());
        let a = engine.intern(artifact(1));
        assert!(Arc::ptr_eq(&a, &engine.intern(artifact(1))));
        let b = engine.intern(artifact(2));
        assert_eq!(engine.artifacts.lock().unwrap().len(), 2);
        drop(b);
        let c = engine.intern(artifact(3));
        let table = engine.artifacts.lock().unwrap();
        assert_eq!(table.len(), 2);
        assert!(table.contains_key(&a.fingerprint) && table.contains_key(&c.fingerprint));
    }
}
