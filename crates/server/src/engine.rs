//! The shared, immutable half of the server: the [`Engine`].
//!
//! Following the wasmtime `Engine`/`Store` split, everything that is
//! safe to share between concurrent sessions lives here behind `Arc` +
//! fine-grained locking:
//!
//! * **loaded artifacts** — fingerprinted parsed programs + feature
//!   models ([`LoadedSpl`]), interned so N sessions that load the same
//!   product line retain one copy,
//! * the **cross-session solution cache** — LRU over
//!   [`RenderedSolution`]s keyed by `(fingerprint, analysis, mode)`;
//!   rendered solutions are manager-free (strings + `FeatureExpr`), so
//!   they are `Send + Sync` by construction and one `Arc` can serve
//!   every shard,
//! * **governance counters** — plain atomics, and
//! * the **last-solve statistics** published by `stats`.
//!
//! The BDD store is thread-safe (each operation locks it once,
//! DESIGN.md §12), so the **BDD space is shared too**: every session of
//! one interned artifact holds the same [`SharedBddSpace`], so N
//! sessions that load the same product line build their constraints in
//! one hash-consed node store instead of N. Solves serialize on the
//! space's solve lock — resource budgets arm per-manager baselines, so
//! two concurrently *armed* solves on one space would meter each other's
//! allocations. Sessions over different programs still solve fully
//! concurrently.
//!
//! Everything *mutable per session* — `SolverMemo`, dirty-root sets —
//! lives in [`crate::store::Store`], which stays confined to one
//! executor shard so each session's response stream keeps its
//! submission order.

use crate::cache::{CacheKey, SolutionCache};
use crate::store::RenderedSolution;
use crate::ServerOptions;
use spllift_features::{BddConstraintContext, FeatureExpr, FeatureId, FeatureTable};
use spllift_hash::FastMap;
use spllift_ide::IdeStats;
use spllift_ir::{fingerprint, Program};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The BDD space shared by every session of one interned artifact: one
/// constraint context (one BDD variable per feature, in table order)
/// over the thread-safe hash-consed store, plus the lock that
/// serializes solves on it.
///
/// The lock exists because resource budgets arm *per-manager*
/// baselines ([`spllift_bdd::BddManager::set_budget`]): two
/// concurrently armed solves on one manager would charge each other's
/// allocations and could latch each other's exhaustion. Every BDD
/// operation on a space runs under it — the solve and the rendering of
/// its solution, both inside [`crate::store::Store::analyze`] — except
/// declaring the feature variables when the artifact is loaded. Queries
/// read the manager-free [`RenderedSolution`] and build no BDDs.
#[derive(Debug)]
pub struct SharedBddSpace {
    /// The shared constraint context.
    pub ctx: BddConstraintContext,
    /// Serializes solves, and the rendering of their solutions, on this
    /// space.
    pub solve_lock: Mutex<()>,
}

/// One loaded product line: the parsed program, its feature universe,
/// the optional feature-model constraint, the fingerprint over all
/// three, and the shared BDD space every session of this artifact
/// builds its constraints in. It is `Send + Sync` and shared (`Arc`)
/// across every shard through the engine's intern table. Edits
/// copy-on-write ([`Arc::make_mut`] in the store); the clone keeps the
/// same `space` handle — the feature universe is fixed at load, so an
/// edited session can keep hash-consing into the nodes it already
/// built.
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
    /// The shared BDD space (same handle across COW clones).
    pub space: Arc<SharedBddSpace>,
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
        let space = Arc::new(SharedBddSpace {
            ctx: BddConstraintContext::new(&table),
            solve_lock: Mutex::new(()),
        });
        Ok(LoadedSpl {
            program,
            table,
            model,
            or_groups,
            fingerprint: fp,
            space,
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
    artifacts: Mutex<FastMap<u64, Arc<LoadedSpl>>>,
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
    /// line is already resident (another session loaded the same bytes),
    /// the existing `Arc` is returned and the fresh copy is dropped.
    pub fn intern(&self, spl: LoadedSpl) -> Arc<LoadedSpl> {
        let mut artifacts = self.artifacts.lock().expect("artifact lock");
        Arc::clone(
            artifacts
                .entry(spl.fingerprint)
                .or_insert_with(|| Arc::new(spl)),
        )
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
    /// — sessions keep their own `Arc`s, so nothing in use is freed.
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
// that nothing thread-confined snuck in (the BDD manager inside
// `SharedBddSpace` is the `Arc`-based thread-safe store).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<LoadedSpl>();
    assert_send_sync::<SharedBddSpace>();
    assert_send_sync::<RenderedSolution>();
};
