//! The BDD node store, hash-consing unique table, and operation caches.
//!
//! The store is **thread-safe and shared by cloning**: [`BddManager`]
//! wraps an `Arc`-held [`SharedStore`] whose unique table and operation
//! caches are sharded behind fine-grained mutexes (wasmtime-style), and
//! whose node arena supports lock-free reads. Handles ([`Bdd`]) are
//! `Send + Sync`; any number of threads may build and combine formulas
//! on the same manager concurrently, and hash-consing guarantees they
//! agree on node identity — racing threads interning the same
//! `(var, low, high)` triple observe one node.
//!
//! The concurrency design (sharding, lock ordering, the determinism
//! argument for the parallel solver built on top) is documented in
//! DESIGN.md §12. The short version:
//!
//! * Nodes hash to one of [`SHARDS`] shards. Each shard owns a mutex
//!   over its slice of the unique table plus an append-only chunked
//!   arena; node ids encode `(shard, index)`, so [`node lookups`]
//!   (`SharedStore::node`) never take a lock.
//! * Op caches (`ite`/`not`/`restrict`) are sharded the same way. No
//!   lock is ever held across a recursive call or while another shard
//!   lock is taken, so the lock graph is trivially acyclic.
//! * Budget meters are atomics; exhaustion latches **exactly once**
//!   per arming through a small mutex-protected slot, and every
//!   operation short-circuits from then on without touching the memo
//!   caches (partial results computed after exhaustion are garbage).
//!
//! At a single thread the operation order, op charging, and budget
//! semantics are byte-for-byte those of the previous thread-confined
//! (`Rc<RefCell>`) store, which the committed server/chaos goldens pin.

use spllift_hash::{FastMap, FastSet, FxHasher64};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Index of a Boolean variable inside a [`BddManager`].
///
/// Variables are ordered by creation order; that order is the (fixed) BDD
/// variable order. The paper (§5) explicitly picks one ordering and leaves
/// optimization of the ordering to future work; we do the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Internal node index. `0` is the `false` terminal, `1` is `true`;
/// every other id encodes `(arena index << SHARD_BITS | shard) + 2`.
type NodeId = u32;

const FALSE_ID: NodeId = 0;
const TRUE_ID: NodeId = 1;
/// Pseudo-level of the terminals: below every real variable.
const TERMINAL_VAR: u32 = u32::MAX;

/// log2 of the shard count.
const SHARD_BITS: u32 = 4;
/// Number of unique-table/op-cache shards. A power of two; 16 keeps
/// contention low for the solver's worker-thread counts (≤ 8 by
/// default) while the per-manager footprint stays small — fuzzing
/// creates thousands of short-lived managers.
const SHARDS: usize = 1 << SHARD_BITS;

/// Shard an interior node id belongs to, and its index in that shard's
/// arena.
#[inline]
fn decode(id: NodeId) -> (usize, usize) {
    debug_assert!(id >= 2);
    let raw = id - 2;
    (
        (raw & (SHARDS as u32 - 1)) as usize,
        (raw >> SHARD_BITS) as usize,
    )
}

#[inline]
fn encode(shard: usize, index: usize) -> NodeId {
    let raw = ((index as u64) << SHARD_BITS) | shard as u64;
    let id = raw + 2;
    assert!(id <= u32::MAX as u64, "BDD store overflow in shard {shard}");
    id as NodeId
}

/// Shard selector: a full [`FxHasher64`] pass (its finalizer has full
/// avalanche), taking the **top** bits so the shard choice stays
/// independent of the bucket index the `FastMap` inside the shard
/// derives from the low bits of the same hash function.
#[inline]
fn shard_of<T: Hash>(key: &T) -> usize {
    let mut h = FxHasher64::default();
    key.hash(&mut h);
    (h.finish() >> (64 - SHARD_BITS)) as usize
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    low: NodeId,
    high: NodeId,
}

/// Counters describing the size of a manager, for diagnostics and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddStats {
    /// Number of allocated nodes (including the two terminals).
    pub nodes: usize,
    /// Number of declared variables.
    pub vars: usize,
    /// Number of entries in the ternary `ite` cache.
    pub cache_entries: usize,
}

/// Which budgeted resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// Nodes allocated since the budget was armed.
    Nodes,
    /// Memoized operation steps charged since the budget was armed.
    Ops,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetResource::Nodes => f.write_str("nodes"),
            BudgetResource::Ops => f.write_str("ops"),
        }
    }
}

/// Structured error returned when a [`BddBudget`] is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BddError {
    /// A resource budget was exceeded; the manager is *exhausted* until
    /// the budget is re-armed or cleared, and every operation
    /// short-circuits (returning arbitrary but valid handles) without
    /// touching the memo caches.
    BudgetExceeded {
        /// The resource that ran out.
        resource: BudgetResource,
        /// The configured limit.
        limit: u64,
        /// The usage at the moment the limit was crossed.
        used: u64,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::BudgetExceeded {
                resource,
                limit,
                used,
            } => write!(f, "bdd {resource} budget exceeded: {used} > {limit}"),
        }
    }
}

impl std::error::Error for BddError {}

/// Resource limits for a [`BddManager`], metered from the moment the
/// budget is armed with [`BddManager::set_budget`].
///
/// `None` means unlimited for that resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddBudget {
    /// Maximum nodes allocated after arming.
    pub max_nodes: Option<u64>,
    /// Maximum operation steps charged after arming.
    pub max_ops: Option<u64>,
}

impl BddBudget {
    /// A budget with no limits (metering still runs).
    pub const UNLIMITED: BddBudget = BddBudget {
        max_nodes: None,
        max_ops: None,
    };
}

/// Maximum chunks per arena shard; geometric chunk sizes
/// (`64 << chunk`), so 26 chunks cover far more than the `u32` id
/// space can address anyway.
const MAX_CHUNKS: usize = 26;
/// log2 of the first (smallest) chunk's length.
const FIRST_CHUNK_BITS: u32 = 6;

/// `(chunk, slot, chunk_len)` of arena index `i`.
#[inline]
fn chunk_of(i: usize) -> (usize, usize, usize) {
    let adj = (i >> FIRST_CHUNK_BITS) + 1;
    let k = (usize::BITS - 1 - adj.leading_zeros()) as usize;
    let start = ((1usize << k) - 1) << FIRST_CHUNK_BITS;
    (k, i - start, 1usize << (FIRST_CHUNK_BITS as usize + k))
}

/// One shard's append-only node storage: a table of geometrically
/// growing chunks. Writes happen only under the owning shard's unique
/// -table mutex; reads take no lock at all.
///
/// # Safety argument (lock-free reads)
///
/// A slot is written exactly once, *before* its node id is published:
/// the writer holds the shard mutex, writes the slot, stores `len` with
/// `Release`, inserts the id into the unique table, and releases the
/// mutex. A reader can only name the slot through a published id, which
/// it obtained via a happens-before edge with the publication (the
/// shard mutex, a thread spawn/join, a channel send, or another lock) —
/// so the non-atomic slot read cannot race the write. Chunk pointers
/// are published with `Release` and loaded with `Acquire` for the same
/// reason.
struct Arena {
    chunks: [AtomicPtr<Node>; MAX_CHUNKS],
    /// Number of initialized slots. Only the lock-holding writer
    /// advances it; `Release` so readers that learned an index through
    /// any acquire-path see the slot initialized.
    len: AtomicUsize,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicUsize::new(0),
        }
    }

    /// Appends a node; caller must hold the owning shard's mutex.
    fn push(&self, node: Node) -> usize {
        let i = self.len.load(Ordering::Relaxed);
        let (k, slot, cap) = chunk_of(i);
        let mut ptr = self.chunks[k].load(Ordering::Acquire);
        if ptr.is_null() {
            let chunk = vec![
                Node {
                    var: TERMINAL_VAR,
                    low: FALSE_ID,
                    high: FALSE_ID,
                };
                cap
            ]
            .into_boxed_slice();
            ptr = Box::into_raw(chunk).cast::<Node>();
            self.chunks[k].store(ptr, Ordering::Release);
        }
        // SAFETY: `slot < cap` by construction; this thread is the only
        // writer (shard mutex held) and the slot is unpublished.
        unsafe { ptr.add(slot).write(node) };
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// Lock-free read of an initialized slot (see the safety argument
    /// on [`Arena`]).
    #[inline]
    fn get(&self, i: usize) -> Node {
        let (k, slot, _) = chunk_of(i);
        let ptr = self.chunks[k].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null() && i < self.len.load(Ordering::Acquire));
        // SAFETY: the id naming `i` was published after the slot write
        // (happens-before via the publication edge), and slots are
        // written exactly once.
        unsafe { *ptr.add(slot) }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for (k, chunk) in self.chunks.iter().enumerate() {
            let ptr = chunk.load(Ordering::Acquire);
            if !ptr.is_null() {
                let cap = 1usize << (FIRST_CHUNK_BITS as usize + k);
                // SAFETY: the pointer came from `Box::into_raw` of a
                // boxed slice of exactly `cap` nodes, and `drop` has
                // exclusive access.
                unsafe { drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, cap))) };
            }
        }
    }
}

/// The shared, thread-safe store behind every clone of a [`BddManager`].
struct SharedStore {
    /// Sharded hash-consing table: `(var, low, high) → id`. Each shard's
    /// mutex also guards its `arenas` entry for writing.
    unique: [Mutex<FastMap<Node, NodeId>>; SHARDS],
    /// Per-shard node storage; reads are lock-free.
    arenas: [Arena; SHARDS],
    ite_cache: [Mutex<FastMap<(NodeId, NodeId, NodeId), NodeId>>; SHARDS],
    not_cache: [Mutex<FastMap<NodeId, NodeId>>; SHARDS],
    restrict_cache: [Mutex<FastMap<(NodeId, u32, bool), NodeId>>; SHARDS],
    var_names: RwLock<Vec<String>>,
    /// Total allocated nodes, terminals included (monotone while a
    /// budget is armed; only `set_budget` resets the baseline).
    node_count: AtomicU64,
    /// `u64::MAX` when un-budgeted, so the hot-path checks stay a single
    /// integer compare.
    max_nodes: AtomicU64,
    max_ops: AtomicU64,
    /// Node count when the budget was last armed; the node budget meters
    /// growth, not absolute store size.
    baseline_nodes: AtomicU64,
    ops: AtomicU64,
    /// Fast-path exhaustion flag. `true` implies `exhausted` holds the
    /// latched error (the flag is set *after* the error, both inside
    /// the `exhausted` critical section).
    exhausted_flag: AtomicBool,
    /// Once set, every operation short-circuits without caching: partial
    /// results computed after exhaustion are garbage and must never be
    /// memoized where a later (re-budgeted) solve could read them.
    /// Latched at most once per arming (see [`SharedStore::latch`]).
    exhausted: Mutex<Option<BddError>>,
    /// How many times exhaustion latched since the store was created —
    /// diagnostics for the exactly-once contract under concurrency.
    latches: AtomicU64,
}

impl SharedStore {
    fn new() -> Self {
        SharedStore {
            unique: std::array::from_fn(|_| Mutex::new(FastMap::default())),
            arenas: std::array::from_fn(|_| Arena::new()),
            ite_cache: std::array::from_fn(|_| Mutex::new(FastMap::default())),
            not_cache: std::array::from_fn(|_| Mutex::new(FastMap::default())),
            restrict_cache: std::array::from_fn(|_| Mutex::new(FastMap::default())),
            var_names: RwLock::new(Vec::new()),
            node_count: AtomicU64::new(2),
            max_nodes: AtomicU64::new(u64::MAX),
            max_ops: AtomicU64::new(u64::MAX),
            baseline_nodes: AtomicU64::new(2),
            ops: AtomicU64::new(0),
            exhausted_flag: AtomicBool::new(false),
            exhausted: Mutex::new(None),
            latches: AtomicU64::new(0),
        }
    }

    #[inline]
    fn is_exhausted(&self) -> bool {
        self.exhausted_flag.load(Ordering::Acquire)
    }

    /// Records `err` as the budget-exhaustion cause — once. Racing
    /// threads that cross a limit simultaneously all call this, but
    /// only the first store wins; the rest observe the flag and
    /// short-circuit. Never called with a shard lock held.
    fn latch(&self, err: BddError) {
        let mut slot = self.exhausted.lock().expect("exhaustion lock");
        if slot.is_none() {
            *slot = Some(err);
            self.latches.fetch_add(1, Ordering::Relaxed);
            self.exhausted_flag.store(true, Ordering::Release);
        }
    }

    /// Charges one operation step; returns `true` if the store is (now)
    /// exhausted and the caller must short-circuit without caching.
    #[inline]
    fn charge_op(&self) -> bool {
        if self.is_exhausted() {
            return true;
        }
        let used = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let limit = self.max_ops.load(Ordering::Relaxed);
        if used > limit {
            self.latch(BddError::BudgetExceeded {
                resource: BudgetResource::Ops,
                limit,
                used,
            });
            return true;
        }
        false
    }

    fn mk(&self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        let shard = shard_of(&node);
        let mut map = self.unique[shard].lock().expect("unique shard lock");
        if let Some(&id) = map.get(&node) {
            return id;
        }
        let grown = self
            .node_count
            .load(Ordering::Relaxed)
            .saturating_sub(self.baseline_nodes.load(Ordering::Relaxed));
        let limit = self.max_nodes.load(Ordering::Relaxed);
        if grown >= limit {
            drop(map);
            self.latch(BddError::BudgetExceeded {
                resource: BudgetResource::Nodes,
                limit,
                used: grown + 1,
            });
            return low;
        }
        let id = encode(shard, self.arenas[shard].push(node));
        map.insert(node, id);
        self.node_count.fetch_add(1, Ordering::Release);
        id
    }

    /// Lock-free node read; terminals are materialized, not stored.
    #[inline]
    fn node(&self, id: NodeId) -> Node {
        if id < 2 {
            return Node {
                var: TERMINAL_VAR,
                low: id,
                high: id,
            };
        }
        let (shard, index) = decode(id);
        self.arenas[shard].get(index)
    }

    /// Cofactor of `f` w.r.t. the decision variable `var`.
    fn cofactor(&self, f: NodeId, var: u32, value: bool) -> NodeId {
        let n = self.node(f);
        if n.var == var {
            if value {
                n.high
            } else {
                n.low
            }
        } else {
            f
        }
    }

    fn ite(&self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        // Terminal cases.
        if f == TRUE_ID {
            return g;
        }
        if f == FALSE_ID {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE_ID && h == FALSE_ID {
            return f;
        }
        let key = (f, g, h);
        let cache = &self.ite_cache[shard_of(&key)];
        if let Some(&r) = cache.lock().expect("ite cache lock").get(&key) {
            return r;
        }
        if self.charge_op() {
            return FALSE_ID;
        }
        let v = self.node(f).var.min(self.node(g).var).min(self.node(h).var);
        debug_assert_ne!(v, TERMINAL_VAR);
        let (f0, f1) = (self.cofactor(f, v, false), self.cofactor(f, v, true));
        let (g0, g1) = (self.cofactor(g, v, false), self.cofactor(g, v, true));
        let (h0, h1) = (self.cofactor(h, v, false), self.cofactor(h, v, true));
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        if self.is_exhausted() {
            // The sub-results are garbage; do not intern or memoize them.
            return FALSE_ID;
        }
        let r = self.mk(v, low, high);
        if self.is_exhausted() {
            return FALSE_ID;
        }
        cache.lock().expect("ite cache lock").insert(key, r);
        r
    }

    /// Commutative conjunction: operands are sorted by node id so the
    /// symmetric query shares one `ite_cache` slot (`a.and(b)` and
    /// `b.and(a)` hit the same `(f, g, 0)` triple).
    fn and(&self, f: NodeId, g: NodeId) -> NodeId {
        let (f, g) = (f.min(g), f.max(g));
        self.ite(f, g, FALSE_ID)
    }

    /// Commutative disjunction; see [`SharedStore::and`] for the operand
    /// sort.
    fn or(&self, f: NodeId, g: NodeId) -> NodeId {
        let (f, g) = (f.min(g), f.max(g));
        self.ite(f, TRUE_ID, g)
    }

    /// Commutative exclusive-or; see [`SharedStore::and`].
    fn xor(&self, f: NodeId, g: NodeId) -> NodeId {
        let (f, g) = (f.min(g), f.max(g));
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Commutative biconditional; see [`SharedStore::and`].
    fn iff(&self, f: NodeId, g: NodeId) -> NodeId {
        let (f, g) = (f.min(g), f.max(g));
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    fn not_cached(&self, id: NodeId) -> Option<NodeId> {
        match id {
            FALSE_ID => Some(TRUE_ID),
            TRUE_ID => Some(FALSE_ID),
            _ => self.not_cache[shard_of(&id)]
                .lock()
                .expect("not cache lock")
                .get(&id)
                .copied(),
        }
    }

    /// Negation, fully memoized both ways (`¬f → r` and `¬r → f`).
    ///
    /// Iterative (explicit work stack): a chain-shaped diagram is as
    /// deep as the variable count, and the recursive form blew the call
    /// stack around ~100k variables.
    fn not(&self, f: NodeId) -> NodeId {
        if let Some(r) = self.not_cached(f) {
            return r;
        }
        let mut stack = vec![f];
        while let Some(&id) = stack.last() {
            if self.charge_op() {
                return f;
            }
            if self.not_cached(id).is_some() {
                stack.pop();
                continue;
            }
            let n = self.node(id);
            match (self.not_cached(n.low), self.not_cached(n.high)) {
                (Some(low), Some(high)) => {
                    let r = self.mk(n.var, low, high);
                    if self.is_exhausted() {
                        return f;
                    }
                    self.not_cache[shard_of(&id)]
                        .lock()
                        .expect("not cache lock")
                        .insert(id, r);
                    self.not_cache[shard_of(&r)]
                        .lock()
                        .expect("not cache lock")
                        .insert(r, id);
                    stack.pop();
                }
                (low, high) => {
                    if low.is_none() {
                        stack.push(n.low);
                    }
                    if high.is_none() {
                        stack.push(n.high);
                    }
                }
            }
        }
        self.not_cached(f).expect("negation computed for the root")
    }

    fn restrict_cached(&self, id: NodeId, var: u32, value: bool) -> Option<NodeId> {
        let n = self.node(id);
        if n.var == TERMINAL_VAR || n.var > var {
            return Some(id);
        }
        if n.var == var {
            return Some(if value { n.high } else { n.low });
        }
        let key = (id, var, value);
        self.restrict_cache[shard_of(&key)]
            .lock()
            .expect("restrict cache lock")
            .get(&key)
            .copied()
    }

    /// Cofactor of `f` with `var` fixed to `value`, memoized in
    /// `restrict_cache`.
    ///
    /// Without the memo, a shared sub-DAG was re-walked once per *path*
    /// from the root — exponential on dense diagrams (e.g. parity).
    /// Iterative for the same deep-chain reason as [`SharedStore::not`].
    fn restrict(&self, f: NodeId, var: u32, value: bool) -> NodeId {
        if let Some(r) = self.restrict_cached(f, var, value) {
            return r;
        }
        let mut stack = vec![f];
        while let Some(&id) = stack.last() {
            if self.charge_op() {
                return f;
            }
            if self.restrict_cached(id, var, value).is_some() {
                stack.pop();
                continue;
            }
            let n = self.node(id);
            match (
                self.restrict_cached(n.low, var, value),
                self.restrict_cached(n.high, var, value),
            ) {
                (Some(low), Some(high)) => {
                    let r = self.mk(n.var, low, high);
                    if self.is_exhausted() {
                        return f;
                    }
                    let key = (id, var, value);
                    self.restrict_cache[shard_of(&key)]
                        .lock()
                        .expect("restrict cache lock")
                        .insert(key, r);
                    stack.pop();
                }
                (low, high) => {
                    if low.is_none() {
                        stack.push(n.low);
                    }
                    if high.is_none() {
                        stack.push(n.high);
                    }
                }
            }
        }
        self.restrict_cached(f, var, value)
            .expect("restriction computed for the root")
    }

    /// Number of satisfying assignments over the first `nvars` variables.
    fn sat_count(&self, f: NodeId, nvars: u32) -> u128 {
        fn go(
            store: &SharedStore,
            f: NodeId,
            nvars: u32,
            memo: &mut FastMap<NodeId, u128>,
        ) -> u128 {
            if f == FALSE_ID {
                return 0;
            }
            if f == TRUE_ID {
                return 1;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let n = store.node(f);
            let skip = |child: NodeId| -> u32 {
                let cvar = store.node(child).var;
                let next = if cvar == TERMINAL_VAR { nvars } else { cvar };
                next - n.var - 1
            };
            let lo = go(store, n.low, nvars, memo) << skip(n.low);
            let hi = go(store, n.high, nvars, memo) << skip(n.high);
            let c = lo + hi;
            memo.insert(f, c);
            c
        }
        if f == FALSE_ID {
            return 0;
        }
        let mut memo = FastMap::default();
        let top = self.node(f).var;
        let leading = if top == TERMINAL_VAR { nvars } else { top };
        go(self, f, nvars, &mut memo) << leading
    }

    fn one_sat(&self, f: NodeId) -> Option<Vec<(u32, bool)>> {
        if f == FALSE_ID {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while cur != TRUE_ID {
            let n = self.node(cur);
            if n.low != FALSE_ID {
                path.push((n.var, false));
                cur = n.low;
            } else {
                path.push((n.var, true));
                cur = n.high;
            }
        }
        Some(path)
    }

    fn eval(&self, f: NodeId, assignment: &dyn Fn(u32) -> bool) -> bool {
        let mut cur = f;
        loop {
            match cur {
                FALSE_ID => return false,
                TRUE_ID => return true,
                _ => {
                    let n = self.node(cur);
                    cur = if assignment(n.var) { n.high } else { n.low };
                }
            }
        }
    }

    fn support(&self, f: NodeId) -> Vec<u32> {
        let mut seen = FastSet::default();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if id == FALSE_ID || id == TRUE_ID || !seen.insert(id) {
                continue;
            }
            let n = self.node(id);
            vars.insert(n.var);
            stack.push(n.low);
            stack.push(n.high);
        }
        vars.into_iter().collect()
    }
}

/// A shared, thread-safe BDD node store.
///
/// Cloning a manager is cheap (it is reference-counted); all [`Bdd`] handles
/// created from clones of the same manager are interoperable, across
/// threads as well — the manager is `Send + Sync`. Handles from
/// *different* managers must not be mixed.
///
/// # Example
///
/// ```
/// use spllift_bdd::BddManager;
/// let mgr = BddManager::new();
/// let a = mgr.var("A");
/// let b = mgr.var("B");
/// assert_eq!(a.or(&b), b.or(&a));
/// ```
#[derive(Clone)]
pub struct BddManager {
    store: Arc<SharedStore>,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("BddManager")
            .field("vars", &stats.vars)
            .field("nodes", &stats.nodes)
            .finish()
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager with no variables.
    pub fn new() -> Self {
        BddManager {
            store: Arc::new(SharedStore::new()),
        }
    }

    /// Declares a fresh variable named `name` and returns it as a formula.
    ///
    /// The variable is appended at the bottom of the current variable order.
    pub fn var(&self, name: impl Into<String>) -> Bdd {
        let id = self.new_var(name);
        self.var_bdd(id)
    }

    /// Declares a fresh variable and returns its [`VarId`].
    pub fn new_var(&self, name: impl Into<String>) -> VarId {
        let mut names = self.store.var_names.write().expect("var_names lock");
        let idx = names.len() as u32;
        names.push(name.into());
        VarId(idx)
    }

    /// Returns the formula for an already-declared variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not declared by this manager.
    pub fn var_bdd(&self, var: VarId) -> Bdd {
        {
            let names = self.store.var_names.read().expect("var_names lock");
            assert!(
                (var.0 as usize) < names.len(),
                "variable {var} not declared in this manager"
            );
        }
        let id = self.store.mk(var.0, FALSE_ID, TRUE_ID);
        self.wrap(id)
    }

    /// The number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.store.var_names.read().expect("var_names lock").len()
    }

    /// The name a variable was declared with.
    pub fn var_name(&self, var: VarId) -> String {
        self.store.var_names.read().expect("var_names lock")[var.0 as usize].clone()
    }

    /// The constant `true` formula.
    pub fn top(&self) -> Bdd {
        self.wrap(TRUE_ID)
    }

    /// The constant `false` formula.
    pub fn bottom(&self) -> Bdd {
        self.wrap(FALSE_ID)
    }

    /// Current size counters.
    ///
    /// Under concurrency the three counters are each read atomically
    /// (`nodes` with `Acquire`, the cache tally shard-by-shard under
    /// each shard's lock), so every reported number was true at some
    /// point during the call and `nodes` is monotone across snapshots
    /// while no re-arm intervenes — the consistency contract the
    /// governance read path relies on.
    pub fn stats(&self) -> BddStats {
        let s = &self.store;
        BddStats {
            nodes: s.node_count.load(Ordering::Acquire) as usize,
            vars: s.var_names.read().expect("var_names lock").len(),
            cache_entries: s
                .ite_cache
                .iter()
                .map(|m| m.lock().expect("ite cache lock").len())
                .sum(),
        }
    }

    /// Arms (or re-arms) a resource budget: resets the op meter, takes the
    /// current node count as the baseline for the node budget, and clears
    /// any previous exhaustion.
    ///
    /// While a budget is exceeded the manager is *exhausted*: operations
    /// return arbitrary but valid handles, never touch the memo caches,
    /// and [`BddManager::budget_status`] reports the structured error.
    /// Results produced while exhausted are meaningless and must be
    /// discarded by the caller.
    ///
    /// Arming is not synchronized against in-flight operations: callers
    /// arm *before* starting a solve and
    /// disarm after it, exactly like the governed ladder does.
    pub fn set_budget(&self, budget: BddBudget) {
        let s = &self.store;
        let mut slot = s.exhausted.lock().expect("exhaustion lock");
        s.max_nodes
            .store(budget.max_nodes.unwrap_or(u64::MAX), Ordering::SeqCst);
        s.max_ops
            .store(budget.max_ops.unwrap_or(u64::MAX), Ordering::SeqCst);
        s.baseline_nodes
            .store(s.node_count.load(Ordering::SeqCst), Ordering::SeqCst);
        s.ops.store(0, Ordering::SeqCst);
        *slot = None;
        s.exhausted_flag.store(false, Ordering::SeqCst);
    }

    /// Removes any budget and clears exhaustion; operations run unbounded
    /// again (e.g. for rendering results after a successful solve).
    pub fn clear_budget(&self) {
        self.set_budget(BddBudget::UNLIMITED);
    }

    /// `Ok(())` if no budget has been exceeded since the last arm,
    /// otherwise the structured error describing which resource ran out.
    ///
    /// Reads the latched error under its mutex, so a status observed
    /// `Err` can never revert to `Ok` (or change its cause) until the
    /// budget is re-armed, no matter how many threads raced the latch.
    pub fn budget_status(&self) -> Result<(), BddError> {
        match *self.store.exhausted.lock().expect("exhaustion lock") {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Charges `n` operation steps against the op budget without doing any
    /// work. This is the deterministic fault-injection hook: a chaos
    /// harness can burn the budget down to force `BudgetExceeded` at an
    /// exact, reproducible point.
    pub fn charge_ops(&self, n: u64) {
        let s = &self.store;
        if s.is_exhausted() {
            return;
        }
        // Saturating add via CAS: the chaos hook charges `u64::MAX`, and
        // a wrapping `fetch_add` would cycle the meter back under budget.
        let mut cur = s.ops.load(Ordering::Relaxed);
        let used = loop {
            let next = cur.saturating_add(n);
            match s
                .ops
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break next,
                Err(seen) => cur = seen,
            }
        };
        let limit = s.max_ops.load(Ordering::Relaxed);
        if used > limit {
            s.latch(BddError::BudgetExceeded {
                resource: BudgetResource::Ops,
                limit,
                used,
            });
        }
    }

    /// Operation steps charged since the budget was last armed.
    pub fn ops_used(&self) -> u64 {
        self.store.ops.load(Ordering::Acquire)
    }

    /// Nodes allocated since the budget was last armed.
    ///
    /// Baseline is read before the live count, and the subtraction
    /// saturates, so a concurrent re-arm can shrink the answer but
    /// never underflow it.
    pub fn nodes_since_arm(&self) -> u64 {
        let baseline = self.store.baseline_nodes.load(Ordering::Acquire);
        self.store
            .node_count
            .load(Ordering::Acquire)
            .saturating_sub(baseline)
    }

    /// How many times budget exhaustion has latched over the lifetime of
    /// this store — at most once per arming, no matter how many threads
    /// race the limit. Diagnostic for the concurrency tests.
    #[cfg(test)]
    pub(crate) fn exhaustion_latches(&self) -> u64 {
        self.store.latches.load(Ordering::SeqCst)
    }

    fn wrap(&self, id: NodeId) -> Bdd {
        Bdd {
            mgr: self.clone(),
            id,
        }
    }

    fn same_store(&self, other: &BddManager) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }
}

// `SharedStore` is `Send + Sync` by composition (mutexes, atomics, and
// `AtomicPtr`-published write-once arena chunks); pin that here so an
// accidental `Rc`/`Cell` regression fails to compile.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedStore>();
    assert_send_sync::<BddManager>();
    assert_send_sync::<Bdd>();
};

/// A Boolean formula, represented as a handle into a [`BddManager`].
///
/// Because diagrams are reduced and hash-consed, semantic equality of
/// formulas coincides with handle equality ([`PartialEq`] is O(1)), and
/// [`Bdd::is_false`] / [`Bdd::is_true`] are constant-time — the property the
/// paper exploits for early termination (§4.2). Handles are
/// `Send + Sync`; threads sharing a manager agree on node identity.
#[derive(Clone)]
pub struct Bdd {
    mgr: BddManager,
    id: NodeId,
}

impl PartialEq for Bdd {
    fn eq(&self, other: &Self) -> bool {
        debug_assert!(
            self.mgr.same_store(&other.mgr),
            "comparing BDDs from different managers"
        );
        self.id == other.id
    }
}

impl Eq for Bdd {}

impl std::hash::Hash for Bdd {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bdd({})", self.to_cube_string())
    }
}

impl fmt::Display for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_cube_string())
    }
}

macro_rules! binary_op {
    ($(#[$doc:meta])* $name:ident, |$s:ident, $f:ident, $g:ident| $body:expr) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(&self, other: &Bdd) -> Bdd {
            debug_assert!(
                self.mgr.same_store(&other.mgr),
                "combining BDDs from different managers"
            );
            let id = {
                let $s = &*self.mgr.store;
                let $f = self.id;
                let $g = other.id;
                $body
            };
            self.mgr.wrap(id)
        }
    };
}

impl Bdd {
    /// The manager this formula belongs to.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// `true` iff this formula is the constant `false`. Constant time.
    pub fn is_false(&self) -> bool {
        self.id == FALSE_ID
    }

    /// `true` iff this formula is the constant `true`. Constant time.
    pub fn is_true(&self) -> bool {
        self.id == TRUE_ID
    }

    binary_op!(
        /// Conjunction `self ∧ other`.
        ///
        /// Commutative calls are normalized (operands sorted by node
        /// id), so `a.and(b)` and `b.and(a)` share one op-cache slot.
        and, |s, f, g| s.and(f, g)
    );
    binary_op!(
        /// Disjunction `self ∨ other`. Commutatively normalized like
        /// [`Bdd::and`].
        or, |s, f, g| s.or(f, g)
    );
    binary_op!(
        /// Exclusive or `self ⊕ other`. Commutatively normalized like
        /// [`Bdd::and`].
        xor, |s, f, g| s.xor(f, g)
    );
    binary_op!(
        /// Implication `self → other`.
        implies, |s, f, g| s.ite(f, g, TRUE_ID)
    );
    binary_op!(
        /// Biconditional `self ↔ other`. Commutatively normalized like
        /// [`Bdd::and`].
        iff, |s, f, g| s.iff(f, g)
    );

    /// Negation `¬self`.
    #[must_use]
    pub fn not(&self) -> Bdd {
        let id = self.mgr.store.not(self.id);
        self.mgr.wrap(id)
    }

    /// If-then-else `if self then t else e`.
    #[must_use]
    pub fn ite(&self, t: &Bdd, e: &Bdd) -> Bdd {
        debug_assert!(self.mgr.same_store(&t.mgr) && self.mgr.same_store(&e.mgr));
        let id = self.mgr.store.ite(self.id, t.id, e.id);
        self.mgr.wrap(id)
    }

    /// The cofactor of this formula with `var` fixed to `value`.
    #[must_use]
    pub fn restrict(&self, var: VarId, value: bool) -> Bdd {
        let id = self.mgr.store.restrict(self.id, var.0, value);
        self.mgr.wrap(id)
    }

    /// Existential quantification `∃var. self`.
    #[must_use]
    pub fn exists(&self, var: VarId) -> Bdd {
        let lo = self.restrict(var, false);
        let hi = self.restrict(var, true);
        lo.or(&hi)
    }

    /// Universal quantification `∀var. self`.
    #[must_use]
    pub fn forall(&self, var: VarId) -> Bdd {
        let lo = self.restrict(var, false);
        let hi = self.restrict(var, true);
        lo.and(&hi)
    }

    /// Existentially quantifies every variable in `vars` (projection onto
    /// the remaining variables) — e.g. projecting a feature-model
    /// constraint onto the reachable features.
    #[must_use]
    pub fn exists_many(&self, vars: &[VarId]) -> Bdd {
        vars.iter().fold(self.clone(), |acc, &v| acc.exists(v))
    }

    /// `true` iff `self → other` is a tautology (semantic entailment).
    pub fn entails(&self, other: &Bdd) -> bool {
        self.implies(other).is_true()
    }

    /// Number of satisfying assignments over the manager's full variable set.
    ///
    /// # Panics
    ///
    /// Panics if more than 127 variables are declared (the count is held in
    /// a `u128`).
    pub fn sat_count(&self) -> u128 {
        let nvars = self.mgr.num_vars() as u32;
        assert!(nvars <= 127, "sat_count supports at most 127 variables");
        self.mgr.store.sat_count(self.id, nvars)
    }

    /// Number of satisfying assignments counting only the first
    /// `nvars` variables of the order (the rest must not occur in `self`).
    ///
    /// The support probe and the count walk the same immutable diagram
    /// (nodes are append-only), so the two reads are mutually consistent
    /// even while other threads grow the store.
    ///
    /// # Panics
    ///
    /// Panics if the formula depends on a variable `≥ nvars`. This is
    /// checked in release builds too: a `debug_assert!` here once let
    /// release binaries silently return a wrong model count (the
    /// skip-count arithmetic underflows for out-of-range variables).
    pub fn sat_count_over(&self, nvars: u32) -> u128 {
        assert!(
            self.support().iter().all(|v| v.0 < nvars),
            "sat_count_over({nvars}) on a formula with support {:?}",
            self.support()
        );
        self.mgr.store.sat_count(self.id, nvars)
    }

    /// One satisfying partial assignment, or `None` if unsatisfiable.
    ///
    /// Variables not mentioned may take either value.
    pub fn one_sat(&self) -> Option<Vec<(VarId, bool)>> {
        self.mgr
            .store
            .one_sat(self.id)
            .map(|v| v.into_iter().map(|(i, b)| (VarId(i), b)).collect())
    }

    /// Evaluates the formula under a total assignment.
    pub fn eval(&self, assignment: impl Fn(VarId) -> bool) -> bool {
        self.mgr.store.eval(self.id, &|v| assignment(VarId(v)))
    }

    /// The set of variables this formula depends on, in order.
    pub fn support(&self) -> Vec<VarId> {
        self.mgr
            .store
            .support(self.id)
            .into_iter()
            .map(VarId)
            .collect()
    }

    /// Number of internal nodes of this diagram (terminals excluded).
    pub fn node_count(&self) -> usize {
        let s = &self.mgr.store;
        let mut seen = FastSet::default();
        let mut stack = vec![self.id];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if id == FALSE_ID || id == TRUE_ID || !seen.insert(id) {
                continue;
            }
            count += 1;
            let n = s.node(id);
            stack.push(n.low);
            stack.push(n.high);
        }
        count
    }

    /// A 64-bit digest of the Boolean function this diagram denotes.
    ///
    /// The digest is computed bottom-up over the *structure* of the
    /// reduced diagram — `mix(var, digest(low), digest(high))` with
    /// fixed constants for the terminals — so it depends only on the
    /// function and the variable order, never on node ids, allocation
    /// order, or how many threads built the diagram. Because diagrams
    /// are reduced and hash-consed, equal functions have equal digests
    /// by construction, and (modulo 64-bit collisions) unequal
    /// functions differ.
    ///
    /// Cost is **linear in the diagram size** (memoized, iterative —
    /// safe on ~100k-deep chains). This is the digest the benchmark
    /// hashes solutions with: the older cube-string rendering
    /// ([`Bdd::to_cube_string`]) is exponential in the diagram size and
    /// skewed measured wall times by orders of magnitude on subjects
    /// with rich feature models (BerkeleyDB-class).
    pub fn semantic_digest(&self) -> u64 {
        const FALSE_DIGEST: u64 = 0x9e37_79b9_7f4a_7c15;
        const TRUE_DIGEST: u64 = 0xd1b5_4a32_d192_ed03;
        fn mix(var: u32, lo: u64, hi: u64) -> u64 {
            // SplitMix64-style finalizer over an asymmetric combination
            // (lo and hi enter with different rotations/multipliers, so
            // swapped branches change the digest).
            let mut z = (var as u64 + 1).wrapping_mul(0xff51_afd7_ed55_8ccd)
                ^ lo.rotate_left(17).wrapping_mul(0xc4ce_b9fe_1a85_ec53)
                ^ hi.rotate_left(43).wrapping_mul(0x2545_f491_4f6c_dd1d);
            z ^= z >> 30;
            z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let s = &*self.mgr.store;
        let mut memo: FastMap<NodeId, u64> = FastMap::default();
        memo.insert(FALSE_ID, FALSE_DIGEST);
        memo.insert(TRUE_ID, TRUE_DIGEST);
        let mut stack = vec![self.id];
        while let Some(&top) = stack.last() {
            if memo.contains_key(&top) {
                stack.pop();
                continue;
            }
            let n = s.node(top);
            match (memo.get(&n.low).copied(), memo.get(&n.high).copied()) {
                (Some(lo), Some(hi)) => {
                    memo.insert(top, mix(n.var, lo, hi));
                    stack.pop();
                }
                (lo, hi) => {
                    if lo.is_none() {
                        stack.push(n.low);
                    }
                    if hi.is_none() {
                        stack.push(n.high);
                    }
                }
            }
        }
        memo[&self.id]
    }

    /// Renders the formula as a sum of cubes (disjunction of conjunctions of
    /// literals), e.g. `(!F & G & !H)`. `true`/`false` for the constants.
    ///
    /// Intended for small constraint formulas (feature constraints); the
    /// output size can be exponential in the diagram size.
    ///
    /// The rendering walks the diagram in variable order, so it depends
    /// only on the Boolean function — not on node ids or on how many
    /// threads built the diagram. This is what makes solve outputs
    /// byte-identical whatever else was built in a shared store.
    pub fn to_cube_string(&self) -> String {
        if self.is_true() {
            return "true".into();
        }
        if self.is_false() {
            return "false".into();
        }
        let s = &*self.mgr.store;
        let names = s.var_names.read().expect("var_names lock");
        let mut cubes: Vec<String> = Vec::new();
        let mut path: Vec<(u32, bool)> = Vec::new();
        fn go(
            s: &SharedStore,
            names: &[String],
            id: NodeId,
            path: &mut Vec<(u32, bool)>,
            cubes: &mut Vec<String>,
        ) {
            if id == FALSE_ID {
                return;
            }
            if id == TRUE_ID {
                let lits: Vec<String> = path
                    .iter()
                    .map(|&(v, b)| {
                        let name = &names[v as usize];
                        if b {
                            name.clone()
                        } else {
                            format!("!{name}")
                        }
                    })
                    .collect();
                if lits.is_empty() {
                    cubes.push("true".into());
                } else {
                    cubes.push(format!("({})", lits.join(" & ")));
                }
                return;
            }
            let n = s.node(id);
            path.push((n.var, false));
            go(s, names, n.low, path, cubes);
            path.pop();
            path.push((n.var, true));
            go(s, names, n.high, path, cubes);
            path.pop();
        }
        go(s, &names, self.id, &mut path, &mut cubes);
        cubes.join(" | ")
    }

    /// Renders this diagram in Graphviz DOT format.
    ///
    /// Node labels use raw node ids, which depend on allocation order —
    /// stable for a fixed single-threaded build sequence, but **not**
    /// part of the cross-thread determinism contract (unlike
    /// [`Bdd::to_cube_string`]).
    pub fn to_dot(&self) -> String {
        let s = &*self.mgr.store;
        let names = s.var_names.read().expect("var_names lock");
        let mut out = String::from("digraph bdd {\n  rankdir=TB;\n");
        out.push_str("  f [shape=box,label=\"0\"];\n  t [shape=box,label=\"1\"];\n");
        let mut seen = FastSet::default();
        let mut stack = vec![self.id];
        let node_name = |id: NodeId| -> String {
            match id {
                FALSE_ID => "f".into(),
                TRUE_ID => "t".into(),
                _ => format!("n{id}"),
            }
        };
        while let Some(id) = stack.pop() {
            if id == FALSE_ID || id == TRUE_ID || !seen.insert(id) {
                continue;
            }
            let n = s.node(id);
            out.push_str(&format!("  n{id} [label=\"{}\"];\n", names[n.var as usize]));
            out.push_str(&format!(
                "  n{id} -> {} [style=dashed];\n",
                node_name(n.low)
            ));
            out.push_str(&format!("  n{id} -> {};\n", node_name(n.high)));
            stack.push(n.low);
            stack.push(n.high);
        }
        out.push_str("}\n");
        out
    }
}
