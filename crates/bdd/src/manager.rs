//! The BDD node store, hash-consing unique table, and operation caches.
//!
//! One `Store` owns every node, table and meter of a manager, behind
//! one `Mutex`. Clones of a [`BddManager`] share it through an `Arc`,
//! so handles ([`Bdd`]) are `Send + Sync` and threads sharing a manager
//! agree on node identity. Each public operation locks the store once
//! and runs its whole recursion on `&mut Store`; DESIGN.md §12 explains
//! why this replaced a store sharded for concurrent writers.
//!
//! * Nodes live in one `Vec`; a node id is its index, with the two
//!   terminals at 0 and 1.
//! * The unique table and the `ite`/`not`/`restrict` memos are exact
//!   and unbounded, each split into [`SUBMAPS`] sub-maps so that no
//!   single table doubles all at once.
//! * Budget meters are plain counters. Exhaustion latches **exactly
//!   once** per arming, and every operation short-circuits from then on
//!   without touching the memos (partial results computed after
//!   exhaustion are garbage).
//! * No caller code runs under the lock: [`Bdd::eval`] locks once per
//!   node it reads, so its closure may call back into the manager.

use spllift_hash::{FastMap, FastSet, FxHasher64};
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// Node index into `Store::nodes`: `0` is the `false` terminal, `1` is
/// `true`.
type NodeId = u32;

const FALSE_ID: NodeId = 0;
const TRUE_ID: NodeId = 1;
/// Pseudo-level of the terminals: below every real variable.
const TERMINAL_VAR: u32 = u32::MAX;

/// log2 of [`SUBMAPS`].
const SUBMAP_BITS: u32 = 4;
/// Number of sub-maps each table is split into. One 8 M-entry map
/// doubles in a single step, and with the unique table and the `ite`
/// memo both live that raised the peak RSS of the BerkeleyDB cells by
/// 29%; sixteen sub-maps grow one sixteenth at a time.
const SUBMAPS: usize = 1 << SUBMAP_BITS;
/// Lowest hash bit of the sub-map selector.
const SUBMAP_SHIFT: u32 = 32;

// Inside a sub-map, `std`'s `HashMap` (hashbrown) derives the bucket
// index from the low hash bits (fewer than 32 while a table has under
// 2^32 buckets, which memory rules out) and the control tag from the top
// 7. The selector bits must overlap neither: selecting by the top 4 bits
// left only 3 varying tag bits per sub-map, so 1 in 8 probed slots
// false-matched instead of 1 in 128.
const _: () = {
    const BUCKET_INDEX_BITS: u32 = 32;
    const HASHBROWN_TAG_SHIFT: u32 = 64 - 7;
    assert!(SUBMAP_SHIFT >= BUCKET_INDEX_BITS);
    assert!(SUBMAP_SHIFT + SUBMAP_BITS <= HASHBROWN_TAG_SHIFT);
};

/// The sub-map `key` lives in: bits 32–35 of the same [`FxHasher64`]
/// hash the sub-map itself uses.
#[inline]
fn submap<T: Hash>(key: &T) -> usize {
    let mut h = FxHasher64::default();
    key.hash(&mut h);
    (h.finish() >> SUBMAP_SHIFT) as usize & (SUBMAPS - 1)
}

/// An exact, unbounded map split into [`SUBMAPS`] sub-maps by [`submap`].
struct SplitMap<K, V>([FastMap<K, V>; SUBMAPS]);

impl<K: Hash + Eq, V: Copy> SplitMap<K, V> {
    fn new() -> Self {
        SplitMap(std::array::from_fn(|_| FastMap::default()))
    }

    #[inline]
    fn get(&self, key: &K) -> Option<V> {
        self.0[submap(key)].get(key).copied()
    }

    #[inline]
    fn insert(&mut self, key: K, value: V) {
        self.0[submap(&key)].insert(key, value);
    }

    #[inline]
    fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0[submap(&key)].entry(key)
    }

    fn len(&self) -> usize {
        self.0.iter().map(FastMap::len).sum()
    }
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

/// Every node, table and meter of a manager; [`BddManager`] holds it
/// behind one `Mutex`.
struct Store {
    /// Every node, indexed by its id; entries 0 and 1 are the terminals.
    nodes: Vec<Node>,
    /// Hash-consing table: `(var, low, high) → id`.
    unique: SplitMap<Node, NodeId>,
    ite_cache: SplitMap<(NodeId, NodeId, NodeId), NodeId>,
    not_cache: SplitMap<NodeId, NodeId>,
    restrict_cache: SplitMap<(NodeId, u32, bool), NodeId>,
    /// [`Bdd::semantic_digest`] of every interior node digested so far.
    /// Exact for the store's whole life: a digest depends only on the
    /// node and the fixed variable order, and nodes are immutable and
    /// never freed.
    digests: FastMap<NodeId, u64>,
    var_names: Vec<String>,
    /// `u64::MAX` when un-budgeted, so the hot-path checks stay a single
    /// integer compare.
    max_nodes: u64,
    max_ops: u64,
    /// Node count when the budget was last armed; the node budget meters
    /// growth, not absolute store size.
    baseline_nodes: u64,
    ops: u64,
    /// Once set, every operation short-circuits without caching: partial
    /// results computed after exhaustion are garbage and must never be
    /// memoized where a later (re-budgeted) solve could read them.
    /// Latched at most once per arming (see [`Store::latch`]).
    exhausted: Option<BddError>,
    /// How many times exhaustion latched since the store was created.
    latches: u64,
}

impl Store {
    fn new() -> Self {
        let terminal = |id| Node {
            var: TERMINAL_VAR,
            low: id,
            high: id,
        };
        Store {
            nodes: vec![terminal(FALSE_ID), terminal(TRUE_ID)],
            unique: SplitMap::new(),
            ite_cache: SplitMap::new(),
            not_cache: SplitMap::new(),
            restrict_cache: SplitMap::new(),
            digests: FastMap::default(),
            var_names: Vec::new(),
            max_nodes: u64::MAX,
            max_ops: u64::MAX,
            baseline_nodes: 2,
            ops: 0,
            exhausted: None,
            latches: 0,
        }
    }

    #[inline]
    fn is_exhausted(&self) -> bool {
        self.exhausted.is_some()
    }

    /// Records `err` as the budget-exhaustion cause, unless one is
    /// already latched since the last arming.
    fn latch(&mut self, err: BddError) {
        if self.exhausted.is_none() {
            self.exhausted = Some(err);
            self.latches += 1;
        }
    }

    /// Charges `n` operation steps; returns `true` if the store is (now)
    /// exhausted and the caller must short-circuit without caching.
    #[inline]
    fn charge(&mut self, n: u64) -> bool {
        if self.is_exhausted() {
            return true;
        }
        // Saturating: the chaos hook charges `u64::MAX`, and a wrapping
        // add would cycle the meter back under budget.
        self.ops = self.ops.saturating_add(n);
        if self.ops > self.max_ops {
            self.latch(BddError::BudgetExceeded {
                resource: BudgetResource::Ops,
                limit: self.max_ops,
                used: self.ops,
            });
            return true;
        }
        false
    }

    fn mk(&mut self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        let slot = match self.unique.entry(node) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(slot) => slot,
        };
        let grown = self.nodes.len() as u64 - self.baseline_nodes;
        if grown >= self.max_nodes {
            self.latch(BddError::BudgetExceeded {
                resource: BudgetResource::Nodes,
                limit: self.max_nodes,
                used: grown + 1,
            });
            return low;
        }
        let id = NodeId::try_from(self.nodes.len()).expect("BDD store overflow");
        self.nodes.push(node);
        slot.insert(id);
        id
    }

    #[inline]
    fn node(&self, id: NodeId) -> Node {
        self.nodes[id as usize]
    }

    fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
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
        if let Some(r) = self.ite_cache.get(&key) {
            return r;
        }
        if self.charge(1) {
            return FALSE_ID;
        }
        let (nf, ng, nh) = (self.node(f), self.node(g), self.node(h));
        let v = nf.var.min(ng.var).min(nh.var);
        debug_assert_ne!(v, TERMINAL_VAR);
        // Cofactors w.r.t. the top variable `v`.
        let split = |n: Node, id: NodeId| {
            if n.var == v {
                (n.low, n.high)
            } else {
                (id, id)
            }
        };
        let ((f0, f1), (g0, g1), (h0, h1)) = (split(nf, f), split(ng, g), split(nh, h));
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
        self.ite_cache.insert(key, r);
        r
    }

    /// Commutative conjunction: operands are sorted by node id so the
    /// symmetric query shares one `ite_cache` slot (`a.and(b)` and
    /// `b.and(a)` hit the same `(f, g, 0)` triple).
    fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let (f, g) = (f.min(g), f.max(g));
        self.ite(f, g, FALSE_ID)
    }

    /// Commutative disjunction; see [`Store::and`] for the operand sort.
    fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let (f, g) = (f.min(g), f.max(g));
        self.ite(f, TRUE_ID, g)
    }

    /// Commutative exclusive-or; see [`Store::and`].
    fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let (f, g) = (f.min(g), f.max(g));
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Commutative biconditional; see [`Store::and`].
    fn iff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let (f, g) = (f.min(g), f.max(g));
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    fn not_cached(&self, id: NodeId) -> Option<NodeId> {
        match id {
            FALSE_ID => Some(TRUE_ID),
            TRUE_ID => Some(FALSE_ID),
            _ => self.not_cache.get(&id),
        }
    }

    /// Negation, fully memoized both ways (`¬f → r` and `¬r → f`).
    ///
    /// Iterative (explicit work stack): a chain-shaped diagram is as
    /// deep as the variable count, and the recursive form blew the call
    /// stack around ~100k variables.
    fn not(&mut self, f: NodeId) -> NodeId {
        if let Some(r) = self.not_cached(f) {
            return r;
        }
        let mut stack = vec![f];
        while let Some(&id) = stack.last() {
            if self.charge(1) {
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
                    self.not_cache.insert(id, r);
                    self.not_cache.insert(r, id);
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
        self.restrict_cache.get(&(id, var, value))
    }

    /// Cofactor of `f` with `var` fixed to `value`, memoized in
    /// `restrict_cache`.
    ///
    /// Without the memo, a shared sub-DAG was re-walked once per *path*
    /// from the root — exponential on dense diagrams (e.g. parity).
    /// Iterative for the same deep-chain reason as [`Store::not`].
    fn restrict(&mut self, f: NodeId, var: u32, value: bool) -> NodeId {
        if let Some(r) = self.restrict_cached(f, var, value) {
            return r;
        }
        let mut stack = vec![f];
        while let Some(&id) = stack.last() {
            if self.charge(1) {
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
                    self.restrict_cache.insert((id, var, value), r);
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

    /// `∃var. f`: the disjunction of both cofactors.
    fn exists(&mut self, f: NodeId, var: u32) -> NodeId {
        let lo = self.restrict(f, var, false);
        let hi = self.restrict(f, var, true);
        self.or(lo, hi)
    }

    /// Number of satisfying assignments over the first `nvars` variables.
    fn sat_count(&self, f: NodeId, nvars: u32) -> u128 {
        fn go(store: &Store, f: NodeId, nvars: u32, memo: &mut FastMap<NodeId, u128>) -> u128 {
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

    fn one_sat(&self, f: NodeId) -> Option<Vec<(VarId, bool)>> {
        if f == FALSE_ID {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while cur != TRUE_ID {
            let n = self.node(cur);
            if n.low != FALSE_ID {
                path.push((VarId(n.var), false));
                cur = n.low;
            } else {
                path.push((VarId(n.var), true));
                cur = n.high;
            }
        }
        Some(path)
    }

    /// Every interior node reachable from `f`, each once, in DFS order.
    fn interior_nodes(&self, f: NodeId) -> impl Iterator<Item = (NodeId, Node)> + '_ {
        let mut seen = FastSet::default();
        let mut stack = vec![f];
        std::iter::from_fn(move || {
            while let Some(id) = stack.pop() {
                if id == FALSE_ID || id == TRUE_ID || !seen.insert(id) {
                    continue;
                }
                let n = self.node(id);
                stack.push(n.low);
                stack.push(n.high);
                return Some((id, n));
            }
            None
        })
    }

    fn support(&self, f: NodeId) -> Vec<VarId> {
        let vars: std::collections::BTreeSet<u32> =
            self.interior_nodes(f).map(|(_, n)| n.var).collect();
        vars.into_iter().map(VarId).collect()
    }

    /// [`Bdd::semantic_digest`] of `f`, memoized in `digests`.
    fn digest(&mut self, f: NodeId) -> u64 {
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
        let known = |s: &Store, id: NodeId| match id {
            FALSE_ID => Some(FALSE_DIGEST),
            TRUE_ID => Some(TRUE_DIGEST),
            _ => s.digests.get(&id).copied(),
        };
        if let Some(d) = known(self, f) {
            return d;
        }
        let mut stack = vec![f];
        while let Some(&top) = stack.last() {
            if known(self, top).is_some() {
                stack.pop();
                continue;
            }
            let n = self.node(top);
            match (known(self, n.low), known(self, n.high)) {
                (Some(lo), Some(hi)) => {
                    self.digests.insert(top, mix(n.var, lo, hi));
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
        self.digests[&f]
    }

    /// See [`Bdd::to_cube_string`].
    fn cube_string(&self, f: NodeId) -> String {
        fn go(s: &Store, id: NodeId, path: &mut Vec<(u32, bool)>, cubes: &mut Vec<String>) {
            if id == FALSE_ID {
                return;
            }
            if id == TRUE_ID {
                let lits: Vec<String> = path
                    .iter()
                    .map(|&(v, b)| {
                        let name = &s.var_names[v as usize];
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
            go(s, n.low, path, cubes);
            path.pop();
            path.push((n.var, true));
            go(s, n.high, path, cubes);
            path.pop();
        }
        match f {
            TRUE_ID => "true".into(),
            FALSE_ID => "false".into(),
            _ => {
                let mut cubes = Vec::new();
                go(self, f, &mut Vec::new(), &mut cubes);
                cubes.join(" | ")
            }
        }
    }

    /// See [`Bdd::to_dot`].
    fn dot(&self, f: NodeId) -> String {
        let node_name = |id: NodeId| -> String {
            match id {
                FALSE_ID => "f".into(),
                TRUE_ID => "t".into(),
                _ => format!("n{id}"),
            }
        };
        let mut out = String::from("digraph bdd {\n  rankdir=TB;\n");
        out.push_str("  f [shape=box,label=\"0\"];\n  t [shape=box,label=\"1\"];\n");
        for (id, n) in self.interior_nodes(f) {
            let name = &self.var_names[n.var as usize];
            out.push_str(&format!("  n{id} [label=\"{name}\"];\n"));
            out.push_str(&format!(
                "  n{id} -> {} [style=dashed];\n",
                node_name(n.low)
            ));
            out.push_str(&format!("  n{id} -> {};\n", node_name(n.high)));
        }
        out.push_str("}\n");
        out
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
    store: Arc<Mutex<Store>>,
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
            store: Arc::new(Mutex::new(Store::new())),
        }
    }

    /// Locks the store. A poisoned lock is recovered: the only
    /// multi-step mutation is `mk`'s append-then-intern, and a panic
    /// between the two leaves at worst an unreachable node.
    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut s = self.lock();
        let idx = s.var_names.len() as u32;
        s.var_names.push(name.into());
        VarId(idx)
    }

    /// Returns the formula for an already-declared variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not declared by this manager.
    pub fn var_bdd(&self, var: VarId) -> Bdd {
        let id = {
            let mut s = self.lock();
            ((var.0 as usize) < s.var_names.len()).then(|| s.mk(var.0, FALSE_ID, TRUE_ID))
        };
        let Some(id) = id else {
            panic!("variable {var} not declared in this manager");
        };
        self.wrap(id)
    }

    /// The number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.lock().var_names.len()
    }

    /// The name a variable was declared with.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not declared by this manager.
    pub fn var_name(&self, var: VarId) -> String {
        let name = self.lock().var_names.get(var.0 as usize).cloned();
        name.unwrap_or_else(|| panic!("variable {var} not declared in this manager"))
    }

    /// The constant `true` formula.
    pub fn top(&self) -> Bdd {
        self.wrap(TRUE_ID)
    }

    /// The constant `false` formula.
    pub fn bottom(&self) -> Bdd {
        self.wrap(FALSE_ID)
    }

    /// Current size counters, read under one lock: they describe the
    /// store between two operations, and `nodes` is monotone across
    /// snapshots — the consistency contract the governance read path
    /// relies on.
    pub fn stats(&self) -> BddStats {
        let s = self.lock();
        BddStats {
            nodes: s.nodes.len(),
            vars: s.var_names.len(),
            cache_entries: s.ite_cache.len(),
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
    /// Arming takes effect between two operations, not between two
    /// operations of one solve: callers arm *before* starting a solve
    /// and disarm after it, exactly like the governed ladder does.
    pub fn set_budget(&self, budget: BddBudget) {
        let mut s = self.lock();
        s.max_nodes = budget.max_nodes.unwrap_or(u64::MAX);
        s.max_ops = budget.max_ops.unwrap_or(u64::MAX);
        s.baseline_nodes = s.nodes.len() as u64;
        s.ops = 0;
        s.exhausted = None;
    }

    /// Removes any budget and clears exhaustion; operations run unbounded
    /// again (e.g. for rendering results after a successful solve).
    pub fn clear_budget(&self) {
        self.set_budget(BddBudget::UNLIMITED);
    }

    /// `Ok(())` if no budget has been exceeded since the last arm,
    /// otherwise the structured error describing which resource ran out.
    ///
    /// A status observed `Err` can never revert to `Ok` (or change its
    /// cause) until the budget is re-armed.
    pub fn budget_status(&self) -> Result<(), BddError> {
        self.lock().exhausted.map_or(Ok(()), Err)
    }

    /// Charges `n` operation steps against the op budget without doing any
    /// work. This is the deterministic fault-injection hook: a chaos
    /// harness can burn the budget down to force `BudgetExceeded` at an
    /// exact, reproducible point.
    pub fn charge_ops(&self, n: u64) {
        self.lock().charge(n);
    }

    /// Operation steps charged since the budget was last armed.
    pub fn ops_used(&self) -> u64 {
        self.lock().ops
    }

    /// Nodes allocated since the budget was last armed.
    pub fn nodes_since_arm(&self) -> u64 {
        let s = self.lock();
        s.nodes.len() as u64 - s.baseline_nodes
    }

    /// How many times budget exhaustion has latched over the lifetime of
    /// this store — at most once per arming, no matter how many threads
    /// race the limit. Diagnostic for the concurrency tests.
    #[cfg(test)]
    pub(crate) fn exhaustion_latches(&self) -> u64 {
        self.lock().latches
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

// Servers share one manager per program across threads; pin that the
// handles stay `Send + Sync` so an accidental `Rc`/`Cell` regression
// fails to compile.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
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
            let ($f, $g) = (self.id, other.id);
            self.apply(|$s| $body)
        }
    };
}

impl Bdd {
    /// The manager this formula belongs to.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Runs `op` under one lock of the store and wraps the node it
    /// returns.
    fn apply(&self, op: impl FnOnce(&mut Store) -> NodeId) -> Bdd {
        let id = op(&mut self.mgr.lock());
        self.mgr.wrap(id)
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
        self.apply(|s| s.not(self.id))
    }

    /// If-then-else `if self then t else e`.
    #[must_use]
    pub fn ite(&self, t: &Bdd, e: &Bdd) -> Bdd {
        debug_assert!(self.mgr.same_store(&t.mgr) && self.mgr.same_store(&e.mgr));
        self.apply(|s| s.ite(self.id, t.id, e.id))
    }

    /// The cofactor of this formula with `var` fixed to `value`.
    #[must_use]
    pub fn restrict(&self, var: VarId, value: bool) -> Bdd {
        self.apply(|s| s.restrict(self.id, var.0, value))
    }

    /// Existential quantification `∃var. self`.
    #[must_use]
    pub fn exists(&self, var: VarId) -> Bdd {
        self.apply(|s| s.exists(self.id, var.0))
    }

    /// Universal quantification `∀var. self`.
    #[must_use]
    pub fn forall(&self, var: VarId) -> Bdd {
        self.apply(|s| {
            let lo = s.restrict(self.id, var.0, false);
            let hi = s.restrict(self.id, var.0, true);
            s.and(lo, hi)
        })
    }

    /// Existentially quantifies every variable in `vars` (projection onto
    /// the remaining variables) — e.g. projecting a feature-model
    /// constraint onto the reachable features.
    #[must_use]
    pub fn exists_many(&self, vars: &[VarId]) -> Bdd {
        self.apply(|s| vars.iter().fold(self.id, |acc, v| s.exists(acc, v.0)))
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
        let count = {
            let s = self.mgr.lock();
            let nvars = s.var_names.len() as u32;
            (nvars <= 127).then(|| s.sat_count(self.id, nvars))
        };
        count.expect("sat_count supports at most 127 variables")
    }

    /// Number of satisfying assignments counting only the first
    /// `nvars` variables of the order (the rest must not occur in `self`).
    ///
    /// # Panics
    ///
    /// Panics if the formula depends on a variable `≥ nvars`. This is
    /// checked in release builds too: a `debug_assert!` here once let
    /// release binaries silently return a wrong model count (the
    /// skip-count arithmetic underflows for out-of-range variables).
    pub fn sat_count_over(&self, nvars: u32) -> u128 {
        let (support, count) = {
            let s = self.mgr.lock();
            let support = s.support(self.id);
            let in_range = support.iter().all(|v| v.0 < nvars);
            (support, in_range.then(|| s.sat_count(self.id, nvars)))
        };
        count.unwrap_or_else(|| {
            panic!("sat_count_over({nvars}) on a formula with support {support:?}")
        })
    }

    /// One satisfying partial assignment, or `None` if unsatisfiable.
    ///
    /// Variables not mentioned may take either value.
    pub fn one_sat(&self) -> Option<Vec<(VarId, bool)>> {
        self.mgr.lock().one_sat(self.id)
    }

    /// Evaluates the formula under a total assignment.
    ///
    /// Locks the store once per node it reads and never while
    /// `assignment` runs, so `assignment` may call into the manager.
    pub fn eval(&self, assignment: impl Fn(VarId) -> bool) -> bool {
        let mut cur = self.id;
        while cur != FALSE_ID && cur != TRUE_ID {
            let n = self.mgr.lock().node(cur);
            cur = if assignment(VarId(n.var)) {
                n.high
            } else {
                n.low
            };
        }
        cur == TRUE_ID
    }

    /// The set of variables this formula depends on, in order.
    pub fn support(&self) -> Vec<VarId> {
        self.mgr.lock().support(self.id)
    }

    /// Number of internal nodes of this diagram (terminals excluded).
    pub fn node_count(&self) -> usize {
        self.mgr.lock().interior_nodes(self.id).count()
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
    /// Cost is **linear in the diagram size** the first time a node is
    /// digested (iterative — safe on ~100k-deep chains) and a memo
    /// probe after that: the manager keeps every node's digest for its
    /// whole life, so a solution whose rows share constraints digests
    /// each shared diagram once. This is the digest the benchmark
    /// hashes solutions with: the older cube-string rendering
    /// ([`Bdd::to_cube_string`]) is exponential in the diagram size and
    /// skewed measured wall times by orders of magnitude on subjects
    /// with rich feature models (BerkeleyDB-class).
    pub fn semantic_digest(&self) -> u64 {
        self.mgr.lock().digest(self.id)
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
        self.mgr.lock().cube_string(self.id)
    }

    /// Renders this diagram in Graphviz DOT format.
    ///
    /// Node labels use raw node ids, which depend on allocation order —
    /// stable for a fixed single-threaded build sequence, but **not**
    /// part of the cross-thread determinism contract (unlike
    /// [`Bdd::to_cube_string`]).
    pub fn to_dot(&self) -> String {
        self.mgr.lock().dot(self.id)
    }
}
