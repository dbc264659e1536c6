//! Concrete feature selections (products).

use crate::{FeatureExpr, FeatureId, FeatureTable};
use std::fmt;

/// A configuration: the set of enabled features, i.e. one concrete product
/// of the product line.
///
/// Stored as a bitset over [`FeatureId`]s, so containment tests are O(1).
///
/// # Example
///
/// ```
/// use spllift_features::{Configuration, FeatureTable};
/// let mut t = FeatureTable::new();
/// let f = t.intern("F");
/// let g = t.intern("G");
/// let config = Configuration::from_enabled([g]);
/// assert!(config.is_enabled(g));
/// assert!(!config.is_enabled(f));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Configuration {
    words: Vec<u64>,
}

impl Configuration {
    /// The empty configuration (all features disabled).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a configuration from an iterator of enabled features.
    pub fn from_enabled(enabled: impl IntoIterator<Item = FeatureId>) -> Self {
        let mut c = Self::empty();
        for f in enabled {
            c.enable(f);
        }
        c
    }

    /// Builds a configuration from the low `n` bits of `bits`: feature `i`
    /// is enabled iff bit `i` is set. Handy for exhaustive enumeration.
    pub fn from_bits(bits: u64, n: usize) -> Self {
        assert!(n <= 64, "from_bits supports at most 64 features");
        let mut c = Self::empty();
        for i in 0..n {
            if bits & (1 << i) != 0 {
                c.enable(FeatureId(i as u32));
            }
        }
        c
    }

    /// Enables `f`.
    pub fn enable(&mut self, f: FeatureId) {
        let (w, b) = (f.index() / 64, f.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    /// Disables `f`.
    pub fn disable(&mut self, f: FeatureId) {
        let (w, b) = (f.index() / 64, f.index() % 64);
        if w < self.words.len() {
            self.words[w] &= !(1 << b);
            while self.words.last() == Some(&0) {
                self.words.pop();
            }
        }
    }

    /// `true` iff `f` is enabled.
    pub fn is_enabled(&self, f: FeatureId) -> bool {
        let (w, b) = (f.index() / 64, f.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// `true` iff the annotation `expr` is satisfied by this configuration.
    pub fn satisfies(&self, expr: &FeatureExpr) -> bool {
        expr.eval(|f| self.is_enabled(f))
    }

    /// Iterates over enabled features in id order.
    pub fn enabled(&self) -> impl Iterator<Item = FeatureId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| FeatureId((w * 64 + b) as u32))
        })
    }

    /// Number of enabled features.
    pub fn count_enabled(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Renders using names from `table`, e.g. `{F, H}`.
    pub fn display<'a>(&'a self, table: &'a FeatureTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Configuration, &'a FeatureTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{{")?;
                for (i, feat) in self.0.enabled().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.1.name(feat))?;
                }
                write!(f, "}}")
            }
        }
        D(self, table)
    }
}

/// Splits `items` into at most `shards` contiguous, near-equal chunks,
/// preserving order: concatenating the returned slices yields `items`
/// exactly. At most the first `items.len() % shards` chunks are one
/// element longer than the rest, and no chunk is empty (so fewer than
/// `shards` chunks are returned when there are fewer items than shards).
///
/// This is how the parallel A2 campaign and cross-check shard
/// configurations and the fuzz campaign shards seeds: because chunks are
/// contiguous and in order, merging per-shard results in shard index
/// order reproduces the sequential processing order regardless of how
/// the shards were scheduled.
///
/// # Panics
///
/// Panics if `shards` is zero.
///
/// # Example
///
/// ```
/// use spllift_features::{partition_slice, Configuration};
/// let configs: Vec<_> = (0..5).map(|b| Configuration::from_bits(b, 3)).collect();
/// let parts = partition_slice(&configs, 2);
/// assert_eq!(parts.len(), 2);
/// assert_eq!(parts[0].len(), 3);
/// assert_eq!(parts[1].len(), 2);
/// let rejoined: Vec<_> = parts.concat();
/// assert_eq!(rejoined, configs);
/// ```
pub fn partition_slice<T>(items: &[T], shards: usize) -> Vec<&[T]> {
    assert!(shards > 0, "cannot partition into zero shards");
    let shards = shards.min(items.len()).max(1);
    let base = items.len() / shards;
    let extra = items.len() % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(&items[start..start + len]);
        start += len;
    }
    out
}

/// Enumerates all `2^n` configurations over the features `universe`.
///
/// The iteration order is the binary counting order over the universe, so it
/// is deterministic. Intended for the A1/A2 baselines on small feature sets;
/// panics if the universe holds more than 30 features (the enumeration would
/// be pointless at that size — use BDD `sat_count` instead).
pub fn all_configurations(universe: &[FeatureId]) -> impl Iterator<Item = Configuration> + '_ {
    assert!(
        universe.len() <= 30,
        "refusing to enumerate 2^{} configurations",
        universe.len()
    );
    (0u64..(1u64 << universe.len())).map(move |bits| {
        Configuration::from_enabled(
            universe
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, &f)| f),
        )
    })
}
