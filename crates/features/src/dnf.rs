//! A hand-written disjunctive-normal-form constraint representation.
//!
//! The paper reports (§5, §7) that the authors *first* implemented feature
//! constraints as a hand-written DNF data structure and abandoned it for
//! BDDs because "others do not scale nearly as well for the Boolean
//! operations we require". We keep a DNF implementation so that
//! ablation A of `report ablations` (in `spllift-bench`) can reproduce
//! that finding.
//!
//! A constraint is a set of *cubes*; a cube is a conjunction of literals
//! stored as two bitmasks (positive / negative occurrences) over at most
//! 128 features. The representation is kept *reduced* under cube
//! subsumption (absorption), which makes syntactic equality a usable — if
//! semantically incomplete — equivalence check: semantically equal
//! constraints may compare unequal, which only costs the solver extra
//! propagation, never soundness.

use crate::{Configuration, Constraint, ConstraintContext, FeatureId};
use std::fmt;

/// One conjunction of literals over features `0..=127`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Cube {
    pos: u128,
    neg: u128,
}

impl Cube {
    const TOP: Cube = Cube { pos: 0, neg: 0 };

    fn contradictory(self) -> bool {
        self.pos & self.neg != 0
    }

    /// Conjunction of two cubes, `None` if contradictory.
    fn and(self, other: Cube) -> Option<Cube> {
        let c = Cube {
            pos: self.pos | other.pos,
            neg: self.neg | other.neg,
        };
        (!c.contradictory()).then_some(c)
    }

    /// `self` subsumes `other` iff `self`'s literals ⊆ `other`'s
    /// (then `other → self` and `other` is redundant in a disjunction
    /// containing `self`).
    fn subsumes(self, other: Cube) -> bool {
        self.pos & !other.pos == 0 && self.neg & !other.neg == 0
    }

    fn satisfied_by(self, config: &Configuration) -> bool {
        let enabled = |mask: u128, want: bool| {
            (0..128).all(|i| {
                if mask & (1 << i) == 0 {
                    true
                } else {
                    config.is_enabled(FeatureId(i)) == want
                }
            })
        };
        enabled(self.pos, true) && enabled(self.neg, false)
    }
}

/// A feature constraint in reduced disjunctive normal form.
///
/// Implements [`Constraint`] so that the SPLLIFT lifting can be
/// instantiated with it in place of BDDs for the representation ablation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Dnf {
    /// Sorted, subsumption-reduced cube set. Empty set = `false`;
    /// the single empty cube = `true`.
    cubes: Vec<Cube>,
}

impl Dnf {
    fn tt() -> Self {
        Dnf {
            cubes: vec![Cube::TOP],
        }
    }

    fn ff() -> Self {
        Dnf { cubes: Vec::new() }
    }

    fn lit(f: FeatureId, positive: bool) -> Self {
        assert!(
            f.index() < 128,
            "DNF constraints support at most 128 features"
        );
        let bit = 1u128 << f.index();
        let cube = if positive {
            Cube { pos: bit, neg: 0 }
        } else {
            Cube { pos: 0, neg: bit }
        };
        Dnf { cubes: vec![cube] }
    }

    /// Normalizes: sorts, dedups, and removes subsumed cubes.
    fn reduce(mut cubes: Vec<Cube>) -> Self {
        cubes.sort();
        cubes.dedup();
        let mut keep: Vec<Cube> = Vec::with_capacity(cubes.len());
        'outer: for c in cubes {
            debug_assert!(!c.contradictory());
            for k in &keep {
                if k.subsumes(c) {
                    continue 'outer;
                }
            }
            keep.retain(|k| !c.subsumes(*k));
            keep.push(c);
        }
        keep.sort();
        Dnf { cubes: keep }
    }

    /// Number of cubes (diagnostic; grows where a BDD would stay small).
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// `true` iff `config` satisfies this constraint.
    pub fn satisfied_by(&self, config: &Configuration) -> bool {
        self.cubes.iter().any(|c| c.satisfied_by(config))
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "false");
        }
        if self.cubes == [Cube::TOP] {
            return write!(f, "true");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "(")?;
            let mut first = true;
            for b in 0..128 {
                if c.pos & (1 << b) != 0 {
                    if !first {
                        write!(f, " & ")?;
                    }
                    write!(f, "f{b}")?;
                    first = false;
                }
                if c.neg & (1 << b) != 0 {
                    if !first {
                        write!(f, " & ")?;
                    }
                    write!(f, "!f{b}")?;
                    first = false;
                }
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl Constraint for Dnf {
    fn and(&self, other: &Self) -> Self {
        let mut cubes = Vec::with_capacity(self.cubes.len() * other.cubes.len());
        for &a in &self.cubes {
            for &b in &other.cubes {
                if let Some(c) = a.and(b) {
                    cubes.push(c);
                }
            }
        }
        Dnf::reduce(cubes)
    }

    fn or(&self, other: &Self) -> Self {
        let mut cubes = self.cubes.clone();
        cubes.extend_from_slice(&other.cubes);
        Dnf::reduce(cubes)
    }

    fn is_false(&self) -> bool {
        self.cubes.is_empty()
    }

    fn is_true(&self) -> bool {
        self.cubes == [Cube::TOP]
    }
}

/// [`ConstraintContext`] producing [`Dnf`] constraints.
///
/// # Example
///
/// ```
/// use spllift_features::{Configuration, ConstraintContext, DnfConstraintContext, FeatureTable};
/// use spllift_features::Constraint as _;
/// let mut t = FeatureTable::new();
/// let f = t.intern("F");
/// let ctx = DnfConstraintContext::new(&t);
/// let c = ctx.lit(f, true).and(&ctx.lit(f, false));
/// assert!(c.is_false());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DnfConstraintContext {
    _priv: (),
}

impl DnfConstraintContext {
    /// Creates a context for the features of `table` (at most 128).
    pub fn new(table: &crate::FeatureTable) -> Self {
        assert!(
            table.len() <= 128,
            "DNF constraints support at most 128 features"
        );
        DnfConstraintContext { _priv: () }
    }
}

impl ConstraintContext for DnfConstraintContext {
    type C = Dnf;

    fn tt(&self) -> Dnf {
        Dnf::tt()
    }

    fn ff(&self) -> Dnf {
        Dnf::ff()
    }

    fn lit(&self, f: FeatureId, positive: bool) -> Dnf {
        Dnf::lit(f, positive)
    }

    fn satisfied_by(&self, c: &Dnf, config: &Configuration) -> bool {
        c.satisfied_by(config)
    }
}
