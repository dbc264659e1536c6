//! The lifted semi-naive Datalog engine.
//!
//! Following Shahin–Chechik–Salay (*Lifting Datalog-Based Analyses to
//! Software Product Lines*), every tuple carries a feature constraint —
//! a [`Bdd`] over the product line's features — recording under which
//! configurations the tuple is derivable:
//!
//! * a rule body **joins** tuples by conjoining (AND-ing) their
//!   constraints; a body whose conjunction is unsatisfiable derives
//!   nothing (the tuple never materializes),
//! * **inserting** a derived tuple disjoins (OR-s) its constraint with
//!   the constraint already stored for that tuple; if the stored BDD is
//!   unchanged (the canonical hash-consed node is identical) the
//!   derivation was *subsumed* and does not re-enter the delta,
//! * a **negated** literal over a lower stratum contributes the
//!   *negation* of the stored constraint (or `true` if the tuple is
//!   absent) — the lifted counterpart of stratified negation.
//!
//! Evaluation is stratum-by-stratum semi-naive: round 0 of a stratum
//! evaluates every rule naively against the seeded database; each later
//! round rewrites one positive in-stratum body literal to the previous
//! round's delta (tuples whose constraint changed, carried with their
//! *full* updated constraint — sound because all constraint operators in
//! a stratum are monotone). Rule-evaluation tasks are sharded over
//! [`map_shards`] and their derivations merged **in task order**, so the
//! database's tuple insertion order — and hence every rendered output —
//! is byte-identical for every `jobs` value.
//!
//! The engine polls the BDD manager's node/op budget once per round
//! (the store itself only latches exhaustion, it never panics) and
//! surfaces exhaustion as [`DatalogError::BudgetExceeded`].

use spllift_bdd::Bdd;
use spllift_features::{map_shards, BddConstraintContext, ConstraintContext};
use spllift_hash::{FastMap, FastSet};
use std::fmt;

/// A ground tuple: one `u64` per column. Statement- and method-valued
/// columns use the encodings of the `analyses` module.
pub type Tuple = Vec<u64>;

/// Handle to a declared relation (index into the program's declarations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub usize);

/// One term of an atom: a rule variable (dense index) or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// A rule variable, identified by a dense per-rule index.
    Var(usize),
    /// A constant column value.
    Const(u64),
}

/// A relation applied to terms, e.g. `PE(d1, s, d2)`.
#[derive(Debug, Clone)]
pub struct Atom {
    /// The relation.
    pub relation: RelId,
    /// One term per column.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(relation: RelId, terms: Vec<Term>) -> Self {
        Atom { relation, terms }
    }
}

/// A possibly negated atom in a rule body.
#[derive(Debug, Clone)]
pub struct Literal {
    /// The atom.
    pub atom: Atom,
    /// `true` for `!R(..)` — lifted stratified negation.
    pub negated: bool,
}

/// A positive body literal.
pub fn pos(relation: RelId, terms: Vec<Term>) -> Literal {
    Literal {
        atom: Atom::new(relation, terms),
        negated: false,
    }
}

/// A negated body literal (must be stratified below its rule's head).
pub fn neg(relation: RelId, terms: Vec<Term>) -> Literal {
    Literal {
        atom: Atom::new(relation, terms),
        negated: true,
    }
}

/// One rule: `head :- body`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Diagnostic name (shows up in errors).
    pub name: String,
    /// The derived atom.
    pub head: Atom,
    /// Body literals, joined left to right (negations evaluated last).
    pub body: Vec<Literal>,
}

struct RelationDecl {
    name: String,
    arity: usize,
}

/// A Datalog program: relation declarations plus rules.
///
/// Relations derived by no rule are extensional (EDB) and sit in
/// stratum 0; negation may only refer to strictly lower strata.
#[derive(Default)]
pub struct DatalogProgram {
    relations: Vec<RelationDecl>,
    rules: Vec<Rule>,
}

impl DatalogProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a relation with `arity` columns.
    pub fn relation(&mut self, name: impl Into<String>, arity: usize) -> RelId {
        self.relations.push(RelationDecl {
            name: name.into(),
            arity,
        });
        RelId(self.relations.len() - 1)
    }

    /// Adds a rule. Structural problems (arity mismatches, unbound head
    /// or negated variables) are reported by [`evaluate`], not here.
    pub fn rule(&mut self, name: impl Into<String>, head: Atom, body: Vec<Literal>) {
        self.rules.push(Rule {
            name: name.into(),
            head,
            body,
        });
    }

    /// Number of declared relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// The declared name of `rel`.
    pub fn relation_name(&self, rel: RelId) -> &str {
        &self.relations[rel.0].name
    }

    /// The declared arity of `rel`.
    pub fn arity(&self, rel: RelId) -> usize {
        self.relations[rel.0].arity
    }

    /// The rules, in insertion order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Checks arities and rule safety (every head / negated-literal
    /// variable must be bound by a positive body literal; every rule
    /// needs at least one positive literal).
    fn validate(&self) -> Result<(), DatalogError> {
        let check_atom = |rule: &Rule, atom: &Atom| -> Result<(), DatalogError> {
            let expected = self.relations[atom.relation.0].arity;
            if atom.terms.len() != expected {
                return Err(DatalogError::ArityMismatch {
                    rule: rule.name.clone(),
                    relation: self.relations[atom.relation.0].name.clone(),
                    expected,
                    found: atom.terms.len(),
                });
            }
            Ok(())
        };
        for rule in &self.rules {
            check_atom(rule, &rule.head)?;
            let mut bound: FastSet<usize> = FastSet::default();
            let mut positives = 0usize;
            for lit in &rule.body {
                check_atom(rule, &lit.atom)?;
                if !lit.negated {
                    positives += 1;
                    for t in &lit.atom.terms {
                        if let Term::Var(v) = t {
                            bound.insert(*v);
                        }
                    }
                }
            }
            if positives == 0 {
                return Err(DatalogError::NoPositiveLiteral {
                    rule: rule.name.clone(),
                });
            }
            let unbound = |terms: &[Term]| {
                terms.iter().find_map(|t| match t {
                    Term::Var(v) if !bound.contains(v) => Some(*v),
                    _ => None,
                })
            };
            if let Some(v) = unbound(&rule.head.terms) {
                return Err(DatalogError::UnboundVariable {
                    rule: rule.name.clone(),
                    var: v,
                });
            }
            for lit in &rule.body {
                if lit.negated {
                    if let Some(v) = unbound(&lit.atom.terms) {
                        return Err(DatalogError::UnboundVariable {
                            rule: rule.name.clone(),
                            var: v,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Assigns each relation a stratum: positive dependencies stay in
    /// the same stratum, negated dependencies force a strictly higher
    /// one. A cycle through negation has no finite assignment.
    fn stratify(&self) -> Result<Vec<usize>, DatalogError> {
        let n = self.relations.len();
        let mut stratum = vec![0usize; n];
        loop {
            let mut changed = false;
            for rule in &self.rules {
                let h = rule.head.relation.0;
                for lit in &rule.body {
                    let b = stratum[lit.atom.relation.0];
                    let need = if lit.negated { b + 1 } else { b };
                    if stratum[h] < need {
                        if need > n {
                            return Err(DatalogError::Unstratifiable {
                                relation: self.relations[h].name.clone(),
                            });
                        }
                        stratum[h] = need;
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(stratum);
            }
        }
    }
}

/// Structured evaluation failure. The engine never panics on bad
/// programs or exhausted budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A relation depends on itself through negation.
    Unstratifiable {
        /// The relation on the offending cycle.
        relation: String,
    },
    /// An atom's term count disagrees with the relation declaration.
    ArityMismatch {
        /// Rule name.
        rule: String,
        /// Relation name.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Terms in the atom.
        found: usize,
    },
    /// A head or negated-literal variable is not bound by any positive
    /// body literal.
    UnboundVariable {
        /// Rule name.
        rule: String,
        /// The unbound variable index.
        var: usize,
    },
    /// A rule has no positive body literal (facts are seeded via
    /// [`Database::insert`], not written as rules).
    NoPositiveLiteral {
        /// Rule name.
        rule: String,
    },
    /// The BDD manager's armed node/op budget was exhausted.
    BudgetExceeded {
        /// Human-readable description of the exhausted resource.
        detail: String,
    },
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Unstratifiable { relation } => {
                write!(f, "relation {relation} depends on itself through negation")
            }
            DatalogError::ArityMismatch {
                rule,
                relation,
                expected,
                found,
            } => write!(
                f,
                "rule {rule}: relation {relation} has arity {expected}, atom has {found} terms"
            ),
            DatalogError::UnboundVariable { rule, var } => write!(
                f,
                "rule {rule}: variable v{var} is not bound by a positive body literal"
            ),
            DatalogError::NoPositiveLiteral { rule } => {
                write!(f, "rule {rule} has no positive body literal")
            }
            DatalogError::BudgetExceeded { detail } => {
                write!(f, "constraint budget exceeded: {detail}")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

/// One relation's contents: tuples in insertion order, each paired with
/// its feature constraint.
#[derive(Default)]
struct RelationData {
    tuples: Vec<(Tuple, Bdd)>,
    index: FastMap<Tuple, usize>,
}

impl RelationData {
    /// ORs `c` into the stored constraint for `tuple`. Returns `true`
    /// iff the stored constraint changed (canonical-equality
    /// subsumption: re-deriving under an entailed constraint is a
    /// no-op). Tuples with an unsatisfiable constraint never
    /// materialize.
    fn insert(&mut self, tuple: Tuple, c: Bdd) -> bool {
        if c.is_false() {
            return false;
        }
        if let Some(&i) = self.index.get(&tuple) {
            let old = &self.tuples[i].1;
            let joined = old.or(&c);
            if joined == *old {
                return false;
            }
            self.tuples[i].1 = joined;
            true
        } else {
            self.index.insert(tuple.clone(), self.tuples.len());
            self.tuples.push((tuple, c));
            true
        }
    }
}

/// The fact store: one [`Tuple`]→[`Bdd`] map per declared relation,
/// with deterministic (insertion-order) iteration.
pub struct Database {
    relations: Vec<RelationData>,
}

impl Database {
    /// An empty database shaped for `program`'s relations.
    pub fn new(program: &DatalogProgram) -> Self {
        Database {
            relations: (0..program.relation_count())
                .map(|_| RelationData::default())
                .collect(),
        }
    }

    /// Seeds or derives a fact; ORs into an existing constraint with
    /// subsumption. Returns `true` iff the stored constraint changed.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple, c: Bdd) -> bool {
        self.relations[rel.0].insert(tuple, c)
    }

    /// Number of tuples currently in `rel`.
    pub fn len(&self, rel: RelId) -> usize {
        self.relations[rel.0].tuples.len()
    }

    /// `true` iff `rel` holds no tuple.
    pub fn is_empty(&self, rel: RelId) -> bool {
        self.relations[rel.0].tuples.is_empty()
    }

    /// The tuples of `rel` with their constraints, in insertion order.
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = (&[u64], &Bdd)> {
        self.relations[rel.0]
            .tuples
            .iter()
            .map(|(t, c)| (t.as_slice(), c))
    }

    /// The constraint stored for `tuple` in `rel`, if present.
    pub fn constraint_of(&self, rel: RelId, tuple: &[u64]) -> Option<&Bdd> {
        let r = &self.relations[rel.0];
        r.index.get(tuple).map(|&i| &r.tuples[i].1)
    }

    /// Total tuple count across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.tuples.len()).sum()
    }
}

/// Evaluation knobs.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Worker threads for rule-evaluation tasks (sharded over
    /// [`map_shards`]; output is byte-identical for every value).
    pub jobs: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { jobs: 1 }
    }
}

/// Counters of one evaluation.
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Strata evaluated (including empty ones skipped).
    pub strata: usize,
    /// Semi-naive rounds run across all strata.
    pub rounds: usize,
    /// Tuple derivations produced (before subsumption).
    pub derivations: u64,
    /// Tuples stored across all relations after the fixpoint.
    pub tuples: usize,
}

/// A rule-evaluation task: rule index plus the body position rewritten
/// to the delta (`None` = naive round-0 evaluation).
type Task = (usize, Option<usize>);

/// The join plan of one task: positive literals in evaluation order
/// (delta literal first), then negated literals.
struct Plan {
    positives: Vec<usize>,
    negatives: Vec<usize>,
    nvars: usize,
}

fn plan_for(rule: &Rule, dpos: Option<usize>) -> Plan {
    let mut positives = Vec::new();
    if let Some(d) = dpos {
        positives.push(d);
    }
    for (i, lit) in rule.body.iter().enumerate() {
        if !lit.negated && Some(i) != dpos {
            positives.push(i);
        }
    }
    let negatives = (0..rule.body.len())
        .filter(|&i| rule.body[i].negated)
        .collect();
    let nvars = rule
        .head
        .terms
        .iter()
        .chain(rule.body.iter().flat_map(|l| l.atom.terms.iter()))
        .filter_map(|t| match t {
            Term::Var(v) => Some(*v + 1),
            Term::Const(_) => None,
        })
        .max()
        .unwrap_or(0);
    Plan {
        positives,
        negatives,
        nvars,
    }
}

/// Which columns of the literal at `pos` are bound (constant, or a
/// variable bound by an earlier positive literal of the plan)?
fn bound_cols(rule: &Rule, plan: &Plan, step: usize) -> Vec<usize> {
    let mut bound: FastSet<usize> = FastSet::default();
    for &p in &plan.positives[..step] {
        for t in &rule.body[p].atom.terms {
            if let Term::Var(v) = t {
                bound.insert(*v);
            }
        }
    }
    let lit = &rule.body[plan.positives[step]];
    (0..lit.atom.terms.len())
        .filter(|&i| match lit.atom.terms[i] {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(&v),
        })
        .collect()
}

type JoinIndex = FastMap<Vec<u64>, Vec<usize>>;

/// Hash indexes over the round-start database snapshot, keyed by
/// (relation, bound-column set). Shared read-only across shards.
struct Indexes {
    by_sig: FastMap<(usize, Vec<usize>), JoinIndex>,
}

fn build_indexes(program: &DatalogProgram, db: &Database, tasks: &[Task]) -> Indexes {
    let mut by_sig: FastMap<(usize, Vec<usize>), JoinIndex> = FastMap::default();
    for &(rule_idx, dpos) in tasks {
        let rule = &program.rules[rule_idx];
        let plan = plan_for(rule, dpos);
        // Step 0 iterates its source exhaustively; later steps use an
        // index unless fully bound (direct lookup) or fully unbound
        // (scan).
        for step in 1..plan.positives.len() {
            let lit = &rule.body[plan.positives[step]];
            let cols = bound_cols(rule, &plan, step);
            if cols.is_empty() || cols.len() == lit.atom.terms.len() {
                continue;
            }
            let sig = (lit.atom.relation.0, cols);
            if by_sig.contains_key(&sig) {
                continue;
            }
            let mut index: JoinIndex = FastMap::default();
            for (i, (tuple, _)) in db.relations[sig.0].tuples.iter().enumerate() {
                let key: Vec<u64> = sig.1.iter().map(|&c| tuple[c]).collect();
                index.entry(key).or_default().push(i);
            }
            by_sig.insert(sig, index);
        }
    }
    Indexes { by_sig }
}

/// Evaluates one task against the round-start snapshot, appending
/// derivations (head relation, tuple, constraint) in deterministic
/// order.
#[allow(clippy::too_many_arguments)]
fn eval_task(
    program: &DatalogProgram,
    db: &Database,
    indexes: &Indexes,
    delta: &[Vec<(Tuple, Bdd)>],
    rule_idx: usize,
    dpos: Option<usize>,
    out: &mut Vec<(RelId, Tuple, Bdd)>,
) {
    let rule = &program.rules[rule_idx];
    let plan = plan_for(rule, dpos);
    let mut bindings: Vec<Option<u64>> = vec![None; plan.nvars];

    fn unify(terms: &[Term], tuple: &[u64], bindings: &mut [Option<u64>]) -> Option<Vec<usize>> {
        let mut newly = Vec::new();
        for (t, &v) in terms.iter().zip(tuple) {
            match *t {
                Term::Const(c) => {
                    if c != v {
                        for &u in &newly {
                            bindings[u] = None;
                        }
                        return None;
                    }
                }
                Term::Var(x) => match bindings[x] {
                    Some(b) if b == v => {}
                    Some(_) => {
                        for &u in &newly {
                            bindings[u] = None;
                        }
                        return None;
                    }
                    None => {
                        bindings[x] = Some(v);
                        newly.push(x);
                    }
                },
            }
        }
        Some(newly)
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        db: &Database,
        indexes: &Indexes,
        delta: &[Vec<(Tuple, Bdd)>],
        rule: &Rule,
        plan: &Plan,
        use_delta: bool,
        step: usize,
        acc: Option<&Bdd>,
        bindings: &mut Vec<Option<u64>>,
        out: &mut Vec<(RelId, Tuple, Bdd)>,
    ) {
        if step == plan.positives.len() {
            // All positives matched: apply negations, then the head.
            let mut c = acc.expect("positive join yields a constraint").clone();
            for &n in &plan.negatives {
                let atom = &rule.body[n].atom;
                let tuple: Tuple = atom
                    .terms
                    .iter()
                    .map(|t| match *t {
                        Term::Const(k) => k,
                        Term::Var(v) => bindings[v].expect("validated: negated vars bound"),
                    })
                    .collect();
                if let Some(nc) = db.constraint_of(atom.relation, &tuple) {
                    c = c.and(&nc.not());
                    if c.is_false() {
                        return;
                    }
                }
            }
            let head: Tuple = rule
                .head
                .terms
                .iter()
                .map(|t| match *t {
                    Term::Const(k) => k,
                    Term::Var(v) => bindings[v].expect("validated: head vars bound"),
                })
                .collect();
            out.push((rule.head.relation, head, c));
            return;
        }
        let pos = plan.positives[step];
        let atom = &rule.body[pos].atom;
        // Gather this step's candidate rows first (they borrow the
        // database immutably), then unify/recurse with the mutable
        // binding environment. Step 0 scans the delta (semi-naive) or
        // the full relation; later steps use a direct lookup when fully
        // bound, a prebuilt index when partially bound, a scan otherwise.
        let candidates: Vec<(&[u64], &Bdd)> = if step == 0 && use_delta {
            delta[atom.relation.0]
                .iter()
                .map(|(t, c)| (t.as_slice(), c))
                .collect()
        } else {
            let rel = &db.relations[atom.relation.0];
            if step == 0 {
                rel.tuples.iter().map(|(t, c)| (t.as_slice(), c)).collect()
            } else {
                let cols: Vec<usize> = (0..atom.terms.len())
                    .filter(|&i| match atom.terms[i] {
                        Term::Const(_) => true,
                        Term::Var(v) => bindings[v].is_some(),
                    })
                    .collect();
                if cols.len() == atom.terms.len() {
                    let key: Tuple = atom
                        .terms
                        .iter()
                        .map(|t| match *t {
                            Term::Const(k) => k,
                            Term::Var(v) => bindings[v].expect("bound"),
                        })
                        .collect();
                    rel.index
                        .get(&key)
                        .map(|&i| {
                            let (tuple, tc) = &rel.tuples[i];
                            vec![(tuple.as_slice(), tc)]
                        })
                        .unwrap_or_default()
                } else if cols.is_empty() {
                    rel.tuples.iter().map(|(t, c)| (t.as_slice(), c)).collect()
                } else {
                    let key: Vec<u64> = cols
                        .iter()
                        .map(|&i| match atom.terms[i] {
                            Term::Const(k) => k,
                            Term::Var(v) => bindings[v].expect("bound"),
                        })
                        .collect();
                    let sig = (atom.relation.0, cols);
                    let index = indexes
                        .by_sig
                        .get(&sig)
                        .expect("index prebuilt for every partially bound step");
                    index
                        .get(&key)
                        .map(|rows| {
                            rows.iter()
                                .map(|&i| {
                                    let (tuple, tc) = &rel.tuples[i];
                                    (tuple.as_slice(), tc)
                                })
                                .collect()
                        })
                        .unwrap_or_default()
                }
            }
        };
        for (tuple, tc) in candidates {
            let Some(newly) = unify(&atom.terms, tuple, bindings) else {
                continue;
            };
            let joined = match acc {
                None => tc.clone(),
                Some(a) => a.and(tc),
            };
            if !joined.is_false() {
                descend(
                    db,
                    indexes,
                    delta,
                    rule,
                    plan,
                    use_delta,
                    step + 1,
                    Some(&joined),
                    bindings,
                    out,
                );
            }
            for u in newly {
                bindings[u] = None;
            }
        }
    }

    descend(
        db,
        indexes,
        delta,
        rule,
        &plan,
        dpos.is_some(),
        0,
        None,
        &mut bindings,
        out,
    );
}

/// Runs `program` to its stratified fixpoint over `db` (which carries
/// the seeded EDB facts and any IDB seeds), sharding rule evaluation
/// over `opts.jobs` workers. Deterministic: the database's final tuple
/// order is identical for every `jobs` value.
pub fn evaluate(
    program: &DatalogProgram,
    db: &mut Database,
    ctx: &BddConstraintContext,
    opts: &EvalOptions,
) -> Result<EvalStats, DatalogError> {
    program.validate()?;
    let strata = program.stratify()?;
    let strata = &strata;
    let nrels = program.relation_count();
    let max_stratum = strata.iter().copied().max().unwrap_or(0);
    let mut stats = EvalStats {
        strata: max_stratum + 1,
        ..EvalStats::default()
    };
    for s in 0..=max_stratum {
        let rule_ids: Vec<usize> = (0..program.rules.len())
            .filter(|&r| strata[program.rules[r].head.relation.0] == s)
            .collect();
        if rule_ids.is_empty() {
            continue; // e.g. stratum 0 when every EDB relation is seeded
        }
        let mut delta: Vec<Vec<(Tuple, Bdd)>> = vec![Vec::new(); nrels];
        let mut round = 0usize;
        loop {
            ctx.budget_status()
                .map_err(|detail| DatalogError::BudgetExceeded { detail })?;
            let tasks: Vec<Task> = if round == 0 {
                rule_ids.iter().map(|&r| (r, None)).collect()
            } else {
                let delta = &delta;
                rule_ids
                    .iter()
                    .flat_map(|&r| {
                        let rule = &program.rules[r];
                        (0..rule.body.len()).filter_map(move |i| {
                            let lit = &rule.body[i];
                            (!lit.negated
                                && strata[lit.atom.relation.0] == s
                                && !delta[lit.atom.relation.0].is_empty())
                            .then_some((r, Some(i)))
                        })
                    })
                    .collect()
            };
            if tasks.is_empty() {
                break;
            }
            let indexes = build_indexes(program, db, &tasks);
            let (per_task, _shard_stats, _jobs) =
                map_shards(&tasks, opts.jobs, |_, chunk: &[Task]| {
                    let mut out = Vec::new();
                    for &(rule_idx, dpos) in chunk {
                        eval_task(program, db, &indexes, &delta, rule_idx, dpos, &mut out);
                    }
                    out
                });
            stats.rounds += 1;
            let mut changed: Vec<Vec<Tuple>> = vec![Vec::new(); nrels];
            let mut seen: FastSet<(usize, Tuple)> = FastSet::default();
            let mut any = false;
            for derivations in per_task {
                for (rel, tuple, c) in derivations {
                    stats.derivations += 1;
                    if db.insert(rel, tuple.clone(), c) && seen.insert((rel.0, tuple.clone())) {
                        changed[rel.0].push(tuple);
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
            // The next delta carries every changed tuple once, with its
            // full post-round constraint.
            delta = vec![Vec::new(); nrels];
            for (r, tuples) in changed.into_iter().enumerate() {
                for t in tuples {
                    let c = db
                        .constraint_of(RelId(r), &t)
                        .expect("changed tuple is stored")
                        .clone();
                    delta[r].push((t, c));
                }
            }
            round += 1;
        }
    }
    stats.tuples = db.total_tuples();
    Ok(stats)
}
