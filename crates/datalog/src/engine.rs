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
//! round's delta (the rows whose constraint changed, read with their
//! *full* updated constraint — sound because all constraint operators in
//! a stratum are monotone). Each task runs a nested-loop join whose plan
//! is fixed per rule and delta position — bound literals first — and
//! probes hash indexes that only catch up on the rows appended since the
//! previous round. A round runs its tasks in order on the calling
//! thread and inserts their derivations in that order, so the database's
//! tuple insertion order — and hence every rendered output — is
//! deterministic. (Tasks could not run on other threads: they share the
//! context's one BDD manager, which never leaves its thread; DESIGN.md
//! §6.)
//!
//! The engine polls the BDD manager's node/op budget once per round
//! (the store itself only latches exhaustion, it never panics) and
//! surfaces exhaustion as [`DatalogError::BudgetExceeded`].

use spllift_bdd::Bdd;
use spllift_features::{BddConstraintContext, ConstraintContext};
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
    /// Body literals. The engine joins the positive ones bound-first,
    /// not in written order, and evaluates negations last.
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
/// its feature constraint. Rows are append-only: a constraint update
/// rewrites its row in place, so a row number names the same tuple for
/// the whole evaluation.
#[derive(Default)]
struct RelationData {
    tuples: Vec<(Tuple, Bdd)>,
    index: FastMap<Tuple, usize>,
}

impl RelationData {
    /// ORs `c` into the stored constraint for `tuple`. Returns the row
    /// number iff the stored constraint changed (canonical-equality
    /// subsumption: re-deriving under an entailed constraint is a
    /// no-op). Tuples with an unsatisfiable constraint never
    /// materialize.
    fn insert(&mut self, tuple: Tuple, c: Bdd) -> Option<usize> {
        if c.is_false() {
            return None;
        }
        if let Some(&i) = self.index.get(&tuple) {
            let old = &self.tuples[i].1;
            let joined = old.or(&c);
            if joined == *old {
                return None;
            }
            self.tuples[i].1 = joined;
            Some(i)
        } else {
            let row = self.tuples.len();
            self.index.insert(tuple.clone(), row);
            self.tuples.push((tuple, c));
            Some(row)
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
        self.relations[rel.0].insert(tuple, c).is_some()
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

/// How a plan step finds the rows that may match its literal.
#[derive(Debug, Clone, Copy)]
enum Access {
    /// The rows that changed last round: the semi-naive delta literal.
    Delta,
    /// Every row: no column is bound yet.
    Scan,
    /// One lookup of the whole tuple: every column is bound.
    Lookup,
    /// The join index in this [`Indexes`] slot, keyed by the bound
    /// columns.
    Index(usize),
}

/// One positive literal of a join plan.
struct Step {
    /// Body position of the literal.
    lit: usize,
    access: Access,
    /// The columns bound when the step runs (constants, or variables
    /// bound by earlier steps), ascending: the lookup or index key.
    key_cols: Vec<usize>,
    /// The variables this step binds, reset after every matched row.
    binds: Vec<usize>,
}

/// The join plan of one rule-evaluation task: positive literals in
/// evaluation order, then the negated ones, which are checked once
/// every variable is bound.
struct Plan {
    rule: usize,
    steps: Vec<Step>,
    negatives: Vec<usize>,
    nvars: usize,
}

/// Plans rule `rule_idx` with the body literal at `dpos` rewritten to
/// the delta (`None`: round 0's naive evaluation).
///
/// The delta literal runs first, which keeps the semi-naive invariant.
/// Each later step takes the remaining positive literal whose columns
/// are all bound (a direct lookup); failing that, the one with the most
/// bound columns, counting constants; ties go to body order. The plan
/// depends on the rule and the delta position alone, never on the data.
fn plan_for(
    program: &DatalogProgram,
    rule_idx: usize,
    dpos: Option<usize>,
    indexes: &mut Indexes,
) -> Plan {
    let rule = &program.rules[rule_idx];
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
    let mut bound = vec![false; nvars];
    let is_bound = |t: &Term, bound: &[bool]| match *t {
        Term::Const(_) => true,
        Term::Var(v) => bound[v],
    };
    let mut rest: Vec<usize> = (0..rule.body.len())
        .filter(|&i| !rule.body[i].negated && Some(i) != dpos)
        .collect();
    let mut steps = Vec::new();
    let mut lead = dpos;
    while lead.is_some() || !rest.is_empty() {
        let lit = lead.take().unwrap_or_else(|| {
            let at = (0..rest.len())
                .min_by_key(|&k| {
                    let terms = &rule.body[rest[k]].atom.terms;
                    let n = terms.iter().filter(|t| is_bound(t, &bound)).count();
                    (n < terms.len(), std::cmp::Reverse(n))
                })
                .expect("a positive literal remains");
            rest.remove(at)
        });
        let atom = &rule.body[lit].atom;
        let key_cols: Vec<usize> = (0..atom.terms.len())
            .filter(|&c| is_bound(&atom.terms[c], &bound))
            .collect();
        let access = if Some(lit) == dpos {
            Access::Delta
        } else if key_cols.is_empty() {
            Access::Scan
        } else if key_cols.len() == atom.terms.len() {
            Access::Lookup
        } else {
            Access::Index(indexes.slot(atom.relation.0, key_cols.clone()))
        };
        let mut binds = Vec::new();
        for t in &atom.terms {
            if let Term::Var(v) = *t {
                if !bound[v] {
                    bound[v] = true;
                    binds.push(v);
                }
            }
        }
        steps.push(Step {
            lit,
            access,
            key_cols,
            binds,
        });
    }
    Plan {
        rule: rule_idx,
        steps,
        negatives: (0..rule.body.len())
            .filter(|&i| rule.body[i].negated)
            .collect(),
        nvars,
    }
}

/// A hash index of one relation on fixed columns: key values → row
/// numbers, ascending.
struct JoinIndex {
    rel: usize,
    cols: Vec<usize>,
    /// Rows `0..indexed` are in `buckets`.
    indexed: usize,
    buckets: FastMap<Vec<u64>, Vec<usize>>,
}

/// The join indexes of one evaluation, one per (relation, bound
/// columns) signature that some plan probes.
///
/// Rows are append-only and row numbers never change, so an index
/// stays exact by hashing only the rows appended since it last caught
/// up. Each bucket then lists its rows in ascending order, exactly as a
/// rebuild from a full scan would.
#[derive(Default)]
struct Indexes(Vec<JoinIndex>);

impl Indexes {
    /// The slot of the index of `rel` on `cols`, registered on first
    /// use (empty until [`Indexes::catch_up`]).
    fn slot(&mut self, rel: usize, cols: Vec<usize>) -> usize {
        if let Some(i) = self.0.iter().position(|x| x.rel == rel && x.cols == cols) {
            return i;
        }
        self.0.push(JoinIndex {
            rel,
            cols,
            indexed: 0,
            buckets: FastMap::default(),
        });
        self.0.len() - 1
    }

    /// Indexes the rows appended to the slot's relation since its last
    /// catch-up.
    fn catch_up(&mut self, slot: usize, db: &Database) {
        let index = &mut self.0[slot];
        let rows = &db.relations[index.rel].tuples;
        for (row, (tuple, _)) in rows.iter().enumerate().skip(index.indexed) {
            let key = index.cols.iter().map(|&c| tuple[c]).collect();
            index.buckets.entry(key).or_default().push(row);
        }
        index.indexed = rows.len();
    }
}

/// Matches `terms` against `tuple`, binding unbound variables. On a
/// mismatch some variables may be left bound; the caller resets the
/// step's `binds` either way.
fn unify(terms: &[Term], tuple: &[u64], bindings: &mut [Option<u64>]) -> bool {
    terms.iter().zip(tuple).all(|(t, &v)| match *t {
        Term::Const(c) => c == v,
        Term::Var(x) => *bindings[x].get_or_insert(v) == v,
    })
}

/// One task's nested-loop join over the round-start snapshot.
struct Join<'a> {
    db: &'a Database,
    indexes: &'a Indexes,
    delta: &'a [Vec<usize>],
    rule: &'a Rule,
    plan: &'a Plan,
    bindings: Vec<Option<u64>>,
    /// Scratch buffer for lookup and index keys.
    key: Vec<u64>,
    /// The round's derivations (head relation, tuple, constraint), in
    /// task order.
    out: &'a mut Vec<(RelId, Tuple, Bdd)>,
}

impl Join<'_> {
    /// The values of `terms` under the current bindings, in the key
    /// buffer.
    fn key<'t>(&mut self, terms: impl Iterator<Item = &'t Term>) -> &[u64] {
        self.key.clear();
        self.key.extend(terms.map(|t| match *t {
            Term::Const(k) => k,
            Term::Var(v) => self.bindings[v].expect("planned: variable bound"),
        }));
        &self.key
    }

    /// Runs plan step `step` (and, per matching row, the rest of the
    /// plan) under the conjunction `acc` of the rows matched so far.
    fn descend(&mut self, step: usize, acc: Option<&Bdd>) {
        let (db, indexes, plan) = (self.db, self.indexes, self.plan);
        let Some(st) = plan.steps.get(step) else {
            self.emit(acc.expect("validated: a positive literal"));
            return;
        };
        let atom = &self.rule.body[st.lit].atom;
        let rel = atom.relation.0;
        let key_terms = st.key_cols.iter().map(|&c| &atom.terms[c]);
        match st.access {
            Access::Delta => {
                for &row in &self.delta[rel] {
                    self.visit(step, row, acc);
                }
            }
            Access::Scan => {
                for row in 0..db.relations[rel].tuples.len() {
                    self.visit(step, row, acc);
                }
            }
            Access::Lookup => {
                if let Some(&row) = db.relations[rel].index.get(self.key(key_terms)) {
                    self.visit(step, row, acc);
                }
            }
            Access::Index(slot) => {
                if let Some(rows) = indexes.0[slot].buckets.get(self.key(key_terms)) {
                    for &row in rows {
                        self.visit(step, row, acc);
                    }
                }
            }
        }
    }

    /// Matches row `row` at plan step `step` and, if it unifies with a
    /// satisfiable joined constraint, descends to the next step.
    fn visit(&mut self, step: usize, row: usize, acc: Option<&Bdd>) {
        let st = &self.plan.steps[step];
        let atom = &self.rule.body[st.lit].atom;
        let (tuple, c) = &self.db.relations[atom.relation.0].tuples[row];
        if unify(&atom.terms, tuple, &mut self.bindings) {
            let joined = match acc {
                None => c.clone(),
                Some(a) => a.and(c),
            };
            if !joined.is_false() {
                self.descend(step + 1, Some(&joined));
            }
        }
        for &v in &st.binds {
            self.bindings[v] = None;
        }
    }

    /// All positives matched: applies the negations, then derives the
    /// head.
    fn emit(&mut self, acc: &Bdd) {
        let (rule, db) = (self.rule, self.db);
        let mut c = acc.clone();
        for &n in &self.plan.negatives {
            let atom = &rule.body[n].atom;
            if let Some(nc) = db.constraint_of(atom.relation, self.key(atom.terms.iter())) {
                c = c.and(&nc.not());
                if c.is_false() {
                    return;
                }
            }
        }
        let head = self.key(rule.head.terms.iter()).to_vec();
        self.out.push((rule.head.relation, head, c));
    }
}

/// Runs `program` to its stratified fixpoint over `db` (which carries
/// the seeded EDB facts and any IDB seeds) on the calling thread.
/// Deterministic: the database's final tuple order depends on the
/// program and the seeds alone.
pub fn evaluate(
    program: &DatalogProgram,
    db: &mut Database,
    ctx: &BddConstraintContext,
) -> Result<EvalStats, DatalogError> {
    program.validate()?;
    let strata = program.stratify()?;
    let nrels = program.relation_count();
    let max_stratum = strata.iter().copied().max().unwrap_or(0);
    let mut stats = EvalStats {
        strata: max_stratum + 1,
        ..EvalStats::default()
    };
    let mut indexes = Indexes::default();
    for s in 0..=max_stratum {
        let rule_ids: Vec<usize> = (0..program.rules.len())
            .filter(|&r| strata[program.rules[r].head.relation.0] == s)
            .collect();
        if rule_ids.is_empty() {
            continue; // e.g. stratum 0 when every EDB relation is seeded
        }
        // Round 0 runs every rule naively; each later round runs one
        // task per positive in-stratum literal whose relation changed,
        // in (rule, body position) order.
        let naive: Vec<Plan> = rule_ids
            .iter()
            .map(|&r| plan_for(program, r, None, &mut indexes))
            .collect();
        let mut semi: Vec<(usize, Plan)> = Vec::new();
        for &r in &rule_ids {
            for (i, lit) in program.rules[r].body.iter().enumerate() {
                let rel = lit.atom.relation.0;
                if !lit.negated && strata[rel] == s {
                    semi.push((rel, plan_for(program, r, Some(i), &mut indexes)));
                }
            }
        }
        // The rows whose constraint changed last round, per relation,
        // in the order they first changed.
        let mut delta: Vec<Vec<usize>> = vec![Vec::new(); nrels];
        for round in 0usize.. {
            ctx.budget_status()
                .map_err(|detail| DatalogError::BudgetExceeded { detail })?;
            let tasks: Vec<&Plan> = if round == 0 {
                naive.iter().collect()
            } else {
                semi.iter()
                    .filter(|(rel, _)| !delta[*rel].is_empty())
                    .map(|(_, plan)| plan)
                    .collect()
            };
            if tasks.is_empty() {
                break;
            }
            for step in tasks.iter().flat_map(|plan| &plan.steps) {
                if let Access::Index(slot) = step.access {
                    indexes.catch_up(slot, db);
                }
            }
            // Every task joins over the round-start database; the
            // derivations are inserted once all tasks have run.
            let mut derived = Vec::new();
            for plan in tasks {
                Join {
                    db,
                    indexes: &indexes,
                    delta: &delta,
                    rule: &program.rules[plan.rule],
                    plan,
                    bindings: vec![None; plan.nvars],
                    key: Vec::new(),
                    out: &mut derived,
                }
                .descend(0, None);
            }
            stats.rounds += 1;
            let mut next: Vec<Vec<usize>> = vec![Vec::new(); nrels];
            let mut seen: FastSet<(usize, usize)> = FastSet::default();
            for (rel, tuple, c) in derived {
                stats.derivations += 1;
                if let Some(row) = db.relations[rel.0].insert(tuple, c) {
                    if seen.insert((rel.0, row)) {
                        next[rel.0].push(row);
                    }
                }
            }
            if next.iter().all(Vec::is_empty) {
                break;
            }
            delta = next;
        }
    }
    stats.tuples = db.total_tuples();
    Ok(stats)
}
