//! Feature names and propositional feature expressions.

use std::collections::HashMap;
use std::fmt;

/// A dense identifier for an interned feature name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureId(pub u32);

impl FeatureId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interner mapping feature names to [`FeatureId`]s.
///
/// # Example
///
/// ```
/// use spllift_features::FeatureTable;
/// let mut t = FeatureTable::new();
/// let f = t.intern("FEATURE_LOGGING");
/// assert_eq!(t.intern("FEATURE_LOGGING"), f);
/// assert_eq!(t.name(f), "FEATURE_LOGGING");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeatureTable {
    names: Vec<String>,
    by_name: HashMap<String, FeatureId>,
}

impl FeatureTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (stable across repeated calls).
    pub fn intern(&mut self, name: &str) -> FeatureId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = FeatureId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a name without interning.
    pub fn get(&self, name: &str) -> Option<FeatureId> {
        self.by_name.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: FeatureId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no feature has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all interned features in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (FeatureId(i as u32), n.as_str()))
    }
}

/// A propositional formula over features, as written in `#ifdef` annotations
/// and in cross-tree feature-model constraints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FeatureExpr {
    /// The constant `true` (no annotation).
    True,
    /// The constant `false`.
    False,
    /// A single feature literal.
    Var(FeatureId),
    /// Negation.
    Not(Box<FeatureExpr>),
    /// Conjunction of two or more operands.
    And(Vec<FeatureExpr>),
    /// Disjunction of two or more operands.
    Or(Vec<FeatureExpr>),
}

/// Error produced by [`FeatureExpr::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    msg: String,
    /// Byte offset of the error in the input.
    pub offset: usize,
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid feature expression at byte {}: {}",
            self.offset, self.msg
        )
    }
}

impl std::error::Error for ParseExprError {}

impl FeatureExpr {
    /// Convenience constructor for a feature literal.
    pub fn var(id: FeatureId) -> Self {
        FeatureExpr::Var(id)
    }

    /// `¬self`, with double negations collapsed.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // chains like `and`/`or`, which have no operator either
    pub fn not(self) -> Self {
        match self {
            FeatureExpr::Not(inner) => *inner,
            FeatureExpr::True => FeatureExpr::False,
            FeatureExpr::False => FeatureExpr::True,
            other => FeatureExpr::Not(Box::new(other)),
        }
    }

    /// `self ∧ other`, flattening nested conjunctions and constants.
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        match (self, other) {
            (FeatureExpr::True, e) | (e, FeatureExpr::True) => e,
            (FeatureExpr::False, _) | (_, FeatureExpr::False) => FeatureExpr::False,
            (FeatureExpr::And(mut a), FeatureExpr::And(b)) => {
                a.extend(b);
                FeatureExpr::And(a)
            }
            (FeatureExpr::And(mut a), e) => {
                a.push(e);
                FeatureExpr::And(a)
            }
            (e, FeatureExpr::And(mut b)) => {
                b.insert(0, e);
                FeatureExpr::And(b)
            }
            (a, b) => FeatureExpr::And(vec![a, b]),
        }
    }

    /// `self ∨ other`, flattening nested disjunctions and constants.
    #[must_use]
    pub fn or(self, other: Self) -> Self {
        match (self, other) {
            (FeatureExpr::False, e) | (e, FeatureExpr::False) => e,
            (FeatureExpr::True, _) | (_, FeatureExpr::True) => FeatureExpr::True,
            (FeatureExpr::Or(mut a), FeatureExpr::Or(b)) => {
                a.extend(b);
                FeatureExpr::Or(a)
            }
            (FeatureExpr::Or(mut a), e) => {
                a.push(e);
                FeatureExpr::Or(a)
            }
            (e, FeatureExpr::Or(mut b)) => {
                b.insert(0, e);
                FeatureExpr::Or(b)
            }
            (a, b) => FeatureExpr::Or(vec![a, b]),
        }
    }

    /// `self → other`.
    #[must_use]
    pub fn implies(self, other: Self) -> Self {
        self.not().or(other)
    }

    /// `self ↔ other`.
    #[must_use]
    pub fn iff(self, other: Self) -> Self {
        self.clone().implies(other.clone()).and(other.implies(self))
    }

    /// Evaluates under a truth assignment for features.
    pub fn eval(&self, enabled: impl Fn(FeatureId) -> bool + Copy) -> bool {
        match self {
            FeatureExpr::True => true,
            FeatureExpr::False => false,
            FeatureExpr::Var(f) => enabled(*f),
            FeatureExpr::Not(e) => !e.eval(enabled),
            FeatureExpr::And(es) => es.iter().all(|e| e.eval(enabled)),
            FeatureExpr::Or(es) => es.iter().any(|e| e.eval(enabled)),
        }
    }

    /// Collects the features mentioned in this expression into `out`.
    pub fn collect_features(&self, out: &mut std::collections::BTreeSet<FeatureId>) {
        match self {
            FeatureExpr::True | FeatureExpr::False => {}
            FeatureExpr::Var(f) => {
                out.insert(*f);
            }
            FeatureExpr::Not(e) => e.collect_features(out),
            FeatureExpr::And(es) | FeatureExpr::Or(es) => {
                for e in es {
                    e.collect_features(out);
                }
            }
        }
    }

    /// Parses the `#ifdef` expression syntax: identifiers, `!`, `&&`, `||`,
    /// parentheses, and the constants `true`/`false`. `&` and `|` are
    /// accepted as synonyms. Precedence: `!` > `&&` > `||`.
    ///
    /// Feature names are interned into `table`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] on malformed input, with the byte offset
    /// of the first offending token.
    ///
    /// # Example
    ///
    /// ```
    /// use spllift_features::{FeatureExpr, FeatureTable};
    /// let mut t = FeatureTable::new();
    /// let e = FeatureExpr::parse("A && (B || !C)", &mut t)?;
    /// let a = t.get("A").unwrap();
    /// assert!(e.eval(|f| f == a)); // A on, B/C off: A && (false || !false)
    /// # Ok::<(), spllift_features::ParseExprError>(())
    /// ```
    pub fn parse(input: &str, table: &mut FeatureTable) -> Result<Self, ParseExprError> {
        let mut p = ExprParser {
            input,
            pos: 0,
            table,
        };
        let e = p.parse_or()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.err("trailing input"));
        }
        Ok(e)
    }

    /// Renders the expression using feature names from `table`.
    pub fn display<'a>(&'a self, table: &'a FeatureTable) -> impl fmt::Display + 'a {
        ExprDisplay { expr: self, table }
    }
}

struct ExprDisplay<'a> {
    expr: &'a FeatureExpr,
    table: &'a FeatureTable,
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(e: &FeatureExpr, t: &FeatureTable, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match e {
                FeatureExpr::True => write!(f, "true"),
                FeatureExpr::False => write!(f, "false"),
                FeatureExpr::Var(v) => write!(f, "{}", t.name(*v)),
                FeatureExpr::Not(inner) => {
                    write!(f, "!")?;
                    match **inner {
                        FeatureExpr::Var(_) | FeatureExpr::True | FeatureExpr::False => {
                            go(inner, t, f)
                        }
                        _ => {
                            write!(f, "(")?;
                            go(inner, t, f)?;
                            write!(f, ")")
                        }
                    }
                }
                FeatureExpr::And(es) => {
                    write!(f, "(")?;
                    for (i, e) in es.iter().enumerate() {
                        if i > 0 {
                            write!(f, " && ")?;
                        }
                        go(e, t, f)?;
                    }
                    write!(f, ")")
                }
                FeatureExpr::Or(es) => {
                    write!(f, "(")?;
                    for (i, e) in es.iter().enumerate() {
                        if i > 0 {
                            write!(f, " || ")?;
                        }
                        go(e, t, f)?;
                    }
                    write!(f, ")")
                }
            }
        }
        go(self.expr, self.table, f)
    }
}

struct ExprParser<'a> {
    input: &'a str,
    pos: usize,
    table: &'a mut FeatureTable,
}

impl ExprParser<'_> {
    fn err(&self, msg: &str) -> ParseExprError {
        ParseExprError {
            msg: msg.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.input[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<FeatureExpr, ParseExprError> {
        let mut e = self.parse_and()?;
        loop {
            if self.eat("||") || self.peek_single('|') {
                let rhs = self.parse_and()?;
                e = e.or(rhs);
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_and(&mut self) -> Result<FeatureExpr, ParseExprError> {
        let mut e = self.parse_unary()?;
        loop {
            if self.eat("&&") || self.peek_single('&') {
                let rhs = self.parse_unary()?;
                e = e.and(rhs);
            } else {
                return Ok(e);
            }
        }
    }

    /// Consumes a lone `c` that is not doubled (for `&`/`|` synonyms).
    fn peek_single(&mut self, c: char) -> bool {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        if rest.starts_with(c) && !rest.starts_with(&format!("{c}{c}")) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn parse_unary(&mut self) -> Result<FeatureExpr, ParseExprError> {
        if self.eat("!") {
            return Ok(self.parse_unary()?.not());
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<FeatureExpr, ParseExprError> {
        self.skip_ws();
        if self.eat("(") {
            let e = self.parse_or()?;
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok(e);
        }
        let rest = &self.input[self.pos..];
        let len = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("expected feature name, '!', or '('"));
        }
        let ident = &rest[..len];
        if ident.starts_with(|c: char| c.is_ascii_digit()) {
            return Err(self.err("feature names must not start with a digit"));
        }
        self.pos += len;
        Ok(match ident {
            "true" => FeatureExpr::True,
            "false" => FeatureExpr::False,
            _ => FeatureExpr::Var(self.table.intern(ident)),
        })
    }
}
