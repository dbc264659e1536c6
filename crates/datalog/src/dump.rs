//! Textual rule/tuple dump format.
//!
//! The format is line-oriented in the style of `spllift_ir::text`'s
//! `.repro` programs: a versioned header, one `features` line naming
//! every feature (in [`spllift_features::FeatureId`] order), then one
//! `relation name/arity` section per relation with its tuples:
//!
//! ```text
//! # spllift datalog dump v1
//! features F G
//! relation act/2
//! act(0:0, 0:1)
//! act(0:1, 0:2) @ F
//! relation defs/2
//! defs(0:1, 3)
//! ```
//!
//! A tuple's feature constraint follows `@` (omitted when it is the
//! tautology). Cells are self-describing: statement columns render as
//! `method:index`; every other column is a bare integer.

use std::fmt;

use crate::analyses::DatalogSolution;
use spllift_bdd::Bdd;
use spllift_features::{BddConstraintContext, FeatureExpr, FeatureTable};
use spllift_hash::FastMap;

/// First line of every dump.
pub const DUMP_HEADER: &str = "# spllift datalog dump v1";

/// How a relation column renders in the dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// A bare integer (method ids, local ids, fact tags).
    Raw,
    /// An encoded statement, rendered `method:index`.
    Stmt,
}

/// One rendered tuple cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpValue {
    /// A bare integer column.
    Raw(u64),
    /// A statement column.
    Stmt {
        /// Method id of the statement.
        method: u32,
        /// Index of the statement within the method.
        index: u32,
    },
}

impl fmt::Display for DumpValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpValue::Raw(x) => write!(f, "{x}"),
            DumpValue::Stmt { method, index } => write!(f, "{method}:{index}"),
        }
    }
}

/// One relation section of a dump: declared name/arity and its tuples
/// with their feature constraints, in database insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpRelation {
    /// Relation name.
    pub name: String,
    /// Number of columns.
    pub arity: usize,
    /// Tuples with their constraints (tautology = unconstrained).
    pub tuples: Vec<(Vec<DumpValue>, FeatureExpr)>,
}

/// A complete dump document: the feature universe plus every relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpDoc {
    /// Feature names, in [`spllift_features::FeatureId`] order.
    pub features: Vec<String>,
    /// Relation sections, in declaration order.
    pub relations: Vec<DumpRelation>,
}

impl DumpDoc {
    /// Extracts a dump from a completed solve. Relations appear in
    /// declaration order and tuples in database insertion order, which
    /// evaluation makes deterministic, so the rendered bytes are too.
    pub fn from_solution(
        sol: &DatalogSolution,
        ctx: &BddConstraintContext,
        table: &FeatureTable,
    ) -> DumpDoc {
        let program = sol.program();
        let kinds = sol.relations().column_kinds(program);
        // Most tuples share a handful of constraints, and each `to_expr`
        // re-expands its BDD: render every distinct constraint once. (A
        // `Bdd` hashes by its node id, which never changes; the store it
        // points into is what clippy sees as mutable.)
        #[allow(clippy::mutable_key_type)]
        let mut exprs: FastMap<&Bdd, FeatureExpr> = FastMap::default();
        let relations = (0..program.relation_count())
            .map(|r| {
                let rel = crate::engine::RelId(r);
                let tuples = sol
                    .database()
                    .tuples(rel)
                    .map(|(cols, c)| {
                        let values = cols
                            .iter()
                            .zip(&kinds[r])
                            .map(|(&x, kind)| match kind {
                                ColKind::Raw => DumpValue::Raw(x),
                                ColKind::Stmt => DumpValue::Stmt {
                                    method: (x >> 32) as u32,
                                    index: x as u32,
                                },
                            })
                            .collect();
                        let expr = exprs.entry(c).or_insert_with(|| ctx.to_expr(c));
                        (values, expr.clone())
                    })
                    .collect();
                DumpRelation {
                    name: program.relation_name(rel).to_string(),
                    arity: program.arity(rel),
                    tuples,
                }
            })
            .collect();
        DumpDoc {
            features: table.iter().map(|(_, name)| name.to_string()).collect(),
            relations,
        }
    }

    /// Serializes the document in the format of the module docs.
    pub fn render(&self) -> String {
        let mut table = FeatureTable::new();
        for name in &self.features {
            table.intern(name);
        }
        let mut out = String::new();
        out.push_str(DUMP_HEADER);
        out.push('\n');
        out.push_str("features");
        for name in &self.features {
            out.push(' ');
            out.push_str(name);
        }
        out.push('\n');
        for rel in &self.relations {
            out.push_str(&format!("relation {}/{}\n", rel.name, rel.arity));
            for (values, expr) in &rel.tuples {
                out.push_str(&rel.name);
                out.push('(');
                for (j, value) in values.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&value.to_string());
                }
                out.push(')');
                if *expr != FeatureExpr::True {
                    out.push_str(&format!(" @ {}", expr.display(&table)));
                }
                out.push('\n');
            }
        }
        out
    }
}
