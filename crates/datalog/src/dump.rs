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

use std::fmt::Write as _;

use crate::analyses::DatalogSolution;
use crate::engine::RelId;
use spllift_bdd::Bdd;
use spllift_features::{BddConstraintContext, FeatureExpr, FeatureTable};
use spllift_hash::FastMap;

/// First line of every dump.
pub const DUMP_HEADER: &str = "# spllift datalog dump v1";

/// How a relation column renders in the dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColKind {
    /// A bare integer (method ids, local ids, fact tags).
    Raw,
    /// An encoded statement, rendered `method:index`.
    Stmt,
}

/// Renders a completed solve in the format of the module docs, with
/// `table` naming the features `ctx` was built over. Relations appear
/// in declaration order and tuples in database insertion order, which
/// evaluation makes deterministic, so the rendered bytes are too.
pub fn render_dump(
    sol: &DatalogSolution,
    ctx: &BddConstraintContext,
    table: &FeatureTable,
) -> String {
    let program = sol.program();
    let kinds = sol.relations().column_kinds(program);
    // Most tuples share a handful of constraints, and each `to_expr`
    // re-expands its BDD: render every distinct constraint once. (A
    // `Bdd` hashes by its node id, which never changes; the store it
    // points into is what clippy sees as mutable.)
    #[allow(clippy::mutable_key_type)]
    let mut suffixes: FastMap<&Bdd, String> = FastMap::default();
    let mut out = format!("{DUMP_HEADER}\nfeatures");
    for (_, name) in table.iter() {
        out.push(' ');
        out.push_str(name);
    }
    out.push('\n');
    for (r, kinds) in kinds.iter().enumerate() {
        let rel = RelId(r);
        let name = program.relation_name(rel);
        let _ = writeln!(out, "relation {name}/{}", program.arity(rel));
        for (cols, c) in sol.database().tuples(rel) {
            out.push_str(name);
            out.push('(');
            for (j, (&x, kind)) in cols.iter().zip(kinds).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = match kind {
                    ColKind::Raw => write!(out, "{x}"),
                    ColKind::Stmt => write!(out, "{}:{}", x >> 32, x as u32),
                };
            }
            out.push(')');
            out.push_str(suffixes.entry(c).or_insert_with(|| match ctx.to_expr(c) {
                FeatureExpr::True => String::new(),
                expr => format!(" @ {}", expr.display(table)),
            }));
            out.push('\n');
        }
    }
    out
}
