//! Exploded-supergraph construction and DOT export (paper Fig. 3).
//!
//! The exploded supergraph makes the IFDS encoding visible: one node per
//! (statement, fact) pair, one edge per flow-function entry. This module
//! rebuilds the graph *a posteriori* from a solved problem by re-running
//! the flow functions on the facts the solver discovered, which keeps the
//! solver itself free of bookkeeping.

use crate::{Icfg, IfdsProblem, IfdsSolver};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// An edge of the exploded supergraph, with a printable label per node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExplodedEdge {
    /// Source statement label.
    pub from_stmt: String,
    /// Source fact label (`"0"` for the zero fact).
    pub from_fact: String,
    /// Target statement label.
    pub to_stmt: String,
    /// Target fact label.
    pub to_fact: String,
    /// Edge kind: `normal`, `call`, `return`, or `call-to-return`.
    pub kind: &'static str,
}

/// Collects the exploded-supergraph edges induced by `problem` over the
/// statements and facts discovered by `solver`.
pub fn exploded_edges<G, P>(
    problem: &P,
    icfg: &G,
    solver: &IfdsSolver<G, P::Fact>,
) -> Vec<ExplodedEdge>
where
    G: Icfg,
    P: IfdsProblem<G>,
{
    let mut out = BTreeSet::new();
    let fact_label = |d: &P::Fact| format!("{d:?}").replace('"', "");
    let mut facts_by_stmt: BTreeMap<G::Stmt, Vec<P::Fact>> = BTreeMap::new();
    for s in solver.statements() {
        facts_by_stmt.insert(s, solver.results_at(s).into_iter().collect());
    }
    let mut buf = Vec::new();
    for (&s, facts) in &facts_by_stmt {
        for d in facts {
            if icfg.is_call(s) {
                for &callee in icfg.callees_of(s) {
                    let sp = icfg.start_point_of(callee);
                    buf.clear();
                    problem.flow_call(icfg, s, callee, d, &mut buf);
                    for d3 in buf.drain(..) {
                        out.insert(ExplodedEdge {
                            from_stmt: icfg.stmt_label(s),
                            from_fact: fact_label(d),
                            to_stmt: icfg.stmt_label(sp),
                            to_fact: fact_label(&d3),
                            kind: "call",
                        });
                    }
                }
                for &r in icfg.return_sites_of(s) {
                    buf.clear();
                    problem.flow_call_to_return(icfg, s, r, d, &mut buf);
                    for d3 in buf.drain(..) {
                        out.insert(ExplodedEdge {
                            from_stmt: icfg.stmt_label(s),
                            from_fact: fact_label(d),
                            to_stmt: icfg.stmt_label(r),
                            to_fact: fact_label(&d3),
                            kind: "call-to-return",
                        });
                    }
                }
            } else if icfg.is_exit(s) {
                // Return edges need the calling context; enumerate callers.
                for m in icfg.methods() {
                    for call in icfg.calls_in(m) {
                        if !icfg.callees_of(call).contains(&icfg.method_of(s)) {
                            continue;
                        }
                        for &r in icfg.return_sites_of(call) {
                            buf.clear();
                            problem.flow_return(icfg, call, icfg.method_of(s), s, r, d, &mut buf);
                            for d5 in buf.drain(..) {
                                out.insert(ExplodedEdge {
                                    from_stmt: icfg.stmt_label(s),
                                    from_fact: fact_label(d),
                                    to_stmt: icfg.stmt_label(r),
                                    to_fact: fact_label(&d5),
                                    kind: "return",
                                });
                            }
                        }
                    }
                }
            } else {
                for &succ in icfg.successors_of(s) {
                    buf.clear();
                    problem.flow_normal(icfg, s, succ, d, &mut buf);
                    for d3 in buf.drain(..) {
                        out.insert(ExplodedEdge {
                            from_stmt: icfg.stmt_label(s),
                            from_fact: fact_label(d),
                            to_stmt: icfg.stmt_label(succ),
                            to_fact: fact_label(&d3),
                            kind: "normal",
                        });
                    }
                }
            }
        }
    }
    out.into_iter().collect()
}

/// Renders exploded-supergraph edges as Graphviz DOT, one sub-cluster per
/// statement, matching the visual layout of the paper's Figure 3.
pub fn to_dot(edges: &[ExplodedEdge]) -> String {
    let mut stmts: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        stmts.insert(&e.from_stmt);
        stmts.insert(&e.to_stmt);
    }
    let mut node_ids: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut facts_per_stmt: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        facts_per_stmt
            .entry(&e.from_stmt)
            .or_default()
            .insert(&e.from_fact);
        facts_per_stmt
            .entry(&e.to_stmt)
            .or_default()
            .insert(&e.to_fact);
    }
    let mut out = String::from("digraph exploded {\n  rankdir=TB;\n  node [shape=circle];\n");
    for (i, (&stmt, facts)) in facts_per_stmt.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{i} {{");
        let _ = writeln!(out, "    label=\"{}\";", stmt.replace('"', "'"));
        for (j, &fact) in facts.iter().enumerate() {
            let id = format!("n{i}_{j}");
            let _ = writeln!(out, "    {id} [label=\"{}\"];", fact.replace('"', "'"));
            node_ids.insert((stmt.to_owned(), fact.to_owned()), id);
        }
        let _ = writeln!(out, "  }}");
    }
    for e in edges {
        let from = &node_ids[&(e.from_stmt.clone(), e.from_fact.clone())];
        let to = &node_ids[&(e.to_stmt.clone(), e.to_fact.clone())];
        let style = match e.kind {
            "call" | "return" => " [style=dashed]",
            "call-to-return" => " [style=dotted]",
            _ => "",
        };
        let _ = writeln!(out, "  {from} -> {to}{style};");
    }
    out.push_str("}\n");
    out
}
