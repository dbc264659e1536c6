//! Rendering lifted results: constraint tables and the constraint-labeled
//! exploded supergraph (the paper's Figure 5).

use crate::{AnnotatedIcfg, LiftedIcfg, LiftedProblem, LiftedSolution};
use spllift_features::{Constraint, ConstraintContext};
use spllift_ide::IdeProblem;
use spllift_ifds::{Icfg, IfdsProblem};
use std::fmt::Write as _;

/// Renders every satisfiable (statement, fact, constraint) triple of a
/// solution as an aligned text table, grouped by method.
pub fn constraints_table<G, D, C>(
    solution: &LiftedSolution<'_, G, D, C>,
    icfg: &G,
    show_constraint: impl Fn(&C) -> String,
) -> String
where
    G: AnnotatedIcfg,
    D: Clone + Eq + std::hash::Hash + std::fmt::Debug + Ord,
    C: Constraint,
{
    let mut out = String::new();
    for m in icfg.methods() {
        let _ = writeln!(out, "{}:", icfg.method_label(m));
        for s in icfg.stmts_of(m) {
            let mut results: Vec<(D, C)> = solution.results_at(s).into_iter().collect();
            if results.is_empty() {
                continue;
            }
            results.sort_by(|a, b| a.0.cmp(&b.0));
            let _ = writeln!(out, "  {}", icfg.stmt_label(s));
            for (fact, c) in results {
                let _ = writeln!(out, "    {fact:?}  ⇐  {}", show_constraint(&c));
            }
        }
    }
    out
}

/// Emits the constraint-labeled exploded supergraph of a lifted problem in
/// Graphviz DOT format — the analogue of the paper's Figure 5. Edges carry
/// their feature-constraint labels; unconditional (`true`) edges are drawn
/// solid, conditional ones dashed with the constraint printed.
pub fn lifted_supergraph_dot<G, P, Ctx>(
    lifted: &LiftedProblem<'_, G, P, Ctx>,
    icfg: &LiftedIcfg<'_, G>,
    facts_at: impl Fn(G::Stmt) -> Vec<P::Fact>,
    show_constraint: impl Fn(&Ctx::C) -> String,
) -> String
where
    G: AnnotatedIcfg,
    P: IfdsProblem<G>,
    Ctx: ConstraintContext,
{
    let mut nodes: Vec<String> = Vec::new();
    let mut edges: Vec<String> = Vec::new();
    let mut node_id = std::collections::HashMap::new();
    let mut intern = |stmt_label: String, fact_label: String, nodes: &mut Vec<String>| {
        let key = (stmt_label.clone(), fact_label.clone());
        let next = node_id.len();
        *node_id.entry(key).or_insert_with(|| {
            nodes.push(format!(
                "  n{next} [label=\"{}\\n{}\"];",
                fact_label.replace('"', "'"),
                stmt_label.replace('"', "'")
            ));
            next
        })
    };
    let emit = |from: usize, to: usize, c: &Ctx::C, edges: &mut Vec<String>| {
        let style = if c.is_true() {
            String::new()
        } else {
            format!(
                " [style=dashed,label=\"{}\"]",
                show_constraint(c).replace('"', "'")
            )
        };
        edges.push(format!("  n{from} -> n{to}{style};"));
    };
    let mut buf = Vec::new();
    for m in icfg.methods() {
        for s in icfg.stmts_of(m) {
            for d in facts_at(s) {
                let from = intern(icfg.stmt_label(s), format!("{d:?}"), &mut nodes);
                if icfg.is_call(s) {
                    for &q in icfg.callees_of(s) {
                        let sp = icfg.start_point_of(q);
                        buf.clear();
                        lifted.flow_call(icfg, s, q, &d, &mut buf);
                        for (d3, ef) in buf.drain(..) {
                            let to = intern(icfg.stmt_label(sp), format!("{d3:?}"), &mut nodes);
                            emit(from, to, &ef.0, &mut edges);
                        }
                    }
                    for &r in icfg.return_sites_of(s) {
                        buf.clear();
                        lifted.flow_call_to_return(icfg, s, r, &d, &mut buf);
                        for (d3, ef) in buf.drain(..) {
                            let to = intern(icfg.stmt_label(r), format!("{d3:?}"), &mut nodes);
                            emit(from, to, &ef.0, &mut edges);
                        }
                    }
                } else {
                    for &succ in icfg.successors_of(s) {
                        buf.clear();
                        lifted.flow_normal(icfg, s, succ, &d, &mut buf);
                        for (d3, ef) in buf.drain(..) {
                            let to = intern(icfg.stmt_label(succ), format!("{d3:?}"), &mut nodes);
                            emit(from, to, &ef.0, &mut edges);
                        }
                    }
                }
            }
        }
    }
    let mut out = String::from("digraph lifted {\n  rankdir=TB;\n  node [shape=box];\n");
    for n in nodes {
        out.push_str(&n);
        out.push('\n');
    }
    for e in edges {
        out.push_str(&e);
        out.push('\n');
    }
    out.push_str("}\n");
    out
}
