use crate::{IfdsProblem, IfdsSolver, SimpleGraph, StmtKind};

/// A miniature taint analysis over [`SimpleGraph`] driven by statement
/// labels, exercising all four flow-function classes:
///
/// * `gen X`    — generates fact `X` (from zero),
/// * `kill X`   — kills fact `X`,
/// * `copy X Y` — copies: `Y` tainted iff `X` tainted (strong update on Y),
/// * calls pass fact `arg` (callers rename `X->arg` per `pass X`),
/// * `ret X`    — at return site, callee's `ret` fact becomes `X`.
struct LabelTaint;

type Fact = String;

fn zero() -> Fact {
    "0".into()
}

impl IfdsProblem<SimpleGraph> for LabelTaint {
    type Fact = Fact;

    fn zero(&self) -> Fact {
        zero()
    }

    fn flow_normal(&self, g: &SimpleGraph, curr: u32, _succ: u32, d: &Fact, out: &mut Vec<Fact>) {
        let label = g.label(curr);
        let mut parts = label.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some("gen"), Some(x), _) => {
                out.push(d.clone());
                if d == "0" {
                    out.push(x.to_owned());
                }
            }
            (Some("kill"), Some(x), _) => {
                if d != x {
                    out.push(d.clone());
                }
            }
            (Some("copy"), Some(x), Some(y)) => {
                if d == x {
                    out.extend([x.to_owned(), y.to_owned()]);
                } else if d != y {
                    // `d == y` is a strong update: nothing flows.
                    out.push(d.clone());
                }
            }
            _ => out.push(d.clone()),
        }
    }

    fn flow_call(&self, g: &SimpleGraph, call: u32, _callee: u32, d: &Fact, out: &mut Vec<Fact>) {
        // "call pass X": actual X becomes formal "arg" in the callee.
        if d == "0" {
            out.push(zero());
            return;
        }
        let parts: Vec<&str> = g.label(call).split_whitespace().collect();
        if let Some(i) = parts.iter().position(|&p| p == "pass") {
            if parts.get(i + 1) == Some(&d.as_str()) {
                out.push("arg".into());
            }
        }
    }

    fn flow_return(
        &self,
        g: &SimpleGraph,
        call: u32,
        _callee: u32,
        _exit: u32,
        _ret_site: u32,
        d: &Fact,
        out: &mut Vec<Fact>,
    ) {
        // At "call ... into Y", the callee fact "ret" maps to Y.
        if d == "0" {
            out.push(zero());
            return;
        }
        let label = g.label(call);
        if let Some(pos) = label.find(" into ") {
            let y = &label[pos + 6..];
            if d == "ret" {
                out.push(y.trim().to_owned());
            }
        }
    }

    fn flow_call_to_return(
        &self,
        g: &SimpleGraph,
        call: u32,
        _ret_site: u32,
        d: &Fact,
        out: &mut Vec<Fact>,
    ) {
        // The call assigns its result into Y, so kill Y across the call.
        let label = g.label(call);
        if let Some(pos) = label.find(" into ") {
            let y = label[pos + 6..].trim();
            if d == y {
                return;
            }
        }
        out.push(d.clone());
    }
}

/// `main: gen x; call id(pass x) into y; sink` — `id` returns its argument.
fn call_graph() -> (SimpleGraph, u32, u32) {
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let id = g.add_method("id");
    let s_gen = g.add_stmt(main, "gen x");
    let s_call = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
    let s_sink = g.add_stmt(main, "sink");
    g.add_edge(s_gen, s_call);
    g.add_edge(s_call, s_sink);
    let id_body = g.add_stmt(id, "copy arg ret");
    let id_exit = g.add_stmt_kind(id, "exit", StmtKind::Exit);
    g.add_edge(id_body, id_exit);
    g.add_call_edge(s_call, id);
    g.set_entry(main);
    (g, s_sink, s_call)
}

#[test]
fn gen_and_propagate() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let a = g.add_stmt(m, "gen x");
    let b = g.add_stmt(m, "nop");
    let c = g.add_stmt(m, "nop2");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.set_entry(m);
    let s = IfdsSolver::solve(&LabelTaint, &g);
    assert!(s.facts_at(c).contains("x"));
    assert!(s.facts_at(a).is_empty(), "fact holds only after gen");
}

#[test]
fn kill_stops_fact() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let a = g.add_stmt(m, "gen x");
    let b = g.add_stmt(m, "kill x");
    let c = g.add_stmt(m, "nop");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.set_entry(m);
    let s = IfdsSolver::solve(&LabelTaint, &g);
    assert!(
        s.facts_at(b).contains("x"),
        "x holds before the kill executes"
    );
    assert!(!s.facts_at(c).contains("x"));
}

#[test]
fn branch_merge_unions_facts() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let top = g.add_stmt(m, "branch");
    let l = g.add_stmt(m, "gen x");
    let r = g.add_stmt(m, "gen y");
    let join = g.add_stmt(m, "join");
    g.add_edge(top, l);
    g.add_edge(top, r);
    g.add_edge(l, join);
    g.add_edge(r, join);
    g.set_entry(m);
    let s = IfdsSolver::solve(&LabelTaint, &g);
    let facts = s.facts_at(join);
    assert!(facts.contains("x") && facts.contains("y"));
}

#[test]
fn interprocedural_taint_through_identity() {
    let (g, sink, _) = call_graph();
    let s = IfdsSolver::solve(&LabelTaint, &g);
    let facts = s.facts_at(sink);
    assert!(facts.contains("x"), "x survives call-to-return");
    assert!(facts.contains("y"), "y tainted via id()");
}

#[test]
fn call_to_return_kills_assigned_var() {
    // y tainted before the call must be killed across it (call assigns y).
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let clean = g.add_method("clean");
    let s_gen = g.add_stmt(main, "gen y");
    let s_call = g.add_stmt_kind(main, "call pass q into y", StmtKind::Call);
    let s_sink = g.add_stmt(main, "sink");
    g.add_edge(s_gen, s_call);
    g.add_edge(s_call, s_sink);
    let c_exit = g.add_stmt_kind(clean, "exit", StmtKind::Exit);
    let _ = c_exit;
    g.add_call_edge(s_call, clean);
    g.set_entry(main);
    let s = IfdsSolver::solve(&LabelTaint, &g);
    assert!(s.facts_at(s_call).contains("y"));
    assert!(
        !s.facts_at(s_sink).contains("y"),
        "strong update across call"
    );
}

#[test]
fn context_sensitivity_no_fact_smearing() {
    // Two call sites of id(): one passes tainted x, the other untainted q.
    // Context sensitivity must not leak taint into the second result.
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let id = g.add_method("id");
    let s_gen = g.add_stmt(main, "gen x");
    let call1 = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
    let call2 = g.add_stmt_kind(main, "call pass q into z", StmtKind::Call);
    let s_sink = g.add_stmt(main, "sink");
    g.add_edge(s_gen, call1);
    g.add_edge(call1, call2);
    g.add_edge(call2, s_sink);
    let id_body = g.add_stmt(id, "copy arg ret");
    let id_exit = g.add_stmt_kind(id, "exit", StmtKind::Exit);
    g.add_edge(id_body, id_exit);
    g.add_call_edge(call1, id);
    g.add_call_edge(call2, id);
    g.set_entry(main);
    let s = IfdsSolver::solve(&LabelTaint, &g);
    let facts = s.facts_at(s_sink);
    assert!(facts.contains("y"), "first call taints y");
    assert!(!facts.contains("z"), "second call must NOT taint z");
}

#[test]
fn recursion_terminates_and_is_sound() {
    // rec(arg) { if .. call rec(pass arg) into t; copy arg ret }
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let rec = g.add_method("rec");
    let s_gen = g.add_stmt(main, "gen x");
    let call0 = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
    let s_sink = g.add_stmt(main, "sink");
    g.add_edge(s_gen, call0);
    g.add_edge(call0, s_sink);
    let r_head = g.add_stmt(rec, "head");
    let r_call = g.add_stmt_kind(rec, "call pass arg into t", StmtKind::Call);
    let r_copy = g.add_stmt(rec, "copy arg ret");
    let r_exit = g.add_stmt_kind(rec, "exit", StmtKind::Exit);
    g.add_edge(r_head, r_call);
    g.add_edge(r_head, r_copy); // base case skips the call
    g.add_edge(r_call, r_copy);
    g.add_edge(r_copy, r_exit);
    g.add_call_edge(call0, rec);
    g.add_call_edge(r_call, rec);
    g.set_entry(main);
    let s = IfdsSolver::solve(&LabelTaint, &g);
    assert!(s.facts_at(s_sink).contains("y"));
}

#[test]
fn unreachable_method_not_analyzed() {
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let dead = g.add_method("dead");
    let a = g.add_stmt(main, "gen x");
    let d = g.add_stmt(dead, "gen z");
    g.set_entry(main);
    let s = IfdsSolver::solve(&LabelTaint, &g);
    assert!(s.is_reachable(a));
    assert!(!s.is_reachable(d));
    assert!(s.facts_at(d).is_empty());
}

#[test]
fn summary_reuse_across_call_sites() {
    // Both call sites with the same entry fact must reuse the summary;
    // stats should show a bounded number of summaries.
    let (g, _, _) = call_graph();
    let s = IfdsSolver::solve(&LabelTaint, &g);
    let stats = s.stats();
    assert!(stats.path_edges > 0);
    assert!(stats.summaries >= 2, "0 and arg summaries");
    assert!(stats.propagations >= stats.path_edges);
}

#[test]
fn exploded_supergraph_export() {
    let (g, _, _) = call_graph();
    let s = IfdsSolver::solve(&LabelTaint, &g);
    let edges = crate::supergraph::exploded_edges(&LabelTaint, &g, &s);
    assert!(edges.iter().any(|e| e.kind == "call"));
    assert!(edges.iter().any(|e| e.kind == "return"));
    assert!(edges.iter().any(|e| e.kind == "call-to-return"));
    assert!(edges.iter().any(|e| e.kind == "normal"));
    let dot = crate::supergraph::to_dot(&edges);
    assert!(dot.contains("digraph exploded"));
    assert!(dot.contains("cluster_0"));
}

#[test]
fn default_flow_functions_are_identity_and_zero_preserving() {
    struct Noop;
    impl IfdsProblem<SimpleGraph> for Noop {
        type Fact = String;
        fn zero(&self) -> String {
            "0".into()
        }
    }
    let (g, sink, _) = call_graph();
    let s = IfdsSolver::solve(&Noop, &g);
    assert!(s.is_reachable(sink));
    assert!(s.facts_at(sink).is_empty());
}

mod witness {
    use super::*;

    #[test]
    fn witness_traces_taint_from_source_to_sink() {
        let (g, sink, _) = call_graph();
        let s = IfdsSolver::solve(&LabelTaint, &g);
        // Trace how "y" became tainted at the sink.
        let path = s.witness(sink, &"y".to_owned()).expect("y tainted");
        assert_eq!(path.last().unwrap(), &(sink, "y".to_owned()));
        // The chain must pass through the callee's "ret" fact (the value
        // came back out of id()).
        assert!(
            path.iter().any(|(_, d)| d == "ret" || d == "arg"),
            "trace passes through the callee: {path:?}"
        );
        // And originate at a seed-reachable gen site.
        assert!(path.len() >= 3);
    }

    #[test]
    fn witness_is_none_for_absent_facts() {
        let (g, sink, _) = call_graph();
        let s = IfdsSolver::solve(&LabelTaint, &g);
        assert!(s.witness(sink, &"nonexistent".to_owned()).is_none());
    }

    #[test]
    fn witness_of_seed_is_single_node() {
        let mut g = SimpleGraph::new();
        let m = g.add_method("m");
        let a = g.add_stmt(m, "gen x");
        g.set_entry(m);
        let s = IfdsSolver::solve(&LabelTaint, &g);
        let path = s.witness(a, &"0".to_owned()).unwrap();
        assert_eq!(path, vec![(a, "0".to_owned())]);
    }

    #[test]
    fn witness_terminates_on_loops() {
        // A fact circulating in a loop must still produce a finite trace.
        let mut g = SimpleGraph::new();
        let m = g.add_method("m");
        let a = g.add_stmt(m, "gen x");
        let b = g.add_stmt(m, "nop");
        let c = g.add_stmt(m, "nop2");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, b); // loop b <-> c
        g.set_entry(m);
        let s = IfdsSolver::solve(&LabelTaint, &g);
        let path = s.witness(c, &"x".to_owned()).unwrap();
        assert!(path.len() <= 10, "finite: {path:?}");
        assert_eq!(path.first().unwrap().1, "0");
    }
}
