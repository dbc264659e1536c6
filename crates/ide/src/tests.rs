use crate::binary::{Binary, IfdsAsIde};
use crate::{EdgeFn, IdeProblem, IdeSolver};
use spllift_ifds::{IfdsProblem, IfdsSolver, SimpleGraph, StmtKind};

// ---------------------------------------------------------------------
// A label-driven (linear) constant propagation, the classic IDE client.
// ---------------------------------------------------------------------

/// Constant-propagation lattice: ⊤ (unreached) / constant / ⊥ (varies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Val {
    Top,
    Const(i64),
    Bot,
}

/// Constant-propagation edge functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CpEdge {
    Kill,
    Id,
    Const(i64),
    Bot,
}

impl EdgeFn<Val> for CpEdge {
    fn apply(&self, v: &Val) -> Val {
        match self {
            CpEdge::Kill => Val::Top,
            CpEdge::Id => *v,
            CpEdge::Const(c) => Val::Const(*c),
            CpEdge::Bot => Val::Bot,
        }
    }

    fn compose_with(&self, after: &Self) -> Self {
        match (self, after) {
            (CpEdge::Kill, _) => CpEdge::Kill,
            (_, CpEdge::Kill) => CpEdge::Kill,
            (_, CpEdge::Const(c)) => CpEdge::Const(*c),
            (f, CpEdge::Id) => *f,
            (_, CpEdge::Bot) => CpEdge::Bot,
        }
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (CpEdge::Kill, f) | (f, CpEdge::Kill) => *f,
            (CpEdge::Const(a), CpEdge::Const(b)) if a == b => CpEdge::Const(*a),
            (a, b) if a == b => *a,
            _ => CpEdge::Bot,
        }
    }

    fn is_kill(&self) -> bool {
        *self == CpEdge::Kill
    }
}

/// Labels: `set X c`, `copy X Y`, `cut X`, `call pass X into Y` + callee
/// facts `arg`/`ret`, like the IFDS-side tests.
struct ConstProp;

type Fact = String;

fn zero() -> Fact {
    "0".into()
}

impl IdeProblem<SimpleGraph> for ConstProp {
    type Fact = Fact;
    type Value = Val;
    type EF = CpEdge;

    fn zero(&self) -> Fact {
        zero()
    }
    fn top(&self) -> Val {
        Val::Top
    }
    fn seed_value(&self) -> Val {
        Val::Bot // λ-binding environment starts "known reached"
    }
    fn join_values(&self, a: &Val, b: &Val) -> Val {
        match (a, b) {
            (Val::Top, v) | (v, Val::Top) => *v,
            (Val::Const(x), Val::Const(y)) if x == y => Val::Const(*x),
            _ => Val::Bot,
        }
    }
    fn id_edge(&self) -> CpEdge {
        CpEdge::Id
    }

    fn flow_normal(
        &self,
        g: &SimpleGraph,
        curr: u32,
        _succ: u32,
        d: &Fact,
        out: &mut Vec<(Fact, CpEdge)>,
    ) {
        let parts: Vec<&str> = g.label(curr).split_whitespace().collect();
        match parts.as_slice() {
            ["set", x, c] => {
                let c: i64 = c.parse().unwrap();
                if d == "0" {
                    out.extend([(zero(), CpEdge::Id), ((*x).to_owned(), CpEdge::Const(c))]);
                } else if d != x {
                    out.push((d.clone(), CpEdge::Id));
                }
            }
            ["copy", x, y] => {
                if d == x {
                    out.extend([((*x).to_owned(), CpEdge::Id), ((*y).to_owned(), CpEdge::Id)]);
                } else if d != y {
                    out.push((d.clone(), CpEdge::Id));
                }
            }
            ["cut", x] if d == x => out.push(((*x).to_owned(), CpEdge::Kill)),
            _ => out.push((d.clone(), CpEdge::Id)),
        }
    }

    fn flow_call(
        &self,
        g: &SimpleGraph,
        call: u32,
        _callee: u32,
        d: &Fact,
        out: &mut Vec<(Fact, CpEdge)>,
    ) {
        if d == "0" {
            out.push((zero(), CpEdge::Id));
            return;
        }
        let parts: Vec<&str> = g.label(call).split_whitespace().collect();
        if let Some(i) = parts.iter().position(|&p| p == "pass") {
            if parts.get(i + 1) == Some(&d.as_str()) {
                out.push(("arg".into(), CpEdge::Id));
            }
        }
    }

    fn flow_return(
        &self,
        g: &SimpleGraph,
        call: u32,
        _callee: u32,
        _exit: u32,
        _r: u32,
        d: &Fact,
        out: &mut Vec<(Fact, CpEdge)>,
    ) {
        if d == "ret" {
            if let Some(pos) = g.label(call).find(" into ") {
                out.push((g.label(call)[pos + 6..].trim().to_owned(), CpEdge::Id));
            }
        }
    }

    fn flow_call_to_return(
        &self,
        g: &SimpleGraph,
        call: u32,
        _r: u32,
        d: &Fact,
        out: &mut Vec<(Fact, CpEdge)>,
    ) {
        if let Some(pos) = g.label(call).find(" into ") {
            if d == g.label(call)[pos + 6..].trim() {
                return;
            }
        }
        out.push((d.clone(), CpEdge::Id));
    }
}

#[test]
fn straight_line_constant() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let a = g.add_stmt(m, "set x 5");
    let b = g.add_stmt(m, "copy x y");
    let c = g.add_stmt(m, "sink");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.set_entry(m);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.value_at(c, &"x".into()), Val::Const(5));
    assert_eq!(s.value_at(c, &"y".into()), Val::Const(5));
    assert_eq!(s.value_at(a, &"x".into()), Val::Top, "not yet assigned");
}

#[test]
fn merge_same_constant_stays_constant() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let top = g.add_stmt(m, "branch");
    let l = g.add_stmt(m, "set x 7");
    let r = g.add_stmt(m, "set x 7");
    let join = g.add_stmt(m, "sink");
    g.add_edge(top, l);
    g.add_edge(top, r);
    g.add_edge(l, join);
    g.add_edge(r, join);
    g.set_entry(m);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.value_at(join, &"x".into()), Val::Const(7));
}

#[test]
fn merge_different_constants_is_bottom() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let top = g.add_stmt(m, "branch");
    let l = g.add_stmt(m, "set x 1");
    let r = g.add_stmt(m, "set x 2");
    let join = g.add_stmt(m, "sink");
    g.add_edge(top, l);
    g.add_edge(top, r);
    g.add_edge(l, join);
    g.add_edge(r, join);
    g.set_entry(m);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.value_at(join, &"x".into()), Val::Bot);
}

#[test]
fn constant_through_call() {
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let id = g.add_method("id");
    let a = g.add_stmt(main, "set x 42");
    let call = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
    let sink = g.add_stmt(main, "sink");
    g.add_edge(a, call);
    g.add_edge(call, sink);
    let body = g.add_stmt(id, "copy arg ret");
    let exit = g.add_stmt_kind(id, "exit", StmtKind::Exit);
    g.add_edge(body, exit);
    g.add_call_edge(call, id);
    g.set_entry(main);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.value_at(sink, &"y".into()), Val::Const(42));
    assert_eq!(s.value_at(sink, &"x".into()), Val::Const(42));
    // Inside the callee the constant arrives via the value phase.
    assert_eq!(s.value_at(exit, &"ret".into()), Val::Const(42));
}

#[test]
fn two_call_sites_merge_in_callee_but_not_in_callers() {
    // id() sees 1 and 2 (⊥ inside), but each caller keeps its constant —
    // context sensitivity of the jump functions.
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let id = g.add_method("id");
    let a1 = g.add_stmt(main, "set x 1");
    let c1 = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
    let a2 = g.add_stmt(main, "set z 2");
    let c2 = g.add_stmt_kind(main, "call pass z into w", StmtKind::Call);
    let sink = g.add_stmt(main, "sink");
    g.add_edge(a1, c1);
    g.add_edge(c1, a2);
    g.add_edge(a2, c2);
    g.add_edge(c2, sink);
    let body = g.add_stmt(id, "copy arg ret");
    let exit = g.add_stmt_kind(id, "exit", StmtKind::Exit);
    g.add_edge(body, exit);
    g.add_call_edge(c1, id);
    g.add_call_edge(c2, id);
    g.set_entry(main);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.value_at(sink, &"y".into()), Val::Const(1));
    assert_eq!(s.value_at(sink, &"w".into()), Val::Const(2));
    // Callee merges both contexts in the value phase.
    assert_eq!(s.value_at(exit, &"arg".into()), Val::Bot);
}

#[test]
fn kill_edge_terminates_early() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let a = g.add_stmt(m, "set x 5");
    let b = g.add_stmt(m, "cut x");
    let c = g.add_stmt(m, "sink");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.set_entry(m);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.value_at(c, &"x".into()), Val::Top);
    assert!(s.stats().killed_early > 0, "kill edges must be pruned");
}

#[test]
fn reachability_via_zero_fact() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let dead_m = g.add_method("dead");
    let a = g.add_stmt(m, "nop");
    let d = g.add_stmt(dead_m, "nop");
    g.set_entry(m);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.reachability_of(a), Val::Bot, "seed value reaches entry");
    assert_eq!(s.reachability_of(d), Val::Top, "dead method unreached");
}

#[test]
fn results_at_excludes_top() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let a = g.add_stmt(m, "set x 3");
    let b = g.add_stmt(m, "sink");
    g.add_edge(a, b);
    g.set_entry(m);
    let s = IdeSolver::solve(&ConstProp, &g);
    let res = s.results_at(b);
    assert_eq!(res.get("x"), Some(&Val::Const(3)));
    assert!(res.contains_key("0"));
    assert!(!res.contains_key("nonexistent"));
}

#[test]
fn recursion_converges() {
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let rec = g.add_method("rec");
    let a = g.add_stmt(main, "set x 9");
    let call0 = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
    let sink = g.add_stmt(main, "sink");
    g.add_edge(a, call0);
    g.add_edge(call0, sink);
    let head = g.add_stmt(rec, "head");
    let rcall = g.add_stmt_kind(rec, "call pass arg into t", StmtKind::Call);
    let copy = g.add_stmt(rec, "copy arg ret");
    let exit = g.add_stmt_kind(rec, "exit", StmtKind::Exit);
    g.add_edge(head, rcall);
    g.add_edge(head, copy);
    g.add_edge(rcall, copy);
    g.add_edge(copy, exit);
    g.add_call_edge(call0, rec);
    g.add_call_edge(rcall, rec);
    g.set_entry(main);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.value_at(sink, &"y".into()), Val::Const(9));
}

// ---------------------------------------------------------------------
// Binary embedding: IDE subsumes IFDS.
// ---------------------------------------------------------------------

/// Tiny gen/kill IFDS problem driven by labels (like the IFDS crate's own
/// tests), used to compare solvers.
struct GenKill;

impl IfdsProblem<SimpleGraph> for GenKill {
    type Fact = String;

    fn zero(&self) -> String {
        "0".into()
    }

    fn flow_normal(
        &self,
        g: &SimpleGraph,
        curr: u32,
        _succ: u32,
        d: &String,
        out: &mut Vec<String>,
    ) {
        let parts: Vec<&str> = g.label(curr).split_whitespace().collect();
        match parts.as_slice() {
            ["gen", x] if d == "0" => out.extend(["0".into(), (*x).to_owned()]),
            ["kill", x] if d == x => {}
            ["copy", x, y] if d == x => out.extend([(*x).to_owned(), (*y).to_owned()]),
            ["copy", _, y] if d == y => {}
            _ => out.push(d.clone()),
        }
    }

    fn flow_call(&self, g: &SimpleGraph, call: u32, _q: u32, d: &String, out: &mut Vec<String>) {
        if d == "0" {
            out.push("0".into());
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
        _q: u32,
        _e: u32,
        _r: u32,
        d: &String,
        out: &mut Vec<String>,
    ) {
        if d == "0" {
            out.push("0".into());
        } else if d == "ret" {
            if let Some(pos) = g.label(call).find(" into ") {
                out.push(g.label(call)[pos + 6..].trim().to_owned());
            }
        }
    }
}

fn assert_embedding_agrees(g: &SimpleGraph) {
    let ifds = IfdsSolver::solve(&GenKill, g);
    let embedded = IfdsAsIde::new(&GenKill);
    let ide = IdeSolver::<SimpleGraph, String, Binary>::solve(&embedded, g);
    for s in spllift_ifds::Icfg::methods(g)
        .into_iter()
        .flat_map(|m| spllift_ifds::Icfg::stmts_of(g, m))
    {
        let ifds_facts = ifds.results_at(s);
        for fact in &ifds_facts {
            assert_eq!(
                ide.value_at(s, fact),
                Binary::Holds,
                "IFDS fact {fact:?} at {s} missing from IDE embedding"
            );
        }
        for (stmt, fact, v) in ide.all_results() {
            if stmt == s && *v == Binary::Holds {
                assert!(
                    ifds_facts.contains(fact),
                    "IDE embedding invented {fact:?} at {s}"
                );
            }
        }
    }
}

#[test]
fn embedding_agrees_on_straight_line() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let a = g.add_stmt(m, "gen x");
    let b = g.add_stmt(m, "copy x y");
    let c = g.add_stmt(m, "kill x");
    let d = g.add_stmt(m, "sink");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.add_edge(c, d);
    g.set_entry(m);
    assert_embedding_agrees(&g);
}

#[test]
fn embedding_agrees_interprocedurally() {
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let id = g.add_method("id");
    let a = g.add_stmt(main, "gen x");
    let call = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
    let sink = g.add_stmt(main, "sink");
    g.add_edge(a, call);
    g.add_edge(call, sink);
    let body = g.add_stmt(id, "copy arg ret");
    let exit = g.add_stmt_kind(id, "exit", StmtKind::Exit);
    g.add_edge(body, exit);
    g.add_call_edge(call, id);
    g.set_entry(main);
    assert_embedding_agrees(&g);
}

#[test]
fn embedding_agrees_with_recursion_and_branches() {
    let mut g = SimpleGraph::new();
    let main = g.add_method("main");
    let rec = g.add_method("rec");
    let a = g.add_stmt(main, "gen x");
    let br = g.add_stmt(main, "branch");
    let l = g.add_stmt(main, "kill x");
    let call0 = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
    let sink = g.add_stmt(main, "sink");
    g.add_edge(a, br);
    g.add_edge(br, l);
    g.add_edge(br, call0);
    g.add_edge(l, call0);
    g.add_edge(call0, sink);
    let head = g.add_stmt(rec, "head");
    let rcall = g.add_stmt_kind(rec, "call pass arg into t", StmtKind::Call);
    let copy = g.add_stmt(rec, "copy arg ret");
    let exit = g.add_stmt_kind(rec, "exit", StmtKind::Exit);
    g.add_edge(head, rcall);
    g.add_edge(head, copy);
    g.add_edge(rcall, copy);
    g.add_edge(copy, exit);
    g.add_call_edge(call0, rec);
    g.add_call_edge(rcall, rec);
    g.set_entry(main);
    assert_embedding_agrees(&g);
}

#[test]
fn stats_are_populated() {
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let a = g.add_stmt(m, "set x 5");
    let b = g.add_stmt(m, "sink");
    g.add_edge(a, b);
    g.set_entry(m);
    let s = IdeSolver::solve(&ConstProp, &g);
    let st = s.stats();
    assert!(st.propagations > 0);
    assert!(st.flow_evals > 0);
    assert!(st.jump_fn_constructions > 0);
    assert!(st.value_updates > 0);
}

#[test]
fn ordered_worklist_pops_each_triple_once_on_an_acyclic_method() {
    // Node ids are topological, and the branch that assigns `x` second
    // is one statement longer. A first-in first-out worklist pops the
    // join's `x` triple with the short branch's constant, then again
    // once the long branch strengthens it to ⊥, and the statement after
    // the join twice with it. Popping the smallest pending statement
    // first reaches the join only after both branches: every triple is
    // popped once, with its final jump function.
    let mut g = SimpleGraph::new();
    let m = g.add_method("m");
    let top = g.add_stmt(m, "branch");
    let short = g.add_stmt(m, "set x 1");
    let long1 = g.add_stmt(m, "set x 2");
    let long2 = g.add_stmt(m, "nop");
    let join = g.add_stmt(m, "nop");
    let after = g.add_stmt(m, "sink");
    g.add_edge(top, short);
    g.add_edge(top, long1);
    g.add_edge(long1, long2);
    g.add_edge(short, join);
    g.add_edge(long2, join);
    g.add_edge(join, after);
    g.set_entry(m);
    let s = IdeSolver::solve(&ConstProp, &g);
    assert_eq!(s.value_at(after, &"x".into()), Val::Bot);
    // One entry fact, and no jump function is a kill, so each `(n, d2)`
    // with a non-⊤ value is one `(d1, n, d2)` triple.
    let triples: usize = [top, short, long1, long2, join, after]
        .iter()
        .map(|&n| s.results_at(n).len())
        .sum();
    assert_eq!(triples, 9);
    assert_eq!(s.stats().propagations, triples as u64, "{:?}", s.stats());
}

mod edge_cases {
    use super::*;

    #[test]
    fn method_whose_start_point_is_its_exit() {
        // A callee consisting of a single return statement: the start
        // point IS the exit. Summaries must still resolve.
        let mut g = SimpleGraph::new();
        let main = g.add_method("main");
        let leaf = g.add_method("leaf");
        let a = g.add_stmt(main, "set x 5");
        let call = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
        let sink = g.add_stmt(main, "sink");
        g.add_edge(a, call);
        g.add_edge(call, sink);
        let exit = g.add_stmt_kind(leaf, "exit", StmtKind::Exit);
        let _ = exit;
        g.add_call_edge(call, leaf);
        g.set_entry(main);
        let s = IdeSolver::solve(&ConstProp, &g);
        // The callee returns nothing; x survives via call-to-return.
        assert_eq!(s.value_at(sink, &"x".into()), Val::Const(5));
        // y is killed across the call and never written back.
        assert_eq!(s.value_at(sink, &"y".into()), Val::Top);
    }

    #[test]
    fn multiple_entry_points() {
        let mut g = SimpleGraph::new();
        let m1 = g.add_method("driver1");
        let m2 = g.add_method("driver2");
        let a1 = g.add_stmt(m1, "set x 1");
        let b1 = g.add_stmt(m1, "sink");
        g.add_edge(a1, b1);
        let a2 = g.add_stmt(m2, "set x 2");
        let b2 = g.add_stmt(m2, "sink");
        g.add_edge(a2, b2);
        g.set_entry(m1);
        g.set_entry(m2);
        let s = IdeSolver::solve(&ConstProp, &g);
        assert_eq!(s.value_at(b1, &"x".into()), Val::Const(1));
        assert_eq!(s.value_at(b2, &"x".into()), Val::Const(2));
    }

    #[test]
    fn diamond_call_graph_merges_in_value_phase() {
        // Two callers pass different constants to the same callee; the
        // callee's entry merges to Bot, but each caller's result stays
        // precise (context-sensitive jump functions).
        let mut g = SimpleGraph::new();
        let main = g.add_method("main");
        let id = g.add_method("id");
        let a = g.add_stmt(main, "set x 1");
        let c1 = g.add_stmt_kind(main, "call pass x into y", StmtKind::Call);
        let b = g.add_stmt(main, "set x 2");
        let c2 = g.add_stmt_kind(main, "call pass x into z", StmtKind::Call);
        let sink = g.add_stmt(main, "sink");
        g.add_edge(a, c1);
        g.add_edge(c1, b);
        g.add_edge(b, c2);
        g.add_edge(c2, sink);
        let body = g.add_stmt(id, "copy arg ret");
        let exit = g.add_stmt_kind(id, "exit", StmtKind::Exit);
        g.add_edge(body, exit);
        g.add_call_edge(c1, id);
        g.add_call_edge(c2, id);
        g.set_entry(main);
        let s = IdeSolver::solve(&ConstProp, &g);
        assert_eq!(s.value_at(sink, &"y".into()), Val::Const(1));
        assert_eq!(s.value_at(sink, &"z".into()), Val::Const(2));
        assert_eq!(s.value_at(body, &"arg".into()), Val::Bot);
    }

    #[test]
    fn loop_converges_to_bottom() {
        // x alternates between constants in a loop: the merged value at
        // the loop head must stabilize at Bot without divergence.
        let mut g = SimpleGraph::new();
        let m = g.add_method("m");
        let init = g.add_stmt(m, "set x 0");
        let head = g.add_stmt(m, "head");
        let body = g.add_stmt(m, "set x 1");
        let exitn = g.add_stmt(m, "sink");
        g.add_edge(init, head);
        g.add_edge(head, body);
        g.add_edge(body, head);
        g.add_edge(head, exitn);
        g.set_entry(m);
        let s = IdeSolver::solve(&ConstProp, &g);
        assert_eq!(s.value_at(exitn, &"x".into()), Val::Bot);
    }

    #[test]
    fn callee_not_reentered_per_caller_fact() {
        // Summary reuse: the callee body is tabulated once per entry
        // fact, not once per caller — check stats stay modest with many
        // call sites.
        let mut g = SimpleGraph::new();
        let main = g.add_method("main");
        let id = g.add_method("id");
        let body = g.add_stmt(id, "copy arg ret");
        let exit = g.add_stmt_kind(id, "exit", StmtKind::Exit);
        g.add_edge(body, exit);
        let a = g.add_stmt(main, "set x 3");
        let mut prev = a;
        for i in 0..10 {
            let c = g.add_stmt_kind(main, &format!("call pass x into y{i}"), StmtKind::Call);
            g.add_edge(prev, c);
            g.add_call_edge(c, id);
            prev = c;
        }
        let sink = g.add_stmt(main, "sink");
        g.add_edge(prev, sink);
        g.set_entry(main);
        let s = IdeSolver::solve(&ConstProp, &g);
        for i in 0..10 {
            assert_eq!(s.value_at(sink, &format!("y{i}")), Val::Const(3));
        }
        // 10 call sites, one callee: propagations stay linear-ish.
        assert!(s.stats().propagations < 2_000, "{:?}", s.stats());
    }
}

mod binary_edge_laws {
    use super::*;
    use crate::binary::{Binary, BinaryEdge};

    #[test]
    fn composition_table() {
        use BinaryEdge::*;
        assert_eq!(Id.compose_with(&Id), Id);
        assert_eq!(Id.compose_with(&Kill), Kill);
        assert_eq!(Kill.compose_with(&Id), Kill);
        assert_eq!(Kill.compose_with(&Kill), Kill);
    }

    #[test]
    fn join_table() {
        use BinaryEdge::*;
        assert_eq!(Id.join(&Id), Id);
        assert_eq!(Id.join(&Kill), Id);
        assert_eq!(Kill.join(&Id), Id);
        assert_eq!(Kill.join(&Kill), Kill);
    }

    #[test]
    fn apply_and_kill_flag() {
        use BinaryEdge::*;
        assert_eq!(Id.apply(&Binary::Holds), Binary::Holds);
        assert_eq!(Id.apply(&Binary::Top), Binary::Top);
        assert_eq!(Kill.apply(&Binary::Holds), Binary::Top);
        assert!(Kill.is_kill());
        assert!(!Id.is_kill());
    }
}
