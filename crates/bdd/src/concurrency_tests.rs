//! Concurrency tests for the shared BDD store: hash-consing uniqueness
//! under racing interning, op-cache race benignity, exactly-once budget
//! latching, and consistency of `stats`/meter snapshots taken while
//! other threads mutate the store.
//!
//! These run on whatever hardware CI has (including one core — the
//! scheduler still preempts between the `yield_now` calls), so they
//! assert *invariants*, never timing.

use crate::{Bdd, BddBudget, BddError, BddManager, BudgetResource};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// Builds the same parity-ish formula over `vars`; every thread racing
/// this construction must intern the identical diagram.
fn build_formula(vars: &[Bdd]) -> Bdd {
    let mut acc = vars[0].clone();
    for (i, v) in vars.iter().enumerate().skip(1) {
        acc = if i % 3 == 0 {
            acc.xor(v)
        } else if i % 3 == 1 {
            acc.and(&v.not())
        } else {
            acc.or(v)
        };
    }
    acc
}

#[test]
fn racing_threads_intern_one_node() {
    let mgr = BddManager::new();
    let vars: Vec<Bdd> = (0..24).map(|i| mgr.var(format!("V{i}"))).collect();
    let results: Vec<Bdd> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mgr = mgr.clone();
                let vars = vars.clone();
                s.spawn(move || {
                    thread::yield_now();
                    let f = build_formula(&vars);
                    // Re-derive pieces to hammer the unique table from
                    // several orders at once.
                    let g = build_formula(&vars);
                    assert_eq!(f, g);
                    drop(mgr);
                    f
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Hash-consing: every thread got the *same* node, so handle equality
    // (id comparison) holds pairwise, and the node count equals what one
    // sequential construction produces.
    for w in results.windows(2) {
        assert_eq!(w[0], w[1], "racing threads interned distinct nodes");
    }
    let seq = BddManager::new();
    let seq_vars: Vec<Bdd> = (0..24).map(|i| seq.var(format!("V{i}"))).collect();
    let seq_f = build_formula(&seq_vars);
    assert_eq!(results[0].to_cube_string(), seq_f.to_cube_string());
    assert_eq!(results[0].node_count(), seq_f.node_count());
}

#[test]
fn op_cache_races_are_benign() {
    // Threads interleave cache probes and inserts for the same and
    // overlapping (f, g, h) triples; a lost insert only costs a
    // recomputation, never a wrong result. Verify every thread's result
    // against an eval truth table.
    let mgr = BddManager::new();
    let vars: Vec<Bdd> = (0..10).map(|i| mgr.var(format!("V{i}"))).collect();
    thread::scope(|s| {
        for t in 0..8usize {
            let vars = vars.clone();
            s.spawn(move || {
                for round in 0..20 {
                    let a = &vars[(t + round) % vars.len()];
                    let b = &vars[(t * 3 + round) % vars.len()];
                    let c = &vars[round % vars.len()];
                    let f = a.xor(b).ite(&b.not(), &c.or(a));
                    thread::yield_now();
                    for bits in 0u32..(1 << 3) {
                        let assign = |v: crate::VarId| {
                            let idx = vars.iter().position(|x| x == &vars[v.0 as usize]);
                            (bits >> (idx.unwrap() % 3)) & 1 == 1
                        };
                        let av = assign(a.support()[0]);
                        let bv = assign(b.support()[0]);
                        let cv = assign(c.support()[0]);
                        let expect = if av ^ bv { !bv } else { cv || av };
                        assert_eq!(f.eval(assign), expect);
                    }
                }
            });
        }
    });
}

#[test]
fn exhaustion_latches_exactly_once_across_threads() {
    let mgr = BddManager::new();
    for i in 0..8 {
        mgr.var(format!("V{i}"));
    }
    mgr.set_budget(BddBudget {
        max_nodes: None,
        max_ops: Some(50),
    });
    let go = AtomicBool::new(false);
    thread::scope(|s| {
        for _ in 0..8 {
            let mgr = mgr.clone();
            let go = &go;
            s.spawn(move || {
                while !go.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                // Each thread tries to blow the op budget simultaneously.
                mgr.charge_ops(40);
                mgr.charge_ops(40);
            });
        }
        go.store(true, Ordering::Release);
    });
    match mgr.budget_status() {
        Err(BddError::BudgetExceeded {
            resource: BudgetResource::Ops,
            limit: 50,
            used,
        }) => assert!(used > 50, "latched usage must exceed the limit: {used}"),
        other => panic!("expected an ops budget trip, got {other:?}"),
    }
    assert_eq!(
        mgr.exhaustion_latches(),
        1,
        "eight racing threads must latch exhaustion exactly once"
    );

    // Re-arming resets the latch; a second racing exhaustion latches
    // exactly once more.
    mgr.set_budget(BddBudget {
        max_nodes: None,
        max_ops: Some(10),
    });
    assert!(mgr.budget_status().is_ok());
    thread::scope(|s| {
        for _ in 0..4 {
            let mgr = mgr.clone();
            s.spawn(move || mgr.charge_ops(100));
        }
    });
    assert!(mgr.budget_status().is_err());
    assert_eq!(mgr.exhaustion_latches(), 2);
}

#[test]
fn node_budget_latches_once_under_racing_construction() {
    let mgr = BddManager::new();
    let vars: Vec<Bdd> = (0..20).map(|i| mgr.var(format!("V{i}"))).collect();
    mgr.set_budget(BddBudget {
        max_nodes: Some(12),
        max_ops: None,
    });
    thread::scope(|s| {
        for t in 0..6usize {
            let vars = vars.clone();
            s.spawn(move || {
                // Distinct formulas per thread so the unique table keeps
                // growing until the node budget trips.
                let mut acc = vars[t].clone();
                for v in &vars[t + 1..] {
                    acc = acc.xor(v);
                    thread::yield_now();
                }
            });
        }
    });
    match mgr.budget_status() {
        Err(BddError::BudgetExceeded {
            resource: BudgetResource::Nodes,
            limit: 12,
            ..
        }) => {}
        other => panic!("expected a node budget trip, got {other:?}"),
    }
    assert_eq!(mgr.exhaustion_latches(), 1);
}

#[test]
fn stats_snapshots_are_consistent_under_concurrent_growth() {
    // Regression (ISSUE 7 satellite): the governance read path takes
    // `stats()` / `nodes_since_arm()` / `ops_used()` snapshots while a
    // solve runs on other threads. Those reads must never tear: node
    // counts are monotone non-decreasing between snapshots, and the
    // since-arm meters never underflow even when a snapshot straddles
    // store growth.
    let mgr = BddManager::new();
    let vars: Vec<Bdd> = (0..16).map(|i| mgr.var(format!("V{i}"))).collect();
    mgr.set_budget(BddBudget::UNLIMITED);
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let writer = {
            let vars = vars.clone();
            let done = &done;
            s.spawn(move || {
                let mut acc = vars[0].clone();
                for round in 0..6 {
                    for v in &vars[1..] {
                        acc = if round % 2 == 0 {
                            acc.xor(v)
                        } else {
                            acc.iff(v)
                        };
                        thread::yield_now();
                    }
                }
                done.store(true, Ordering::Release);
                acc.node_count()
            })
        };
        let mgr2 = mgr.clone();
        let done = &done;
        let reader = s.spawn(move || {
            let mut last_nodes = 0usize;
            let mut snapshots = 0u32;
            // Snapshot before testing `done`, so at least one read
            // happens even when the writer finishes first.
            loop {
                let finished = done.load(Ordering::Acquire);
                // Read the meter before the snapshot: the writer keeps
                // interning in between, so only an earlier meter reading
                // is bounded by the snapshot's node count.
                let since_arm = mgr2.nodes_since_arm();
                let st = mgr2.stats();
                assert!(
                    st.nodes >= last_nodes,
                    "node count went backwards: {} -> {}",
                    last_nodes,
                    st.nodes
                );
                assert!(st.nodes >= 2, "terminals must always be counted");
                // Meters are saturating: no underflow panic, no wrapped
                // astronomically-large reading.
                assert!(since_arm <= st.nodes as u64);
                let _ = mgr2.ops_used();
                last_nodes = st.nodes;
                snapshots += 1;
                if finished {
                    break;
                }
                thread::yield_now();
            }
            snapshots
        });
        let final_nodes = writer.join().unwrap();
        let snapshots = reader.join().unwrap();
        assert!(final_nodes > 0);
        assert!(
            snapshots > 0,
            "reader must have observed at least one snapshot"
        );
    });
    assert!(mgr.budget_status().is_ok());
}

#[test]
fn handles_are_send_and_usable_after_thread_hop() {
    // A Bdd built on one thread is usable (eval, rendering, further ops)
    // on another — the publication edge is the thread join.
    let mgr = BddManager::new();
    let a = mgr.var("A");
    let b = mgr.var("B");
    let f = thread::scope(|s| {
        let (a, b) = (a.clone(), b.clone());
        s.spawn(move || a.and(&b.not())).join().unwrap()
    });
    assert_eq!(f.to_cube_string(), "(A & !B)");
    assert_eq!(f, a.and(&b.not()));
}
