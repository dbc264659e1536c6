use crate::{Bdd, BddManager, VarId};

fn three_vars() -> (BddManager, Bdd, Bdd, Bdd) {
    let mgr = BddManager::new();
    let a = mgr.var("A");
    let b = mgr.var("B");
    let c = mgr.var("C");
    (mgr, a, b, c)
}

#[test]
fn constants() {
    let mgr = BddManager::new();
    assert!(mgr.top().is_true());
    assert!(mgr.bottom().is_false());
    assert_ne!(mgr.top(), mgr.bottom());
    assert_eq!(mgr.top().not(), mgr.bottom());
}

#[test]
fn variable_identities() {
    let (mgr, a, _, _) = three_vars();
    assert_eq!(a.and(&a), a);
    assert_eq!(a.or(&a), a);
    assert_eq!(a.and(&a.not()), mgr.bottom());
    assert_eq!(a.or(&a.not()), mgr.top());
    assert_eq!(a.not().not(), a);
    assert_eq!(a.xor(&a), mgr.bottom());
}

#[test]
fn commutativity_and_associativity() {
    let (_, a, b, c) = three_vars();
    assert_eq!(a.and(&b), b.and(&a));
    assert_eq!(a.or(&b), b.or(&a));
    assert_eq!(a.and(&b).and(&c), a.and(&b.and(&c)));
    assert_eq!(a.or(&b).or(&c), a.or(&b.or(&c)));
}

#[test]
fn de_morgan() {
    let (_, a, b, _) = three_vars();
    assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
    assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
}

#[test]
fn distributivity() {
    let (_, a, b, c) = three_vars();
    assert_eq!(a.and(&b.or(&c)), a.and(&b).or(&a.and(&c)));
    assert_eq!(a.or(&b.and(&c)), a.or(&b).and(&a.or(&c)));
}

#[test]
fn implication_and_iff() {
    let (mgr, a, b, _) = three_vars();
    assert_eq!(a.implies(&b), a.not().or(&b));
    assert_eq!(a.iff(&b), a.xor(&b).not());
    assert_eq!(a.implies(&a), mgr.top());
}

#[test]
fn ite_matches_definition() {
    let (_, a, b, c) = three_vars();
    let ite = a.ite(&b, &c);
    let manual = a.and(&b).or(&a.not().and(&c));
    assert_eq!(ite, manual);
}

#[test]
fn restrict_cofactors() {
    let mgr = BddManager::new();
    let av = mgr.new_var("A");
    let bv = mgr.new_var("B");
    let a = mgr.var_bdd(av);
    let b = mgr.var_bdd(bv);
    let f = a.and(&b);
    assert_eq!(f.restrict(av, true), b);
    assert!(f.restrict(av, false).is_false());
    assert_eq!(f.restrict(bv, true), a);
}

#[test]
fn sat_count_basic() {
    let (mgr, a, b, c) = three_vars();
    assert_eq!(mgr.top().sat_count(), 8);
    assert_eq!(mgr.bottom().sat_count(), 0);
    assert_eq!(a.sat_count(), 4);
    assert_eq!(a.and(&b).sat_count(), 2);
    assert_eq!(a.and(&b).and(&c).sat_count(), 1);
    assert_eq!(a.or(&b).sat_count(), 6);
}

#[test]
fn sat_count_skipped_levels() {
    let mgr = BddManager::new();
    let _a = mgr.var("A");
    let b = mgr.var("B");
    let _c = mgr.var("C");
    let d = mgr.var("D");
    // B ∧ D over 4 vars: 4 assignments.
    assert_eq!(b.and(&d).sat_count(), 4);
}

#[test]
fn one_sat_satisfies() {
    let (_, a, b, c) = three_vars();
    let f = a.not().and(&b).and(&c.not());
    let sat = f.one_sat().expect("satisfiable");
    let assignment: std::collections::HashMap<VarId, bool> = sat.into_iter().collect();
    assert!(f.eval(|v| *assignment.get(&v).unwrap_or(&false)));
    assert!(a.and(&a.not()).one_sat().is_none());
}

#[test]
fn eval_agrees_with_truth_table() {
    let (_, a, b, c) = three_vars();
    let f = a.xor(&b).or(&c.and(&a));
    for bits in 0u8..8 {
        let asg = move |v: VarId| bits & (1 << v.0) != 0;
        let (va, vb, vc) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
        let expected = (va ^ vb) || (vc && va);
        assert_eq!(f.eval(asg), expected, "bits {bits:03b}");
    }
}

#[test]
fn support_reports_dependencies() {
    let mgr = BddManager::new();
    let av = mgr.new_var("A");
    let bv = mgr.new_var("B");
    let cv = mgr.new_var("C");
    let a = mgr.var_bdd(av);
    let c = mgr.var_bdd(cv);
    let f = a.and(&c);
    assert_eq!(f.support(), vec![av, cv]);
    assert!(!f.support().contains(&bv));
    assert!(mgr.top().support().is_empty());
}

#[test]
fn hash_consing_dedupes() {
    let (_, a, b, _) = three_vars();
    let f1 = a.and(&b).or(&a.not().and(&b));
    // f1 ≡ b; reduction must collapse to the literal node.
    assert_eq!(f1, b);
    assert_eq!(f1.node_count(), 1);
}

#[test]
fn cube_string_rendering() {
    let mgr = BddManager::new();
    let f = mgr.var("F");
    let g = mgr.var("G");
    let h = mgr.var("H");
    let c = f.not().and(&g).and(&h.not());
    assert_eq!(c.to_cube_string(), "(!F & G & !H)");
    assert_eq!(mgr.top().to_cube_string(), "true");
    assert_eq!(mgr.bottom().to_cube_string(), "false");
}

#[test]
fn dot_output_mentions_vars() {
    let (_, a, b, _) = three_vars();
    let dot = a.and(&b).to_dot();
    assert!(dot.contains("digraph"));
    assert!(dot.contains("\"A\""));
    assert!(dot.contains("\"B\""));
}

#[test]
fn node_count_of_parity_is_linear() {
    let mgr = BddManager::new();
    let vars: Vec<_> = (0..10).map(|i| mgr.var(format!("x{i}"))).collect();
    let parity = vars.iter().fold(mgr.bottom(), |acc, v| acc.xor(v));
    // Parity has exactly 2n-1 nodes in a reduced OBDD... with shared
    // complement structure it is 2n-1 for this representation.
    assert_eq!(parity.node_count(), 2 * 10 - 1);
    assert_eq!(parity.sat_count(), 512);
}

mod properties {
    use super::*;
    use spllift_rng::SplitMix64;

    /// A tiny recursive formula AST evaluated both directly and via BDDs.
    #[derive(Debug, Clone)]
    pub(super) enum Formula {
        Var(u8),
        Not(Box<Formula>),
        And(Box<Formula>, Box<Formula>),
        Or(Box<Formula>, Box<Formula>),
        Xor(Box<Formula>, Box<Formula>),
    }

    /// Seeded random formulas over `nvars` variables, depth-bounded
    /// like the old proptest strategy (`prop_recursive(5, ..)`).
    pub(super) fn random_formula(rng: &mut SplitMix64, depth: usize, nvars: u8) -> Formula {
        if depth == 0 || rng.gen_bool(0.25) {
            return Formula::Var(rng.gen_range(0..nvars));
        }
        let op = rng.gen_range(0..4u32);
        let mut sub = || Box::new(random_formula(rng, depth - 1, nvars));
        match op {
            0 => Formula::Not(sub()),
            1 => Formula::And(sub(), sub()),
            2 => Formula::Or(sub(), sub()),
            _ => Formula::Xor(sub(), sub()),
        }
    }

    pub(super) fn to_bdd(f: &Formula, vars: &[Bdd]) -> Bdd {
        match f {
            Formula::Var(i) => vars[*i as usize].clone(),
            Formula::Not(a) => to_bdd(a, vars).not(),
            Formula::And(a, b) => to_bdd(a, vars).and(&to_bdd(b, vars)),
            Formula::Or(a, b) => to_bdd(a, vars).or(&to_bdd(b, vars)),
            Formula::Xor(a, b) => to_bdd(a, vars).xor(&to_bdd(b, vars)),
        }
    }

    pub(super) fn eval(f: &Formula, bits: u32) -> bool {
        match f {
            Formula::Var(i) => bits & (1 << i) != 0,
            Formula::Not(a) => !eval(a, bits),
            Formula::And(a, b) => eval(a, bits) && eval(b, bits),
            Formula::Or(a, b) => eval(a, bits) || eval(b, bits),
            Formula::Xor(a, b) => eval(a, bits) ^ eval(b, bits),
        }
    }

    /// BDD construction is semantics-preserving w.r.t. a truth table.
    #[test]
    fn bdd_matches_truth_table() {
        let mut rng = SplitMix64::seed_from_u64(0xBDD_0001);
        for _ in 0..256 {
            let f = random_formula(&mut rng, 5, 5);
            let mgr = BddManager::new();
            let vars: Vec<_> = (0..5).map(|i| mgr.var(format!("x{i}"))).collect();
            let bdd = to_bdd(&f, &vars);
            let mut count = 0u128;
            for bits in 0u32..32 {
                let expected = eval(&f, bits);
                assert_eq!(
                    bdd.eval(|v| bits & (1 << v.0) != 0),
                    expected,
                    "formula {f:?} at assignment {bits:#07b}"
                );
                if expected {
                    count += 1;
                }
            }
            assert_eq!(bdd.sat_count(), count, "formula {f:?}");
        }
    }

    /// Canonicity: semantically equal formulas get the same node.
    #[test]
    fn canonical_forms() {
        let mut rng = SplitMix64::seed_from_u64(0xBDD_0002);
        for _ in 0..256 {
            let f = random_formula(&mut rng, 5, 5);
            let mgr = BddManager::new();
            let vars: Vec<_> = (0..5).map(|i| mgr.var(format!("x{i}"))).collect();
            let bdd = to_bdd(&f, &vars);
            // Double negation and or-with-self must be handle-identical.
            assert_eq!(bdd.not().not(), bdd.clone());
            assert_eq!(bdd.or(&bdd), bdd.clone());
            assert_eq!(bdd.and(&mgr.top()), bdd.clone());
            assert_eq!(bdd.or(&mgr.bottom()), bdd.clone());
            // Shannon expansion on variable 0 reconstructs the function.
            let v0 = crate::VarId(0);
            let x0 = vars[0].clone();
            let expanded = x0
                .and(&bdd.restrict(v0, true))
                .or(&x0.not().and(&bdd.restrict(v0, false)));
            assert_eq!(expanded, bdd, "Shannon expansion of {f:?}");
        }
    }

    /// `one_sat` returns a genuine model whenever one exists.
    #[test]
    fn one_sat_is_model() {
        let mut rng = SplitMix64::seed_from_u64(0xBDD_0003);
        for _ in 0..256 {
            let f = random_formula(&mut rng, 5, 5);
            let mgr = BddManager::new();
            let vars: Vec<_> = (0..5).map(|i| mgr.var(format!("x{i}"))).collect();
            let bdd = to_bdd(&f, &vars);
            match bdd.one_sat() {
                None => assert!(bdd.is_false(), "no model for satisfiable {f:?}"),
                Some(model) => {
                    let m: std::collections::HashMap<VarId, bool> = model.into_iter().collect();
                    assert!(
                        bdd.eval(|v| *m.get(&v).unwrap_or(&false)),
                        "one_sat returned a non-model for {f:?}"
                    );
                }
            }
        }
    }
}

mod quantification {
    use super::*;

    #[test]
    fn exists_projects_away_variable() {
        let mgr = BddManager::new();
        let av = mgr.new_var("A");
        let bv = mgr.new_var("B");
        let a = mgr.var_bdd(av);
        let b = mgr.var_bdd(bv);
        // ∃A. (A ∧ B) = B ; ∃A. (A ∨ B) = true.
        assert_eq!(a.and(&b).exists(av), b);
        assert!(a.or(&b).exists(av).is_true());
        // Quantifying a variable not in the support is the identity.
        assert_eq!(b.exists(av), b);
        let _ = bv;
    }

    #[test]
    fn forall_is_dual_of_exists() {
        let mgr = BddManager::new();
        let av = mgr.new_var("A");
        let bv = mgr.new_var("B");
        let a = mgr.var_bdd(av);
        let b = mgr.var_bdd(bv);
        // ∀A. (A ∨ B) = B ; ∀A. (A ∧ B) = false.
        assert_eq!(a.or(&b).forall(av), b);
        assert!(a.and(&b).forall(av).is_false());
        // ¬∃A.¬f == ∀A.f
        let f = a.xor(&b);
        assert_eq!(f.not().exists(av).not(), f.forall(av));
        let _ = bv;
    }

    #[test]
    fn exists_many_projects_model_onto_subset() {
        // Model over {R, F, U}: R ∧ (F → R) ∧ (U → R). Projecting U away
        // and restricting R=true leaves "true" over F (any F valid).
        let mgr = BddManager::new();
        let rv = mgr.new_var("R");
        let fv = mgr.new_var("F");
        let uv = mgr.new_var("U");
        let r = mgr.var_bdd(rv);
        let f = mgr.var_bdd(fv);
        let u = mgr.var_bdd(uv);
        let model = r.and(&f.implies(&r)).and(&u.implies(&r));
        let projected = model.exists_many(&[uv]).restrict(rv, true);
        assert!(projected.is_true());
        assert!(projected.support().is_empty());
        let _ = fv;
    }

    #[test]
    fn entailment() {
        let mgr = BddManager::new();
        let a = mgr.var("A");
        let b = mgr.var("B");
        assert!(a.and(&b).entails(&a));
        assert!(!a.entails(&a.and(&b)));
        assert!(mgr.bottom().entails(&a));
        assert!(a.entails(&mgr.top()));
    }
}

/// Regression tests for the hot-path perf overhaul: commutative op-cache
/// normalization, the `restrict` memo, iterative deep-diagram traversal,
/// and the always-on `sat_count_over` precondition.
mod perf_overhaul {
    use super::*;

    #[test]
    fn commutative_ops_share_one_cache_slot() {
        // `a ∧ b` then `b ∧ a` must not add new `ite` cache entries:
        // operands are sorted by node id before the cache probe.
        let (mgr, a, b, _) = three_vars();
        let _ = a.and(&b);
        let after_first = mgr.stats().cache_entries;
        let _ = b.and(&a);
        assert_eq!(mgr.stats().cache_entries, after_first, "and not shared");

        let _ = a.or(&b);
        let after_or = mgr.stats().cache_entries;
        let _ = b.or(&a);
        assert_eq!(mgr.stats().cache_entries, after_or, "or not shared");

        let _ = a.xor(&b);
        let after_xor = mgr.stats().cache_entries;
        let _ = b.xor(&a);
        assert_eq!(mgr.stats().cache_entries, after_xor, "xor not shared");

        let _ = a.iff(&b);
        let after_iff = mgr.stats().cache_entries;
        let _ = b.iff(&a);
        assert_eq!(mgr.stats().cache_entries, after_iff, "iff not shared");
    }

    #[test]
    #[should_panic(expected = "sat_count_over")]
    fn sat_count_over_rejects_out_of_range_support() {
        // Pre-fix this was a `debug_assert!`, so `--release` binaries
        // silently returned a wrong model count; the check is now an
        // always-on `assert!`, so this test passes under `cargo test`
        // in *both* profiles.
        let mgr = BddManager::new();
        let _a = mgr.var("A");
        let b = mgr.var("B"); // VarId(1): outside `nvars = 1`.
        let _ = b.sat_count_over(1);
    }

    #[test]
    #[should_panic(expected = "at most 127 variables")]
    fn sat_count_over_rejects_more_than_127_variables() {
        // 2^128 models do not fit a `u128`: release builds masked the
        // final shift and returned 4 here, debug builds panicked on the
        // shift overflow instead of this check.
        let _ = BddManager::new().top().sat_count_over(130);
    }

    #[test]
    fn sat_count_over_in_range_still_counts() {
        let mgr = BddManager::new();
        let a = mgr.var("A");
        let _b = mgr.var("B");
        // Over just {A}: one model. (Over both vars it would be 2.)
        assert_eq!(a.sat_count_over(1), 1);
    }

    /// x₀ ∧ x₁ ∧ … ∧ xₙ₋₁ built bottom-up (highest variable first), so
    /// each `and` only recurses O(1) deep while the *resulting* diagram
    /// is a chain of depth n.
    fn deep_chain(mgr: &BddManager, n: u32) -> (Bdd, Vec<VarId>) {
        let vars: Vec<VarId> = (0..n).map(|i| mgr.new_var(format!("v{i}"))).collect();
        let mut chain = mgr.top();
        for &v in vars.iter().rev() {
            chain = mgr.var_bdd(v).and(&chain);
        }
        (chain, vars)
    }

    #[test]
    fn deep_chain_not_does_not_overflow_stack() {
        // ~100k-variable chain: the recursive `Store::not` blew the
        // call stack here (8 MiB default / ~100 bytes per frame).
        let mgr = BddManager::new();
        let (chain, _) = deep_chain(&mgr, 100_000);
        let neg = chain.not();
        assert!(!neg.is_false());
        assert_eq!(neg.not(), chain, "negation must be an involution");
    }

    #[test]
    fn deep_chain_restrict_does_not_overflow_stack() {
        let mgr = BddManager::new();
        let n = 100_000;
        let (chain, vars) = deep_chain(&mgr, n);
        // Fixing the *bottom* variable true walks the whole chain.
        let r = chain.restrict(vars[(n - 1) as usize], true);
        // The result is the same conjunction without its last literal.
        assert_eq!(r.support().len() as u32, n - 1);
        // Fixing it false kills the conjunction entirely.
        assert!(chain.restrict(vars[(n - 1) as usize], false).is_false());
    }

    #[test]
    fn restrict_memo_handles_exponential_path_counts() {
        // Parity of n variables: O(n) nodes but 2ⁿ⁻¹ root-to-sink
        // paths. The unmemoized `restrict` re-walked one subtree per
        // *path*, so n = 48 took ~2⁴⁷ steps (would hang for hours);
        // with the memo it is O(n).
        let mgr = BddManager::new();
        let n = 48u32;
        let vars: Vec<VarId> = (0..n).map(|i| mgr.new_var(format!("p{i}"))).collect();
        let mut parity = mgr.bottom();
        for &v in &vars {
            parity = parity.xor(&mgr.var_bdd(v));
        }
        let r = parity.restrict(vars[(n - 1) as usize], true);
        // Fixing the last variable to true flips the parity of the rest.
        let rest_parity = vars[..(n - 1) as usize]
            .iter()
            .fold(mgr.bottom(), |acc, &v| acc.xor(&mgr.var_bdd(v)));
        assert_eq!(r, rest_parity.not());
    }

    #[test]
    fn restrict_is_memoized_across_calls() {
        // Second identical restrict must do no fresh node construction:
        // node count in the manager is unchanged and the result is
        // handle-identical.
        let (mgr, a, b, c) = three_vars();
        let f = a.iff(&b).or(&b.iff(&c));
        let first = f.restrict(VarId(1), true);
        let nodes_after_first = mgr.stats().nodes;
        let second = f.restrict(VarId(1), true);
        assert_eq!(first, second);
        assert_eq!(mgr.stats().nodes, nodes_after_first);
    }
}

/// The flat tables: standard-triple normalization, the lossy `ite` memo
/// and the open-addressing unique table as they grow.
mod flat_tables {
    use super::properties::{eval, random_formula, to_bdd};
    use super::*;
    use spllift_rng::SplitMix64;

    /// `x0 ⊕ (x2 ∧ x3)`, `x1 ∨ ¬x4` and `x3 ↔ x5`: formulas whose `ite`
    /// recursion passes through several levels, over six variables.
    fn three_formulas() -> (BddManager, Bdd, Bdd, Bdd) {
        let mgr = BddManager::new();
        let x: Vec<Bdd> = (0..6).map(|i| mgr.var(format!("x{i}"))).collect();
        let f = x[0].xor(&x[2].and(&x[3]));
        let g = x[1].or(&x[4].not());
        let h = x[3].iff(&x[5]);
        (mgr, f, g, h)
    }

    /// A query, and the operation that must fill the memo slot it hits
    /// (`f` itself, for a terminal case), over `three_formulas`' f, g, h.
    type Case = (
        &'static str,
        fn(&Bdd, &Bdd, &Bdd) -> Bdd,
        fn(&Bdd, &Bdd, &Bdd) -> Bdd,
    );

    #[test]
    fn standard_triples_charge_no_op_once_their_slot_is_filled() {
        let cases: [Case; 4] = [
            ("f ∧ f", |f, _, _| f.clone(), |f, _, _| f.and(f)),
            ("f ∨ f", |f, _, _| f.clone(), |f, _, _| f.or(f)),
            ("ite(f, f, h)", |f, _, h| f.or(h), |f, _, h| f.ite(f, h)),
            ("ite(f, g, f)", |f, g, _| f.and(g), |f, g, _| f.ite(g, f)),
        ];
        // Every case runs on a fresh manager and reports, so a memo
        // without standard triples fails all four.
        let mut charged = Vec::new();
        for (name, fill, query) in cases {
            let (mgr, f, g, h) = three_formulas();
            let filled = fill(&f, &g, &h);
            let before = mgr.ops_used();
            assert_eq!(query(&f, &g, &h), filled, "{name}");
            let ops = mgr.ops_used() - before;
            if ops > 0 {
                charged.push(format!("{name}: {ops} ops"));
            }
        }
        assert!(charged.is_empty(), "standard triples recursed: {charged:?}");
    }

    #[test]
    fn random_formulas_survive_three_doublings_of_both_tables() {
        // Both tables start at 4096 slots. The unique table doubles at
        // half load and the `ite` memo once the nodes outnumber its
        // slots, so past 4 × 4096 nodes each has doubled three times.
        const NVARS: u8 = 10;
        let mgr = BddManager::new();
        let vars: Vec<Bdd> = (0..NVARS).map(|i| mgr.var(format!("x{i}"))).collect();
        let z = mgr.new_var("z");
        let mut rng = SplitMix64::seed_from_u64(0xBDD_0004);
        let mut built = Vec::new();
        while mgr.stats().nodes <= 4 * 4096 {
            assert!(built.len() < 5_000, "random formulas stopped adding nodes");
            let f = random_formula(&mut rng, 8, NVARS);
            let bdd = to_bdd(&f, &vars);
            for bits in 0u32..1 << NVARS {
                assert_eq!(
                    bdd.eval(|v| bits >> v.0 & 1 == 1),
                    eval(&f, bits),
                    "formula {f:?} at assignment {bits:#012b}"
                );
            }
            built.push(bdd);
        }
        // Canonicity after the growth: restricting `bdd ⊕ z` (z below
        // every other variable) re-interns every node of `bdd` bottom-up,
        // so a unique table that lost a node would mint a second copy.
        let z_bdd = mgr.var_bdd(z);
        for (i, bdd) in built.iter().enumerate() {
            let reinterned = bdd.xor(&z_bdd).restrict(z, false);
            assert!(reinterned == *bdd, "formula {i} lost a node on growth");
        }
        let stats = mgr.stats();
        let slots = stats.nodes.next_power_of_two().max(4096);
        assert!(
            stats.cache_entries <= slots,
            "{} memo entries in {slots} slots",
            stats.cache_entries
        );
    }

    #[test]
    fn evictions_cause_no_exponential_recomputation() {
        // Two parity chains over the even and the odd variables: each
        // level of their xor meets one of 4 sign combinations of the two
        // chains' sub-diagrams, so an exact memo charges at most 4 ops
        // per variable, while the unmemoized recursion visits 2^400
        // paths. The manager stays under 2,000 nodes, so the xor's
        // ~1,600 triples collide in the memo's first 4,096 slots.
        const N: usize = 400;
        let mgr = BddManager::new();
        let xs: Vec<Bdd> = (0..N).map(|i| mgr.var(format!("x{i}"))).collect();
        // Built from the bottom variable up, so each step adds one level.
        let parity = |from: usize, step: usize| {
            (from..N)
                .step_by(step)
                .rev()
                .fold(mgr.bottom(), |acc, i| xs[i].xor(&acc))
        };
        let (even, odd) = (parity(0, 2), parity(1, 2));
        // Negate both first, so the measured xor charges only `ite` steps.
        let _ = (even.not(), odd.not());
        // A budget, so that runaway recomputation fails instead of hanging.
        let distinct = 4 * N as u64;
        mgr.set_budget(crate::BddBudget {
            max_nodes: None,
            max_ops: Some(2 * distinct),
        });
        let both = even.xor(&odd);
        assert!(
            mgr.budget_status().is_ok(),
            "over {} ops for at most {distinct} distinct triples",
            2 * distinct
        );
        assert_eq!(both, parity(0, 1));
    }
}

mod budget {
    use crate::{BddBudget, BddError, BddManager, BudgetResource};

    /// Builds a parity-style formula big enough to exceed small budgets.
    fn big_formula(mgr: &BddManager, nvars: usize) -> crate::Bdd {
        let vars: Vec<_> = (0..nvars).map(|i| mgr.var(format!("v{i}"))).collect();
        vars.iter()
            .fold(mgr.bottom(), |acc, v| acc.xor(v))
            .or(&vars[0].and(&vars[nvars - 1]))
    }

    #[test]
    fn node_budget_trips_and_reports() {
        let mgr = BddManager::new();
        mgr.set_budget(BddBudget {
            max_nodes: Some(8),
            max_ops: None,
        });
        let _ = big_formula(&mgr, 16);
        match mgr.budget_status() {
            Err(BddError::BudgetExceeded {
                resource: BudgetResource::Nodes,
                limit: 8,
                used,
            }) => assert!(used > 8),
            other => panic!("expected node-budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn op_budget_trips_and_reports() {
        let mgr = BddManager::new();
        mgr.set_budget(BddBudget {
            max_nodes: None,
            max_ops: Some(4),
        });
        let _ = big_formula(&mgr, 16);
        match mgr.budget_status() {
            Err(BddError::BudgetExceeded {
                resource: BudgetResource::Ops,
                ..
            }) => {}
            other => panic!("expected op-budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn charge_ops_is_a_deterministic_fault_hook() {
        let mgr = BddManager::new();
        mgr.set_budget(BddBudget {
            max_nodes: None,
            max_ops: Some(100),
        });
        mgr.charge_ops(1_000);
        assert!(mgr.budget_status().is_err());
        assert!(mgr.ops_used() > 100);
    }

    #[test]
    fn exhaustion_does_not_pollute_caches() {
        // Compute a reference answer on an unbudgeted manager, then
        // exhaust a second manager mid-formula, re-arm it, and check that
        // the same computation now yields the correct (reference) truth
        // table — i.e. no garbage survived in unique/op caches.
        let clean = BddManager::new();
        let reference = big_formula(&clean, 10);

        let mgr = BddManager::new();
        mgr.set_budget(BddBudget {
            max_nodes: Some(4),
            max_ops: None,
        });
        let _ = big_formula(&mgr, 10);
        assert!(mgr.budget_status().is_err());

        mgr.clear_budget();
        assert!(mgr.budget_status().is_ok());
        let vars: Vec<_> = (0..10).map(|i| mgr.var_bdd(crate::VarId(i))).collect();
        let redo = vars
            .iter()
            .fold(mgr.bottom(), |acc, v| acc.xor(v))
            .or(&vars[0].and(&vars[9]));
        // Compare truth tables over all 1024 assignments.
        for bits in 0u32..1024 {
            let assign = |v: crate::VarId| bits >> v.0 & 1 == 1;
            assert_eq!(redo.eval(assign), reference.eval(assign), "bits={bits}");
        }
    }

    #[test]
    fn rearming_resets_the_meters() {
        let mgr = BddManager::new();
        mgr.set_budget(BddBudget {
            max_nodes: Some(4),
            max_ops: None,
        });
        let _ = big_formula(&mgr, 12);
        assert!(mgr.budget_status().is_err());
        mgr.set_budget(BddBudget {
            max_nodes: Some(1 << 20),
            max_ops: Some(1 << 20),
        });
        assert!(mgr.budget_status().is_ok());
        assert_eq!(mgr.ops_used(), 0);
        assert_eq!(mgr.nodes_since_arm(), 0);
        let f = big_formula(&mgr, 12);
        assert!(mgr.budget_status().is_ok());
        assert!(!f.is_false());
    }
}

#[test]
fn semantic_digest_is_function_of_the_function() {
    let (mgr, a, b, c) = three_vars();
    // Equal functions, built along different op paths, digest equally.
    let f1 = a.and(&b).or(&c);
    let f2 = c.or(&b.and(&a));
    assert_eq!(f1.semantic_digest(), f2.semantic_digest());
    // Different functions digest differently.
    assert_ne!(f1.semantic_digest(), a.or(&b).semantic_digest());
    assert_ne!(a.semantic_digest(), b.semantic_digest());
    // Branch asymmetry: x and !x must differ.
    assert_ne!(a.semantic_digest(), a.not().semantic_digest());
    // Terminals are distinct constants.
    assert_ne!(mgr.top().semantic_digest(), mgr.bottom().semantic_digest());
}

#[test]
fn semantic_digest_is_independent_of_build_order_across_managers() {
    // Two fresh managers, same variable order, different construction
    // order (hence different node ids): digests must agree.
    let m1 = BddManager::new();
    let (a1, b1, c1) = (m1.var("A"), m1.var("B"), m1.var("C"));
    let junk = c1.xor(&b1); // shift node ids in m1
    let f1 = a1.implies(&b1).and(&c1);
    let m2 = BddManager::new();
    let (a2, b2, c2) = (m2.var("A"), m2.var("B"), m2.var("C"));
    let f2 = a2.implies(&b2).and(&c2);
    let d1 = f1.semantic_digest();
    assert_eq!(d1, f2.semantic_digest());
    // The manager memoizes digests per node: diagrams built after a
    // digest, some sharing its nodes, must leave it unchanged.
    let xs: Vec<Bdd> = (0..6).map(|i| m1.var(format!("X{i}"))).collect();
    let more = xs.iter().fold(junk, |acc, x| acc.xor(x).or(&f1.and(x)));
    assert_ne!(more.semantic_digest(), d1);
    assert_eq!(f1.semantic_digest(), d1);
    assert_eq!(f1.semantic_digest(), f2.semantic_digest());
}

#[test]
fn eval_may_call_into_the_same_manager() {
    // `eval` never runs its closure while it borrows the store, so a
    // closure that builds formulas on the same manager returns instead
    // of panicking on a second borrow.
    let (mgr, a, b, c) = three_vars();
    let f = a.and(&b).or(&c);
    let evals = [
        // A and B hold, C does not.
        f.eval(|v| mgr.var_bdd(v).entails(&a.or(&b))),
        // Only C holds.
        f.eval(|v| mgr.var_bdd(v) == c.not().not()),
        // Only B holds.
        f.eval(|v| mgr.var_bdd(v) == b),
    ];
    assert_eq!(evals, [true, true, false]);
}

#[test]
fn semantic_digest_survives_deep_chains() {
    // Linear in diagram size and iterative: a ~60k-deep conjunction
    // chain must neither overflow the stack nor take superlinear time.
    // Built bottom-up (highest variable first) so each `and` recurses
    // O(1) deep while the resulting diagram is a ~60k-deep chain.
    let mgr = BddManager::new();
    let vars: Vec<VarId> = (0..60_000).map(|i| mgr.new_var(format!("x{i}"))).collect();
    let mut f = mgr.top();
    for &v in vars.iter().rev() {
        f = mgr.var_bdd(v).and(&f);
    }
    let d1 = f.semantic_digest();
    assert_eq!(d1, f.semantic_digest());
    assert_ne!(d1, mgr.top().semantic_digest());
}
