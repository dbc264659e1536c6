use crate::{subject_by_name, subjects, GeneratedSpl};
use spllift_ifds::Icfg as _;

#[test]
fn all_subjects_generate_and_parse() {
    for spec in subjects() {
        let spl = GeneratedSpl::generate(spec);
        assert!(spl.program.check().is_ok(), "{}", spec.name);
        assert!(!spl.source.is_empty());
        assert!(spl.loc > 0);
    }
}

#[test]
fn generation_is_deterministic() {
    let spec = subject_by_name("mm08").unwrap();
    let a = GeneratedSpl::generate(spec);
    let b = GeneratedSpl::generate(spec);
    assert_eq!(a.source, b.source);
    assert_eq!(a.program, b.program);
}

#[test]
fn loc_is_near_target() {
    for spec in subjects() {
        let spl = GeneratedSpl::generate(spec);
        let ratio = spl.loc as f64 / spec.loc_target as f64;
        assert!(
            (0.7..1.6).contains(&ratio),
            "{}: loc {} vs target {}",
            spec.name,
            spl.loc,
            spec.loc_target
        );
    }
}

#[test]
fn reachable_feature_counts_match_table1() {
    for spec in subjects() {
        let spl = GeneratedSpl::generate(spec);
        let icfg = spl.icfg();
        let reachable = spl.program.reachable_features(icfg.call_graph());
        assert_eq!(
            reachable.len(),
            spec.reachable_features,
            "{}: reachable features",
            spec.name
        );
        // Reachable annotations use exactly the F* features.
        for f in &reachable {
            assert!(spl.reachable.contains(f), "{}: {f:?}", spec.name);
        }
        // Total features (excluding the synthetic root).
        let total = spl.table.len() - 1;
        assert_eq!(total, spec.total_features, "{}: total features", spec.name);
    }
}

#[test]
fn valid_config_counts_match_table1() {
    for spec in subjects() {
        let spl = GeneratedSpl::generate(spec);
        let counted = spl.count_valid_configs();
        if let Some(expected) = spec.paper_valid_configs {
            assert_eq!(counted, expected, "{}", spec.name);
        } else {
            // BerkeleyDB: the paper says "unknown"; our BDD counts it.
            assert_eq!(counted, 650_280_960, "{}", spec.name);
        }
    }
}

#[test]
fn enumerated_configs_match_bdd_count() {
    for name in ["GPL", "MM08", "Lampiro"] {
        let spl = GeneratedSpl::generate(subject_by_name(name).unwrap());
        let configs = spl.valid_configurations();
        assert_eq!(configs.len() as u128, spl.count_valid_configs(), "{name}");
        // Every enumerated configuration really satisfies the model.
        let expr = spl.model_expr();
        assert!(configs.iter().all(|c| c.satisfies(&expr)));
    }
}

#[test]
fn dead_features_are_unreachable() {
    let spl = GeneratedSpl::generate(subject_by_name("Lampiro").unwrap());
    let icfg = spl.icfg();
    // Dead classes exist but their methods are not in the call graph.
    let dead = spl.program.find_method("Dead0.unused");
    assert!(dead.is_some());
    assert!(!icfg.call_graph().is_reachable(dead.unwrap()));
    // All 20 features appear somewhere; only 2 reachable.
    assert_eq!(spl.program.annotated_features().len(), 20);
}

#[test]
fn subjects_have_interprocedural_structure() {
    let spl = GeneratedSpl::generate(subject_by_name("GPL").unwrap());
    let icfg = spl.icfg();
    let methods = icfg.methods();
    assert!(methods.len() > 10, "enough reachable methods");
    let call_sites: usize = methods.iter().map(|&m| icfg.calls_in(m).len()).sum();
    assert!(call_sites > 20, "enough call sites, got {call_sites}");
}

#[test]
fn extrapolation_configs_are_full_and_empty() {
    let spl = GeneratedSpl::generate(subject_by_name("MM08").unwrap());
    let [full, empty] = spl.extrapolation_configs();
    assert!(spl.reachable.iter().all(|&f| full.is_enabled(f)));
    assert!(spl.reachable.iter().all(|&f| !empty.is_enabled(f)));
    assert!(full.is_enabled(spl.root) && empty.is_enabled(spl.root));
}

#[test]
fn subject_lookup() {
    assert!(subject_by_name("berkeleydb").is_some());
    assert!(subject_by_name("nope").is_none());
}

#[test]
fn chain_model_has_linear_config_count() {
    // fᵢ₊₁ → fᵢ: valid configurations are exactly the n+1 prefixes.
    for n in [1usize, 5, 20, 99] {
        let spec = crate::parse_subject_spec(&format!("synthetic:{n}:400:7:model=chain")).unwrap();
        let spl = GeneratedSpl::generate(spec);
        assert_eq!(spl.count_valid_configs(), n as u128 + 1, "n={n}");
    }
}

#[test]
fn groups_model_generates_and_constrains() {
    let spec = crate::parse_subject_spec("synthetic:30:600:11:model=groups").unwrap();
    let spl = GeneratedSpl::generate(spec);
    let counted = spl.count_valid_configs();
    // Strictly constrained below 2^30, but far from degenerate.
    assert!(counted < 1u128 << 30, "counted {counted}");
    assert!(counted > 1_000, "counted {counted}");
    assert!(spl.program.check().is_ok());
}

#[test]
fn call_depth_produces_deep_chain() {
    let spec = crate::parse_subject_spec("synthetic:8:400:3:depth=12").unwrap();
    let spl = GeneratedSpl::generate(spec);
    let icfg = spl.icfg();
    // Every link of the D0 → … → D11 chain is present and reachable.
    for d in 0..12 {
        let m = spl
            .program
            .find_method(&format!("D{d}.step"))
            .unwrap_or_else(|| panic!("missing D{d}.step"));
        assert!(icfg.call_graph().is_reachable(m), "D{d}.step unreachable");
    }
    assert!(spl.program.find_method("D12.step").is_none());
}

#[test]
fn shaped_generation_is_deterministic() {
    let spec = crate::parse_subject_spec("synthetic:40:2000:5:model=groups:depth=6").unwrap();
    let a = GeneratedSpl::generate(spec);
    let b = GeneratedSpl::generate(spec);
    assert_eq!(a.source, b.source);
    assert_eq!(a.program, b.program);
}

#[test]
fn subject_grammar_round_trips_and_rejects() {
    use crate::parse_subject_spec as p;
    // Named subjects, case-insensitive.
    assert_eq!(p("BerkeleyDB").unwrap().name, "BerkeleyDB");
    assert_eq!(p("mm08").unwrap().name, "MM08");
    // Plain synthetic defaults to the free model, no call chain.
    let s = p("synthetic:6:400:42").unwrap();
    assert_eq!(s.model_shape, crate::ModelShape::Free);
    assert_eq!(s.call_depth, None);
    assert_eq!(s.paper_valid_configs, Some(64));
    // Clauses in either order.
    let s = p("synthetic:6:400:42:depth=3:model=chain").unwrap();
    assert_eq!(s.model_shape, crate::ModelShape::Chain);
    assert_eq!(s.call_depth, Some(3));
    // Rejections: unknown name, bad arity, bad clause, duplicates, limits.
    assert!(p("nope").is_err());
    assert!(p("synthetic:6:400").is_err());
    assert!(p("synthetic:6:400:42:model=weird").is_err());
    assert!(p("synthetic:6:400:42:model=free:model=chain").is_err());
    assert!(p("synthetic:0:400:42").is_err());
    assert!(p("synthetic:257:400:42").is_err());
    // 128+ features are allowed (the config count saturates to "beyond
    // u128" = None); the lattice-degradation experiment relies on it.
    let big = p("synthetic:128:900:7:model=groups").unwrap();
    assert_eq!(big.total_features, 128);
    assert_eq!(big.paper_valid_configs, None);
    assert!(p("synthetic:6:400:42:depth=0").is_err());
}

#[test]
fn committed_scale_subject_is_paper_scale() {
    // The paper-scale subject that the governed-solve smoke in
    // scripts/ci.sh runs: ~99 features at >10k statements —
    // BerkeleyDB-magnitude feature count on a program an order of
    // magnitude larger than the Table 1 subjects. The chain model keeps
    // the valid-config count enumerable (exactly n+1 = 100) and the
    // model BDD linear, so the subject stays solvable in CI time.
    let spec = crate::parse_subject_spec("synthetic:99:12000:71:model=chain:depth=8").unwrap();
    let spl = GeneratedSpl::generate(spec);
    let stmts: usize = spl
        .program
        .methods()
        .iter()
        .filter_map(|m| m.body.as_ref())
        .map(|b| b.stmts.len())
        .sum();
    assert!(
        stmts >= 10_000,
        "want a 10k+-statement subject, got {stmts}"
    );
    assert_eq!(spl.reachable.len(), 99);
    assert_eq!(spl.count_valid_configs(), 100);
}
