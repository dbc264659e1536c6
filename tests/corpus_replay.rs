//! Replay the committed repro corpus: every `tests/corpus/*.repro` file
//! (reduced repros from past fuzz campaigns, plus representative
//! generated subjects) is parsed and pushed through the full differential
//! battery — all five lifted analyses cross-checked against A2 in both
//! directions, reaching definitions re-solved by the independent lifted
//! Datalog engine, the abstraction differential (full-precision
//! constraints must entail a random lattice point's), plus the
//! interpreter-soundness oracle — with **no** injected bug. A healthy
//! implementation reports zero mismatches on every corpus entry.
//!
//! `gen-stratified-negation.repro` is hand-written to exercise the
//! Datalog backend's stratified negation: a feature-annotated
//! redefinition kills a reaching def on the `act` (statement executes)
//! path while the def survives on the `idn` (statement compiled out)
//! path, so the kill-check `neg(defs, …)` must interact correctly with
//! the lifted constraints.
//!
//! The corpus grows over time: `spllift-cli fuzz --corpus-dir
//! tests/corpus` appends a reduced repro for every failure a campaign
//! finds, so any bug the fuzzer ever caught stays caught.

use spllift::features::FeatureId;
use spllift::ir::text::parse_repro;
use spllift::spl::{check_program, InjectedBug};

#[test]
fn corpus_is_present_and_replays_clean() {
    let dir = std::path::Path::new("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "repro"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 3,
        "corpus should hold at least 3 repro programs, found {}",
        paths.len()
    );

    for path in paths {
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let (program, table) =
            parse_repro(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        program
            .check()
            .unwrap_or_else(|e| panic!("{}: ill-formed IR: {e:?}", path.display()));
        let features: Vec<FeatureId> = table.iter().map(|(f, _)| f).collect();
        // Repro files carry no campaign seed; 0 seeds the lattice-point
        // stream.
        let (verdicts, unpredicted) =
            check_program(&program, &table, &features, 0, InjectedBug::None, 100);
        for v in &verdicts {
            assert!(
                v.mismatches.is_empty(),
                "{}: {} crosscheck mismatches: {:?}",
                path.display(),
                v.analysis,
                v.mismatches
            );
        }
        assert!(
            unpredicted.is_empty(),
            "{}: dynamic events unpredicted by the lifted analyses: {unpredicted:?}",
            path.display()
        );
    }
}
