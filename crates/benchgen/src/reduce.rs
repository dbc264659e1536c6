//! Delta-debugging (ddmin) reduction of failing product-line programs.
//!
//! When the differential fuzz campaign finds a mismatch, the raw failing
//! program is a few hundred statements of generated noise. This module
//! shrinks it to a minimal failing example by the classic ddmin loop
//! (Zeller & Hildebrandt, TSE 2002), re-running a caller-supplied oracle
//! after every candidate simplification and keeping only changes that
//! preserve the failure.
//!
//! Three reduction passes run in rounds until a fixpoint:
//!
//! 1. **Statements** — replace payload statements by `nop`. Indices stay
//!    stable, so branch targets and the final return never need fixup
//!    (the same trick [`Program::derive_product`] uses).
//! 2. **Functions** — hollow a method body out to `nop; return`, keeping
//!    its signature so callers stay well-formed.
//! 3. **Features** — substitute `false` for a feature in every
//!    annotation, collapsing the configuration space dimension by
//!    dimension.
//!
//! The oracle decides what "failing" means — the fuzz driver plugs in
//! "this analysis still disagrees between SPLLIFT and A2" — so the
//! reducer is oblivious to analyses, solvers, and models.

use spllift_features::{partition_slice, FeatureExpr, FeatureId, FeatureTable};
use spllift_ir::{text, MethodId, Operand, Program, StmtKind, StmtRef};

/// A reduced failing program, plus bookkeeping for reports and tests.
#[derive(Debug)]
pub struct ReduceOutcome {
    /// The minimal failing program.
    pub program: Program,
    /// Features still mentioned by annotations after reduction (in the
    /// original order). Features substituted away are gone.
    pub features: Vec<FeatureId>,
    /// Payload statements remaining (non-`nop`, not the synthetic entry,
    /// not the mandatory final `return`).
    pub payload_stmts: usize,
    /// Total oracle invocations — the reduction's cost.
    pub oracle_runs: usize,
    /// Pass rounds executed before the fixpoint (or the round cap).
    pub rounds: usize,
    /// The pretty-printed repro, ready for `tests/corpus/`.
    pub repro: String,
}

/// The failure predicate: `true` iff the candidate still exhibits the
/// failure being minimized. Receives the candidate program and the
/// features still in play (the oracle typically enumerates
/// configurations over exactly these).
pub type Oracle<'a> = dyn FnMut(&Program, &[FeatureId]) -> bool + 'a;

/// Counts payload statements: everything except `nop`s and each body's
/// mandatory final `return`. This is the metric reduction minimizes and
/// the one the acceptance test bounds.
pub fn payload_stmt_count(program: &Program) -> usize {
    program
        .methods_with_body()
        .map(|m| {
            let stmts = &program.body(m).stmts;
            stmts
                .iter()
                .take(stmts.len().saturating_sub(1))
                .filter(|s| !matches!(s.kind, StmtKind::Nop))
                .count()
        })
        .sum()
}

/// Generic ddmin over a set of still-removable elements: repeatedly try
/// to remove contiguous chunks at increasing granularity, keeping a
/// removal iff `still_fails` holds on the program with that chunk (plus
/// everything already removed) gone. Returns the elements that survived.
///
/// `apply` must rebuild the candidate program from scratch given the
/// *kept* elements, so removals compose without ordering concerns.
fn ddmin<T: Copy>(
    elements: Vec<T>,
    mut apply: impl FnMut(&[T]) -> (Program, Vec<FeatureId>),
    oracle: &mut Oracle<'_>,
    oracle_runs: &mut usize,
) -> Vec<T> {
    let mut kept = elements;
    if kept.is_empty() {
        return kept;
    }
    // Try removing everything first — surprisingly often the failure
    // needs none of the candidate elements (e.g. the bug is in main).
    {
        let (candidate, feats) = apply(&[]);
        *oracle_runs += 1;
        if oracle(&candidate, &feats) {
            return Vec::new();
        }
    }
    let mut granularity = 2usize;
    while kept.len() >= 2 {
        let chunks: Vec<Vec<T>> = partition_slice(&kept, granularity.min(kept.len()))
            .into_iter()
            .map(<[T]>::to_vec)
            .collect();
        let mut reduced = false;
        for i in 0..chunks.len() {
            // Keep every chunk except the i-th (test its complement).
            let complement: Vec<T> = chunks
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .flat_map(|(_, c)| c.iter().copied())
                .collect();
            let (candidate, feats) = apply(&complement);
            *oracle_runs += 1;
            if oracle(&candidate, &feats) {
                kept = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if granularity >= kept.len() {
                break;
            }
            granularity = (granularity * 2).min(kept.len());
        }
    }
    kept
}

/// Substitutes `false` for every feature in `gone` throughout `expr`,
/// then simplifies constant subtrees away.
fn eliminate(expr: &FeatureExpr, gone: &[FeatureId]) -> FeatureExpr {
    match expr {
        FeatureExpr::True => FeatureExpr::True,
        FeatureExpr::False => FeatureExpr::False,
        FeatureExpr::Var(f) => {
            if gone.contains(f) {
                FeatureExpr::False
            } else {
                FeatureExpr::Var(*f)
            }
        }
        FeatureExpr::Not(e) => match eliminate(e, gone) {
            FeatureExpr::True => FeatureExpr::False,
            FeatureExpr::False => FeatureExpr::True,
            e => e.not(),
        },
        FeatureExpr::And(es) => {
            let mut out = Vec::new();
            for e in es {
                match eliminate(e, gone) {
                    FeatureExpr::True => {}
                    FeatureExpr::False => return FeatureExpr::False,
                    e => out.push(e),
                }
            }
            match out.len() {
                0 => FeatureExpr::True,
                1 => out.pop().expect("len checked"),
                _ => FeatureExpr::And(out),
            }
        }
        FeatureExpr::Or(es) => {
            let mut out = Vec::new();
            for e in es {
                match eliminate(e, gone) {
                    FeatureExpr::False => {}
                    FeatureExpr::True => return FeatureExpr::True,
                    e => out.push(e),
                }
            }
            match out.len() {
                0 => FeatureExpr::False,
                1 => out.pop().expect("len checked"),
                _ => FeatureExpr::Or(out),
            }
        }
    }
}

/// Rebuilds `base` with the statements in `gone` nopped out.
fn without_stmts(base: &Program, gone: &[StmtRef]) -> Program {
    let mut p = base.clone();
    for &s in gone {
        p.stmt_mut(s).kind = StmtKind::Nop;
    }
    p
}

/// Rebuilds `base` with the bodies of `gone` hollowed to `nop; return`
/// (returning `0` from non-void methods so call sites stay typed).
fn without_functions(base: &Program, gone: &[MethodId]) -> Program {
    let mut p = base.clone();
    for &m in gone {
        let value = p.method(m).ret.as_ref().map(|_| Operand::IntConst(0));
        let body = p.body_mut(m);
        let entry = body.stmts[0].clone();
        let mut ret = body.stmts[body.stmts.len() - 1].clone();
        ret.kind = StmtKind::Return { value };
        body.stmts = vec![entry, ret];
    }
    p
}

/// Rebuilds `base` with the features in `gone` substituted by `false`
/// in every annotation.
fn without_features(base: &Program, gone: &[FeatureId]) -> Program {
    let mut p = base.clone();
    for m in base.methods_with_body().collect::<Vec<_>>() {
        let len = p.body(m).stmts.len() as u32;
        for index in 0..len {
            let s = StmtRef { method: m, index };
            let ann = eliminate(&p.stmt(s).annotation, gone);
            p.stmt_mut(s).annotation = ann;
        }
    }
    p
}

/// Minimizes `program` while `oracle` keeps returning `true` (failure
/// still present). The input program itself must fail.
///
/// # Panics
///
/// Panics if `oracle(program, features)` is `false` — reducing a passing
/// program is a caller bug and would "minimize" to garbage.
pub fn reduce(
    program: &Program,
    table: &FeatureTable,
    features: &[FeatureId],
    oracle: &mut Oracle<'_>,
) -> ReduceOutcome {
    /// Upper bound on pass rounds (a fixpoint is normally reached in
    /// two or three).
    const MAX_ROUNDS: usize = 8;
    let mut oracle_runs = 1;
    assert!(
        oracle(program, features),
        "reduce() called on a program the oracle does not fail"
    );

    let mut current = program.clone();
    let mut features: Vec<FeatureId> = features.to_vec();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let before = (payload_stmt_count(&current), features.len());

        if !features.is_empty() {
            let feats = features.clone();
            let base = current.clone();
            let kept = ddmin(
                feats.clone(),
                |keep| {
                    let gone: Vec<FeatureId> = feats
                        .iter()
                        .copied()
                        .filter(|f| !keep.contains(f))
                        .collect();
                    (without_features(&base, &gone), keep.to_vec())
                },
                oracle,
                &mut oracle_runs,
            );
            let gone: Vec<FeatureId> = feats
                .iter()
                .copied()
                .filter(|f| !kept.contains(f))
                .collect();
            current = without_features(&base, &gone);
            features = kept;
        }

        // Entry points stay; hollowing them would trivialize the
        // program without exercising interprocedural flow.
        let entries = current.entry_points().to_vec();
        let candidates: Vec<MethodId> = current
            .methods_with_body()
            .filter(|m| !entries.contains(m))
            .collect();
        let base = current.clone();
        let feats = features.clone();
        let kept = ddmin(
            candidates.clone(),
            |keep| {
                let gone: Vec<MethodId> = candidates
                    .iter()
                    .copied()
                    .filter(|m| !keep.contains(m))
                    .collect();
                (without_functions(&base, &gone), feats.clone())
            },
            oracle,
            &mut oracle_runs,
        );
        let gone: Vec<MethodId> = candidates
            .iter()
            .copied()
            .filter(|m| !kept.contains(m))
            .collect();
        current = without_functions(&base, &gone);

        let candidates: Vec<StmtRef> = current
            .methods_with_body()
            .flat_map(|m| {
                let stmts = &current.body(m).stmts;
                let last = stmts.len() - 1;
                stmts
                    .iter()
                    .enumerate()
                    .filter(move |&(i, s)| i != 0 && i != last && !matches!(s.kind, StmtKind::Nop))
                    .map(move |(i, _)| StmtRef {
                        method: m,
                        index: i as u32,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let base = current.clone();
        let feats = features.clone();
        let kept = ddmin(
            candidates.clone(),
            |keep| {
                let gone: Vec<StmtRef> = candidates
                    .iter()
                    .copied()
                    .filter(|s| !keep.contains(s))
                    .collect();
                (without_stmts(&base, &gone), feats.clone())
            },
            oracle,
            &mut oracle_runs,
        );
        let gone: Vec<StmtRef> = candidates
            .iter()
            .copied()
            .filter(|s| !kept.contains(s))
            .collect();
        current = without_stmts(&base, &gone);

        let after = (payload_stmt_count(&current), features.len());
        if after == before || rounds >= MAX_ROUNDS {
            break;
        }
    }

    debug_assert!(current.check().is_ok(), "reduction broke IR invariants");
    let repro = text::to_repro_string(&current, table)
        .unwrap_or_else(|e| panic!("reduced program left the repro subset: {e}"));
    ReduceOutcome {
        payload_stmts: payload_stmt_count(&current),
        program: current,
        features,
        oracle_runs,
        rounds,
        repro,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_spl;
    use spllift_ir::interp::{run, InterpConfig};
    use spllift_ir::Callee;

    /// Reduce "program calls the `print` sink at least once under the
    /// full configuration" — a cheap syntactic oracle that still
    /// exercises all three passes.
    #[test]
    fn reduces_to_a_single_call_site() {
        let spl = random_spl(5, 3, 4);
        let print = spl
            .program
            .find_method("print")
            .expect("generator always emits print");
        let mut oracle = |p: &Program, _feats: &[FeatureId]| {
            p.methods_with_body().any(|m| {
                p.body(m).stmts.iter().any(|s| {
                    matches!(
                        &s.kind,
                        StmtKind::Invoke { callee: Callee::Static(c), .. } if *c == print
                    )
                })
            })
        };
        let out = reduce(&spl.program, &spl.table, &spl.features, &mut oracle);
        assert!(out.program.check().is_ok());
        // One call statement must survive; the ddmin floor for this
        // oracle is exactly one payload statement.
        assert_eq!(out.payload_stmts, 1, "repro:\n{}", out.repro);
        // Feature elimination should have emptied the feature set: the
        // oracle ignores annotations entirely.
        assert!(out.features.is_empty());
    }

    /// A semantic oracle: the interpreter still leaks the secret in the
    /// all-features-on product. Slower but end-to-end.
    #[test]
    fn reduction_preserves_interpreter_behavior() {
        let mut found = None;
        for seed in 0..40u64 {
            let spl = random_spl(seed, 3, 3);
            let full = spllift_features::Configuration::from_enabled(spl.features.clone());
            let product = spl.program.derive_product(&full);
            let trace = run(&product, &InterpConfig::secret_to_print());
            if trace
                .events
                .iter()
                .any(|e| matches!(e, spllift_ir::interp::Event::Leak(_)))
            {
                found = Some((spl, full));
                break;
            }
        }
        let (spl, full) = found.expect("some seed in 0..40 leaks");
        let mut oracle = |p: &Program, _feats: &[FeatureId]| {
            let product = p.derive_product(&full);
            run(&product, &InterpConfig::secret_to_print())
                .events
                .iter()
                .any(|e| matches!(e, spllift_ir::interp::Event::Leak(_)))
        };
        let before = payload_stmt_count(&spl.program);
        let out = reduce(&spl.program, &spl.table, &spl.features, &mut oracle);
        assert!(
            out.payload_stmts < before,
            "{} !< {before}",
            out.payload_stmts
        );
        assert!(out.payload_stmts <= 10, "repro:\n{}", out.repro);
        // The repro round-trips through the text format.
        let (parsed, _) = text::parse_repro(&out.repro).expect("repro parses");
        assert_eq!(parsed, out.program);
    }

    #[test]
    fn reduction_is_deterministic() {
        let run_once = || {
            let spl = random_spl(5, 3, 4);
            let mut oracle = |p: &Program, _f: &[FeatureId]| {
                p.methods_with_body().any(|m| {
                    p.body(m)
                        .stmts
                        .iter()
                        .any(|s| matches!(s.kind, StmtKind::Invoke { .. }))
                })
            };
            reduce(&spl.program, &spl.table, &spl.features, &mut oracle).repro
        };
        assert_eq!(run_once(), run_once());
    }
}
