//! Call-graph construction (reachability from entry points, CHA targets).

use crate::types::*;
use crate::Hierarchy;
use spllift_hash::FastMap;
use std::collections::BTreeSet;

/// A call graph: per-call-site targets plus the reachable-method set,
/// computed by a worklist from the program's entry points.
///
/// As in the paper (§5), construction ignores feature annotations: a call
/// site annotated `#ifdef F` still contributes its edges. This reproduces
/// both the soundness and the imprecision the paper describes, and it
/// matches the "Soot/CG" column of Table 2 (one shared call graph for
/// SPLLIFT and the baselines).
#[derive(Debug, Clone)]
pub struct CallGraph {
    targets: FastMap<StmtRef, Vec<MethodId>>,
    reachable: BTreeSet<MethodId>,
}

impl CallGraph {
    /// Builds the call graph of `program` using `hierarchy` for virtual
    /// dispatch.
    pub fn build(program: &Program, hierarchy: &Hierarchy) -> Self {
        let mut targets: FastMap<StmtRef, Vec<MethodId>> = FastMap::default();
        let mut reachable: BTreeSet<MethodId> = BTreeSet::new();
        let mut worklist: Vec<MethodId> = program.entry_points().to_vec();
        while let Some(m) = worklist.pop() {
            if !reachable.insert(m) || program.method(m).body.is_none() {
                continue;
            }
            for sref in program.stmts_of(m) {
                let StmtKind::Invoke { callee, .. } = &program.stmt(sref).kind else {
                    continue;
                };
                let callees = match callee {
                    Callee::Static(target) => vec![*target],
                    Callee::Virtual { base, name, argc } => {
                        let body = program.body(m);
                        match body.locals[base.index()].ty {
                            Type::Ref(declared) => hierarchy.resolve_virtual(declared, name, *argc),
                            _ => Vec::new(),
                        }
                    }
                };
                for &q in &callees {
                    if program.method(q).body.is_some() {
                        worklist.push(q);
                    }
                }
                targets.insert(sref, callees);
            }
        }
        // Only keep reachable methods that have bodies (abstract targets
        // are kept in `targets` for diagnostics but not analyzed).
        reachable.retain(|&m| program.method(m).body.is_some());
        CallGraph { targets, reachable }
    }

    /// The possible callees of call site `s` (empty for non-calls).
    pub fn callees_of(&self, s: StmtRef) -> &[MethodId] {
        self.targets.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Methods (with bodies) reachable from the entry points.
    pub fn reachable_methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.reachable.iter().copied()
    }

    /// `true` iff `m` is reachable.
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(&m)
    }

    /// Number of call edges.
    pub fn edge_count(&self) -> usize {
        self.targets.values().map(Vec::len).sum()
    }
}
