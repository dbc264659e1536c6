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
    /// Call sites per callee, for reverse queries.
    callers: FastMap<MethodId, Vec<StmtRef>>,
}

impl CallGraph {
    /// Builds the call graph of `program` using `hierarchy` for virtual
    /// dispatch.
    pub fn build(program: &Program, hierarchy: &Hierarchy) -> Self {
        let mut targets: FastMap<StmtRef, Vec<MethodId>> = FastMap::default();
        let mut callers: FastMap<MethodId, Vec<StmtRef>> = FastMap::default();
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
                    callers.entry(q).or_default().push(sref);
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
        CallGraph {
            targets,
            reachable,
            callers,
        }
    }

    /// The possible callees of call site `s` (empty for non-calls).
    pub fn callees_of(&self, s: StmtRef) -> &[MethodId] {
        self.targets.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Call sites that may invoke `m`.
    pub fn callers_of(&self, m: MethodId) -> &[StmtRef] {
        self.callers.get(&m).map(Vec::as_slice).unwrap_or(&[])
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

/// The transitive *caller* closure of `roots`: every method from which
/// some root is reachable through call edges, roots included.
///
/// This is the dirty set of an incremental re-analysis after editing the
/// bodies of `roots` (see `SolverMemo` in `spllift-ide`): a method whose
/// body is unchanged can still observe an edit through a callee's end
/// summary, so every transitive caller must be re-tabulated, while the
/// complement — the clean set — is closed under "calls into" by
/// construction.
///
/// Unlike [`CallGraph::build`], this scans *every* body (not just
/// entry-reachable ones): the closure must stay sound even for methods a
/// later edit could make reachable.
pub fn transitive_callers(
    program: &Program,
    hierarchy: &Hierarchy,
    roots: &BTreeSet<MethodId>,
) -> BTreeSet<MethodId> {
    // callee → callers, over all bodies.
    let mut callers: FastMap<MethodId, Vec<MethodId>> = FastMap::default();
    for m in program.methods_with_body() {
        let body = program.body(m);
        for stmt in &body.stmts {
            let StmtKind::Invoke { callee, .. } = &stmt.kind else {
                continue;
            };
            let callees = match callee {
                Callee::Static(target) => vec![*target],
                Callee::Virtual { base, name, argc } => match body.locals[base.index()].ty {
                    Type::Ref(declared) => hierarchy.resolve_virtual(declared, name, *argc),
                    _ => Vec::new(),
                },
            };
            for q in callees {
                callers.entry(q).or_default().push(m);
            }
        }
    }
    let mut closure: BTreeSet<MethodId> = roots.clone();
    let mut worklist: Vec<MethodId> = roots.iter().copied().collect();
    while let Some(m) = worklist.pop() {
        for &caller in callers.get(&m).map(Vec::as_slice).unwrap_or(&[]) {
            if closure.insert(caller) {
                worklist.push(caller);
            }
        }
    }
    closure
}
