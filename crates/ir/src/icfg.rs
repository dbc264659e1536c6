//! [`spllift_ifds::Icfg`] implementation for [`Program`]s.

use crate::types::*;
use crate::{CallGraph, Hierarchy};
use spllift_features::FeatureExpr;
use spllift_ifds::Icfg;

/// The inter-procedural CFG of a [`Program`]: the view all solvers in the
/// workspace analyze.
///
/// Construction builds the class hierarchy and the call graph; this is the
/// analogue of the "Soot/CG" preprocessing step the paper times separately
/// in Table 2. It also tabulates every statement's successors and its
/// callees that have bodies, so the adjacency queries the solvers make
/// per propagation return slices of these tables.
#[derive(Debug)]
pub struct ProgramIcfg<'p> {
    program: &'p Program,
    hierarchy: Hierarchy,
    call_graph: CallGraph,
    /// Dense id of each method's statement 0; the statement at `index`
    /// of method `m` has dense id `first_stmt[m] + index`.
    first_stmt: Vec<u32>,
    successors: Adjacency<StmtRef>,
    callees: Adjacency<MethodId>,
}

/// One list per statement, flattened: the list of the statement with
/// dense id `k` is `items[starts[k]..starts[k + 1]]`.
#[derive(Debug)]
struct Adjacency<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T> Adjacency<T> {
    /// An empty table with room for the lists of `stmts` statements.
    fn with_capacity(stmts: usize) -> Self {
        let mut starts = Vec::with_capacity(stmts + 1);
        starts.push(0);
        Adjacency {
            starts,
            items: Vec::with_capacity(stmts),
        }
    }

    /// Appends the list of the next statement.
    fn push(&mut self, list: impl IntoIterator<Item = T>) {
        self.items.extend(list);
        self.starts.push(self.items.len() as u32);
    }

    fn get(&self, k: usize) -> &[T] {
        &self.items[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

impl<'p> ProgramIcfg<'p> {
    /// Builds hierarchy + call graph for `program`, and the adjacency
    /// tables of every method body.
    pub fn new(program: &'p Program) -> Self {
        let hierarchy = Hierarchy::new(program);
        let call_graph = CallGraph::build(program, &hierarchy);
        let stmts = program.stmt_count();
        let mut first_stmt = Vec::with_capacity(program.methods().len());
        let mut successors = Adjacency::with_capacity(stmts);
        let mut callees = Adjacency::with_capacity(stmts);
        for (i, method) in program.methods().iter().enumerate() {
            first_stmt.push(successors.starts.len() as u32 - 1);
            if method.body.is_none() {
                continue;
            }
            for s in program.stmts_of(MethodId(i as u32)) {
                successors.push(program.successors_of(s));
                let targets = match program.stmt(s).kind {
                    StmtKind::Invoke { .. } => call_graph.callees_of(s),
                    _ => &[],
                };
                callees.push(
                    targets
                        .iter()
                        .copied()
                        .filter(|&m| program.method(m).body.is_some()),
                );
            }
        }
        ProgramIcfg {
            program,
            hierarchy,
            call_graph,
            first_stmt,
            successors,
            callees,
        }
    }

    /// The dense id of `s` in the adjacency tables.
    fn slot(&self, s: StmtRef) -> usize {
        debug_assert!((s.index as usize) < self.program.body(s.method).stmts.len());
        self.first_stmt[s.method.index()] as usize + s.index as usize
    }

    /// The underlying program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The class hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The call graph.
    pub fn call_graph(&self) -> &CallGraph {
        &self.call_graph
    }

    /// The feature annotation of `s` (`True` for unannotated statements).
    pub fn annotation_of(&self, s: StmtRef) -> &FeatureExpr {
        &self.program.stmt(s).annotation
    }

    /// Fall-through successor of `s` — where control goes when `s` is
    /// *disabled* (paper Fig. 4).
    pub fn fall_through_of(&self, s: StmtRef) -> Option<StmtRef> {
        self.program.fall_through_of(s)
    }

    /// Branch target of an `if`/`goto` at `s`.
    pub fn branch_target_of(&self, s: StmtRef) -> Option<StmtRef> {
        self.program.branch_target_of(s)
    }
}

impl Icfg for ProgramIcfg<'_> {
    type Stmt = StmtRef;
    type Method = MethodId;

    fn entry_points(&self) -> Vec<MethodId> {
        self.program.entry_points().to_vec()
    }

    fn start_point_of(&self, m: MethodId) -> StmtRef {
        self.program.entry_of(m)
    }

    fn method_of(&self, s: StmtRef) -> MethodId {
        s.method
    }

    fn successors_of(&self, s: StmtRef) -> &[StmtRef] {
        self.successors.get(self.slot(s))
    }

    fn is_call(&self, s: StmtRef) -> bool {
        matches!(self.program.stmt(s).kind, StmtKind::Invoke { .. })
            && !self.call_graph.callees_of(s).is_empty()
    }

    fn callees_of(&self, s: StmtRef) -> &[MethodId] {
        self.callees.get(self.slot(s))
    }

    fn is_exit(&self, s: StmtRef) -> bool {
        matches!(self.program.stmt(s).kind, StmtKind::Return { .. })
    }

    fn stmts_of(&self, m: MethodId) -> Vec<StmtRef> {
        self.program.stmts_of(m).collect()
    }

    fn methods(&self) -> Vec<MethodId> {
        self.call_graph.reachable_methods().collect()
    }

    fn stmt_label(&self, s: StmtRef) -> String {
        format!("{}: {}", s, crate::pretty::stmt_to_string(self.program, s))
    }

    fn method_label(&self, m: MethodId) -> String {
        let meth = self.program.method(m);
        match meth.class {
            Some(c) => format!("{}.{}", self.program.class(c).name, meth.name),
            None => meth.name.clone(),
        }
    }
}
