//! A tiny hand-buildable ICFG for tests, docs, and toy examples.

use crate::Icfg;
use std::collections::HashMap;

/// The role of a statement in a [`SimpleGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StmtKind {
    /// An ordinary intra-procedural statement.
    #[default]
    Normal,
    /// A call statement (give it callees with [`SimpleGraph::add_call_edge`]).
    Call,
    /// An exit statement of its method.
    Exit,
}

#[derive(Debug, Clone)]
struct StmtData {
    method: u32,
    kind: StmtKind,
    label: String,
    succs: Vec<u32>,
    callees: Vec<u32>,
}

/// A hand-built inter-procedural CFG.
///
/// Statements and methods are plain `u32` ids. Useful for unit-testing
/// solvers without pulling in the full IR; see the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct SimpleGraph {
    stmts: Vec<StmtData>,
    method_names: Vec<String>,
    method_stmts: HashMap<u32, Vec<u32>>,
    start_points: HashMap<u32, u32>,
    entries: Vec<u32>,
}

impl SimpleGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a method named `name` and returns its id.
    pub fn add_method(&mut self, name: &str) -> u32 {
        let id = self.method_names.len() as u32;
        self.method_names.push(name.to_owned());
        id
    }

    /// Adds a normal statement to `method`. The first statement added to a
    /// method becomes its start point.
    pub fn add_stmt(&mut self, method: u32, label: &str) -> u32 {
        self.add_stmt_kind(method, label, StmtKind::Normal)
    }

    /// Adds a statement with an explicit [`StmtKind`].
    pub fn add_stmt_kind(&mut self, method: u32, label: &str, kind: StmtKind) -> u32 {
        let id = self.stmts.len() as u32;
        self.stmts.push(StmtData {
            method,
            kind,
            label: label.to_owned(),
            succs: Vec::new(),
            callees: Vec::new(),
        });
        self.method_stmts.entry(method).or_default().push(id);
        self.start_points.entry(method).or_insert(id);
        id
    }

    /// Adds an intra-procedural control-flow edge.
    pub fn add_edge(&mut self, from: u32, to: u32) {
        self.stmts[from as usize].succs.push(to);
    }

    /// Registers `callee` as a possible target of call statement `call`.
    pub fn add_call_edge(&mut self, call: u32, callee: u32) {
        debug_assert_eq!(self.stmts[call as usize].kind, StmtKind::Call);
        self.stmts[call as usize].callees.push(callee);
    }

    /// Marks `method` as an analysis entry point.
    pub fn set_entry(&mut self, method: u32) {
        self.entries.push(method);
    }

    /// The label a statement was created with.
    pub fn label(&self, s: u32) -> &str {
        &self.stmts[s as usize].label
    }
}

impl Icfg for SimpleGraph {
    type Stmt = u32;
    type Method = u32;

    fn entry_points(&self) -> Vec<u32> {
        self.entries.clone()
    }

    fn start_point_of(&self, m: u32) -> u32 {
        self.start_points[&m]
    }

    fn method_of(&self, s: u32) -> u32 {
        self.stmts[s as usize].method
    }

    fn successors_of(&self, s: u32) -> &[u32] {
        &self.stmts[s as usize].succs
    }

    fn is_call(&self, s: u32) -> bool {
        self.stmts[s as usize].kind == StmtKind::Call
    }

    fn callees_of(&self, s: u32) -> &[u32] {
        &self.stmts[s as usize].callees
    }

    fn is_exit(&self, s: u32) -> bool {
        self.stmts[s as usize].kind == StmtKind::Exit
    }

    fn stmts_of(&self, m: u32) -> Vec<u32> {
        self.method_stmts.get(&m).cloned().unwrap_or_default()
    }

    fn methods(&self) -> Vec<u32> {
        (0..self.method_names.len() as u32).collect()
    }

    fn stmt_label(&self, s: u32) -> String {
        self.stmts[s as usize].label.clone()
    }

    fn method_label(&self, m: u32) -> String {
        self.method_names[m as usize].clone()
    }
}
