//! Programmatic construction of [`Program`]s.

use crate::types::*;
use spllift_features::FeatureExpr;

/// A forward-referencable branch label inside a [`MethodBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Builds a [`Program`]: declare classes, fields, and method signatures
/// first (so calls can reference them), then define bodies.
///
/// # Example
///
/// ```
/// use spllift_ir::{Operand, ProgramBuilder, Rvalue, Type};
///
/// let mut pb = ProgramBuilder::new();
/// let main = pb.declare_method("main", None, &[], None, true);
/// let mut mb = pb.method_body(main);
/// let x = mb.local("x", Type::Int);
/// mb.assign(x, Rvalue::Use(Operand::IntConst(1)));
/// mb.ret(None);
/// pb.finish_body(mb);
/// pb.add_entry_point(main);
/// let program = pb.finish();
/// assert!(program.check().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a class; `superclass` must already exist.
    pub fn add_class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        let id = ClassId(self.program.classes.len() as u32);
        self.program.classes.push(Class {
            name: name.to_owned(),
            superclass,
            fields: Vec::new(),
            methods: Vec::new(),
        });
        id
    }

    /// Sets (or replaces) the superclass of `class` after the fact —
    /// useful when classes are declared in one pass and linked in a
    /// second, as source order need not be topological.
    pub fn set_superclass(&mut self, class: ClassId, superclass: Option<ClassId>) {
        self.program.classes[class.index()].superclass = superclass;
    }

    /// Declares a field on `class`.
    pub fn add_field(&mut self, class: ClassId, name: &str, ty: Type) -> FieldId {
        let id = FieldId(self.program.fields.len() as u32);
        self.program.fields.push(Field {
            name: name.to_owned(),
            class,
            ty,
        });
        self.program.classes[class.index()].fields.push(id);
        id
    }

    /// Declares a method signature (no body yet).
    pub fn declare_method(
        &mut self,
        name: &str,
        class: Option<ClassId>,
        params: &[Type],
        ret: Option<Type>,
        is_static: bool,
    ) -> MethodId {
        let id = MethodId(self.program.methods.len() as u32);
        self.program.methods.push(Method {
            name: name.to_owned(),
            class,
            params: params.to_vec(),
            ret,
            is_static,
            body: None,
        });
        if let Some(c) = class {
            self.program.classes[c.index()].methods.push(id);
        }
        id
    }

    /// Starts building the body of a previously declared method. Parameter
    /// locals (and `this` for instance methods) are created automatically,
    /// and a synthetic entry `nop` is inserted at index 0.
    pub fn method_body(&self, method: MethodId) -> MethodBuilder {
        let m = &self.program.methods[method.index()];
        let mut locals = Vec::new();
        let this_local = match m.class {
            Some(class) if !m.is_static => {
                locals.push(Local {
                    name: "this".into(),
                    ty: Type::Ref(class),
                });
                Some(LocalId(0))
            }
            _ => None,
        };
        let mut param_locals = Vec::new();
        for (i, &ty) in m.params.iter().enumerate() {
            let id = LocalId(locals.len() as u32);
            locals.push(Local {
                name: format!("p{i}"),
                ty,
            });
            param_locals.push(id);
        }
        MethodBuilder {
            method,
            locals,
            param_locals,
            this_local,
            stmts: vec![Stmt {
                kind: StmtKind::Nop,
                annotation: FeatureExpr::True,
            }],
            labels: Vec::new(),
            fixups: Vec::new(),
            annotation_stack: Vec::new(),
        }
    }

    /// Installs a finished body. Appends the final unannotated `return`
    /// if the builder did not end with one, and resolves labels.
    ///
    /// # Panics
    ///
    /// Panics if a label was used but never bound.
    pub fn finish_body(&mut self, mb: MethodBuilder) {
        let body = mb.into_body();
        self.program.methods[body.0.index()].body = Some(body.1);
    }

    /// Marks `m` as an analysis entry point.
    pub fn add_entry_point(&mut self, m: MethodId) {
        self.program.entry_points.push(m);
    }

    /// Finishes construction.
    pub fn finish(self) -> Program {
        self.program
    }
}

/// Builds one method body. Create with [`ProgramBuilder::method_body`].
#[derive(Debug)]
pub struct MethodBuilder {
    method: MethodId,
    locals: Vec<Local>,
    param_locals: Vec<LocalId>,
    this_local: Option<LocalId>,
    stmts: Vec<Stmt>,
    /// label id → bound statement index (u32::MAX = unbound).
    labels: Vec<u32>,
    /// (stmt index with placeholder target, label id).
    fixups: Vec<(usize, u32)>,
    annotation_stack: Vec<FeatureExpr>,
}

impl MethodBuilder {
    /// The locals bound to parameters, in order.
    pub fn param_local(&self, i: usize) -> LocalId {
        self.param_locals[i]
    }

    /// The `this` local, for instance methods.
    pub fn this_local(&self) -> Option<LocalId> {
        self.this_local
    }

    /// Declares a fresh local.
    pub fn local(&mut self, name: &str, ty: Type) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(Local {
            name: name.to_owned(),
            ty,
        });
        id
    }

    /// Current feature annotation (conjunction of the pushed stack).
    fn current_annotation(&self) -> FeatureExpr {
        self.annotation_stack
            .iter()
            .cloned()
            .fold(FeatureExpr::True, FeatureExpr::and)
    }

    /// Enters an `#ifdef expr` region: statements emitted until the
    /// matching [`pop_annotation`](Self::pop_annotation) carry `expr`
    /// (conjoined with any enclosing region).
    pub fn push_annotation(&mut self, expr: FeatureExpr) {
        self.annotation_stack.push(expr);
    }

    /// Leaves the innermost `#ifdef` region.
    ///
    /// # Panics
    ///
    /// Panics if no region is open.
    pub fn pop_annotation(&mut self) {
        self.annotation_stack
            .pop()
            .expect("pop_annotation without matching push");
    }

    fn push_stmt(&mut self, kind: StmtKind) -> u32 {
        let idx = self.stmts.len() as u32;
        self.stmts.push(Stmt {
            kind,
            annotation: self.current_annotation(),
        });
        idx
    }

    /// Emits a `nop`.
    pub fn nop(&mut self) -> u32 {
        self.push_stmt(StmtKind::Nop)
    }

    /// Emits `target = rvalue`.
    pub fn assign(&mut self, target: LocalId, rvalue: Rvalue) -> u32 {
        self.push_stmt(StmtKind::Assign { target, rvalue })
    }

    /// Emits a field store.
    pub fn field_store(&mut self, base: Option<Operand>, field: FieldId, value: Operand) -> u32 {
        self.push_stmt(StmtKind::FieldStore { base, field, value })
    }

    /// Emits `base[index] = value`.
    pub fn array_store(&mut self, base: Operand, index: Operand, value: Operand) -> u32 {
        self.push_stmt(StmtKind::ArrayStore { base, index, value })
    }

    /// Emits an invoke.
    pub fn invoke(&mut self, result: Option<LocalId>, callee: Callee, args: Vec<Operand>) -> u32 {
        self.push_stmt(StmtKind::Invoke {
            result,
            callee,
            args,
        })
    }

    /// Emits `return [value]`.
    pub fn ret(&mut self, value: Option<Operand>) -> u32 {
        self.push_stmt(StmtKind::Return { value })
    }

    /// Creates a label for later binding.
    pub fn fresh_label(&mut self) -> Label {
        let id = self.labels.len() as u32;
        self.labels.push(u32::MAX);
        Label(id)
    }

    /// Binds `label` to the next statement to be emitted.
    pub fn bind(&mut self, label: Label) {
        self.labels[label.0 as usize] = self.stmts.len() as u32;
    }

    /// Emits `if lhs op rhs goto label`.
    pub fn if_cmp(&mut self, op: BinOp, lhs: Operand, rhs: Operand, label: Label) -> u32 {
        let idx = self.push_stmt(StmtKind::If {
            op,
            lhs,
            rhs,
            target: u32::MAX,
        });
        self.fixups.push((idx as usize, label.0));
        idx
    }

    /// Emits `goto label`.
    pub fn goto(&mut self, label: Label) -> u32 {
        let idx = self.push_stmt(StmtKind::Goto { target: u32::MAX });
        self.fixups.push((idx as usize, label.0));
        idx
    }

    fn into_body(mut self) -> (MethodId, Body) {
        // Guarantee an unannotated final return (the fall-through anchor
        // for disabled trailing statements).
        let needs_ret = !matches!(
            self.stmts.last(),
            Some(Stmt { kind: StmtKind::Return { .. }, annotation })
                if *annotation == FeatureExpr::True
        );
        if needs_ret {
            self.stmts.push(Stmt {
                kind: StmtKind::Return { value: None },
                annotation: FeatureExpr::True,
            });
        }
        // Labels bound past the end point at the final return.
        let last = (self.stmts.len() - 1) as u32;
        for (idx, label) in self.fixups {
            let mut bound = self.labels[label as usize];
            assert_ne!(bound, u32::MAX, "label {label} used but never bound");
            if bound >= self.stmts.len() as u32 {
                bound = last;
            }
            match &mut self.stmts[idx].kind {
                StmtKind::If { target, .. } | StmtKind::Goto { target } => {
                    *target = bound;
                }
                _ => unreachable!("fixup on non-branch"),
            }
        }
        (
            self.method,
            Body {
                locals: self.locals,
                param_locals: self.param_locals,
                this_local: self.this_local,
                stmts: self.stmts,
            },
        )
    }
}
