//! Core IR data types.

use spllift_features::FeatureExpr;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a `usize` index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a class in a [`Program`].
    ClassId
);
id_type!(
    /// Identifies a method in a [`Program`].
    MethodId
);
id_type!(
    /// Identifies a field in a [`Program`].
    FieldId
);
id_type!(
    /// Identifies a local variable within one method body.
    LocalId
);

/// A reference to one statement: method plus index into the body.
///
/// Index 0 is the synthetic entry `nop` of the method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtRef {
    /// The containing method.
    pub method: MethodId,
    /// Index into the method body's statement list.
    pub index: u32,
}

impl fmt::Display for StmtRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}:{}", self.method.0, self.index)
    }
}

/// A value type. The mini-Java subset has `int`, `boolean`, class
/// references, and one-dimensional arrays thereof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit integer.
    Int,
    /// Boolean.
    Boolean,
    /// Reference to an instance of a class (or any subclass).
    Ref(ClassId),
    /// One-dimensional array of `ElemType` (no nested arrays).
    Array(ElemType),
}

/// The element type of an array (arrays of arrays are not supported).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElemType {
    /// 64-bit integer elements.
    Int,
    /// Boolean elements.
    Boolean,
    /// Reference elements.
    Ref(ClassId),
}

impl From<ElemType> for Type {
    fn from(e: ElemType) -> Type {
        match e {
            ElemType::Int => Type::Int,
            ElemType::Boolean => Type::Boolean,
            ElemType::Ref(c) => Type::Ref(c),
        }
    }
}

/// A local variable declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Local {
    /// Source-level name (for diagnostics; uniqueness not required).
    pub name: String,
    /// Declared type.
    pub ty: Type,
}

/// A simple operand: a local or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read of a local variable.
    Local(LocalId),
    /// Integer literal.
    IntConst(i64),
    /// Boolean literal.
    BoolConst(bool),
    /// The `null` reference.
    Null,
}

impl Operand {
    /// The local this operand reads, if any.
    pub fn as_local(self) -> Option<LocalId> {
        match self {
            Operand::Local(l) => Some(l),
            _ => None,
        }
    }
}

/// Binary operators of the mini-Java subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// The right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rvalue {
    /// Plain copy of an operand.
    Use(Operand),
    /// Binary operation.
    Binary(BinOp, Operand, Operand),
    /// Allocation `new C()`.
    New(ClassId),
    /// Field read `base.f` (`base = None` for a static field).
    FieldLoad {
        /// Receiver, or `None` for static fields.
        base: Option<Operand>,
        /// The field read.
        field: FieldId,
    },
    /// Array allocation `new T[len]`.
    NewArray {
        /// Element type.
        elem: ElemType,
        /// Length operand.
        len: Operand,
    },
    /// Array read `base[index]`. The analyses treat array contents with
    /// weak, index-insensitive updates (paper §6.2).
    ArrayLoad {
        /// The array reference.
        base: Operand,
        /// The index (tracked for uses, ignored for content abstraction).
        index: Operand,
    },
}

impl Rvalue {
    /// Locals read by this rvalue, in operand order.
    pub fn uses(&self) -> impl Iterator<Item = LocalId> {
        let (first, second) = match self {
            Rvalue::Use(op) => (op.as_local(), None),
            Rvalue::Binary(_, a, b) => (a.as_local(), b.as_local()),
            Rvalue::New(_) => (None, None),
            Rvalue::FieldLoad { base, .. } => (base.and_then(|b| b.as_local()), None),
            Rvalue::NewArray { len, .. } => (len.as_local(), None),
            Rvalue::ArrayLoad { base, index } => (base.as_local(), index.as_local()),
        };
        first.into_iter().chain(second)
    }
}

/// Call target of an [`StmtKind::Invoke`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Direct call to a static method (or constructor).
    Static(MethodId),
    /// Virtual dispatch on the declared type of `base`, resolved by CHA.
    Virtual {
        /// The receiver local.
        base: LocalId,
        /// The invoked method name.
        name: String,
        /// Number of (non-receiver) arguments, for overload disambiguation.
        argc: usize,
    },
}

/// A single three-address statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StmtKind {
    /// No operation (also the synthetic method entry).
    Nop,
    /// `target = rvalue`.
    Assign {
        /// Assigned local.
        target: LocalId,
        /// Right-hand side.
        rvalue: Rvalue,
    },
    /// `base.field = value` (static field when `base = None`).
    FieldStore {
        /// Receiver, or `None` for static fields.
        base: Option<Operand>,
        /// The stored-to field.
        field: FieldId,
        /// Stored value.
        value: Operand,
    },
    /// `base[index] = value` — weak, index-insensitive content update.
    ArrayStore {
        /// The array reference.
        base: Operand,
        /// The index.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// `if lhs op rhs goto target` — conditional branch; falls through to
    /// the next statement otherwise.
    If {
        /// Comparison operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Branch-target statement index within the same body.
        target: u32,
    },
    /// `goto target` — unconditional branch.
    Goto {
        /// Target statement index within the same body.
        target: u32,
    },
    /// Method call, optionally assigning the result.
    Invoke {
        /// Local receiving the return value, if any.
        result: Option<LocalId>,
        /// Call target.
        callee: Callee,
        /// Actual arguments (excluding the receiver).
        args: Vec<Operand>,
    },
    /// `return [value]` — method exit.
    Return {
        /// Returned operand, if the method is non-void.
        value: Option<Operand>,
    },
}

impl StmtKind {
    /// The local this statement writes, if any.
    pub fn def(&self) -> Option<LocalId> {
        match self {
            StmtKind::Assign { target, .. } => Some(*target),
            StmtKind::Invoke { result, .. } => *result,
            _ => None,
        }
    }

    /// Locals this statement reads.
    pub fn uses(&self) -> Vec<LocalId> {
        match self {
            StmtKind::Nop => Vec::new(),
            StmtKind::Assign { rvalue, .. } => rvalue.uses().collect(),
            StmtKind::FieldStore { base, value, .. } => base
                .and_then(|b| b.as_local())
                .into_iter()
                .chain(value.as_local())
                .collect(),
            StmtKind::ArrayStore { base, index, value } => base
                .as_local()
                .into_iter()
                .chain(index.as_local())
                .chain(value.as_local())
                .collect(),
            StmtKind::If { lhs, rhs, .. } => {
                lhs.as_local().into_iter().chain(rhs.as_local()).collect()
            }
            StmtKind::Goto { .. } => Vec::new(),
            StmtKind::Invoke { callee, args, .. } => {
                let mut v: Vec<LocalId> = args.iter().filter_map(|a| a.as_local()).collect();
                if let Callee::Virtual { base, .. } = callee {
                    v.push(*base);
                }
                v
            }
            StmtKind::Return { value } => value.and_then(|v| v.as_local()).into_iter().collect(),
        }
    }
}

/// A statement together with its feature annotation.
///
/// The annotation is the conjunction of all `#ifdef` conditions enclosing
/// the statement in the SPL source; `FeatureExpr::True` for unannotated
/// code.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stmt {
    /// The operation.
    pub kind: StmtKind,
    /// Feature condition under which the statement is present.
    pub annotation: FeatureExpr,
}

/// A method body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Body {
    /// All locals, including parameter locals.
    pub locals: Vec<Local>,
    /// The locals bound to the parameters, in parameter order.
    pub param_locals: Vec<LocalId>,
    /// The local bound to `this` for instance methods.
    pub this_local: Option<LocalId>,
    /// The statements. Index 0 is a synthetic entry `nop`; the last
    /// statement is an unannotated `return`.
    pub stmts: Vec<Stmt>,
}

/// A method declaration (possibly abstract: no body).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Method {
    /// Method name.
    pub name: String,
    /// Declaring class, if any (`None` for free functions/drivers).
    pub class: Option<ClassId>,
    /// Parameter types (excluding the receiver).
    pub params: Vec<Type>,
    /// Return type; `None` for `void`.
    pub ret: Option<Type>,
    /// `true` for static methods.
    pub is_static: bool,
    /// The body; `None` for abstract/native methods.
    pub body: Option<Body>,
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Declaring class.
    pub class: ClassId,
    /// Field type.
    pub ty: Type,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Class {
    /// Class name.
    pub name: String,
    /// Superclass, if any.
    pub superclass: Option<ClassId>,
    /// Declared fields.
    pub fields: Vec<FieldId>,
    /// Declared methods.
    pub methods: Vec<MethodId>,
}

/// Errors from IR validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A branch target is out of range.
    BadBranchTarget(StmtRef, u32),
    /// A local id is out of range for its body.
    BadLocal(StmtRef, LocalId),
    /// A method body does not end in an unannotated return.
    MissingFinalReturn(MethodId),
    /// The entry statement (index 0) is not a `nop`.
    BadEntry(MethodId),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::BadBranchTarget(s, t) => {
                write!(f, "branch target {t} out of range at {s}")
            }
            IrError::BadLocal(s, l) => write!(f, "local {l} out of range at {s}"),
            IrError::MissingFinalReturn(m) => {
                write!(f, "method {m} does not end in an unannotated return")
            }
            IrError::BadEntry(m) => write!(f, "method {m} entry statement is not a nop"),
        }
    }
}

impl std::error::Error for IrError {}

/// A whole program: classes, fields, methods, and entry points.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Program {
    pub(crate) classes: Vec<Class>,
    pub(crate) fields: Vec<Field>,
    pub(crate) methods: Vec<Method>,
    pub(crate) entry_points: Vec<MethodId>,
}

impl Program {
    /// Appends a fully formed method (used by the repro-file parser,
    /// which bypasses [`crate::ProgramBuilder`] because bodies arrive
    /// complete with their synthetic entry and final return).
    pub(crate) fn push_method(&mut self, m: Method) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(m);
        id
    }

    /// Appends an entry point (repro-file parser hook).
    pub(crate) fn push_entry_point(&mut self, m: MethodId) {
        self.entry_points.push(m);
    }

    /// All classes, indexable by [`ClassId`].
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// All fields, indexable by [`FieldId`].
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// All methods, indexable by [`MethodId`].
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// The declared analysis entry points.
    pub fn entry_points(&self) -> &[MethodId] {
        &self.entry_points
    }

    /// The class with id `c`.
    pub fn class(&self, c: ClassId) -> &Class {
        &self.classes[c.index()]
    }

    /// The field with id `f`.
    pub fn field(&self, f: FieldId) -> &Field {
        &self.fields[f.index()]
    }

    /// The method with id `m`.
    pub fn method(&self, m: MethodId) -> &Method {
        &self.methods[m.index()]
    }

    /// The body of `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` has no body.
    pub fn body(&self, m: MethodId) -> &Body {
        self.methods[m.index()]
            .body
            .as_ref()
            .unwrap_or_else(|| panic!("method {m} has no body"))
    }

    /// Mutable access to the body of `m` — the hook the structural
    /// mutators and the test-case reducer use to edit programs in place.
    /// Callers are expected to re-validate with [`Program::check`] after
    /// a batch of edits.
    ///
    /// # Panics
    ///
    /// Panics if `m` has no body.
    pub fn body_mut(&mut self, m: MethodId) -> &mut Body {
        self.methods[m.index()]
            .body
            .as_mut()
            .unwrap_or_else(|| panic!("method {m} has no body"))
    }

    /// The statement referred to by `s`.
    pub fn stmt(&self, s: StmtRef) -> &Stmt {
        &self.body(s.method).stmts[s.index as usize]
    }

    /// Mutable access to the statement referred to by `s`.
    pub fn stmt_mut(&mut self, s: StmtRef) -> &mut Stmt {
        &mut self.body_mut(s.method).stmts[s.index as usize]
    }

    /// Method ids whose method has a body, in declaration order.
    pub fn methods_with_body(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.methods
            .iter()
            .enumerate()
            .filter(|(_, m)| m.body.is_some())
            .map(|(i, _)| MethodId(i as u32))
    }

    /// The synthetic entry statement of `m`.
    pub fn entry_of(&self, m: MethodId) -> StmtRef {
        StmtRef {
            method: m,
            index: 0,
        }
    }

    /// Iterates over all statements of `m`.
    pub fn stmts_of(&self, m: MethodId) -> impl Iterator<Item = StmtRef> + '_ {
        let n = self.body(m).stmts.len() as u32;
        (0..n).map(move |index| StmtRef { method: m, index })
    }

    /// Looks up a method by `Class.name` notation (or bare name for
    /// classless methods). Returns the first match.
    pub fn find_method(&self, qualified: &str) -> Option<MethodId> {
        let (class_name, meth_name) = match qualified.split_once('.') {
            Some((c, m)) => (Some(c), m),
            None => (None, qualified),
        };
        self.methods.iter().enumerate().find_map(|(i, m)| {
            let class_ok = match (class_name, m.class) {
                (None, None) => true,
                (Some(cn), Some(cid)) => self.classes[cid.index()].name == cn,
                _ => class_name.is_none(),
            };
            (class_ok && m.name == meth_name).then_some(MethodId(i as u32))
        })
    }

    /// Looks up a class by name.
    pub fn find_class(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// Intra-procedural successors of `s` in the *product-line* CFG:
    /// both branch outcomes for `if`, the target for `goto`, nothing after
    /// `return`, and fall-through otherwise.
    pub fn successors_of(&self, s: StmtRef) -> impl Iterator<Item = StmtRef> {
        let at = |index: u32| StmtRef {
            method: s.method,
            index,
        };
        let next = self.fall_through_of(s);
        let (first, second) = match &self.stmt(s).kind {
            StmtKind::Return { .. } => (None, None),
            StmtKind::Goto { target } => (Some(at(*target)), None),
            StmtKind::If { target, .. } => (next, Some(at(*target))),
            _ => (next, None),
        };
        first.into_iter().chain(second)
    }

    /// The fall-through successor (`index + 1`), if in range. This is the
    /// successor a *disabled* statement falls through to (paper Fig. 4).
    pub fn fall_through_of(&self, s: StmtRef) -> Option<StmtRef> {
        let body = self.body(s.method);
        (((s.index + 1) as usize) < body.stmts.len()).then_some(StmtRef {
            method: s.method,
            index: s.index + 1,
        })
    }

    /// The branch target of an `if`/`goto`, if `s` is a branch.
    pub fn branch_target_of(&self, s: StmtRef) -> Option<StmtRef> {
        match &self.stmt(s).kind {
            StmtKind::If { target, .. } | StmtKind::Goto { target } => Some(StmtRef {
                method: s.method,
                index: *target,
            }),
            _ => None,
        }
    }

    /// Number of statements across all bodies.
    pub fn stmt_count(&self) -> usize {
        self.methods
            .iter()
            .filter_map(|m| m.body.as_ref())
            .map(|b| b.stmts.len())
            .sum()
    }

    /// Validates structural invariants (branch targets, locals, final
    /// returns, entry nops).
    ///
    /// # Errors
    ///
    /// The first violated invariant, as an [`IrError`].
    pub fn check(&self) -> Result<(), IrError> {
        for (mi, m) in self.methods.iter().enumerate() {
            let mid = MethodId(mi as u32);
            let Some(body) = &m.body else { continue };
            if !matches!(body.stmts.first().map(|s| &s.kind), Some(StmtKind::Nop)) {
                return Err(IrError::BadEntry(mid));
            }
            match body.stmts.last() {
                Some(Stmt {
                    kind: StmtKind::Return { .. },
                    annotation,
                }) if *annotation == FeatureExpr::True => {}
                _ => return Err(IrError::MissingFinalReturn(mid)),
            }
            for (i, stmt) in body.stmts.iter().enumerate() {
                let sref = StmtRef {
                    method: mid,
                    index: i as u32,
                };
                let check_local = |l: LocalId| -> Result<(), IrError> {
                    if l.index() < body.locals.len() {
                        Ok(())
                    } else {
                        Err(IrError::BadLocal(sref, l))
                    }
                };
                if let Some(d) = stmt.kind.def() {
                    check_local(d)?;
                }
                for u in stmt.kind.uses() {
                    check_local(u)?;
                }
                if let StmtKind::If { target, .. } | StmtKind::Goto { target } = &stmt.kind {
                    if (*target as usize) >= body.stmts.len() {
                        return Err(IrError::BadBranchTarget(sref, *target));
                    }
                }
            }
        }
        Ok(())
    }
}
