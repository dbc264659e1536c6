//! Lowering the AST to the three-address IR.

use crate::ast::*;
use crate::{FrontendError, Pos};
use spllift_ir::{
    BinOp, Callee, ClassId, ElemType, FieldId, LocalId, MethodBuilder, MethodId, Operand, Program,
    ProgramBuilder, Rvalue, Type,
};
use std::collections::HashMap;

/// Lowers a parsed program to the IR. Every method named `main` becomes
/// an analysis entry point.
///
/// # Errors
///
/// Reports unresolved names, duplicate declarations, arity mismatches,
/// and structurally invalid uses, each with a source position.
pub fn lower_program(ast: &AstProgram) -> Result<Program, FrontendError> {
    let mut pb = ProgramBuilder::new();
    let mut ctx = GlobalCtx::default();

    // Pass 1: declare classes.
    for c in &ast.classes {
        if ctx.classes.contains_key(&c.name) {
            return Err(FrontendError::new(
                format!("duplicate class `{}`", c.name),
                c.pos,
            ));
        }
        let id = pb.add_class(&c.name, None);
        ctx.classes.insert(c.name.clone(), id);
    }
    // Pass 2: link superclasses, declare fields and method signatures.
    for c in &ast.classes {
        let cid = ctx.classes[&c.name];
        if let Some(sup) = &c.superclass {
            let sup_id = *ctx
                .classes
                .get(sup)
                .ok_or_else(|| FrontendError::new(format!("unknown superclass `{sup}`"), c.pos))?;
            pb.set_superclass(cid, Some(sup_id));
        }
        for f in &c.fields {
            let ty = ctx.resolve_type(&f.ty, f.pos)?;
            let fid = pb.add_field(cid, &f.name, ty);
            ctx.fields.insert((cid, f.name.clone()), fid);
        }
        for m in &c.methods {
            let params: Vec<Type> = m
                .params
                .iter()
                .map(|(_, t)| ctx.resolve_type(t, m.pos))
                .collect::<Result<_, _>>()?;
            let ret = m
                .ret
                .as_ref()
                .map(|t| ctx.resolve_type(t, m.pos))
                .transpose()?;
            let mid = pb.declare_method(&m.name, Some(cid), &params, ret, m.is_static);
            ctx.methods
                .entry((c.name.clone(), m.name.clone()))
                .or_insert(mid);
            ctx.methods_by_name
                .entry(m.name.clone())
                .or_default()
                .push(mid);
        }
    }
    // Pass 3: lower bodies.
    let classes_by_name: HashMap<&str, &AstClass> =
        ast.classes.iter().map(|c| (c.name.as_str(), c)).collect();
    for c in &ast.classes {
        for m in &c.methods {
            let mid = ctx.methods[&(c.name.clone(), m.name.clone())];
            let mut mb = pb.method_body(mid);
            let mut env = Env::new(&ctx, &classes_by_name, c, m, &mut mb)?;
            for stmt in &m.body {
                env.lower_stmt(&mut mb, stmt)?;
            }
            pb.finish_body(mb);
            if m.name == "main" {
                pb.add_entry_point(mid);
            }
        }
    }
    let program = pb.finish();
    debug_assert!(program.check().is_ok(), "{:?}", program.check());
    Ok(program)
}

/// Program-wide name tables.
#[derive(Default)]
struct GlobalCtx {
    classes: HashMap<String, ClassId>,
    fields: HashMap<(ClassId, String), FieldId>,
    methods: HashMap<(String, String), MethodId>,
    methods_by_name: HashMap<String, Vec<MethodId>>,
}

impl GlobalCtx {
    fn resolve_type(&self, t: &AstType, pos: Pos) -> Result<Type, FrontendError> {
        Ok(match t {
            AstType::Int => Type::Int,
            AstType::Boolean => Type::Boolean,
            AstType::Class(name) => Type::Ref(
                *self
                    .classes
                    .get(name)
                    .ok_or_else(|| FrontendError::new(format!("unknown class `{name}`"), pos))?,
            ),
            AstType::Array(elem) => Type::Array(self.resolve_elem_type(elem, pos)?),
        })
    }

    fn resolve_elem_type(&self, t: &AstType, pos: Pos) -> Result<ElemType, FrontendError> {
        Ok(match t {
            AstType::Int => ElemType::Int,
            AstType::Boolean => ElemType::Boolean,
            AstType::Class(name) => ElemType::Ref(
                *self
                    .classes
                    .get(name)
                    .ok_or_else(|| FrontendError::new(format!("unknown class `{name}`"), pos))?,
            ),
            AstType::Array(_) => {
                return Err(FrontendError::new("nested arrays are not supported", pos))
            }
        })
    }

    /// Resolves a field by name, walking up from `class` (superclass
    /// chain lookup happens at IR build time via class links, so here we
    /// search the maps directly per class — the AST gives us names only).
    fn resolve_field(
        &self,
        class_name: &str,
        field: &str,
        classes: &HashMap<&str, &AstClass>,
        pos: Pos,
    ) -> Result<FieldId, FrontendError> {
        let mut cur = Some(class_name.to_owned());
        while let Some(name) = cur {
            let cid = self.classes[&name];
            if let Some(&fid) = self.fields.get(&(cid, field.to_owned())) {
                return Ok(fid);
            }
            cur = classes
                .get(name.as_str())
                .and_then(|c| c.superclass.clone());
        }
        Err(FrontendError::new(
            format!("no field `{field}` in class `{class_name}` or its superclasses"),
            pos,
        ))
    }
}

/// Per-method lowering environment.
struct Env<'c, 'a> {
    ctx: &'c GlobalCtx,
    classes_by_name: &'c HashMap<&'a str, &'a AstClass>,
    class: &'a AstClass,
    /// Lexical scopes: name → (local, declared source type).
    scopes: Vec<HashMap<String, (LocalId, AstType)>>,
    temp_counter: u32,
}

impl<'c, 'a> Env<'c, 'a> {
    fn new(
        ctx: &'c GlobalCtx,
        classes_by_name: &'c HashMap<&'a str, &'a AstClass>,
        class: &'a AstClass,
        method: &'a AstMethod,
        mb: &mut MethodBuilder,
    ) -> Result<Self, FrontendError> {
        let mut env = Env {
            ctx,
            classes_by_name,
            class,
            scopes: vec![HashMap::new()],
            temp_counter: 0,
        };
        if !method.is_static {
            if let Some(this) = mb.this_local() {
                env.scopes[0].insert(
                    "this".to_owned(),
                    (this, AstType::Class(class.name.clone())),
                );
            }
        }
        for (i, (name, ty)) in method.params.iter().enumerate() {
            let dup = env.scopes[0]
                .insert(name.clone(), (mb.param_local(i), ty.clone()))
                .is_some();
            if dup {
                return Err(FrontendError::new(
                    format!("duplicate parameter `{name}`"),
                    method.pos,
                ));
            }
        }
        Ok(env)
    }

    fn lookup(&self, name: &str) -> Option<(LocalId, AstType)> {
        self.scopes.iter().rev().find_map(|s| s.get(name).cloned())
    }

    fn fresh_temp(&mut self, mb: &mut MethodBuilder, ty: Type) -> LocalId {
        self.temp_counter += 1;
        mb.local(&format!("$t{}", self.temp_counter), ty)
    }

    // --- statements ---------------------------------------------------

    fn lower_stmt(&mut self, mb: &mut MethodBuilder, stmt: &AstStmt) -> Result<(), FrontendError> {
        match stmt {
            AstStmt::LocalDecl {
                name,
                ty,
                init,
                pos,
            } => {
                if self.scopes.last().unwrap().contains_key(name) {
                    return Err(FrontendError::new(
                        format!("duplicate local `{name}`"),
                        *pos,
                    ));
                }
                let ir_ty = self.ctx.resolve_type(ty, *pos)?;
                let local = mb.local(name, ir_ty);
                self.scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), (local, ty.clone()));
                if let Some(e) = init {
                    self.lower_expr_into(mb, local, e)?;
                }
                Ok(())
            }
            AstStmt::Assign { target, value, pos } => match target {
                AstLValue::Local(name) => {
                    let (local, _) = self.lookup(name).ok_or_else(|| {
                        FrontendError::new(format!("unknown variable `{name}`"), *pos)
                    })?;
                    self.lower_expr_into(mb, local, value)
                }
                AstLValue::Field { base, field } => {
                    let (base_op, fid) = self.resolve_field_access(mb, base, field, *pos)?;
                    let v = self.lower_expr(mb, value)?;
                    mb.field_store(base_op, fid, v);
                    Ok(())
                }
                AstLValue::Index { base, index } => {
                    let (arr, _) = self.lookup(base).ok_or_else(|| {
                        FrontendError::new(format!("unknown variable `{base}`"), *pos)
                    })?;
                    let idx = self.lower_expr(mb, index)?;
                    let v = self.lower_expr(mb, value)?;
                    mb.array_store(Operand::Local(arr), idx, v);
                    Ok(())
                }
            },
            AstStmt::Expr(e, pos) => {
                let AstExpr::Call {
                    receiver,
                    method,
                    args,
                    ..
                } = e
                else {
                    return Err(FrontendError::new(
                        "only calls may be used as statements",
                        *pos,
                    ));
                };
                let (callee, ops) = self.lower_call_parts(mb, receiver, method, args, *pos)?;
                mb.invoke(None, callee, ops);
                Ok(())
            }
            AstStmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.lower_expr(mb, cond)?;
                let else_l = mb.fresh_label();
                let end_l = mb.fresh_label();
                mb.if_cmp(BinOp::Eq, c, Operand::BoolConst(false), else_l);
                self.scoped(mb, then_body)?;
                mb.goto(end_l);
                mb.bind(else_l);
                self.scoped(mb, else_body)?;
                mb.bind(end_l);
                Ok(())
            }
            AstStmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                // Java-style: the init declaration is scoped to the loop.
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.lower_stmt(mb, i)?;
                }
                let head = mb.fresh_label();
                let end = mb.fresh_label();
                mb.bind(head);
                let c = self.lower_expr(mb, cond)?;
                mb.if_cmp(BinOp::Eq, c, Operand::BoolConst(false), end);
                for s in body {
                    self.lower_stmt(mb, s)?;
                }
                if let Some(u) = update {
                    self.lower_stmt(mb, u)?;
                }
                mb.goto(head);
                mb.bind(end);
                self.scopes.pop();
                Ok(())
            }
            AstStmt::While { cond, body, .. } => {
                let head = mb.fresh_label();
                let end = mb.fresh_label();
                mb.bind(head);
                let c = self.lower_expr(mb, cond)?;
                mb.if_cmp(BinOp::Eq, c, Operand::BoolConst(false), end);
                self.scoped(mb, body)?;
                mb.goto(head);
                mb.bind(end);
                Ok(())
            }
            AstStmt::Return(value, _) => {
                let op = value.as_ref().map(|e| self.lower_expr(mb, e)).transpose()?;
                mb.ret(op);
                Ok(())
            }
            AstStmt::Ifdef {
                cond,
                then_body,
                else_body,
                ..
            } => {
                // CPP-style: #ifdef does NOT open a variable scope, so a
                // declaration inside it stays visible afterwards — which
                // is precisely how the paper's §1 "possibly undefined
                // variable" SPL bugs arise.
                mb.push_annotation(cond.clone());
                for s in then_body {
                    self.lower_stmt(mb, s)?;
                }
                mb.pop_annotation();
                if !else_body.is_empty() {
                    mb.push_annotation(cond.clone().not());
                    for s in else_body {
                        self.lower_stmt(mb, s)?;
                    }
                    mb.pop_annotation();
                }
                Ok(())
            }
        }
    }

    fn scoped(&mut self, mb: &mut MethodBuilder, body: &[AstStmt]) -> Result<(), FrontendError> {
        self.scopes.push(HashMap::new());
        for s in body {
            self.lower_stmt(mb, s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    // --- expressions ----------------------------------------------------

    /// Lowers `e` directly into `target` where profitable (calls, `new`,
    /// field loads, binaries), otherwise via [`lower_expr`].
    fn lower_expr_into(
        &mut self,
        mb: &mut MethodBuilder,
        target: LocalId,
        e: &AstExpr,
    ) -> Result<(), FrontendError> {
        match e {
            AstExpr::Call {
                receiver,
                method,
                args,
                pos,
            } => {
                let (callee, ops) = self.lower_call_parts(mb, receiver, method, args, *pos)?;
                mb.invoke(Some(target), callee, ops);
                Ok(())
            }
            AstExpr::New(class, pos) => {
                let cid =
                    *self.ctx.classes.get(class).ok_or_else(|| {
                        FrontendError::new(format!("unknown class `{class}`"), *pos)
                    })?;
                mb.assign(target, Rvalue::New(cid));
                Ok(())
            }
            AstExpr::Field { base, field, pos } => {
                let (base_op, fid) = self.resolve_field_access(mb, base, field, *pos)?;
                mb.assign(
                    target,
                    Rvalue::FieldLoad {
                        base: base_op,
                        field: fid,
                    },
                );
                Ok(())
            }
            AstExpr::NewArray { elem, len, pos } => {
                let e = self.ctx.resolve_elem_type(elem, *pos)?;
                let n = self.lower_expr(mb, len)?;
                mb.assign(target, Rvalue::NewArray { elem: e, len: n });
                Ok(())
            }
            AstExpr::Index { base, index, pos } => {
                let (arr, _) = self.lookup(base).ok_or_else(|| {
                    FrontendError::new(format!("unknown variable `{base}`"), *pos)
                })?;
                let idx = self.lower_expr(mb, index)?;
                mb.assign(
                    target,
                    Rvalue::ArrayLoad {
                        base: Operand::Local(arr),
                        index: idx,
                    },
                );
                Ok(())
            }
            AstExpr::Binary { op, lhs, rhs } if !matches!(op, AstBinOp::And | AstBinOp::Or) => {
                let a = self.lower_expr(mb, lhs)?;
                let b = self.lower_expr(mb, rhs)?;
                mb.assign(target, Rvalue::Binary(lower_binop(*op), a, b));
                Ok(())
            }
            other => {
                let op = self.lower_expr(mb, other)?;
                mb.assign(target, Rvalue::Use(op));
                Ok(())
            }
        }
    }

    fn lower_expr(
        &mut self,
        mb: &mut MethodBuilder,
        e: &AstExpr,
    ) -> Result<Operand, FrontendError> {
        match e {
            AstExpr::Int(v) => Ok(Operand::IntConst(*v)),
            AstExpr::Bool(b) => Ok(Operand::BoolConst(*b)),
            AstExpr::Null => Ok(Operand::Null),
            AstExpr::Local(name, pos) => {
                let (local, _) = self.lookup(name).ok_or_else(|| {
                    FrontendError::new(format!("unknown variable `{name}`"), *pos)
                })?;
                Ok(Operand::Local(local))
            }
            AstExpr::Unary {
                op: AstUnOp::Not,
                expr,
            } => {
                let a = self.lower_expr(mb, expr)?;
                let t = self.fresh_temp(mb, Type::Boolean);
                mb.assign(t, Rvalue::Binary(BinOp::Eq, a, Operand::BoolConst(false)));
                Ok(Operand::Local(t))
            }
            AstExpr::Unary {
                op: AstUnOp::Neg,
                expr,
            } => {
                let a = self.lower_expr(mb, expr)?;
                let t = self.fresh_temp(mb, Type::Int);
                mb.assign(t, Rvalue::Binary(BinOp::Sub, Operand::IntConst(0), a));
                Ok(Operand::Local(t))
            }
            AstExpr::Binary {
                op: AstBinOp::And,
                lhs,
                rhs,
            } => {
                // Short-circuit: t = false; if (a == false) goto end;
                // t = b; end:
                let t = self.fresh_temp(mb, Type::Boolean);
                mb.assign(t, Rvalue::Use(Operand::BoolConst(false)));
                let end = mb.fresh_label();
                let a = self.lower_expr(mb, lhs)?;
                mb.if_cmp(BinOp::Eq, a, Operand::BoolConst(false), end);
                self.lower_expr_into(mb, t, rhs)?;
                mb.bind(end);
                Ok(Operand::Local(t))
            }
            AstExpr::Binary {
                op: AstBinOp::Or,
                lhs,
                rhs,
            } => {
                let t = self.fresh_temp(mb, Type::Boolean);
                mb.assign(t, Rvalue::Use(Operand::BoolConst(true)));
                let end = mb.fresh_label();
                let a = self.lower_expr(mb, lhs)?;
                mb.if_cmp(BinOp::Eq, a, Operand::BoolConst(true), end);
                self.lower_expr_into(mb, t, rhs)?;
                mb.bind(end);
                Ok(Operand::Local(t))
            }
            AstExpr::Binary { op, lhs, rhs } => {
                let a = self.lower_expr(mb, lhs)?;
                let b = self.lower_expr(mb, rhs)?;
                let ty = match op {
                    AstBinOp::Add
                    | AstBinOp::Sub
                    | AstBinOp::Mul
                    | AstBinOp::Div
                    | AstBinOp::Rem => Type::Int,
                    _ => Type::Boolean,
                };
                let t = self.fresh_temp(mb, ty);
                mb.assign(t, Rvalue::Binary(lower_binop(*op), a, b));
                Ok(Operand::Local(t))
            }
            AstExpr::New(..)
            | AstExpr::NewArray { .. }
            | AstExpr::Index { .. }
            | AstExpr::Field { .. }
            | AstExpr::Call { .. } => {
                let ty = self.static_type_of(e)?;
                let t = self.fresh_temp(mb, ty);
                self.lower_expr_into(mb, t, e)?;
                Ok(Operand::Local(t))
            }
        }
    }

    /// The IR type of a compound expression, for temp creation.
    fn static_type_of(&self, e: &AstExpr) -> Result<Type, FrontendError> {
        match e {
            AstExpr::New(class, pos) => {
                let cid =
                    *self.ctx.classes.get(class).ok_or_else(|| {
                        FrontendError::new(format!("unknown class `{class}`"), *pos)
                    })?;
                Ok(Type::Ref(cid))
            }
            AstExpr::Field { base, field, pos } => {
                let class_name = self.base_class_name(base, *pos)?;
                self.field_ast_type(&class_name, field, *pos)
            }
            AstExpr::NewArray { elem, pos, .. } => {
                Ok(Type::Array(self.ctx.resolve_elem_type(elem, *pos)?))
            }
            AstExpr::Index { base, pos, .. } => match self.lookup(base) {
                Some((_, AstType::Array(elem))) => {
                    Ok(self.ctx.resolve_elem_type(&elem, *pos)?.into())
                }
                Some(_) => Err(FrontendError::new(
                    format!("`{base}` is not an array"),
                    *pos,
                )),
                None => Err(FrontendError::new(
                    format!("unknown variable `{base}`"),
                    *pos,
                )),
            },
            AstExpr::Call {
                receiver,
                method,
                args,
                pos,
            } => {
                let mid = self.resolve_callee_id(receiver, method, args.len(), *pos)?;
                let _ = mid;
                self.method_ret_type(receiver, method, args.len(), *pos)
            }
            _ => Ok(Type::Int),
        }
    }

    fn field_ast_type(
        &self,
        class_name: &str,
        field: &str,
        pos: Pos,
    ) -> Result<Type, FrontendError> {
        let mut cur = Some(class_name.to_owned());
        while let Some(name) = cur {
            if let Some(c) = self.classes_by_name.get(name.as_str()) {
                if let Some(f) = c.fields.iter().find(|f| f.name == field) {
                    return self.ctx.resolve_type(&f.ty, pos);
                }
                cur = c.superclass.clone();
            } else {
                break;
            }
        }
        Err(FrontendError::new(format!("no field `{field}`"), pos))
    }

    fn method_ret_type(
        &self,
        receiver: &Option<String>,
        method: &str,
        argc: usize,
        pos: Pos,
    ) -> Result<Type, FrontendError> {
        let class_name = match receiver {
            None => self.class.name.clone(),
            Some(r) => match self.lookup(r) {
                Some((_, AstType::Class(cn))) => cn,
                Some(_) => {
                    return Err(FrontendError::new(
                        format!("`{r}` is not of class type"),
                        pos,
                    ))
                }
                None => r.clone(),
            },
        };
        let mut cur = Some(class_name);
        while let Some(name) = cur {
            if let Some(c) = self.classes_by_name.get(name.as_str()) {
                if let Some(m) = c
                    .methods
                    .iter()
                    .find(|m| m.name == method && m.params.len() == argc)
                {
                    return match &m.ret {
                        Some(t) => self.ctx.resolve_type(t, pos),
                        None => Err(FrontendError::new(
                            format!("void method `{method}` used as a value"),
                            pos,
                        )),
                    };
                }
                cur = c.superclass.clone();
            } else {
                break;
            }
        }
        // Fall back to a global unique match.
        for c in self.classes_by_name.values() {
            if let Some(m) = c
                .methods
                .iter()
                .find(|m| m.name == method && m.params.len() == argc)
            {
                return match &m.ret {
                    Some(t) => self.ctx.resolve_type(t, pos),
                    None => Err(FrontendError::new(
                        format!("void method `{method}` used as a value"),
                        pos,
                    )),
                };
            }
        }
        Err(FrontendError::new(
            format!("unknown method `{method}`"),
            pos,
        ))
    }

    /// Resolves a call's [`Callee`] and lowers its arguments.
    fn lower_call_parts(
        &mut self,
        mb: &mut MethodBuilder,
        receiver: &Option<String>,
        method: &str,
        args: &[AstExpr],
        pos: Pos,
    ) -> Result<(Callee, Vec<Operand>), FrontendError> {
        let ops: Vec<Operand> = args
            .iter()
            .map(|a| self.lower_expr(mb, a))
            .collect::<Result<_, _>>()?;
        let callee = match receiver {
            Some(r) => {
                if let Some((local, ty)) = self.lookup(r) {
                    match ty {
                        AstType::Class(_) => Callee::Virtual {
                            base: local,
                            name: method.to_owned(),
                            argc: args.len(),
                        },
                        _ => {
                            return Err(FrontendError::new(
                                format!("`{r}` is not of class type"),
                                pos,
                            ))
                        }
                    }
                } else {
                    // Class-name receiver: static call.
                    Callee::Static(self.resolve_static(r, method, pos)?)
                }
            }
            None => Callee::Static(self.resolve_callee_id(receiver, method, args.len(), pos)?),
        };
        Ok((callee, ops))
    }

    fn resolve_static(
        &self,
        class_name: &str,
        method: &str,
        pos: Pos,
    ) -> Result<MethodId, FrontendError> {
        let mut cur = Some(class_name.to_owned());
        while let Some(name) = cur {
            if !self.ctx.classes.contains_key(&name) {
                return Err(FrontendError::new(
                    format!("unknown class or variable `{class_name}`"),
                    pos,
                ));
            }
            if let Some(&mid) = self.ctx.methods.get(&(name.clone(), method.to_owned())) {
                return Ok(mid);
            }
            cur = self
                .classes_by_name
                .get(name.as_str())
                .and_then(|c| c.superclass.clone());
        }
        Err(FrontendError::new(
            format!("no method `{method}` in class `{class_name}`"),
            pos,
        ))
    }

    /// Same-class (or unique global) static resolution for bare calls.
    fn resolve_callee_id(
        &self,
        receiver: &Option<String>,
        method: &str,
        _argc: usize,
        pos: Pos,
    ) -> Result<MethodId, FrontendError> {
        if let Some(r) = receiver {
            return self.resolve_static(r, method, pos);
        }
        if let Ok(m) = self.resolve_static(&self.class.name, method, pos) {
            return Ok(m);
        }
        match self.ctx.methods_by_name.get(method).map(Vec::as_slice) {
            Some([unique]) => Ok(*unique),
            Some([]) | None => Err(FrontendError::new(
                format!("unknown method `{method}`"),
                pos,
            )),
            Some(_) => Err(FrontendError::new(
                format!("ambiguous call to `{method}`; qualify with a class name"),
                pos,
            )),
        }
    }

    fn resolve_field_access(
        &mut self,
        _mb: &mut MethodBuilder,
        base: &str,
        field: &str,
        pos: Pos,
    ) -> Result<(Option<Operand>, FieldId), FrontendError> {
        if let Some((local, ty)) = self.lookup(base) {
            let AstType::Class(cn) = ty else {
                return Err(FrontendError::new(
                    format!("`{base}` is not of class type"),
                    pos,
                ));
            };
            let fid = self
                .ctx
                .resolve_field(&cn, field, self.classes_by_name, pos)?;
            Ok((Some(Operand::Local(local)), fid))
        } else {
            // Class-name base: static-style access (no receiver).
            if !self.ctx.classes.contains_key(base) {
                return Err(FrontendError::new(
                    format!("unknown class or variable `{base}`"),
                    pos,
                ));
            }
            let fid = self
                .ctx
                .resolve_field(base, field, self.classes_by_name, pos)?;
            Ok((None, fid))
        }
    }

    fn base_class_name(&self, base: &str, pos: Pos) -> Result<String, FrontendError> {
        if let Some((_, ty)) = self.lookup(base) {
            match ty {
                AstType::Class(cn) => Ok(cn),
                _ => Err(FrontendError::new(
                    format!("`{base}` is not of class type"),
                    pos,
                )),
            }
        } else if self.ctx.classes.contains_key(base) {
            Ok(base.to_owned())
        } else {
            Err(FrontendError::new(
                format!("unknown class or variable `{base}`"),
                pos,
            ))
        }
    }
}

fn lower_binop(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Rem => BinOp::Rem,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::Ne => BinOp::Ne,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::Le => BinOp::Le,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::Ge => BinOp::Ge,
        AstBinOp::And | AstBinOp::Or => unreachable!("short-circuit ops are lowered to branches"),
    }
}
