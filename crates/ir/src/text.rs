//! A plain-text round-trippable program format for fuzzing repros.
//!
//! The fuzz campaign (`spllift_spl::fuzz` in the `spl` crate) shrinks
//! failing random programs with delta debugging and commits the result to
//! `tests/corpus/` as a *repro file*. Repro files must be (a) readable in
//! a code review and (b) parseable back into the exact same [`Program`],
//! so the corpus replay test re-runs the full cross-check on them. The
//! Jimple-like pretty-printer ([`crate::pretty`]) is for humans only and
//! drops types and entry points; this module defines a self-contained
//! format that round-trips:
//!
//! ```text
//! # spllift repro v1
//! features F0 F1 F2
//!
//! method m0(p0: int): int
//!   locals v0: int, u: int
//!     0: nop
//!     1: v0 = p0 + 1 @ F0 && !F1
//!     2: if v0 < 3 goto 4
//!     3: v0 = secret()
//!     4: return v0
//!
//! entry m0
//! ```
//!
//! The format covers the *repro subset* of the IR: classless static
//! methods over `int` locals with assignments, arithmetic, branches,
//! static calls, and returns — exactly what the random-program generator
//! and its mutators produce. [`to_repro_string`] refuses programs outside
//! the subset (classes, fields, arrays, virtual calls) rather than
//! silently dropping information.
//!
//! Feature annotations use the `#ifdef` expression syntax of
//! [`FeatureExpr::parse`], appended to a statement after ` @ `. The
//! `features` header fixes the [`FeatureId`](spllift_features::FeatureId)
//! order, so configurations enumerated over the parsed table line up
//! with the original program.

use crate::types::*;
use spllift_features::{FeatureExpr, FeatureTable};
use std::fmt;
use std::fmt::Write as _;

/// Header line identifying the format (and its version).
pub const REPRO_HEADER: &str = "# spllift repro v1";

/// Error from [`to_repro_string`]: the program uses IR constructs outside
/// the repro subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproUnsupported(String);

impl fmt::Display for ReproUnsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program outside the repro subset: {}", self.0)
    }
}

impl std::error::Error for ReproUnsupported {}

/// Error from [`parse_repro`], with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproParseError {
    /// 1-based line the error was detected on (0 = end of input).
    pub line: usize,
    msg: String,
}

impl fmt::Display for ReproParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "repro line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ReproParseError {}

fn unsupported(what: impl Into<String>) -> ReproUnsupported {
    ReproUnsupported(what.into())
}

fn type_name(ty: Type) -> Result<&'static str, ReproUnsupported> {
    match ty {
        Type::Int => Ok("int"),
        Type::Boolean => Ok("boolean"),
        other => Err(unsupported(format!("type {other:?}"))),
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
    }
}

fn binop_from(s: &str) -> Option<BinOp> {
    Some(match s {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "%" => BinOp::Rem,
        "==" => BinOp::Eq,
        "!=" => BinOp::Ne,
        "<" => BinOp::Lt,
        "<=" => BinOp::Le,
        ">" => BinOp::Gt,
        ">=" => BinOp::Ge,
        _ => return None,
    })
}

/// Serializes `program` into the repro text format.
///
/// # Errors
///
/// [`ReproUnsupported`] if the program falls outside the repro subset:
/// classes, fields, arrays, virtual calls, non-`int`/`boolean` types,
/// instance or abstract methods, duplicate method names, or local names
/// that are not unique within a body.
pub fn to_repro_string(
    program: &Program,
    table: &FeatureTable,
) -> Result<String, ReproUnsupported> {
    if !program.classes().is_empty() || !program.fields().is_empty() {
        return Err(unsupported("classes/fields"));
    }
    {
        let mut names: Vec<&str> = program.methods().iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(unsupported("duplicate method names"));
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{REPRO_HEADER}");
    let _ = write!(out, "features");
    for (_, name) in table.iter() {
        let _ = write!(out, " {name}");
    }
    let _ = writeln!(out);
    for m in program.methods() {
        if m.class.is_some() || !m.is_static {
            return Err(unsupported(format!("instance method {}", m.name)));
        }
        let Some(body) = &m.body else {
            return Err(unsupported(format!("abstract method {}", m.name)));
        };
        if body.this_local.is_some() {
            return Err(unsupported(format!("this-local in {}", m.name)));
        }
        let expected: Vec<LocalId> = (0..m.params.len() as u32).map(LocalId).collect();
        if body.param_locals != expected {
            return Err(unsupported(format!(
                "non-prefix parameter locals in {}",
                m.name
            )));
        }
        {
            let mut names: Vec<&str> = body.locals.iter().map(|l| l.name.as_str()).collect();
            names.sort_unstable();
            if names.windows(2).any(|w| w[0] == w[1]) {
                return Err(unsupported(format!("duplicate local names in {}", m.name)));
            }
        }
        let _ = writeln!(out);
        let params: Vec<String> = body
            .param_locals
            .iter()
            .map(|&l| {
                let local = &body.locals[l.index()];
                Ok(format!("{}: {}", local.name, type_name(local.ty)?))
            })
            .collect::<Result<_, ReproUnsupported>>()?;
        let _ = write!(out, "method {}({})", m.name, params.join(", "));
        if let Some(ret) = m.ret {
            let _ = write!(out, ": {}", type_name(ret)?);
        }
        let _ = writeln!(out);
        let extras: Vec<String> = body.locals[m.params.len()..]
            .iter()
            .map(|l| Ok(format!("{}: {}", l.name, type_name(l.ty)?)))
            .collect::<Result<_, ReproUnsupported>>()?;
        let _ = writeln!(out, "  locals {}", extras.join(", "));
        for (i, stmt) in body.stmts.iter().enumerate() {
            let text = stmt_text(program, body, &stmt.kind)?;
            let _ = write!(out, "    {i}: {text}");
            if stmt.annotation != FeatureExpr::True {
                let _ = write!(out, " @ {}", stmt.annotation.display(table));
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(out);
    for &e in program.entry_points() {
        let _ = writeln!(out, "entry {}", program.method(e).name);
    }
    Ok(out)
}

fn operand_text(body: &Body, op: Operand) -> Result<String, ReproUnsupported> {
    Ok(match op {
        Operand::Local(l) => body.locals[l.index()].name.clone(),
        Operand::IntConst(c) => c.to_string(),
        Operand::BoolConst(b) => b.to_string(),
        Operand::Null => return Err(unsupported("null operand")),
    })
}

fn stmt_text(program: &Program, body: &Body, kind: &StmtKind) -> Result<String, ReproUnsupported> {
    let op = |o: Operand| operand_text(body, o);
    let local = |l: LocalId| body.locals[l.index()].name.clone();
    Ok(match kind {
        StmtKind::Nop => "nop".into(),
        StmtKind::Assign { target, rvalue } => {
            let rhs = match rvalue {
                Rvalue::Use(o) => op(*o)?,
                Rvalue::Binary(b, l, r) => {
                    format!("{} {} {}", op(*l)?, binop_str(*b), op(*r)?)
                }
                other => return Err(unsupported(format!("rvalue {other:?}"))),
            };
            format!("{} = {}", local(*target), rhs)
        }
        StmtKind::If {
            op: o,
            lhs,
            rhs,
            target,
        } => format!(
            "if {} {} {} goto {}",
            op(*lhs)?,
            binop_str(*o),
            op(*rhs)?,
            target
        ),
        StmtKind::Goto { target } => format!("goto {target}"),
        StmtKind::Invoke {
            result,
            callee,
            args,
        } => {
            let Callee::Static(mid) = callee else {
                return Err(unsupported("virtual call"));
            };
            let args: Vec<String> = args
                .iter()
                .map(|&a| op(a))
                .collect::<Result<_, ReproUnsupported>>()?;
            let call = format!("{}({})", program.method(*mid).name, args.join(", "));
            match result {
                Some(r) => format!("{} = {}", local(*r), call),
                None => call,
            }
        }
        StmtKind::Return { value } => match value {
            Some(v) => format!("return {}", op(*v)?),
            None => "return".into(),
        },
        other => return Err(unsupported(format!("statement {other:?}"))),
    })
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ReproParseError {
        ReproParseError {
            line: self
                .lines
                .get(self.pos.min(self.lines.len().saturating_sub(1)))
                .map_or(0, |(n, _)| *n),
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).map(|(_, l)| *l)
    }

    fn next(&mut self) -> Option<&'a str> {
        let l = self.peek()?;
        self.pos += 1;
        Some(l)
    }
}

fn parse_type(s: &str) -> Result<Type, String> {
    match s {
        "int" => Ok(Type::Int),
        "boolean" => Ok(Type::Boolean),
        other => Err(format!("unknown type `{other}`")),
    }
}

/// One `name: type` pair, or a list of them separated by `, `.
fn parse_typed_names(s: &str) -> Result<Vec<(String, Type)>, String> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|part| {
            let (name, ty) = part
                .split_once(':')
                .ok_or_else(|| format!("expected `name: type`, got `{part}`"))?;
            Ok((name.trim().to_owned(), parse_type(ty.trim())?))
        })
        .collect()
}

/// Header of one method: name, params, return type.
struct MethodHeader {
    name: String,
    params: Vec<(String, Type)>,
    ret: Option<Type>,
}

fn parse_method_header(line: &str) -> Result<MethodHeader, String> {
    let rest = line
        .strip_prefix("method ")
        .ok_or("expected `method` header")?;
    let open = rest.find('(').ok_or("expected `(` in method header")?;
    let close = rest.rfind(')').ok_or("expected `)` in method header")?;
    if close < open {
        return Err(format!(
            "mismatched parentheses in method header `{rest}`: `)` before `(`"
        ));
    }
    let name = rest[..open].trim().to_owned();
    if name.is_empty() {
        return Err("empty method name".into());
    }
    let params = parse_typed_names(&rest[open + 1..close])?;
    let tail = rest[close + 1..].trim();
    let ret = match tail.strip_prefix(':') {
        Some(ty) => Some(parse_type(ty.trim())?),
        None if tail.is_empty() => None,
        None => return Err(format!("unexpected trailer `{tail}`")),
    };
    Ok(MethodHeader { name, params, ret })
}

/// Splits `text` into the statement proper and its ` @ annotation` suffix.
fn split_annotation(text: &str) -> (&str, Option<&str>) {
    match text.split_once(" @ ") {
        Some((stmt, ann)) => (stmt.trim(), Some(ann.trim())),
        None => (text.trim(), None),
    }
}

fn parse_operand(s: &str, locals: &dyn Fn(&str) -> Option<LocalId>) -> Result<Operand, String> {
    let s = s.trim();
    if let Some(l) = locals(s) {
        return Ok(Operand::Local(l));
    }
    match s {
        "true" => return Ok(Operand::BoolConst(true)),
        "false" => return Ok(Operand::BoolConst(false)),
        _ => {}
    }
    s.parse::<i64>()
        .map(Operand::IntConst)
        .map_err(|_| format!("unknown operand `{s}`"))
}

/// `lhs OP rhs` with OP one of the binary operators, or a plain operand.
fn parse_rvalue(s: &str, locals: &dyn Fn(&str) -> Option<LocalId>) -> Result<Rvalue, String> {
    let tokens: Vec<&str> = s.split_whitespace().collect();
    match tokens.as_slice() {
        [one] => Ok(Rvalue::Use(parse_operand(one, locals)?)),
        [lhs, op, rhs] => {
            let b = binop_from(op).ok_or_else(|| format!("unknown operator `{op}`"))?;
            Ok(Rvalue::Binary(
                b,
                parse_operand(lhs, locals)?,
                parse_operand(rhs, locals)?,
            ))
        }
        _ => Err(format!("cannot parse rvalue `{s}`")),
    }
}

/// Parses a repro file back into a program and its feature table.
///
/// # Errors
///
/// [`ReproParseError`] with the offending line on malformed input; the
/// parsed program is additionally validated with [`Program::check`].
pub fn parse_repro(input: &str) -> Result<(Program, FeatureTable), ReproParseError> {
    let lines: Vec<(usize, &str)> = input
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut p = Parser { lines, pos: 0 };

    let mut table = FeatureTable::new();
    match p.next() {
        Some(l) if l.starts_with("features") => {
            for name in l["features".len()..].split_whitespace() {
                table.intern(name);
            }
        }
        _ => return Err(p.err("expected `features` header")),
    }

    // Pass 1: collect method headers so calls can be resolved by name.
    struct RawMethod<'a> {
        header: MethodHeader,
        locals: Vec<(String, Type)>,
        stmt_lines: Vec<(usize, &'a str)>,
    }
    let mut methods: Vec<RawMethod> = Vec::new();
    let mut entries: Vec<String> = Vec::new();
    while let Some(line) = p.next() {
        if let Some(name) = line.strip_prefix("entry ") {
            entries.push(name.trim().to_owned());
            continue;
        }
        let header = parse_method_header(line).map_err(|e| p.err(e))?;
        let locals_line = p
            .next()
            .and_then(|l| l.strip_prefix("locals"))
            .ok_or_else(|| p.err("expected `locals` line after method header"))?;
        let locals = parse_typed_names(locals_line).map_err(|e| p.err(e))?;
        let mut stmt_lines = Vec::new();
        while let Some(l) = p.peek() {
            if l.starts_with("method ") || l.starts_with("entry ") {
                break;
            }
            let lineno = p.lines[p.pos].0;
            stmt_lines.push((lineno, l));
            p.next();
        }
        if methods.iter().any(|m| m.header.name == header.name) {
            return Err(p.err(format!("duplicate method `{}`", header.name)));
        }
        methods.push(RawMethod {
            header,
            locals,
            stmt_lines,
        });
    }

    let find_method = |name: &str| -> Option<MethodId> {
        methods
            .iter()
            .position(|m| m.header.name == name)
            .map(|i| MethodId(i as u32))
    };

    // Pass 2: build bodies.
    let mut program = Program::default();
    for raw in &methods {
        let mut body_locals: Vec<Local> = Vec::new();
        for (name, ty) in raw.header.params.iter().chain(&raw.locals) {
            if body_locals.iter().any(|l| l.name == *name) {
                return Err(p.err(format!("duplicate local `{name}` in `{}`", raw.header.name)));
            }
            body_locals.push(Local {
                name: name.clone(),
                ty: *ty,
            });
        }
        let lookup = |s: &str| -> Option<LocalId> {
            body_locals
                .iter()
                .position(|l| l.name == s)
                .map(|i| LocalId(i as u32))
        };
        let mut stmts = Vec::new();
        for (lineno, line) in &raw.stmt_lines {
            let fail = |msg: String| ReproParseError { line: *lineno, msg };
            let (index, text) = line
                .split_once(':')
                .ok_or_else(|| fail("expected `index: statement`".into()))?;
            let index: usize = index
                .trim()
                .parse()
                .map_err(|_| fail(format!("bad statement index `{}`", index.trim())))?;
            if index != stmts.len() {
                return Err(fail(format!(
                    "statement index {index} out of order (expected {})",
                    stmts.len()
                )));
            }
            let (stmt_text, ann_text) = split_annotation(text);
            let annotation = match ann_text {
                None => FeatureExpr::True,
                Some(a) => {
                    let before = table.len();
                    let e = FeatureExpr::parse(a, &mut table).map_err(|e| fail(e.to_string()))?;
                    if table.len() != before {
                        return Err(fail(format!(
                            "annotation `{a}` uses a feature missing from the `features` header"
                        )));
                    }
                    e
                }
            };
            let arity = |m: MethodId| methods[m.index()].header.params.len();
            let kind = parse_stmt_kind(stmt_text, &lookup, &find_method, &arity).map_err(fail)?;
            stmts.push(Stmt { kind, annotation });
        }
        let nparams = raw.header.params.len();
        let method = Method {
            name: raw.header.name.clone(),
            class: None,
            params: body_locals[..nparams].iter().map(|l| l.ty).collect(),
            ret: raw.header.ret,
            is_static: true,
            body: Some(Body {
                param_locals: (0..nparams as u32).map(LocalId).collect(),
                this_local: None,
                locals: body_locals,
                stmts,
            }),
        };
        program.push_method(method);
    }
    for name in &entries {
        let m = find_method(name).ok_or_else(|| p.err(format!("unknown entry method `{name}`")))?;
        program.push_entry_point(m);
    }
    program
        .check()
        .map_err(|e| p.err(format!("invalid program: {e}")))?;
    Ok((program, table))
}

/// Parses a replacement body for one method of an existing program — the
/// payload of the analysis server's `edit` request.
///
/// `locals_line` lists the non-parameter locals in the `locals` syntax of
/// the repro format (may be empty); `stmt_lines` are repro statement
/// lines (`index: statement [@ annotation]`, indices `0..n` in order).
/// The parameter locals (names and types) are carried over from the
/// method's current body; calls are resolved against `program` by method
/// name, and annotations may only use features already in `table` — an
/// edit can never grow the feature table, which keeps the session's BDD
/// variable order stable.
///
/// The returned [`Body`] is *not* yet validated against the program
/// invariants ([`Program::check`]); the caller splices it in and
/// re-checks (reverting on failure).
///
/// # Errors
///
/// [`ReproParseError`] with a 1-based line number into `stmt_lines`
/// (0 = the locals line) on malformed input, unknown names, new
/// features, or a method outside the editable subset (instance methods,
/// bodyless methods, non-prefix parameter locals).
pub fn parse_body_edit(
    program: &Program,
    table: &FeatureTable,
    method: MethodId,
    locals_line: &str,
    stmt_lines: &[&str],
) -> Result<Body, ReproParseError> {
    let fail0 = |msg: String| ReproParseError { line: 0, msg };
    let m = program.method(method);
    let Some(old_body) = &m.body else {
        return Err(fail0(format!("method `{}` has no body to edit", m.name)));
    };
    let nparams = m.params.len();
    let expected: Vec<LocalId> = (0..nparams as u32).map(LocalId).collect();
    if old_body.this_local.is_some() || old_body.param_locals != expected {
        return Err(fail0(format!(
            "method `{}` is outside the editable subset (instance method or \
             non-prefix parameter locals)",
            m.name
        )));
    }
    let mut body_locals: Vec<Local> = old_body.locals[..nparams].to_vec();
    for (name, ty) in parse_typed_names(locals_line).map_err(fail0)? {
        if body_locals.iter().any(|l| l.name == name) {
            return Err(fail0(format!("duplicate local `{name}`")));
        }
        body_locals.push(Local { name, ty });
    }
    let lookup = |s: &str| -> Option<LocalId> {
        body_locals
            .iter()
            .position(|l| l.name == s)
            .map(|i| LocalId(i as u32))
    };
    let find_method = |name: &str| program.find_method(name);
    let arity = |mid: MethodId| program.method(mid).params.len();
    // Parse annotations against a scratch copy so a rejected edit cannot
    // leave a half-interned feature behind in the session's table.
    let mut scratch = table.clone();
    let frozen = scratch.len();
    let mut stmts = Vec::new();
    for (i, line) in stmt_lines.iter().enumerate() {
        let fail = |msg: String| ReproParseError { line: i + 1, msg };
        let (index, text) = line
            .split_once(':')
            .ok_or_else(|| fail("expected `index: statement`".into()))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| fail(format!("bad statement index `{}`", index.trim())))?;
        if index != stmts.len() {
            return Err(fail(format!(
                "statement index {index} out of order (expected {})",
                stmts.len()
            )));
        }
        let (stmt_text, ann_text) = split_annotation(text);
        let annotation = match ann_text {
            None => FeatureExpr::True,
            Some(a) => {
                let e = FeatureExpr::parse(a, &mut scratch).map_err(|e| fail(e.to_string()))?;
                if scratch.len() != frozen {
                    return Err(fail(format!(
                        "annotation `{a}` uses a feature missing from the session's \
                         feature table"
                    )));
                }
                e
            }
        };
        let kind = parse_stmt_kind(stmt_text, &lookup, &find_method, &arity).map_err(fail)?;
        stmts.push(Stmt { kind, annotation });
    }
    Ok(Body {
        param_locals: expected,
        this_local: None,
        locals: body_locals,
        stmts,
    })
}

fn parse_stmt_kind(
    text: &str,
    lookup: &dyn Fn(&str) -> Option<LocalId>,
    find_method: &dyn Fn(&str) -> Option<MethodId>,
    arity: &dyn Fn(MethodId) -> usize,
) -> Result<StmtKind, String> {
    if text == "nop" {
        return Ok(StmtKind::Nop);
    }
    if text == "return" {
        return Ok(StmtKind::Return { value: None });
    }
    if let Some(v) = text.strip_prefix("return ") {
        return Ok(StmtKind::Return {
            value: Some(parse_operand(v, lookup)?),
        });
    }
    if let Some(t) = text.strip_prefix("goto ") {
        let target = t
            .trim()
            .parse()
            .map_err(|_| format!("bad goto target `{t}`"))?;
        return Ok(StmtKind::Goto { target });
    }
    if let Some(rest) = text.strip_prefix("if ") {
        let (cond, target) = rest
            .split_once(" goto ")
            .ok_or("expected ` goto ` in if statement")?;
        let tokens: Vec<&str> = cond.split_whitespace().collect();
        let [lhs, op, rhs] = tokens.as_slice() else {
            return Err(format!("cannot parse condition `{cond}`"));
        };
        return Ok(StmtKind::If {
            op: binop_from(op).ok_or_else(|| format!("unknown operator `{op}`"))?,
            lhs: parse_operand(lhs, lookup)?,
            rhs: parse_operand(rhs, lookup)?,
            target: target
                .trim()
                .parse()
                .map_err(|_| format!("bad branch target `{target}`"))?,
        });
    }
    // Assignment or call. A call has a parenthesized argument list.
    let (result, rest) = match text.split_once(" = ") {
        Some((lhs, rhs)) => {
            let l = lookup(lhs.trim()).ok_or_else(|| format!("unknown local `{}`", lhs.trim()))?;
            (Some(l), rhs.trim())
        }
        None => (None, text),
    };
    if let Some(open) = rest.find('(') {
        let callee_name = rest[..open].trim();
        // `v = a + b` never contains `(`, so this is a call.
        let close = rest.rfind(')').ok_or("expected `)` in call")?;
        if close < open {
            return Err(format!(
                "mismatched parentheses in call `{rest}`: `)` before `(`"
            ));
        }
        let callee = find_method(callee_name)
            .ok_or_else(|| format!("call to unknown method `{callee_name}`"))?;
        let args_text = rest[open + 1..close].trim();
        let args: Vec<Operand> = if args_text.is_empty() {
            Vec::new()
        } else {
            args_text
                .split(',')
                .map(|a| parse_operand(a, lookup))
                .collect::<Result<_, _>>()?
        };
        if args.len() != arity(callee) {
            return Err(format!(
                "call to `{callee_name}` with {} args, expected {}",
                args.len(),
                arity(callee)
            ));
        }
        return Ok(StmtKind::Invoke {
            result,
            callee: Callee::Static(callee),
            args,
        });
    }
    match result {
        Some(target) => Ok(StmtKind::Assign {
            target,
            rvalue: parse_rvalue(rest, lookup)?,
        }),
        None => Err(format!("cannot parse statement `{text}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use spllift_features::FeatureTable;

    fn sample() -> (Program, FeatureTable) {
        let mut table = FeatureTable::new();
        let f = table.intern("F");
        let g = table.intern("G");
        let mut pb = ProgramBuilder::new();
        let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
        let print = pb.declare_method("print", None, &[Type::Int], None, true);
        let main = pb.declare_method("main", None, &[], None, true);
        {
            let mut mb = pb.method_body(secret);
            let v = mb.local("v", Type::Int);
            mb.assign(v, Rvalue::Use(Operand::IntConst(42)));
            mb.ret(Some(Operand::Local(v)));
            pb.finish_body(mb);
        }
        {
            let mb = pb.method_body(print);
            pb.finish_body(mb);
        }
        {
            let mut mb = pb.method_body(main);
            let x = mb.local("x", Type::Int);
            let y = mb.local("y", Type::Int);
            mb.invoke(Some(x), Callee::Static(secret), vec![]);
            mb.push_annotation(FeatureExpr::var(f).and(FeatureExpr::var(g).not()));
            mb.assign(
                y,
                Rvalue::Binary(BinOp::Add, Operand::Local(x), Operand::IntConst(-3)),
            );
            mb.pop_annotation();
            let l = mb.fresh_label();
            mb.if_cmp(BinOp::Lt, Operand::Local(y), Operand::IntConst(0), l);
            mb.invoke(None, Callee::Static(print), vec![Operand::Local(y)]);
            mb.bind(l);
            mb.ret(None);
            pb.finish_body(mb);
        }
        pb.add_entry_point(main);
        (pb.finish(), table)
    }

    #[test]
    fn round_trips_exactly() {
        let (program, table) = sample();
        let text = to_repro_string(&program, &table).expect("in subset");
        let (parsed, parsed_table) = parse_repro(&text).expect("parses");
        assert_eq!(parsed, program);
        assert_eq!(parsed_table, table);
        // And the re-serialization is byte-identical (fixpoint).
        assert_eq!(to_repro_string(&parsed, &parsed_table).unwrap(), text);
    }

    #[test]
    fn rejects_programs_outside_the_subset() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let main = pb.declare_method("main", None, &[], None, true);
        let mut mb = pb.method_body(main);
        let o = mb.local("o", Type::Ref(c));
        mb.assign(o, Rvalue::New(c));
        mb.ret(None);
        pb.finish_body(mb);
        pb.add_entry_point(main);
        let program = pb.finish();
        assert!(to_repro_string(&program, &FeatureTable::new()).is_err());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "# spllift repro v1\nfeatures F\n\nmethod main()\n  locals\n    0: nop\n    1: zap zap\n";
        let err = parse_repro(bad).unwrap_err();
        assert_eq!(err.line, 7, "{err}");
        assert!(parse_repro("nonsense").is_err());
    }

    /// `)` before `(` in a method header or a call used to slice with
    /// `begin > end` and panic; both sites must answer a diagnostic.
    #[test]
    fn mismatched_parentheses_are_diagnosed_not_panics() {
        let bad_header =
            "# spllift repro v1\nfeatures F\n\nmethod f)x(: int\n  locals\n    0: return\n";
        let err = parse_repro(bad_header).unwrap_err();
        assert!(
            err.to_string()
                .contains("mismatched parentheses in method header"),
            "{err}"
        );
        assert!(err.line > 0, "{err}");
        let bad_call = "# spllift repro v1\nfeatures F\n\nmethod main()\n  locals\n    0: )f(\n    1: return\nentry main\n";
        let err = parse_repro(bad_call).unwrap_err();
        assert!(
            err.to_string().contains("mismatched parentheses in call"),
            "{err}"
        );
        assert!(err.line > 0, "{err}");
    }

    #[test]
    fn unknown_annotation_feature_is_rejected() {
        let bad = "features F\nmethod main()\n  locals\n    0: nop\n    1: nop @ MISSING\n    2: return\nentry main\n";
        let err = parse_repro(bad).unwrap_err();
        assert!(err.to_string().contains("features"), "{err}");
    }
}
