//! Shared helpers for mapping values across call boundaries.

use spllift_ir::{Callee, LocalId, MethodId, Operand, Program, StmtKind, StmtRef};

/// Calls `f(actual, formal)` for each pair of (actual local in caller,
/// formal local in callee) that the call at `call` targeting `callee`
/// binds — the receiver first for virtual calls, then the arguments in
/// order.
pub fn for_each_binding(
    program: &Program,
    call: StmtRef,
    callee: MethodId,
    mut f: impl FnMut(LocalId, LocalId),
) {
    let StmtKind::Invoke {
        callee: target,
        args,
        ..
    } = &program.stmt(call).kind
    else {
        return;
    };
    let callee_body = program.body(callee);
    if let Callee::Virtual { base, .. } = target {
        if let Some(this) = callee_body.this_local {
            f(*base, this);
        }
    }
    for (i, arg) in args.iter().enumerate() {
        if let Operand::Local(l) = arg {
            if let Some(&formal) = callee_body.param_locals.get(i) {
                f(*l, formal);
            }
        }
    }
}

/// The local receiving the call's return value, if any.
pub fn result_local(program: &Program, call: StmtRef) -> Option<LocalId> {
    match &program.stmt(call).kind {
        StmtKind::Invoke { result, .. } => *result,
        _ => None,
    }
}

/// The local returned at exit statement `exit`, if it returns a local.
pub fn returned_local(program: &Program, exit: StmtRef) -> Option<LocalId> {
    match &program.stmt(exit).kind {
        StmtKind::Return {
            value: Some(Operand::Local(l)),
        } => Some(*l),
        _ => None,
    }
}

/// The (unqualified) name of the method called at `call`, for source/sink
/// matching, resolved through the static target or the virtual signature.
pub(crate) fn called_name(program: &Program, call: StmtRef) -> Option<&str> {
    match &program.stmt(call).kind {
        StmtKind::Invoke {
            callee: Callee::Static(m),
            ..
        } => Some(&program.method(*m).name),
        StmtKind::Invoke {
            callee: Callee::Virtual { name, .. },
            ..
        } => Some(name),
        _ => None,
    }
}
