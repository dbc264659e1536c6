//! Ready-made sample programs, including the paper's running example.

use crate::builder::ProgramBuilder;
use crate::types::*;
use spllift_features::{FeatureExpr, FeatureId, FeatureTable};

/// The paper's Figure 1 product line, plus handles to its pieces.
#[derive(Debug)]
pub struct Fig1 {
    /// The product line as an IR program.
    pub program: Program,
    /// Feature table containing `F`, `G`, `H`.
    pub table: FeatureTable,
    /// The features `[F, G, H]`.
    pub features: [FeatureId; 3],
    /// `main`.
    pub main: MethodId,
    /// `foo`.
    pub foo: MethodId,
    /// `secret` (the taint source).
    pub secret: MethodId,
    /// `print` (the taint sink).
    pub print: MethodId,
    /// The `print(y)` call statement in `main` — where the leak shows.
    pub print_call: StmtRef,
}

/// Builds the running example of the paper (Figure 1):
///
/// ```java
/// void main() {
///     int x = secret();
///     int y = 0;
///     #ifdef F   x = 0;        #endif
///     #ifdef G   y = foo(x);   #endif
///     print(y);
/// }
/// int foo(int p) {
///     #ifdef H   p = 0;        #endif
///     return p;
/// }
/// ```
///
/// The taint analysis lifted with SPLLIFT computes that `secret` reaches
/// `print` exactly under `¬F ∧ G ∧ ¬H`.
pub fn fig1() -> Fig1 {
    let mut table = FeatureTable::new();
    let f = table.intern("F");
    let g = table.intern("G");
    let h = table.intern("H");

    let mut pb = ProgramBuilder::new();
    let secret = pb.declare_method("secret", None, &[], Some(Type::Int), true);
    let print = pb.declare_method("print", None, &[Type::Int], None, true);
    #[allow(clippy::disallowed_names)] // Fig. 1 of the paper names this method `foo`
    let foo = pb.declare_method("foo", None, &[Type::Int], Some(Type::Int), true);
    let main = pb.declare_method("main", None, &[], None, true);

    {
        let mut mb = pb.method_body(secret);
        let v = mb.local("v", Type::Int);
        mb.assign(v, Rvalue::Use(Operand::IntConst(42)));
        mb.ret(Some(Operand::Local(v)));
        pb.finish_body(mb);
    }
    {
        let mut mb = pb.method_body(print);
        mb.ret(None);
        pb.finish_body(mb);
    }
    {
        let mut mb = pb.method_body(foo);
        let p = mb.param_local(0);
        mb.push_annotation(FeatureExpr::var(h));
        mb.assign(p, Rvalue::Use(Operand::IntConst(0)));
        mb.pop_annotation();
        mb.ret(Some(Operand::Local(p)));
        pb.finish_body(mb);
    }
    let print_call;
    {
        let mut mb = pb.method_body(main);
        let x = mb.local("x", Type::Int);
        let y = mb.local("y", Type::Int);
        mb.invoke(Some(x), Callee::Static(secret), vec![]);
        mb.assign(y, Rvalue::Use(Operand::IntConst(0)));
        mb.push_annotation(FeatureExpr::var(f));
        mb.assign(x, Rvalue::Use(Operand::IntConst(0)));
        mb.pop_annotation();
        mb.push_annotation(FeatureExpr::var(g));
        mb.invoke(Some(y), Callee::Static(foo), vec![Operand::Local(x)]);
        mb.pop_annotation();
        let idx = mb.invoke(None, Callee::Static(print), vec![Operand::Local(y)]);
        print_call = StmtRef {
            method: main,
            index: idx,
        };
        mb.ret(None);
        pb.finish_body(mb);
    }
    pb.add_entry_point(main);
    let program = pb.finish();
    debug_assert!(program.check().is_ok());
    Fig1 {
        program,
        table,
        features: [f, g, h],
        main,
        foo,
        secret,
        print,
        print_call,
    }
}

/// A small virtual-dispatch sample: `Shape { area() }` with `Circle` and
/// `Square` overriding it, exercising CHA resolution and the §5 limitation
/// example (`#ifdef`-dependent allocation, feature-insensitive dispatch).
#[derive(Debug)]
pub struct Shapes {
    /// The program.
    pub program: Program,
    /// Feature table containing `F`.
    pub table: FeatureTable,
    /// Classes `[Shape, Circle, Square]`.
    pub classes: [ClassId; 3],
    /// The virtual call site `s.area()` in `main`.
    pub call_site: StmtRef,
    /// Methods `[Shape.area, Circle.area, Square.area, main]`.
    pub methods: [MethodId; 4],
}

/// Builds the virtual-dispatch sample.
pub fn shapes() -> Shapes {
    let mut table = FeatureTable::new();
    let f = table.intern("F");

    let mut pb = ProgramBuilder::new();
    let shape = pb.add_class("Shape", None);
    let circle = pb.add_class("Circle", Some(shape));
    let square = pb.add_class("Square", Some(shape));
    let shape_area = pb.declare_method("area", Some(shape), &[], Some(Type::Int), false);
    let circle_area = pb.declare_method("area", Some(circle), &[], Some(Type::Int), false);
    let square_area = pb.declare_method("area", Some(square), &[], Some(Type::Int), false);
    let main = pb.declare_method("main", None, &[], None, true);

    for (m, v) in [(shape_area, 0), (circle_area, 1), (square_area, 2)] {
        let mut mb = pb.method_body(m);
        let r = mb.local("r", Type::Int);
        mb.assign(r, Rvalue::Use(Operand::IntConst(v)));
        mb.ret(Some(Operand::Local(r)));
        pb.finish_body(mb);
    }

    let call_site;
    {
        let mut mb = pb.method_body(main);
        let s = mb.local("s", Type::Ref(shape));
        let a = mb.local("a", Type::Int);
        // #ifdef F: s = new Circle() #else-ish: s = new Square()
        mb.push_annotation(FeatureExpr::var(f));
        mb.assign(s, Rvalue::New(circle));
        mb.pop_annotation();
        mb.push_annotation(FeatureExpr::var(f).not());
        mb.assign(s, Rvalue::New(square));
        mb.pop_annotation();
        let idx = mb.invoke(
            Some(a),
            Callee::Virtual {
                base: s,
                name: "area".into(),
                argc: 0,
            },
            vec![],
        );
        call_site = StmtRef {
            method: main,
            index: idx,
        };
        mb.ret(None);
        pb.finish_body(mb);
    }
    pb.add_entry_point(main);
    let program = pb.finish();
    debug_assert!(program.check().is_ok());
    Shapes {
        program,
        table,
        classes: [shape, circle, square],
        call_site,
        methods: [shape_area, circle_area, square_area, main],
    }
}
