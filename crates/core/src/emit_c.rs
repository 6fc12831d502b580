//! The sound-C backend: emits the transformed program as C source against
//! the `aa_*` runtime API — the artifact shape of the paper (Fig. 2).
//!
//! Declarations swap `double`/`float` for the affine types (`f64a`,
//! `f32a`, or `dda`), and every floating-point operation becomes a call
//! into the affine runtime. `#pragma safegen prioritize(v)` lines lower to
//! `aa_prioritize(v)` calls, exactly as the paper describes the pragma
//! replacement.

use safegen_cfront::{AssignOp, Expr, Function, Sema, Stmt, Ty, UnOp, Unit};
use std::fmt::Write;

/// Affine precision of the emitted code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EmitPrecision {
    /// `f64a` — double-precision centers (default).
    #[default]
    F64,
    /// `dda` — double-double centers.
    Dd,
    /// `f32a` — single-precision centers.
    F32,
}

impl EmitPrecision {
    fn ty(self) -> &'static str {
        match self {
            EmitPrecision::F64 => "f64a",
            EmitPrecision::Dd => "dda",
            EmitPrecision::F32 => "f32a",
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            EmitPrecision::F64 => "f64",
            EmitPrecision::Dd => "dd",
            EmitPrecision::F32 => "f32",
        }
    }
}

/// Emits sound C for a whole (TAC-form) unit.
pub fn emit_c(unit: &Unit, sema: &Sema, precision: EmitPrecision) -> String {
    let mut out = String::new();
    out.push_str("/* Generated by SafeGen-rs: sound affine-arithmetic version. */\n");
    out.push_str("#include \"safegen_aa.h\"\n\n");
    for f in &unit.functions {
        emit_function(&mut out, f, sema, precision);
        out.push('\n');
    }
    out
}

fn declarator(ty: &Ty, name: &str, p: EmitPrecision) -> String {
    match ty {
        Ty::Ptr(inner) => format!("{} *{}", scalar_ty(inner, p), name),
        Ty::Array(..) => {
            let mut dims = String::new();
            let mut cur = ty;
            while let Ty::Array(inner, n) = cur {
                let _ = write!(dims, "[{n}]");
                cur = inner;
            }
            format!("{} {}{}", scalar_ty(cur, p), name, dims)
        }
        _ => format!("{} {}", scalar_ty(ty, p), name),
    }
}

fn scalar_ty(ty: &Ty, p: EmitPrecision) -> &'static str {
    match ty.scalar() {
        Ty::Void => "void",
        Ty::Int => "int",
        Ty::Float | Ty::Double => p.ty(),
        _ => unreachable!(),
    }
}

fn emit_function(out: &mut String, f: &Function, sema: &Sema, p: EmitPrecision) {
    let _ = write!(out, "{} {}(", scalar_ty(&f.ret, p), f.name);
    for (i, param) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&declarator(&param.ty, &param.name, p));
    }
    out.push_str(") {\n");
    emit_block(out, &f.body, f, sema, p, 1);
    out.push_str("}\n");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn emit_block(
    out: &mut String,
    body: &[Stmt],
    f: &Function,
    sema: &Sema,
    p: EmitPrecision,
    level: usize,
) {
    for s in body {
        emit_stmt(out, s, f, sema, p, level);
    }
}

fn emit_stmt(
    out: &mut String,
    s: &Stmt,
    f: &Function,
    sema: &Sema,
    p: EmitPrecision,
    level: usize,
) {
    let is_float = |e: &Expr| sema.type_of(&f.name, e).is_float();
    match s {
        Stmt::Decl { ty, name, init, .. } => {
            indent(out, level);
            if ty.is_float() {
                let _ = write!(out, "{}", declarator(ty, name, p));
                if let Some(e) = init {
                    let _ = write!(out, " = {}", emit_expr(e, f, sema, p));
                }
            } else {
                let _ = write!(out, "{}", declarator(ty, name, p));
                if let Some(e) = init {
                    let _ = write!(out, " = {}", emit_int_expr(e));
                }
            }
            out.push_str(";\n");
        }
        Stmt::Assign { lhs, op, rhs, .. } => {
            debug_assert_eq!(*op, AssignOp::Set, "emit after TAC transform");
            indent(out, level);
            if is_float(lhs) {
                let _ = writeln!(
                    out,
                    "{} = {};",
                    emit_lvalue(lhs),
                    emit_expr(rhs, f, sema, p)
                );
            } else {
                let _ = writeln!(out, "{} = {};", emit_lvalue(lhs), emit_int_expr(rhs));
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            indent(out, level);
            let _ = writeln!(out, "if ({}) {{", emit_cond(cond, f, sema, p));
            emit_block(out, then_body, f, sema, p, level + 1);
            indent(out, level);
            if else_body.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                emit_block(out, else_body, f, sema, p, level + 1);
                indent(out, level);
                out.push_str("}\n");
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            indent(out, level);
            out.push_str("for (");
            if let Some(i) = init {
                let mut tmp = String::new();
                emit_stmt(&mut tmp, i, f, sema, p, 0);
                out.push_str(tmp.trim().trim_end_matches(';'));
            }
            out.push_str("; ");
            if let Some(c) = cond {
                out.push_str(&emit_cond(c, f, sema, p));
            }
            out.push_str("; ");
            if let Some(st) = step {
                let mut tmp = String::new();
                emit_stmt(&mut tmp, st, f, sema, p, 0);
                out.push_str(tmp.trim().trim_end_matches(';'));
            }
            out.push_str(") {\n");
            emit_block(out, body, f, sema, p, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::While { cond, body, .. } => {
            indent(out, level);
            let _ = writeln!(out, "while ({}) {{", emit_cond(cond, f, sema, p));
            emit_block(out, body, f, sema, p, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Return { value, .. } => {
            indent(out, level);
            match value {
                Some(e) if is_float(e) => {
                    let _ = writeln!(out, "return {};", emit_expr(e, f, sema, p));
                }
                Some(e) => {
                    let _ = writeln!(out, "return {};", emit_int_expr(e));
                }
                None => out.push_str("return;\n"),
            }
        }
        Stmt::ExprStmt { expr, .. } => {
            indent(out, level);
            let _ = writeln!(out, "{};", emit_expr(expr, f, sema, p));
        }
        Stmt::Pragma { payload, .. } => {
            // The pragma lowers to the runtime prioritization call.
            if let Some(var) = payload
                .strip_prefix("prioritize(")
                .and_then(|r| r.strip_suffix(')'))
            {
                indent(out, level);
                let _ = writeln!(out, "aa_prioritize_{}({});", p.suffix(), var.trim());
            }
        }
        Stmt::Block { body, .. } => {
            indent(out, level);
            out.push_str("{\n");
            emit_block(out, body, f, sema, p, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

fn emit_lvalue(e: &Expr) -> String {
    safegen_cfront::print_expr(e)
}

fn emit_int_expr(e: &Expr) -> String {
    safegen_cfront::print_expr(e)
}

fn emit_cond(e: &Expr, f: &Function, sema: &Sema, p: EmitPrecision) -> String {
    match e {
        Expr::Bin { op, lhs, rhs, .. } if op.is_cmp() => {
            let lf = sema.type_of(&f.name, lhs).is_float();
            let rf = sema.type_of(&f.name, rhs).is_float();
            if lf || rf {
                let fun = match op {
                    safegen_cfront::BinOp::Lt => "lt",
                    safegen_cfront::BinOp::Le => "le",
                    safegen_cfront::BinOp::Gt => "gt",
                    safegen_cfront::BinOp::Ge => "ge",
                    safegen_cfront::BinOp::Eq => "eq",
                    safegen_cfront::BinOp::Ne => "ne",
                    _ => unreachable!(),
                };
                format!(
                    "aa_cmp_{}_{}({}, {})",
                    fun,
                    p.suffix(),
                    emit_expr(lhs, f, sema, p),
                    emit_expr(rhs, f, sema, p)
                )
            } else {
                safegen_cfront::print_expr(e)
            }
        }
        Expr::Bin {
            op: safegen_cfront::BinOp::And,
            lhs,
            rhs,
            ..
        } => {
            format!(
                "({}) && ({})",
                emit_cond(lhs, f, sema, p),
                emit_cond(rhs, f, sema, p)
            )
        }
        Expr::Bin {
            op: safegen_cfront::BinOp::Or,
            lhs,
            rhs,
            ..
        } => {
            format!(
                "({}) || ({})",
                emit_cond(lhs, f, sema, p),
                emit_cond(rhs, f, sema, p)
            )
        }
        other => safegen_cfront::print_expr(other),
    }
}

fn emit_expr(e: &Expr, f: &Function, sema: &Sema, p: EmitPrecision) -> String {
    let s = p.suffix();
    match e {
        Expr::FloatLit { value, .. } => format!("aa_const_{s}({value:?})"),
        Expr::IntLit { value, .. } => format!("aa_const_{s}({value}.0)"),
        Expr::Ident { .. } | Expr::Index { .. } => safegen_cfront::print_expr(e),
        Expr::Bin { op, lhs, rhs, .. } => {
            let fun = match op {
                safegen_cfront::BinOp::Add => "add",
                safegen_cfront::BinOp::Sub => "sub",
                safegen_cfront::BinOp::Mul => "mul",
                safegen_cfront::BinOp::Div => "div",
                _ => return emit_cond(e, f, sema, p),
            };
            format!(
                "aa_{fun}_{s}({}, {})",
                emit_expr(lhs, f, sema, p),
                emit_expr(rhs, f, sema, p)
            )
        }
        Expr::Un {
            op: UnOp::Neg,
            operand,
            ..
        } => {
            format!("aa_neg_{s}({})", emit_expr(operand, f, sema, p))
        }
        Expr::Un {
            op: UnOp::Not,
            operand,
            ..
        } => {
            format!("!({})", emit_expr(operand, f, sema, p))
        }
        Expr::Call { callee, args, .. } => {
            let fun = match callee.as_str() {
                "sqrt" => "sqrt",
                "fabs" => "abs",
                "fmin" => "min",
                "fmax" => "max",
                other => other,
            };
            let args: Vec<String> = args.iter().map(|a| emit_expr(a, f, sema, p)).collect();
            format!("aa_{fun}_{s}({})", args.join(", "))
        }
        Expr::Cast { ty, operand, .. } => {
            if ty.is_float() {
                let inner_float = sema.type_of(&f.name, operand).is_float();
                if inner_float {
                    emit_expr(operand, f, sema, p)
                } else {
                    format!("aa_from_int_{s}({})", safegen_cfront::print_expr(operand))
                }
            } else {
                format!("aa_to_int_{s}({})", emit_expr(operand, f, sema, p))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_cfront::{analyze, parse};

    fn emit(src: &str) -> String {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = safegen_ir::to_tac(&unit, &sema);
        let sema = analyze(&tac).unwrap();
        emit_c(&tac, &sema, EmitPrecision::F64)
    }

    #[test]
    fn fig2_shape() {
        // The paper's Fig. 2: c = a * b + 0.1 becomes affine calls with a
        // sound constant.
        let out = emit(
            "void f(double a, double b, double c) {
                 c = a * b + 0.1;
             }",
        );
        assert!(out.contains("f64a a"), "{out}");
        assert!(out.contains("aa_mul_f64(a, b)"), "{out}");
        assert!(out.contains("aa_const_f64(0.1)"), "{out}");
        assert!(out.contains("aa_add_f64("), "{out}");
    }

    #[test]
    fn declarations_change_type() {
        let out = emit("double f(double x) { double y = x; return y; }");
        assert!(out.contains("f64a f(f64a x)"), "{out}");
        assert!(out.contains("f64a y = x;"), "{out}");
    }

    #[test]
    fn int_code_untouched() {
        let out = emit("void f(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i]; } }");
        assert!(out.contains("for (int i = 0; i < 4; i = i + 1)"), "{out}");
        assert!(out.contains("f64a a[4]"), "{out}");
    }

    #[test]
    fn sqrt_maps_to_paper_name() {
        // Paper: sqrt(x) is transformed to aa_sqrt_f64(x).
        let out = emit("double f(double x) { return sqrt(x); }");
        assert!(out.contains("aa_sqrt_f64(x)"), "{out}");
    }

    #[test]
    fn pragma_lowered_to_prioritize_call() {
        let out = emit("void f(double x, double z) {\n#pragma safegen prioritize(z)\nx = x * z; }");
        assert!(out.contains("aa_prioritize_f64(z);"), "{out}");
    }

    #[test]
    fn dd_precision_types() {
        let unit = parse("double f(double x) { return x * x; }").unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = safegen_ir::to_tac(&unit, &sema);
        let sema = analyze(&tac).unwrap();
        let out = emit_c(&tac, &sema, EmitPrecision::Dd);
        assert!(out.contains("dda f(dda x)"), "{out}");
        assert!(out.contains("aa_mul_dd(x, x)"), "{out}");
    }

    #[test]
    fn float_comparisons_lowered() {
        let out = emit("double f(double x) { if (x < 0.0) { return x; } return x; }");
        assert!(out.contains("aa_cmp_lt_f64(x, aa_const_f64(0.0))"), "{out}");
    }

    #[test]
    fn constants_print_round_trippable() {
        let out = emit("double f() { return 0.30000000000000004; }");
        assert!(out.contains("aa_const_f64(0.30000000000000004)"), "{out}");
    }
}
