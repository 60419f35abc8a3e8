//! Pretty-printer: renders an AST back to HPF/Fortran 90D source.
//!
//! `parse(pretty(ast)) == ast` (modulo spans) is enforced by property tests;
//! the compiler also prints expressions with it, to name an expression it
//! cannot resolve statically in its diagnostics.

use crate::ast::*;
use std::fmt::Write;

/// Render a whole program.
pub fn pretty_program(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "PROGRAM {}", p.name);
    for d in &p.decls {
        pretty_decl(d, &mut out);
    }
    for d in &p.directives {
        pretty_directive(d, &mut out);
    }
    for s in &p.body {
        pretty_stmt(s, 1, &mut out);
    }
    let _ = writeln!(out, "END PROGRAM {}", p.name);
    out
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn pretty_decl(d: &Decl, out: &mut String) {
    indent(1, out);
    out.push_str(d.type_spec.name());
    if d.parameter {
        out.push_str(", PARAMETER");
    }
    if let Some(dims) = &d.dimension {
        out.push_str(", DIMENSION(");
        pretty_dims(dims, out);
        out.push(')');
    }
    out.push_str(" :: ");
    for (i, e) in d.entities.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&e.name);
        if let Some(dims) = &e.dims {
            out.push('(');
            pretty_dims(dims, out);
            out.push(')');
        }
        if let Some(init) = &e.init {
            out.push_str(" = ");
            out.push_str(&pretty_expr(init));
        }
    }
    out.push('\n');
}

fn pretty_dims(dims: &[DimBound], out: &mut String) {
    for (i, d) in dims.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if let Some(lb) = &d.lower {
            out.push_str(&pretty_expr(lb));
            out.push(':');
        }
        out.push_str(&pretty_expr(&d.upper));
    }
}

fn pretty_directive(d: &Directive, out: &mut String) {
    out.push_str("!HPF$ ");
    match d {
        Directive::Processors { name, shape, .. } => {
            let _ = write!(out, "PROCESSORS {name}(");
            for (i, e) in shape.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&pretty_expr(e));
            }
            out.push(')');
        }
        Directive::Template { name, shape, .. } => {
            let _ = write!(out, "TEMPLATE {name}(");
            pretty_dims(shape, out);
            out.push(')');
        }
        Directive::Align {
            alignee,
            dummies,
            target,
            target_subs,
            ..
        } => {
            let _ = write!(out, "ALIGN {alignee}");
            if !dummies.is_empty() {
                let _ = write!(out, "({})", dummies.join(", "));
            }
            let _ = write!(out, " WITH {target}");
            if !target_subs.is_empty() {
                out.push('(');
                for (i, s) in target_subs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    match s {
                        AlignSub::Replicated => out.push('*'),
                        AlignSub::Affine {
                            dummy,
                            stride,
                            offset,
                        } => {
                            if *stride == -1 {
                                out.push('-');
                            }
                            out.push_str(dummy);
                            if *offset > 0 {
                                let _ = write!(out, " + {offset}");
                            } else if *offset < 0 {
                                let _ = write!(out, " - {}", -offset);
                            }
                        }
                    }
                }
                out.push(')');
            }
        }
        Directive::Independent { .. } => {
            out.push_str("INDEPENDENT");
        }
        Directive::Distribute {
            target,
            formats,
            onto,
            ..
        } => {
            let _ = write!(out, "DISTRIBUTE {target}(");
            for (i, f) in formats.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{f}");
            }
            out.push(')');
            if let Some(p) = onto {
                let _ = write!(out, " ONTO {p}");
            }
        }
    }
    out.push('\n');
}

fn pretty_stmt(s: &Stmt, level: usize, out: &mut String) {
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            indent(level, out);
            let _ = writeln!(out, "{} = {}", pretty_ref(lhs), pretty_expr(rhs));
        }
        Stmt::Forall { header, body, .. } => {
            indent(level, out);
            out.push_str("FORALL (");
            for (i, t) in header.triplets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{} = {}:{}",
                    t.var,
                    pretty_expr(&t.lo),
                    pretty_expr(&t.hi)
                );
                if let Some(st) = &t.stride {
                    let _ = write!(out, ":{}", pretty_expr(st));
                }
            }
            if let Some(m) = &header.mask {
                let _ = write!(out, ", {}", pretty_expr(m));
            }
            out.push_str(")\n");
            for st in body {
                pretty_stmt(st, level + 1, out);
            }
            indent(level, out);
            out.push_str("END FORALL\n");
        }
        Stmt::Where {
            mask,
            body,
            elsewhere,
            ..
        } => {
            indent(level, out);
            let _ = writeln!(out, "WHERE ({})", pretty_expr(mask));
            for st in body {
                pretty_stmt(st, level + 1, out);
            }
            if !elsewhere.is_empty() {
                indent(level, out);
                out.push_str("ELSEWHERE\n");
                for st in elsewhere {
                    pretty_stmt(st, level + 1, out);
                }
            }
            indent(level, out);
            out.push_str("END WHERE\n");
        }
        Stmt::Do {
            var,
            lo,
            hi,
            step,
            body,
            ..
        } => {
            indent(level, out);
            let _ = write!(out, "DO {var} = {}, {}", pretty_expr(lo), pretty_expr(hi));
            if let Some(st) = step {
                let _ = write!(out, ", {}", pretty_expr(st));
            }
            out.push('\n');
            for st in body {
                pretty_stmt(st, level + 1, out);
            }
            indent(level, out);
            out.push_str("END DO\n");
        }
        Stmt::DoWhile { cond, body, .. } => {
            indent(level, out);
            let _ = writeln!(out, "DO WHILE ({})", pretty_expr(cond));
            for st in body {
                pretty_stmt(st, level + 1, out);
            }
            indent(level, out);
            out.push_str("END DO\n");
        }
        Stmt::If {
            arms, else_body, ..
        } => {
            for (i, (cond, body)) in arms.iter().enumerate() {
                indent(level, out);
                if i == 0 {
                    let _ = writeln!(out, "IF ({}) THEN", pretty_expr(cond));
                } else {
                    let _ = writeln!(out, "ELSE IF ({}) THEN", pretty_expr(cond));
                }
                for st in body {
                    pretty_stmt(st, level + 1, out);
                }
            }
            if !else_body.is_empty() {
                indent(level, out);
                out.push_str("ELSE\n");
                for st in else_body {
                    pretty_stmt(st, level + 1, out);
                }
            }
            indent(level, out);
            out.push_str("END IF\n");
        }
        Stmt::Call { name, args, .. } => {
            indent(level, out);
            let _ = write!(out, "CALL {name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&pretty_expr(a));
            }
            out.push_str(")\n");
        }
        Stmt::Print { items, .. } => {
            indent(level, out);
            out.push_str("PRINT *");
            for a in items {
                let _ = write!(out, ", {}", pretty_expr(a));
            }
            out.push('\n');
        }
        Stmt::Stop { .. } => {
            indent(level, out);
            out.push_str("STOP\n");
        }
        Stmt::Io { kind, arrays, .. } => {
            indent(level, out);
            out.push_str(kind.keyword());
            if !arrays.is_empty() {
                let _ = write!(out, "({})", arrays.join(", "));
            }
            out.push('\n');
        }
    }
}

/// Render a data reference.
pub fn pretty_ref(r: &DataRef) -> String {
    let mut out = r.name.clone();
    if !r.subs.is_empty() {
        out.push('(');
        for (i, s) in r.subs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match s {
                Subscript::Index(e) => out.push_str(&pretty_expr(e)),
                Subscript::Triplet { lo, hi, stride } => {
                    if let Some(lo) = lo {
                        out.push_str(&pretty_expr(lo));
                    }
                    out.push(':');
                    if let Some(hi) = hi {
                        out.push_str(&pretty_expr(hi));
                    }
                    if let Some(st) = stride {
                        out.push(':');
                        out.push_str(&pretty_expr(st));
                    }
                }
            }
        }
        out.push(')');
    }
    out
}

/// Render an expression with full parenthesization of nested operations
/// (keeps the printer trivially correct w.r.t. precedence).
pub fn pretty_expr(e: &Expr) -> String {
    match e {
        Expr::IntLit(v, _) => format!("{v}"),
        Expr::RealLit(v, _) => {
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains('E') || s.contains("inf") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Expr::LogicalLit(true, _) => ".TRUE.".to_string(),
        Expr::LogicalLit(false, _) => ".FALSE.".to_string(),
        Expr::StrLit(s, _) => format!("'{}'", s.replace('\'', "''")),
        Expr::Ref(r) => pretty_ref(r),
        Expr::Intrinsic { name, args, .. } => {
            let args: Vec<String> = args.iter().map(pretty_expr).collect();
            format!("{}({})", name.name(), args.join(", "))
        }
        Expr::Unary { op, operand, .. } => {
            let inner = pretty_atom(operand);
            match op {
                UnOp::Neg => format!("-{inner}"),
                UnOp::Plus => format!("+{inner}"),
                UnOp::Not => format!(".NOT. {inner}"),
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            format!("{} {} {}", pretty_atom(lhs), op.symbol(), pretty_atom(rhs))
        }
    }
}

/// Parenthesize compound sub-expressions.
fn pretty_atom(e: &Expr) -> String {
    match e {
        Expr::Binary { .. } | Expr::Unary { .. } => format!("({})", pretty_expr(e)),
        _ => pretty_expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// Spans differ after a round trip; compare the *second* round trip to
    /// the first (printing is a fixpoint).
    #[test]
    fn roundtrip_fixpoint() {
        let src = r#"
PROGRAM RT
  INTEGER, PARAMETER :: N = 16
  REAL A(N,N), B(N,N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN A(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
  A = 0.0
  FORALL (I=2:N-1, J=2:N-1, B(I,J) .GT. 0.0)
    A(I,J) = 0.25 * (B(I-1,J) + B(I+1,J))
  END FORALL
  DO K = 1, 10, 2
    IF (A(1,1) > 0.5) THEN
      A(1,1) = A(1,1) / 2.0
    ELSE
      A(1,1) = 1.0 - A(1,1)
    END IF
  END DO
END PROGRAM RT
"#;
        let p1 = parse_program(src).unwrap();
        let text1 = pretty_program(&p1);
        let p2 = parse_program(&text1).unwrap();
        let text2 = pretty_program(&p2);
        assert_eq!(text1, text2);
    }

    #[test]
    fn expr_parenthesization_preserves_structure() {
        let src = "PROGRAM T\nREAL A\nA = 1.0 + 2.0 * 3.0\nEND\n";
        let p = parse_program(src).unwrap();
        let text = pretty_program(&p);
        assert!(text.contains("1.0 + (2.0 * 3.0)") || text.contains("1 + (2 * 3)"));
    }
}
