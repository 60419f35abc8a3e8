//! Static operation counting: how many machine operations of each class one
//! evaluation of an expression / statement costs. This is the per-AAU
//! parameterization the interpretation functions consume.

use hpf_lang::ast::*;
use hpf_lang::sema::{AnalyzedProgram, SymbolKind};
use std::ops::{Add, AddAssign, Mul};

/// Operation counts per evaluation (fractional: probability-weighted paths).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    pub fadd: f64,
    pub fmul: f64,
    pub fdiv: f64,
    pub ftrans: f64,
    pub int_ops: f64,
    pub imul: f64,
    pub idiv: f64,
    pub cmp: f64,
    pub logical: f64,
    pub loads: f64,
    pub stores: f64,
    pub index: f64,
    pub calls: f64,
    pub branches: f64,
}

impl OpCounts {
    pub fn zero() -> OpCounts {
        OpCounts::default()
    }

    /// Total memory references.
    pub fn mem_refs(&self) -> f64 {
        self.loads + self.stores
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == OpCounts::default()
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, o: OpCounts) -> OpCounts {
        OpCounts {
            fadd: self.fadd + o.fadd,
            fmul: self.fmul + o.fmul,
            fdiv: self.fdiv + o.fdiv,
            ftrans: self.ftrans + o.ftrans,
            int_ops: self.int_ops + o.int_ops,
            imul: self.imul + o.imul,
            idiv: self.idiv + o.idiv,
            cmp: self.cmp + o.cmp,
            logical: self.logical + o.logical,
            loads: self.loads + o.loads,
            stores: self.stores + o.stores,
            index: self.index + o.index,
            calls: self.calls + o.calls,
            branches: self.branches + o.branches,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        *self = *self + o;
    }
}

impl Mul<f64> for OpCounts {
    type Output = OpCounts;
    fn mul(self, k: f64) -> OpCounts {
        OpCounts {
            fadd: self.fadd * k,
            fmul: self.fmul * k,
            fdiv: self.fdiv * k,
            ftrans: self.ftrans * k,
            int_ops: self.int_ops * k,
            imul: self.imul * k,
            idiv: self.idiv * k,
            cmp: self.cmp * k,
            logical: self.logical * k,
            loads: self.loads * k,
            stores: self.stores * k,
            index: self.index * k,
            calls: self.calls * k,
            branches: self.branches * k,
        }
    }
}

/// Scalar result type of an expression, for choosing FP vs integer ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprType {
    Int,
    Real,
    Logical,
}

/// Whether `name` is the index of one of `dummies`, the FORALL triplets in
/// scope (integer dummies, register-resident).
pub(crate) fn is_dummy(dummies: &[ForallTriplet], name: &str) -> bool {
    dummies.iter().any(|t| t.var == name)
}

/// Infer the scalar result type of an expression; `dummies` are the FORALL
/// triplets in scope.
pub fn expr_type(e: &Expr, analyzed: &AnalyzedProgram, dummies: &[ForallTriplet]) -> ExprType {
    match e {
        Expr::IntLit(..) => ExprType::Int,
        Expr::RealLit(..) => ExprType::Real,
        Expr::LogicalLit(..) => ExprType::Logical,
        Expr::StrLit(..) => ExprType::Int,
        Expr::Ref(r) => {
            if r.subs.is_empty() && is_dummy(dummies, &r.name) {
                return ExprType::Int;
            }
            match analyzed.symbols.get(&r.name) {
                Some(sym) => match sym.ty {
                    TypeSpec::Integer => ExprType::Int,
                    TypeSpec::Logical => ExprType::Logical,
                    _ => ExprType::Real,
                },
                None => match hpf_lang::sema::implicit_type(&r.name) {
                    TypeSpec::Integer => ExprType::Int,
                    _ => ExprType::Real,
                },
            }
        }
        Expr::Intrinsic { name, args, .. } => {
            use Intrinsic::*;
            match name {
                MaxLoc | MinLoc | Size | Int | Nint => ExprType::Int,
                Real | Dble | Float | Sqrt | Exp | Log | Log10 | Sin | Cos | Tan | Atan
                | DotProduct => ExprType::Real,
                _ => args
                    .first()
                    .map(|a| expr_type(a, analyzed, dummies))
                    .unwrap_or(ExprType::Real),
            }
        }
        Expr::Unary { op: UnOp::Not, .. } => ExprType::Logical,
        Expr::Unary { operand, .. } => expr_type(operand, analyzed, dummies),
        Expr::Binary { op, lhs, rhs, .. } => {
            if op.is_relational_or_logical() {
                ExprType::Logical
            } else {
                let l = expr_type(lhs, analyzed, dummies);
                let r = expr_type(rhs, analyzed, dummies);
                if l == ExprType::Real || r == ExprType::Real {
                    ExprType::Real
                } else {
                    ExprType::Int
                }
            }
        }
    }
}

/// Count the operations of one *scalar* evaluation of `e`.
///
/// Array references charge one load plus index arithmetic per subscript;
/// scalar references are assumed register-resident after the first touch
/// (the optimizer keeps loop-invariant scalars in registers), charging a
/// quarter-load on average. Transformational intrinsics are *not* counted
/// here — the lowering pass expands them into phases.
pub fn count_expr(e: &Expr, analyzed: &AnalyzedProgram, dummies: &[ForallTriplet]) -> OpCounts {
    let mut c = OpCounts::zero();
    count_into(e, analyzed, dummies, &mut c);
    c
}

fn count_into(e: &Expr, analyzed: &AnalyzedProgram, dummies: &[ForallTriplet], c: &mut OpCounts) {
    match e {
        Expr::IntLit(..) | Expr::RealLit(..) | Expr::LogicalLit(..) | Expr::StrLit(..) => {}
        Expr::Ref(r) => {
            if r.subs.is_empty() {
                let is_dummy = is_dummy(dummies, &r.name);
                let is_param = matches!(
                    analyzed.symbols.get(&r.name).map(|s| &s.kind),
                    Some(SymbolKind::Parameter { .. })
                );
                if !is_dummy && !is_param {
                    c.loads += 0.25; // register-cached scalar
                }
            } else {
                c.loads += 1.0;
                c.index += r.subs.len() as f64;
                for s in &r.subs {
                    if let Subscript::Index(ix) = s {
                        count_into(ix, analyzed, dummies, c);
                    }
                }
            }
        }
        Expr::Intrinsic { name, args, .. } => {
            use Intrinsic::*;
            for a in args {
                count_into(a, analyzed, dummies, c);
            }
            match name {
                Abs | Sign => c.fadd += 1.0,
                Sqrt | Exp | Log | Log10 | Sin | Cos | Tan | Atan => c.ftrans += 1.0,
                Min | Max => c.cmp += (args.len().max(2) - 1) as f64,
                Mod => c.idiv += 1.0,
                Int | Nint | Real | Dble | Float => c.int_ops += 1.0,
                // transformational: expanded by lowering, charge call linkage
                _ => c.calls += 1.0,
            }
        }
        Expr::Unary { op, operand, .. } => {
            count_into(operand, analyzed, dummies, c);
            match op {
                UnOp::Not => c.logical += 1.0,
                UnOp::Neg => match expr_type(operand, analyzed, dummies) {
                    ExprType::Real => c.fadd += 1.0,
                    _ => c.int_ops += 1.0,
                },
                UnOp::Plus => {}
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            count_into(lhs, analyzed, dummies, c);
            count_into(rhs, analyzed, dummies, c);
            let real = expr_type(lhs, analyzed, dummies) == ExprType::Real
                || expr_type(rhs, analyzed, dummies) == ExprType::Real;
            match op {
                BinOp::Add | BinOp::Sub => {
                    if real {
                        c.fadd += 1.0
                    } else {
                        c.int_ops += 1.0
                    }
                }
                BinOp::Mul => {
                    if real {
                        c.fmul += 1.0
                    } else {
                        c.imul += 1.0
                    }
                }
                BinOp::Div => {
                    if real {
                        c.fdiv += 1.0
                    } else {
                        c.idiv += 1.0
                    }
                }
                BinOp::Pow => {
                    // integer exponent: repeated multiply; otherwise exp/log
                    if let Expr::IntLit(k, _) = rhs.as_ref() {
                        let muls = (k.unsigned_abs().max(1) as f64).log2().ceil().max(1.0);
                        if real {
                            c.fmul += muls
                        } else {
                            c.imul += muls
                        }
                    } else {
                        c.ftrans += 1.0;
                    }
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    c.cmp += 1.0
                }
                BinOp::And | BinOp::Or | BinOp::Eqv | BinOp::Neqv => c.logical += 1.0,
            }
        }
    }
}

/// Count one execution of a scalar assignment `lhs = rhs` (store included).
pub fn count_assign(
    lhs: &DataRef,
    rhs: &Expr,
    analyzed: &AnalyzedProgram,
    dummies: &[ForallTriplet],
) -> OpCounts {
    let mut c = count_expr(rhs, analyzed, dummies);
    c.stores += 1.0;
    if !lhs.subs.is_empty() {
        c.index += lhs.subs.len() as f64;
        for s in &lhs.subs {
            if let Subscript::Index(ix) = s {
                count_into(ix, analyzed, dummies, &mut c);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_lang::{analyze, parse_program};
    use std::collections::BTreeMap as Map;

    fn prog(src: &str) -> AnalyzedProgram {
        analyze(&parse_program(src).unwrap(), &Map::new()).unwrap()
    }

    /// The first assignment, with the triplets of the FORALL around it.
    fn first_assign(a: &AnalyzedProgram) -> (&[ForallTriplet], &DataRef, &Expr) {
        fn find<'p>(
            stmts: &'p [Stmt],
            triplets: &'p [ForallTriplet],
        ) -> Option<(&'p [ForallTriplet], &'p DataRef, &'p Expr)> {
            for s in stmts {
                match s {
                    Stmt::Assign { lhs, rhs, .. } => return Some((triplets, lhs, rhs)),
                    Stmt::Forall { header, body, .. } => {
                        if let Some(r) = find(body, &header.triplets) {
                            return Some(r);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        find(&a.program.body, &[]).expect("assignment")
    }

    #[test]
    fn stencil_counts() {
        let a = prog(
            "PROGRAM T\nREAL U(8,8), V(8,8)\nFORALL (I=2:7, J=2:7) V(I,J) = 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))\nEND\n",
        );
        let (dummies, lhs, rhs) = first_assign(&a);
        assert_eq!(dummies.len(), 2);
        let c = count_assign(lhs, rhs, &a, dummies);
        assert_eq!(c.fadd, 3.0); // the three FP adds between U refs
        assert_eq!(c.int_ops, 4.0); // the four I±1 / J±1 offset computations
        assert_eq!(c.fmul, 1.0);
        assert_eq!(c.loads, 4.0);
        assert_eq!(c.stores, 1.0);
        assert_eq!(c.index, 8.0 + 2.0);
    }

    #[test]
    fn integer_vs_real_ops() {
        let a = prog("PROGRAM T\nINTEGER K, M\nK = M * 3 + 1\nEND\n");
        let (_, lhs, rhs) = first_assign(&a);
        let c = count_assign(lhs, rhs, &a, &[]);
        assert_eq!(c.imul, 1.0);
        assert_eq!(c.int_ops, 1.0);
        assert_eq!(c.fmul, 0.0);
    }

    #[test]
    fn transcendental_counted() {
        let a = prog("PROGRAM T\nREAL X, Y\nY = SQRT(X) + EXP(X)\nEND\n");
        let (_, lhs, rhs) = first_assign(&a);
        let c = count_assign(lhs, rhs, &a, &[]);
        assert_eq!(c.ftrans, 2.0);
        assert_eq!(c.fadd, 1.0);
    }

    #[test]
    fn division_distinguished() {
        let a = prog("PROGRAM T\nREAL X, Y\nY = 1.0 / X\nEND\n");
        let (_, _, rhs) = first_assign(&a);
        let c = count_expr(rhs, &a, &[]);
        assert_eq!(c.fdiv, 1.0);
        assert_eq!(c.fmul, 0.0);
    }

    #[test]
    fn integer_power_becomes_multiplies() {
        let a = prog("PROGRAM T\nREAL X, Y\nY = X ** 4\nEND\n");
        let (_, _, rhs) = first_assign(&a);
        let c = count_expr(rhs, &a, &[]);
        assert_eq!(c.ftrans, 0.0);
        assert!(c.fmul >= 2.0);
    }

    #[test]
    fn expr_type_inference() {
        let a = prog("PROGRAM T\nINTEGER K\nREAL X\nX = K + 1\nEND\n");
        let (_, _, rhs) = first_assign(&a);
        assert_eq!(expr_type(rhs, &a, &[]), ExprType::Int);
    }

    #[test]
    fn opcounts_algebra() {
        let a = OpCounts {
            fadd: 1.0,
            loads: 2.0,
            ..OpCounts::zero()
        };
        let b = OpCounts {
            fadd: 3.0,
            stores: 1.0,
            ..OpCounts::zero()
        };
        let s = a + b;
        assert_eq!(s.fadd, 4.0);
        assert_eq!(s.mem_refs(), 3.0);
        let d = s * 2.0;
        assert_eq!(d.fadd, 8.0);
        assert!(OpCounts::zero().is_zero());
    }
}
