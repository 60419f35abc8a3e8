//! Scalar operator semantics shared by the const-evaluator (`sema`) and the
//! functional interpreter (`hpf-eval`).
//!
//! Fortran mixed-mode rules: INTEGER op INTEGER stays INTEGER (with truncating
//! division); any REAL operand promotes the operation to REAL.

use crate::ast::{BinOp, Intrinsic, UnOp};
use crate::value::Value;

/// Apply a unary operator; `None` on a type error.
pub fn apply_unary(op: UnOp, v: &Value) -> Option<Value> {
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Some(Value::Int(i.wrapping_neg())),
        (UnOp::Neg, Value::Real(r)) => Some(Value::Real(-r)),
        (UnOp::Plus, Value::Int(_) | Value::Real(_)) => Some(v.clone()),
        (UnOp::Not, Value::Logical(b)) => Some(Value::Logical(!b)),
        _ => None,
    }
}

/// Apply a binary operator; `None` on a type error.
pub fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    use BinOp::*;
    use Value::*;
    match op {
        Add | Sub | Mul | Div | Pow => match (l, r) {
            (Int(a), Int(b)) => Some(match op {
                Add => Int(a.wrapping_add(*b)),
                Sub => Int(a.wrapping_sub(*b)),
                Mul => Int(a.wrapping_mul(*b)),
                Div => {
                    if *b == 0 {
                        return None;
                    }
                    Int(a.wrapping_div(*b))
                }
                Pow => {
                    if *b >= 0 {
                        Int(a.wrapping_pow((*b).min(u32::MAX as i64) as u32))
                    } else {
                        // INTEGER ** negative is 0 (or 1/±1) in Fortran.
                        Int(if a.unsigned_abs() == 1 {
                            a.pow((-b % 2) as u32)
                        } else {
                            0
                        })
                    }
                }
                _ => unreachable!(),
            }),
            _ => {
                let a = l.as_f64()?;
                let b = r.as_f64()?;
                Some(Real(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Pow => a.powf(b),
                    _ => unreachable!(),
                }))
            }
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            if let (Logical(a), Logical(b)) = (l, r) {
                return match op {
                    Eq => Some(Logical(a == b)),
                    Ne => Some(Logical(a != b)),
                    _ => None,
                };
            }
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            Some(Logical(match op {
                Eq => a == b,
                Ne => a != b,
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            }))
        }
        And | Or | Eqv | Neqv => {
            let a = l.as_bool()?;
            let b = r.as_bool()?;
            Some(Logical(match op {
                And => a && b,
                Or => a || b,
                Eqv => a == b,
                Neqv => a != b,
                _ => unreachable!(),
            }))
        }
    }
}

/// Apply an *elemental* intrinsic to scalar arguments; `None` if the
/// intrinsic is transformational (array-valued) or arguments are malformed.
pub fn apply_intrinsic_scalar(intr: Intrinsic, args: &[Value]) -> Option<Value> {
    use Intrinsic::*;
    use Value as V;
    let f1 = |f: fn(f64) -> f64| args.first()?.as_f64().map(|v| V::Real(f(v)));
    match intr {
        Abs => match args.first()? {
            V::Int(v) => Some(V::Int(v.wrapping_abs())),
            V::Real(v) => Some(V::Real(v.abs())),
            _ => None,
        },
        Sqrt => f1(f64::sqrt),
        Exp => f1(f64::exp),
        Log => f1(f64::ln),
        Log10 => f1(f64::log10),
        Sin => f1(f64::sin),
        Cos => f1(f64::cos),
        Tan => f1(f64::tan),
        Atan => f1(f64::atan),
        Min | Max => {
            if args.is_empty() {
                return None;
            }
            let all_int = args.iter().all(|a| matches!(a, V::Int(_)));
            if all_int {
                let it = args.iter().filter_map(|a| a.as_i64());
                Some(V::Int(if intr == Min { it.min()? } else { it.max()? }))
            } else {
                let mut best = args.first()?.as_f64()?;
                for a in &args[1..] {
                    let v = a.as_f64()?;
                    best = if intr == Min {
                        best.min(v)
                    } else {
                        best.max(v)
                    };
                }
                Some(V::Real(best))
            }
        }
        Mod => match (args.first()?, args.get(1)?) {
            (V::Int(a), V::Int(b)) if *b != 0 => Some(V::Int(a.wrapping_rem(*b))),
            (a, b) => {
                let (a, b) = (a.as_f64()?, b.as_f64()?);
                Some(V::Real(a % b))
            }
        },
        Sign => {
            let a = args.first()?.as_f64()?;
            let b = args.get(1)?.as_f64()?;
            let m = a.abs();
            Some(V::Real(if b < 0.0 { -m } else { m }))
        }
        Int | Nint => {
            let a = args.first()?.as_f64()?;
            Some(Value::Int(if intr == Nint {
                a.round() as i64
            } else {
                a as i64
            }))
        }
        Real | Dble | Float => Some(Value::Real(args.first()?.as_f64()?)),
        _ => None, // transformational intrinsics handled at array level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;

    #[test]
    fn integer_division_truncates() {
        assert_eq!(
            apply_binary(BinOp::Div, &Value::Int(7), &Value::Int(2)),
            Some(Value::Int(3))
        );
        assert_eq!(
            apply_binary(BinOp::Div, &Value::Int(7), &Value::Int(0)),
            None
        );
    }

    #[test]
    fn mixed_mode_promotes() {
        assert_eq!(
            apply_binary(BinOp::Add, &Value::Int(1), &Value::Real(0.5)),
            Some(Value::Real(1.5))
        );
    }

    #[test]
    fn integer_pow() {
        assert_eq!(
            apply_binary(BinOp::Pow, &Value::Int(2), &Value::Int(10)),
            Some(Value::Int(1024))
        );
        assert_eq!(
            apply_binary(BinOp::Pow, &Value::Int(2), &Value::Int(-1)),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn relationals() {
        assert_eq!(
            apply_binary(BinOp::Le, &Value::Int(3), &Value::Real(3.0)),
            Some(Value::Logical(true))
        );
        assert_eq!(
            apply_binary(BinOp::Eq, &Value::Logical(true), &Value::Logical(false)),
            Some(Value::Logical(false))
        );
        assert_eq!(
            apply_binary(BinOp::Lt, &Value::Logical(true), &Value::Logical(false)),
            None
        );
    }

    #[test]
    fn logicals() {
        assert_eq!(
            apply_binary(BinOp::And, &Value::Logical(true), &Value::Logical(false)),
            Some(Value::Logical(false))
        );
        assert_eq!(
            apply_binary(BinOp::Neqv, &Value::Logical(true), &Value::Logical(false)),
            Some(Value::Logical(true))
        );
    }

    #[test]
    fn intrinsic_scalars() {
        use crate::ast::Intrinsic as I;
        assert_eq!(
            apply_intrinsic_scalar(I::Abs, &[Value::Int(-3)]),
            Some(Value::Int(3))
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Sqrt, &[Value::Real(4.0)]),
            Some(Value::Real(2.0))
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Min, &[Value::Int(3), Value::Int(1), Value::Int(2)]),
            Some(Value::Int(1))
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Mod, &[Value::Int(7), Value::Int(3)]),
            Some(Value::Int(1))
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Nint, &[Value::Real(2.6)]),
            Some(Value::Int(3))
        );
        assert_eq!(apply_intrinsic_scalar(I::Sum, &[Value::Int(1)]), None);
    }

    #[test]
    fn integer_extremes_wrap_instead_of_panicking() {
        use crate::ast::Intrinsic as I;
        let min = Value::Int(i64::MIN);
        assert_eq!(apply_unary(UnOp::Neg, &min), Some(min.clone()));
        assert_eq!(
            apply_intrinsic_scalar(I::Abs, std::slice::from_ref(&min)),
            Some(min.clone())
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Mod, &[min.clone(), Value::Int(-1)]),
            Some(Value::Int(0))
        );
        assert_eq!(
            apply_binary(BinOp::Pow, &min, &Value::Int(-1)),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn unary_ops() {
        assert_eq!(
            apply_unary(UnOp::Neg, &Value::Real(2.0)),
            Some(Value::Real(-2.0))
        );
        assert_eq!(
            apply_unary(UnOp::Not, &Value::Logical(false)),
            Some(Value::Logical(true))
        );
        assert_eq!(apply_unary(UnOp::Not, &Value::Int(1)), None);
    }
}
