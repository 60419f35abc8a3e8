//! Scalar operator semantics shared by the const-evaluator (`sema`) and the
//! functional interpreter (`hpf-eval`).
//!
//! Fortran mixed-mode rules: INTEGER op INTEGER stays INTEGER (with truncating
//! division); any REAL operand promotes the operation to REAL.
//!
//! The core works on [`Scalar`], a `Copy` value with no string: every
//! operator and elemental intrinsic rejects a string operand. The `&Value`
//! entry points (`apply_*`) wrap it, mapping a string to `None`.

use crate::ast::{BinOp, Intrinsic, UnOp};
use crate::value::Value;

/// A non-string scalar: what every operator takes and returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    Int(i64),
    Real(f64),
    Logical(bool),
}

impl Scalar {
    /// Numeric view (as [`Value::as_f64`]).
    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(v as f64),
            Scalar::Real(v) => Some(v),
            Scalar::Logical(_) => None,
        }
    }

    #[inline]
    fn as_bool(self) -> Option<bool> {
        match self {
            Scalar::Logical(b) => Some(b),
            _ => None,
        }
    }
}

impl From<Scalar> for Value {
    fn from(v: Scalar) -> Value {
        match v {
            Scalar::Int(v) => Value::Int(v),
            Scalar::Real(v) => Value::Real(v),
            Scalar::Logical(v) => Value::Logical(v),
        }
    }
}

/// An intrinsic argument as the core reads it: its scalar, or `None` for a
/// string. Arguments an intrinsic does not use are never read.
pub trait Operand {
    fn scalar(&self) -> Option<Scalar>;
}

impl Operand for Value {
    #[inline]
    fn scalar(&self) -> Option<Scalar> {
        match self {
            Value::Int(v) => Some(Scalar::Int(*v)),
            Value::Real(v) => Some(Scalar::Real(*v)),
            Value::Logical(v) => Some(Scalar::Logical(*v)),
            Value::Str(_) => None,
        }
    }
}

/// Apply a unary operator; `None` on a type error.
#[inline]
pub fn unary(op: UnOp, v: Scalar) -> Option<Scalar> {
    use Scalar::*;
    match (op, v) {
        (UnOp::Neg, Int(i)) => Some(Int(i.wrapping_neg())),
        (UnOp::Neg, Real(r)) => Some(Real(-r)),
        (UnOp::Plus, Int(_) | Real(_)) => Some(v),
        (UnOp::Not, Logical(b)) => Some(Logical(!b)),
        _ => None,
    }
}

/// Apply a binary operator; `None` on a type error.
#[inline]
pub fn binary(op: BinOp, l: Scalar, r: Scalar) -> Option<Scalar> {
    use BinOp::*;
    use Scalar::*;
    match op {
        Add | Sub | Mul | Div | Pow => match (l, r) {
            (Int(a), Int(b)) => Some(match op {
                Add => Int(a.wrapping_add(b)),
                Sub => Int(a.wrapping_sub(b)),
                Mul => Int(a.wrapping_mul(b)),
                Div => {
                    if b == 0 {
                        return None;
                    }
                    Int(a.wrapping_div(b))
                }
                Pow => {
                    if b >= 0 {
                        Int(a.wrapping_pow(b.min(u32::MAX as i64) as u32))
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
#[inline]
pub fn intrinsic<T: Operand>(intr: Intrinsic, args: &[T]) -> Option<Scalar> {
    use Intrinsic::*;
    use Scalar as S;
    let arg = |k: usize| args.get(k)?.scalar();
    let f1 = |f: fn(f64) -> f64| Some(S::Real(f(arg(0)?.as_f64()?)));
    match intr {
        Abs => match arg(0)? {
            S::Int(v) => Some(S::Int(v.wrapping_abs())),
            S::Real(v) => Some(S::Real(v.abs())),
            S::Logical(_) => None,
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
            let int = |a: &T| match a.scalar() {
                Some(S::Int(v)) => Some(v),
                _ => None,
            };
            if args.iter().all(|a| int(a).is_some()) {
                let it = args.iter().filter_map(int);
                Some(S::Int(if intr == Min { it.min()? } else { it.max()? }))
            } else {
                let mut best = arg(0)?.as_f64()?;
                for a in &args[1..] {
                    let v = a.scalar()?.as_f64()?;
                    best = if intr == Min {
                        best.min(v)
                    } else {
                        best.max(v)
                    };
                }
                Some(S::Real(best))
            }
        }
        Mod => match (arg(0)?, arg(1)?) {
            (S::Int(a), S::Int(b)) if b != 0 => Some(S::Int(a.wrapping_rem(b))),
            (a, b) => Some(S::Real(a.as_f64()? % b.as_f64()?)),
        },
        Sign => {
            let a = arg(0)?.as_f64()?;
            let b = arg(1)?.as_f64()?;
            let m = a.abs();
            Some(S::Real(if b < 0.0 { -m } else { m }))
        }
        Int | Nint => {
            let a = arg(0)?.as_f64()?;
            Some(S::Int(if intr == Nint {
                a.round() as i64
            } else {
                a as i64
            }))
        }
        Real | Dble | Float => Some(S::Real(arg(0)?.as_f64()?)),
        _ => None, // transformational intrinsics handled at array level
    }
}

/// [`unary`] over a [`Value`].
pub fn apply_unary(op: UnOp, v: &Value) -> Option<Value> {
    unary(op, v.scalar()?).map(Value::from)
}

/// [`binary`] over [`Value`]s.
pub fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    binary(op, l.scalar()?, r.scalar()?).map(Value::from)
}

/// [`intrinsic`] over [`Value`]s.
pub fn apply_intrinsic_scalar(intr: Intrinsic, args: &[Value]) -> Option<Value> {
    intrinsic(intr, args).map(Value::from)
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
    fn strings_are_rejected_where_they_are_read() {
        use crate::ast::Intrinsic as I;
        let s = Value::Str("x".into());
        assert_eq!(apply_binary(BinOp::Eq, &s, &s), None);
        assert_eq!(apply_unary(UnOp::Plus, &s), None);
        assert_eq!(
            apply_intrinsic_scalar(I::Abs, &[Value::Int(-2), s.clone()]),
            Some(Value::Int(2))
        );
        assert_eq!(apply_intrinsic_scalar(I::Max, &[Value::Int(1), s]), None);
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
