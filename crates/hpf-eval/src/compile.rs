//! Compilation: every scalar expression the machine runs becomes nested
//! closures over the machine state, built once per run as lowering builds
//! each statement.
//!
//! Lowering's `S` trees stay the analysis form (the FORALL store rule reads
//! them); nothing executes them. Array-valued `A` trees stay interpreted,
//! with their scalar operands (section bounds, shift amounts, …) compiled.
//!
//! A node's closure returns `i64` or `f64` where the program fixes its type,
//! and a tagged [`Val`] everywhere else:
//!
//! - element reads of declared INTEGER and REAL arrays (their buffers are
//!   converted on every store and never change kind), INTEGER and REAL
//!   literals and FORALL index registers;
//! - arithmetic with a REAL operand is REAL, converting an INTEGER operand
//!   with `as f64` and checking a `Val` one once both operands are
//!   evaluated; INTEGER op INTEGER wraps as `value_ops` does; unary `-`
//!   and `+` keep their operand's type.
//!
//! Everything else goes through `hpf_lang::value_ops` over `Val`s, the one
//! operator semantics: declared scalars (a DO loop stores `Int` into a REAL
//! scalar) and the relational, logical and elemental operators. Operands
//! evaluate left to right, and a node raises its type error only after all
//! its operands are evaluated, so an error in a later operand wins.

use crate::buffer::{self, Buf, Val};
use crate::eval::{fail, integer, Machine, R};
use crate::lower::{Affine, ArraySlot, Axis, Ex, Sub, Subs, A, S};
use hpf_lang::ast::{BinOp, Intrinsic, TypeSpec, UnOp};
use hpf_lang::value_ops::{self, Scalar};
use hpf_lang::Span;

/// A compiled expression, evaluated against the machine state.
pub(crate) type Compiled<T> = Box<dyn Fn(&mut Machine<'_>) -> R<T>>;

fn compiled<T>(f: impl Fn(&mut Machine<'_>) -> R<T> + 'static) -> Compiled<T> {
    Box::new(f)
}

/// A compiled scalar expression, typed as far as the program fixes it.
enum Typed {
    Int(Compiled<i64>),
    Real(Compiled<f64>),
    Val(Compiled<Val>),
}

impl Typed {
    fn val(self) -> Compiled<Val> {
        match self {
            Typed::Int(f) => compiled(move |m| f(m).map(Val::Int)),
            Typed::Real(f) => compiled(move |m| f(m).map(Val::Real)),
            Typed::Val(f) => f,
        }
    }
}

/// A scalar operand of REAL arithmetic.
trait Numeric: Copy + 'static {
    /// The value as REAL, or `None` when it is not numeric.
    fn real(self) -> Option<f64>;
}

impl Numeric for i64 {
    #[inline]
    fn real(self) -> Option<f64> {
        Some(self as f64)
    }
}

impl Numeric for f64 {
    #[inline]
    fn real(self) -> Option<f64> {
        Some(self)
    }
}

impl Numeric for Val {
    #[inline]
    fn real(self) -> Option<f64> {
        self.as_f64()
    }
}

/// A value stored into an array element, already of the array's type.
trait Element: Copy + 'static {
    fn set(buf: &mut Buf, k: usize, v: Self);
    fn val(self) -> Val;
}

impl Element for i64 {
    #[inline]
    fn set(buf: &mut Buf, k: usize, v: i64) {
        buf.set_int(k, v);
    }
    fn val(self) -> Val {
        Val::Int(self)
    }
}

impl Element for f64 {
    #[inline]
    fn set(buf: &mut Buf, k: usize, v: f64) {
        buf.set_real(k, v);
    }
    fn val(self) -> Val {
        Val::Real(self)
    }
}

impl Element for Val {
    #[inline]
    fn set(buf: &mut Buf, k: usize, v: Val) {
        buf.set(k, v);
    }
    fn val(self) -> Val {
        self
    }
}

/// The type error a node raises once its operands are evaluated.
#[derive(Clone, Copy)]
enum Bad {
    Operands(Span),
    Operand(Span),
    Arguments(Intrinsic, Span),
}

impl Bad {
    #[cold]
    fn raise<T>(self) -> R<T> {
        match self {
            Bad::Operands(span) => fail("bad operands", span),
            Bad::Operand(span) => fail("bad operand for unary operator", span),
            Bad::Arguments(f, span) => fail(format!("bad arguments to {}", f.name()), span),
        }
    }
}

/// The offset of an element: each subscript is read and checked against its
/// dimension before the next, and an error carries `span`.
struct Address {
    arr: usize,
    span: Span,
    subs: Subscripts,
}

enum Subscripts {
    Affine(Box<[(Affine, Axis)]>),
    General(Box<[(Compiled<i64>, Axis)]>),
}

impl Address {
    #[inline]
    fn offset(&self, m: &mut Machine<'_>) -> R<usize> {
        let mut off = 0;
        match &self.subs {
            Subscripts::Affine(subs) => {
                for &(a, axis) in subs.iter() {
                    let i = a.value(&m.idx);
                    match axis.position(i) {
                        Some(p) => off += p,
                        None => return m.out_of_bounds(self.arr, i, self.span),
                    }
                }
            }
            Subscripts::General(subs) => {
                for (s, axis) in subs.iter() {
                    let i = s(m)?;
                    match axis.position(i) {
                        Some(p) => off += p,
                        None => return m.out_of_bounds(self.arr, i, self.span),
                    }
                }
            }
        }
        Ok(off)
    }
}

/// Compiles expressions over a program's declared arrays.
pub(crate) struct Compiler<'a> {
    pub(crate) arrays: &'a [ArraySlot],
}

impl Compiler<'_> {
    pub(crate) fn scalar(&self, s: S) -> Compiled<Val> {
        self.typed(s).val()
    }

    /// `s` used as an INTEGER (a bound or a subscript): REAL truncates, and
    /// any other value fails at `span`.
    pub(crate) fn int(&self, s: S, span: Span) -> Compiled<i64> {
        match self.typed(s) {
            Typed::Int(f) => f,
            Typed::Real(f) => compiled(move |m| Ok(f(m)? as i64)),
            Typed::Val(f) => compiled(move |m| integer(f(m)?, span)),
        }
    }

    pub(crate) fn ex(&self, e: Ex) -> Ex<Compiled<Val>> {
        match e {
            Ex::S(s) => Ex::S(self.scalar(s)),
            Ex::A(a) => Ex::A(self.array(a)),
        }
    }

    pub(crate) fn array(&self, a: A) -> A<Compiled<Val>> {
        match a {
            A::Whole(arr) => A::Whole(arr),
            A::Section { arr, subs, span } => A::Section {
                arr,
                subs: self.section(subs),
                span,
            },
            A::Unary(op, x, span) => A::Unary(op, Box::new(self.array(*x)), span),
            A::Binary(op, l, r, span) => {
                A::Binary(op, Box::new(self.ex(*l)), Box::new(self.ex(*r)), span)
            }
            A::Call(f, args, span) => A::Call(f, self.args(args), span),
            A::Fail(msg, span) => A::Fail(msg, span),
        }
    }

    pub(crate) fn section(&self, subs: Box<[Sub]>) -> Box<[Sub<Compiled<Val>>]> {
        let opt = |s: Option<S>| s.map(|s| self.scalar(s));
        subs.into_vec()
            .into_iter()
            .map(|sub| match sub {
                Sub::Index(s) => Sub::Index(self.scalar(s)),
                Sub::Triplet { lo, hi, stride } => Sub::Triplet {
                    lo: opt(lo),
                    hi: opt(hi),
                    stride: opt(stride),
                },
            })
            .collect()
    }

    fn args(&self, args: Box<[Ex]>) -> Box<[Ex<Compiled<Val>>]> {
        args.into_vec().into_iter().map(|e| self.ex(e)).collect()
    }

    /// `arr(subs) = rhs`: evaluates `rhs`, then the element's offset, then
    /// stores the value converted to the array's type, or pushes it onto the
    /// machine's staging buffer when `staged`.
    pub(crate) fn store(
        &self,
        arr: usize,
        subs: Subs,
        rhs: S,
        span: Span,
        staged: bool,
    ) -> Compiled<()> {
        let rhs = self.typed(rhs);
        let at = self.address(arr, subs, span);
        match self.arrays[arr].ty {
            TypeSpec::Integer => store(
                match rhs {
                    Typed::Int(f) => f,
                    Typed::Real(f) => compiled(move |m| Ok(f(m)? as i64)),
                    Typed::Val(f) => compiled(move |m| Ok(f(m)?.as_i64().unwrap_or(0))),
                },
                at,
                staged,
            ),
            TypeSpec::Real | TypeSpec::DoublePrecision => store(
                match rhs {
                    Typed::Real(f) => f,
                    Typed::Int(f) => compiled(move |m| Ok(f(m)? as f64)),
                    Typed::Val(f) => compiled(move |m| Ok(f(m)?.as_f64().unwrap_or(0.0))),
                },
                at,
                staged,
            ),
            // A LOGICAL array keeps what is stored into it.
            TypeSpec::Logical => store(rhs.val(), at, staged),
        }
    }

    fn address(&self, arr: usize, subs: Subs, span: Span) -> Address {
        let axes = self.arrays[arr].axes.iter().copied();
        let subs = match subs {
            Subs::Affine(subs) => Subscripts::Affine(subs.iter().copied().zip(axes).collect()),
            Subs::General(subs) => Subscripts::General(
                subs.into_vec()
                    .into_iter()
                    .map(|s| self.int(s, span))
                    .zip(axes)
                    .collect(),
            ),
        };
        Address { arr, span, subs }
    }

    fn typed(&self, s: S) -> Typed {
        match s {
            S::Const(Val::Int(v)) => Typed::Int(compiled(move |_| Ok(v))),
            S::Const(Val::Real(v)) => Typed::Real(compiled(move |_| Ok(v))),
            S::Const(v) => Typed::Val(compiled(move |_| Ok(v))),
            S::Index(r) => Typed::Int(compiled(move |m| Ok(m.idx[r]))),
            S::Scalar(slot) => Typed::Val(compiled(move |m| Ok(m.scalars[slot]))),
            S::Late(slot, span) => Typed::Val(compiled(move |m| {
                if !m.bound[slot] {
                    let name = &m.code.scalars[slot].name;
                    return fail(format!("undefined variable `{name}`"), span);
                }
                Ok(m.scalars[slot])
            })),
            S::Elem { arr, subs, span } => {
                let at = self.address(arr, subs, span);
                match self.arrays[arr].ty {
                    TypeSpec::Integer => Typed::Int(compiled(move |m| {
                        let off = at.offset(m)?;
                        Ok(m.arrays[arr].buf.int(off))
                    })),
                    TypeSpec::Real | TypeSpec::DoublePrecision => Typed::Real(compiled(move |m| {
                        let off = at.offset(m)?;
                        Ok(m.arrays[arr].buf.real(off))
                    })),
                    TypeSpec::Logical => Typed::Val(compiled(move |m| {
                        let off = at.offset(m)?;
                        Ok(m.arrays[arr].buf.get(off))
                    })),
                }
            }
            S::Unary(op, x, span) => unary(op, self.typed(*x), span),
            S::Binary(op, l, r, span) => binary(op, self.typed(*l), self.typed(*r), span),
            S::Elemental(f, args, span) => {
                let args = args.into_vec().into_iter().map(|a| self.typed(a)).collect();
                elemental(f, args, Bad::Arguments(f, span))
            }
            S::Call(f, args, span) => {
                let args = self.args(args);
                Typed::Val(compiled(move |m| m.call(f, &args, span)))
            }
            S::Fail(msg, span) => Typed::Val(compiled(move |_| fail(msg.clone(), span))),
        }
    }
}

fn store<T: Element>(value: Compiled<T>, at: Address, staged: bool) -> Compiled<()> {
    compiled(move |m| {
        let v = value(m)?;
        let off = at.offset(m)?;
        if staged {
            m.staging.push((off, v.val()));
        } else {
            T::set(&mut m.arrays[at.arr].buf, off, v);
        }
        Ok(())
    })
}

fn unary(op: UnOp, x: Typed, span: Span) -> Typed {
    match (op, x) {
        (UnOp::Neg, Typed::Int(f)) => Typed::Int(compiled(move |m| Ok(f(m)?.wrapping_neg()))),
        (UnOp::Neg, Typed::Real(f)) => Typed::Real(compiled(move |m| Ok(-f(m)?))),
        (UnOp::Plus, x @ (Typed::Int(_) | Typed::Real(_))) => x,
        (op, x) => {
            let f = x.val();
            Typed::Val(compiled(move |m| {
                let v = f(m)?;
                buffer::unary(op, v).map_or_else(|| Bad::Operand(span).raise(), Ok)
            }))
        }
    }
}

fn binary(op: BinOp, l: Typed, r: Typed, span: Span) -> Typed {
    use BinOp::*;
    let bad = Bad::Operands(span);
    let typed = match (op, l, r) {
        (Add | Sub | Mul | Div | Pow, Typed::Int(a), Typed::Int(b)) => {
            return Typed::Int(match op {
                Add => int2(a, b, bad, |x, y| Some(x.wrapping_add(y))),
                Sub => int2(a, b, bad, |x, y| Some(x.wrapping_sub(y))),
                Mul => int2(a, b, bad, |x, y| Some(x.wrapping_mul(y))),
                // Division by zero and negative powers: `value_ops`.
                _ => int2(a, b, bad, move |x, y| {
                    match value_ops::binary(op, Scalar::Int(x), Scalar::Int(y)) {
                        Some(Scalar::Int(v)) => Some(v),
                        _ => None,
                    }
                }),
            });
        }
        (Add, l, r) => real2(l, r, bad, |x, y| x + y),
        (Sub, l, r) => real2(l, r, bad, |x, y| x - y),
        (Mul, l, r) => real2(l, r, bad, |x, y| x * y),
        (Div, l, r) => real2(l, r, bad, |x, y| x / y),
        (Pow, l, r) => real2(l, r, bad, f64::powf),
        (_, l, r) => Err((l, r)),
    };
    typed.unwrap_or_else(|(l, r)| {
        let (a, b) = (l.val(), r.val());
        Typed::Val(compiled(move |m| {
            let x = a(m)?;
            let y = b(m)?;
            buffer::binary(op, x, y).map_or_else(|| bad.raise(), Ok)
        }))
    })
}

/// An elemental intrinsic over scalars, through `value_ops`.
fn elemental(f: Intrinsic, args: Vec<Typed>, bad: Bad) -> Typed {
    let args: Box<[Compiled<Val>]> = args.into_iter().map(Typed::val).collect();
    Typed::Val(compiled(move |m| {
        let v = match &args[..] {
            [a] => {
                let x = a(m)?;
                buffer::elemental(f, &[x])
            }
            [a, b] => {
                let x = a(m)?;
                let y = b(m)?;
                buffer::elemental(f, &[x, y])
            }
            _ => {
                let vals = args.iter().map(|a| a(m)).collect::<R<Vec<_>>>()?;
                buffer::elemental(f, &vals)
            }
        };
        v.map_or_else(|| bad.raise(), Ok)
    }))
}

fn int2(
    a: Compiled<i64>,
    b: Compiled<i64>,
    bad: Bad,
    f: impl Fn(i64, i64) -> Option<i64> + 'static,
) -> Compiled<i64> {
    compiled(move |m| {
        let x = a(m)?;
        let y = b(m)?;
        f(x, y).map_or_else(|| bad.raise(), Ok)
    })
}

fn num2<X: Numeric, Y: Numeric>(
    a: Compiled<X>,
    b: Compiled<Y>,
    bad: Bad,
    f: impl Fn(f64, f64) -> f64 + 'static,
) -> Compiled<f64> {
    compiled(move |m| {
        let x = a(m)?;
        let y = b(m)?;
        match (x.real(), y.real()) {
            (Some(x), Some(y)) => Ok(f(x, y)),
            _ => bad.raise(),
        }
    })
}

/// REAL `f` over `l` and `r` when the program fixes one of them as REAL,
/// or the operands back.
fn real2(
    l: Typed,
    r: Typed,
    bad: Bad,
    f: impl Fn(f64, f64) -> f64 + 'static,
) -> Result<Typed, (Typed, Typed)> {
    use Typed::*;
    Ok(Real(match (l, r) {
        (Real(a), Real(b)) => num2(a, b, bad, f),
        (Real(a), Int(b)) => num2(a, b, bad, f),
        (Int(a), Real(b)) => num2(a, b, bad, f),
        (Real(a), Val(b)) => num2(a, b, bad, f),
        (Val(a), Real(b)) => num2(a, b, bad, f),
        other => return Err(other),
    }))
}
