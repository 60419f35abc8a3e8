//! Run-time values: `Copy` scalars and column-major typed array buffers.
//!
//! Fortran typing in the subset is dynamic at the element level: a LOGICAL
//! array stores whatever is assigned to it unconverted, and `MOD` by a zero
//! INTEGER yields a REAL NaN in the middle of an INTEGER result. A [`Buf`]
//! therefore holds one 8-byte word per element, tagged once for the whole
//! buffer, and falls back to tagged scalars only when a store of another
//! type arrives. Declared INTEGER and REAL arrays are coerced on every
//! store and never fall back.

use hpf_lang::ast::{BinOp, Intrinsic, TypeSpec, UnOp};
use hpf_lang::value::Value;
use hpf_lang::value_ops::{self, Operand, Scalar};

/// A scalar value. `Str` indexes the program's string-literal table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Val {
    Int(i64),
    Real(f64),
    Logical(bool),
    Str(u32),
}

impl Val {
    /// Integer view, truncating reals (as [`Value::as_i64`]).
    pub(crate) fn as_i64(self) -> Option<i64> {
        match self {
            Val::Int(v) => Some(v),
            Val::Real(v) => Some(v as i64),
            _ => None,
        }
    }

    /// Numeric view (as [`Value::as_f64`]).
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            Val::Int(v) => Some(v as f64),
            Val::Real(v) => Some(v),
            _ => None,
        }
    }

    /// Truthiness of a mask element.
    pub(crate) fn truthy(self) -> bool {
        matches!(self, Val::Logical(true))
    }

    /// The value with the text of `Str` looked up in `strings`.
    pub(crate) fn to_value(self, strings: &[String]) -> Value {
        match self {
            Val::Int(v) => Value::Int(v),
            Val::Real(v) => Value::Real(v),
            Val::Logical(v) => Value::Logical(v),
            Val::Str(i) => Value::Str(strings[i as usize].clone()),
        }
    }

    fn kind(self) -> Kind {
        match self {
            Val::Int(_) => Kind::Int,
            Val::Real(_) => Kind::Real,
            Val::Logical(_) => Kind::Logical,
            Val::Str(_) => Kind::Mixed,
        }
    }

    fn word(self) -> u64 {
        match self {
            Val::Int(v) => v as u64,
            Val::Real(v) => v.to_bits(),
            Val::Logical(v) => v as u64,
            Val::Str(i) => i as u64,
        }
    }
}

/// The zero value of a declared type.
pub(crate) fn zero(ty: TypeSpec) -> Val {
    match ty {
        TypeSpec::Integer => Val::Int(0),
        TypeSpec::Logical => Val::Logical(false),
        TypeSpec::Real | TypeSpec::DoublePrecision => Val::Real(0.0),
    }
}

/// Convert a value stored into a variable of type `ty`: INTEGER and REAL
/// targets convert numerics (anything else becomes zero), LOGICAL targets
/// keep the value as it is.
pub(crate) fn coerce(v: Val, ty: TypeSpec) -> Val {
    match ty {
        TypeSpec::Integer => Val::Int(v.as_i64().unwrap_or(0)),
        TypeSpec::Real | TypeSpec::DoublePrecision => Val::Real(v.as_f64().unwrap_or(0.0)),
        TypeSpec::Logical => v,
    }
}

impl Operand for Val {
    #[inline]
    fn scalar(&self) -> Option<Scalar> {
        match *self {
            Val::Int(v) => Some(Scalar::Int(v)),
            Val::Real(v) => Some(Scalar::Real(v)),
            Val::Logical(v) => Some(Scalar::Logical(v)),
            Val::Str(_) => None,
        }
    }
}

impl From<Scalar> for Val {
    #[inline]
    fn from(v: Scalar) -> Val {
        match v {
            Scalar::Int(v) => Val::Int(v),
            Scalar::Real(v) => Val::Real(v),
            Scalar::Logical(v) => Val::Logical(v),
        }
    }
}

/// [`value_ops::unary`] over a [`Val`].
#[inline]
pub(crate) fn unary(op: UnOp, v: Val) -> Option<Val> {
    value_ops::unary(op, v.scalar()?).map(Val::from)
}

/// [`value_ops::binary`] over [`Val`]s.
#[inline]
pub(crate) fn binary(op: BinOp, l: Val, r: Val) -> Option<Val> {
    value_ops::binary(op, l.scalar()?, r.scalar()?).map(Val::from)
}

/// [`value_ops::intrinsic`] over [`Val`]s.
#[inline]
pub(crate) fn elemental(f: Intrinsic, args: &[Val]) -> Option<Val> {
    value_ops::intrinsic(f, args).map(Val::from)
}

/// The element type a [`Buf`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Kind {
    Int,
    #[default]
    Real,
    Logical,
    /// Elements of several types, held as tagged scalars.
    Mixed,
}

impl Kind {
    pub(crate) fn of(ty: TypeSpec) -> Kind {
        match ty {
            TypeSpec::Integer => Kind::Int,
            TypeSpec::Real | TypeSpec::DoublePrecision => Kind::Real,
            TypeSpec::Logical => Kind::Logical,
        }
    }
}

/// Column-major array elements: one 8-byte word per element, all of one
/// [`Kind`], or tagged scalars once the buffer holds mixed types.
#[derive(Debug, Clone, Default)]
pub(crate) struct Buf {
    kind: Kind,
    words: Vec<u64>,
    mixed: Vec<Val>,
}

impl Buf {
    /// `n` zero elements of `kind` (zero words for every typed kind, so the
    /// allocation is a zeroed one).
    pub(crate) fn zeroed(kind: Kind, n: usize) -> Buf {
        Buf {
            kind,
            words: vec![0; n],
            mixed: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        if self.kind == Kind::Mixed {
            self.mixed.len()
        } else {
            self.words.len()
        }
    }

    /// Empty the buffer for reuse, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.kind = Kind::Real;
        self.words.clear();
        self.mixed.clear();
    }

    #[inline]
    pub(crate) fn get(&self, k: usize) -> Val {
        match self.kind {
            Kind::Int => Val::Int(self.words[k] as i64),
            Kind::Real => Val::Real(f64::from_bits(self.words[k])),
            Kind::Logical => Val::Logical(self.words[k] != 0),
            Kind::Mixed => self.mixed[k],
        }
    }

    /// Element `k` of an INTEGER buffer (a declared INTEGER array's).
    #[inline]
    pub(crate) fn int(&self, k: usize) -> i64 {
        debug_assert_eq!(self.kind, Kind::Int);
        self.words[k] as i64
    }

    /// Element `k` of a REAL buffer (a declared REAL array's).
    #[inline]
    pub(crate) fn real(&self, k: usize) -> f64 {
        debug_assert_eq!(self.kind, Kind::Real);
        f64::from_bits(self.words[k])
    }

    #[inline]
    pub(crate) fn set_int(&mut self, k: usize, v: i64) {
        debug_assert_eq!(self.kind, Kind::Int);
        self.words[k] = v as u64;
    }

    #[inline]
    pub(crate) fn set_real(&mut self, k: usize, v: f64) {
        debug_assert_eq!(self.kind, Kind::Real);
        self.words[k] = v.to_bits();
    }

    #[inline]
    pub(crate) fn set(&mut self, k: usize, v: Val) {
        if self.kind != Kind::Mixed && v.kind() == self.kind {
            self.words[k] = v.word();
        } else {
            self.make_mixed();
            self.mixed[k] = v;
        }
    }

    /// Append an element; the first one decides the buffer's kind.
    #[inline]
    pub(crate) fn push(&mut self, v: Val) {
        if self.words.is_empty() && self.mixed.is_empty() {
            self.kind = v.kind();
        }
        if v.kind() == self.kind && self.kind != Kind::Mixed {
            self.words.push(v.word());
        } else {
            self.make_mixed();
            self.mixed.push(v);
        }
    }

    /// Set every element to `v`.
    pub(crate) fn fill(&mut self, v: Val) {
        if v.kind() == self.kind && self.kind != Kind::Mixed {
            self.words.fill(v.word());
        } else {
            let n = self.len();
            for k in 0..n {
                self.set(k, v);
            }
        }
    }

    /// Copy `src` element for element, when both hold words of one kind.
    /// Returns `false` (copying nothing) otherwise.
    pub(crate) fn copy_words(&mut self, src: &Buf) -> bool {
        if self.kind != src.kind || self.kind == Kind::Mixed || self.len() != src.len() {
            return false;
        }
        self.words.copy_from_slice(&src.words);
        true
    }

    fn make_mixed(&mut self) {
        if self.kind == Kind::Mixed {
            return;
        }
        let kind = self.kind;
        self.kind = Kind::Mixed;
        self.mixed.clear();
        self.mixed.extend(self.words.iter().map(|&w| match kind {
            Kind::Int => Val::Int(w as i64),
            Kind::Real => Val::Real(f64::from_bits(w)),
            _ => Val::Logical(w != 0),
        }));
        self.words.clear();
    }
}

/// CSHIFT along dimension `d` (0-based) of an array with `extents`:
/// element `j` of each line comes from element `j + shift`, wrapped.
pub(crate) fn cshift(extents: &[usize], src: &Buf, shift: i64, d: usize, out: &mut Buf) {
    if src.len() == 0 {
        return;
    }
    let (inner, e, outer) = split_at_dim(extents, d);
    let s = shift.rem_euclid(e as i64) as usize;
    for o in 0..outer {
        for j in 0..e {
            let from = (j + s) % e;
            for i in 0..inner {
                out.push(src.get(i + inner * (from + e * o)));
            }
        }
    }
}

/// EOSHIFT / TSHIFT along dimension `d`: elements shifted past the end are
/// replaced by the zero of the first element's type.
pub(crate) fn eoshift(extents: &[usize], src: &Buf, shift: i64, d: usize, out: &mut Buf) {
    let fill = match src.len() {
        0 => return,
        _ => match src.get(0) {
            Val::Int(_) => Val::Int(0),
            Val::Logical(_) => Val::Logical(false),
            _ => Val::Real(0.0),
        },
    };
    let (inner, e, outer) = split_at_dim(extents, d);
    for o in 0..outer {
        for j in 0..e {
            let from = j as i128 + shift as i128;
            for i in 0..inner {
                out.push(if from < 0 || from >= e as i128 {
                    fill
                } else {
                    src.get(i + inner * (from as usize + e * o))
                });
            }
        }
    }
}

/// `(elements before d, extent of d, lines after d)` of a column-major shape
/// with at least one element.
fn split_at_dim(extents: &[usize], d: usize) -> (usize, usize, usize) {
    let inner = extents[..d].iter().product();
    let outer = extents[d + 1..].iter().product();
    (inner, extents[d], outer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> Buf {
        let mut b = Buf::default();
        for &x in v {
            b.push(Val::Int(x));
        }
        b
    }

    fn read(b: &Buf) -> Vec<i64> {
        (0..b.len()).map(|k| b.get(k).as_i64().unwrap()).collect()
    }

    #[test]
    fn words_fall_back_to_tagged_scalars_on_a_foreign_store() {
        let mut b = Buf::zeroed(Kind::Logical, 3);
        b.set(1, Val::Logical(true));
        assert_eq!(b.kind, Kind::Logical);
        b.set(2, Val::Int(7));
        assert_eq!(b.kind, Kind::Mixed);
        assert_eq!(
            (0..3).map(|k| b.get(k)).collect::<Vec<_>>(),
            vec![Val::Logical(false), Val::Logical(true), Val::Int(7)]
        );
    }

    #[test]
    fn push_keeps_one_kind_until_a_mismatch() {
        let mut b = ints(&[1, 2]);
        assert_eq!(b.kind, Kind::Int);
        b.push(Val::Real(f64::NAN));
        assert_eq!(b.kind, Kind::Mixed);
        assert_eq!(b.get(0), Val::Int(1));
        assert!(matches!(b.get(2), Val::Real(x) if x.is_nan()));
    }

    #[test]
    fn cshift_both_directions_and_dims() {
        let mut out = Buf::default();
        cshift(&[4], &ints(&[1, 2, 3, 4]), 1, 0, &mut out);
        assert_eq!(read(&out), vec![2, 3, 4, 1]);
        out.clear();
        cshift(&[4], &ints(&[1, 2, 3, 4]), -1, 0, &mut out);
        assert_eq!(read(&out), vec![4, 1, 2, 3]);
        out.clear();
        cshift(&[4], &ints(&[1, 2, 3, 4]), i64::MIN, 0, &mut out);
        assert_eq!(read(&out), vec![1, 2, 3, 4]);
        // 2x2 column-major [1,2,3,4]: rows then columns.
        out.clear();
        cshift(&[2, 2], &ints(&[1, 2, 3, 4]), 1, 0, &mut out);
        assert_eq!(read(&out), vec![2, 1, 4, 3]);
        out.clear();
        cshift(&[2, 2], &ints(&[1, 2, 3, 4]), 1, 1, &mut out);
        assert_eq!(read(&out), vec![3, 4, 1, 2]);
    }

    #[test]
    fn eoshift_fills_with_zero_of_first_type() {
        let mut out = Buf::default();
        eoshift(&[4], &ints(&[1, 2, 3, 4]), 1, 0, &mut out);
        assert_eq!(read(&out), vec![2, 3, 4, 0]);
        out.clear();
        eoshift(&[4], &ints(&[1, 2, 3, 4]), -2, 0, &mut out);
        assert_eq!(read(&out), vec![0, 0, 1, 2]);
        out.clear();
        eoshift(&[4], &ints(&[1, 2, 3, 4]), i64::MAX, 0, &mut out);
        assert_eq!(read(&out), vec![0, 0, 0, 0]);
    }
}
