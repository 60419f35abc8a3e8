//! The functional interpreter: sequential, global-name-space, value-level
//! execution of the HPF/Fortran 90D subset.
//!
//! This is the third tool of the paper's application development environment
//! (§1: "the environment integrates a HPF/Fortran 90D compiler, a functional
//! interpreter and the source based performance prediction tool"). Here it
//! serves three roles: semantics oracle for the compiler, source of
//! data-dependent execution profiles for the machine simulator, and
//! critical-variable resolution of last resort.
//!
//! Each run lowers the program once ([`crate::lower`]), compiling its scalar
//! expressions to closures ([`crate::compile`]), and then executes the slot
//! code over `Copy` scalars and typed array buffers written in place.

use crate::buffer::{self, coerce, Buf, Val};
use crate::compile::Compiled;
use crate::lower::{self, Code, Ex, Forall, ForallItem, Instr, Op, Root, Sub, Where, WhereItem, A};
use crate::profile::{ExecutionProfile, StmtStats};
use hpf_lang::ast::{BinOp, Intrinsic, TypeSpec};
use hpf_lang::sema::AnalyzedProgram;
use hpf_lang::value::Value;
use hpf_lang::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    pub message: String,
    pub span: Span,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for EvalError {}

/// Internal result: the error is boxed so that `R<Val>` stays two words.
pub(crate) type R<T> = Result<T, Box<EvalError>>;

pub(crate) fn fail<T>(message: impl Into<String>, span: Span) -> R<T> {
    Err(Box::new(EvalError {
        message: message.into(),
        span,
    }))
}

/// `v` used as an INTEGER: REAL truncates, and any other value fails at
/// `span`.
pub(crate) fn integer(v: Val, span: Span) -> R<i64> {
    match v.as_i64() {
        Some(i) => Ok(i),
        None => fail("expected integer value", span),
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Lines produced by PRINT statements.
    pub output: Vec<String>,
    /// Dynamic statement statistics.
    pub profile: ExecutionProfile,
    /// Final values of all scalar variables (inspection hook for tests).
    pub scalars: BTreeMap<String, Value>,
}

/// Most array elements one run may hold, summed over its arrays (2 GiB of
/// 8-byte words).
const MAX_ELEMENTS: u128 = 1 << 28;

/// Run the functional interpreter over an analyzed program.
pub fn run(analyzed: &AnalyzedProgram) -> Result<RunOutcome, EvalError> {
    run_with_limit(analyzed, 500_000_000)
}

/// Run with an explicit step budget (guards non-terminating DO WHILE loops).
pub fn run_with_limit(
    analyzed: &AnalyzedProgram,
    step_limit: u64,
) -> Result<RunOutcome, EvalError> {
    let code = lower::lower(analyzed);
    let mut m = Machine::new(&code, step_limit).map_err(|e| *e)?;
    m.block(&code.body).map_err(|e| *e)?;
    Ok(m.finish())
}

/// A declared array: bounds, column-major strides and its buffer.
pub(crate) struct Array {
    ty: TypeSpec,
    lbounds: Vec<i64>,
    extents: Vec<usize>,
    strides: Vec<usize>,
    pub(crate) buf: Buf,
}

/// An array value computed by an expression. Its lower bounds are never
/// observable, so only the extents are kept.
#[derive(Default)]
struct Temp {
    extents: Vec<usize>,
    buf: Buf,
}

/// An array operand: a declared array, read in place, or a computed value.
enum Arr {
    Var(usize),
    Temp(Temp),
}

/// An evaluated intrinsic argument.
enum Arg {
    S(Val),
    A(Arr),
}

/// One dimension of a section: index (relative to the lower bound) of its
/// first element, element count and step.
struct Dim {
    first: i64,
    count: usize,
    step: i64,
    triplet: bool,
}

/// One FORALL index: its register, first value, trip count, step, and the
/// position of the running tuple.
#[derive(Clone, Copy)]
struct Range {
    reg: usize,
    lo: i64,
    count: u64,
    step: i64,
    at: u64,
}

/// The state a run's compiled code reads and writes.
pub(crate) struct Machine<'c> {
    pub(crate) code: &'c Code,
    pub(crate) scalars: Vec<Val>,
    /// Whether each scalar slot holds a binding yet.
    pub(crate) bound: Vec<bool>,
    pub(crate) arrays: Vec<Array>,
    /// FORALL index registers.
    pub(crate) idx: Vec<i64>,
    steps: u64,
    limit: u64,
    stats: Vec<StmtStats>,
    touched: Vec<bool>,
    output: Vec<String>,
    stopped: bool,
    /// Recycled array temporaries.
    temps: Vec<Temp>,
    /// `(offset, value)` of every FORALL assignment before its commit.
    pub(crate) staging: Vec<(usize, Val)>,
    /// Recycled FORALL index ranges and active-tuple lists.
    ranges: Vec<Vec<Range>>,
    lists: Vec<Vec<i64>>,
}

impl<'c> Machine<'c> {
    fn new(code: &'c Code, limit: u64) -> R<Machine<'c>> {
        let mut total: u128 = 0;
        let mut arrays = Vec::with_capacity(code.arrays.len());
        for slot in &code.arrays {
            total = total.saturating_add(slot.elements);
            if total > MAX_ELEMENTS {
                return fail(
                    format!(
                        "array `{}` takes the program past {MAX_ELEMENTS} elements, \
                         the functional interpreter's limit",
                        slot.name
                    ),
                    slot.span,
                );
            }
            arrays.push(Array {
                ty: slot.ty,
                lbounds: slot.axes.iter().map(|a| a.lb).collect(),
                extents: slot.axes.iter().map(|a| a.extent).collect(),
                strides: slot.axes.iter().map(|a| a.stride).collect(),
                buf: Buf::zeroed(buffer::Kind::of(slot.ty), slot.elements as usize),
            });
        }
        Ok(Machine {
            code,
            scalars: code.scalars.iter().map(|s| s.init).collect(),
            bound: code.scalars.iter().map(|s| s.declared).collect(),
            arrays,
            idx: vec![0; code.registers],
            steps: 0,
            limit,
            stats: vec![StmtStats::default(); code.keys.len()],
            touched: vec![false; code.keys.len()],
            output: Vec::new(),
            stopped: false,
            temps: Vec::new(),
            staging: Vec::new(),
            ranges: Vec::new(),
            lists: Vec::new(),
        })
    }

    fn finish(self) -> RunOutcome {
        let strings = &self.code.strings;
        let scalars = self
            .code
            .scalars
            .iter()
            .zip(&self.scalars)
            .zip(&self.bound)
            .filter(|(_, &bound)| bound)
            .map(|((slot, v), _)| (slot.name.clone(), v.to_value(strings)))
            .collect();
        let stats = self
            .code
            .keys
            .iter()
            .zip(self.stats)
            .zip(&self.touched)
            .filter(|(_, &touched)| touched)
            .map(|((&key, s), _)| (key, s))
            .collect();
        RunOutcome {
            output: self.output,
            profile: ExecutionProfile::from_parts(stats, self.steps),
            scalars,
        }
    }

    fn tick(&mut self, n: u64, span: Span) -> R<()> {
        self.steps = self.steps.saturating_add(n);
        if self.steps > self.limit {
            fail("step limit exceeded (non-terminating loop?)", span)
        } else {
            Ok(())
        }
    }

    /// The statistics of profile entry `prof`, which now exists.
    fn touch(&mut self, prof: usize) -> &mut StmtStats {
        self.touched[prof] = true;
        &mut self.stats[prof]
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self, body: &[Instr]) -> R<()> {
        for st in body {
            if self.stopped {
                break;
            }
            self.stmt(st)?;
        }
        Ok(())
    }

    fn stmt(&mut self, st: &Instr) -> R<()> {
        let span = st.span;
        self.touch(st.prof).executions += 1;
        match &st.op {
            Op::AssignScalar { slot, ty, rhs } => {
                self.tick(rhs.ticks, span)?;
                let v = (rhs.e)(self)?;
                self.scalars[*slot] = coerce(v, *ty);
            }
            Op::AssignElem(store) => {
                self.tick(store.ticks, span)?;
                (store.e)(self)?;
            }
            Op::AssignArray { arr, section, rhs } => {
                self.assign_array(*arr, section.as_deref(), rhs, span)?
            }
            Op::Forall(f) => self.forall(f)?,
            Op::Where(w) => self.where_construct(w, st.prof, span)?,
            Op::Do {
                var,
                lo,
                hi,
                step,
                ticks,
                body,
            } => {
                self.tick(*ticks, span)?;
                let lo = lo(self)?;
                let hi = hi(self)?;
                let step = match step {
                    Some(s) => s(self)?,
                    None => 1,
                };
                if step == 0 {
                    return fail("DO step of zero", span);
                }
                let trips = loop_trips(lo, hi, step);
                let mut k = 0u128;
                while k < trips && !self.stopped {
                    self.tick(1, span)?;
                    self.stats[st.prof].iterations += 1;
                    let slot = match var {
                        Ok(slot) => *slot,
                        Err(msg) => return fail(msg.clone(), span),
                    };
                    // `lo + k * step` never passes `hi`, so the wrapped
                    // arithmetic is exact.
                    self.scalars[slot] = Val::Int(lo.wrapping_add((k as i64).wrapping_mul(step)));
                    self.bound[slot] = true;
                    self.block(body)?;
                    k += 1;
                }
            }
            Op::DoWhile { cond, body } => {
                while !self.stopped {
                    self.tick(cond.ticks, span)?;
                    match (cond.e)(self)? {
                        Val::Logical(true) => {}
                        Val::Logical(false) => break,
                        _ => return fail("DO WHILE condition must be scalar LOGICAL", span),
                    }
                    self.tick(1, span)?;
                    self.stats[st.prof].iterations += 1;
                    self.block(body)?;
                }
            }
            Op::If { arms, else_body } => {
                for (cond, body) in arms {
                    self.tick(cond.ticks, span)?;
                    match (cond.e)(self)? {
                        Val::Logical(true) => {
                            let s = &mut self.stats[st.prof];
                            s.mask_true += 1;
                            s.mask_total += 1;
                            return self.block(body);
                        }
                        Val::Logical(false) => self.stats[st.prof].mask_total += 1,
                        _ => return fail("IF condition must be scalar LOGICAL", span),
                    }
                }
                self.block(else_body)?;
            }
            Op::Print(items) => {
                let mut line = String::new();
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        line.push(' ');
                    }
                    self.tick(item.ticks, span)?;
                    match &item.e {
                        Ex::S(s) => {
                            let v = s(self)?;
                            let _ = write!(line, "{}", v.to_value(&self.code.strings));
                        }
                        Ex::A(a) => {
                            let a = self.array(a)?;
                            let (_, buf) = self.view(&a);
                            for k in 0..buf.len() {
                                if k > 0 {
                                    line.push(' ');
                                }
                                let _ = write!(line, "{}", buf.get(k).to_value(&self.code.strings));
                            }
                            self.recycle(a);
                        }
                    }
                }
                self.tick(1, span)?;
                self.output.push(line);
            }
            Op::Stop => self.stopped = true,
            Op::Io => self.tick(1, span)?,
            Op::Fail(msg) => return fail(msg.clone(), span),
        }
        Ok(())
    }

    /// Whole-array or section assignment, written in place.
    fn assign_array(
        &mut self,
        arr: usize,
        section: Option<&[Sub<Compiled<Val>>]>,
        rhs: &Root<Ex<Compiled<Val>>>,
        span: Span,
    ) -> R<()> {
        self.tick(rhs.ticks, span)?;
        let value = self.arg(&rhs.e)?;
        let dims = match section {
            Some(subs) => Some(self.select(arr, subs, span)?),
            None => None,
        };
        let n = match &dims {
            Some(dims) => section_len(dims),
            None => self.arrays[arr].buf.len(),
        };
        self.tick(n as u64, span)?;
        match value {
            Arg::S(v) => {
                let a = &mut self.arrays[arr];
                let v = coerce(v, a.ty);
                match &dims {
                    None => a.buf.fill(v),
                    Some(dims) => walk(dims, &a.strides, &mut |off| a.buf.set(off, v)),
                }
            }
            Arg::A(src) => {
                let len = self.view(&src).1.len();
                if len != n {
                    return fail(
                        format!(
                            "shape mismatch in assignment: section has {n} elements, RHS has {len}"
                        ),
                        span,
                    );
                }
                // A target read by its own right-hand side is staged first.
                let src = match src {
                    Arr::Var(s) if s == arr => Arr::Temp(self.copy_of(s)),
                    other => other,
                };
                let (dst, from) = self.target_and_source(arr, &src);
                store(dst, dims.as_deref(), from);
                self.recycle(src);
            }
        }
        Ok(())
    }

    /// FORALL semantics: for *each body statement in order*, evaluate all
    /// right-hand sides over the active index set, then commit all
    /// assignments (Fortran 90D/HPF definition — "all the right-hand sides
    /// being evaluated before any left-hand sides are assigned"). An
    /// assignment lowered as `direct` stores each value as it is computed,
    /// since no read can tell the difference; a failing run returns no
    /// state, so its partial stores are never observed.
    fn forall(&mut self, f: &Forall) -> R<()> {
        // HPF evaluates all triplet bounds before any index takes a value,
        // so bounds see the enclosing indices but no sibling triplet.
        self.tick(f.bound_ticks, f.span)?;
        let mut ranges = self.ranges.pop().unwrap_or_default();
        ranges.clear();
        let mut counts = 1u128;
        let mut empty = false;
        for t in &f.triplets {
            let lo = (t.lo)(self)?;
            let hi = (t.hi)(self)?;
            let step = match &t.stride {
                Some(s) => s(self)?,
                None => 1,
            };
            if step == 0 {
                return fail("FORALL stride of zero", f.span);
            }
            let count = loop_trips(lo, hi, step);
            empty |= count == 0;
            counts = counts.saturating_mul(count);
            ranges.push(Range {
                reg: t.reg,
                lo,
                count: count.min(u64::MAX as u128) as u64,
                step,
                at: 0,
            });
        }
        let total = match (empty, u64::try_from(counts)) {
            (true, _) => 0,
            (false, Ok(total)) => total,
            (false, Err(_)) => return fail("FORALL index space overflows", f.span),
        };
        self.tick(total, f.span)?;

        // Enumerate the active tuples once (mask applied).
        let (mut active, mut n) = (None, total);
        if let Some(mask) = &f.mask {
            self.tick(mask.ticks.saturating_mul(total), f.span)?;
            let mut list = self.lists.pop().unwrap_or_default();
            list.clear();
            n = 0;
            for t in 0..total {
                self.tuple(&mut ranges, None, t);
                match (mask.e)(self)? {
                    Val::Logical(true) => {
                        list.extend(ranges.iter().map(|r| self.idx[r.reg]));
                        n += 1;
                    }
                    Val::Logical(false) => {}
                    _ => return fail("FORALL mask must be scalar LOGICAL", f.span),
                }
            }
            let s = self.touch(f.prof);
            s.mask_total += total;
            s.mask_true += n;
            active = Some(list);
        }
        self.touch(f.prof).iterations += n;

        for item in &f.body {
            match item {
                ForallItem::Assign {
                    arr,
                    store,
                    ticks,
                    span,
                    direct,
                } => {
                    self.tick(ticks.saturating_mul(n), *span)?;
                    self.staging.clear();
                    for t in 0..n {
                        self.tuple(&mut ranges, active.as_deref(), t);
                        store(self)?;
                    }
                    if !direct {
                        let buf = &mut self.arrays[*arr].buf;
                        for &(off, v) in &self.staging {
                            buf.set(off, v);
                        }
                    }
                }
                ForallItem::Nested(inner) => {
                    for t in 0..n {
                        self.tuple(&mut ranges, active.as_deref(), t);
                        self.forall(inner)?;
                    }
                }
                ForallItem::FailIfActive(msg, span) => {
                    if n > 0 {
                        return fail(msg.clone(), *span);
                    }
                }
                ForallItem::Fail(msg, span) => return fail(msg.clone(), *span),
            }
        }
        if let Some(list) = active {
            self.lists.push(list);
        }
        self.ranges.push(ranges);
        Ok(())
    }

    /// Load the `t`-th index tuple into the registers: from the active list
    /// when masked, else by stepping the odometer (first triplet fastest;
    /// tuples are visited in order from 0).
    fn tuple(&mut self, ranges: &mut [Range], active: Option<&[i64]>, t: u64) {
        if let Some(list) = active {
            let at = t as usize * ranges.len();
            for (r, &v) in ranges.iter().zip(&list[at..]) {
                self.idx[r.reg] = v;
            }
            return;
        }
        if t == 0 {
            for r in ranges.iter_mut() {
                r.at = 0;
                self.idx[r.reg] = r.lo;
            }
            return;
        }
        for r in ranges.iter_mut() {
            r.at += 1;
            if r.at < r.count {
                self.idx[r.reg] = self.idx[r.reg].wrapping_add(r.step);
                return;
            }
            r.at = 0;
            self.idx[r.reg] = r.lo;
        }
    }

    fn where_construct(&mut self, w: &Where, prof: usize, span: Span) -> R<()> {
        self.tick(w.mask.ticks, span)?;
        let mask = self.array(&w.mask.e)?;
        let n = self.view(&mask).1.len();
        self.tick(n as u64, span)?;
        // The mask is fixed before the body runs, even if the body assigns
        // the array it was read from.
        let mask = match mask {
            Arr::Var(s) => self.copy_of(s),
            Arr::Temp(t) => t,
        };
        let trues = (0..n).filter(|&k| mask.buf.get(k).truthy()).count() as u64;
        let s = self.touch(prof);
        s.mask_total += n as u64;
        s.mask_true += trues;
        for (items, negate) in [(&w.body, false), (&w.elsewhere, true)] {
            for item in items {
                let (arr, rhs, span) = match item {
                    WhereItem::Assign { arr, rhs, span } => (*arr, rhs, *span),
                    WhereItem::Fail(msg, span) => return fail(msg.clone(), *span),
                };
                self.tick(rhs.ticks, span)?;
                let value = self.arg(&rhs.e)?;
                let name = &self.code.arrays[arr].name;
                if mask.extents != self.arrays[arr].extents {
                    return fail(format!("WHERE mask is not conformable with `{name}`"), span);
                }
                let active = |k: usize| mask.buf.get(k).truthy() != negate;
                match value {
                    Arg::S(v) => {
                        let a = &mut self.arrays[arr];
                        let v = coerce(v, a.ty);
                        for k in (0..n).filter(|&k| active(k)) {
                            a.buf.set(k, v);
                        }
                    }
                    Arg::A(src) => {
                        if self.view(&src).0 != self.arrays[arr].extents {
                            return fail("WHERE operands not conformable", span);
                        }
                        // An array assigned to itself is left as it is.
                        if !matches!(src, Arr::Var(s) if s == arr) {
                            let (dst, from) = self.target_and_source(arr, &src);
                            for k in (0..n).filter(|&k| active(k)) {
                                dst.buf.set(k, coerce(from.get(k), dst.ty));
                            }
                        }
                        self.recycle(src);
                    }
                }
            }
        }
        self.temps.push(mask);
        Ok(())
    }

    // ---- references ------------------------------------------------------

    #[cold]
    pub(crate) fn out_of_bounds<T>(&self, arr: usize, i: i64, span: Span) -> R<T> {
        let name = &self.code.arrays[arr].name;
        fail(format!("index {i} out of bounds for `{name}`"), span)
    }

    /// Resolve a section's subscripts to per-dimension walks, checking that
    /// every element it selects is in bounds.
    fn select(&mut self, arr: usize, subs: &[Sub<Compiled<Val>>], span: Span) -> R<Vec<Dim>> {
        let mut picks = Vec::with_capacity(subs.len());
        for (d, sub) in subs.iter().enumerate() {
            let (lb, extent) = (self.arrays[arr].lbounds[d], self.arrays[arr].extents[d]);
            picks.push(match sub {
                Sub::Index(s) => (integer(s(self)?, span)?, 1, 1, false),
                Sub::Triplet { lo, hi, stride } => {
                    let lo = match lo {
                        Some(e) => integer(e(self)?, span)?,
                        None => lb,
                    };
                    let hi = match hi {
                        Some(e) => integer(e(self)?, span)?,
                        None => lb + (extent as i64 - 1),
                    };
                    let step = match stride {
                        Some(e) => integer(e(self)?, span)?,
                        None => 1,
                    };
                    if step == 0 {
                        return fail("section stride of zero", span);
                    }
                    (lo, loop_trips(lo, hi, step), step, true)
                }
            });
        }
        let empty = picks.iter().any(|&(_, count, _, _)| count == 0);
        let a = &self.arrays[arr];
        let mut dims = Vec::with_capacity(picks.len());
        for (d, &(first, count, step, triplet)) in picks.iter().enumerate() {
            let last = first as i128 + (count as i128 - 1).max(0) * step as i128;
            let ub = a.lbounds[d] as i128 + a.extents[d] as i128 - 1;
            let inside = |i: i128| (a.lbounds[d] as i128..=ub).contains(&i);
            if !(empty || inside(first as i128) && inside(last)) {
                let name = &self.code.arrays[arr].name;
                return fail(format!("section index out of bounds for `{name}`"), span);
            }
            // In bounds, or never visited: an empty section's walk stops
            // before it reads a dimension.
            dims.push(Dim {
                first: first.wrapping_sub(a.lbounds[d]),
                count: count.min(usize::MAX as u128) as usize,
                step,
                triplet,
            });
        }
        Ok(dims)
    }

    // ---- expressions -----------------------------------------------------

    fn arg(&mut self, e: &Ex<Compiled<Val>>) -> R<Arg> {
        Ok(match e {
            Ex::S(s) => Arg::S(s(self)?),
            Ex::A(a) => Arg::A(self.array(a)?),
        })
    }

    fn args(&mut self, args: &[Ex<Compiled<Val>>]) -> R<Vec<Arg>> {
        args.iter().map(|a| self.arg(a)).collect()
    }

    /// A transformational intrinsic with a scalar result over `args`.
    pub(crate) fn call(&mut self, f: Intrinsic, args: &[Ex<Compiled<Val>>], span: Span) -> R<Val> {
        let args = self.args(args)?;
        let v = self.reduce(f, &args, span)?;
        self.recycle_args(args);
        Ok(v)
    }

    fn array(&mut self, a: &A<Compiled<Val>>) -> R<Arr> {
        match a {
            A::Whole(slot) => Ok(Arr::Var(*slot)),
            A::Section { arr, subs, span } => {
                let dims = self.select(*arr, subs, *span)?;
                let n = section_len(&dims);
                self.tick(n as u64, *span)?;
                let mut t = self.temp();
                t.extents
                    .extend(dims.iter().filter(|d| d.triplet).map(|d| d.count));
                let a = &self.arrays[*arr];
                walk(&dims, &a.strides, &mut |off| t.buf.push(a.buf.get(off)));
                Ok(Arr::Temp(t))
            }
            A::Unary(op, x, span) => {
                let x = self.array(x)?;
                self.tick(self.view(&x).1.len() as u64, *span)?;
                let mut t = self.temp();
                let (extents, buf) = self.view(&x);
                t.extents.extend_from_slice(extents);
                for k in 0..buf.len() {
                    match buffer::unary(*op, buf.get(k)) {
                        Some(v) => t.buf.push(v),
                        None => return fail("bad array operand for unary operator", *span),
                    }
                }
                self.recycle(x);
                Ok(Arr::Temp(t))
            }
            A::Binary(op, l, r, span) => {
                let args = [self.arg(l)?, self.arg(r)?];
                let mut t = self.temp();
                self.elementwise(&args, &mut t, *span, |v| buffer::binary(*op, v[0], v[1]))?;
                self.recycle_args(args);
                Ok(Arr::Temp(t))
            }
            A::Call(f, args, span) => {
                let args = self.args(args)?;
                let mut t = self.temp();
                self.transform(*f, &args, &mut t, *span)?;
                self.recycle_args(args);
                Ok(Arr::Temp(t))
            }
            A::Fail(msg, span) => fail(msg.clone(), *span),
        }
    }

    /// Apply `op` element by element over `args` (scalars broadcast; arrays
    /// must share the first array's extents), writing into `out`.
    fn elementwise(
        &mut self,
        args: &[Arg],
        out: &mut Temp,
        span: Span,
        op: impl Fn(&[Val]) -> Option<Val>,
    ) -> R<()> {
        let first = args.iter().find_map(|a| match a {
            Arg::A(a) => Some(self.view(a)),
            Arg::S(_) => None,
        });
        let Some((shape, buf)) = first else {
            return fail("elemental operation without an array operand", span);
        };
        if args
            .iter()
            .any(|a| matches!(a, Arg::A(a) if self.view(a).0 != shape))
        {
            return fail("operands not conformable", span);
        }
        out.extents.extend_from_slice(shape);
        let n = buf.len();
        self.tick(n as u64, span)?;
        let mut vals = vec![Val::Int(0); args.len()];
        for k in 0..n {
            for (v, a) in vals.iter_mut().zip(args) {
                *v = match a {
                    Arg::S(s) => *s,
                    Arg::A(a) => self.view(a).1.get(k),
                };
            }
            match op(&vals) {
                Some(v) => out.buf.push(v),
                None => return fail("bad operands", span),
            }
        }
        Ok(())
    }

    /// Transformational intrinsics with a scalar result.
    fn reduce(&mut self, f: Intrinsic, args: &[Arg], span: Span) -> R<Val> {
        use Intrinsic::*;
        let array = |i: usize, what: &str| match args.get(i) {
            Some(Arg::A(a)) => Ok(a),
            _ => fail(format!("{what} of non-array"), span),
        };
        match f {
            Sum | Product | MaxVal | MinVal => {
                let a = array(0, "reduction")?;
                let n = self.view(a).1.len();
                self.tick(n as u64, span)?;
                let buf = self.view(a).1;
                let mut acc: Option<Val> = None;
                for k in 0..n {
                    let v = buf.get(k);
                    acc = Some(match acc {
                        None => v,
                        Some(cur) => {
                            let combined = match f {
                                Sum => buffer::binary(BinOp::Add, cur, v),
                                Product => buffer::binary(BinOp::Mul, cur, v),
                                MaxVal => buffer::elemental(Max, &[cur, v]),
                                _ => buffer::elemental(Min, &[cur, v]),
                            };
                            match combined {
                                Some(c) => c,
                                None => return fail("non-numeric reduction", span),
                            }
                        }
                    });
                }
                Ok(acc.unwrap_or(match f {
                    Sum => Val::Real(0.0),
                    Product => Val::Real(1.0),
                    _ => Val::Real(f64::NEG_INFINITY),
                }))
            }
            MaxLoc | MinLoc => {
                let a = array(0, "maxloc")?;
                if self.view(a).0.len() != 1 {
                    return fail("MAXLOC/MINLOC restricted to rank-1 in the subset", span);
                }
                let n = self.view(a).1.len();
                self.tick(n as u64, span)?;
                let buf = self.view(a).1;
                let mut best: Option<(usize, f64)> = None;
                for k in 0..n {
                    let Some(x) = buf.get(k).as_f64() else {
                        return fail("non-numeric maxloc", span);
                    };
                    let better = match best {
                        None => true,
                        Some((_, b)) => {
                            if f == MaxLoc {
                                x > b
                            } else {
                                x < b
                            }
                        }
                    };
                    if better {
                        best = Some((k, x));
                    }
                }
                // Fortran returns a rank-1 result array; the subset returns
                // the 1-based position as a scalar INTEGER for simplicity.
                Ok(Val::Int(best.map_or(0, |(k, _)| k as i64 + 1)))
            }
            DotProduct => {
                let (Some(Arg::A(a)), Some(Arg::A(b))) = (args.first(), args.get(1)) else {
                    return fail("DOT_PRODUCT of non-conformable arrays", span);
                };
                if self.view(a).0 != self.view(b).0 {
                    return fail("DOT_PRODUCT of non-conformable arrays", span);
                }
                let n = self.view(a).1.len();
                self.tick(2 * n as u64, span)?;
                let (x, y) = (self.view(a).1, self.view(b).1);
                let mut acc = 0.0f64;
                for k in 0..n {
                    acc += x.get(k).as_f64().unwrap_or(0.0) * y.get(k).as_f64().unwrap_or(0.0);
                }
                Ok(Val::Real(acc))
            }
            Size => {
                let (extents, buf) = self.view(array(0, "SIZE")?);
                match args.get(1) {
                    None => Ok(Val::Int(buf.len() as i64)),
                    Some(d) => {
                        let d = match d {
                            Arg::S(v) => v.as_i64().unwrap_or(1),
                            Arg::A(_) => 1,
                        } as usize;
                        if d == 0 || d > extents.len() {
                            return fail("SIZE dim out of range", span);
                        }
                        Ok(Val::Int(extents[d - 1] as i64))
                    }
                }
            }
            _ => unreachable!("lowering sends only scalar-valued intrinsics here"),
        }
    }

    /// Array-valued intrinsics, written into `out`.
    fn transform(&mut self, f: Intrinsic, args: &[Arg], out: &mut Temp, span: Span) -> R<()> {
        use Intrinsic::*;
        match f {
            CShift | TShift | EoShift => {
                let Some(Arg::A(a)) = args.first() else {
                    return fail("shift of non-array", span);
                };
                let shift = match args.get(1) {
                    Some(Arg::S(v)) => v.as_i64(),
                    _ => None,
                };
                let Some(shift) = shift else {
                    return fail("shift amount must be scalar integer", span);
                };
                let dim = match args.get(2) {
                    Some(Arg::S(v)) => v.as_i64().unwrap_or(1),
                    _ => 1,
                } as usize;
                let n = self.view(a).1.len();
                self.tick(n as u64, span)?;
                let (extents, buf) = self.view(a);
                if dim == 0 || dim > extents.len() {
                    return fail("bad shift dimension", span);
                }
                out.extents.extend_from_slice(extents);
                if f == CShift {
                    buffer::cshift(extents, buf, shift, dim - 1, &mut out.buf);
                } else {
                    buffer::eoshift(extents, buf, shift, dim - 1, &mut out.buf);
                }
                Ok(())
            }
            Transpose => {
                let Some(Arg::A(a)) = args.first() else {
                    return fail("transpose of non-array", span);
                };
                let n = self.view(a).1.len();
                self.tick(n as u64, span)?;
                let (extents, buf) = self.view(a);
                let &[n0, n1] = extents else {
                    return fail("TRANSPOSE needs rank 2", span);
                };
                out.extents.extend_from_slice(&[n1, n0]);
                // An empty operand (a section) may still have one huge extent.
                if n > 0 {
                    for i in 0..n0 {
                        for j in 0..n1 {
                            out.buf.push(buf.get(i + j * n0));
                        }
                    }
                }
                Ok(())
            }
            MatMul => {
                let (Some(Arg::A(a)), Some(Arg::A(b))) = (args.first(), args.get(1)) else {
                    return fail("MATMUL needs two rank-2 arrays", span);
                };
                let (&[m, k], &[k2, n]) = (self.view(a).0, self.view(b).0) else {
                    return fail("MATMUL needs two rank-2 arrays", span);
                };
                if k != k2 {
                    return fail("MATMUL inner dimensions disagree", span);
                }
                let work = (m as u64)
                    .checked_mul(n as u64)
                    .and_then(|x| x.checked_mul(k as u64))
                    .unwrap_or(u64::MAX);
                self.tick(work, span)?;
                // With an empty inner dimension the result is all zeros and
                // costs no steps, so its size is checked separately.
                if m as u128 * n as u128 > MAX_ELEMENTS {
                    return fail("MATMUL result exceeds the array element limit", span);
                }
                let (x, y) = (self.view(a).1, self.view(b).1);
                out.extents.extend_from_slice(&[m, n]);
                for j in 0..n {
                    for i in 0..m {
                        let mut acc = 0.0;
                        for p in 0..k {
                            acc += x.get(i + p * m).as_f64().unwrap_or(0.0)
                                * y.get(p + j * k).as_f64().unwrap_or(0.0);
                        }
                        out.buf.push(Val::Real(acc));
                    }
                }
                Ok(())
            }
            // Elemental intrinsics map over arrays with scalar broadcast.
            _ => self.elementwise(args, out, span, |v| buffer::elemental(f, v)),
        }
    }

    // ---- temporaries -----------------------------------------------------

    fn temp(&mut self) -> Temp {
        let mut t = self.temps.pop().unwrap_or_default();
        t.extents.clear();
        t.buf.clear();
        t
    }

    fn recycle(&mut self, a: Arr) {
        if let Arr::Temp(t) = a {
            self.temps.push(t);
        }
    }

    fn recycle_args(&mut self, args: impl IntoIterator<Item = Arg>) {
        for a in args {
            if let Arg::A(a) = a {
                self.recycle(a);
            }
        }
    }

    /// A temporary holding a copy of declared array `slot`.
    fn copy_of(&mut self, slot: usize) -> Temp {
        let mut t = self.temp();
        let a = &self.arrays[slot];
        t.extents.extend_from_slice(&a.extents);
        for k in 0..a.buf.len() {
            t.buf.push(a.buf.get(k));
        }
        t
    }

    fn view<'a>(&'a self, a: &'a Arr) -> (&'a [usize], &'a Buf) {
        match a {
            Arr::Var(s) => (&self.arrays[*s].extents, &self.arrays[*s].buf),
            Arr::Temp(t) => (&t.extents, &t.buf),
        }
    }

    /// Declared array `dst` for writing, and the source buffer `src` (which
    /// is not `dst`) for reading.
    fn target_and_source<'a>(&'a mut self, dst: usize, src: &'a Arr) -> (&'a mut Array, &'a Buf) {
        match src {
            Arr::Temp(t) => (&mut self.arrays[dst], &t.buf),
            Arr::Var(s) => {
                let s = *s;
                if s < dst {
                    let (lo, hi) = self.arrays.split_at_mut(dst);
                    (&mut hi[0], &lo[s].buf)
                } else {
                    let (lo, hi) = self.arrays.split_at_mut(s);
                    (&mut lo[dst], &hi[0].buf)
                }
            }
        }
    }
}

/// Copy `src` into `dst` (whole, or the section `dims`), converting each
/// element to `dst`'s type.
fn store(dst: &mut Array, dims: Option<&[Dim]>, src: &Buf) {
    match dims {
        None => {
            if !dst.buf.copy_words(src) {
                for k in 0..src.len() {
                    dst.buf.set(k, coerce(src.get(k), dst.ty));
                }
            }
        }
        Some(dims) => {
            let mut k = 0;
            walk(dims, &dst.strides, &mut |off| {
                dst.buf.set(off, coerce(src.get(k), dst.ty));
                k += 1;
            });
        }
    }
}

/// Number of elements a section selects.
fn section_len(dims: &[Dim]) -> usize {
    if dims.iter().any(|d| d.count == 0) {
        0
    } else {
        dims.iter().map(|d| d.count).product()
    }
}

/// Visit the column-major offsets a section selects, first dimension
/// fastest.
fn walk(dims: &[Dim], strides: &[usize], f: &mut impl FnMut(usize)) {
    fn from(dims: &[Dim], strides: &[usize], base: i64, f: &mut impl FnMut(usize)) {
        match dims.split_last() {
            None => f(base as usize),
            Some((d, rest)) => {
                let stride = strides[rest.len()] as i64;
                for c in 0..d.count as i64 {
                    from(rest, strides, base + (d.first + c * d.step) * stride, f);
                }
            }
        }
    }
    if section_len(dims) > 0 {
        from(dims, strides, 0, f);
    }
}

/// Trips of a DO loop, section or FORALL triplet `lo, lo + step, …` that
/// stay on `lo`'s side of `hi` (`step != 0`).
fn loop_trips(lo: i64, hi: i64, step: i64) -> u128 {
    let (span, step) = (hi as i128 - lo as i128, step as i128);
    if (step > 0 && span < 0) || (step < 0 && span > 0) {
        0
    } else {
        (span / step + 1) as u128
    }
}
