//! Lowering: the analyzed program is resolved once per run into slot code.
//!
//! Variables become dense slots, PARAMETERs become constants, FORALL
//! indices become index registers and every statement carries the dense id
//! of its profile entry. Whether an expression is scalar- or array-valued
//! is fixed by the symbol table, so it is decided here too. A construct the
//! evaluator rejects (`CALL`, a section on a WHERE target, an array where a
//! scalar must be, …) lowers to a `Fail` node that raises its error when,
//! and only when, it is executed.
//!
//! The step budget counts one step per expression node evaluated. Nodes
//! are never skipped (no operator short-circuits), so every root records
//! its node count here and the evaluator charges it in one tick. The count
//! comes from the source tree, so a subscript lowered to an affine form
//! (which evaluates no node) costs what its expression costs.
//!
//! Lowering also decides how each FORALL assignment stores: in place when
//! no read can see another tuple's store, staged otherwise
//! ([`ForallItem::Assign`]).
//!
//! The `S` and `A` trees built here are the analysis form: as each statement
//! is lowered, every scalar expression it runs is compiled to closures
//! ([`crate::compile`]), and only those are executed.

use crate::buffer::{zero, Val};
use crate::compile::{Compiled, Compiler};
use hpf_lang::ast::*;
use hpf_lang::sema::{AnalyzedProgram, SymbolKind};
use hpf_lang::value::Value;
use hpf_lang::Span;
use std::collections::BTreeMap;
use std::ops::Range;

/// A scalar-valued expression.
pub(crate) enum S {
    Const(Val),
    /// A FORALL index register.
    Index(usize),
    Scalar(usize),
    /// A binding created only by a DO loop over a non-variable name: reading
    /// it before the loop has run is an error.
    Late(usize, Span),
    Elem {
        arr: usize,
        subs: Subs,
        span: Span,
    },
    Unary(UnOp, Box<S>, Span),
    Binary(BinOp, Box<S>, Box<S>, Span),
    /// An elemental intrinsic over scalar arguments.
    Elemental(Intrinsic, Box<[S]>, Span),
    /// A transformational intrinsic with a scalar result (SUM, SIZE, …).
    Call(Intrinsic, Box<[Ex]>, Span),
    Fail(String, Span),
}

/// An array-valued expression whose scalar operands are `X`: `S` trees
/// while lowering analyzes them, compiled closures once it is done.
pub(crate) enum A<X = S> {
    Whole(usize),
    Section {
        arr: usize,
        subs: Box<[Sub<X>]>,
        span: Span,
    },
    Unary(UnOp, Box<A<X>>, Span),
    /// At least one operand is an array.
    Binary(BinOp, Box<Ex<X>>, Box<Ex<X>>, Span),
    /// A transformational intrinsic with an array result, or an elemental
    /// one with an array argument.
    Call(Intrinsic, Box<[Ex<X>]>, Span),
    Fail(String, Span),
}

pub(crate) enum Ex<X = S> {
    S(X),
    A(A<X>),
}

/// The subscripts of an element reference or assignment target.
pub(crate) enum Subs {
    /// Every subscript is affine in the FORALL indices.
    Affine(Box<[Affine]>),
    General(Box<[S]>),
}

/// A subscript `I`, `I + c`, `c + I` or `I - c` over the FORALL index in
/// register `reg`, or an INTEGER constant `c` (`reg` is `None`). Its value
/// is the register plus `offset`, wrapping as INTEGER `+` and `-` do.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Affine {
    pub(crate) reg: Option<usize>,
    pub(crate) offset: i64,
}

impl Affine {
    #[inline]
    pub(crate) fn value(self, idx: &[i64]) -> i64 {
        match self.reg {
            Some(r) => idx[r].wrapping_add(self.offset),
            None => self.offset,
        }
    }
}

/// One subscript of a section.
pub(crate) enum Sub<X = S> {
    Index(X),
    Triplet {
        lo: Option<X>,
        hi: Option<X>,
        stride: Option<X>,
    },
}

/// An expression to evaluate, with the steps its nodes cost.
pub(crate) struct Root<T> {
    pub(crate) e: T,
    pub(crate) ticks: u64,
}

pub(crate) struct Instr {
    /// Dense id of the statement's profile entry.
    pub(crate) prof: usize,
    pub(crate) span: Span,
    pub(crate) op: Op,
}

pub(crate) enum Op {
    AssignScalar {
        slot: usize,
        ty: TypeSpec,
        rhs: Root<Compiled<Val>>,
    },
    /// Evaluates the right-hand side, addresses the element and stores.
    AssignElem(Root<Compiled<()>>),
    /// Whole-array (`section` is `None`) or section assignment.
    AssignArray {
        arr: usize,
        section: Option<Box<[Sub<Compiled<Val>>]>>,
        rhs: Root<Ex<Compiled<Val>>>,
    },
    Forall(Box<Forall>),
    Where(Box<Where>),
    Do {
        /// The loop variable's scalar slot, or the error binding it raises.
        var: Result<usize, String>,
        lo: Compiled<i64>,
        hi: Compiled<i64>,
        step: Option<Compiled<i64>>,
        ticks: u64,
        body: Vec<Instr>,
    },
    DoWhile {
        cond: Root<Compiled<Val>>,
        body: Vec<Instr>,
    },
    If {
        arms: Vec<(Root<Compiled<Val>>, Vec<Instr>)>,
        else_body: Vec<Instr>,
    },
    Print(Vec<Root<Ex<Compiled<Val>>>>),
    Stop,
    Io,
    Fail(String),
}

pub(crate) struct Triplet {
    pub(crate) reg: usize,
    pub(crate) lo: Compiled<i64>,
    pub(crate) hi: Compiled<i64>,
    pub(crate) stride: Option<Compiled<i64>>,
}

pub(crate) struct Forall {
    pub(crate) prof: usize,
    pub(crate) span: Span,
    pub(crate) triplets: Vec<Triplet>,
    /// Steps of all triplet bound expressions.
    pub(crate) bound_ticks: u64,
    pub(crate) mask: Option<Root<Compiled<Val>>>,
    pub(crate) body: Vec<ForallItem>,
}

pub(crate) enum ForallItem {
    /// `arr(subs) = rhs` per active index tuple; `ticks` per tuple.
    ///
    /// FORALL evaluates every right-hand side before it stores any. A
    /// `direct` assignment stores each tuple's value as soon as it is
    /// computed, which is the same thing when no read can see another
    /// tuple's store: its target's subscripts do not read the target, and
    /// every read of the target in `rhs` is either the element being stored
    /// (identical affine subscripts that use every index of this FORALL, so
    /// no two tuples store one element) or an element no tuple stores (a
    /// dimension where both subscripts are different constants). Any other
    /// assignment stages all its values first: `store` pushes each onto the
    /// machine's staging buffer, committed once every tuple has run.
    Assign {
        arr: usize,
        store: Compiled<()>,
        ticks: u64,
        span: Span,
        direct: bool,
    },
    Nested(Box<Forall>),
    /// An assignment that fails as soon as one index tuple is active.
    FailIfActive(String, Span),
    /// A statement that fails whenever it is reached.
    Fail(String, Span),
}

pub(crate) struct Where {
    pub(crate) mask: Root<A<Compiled<Val>>>,
    pub(crate) body: Vec<WhereItem>,
    pub(crate) elsewhere: Vec<WhereItem>,
}

pub(crate) enum WhereItem {
    Assign {
        arr: usize,
        rhs: Root<Ex<Compiled<Val>>>,
        span: Span,
    },
    Fail(String, Span),
}

/// A declared scalar, or a name only a DO loop binds.
pub(crate) struct ScalarSlot {
    pub(crate) name: String,
    pub(crate) init: Val,
    /// Declared variables exist from the start; DO-only bindings appear in
    /// the final scalars once a trip has bound them.
    pub(crate) declared: bool,
}

pub(crate) struct ArraySlot {
    pub(crate) name: String,
    pub(crate) ty: TypeSpec,
    pub(crate) axes: Vec<Axis>,
    /// Element count, saturating (the machine refuses a run past its cap
    /// before it executes anything, so no stride of such an array is read).
    pub(crate) elements: u128,
    pub(crate) span: Span,
}

/// One dimension of a declared array: lower bound, extent and column-major
/// stride.
#[derive(Clone, Copy)]
pub(crate) struct Axis {
    pub(crate) lb: i64,
    pub(crate) extent: usize,
    pub(crate) stride: usize,
}

impl Axis {
    /// The offset that subscript `i` adds, or `None` when `i` is out of
    /// bounds.
    #[inline]
    pub(crate) fn position(self, i: i64) -> Option<usize> {
        let rel = i.wrapping_sub(self.lb) as u64;
        (rel < self.extent as u64).then(|| rel as usize * self.stride)
    }
}

impl ArraySlot {
    fn new(name: &str, ty: TypeSpec, shape: &[(i64, i64)], span: Span) -> ArraySlot {
        // `None` once the product overflows, whatever extents follow.
        let mut elements = Some(1u128);
        let mut axes = Vec::with_capacity(shape.len());
        for &(lb, ub) in shape {
            let extent = (ub as i128 - lb as i128 + 1).max(0) as u128;
            axes.push(Axis {
                lb,
                extent: extent as usize,
                stride: elements.unwrap_or(0) as usize,
            });
            elements = elements.and_then(|n| n.checked_mul(extent));
        }
        ArraySlot {
            name: name.to_string(),
            ty,
            axes,
            elements: elements.unwrap_or(u128::MAX),
            span,
        }
    }
}

/// A lowered program.
pub(crate) struct Code {
    pub(crate) body: Vec<Instr>,
    pub(crate) scalars: Vec<ScalarSlot>,
    pub(crate) arrays: Vec<ArraySlot>,
    pub(crate) strings: Vec<String>,
    /// Profile key `(line, start)` of each profile id.
    pub(crate) keys: Vec<(u32, u32)>,
    pub(crate) registers: usize,
}

pub(crate) fn lower(analyzed: &AnalyzedProgram) -> Code {
    let mut l = Lowerer::new(analyzed);
    l.code.body = l.block(&analyzed.program.body);
    l.code
}

/// Steps charged for evaluating `e`: one per node, subscripts included.
fn nodes(e: &Expr) -> u64 {
    match e {
        Expr::IntLit(..) | Expr::RealLit(..) | Expr::LogicalLit(..) | Expr::StrLit(..) => 1,
        Expr::Ref(r) => 1 + ref_nodes(r),
        Expr::Intrinsic { args, .. } => 1 + args.iter().map(nodes).sum::<u64>(),
        Expr::Unary { operand, .. } => 1 + nodes(operand),
        Expr::Binary { lhs, rhs, .. } => 1 + nodes(lhs) + nodes(rhs),
    }
}

/// Steps charged for a reference's subscripts.
fn ref_nodes(r: &DataRef) -> u64 {
    r.subs
        .iter()
        .map(|s| match s {
            Subscript::Index(e) => nodes(e),
            Subscript::Triplet { lo, hi, stride } => [lo, hi, stride]
                .iter()
                .flat_map(|e| e.iter())
                .map(nodes)
                .sum(),
        })
        .sum()
}

struct Lowerer<'a> {
    analyzed: &'a AnalyzedProgram,
    scalar_slot: BTreeMap<String, usize>,
    array_slot: BTreeMap<String, usize>,
    key_slot: BTreeMap<(u32, u32), usize>,
    /// FORALL indices in scope, innermost last.
    scope: Vec<(&'a str, usize)>,
    /// Index registers of the innermost FORALL.
    inner: Range<usize>,
    code: Code,
}

impl<'a> Lowerer<'a> {
    /// A lowerer with every declared variable and DO binding in its slot.
    fn new(analyzed: &'a AnalyzedProgram) -> Lowerer<'a> {
        let mut l = Lowerer {
            analyzed,
            scalar_slot: BTreeMap::new(),
            array_slot: BTreeMap::new(),
            key_slot: BTreeMap::new(),
            scope: Vec::new(),
            inner: 0..0,
            code: Code {
                body: Vec::new(),
                scalars: Vec::new(),
                arrays: Vec::new(),
                strings: Vec::new(),
                keys: Vec::new(),
                registers: 0,
            },
        };
        for (name, sym) in &analyzed.symbols {
            match &sym.kind {
                SymbolKind::Scalar => {
                    l.scalar_slot.insert(name.clone(), l.code.scalars.len());
                    l.code.scalars.push(ScalarSlot {
                        name: name.clone(),
                        init: zero(sym.ty),
                        declared: true,
                    });
                }
                SymbolKind::Array { shape } => {
                    l.array_slot.insert(name.clone(), l.code.arrays.len());
                    l.code
                        .arrays
                        .push(ArraySlot::new(name, sym.ty, shape, sym.span));
                }
                _ => {}
            }
        }
        l.bind_do_variables(&analyzed.program.body);
        l
    }

    fn compiler(&self) -> Compiler<'_> {
        Compiler {
            arrays: &self.code.arrays,
        }
    }

    /// Give every DO variable that is not a declared scalar a binding of its
    /// own (arrays excepted: binding one is an error at run time).
    fn bind_do_variables(&mut self, body: &[Stmt]) {
        for st in body {
            match st {
                Stmt::Do { var, body, .. } => {
                    if !self.scalar_slot.contains_key(var) && !self.array_slot.contains_key(var) {
                        self.scalar_slot
                            .insert(var.clone(), self.code.scalars.len());
                        self.code.scalars.push(ScalarSlot {
                            name: var.clone(),
                            init: Val::Int(0),
                            declared: false,
                        });
                    }
                    self.bind_do_variables(body);
                }
                Stmt::DoWhile { body, .. } => self.bind_do_variables(body),
                Stmt::If {
                    arms, else_body, ..
                } => {
                    for (_, b) in arms {
                        self.bind_do_variables(b);
                    }
                    self.bind_do_variables(else_body);
                }
                _ => {}
            }
        }
    }

    fn prof(&mut self, span: Span) -> usize {
        let key = (span.line, span.start);
        let next = self.code.keys.len();
        *self.key_slot.entry(key).or_insert_with(|| {
            self.code.keys.push(key);
            next
        })
    }

    fn intern(&mut self, s: &str) -> Val {
        let i = match self.code.strings.iter().position(|t| t == s) {
            Some(i) => i,
            None => {
                self.code.strings.push(s.to_string());
                self.code.strings.len() - 1
            }
        };
        Val::Str(i as u32)
    }

    fn constant(&mut self, v: &Value) -> Val {
        match v {
            Value::Int(v) => Val::Int(*v),
            Value::Real(v) => Val::Real(*v),
            Value::Logical(v) => Val::Logical(*v),
            Value::Str(s) => self.intern(s),
        }
    }

    fn block(&mut self, body: &'a [Stmt]) -> Vec<Instr> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, st: &'a Stmt) -> Instr {
        let span = st.span();
        let prof = self.prof(span);
        let op = match st {
            Stmt::Assign { lhs, rhs, .. } => self.assign(lhs, rhs, span),
            Stmt::Forall { header, body, .. } => {
                Op::Forall(Box::new(self.forall(header, body, span)))
            }
            Stmt::Where {
                mask,
                body,
                elsewhere,
                ..
            } => {
                let mask = Root {
                    ticks: nodes(mask),
                    e: match self.expr(mask) {
                        Ex::A(a) => self.compiler().array(a),
                        Ex::S(_) => A::Fail("WHERE mask must be an array".into(), span),
                    },
                };
                Op::Where(Box::new(Where {
                    mask,
                    body: body.iter().map(|s| self.where_item(s)).collect(),
                    elsewhere: elsewhere.iter().map(|s| self.where_item(s)).collect(),
                }))
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => Op::Do {
                var: match self.scalar_slot.get(var) {
                    Some(&slot) => Ok(slot),
                    None => Err(format!("DO variable `{var}` is an array")),
                },
                lo: self.bound(lo, span),
                hi: self.bound(hi, span),
                step: step.as_ref().map(|s| self.bound(s, span)),
                ticks: nodes(lo) + nodes(hi) + step.as_ref().map_or(0, nodes),
                body: self.block(body),
            },
            Stmt::DoWhile { cond, body, .. } => Op::DoWhile {
                cond: self.condition(cond, "DO WHILE condition must be scalar LOGICAL"),
                body: self.block(body),
            },
            Stmt::If {
                arms, else_body, ..
            } => Op::If {
                arms: arms
                    .iter()
                    .map(|(c, b)| {
                        let c = self.condition(c, "IF condition must be scalar LOGICAL");
                        (c, self.block(b))
                    })
                    .collect(),
                else_body: self.block(else_body),
            },
            // The subset has no user procedures; CALL is accepted by the
            // parser for completeness but has no executable semantics.
            Stmt::Call { name, .. } => Op::Fail(format!(
                "CALL to `{name}` — user procedures are outside the subset"
            )),
            Stmt::Print { items, .. } => Op::Print(
                items
                    .iter()
                    .map(|e| Root {
                        ticks: nodes(e),
                        e: self.compiled(e),
                    })
                    .collect(),
            ),
            Stmt::Stop { .. } => Op::Stop,
            // Parallel I/O moves data between memory and the striped file
            // system; the functional semantics of the program are unchanged,
            // so evaluation treats it as a (counted) no-op.
            Stmt::Io { .. } => Op::Io,
        };
        Instr { prof, span, op }
    }

    fn condition(&mut self, e: &'a Expr, msg: &str) -> Root<Compiled<Val>> {
        let s = match self.expr(e) {
            Ex::S(s) => s,
            Ex::A(_) => S::Fail(msg.into(), e.span()),
        };
        Root {
            ticks: nodes(e),
            e: self.compiler().scalar(s),
        }
    }

    /// `e` lowered and compiled at once, where nothing analyzes its `S` form.
    fn compiled(&mut self, e: &'a Expr) -> Ex<Compiled<Val>> {
        let e = self.expr(e);
        self.compiler().ex(e)
    }

    /// A DO or FORALL bound: a scalar used as an INTEGER, failing at `span`.
    fn bound(&mut self, e: &'a Expr, span: Span) -> Compiled<i64> {
        let s = self.int_expr(e);
        self.compiler().int(s, span)
    }

    fn assign(&mut self, lhs: &'a DataRef, rhs: &'a Expr, span: Span) -> Op {
        let ticks = nodes(rhs);
        let rhs = self.expr(rhs);
        let Some(&arr) = self.array_slot.get(&lhs.name) else {
            if !lhs.subs.is_empty() {
                return Op::Fail(format!("`{}` is not an array", lhs.name));
            }
            let Some(&slot) = self.scalar_slot.get(&lhs.name) else {
                return Op::Fail(format!("undefined variable `{}`", lhs.name));
            };
            let Ex::S(rhs) = rhs else {
                return Op::Fail("cannot assign array to scalar".into());
            };
            // A name without a declared type is stored unconverted.
            let ty = self
                .analyzed
                .symbols
                .get(&lhs.name)
                .map_or(TypeSpec::Logical, |s| s.ty);
            return Op::AssignScalar {
                slot,
                ty,
                rhs: Root {
                    e: self.compiler().scalar(rhs),
                    ticks: ticks + 1,
                },
            };
        };
        let rank = self.code.arrays[arr].axes.len();
        let sub_ticks = ref_nodes(lhs);
        if !lhs.subs.is_empty() && lhs.subs.iter().all(Subscript::is_index) {
            let Ex::S(rhs) = rhs else {
                return Op::Fail("cannot assign array to array element".into());
            };
            if lhs.subs.len() != rank {
                return Op::Fail(format!("index out of bounds for `{}`", lhs.name));
            }
            let subs = self.element_subs(&lhs.subs);
            return Op::AssignElem(Root {
                e: self.compiler().store(arr, subs, rhs, span, false),
                ticks: ticks + sub_ticks + 1,
            });
        }
        if !lhs.subs.is_empty() && lhs.subs.len() != rank {
            return Op::Fail(format!("rank mismatch: `{}` has rank {rank}", lhs.name));
        }
        let section = (!lhs.subs.is_empty()).then(|| {
            let subs = self.section_subs(&lhs.subs);
            self.compiler().section(subs)
        });
        Op::AssignArray {
            arr,
            section,
            rhs: Root {
                e: self.compiler().ex(rhs),
                ticks: ticks + sub_ticks,
            },
        }
    }

    fn forall(&mut self, header: &'a ForallHeader, body: &'a [Stmt], span: Span) -> Forall {
        let prof = self.prof(span);
        // Triplet bounds see the enclosing indices only, never a sibling.
        let first = self.scope.last().map_or(0, |&(_, r)| r + 1);
        let mut triplets = Vec::with_capacity(header.triplets.len());
        let mut bound_ticks = 0;
        for (k, t) in header.triplets.iter().enumerate() {
            bound_ticks += nodes(&t.lo) + nodes(&t.hi) + t.stride.as_ref().map_or(0, nodes);
            triplets.push(Triplet {
                reg: first + k,
                lo: self.bound(&t.lo, span),
                hi: self.bound(&t.hi, span),
                stride: t.stride.as_ref().map(|s| self.bound(s, span)),
            });
        }
        let depth = self.scope.len();
        for (k, t) in header.triplets.iter().enumerate() {
            self.scope.push((&t.var, first + k));
        }
        self.code.registers = self.code.registers.max(first + header.triplets.len());
        let mask = header
            .mask
            .as_ref()
            .map(|m| self.condition(m, "FORALL mask must be scalar LOGICAL"));
        let outer = std::mem::replace(&mut self.inner, first..first + header.triplets.len());
        let body = body.iter().map(|st| self.forall_item(st)).collect();
        self.inner = outer;
        self.scope.truncate(depth);
        Forall {
            prof,
            span,
            triplets,
            bound_ticks,
            mask,
            body,
        }
    }

    fn forall_item(&mut self, st: &'a Stmt) -> ForallItem {
        match st {
            Stmt::Assign { lhs, rhs, span } => {
                let ticks = nodes(rhs) + ref_nodes(lhs);
                let rhs = match self.expr(rhs) {
                    Ex::S(s) => s,
                    Ex::A(_) => {
                        return ForallItem::FailIfActive(
                            "array-valued RHS inside FORALL body is outside the subset".into(),
                            *span,
                        )
                    }
                };
                if lhs.subs.iter().any(|s| !s.is_index()) {
                    return ForallItem::FailIfActive(
                        "expected element subscript, found section".into(),
                        lhs.span,
                    );
                }
                let Some(&arr) = self.array_slot.get(&lhs.name) else {
                    return ForallItem::FailIfActive(
                        format!("`{}` is not an array", lhs.name),
                        *span,
                    );
                };
                if lhs.subs.len() != self.code.arrays[arr].axes.len() {
                    return ForallItem::FailIfActive(
                        format!("index out of bounds for `{}`", lhs.name),
                        *span,
                    );
                }
                let subs = self.element_subs(&lhs.subs);
                let direct = stores_in_place(arr, &subs, &rhs, self.inner.clone());
                ForallItem::Assign {
                    arr,
                    store: self.compiler().store(arr, subs, rhs, *span, !direct),
                    ticks,
                    span: *span,
                    direct,
                }
            }
            Stmt::Forall { header, body, span } => {
                ForallItem::Nested(Box::new(self.forall(header, body, *span)))
            }
            other => ForallItem::Fail(
                "only assignments and nested FORALLs are allowed in a FORALL body".into(),
                other.span(),
            ),
        }
    }

    fn where_item(&mut self, st: &'a Stmt) -> WhereItem {
        let Stmt::Assign { lhs, rhs, span } = st else {
            return WhereItem::Fail("WHERE body must contain only assignments".into(), st.span());
        };
        let Some(&arr) = self.array_slot.get(&lhs.name) else {
            return WhereItem::Fail("WHERE assignment target must be an array".into(), *span);
        };
        if !lhs.subs.is_empty() {
            return WhereItem::Fail(
                "sections on WHERE assignment targets are outside the subset".into(),
                *span,
            );
        }
        WhereItem::Assign {
            arr,
            rhs: Root {
                ticks: nodes(rhs),
                e: self.compiled(rhs),
            },
            span: *span,
        }
    }

    /// A scalar expression whose value is used as an integer.
    fn int_expr(&mut self, e: &'a Expr) -> S {
        match self.expr(e) {
            Ex::S(s) => s,
            Ex::A(_) => S::Fail("expected scalar integer, found array".into(), e.span()),
        }
    }

    /// An element's subscripts: affine when every one of them is.
    fn element_subs(&mut self, subs: &'a [Subscript]) -> Subs {
        let index = |s: &'a Subscript| match s {
            Subscript::Index(e) => e,
            Subscript::Triplet { .. } => unreachable!("element subscripts are all indices"),
        };
        if subs.iter().all(|s| self.affine(index(s)).is_some()) {
            return Subs::Affine(subs.iter().filter_map(|s| self.affine(index(s))).collect());
        }
        Subs::General(subs.iter().map(|s| self.int_expr(index(s))).collect())
    }

    /// `e` as an [`Affine`] subscript, if it has one of its forms.
    fn affine(&self, e: &Expr) -> Option<Affine> {
        let index = |e: &Expr| match e {
            Expr::Ref(r) if r.subs.is_empty() => self.index_reg(&r.name),
            _ => None,
        };
        let constant = |e: &Expr| match e {
            Expr::IntLit(v, _) => Some(*v),
            Expr::Ref(r) if r.subs.is_empty() && self.index_reg(&r.name).is_none() => {
                match self.analyzed.symbols.get(&r.name).map(|s| &s.kind) {
                    Some(SymbolKind::Parameter {
                        value: Value::Int(v),
                    }) => Some(*v),
                    _ => None,
                }
            }
            _ => None,
        };
        let at = |reg, offset| Some(Affine { reg, offset });
        match e {
            Expr::Binary {
                op: BinOp::Add,
                lhs,
                rhs,
                ..
            } => match (index(lhs), constant(rhs)) {
                (Some(r), Some(c)) => at(Some(r), c),
                _ => at(Some(index(rhs)?), constant(lhs)?),
            },
            Expr::Binary {
                op: BinOp::Sub,
                lhs,
                rhs,
                ..
            } => at(Some(index(lhs)?), constant(rhs)?.wrapping_neg()),
            _ => match index(e) {
                Some(r) => at(Some(r), 0),
                None => at(None, constant(e)?),
            },
        }
    }

    /// The register of the innermost FORALL index named `name`.
    fn index_reg(&self, name: &str) -> Option<usize> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, reg)| reg)
    }

    fn section_subs(&mut self, subs: &'a [Subscript]) -> Box<[Sub]> {
        subs.iter()
            .map(|s| match s {
                Subscript::Index(e) => Sub::Index(self.int_expr(e)),
                Subscript::Triplet { lo, hi, stride } => Sub::Triplet {
                    lo: lo.as_ref().map(|e| self.int_expr(e)),
                    hi: hi.as_ref().map(|e| self.int_expr(e)),
                    stride: stride.as_ref().map(|e| self.int_expr(e)),
                },
            })
            .collect()
    }

    fn expr(&mut self, e: &'a Expr) -> Ex {
        match e {
            Expr::IntLit(v, _) => Ex::S(S::Const(Val::Int(*v))),
            Expr::RealLit(v, _) => Ex::S(S::Const(Val::Real(*v))),
            Expr::LogicalLit(v, _) => Ex::S(S::Const(Val::Logical(*v))),
            Expr::StrLit(s, _) => Ex::S(S::Const(self.intern(s))),
            Expr::Ref(r) => self.reference(r),
            Expr::Unary { op, operand, span } => match self.expr(operand) {
                Ex::S(x) => Ex::S(S::Unary(*op, Box::new(x), *span)),
                Ex::A(x) => Ex::A(A::Unary(*op, Box::new(x), *span)),
            },
            Expr::Binary { op, lhs, rhs, span } => match (self.expr(lhs), self.expr(rhs)) {
                (Ex::S(l), Ex::S(r)) => Ex::S(S::Binary(*op, Box::new(l), Box::new(r), *span)),
                (l, r) => Ex::A(A::Binary(*op, Box::new(l), Box::new(r), *span)),
            },
            Expr::Intrinsic { name, args, span } => self.intrinsic(*name, args, *span),
        }
    }

    fn intrinsic(&mut self, f: Intrinsic, args: &'a [Expr], span: Span) -> Ex {
        use Intrinsic::*;
        let args: Vec<Ex> = args.iter().map(|a| self.expr(a)).collect();
        let array_result = match f {
            CShift | TShift | EoShift | Transpose | MatMul => true,
            Sum | Product | MaxVal | MinVal | MaxLoc | MinLoc | DotProduct | Size => false,
            Spread => {
                return Ex::S(S::Fail(
                    "SPREAD is not supported by the functional interpreter".into(),
                    span,
                ))
            }
            _ => {
                if args.iter().all(|a| matches!(a, Ex::S(_))) {
                    let args = args
                        .into_iter()
                        .map(|a| match a {
                            Ex::S(s) => s,
                            Ex::A(_) => unreachable!("all arguments are scalar"),
                        })
                        .collect();
                    return Ex::S(S::Elemental(f, args, span));
                }
                true
            }
        };
        if array_result {
            Ex::A(A::Call(f, args.into(), span))
        } else {
            Ex::S(S::Call(f, args.into(), span))
        }
    }

    fn reference(&mut self, r: &'a DataRef) -> Ex {
        let span = r.span;
        let undefined = || format!("undefined variable `{}`", r.name);
        if r.subs.is_empty() {
            // FORALL dummies shadow every other meaning of the name.
            if let Some(reg) = self.index_reg(&r.name) {
                return Ex::S(S::Index(reg));
            }
            // Named constants live in the symbol table, not the store.
            if let Some(SymbolKind::Parameter { value }) =
                self.analyzed.symbols.get(&r.name).map(|s| &s.kind)
            {
                return Ex::S(S::Const(self.constant(value)));
            }
            if let Some(&arr) = self.array_slot.get(&r.name) {
                return Ex::A(A::Whole(arr));
            }
            return Ex::S(match self.scalar_slot.get(&r.name) {
                Some(&slot) if self.code.scalars[slot].declared => S::Scalar(slot),
                Some(&slot) => S::Late(slot, span),
                None => S::Fail(undefined(), span),
            });
        }
        let Some(&arr) = self.array_slot.get(&r.name) else {
            let msg = match self.scalar_slot.get(&r.name) {
                Some(_) => format!("`{}` is not an array", r.name),
                None => undefined(),
            };
            return Ex::S(S::Fail(msg, span));
        };
        let rank = self.code.arrays[arr].axes.len();
        if r.subs.iter().all(Subscript::is_index) {
            if r.subs.len() != rank {
                return Ex::S(S::Fail(
                    format!("index out of bounds for `{}`", r.name),
                    span,
                ));
            }
            return Ex::S(S::Elem {
                arr,
                subs: self.element_subs(&r.subs),
                span,
            });
        }
        if r.subs.len() != rank {
            return Ex::A(A::Fail(
                format!("rank mismatch: `{}` has rank {rank}", r.name),
                span,
            ));
        }
        Ex::A(A::Section {
            arr,
            subs: self.section_subs(&r.subs),
            span,
        })
    }
}

/// Whether `arr(subs) = rhs` in a FORALL over the index registers `inner`
/// may store each tuple's value in place (see [`ForallItem::Assign`]).
fn stores_in_place(arr: usize, subs: &Subs, rhs: &S, inner: Range<usize>) -> bool {
    let mut direct = true;
    let target = match subs {
        Subs::Affine(t) => Some(&t[..]),
        Subs::General(g) => {
            for s in g.iter() {
                each_read(s, &mut |a, _| direct &= a != arr);
            }
            None
        }
    };
    // Every index of this FORALL names a dimension: one element per tuple.
    let own = target.is_some_and(|t| inner.clone().all(|r| t.iter().any(|a| a.reg == Some(r))));
    each_read(rhs, &mut |a, read| {
        if a != arr {
            return;
        }
        direct &= match (target, read) {
            (Some(t), Some(read)) => {
                (own && t == read)
                    || t.iter()
                        .zip(read)
                        .any(|(x, y)| x.reg.is_none() && y.reg.is_none() && x.offset != y.offset)
            }
            _ => false,
        };
    });
    direct
}

/// Call `f` on every array that evaluating `s` may read, with the
/// subscripts of an element read when they are affine and `None` for any
/// other read (general subscripts, a whole array, a section).
fn each_read(s: &S, f: &mut impl FnMut(usize, Option<&[Affine]>)) {
    match s {
        S::Const(_) | S::Index(_) | S::Scalar(_) | S::Late(..) | S::Fail(..) => {}
        S::Elem { arr, subs, .. } => match subs {
            Subs::Affine(subs) => f(*arr, Some(subs)),
            Subs::General(subs) => {
                f(*arr, None);
                subs.iter().for_each(|s| each_read(s, f));
            }
        },
        S::Unary(_, x, _) => each_read(x, f),
        S::Binary(_, l, r, _) => {
            each_read(l, f);
            each_read(r, f);
        }
        S::Elemental(_, args, _) => args.iter().for_each(|s| each_read(s, f)),
        S::Call(_, args, _) => args.iter().for_each(|e| each_read_ex(e, f)),
    }
}

fn each_read_ex(e: &Ex, f: &mut impl FnMut(usize, Option<&[Affine]>)) {
    match e {
        Ex::S(s) => each_read(s, f),
        Ex::A(a) => each_read_array(a, f),
    }
}

fn each_read_array(a: &A, f: &mut impl FnMut(usize, Option<&[Affine]>)) {
    match a {
        A::Whole(arr) => f(*arr, None),
        A::Section { arr, subs, .. } => {
            f(*arr, None);
            for sub in subs.iter() {
                match sub {
                    Sub::Index(s) => each_read(s, f),
                    Sub::Triplet { lo, hi, stride } => [lo, hi, stride]
                        .into_iter()
                        .flatten()
                        .for_each(|s| each_read(s, f)),
                }
            }
        }
        A::Unary(_, x, _) => each_read_array(x, f),
        A::Binary(_, l, r, _) => {
            each_read_ex(l, f);
            each_read_ex(r, f);
        }
        A::Call(_, args, _) => args.iter().for_each(|e| each_read_ex(e, f)),
        A::Fail(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_lang::{analyze, parse_program};

    /// Whether each FORALL assignment of `src` stores in place, in source
    /// order.
    fn direct(src: &str) -> Vec<bool> {
        fn block(body: &[Instr], out: &mut Vec<bool>) {
            for st in body {
                match &st.op {
                    Op::Forall(f) => forall(f, out),
                    Op::Do { body, .. } | Op::DoWhile { body, .. } => block(body, out),
                    _ => {}
                }
            }
        }
        fn forall(f: &Forall, out: &mut Vec<bool>) {
            for item in &f.body {
                match item {
                    ForallItem::Assign { direct, .. } => out.push(*direct),
                    ForallItem::Nested(inner) => forall(inner, out),
                    _ => {}
                }
            }
        }
        let program = parse_program(src).unwrap();
        let analyzed = analyze(&program, &BTreeMap::new()).unwrap();
        let mut out = Vec::new();
        block(&lower(&analyzed).body, &mut out);
        out
    }

    fn program(decls: &str, body: &str) -> String {
        format!("PROGRAM T\nINTEGER, PARAMETER :: N = 16\n{decls}\n{body}\nEND\n")
    }

    #[test]
    fn the_suites_own_element_updates_store_in_place() {
        // Laplace's stencil, N-Body's accumulation, PBS 2 and 3, LFK 9's
        // row, LFK 14's gather and LFK 22's masked quotient.
        let cases = [
            (
                "REAL U(N,N), UNEW(N,N)",
                "FORALL (I = 2:N-1, J = 2:N-1) UNEW(I,J) = \
                 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))",
            ),
            (
                "REAL X(N), M(N), XT(N), MT(N), F(N), G, EPS",
                "FORALL (I = 1:N) F(I) = F(I) + G * M(I) * MT(I) / ((X(I) - XT(I)) ** 2 + EPS)",
            ),
            (
                "INTEGER, PARAMETER :: J = 3\nREAL ROW(N), ACC(N)",
                "FORALL (I = 1:N) ROW(I) = 1.0 + 0.5 ** ABS(I - J) + 0.001\n\
                 FORALL (I = 1:N) ACC(I) = ACC(I) * ROW(I)",
            ),
            (
                "INTEGER J\nREAL A(8, N), R(N)",
                "FORALL (I = 1:N) R(I) = R(I) * A(J, I)",
            ),
            (
                "REAL PX(13, N), C0",
                "FORALL (I = 1:N) PX(1,I) = 0.08*PX(13,I) + 0.07*PX(12,I) + \
                 C0*(PX(5,I) + PX(6,I)) + PX(3,I)",
            ),
            (
                "REAL VX(N), EX(N)\nINTEGER IX(N)",
                "FORALL (K = 1:N) VX(K) = VX(K) + EX(IX(K)) * 0.5",
            ),
            (
                "REAL U(N), V(N), Y(N)",
                "FORALL (K = 1:N, U(K)/V(K) .LE. 20.0) Y(K) = U(K) / V(K)",
            ),
            (
                "REAL A(4,4)",
                "FORALL (I = 1:4)\nFORALL (J = 1:4) A(I,J) = A(I,J) + J\nEND FORALL",
            ),
        ];
        for (decls, body) in cases {
            let got = direct(&program(decls, body));
            assert!(got.iter().all(|&d| d), "{body}: {got:?}");
        }
    }

    #[test]
    fn reads_of_other_tuples_elements_stage() {
        let cases = [
            // LFK 2: non-affine reads of the target.
            (
                "REAL X(2*N), V(2*N)\nINTEGER IP, IPO",
                "FORALL (K = 1:N/2) X(IP+K) = \
                 X(IPO+2*K) - V(IPO+2*K-1)*X(IPO+2*K-1) - V(IPO+2*K)*X(IPO+2*K)",
            ),
            // Financial's lattice update: a shifted self-read.
            (
                "REAL S(N), V(N), DISC, PU",
                "FORALL (I = 1:N-1) V(I) = \
                 MAX(DISC * (PU * V(I+1) + (1.0 - PU) * V(I)), S(I) - 1.1)",
            ),
            ("REAL X(N)", "FORALL (K = 2:N-1) X(K+1) = X(K) + X(K-1)"),
            // Every tuple stores the one element.
            ("REAL X(N)", "FORALL (I = 1:N) X(1) = X(1) + I"),
            (
                "REAL A(4)",
                "FORALL (I = 1:4)\nFORALL (J = 1:4) A(I) = A(I) + J\nEND FORALL",
            ),
            // An array operand of an intrinsic.
            ("REAL X(N)", "FORALL (I = 1:N) X(I) = SUM(X)"),
            // The target's subscript reads the target.
            ("INTEGER IX(N)", "FORALL (K = 1:N) IX(IX(K)) = K"),
            // Same constant row, another column.
            ("REAL P(2, N)", "FORALL (I = 1:N-1) P(1,I) = P(1,I+1)"),
        ];
        for (decls, body) in cases {
            assert_eq!(direct(&program(decls, body)), [false], "{body}");
        }
    }

    #[test]
    fn affine_forms() {
        let program = parse_program(&program(
            "INTEGER, PARAMETER :: M = 5\nREAL A(N), B(N)\nINTEGER K",
            "FORALL (I = 1:N) A(I) = B(I) + B(I+M) + B(2+I) + B(I-1) + B(M) + B(7) \
             + B(I*1) + B(K) + B(-1 + I)",
        ))
        .unwrap();
        let analyzed = analyze(&program, &BTreeMap::new()).unwrap();
        let Stmt::Forall { header, body, .. } = &analyzed.program.body[0] else {
            panic!("first statement is the FORALL")
        };
        let Stmt::Assign { rhs, .. } = &body[0] else {
            panic!("an assignment")
        };
        let mut l = Lowerer::new(&analyzed);
        l.scope.push((&header.triplets[0].var, 0));
        let Ex::S(rhs) = l.expr(rhs) else {
            panic!("a scalar right-hand side")
        };
        let mut got = Vec::new();
        each_read(&rhs, &mut |_, subs| {
            got.push(subs.map(|s| (s[0].reg, s[0].offset)));
        });
        let i = Some(0);
        assert_eq!(
            got,
            [
                Some((i, 0)),
                Some((i, 5)),
                Some((i, 2)),
                Some((i, -1)),
                Some((None, 5)),
                Some((None, 7)),
                None,
                None,
                None,
            ]
        );
    }
}
