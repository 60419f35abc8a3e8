//! Semantic analysis: symbol table construction, PARAMETER/const evaluation,
//! intrinsic resolution, array-shape resolution, directive validation, and
//! critical-variable identification (§4.2 "abstraction parse" support).
//!
//! The analyzer accepts a `parameter override` environment so that problem
//! sizes can be varied "from within the interface itself" (§5.3) without
//! editing source, exactly as the paper's framework allowed.

use crate::ast::*;
use crate::error::{LangError, LangResult};
use crate::span::Span;
use crate::value::Value;
use std::collections::BTreeMap;

/// What a name refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum SymbolKind {
    /// Scalar variable.
    Scalar,
    /// Array variable with resolved rectangular shape.
    Array { shape: Vec<(i64, i64)> },
    /// Named compile-time constant.
    Parameter { value: Value },
    /// HPF TEMPLATE with resolved shape.
    Template { shape: Vec<(i64, i64)> },
    /// HPF PROCESSORS arrangement with resolved extents.
    Processors { shape: Vec<i64> },
}

/// A resolved symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    pub name: String,
    pub ty: TypeSpec,
    pub kind: SymbolKind,
    pub span: Span,
}

impl Symbol {
    /// Resolved array/template shape, if any.
    pub fn shape(&self) -> Option<&[(i64, i64)]> {
        match &self.kind {
            SymbolKind::Array { shape } | SymbolKind::Template { shape } => Some(shape),
            _ => None,
        }
    }

    /// Total element count for arrays/templates.
    pub fn elem_count(&self) -> Option<u64> {
        self.shape().map(|s| {
            s.iter()
                .map(|(lb, ub)| (ub - lb + 1).max(0) as u64)
                .product()
        })
    }

    pub fn is_array(&self) -> bool {
        matches!(self.kind, SymbolKind::Array { .. })
    }
}

/// Symbol table keyed by uppercased name. `BTreeMap` keeps iteration
/// deterministic, which downstream reports rely on.
pub type SymbolTable = BTreeMap<String, Symbol>;

/// Result of semantic analysis.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    /// The program with intrinsic references resolved (`Expr::Ref(SUM(..))`
    /// rewritten to `Expr::Intrinsic`).
    pub program: Program,
    pub symbols: SymbolTable,
    /// Names of critical variables (variables steering control flow) that
    /// could *not* be resolved to compile-time constants by definition
    /// tracing; the framework requires the user to supply these (§4.2).
    pub unresolved_critical: Vec<String>,
    /// Critical variables resolved by definition tracing, with their values.
    pub resolved_critical: BTreeMap<String, i64>,
}

impl AnalyzedProgram {
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.get(&name.to_ascii_uppercase())
    }
}

/// Fortran implicit typing: names starting I..N are INTEGER, others REAL.
pub fn implicit_type(name: &str) -> TypeSpec {
    match name.as_bytes().first() {
        Some(c) if (b'I'..=b'N').contains(&c.to_ascii_uppercase()) => TypeSpec::Integer,
        _ => TypeSpec::Real,
    }
}

/// Analyze a parsed program. `overrides` maps PARAMETER names to replacement
/// integer values (the interface's problem-size knob).
///
/// Analysis has two halves, split where directive candidates differ.
/// [`analyze_front`] does what no DISTRIBUTE format or PROCESSORS shape
/// changes; [`check_directives`] does the checks over those, for one
/// directive list. `analyze` runs both over the program's own directives,
/// one directive at a time, so its checks keep their order: declarations,
/// then each directive in turn, then the executable part.
pub fn analyze(
    program: &Program,
    overrides: &BTreeMap<String, i64>,
) -> LangResult<AnalyzedProgram> {
    let _span = hpf_trace::span("sema");
    let mut a = Analyzer::with_decls(program, overrides)?;
    let mut checks = DirectiveChecks::new(overrides);
    for d in &program.directives {
        checks.check(&a.symbols, d)?;
        a.declare_mapping(d)?;
    }
    for (name, extents) in checks.arrangements {
        if let Some(Symbol {
            kind: SymbolKind::Processors { shape },
            ..
        }) = a.symbols.get_mut(name)
        {
            *shape = extents;
        }
    }
    a.finish(program)
}

/// The front half of [`analyze`]: declarations, TEMPLATE shapes, the
/// mapping-object names, the ALIGN checks and the names a DISTRIBUTE
/// refers to, the executable part and critical-variable tracing. None of
/// these reads a DISTRIBUTE format or a PROCESSORS shape, so one front half
/// serves every directive candidate of the program. Its PROCESSORS symbols
/// carry no extents: [`check_directives`] resolves those per directive list.
pub fn analyze_front(
    program: &Program,
    overrides: &BTreeMap<String, i64>,
) -> LangResult<AnalyzedProgram> {
    let _span = hpf_trace::span("sema");
    let mut a = Analyzer::with_decls(program, overrides)?;
    for d in &program.directives {
        a.declare_mapping(d)?;
    }
    a.finish(program)
}

/// The checks of [`analyze`] that a DISTRIBUTE format or a PROCESSORS shape
/// can change, over `directives` against a front half ([`analyze_front`]):
/// each PROCESSORS extent, each DISTRIBUTE's rank against its target, and
/// its distributed dimensions against the ONTO arrangement. `directives`
/// must be the front half's own list with only those formats and shapes
/// rewritten, as a directive candidate is; any iterator of borrowed
/// directives works, so a candidate need not own an unchanged entry.
pub fn check_directives<'d>(
    front: &AnalyzedProgram,
    directives: impl IntoIterator<Item = &'d Directive>,
    overrides: &BTreeMap<String, i64>,
) -> LangResult<()> {
    let mut checks = DirectiveChecks::new(overrides);
    directives
        .into_iter()
        .try_for_each(|d| checks.check(&front.symbols, d))
}

/// One walk of the per-list directive checks, in directive order.
struct DirectiveChecks<'a> {
    overrides: &'a BTreeMap<String, i64>,
    /// PROCESSORS arrangements seen so far, with their extents.
    arrangements: Vec<(&'a str, Vec<i64>)>,
}

impl<'a> DirectiveChecks<'a> {
    fn new(overrides: &'a BTreeMap<String, i64>) -> Self {
        DirectiveChecks {
            overrides,
            arrangements: Vec::new(),
        }
    }

    fn check(&mut self, symbols: &SymbolTable, d: &'a Directive) -> LangResult<()> {
        match d {
            Directive::Processors { name, shape, span } => {
                let mut extents = Vec::with_capacity(shape.len());
                for e in shape {
                    let v = const_eval_in(e, symbols, self.overrides)?
                        .as_i64()
                        .ok_or_else(|| {
                            LangError::sema("PROCESSORS extent must be integer", *span)
                        })?;
                    if v < 1 {
                        return Err(LangError::sema("PROCESSORS extent must be >= 1", *span));
                    }
                    extents.push(v);
                }
                self.arrangements.push((name, extents));
            }
            Directive::Distribute {
                target,
                formats,
                onto,
                span,
            } => {
                // An undeclared target or ONTO arrangement is the front
                // half's error (`declare_mapping`), reported after these.
                let Some(tgt) = symbols.get(target) else {
                    return Ok(());
                };
                let rank = tgt.shape().map(|s| s.len()).unwrap_or(0);
                if formats.len() != rank {
                    return Err(LangError::sema(
                        format!(
                            "DISTRIBUTE formats ({}) do not match rank of `{target}` ({rank})",
                            formats.len()
                        ),
                        *span,
                    ));
                }
                let grid = onto
                    .as_ref()
                    .and_then(|p| self.arrangements.iter().rev().find(|(n, _)| n == p));
                if let Some((_, shape)) = grid {
                    let dist_dims = formats
                        .iter()
                        .filter(|f| **f != DistFormat::Degenerate)
                        .count();
                    if dist_dims != shape.len() && !(dist_dims == 0 && shape.len() == 1) {
                        return Err(LangError::sema(
                            format!(
                                "distributed dimensions ({dist_dims}) do not match \
                                 PROCESSORS rank ({})",
                                shape.len()
                            ),
                            *span,
                        ));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

struct Analyzer<'a> {
    symbols: SymbolTable,
    overrides: &'a BTreeMap<String, i64>,
}

impl<'a> Analyzer<'a> {
    /// An analyzer holding the program's declarations.
    fn with_decls(program: &Program, overrides: &'a BTreeMap<String, i64>) -> LangResult<Self> {
        let mut a = Analyzer {
            symbols: SymbolTable::new(),
            overrides,
        };
        a.collect_decls(program)?;
        Ok(a)
    }

    fn collect_decls(&mut self, program: &Program) -> LangResult<()> {
        for decl in &program.decls {
            for ent in &decl.entities {
                let name = ent.name.clone();
                if self.symbols.contains_key(&name) {
                    return Err(LangError::sema(
                        format!("`{name}` declared twice"),
                        ent.span,
                    ));
                }
                // F77 PARAMETER statements carry a placeholder type; apply
                // implicit typing rules for those.
                let ty = if decl.parameter && decl.span.line != 0 && decl_is_untyped(decl) {
                    implicit_type(&name)
                } else {
                    decl.type_spec
                };
                if decl.parameter {
                    let init = ent.init.as_ref().ok_or_else(|| {
                        LangError::sema(format!("PARAMETER `{name}` lacks a value"), ent.span)
                    })?;
                    let mut value = self.const_eval(init)?;
                    if let Some(ov) = self.overrides.get(&name) {
                        value = Value::Int(*ov);
                    }
                    // Integer parameters keep Int; real parameters coerce.
                    let value = match (ty, value) {
                        (TypeSpec::Integer, v) => Value::Int(v.as_i64().ok_or_else(|| {
                            LangError::sema(format!("PARAMETER `{name}` must be numeric"), ent.span)
                        })?),
                        (TypeSpec::Real | TypeSpec::DoublePrecision, v) => {
                            Value::Real(v.as_f64().ok_or_else(|| {
                                LangError::sema(
                                    format!("PARAMETER `{name}` must be numeric"),
                                    ent.span,
                                )
                            })?)
                        }
                        (TypeSpec::Logical, v) => v,
                    };
                    self.symbols.insert(
                        name.clone(),
                        Symbol {
                            name,
                            ty,
                            kind: SymbolKind::Parameter { value },
                            span: ent.span,
                        },
                    );
                    continue;
                }
                let dims = ent.dims.as_ref().or(decl.dimension.as_ref());
                let kind = match dims {
                    Some(dims) => SymbolKind::Array {
                        shape: self.resolve_shape(dims)?,
                    },
                    None => SymbolKind::Scalar,
                };
                self.symbols.insert(
                    name.clone(),
                    Symbol {
                        name,
                        ty,
                        kind,
                        span: ent.span,
                    },
                );
            }
        }
        Ok(())
    }

    /// Declare one directive's mapping object and make the checks no
    /// directive candidate changes: TEMPLATE shapes, ALIGN, and the names a
    /// DISTRIBUTE refers to.
    fn declare_mapping(&mut self, d: &Directive) -> LangResult<()> {
        match d {
            Directive::Processors { name, span, .. } => {
                // The extents belong to the directive list: see
                // `DirectiveChecks`.
                self.symbols.insert(
                    name.clone(),
                    Symbol {
                        name: name.clone(),
                        ty: TypeSpec::Integer,
                        kind: SymbolKind::Processors { shape: Vec::new() },
                        span: *span,
                    },
                );
            }
            Directive::Template { name, shape, span } => {
                let shape = self.resolve_shape(shape)?;
                self.symbols.insert(
                    name.clone(),
                    Symbol {
                        name: name.clone(),
                        ty: TypeSpec::Integer,
                        kind: SymbolKind::Template { shape },
                        span: *span,
                    },
                );
            }
            Directive::Independent { .. } => {}
            Directive::Align {
                alignee,
                dummies,
                target,
                target_subs,
                span,
            } => {
                let al = self.symbols.get(alignee).ok_or_else(|| {
                    LangError::sema(format!("ALIGN of undeclared `{alignee}`"), *span)
                })?;
                let rank = al.shape().map(|s| s.len()).unwrap_or(0);
                if dummies.len() != rank {
                    return Err(LangError::sema(
                        format!(
                            "ALIGN dummies ({}) do not match rank of `{alignee}` ({rank})",
                            dummies.len()
                        ),
                        *span,
                    ));
                }
                let tgt = self.symbols.get(target).ok_or_else(|| {
                    LangError::sema(format!("ALIGN WITH undeclared `{target}`"), *span)
                })?;
                let trank = tgt.shape().map(|s| s.len()).unwrap_or(0);
                if !target_subs.is_empty() && target_subs.len() != trank {
                    return Err(LangError::sema(
                        format!("ALIGN target subscripts do not match rank of `{target}`"),
                        *span,
                    ));
                }
                for sub in target_subs {
                    if let AlignSub::Affine { dummy, .. } = sub {
                        if !dummies.contains(dummy) {
                            return Err(LangError::sema(
                                format!("align subscript uses unknown dummy `{dummy}`"),
                                *span,
                            ));
                        }
                    }
                }
            }
            Directive::Distribute {
                target, onto, span, ..
            } => {
                if !self.symbols.contains_key(target) {
                    return Err(LangError::sema(
                        format!("DISTRIBUTE of undeclared `{target}`"),
                        *span,
                    ));
                }
                if let Some(p) = onto {
                    if !matches!(
                        self.symbols.get(p).map(|s| &s.kind),
                        Some(SymbolKind::Processors { .. })
                    ) {
                        return Err(LangError::sema(
                            format!("ONTO names unknown PROCESSORS `{p}`"),
                            *span,
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve intrinsics and check references in the executable part, then
    /// trace the critical variables.
    fn finish(mut self, program: &Program) -> LangResult<AnalyzedProgram> {
        let mut body = Vec::with_capacity(program.body.len());
        for st in &program.body {
            body.push(self.rewrite_stmt(st)?);
        }
        // Implicitly declare any scalars first seen in executable context
        // (Fortran implicit typing) — done inside rewrite via ensure_scalar.

        let program_out = Program {
            name: program.name.clone(),
            decls: program.decls.clone(),
            directives: program.directives.clone(),
            body,
            span: program.span,
        };

        // Critical-variable identification + definition tracing.
        let (resolved, unresolved) = trace_critical_variables(&program_out, &self.symbols);

        Ok(AnalyzedProgram {
            program: program_out,
            symbols: self.symbols,
            unresolved_critical: unresolved,
            resolved_critical: resolved,
        })
    }

    fn resolve_shape(&self, dims: &[DimBound]) -> LangResult<Vec<(i64, i64)>> {
        let mut shape = Vec::with_capacity(dims.len());
        for d in dims {
            let lb = match &d.lower {
                Some(e) => self
                    .const_eval(e)?
                    .as_i64()
                    .ok_or_else(|| LangError::sema("array bound must be integer", e.span()))?,
                None => 1,
            };
            let ub = self
                .const_eval(&d.upper)?
                .as_i64()
                .ok_or_else(|| LangError::sema("array bound must be integer", d.upper.span()))?;
            if ub < lb {
                return Err(LangError::sema(
                    format!("array bound {ub} below lower bound {lb}"),
                    d.upper.span(),
                ));
            }
            shape.push((lb, ub));
        }
        Ok(shape)
    }

    /// Fold a constant expression (literals, PARAMETERs, arithmetic, a few
    /// intrinsics) into a value.
    fn const_eval(&self, e: &Expr) -> LangResult<Value> {
        const_eval_in(e, &self.symbols, self.overrides)
    }

    // ---- intrinsic resolution / reference checking -----------------------

    fn rewrite_stmt(&mut self, st: &Stmt) -> LangResult<Stmt> {
        Ok(match st {
            Stmt::Assign { lhs, rhs, span } => {
                self.ensure_variable(lhs)?;
                Stmt::Assign {
                    lhs: self.rewrite_lhs(lhs)?,
                    rhs: self.rewrite_expr(rhs)?,
                    span: *span,
                }
            }
            Stmt::Forall { header, body, span } => {
                let mut triplets = Vec::new();
                for t in &header.triplets {
                    triplets.push(ForallTriplet {
                        var: t.var.clone(),
                        lo: self.rewrite_expr(&t.lo)?,
                        hi: self.rewrite_expr(&t.hi)?,
                        stride: t
                            .stride
                            .as_ref()
                            .map(|s| self.rewrite_expr(s))
                            .transpose()?,
                    });
                }
                let mask = header
                    .mask
                    .as_ref()
                    .map(|m| self.rewrite_expr(m))
                    .transpose()?;
                let body = body
                    .iter()
                    .map(|s| self.rewrite_stmt(s))
                    .collect::<LangResult<Vec<_>>>()?;
                Stmt::Forall {
                    header: ForallHeader { triplets, mask },
                    body,
                    span: *span,
                }
            }
            Stmt::Where {
                mask,
                body,
                elsewhere,
                span,
            } => Stmt::Where {
                mask: self.rewrite_expr(mask)?,
                body: body
                    .iter()
                    .map(|s| self.rewrite_stmt(s))
                    .collect::<LangResult<Vec<_>>>()?,
                elsewhere: elsewhere
                    .iter()
                    .map(|s| self.rewrite_stmt(s))
                    .collect::<LangResult<Vec<_>>>()?,
                span: *span,
            },
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                span,
            } => {
                self.ensure_scalar(var);
                Stmt::Do {
                    var: var.clone(),
                    lo: self.rewrite_expr(lo)?,
                    hi: self.rewrite_expr(hi)?,
                    step: step.as_ref().map(|s| self.rewrite_expr(s)).transpose()?,
                    body: body
                        .iter()
                        .map(|s| self.rewrite_stmt(s))
                        .collect::<LangResult<Vec<_>>>()?,
                    span: *span,
                }
            }
            Stmt::DoWhile { cond, body, span } => Stmt::DoWhile {
                cond: self.rewrite_expr(cond)?,
                body: body
                    .iter()
                    .map(|s| self.rewrite_stmt(s))
                    .collect::<LangResult<Vec<_>>>()?,
                span: *span,
            },
            Stmt::If {
                arms,
                else_body,
                span,
            } => Stmt::If {
                arms: arms
                    .iter()
                    .map(|(c, b)| {
                        Ok((
                            self.rewrite_expr(c)?,
                            b.iter()
                                .map(|s| self.rewrite_stmt(s))
                                .collect::<LangResult<Vec<_>>>()?,
                        ))
                    })
                    .collect::<LangResult<Vec<_>>>()?,
                else_body: else_body
                    .iter()
                    .map(|s| self.rewrite_stmt(s))
                    .collect::<LangResult<Vec<_>>>()?,
                span: *span,
            },
            Stmt::Call { name, args, span } => Stmt::Call {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| self.rewrite_expr(a))
                    .collect::<LangResult<Vec<_>>>()?,
                span: *span,
            },
            Stmt::Print { items, span } => Stmt::Print {
                items: items
                    .iter()
                    .map(|a| self.rewrite_expr(a))
                    .collect::<LangResult<Vec<_>>>()?,
                span: *span,
            },
            Stmt::Stop { span } => Stmt::Stop { span: *span },
            // Parallel I/O names whole arrays; there are no expressions to
            // rewrite. Validation (declared? distributed?) happens in the
            // compiler's lowering, where the distribution map exists.
            Stmt::Io { kind, arrays, span } => Stmt::Io {
                kind: *kind,
                arrays: arrays.clone(),
                span: *span,
            },
        })
    }

    fn rewrite_lhs(&mut self, r: &DataRef) -> LangResult<DataRef> {
        let mut subs = Vec::with_capacity(r.subs.len());
        for s in &r.subs {
            subs.push(match s {
                Subscript::Index(e) => Subscript::Index(self.rewrite_expr(e)?),
                Subscript::Triplet { lo, hi, stride } => Subscript::Triplet {
                    lo: lo.as_ref().map(|e| self.rewrite_expr(e)).transpose()?,
                    hi: hi.as_ref().map(|e| self.rewrite_expr(e)).transpose()?,
                    stride: stride.as_ref().map(|e| self.rewrite_expr(e)).transpose()?,
                },
            });
        }
        Ok(DataRef {
            name: r.name.clone(),
            subs,
            span: r.span,
        })
    }

    fn rewrite_expr(&mut self, e: &Expr) -> LangResult<Expr> {
        Ok(match e {
            Expr::IntLit(..) | Expr::RealLit(..) | Expr::LogicalLit(..) | Expr::StrLit(..) => {
                e.clone()
            }
            Expr::Ref(r) => {
                let declared = self.symbols.contains_key(&r.name);
                if !declared {
                    if let Some(intr) = Intrinsic::from_name(&r.name) {
                        // Intrinsic reference: subscripts become arguments.
                        let mut args = Vec::new();
                        for s in &r.subs {
                            match s {
                                Subscript::Index(a) => args.push(self.rewrite_expr(a)?),
                                Subscript::Triplet { .. } => {
                                    // Section argument, e.g. SUM(A(1:N)) —
                                    // represent as a Ref arg with the section.
                                    return Err(LangError::sema(
                                        format!(
                                            "section arguments to {} must be whole arrays in \
                                             this subset",
                                            intr.name()
                                        ),
                                        r.span,
                                    ));
                                }
                            }
                        }
                        return Ok(Expr::Intrinsic {
                            name: intr,
                            args,
                            span: r.span,
                        });
                    }
                    if r.subs.is_empty() {
                        // Implicitly typed scalar (e.g. forall dummies used
                        // in expressions).
                        self.ensure_scalar(&r.name);
                    } else {
                        return Err(LangError::sema(
                            format!("reference to undeclared array or function `{}`", r.name),
                            r.span,
                        ));
                    }
                }
                Expr::Ref(self.rewrite_lhs(r)?)
            }
            Expr::Intrinsic { name, args, span } => Expr::Intrinsic {
                name: *name,
                args: args
                    .iter()
                    .map(|a| self.rewrite_expr(a))
                    .collect::<LangResult<Vec<_>>>()?,
                span: *span,
            },
            Expr::Unary { op, operand, span } => Expr::Unary {
                op: *op,
                operand: Box::new(self.rewrite_expr(operand)?),
                span: *span,
            },
            Expr::Binary { op, lhs, rhs, span } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.rewrite_expr(lhs)?),
                rhs: Box::new(self.rewrite_expr(rhs)?),
                span: *span,
            },
        })
    }

    fn ensure_variable(&mut self, r: &DataRef) -> LangResult<()> {
        match self.symbols.get(&r.name).map(|s| &s.kind) {
            Some(SymbolKind::Parameter { .. }) => Err(LangError::sema(
                format!("cannot assign to PARAMETER `{}`", r.name),
                r.span,
            )),
            Some(SymbolKind::Template { .. }) | Some(SymbolKind::Processors { .. }) => {
                Err(LangError::sema(
                    format!("cannot assign to mapping object `{}`", r.name),
                    r.span,
                ))
            }
            Some(_) => Ok(()),
            None if r.subs.is_empty() => {
                self.ensure_scalar(&r.name);
                Ok(())
            }
            None => Err(LangError::sema(
                format!("assignment to undeclared array `{}`", r.name),
                r.span,
            )),
        }
    }

    fn ensure_scalar(&mut self, name: &str) {
        if !self.symbols.contains_key(name) {
            self.symbols.insert(
                name.to_string(),
                Symbol {
                    name: name.to_string(),
                    ty: implicit_type(name),
                    kind: SymbolKind::Scalar,
                    span: Span::SYNTHETIC,
                },
            );
        }
    }
}

/// Whether a decl came from an untyped F77 `PARAMETER (..)` statement.
/// (The parser marks those by using the Integer placeholder type with
/// `parameter = true` and no `dimension`; we detect "untyped" by checking
/// that no sibling entity carries dims and the decl-level type would be the
/// placeholder. A dedicated flag would be cleaner; this keeps the AST lean.)
fn decl_is_untyped(decl: &Decl) -> bool {
    decl.parameter
        && decl.type_spec == TypeSpec::Integer
        && decl.dimension.is_none()
        && decl
            .entities
            .iter()
            .all(|e| e.dims.is_none() && e.init.is_some())
}

/// Evaluate a constant expression against a symbol table.
pub fn const_eval_in(
    e: &Expr,
    symbols: &SymbolTable,
    overrides: &BTreeMap<String, i64>,
) -> LangResult<Value> {
    use Value::*;
    let err = |m: &str, s: Span| Err(LangError::sema(m.to_string(), s));
    match e {
        Expr::IntLit(v, _) => Ok(Int(*v)),
        Expr::RealLit(v, _) => Ok(Real(*v)),
        Expr::LogicalLit(v, _) => Ok(Logical(*v)),
        Expr::StrLit(s, _) => Ok(Str(s.clone())),
        Expr::Ref(r) => {
            if !r.subs.is_empty() {
                return err("array reference is not constant", r.span);
            }
            if let Some(ov) = overrides.get(&r.name) {
                return Ok(Int(*ov));
            }
            match symbols.get(&r.name).map(|s| &s.kind) {
                Some(SymbolKind::Parameter { value }) => Ok(value.clone()),
                _ => err(&format!("`{}` is not a constant", r.name), r.span),
            }
        }
        Expr::Intrinsic { name, args, span } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| const_eval_in(a, symbols, overrides))
                .collect::<LangResult<_>>()?;
            crate::value_ops::apply_intrinsic_scalar(*name, &vals)
                .ok_or_else(|| LangError::sema("intrinsic is not constant-foldable here", *span))
        }
        Expr::Unary { op, operand, span } => {
            let v = const_eval_in(operand, symbols, overrides)?;
            crate::value_ops::apply_unary(*op, &v)
                .ok_or_else(|| LangError::sema("bad operand for unary operator", *span))
        }
        Expr::Binary { op, lhs, rhs, span } => {
            let l = const_eval_in(lhs, symbols, overrides)?;
            let r = const_eval_in(rhs, symbols, overrides)?;
            crate::value_ops::apply_binary(*op, &l, &r)
                .ok_or_else(|| LangError::sema("bad operands for binary operator", *span))
        }
    }
}

/// Identify critical variables (non-constant names occurring in loop bounds,
/// forall triplets, and branch conditions) and try to resolve each by
/// definition tracing: a unique prior top-level assignment `v = <const>`.
fn trace_critical_variables(
    program: &Program,
    symbols: &SymbolTable,
) -> (BTreeMap<String, i64>, Vec<String>) {
    let mut critical: Vec<String> = Vec::new();

    fn names_in(e: &Expr, out: &mut Vec<String>, symbols: &SymbolTable) {
        match e {
            Expr::Ref(r) => {
                if r.subs.is_empty()
                    && !matches!(
                        symbols.get(&r.name).map(|s| &s.kind),
                        Some(SymbolKind::Parameter { .. })
                    )
                    && !out.contains(&r.name)
                {
                    out.push(r.name.clone());
                }
                for s in &r.subs {
                    match s {
                        Subscript::Index(e) => names_in(e, out, symbols),
                        Subscript::Triplet { lo, hi, stride } => {
                            for p in [lo, hi, stride].into_iter().flatten() {
                                names_in(p, out, symbols);
                            }
                        }
                    }
                }
            }
            Expr::Intrinsic { args, .. } => {
                for a in args {
                    names_in(a, out, symbols);
                }
            }
            Expr::Unary { operand, .. } => names_in(operand, out, symbols),
            Expr::Binary { lhs, rhs, .. } => {
                names_in(lhs, out, symbols);
                names_in(rhs, out, symbols);
            }
            _ => {}
        }
    }

    fn walk(stmts: &[Stmt], critical: &mut Vec<String>, symbols: &SymbolTable) {
        for st in stmts {
            match st {
                Stmt::Do {
                    lo,
                    hi,
                    step,
                    body,
                    var,
                    ..
                } => {
                    for e in [Some(lo), Some(hi), step.as_ref()].into_iter().flatten() {
                        names_in(e, critical, symbols);
                    }
                    critical.retain(|c| c != var);
                    walk(body, critical, symbols);
                }
                Stmt::DoWhile { cond, body, .. } => {
                    names_in(cond, critical, symbols);
                    walk(body, critical, symbols);
                }
                Stmt::Forall { header, body, .. } => {
                    for t in &header.triplets {
                        names_in(&t.lo, critical, symbols);
                        names_in(&t.hi, critical, symbols);
                        if let Some(s) = &t.stride {
                            names_in(s, critical, symbols);
                        }
                    }
                    // forall dummies are not critical
                    for t in &header.triplets {
                        critical.retain(|c| c != &t.var);
                    }
                    walk(body, critical, symbols);
                }
                Stmt::If {
                    arms, else_body, ..
                } => {
                    for (_, b) in arms {
                        walk(b, critical, symbols);
                    }
                    walk(else_body, critical, symbols);
                }
                Stmt::Where {
                    body, elsewhere, ..
                } => {
                    walk(body, critical, symbols);
                    walk(elsewhere, critical, symbols);
                }
                _ => {}
            }
        }
    }
    walk(&program.body, &mut critical, symbols);

    // Definition tracing: look for top-level `v = <const-expr>` assignments
    // preceding any loop, as the paper's abstraction parse does.
    let mut resolved = BTreeMap::new();
    let mut unresolved = Vec::new();
    'outer: for name in critical {
        for st in &program.body {
            if let Stmt::Assign { lhs, rhs, .. } = st {
                if lhs.name == name && lhs.subs.is_empty() {
                    if let Ok(v) = const_eval_in(rhs, symbols, &BTreeMap::new()) {
                        if let Some(i) = v.as_i64() {
                            resolved.insert(name.clone(), i);
                            continue 'outer;
                        }
                    }
                }
            }
        }
        unresolved.push(name);
    }
    (resolved, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn analyze_src(src: &str) -> AnalyzedProgram {
        analyze(&parse_program(src).unwrap(), &BTreeMap::new()).unwrap()
    }

    #[test]
    fn parameters_resolve_shapes() {
        let a =
            analyze_src("PROGRAM T\nINTEGER, PARAMETER :: N = 8\nREAL A(N, 2*N)\nA = 0.0\nEND\n");
        let sym = a.symbol("A").unwrap();
        assert_eq!(sym.shape().unwrap(), &[(1, 8), (1, 16)]);
        assert_eq!(sym.elem_count(), Some(128));
    }

    #[test]
    fn overrides_change_shapes() {
        let p = parse_program("PROGRAM T\nINTEGER, PARAMETER :: N = 8\nREAL A(N)\nA = 0.0\nEND\n")
            .unwrap();
        let mut ov = BTreeMap::new();
        ov.insert("N".to_string(), 256i64);
        let a = analyze(&p, &ov).unwrap();
        assert_eq!(a.symbol("A").unwrap().shape().unwrap(), &[(1, 256)]);
    }

    #[test]
    fn intrinsics_are_resolved() {
        let a = analyze_src("PROGRAM T\nREAL A(8), S\nS = SUM(A)\nEND\n");
        match &a.program.body[0] {
            Stmt::Assign {
                rhs: Expr::Intrinsic { name, args, .. },
                ..
            } => {
                assert_eq!(*name, Intrinsic::Sum);
                assert_eq!(args.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn undeclared_array_is_error() {
        let p = parse_program("PROGRAM T\nREAL S\nS = NOSUCH(3)\nEND\n").unwrap();
        assert!(analyze(&p, &BTreeMap::new()).is_err());
    }

    #[test]
    fn assign_to_parameter_is_error() {
        let p = parse_program("PROGRAM T\nINTEGER, PARAMETER :: N = 8\nN = 9\nEND\n").unwrap();
        assert!(analyze(&p, &BTreeMap::new()).is_err());
    }

    #[test]
    fn duplicate_decl_is_error() {
        let p = parse_program("PROGRAM T\nREAL A(8)\nREAL A(9)\nA = 0.0\nEND\n").unwrap();
        assert!(analyze(&p, &BTreeMap::new()).is_err());
    }

    #[test]
    fn directive_validation() {
        // rank mismatch in DISTRIBUTE
        let p = parse_program(
            "PROGRAM T\nREAL A(8,8)\n!HPF$ TEMPLATE TT(8,8)\n!HPF$ DISTRIBUTE TT(BLOCK) ONTO P\nA = 0.0\nEND\n",
        )
        .unwrap();
        assert!(analyze(&p, &BTreeMap::new()).is_err());
    }

    #[test]
    fn processors_symbol() {
        let a = analyze_src("PROGRAM T\nREAL A(8)\n!HPF$ PROCESSORS P(2,4)\nA = 0.0\nEND\n");
        match &a.symbol("P").unwrap().kind {
            SymbolKind::Processors { shape } => assert_eq!(shape, &vec![2, 4]),
            _ => panic!(),
        }
    }

    #[test]
    fn critical_variable_traced() {
        let a = analyze_src(
            "PROGRAM T\nINTEGER M\nREAL A(64)\nM = 32\nDO I = 1, M\nA(I) = 1.0\nEND DO\nEND\n",
        );
        assert_eq!(a.resolved_critical.get("M"), Some(&32));
        assert!(a.unresolved_critical.is_empty());
    }

    #[test]
    fn unresolvable_critical_reported() {
        let a = analyze_src(
            "PROGRAM T\nINTEGER M\nREAL A(64), S\nS = SUM(A)\nM = INT(S)\nDO I = 1, M\nA(I) = 1.0\nEND DO\nEND\n",
        );
        assert!(a.unresolved_critical.contains(&"M".to_string()));
    }

    #[test]
    fn implicit_typing_rule() {
        assert_eq!(implicit_type("I"), TypeSpec::Integer);
        assert_eq!(implicit_type("N2"), TypeSpec::Integer);
        assert_eq!(implicit_type("X"), TypeSpec::Real);
        assert_eq!(implicit_type("ALPHA"), TypeSpec::Real);
    }

    #[test]
    fn f77_parameter_gets_implicit_type() {
        let a = analyze_src("PROGRAM T\nPARAMETER (N = 100, X = 2.5)\nREAL A(N)\nA = X\nEND\n");
        assert_eq!(a.symbol("N").unwrap().ty, TypeSpec::Integer);
        assert_eq!(a.symbol("X").unwrap().ty, TypeSpec::Real);
        match &a.symbol("X").unwrap().kind {
            SymbolKind::Parameter { value } => assert_eq!(value, &Value::Real(2.5)),
            _ => panic!(),
        }
    }

    #[test]
    fn const_eval_arithmetic() {
        let a = analyze_src(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 4\nINTEGER, PARAMETER :: M = N*N+2\nREAL A(M)\nA = 0.0\nEND\n",
        );
        match &a.symbol("M").unwrap().kind {
            SymbolKind::Parameter { value } => assert_eq!(value, &Value::Int(18)),
            _ => panic!(),
        }
    }
}
