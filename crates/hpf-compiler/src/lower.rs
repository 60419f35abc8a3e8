//! Lowering: sequentialization and communication detection (§4.1 steps 3-5).
//!
//! Walks the normalized AST and emits the loosely synchronous SPMD program:
//! each forall becomes (collective-communication level, local-computation
//! level[, collective write-back level]) exactly as Figure 2 of the paper
//! shows; reductions become partial-computation + global-combine phases;
//! scalar code becomes replicated `Seq` blocks.

use crate::dist::{count_owned_steps, triplet_count, ArrayDist, DistributionTable};
use crate::normalize::{normalize, NormalizeError};
use crate::ops::{count_assign, count_expr, is_dummy, OpCounts};
use crate::spmd::{CommPhase, CompPhase, CompileWarning, SeqBlock, SpmdNode, SpmdProgram};
use hpf_lang::ast::*;
use hpf_lang::sema::{const_eval_in, AnalyzedProgram};
use hpf_lang::Span;
use machine::CollectiveOp;
use std::collections::BTreeMap;

/// Options steering compilation and the static heuristics (the knobs the
/// paper exposes to the user: critical-variable values, optimization
/// toggles, machine size).
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Physical node count (overrides the PROCESSORS total when different).
    pub nodes: usize,
    /// Static mask-density heuristic for masked foralls (the predictor's
    /// guess when no profile exists; ground truth comes from execution).
    pub mask_density_hint: f64,
    /// Trip-count guess for DO WHILE loops the tracer cannot resolve.
    pub while_trips_hint: u64,
    /// Branch-probability heuristic for IF arms.
    pub branch_prob_hint: f64,
    /// User-supplied critical-variable values (§4.2: "allowing the user to
    /// explicitly specify their values").
    pub critical_values: BTreeMap<String, i64>,
    /// Compiler optimization toggle: reorder generated loops for stride-1
    /// inner access where legal (§4.2 "loop re-ordering etc.").
    pub loop_reorder: bool,
    /// Exact processor-grid extents, replacing the PROCESSORS arrangement
    /// verbatim (no grid reshaping). Used when re-binding the machine-size
    /// critical variable on a compile-once artifact: the caller supplies
    /// the grid the equivalent regenerated source would declare.
    pub grid_extents: Option<Vec<i64>>,
    /// Parallel I/O configuration (stripe factor, I/O-server count) applied
    /// to READ/WRITE/CHECKPOINT statements. The default leaves both on the
    /// machine's own table, so programs without I/O statements compile
    /// identically to builds that predate the I/O subsystem.
    pub io: hpf_io::IoConfig,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            nodes: 8,
            mask_density_hint: 1.0,
            while_trips_hint: 16,
            branch_prob_hint: 0.5,
            critical_values: BTreeMap::new(),
            loop_reorder: false,
            grid_extents: None,
            io: hpf_io::IoConfig::default(),
        }
    }
}

/// Compilation error.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    pub message: String,
    pub span: Span,
    /// When the failure came from parallel-I/O validation, the typed cause.
    /// Pipeline consumers route these to the `io` stage instead of
    /// `compile`, so services and CLIs can answer with I/O-specific
    /// diagnostics.
    pub io: Option<hpf_io::IoError>,
}

impl CompileError {
    /// Wrap a typed I/O subsystem error at `span`.
    pub fn from_io(err: hpf_io::IoError, span: Span) -> CompileError {
        CompileError {
            message: err.to_string(),
            span,
            io: Some(err),
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for CompileError {}

type CResult<T> = Result<T, CompileError>;

fn cerr<T>(message: impl Into<String>, span: Span) -> CResult<T> {
    Err(CompileError {
        message: message.into(),
        span,
        io: None,
    })
}

impl From<NormalizeError> for CompileError {
    fn from(e: NormalizeError) -> Self {
        CompileError {
            message: e.message,
            span: e.span,
            io: None,
        }
    }
}

/// Compile an analyzed program to the SPMD IR: normalize the body, then
/// run the back half ([`compile_normalized`]) over the program's own
/// directives.
pub fn compile(analyzed: &AnalyzedProgram, opts: &CompileOptions) -> CResult<SpmdProgram> {
    let _span = hpf_trace::span("compile");
    let normalized = normalize(analyzed)?;
    compile_normalized(analyzed, &normalized, &analyzed.program.directives, opts)
}

/// The back half of [`compile`]: partition onto `directives` and lower
/// `normalized`, the [`normalize`]d body of `analyzed`. Normalization reads
/// no directive, so a directive search normalizes once and runs this once
/// per candidate list, which `hpf_lang::check_directives` has checked.
/// `directives` is any cloneable iterator of borrowed directives (see
/// [`partition_onto`](crate::dist::partition_onto)).
pub fn compile_normalized<'d, D>(
    analyzed: &AnalyzedProgram,
    normalized: &[Stmt],
    directives: D,
    opts: &CompileOptions,
) -> CResult<SpmdProgram>
where
    D: IntoIterator<Item = &'d Directive> + Clone,
{
    let dist = {
        let _s = hpf_trace::span("partition");
        crate::dist::partition_onto(
            analyzed,
            directives,
            Some(opts.nodes),
            opts.grid_extents.as_deref(),
        )
        .map_err(|e| CompileError {
            message: e.message,
            span: e.span,
            io: None,
        })?
    };

    let _lower_span = hpf_trace::span("lower");
    let mut lw = Lower::new(analyzed, &dist, opts);
    let mut body = Vec::new();
    for st in normalized {
        lw.stmt(st, &mut body)?;
    }
    let warnings = lw.warnings;

    Ok(SpmdProgram {
        name: analyzed.program.name.clone(),
        nodes: opts.nodes,
        grid: dist.grid.clone(),
        dist,
        body,
        warnings,
    })
}

struct Lower<'a> {
    analyzed: &'a AnalyzedProgram,
    dist: &'a DistributionTable,
    opts: &'a CompileOptions,
    /// The one environment every bound resolves in, besides PARAMETERs:
    /// traced critical variables, then the user-supplied critical values
    /// over them, then each enclosing DO and DO WHILE variable bound to a
    /// representative (midpoint) value so that dependent bounds (triangular
    /// loops) still resolve statically — except that a user-supplied value
    /// of the same name wins over a loop binding too.
    env: BTreeMap<String, i64>,
    /// The largest declared array extent — the worst-case trip count for a
    /// loop whose bound depends on an unresolvable critical variable (every
    /// loop in the modelled programs iterates over some declared array).
    worst_case_extent: i64,
    /// Graceful-degradation diagnostics (attached to the SpmdProgram).
    warnings: Vec<CompileWarning>,
}

impl<'a> Lower<'a> {
    fn new(
        analyzed: &'a AnalyzedProgram,
        dist: &'a DistributionTable,
        opts: &'a CompileOptions,
    ) -> Self {
        let mut env = analyzed.resolved_critical.clone();
        env.extend(opts.critical_values.iter().map(|(k, v)| (k.clone(), *v)));
        let worst_case_extent = analyzed
            .symbols
            .values()
            .filter_map(|s| s.shape())
            .flat_map(|dims| dims.iter().map(|&(lo, hi)| hi - lo + 1))
            .max()
            .unwrap_or(opts.while_trips_hint as i64)
            .max(1);
        Lower {
            analyzed,
            dist,
            opts,
            env,
            worst_case_extent,
            warnings: Vec::new(),
        }
    }

    /// Constant-evaluate an expression using parameters and the
    /// environment (traced and user-specified critical values, loop
    /// midpoints).
    fn eval_i64(&self, e: &Expr) -> CResult<i64> {
        match const_eval_in(e, &self.analyzed.symbols, &self.env) {
            Ok(v) => v.as_i64().ok_or_else(|| CompileError {
                message: "bound did not evaluate to an integer".into(),
                span: e.span(),
                io: None,
            }),
            Err(err) => cerr(
                format!(
                    "cannot statically resolve `{}` ({}); supply the critical variable's value",
                    hpf_lang::pretty_expr(e),
                    err.message
                ),
                e.span(),
            ),
        }
    }

    /// Bind loop variable `var` to `value` for the bounds nested in the
    /// loop, unless a user-supplied critical value names it. Returns what
    /// [`unbind`](Self::unbind) restores: `None` when the user's value
    /// kept the name, else the value the binding displaced.
    fn bind(&mut self, var: &str, value: i64) -> Option<Option<i64>> {
        if self.opts.critical_values.contains_key(var) {
            return None;
        }
        Some(match self.env.get_mut(var) {
            Some(v) => Some(std::mem::replace(v, value)),
            None => {
                self.env.insert(var.to_string(), value);
                None
            }
        })
    }

    fn unbind(&mut self, var: &str, saved: Option<Option<i64>>) {
        match saved {
            Some(Some(v)) => {
                if let Some(slot) = self.env.get_mut(var) {
                    *slot = v;
                }
            }
            Some(None) => {
                self.env.remove(var);
            }
            None => {}
        }
    }

    /// Graceful degradation for loop/forall bounds (§4.2's critical
    /// variables): when a bound cannot be resolved statically, fall back to
    /// `default` — a worst-case value — and record a warning instead of
    /// rejecting the program. The prediction becomes a bound, not an exact
    /// estimate, which is the honest answer when the trip count is unknown.
    fn eval_bound(&mut self, e: &Expr, default: i64) -> i64 {
        match self.eval_i64(e) {
            Ok(v) => v,
            Err(err) => {
                self.warnings.push(CompileWarning {
                    message: format!("{}; assuming worst-case bound {default}", err.message),
                    span: e.span(),
                });
                default
            }
        }
    }

    fn stmt(&mut self, st: &Stmt, out: &mut Vec<SpmdNode>) -> CResult<()> {
        match st {
            Stmt::Forall { header, body, span } => self.lower_forall(header, body, *span, out),
            Stmt::Assign { lhs, rhs, span } => self.lower_scalar_assign(lhs, rhs, *span, out),
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                span,
            } => {
                let lo_v = self.eval_bound(lo, 1);
                let hi_v = self.eval_bound(hi, self.worst_case_extent);
                let st_v = match step {
                    Some(s) => self.eval_bound(s, 1),
                    None => 1,
                };
                if st_v == 0 {
                    return cerr("DO step of zero", *span);
                }
                let trips = triplet_count(lo_v, hi_v, st_v);
                // Bind the loop variable to its midpoint for nested bounds.
                let mid = lo_v + ((hi_v - lo_v) / 2 / st_v.max(1)) * st_v.max(1);
                let saved = self.bind(var, mid);
                let mut inner = Vec::new();
                for s in body {
                    self.stmt(s, &mut inner)?;
                }
                self.unbind(var, saved);
                out.push(SpmdNode::Loop {
                    var: var.clone(),
                    trips,
                    estimated: false,
                    body: inner,
                    span: *span,
                });
                Ok(())
            }
            Stmt::DoWhile { cond, body, span } => {
                // Induction-variable recognition: `DO WHILE (v > c)` with a
                // body step `v = v / k` is a geometric loop with a statically
                // known trip count (the LFK-2 ICCG level loop). The induction
                // variable is bound to its geometric mean for dependent
                // bounds — still a heuristic, so recursive-halving kernels
                // keep a deliberate residual error.
                let induction = self.recognize_geometric(cond, body);
                let (trips, estimated) = match induction {
                    Some((_, trips, _)) => (trips, false),
                    None => (self.opts.while_trips_hint, true),
                };
                let saved = induction.map(|(var, _, geo_mid)| (var, self.bind(var, geo_mid)));

                let mut inner = Vec::new();
                // Charge the condition evaluation per trip as a Seq block.
                let cond_ops = count_expr(cond, self.analyzed, &[]);
                inner.push(SpmdNode::Seq(SeqBlock {
                    label: "while-test".into(),
                    span: *span,
                    ops: cond_ops,
                }));
                for s in body {
                    self.stmt(s, &mut inner)?;
                }
                if let Some((var, saved)) = saved {
                    self.unbind(var, saved);
                }
                out.push(SpmdNode::Loop {
                    var: "<while>".into(),
                    trips,
                    estimated,
                    body: inner,
                    span: *span,
                });
                Ok(())
            }
            Stmt::If {
                arms,
                else_body,
                span,
            } => {
                let mut spmd_arms = Vec::new();
                for (cond, body) in arms {
                    let mut inner = Vec::new();
                    let cond_ops = count_expr(cond, self.analyzed, &[]);
                    inner.push(SpmdNode::Seq(SeqBlock {
                        label: "if-test".into(),
                        span: cond.span(),
                        ops: cond_ops,
                    }));
                    for s in body {
                        self.stmt(s, &mut inner)?;
                    }
                    spmd_arms.push((self.opts.branch_prob_hint, inner));
                }
                let mut els = Vec::new();
                for s in else_body {
                    self.stmt(s, &mut els)?;
                }
                out.push(SpmdNode::Branch {
                    arms: spmd_arms,
                    else_body: els,
                    span: *span,
                });
                Ok(())
            }
            Stmt::Print { items, span } => {
                let mut ops = OpCounts::zero();
                for e in items {
                    ops += count_expr(e, self.analyzed, &[]);
                }
                ops.calls += 1.0; // I/O library call
                out.push(SpmdNode::Seq(SeqBlock {
                    label: "print".into(),
                    span: *span,
                    ops,
                }));
                Ok(())
            }
            Stmt::Stop { .. } => Ok(()),
            Stmt::Io { kind, arrays, span } => self.lower_io(*kind, arrays, *span, out),
            Stmt::Where { span, .. } => cerr("WHERE should have been normalized away", *span),
            Stmt::Call { name, span, .. } => cerr(
                format!("CALL `{name}`: user procedures are outside the subset"),
                *span,
            ),
        }
    }

    /// Lower a READ/WRITE/CHECKPOINT statement to a single parallel-I/O
    /// phase. Each named array must be distributed (parallel I/O moves the
    /// partitioned sections; replicated data goes through the host's normal
    /// sequential path and is outside the model). A bare CHECKPOINT snapshots
    /// every distributed array in the program.
    fn lower_io(
        &mut self,
        kind: IoStmtKind,
        arrays: &[String],
        span: Span,
        out: &mut Vec<SpmdNode>,
    ) -> CResult<()> {
        let io_kind = match kind {
            IoStmtKind::Read => hpf_io::IoKind::Read,
            IoStmtKind::Write => hpf_io::IoKind::Write,
            IoStmtKind::Checkpoint => hpf_io::IoKind::Checkpoint,
        };

        let names: Vec<String> = if arrays.is_empty() {
            // Bare CHECKPOINT: all distributed arrays, in deterministic
            // (BTreeMap) order.
            self.dist
                .arrays
                .iter()
                .filter(|(_, ad)| !ad.replicated)
                .map(|(n, _)| n.clone())
                .collect()
        } else {
            arrays.to_vec()
        };
        if names.is_empty() {
            return Err(CompileError::from_io(
                hpf_io::IoError::UnpartitionedArray {
                    array: "<none>".into(),
                },
                span,
            ));
        }

        let nodes = self.dist.grid.total();
        let mut total_bytes = 0u64;
        let mut per_node = vec![0u64; nodes];
        for name in &names {
            let ad = match self.dist.get(name) {
                Some(ad) if !ad.replicated => ad,
                Some(_) => {
                    return Err(CompileError::from_io(
                        hpf_io::IoError::UnpartitionedArray {
                            array: name.clone(),
                        },
                        span,
                    ))
                }
                None => {
                    let err = if self.analyzed.symbols.contains_key(name) {
                        hpf_io::IoError::UnpartitionedArray {
                            array: name.clone(),
                        }
                    } else {
                        hpf_io::IoError::UnknownArray {
                            array: name.clone(),
                        }
                    };
                    return Err(CompileError::from_io(err, span));
                }
            };
            total_bytes += ad.elems() * ad.elem_bytes;
            for (n, acc) in per_node.iter_mut().enumerate() {
                *acc += ad.local_elems(|p| self.dist.grid.coord(n, p)) * ad.elem_bytes;
            }
        }

        let (servers, stripe_factor) = self
            .opts
            .io
            .resolve(self.opts.nodes)
            .map_err(|e| CompileError::from_io(e, span))?;

        out.push(SpmdNode::Io {
            phase: hpf_io::IoPhase {
                kind: io_kind,
                arrays: names,
                total_bytes,
                bytes_per_node: per_node.iter().copied().max().unwrap_or(0),
                participants: nodes,
                servers,
                stripe_factor,
            },
            span,
        });
        Ok(())
    }

    /// Recognize `DO WHILE (v > c)` / `DO WHILE (v >= c)` with a body step
    /// `v = v / k` (k ≥ 2) and a statically known initial `v`: returns
    /// (variable, exact trip count, geometric-mean value of `v`).
    fn recognize_geometric<'e>(
        &self,
        cond: &'e Expr,
        body: &[Stmt],
    ) -> Option<(&'e str, u64, i64)> {
        let (var, limit, strict) = match cond {
            Expr::Binary { op, lhs, rhs, .. } => {
                let v = match lhs.as_ref() {
                    Expr::Ref(r) if r.subs.is_empty() => r.name.as_str(),
                    _ => return None,
                };
                let c = self.eval_i64(rhs).ok()?;
                match op {
                    BinOp::Gt => (v, c, true),
                    BinOp::Ge => (v, c, false),
                    _ => return None,
                }
            }
            _ => return None,
        };
        // Find the division step.
        let mut k = None;
        for st in body {
            if let Stmt::Assign { lhs, rhs, .. } = st {
                if lhs.name == var && lhs.subs.is_empty() {
                    if let Expr::Binary {
                        op: BinOp::Div,
                        lhs: l,
                        rhs: r,
                        ..
                    } = rhs
                    {
                        if matches!(l.as_ref(), Expr::Ref(rr) if rr.name == var && rr.subs.is_empty())
                        {
                            if let Expr::IntLit(kk, _) = r.as_ref() {
                                if *kk >= 2 {
                                    k = Some(*kk);
                                }
                            }
                        }
                    }
                }
            }
        }
        let k = k?;
        let init = self.eval_i64(&Expr::var(var)).ok()?;
        let mut v = init;
        let mut trips = 0u64;
        let mut post_sum = 0i64;
        while (strict && v > limit) || (!strict && v >= limit) {
            v /= k;
            post_sum += v;
            trips += 1;
            if trips > 64 {
                return None; // not a plausible geometric loop
            }
        }
        if trips == 0 {
            return None;
        }
        // Work-preserving representative: the mean of the post-step values
        // (dependent loop bounds are linear in the induction variable, so
        // trips × mean reproduces the total iteration count).
        let mean = (post_sum as f64 / trips as f64).round() as i64;
        Some((var, trips, mean.max(1)))
    }

    // ---- scalar assignments (incl. reductions) ---------------------------

    fn lower_scalar_assign(
        &mut self,
        lhs: &DataRef,
        rhs: &Expr,
        span: Span,
        out: &mut Vec<SpmdNode>,
    ) -> CResult<()> {
        // Detect a top-level reduction structure: the RHS contains one or
        // more transformational reductions over distributed arrays.
        let mut reductions = Vec::new();
        collect_reductions(rhs, &mut reductions);
        if reductions.is_empty() {
            let ops = count_assign(lhs, rhs, self.analyzed, &[]);
            out.push(SpmdNode::Seq(SeqBlock {
                label: format!("{} = …", lhs.name),
                span,
                ops,
            }));
            return Ok(());
        }

        for (intr, args, rspan) in reductions {
            let arr = match args.first() {
                Some(Expr::Ref(r)) if r.subs.is_empty() => r.name.clone(),
                _ => return cerr("reduction argument must be a whole array", rspan),
            };
            let ad = self.dist.get(&arr).ok_or_else(|| CompileError {
                message: format!("no distribution for `{arr}`"),
                span: rspan,
                io: None,
            })?;
            let elem_bytes = ad.elem_bytes;

            // Partial-reduction computation phase over locally owned elems.
            let nodes = self.dist.grid.total();
            let per_node: Vec<u64> = (0..nodes)
                .map(|n| ad.local_elems(|p| self.dist.grid.coord(n, p)))
                .collect();
            let total: u64 = if ad.replicated {
                ad.elems()
            } else {
                per_node.iter().sum()
            };
            let mut per_iter = OpCounts {
                loads: 1.0,
                ..OpCounts::zero()
            };
            per_iter.index += 1.0;
            let (op, label) = match intr {
                Intrinsic::Sum => {
                    per_iter.fadd += 1.0;
                    (CollectiveOp::Reduce, "global sum")
                }
                Intrinsic::Product => {
                    per_iter.fmul += 1.0;
                    (CollectiveOp::Reduce, "global product")
                }
                Intrinsic::MaxVal | Intrinsic::MinVal => {
                    per_iter.cmp += 1.0;
                    (CollectiveOp::Reduce, "global max/min")
                }
                Intrinsic::MaxLoc | Intrinsic::MinLoc => {
                    per_iter.cmp += 1.0;
                    per_iter.int_ops += 1.0;
                    (CollectiveOp::ReduceLoc, "maxloc")
                }
                Intrinsic::DotProduct => {
                    per_iter.loads += 1.0;
                    per_iter.index += 1.0;
                    per_iter.fadd += 1.0;
                    per_iter.fmul += 1.0;
                    (CollectiveOp::Reduce, "dot product")
                }
                other => {
                    return cerr(
                        format!("{} is not a supported reduction", other.name()),
                        rspan,
                    )
                }
            };
            let ws = per_node
                .iter()
                .max()
                .map_or(0, |m| m.saturating_mul(elem_bytes));
            out.push(SpmdNode::Comp(CompPhase {
                label: format!("partial {label} over {arr}"),
                span: rspan,
                total_iters: total,
                per_node_iters: per_node,
                per_iter,
                masked_ops: None,
                mask_density_hint: None,
                loop_depth: 1,
                working_set_bytes: ws,
                locality: 1.0,
            }));
            if !ad.replicated && nodes > 1 {
                out.push(SpmdNode::Comm(CommPhase {
                    label: format!("{label} combine"),
                    span: rspan,
                    op,
                    bytes_per_node: elem_bytes,
                    participants: nodes,
                    contiguous: true,
                    shift_grid_dim: None,
                    arrays: vec![arr],
                }));
            }
        }

        // Residual scalar work combining the reduction results.
        let mut ops = OpCounts {
            stores: 1.0,
            ..OpCounts::zero()
        };
        ops += count_residual(rhs, self.analyzed);
        out.push(SpmdNode::Seq(SeqBlock {
            label: format!("{} = …", lhs.name),
            span,
            ops,
        }));
        Ok(())
    }

    // ---- forall -----------------------------------------------------------

    fn lower_forall(
        &mut self,
        header: &ForallHeader,
        body: &[Stmt],
        span: Span,
        out: &mut Vec<SpmdNode>,
    ) -> CResult<()> {
        // Resolve the index space.
        let mut trips = Vec::with_capacity(header.triplets.len());
        for t in &header.triplets {
            let lo = self.eval_bound(&t.lo, 1);
            let hi = self.eval_bound(&t.hi, self.worst_case_extent);
            let st = match &t.stride {
                Some(s) => self.eval_bound(s, 1),
                None => 1,
            };
            if st == 0 {
                return cerr("forall stride of zero", span);
            }
            trips.push(Triplet {
                var: &t.var,
                lo,
                st,
                count: triplet_count(lo, hi, st),
            });
        }
        let dummies = header.triplets.as_slice();
        let dist = self.dist;
        let grid = &dist.grid;

        for st_body in body {
            let (lhs, rhs) = match st_body {
                Stmt::Assign { lhs, rhs, .. } => (lhs, rhs),
                Stmt::Forall {
                    header: h2,
                    body: b2,
                    span: s2,
                } => {
                    // Nested forall: lower independently (iteration-space
                    // product is approximated by scaling inside a Loop).
                    let outer: u64 = trips.iter().map(|t| t.count).product();
                    let mut inner = Vec::new();
                    self.lower_forall(h2, b2, *s2, &mut inner)?;
                    out.push(SpmdNode::Loop {
                        var: "<forall>".into(),
                        trips: outer,
                        estimated: false,
                        body: inner,
                        span: *s2,
                    });
                    continue;
                }
                other => {
                    return cerr("forall body must be assignments", other.span());
                }
            };

            let nodes = grid.total();
            let lhs_dist = dist.get(&lhs.name).ok_or_else(|| CompileError {
                message: format!("no distribution for `{}`", lhs.name),
                span: lhs.span,
                io: None,
            })?;

            // Map each triplet dummy to the LHS dimensions it indexes
            // (affine, stride ±1) — the owner-computes partitioning basis.
            let mut axes = Vec::with_capacity(lhs.subs.len());
            let mut lhs_indirect = false;
            for (d, s) in lhs.subs.iter().enumerate() {
                match s {
                    Subscript::Index(e) => match affine_in(e, dummies) {
                        Some((Some(v), a, b)) => {
                            let triplet = trips.iter().position(|t| t.var == v);
                            axes.push(Axis {
                                triplet: triplet.expect("dummies come from the triplets"),
                                dim: d,
                                a,
                                b,
                            });
                        }
                        Some((None, _, _)) => {} // constant subscript
                        None => lhs_indirect = true,
                    },
                    Subscript::Triplet { .. } => {
                        return cerr("LHS sections inside forall bodies", lhs.span)
                    }
                }
            }
            let f = Forall {
                trips: &trips,
                axes: &axes,
                lhs_dist,
                nodes,
            };

            // Per-node iteration counts (owner-computes on the LHS): a node
            // runs the values of each dummy whose LHS element it owns in
            // every distributed dimension the dummy indexes, jointly when
            // there are several (`A(I,I)`).
            let mut per_node = vec![1u64; nodes];
            let mut total: u64 = 1;
            for (ti, t) in trips.iter().enumerate() {
                total = total.saturating_mul(t.count);
                if lhs_indirect {
                    continue; // every node runs every iteration (below)
                }
                let mut owning = axes
                    .iter()
                    .filter(|x| x.triplet == ti && lhs_dist.dims[x.dim].is_distributed());
                let owned =
                    |x: &Axis, c: i64| lhs_dist.owned_steps(x.dim, c, x.a * t.lo + x.b, x.a * t.st);
                match (owning.next(), owning.clone().next()) {
                    (None, _) => {
                        for pn in per_node.iter_mut() {
                            *pn = pn.saturating_mul(t.count);
                        }
                    }
                    (Some(x), None) => {
                        // One dimension: the count depends only on the
                        // node's coordinate along that dimension's grid
                        // axis, so it is counted once per coordinate.
                        let pdim = lhs_dist.dims[x.dim].pdim().expect("distributed");
                        let by_coord: Vec<u64> = (0..grid.extents[pdim])
                            .map(|c| count_owned_steps(t.count, std::iter::once(owned(x, c))))
                            .collect();
                        for (n, pn) in per_node.iter_mut().enumerate() {
                            *pn = pn.saturating_mul(by_coord[grid.coord(n, pdim) as usize]);
                        }
                    }
                    (Some(x), Some(_)) => {
                        let joint = std::iter::once(x).chain(owning);
                        for (n, pn) in per_node.iter_mut().enumerate() {
                            let steps = joint.clone().map(|x| {
                                let pdim = lhs_dist.dims[x.dim].pdim().expect("distributed");
                                owned(x, grid.coord(n, pdim))
                            });
                            *pn = pn.saturating_mul(count_owned_steps(t.count, steps));
                        }
                    }
                }
            }
            if lhs_dist.replicated || lhs_indirect {
                // replicated LHS: every node executes everything
                per_node.fill(total);
            }

            // ---- communication detection over RHS (and mask) ----
            // Figure-2 order: the gather level goes out first, then the
            // computation level, then (when needed) the write-back level.
            let mut refs = Vec::new();
            collect_refs(rhs, &mut refs);
            if let Some(m) = &header.mask {
                collect_refs(m, &mut refs);
            }
            let first_comm = out.len();
            for r in &refs {
                if let Some(ph) = f.classify_ref(r, dist, dummies)? {
                    merge_phase(out, first_comm, ph);
                }
            }

            // ---- operation counts ----
            let assign_ops = count_assign(lhs, rhs, self.analyzed, dummies);
            let (per_iter, masked_ops, mask_hint) = match &header.mask {
                None => (assign_ops, None, None),
                Some(m) => {
                    let mut mask_ops = count_expr(m, self.analyzed, dummies);
                    mask_ops.branches += 1.0;
                    (
                        mask_ops,
                        Some(assign_ops),
                        Some(self.opts.mask_density_hint),
                    )
                }
            };

            // ---- locality model ----
            // Generated loop nest follows header order, last triplet
            // innermost. Memory stride of the inner loop = product of the
            // *local* extents of LHS dims faster-varying than the indexed
            // dim (column-major). With loop reordering the optimizer picks
            // a stride-1 ordering when some dummy indexes dim 0.
            let locality = if self.opts.loop_reorder
                && trips
                    .iter()
                    .any(|t| f.axis_of(t.var).map(|x| x.dim) == Some(0))
            {
                1.0
            } else {
                f.inner_locality()
            };

            // ---- working set: every distinct array touched ----
            let max_iters = per_node.iter().copied().max().unwrap_or(0);
            let ws: u64 = std::iter::once(lhs.name.as_str())
                .chain(
                    refs.iter()
                        .enumerate()
                        .filter(|&(i, r)| {
                            r.name != lhs.name && refs[..i].iter().all(|q| q.name != r.name)
                        })
                        .map(|(_, r)| r.name.as_str()),
                )
                .map(|a| {
                    let eb = dist.get(a).map(|d| d.elem_bytes).unwrap_or(4);
                    max_iters.saturating_mul(eb)
                })
                .fold(0, u64::saturating_add);

            out.push(SpmdNode::Comp(CompPhase {
                label: format!("forall -> {}", lhs.name),
                span,
                total_iters: total,
                per_node_iters: per_node,
                per_iter,
                masked_ops,
                mask_density_hint: mask_hint,
                loop_depth: trips.len() as u32,
                working_set_bytes: ws,
                locality,
            }));
            if lhs_indirect && !lhs_dist.replicated && nodes > 1 {
                // Scatter computed values to their owners.
                let bytes = saturating_product([max_iters, lhs_dist.elem_bytes, nodes as u64 - 1])
                    / nodes as u64;
                out.push(SpmdNode::Comm(CommPhase {
                    label: format!("scatter -> {}", lhs.name),
                    span,
                    op: CollectiveOp::Scatter,
                    bytes_per_node: bytes.max(1),
                    participants: nodes,
                    contiguous: false,
                    shift_grid_dim: None,
                    arrays: vec![lhs.name.clone()],
                }));
            }
        }
        Ok(())
    }
}

/// One resolved FORALL triplet.
struct Triplet<'h> {
    var: &'h str,
    lo: i64,
    st: i64,
    count: u64,
}

/// An LHS subscript `a·dummy + b` of the FORALL index at position
/// `triplet`, in dimension `dim`.
struct Axis {
    triplet: usize,
    dim: usize,
    a: i64,
    b: i64,
}

/// One FORALL assignment as communication detection and the locality model
/// read it: its triplets, the LHS subscripts affine in them, and the LHS
/// mapping. Indices are looked up by name, so where a name repeats in the
/// header its last triplet counts, and its last LHS dimension.
struct Forall<'f> {
    trips: &'f [Triplet<'f>],
    axes: &'f [Axis],
    lhs_dist: &'f ArrayDist,
    nodes: usize,
}

impl Forall<'_> {
    /// The LHS dimension index `var` drives (the last, when it drives
    /// several).
    fn axis_of(&self, var: &str) -> Option<&Axis> {
        self.axes
            .iter()
            .rev()
            .find(|x| self.trips[x.triplet].var == var)
    }

    /// Trip count of each distinct index name.
    fn counts(&self) -> impl Iterator<Item = (&str, u64)> + Clone {
        let trips = self.trips;
        trips
            .iter()
            .enumerate()
            .filter(move |&(i, t)| trips[i + 1..].iter().all(|u| u.var != t.var))
            .map(|(_, t)| (t.var, t.count))
    }

    fn count_of(&self, var: &str) -> Option<u64> {
        self.counts().find(|&(v, _)| v == var).map(|(_, c)| c)
    }

    /// Locality of the innermost generated loop (the last triplet): 1.0
    /// when it strides unit through local memory, decreasing as the stride
    /// (in elements) grows.
    fn inner_locality(&self) -> f64 {
        let Some(inner) = self.trips.last() else {
            return 1.0;
        };
        let Some(&Axis { dim: d, .. }) = self.axis_of(inner.var) else {
            return 0.5;
        };
        if d == 0 {
            return 1.0; // first dimension: unit stride in column-major
        }
        // Stride = product of local extents of faster dims.
        let lhs_dist = self.lhs_dist;
        let mut stride_elems: i64 = 1;
        for dd in 0..d {
            let pc = lhs_dist.dims[dd].pcount();
            stride_elems *= (lhs_dist.extent(dd) + pc - 1) / pc.max(1);
        }
        let line = 32.0; // cache line bytes (i860)
        let stride_bytes = stride_elems as f64 * lhs_dist.elem_bytes as f64;
        (line / stride_bytes).clamp(0.05, 1.0)
    }

    /// Classify one RHS array reference against the LHS home distribution,
    /// returning the communication phase it requires (None = local). A
    /// read of the LHS array itself, aligned at zero offset, is local.
    fn classify_ref(
        &self,
        r: &DataRef,
        dist: &DistributionTable,
        dummies: &[ForallTriplet],
    ) -> CResult<Option<CommPhase>> {
        if r.subs.is_empty() {
            return Ok(None); // scalar
        }
        let Some(rd) = dist.get(&r.name) else {
            return Ok(None);
        };
        if rd.replicated {
            return Ok(None);
        }
        let (lhs_dist, nodes) = (self.lhs_dist, self.nodes);
        let elem = rd.elem_bytes;

        // Max per-node iteration volume (for gather sizing).
        let total_iters = saturating_product(self.counts().map(|(_, c)| c));
        let per_node_iters = (total_iters / nodes as u64).max(1);

        let mut worst: Option<CommPhase> = None;
        let mut consider = |ph: CommPhase| {
            let rank = |op: CollectiveOp| match op {
                CollectiveOp::Shift => 1,
                CollectiveOp::Broadcast => 2,
                CollectiveOp::Gather => 3,
                CollectiveOp::AllToAll => 4,
                _ => 0,
            };
            match &worst {
                Some(w) if rank(w.op) >= rank(ph.op) => {}
                _ => worst = Some(ph),
            }
        };

        for (d, s) in r.subs.iter().enumerate() {
            let Subscript::Index(e) = s else {
                return cerr("sections inside forall bodies", r.span);
            };
            if !rd.dims[d].is_distributed() {
                continue; // this dimension is local regardless of the index
            }
            let pdim = rd.dims[d].pdim().expect("distributed");
            match affine_in(e, dummies) {
                // Which LHS dim does this dummy drive, and is it mapped to
                // the same grid dimension?
                Some((Some(v), a, b)) => match self.axis_of(v) {
                    Some(&Axis {
                        dim: ld,
                        a: la,
                        b: lb2,
                        ..
                    }) => {
                        let lhs_mapped = lhs_dist.dims.get(ld).map(|dd| dd.pdim()).unwrap_or(None);
                        if lhs_mapped == Some(pdim) && a == la {
                            // Same grid dim, same direction: offset-only.
                            // Template-space offset:
                            let (ras, rao) = rd.align[d];
                            let (las, lao) = lhs_dist.align[ld];
                            let t_off = (ras * b + rao) - (las * lb2 + lao);
                            if t_off == 0 && ras == las {
                                continue; // perfectly aligned: local
                            }
                            // Shift volume: for BLOCK, only the |off|
                            // boundary planes cross processors; for CYCLIC,
                            // *every* element's neighbor lives on another
                            // processor, so the whole local portion of the
                            // shifted dimension moves.
                            let pc_shift = lhs_dist.dims[ld].pcount() as u64;
                            let own_count = self.count_of(v).unwrap_or(1);
                            let delta = match lhs_dist.dims[ld] {
                                crate::dist::DimDist::Cyclic { k, .. } => {
                                    // δ of every k-block crosses: the local
                                    // share scaled by min(δ/k, 1).
                                    let local = own_count.div_ceil(pc_shift.max(1)).max(1);
                                    let frac_num = t_off.unsigned_abs().min(k as u64);
                                    // k >= 1 is guaranteed by partition-time
                                    // validation of the DISTRIBUTE.
                                    (local * frac_num / k as u64).max(1)
                                }
                                _ => t_off.unsigned_abs().max(1),
                            };
                            // Every other index: its local share when its
                            // LHS dimension is distributed.
                            let cross =
                                saturating_product(self.counts().filter(|&(k, _)| k != v).map(
                                    |(k, c)| match self.axis_of(k) {
                                        Some(x) if lhs_dist.dims[x.dim].is_distributed() => {
                                            let pc = lhs_dist.dims[x.dim].pcount() as u64;
                                            c.div_ceil(pc).max(1)
                                        }
                                        _ => c,
                                    },
                                ));
                            // Contiguous boundary iff the fixed dim is the
                            // last dimension (column-major hyperplane).
                            let contiguous = d == rd.rank() - 1 || rd.rank() == 1;
                            consider(CommPhase {
                                label: format!("shift {} (δ={t_off}, dim {})", r.name, d + 1),
                                span: r.span,
                                op: CollectiveOp::Shift,
                                bytes_per_node: saturating_product([delta, cross, elem]).max(1),
                                participants: nodes,
                                contiguous,
                                shift_grid_dim: Some(pdim),
                                arrays: vec![r.name.clone()],
                            });
                        } else {
                            // Transposed or cross-mapped access.
                            consider(CommPhase {
                                label: format!("remap {}", r.name),
                                span: r.span,
                                op: CollectiveOp::AllToAll,
                                bytes_per_node: per_node_iters.saturating_mul(elem),
                                participants: nodes,
                                contiguous: false,
                                shift_grid_dim: None,
                                arrays: vec![r.name.clone()],
                            });
                        }
                    }
                    None => {
                        // Dummy not partitioned on LHS: iteration runs the
                        // full range on every node, reading a distributed dim
                        // → gather of the remote part.
                        let cnt = self.count_of(v).unwrap_or(1);
                        let remote =
                            saturating_product([cnt, elem, nodes as u64 - 1]) / nodes as u64;
                        consider(CommPhase {
                            label: format!("gather {}", r.name),
                            span: r.span,
                            op: CollectiveOp::Gather,
                            bytes_per_node: remote.max(1),
                            participants: nodes,
                            contiguous: false,
                            shift_grid_dim: None,
                            arrays: vec![r.name.clone()],
                        });
                    }
                },
                Some((None, _, _)) => {
                    // Constant subscript of a distributed dim: the slice
                    // lives on one coordinate — broadcast it.
                    let counts = self.counts().map(|(_, c)| c);
                    let cross =
                        saturating_product(counts.clone()) / counts.max().unwrap_or(1).max(1);
                    consider(CommPhase {
                        label: format!("broadcast {}", r.name),
                        span: r.span,
                        op: CollectiveOp::Broadcast,
                        bytes_per_node: cross.max(1).saturating_mul(elem).max(1),
                        participants: nodes,
                        contiguous: true,
                        shift_grid_dim: None,
                        arrays: vec![r.name.clone()],
                    });
                }
                None => {
                    // Indirect (data-dependent) subscript: unstructured gather.
                    consider(CommPhase {
                        label: format!("gather {} (indirect)", r.name),
                        span: r.span,
                        op: CollectiveOp::Gather,
                        bytes_per_node: (saturating_product([
                            per_node_iters,
                            elem,
                            nodes as u64 - 1,
                        ]) / nodes as u64)
                            .max(1),
                        participants: nodes,
                        contiguous: false,
                        shift_grid_dim: None,
                        arrays: vec![r.name.clone()],
                    });
                }
            }
        }
        Ok(worst.filter(|_| nodes > 1))
    }
}

/// The product of `xs`, saturating at `u64::MAX`. Iteration and byte counts
/// saturate: a 2-D FORALL bound at N near 2^32 moves more bytes per node
/// than a u64 holds, which prices as "more than any machine holds" all the
/// same.
fn saturating_product(xs: impl IntoIterator<Item = u64>) -> u64 {
    xs.into_iter().fold(1, u64::saturating_mul)
}

/// Merge a new comm phase into the phases `out` holds from `first` on: same
/// (op, array, direction sign) phases keep the larger payload (the compiler
/// coalesces ghost exchanges).
fn merge_phase(out: &mut Vec<SpmdNode>, first: usize, ph: CommPhase) {
    for node in &mut out[first..] {
        if let SpmdNode::Comm(p) = node {
            if p.op == ph.op
                && p.arrays == ph.arrays
                && p.label == ph.label
                && p.shift_grid_dim == ph.shift_grid_dim
            {
                p.bytes_per_node = p.bytes_per_node.max(ph.bytes_per_node);
                return;
            }
        }
    }
    out.push(SpmdNode::Comm(ph));
}

/// Decompose `e` as `a*dummy + b`, naming the dummy; `Some((None, 0, c))`
/// for constants; `None` for non-affine.
fn affine_in<'e>(e: &'e Expr, dummies: &[ForallTriplet]) -> Option<(Option<&'e str>, i64, i64)> {
    match e {
        Expr::IntLit(v, _) => Some((None, 0, *v)),
        Expr::Ref(r) if r.subs.is_empty() => {
            if is_dummy(dummies, &r.name) {
                Some((Some(&r.name), 1, 0))
            } else {
                // Loop variables / scalars: treat as constant-like (affine
                // offset unknown but uniform) — classify as constant 0.
                Some((None, 0, 0))
            }
        }
        Expr::Unary {
            op: UnOp::Neg,
            operand,
            ..
        } => {
            let (v, a, b) = affine_in(operand, dummies)?;
            Some((v, -a, -b))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let l = affine_in(lhs, dummies)?;
            let r = affine_in(rhs, dummies)?;
            match op {
                BinOp::Add | BinOp::Sub => {
                    let sign = if *op == BinOp::Sub { -1 } else { 1 };
                    match (l.0, r.0) {
                        (Some(v), None) => Some((Some(v), l.1, l.2 + sign * r.2)),
                        (None, Some(v)) => Some((Some(v), sign * r.1, l.2 + sign * r.2)),
                        (None, None) => Some((None, 0, l.2 + sign * r.2)),
                        (Some(_), Some(_)) => None, // two dummies: non-affine here
                    }
                }
                BinOp::Mul => match (l.0, r.0) {
                    (Some(v), None) => Some((Some(v), l.1 * r.2, l.2 * r.2)),
                    (None, Some(v)) => Some((Some(v), r.1 * l.2, r.2 * l.2)),
                    (None, None) => Some((None, 0, l.2 * r.2)),
                    _ => None,
                },
                _ => None,
            }
        }
        _ => None,
    }
}

/// Collect all array references in an expression, each before the ones in
/// its subscripts.
fn collect_refs<'e>(e: &'e Expr, out: &mut Vec<&'e DataRef>) {
    match e {
        Expr::Ref(r) if !r.subs.is_empty() => {
            out.push(r);
            for s in &r.subs {
                if let Subscript::Index(ix) = s {
                    collect_refs(ix, out);
                }
            }
        }
        Expr::Intrinsic { args, .. } => {
            for a in args {
                collect_refs(a, out);
            }
        }
        Expr::Unary { operand, .. } => collect_refs(operand, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_refs(lhs, out);
            collect_refs(rhs, out);
        }
        _ => {}
    }
}

/// Find top-level reduction intrinsics in a scalar RHS.
fn collect_reductions<'e>(e: &'e Expr, out: &mut Vec<(Intrinsic, &'e [Expr], Span)>) {
    match e {
        Expr::Intrinsic { name, args, span } if name.is_transformational() => {
            out.push((*name, args.as_slice(), *span));
        }
        Expr::Intrinsic { args, .. } => {
            for a in args {
                collect_reductions(a, out);
            }
        }
        Expr::Unary { operand, .. } => collect_reductions(operand, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_reductions(lhs, out);
            collect_reductions(rhs, out);
        }
        _ => {}
    }
}

/// Count the scalar ops in a reduction-bearing RHS, excluding the
/// reductions themselves (they are charged in their own phases).
fn count_residual(e: &Expr, analyzed: &AnalyzedProgram) -> OpCounts {
    match e {
        Expr::Intrinsic { name, .. } if name.is_transformational() => OpCounts::zero(),
        Expr::Binary { op, lhs, rhs, .. } => {
            let mut c = count_residual(lhs, analyzed) + count_residual(rhs, analyzed);
            match op {
                BinOp::Add | BinOp::Sub => c.fadd += 1.0,
                BinOp::Mul => c.fmul += 1.0,
                BinOp::Div => c.fdiv += 1.0,
                _ => c.cmp += 1.0,
            }
            c
        }
        Expr::Unary { operand, .. } => count_residual(operand, analyzed),
        Expr::Intrinsic { args, .. } => {
            let mut c = OpCounts::zero();
            for a in args {
                c += count_residual(a, analyzed);
            }
            c.ftrans += 1.0;
            c
        }
        other => count_expr(other, analyzed, &[]),
    }
}
