//! Lowering: sequentialization and communication detection (§4.1 steps 3-5).
//!
//! Walks the normalized AST and emits the loosely synchronous SPMD program:
//! each forall becomes (collective-communication level, local-computation
//! level[, collective write-back level]) exactly as Figure 2 of the paper
//! shows; reductions become partial-computation + global-combine phases;
//! scalar code becomes replicated `Seq` blocks.
//!
//! Lowering runs in two halves. [`LowerPlan::new`] walks the normalized
//! body once and records everything no mapping directive changes; the
//! per-distribution pass ([`LowerPlan::compile`]) walks the plan under one
//! [`DistributionTable`] and computes only what the mapping decides. A
//! directive search plans once and runs the pass per candidate; [`compile`]
//! runs both halves once.

use crate::dist::{count_owned_steps, triplet_count, ArrayDist, DimDist, DistributionTable};
use crate::normalize::{normalize, NormalizeError};
use crate::ops::{count_assign, count_expr, is_dummy, OpCounts};
use crate::spmd::{CommPhase, CompPhase, CompileWarning, SeqBlock, SpmdNode, SpmdProgram};
use hpf_lang::ast::*;
use hpf_lang::sema::{const_eval_in, AnalyzedProgram};
use hpf_lang::Span;
use machine::CollectiveOp;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

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
            critical_values: BTreeMap::new(),
            loop_reorder: false,
            grid_extents: None,
            io: hpf_io::IoConfig::default(),
        }
    }
}

/// Branch-probability heuristic for IF arms.
const BRANCH_PROB_HINT: f64 = 0.5;

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
    fn at(message: impl Into<String>, span: Span) -> CompileError {
        CompileError {
            message: message.into(),
            span,
            io: None,
        }
    }

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
    Err(CompileError::at(message, span))
}

impl From<NormalizeError> for CompileError {
    fn from(e: NormalizeError) -> Self {
        CompileError::at(e.message, e.span)
    }
}

/// Compile an analyzed program to the SPMD IR: normalize the body, plan
/// its lowering, then partition onto the program's own directives and run
/// the plan's per-distribution pass once ([`LowerPlan`]).
pub fn compile(analyzed: &AnalyzedProgram, opts: &CompileOptions) -> CResult<SpmdProgram> {
    let _span = hpf_trace::span("compile");
    let normalized = normalize(analyzed)?;
    LowerPlan::new(analyzed, &normalized, opts).compile(
        analyzed,
        &analyzed.program.directives,
        opts.nodes,
        opts.grid_extents.as_deref(),
    )
}

/// The directive-independent half of lowering: one walk of a normalized
/// body that records everything no mapping directive changes — the DO/IF
/// structure and trip counts, each FORALL's resolved triplets and LHS axes,
/// its RHS references with their affine subscripts, op counts and mask
/// costs, and the phase labels. [`LowerPlan::compile`] is the other half:
/// a pass over the plan under one distribution. A directive search builds
/// one plan and runs the pass per candidate.
///
/// A plan holds what `CompileOptions` decides except `nodes` and
/// `grid_extents`, which only the pass reads. Planning never fails: where
/// lowering must stop with an error the plan stops too and records it, and
/// the pass returns it unless the mapping fails an earlier step first, so
/// under every mapping the error reported is the first one a walk of the
/// program in order meets.
#[derive(Debug)]
pub struct LowerPlan {
    name: String,
    body: Vec<Step>,
    warnings: Vec<CompileWarning>,
    io: hpf_io::IoConfig,
    /// What the passes over this plan share. Every entry is a pure
    /// function of its key, so a pass reads the same values whichever
    /// thread filled them in.
    memo: Mutex<Memo>,
}

#[derive(Debug, Default)]
struct Memo {
    /// The owned iterations of a FORALL axis per grid coordinate, counted
    /// once per mapping of the axis's LHS dimension; sorted by key.
    owned: Vec<(OwnedKey, Box<[u64]>)>,
    /// Communication labels by kind and array.
    labels: Vec<(CommKind, Arc<[String]>, Arc<str>)>,
    /// Formatting buffer for labels.
    text: String,
}

/// What one axis's per-coordinate owned iterations depend on: the LHS
/// dimension's mapping and alignment, the index progression
/// `first + j·step` for `count` steps, and the grid extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OwnedKey {
    dim: DimDist,
    align: (i64, i64),
    first: i64,
    step: i64,
    count: u64,
    extent: i64,
}

/// One planned step; the pass turns each into zero or more SPMD nodes.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Step {
    /// Replicated scalar work: the same under every mapping.
    Seq(SeqBlock),
    Loop {
        var: Arc<str>,
        trips: u64,
        estimated: bool,
        body: Vec<Step>,
        span: Span,
    },
    Branch {
        arms: Vec<(f64, Vec<Step>)>,
        else_body: Vec<Step>,
        span: Span,
    },
    /// One assignment of a FORALL body. Unboxed: a plan is built once and
    /// read by every pass, and a box would cost a one-shot compile an
    /// allocation per assignment.
    Assign(AssignPlan),
    /// One reduction of a scalar assignment.
    Reduce(ReducePlan),
    /// A READ/WRITE/CHECKPOINT of `arrays` (each with whether the program
    /// declares it), or of every distributed array when `arrays` is empty.
    Io {
        kind: hpf_io::IoKind,
        arrays: Vec<(String, bool)>,
        span: Span,
    },
    /// The mapping must give `array` a distribution; that failure comes
    /// before the error that follows.
    Mapped { array: String, span: Span },
    /// Lowering stops here with this error. Nothing after it is planned.
    Fail(CompileError),
}

impl Step {
    /// The most SPMD nodes the pass emits for this step.
    fn max_nodes(&self) -> usize {
        match self {
            Step::Assign(a) => a.refs.len() + 2,
            Step::Reduce(_) => 2,
            Step::Mapped { .. } | Step::Fail(_) => 0,
            _ => 1,
        }
    }
}

/// One FORALL assignment as the pass reads it.
#[derive(Debug)]
struct AssignPlan {
    /// The FORALL's span, which its phases carry.
    span: Span,
    /// The LHS array, as a one-name `arrays` list.
    lhs: Arc<[String]>,
    lhs_span: Span,
    /// The LHS subscripts affine in a FORALL index.
    axes: Vec<Axis>,
    /// Some LHS subscript is not affine: every node runs every iteration.
    lhs_indirect: bool,
    /// Each distinct index name, in the order of its last triplet.
    indices: Vec<Index>,
    /// The header's triplet count: the generated loop nest's depth.
    loop_depth: u32,
    /// Every triplet's count multiplied: the global iteration count.
    total: u64,
    /// The counts of the triplets no LHS subscript indexes, multiplied:
    /// every node runs all of their values.
    free: u64,
    /// The distinct indices' counts multiplied, which sizes a remap or an
    /// indirect gather.
    distinct_total: u64,
    /// That product over the largest count: the slice a broadcast moves.
    broadcast_cross: u64,
    /// Array references of the RHS, then of the mask.
    refs: Vec<RefPlan>,
    /// Every reference's subscripts, in reference order.
    subs: Vec<RefSub>,
    per_iter: OpCounts,
    masked_ops: Option<OpCounts>,
    mask_density_hint: Option<f64>,
    locality: Locality,
    label: Arc<str>,
    /// The scatter's label, when the LHS is indirect.
    scatter: Option<Arc<str>>,
}

/// One resolved FORALL triplet.
#[derive(Debug, Clone, Copy)]
struct Trip {
    lo: i64,
    st: i64,
    count: u64,
}

/// An LHS subscript `a·index + b` of the FORALL triplet `trip` at position
/// `triplet` (the first of its name), in dimension `dim`.
#[derive(Debug, Clone, Copy)]
struct Axis {
    triplet: usize,
    trip: Trip,
    dim: usize,
    a: i64,
    b: i64,
}

/// One distinct FORALL index: the count of its last triplet, and the LHS
/// axis it drives (its last, where it drives several).
#[derive(Debug)]
struct Index {
    count: u64,
    axis: Option<Axis>,
}

/// One array reference of a FORALL assignment.
#[derive(Debug)]
struct RefPlan {
    array: Arc<[String]>,
    span: Span,
    /// Its subscripts' place in [`AssignPlan::subs`].
    subs: std::ops::Range<usize>,
}

/// One subscript of a [`RefPlan`].
#[derive(Debug, Clone, Copy)]
enum RefSub {
    /// `a·index + b` of the distinct index at `index`.
    Index { index: usize, a: i64, b: i64 },
    /// Free of the FORALL indices.
    Const,
    /// Not affine: data-dependent.
    Indirect,
    /// A section, which lowering rejects inside a FORALL body.
    Section,
}

/// The innermost generated loop's locality, where the LHS mapping does
/// not decide it, or the LHS dimension whose local stride does.
#[derive(Debug, Clone, Copy)]
enum Locality {
    Fixed(f64),
    Strided(usize),
}

/// One reduction of a scalar assignment.
#[derive(Debug)]
struct ReducePlan {
    array: Arc<[String]>,
    span: Span,
    per_iter: OpCounts,
    op: CollectiveOp,
    comp_label: Arc<str>,
    comm_label: Arc<str>,
}

impl LowerPlan {
    /// Plan `normalized`, the [`normalize`]d body of `analyzed`, under the
    /// options' critical values, hints, loop reordering and I/O
    /// configuration.
    pub fn new(analyzed: &AnalyzedProgram, normalized: &[Stmt], opts: &CompileOptions) -> Self {
        let mut planner = Planner::new(analyzed, opts);
        let mut body = Vec::with_capacity(normalized.len());
        planner.block(normalized, &mut body);
        LowerPlan {
            name: analyzed.program.name.clone(),
            body,
            warnings: planner.warnings,
            io: opts.io,
            memo: Mutex::new(Memo {
                text: planner.text,
                ..Memo::default()
            }),
        }
    }

    /// Partition `analyzed` onto `directives` for `nodes` processors (the
    /// grid pinned to `grid_extents` when given) and run the
    /// per-distribution pass. [`compile`] does this once per plan; a
    /// directive search once per candidate list, which
    /// `hpf_lang::check_directives` has checked. `directives` is any
    /// cloneable iterator of borrowed directives (see
    /// [`partition_onto`](crate::dist::partition_onto)).
    pub fn compile<'d, D>(
        &self,
        analyzed: &AnalyzedProgram,
        directives: D,
        nodes: usize,
        grid_extents: Option<&[i64]>,
    ) -> CResult<SpmdProgram>
    where
        D: IntoIterator<Item = &'d Directive> + Clone,
    {
        let dist = {
            let _s = hpf_trace::span("partition");
            crate::dist::partition_onto(analyzed, directives, Some(nodes), grid_extents)
                .map_err(|e| CompileError::at(e.message, e.span))?
        };
        let _lower_span = hpf_trace::span("lower");
        self.lower(dist, nodes)
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The label of a `kind` communication of `array`, formatted once per
    /// plan.
    fn comm_label(&self, kind: CommKind, array: &Arc<[String]>) -> Arc<str> {
        let mut memo = self.memo();
        if let Some((.., label)) = memo
            .labels
            .iter()
            .find(|(k, a, _)| *k == kind && Arc::ptr_eq(a, array))
        {
            return label.clone();
        }
        let name = &array[0];
        let text = &mut memo.text;
        let label = match kind {
            CommKind::Shift { t_off, dim, .. } => shared_label(
                text,
                format_args!("shift {name} (δ={t_off}, dim {})", dim + 1),
            ),
            CommKind::Remap => shared_label(text, format_args!("remap {name}")),
            CommKind::Gather => shared_label(text, format_args!("gather {name}")),
            CommKind::Broadcast => shared_label(text, format_args!("broadcast {name}")),
            CommKind::GatherIndirect => {
                shared_label(text, format_args!("gather {name} (indirect)"))
            }
        };
        memo.labels.push((kind, array.clone(), label.clone()));
        label
    }

    /// The per-distribution pass: everything `dist` decides.
    fn lower(&self, dist: DistributionTable, nodes: usize) -> CResult<SpmdProgram> {
        let mut pass = Pass {
            plan: self,
            dist: &dist,
            nodes,
            comms: Vec::new(),
        };
        let body = pass.steps(&self.body)?;
        Ok(SpmdProgram {
            name: self.name.clone(),
            nodes,
            grid: dist.grid.clone(),
            dist,
            body,
            warnings: self.warnings.clone(),
        })
    }
}

/// `args` as a label to share, formatted in the reused buffer `text` so
/// that it allocates once.
fn shared_label(text: &mut String, args: std::fmt::Arguments) -> Arc<str> {
    text.clear();
    text.reserve(64);
    let _ = text.write_fmt(args);
    Arc::from(text.as_str())
}

/// The walk that builds a [`LowerPlan`].
struct Planner<'a> {
    analyzed: &'a AnalyzedProgram,
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
    /// Graceful-degradation diagnostics (attached to every SpmdProgram).
    warnings: Vec<CompileWarning>,
    /// A step failed: nothing more is planned.
    failed: bool,
    /// One-name `arrays` lists, one per array referenced.
    arrays: Vec<Arc<[String]>>,
    /// Formatting buffer for labels.
    text: String,
}

impl<'a> Planner<'a> {
    fn new(analyzed: &'a AnalyzedProgram, opts: &'a CompileOptions) -> Self {
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
        Planner {
            analyzed,
            opts,
            env,
            worst_case_extent,
            warnings: Vec::new(),
            failed: false,
            arrays: Vec::new(),
            text: String::new(),
        }
    }

    /// Stop planning with `err` as the last step.
    fn fail(&mut self, err: CompileError, out: &mut Vec<Step>) {
        out.push(Step::Fail(err));
        self.failed = true;
    }

    fn label(&mut self, args: std::fmt::Arguments) -> Arc<str> {
        shared_label(&mut self.text, args)
    }

    /// The shared one-name `arrays` list of `name`.
    fn array(&mut self, name: &str) -> Arc<[String]> {
        if let Some(a) = self.arrays.iter().find(|a| a[0] == name) {
            return a.clone();
        }
        let a: Arc<[String]> = Arc::new([name.to_string()]);
        self.arrays.push(a.clone());
        a
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

    fn block(&mut self, stmts: &[Stmt], out: &mut Vec<Step>) {
        for st in stmts {
            if self.failed {
                return;
            }
            self.stmt(st, out);
        }
    }

    fn stmt(&mut self, st: &Stmt, out: &mut Vec<Step>) {
        match st {
            Stmt::Forall { header, body, span } => self.forall(header, body, *span, out),
            Stmt::Assign { lhs, rhs, span } => self.scalar_assign(lhs, rhs, *span, out),
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
                    return self.fail(CompileError::at("DO step of zero", *span), out);
                }
                let trips = triplet_count(lo_v, hi_v, st_v);
                // Bind the loop variable to its midpoint for nested bounds.
                let mid = lo_v + ((hi_v - lo_v) / 2 / st_v.max(1)) * st_v.max(1);
                let saved = self.bind(var, mid);
                let mut inner = Vec::with_capacity(body.len());
                self.block(body, &mut inner);
                self.unbind(var, saved);
                out.push(Step::Loop {
                    var: Arc::from(var.as_str()),
                    trips,
                    estimated: false,
                    body: inner,
                    span: *span,
                });
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

                // Charge the condition evaluation per trip as a Seq block.
                let mut inner = vec![Step::Seq(SeqBlock {
                    label: Arc::from("while-test"),
                    span: *span,
                    ops: count_expr(cond, self.analyzed, &[]),
                })];
                self.block(body, &mut inner);
                if let Some((var, saved)) = saved {
                    self.unbind(var, saved);
                }
                out.push(Step::Loop {
                    var: Arc::from("<while>"),
                    trips,
                    estimated,
                    body: inner,
                    span: *span,
                });
            }
            Stmt::If {
                arms,
                else_body,
                span,
            } => {
                let mut planned = Vec::with_capacity(arms.len());
                for (cond, body) in arms {
                    if self.failed {
                        break;
                    }
                    let mut inner = vec![Step::Seq(SeqBlock {
                        label: Arc::from("if-test"),
                        span: cond.span(),
                        ops: count_expr(cond, self.analyzed, &[]),
                    })];
                    self.block(body, &mut inner);
                    planned.push((BRANCH_PROB_HINT, inner));
                }
                let mut els = Vec::with_capacity(else_body.len());
                self.block(else_body, &mut els);
                out.push(Step::Branch {
                    arms: planned,
                    else_body: els,
                    span: *span,
                });
            }
            Stmt::Print { items, span } => {
                let mut ops = OpCounts::zero();
                for e in items {
                    ops += count_expr(e, self.analyzed, &[]);
                }
                ops.calls += 1.0; // I/O library call
                out.push(Step::Seq(SeqBlock {
                    label: Arc::from("print"),
                    span: *span,
                    ops,
                }));
            }
            Stmt::Stop { .. } => {}
            Stmt::Io { kind, arrays, span } => out.push(Step::Io {
                kind: match kind {
                    IoStmtKind::Read => hpf_io::IoKind::Read,
                    IoStmtKind::Write => hpf_io::IoKind::Write,
                    IoStmtKind::Checkpoint => hpf_io::IoKind::Checkpoint,
                },
                arrays: arrays
                    .iter()
                    .map(|a| (a.clone(), self.analyzed.symbols.contains_key(a)))
                    .collect(),
                span: *span,
            }),
            Stmt::Where { span, .. } => self.fail(
                CompileError::at("WHERE should have been normalized away", *span),
                out,
            ),
            Stmt::Call { name, span, .. } => self.fail(
                CompileError::at(
                    format!("CALL `{name}`: user procedures are outside the subset"),
                    *span,
                ),
                out,
            ),
        }
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

    fn scalar_assign(&mut self, lhs: &DataRef, rhs: &Expr, span: Span, out: &mut Vec<Step>) {
        // Detect a top-level reduction structure: the RHS contains one or
        // more transformational reductions over distributed arrays.
        let mut reductions = Vec::new();
        collect_reductions(rhs, &mut reductions);
        if reductions.is_empty() {
            let ops = count_assign(lhs, rhs, self.analyzed, &[]);
            out.push(Step::Seq(SeqBlock {
                label: self.label(format_args!("{} = …", lhs.name)),
                span,
                ops,
            }));
            return;
        }

        for (intr, args, rspan) in reductions {
            let arr = match args.first() {
                Some(Expr::Ref(r)) if r.subs.is_empty() => r.name.as_str(),
                _ => {
                    return self.fail(
                        CompileError::at("reduction argument must be a whole array", rspan),
                        out,
                    )
                }
            };

            // Partial-reduction computation phase over locally owned elems.
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
                    out.push(Step::Mapped {
                        array: arr.to_string(),
                        span: rspan,
                    });
                    return self.fail(
                        CompileError::at(
                            format!("{} is not a supported reduction", other.name()),
                            rspan,
                        ),
                        out,
                    );
                }
            };
            out.push(Step::Reduce(ReducePlan {
                array: self.array(arr),
                span: rspan,
                per_iter,
                op,
                comp_label: self.label(format_args!("partial {label} over {arr}")),
                comm_label: self.label(format_args!("{label} combine")),
            }));
        }

        // Residual scalar work combining the reduction results.
        let mut ops = OpCounts {
            stores: 1.0,
            ..OpCounts::zero()
        };
        ops += count_residual(rhs, self.analyzed);
        out.push(Step::Seq(SeqBlock {
            label: self.label(format_args!("{} = …", lhs.name)),
            span,
            ops,
        }));
    }

    // ---- forall -----------------------------------------------------------

    fn forall(&mut self, header: &ForallHeader, body: &[Stmt], span: Span, out: &mut Vec<Step>) {
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
                return self.fail(CompileError::at("forall stride of zero", span), out);
            }
            trips.push(Trip {
                lo,
                st,
                count: triplet_count(lo, hi, st),
            });
        }

        for st_body in body {
            if self.failed {
                return;
            }
            match st_body {
                Stmt::Assign { lhs, rhs, .. } => {
                    self.forall_assign(header, &trips, lhs, rhs, span, out)
                }
                Stmt::Forall {
                    header: h2,
                    body: b2,
                    span: s2,
                } => {
                    // Nested forall: lower independently (iteration-space
                    // product is approximated by scaling inside a Loop).
                    let outer: u64 = trips.iter().map(|t| t.count).product();
                    let mut inner = Vec::new();
                    self.forall(h2, b2, *s2, &mut inner);
                    out.push(Step::Loop {
                        var: Arc::from("<forall>"),
                        trips: outer,
                        estimated: false,
                        body: inner,
                        span: *s2,
                    });
                }
                other => self.fail(
                    CompileError::at("forall body must be assignments", other.span()),
                    out,
                ),
            }
        }
    }

    fn forall_assign(
        &mut self,
        header: &ForallHeader,
        trips: &[Trip],
        lhs: &DataRef,
        rhs: &Expr,
        span: Span,
        out: &mut Vec<Step>,
    ) {
        let dummies = header.triplets.as_slice();

        // Map each triplet dummy to the LHS dimensions it indexes
        // (affine, stride ±1) — the owner-computes partitioning basis.
        let mut axes = Vec::with_capacity(lhs.subs.len());
        let mut lhs_indirect = false;
        for (d, s) in lhs.subs.iter().enumerate() {
            match s {
                Subscript::Index(e) => match affine_in(e, dummies) {
                    Some((Some(v), a, b)) => {
                        let triplet = dummies.iter().position(|t| t.var == v);
                        let triplet = triplet.expect("dummies come from the triplets");
                        axes.push(Axis {
                            triplet,
                            trip: trips[triplet],
                            dim: d,
                            a,
                            b,
                        });
                    }
                    Some((None, _, _)) => {} // constant subscript
                    None => lhs_indirect = true,
                },
                Subscript::Triplet { .. } => {
                    out.push(Step::Mapped {
                        array: lhs.name.clone(),
                        span: lhs.span,
                    });
                    return self.fail(
                        CompileError::at("LHS sections inside forall bodies", lhs.span),
                        out,
                    );
                }
            }
        }
        // Indices are looked up by name, so where a name repeats in the
        // header its last triplet counts, and its last LHS dimension.
        let axis_of = |var: &str| {
            axes.iter()
                .rev()
                .find(|x| dummies[x.triplet].var == var)
                .copied()
        };
        let last = |i: usize| dummies[i + 1..].iter().all(|u| u.var != dummies[i].var);
        let index_of = |var: &str| {
            let at = dummies.iter().rposition(|t| t.var == var).expect("a dummy");
            (0..at).filter(|&i| last(i)).count()
        };
        let counts = (0..dummies.len())
            .filter(|&i| last(i))
            .map(|i| trips[i].count);
        let distinct_total = saturating_product(counts.clone());
        let broadcast_cross = distinct_total / counts.max().unwrap_or(1).max(1);

        // ---- references the pass classifies: the RHS, then the mask ----
        let (mut refs, mut subs) = (Vec::new(), Vec::new());
        for e in std::iter::once(rhs).chain(&header.mask) {
            visit_refs(e, &mut |r| {
                let first = subs.len();
                subs.extend(r.subs.iter().map(|s| match s {
                    Subscript::Index(e) => match affine_in(e, dummies) {
                        Some((Some(v), a, b)) => RefSub::Index {
                            index: index_of(v),
                            a,
                            b,
                        },
                        Some((None, _, _)) => RefSub::Const,
                        None => RefSub::Indirect,
                    },
                    Subscript::Triplet { .. } => RefSub::Section,
                }));
                refs.push(RefPlan {
                    array: self.array(&r.name),
                    span: r.span,
                    subs: first..subs.len(),
                });
            });
        }

        // ---- operation counts ----
        let assign_ops = count_assign(lhs, rhs, self.analyzed, dummies);
        let (per_iter, masked_ops, mask_density_hint) = match &header.mask {
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
            && dummies
                .iter()
                .any(|t| axis_of(&t.var).map(|x| x.dim) == Some(0))
        {
            Locality::Fixed(1.0)
        } else {
            match dummies.last().map(|inner| axis_of(&inner.var)) {
                None => Locality::Fixed(1.0),
                Some(None) => Locality::Fixed(0.5),
                // First dimension: unit stride in column-major.
                Some(Some(Axis { dim: 0, .. })) => Locality::Fixed(1.0),
                Some(Some(x)) => Locality::Strided(x.dim),
            }
        };

        // Only references read the distinct indices.
        let indices = if refs.is_empty() {
            Vec::new()
        } else {
            (0..dummies.len())
                .filter(|&i| last(i))
                .map(|i| Index {
                    count: trips[i].count,
                    axis: axis_of(&dummies[i].var),
                })
                .collect()
        };
        let free = trips
            .iter()
            .enumerate()
            .filter(|&(i, _)| axes.iter().all(|x| x.triplet != i))
            .fold(1, |n: u64, (_, t)| n.saturating_mul(t.count));
        let scatter = lhs_indirect.then(|| self.label(format_args!("scatter -> {}", lhs.name)));
        out.push(Step::Assign(AssignPlan {
            span,
            lhs: self.array(&lhs.name),
            lhs_span: lhs.span,
            axes,
            lhs_indirect,
            indices,
            loop_depth: trips.len() as u32,
            total: trips.iter().fold(1, |n, t| n.saturating_mul(t.count)),
            free,
            distinct_total,
            broadcast_cross,
            refs,
            subs,
            per_iter,
            masked_ops,
            mask_density_hint,
            locality,
            label: self.label(format_args!("forall -> {}", lhs.name)),
            scatter,
        }));
    }
}

/// The per-distribution pass over a [`LowerPlan`].
struct Pass<'p> {
    plan: &'p LowerPlan,
    dist: &'p DistributionTable,
    /// The node count the program was compiled for (I/O servers resolve
    /// against it).
    nodes: usize,
    /// One assignment's communication, merged before it is emitted.
    comms: Vec<Comm<'p>>,
}

/// A communication an assignment's reference needs, before it is emitted.
#[derive(Debug, Clone, Copy)]
struct Comm<'p> {
    kind: CommKind,
    array: &'p Arc<[String]>,
    span: Span,
    bytes_per_node: u64,
    contiguous: bool,
}

/// How a reference communicates: with its label's array, it names the
/// phase, and phases of the same kind and array merge.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CommKind {
    /// Offset access along the LHS grid dimension `pdim`: a ghost exchange.
    Shift { t_off: i64, dim: usize, pdim: usize },
    /// Transposed or cross-mapped access.
    Remap,
    /// A full-range index reading a distributed dimension.
    Gather,
    /// A constant subscript of a distributed dimension.
    Broadcast,
    /// A data-dependent subscript.
    GatherIndirect,
}

impl CommKind {
    fn op(self) -> CollectiveOp {
        match self {
            CommKind::Shift { .. } => CollectiveOp::Shift,
            CommKind::Remap => CollectiveOp::AllToAll,
            CommKind::Gather | CommKind::GatherIndirect => CollectiveOp::Gather,
            CommKind::Broadcast => CollectiveOp::Broadcast,
        }
    }

    /// The order in which one reference's candidates replace each other.
    fn rank(self) -> u8 {
        match self.op() {
            CollectiveOp::Shift => 1,
            CollectiveOp::Broadcast => 2,
            CollectiveOp::Gather => 3,
            CollectiveOp::AllToAll => 4,
            _ => 0,
        }
    }
}

impl<'p> Pass<'p> {
    fn steps(&mut self, steps: &'p [Step]) -> CResult<Vec<SpmdNode>> {
        let mut out = Vec::with_capacity(steps.iter().map(Step::max_nodes).sum());
        for step in steps {
            self.step(step, &mut out)?;
        }
        Ok(out)
    }

    fn step(&mut self, step: &'p Step, out: &mut Vec<SpmdNode>) -> CResult<()> {
        match step {
            Step::Seq(s) => out.push(SpmdNode::Seq(s.clone())),
            Step::Loop {
                var,
                trips,
                estimated,
                body,
                span,
            } => {
                let body = self.steps(body)?;
                out.push(SpmdNode::Loop {
                    var: var.clone(),
                    trips: *trips,
                    estimated: *estimated,
                    body,
                    span: *span,
                });
            }
            Step::Branch {
                arms,
                else_body,
                span,
            } => {
                let mut lowered = Vec::with_capacity(arms.len());
                for (p, body) in arms {
                    lowered.push((*p, self.steps(body)?));
                }
                let else_body = self.steps(else_body)?;
                out.push(SpmdNode::Branch {
                    arms: lowered,
                    else_body,
                    span: *span,
                });
            }
            Step::Assign(a) => self.assign(a, out)?,
            Step::Reduce(r) => self.reduce(r, out)?,
            Step::Io { kind, arrays, span } => self.io(*kind, arrays, *span, out)?,
            Step::Mapped { array, span } => {
                self.mapped(array, *span)?;
            }
            Step::Fail(e) => return Err(e.clone()),
        }
        Ok(())
    }

    /// The distribution of `array`, which lowering requires at `span`.
    fn mapped(&self, array: &str, span: Span) -> CResult<&'p ArrayDist> {
        self.dist
            .get(array)
            .ok_or_else(|| CompileError::at(format!("no distribution for `{array}`"), span))
    }

    /// Lower a READ/WRITE/CHECKPOINT statement to a single parallel-I/O
    /// phase. Each named array must be distributed (parallel I/O moves the
    /// partitioned sections; replicated data goes through the host's normal
    /// sequential path and is outside the model). A bare CHECKPOINT snapshots
    /// every distributed array in the program.
    fn io(
        &mut self,
        kind: hpf_io::IoKind,
        arrays: &[(String, bool)],
        span: Span,
        out: &mut Vec<SpmdNode>,
    ) -> CResult<()> {
        let dist = self.dist;
        let names: Vec<String> = if arrays.is_empty() {
            // Bare CHECKPOINT: all distributed arrays, in deterministic
            // (BTreeMap) order.
            dist.arrays
                .iter()
                .filter(|(_, ad)| !ad.replicated)
                .map(|(n, _)| n.clone())
                .collect()
        } else {
            arrays.iter().map(|(n, _)| n.clone()).collect()
        };
        if names.is_empty() {
            return Err(CompileError::from_io(
                hpf_io::IoError::UnpartitionedArray {
                    array: "<none>".into(),
                },
                span,
            ));
        }

        let nodes = dist.grid.total();
        let mut total_bytes = 0u64;
        let mut per_node = vec![0u64; nodes];
        for name in &names {
            let ad = match dist.get(name) {
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
                    let declared = arrays.iter().any(|(n, declared)| n == name && *declared);
                    let err = if declared {
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
                *acc += ad.local_elems(|p| dist.grid.coord(n, p)) * ad.elem_bytes;
            }
        }

        let (servers, stripe_factor) = self
            .plan
            .io
            .resolve(self.nodes)
            .map_err(|e| CompileError::from_io(e, span))?;

        out.push(SpmdNode::Io {
            phase: Arc::new(hpf_io::IoPhase {
                kind,
                arrays: names,
                total_bytes,
                bytes_per_node: per_node.iter().copied().max().unwrap_or(0),
                participants: nodes,
                servers,
                stripe_factor,
            }),
            span,
        });
        Ok(())
    }

    /// A reduction's partial computation over the owned elements and, when
    /// the array is distributed, its global combine.
    fn reduce(&mut self, r: &'p ReducePlan, out: &mut Vec<SpmdNode>) -> CResult<()> {
        let ad = self.mapped(&r.array[0], r.span)?;
        let grid = &self.dist.grid;
        let nodes = grid.total();
        let per_node: Vec<u64> = (0..nodes)
            .map(|n| ad.local_elems(|p| grid.coord(n, p)))
            .collect();
        let total: u64 = if ad.replicated {
            ad.elems()
        } else {
            per_node.iter().sum()
        };
        let ws = per_node
            .iter()
            .max()
            .map_or(0, |m| m.saturating_mul(ad.elem_bytes));
        out.push(SpmdNode::Comp(Arc::new(CompPhase {
            label: r.comp_label.clone(),
            span: r.span,
            total_iters: total,
            per_node_iters: per_node,
            per_iter: r.per_iter,
            masked_ops: None,
            mask_density_hint: None,
            loop_depth: 1,
            working_set_bytes: ws,
            locality: 1.0,
        })));
        if !ad.replicated && nodes > 1 {
            out.push(SpmdNode::Comm(CommPhase {
                label: r.comm_label.clone(),
                span: r.span,
                op: r.op,
                bytes_per_node: ad.elem_bytes,
                participants: nodes,
                contiguous: true,
                shift_grid_dim: None,
                arrays: r.array.clone(),
            }));
        }
        Ok(())
    }

    /// One FORALL assignment: Figure-2 order — the gather level goes out
    /// first, then the computation level, then (when needed) the
    /// write-back level.
    fn assign(&mut self, a: &'p AssignPlan, out: &mut Vec<SpmdNode>) -> CResult<()> {
        let dist = self.dist;
        let grid = &dist.grid;
        let nodes = grid.total();
        let lhs_dist = self.mapped(&a.lhs[0], a.lhs_span)?;
        let per_node = if lhs_dist.replicated || a.lhs_indirect {
            // Every node executes everything.
            vec![a.total; nodes]
        } else {
            self.owned_iterations(a, lhs_dist)
        };

        // ---- communication detection over RHS (and mask) ----
        for r in &a.refs {
            if let Some(c) = a.classify(r, lhs_dist, dist, nodes)? {
                // Same-kind phases of one array keep the larger payload
                // (the compiler coalesces ghost exchanges).
                match self
                    .comms
                    .iter_mut()
                    .find(|p| p.kind == c.kind && Arc::ptr_eq(p.array, c.array))
                {
                    Some(p) => p.bytes_per_node = p.bytes_per_node.max(c.bytes_per_node),
                    None => self.comms.push(c),
                }
            }
        }
        for c in self.comms.drain(..) {
            out.push(SpmdNode::Comm(CommPhase {
                label: self.plan.comm_label(c.kind, c.array),
                span: c.span,
                op: c.kind.op(),
                bytes_per_node: c.bytes_per_node,
                participants: nodes,
                contiguous: c.contiguous,
                shift_grid_dim: match c.kind {
                    CommKind::Shift { pdim, .. } => Some(pdim),
                    _ => None,
                },
                arrays: c.array.clone(),
            }));
        }

        let locality = match a.locality {
            Locality::Fixed(l) => l,
            Locality::Strided(d) => {
                // Stride = product of local extents of faster dims.
                let mut stride_elems: i64 = 1;
                for dd in 0..d {
                    let pc = lhs_dist.dims[dd].pcount();
                    stride_elems *= (lhs_dist.extent(dd) + pc - 1) / pc.max(1);
                }
                let line = 32.0; // cache line bytes (i860)
                let stride_bytes = stride_elems as f64 * lhs_dist.elem_bytes as f64;
                (line / stride_bytes).clamp(0.05, 1.0)
            }
        };

        // ---- working set: every distinct array touched ----
        let max_iters = per_node.iter().copied().max().unwrap_or(0);
        let ws: u64 = std::iter::once(&a.lhs)
            .chain(
                a.refs
                    .iter()
                    .enumerate()
                    .filter(|&(i, r)| {
                        !Arc::ptr_eq(&r.array, &a.lhs)
                            && a.refs[..i].iter().all(|q| !Arc::ptr_eq(&q.array, &r.array))
                    })
                    .map(|(_, r)| &r.array),
            )
            .map(|arr| {
                let eb = dist.get(&arr[0]).map(|d| d.elem_bytes).unwrap_or(4);
                max_iters.saturating_mul(eb)
            })
            .fold(0, u64::saturating_add);

        out.push(SpmdNode::Comp(Arc::new(CompPhase {
            label: a.label.clone(),
            span: a.span,
            total_iters: a.total,
            per_node_iters: per_node,
            per_iter: a.per_iter,
            masked_ops: a.masked_ops,
            mask_density_hint: a.mask_density_hint,
            loop_depth: a.loop_depth,
            working_set_bytes: ws,
            locality,
        })));
        if let Some(label) = a
            .scatter
            .as_ref()
            .filter(|_| !lhs_dist.replicated && nodes > 1)
        {
            // Scatter computed values to their owners.
            let bytes = saturating_product([max_iters, lhs_dist.elem_bytes, nodes as u64 - 1])
                / nodes as u64;
            out.push(SpmdNode::Comm(CommPhase {
                label: label.clone(),
                span: a.span,
                op: CollectiveOp::Scatter,
                bytes_per_node: bytes.max(1),
                participants: nodes,
                contiguous: false,
                shift_grid_dim: None,
                arrays: a.lhs.clone(),
            }));
        }
        Ok(())
    }

    /// Per-node iteration counts (owner-computes on the LHS): a node runs
    /// the values of each index whose LHS element it owns in every
    /// distributed dimension the index drives, jointly when there are
    /// several (`A(I,I)`).
    fn owned_iterations(&self, a: &AssignPlan, lhs_dist: &ArrayDist) -> Vec<u64> {
        let grid = &self.dist.grid;
        let mut per_node = vec![a.free; grid.total()];
        // Each indexed triplet once, at its first axis.
        for (i, x) in a.axes.iter().enumerate() {
            if a.axes[..i].iter().any(|y| y.triplet == x.triplet) {
                continue;
            }
            let t = x.trip;
            let mut owning = a.axes[i..]
                .iter()
                .filter(|y| y.triplet == x.triplet && lhs_dist.dims[y.dim].is_distributed());
            let owned =
                |x: &Axis, c: i64| lhs_dist.owned_steps(x.dim, c, x.a * t.lo + x.b, x.a * t.st);
            match (owning.next(), owning.clone().next()) {
                (None, _) => {
                    for pn in per_node.iter_mut() {
                        *pn = pn.saturating_mul(t.count);
                    }
                }
                (Some(x), None) => {
                    // One dimension: the count depends only on the node's
                    // coordinate along that dimension's grid axis, so it is
                    // counted once per coordinate — and once per plan for
                    // each mapping of the dimension.
                    let dim = lhs_dist.dims[x.dim];
                    let pdim = dim.pdim().expect("distributed");
                    let key = OwnedKey {
                        dim,
                        align: lhs_dist.align[x.dim],
                        first: x.a * t.lo + x.b,
                        step: x.a * t.st,
                        count: t.count,
                        extent: grid.extents[pdim],
                    };
                    let mut memo = self.plan.memo();
                    let at = match memo.owned.binary_search_by(|(k, _)| k.cmp(&key)) {
                        Ok(at) => at,
                        Err(at) => {
                            let counts = (0..key.extent)
                                .map(|c| count_owned_steps(t.count, std::iter::once(owned(x, c))))
                                .collect();
                            memo.owned.insert(at, (key, counts));
                            at
                        }
                    };
                    let by_coord = &memo.owned[at].1;
                    // Nodes run first grid dimension fastest: each run of
                    // `below` nodes shares one coordinate along `pdim`.
                    let below = grid.extents[..pdim].iter().product::<i64>() as usize;
                    for (run, owned) in per_node.chunks_mut(below).zip(by_coord.iter().cycle()) {
                        for pn in run {
                            *pn = pn.saturating_mul(*owned);
                        }
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
        per_node
    }
}

impl AssignPlan {
    /// Classify one array reference against the LHS home distribution,
    /// returning the communication it requires (None = local). A read of
    /// the LHS array itself, aligned at zero offset, is local.
    fn classify<'p>(
        &self,
        r: &'p RefPlan,
        lhs_dist: &ArrayDist,
        dist: &DistributionTable,
        nodes: usize,
    ) -> CResult<Option<Comm<'p>>> {
        let Some(rd) = dist.get(&r.array[0]) else {
            return Ok(None);
        };
        if rd.replicated {
            return Ok(None);
        }
        let elem = rd.elem_bytes;

        // Max per-node iteration volume (for gather sizing).
        let per_node_iters = (self.distinct_total / nodes as u64).max(1);

        let mut worst: Option<Comm<'p>> = None;
        let mut consider = |kind: CommKind, bytes_per_node: u64, contiguous: bool| match &worst {
            Some(w) if w.kind.rank() >= kind.rank() => {}
            _ => {
                worst = Some(Comm {
                    kind,
                    array: &r.array,
                    span: r.span,
                    bytes_per_node,
                    contiguous,
                })
            }
        };

        for (d, &sub) in self.subs[r.subs.clone()].iter().enumerate() {
            if let RefSub::Section = sub {
                return cerr("sections inside forall bodies", r.span);
            }
            if !rd.dims[d].is_distributed() {
                continue; // this dimension is local regardless of the index
            }
            let pdim = rd.dims[d].pdim().expect("distributed");
            match sub {
                // Which LHS dim does this index drive, and is it mapped to
                // the same grid dimension?
                RefSub::Index { index, a, b } => match self.indices[index].axis {
                    Some(Axis {
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
                            let own_count = self.indices[index].count;
                            let delta = match lhs_dist.dims[ld] {
                                DimDist::Cyclic { k, .. } => {
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
                            let cross = saturating_product(
                                self.indices
                                    .iter()
                                    .enumerate()
                                    .filter(|&(k, _)| k != index)
                                    .map(|(_, o)| match o.axis {
                                        Some(x) if lhs_dist.dims[x.dim].is_distributed() => {
                                            let pc = lhs_dist.dims[x.dim].pcount() as u64;
                                            o.count.div_ceil(pc).max(1)
                                        }
                                        _ => o.count,
                                    }),
                            );
                            // Contiguous boundary iff the fixed dim is the
                            // last dimension (column-major hyperplane).
                            let contiguous = d == rd.rank() - 1 || rd.rank() == 1;
                            consider(
                                CommKind::Shift {
                                    t_off,
                                    dim: d,
                                    pdim,
                                },
                                saturating_product([delta, cross, elem]).max(1),
                                contiguous,
                            );
                        } else {
                            // Transposed or cross-mapped access.
                            consider(CommKind::Remap, per_node_iters.saturating_mul(elem), false);
                        }
                    }
                    None => {
                        // Index not partitioned on LHS: iteration runs the
                        // full range on every node, reading a distributed dim
                        // → gather of the remote part.
                        let cnt = self.indices[index].count;
                        let remote =
                            saturating_product([cnt, elem, nodes as u64 - 1]) / nodes as u64;
                        consider(CommKind::Gather, remote.max(1), false);
                    }
                },
                // Constant subscript of a distributed dim: the slice lives
                // on one coordinate — broadcast it.
                RefSub::Const => consider(
                    CommKind::Broadcast,
                    self.broadcast_cross.max(1).saturating_mul(elem).max(1),
                    true,
                ),
                // Indirect (data-dependent) subscript: unstructured gather.
                RefSub::Indirect => consider(
                    CommKind::GatherIndirect,
                    (saturating_product([per_node_iters, elem, nodes as u64 - 1]) / nodes as u64)
                        .max(1),
                    false,
                ),
                RefSub::Section => unreachable!("rejected above"),
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

/// Visit every array reference in an expression, each before the ones in
/// its subscripts.
fn visit_refs(e: &Expr, f: &mut impl FnMut(&DataRef)) {
    match e {
        Expr::Ref(r) if !r.subs.is_empty() => {
            f(r);
            for s in &r.subs {
                if let Subscript::Index(ix) = s {
                    visit_refs(ix, f);
                }
            }
        }
        Expr::Intrinsic { args, .. } => {
            for a in args {
                visit_refs(a, f);
            }
        }
        Expr::Unary { operand, .. } => visit_refs(operand, f),
        Expr::Binary { lhs, rhs, .. } => {
            visit_refs(lhs, f);
            visit_refs(rhs, f);
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
