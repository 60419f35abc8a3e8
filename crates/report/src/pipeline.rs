//! End-to-end pipeline helpers: source text → prediction (the interpretive
//! path) and source text → simulated measurement (the "run it on the
//! machine" path). These are the two experimentation routes Figure 8
//! compares.
//!
//! Both reach a machine by its registry name. [`calibrated_machine_for`]
//! hands out the calibrated model, from one process-wide memo keyed by
//! `(backend, nodes)`; a caller that predicts and then simulates runs both
//! on that one model, because the simulator reads only its parameter
//! tables, never the calibration (`tests/calibration_inert.rs`).
//! [`machine_params`] builds the uncalibrated tables for callers that only
//! simulate. An unknown name or a node count outside the backend's range
//! is a [`PipelineStage::Machine`] error.

use hpf_compiler::{compile, CompileOptions, SpmdProgram};
use hpf_lang::{analyze, parse_program, AnalyzedProgram, LangError};
use hpf_machines::TopologyError;
use interp::{InterpOptions, InterpretationEngine, Prediction};
use ipsc_sim::{SimConfig, SimResult, Simulator};
use machine::MachineModel;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A calibrated model, computed at most once.
type CalibrationSlot = Arc<OnceLock<Arc<MachineModel>>>;

/// The calibrated model of registered backend `name` at `nodes` nodes,
/// built once per `(backend, nodes)` and shared — the paper's "system
/// abstraction is performed off-line and only once" (§5.3). The memo's
/// lock guards only finding the key's slot, and the key borrows the
/// backend's `&'static` name, so a warm lookup allocates nothing; each
/// calibration runs outside the lock, once per key, and callers of the
/// same key wait for it while other keys proceed. Unknown names and
/// out-of-range node counts come back as a typed
/// [`PipelineStage::Machine`] error.
pub fn calibrated_machine_for(
    name: &str,
    nodes: usize,
) -> Result<Arc<MachineModel>, PipelineError> {
    static MEMO: OnceLock<Mutex<HashMap<(&'static str, usize), CalibrationSlot>>> = OnceLock::new();
    let backend = hpf_machines::machine(name)?;
    backend.validate_nodes(nodes)?;
    let slot = MEMO
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry((backend.name, nodes))
        .or_default()
        .clone();
    Ok(slot
        .get_or_init(|| Arc::new(ipsc_sim::calibrate_params((backend.tables)(nodes))))
        .clone())
}

/// Uncalibrated parameter tables of a registered backend, for callers
/// that simulate without predicting: [`simulate_source`], `hpfenv`'s
/// `simulate` and `trace`, and the repository benchmark's set-up. There a
/// calibration would be pure cost; a caller that also predicts simulates
/// on [`calibrated_machine_for`]'s model, whose tables are the same.
pub fn machine_params(name: &str, nodes: usize) -> Result<MachineModel, PipelineError> {
    Ok(hpf_machines::machine(name)?.params(nodes)?)
}

/// Options for [`predict_source`].
#[derive(Debug, Clone)]
pub struct PredictOptions {
    pub nodes: usize,
    /// PARAMETER overrides (problem-size knob of the interface, §5.3).
    pub param_overrides: BTreeMap<String, i64>,
    pub compile: CompileOptions,
    pub interp: InterpOptions,
    /// Registered machine backend to predict for (`hpf_machines` registry
    /// name; the default is the paper's iPSC/860).
    pub machine: String,
}

impl Default for PredictOptions {
    fn default() -> Self {
        PredictOptions {
            nodes: 8,
            param_overrides: BTreeMap::new(),
            compile: CompileOptions::default(),
            interp: InterpOptions::default(),
            machine: hpf_machines::DEFAULT_MACHINE.to_string(),
        }
    }
}

impl PredictOptions {
    pub fn with_nodes(nodes: usize) -> Self {
        PredictOptions {
            nodes,
            ..Default::default()
        }
    }
}

/// Options for [`simulate_source`].
#[derive(Debug, Clone)]
pub struct SimulateOptions {
    pub nodes: usize,
    pub param_overrides: BTreeMap<String, i64>,
    pub compile: CompileOptions,
    pub sim: SimConfig,
    /// Registered machine backend to simulate on.
    pub machine: String,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        SimulateOptions {
            nodes: 8,
            param_overrides: BTreeMap::new(),
            compile: CompileOptions::default(),
            sim: SimConfig::default(),
            machine: hpf_machines::DEFAULT_MACHINE.to_string(),
        }
    }
}

impl SimulateOptions {
    pub fn with_nodes(nodes: usize) -> Self {
        SimulateOptions {
            nodes,
            ..Default::default()
        }
    }
}

/// The pipeline stage that produced an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    /// Lexing or parsing the HPF source.
    Parse,
    /// Semantic analysis (symbols, directives, alignment).
    Analyze,
    /// SPMD lowering.
    Compile,
    /// Functional interpretation (profiling runs).
    Evaluate,
    /// Interpretation-engine prediction.
    Predict,
    /// Discrete-event simulation.
    Simulate,
    /// The experiment sweep harness itself (panics, timeouts).
    Sweep,
    /// Machine-registry lookup/validation (unknown machine name,
    /// unsupported node count for the machine's topology).
    Machine,
    /// Parallel-I/O validation (bad stripe factor, more servers than
    /// nodes, checkpoint of an unpartitioned array).
    Io,
}

impl PipelineStage {
    pub fn label(&self) -> &'static str {
        match self {
            PipelineStage::Parse => "parse",
            PipelineStage::Analyze => "analyze",
            PipelineStage::Compile => "compile",
            PipelineStage::Evaluate => "evaluate",
            PipelineStage::Predict => "predict",
            PipelineStage::Simulate => "simulate",
            PipelineStage::Sweep => "sweep",
            PipelineStage::Machine => "machine",
            PipelineStage::Io => "io",
        }
    }
}

/// Structured pipeline error: the failing stage, a human-readable message,
/// and — when the stage can point at one — the source span that triggered
/// it. Replaces panics on user-reachable inputs throughout the harness.
#[derive(Debug, Clone)]
pub struct PipelineError {
    pub stage: PipelineStage,
    pub message: String,
    pub span: Option<hpf_lang::Span>,
}

impl PipelineError {
    pub fn new(stage: PipelineStage, message: impl Into<String>) -> Self {
        PipelineError {
            stage,
            message: message.into(),
            span: None,
        }
    }

    /// 1-based source line of the error, if located.
    pub fn line(&self) -> Option<u32> {
        self.span.map(|s| s.line)
    }

    /// 1-based column of the error within its line, if located (computed
    /// from the span's byte offset against `source`).
    pub fn column_in(&self, source: &str) -> Option<u32> {
        let span = self.span?;
        if span == hpf_lang::Span::SYNTHETIC {
            return None;
        }
        let start = (span.start as usize).min(source.len());
        let line_start = source[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
        Some(source[line_start..start].chars().count() as u32 + 1)
    }

    /// Render a human-readable spanned diagnostic against the source text
    /// the error came from:
    ///
    /// ```text
    /// parse error at line 4: expected an expression
    ///   4 | FORALL (I = 1:N) A(I) = +
    ///     |                         ^
    /// ```
    ///
    /// Degrades to the plain [`Display`](std::fmt::Display) form when the
    /// error carries no usable span. The `advise` CLI prints this to
    /// stderr and `hpf-serve` embeds the same string in its structured
    /// 400 bodies, so both surfaces show one diagnostic.
    pub fn render_diagnostic(&self, source: &str) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{self}\n");
        let (Some(span), Some(line), Some(col)) = (self.span, self.line(), self.column_in(source))
        else {
            return out;
        };
        let Some(text) = source.lines().nth(line as usize - 1) else {
            return out;
        };
        let gutter = format!("{line}");
        let _ = writeln!(out, "  {gutter} | {text}");
        let width = (span.end.saturating_sub(span.start) as usize).max(1);
        let caret_width = if span.end_line == span.line {
            width.min(text.chars().count().saturating_sub(col as usize - 1).max(1))
        } else {
            1
        };
        let _ = writeln!(
            out,
            "  {:gw$} | {:pad$}{}",
            "",
            "",
            "^".repeat(caret_width),
            gw = gutter.len(),
            pad = col as usize - 1
        );
        out
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} error", self.stage.label())?;
        if let Some(s) = self.span {
            write!(f, " at line {}", s.line)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for PipelineError {}

impl From<LangError> for PipelineError {
    fn from(e: LangError) -> Self {
        let stage = match e.phase {
            hpf_lang::Phase::Lex | hpf_lang::Phase::Parse => PipelineStage::Parse,
            hpf_lang::Phase::Sema => PipelineStage::Analyze,
        };
        PipelineError {
            stage,
            message: e.message,
            span: Some(e.span),
        }
    }
}

impl From<hpf_compiler::CompileError> for PipelineError {
    fn from(e: hpf_compiler::CompileError) -> Self {
        PipelineError {
            // Typed I/O-subsystem failures surface as their own stage so
            // services and CLIs can distinguish them from general lowering
            // errors.
            stage: if e.io.is_some() {
                PipelineStage::Io
            } else {
                PipelineStage::Compile
            },
            message: e.message,
            span: Some(e.span),
        }
    }
}

impl From<kernels::KernelBindError> for PipelineError {
    fn from(e: kernels::KernelBindError) -> Self {
        match e {
            kernels::KernelBindError::Lang(e) => e.into(),
            kernels::KernelBindError::Compile(e) => e.into(),
        }
    }
}

impl From<TopologyError> for PipelineError {
    fn from(e: TopologyError) -> Self {
        PipelineError {
            stage: PipelineStage::Machine,
            message: e.to_string(),
            span: None,
        }
    }
}

impl From<hpf_eval::EvalError> for PipelineError {
    fn from(e: hpf_eval::EvalError) -> Self {
        PipelineError {
            stage: PipelineStage::Evaluate,
            message: e.message,
            span: Some(e.span),
        }
    }
}

/// One program bound to one `(N, P)` point: the analyzed program, its SPMD
/// lowering (Phase 1) and the AAG abstracted from it (Phase 2). Every path
/// from a program to its AAG goes through [`Bound::new`], except the
/// advisor's per-candidate compile, whose candidates share one analyzed
/// program.
#[derive(Debug)]
pub struct Bound {
    pub analyzed: AnalyzedProgram,
    pub spmd: SpmdProgram,
    pub aag: appgraph::Aag,
}

impl Bound {
    /// Abstract `spmd` into its AAG.
    pub fn new(analyzed: AnalyzedProgram, spmd: SpmdProgram) -> Bound {
        Bound {
            aag: appgraph::build_aag(&spmd),
            analyzed,
            spmd,
        }
    }
}

/// Parse + analyze + compile.
fn frontend(
    src: &str,
    nodes: usize,
    overrides: &BTreeMap<String, i64>,
    copts: &CompileOptions,
) -> Result<(AnalyzedProgram, SpmdProgram), PipelineError> {
    let _span = hpf_trace::span("frontend");
    let program = parse_program(src)?;
    let analyzed = analyze(&program, overrides)?;
    let mut copts = copts.clone();
    copts.nodes = nodes;
    let spmd = compile(&analyzed, &copts)?;
    Ok((analyzed, spmd))
}

/// Parse + analyze + compile + abstract: `src` bound to `nodes` nodes.
pub fn compile_source(
    src: &str,
    nodes: usize,
    overrides: &BTreeMap<String, i64>,
    copts: &CompileOptions,
) -> Result<Bound, PipelineError> {
    let (analyzed, spmd) = frontend(src, nodes, overrides, copts)?;
    Ok(Bound::new(analyzed, spmd))
}

/// Source-driven performance prediction: the interpretive path.
pub fn predict_source(src: &str, opts: &PredictOptions) -> Result<Prediction, PipelineError> {
    let _span = hpf_trace::span("predict");
    let machine = {
        let _s = hpf_trace::span("calibrate");
        calibrated_machine_for(&opts.machine, opts.nodes)?
    };
    predict_source_on(src, &machine, opts)
}

/// Prediction against an arbitrary abstracted machine (e.g. the HPDC
/// `machine::now_cluster` target of §7). The machine's node count wins over
/// `opts.nodes`.
pub fn predict_source_on(
    src: &str,
    machine: &MachineModel,
    opts: &PredictOptions,
) -> Result<Prediction, PipelineError> {
    let bound = compile_source(src, machine.nodes, &opts.param_overrides, &opts.compile)?;
    let engine = InterpretationEngine::with_options(machine, opts.interp.clone());
    Ok(engine.interpret(&bound.aag))
}

/// Full prediction with the bound program kept for output-module queries.
pub fn predict_source_full(
    src: &str,
    opts: &PredictOptions,
) -> Result<(Prediction, Bound), PipelineError> {
    let bound = compile_source(src, opts.nodes, &opts.param_overrides, &opts.compile)?;
    let machine = calibrated_machine_for(&opts.machine, opts.nodes)?;
    let engine = InterpretationEngine::with_options(&machine, opts.interp.clone());
    Ok((engine.interpret(&bound.aag), bound))
}

/// The functional interpreter's execution profile of `analyzed`, or `None`
/// when the run exceeds `max_steps` (or fails) — the simulator then falls
/// back to static trip counts and mask densities.
pub fn profile_with_limit(
    analyzed: &AnalyzedProgram,
    max_steps: u64,
) -> Option<hpf_eval::ExecutionProfile> {
    hpf_eval::run_with_limit(analyzed, max_steps)
        .ok()
        .map(|o| o.profile)
}

/// "Measured" execution: run the program on the simulated iPSC/860.
pub fn simulate_source(src: &str, opts: &SimulateOptions) -> Result<SimResult, PipelineError> {
    let _span = hpf_trace::span("measure");
    let (analyzed, spmd) = frontend(src, opts.nodes, &opts.param_overrides, &opts.compile)?;
    // Run the functional interpreter to collect the dynamic profile
    // (actual trip counts / mask densities) before simulating.
    let profile = {
        let _s = hpf_trace::span("profile");
        hpf_eval::run(&analyzed).ok().map(|o| o.profile)
    };
    let machine = machine_params(&opts.machine, opts.nodes)?;
    let sim = Simulator::with_config(&machine, opts.sim.clone());
    Ok(sim.simulate(&spmd, profile.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI_SRC: &str = "
PROGRAM PI
INTEGER, PARAMETER :: N = 512
REAL F(N), PIE
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE F(BLOCK) ONTO P
FORALL (I = 1:N) F(I) = 4.0 / (1.0 + ((I - 0.5) * (1.0 / N)) ** 2)
PIE = SUM(F) / N
END
";

    #[test]
    fn predict_and_simulate_agree_roughly() {
        let pred = predict_source(PI_SRC, &PredictOptions::with_nodes(4)).unwrap();
        let mut sopts = SimulateOptions::with_nodes(4);
        sopts.sim.runs = 100;
        let meas = simulate_source(PI_SRC, &sopts).unwrap();
        let err = (pred.total_seconds() - meas.measured()).abs() / meas.measured();
        assert!(err < 0.25, "prediction error {:.1}% too large", err * 100.0);
    }

    #[test]
    fn param_override_changes_problem_size() {
        let mut small = PredictOptions::with_nodes(4);
        small.param_overrides.insert("N".into(), 128);
        let mut big = PredictOptions::with_nodes(4);
        big.param_overrides.insert("N".into(), 4096);
        let ts = predict_source(PI_SRC, &small).unwrap().total_seconds();
        let tb = predict_source(PI_SRC, &big).unwrap().total_seconds();
        assert!(tb > 2.0 * ts, "big {tb} vs small {ts}");
    }

    #[test]
    fn bad_source_is_error() {
        assert!(predict_source("NOT FORTRAN", &PredictOptions::default()).is_err());
    }

    #[test]
    fn unknown_machine_fails_at_the_machine_stage() {
        let mut opts = PredictOptions::with_nodes(4);
        opts.machine = "cm5".into();
        let err = predict_source(PI_SRC, &opts).expect_err("unregistered");
        assert_eq!(err.stage, PipelineStage::Machine);
        assert_eq!(err.stage.label(), "machine");
        assert!(err.message.contains("cm5"), "{err}");
    }

    #[test]
    fn out_of_range_nodes_for_a_machine_fail_at_the_machine_stage() {
        let mut opts = SimulateOptions::with_nodes(256);
        opts.machine = "multicore".into(); // tops out at 128 nodes
        let err = simulate_source(PI_SRC, &opts).expect_err("out of range");
        assert_eq!(err.stage, PipelineStage::Machine);
        assert!(err.message.contains("256"), "{err}");
    }

    /// The registry path builds exactly the model `ipsc_sim::calibrate`
    /// builds, which perfbench's set-up calls and compares bit for bit.
    #[test]
    fn default_machine_paths_are_the_historical_functions_verbatim() {
        for nodes in [1, 2, 8, 16] {
            let via_registry =
                calibrated_machine_for(hpf_machines::DEFAULT_MACHINE, nodes).unwrap();
            let direct = ipsc_sim::calibrate(nodes);
            assert_eq!(
                format!("{via_registry:?}"),
                format!("{direct:?}"),
                "{nodes} nodes"
            );
        }
        let params = machine_params(hpf_machines::DEFAULT_MACHINE, 8).unwrap();
        assert_eq!(format!("{params:?}"), format!("{:?}", machine::ipsc860(8)));
    }

    #[test]
    fn repeated_calibrations_share_one_model() {
        for backend in hpf_machines::registry() {
            let a = calibrated_machine_for(backend.name, 4).unwrap();
            let b = calibrated_machine_for(backend.name, 4).unwrap();
            assert!(Arc::ptr_eq(&a, &b), "{}", backend.name);
        }
        let ipsc = calibrated_machine_for(hpf_machines::DEFAULT_MACHINE, 4).unwrap();
        let torus = calibrated_machine_for("torus3d", 4).unwrap();
        assert!(
            !Arc::ptr_eq(&ipsc, &torus),
            "each backend has its own entry"
        );
    }

    #[test]
    fn render_diagnostic_points_at_the_offending_line() {
        let src = "PROGRAM BAD\nINTEGER, PARAMETER :: N = 64\nREAL A(N)\nA(1) = +\nEND\n";
        let err = predict_source(src, &PredictOptions::default()).unwrap_err();
        let rendered = err.render_diagnostic(src);
        let line = err.line().expect("error carries a span");
        assert!(
            rendered.contains(&format!("line {line}")),
            "missing line number: {rendered}"
        );
        let offending = src.lines().nth(line as usize - 1).unwrap();
        assert!(
            rendered.contains(offending),
            "missing source excerpt: {rendered}"
        );
        assert!(rendered.contains('^'), "missing caret: {rendered}");
    }

    #[test]
    fn render_diagnostic_without_span_degrades_to_display() {
        let err = PipelineError::new(PipelineStage::Sweep, "worker timed out");
        assert_eq!(err.render_diagnostic("anything"), format!("{err}\n"));
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        // The zero-overhead contract, checked at its strongest: enabling
        // the observability layer leaves prediction and simulation
        // bit-identical (no RNG stream is touched by instrumentation).
        let popts = PredictOptions::with_nodes(4);
        let mut sopts = SimulateOptions::with_nodes(4);
        sopts.sim.runs = 50;

        let pred_off = predict_source(PI_SRC, &popts).unwrap();
        let meas_off = simulate_source(PI_SRC, &sopts).unwrap();

        let rec = hpf_trace::Recorder::new();
        let _on = rec.install();
        rec.enable();
        let pred_on = predict_source(PI_SRC, &popts).unwrap();
        let meas_on = simulate_source(PI_SRC, &sopts).unwrap();

        assert_eq!(
            pred_off.total_seconds().to_bits(),
            pred_on.total_seconds().to_bits(),
            "prediction must be bit-identical under tracing"
        );
        assert_eq!(
            meas_off.mean.to_bits(),
            meas_on.mean.to_bits(),
            "simulation must be bit-identical under tracing"
        );

        // And the traced pass actually produced the stage spans.
        let paths: Vec<String> = rec.span_snapshot().into_iter().map(|s| s.path).collect();
        for expected in ["predict", "predict/frontend/parse", "measure/simulate"] {
            assert!(
                paths.iter().any(|p| p == expected),
                "missing span {expected:?} in {paths:?}"
            );
        }
    }
}
