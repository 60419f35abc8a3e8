//! Experiment drivers for the paper's tables and figures.

use crate::harness::{run_batch, HarnessConfig, JobFailure, SweepFailure};
use crate::pipeline::{
    calibrated_machine_for, compile_source, machine_params, profile_with_limit, Bound,
    PredictOptions,
};
use crate::sweep::SweepSession;
use hpf_compiler::CompileOptions;
use hpf_eval::ExecutionProfile;
use interp::{InterpOptions, InterpretationEngine};
use ipsc_sim::{SimConfig, Simulator};
use kernels::{all_kernels, Kernel, KernelKind, LaplaceDist};
use machine::MachineModel;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// One (application, size, procs) accuracy sample.
#[derive(Debug, Clone, Serialize)]
pub struct AccuracySample {
    pub app: String,
    pub size: usize,
    pub procs: usize,
    pub predicted_s: f64,
    pub measured_s: f64,
    pub measured_std_s: f64,
    /// |predicted − measured| / measured, percent.
    pub abs_error_pct: f64,
}

/// One row of Table 2.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    pub app: String,
    pub sizes: (usize, usize),
    pub procs: (usize, usize),
    pub min_err_pct: f64,
    pub max_err_pct: f64,
    pub samples: usize,
}

/// Sweep limits for the Table 2 reproduction. The full paper sweep is the
/// default; `quick()` trims sizes for CI-speed runs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    pub proc_counts: Vec<usize>,
    /// Cap on problem size (None = the kernel's own range).
    pub max_size: Option<usize>,
    /// Simulated runs per measurement (paper: 1000).
    pub runs: usize,
    /// Step budget for the functional-interpreter profile; configs whose
    /// execution exceeds it fall back to static hints.
    pub profile_steps: u64,
    /// Per-configuration isolation limits (timeout, retries).
    pub harness: HarnessConfig,
    /// Registered machine backend the sweep predicts and simulates on
    /// (see `hpf_machines::machine_names`). Defaults to the paper's
    /// iPSC/860.
    pub machine: String,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            proc_counts: vec![1, 2, 4, 8],
            max_size: None,
            runs: 1000,
            profile_steps: 40_000_000,
            harness: HarnessConfig::default(),
            machine: hpf_machines::DEFAULT_MACHINE.to_string(),
        }
    }
}

impl SweepConfig {
    /// A trimmed sweep for tests / smoke runs.
    pub fn quick() -> Self {
        SweepConfig {
            proc_counts: vec![1, 4],
            max_size: Some(512),
            runs: 50,
            profile_steps: 5_000_000,
            harness: HarnessConfig {
                timeout: Some(std::time::Duration::from_secs(60)),
                retries: 0,
            },
            machine: hpf_machines::DEFAULT_MACHINE.to_string(),
        }
    }
}

/// Analytic prediction and simulated measurement of one bound program —
/// the point where the interpretive and measurement paths provably operate
/// on the *same* compiled program. Both [`accuracy_sample`] (from-scratch)
/// and [`SweepSession::evaluate`] (compile-once) funnel through here.
/// Predicts on the named backend's calibrated model and simulates on its
/// raw parameter tables.
#[allow(clippy::too_many_arguments)]
pub fn sample_from_artifact_on(
    app: &str,
    bound: &Bound,
    profile: Option<&ExecutionProfile>,
    size: usize,
    procs: usize,
    runs: usize,
    machine_name: &str,
) -> Result<AccuracySample, crate::PipelineError> {
    let pred = {
        let _span = hpf_trace::span("predict");
        let machine = {
            let _s = hpf_trace::span("calibrate");
            calibrated_machine_for(machine_name, procs)?
        };
        let engine = InterpretationEngine::with_options(&machine, InterpOptions::default());
        engine.interpret(&bound.aag)
    };

    let machine = machine_params(machine_name, procs)?;
    let sim = Simulator::with_config(
        &machine,
        SimConfig {
            runs,
            ..Default::default()
        },
    );
    let meas = sim.simulate(&bound.spmd, profile);

    let err = if meas.mean > 0.0 {
        100.0 * (pred.total_seconds() - meas.mean).abs() / meas.mean
    } else {
        0.0
    };
    Ok(AccuracySample {
        app: app.to_string(),
        size,
        procs,
        predicted_s: pred.total_seconds(),
        measured_s: meas.mean,
        measured_std_s: meas.std,
        abs_error_pct: err,
    })
}

/// Run one accuracy sample from scratch: generate source, compile once,
/// profile, then predict *and* simulate the same compiled artifact.
pub fn accuracy_sample(
    kernel: &Kernel,
    size: usize,
    procs: usize,
    cfg: &SweepConfig,
) -> Result<AccuracySample, crate::PipelineError> {
    let src = kernel.source(size, procs);

    let bound = compile_source(
        &src,
        procs,
        &Default::default(),
        &CompileOptions {
            nodes: procs,
            ..Default::default()
        },
    )?;
    let profile = {
        let _s = hpf_trace::span("profile");
        profile_with_limit(&bound.analyzed, cfg.profile_steps)
    };
    sample_from_artifact_on(
        kernel.name,
        &bound,
        profile.as_ref(),
        size,
        procs,
        cfg.runs,
        &cfg.machine,
    )
}

/// Everything the Table 2 sweep produced: the aggregated rows, every
/// individual sample, and any configurations that failed (panicked, timed
/// out, or errored) without stopping the rest of the campaign.
#[derive(Debug, Clone)]
pub struct Table2Output {
    pub rows: Vec<Table2Row>,
    pub samples: Vec<AccuracySample>,
    pub failures: Vec<SweepFailure>,
}

/// Reproduce Table 2: per application, min/max absolute error over the
/// size × procs sweep. Configurations run in parallel worker threads; each
/// one is panic-isolated with a wall-clock timeout and bounded retries, so
/// one pathological configuration is reported in `failures` instead of
/// aborting the sweep.
pub fn table2(cfg: &SweepConfig) -> Table2Output {
    // Compile each kernel once per session: the workers share the artifact
    // behind an Arc and only re-bind (N, P) per point. A kernel whose
    // canonical instance fails to parse fails each of its points with
    // that error.
    let sessions: HashMap<&'static str, Result<Arc<SweepSession>, String>> = all_kernels()
        .iter()
        .map(|k| {
            let session = SweepSession::new(k, cfg).map_err(|e| e.to_string());
            (k.name, session.map(Arc::new))
        })
        .collect();

    let jobs: Vec<(String, _)> = table2_work(cfg)
        .into_iter()
        .map(|(k, size, p)| {
            let session = sessions[k.name].clone();
            let label = format!("{} n={size} p={p}", k.name);
            let inner_label = label.clone();
            let job = move || {
                let failed = |e: String| (inner_label.clone(), e);
                let session = session.as_ref().map_err(|e| failed(e.clone()))?;
                session.evaluate(size, p).map_err(|e| failed(e.to_string()))
            };
            (label, job)
        })
        .collect();
    let (outcomes, mut failures) = run_batch(jobs, &cfg.harness);

    let mut samples = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(sample) => samples.push(sample),
            Err((label, msg)) => failures.push(SweepFailure {
                label,
                failure: JobFailure::Errored(msg),
                attempts: 1,
            }),
        }
    }
    samples.sort_by(|a, b| (&a.app, a.size, a.procs).cmp(&(&b.app, b.size, b.procs)));

    // Aggregate per application.
    let mut rows = Vec::new();
    for k in all_kernels() {
        let ss: Vec<&AccuracySample> = samples.iter().filter(|s| s.app == k.name).collect();
        if ss.is_empty() {
            continue;
        }
        let min_err = ss
            .iter()
            .map(|s| s.abs_error_pct)
            .fold(f64::INFINITY, f64::min);
        let max_err = ss.iter().map(|s| s.abs_error_pct).fold(0.0, f64::max);
        rows.push(Table2Row {
            app: k.name.to_string(),
            sizes: (
                ss.iter().map(|s| s.size).min().unwrap_or(0),
                ss.iter().map(|s| s.size).max().unwrap_or(0),
            ),
            procs: (
                ss.iter().map(|s| s.procs).min().unwrap_or(0),
                ss.iter().map(|s| s.procs).max().unwrap_or(0),
            ),
            min_err_pct: min_err,
            max_err_pct: max_err,
            samples: ss.len(),
        });
    }
    Table2Output {
        rows,
        samples,
        failures,
    }
}

/// Table 2's sweep points: every kernel at each of its sizes up to
/// `cfg.max_size`, on each of `cfg.proc_counts`.
fn table2_work(cfg: &SweepConfig) -> Vec<(Kernel, usize, usize)> {
    let mut work = Vec::new();
    for k in all_kernels() {
        for size in k.sweep_sizes() {
            if cfg.max_size.is_some_and(|cap| size > cap) {
                continue;
            }
            for &p in &cfg.proc_counts {
                work.push((k.clone(), size, p));
            }
        }
    }
    work
}

/// Table 2 as `bin/table2` prints it: the table of a sweep with `runs`
/// simulated runs per measurement, then its error summary.
pub fn table2_text(rows: &[Table2Row], runs: usize) -> String {
    let mut out = String::from("Table 2: Accuracy of the Performance Prediction Framework\n");
    let _ = writeln!(
        out,
        "(measured = mean of {runs} simulated runs with load jitter)\n"
    );
    out.push_str(
        "Name               Problem Sizes    System Size   Min Abs Error   Max Abs Error\n",
    );
    out.push_str("                   (data elements)  (# procs)     (%)             (%)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>6} - {:<7} {} - {:<9} {:>6.2}%         {:>6.2}%\n",
            r.app, r.sizes.0, r.sizes.1, r.procs.0, r.procs.1, r.min_err_pct, r.max_err_pct
        ));
    }
    out.push('\n');
    let worst = rows.iter().map(|r| r.max_err_pct).fold(0.0f64, f64::max);
    let best = rows
        .iter()
        .map(|r| r.min_err_pct)
        .fold(f64::INFINITY, f64::min);
    let _ = writeln!(
        out,
        "worst-case max error : {worst:.2}%  (paper: 18.6%, \"within 20%\")"
    );
    let _ = writeln!(out, "best-case  min error : {best:.3}%  (paper: 0.00%)");
    let max_where = |kernel: bool| {
        rows.iter()
            .filter(|r| kernels::kernel_by_name(&r.app).is_some_and(|k| k.is_kernel == kernel))
            .map(|r| r.max_err_pct)
            .fold(0.0, f64::max)
    };
    let _ = writeln!(
        out,
        "kernels max error    : {:.2}%   applications max error: {:.2}%",
        max_where(true),
        max_where(false)
    );
    out
}

/// One point of the Figures 4/5 Laplace curves.
#[derive(Debug, Clone, Serialize)]
pub struct LaplacePoint {
    pub dist: String,
    pub procs: usize,
    pub size: usize,
    pub estimated_s: f64,
    pub measured_s: f64,
}

/// Reproduce the Figure 4/5 data: estimated and measured execution time of
/// the Laplace solver for the three distributions, sizes stepping by 16.
pub fn laplace_curves(procs: usize, max_size: usize, runs: usize) -> Vec<LaplacePoint> {
    let mut pts = Vec::new();
    for dist in [
        LaplaceDist::BlockBlock,
        LaplaceDist::BlockStar,
        LaplaceDist::StarBlock,
    ] {
        let kernel = Kernel {
            kind: KernelKind::Laplace(dist),
            name: "Laplace",
            description: "",
            is_kernel: false,
            size_range: (16, max_size),
        };
        let cfg = SweepConfig {
            runs,
            ..Default::default()
        };
        // One compile-once session per distribution; the curve only
        // re-binds N at each size step.
        let Ok(session) = SweepSession::new(&kernel, &cfg) else {
            continue;
        };
        let mut size = 16;
        while size <= max_size {
            if let Ok(s) = session.evaluate(size, procs) {
                pts.push(LaplacePoint {
                    dist: dist.label().to_string(),
                    procs,
                    size,
                    estimated_s: s.predicted_s,
                    measured_s: s.measured_s,
                });
            }
            size += 16;
        }
    }
    pts
}

/// Figures 4 and 5 as `bin/figures4_5` prints them (4 and 8 processors,
/// sizes up to `max_size`, `runs` simulated runs per point), with every
/// point of both.
pub fn figures4_5(runs: usize, max_size: usize) -> (String, Vec<LaplacePoint>) {
    let mut out = String::new();
    let mut all_points = Vec::new();
    for (fig, procs, grid) in [(4, 4, "2x2 / 4"), (5, 8, "2x4 / 8")] {
        let _ = writeln!(
            out,
            "Figure {fig}: Laplace Solver ({procs} Procs, grids {grid}) — estimated/measured (s)\n"
        );
        let pts = laplace_curves(procs, max_size, runs);
        let _ = writeln!(
            out,
            "{:>5}  {:>12} {:>12}   {:>12} {:>12}   {:>12} {:>12}",
            "N", "est(B,B)", "meas(B,B)", "est(B,*)", "meas(B,*)", "est(*,B)", "meas(*,B)"
        );
        let mut sizes: Vec<usize> = pts.iter().map(|p| p.size).collect();
        sizes.sort_unstable();
        sizes.dedup();
        for size in &sizes {
            let get = |d: &str| {
                pts.iter()
                    .find(|p| p.size == *size && p.dist == d)
                    .map(|p| (p.estimated_s, p.measured_s))
                    .unwrap_or((f64::NAN, f64::NAN))
            };
            let (bb, bs, sb) = (get("(Blk,Blk)"), get("(Blk,*)"), get("(*,Blk)"));
            let _ = writeln!(
                out,
                "{:>5}  {:>12.6} {:>12.6}   {:>12.6} {:>12.6}   {:>12.6} {:>12.6}",
                size, bb.0, bb.1, bs.0, bs.1, sb.0, sb.1
            );
        }
        // Directive-selection check at the largest size.
        if let Some(&n) = sizes.last() {
            let at_n = || pts.iter().filter(|p| p.size == n);
            let best_est = at_n()
                .min_by(|a, b| a.estimated_s.total_cmp(&b.estimated_s))
                .unwrap();
            let best_meas = at_n()
                .min_by(|a, b| a.measured_s.total_cmp(&b.measured_s))
                .unwrap();
            let max_err = at_n()
                .map(|p| 100.0 * (p.estimated_s - p.measured_s).abs() / p.measured_s)
                .fold(0.0f64, f64::max);
            let _ = writeln!(
                out,
                "\nat N={n}: predicted best = {}, measured best = {}, max |err| = {max_err:.1}%\n",
                best_est.dist, best_meas.dist
            );
        }
        all_points.extend(pts);
    }
    (out, all_points)
}

/// Figure 3 as `bin/figure3` prints it.
pub fn figure3_text(n: usize, procs: usize) -> String {
    format!(
        "Figure 3: Laplace Solver - Data Distributions ({procs} processors, {n}x{n})\n\n{}\n",
        figure3(n, procs)
    )
}

/// Figure 3: ASCII rendering of the three Laplace data distributions on
/// `procs` processors (ownership of an `n × n` template).
pub fn figure3(n: usize, procs: usize) -> String {
    let mut out = String::new();
    for dist in [
        LaplaceDist::BlockBlock,
        LaplaceDist::BlockStar,
        LaplaceDist::StarBlock,
    ] {
        let kernel = Kernel {
            kind: KernelKind::Laplace(dist),
            name: "Laplace",
            description: "",
            is_kernel: false,
            size_range: (n, n),
        };
        let src = kernel.source(n, procs);
        let spmd = compile_source(
            &src,
            procs,
            &Default::default(),
            &CompileOptions {
                nodes: procs,
                ..Default::default()
            },
        )
        .expect("laplace compiles")
        .spmd;
        let u = spmd.dist.get("U").expect("U mapped");
        out.push_str(&format!("{}\n", dist.label()));
        for i in 1..=n as i64 {
            out.push_str("  ");
            for j in 1..=n as i64 {
                let mut coords = vec![0i64; spmd.grid.extents.len()];
                for (d, &idx) in [i, j].iter().enumerate() {
                    if let Some(pd) = u.dims[d].pdim() {
                        coords[pd] = u.owner_coord(d, idx);
                    }
                }
                let owner = spmd.grid.node_of(&coords);
                out.push_str(&format!("{owner}"));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Figure 7: per-phase comp/comm/overhead profile of the financial model.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseProfile {
    pub phase: String,
    pub comp_us: f64,
    pub comm_us: f64,
    pub overhead_us: f64,
}

/// Reproduce Figure 7 (stock option pricing, per-phase breakdown).
pub fn figure7(size: usize, procs: usize) -> Vec<PhaseProfile> {
    let kernel = kernels::kernel_by_name("Financial").expect("financial kernel");
    let src = kernel.source(size, procs);
    let (pred, bound) =
        crate::predict_source_full(&src, &PredictOptions::with_nodes(procs)).expect("predicts");

    // Phase 1 = the backward-induction DO loop (creates the price lattice,
    // shift per step); Phase 2 = the final call-price forall (local).
    let do_line = src
        .lines()
        .position(|l| l.trim_start().starts_with("DO K"))
        .expect("phase 1 loop") as u32
        + 1;
    let phase2_line = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("FORALL (I = 1:N) C(I)"))
        .map(|(i, _)| i as u32 + 1)
        .last()
        .expect("phase 2 forall");

    let p1 = interp::query_line(&pred, &bound.aag, do_line);
    let p2 = interp::query_line(&pred, &bound.aag, phase2_line);
    vec![
        PhaseProfile {
            phase: "Phase 1 (create price lattice)".into(),
            comp_us: p1.comp * 1e6,
            comm_us: p1.comm * 1e6,
            overhead_us: p1.overhead * 1e6,
        },
        PhaseProfile {
            phase: "Phase 2 (compute call prices)".into(),
            comp_us: p2.comp * 1e6,
            comm_us: p2.comm * 1e6,
            overhead_us: p2.overhead * 1e6,
        },
    ]
}

/// Figures 6 and 7 as `bin/figure7` prints them: the financial model's
/// phases, then its per-phase profile as a table and as ASCII bars
/// scaled to the tallest phase.
pub fn figure7_text(size: usize, procs: usize) -> String {
    let mut out = String::from(
        "Figure 6: Financial Model — Application Phases\n  \
         Phase 1: create stock price lattice (backward induction, shift per step)\n  \
         Phase 2: compute call prices (local, no communication)\n\n\
         Figure 7: Stock Option Pricing — Interpreted Performance Profile\n",
    );
    let _ = writeln!(out, "  Procs = {procs}; Size = {size}\n");
    let phases = figure7(size, procs);
    let _ = writeln!(
        out,
        "{:<36} {:>12} {:>12} {:>12}",
        "Phase", "Comp (µs)", "Comm (µs)", "Ovhd (µs)"
    );
    for p in &phases {
        let _ = writeln!(
            out,
            "{:<36} {:>12.1} {:>12.1} {:>12.1}",
            p.phase, p.comp_us, p.comm_us, p.overhead_us
        );
    }
    out.push('\n');
    let max: f64 = phases
        .iter()
        .map(|p| p.comp_us + p.comm_us + p.overhead_us)
        .fold(0.0, f64::max)
        .max(1.0);
    for p in &phases {
        let w = |x: f64| ((x / max) * 50.0).round() as usize;
        let _ = writeln!(
            out,
            "{:<10} [{}{}{}]",
            p.phase.split(' ').take(2).collect::<Vec<_>>().join(" "),
            "#".repeat(w(p.comp_us)),
            "~".repeat(w(p.comm_us)),
            "+".repeat(w(p.overhead_us)),
        );
    }
    out.push_str("           # computation   ~ communication   + overhead\n");
    out
}

/// One modeling decision the ablation table removes.
struct Ablation {
    name: &'static str,
    interp: InterpOptions,
    /// Strip the measured calibration (pure instruction-count model)?
    uncalibrated: bool,
    /// Compiler loop-reordering optimization on?
    loop_reorder: bool,
}

/// The model ablations as `bin/ablations` prints them (DESIGN.md §5): the
/// |error| against the simulated machine of five applications on 4
/// processors, with each modeling decision of the interpretation engine
/// removed in turn.
pub fn ablations_text() -> String {
    let procs = 4usize;
    let cfg = SweepConfig {
        runs: 200,
        ..SweepConfig::quick()
    };
    let apps = [
        ("PI", 1024usize),
        ("LFK 1", 1024),
        ("LFK 22", 1024),
        ("Laplace (X-Blk)", 128),
        ("Financial", 256),
    ];
    let ablations = [
        Ablation {
            name: "full model",
            interp: InterpOptions::default(),
            uncalibrated: false,
            loop_reorder: false,
        },
        Ablation {
            name: "no memory hierarchy",
            interp: InterpOptions {
                memory_hierarchy: false,
                ..Default::default()
            },
            uncalibrated: false,
            loop_reorder: false,
        },
        Ablation {
            name: "with comp/comm overlap",
            interp: InterpOptions {
                overlap_comp_comm: true,
                ..Default::default()
            },
            uncalibrated: false,
            loop_reorder: false,
        },
        Ablation {
            name: "uncalibrated machine",
            interp: InterpOptions::default(),
            uncalibrated: true,
            loop_reorder: false,
        },
        Ablation {
            name: "loop reordering opt.",
            interp: InterpOptions::default(),
            uncalibrated: false,
            loop_reorder: true,
        },
    ];
    let calibrated = calibrated_machine_for(hpf_machines::DEFAULT_MACHINE, procs)
        .expect("the paper's machine runs on 4 nodes");
    let uncalibrated = MachineModel {
        calibration: None,
        ..(*calibrated).clone()
    };
    let raw = machine_params(hpf_machines::DEFAULT_MACHINE, procs)
        .expect("the paper's machine runs on 4 nodes");
    let compile = |src: &str, loop_reorder: bool| {
        let copts = CompileOptions {
            loop_reorder,
            ..Default::default()
        };
        compile_source(src, procs, &Default::default(), &copts).expect("compile")
    };

    // Ground truth is independent of the ablation (the machine does not
    // change because our model of it does): each application is compiled,
    // profiled and simulated once.
    let truths: Vec<_> = apps
        .iter()
        .map(|(name, size)| {
            let src = kernels::kernel_by_name(name)
                .expect("kernel")
                .source(*size, procs);
            let bound = compile(&src, false);
            let profile = profile_with_limit(&bound.analyzed, cfg.profile_steps);
            let sim = Simulator::with_config(
                &raw,
                SimConfig {
                    runs: cfg.runs,
                    ..Default::default()
                },
            );
            let measured = sim.simulate(&bound.spmd, profile.as_ref()).mean;
            (src, bound, measured)
        })
        .collect();

    let mut out =
        format!("Model ablations — mean |error| vs the simulated machine ({procs} procs)\n\n");
    let _ = write!(out, "{:<24}", "ablation");
    for (name, _) in &apps {
        let _ = write!(out, " {name:>16}");
    }
    let _ = writeln!(out, " {:>9}", "mean");
    for ab in &ablations {
        let machine = if ab.uncalibrated {
            &uncalibrated
        } else {
            &*calibrated
        };
        let engine = InterpretationEngine::with_options(machine, ab.interp.clone());
        let _ = write!(out, "{:<24}", ab.name);
        let mut errs = Vec::new();
        for (src, bound, measured) in &truths {
            let predicted = if ab.loop_reorder {
                engine.interpret(&compile(src, true).aag)
            } else {
                engine.interpret(&bound.aag)
            };
            let err = 100.0 * (predicted.total_seconds() - measured).abs() / measured;
            errs.push(err);
            let _ = write!(out, " {err:>15.1}%");
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let _ = writeln!(out, " {mean:>8.1}%");
    }
    out.push_str(
        "\nReading: removing the memory-hierarchy model or the measured calibration\n\
         should inflate errors; overlap barely matters on the NX-style network\n\
         (little overlap capacity); loop reordering changes the *program*, so its\n\
         row shows model-vs-unoptimized-machine mismatch.\n",
    );
    out
}

/// Figure 2 as `bin/figure2` prints it.
pub fn figure2_text() -> String {
    let (spmd, aag) = figure2();
    format!(
        "Figure 2: Abstraction of the forall statement\n\n\
         source:  FORALL (K=2:N-1, V(K) .GT. 0.0)  X(K+1) = X(K) + G(K)\n\n\
         Phase 1 — loosely synchronous SPMD structure:\n{spmd}\n\
         Phase 2 — sub-AAG (application abstraction):\n{aag}\n"
    )
}

/// Figure 2: the abstraction of the paper's forall example, shown as the
/// Phase-1 SPMD structure and the Phase-2 sub-AAG.
pub fn figure2() -> (String, String) {
    let src = "
PROGRAM FIG2
INTEGER, PARAMETER :: N = 64
REAL X(N), V(N), G(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN X(I) WITH T(I)
!HPF$ ALIGN V(I) WITH T(I)
!HPF$ ALIGN G(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=2:N-1, V(K) .GT. 0.0) X(K+1) = X(K) + G(K)
END
";
    let bound = compile_source(
        src,
        4,
        &Default::default(),
        &CompileOptions {
            nodes: 4,
            ..Default::default()
        },
    )
    .expect("figure 2 compiles");
    (bound.spmd.outline(), bound.aag.outline())
}

/// Figure 8's experimentation-time model as `bin/figure8` prints it: for
/// each Laplace variant, 16 instances on the shared 8-node iPSC/860, the
/// minutes the interpretive path takes against the measurement path.
pub fn figure8_text() -> String {
    let machine = machine::ipsc860(8);
    let model = crate::workflow::WorkflowModel::default();
    let mut out = String::from(
        "Figure 8: Experimentation Time — Laplace Solver (16 instances per variant)\n\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>18} {:>18}",
        "Impl.", "Interpreter (min)", "iPSC/860 (min)"
    );
    let variants = [
        (LaplaceDist::BlockBlock, 0.065),
        (LaplaceDist::BlockStar, 0.050),
        (LaplaceDist::StarBlock, 0.110),
    ];
    for (dist, mean_run_s) in variants {
        let t = model.variant_times(&machine, dist.label(), 16, 1000, mean_run_s);
        let _ = writeln!(
            out,
            "{:<12} {:>18.1} {:>18.1}",
            t.variant, t.interpreter_min, t.measured_min
        );
    }
    out.push_str("\n(paper: interpreter ≈10 min per variant; measurements 27–60 min)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_accuracy_sample_in_band() {
        let k = kernels::kernel_by_name("PI").unwrap();
        let s = accuracy_sample(&k, 512, 4, &SweepConfig::quick()).unwrap();
        assert!(s.predicted_s > 0.0 && s.measured_s > 0.0);
        assert!(s.abs_error_pct < 25.0, "error {:.1}%", s.abs_error_pct);
    }

    /// The whole trimmed Table 2 sweep, which evaluates every point
    /// through a compile-once session, must be bit-identical to the
    /// from-scratch [`accuracy_sample`] over the same work list — every
    /// predicted and measured field, compared by `to_bits`.
    #[test]
    fn table2_shared_artifacts_bit_identical_to_scratch() {
        let cfg = SweepConfig {
            proc_counts: vec![1, 4],
            max_size: Some(128),
            runs: 5,
            profile_steps: 300_000,
            harness: HarnessConfig {
                timeout: Some(std::time::Duration::from_secs(120)),
                retries: 0,
            },
            machine: hpf_machines::DEFAULT_MACHINE.to_string(),
        };

        let shared = table2(&cfg);
        let mut scratch: Vec<AccuracySample> = table2_work(&cfg)
            .iter()
            .map(|(k, size, p)| accuracy_sample(k, *size, *p, &cfg).unwrap())
            .collect();
        scratch.sort_by(|a, b| (&a.app, a.size, a.procs).cmp(&(&b.app, b.size, b.procs)));

        assert!(shared.failures.is_empty(), "{:?}", shared.failures);
        assert_eq!(shared.samples.len(), scratch.len());
        for (a, b) in shared.samples.iter().zip(&scratch) {
            assert_eq!(a.app, b.app);
            assert_eq!((a.size, a.procs), (b.size, b.procs));
            let ctx = format!("{} n={} p={}", a.app, a.size, a.procs);
            assert_eq!(
                a.predicted_s.to_bits(),
                b.predicted_s.to_bits(),
                "predicted_s drifted: {ctx}"
            );
            assert_eq!(
                a.measured_s.to_bits(),
                b.measured_s.to_bits(),
                "measured_s drifted: {ctx}"
            );
            assert_eq!(
                a.measured_std_s.to_bits(),
                b.measured_std_s.to_bits(),
                "measured_std_s drifted: {ctx}"
            );
            assert_eq!(
                a.abs_error_pct.to_bits(),
                b.abs_error_pct.to_bits(),
                "abs_error_pct drifted: {ctx}"
            );
        }
    }

    #[test]
    fn figure3_partitions_every_cell() {
        let f = figure3(8, 4);
        assert!(f.contains("(Blk,*)"));
        // (Blk,*): first row of the grid owned by 0, last by 3
        let sect: Vec<&str> = f.split("(Blk,*)").nth(1).unwrap().lines().collect();
        assert!(sect[1].trim().chars().all(|c| c == '0'));
        assert!(sect[8].trim().chars().all(|c| c == '3'));
    }

    #[test]
    fn figure2_shapes() {
        let (spmd, aag) = figure2();
        assert!(spmd.contains("Comm"), "{spmd}");
        assert!(spmd.contains("Comp"), "{spmd}");
        assert!(aag.contains("IterD"), "{aag}");
        assert!(aag.contains("CondtD"), "{aag}");
    }

    #[test]
    fn figure7_phase1_communicates_phase2_does_not() {
        let phases = figure7(256, 4);
        assert_eq!(phases.len(), 2);
        assert!(phases[0].comm_us > 0.0, "phase 1 shifts: {phases:?}");
        assert_eq!(phases[1].comm_us, 0.0, "phase 2 is local: {phases:?}");
    }

    #[test]
    fn laplace_curves_monotone_in_size() {
        let pts = laplace_curves(4, 64, 20);
        let bs: Vec<&LaplacePoint> = pts.iter().filter(|p| p.dist == "(Blk,*)").collect();
        assert!(bs.len() >= 2);
        assert!(bs.last().unwrap().measured_s > bs[0].measured_s);
        assert!(bs.last().unwrap().estimated_s > bs[0].estimated_s);
    }
}
