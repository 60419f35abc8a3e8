//! The Table-2-style predicted-vs-simulated accuracy sweep for the
//! out-of-core kernels, per machine backend — the validation artifact of
//! the parallel-I/O subsystem (`artifacts_io_accuracy.txt`).
//!
//! Every (kernel × size) point compiles the OOC source once; each machine
//! prices that one bound program with the analytic interpreter on the
//! backend's calibrated model, and measures it with the discrete-event
//! simulator on the raw parameter tables — the same dual-frame contract as
//! the in-core Table 2.
//! The sweep runs on a caller-chosen number of worker threads and is
//! bit-deterministic at every thread count: jobs write into indexed slots
//! and each job is a pure function of its inputs.

use crate::pipeline::{
    calibrated_machine_for, compile_source, machine_params, profile_with_limit, Bound,
    PipelineError,
};
use crate::pool::map_indexed;
use hpf_compiler::CompileOptions;
use interp::{InterpOptions, InterpretationEngine};
use ipsc_sim::{SimConfig, Simulator};
use serde::Serialize;

/// One (machine, kernel, size) point of the I/O accuracy table.
#[derive(Debug, Clone, Serialize)]
pub struct IoAccuracyRow {
    pub machine: String,
    pub app: String,
    pub size: usize,
    pub procs: usize,
    pub predicted_s: f64,
    pub measured_s: f64,
    /// |predicted − measured| / measured, percent.
    pub abs_error_pct: f64,
    /// Predicted I/O share of the total, percent.
    pub io_share_pct: f64,
}

/// Configuration of the sweep.
#[derive(Debug, Clone)]
pub struct IoAccuracyConfig {
    /// Machine backends to cover (default: every registered backend).
    pub machines: Vec<String>,
    pub procs: usize,
    /// Simulated runs per measurement.
    pub runs: usize,
    pub profile_steps: u64,
    /// Worker threads the sweep fans out over (results are identical for
    /// any value ≥ 1).
    pub threads: usize,
}

impl Default for IoAccuracyConfig {
    fn default() -> Self {
        IoAccuracyConfig {
            machines: hpf_machines::machine_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            procs: 8,
            runs: 40,
            profile_steps: 5_000_000,
            threads: 1,
        }
    }
}

/// Run the sweep: one row per (machine × OOC kernel × size), sizes being
/// the kernel's minimum and its double (enough to exercise both fitted
/// regimes without making the table a bench).
pub fn io_accuracy(cfg: &IoAccuracyConfig) -> Result<Vec<IoAccuracyRow>, PipelineError> {
    // Compile and profile each (kernel, size) once, shared across machines.
    struct Artifact {
        app: String,
        size: usize,
        bound: Bound,
        profile: Option<hpf_eval::ExecutionProfile>,
    }
    let mut artifacts = Vec::new();
    for k in kernels::ooc_kernels() {
        let lo = k.size_range.0.max(16);
        for size in [lo, lo * 2] {
            let src = k.source(size, cfg.procs);
            let bound = compile_source(
                &src,
                cfg.procs,
                &Default::default(),
                &CompileOptions {
                    nodes: cfg.procs,
                    ..Default::default()
                },
            )?;
            artifacts.push(Artifact {
                app: k.name.to_string(),
                size,
                profile: profile_with_limit(&bound.analyzed, cfg.profile_steps),
                bound,
            });
        }
    }

    // The work list in fixed (machine, artifact) order.
    let work: Vec<(usize, usize)> = (0..cfg.machines.len())
        .flat_map(|m| (0..artifacts.len()).map(move |a| (m, a)))
        .collect();

    // Fan out over the pool: each job fills its own indexed slot, so
    // assembly order is scheduling-independent.
    map_indexed(work.len(), cfg.threads.max(1), |i| {
        let (mi, ai) = work[i];
        let art = &artifacts[ai];
        point(
            &cfg.machines[mi],
            art.app.clone(),
            art.size,
            cfg,
            &art.bound,
            art.profile.as_ref(),
        )
    })
    .into_iter()
    .collect()
}

fn point(
    machine_name: &str,
    app: String,
    size: usize,
    cfg: &IoAccuracyConfig,
    bound: &Bound,
    profile: Option<&hpf_eval::ExecutionProfile>,
) -> Result<IoAccuracyRow, PipelineError> {
    let calibrated = calibrated_machine_for(machine_name, cfg.procs)?;
    let engine = InterpretationEngine::with_options(&calibrated, InterpOptions::default());
    let pred = engine.interpret(&bound.aag);

    let raw = machine_params(machine_name, cfg.procs)?;
    let sim = Simulator::with_config(
        &raw,
        SimConfig {
            runs: cfg.runs,
            ..Default::default()
        },
    );
    let meas = sim.simulate(&bound.spmd, profile);

    let err = if meas.mean > 0.0 {
        100.0 * (pred.total_seconds() - meas.mean).abs() / meas.mean
    } else {
        0.0
    };
    let io_share = if pred.total_seconds() > 0.0 {
        100.0 * pred.total.io / pred.total_seconds()
    } else {
        0.0
    };
    Ok(IoAccuracyRow {
        machine: machine_name.to_string(),
        app,
        size,
        procs: cfg.procs,
        predicted_s: pred.total_seconds(),
        measured_s: meas.mean,
        abs_error_pct: err,
        io_share_pct: io_share,
    })
}

/// Render the sweep as the pinned text artifact.
pub fn io_accuracy_text(cfg: &IoAccuracyConfig, rows: &[IoAccuracyRow]) -> String {
    let mut out = String::new();
    out.push_str("Out-of-core predicted-vs-simulated accuracy (Table-2 methodology, I/O phases)\n");
    out.push_str(&format!(
        "procs={} runs={} (DES mean); io share = predicted I/O fraction\n\n",
        cfg.procs, cfg.runs
    ));
    out.push_str(
        "machine      app           size   predicted     simulated       err     io share\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<13} {:>5}  {:>9.3}ms  {:>10.3}ms  {:>6.1}%  {:>8.1}%\n",
            r.machine,
            r.app,
            r.size,
            r.predicted_s * 1e3,
            r.measured_s * 1e3,
            r.abs_error_pct,
            r.io_share_pct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(threads: usize) -> IoAccuracyConfig {
        IoAccuracyConfig {
            procs: 4,
            runs: 10,
            threads,
            ..Default::default()
        }
    }

    #[test]
    fn every_backend_within_paper_band() {
        // The acceptance criterion: predicted-vs-simulated error for the
        // OOC kernels stays inside the paper's ±20% band on all four
        // registered backends.
        let rows = io_accuracy(&quick_cfg(1)).unwrap();
        assert_eq!(
            rows.len(),
            hpf_machines::machine_names().len() * kernels::ooc_kernels().len() * 2
        );
        for r in &rows {
            assert!(
                r.abs_error_pct <= 20.0,
                "{} {} n={} err {:.1}% outside ±20%",
                r.machine,
                r.app,
                r.size,
                r.abs_error_pct
            );
            assert!(
                r.io_share_pct > 0.0,
                "{} {} has no I/O share",
                r.machine,
                r.app
            );
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        // Bit-determinism at threads {1, 2, 8}: the artifact must not
        // depend on scheduling.
        let t1 = io_accuracy_text(&quick_cfg(1), &io_accuracy(&quick_cfg(1)).unwrap());
        let t2 = io_accuracy_text(&quick_cfg(2), &io_accuracy(&quick_cfg(2)).unwrap());
        let t8 = io_accuracy_text(&quick_cfg(8), &io_accuracy(&quick_cfg(8)).unwrap());
        assert_eq!(t1, t2);
        assert_eq!(t1, t8);
    }
}
