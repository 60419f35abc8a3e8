//! Checkpoint/restart experiment: composes the parallel-I/O subsystem
//! (`hpf-io`) with the PR-1 [`FaultPlan`] machinery.
//!
//! Scenario: an out-of-core kernel runs to a node failure mid-sweep, the
//! survivors restart from the last durable checkpoint (a striped READ of
//! the checkpointed arrays) and re-execute the lost work on the *degraded*
//! machine. Each row sweeps the checkpoint count and reports the expected
//! recovery cost twice — once from the analytic interpreter's phase times,
//! once from the discrete-event simulator's — so checkpoint-interval policy
//! can be evaluated in the same predicted-vs-simulated frame as Table 2.

use crate::pipeline::{
    calibrated_machine_for, compile_source, machine_params, profile_with_limit, PipelineError,
    PipelineStage,
};
use hpf_compiler::CompileOptions;
use hpf_io::{CheckpointSchedule, IoKind, IoPhase};
use hpf_machines::DEFAULT_MACHINE;
use ipsc_sim::{io_base_time, SimConfig, Simulator};
use machine::{FaultPlan, MachineModel};
use serde::Serialize;

/// One checkpoint-count row, with both measurement frames.
#[derive(Debug, Clone, Serialize)]
pub struct CheckpointRow {
    /// Checkpoints taken in a failure-free run.
    pub checkpoints: usize,
    /// Useful work between checkpoints, seconds (predicted frame).
    pub interval_s: f64,
    pub predicted_healthy_s: f64,
    /// Expected extra cost of one uniformly-placed failure (restart read
    /// plus lost work re-executed on the degraded machine).
    pub predicted_recovery_s: f64,
    pub predicted_total_s: f64,
    pub simulated_healthy_s: f64,
    pub simulated_recovery_s: f64,
    pub simulated_total_s: f64,
}

/// Configuration of one checkpoint/restart campaign.
#[derive(Debug, Clone)]
pub struct CheckpointExperimentConfig {
    /// Out-of-core kernel to run (must contain CHECKPOINT and READ phases).
    pub kernel: String,
    pub size: usize,
    pub procs: usize,
    /// Simulated runs per measurement.
    pub runs: usize,
    pub profile_steps: u64,
    /// The failure: after restart the survivors run with this plan's
    /// degradation (the I/O servers themselves stay healthy, matching
    /// `FaultPlan::degrade`).
    pub plan: FaultPlan,
    /// Checkpoint counts to sweep (0 = no checkpoints, full rerun).
    pub checkpoint_counts: Vec<usize>,
}

impl Default for CheckpointExperimentConfig {
    fn default() -> Self {
        CheckpointExperimentConfig {
            kernel: "Laplace OOC".into(),
            size: 64,
            procs: 8,
            runs: 50,
            profile_steps: 5_000_000,
            plan: FaultPlan::slow_node(1, 2.0),
            checkpoint_counts: vec![0, 1, 2, 4, 8],
        }
    }
}

/// The schedule for one frame (predicted or simulated phase times).
fn schedule(
    work_s: f64,
    checkpoints: usize,
    checkpoint_s: f64,
    restart_s: f64,
) -> CheckpointSchedule {
    let interval_s = if checkpoints == 0 {
        0.0
    } else {
        work_s / (checkpoints + 1) as f64
    };
    CheckpointSchedule {
        work_s,
        interval_s,
        checkpoint_s,
        restart_s,
    }
}

/// Expected recovery with the lost work re-executed on the degraded
/// machine: the restart read (I/O servers healthy) plus the expected lost
/// interval scaled by the plan's slowdown ratio. Strictly monotone in the
/// schedule's interval for any ratio ≥ 0 — the composition property the
/// tests pin.
fn degraded_recovery_s(s: &CheckpointSchedule, degrade_ratio: f64) -> f64 {
    let lost = if s.interval_s <= 0.0 {
        s.work_s / 2.0
    } else {
        s.interval_s.min(s.work_s) / 2.0
    };
    s.restart_s + lost * degrade_ratio
}

/// Run the campaign: one row per checkpoint count.
pub fn checkpoint_experiment(
    cfg: &CheckpointExperimentConfig,
) -> Result<Vec<CheckpointRow>, PipelineError> {
    let kernel = kernels::kernel_by_name(&cfg.kernel).ok_or_else(|| {
        PipelineError::new(
            PipelineStage::Sweep,
            format!("unknown kernel {:?}", cfg.kernel),
        )
    })?;
    let healthy = calibrated_machine_for(DEFAULT_MACHINE, cfg.procs)?;
    let raw = machine_params(DEFAULT_MACHINE, cfg.procs)?;
    let src = kernel.source(cfg.size, cfg.procs);
    let bound = compile_source(
        &src,
        cfg.procs,
        &Default::default(),
        &CompileOptions {
            nodes: cfg.procs,
            ..Default::default()
        },
    )?;

    // The restart read and per-checkpoint cost come from the kernel's own
    // I/O phases — the same descriptors both pricing models see.
    let phases = bound.spmd.io_phases();
    let read = phase_of(&phases, IoKind::Read).ok_or_else(|| {
        PipelineError::new(
            PipelineStage::Io,
            format!("{} has no READ phase", cfg.kernel),
        )
    })?;
    let ckpt = phase_of(&phases, IoKind::Checkpoint).ok_or_else(|| {
        PipelineError::new(
            PipelineStage::Io,
            format!("{} has no CHECKPOINT phase", cfg.kernel),
        )
    })?;

    let profile = profile_with_limit(&bound.analyzed, cfg.profile_steps);

    // Predicted frame: analytic engine on the calibrated machine, healthy
    // and degraded. Work is the non-I/O share of the prediction.
    let degraded = healthy.degrade(&cfg.plan);
    let (work_p, ckpt_p, restart_p) = predicted_frame(&healthy, &bound.aag, ckpt, read);
    let (work_p_deg, _, _) = predicted_frame(&degraded, &bound.aag, ckpt, read);
    let ratio_p = if work_p > 0.0 {
        work_p_deg / work_p
    } else {
        1.0
    };

    // Simulated frame: the DES, healthy and with the plan injected.
    let sim = Simulator::with_config(
        &raw,
        SimConfig {
            runs: cfg.runs,
            ..Default::default()
        },
    );
    let meas = sim.simulate(&bound.spmd, profile.as_ref());
    let work_s = (meas.mean - meas.io).max(0.0);
    let sim_deg = Simulator::with_config(
        &raw,
        SimConfig {
            runs: cfg.runs,
            faults: cfg.plan.clone(),
            ..Default::default()
        },
    );
    let meas_deg = sim_deg.simulate(&bound.spmd, profile.as_ref());
    let work_s_deg = (meas_deg.mean - meas_deg.io).max(0.0);
    let ratio_s = if work_s > 0.0 {
        work_s_deg / work_s
    } else {
        1.0
    };
    let ckpt_s = io_base_time(&raw, ckpt);
    let restart_s = io_base_time(&raw, read);

    let mut rows = Vec::new();
    for &k in &cfg.checkpoint_counts {
        let sp = schedule(work_p, k, ckpt_p, restart_p);
        let ss = schedule(work_s, k, ckpt_s, restart_s);
        let rec_p = degraded_recovery_s(&sp, ratio_p);
        let rec_s = degraded_recovery_s(&ss, ratio_s);
        rows.push(CheckpointRow {
            checkpoints: k,
            interval_s: sp.interval_s,
            predicted_healthy_s: sp.healthy_run_s(),
            predicted_recovery_s: rec_p,
            predicted_total_s: sp.healthy_run_s() + rec_p,
            simulated_healthy_s: ss.healthy_run_s(),
            simulated_recovery_s: rec_s,
            simulated_total_s: ss.healthy_run_s() + rec_s,
        });
    }
    Ok(rows)
}

fn phase_of<'a>(phases: &[&'a IoPhase], kind: IoKind) -> Option<&'a IoPhase> {
    phases.iter().find(|p| p.kind == kind).copied()
}

fn predicted_frame(
    machine: &MachineModel,
    aag: &appgraph::Aag,
    ckpt: &IoPhase,
    read: &IoPhase,
) -> (f64, f64, f64) {
    let engine = interp::InterpretationEngine::new(machine);
    let p = engine.interpret(aag);
    let work = (p.total.time() - p.total.io).max(0.0);
    (
        work,
        hpf_io::phase_time_on(machine, ckpt),
        hpf_io::phase_time_on(machine, read),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CheckpointExperimentConfig {
        CheckpointExperimentConfig {
            size: 32,
            procs: 4,
            runs: 20,
            ..Default::default()
        }
    }

    #[test]
    fn recovery_completes_and_is_monotone_in_interval() {
        // The FaultPlan × checkpoint composition property: recovery is
        // finite and positive, and grows (weakly) as checkpoints get
        // sparser — i.e. it is monotone in the checkpoint interval.
        let cfg = quick_cfg();
        let rows = checkpoint_experiment(&cfg).unwrap();
        assert_eq!(rows.len(), cfg.checkpoint_counts.len());
        // Sort by interval (count 0 means "no checkpoints" = the largest
        // effective interval, the whole run).
        let mut by_interval: Vec<&CheckpointRow> = rows.iter().collect();
        by_interval.sort_by(|a, b| {
            let ia = if a.checkpoints == 0 {
                f64::MAX
            } else {
                a.interval_s
            };
            let ib = if b.checkpoints == 0 {
                f64::MAX
            } else {
                b.interval_s
            };
            ia.partial_cmp(&ib).unwrap()
        });
        for w in by_interval.windows(2) {
            assert!(
                w[1].predicted_recovery_s >= w[0].predicted_recovery_s,
                "predicted recovery not monotone: {:?} vs {:?}",
                w[0],
                w[1]
            );
            assert!(
                w[1].simulated_recovery_s >= w[0].simulated_recovery_s,
                "simulated recovery not monotone: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        for r in &rows {
            assert!(r.predicted_recovery_s.is_finite() && r.predicted_recovery_s > 0.0);
            assert!(r.simulated_recovery_s.is_finite() && r.simulated_recovery_s > 0.0);
            assert!(r.predicted_total_s > r.predicted_healthy_s);
            assert!(r.simulated_total_s > r.simulated_healthy_s);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = quick_cfg();
        let a = checkpoint_experiment(&cfg).unwrap();
        let b = checkpoint_experiment(&cfg).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.predicted_total_s.to_bits(), y.predicted_total_s.to_bits());
            assert_eq!(x.simulated_total_s.to_bits(), y.simulated_total_s.to_bits());
        }
    }
}
