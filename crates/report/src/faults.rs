//! The fault-injection experiment behind `report --bin faults`: how well
//! does the *degraded-mode* interpretation engine predict execution time
//! when the simulated iPSC/860 is running with injected faults?
//!
//! For each [`FaultPlan`] the experiment produces one row comparing
//!
//! * **predicted** — the analytic prediction against the calibrated machine
//!   degraded by the same plan ([`machine::MachineModel::degrade`]), and
//! * **measured** — the mean of the discrete-event simulation with the plan
//!   injected at the network level ([`ipsc_sim::SimConfig::faults`]).
//!
//! The zero-fault plan runs the *identical* code path as the baseline
//! Table 2 sweep (same profile, same seeds, same caches), so its row
//! reproduces the healthy numbers bit-for-bit — the control that anchors
//! every degraded row.

use crate::pipeline::{
    calibrated_machine_for, compile_source, machine_params, profile_with_limit, PipelineError,
    PredictOptions,
};
use hpf_compiler::CompileOptions;
use hpf_machines::DEFAULT_MACHINE;
use ipsc_sim::{SimConfig, Simulator};
use kernels::Kernel;
use machine::FaultPlan;
use serde::Serialize;

/// One (fault plan) row of the predicted-vs-simulated comparison.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    pub plan: String,
    pub predicted_s: f64,
    pub measured_s: f64,
    pub measured_std_s: f64,
    /// |predicted − measured| / measured, percent.
    pub abs_error_pct: f64,
    /// Fault events accumulated over all simulated runs.
    pub retries: u64,
    pub detours: u64,
    pub undeliverable: u64,
}

/// Configuration of one fault-injection campaign.
#[derive(Debug, Clone)]
pub struct FaultExperimentConfig {
    pub kernel: String,
    pub size: usize,
    pub procs: usize,
    /// Simulated runs per measurement.
    pub runs: usize,
    /// Step budget for the functional-interpreter profile.
    pub profile_steps: u64,
    pub plans: Vec<FaultPlan>,
}

impl Default for FaultExperimentConfig {
    fn default() -> Self {
        FaultExperimentConfig {
            kernel: "Laplace (Blk-X)".into(),
            size: 256,
            procs: 8,
            runs: 200,
            profile_steps: 5_000_000,
            plans: default_plans(),
        }
    }
}

/// The standard plan set: healthy control, one degraded link, one severed
/// link (forcing detours), one slow node, and a lossy network.
pub fn default_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan::degraded_link(0, 1, 4.0),
        FaultPlan::link_down(0, 2),
        FaultPlan::slow_node(1, 2.0),
        FaultPlan::lossy(0.05),
    ]
}

/// Run the campaign: one row per plan. The program is compiled and profiled
/// once; each plan then gets its own degraded prediction and its own
/// fault-injected simulation (deterministic for the fixed `SimConfig` seed
/// and the plan's own fault seed).
pub fn fault_experiment(cfg: &FaultExperimentConfig) -> Result<Vec<FaultRow>, PipelineError> {
    let kernel: Kernel = kernels::kernel_by_name(&cfg.kernel).ok_or_else(|| {
        PipelineError::new(
            crate::pipeline::PipelineStage::Sweep,
            format!("unknown kernel {:?}", cfg.kernel),
        )
    })?;
    let healthy_calibrated = calibrated_machine_for(DEFAULT_MACHINE, cfg.procs)?;
    let healthy_machine = machine_params(DEFAULT_MACHINE, cfg.procs)?;
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
    let profile = profile_with_limit(&bound.analyzed, cfg.profile_steps);

    let popts = PredictOptions::with_nodes(cfg.procs);

    let mut rows = Vec::new();
    for plan in &cfg.plans {
        // Predicted: the analytic engine against the degraded abstraction.
        let degraded = healthy_calibrated.degrade(plan);
        let engine = interp::InterpretationEngine::with_options(&degraded, popts.interp.clone());
        let predicted = engine.interpret(&bound.aag).total_seconds();

        // Measured: the DES with the plan injected at the network level.
        let sim = Simulator::with_config(
            &healthy_machine,
            SimConfig {
                runs: cfg.runs,
                faults: plan.clone(),
                ..Default::default()
            },
        );
        let meas = sim.simulate(&bound.spmd, profile.as_ref());

        let err = if meas.mean > 0.0 {
            100.0 * (predicted - meas.mean).abs() / meas.mean
        } else {
            0.0
        };
        rows.push(FaultRow {
            plan: plan.name.clone(),
            predicted_s: predicted,
            measured_s: meas.mean,
            measured_std_s: meas.std,
            abs_error_pct: err,
            retries: meas.fault_stats.retries,
            detours: meas.fault_stats.detours,
            undeliverable: meas.fault_stats.undeliverable,
        });
    }
    Ok(rows)
}

/// Render the campaign as a text table.
pub fn fault_table_text(cfg: &FaultExperimentConfig, rows: &[FaultRow]) -> String {
    let mut out = String::new();
    out.push_str("Fault plan                  Predicted    Simulated    (± std)      Err     Retries  Detours  Undeliv.\n");
    for r in rows {
        out.push_str(&format!(
            "{:<27} {:>9.3}ms  {:>9.3}ms  (±{:>6.3}ms)  {:>5.1}%  {:>7}  {:>7}  {:>7}\n",
            r.plan,
            r.predicted_s * 1e3,
            r.measured_s * 1e3,
            r.measured_std_s * 1e3,
            r.abs_error_pct,
            r.retries,
            r.detours,
            r.undeliverable,
        ));
    }
    out.push_str(&format!(
        "({} n={} p={}, {} simulated runs per plan)\n",
        cfg.kernel, cfg.size, cfg.procs, cfg.runs
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{accuracy_sample, SweepConfig};

    fn quick_cfg() -> FaultExperimentConfig {
        FaultExperimentConfig {
            kernel: "PI".into(),
            size: 512,
            procs: 4,
            runs: 50,
            profile_steps: 5_000_000,
            plans: default_plans(),
        }
    }

    #[test]
    fn zero_fault_row_reproduces_baseline_exactly() {
        // The acceptance criterion: the "none" plan must reproduce the
        // healthy Table 2 numbers exactly (same code path, same seeds).
        let cfg = quick_cfg();
        let rows = fault_experiment(&cfg).unwrap();
        let none = &rows[0];
        assert_eq!(none.plan, "none");

        let k = kernels::kernel_by_name("PI").unwrap();
        let sweep = SweepConfig {
            runs: cfg.runs,
            profile_steps: cfg.profile_steps,
            ..SweepConfig::quick()
        };
        let baseline = accuracy_sample(&k, cfg.size, cfg.procs, &sweep).unwrap();
        assert_eq!(none.predicted_s.to_bits(), baseline.predicted_s.to_bits());
        assert_eq!(none.measured_s.to_bits(), baseline.measured_s.to_bits());
        assert_eq!(
            none.measured_std_s.to_bits(),
            baseline.measured_std_s.to_bits()
        );
        assert_eq!((none.retries, none.detours, none.undeliverable), (0, 0, 0));
    }

    #[test]
    fn campaign_is_deterministic_for_fixed_seed() {
        let cfg = quick_cfg();
        let a = fault_experiment(&cfg).unwrap();
        let b = fault_experiment(&cfg).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plan, y.plan);
            assert_eq!(x.predicted_s.to_bits(), y.predicted_s.to_bits());
            assert_eq!(x.measured_s.to_bits(), y.measured_s.to_bits());
            assert_eq!(x.measured_std_s.to_bits(), y.measured_std_s.to_bits());
            assert_eq!(
                (x.retries, x.detours, x.undeliverable),
                (y.retries, y.detours, y.undeliverable)
            );
        }
    }

    #[test]
    fn faulty_plans_cost_more_and_are_tracked() {
        let cfg = quick_cfg();
        let rows = fault_experiment(&cfg).unwrap();
        let healthy = rows[0].measured_s;
        for r in &rows[1..] {
            assert!(
                r.measured_s > healthy,
                "{} should be slower than healthy ({} vs {healthy})",
                r.plan,
                r.measured_s
            );
            // Degraded predictions move in the same direction.
            assert!(
                r.predicted_s > rows[0].predicted_s,
                "{} prediction did not degrade",
                r.plan
            );
        }
        let lossy = rows.iter().find(|r| r.plan.starts_with("lossy")).unwrap();
        assert!(lossy.retries > 0, "lossy plan should record retries");
        let severed = rows
            .iter()
            .find(|r| r.plan.starts_with("link-down"))
            .unwrap();
        assert!(severed.detours > 0, "severed link should record detours");
    }

    #[test]
    fn out_of_range_procs_fail_at_the_machine_stage() {
        let cfg = FaultExperimentConfig {
            procs: 2048,
            ..quick_cfg()
        };
        let err = fault_experiment(&cfg).expect_err("the iPSC/860 tops out at 1024 nodes");
        assert_eq!(err.stage, crate::pipeline::PipelineStage::Machine);
        assert!(err.message.contains("2048"), "{err}");
    }
}
