//! The fixed benchmark suite: Laplace pipeline cases across sizes × proc
//! counts, a trimmed Table 2 sweep, and a trimmed fault-injection sweep.
//! Case names key the `bench_history/` series and the work golden
//! (`tests/work_golden.rs`) — renaming one makes `trend` report the case
//! as dropped, deliberately.

use hpf_advisor::{Advisor, AdvisorConfig};
use hpf_serve::api::Api;
use hpf_serve::cache::CacheConfig;
use hpf_serve::http::Request;
use report::checkpoint::{checkpoint_experiment, CheckpointExperimentConfig};
use report::experiments::{table2, SweepConfig};
use report::faults::{default_plans, fault_experiment, FaultExperimentConfig};
use report::sweep::SweepSession;
use report::{predict_source, simulate_source, PredictOptions, SimulateOptions};
use std::sync::Arc;
use std::time::Duration;

/// Which suite to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// CI-sized: one Laplace configuration, tiny table2/fault sweeps.
    Quick,
    /// The full trajectory suite (Laplace size × proc grid).
    Full,
}

impl SuiteKind {
    pub fn label(&self) -> &'static str {
        match self {
            SuiteKind::Quick => "quick",
            SuiteKind::Full => "full",
        }
    }
}

/// One benchmark case: a stable name and a closure that runs the workload
/// once (the runner handles warm-up, iteration, and span collection).
pub struct BenchCase {
    pub name: String,
    pub run: Box<dyn Fn() + Send + Sync>,
}

/// Predict + simulate one Laplace (Blk-X) configuration — the end-to-end
/// pipeline case. `sim_runs` is kept small: the bench measures stage cost,
/// not statistics quality.
fn laplace_case(size: usize, procs: usize, sim_runs: usize) -> BenchCase {
    BenchCase {
        name: format!("laplace_bx_n{size}_p{procs}"),
        run: Box::new(move || {
            let kernel = kernels::kernel_by_name("Laplace (Blk-X)").expect("kernel");
            let src = kernel.source(size, procs);
            let popts = PredictOptions::with_nodes(procs);
            let pred = predict_source(&src, &popts).expect("predicts");
            assert!(pred.total_seconds() > 0.0);
            let mut sopts = SimulateOptions::with_nodes(procs);
            sopts.sim.runs = sim_runs;
            let meas = simulate_source(&src, &sopts).expect("simulates");
            assert!(meas.measured() > 0.0);
        }),
    }
}

/// The Table 2 accuracy sweep, trimmed for benching: exercises the batch
/// harness (worker threads, isolation) plus every kernel's pipeline.
fn table2_case(max_size: usize, runs: usize) -> BenchCase {
    BenchCase {
        name: format!("table2_sweep_s{max_size}_r{runs}"),
        run: Box::new(move || {
            let cfg = SweepConfig {
                proc_counts: vec![1, 4],
                max_size: Some(max_size),
                runs,
                profile_steps: 2_000_000,
                harness: report::HarnessConfig {
                    timeout: Some(Duration::from_secs(60)),
                    retries: 0,
                },
                machine: hpf_machines::DEFAULT_MACHINE.to_string(),
            };
            let out = table2(&cfg);
            assert!(!out.rows.is_empty(), "sweep produced no rows");
        }),
    }
}

/// Steady-state cost of one compile-once sweep point: the session (and its
/// cached profile) is built once at suite construction, so the measured
/// loop is exactly what an interpretation sweep pays per additional
/// (n, procs) point — re-bind, predict, simulate.
fn sweep_point_case(kernel: &str, n: usize, procs: usize) -> BenchCase {
    let k = kernels::kernel_by_name(kernel).expect("kernel");
    let cfg = SweepConfig {
        runs: 20,
        profile_steps: 2_000_000,
        ..Default::default()
    };
    let session = Arc::new(SweepSession::new(&k, &cfg).expect("session"));
    // Warm the profile cache outside the timed region.
    session.evaluate(n, procs).expect("evaluates");
    let mut name_frag = String::new();
    for c in kernel.chars() {
        if c.is_ascii_alphanumeric() {
            name_frag.push(c.to_ascii_lowercase());
        } else if !name_frag.ends_with('_') && !name_frag.is_empty() {
            name_frag.push('_');
        }
    }
    let name_frag = name_frag.trim_end_matches('_');
    BenchCase {
        name: format!("sweep_point_{name_frag}_n{n}_p{procs}"),
        run: Box::new(move || {
            let s = session.evaluate(n, procs).expect("evaluates");
            assert!(s.predicted_s > 0.0 && s.measured_s > 0.0);
        }),
    }
}

/// Steady-state cost of one compile-once sweep point on a non-default
/// machine backend: same shape as [`sweep_point_case`], but the session
/// predicts on the named backend's calibrated model and the discrete-event
/// simulator routes every message through the generic topology walk
/// (dimension-ordered torus / up-down fat-tree) instead of the dedicated
/// hypercube path — the per-point cost the machine registry adds.
fn sweep_point_machine_case(machine: &str, kernel: &str, n: usize, procs: usize) -> BenchCase {
    let k = kernels::kernel_by_name(kernel).expect("kernel");
    let cfg = SweepConfig {
        runs: 20,
        profile_steps: 2_000_000,
        machine: machine.to_string(),
        ..Default::default()
    };
    let session = Arc::new(SweepSession::new(&k, &cfg).expect("session"));
    // Warm the profile cache (and the backend's calibration memo) outside
    // the timed region.
    session.evaluate(n, procs).expect("evaluates");
    BenchCase {
        name: format!("sweep_point_{machine}_n{n}_p{procs}"),
        run: Box::new(move || {
            let s = session.evaluate(n, procs).expect("evaluates");
            assert!(s.predicted_s > 0.0 && s.measured_s > 0.0);
        }),
    }
}

/// Steady-state cost of one compile-once sweep point over an out-of-core
/// kernel: same session shape as [`sweep_point_case`], but every evaluation
/// prices the striped-I/O phases in both frames (analytic `IoComponent` and
/// the DES server queues) — the per-point cost the I/O subsystem adds to a
/// warm sweep.
fn sweep_point_ooc_case(n: usize, procs: usize) -> BenchCase {
    let k = kernels::kernel_by_name("Laplace OOC").expect("kernel");
    let cfg = SweepConfig {
        runs: 20,
        profile_steps: 2_000_000,
        ..Default::default()
    };
    let session = Arc::new(SweepSession::new(&k, &cfg).expect("session"));
    // Warm the profile cache outside the timed region.
    session.evaluate(n, procs).expect("evaluates");
    BenchCase {
        name: format!("sweep_point_ooc_n{n}_p{procs}"),
        run: Box::new(move || {
            let s = session.evaluate(n, procs).expect("evaluates");
            assert!(s.predicted_s > 0.0 && s.measured_s > 0.0);
        }),
    }
}

/// The checkpoint/restart campaign: sweeps checkpoint counts for an
/// out-of-core kernel under a slow-node fault plan, pricing recovery in
/// both frames. Exercises the FaultPlan × CheckpointSchedule composition
/// end to end (compile, I/O phase extraction, degraded interpret, DES with
/// fault injection).
fn checkpoint_restart_case(size: usize, procs: usize, runs: usize) -> BenchCase {
    BenchCase {
        name: format!("checkpoint_restart_n{size}_p{procs}"),
        run: Box::new(move || {
            let cfg = CheckpointExperimentConfig {
                size,
                procs,
                runs,
                profile_steps: 2_000_000,
                ..Default::default()
            };
            let rows = checkpoint_experiment(&cfg).expect("checkpoint experiment runs");
            assert_eq!(rows.len(), cfg.checkpoint_counts.len());
        }),
    }
}

/// The fault-injection campaign (all five standard plans) at bench size:
/// exercises the degraded predictor and the fault-aware network walk.
fn faults_case(size: usize, procs: usize, runs: usize) -> BenchCase {
    BenchCase {
        name: format!("faults_sweep_n{size}_p{procs}"),
        run: Box::new(move || {
            let cfg = FaultExperimentConfig {
                kernel: "Laplace (Blk-X)".into(),
                size,
                procs,
                runs,
                profile_steps: 2_000_000,
                plans: default_plans(),
            };
            let rows = fault_experiment(&cfg).expect("fault experiment runs");
            assert_eq!(rows.len(), default_plans().len());
        }),
    }
}

/// One full directive-space advisor search: enumeration, parallel
/// compile + lower-bound, wave-based branch-and-bound evaluation, and a
/// trimmed simulator cross-check. The advisor re-parses nothing between
/// candidates, so this measures the warm-session fan-out cost.
fn advisor_case(n: usize, procs: usize) -> BenchCase {
    let kernel = kernels::kernel_by_name("Laplace (Blk-Blk)").expect("kernel");
    let artifact = kernels::CompiledKernel::new(&kernel).expect("kernel parses");
    let advisor = Arc::new(Advisor::for_kernel(&artifact).expect("advisor"));
    let cfg = AdvisorConfig {
        n,
        procs,
        ks: vec![2, 16],
        top_k: 1,
        sim_runs: 10,
        profile_steps: 2_000_000,
        ..AdvisorConfig::default()
    };
    // Warm the shared profile outside the timed region.
    advisor.search(&cfg).expect("search");
    BenchCase {
        name: format!("advisor_search_n{n}_p{procs}"),
        run: Box::new(move || {
            let report = advisor.search(&cfg).expect("search");
            assert!(!report.ranked.is_empty());
        }),
    }
}

/// Steady-state cost of the prediction service's hot path: a batch of
/// warm `POST /v1/predict` requests through `Api::handle` (JSON parse,
/// cache lookups, response serving) with sockets out of the picture. The
/// Api is warmed at suite construction, so the measured loop is what each
/// additional warm request costs the server.
fn serve_predict_case(batch: usize) -> BenchCase {
    let api = Arc::new(Api::new(&CacheConfig::default()));
    let bodies: Vec<String> = [(64, 4), (128, 4), (256, 8), (512, 8)]
        .iter()
        .map(|(n, p)| format!(r#"{{"kernel": "Laplace (Blk-Blk)", "n": {n}, "procs": {p}}}"#))
        .collect();
    let request = |body: &str| Request {
        method: "POST".into(),
        path: "/v1/predict".into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    // Warm every distinct body (bind + interpret + response cache) outside
    // the timed region.
    for b in &bodies {
        assert_eq!(api.handle(&request(b)).status, 200);
    }
    BenchCase {
        name: format!("serve_predict_warm_b{batch}"),
        run: Box::new(move || {
            for i in 0..batch {
                let resp = api.handle(&request(&bodies[i % bodies.len()]));
                assert_eq!(resp.status, 200);
            }
        }),
    }
}

/// Cost of one batched `/v1/sweep` evaluation through `Api::handle`: the
/// session and bind caches are warm, but the response-body layers are
/// sized to a single entry and two distinct sweep bodies alternate — each
/// request evicts the other's cached body, so every iteration re-runs the
/// batched pass (look the kernel up, evaluate every sweep point against
/// warm binds, serialize). This
/// is the serving cost the batching layer is supposed to bound, isolated
/// from the response cache that normally hides it.
fn serve_sweep_batched_case() -> BenchCase {
    let api = Arc::new(Api::new(&CacheConfig {
        bodies: 1,
        ..CacheConfig::default()
    }));
    let bodies: Vec<String> = [(32usize, 128usize, 4usize), (64, 256, 8)]
        .iter()
        .map(|(min, max, p)| {
            format!(r#"{{"kernel": "PI", "sizes": {{"min": {min}, "max": {max}}}, "procs": {p}}}"#)
        })
        .collect();
    let request = |body: &str| Request {
        method: "POST".into(),
        path: "/v1/sweep".into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    // Warm the session, profile, and bind caches outside the timed region.
    for b in &bodies {
        assert_eq!(api.handle(&request(b)).status, 200);
    }
    BenchCase {
        name: "serve_sweep_batched".into(),
        run: Box::new(move || {
            for b in &bodies {
                let resp = api.handle(&request(b));
                assert_eq!(resp.status, 200);
            }
        }),
    }
}

/// Build the suite. Case order is stable (it is the file order in the
/// report); the Quick suite is a strict subset of Full case names so a
/// quick report lines up with a full one.
pub fn bench_suite(kind: SuiteKind) -> Vec<BenchCase> {
    match kind {
        SuiteKind::Quick => vec![
            laplace_case(64, 4, 30),
            table2_case(128, 20),
            sweep_point_case("PI", 512, 4),
            sweep_point_ooc_case(64, 4),
            sweep_point_machine_case("torus3d", "PI", 512, 4),
            sweep_point_machine_case("fattree", "PI", 512, 4),
            advisor_case(96, 8),
            faults_case(64, 4, 30),
            checkpoint_restart_case(32, 4, 20),
            serve_predict_case(256),
            serve_sweep_batched_case(),
        ],
        SuiteKind::Full => vec![
            laplace_case(64, 4, 30),
            laplace_case(128, 4, 30),
            laplace_case(128, 8, 30),
            laplace_case(256, 8, 30),
            table2_case(128, 20),
            table2_case(512, 50),
            sweep_point_case("PI", 512, 4),
            sweep_point_case("Laplace (Blk-Blk)", 256, 8),
            sweep_point_ooc_case(64, 4),
            sweep_point_ooc_case(128, 8),
            sweep_point_machine_case("torus3d", "PI", 512, 4),
            sweep_point_machine_case("fattree", "PI", 512, 4),
            advisor_case(96, 8),
            faults_case(64, 4, 30),
            faults_case(256, 8, 100),
            checkpoint_restart_case(32, 4, 20),
            checkpoint_restart_case(64, 8, 50),
            serve_predict_case(256),
            serve_sweep_batched_case(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_is_subset_of_full() {
        let quick: Vec<String> = bench_suite(SuiteKind::Quick)
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let full: Vec<String> = bench_suite(SuiteKind::Full)
            .iter()
            .map(|c| c.name.clone())
            .collect();
        for name in &quick {
            assert!(
                full.contains(name),
                "quick case {name} missing from full suite"
            );
        }
    }

    #[test]
    fn case_names_are_unique() {
        for kind in [SuiteKind::Quick, SuiteKind::Full] {
            let mut names: Vec<String> = bench_suite(kind).iter().map(|c| c.name.clone()).collect();
            let before = names.len();
            names.sort();
            names.dedup();
            assert_eq!(
                names.len(),
                before,
                "{kind:?} suite has duplicate case names"
            );
        }
    }
}
