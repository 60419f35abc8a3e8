//! Ablations of the interpretation engine's models (DESIGN.md §5): what
//! does each modeling decision contribute to prediction accuracy?
//!
//! For each ablation, re-predict the benchmark set and report the change in
//! error against the simulated machine.

use hpf_report::experiments::SweepConfig;
use hpf_report::pipeline::{
    calibrated_machine, compile_source, predict_source_on, profile_with_limit, PredictOptions,
};
use interp::InterpOptions;
use ipsc_sim::{SimConfig, Simulator};

struct Ablation {
    name: &'static str,
    interp: InterpOptions,
    /// Strip the measured calibration (pure instruction-count model)?
    uncalibrated: bool,
    /// Compiler loop-reordering optimization on?
    loop_reorder: bool,
}

fn main() {
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
    let procs = 4usize;

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

    println!("Model ablations — mean |error| vs the simulated machine ({procs} procs)\n");
    print!("{:<24}", "ablation");
    for (name, _) in &apps {
        print!(" {:>16}", name);
    }
    println!(" {:>9}", "mean");

    for ab in &ablations {
        let mut errs = Vec::new();
        print!("{:<24}", ab.name);
        for (name, size) in &apps {
            let kernel = kernels::kernel_by_name(name).expect("kernel");
            let src = kernel.source(*size, procs);

            let mut machine = calibrated_machine(procs);
            if ab.uncalibrated {
                machine.calibration = None;
            }
            let mut popts = PredictOptions::with_nodes(procs);
            popts.interp = ab.interp.clone();
            popts.compile.loop_reorder = ab.loop_reorder;
            let mut copts = popts.compile.clone();
            copts.loop_reorder = ab.loop_reorder;

            let pred = predict_source_on(&src, &machine, &popts).expect("predict");

            // Ground truth independent of the ablation (the machine doesn't
            // change because our model of it does).
            let (analyzed, spmd) = compile_source(
                &src,
                procs,
                &Default::default(),
                &hpf_compiler::CompileOptions {
                    nodes: procs,
                    ..Default::default()
                },
            )
            .expect("compile");
            let profile = profile_with_limit(&analyzed, cfg.profile_steps);
            let raw = machine::ipsc860(procs);
            let meas = Simulator::with_config(
                &raw,
                SimConfig {
                    runs: cfg.runs,
                    ..Default::default()
                },
            )
            .simulate(&spmd, profile.as_ref());

            let err = 100.0 * (pred.total_seconds() - meas.mean).abs() / meas.mean;
            errs.push(err);
            print!(" {err:>15.1}%");
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        println!(" {mean:>8.1}%");
    }
    println!(
        "\nReading: removing the memory-hierarchy model or the measured calibration\n\
         should inflate errors; overlap barely matters on the NX-style network\n\
         (little overlap capacity); loop reordering changes the *program*, so its\n\
         row shows model-vs-unoptimized-machine mismatch."
    );
}
