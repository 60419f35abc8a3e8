//! Quickstart: predict the performance of a small HPF/Fortran 90D program
//! on the abstracted iPSC/860 without running it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hpf90d::prelude::*;
use hpf90d::report::pipeline::{calibrated_machine_for, predict_source_full};

const SRC: &str = r#"
PROGRAM SAXPY
  INTEGER, PARAMETER :: N = 4096
  REAL X(N), Y(N)
  REAL A
!HPF$ PROCESSORS P(8)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN X(I) WITH T(I)
!HPF$ ALIGN Y(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
  A = 2.5
  X = 1.0
  Y = 2.0
  Y = Y + A * X
  PRINT *, SUM(Y)
END PROGRAM SAXPY
"#;

fn main() {
    // 1. The whole pipeline in one call: parse → analyze → compile (Phase 1)
    //    → abstract (AAG/SAAG) → interpret (Phase 2).
    let opts = PredictOptions::with_nodes(8);
    let (prediction, bound) = predict_source_full(SRC, &opts).expect("pipeline");

    println!("== SPMD program structure (Phase 1 output) ==");
    println!("{}", bound.spmd.outline());

    println!("== Application abstraction (SAAG) ==");
    println!("{}", bound.aag.outline());

    println!("== Interpreted performance ==");
    println!(
        "{}",
        hpf90d::interp::profile_report(&prediction, &bound.aag, "SAXPY on 8 nodes")
    );

    // 2. The same program "run on the machine" (discrete-event simulation),
    //    averaged over 1000 runs like the paper's measurements.
    let mut sopts = SimulateOptions::with_nodes(8);
    sopts.sim.runs = 1000;
    let measured = simulate_source(SRC, &sopts).expect("simulation");
    println!("== Simulated measurement (1000 runs) ==");
    println!("  mean {:.6} s   std {:.6} s", measured.mean, measured.std);
    println!(
        "  prediction error: {:.2}%",
        100.0 * (prediction.total_seconds() - measured.mean).abs() / measured.mean
    );

    // 3. The machine abstraction itself (System Abstraction Graph).
    let machine = calibrated_machine_for(&opts.machine, opts.nodes).expect("registered machine");
    println!("\n== System Abstraction Graph ==");
    println!("{}", machine.sag.outline());
}
