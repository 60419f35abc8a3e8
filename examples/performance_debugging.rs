//! Application performance debugging (the paper's §5.2.2): use the output
//! module's per-phase and per-line metrics to find where the time goes in
//! the stock-option pricing model — *without a running application*.
//!
//! ```sh
//! cargo run --release --example performance_debugging
//! ```

use hpf90d::interp::{paragraph_trace, profile_report, query_line};
use hpf90d::prelude::*;
use hpf90d::report::pipeline::predict_source_full;

fn main() {
    let kernel = hpf90d::kernels::kernel_by_name("Financial").expect("financial model");
    let src = kernel.source(256, 4);
    println!("=== source ===\n{src}");

    let (pred, bound) =
        predict_source_full(&src, &PredictOptions::with_nodes(4)).expect("prediction");
    let aag = &bound.aag;

    // Output form 1: the generic application profile.
    println!(
        "{}",
        profile_report(&pred, aag, "stock option pricing, 4 procs, size 256")
    );

    // Output form 2: per-line queries — walk every source line and show
    // which ones carry the cost (the "identify bottlenecks" workflow).
    println!("== per-line cost attribution ==");
    for (i, line) in src.lines().enumerate() {
        let m = query_line(&pred, aag, i as u32 + 1);
        if m.time() > 0.0 {
            println!(
                "{:>3}  {:>10.1} µs  ({:>4.1}% comm)  | {}",
                i + 1,
                m.time() * 1e6,
                100.0 * m.comm_fraction(),
                line
            );
        }
    }

    // The bottleneck: the line with the largest attributed time.
    let (line_no, cost) = (1..=src.lines().count() as u32)
        .map(|l| (l, query_line(&pred, aag, l).time()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("lines");
    println!(
        "\nbottleneck: line {line_no} ({:.1}% of total) -> {}",
        100.0 * cost / pred.total_seconds(),
        src.lines().nth(line_no as usize - 1).unwrap_or("").trim()
    );

    // Output form 3: the ParaGraph-style interpretation trace.
    let trace = paragraph_trace(&pred, aag);
    println!(
        "\n== ParaGraph trace (first 12 events of {}) ==",
        trace.lines().count()
    );
    for l in trace.lines().take(12) {
        println!("  {l}");
    }

    // Bonus: the machine-side per-node utilization view (what ParaGraph
    // would draw from the trace), from the simulated iPSC/860, of the same
    // bound program.
    let profile = hpf90d::eval::run(&bound.analyzed).ok().map(|o| o.profile);
    let machine = hpf90d::machine::ipsc860(4);
    let sim_trace = hpf90d::sim::trace_program(&machine, &bound.spmd, profile.as_ref());
    println!("\n== per-node Gantt (simulated machine) ==");
    print!("{}", sim_trace.gantt(64));
    println!("\nutilization (busy/comm/idle):");
    for (n, (b, c, i)) in sim_trace.utilization().iter().enumerate() {
        println!(
            "  node {n}: {:>5.1}% / {:>5.1}% / {:>5.1}%",
            b * 100.0,
            c * 100.0,
            i * 100.0
        );
    }
}
