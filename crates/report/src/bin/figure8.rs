//! Regenerate **Figure 8** — experimentation time for the Laplace solver:
//! interpretive framework vs measurement on the (shared) iPSC/860, per
//! implementation variant; plus the wall-clock of this reproduction's own
//! two paths as the modern analog.

use hpf_report::workflow::time_actual_paths;
use kernels::LaplaceDist;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("figure8: unexpected argument {arg:?}\nusage: figure8");
        std::process::exit(2);
    }
    print!("{}", hpf_report::experiments::figure8_text());
    println!();

    // The modern analog: actual wall time of our two code paths across the
    // same 16-size sweep.
    println!("Actual wall-clock of this reproduction's two paths (16 sizes, 4 procs):");
    for dist in [
        LaplaceDist::BlockBlock,
        LaplaceDist::BlockStar,
        LaplaceDist::StarBlock,
    ] {
        let kernel = kernels::Kernel {
            kind: kernels::KernelKind::Laplace(dist),
            name: "Laplace",
            description: "",
            is_kernel: false,
            size_range: (16, 256),
        };
        let sources: Vec<(usize, String)> = (1..=16)
            .map(|i| (i * 16, kernel.source(i * 16, 4)))
            .collect();
        let t = time_actual_paths(dist.label(), &sources, 4, 100);
        println!(
            "  {:<10} interpreter {:>8.2}s    simulated machine {:>8.2}s   ({:.0}x)",
            t.variant,
            t.interpreter_wall_s,
            t.simulator_wall_s,
            t.simulator_wall_s / t.interpreter_wall_s.max(1e-9)
        );
    }
}
