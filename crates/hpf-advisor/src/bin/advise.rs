//! `advise` — the what-if advisor CLI.
//!
//! ```text
//! advise [--kernel NAME | --file PATH] [--size N] [--procs P] [--top K]
//!        [--runs R] [--threads T] [--seed S] [--machine NAME]
//!        [--machines A,B,...] [--quick] [--trace]
//! ```
//!
//! Prints a ranked table of directive candidates for the kernel (or for an
//! HPF source file given with `--file`): predicted time (analytic
//! interpretation), comp/comm split, DES-simulated time and error for the
//! top-k, and the search's pruning / session-reuse accounting.
//! `--machine` runs the search on one registered backend;
//! `--machines a,b,c` runs it on each and prints a single merged
//! cross-machine ranking. Output is bit-identical across runs and
//! `--threads` values; `--trace` additionally prints the deterministic
//! trace counters to stderr.
//!
//! Malformed HPF source is reported as a spanned diagnostic on stderr
//! (source line + caret) with exit status 1 — the same diagnostic
//! `hpf-serve` returns as a structured 400 body.

use hpf_advisor::{render_cross_table, render_table, Advisor, AdvisorConfig};
use report::PipelineError;

fn usage() -> ! {
    eprintln!(
        "usage: advise [--kernel NAME | --file PATH] [--size N] [--procs P] \
         [--top K] [--runs R] [--threads T] [--seed S] [--machine NAME] \
         [--machines A,B,...] [--quick] [--trace]"
    );
    std::process::exit(2)
}

fn main() {
    let mut kernel_name = "Laplace (Blk-Blk)".to_string();
    let mut source_path: Option<String> = None;
    let mut cfg = AdvisorConfig::default();
    let mut machines: Option<Vec<String>> = None;
    let mut trace = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--kernel" => kernel_name = take(&mut i),
            "--file" => source_path = Some(take(&mut i)),
            "--size" => cfg.n = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--procs" => cfg.procs = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--top" => cfg.top_k = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--runs" => cfg.sim_runs = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => cfg.threads = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--machine" => cfg.machine = take(&mut i),
            "--machines" => {
                machines = Some(
                    take(&mut i)
                        .split(',')
                        .map(|m| m.trim().to_string())
                        .filter(|m| !m.is_empty())
                        .collect(),
                );
            }
            "--quick" => {
                let threads = cfg.threads;
                let machine = std::mem::take(&mut cfg.machine);
                cfg = AdvisorConfig::quick();
                cfg.threads = threads;
                cfg.machine = machine;
            }
            "--trace" => trace = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
    }

    let advisor = match &source_path {
        Some(path) => {
            let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("advise: cannot read {path}: {e}");
                std::process::exit(1)
            });
            Advisor::for_source(path, &source).unwrap_or_else(|e| {
                eprint!("advise: {}", e.render_diagnostic(&source));
                std::process::exit(1)
            })
        }
        None => {
            let kernel = match kernels::kernel_by_name(&kernel_name) {
                Some(k) => k,
                None => {
                    eprintln!("unknown kernel `{kernel_name}`; available:");
                    for k in kernels::all_kernels() {
                        eprintln!("  {}", k.name);
                    }
                    std::process::exit(2)
                }
            };
            kernels::CompiledKernel::new(&kernel)
                .map_err(PipelineError::from)
                .and_then(|artifact| Advisor::for_kernel(&artifact))
                .unwrap_or_else(|e| {
                    eprintln!("advise: advisor setup failed: {e}");
                    std::process::exit(1)
                })
        }
    };

    if trace {
        hpf_trace::enable();
    }
    match &machines {
        Some(names) => {
            let report = advisor.search_cross(&cfg, names).unwrap_or_else(|e| {
                eprintln!("advise: search failed: {e}");
                std::process::exit(1)
            });
            print!("{}", render_cross_table(&report));
        }
        None => {
            let report = advisor.search(&cfg).unwrap_or_else(|e| {
                eprintln!("advise: search failed: {e}");
                std::process::exit(1)
            });
            print!("{}", render_table(&report));
        }
    }

    if trace {
        hpf_trace::disable();
        for c in [
            "advisor.candidates",
            "advisor.evaluated",
            "advisor.pruned",
            "advisor.sessions_reused",
            "advisor.profile_reused",
        ] {
            eprintln!("{c} = {}", hpf_trace::counter_get(c));
        }
    }
}
