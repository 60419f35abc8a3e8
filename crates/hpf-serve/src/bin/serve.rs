//! `serve` — the prediction service CLI.
//!
//! ```text
//! serve serve   [--addr HOST:PORT] [--workers N] [--queue N] [--no-trace]
//! serve loadgen [--quick] [--overload] [--requests R] [--clients C] [--workers W]
//!               [--seed S] [--pipeline D]
//! serve chaos   [--quick] [--requests R] [--clients C] [--workers W] [--seed S]
//!               [--metrics-out PATH]
//! ```
//!
//! `serve serve` runs the HTTP service until a `POST /v1/shutdown`
//! arrives, then drains in-flight work and exits 0. Workers default to
//! the machine's available parallelism (clamped to [2, 64]) and cache
//! shards follow the worker count rounded up to a power of two; the
//! chosen values are logged at startup. `serve loadgen`
//! starts a private in-process server, fires the seeded deterministic
//! request mix at it, and prints throughput, latency percentiles, the
//! warm-cache hit rate, and the order-independent response checksum;
//! `--overload` switches to the churn-heavy saturation profile that
//! reports the shed/served split and served-only percentiles instead.
//! `serve chaos` runs the seeded service-level fault-injection plan
//! (handler panics, DES panics, deadline storms, slow-loris reads,
//! truncated bodies, client aborts) against a private server and exits
//! non-zero unless the resilience contract holds — zero worker deaths,
//! structured answers for every fault, and a healthy-request checksum
//! bit-identical to a fault-free baseline pass. `--metrics-out PATH`
//! additionally writes the plan-deterministic summary of the pass's
//! `/v1/metrics?since=` delta export as JSON: the Tier-1 golden test
//! (`tests/goldens.rs`) runs the same pass in process at 1, 4 and 8
//! workers and diffs that summary against `artifacts_chaos_metrics.json`.

use hpf_serve::{chaos, loadgen, server, ChaosConfig, LoadgenConfig, OverloadConfig, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve serve   [--addr HOST:PORT] [--workers N] [--queue N] [--no-trace]\n\
         \x20      serve loadgen [--quick] [--overload] [--requests R] [--clients C] [--workers W]\n\
         \x20                    [--seed S] [--pipeline D]\n\
         \x20      serve chaos   [--quick] [--requests R] [--clients C] [--workers W] [--seed S]\n\
         \x20                    [--metrics-out PATH]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") | None => run_server(&args[args.len().min(1)..]),
        Some("loadgen") => run_loadgen(&args[1..]),
        Some("chaos") => run_chaos(&args[1..]),
        Some("--help") | Some("-h") => usage(),
        Some(other) => {
            eprintln!("unknown subcommand: {other}");
            usage()
        }
    }
}

fn take(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| usage())
}

fn run_server(args: &[String]) {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut cfg = ServerConfig::default();
    let mut trace = true;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take(args, &mut i),
            "--workers" => cfg.workers = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--queue" => cfg.queue_depth = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--no-trace" => trace = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
    }

    if trace {
        // Feeds /v1/metrics; the pipeline is bit-neutral under tracing.
        hpf_trace::enable();
    }
    // Mirror the derivations in `server::start` / `ShardedLru::new` so the
    // startup line reports the effective values, not the raw flags.
    let workers = cfg.workers.max(1);
    let shards = workers.next_power_of_two();
    let handle = match server::start(&addr, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1)
        }
    };
    println!(
        "serve: listening on http://{} ({workers} workers, {shards} cache shards)",
        handle.addr()
    );
    handle.wait();
    println!("serve: drained, exiting");
}

fn run_loadgen(args: &[String]) {
    let mut cfg = LoadgenConfig::default();
    let mut overload = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                cfg = LoadgenConfig {
                    requests: LoadgenConfig::quick().requests,
                    ..cfg
                }
            }
            "--overload" => overload = true,
            "--requests" => cfg.requests = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--clients" => cfg.clients = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--pipeline" => cfg.pipeline = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
    }

    if overload {
        // The overload preset supplies its own request count, client
        // surplus, and seed; explicit flags still override it.
        let quick = OverloadConfig::quick();
        let defaults = LoadgenConfig::default();
        let ocfg = OverloadConfig {
            requests: if cfg.requests == defaults.requests {
                quick.requests
            } else {
                cfg.requests
            },
            clients: if cfg.clients == defaults.clients {
                quick.clients
            } else {
                cfg.clients
            },
            workers: if cfg.workers == defaults.workers {
                quick.workers
            } else {
                cfg.workers
            },
            seed: if cfg.seed == defaults.seed {
                quick.seed
            } else {
                cfg.seed
            },
        };
        match loadgen::run_overload(&ocfg) {
            Ok(report) => {
                print!("{}", report.render());
                if report.failed > 0 || report.mismatched_shapes > 0 {
                    eprintln!("loadgen: overload contract violated");
                    std::process::exit(1)
                }
            }
            Err(e) => {
                eprintln!("loadgen: {e}");
                std::process::exit(1)
            }
        }
        return;
    }

    match loadgen::run(&cfg) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1)
        }
    }
}

fn run_chaos(args: &[String]) {
    let mut cfg = ChaosConfig::default();
    let mut metrics_out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                cfg = ChaosConfig {
                    requests: ChaosConfig::quick().requests,
                    ..cfg
                }
            }
            "--requests" => cfg.requests = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--clients" => cfg.clients = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = take(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--metrics-out" => metrics_out = Some(take(args, &mut i)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
    }

    match chaos::run(&cfg) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(path) = metrics_out {
                let doc = format!("{}\n", report.metrics_summary.pretty());
                if let Err(e) = std::fs::write(&path, doc) {
                    eprintln!("chaos: cannot write {path}: {e}");
                    std::process::exit(1)
                }
                println!("metrics summary written to {path}");
            }
            if !report.passed() {
                std::process::exit(1)
            }
        }
        Err(e) => {
            eprintln!("chaos: {e}");
            std::process::exit(1)
        }
    }
}
