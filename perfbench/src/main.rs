//! The repository benchmark. One command runs one seeded workload for a
//! fixed time, checks every output, and prints every metric by name with
//! its unit; the last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_pipeline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod cold;
mod os;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics: `(name, unit)`, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pred_err_median_pct", "%"),
    ("pred_err_max_pct", "%"),
];

/// Per-layer metrics: `(name, unit)`, printed with `--trace 1`. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("hpf-lang.parse.ms_per_op", "ms"),
    ("hpf-lang.analyze.ms_per_op", "ms"),
    ("hpf-compiler.compile.ms_per_op", "ms"),
    ("appgraph.build_aag.ms_per_op", "ms"),
    ("kernels.bind.ms_per_op", "ms"),
    ("interp.interpret.ms_per_op", "ms"),
    ("hpf-eval.run.ms_per_op", "ms"),
    ("ipsc-sim.simulate.ms_per_op", "ms"),
    ("hpf-advisor.advise.ms_per_req", "ms"),
    ("hpf-eval.steps_per_op", "count"),
    ("hpf-eval.ns_per_step", "ns"),
    ("hpf-eval.allocs_per_op", "count"),
    ("hpf-lang.allocs_per_op", "count"),
    ("hpf-compiler.allocs_per_op", "count"),
    ("ipsc-sim.allocs_per_op", "count"),
    ("interp.aaus_per_op", "count"),
    ("appgraph.aaus_per_op", "count"),
    ("appgraph.comm_records_per_op", "count"),
    ("ipsc-sim.events_per_op", "count"),
    ("ipsc-sim.route_cache_hit_ratio", "frac"),
    ("hpf-advisor.pruned_frac", "frac"),
    ("hpf-io.io_phases_per_op", "count"),
    ("hpf-serve.api_handle.us_per_req", "us"),
    ("hpf-serve.wire.us_per_req", "us"),
    ("hpf-serve.cache.hit_ratio", "frac"),
    ("hpf-serve.cache.wire_hit_ratio", "frac"),
    ("hpf-serve.cache.shard_contention_per_kreq", "count"),
    ("hpf-serve.singleflight.parked", "count"),
    ("report.profile_cache.hit_ratio", "frac"),
    ("trace.overhead_pct", "%"),
    ("attributed_frac", "frac"),
    ("failed_frac", "frac"),
];

/// Failure notes printed per run (all failures are counted).
const MAX_NOTES: usize = 20;

const WORKLOADS: [&str; 3] = ["cold_pipeline", "serve_warm", "serve_cold"];

/// Fresh processes per run whose cold set-up `setup_s` is the median of:
/// at least `SETUP_PROCS`, and more, up to `SETUP_PROCS_MAX`, until
/// `SETUP_MIN_S` has been spent, so that a set-up of a few milliseconds
/// is timed often enough for its median to repeat.
const SETUP_PROCS: usize = 5;
const SETUP_PROCS_MAX: usize = 40;
const SETUP_MIN_S: f64 = 1.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run only the workload's set-up, report `ready` and exit: one of
    /// the fresh processes `setup_s` times.
    pub setup_child: bool,
}

/// What a workload run produced: counts, metric values, failure notes.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn put_layer(&mut self, layer: &str, what: &str, value: f64) {
        self.put(&format!("{layer}.{what}"), value);
    }

    /// Count one failed operation or output check.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    /// Fold in the counts and failures of one part of the run (a client
    /// thread, a check thread).
    pub fn absorb(&mut self, part: Outcome) {
        self.attempted += part.attempted;
        self.failed += part.failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(part.notes.into_iter().take(room));
    }
}

/// `setup_s`: the median, over fresh processes started one after
/// another, of the time from starting the process to its report that the
/// workload's set-up is done. Every one starts cold: no process-wide memo
/// (machine calibrations, execution profiles) survives from one to the
/// next.
fn cold_setups(args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let seed = args.seed.to_string();
    let mut times = Vec::with_capacity(SETUP_PROCS_MAX);
    let start = Instant::now();
    while times.len() < SETUP_PROCS
        || (times.len() < SETUP_PROCS_MAX && start.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--setup-child", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("start a set-up process");
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped standard output");
        let read = BufReader::new(stdout).read_line(&mut line);
        times.push(t.elapsed().as_secs_f64());
        let status = child.wait().expect("wait for the set-up process");
        assert!(
            read.is_ok() && line.trim() == "ready" && status.success(),
            "set-up process failed ({status})"
        );
    }
    stats::median(&times)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--setup-child" => setup_child = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_pipeline|serve_warm|serve_cold> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Every workload runs on one CPU, server and clients included. With
    // the host's two vCPUs both busy, each run's serving figures follow
    // the interference on both of them and spread about three times more
    // (see README, "Seeds and steadiness").
    let cpu = os::pin_to_one_cpu();
    if args.setup_child {
        let state: Box<dyn std::any::Any> = match args.workload.as_str() {
            "cold_pipeline" => Box::new(cold::setup()),
            "serve_warm" => Box::new(serve::setup_warm(args.seed)),
            _ => Box::new(serve::setup_cold(args.seed)),
        };
        println!("ready");
        drop(state);
        return;
    }
    let setup_s = cold_setups(&args);
    let mut out = match args.workload.as_str() {
        "cold_pipeline" => cold::run(&args),
        "serve_warm" => serve::run_warm(&args),
        _ => serve::run_cold(&args),
    };
    out.put("setup_s", setup_s);
    out.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    println!(
        "perfbench {} seed {} seconds {} trace {} cpu {cpu}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  FAILED: {note}");
    }
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    for (name, value) in &out.metrics {
        println!(
            "  {name:<44} {value:>14.6} {}",
            units.get(name.as_str()).unwrap_or(&"")
        );
    }

    let selected = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(selected.len());
    for &(name, unit) in selected {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("workload did not measure end-to-end metric {name}"),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        fields.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
