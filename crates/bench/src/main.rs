//! `hpf-bench` — run the fixed benchmark suite or gate a series of reports.
//!
//! ```text
//! hpf-bench run [--quick] [--iters N] [--out PATH]
//! hpf-bench trend [--gate PCT] [--min-delta S] [--case SUBSTR] [--dir DIR] [FILE...]
//! ```
//!
//! `run` prints a human-readable summary and, with `--out`, writes the
//! `hpf-bench/v1` JSON report to PATH. `trend` ingests an ordered series
//! of reports (explicit FILE args in order, or every `*.json` under
//! `--dir` sorted by name) and exits nonzero when any case/stage's
//! cumulative median drift from the first report to the last exceeds the
//! gate, or when a case/stage dropped out of the series. Given two
//! reports, it is a pairwise regression gate.

use hpf_bench::{analyze_trend, run_suite, BenchReport, SuiteKind, TrendConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hpf-bench run [--quick] [--iters N] [--out PATH]\n  \
         hpf-bench trend [--gate PCT] [--min-delta S] [--case SUBSTR] [--dir DIR] [FILE...]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trend") => cmd_trend(&args[1..]),
        _ => usage(),
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    *i += 1;
    args.get(*i)
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("bad value for {flag}"))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut kind = SuiteKind::Full;
    let mut iters = 5usize;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let r = match args[i].as_str() {
            "--quick" => {
                kind = SuiteKind::Quick;
                Ok(())
            }
            "--iters" => parse_flag(args, &mut i, "--iters").map(|n| iters = n),
            "--out" => parse_flag(args, &mut i, "--out").map(|p| out = Some(p)),
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = r {
            eprintln!("hpf-bench: {e}");
            return usage();
        }
        i += 1;
    }

    let report = run_suite(kind, iters);
    print!("{}", hpf_bench::report_text(&report));
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, report.to_json()) {
            eprintln!("hpf-bench: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {out}");
    }
    ExitCode::SUCCESS
}

fn cmd_trend(args: &[String]) -> ExitCode {
    let mut cfg = TrendConfig::default();
    let mut dir: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let r = match args[i].as_str() {
            "--gate" => parse_flag(args, &mut i, "--gate").map(|p| cfg.gate_pct = p),
            "--min-delta" => parse_flag(args, &mut i, "--min-delta").map(|s| cfg.min_delta_s = s),
            "--case" => {
                parse_flag(args, &mut i, "--case").map(|c: String| cfg.case_filter = Some(c))
            }
            "--dir" => parse_flag(args, &mut i, "--dir").map(|d: String| dir = Some(d)),
            _ => {
                paths.push(args[i].clone());
                Ok(())
            }
        };
        if let Err(e) = r {
            eprintln!("hpf-bench: {e}");
            return usage();
        }
        i += 1;
    }

    // `--dir`: every *.json, sorted by file name — the naming convention
    // (`0001_*.json`, `0002_*.json`, …) carries the series order.
    if let Some(dir) = dir {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("hpf-bench: cannot read {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut found: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .filter_map(|p| p.to_str().map(String::from))
            .collect();
        found.sort();
        paths.extend(found);
    }
    if paths.len() < 2 {
        eprintln!(
            "hpf-bench: trend needs at least two reports, got {}",
            paths.len()
        );
        return ExitCode::FAILURE;
    }

    let mut reports = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hpf-bench: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match BenchReport::from_json(&text) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("hpf-bench: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let t = analyze_trend(&reports, &cfg);
    print!("{}", t.render());
    if t.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("hpf-bench: trend gate FAILED");
        ExitCode::FAILURE
    }
}
