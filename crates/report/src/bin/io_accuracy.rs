//! Regenerate `artifacts_io_accuracy.txt` — the out-of-core
//! predicted-vs-simulated accuracy table per machine backend (the parallel
//! I/O subsystem's Table-2-style validation artifact).
//!
//! Usage: `io_accuracy [--threads N]` (output is bit-identical for any
//! thread count — `tests/goldens.rs` checks 1 and 2).

use hpf_report::io_accuracy::{io_accuracy, io_accuracy_text, IoAccuracyConfig};

const USAGE: &str = "usage: io_accuracy [--threads N]";

fn usage_err(msg: &str) -> ! {
    eprintln!("io_accuracy: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 1usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_err("--threads requires a positive integer"));
            }
            other => usage_err(&format!("unknown option {other:?}")),
        }
    }
    let cfg = IoAccuracyConfig {
        threads,
        ..Default::default()
    };
    match io_accuracy(&cfg) {
        Ok(rows) => print!("{}", io_accuracy_text(&cfg, &rows)),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
