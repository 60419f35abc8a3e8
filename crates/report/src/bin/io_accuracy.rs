//! Regenerate `artifacts_io_accuracy.txt` — the out-of-core
//! predicted-vs-simulated accuracy table per machine backend (the parallel
//! I/O subsystem's Table-2-style validation artifact).
//!
//! Usage: `io_accuracy [--threads N]` (output is bit-identical for any
//! thread count — `tests/goldens.rs` checks 1 and 2).

use hpf_report::io_accuracy::{io_accuracy, io_accuracy_text, IoAccuracyConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--threads requires a positive integer");
                        std::process::exit(2);
                    });
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
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
