//! Regenerate **Table 2** — accuracy of the performance prediction
//! framework: min/max absolute error between interpreted and measured
//! (simulated-machine) times over the full problem-size × system-size sweep.
//!
//! Usage: `table2 [--quick] [--runs R] [--max-size S]`

use hpf_report::experiments::{table2, table2_text, SweepConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    if let Some(i) = args.iter().position(|a| a == "--runs") {
        cfg.runs = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(cfg.runs);
    }
    if let Some(i) = args.iter().position(|a| a == "--max-size") {
        cfg.max_size = args.get(i + 1).and_then(|v| v.parse().ok());
    }

    eprintln!(
        "sweeping {} proc counts, {} runs per measurement …",
        cfg.proc_counts.len(),
        cfg.runs
    );
    let t0 = std::time::Instant::now();
    let out = table2(&cfg);
    let (rows, samples) = (out.rows, out.samples);
    eprintln!(
        "{} samples in {:.1}s",
        samples.len(),
        t0.elapsed().as_secs_f64()
    );
    if !out.failures.is_empty() {
        eprintln!("{} configuration(s) failed:", out.failures.len());
        for f in &out.failures {
            eprintln!(
                "  {} — {} (after {} attempt(s))",
                f.label, f.failure, f.attempts
            );
        }
    }

    if let Some(i) = args.iter().position(|a| a == "--csv") {
        if let Some(path) = args.get(i + 1) {
            let _ = std::fs::write(path, hpf_report::csv::table2_csv(&rows));
            let _ = std::fs::write(
                format!("{path}.samples.csv"),
                hpf_report::csv::samples_csv(&samples),
            );
            eprintln!("wrote {path} (+ .samples.csv)");
        }
    }

    print!("{}", table2_text(&rows, cfg.runs));
}
