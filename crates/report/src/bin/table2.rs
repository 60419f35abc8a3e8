//! Regenerate **Table 2** — accuracy of the performance prediction
//! framework: min/max absolute error between interpreted and measured
//! (simulated-machine) times over the full problem-size × system-size sweep.
//!
//! Usage: `table2 [--quick] [--runs R] [--max-size S] [--csv PATH]`

use hpf_report::experiments::{table2, table2_text, SweepConfig};

const USAGE: &str = "usage: table2 [--quick] [--runs R] [--max-size S] [--csv PATH]";

fn usage_err(msg: &str) -> ! {
    eprintln!("table2: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut runs, mut max_size, mut csv_path) = (false, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> String {
            it.next()
                .unwrap_or_else(|| usage_err(&format!("{flag} requires a value")))
                .clone()
        };
        let number = |v: String| -> usize {
            v.parse()
                .unwrap_or_else(|_| usage_err(&format!("{flag} expects a number, got {v:?}")))
        };
        match flag.as_str() {
            "--quick" => quick = true,
            "--runs" => runs = Some(number(value(&mut it))),
            "--max-size" => max_size = Some(number(value(&mut it))),
            "--csv" => csv_path = Some(value(&mut it)),
            other => usage_err(&format!("unknown option {other:?}")),
        }
    }
    let mut cfg = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    cfg.runs = runs.unwrap_or(cfg.runs);
    cfg.max_size = max_size.or(cfg.max_size);

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

    if let Some(path) = csv_path {
        let _ = std::fs::write(&path, hpf_report::csv::table2_csv(&rows));
        let _ = std::fs::write(
            format!("{path}.samples.csv"),
            hpf_report::csv::samples_csv(&samples),
        );
        eprintln!("wrote {path} (+ .samples.csv)");
    }

    print!("{}", table2_text(&rows, cfg.runs));
}
