//! Regenerate **Figures 4 & 5** — Laplace solver estimated vs measured
//! execution time for the three distributions, on 4 processors (Fig. 4)
//! and 8 processors (Fig. 5), problem sizes 16…256.
//!
//! Usage: `figures4_5 [--runs R] [--max-size S] [--csv PATH]`

use hpf_report::experiments::figures4_5;

const USAGE: &str = "usage: figures4_5 [--runs R] [--max-size S] [--csv PATH]";

fn usage_err(msg: &str) -> ! {
    eprintln!("figures4_5: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut runs, mut max_size, mut csv_path) = (200, 256, None);
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
            "--runs" => runs = number(value(&mut it)),
            "--max-size" => max_size = number(value(&mut it)),
            "--csv" => csv_path = Some(value(&mut it)),
            other => usage_err(&format!("unknown option {other:?}")),
        }
    }

    let (text, all_points) = figures4_5(runs, max_size);
    print!("{text}");

    if let Some(path) = csv_path {
        let _ = std::fs::write(&path, hpf_report::csv::laplace_csv(&all_points));
        eprintln!("wrote {path}");
    }
}
