//! Regenerate **Figures 4 & 5** — Laplace solver estimated vs measured
//! execution time for the three distributions, on 4 processors (Fig. 4)
//! and 8 processors (Fig. 5), problem sizes 16…256.
//!
//! Usage: `figures4_5 [--runs R] [--max-size S]`

use hpf_report::experiments::figures4_5;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let runs = args
        .iter()
        .position(|a| a == "--runs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let max_size = args
        .iter()
        .position(|a| a == "--max-size")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);

    let csv_path = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1).cloned());
    let (text, all_points) = figures4_5(runs, max_size);
    print!("{text}");

    if let Some(path) = csv_path {
        let _ = std::fs::write(&path, hpf_report::csv::laplace_csv(&all_points));
        eprintln!("wrote {path}");
    }
}
