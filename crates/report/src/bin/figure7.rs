//! Regenerate **Figures 6 & 7** — the financial model's application phases
//! and the per-phase interpreted performance profile (comp/comm/overhead),
//! 4 processors, problem size 256.
//!
//! Usage: `figure7 [SIZE] [PROCS]`.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let size = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(256);
    let procs = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(4);
    print!("{}", hpf_report::experiments::figure7_text(size, procs));
}
