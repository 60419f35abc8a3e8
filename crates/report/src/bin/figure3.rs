//! Regenerate **Figure 3** — the Laplace solver's three data distributions
//! on 4 processors, shown as ownership grids (digit = owning node).
//!
//! Usage: `figure3 [N] [PROCS]` (default 16 × 16 on 4 processors).

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(16);
    let procs = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(4);
    print!("{}", hpf_report::experiments::figure3_text(n, procs));
}
