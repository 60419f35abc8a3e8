//! Regenerate **Figure 3** — the Laplace solver's three data distributions
//! on 4 processors, shown as ownership grids (digit = owning node).
//!
//! Usage: `figure3 [N] [PROCS]` (default 16 × 16 on 4 processors).

const USAGE: &str = "usage: figure3 [N] [PROCS]";

fn usage_err(msg: &str) -> ! {
    eprintln!("figure3: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut values = [16, 4];
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > values.len() {
        usage_err(&format!("unexpected argument {:?}", args[values.len()]));
    }
    for ((value, name), arg) in values.iter_mut().zip(["N", "PROCS"]).zip(&args) {
        *value = arg
            .parse()
            .unwrap_or_else(|_| usage_err(&format!("{name} must be a number, got {arg:?}")));
    }
    print!(
        "{}",
        hpf_report::experiments::figure3_text(values[0], values[1])
    );
}
