//! Regenerate **Figures 6 & 7** — the financial model's application phases
//! and the per-phase interpreted performance profile (comp/comm/overhead),
//! 4 processors, problem size 256.
//!
//! Usage: `figure7 [SIZE] [PROCS]`.

const USAGE: &str = "usage: figure7 [SIZE] [PROCS]";

fn usage_err(msg: &str) -> ! {
    eprintln!("figure7: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut values = [256, 4];
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > values.len() {
        usage_err(&format!("unexpected argument {:?}", args[values.len()]));
    }
    for ((value, name), arg) in values.iter_mut().zip(["SIZE", "PROCS"]).zip(&args) {
        *value = arg
            .parse()
            .unwrap_or_else(|_| usage_err(&format!("{name} must be a number, got {arg:?}")));
    }
    print!(
        "{}",
        hpf_report::experiments::figure7_text(values[0], values[1])
    );
}
