//! Dump the off-line system characterization (§4.4): the SAG outline, the
//! processing/memory/comm/I/O parameters, and the fitted collective-library
//! models produced by the benchmarking runs.
//!
//! Usage: `characterize [nodes]`
//!        `characterize --machine <name> [nodes]`
//!        `characterize --list-machines`

use hpf_report::characterize::{characterize_text, machines_text};
use hpf_report::pipeline::calibrated_machine_for;

const USAGE: &str = "usage: characterize [--machine NAME] [NODES] | characterize --list-machines";

fn usage_err(msg: &str) -> ! {
    eprintln!("characterize: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-machines") {
        print!("{}", machines_text());
        return;
    }
    let mut machine_name: Option<&str> = None;
    let mut nodes: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => {
                let name = it.next().unwrap_or_else(|| {
                    usage_err("--machine requires a name (try --list-machines)")
                });
                machine_name = Some(name);
            }
            a if a.starts_with('-') => usage_err(&format!("unknown option {a:?}")),
            a if nodes.is_some() => usage_err(&format!("unexpected argument {a:?}")),
            a => {
                let n = a
                    .parse()
                    .unwrap_or_else(|_| usage_err(&format!("NODES must be a number, got {a:?}")));
                nodes = Some(n);
            }
        }
    }
    let nodes = nodes.unwrap_or(8);
    let name = machine_name.unwrap_or(hpf_machines::DEFAULT_MACHINE);
    match calibrated_machine_for(name, nodes) {
        Ok(m) => print!("{}", characterize_text(&m, nodes)),
        Err(e) => {
            eprintln!("error: {}", e.message);
            std::process::exit(2);
        }
    }
}
