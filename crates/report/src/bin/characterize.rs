//! Dump the off-line system characterization (§4.4): the SAG outline, the
//! processing/memory/comm/I/O parameters, and the fitted collective-library
//! models produced by the benchmarking runs.
//!
//! Usage: `characterize [nodes]`
//!        `characterize --machine <name> [nodes]`
//!        `characterize --list-machines`

use hpf_report::characterize::{characterize_text, machines_text};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-machines") {
        print!("{}", machines_text());
        return;
    }
    let mut machine_name: Option<String> = None;
    let mut positional: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--machine" => {
                machine_name = args.get(i + 1).cloned();
                if machine_name.is_none() {
                    eprintln!("--machine requires a name (try --list-machines)");
                    std::process::exit(2);
                }
                i += 2;
            }
            a => {
                positional = a.parse().ok();
                i += 1;
            }
        }
    }
    let nodes: usize = positional.unwrap_or(8);
    let m = match machine_name.as_deref() {
        // The default path is byte-identical to the historical
        // `characterize [nodes]` output: same calibration entry point.
        None => ipsc_sim::calibrate(nodes),
        Some(name) => {
            let backend = match hpf_machines::machine(name) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            };
            match ipsc_sim::calibrate_backend(backend, nodes) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
    };
    print!("{}", characterize_text(&m, nodes));
}
