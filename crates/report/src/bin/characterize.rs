//! Dump the off-line system characterization (§4.4): the SAG outline, the
//! processing/memory/comm/I/O parameters, and the fitted collective-library
//! models produced by the benchmarking runs.
//!
//! Usage: `characterize [nodes]`
//!        `characterize --machine <name> [nodes]`
//!        `characterize --list-machines`

use hpf_report::characterize::{characterize_text, machines_text};
use hpf_report::pipeline::calibrated_machine_for;

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
    let name = machine_name
        .as_deref()
        .unwrap_or(hpf_machines::DEFAULT_MACHINE);
    match calibrated_machine_for(name, nodes) {
        Ok(m) => print!("{}", characterize_text(&m, nodes)),
        Err(e) => {
            eprintln!("error: {}", e.message);
            std::process::exit(2);
        }
    }
}
