//! `hpfenv` — the interactive HPF/Fortran 90D application development
//! environment (§3.4 / §5.3): load programs, vary parameters and
//! directives from within the interface, predict, compare, search.
//!
//! Run interactively, or pipe a script:
//! ```sh
//! printf 'set nodes 4\nkernel PI 1024\ncompare\nquit\n' | hpfenv
//! ```

use hpf_advisor::Session;
use std::io::{BufRead, Write};

fn main() {
    let mut session = Session::new();
    let stdin = std::io::stdin();
    let interactive = std::env::args().all(|a| a != "--batch");
    if interactive {
        println!("HPF/Fortran 90D performance interpretation environment — `help` for commands");
    }
    loop {
        if interactive {
            print!("hpf> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        match session.execute(&line) {
            Ok(out) => {
                if !out.is_empty() {
                    println!("{out}");
                }
            }
            Err(e) if e == "quit" => break,
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
