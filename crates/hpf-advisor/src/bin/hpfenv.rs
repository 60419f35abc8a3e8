//! `hpfenv` — the interactive HPF/Fortran 90D application development
//! environment (§3.4 / §5.3): load programs, vary parameters and
//! directives from within the interface, predict, compare, search.
//!
//! Run interactively, or pipe a script:
//! ```sh
//! printf 'set nodes 4\nkernel PI 1024\ncompare\nquit\n' | hpfenv
//! ```

use hpf_advisor::Session;

fn main() {
    let interactive = std::env::args().all(|a| a != "--batch");
    if interactive {
        println!("HPF/Fortran 90D performance interpretation environment — `help` for commands");
    }
    let prompt = if interactive { "hpf> " } else { "" };
    let _ = Session::new().run_script(
        std::io::stdin().lock(),
        &mut std::io::stdout(),
        &mut std::io::stderr(),
        prompt,
    );
}
