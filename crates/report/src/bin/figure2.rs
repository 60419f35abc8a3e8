//! Regenerate **Figure 2** — abstraction of the `forall` statement: the
//! Phase-1 three-level SPMD structure (communication / computation /
//! communication) and the Phase-2 sub-AAG (Seq → Comm → IterD ⊃ CondtD).

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("figure2: unexpected argument {arg:?}\nusage: figure2");
        std::process::exit(2);
    }
    print!("{}", hpf_report::experiments::figure2_text());
}
