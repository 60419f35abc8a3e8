//! Regenerate **Figure 2** — abstraction of the `forall` statement: the
//! Phase-1 three-level SPMD structure (communication / computation /
//! communication) and the Phase-2 sub-AAG (Seq → Comm → IterD ⊃ CondtD).

fn main() {
    print!("{}", hpf_report::experiments::figure2_text());
}
