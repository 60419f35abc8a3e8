//! Ablations of the interpretation engine's models (DESIGN.md §5): what
//! does each modeling decision contribute to prediction accuracy?
//!
//! For each ablation, re-predict the benchmark set and report the change in
//! error against the simulated machine.

fn main() {
    print!("{}", hpf_report::experiments::ablations_text());
}
