//! Allocation budget of compiling one directive candidate: the advisor's
//! lower-bound pass (directive rewrite, `check_directives`,
//! `partition_onto`, the lowering plan's per-distribution pass,
//! `build_aag`) over every candidate of
//! Laplace (Blk-Blk) at n = 160 on 16 nodes, the space `serve_cold`'s
//! advise requests search. Allocation counts are deterministic, so the
//! budget is a tight gate where a wall-clock one could not be.

mod common;

use hpf_advisor::{enumerate_candidates, Advisor};
use kernels::{kernel_by_name, CompiledKernel};

/// At most this many allocations per candidate, averaged over the space
/// (44.9 are made).
const BUDGET_PER_CANDIDATE: f64 = 48.0;

#[test]
fn candidate_compile_stays_within_its_allocation_budget() {
    let kernel = kernel_by_name("Laplace (Blk-Blk)").expect("suite kernel");
    let artifact = CompiledKernel::new(&kernel).expect("kernel parses");
    let front = Advisor::for_kernel(&artifact)
        .expect("kernel has a DISTRIBUTE")
        .front(160)
        .expect("front half analyzes");
    let cands = enumerate_candidates(2, 16, &[2, 16, 160]);
    assert_eq!(cands.len(), 135);

    let (failed, allocs) = common::allocations(|| {
        let mut failed = Vec::new();
        for c in &cands {
            match front.compile(c, 16) {
                Ok(spmd) => drop(appgraph::build_aag(&spmd)),
                Err(e) => failed.push((c.label(), e.to_string())),
            }
        }
        failed
    });

    assert!(
        failed.is_empty(),
        "candidates failed to compile: {failed:?}"
    );
    let per_candidate = allocs as f64 / cands.len() as f64;
    println!(
        "{allocs} allocations over {} candidates: {per_candidate:.1} each",
        cands.len()
    );
    assert!(
        per_candidate <= BUDGET_PER_CANDIDATE,
        "{per_candidate:.1} allocations per candidate compile, budget {BUDGET_PER_CANDIDATE}"
    );
}
