//! Allocation budget of one directive search: `Advisor::search` over
//! Laplace (Blk-Blk) at n = 160 on 16 nodes with top_k = 16 on one thread,
//! the largest space `serve_cold`'s advise requests search, after a first
//! search has warmed the calibration and profile memos. It covers the
//! front half, every candidate's compile and interpretations, the waves,
//! the simulations and the ranked table. Allocation counts are
//! deterministic, so the budget is a tight gate where a wall-clock one
//! could not be; the freed chunks also cost the next large allocation
//! time, so the count tracks more than the search's own work.

mod common;

use hpf_advisor::{Advisor, AdvisorConfig};
use kernels::{kernel_by_name, CompiledKernel};

/// At most this many allocations per warm search (7,691 are made).
const BUDGET_PER_SEARCH: u64 = 8_200;

#[test]
fn warm_search_stays_within_its_allocation_budget() {
    let kernel = kernel_by_name("Laplace (Blk-Blk)").expect("suite kernel");
    let artifact = CompiledKernel::new(&kernel).expect("kernel parses");
    let cfg = AdvisorConfig {
        n: 160,
        procs: 16,
        top_k: 16,
        threads: 1,
        ..AdvisorConfig::quick()
    };
    let advisor = Advisor::for_kernel(&artifact).expect("kernel has a DISTRIBUTE");
    let search = || advisor.search(&cfg).expect("search runs");
    let warm = search();

    let (report, allocs) = common::allocations(search);

    assert_eq!(report.candidates, 135);
    assert_eq!(report.ranked.len(), warm.ranked.len());
    println!(
        "{allocs} allocations per search ({:.1} per candidate)",
        allocs as f64 / report.candidates as f64
    );
    assert!(
        allocs <= BUDGET_PER_SEARCH,
        "{allocs} allocations per warm search, budget {BUDGET_PER_SEARCH}"
    );
}
