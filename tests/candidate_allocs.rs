//! Allocation budget of compiling one directive candidate: the advisor's
//! lower-bound pass (directive rewrite, `check_directives`,
//! `partition_onto`, the lowering plan's per-distribution pass,
//! `build_aag`) over every candidate of
//! Laplace (Blk-Blk) at n = 160 on 16 nodes, the space `serve_cold`'s
//! advise requests search. Allocation counts are deterministic, so the
//! budget is a tight gate where a wall-clock one could not be.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpf_advisor::{enumerate_candidates, Advisor};
use kernels::{kernel_by_name, CompiledKernel};

/// Allocations made by the current thread, counted only while `COUNTING`
/// is set. Both cells are `const`-initialised with no destructor, so
/// reading them never allocates.
struct ThreadCounting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: ThreadCounting = ThreadCounting;

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

    COUNTING.with(|c| c.set(true));
    let mut failed = Vec::new();
    for c in &cands {
        match front.compile(c, 16) {
            Ok(spmd) => drop(appgraph::build_aag(&spmd)),
            Err(e) => failed.push((c.label(), e.to_string())),
        }
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.with(Cell::get);

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
