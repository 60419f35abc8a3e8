//! Allocations of a warm calibration lookup: once a `(machine, nodes)`
//! model has been calibrated, `calibrated_machine_for` hands out the
//! shared model without allocating, for every registered machine at 1 to
//! 16 nodes. Allocation counts are deterministic, so the gate is exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use report::pipeline::calibrated_machine_for;

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

#[test]
fn warm_calibration_lookup_allocates_nothing() {
    let points: Vec<(&str, usize)> = hpf_machines::registry()
        .iter()
        .flat_map(|b| (1..=16).map(move |nodes| (b.name, nodes)))
        .collect();
    for &(name, nodes) in &points {
        calibrated_machine_for(name, nodes).expect("node count in range");
    }
    let mut models = Vec::with_capacity(points.len());

    COUNTING.with(|c| c.set(true));
    for &(name, nodes) in &points {
        models.push(calibrated_machine_for(name, nodes));
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert!(models.iter().all(Result::is_ok));
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {} warm lookups",
        points.len()
    );
}
