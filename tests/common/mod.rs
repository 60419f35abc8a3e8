//! The counting allocator of the allocation-budget tests: it counts the
//! allocations the calling thread makes while [`allocations`] runs a
//! closure. Allocation counts are deterministic, so a budget on them is a
//! tight gate where a wall-clock one could not be.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the count touches only the two
// thread-locals above, which never allocate.
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

/// Run `f` and return its result with the number of allocations the
/// calling thread made inside it.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, ALLOCS.with(Cell::get) - before)
}
