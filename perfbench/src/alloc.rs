//! A counting global allocator, linked into the benchmark binary only.
//! Each thread counts its own allocations (allocs, zeroed allocs and
//! reallocs; frees are not counted) so a span can read the counter at
//! its start and end and attribute the difference to the work between.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates every call to [`System`], counting allocations per thread.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations belong to no span.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this type) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::thread_allocs;

    #[test]
    fn counts_this_threads_allocations() {
        let before = thread_allocs();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        let boxed = std::hint::black_box(Box::new(7u64));
        assert!(thread_allocs() >= before + 2);
        drop((v, boxed));
    }
}
