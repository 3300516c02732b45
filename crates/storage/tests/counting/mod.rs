//! A counting global allocator for allocation-budget tests: it tallies
//! only while the current thread has switched it on (the harness runs
//! each test on a thread of its own), so a test counts exactly what the
//! code under test allocates on its thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated while counting was on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    on: bool,
    /// Allocations and reallocations.
    pub allocs: u64,
    /// Bytes they asked for.
    pub bytes: u64,
    /// Bytes allocated minus bytes freed while counting.
    pub live: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { on: false, allocs: 0, bytes: 0, live: 0 })
    };
}

/// Add to this thread's tally when counting is on. `try_with` because
/// the allocator also runs while thread-locals are torn down.
fn record(allocs: u64, bytes: u64, live: i64) {
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if t.on {
            t.allocs += allocs;
            t.bytes += bytes;
            t.live += live;
            cell.set(t);
        }
    });
}

/// Forwards to `System`, tallying for threads that switched counting on.
pub struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as u64, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as u64, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` with this thread's allocations counted.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|t| {
        t.set(Tally {
            on: true,
            ..Tally::default()
        })
    });
    let out = f();
    let tally = TALLY.with(|t| t.replace(Tally::default()));
    (out, tally)
}
