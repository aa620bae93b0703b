//! Counting global allocator.
//!
//! Two views over the system allocator:
//!
//! * a process-wide **live byte** gauge (allocated minus freed, all
//!   threads), read after set-up for `mem_bytes_per_triple`;
//! * per-thread **allocation count / bytes requested** tallies, read around
//!   the client thread's requests for `alloc.count_per_request` and
//!   `alloc.bytes_per_request`. Thread-local so the serving writer's
//!   allocations in `churn` do not leak into the client's numbers and the
//!   read-only workloads' counts repeat exactly.
//!
//! The tallies are `const`-initialized `Cell`s: no allocation and no TLS
//! destructor, so they are safe to touch from inside the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc;

/// A statistic that publishes no other data, hence `Relaxed` throughout.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn tally(size: usize) {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    THREAD_BYTES.with(|c| c.set(c.get() + size as u64));
}

/// Tell glibc's allocator to keep freed memory instead of handing it back to
/// the kernel (no `mmap` per large block, no trimming of the heap's top).
/// Otherwise a request that builds a large answer is timed faulting in, page
/// by page, the memory the request before it returned — 1.2 million minor
/// faults and a fifth of the run in the kernel on `cyclic_join` — and in a
/// guest every first touch is an exit to the host, whose cost follows the
/// host's state, not the program. Returns whether the allocator took it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores the three tunables; 32 MiB is the
    // largest mmap threshold glibc accepts.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
            && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
            && mallopt(M_TOP_PAD, 256 << 20) == 1
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() -> bool {
    false
}

/// Heap bytes currently allocated by the whole process.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// `(allocation calls, bytes requested)` made by the calling thread so far.
pub fn thread_tally() -> (u64, u64) {
    (
        THREAD_ALLOCS.with(|c| c.get()),
        THREAD_BYTES.with(|c| c.get()),
    )
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the bookkeeping touches only an atomic and two
// allocation-free thread-local cells, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's (`layout` has non-zero size).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout` (all
        // allocation goes through this type), `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
