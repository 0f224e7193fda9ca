//! Offline stand-in for the `stats_alloc` 0.1 API subset this workspace uses.
//! Install with `#[global_allocator]` on a `&StatsAlloc<System>` pointing at
//! [`INSTRUMENTED_SYSTEM`], then read counts over a [`Region`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A `GlobalAlloc` that forwards to `T` and counts allocations and
/// reallocations (`alloc_zeroed` counts through `alloc`).
pub struct StatsAlloc<T: GlobalAlloc> {
    counts: [AtomicUsize; 2],
    inner: T,
}

/// The system allocator, instrumented.
pub static INSTRUMENTED_SYSTEM: StatsAlloc<System> = StatsAlloc {
    counts: [AtomicUsize::new(0), AtomicUsize::new(0)],
    inner: System,
};

/// Calls counted over a [`Region`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// `alloc` and `alloc_zeroed` calls.
    pub allocations: usize,
    /// `realloc` calls.
    pub reallocations: usize,
}

// SAFETY: every call forwards its arguments unchanged to `inner`, which
// upholds the contract; counting touches no allocation.
unsafe impl<T: GlobalAlloc> GlobalAlloc for &StatsAlloc<T> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.counts[0].fetch_add(1, Relaxed);
        self.inner.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        self.counts[1].fetch_add(1, Relaxed);
        self.inner.realloc(ptr, layout, size)
    }
}

/// A window over an allocator's counts, opened at [`Region::new`].
pub struct Region<'a, T: GlobalAlloc> {
    alloc: &'a StatsAlloc<T>,
    initial: [usize; 2],
}

impl<'a, T: GlobalAlloc> Region<'a, T> {
    /// Opens a region at the allocator's current counts.
    pub fn new(alloc: &'a StatsAlloc<T>) -> Self {
        let initial = alloc.counts.each_ref().map(|c| c.load(Relaxed));
        Region { alloc, initial }
    }

    /// The calls made since the region opened.
    pub fn change(&self) -> Stats {
        let [a, r] = [0, 1].map(|i| self.alloc.counts[i].load(Relaxed) - self.initial[i]);
        Stats {
            allocations: a,
            reallocations: r,
        }
    }
}
