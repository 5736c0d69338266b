//! Counting global allocator for allocation-freedom and peak-memory
//! tests (the reusable form of the counter that `umsc-core`'s
//! `alloc_free` test originally carried inline).
//!
//! A test binary installs the allocator itself — a library must never
//! impose a global allocator on its users:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: umsc_rt::alloc_track::CountingAlloc = umsc_rt::alloc_track::CountingAlloc;
//!
//! let stats = umsc_rt::alloc_track::measure(|| hot_loop());
//! assert_eq!(stats.allocations, 0);
//! ```
//!
//! All counters are **thread-local** (const-initialized `Cell`s, so
//! reading them inside the allocator cannot itself allocate): the
//! libtest harness thread prints progress lines — lazily allocating its
//! stdout buffer — in parallel with the test body, and a process-global
//! counter would flake on that race. The flip side: work done on
//! *spawned* threads is invisible to the counters, so callers run the
//! measured code under [`crate::par::with_threads`]`(1, ..)`.
//!
//! Peak tracking is relative to the [`measure`] entry point: live bytes
//! start at zero when measurement begins, grow with every allocation
//! and shrink with every free, and [`AllocStats::peak_bytes`] records
//! the high-water mark. Frees of memory allocated *before* arming push
//! the live counter negative, which is harmless — the peak only ever
//! moves up from zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwarding allocator that counts events on the current thread while
/// a [`measure`] call is active. Install with `#[global_allocator]`.
pub struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counters observed over one [`measure`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation events (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocations: u64,
    /// High-water mark of live bytes allocated since measurement began.
    pub peak_bytes: u64,
}

// try_with everywhere: never panic inside the allocator (e.g. during
// TLS teardown).
fn on_alloc(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            let _ = LIVE.try_with(|live| {
                let now = live.get() + size as i64;
                live.set(now);
                let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
            });
        }
    });
}

fn on_dealloc(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LIVE.try_with(|live| live.set(live.get() - size as i64));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One event; live bytes move by the size delta.
        on_dealloc(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with the current thread's counters armed and returns what
/// the allocator observed. Only meaningful when [`CountingAlloc`] is
/// installed as the binary's `#[global_allocator]`; without it, the
/// counters stay at zero.
pub fn measure(f: impl FnOnce()) -> AllocStats {
    ALLOCS.with(|n| n.set(0));
    LIVE.with(|n| n.set(0));
    PEAK.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    current()
}

/// Reads the current thread's counters without disturbing them — the
/// live view that solver telemetry samples mid-[`measure`]. Outside a
/// `measure` call (or when [`CountingAlloc`] is not the binary's global
/// allocator) every field is zero.
pub fn current() -> AllocStats {
    AllocStats {
        allocations: ALLOCS.with(|n| n.get()),
        peak_bytes: PEAK.with(|n| n.get().max(0)) as u64,
    }
}
