//! Process-wide peak-heap counter.
//!
//! `umsc_rt::alloc_track` counts only the calling thread, so it misses the
//! per-view graph builds that run on worker threads. This allocator counts
//! every thread while armed; disarmed, it costs one relaxed load per
//! allocation. The counts are statistics that publish no other data, so
//! relaxed atomics suffice; arming and disarming happen on the main thread
//! outside any parallel section, and thread spawn/join order them against
//! the workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

/// Forwards to [`System`], counting live bytes while [`peak_during`] runs.
pub struct PeakAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(size: usize) {
    if ARMED.load(Relaxed) {
        let now = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrink(size: usize) {
    if ARMED.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// only touches atomics and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with counting armed and returns its result together with the
/// high-water mark of live heap bytes above the level at entry, across all
/// threads. Frees of memory allocated before entry push the live count
/// below zero, which never raises the peak.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let r = f();
    ARMED.store(false, Relaxed);
    (r, PEAK.load(Relaxed).max(0) as u64)
}
