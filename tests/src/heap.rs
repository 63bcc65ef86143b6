//! Per-thread heap accounting for tests that bound memory.
//!
//! A test binary opts in by installing [`Counting`] as its
//! `#[global_allocator]`. Counters are thread-local, so the harness's other test threads do
//! not disturb a measurement. Without the allocator installed every
//! figure reads zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting the bytes allocated minus
/// the bytes freed on the calling thread, the high-water mark of that
/// count and the allocator calls that hand out memory (`alloc`,
/// `alloc_zeroed` and `realloc`).
pub struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn add(bytes: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc();
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count_alloc();
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count_alloc();
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` and returns its result with the heap bytes it left live.
pub fn live_bytes<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let value = f();
    (value, LIVE.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the most heap bytes it held
/// live at once, above what was live when it started.
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let value = f();
    (value, PEAK.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the number of allocator calls
/// (`alloc`, `alloc_zeroed`, `realloc`) it made.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}
