//! Counting global allocator: heap allocations, live bytes, and the peak
//! of live bytes since the last [`reset_peak`].
//!
//! Extends the allocation counter of `crates/bench/benches/engine_arena.rs`
//! with byte accounting. Linking this crate installs it as the process
//! allocator, so every binary and test of the crate is counted. Counters
//! are statistics that publish no other data, hence `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Delegates to [`System`] and counts what passes through.
#[derive(Debug)]
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result unchanged; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocator counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Allocations (including reallocations) since process start.
    pub allocs: u64,
    /// Bytes currently allocated.
    pub live_bytes: usize,
    /// Most bytes allocated at once since the last [`reset_peak`].
    pub peak_bytes: usize,
}

/// Reads the counters.
pub fn snapshot() -> HeapSnapshot {
    HeapSnapshot {
        allocs: ALLOCS.load(Relaxed),
        live_bytes: LIVE.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
    }
}

/// Allocations since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Restarts peak tracking at the current live size and returns it.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_vec_bumps_count_and_peak() {
        const LEN: usize = 1 << 20;
        let base = reset_peak();
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(LEN);
        let after = snapshot();
        assert!(after.allocs > before.allocs, "{before:?} -> {after:?}");
        assert!(after.peak_bytes >= base + LEN, "{before:?} -> {after:?}");
        assert!(after.live_bytes >= LEN);
        drop(std::hint::black_box(v));
        assert!(snapshot().live_bytes < after.live_bytes);
    }
}
