//! A counting global allocator shared by the allocation pins
//! (`zero_alloc.rs`) and the hostile-client tests (`wire_limits.rs`).
//! It wraps `System` and keeps three statistics: how many allocating
//! calls the current thread has made, and, process-wide, how many heap
//! bytes are live and their peak since the last [`reset_peak`].
//!
//! The call count is per thread so that tests running in parallel do not
//! see each other's allocations. The byte counts are process-wide, so
//! they can see a server's connection threads; tests that read them hold
//! [`serial`] for their whole run.
//!
//! A test binary opts in with `mod counting_alloc;`, which installs the
//! allocator for that binary only.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

thread_local! {
    // `const` and drop-free: reading it never allocates or registers a
    // destructor, so the allocator may touch it.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    // lint: allow(atomics, statistics only: no other data is published through these counters)
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    // lint: allow(atomics, statistics only: no other data is published through these counters)
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    // lint: allow(atomics, statistics only: no other data is published through these counters)
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: delegates every operation verbatim to `System`; the only
// additions are relaxed counter updates, which never touch the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc` — the layout is passed
    // through unchanged and the result is returned as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `System::alloc_zeroed`; pure delegation.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `System::realloc`; ptr/layout/new_size
    // are forwarded untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    // SAFETY: same contract as `System::dealloc`; pure delegation (the
    // counters only track the bytes released).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocating calls (`alloc`, `alloc_zeroed`, `realloc`) this thread
/// has made so far.
pub fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Hold this while measuring process-wide bytes, so no other test in the
/// binary allocates meanwhile.
pub fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A test that panicked while holding the lock leaves nothing to repair.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Heap bytes live right now.
pub fn live_bytes() -> u64 {
    // lint: allow(atomics, statistics only: no other data is published through these counters)
    LIVE.load(Ordering::Relaxed)
}

/// Start a new peak measurement from the bytes live now.
pub fn reset_peak() {
    // lint: allow(atomics, statistics only: no other data is published through these counters)
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// The most heap bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    // lint: allow(atomics, statistics only: no other data is published through these counters)
    PEAK.load(Ordering::Relaxed)
}
