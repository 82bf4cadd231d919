// Fixture for L003 (relaxed-ordering), linted under a crates/cli label.
use std::sync::atomic::{AtomicUsize, Ordering};

fn violations(c: &AtomicUsize) {
    c.fetch_add(1, Ordering::Relaxed); // line 5
    let v = c.load(std::sync::atomic::Ordering::Relaxed); // line 6
    drop(v);
}

fn seqcst_is_fine(c: &AtomicUsize) {
    c.fetch_add(1, Ordering::SeqCst);
    let v = c.load(Ordering::Acquire);
    drop(v);
}

fn annotated(c: &AtomicUsize) {
    // lint: allow(relaxed-ordering, monotonic counter read only after join)
    c.fetch_add(1, Ordering::Relaxed);
}
