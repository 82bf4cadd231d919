//! L010 fixture: a benchmark source, read only for the names it calls.

/// Not linted, so never flagged itself.
pub fn helper_nobody_calls() {}

fn main() {
    let _ = demo::from_benchmark();
    let _ = demo::Bag(Vec::new()).len();
}
