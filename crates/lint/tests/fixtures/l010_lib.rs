//! L010 fixture: `pub` items of a library crate and the code that names
//! them. Labelled `crates/demo/src/lib.rs` by the test.

pub use self::inner::Reexported;

/// Named by nothing but itself: flagged.
pub fn unused() -> u32 {
    unused() + 1
}

/// Named only under `#[cfg(test)]`: flagged.
pub fn test_only() -> u32 {
    1
}

/// Called from the benchmark stand-in: silent.
pub fn from_benchmark() -> u32 {
    2
}

/// Called from the examples stand-in: silent.
pub fn from_example() -> u32 {
    3
}

/// An oracle the tests hold production code to.
// lint: allow(no-caller, the fixture's unit test compares against it)
pub fn oracle() -> u32 {
    4
}

/// A reason-less annotation does not suppress: flagged.
// lint: allow(no-caller)
pub fn reasonless() -> u32 {
    5
}

/// Crate-visible only: out of scope, silent.
pub(crate) fn internal() -> u32 {
    6
}

/// Used by the example through `len`.
pub struct Bag(Vec<u32>);

impl Bag {
    /// Called from the example.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nobody calls it, but it sits beside a used `len`: silent.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

pub mod inner {
    /// Named only by the `pub use` above and its own impl: flagged.
    pub struct Reexported;

    impl Reexported {
        fn private(&self) -> Reexported {
            Reexported
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_and_test_only() {
        assert_eq!(super::test_only() + 3, super::oracle());
    }
}
