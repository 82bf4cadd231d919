//! L010 fixture: an integration test naming a library fn. Test trees are
//! not callers.

#[test]
fn calls_unused() {
    assert_eq!(demo::unused(), demo::reasonless());
}
