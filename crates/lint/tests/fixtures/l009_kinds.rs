//! L009 fixture, tag side. Seeded violations:
//!   line 9  — `BETA` is encoded but never decoded
//!   line 11 — `ORPHAN` has no coverage at all

pub mod kind {
    /// Fully covered: encode and decode.
    pub const ALPHA: u16 = 1;
    /// Encoded, never decoded.
    pub const BETA: u16 = 2;
    /// Dead tag.
    pub const ORPHAN: u16 = 3;
}
