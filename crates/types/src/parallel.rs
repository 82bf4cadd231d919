//! Thread-count configuration shared by every parallel stage.
//!
//! All fan-out stages in the workspace (sanitization, VP inference, cone
//! materialization, route propagation) are written so their output is
//! **identical for every thread count**: work is chunked, each chunk's
//! result is deterministic, and results are reassembled in chunk order
//! (or merged with an order-independent operation such as bitset union
//! or counter addition). [`Parallelism`] only chooses how wide to fan
//! out — `sequential()` additionally pins the exact single-threaded
//! execution order, which is useful when bisecting.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How many worker threads a parallel stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Parallelism(
    // 0 = all available cores; otherwise the exact count.
    usize,
);

impl Parallelism {
    /// Use every available core (the default).
    pub const fn auto() -> Self {
        Parallelism(0)
    }

    /// Single-threaded: reproduces the exact sequential execution order.
    pub const fn sequential() -> Self {
        Parallelism(1)
    }

    /// Exactly `n` threads (`0` means auto).
    pub const fn threads(n: usize) -> Self {
        Parallelism(n)
    }

    /// The concrete thread count to use (≥ 1).
    pub fn effective(self) -> usize {
        if self.0 > 0 {
            self.0
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Chunk size that spreads `items` evenly over the effective threads,
    /// but never below `min` (tiny chunks cost more to dispatch than to
    /// process).
    pub fn chunk_size(self, items: usize, min: usize) -> usize {
        items.div_ceil(self.effective()).max(min).max(1)
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            f.write_str("auto")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl std::str::FromStr for Parallelism {
    type Err = String;

    /// Parse `"auto"`, `"0"` (auto), or a positive thread count.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(Parallelism::auto());
        }
        s.parse::<usize>()
            .map(Parallelism)
            .map_err(|_| format!("invalid thread count {s:?} (want a number or \"auto\")"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_is_at_least_one() {
        assert!(Parallelism::auto().effective() >= 1);
        assert_eq!(Parallelism::sequential().effective(), 1);
        assert_eq!(Parallelism::threads(3).effective(), 3);
        assert!(Parallelism::threads(0).effective() >= 1, "0 means auto");
    }

    #[test]
    fn chunk_size_respects_minimum() {
        let p = Parallelism::threads(4);
        assert_eq!(p.chunk_size(100, 1), 25);
        assert_eq!(p.chunk_size(100, 64), 64);
        assert_eq!(p.chunk_size(0, 1), 1, "never zero");
    }

    #[test]
    fn parses_auto_and_counts() {
        assert_eq!("auto".parse::<Parallelism>(), Ok(Parallelism::auto()));
        assert_eq!("AUTO".parse::<Parallelism>(), Ok(Parallelism::auto()));
        assert_eq!("2".parse::<Parallelism>(), Ok(Parallelism::threads(2)));
        assert_eq!("0".parse::<Parallelism>(), Ok(Parallelism::auto()));
        assert!("two".parse::<Parallelism>().is_err());
    }

    #[test]
    fn displays_round_trip() {
        assert_eq!(Parallelism::auto().to_string(), "auto");
        assert_eq!(Parallelism::threads(8).to_string(), "8");
    }
}
