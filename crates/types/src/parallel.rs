//! Thread-count configuration and the one fork-join helper shared by
//! every parallel stage.
//!
//! All fan-out stages in the workspace (sanitization, the path arena,
//! the observed cones, valley grading, MRT decode, route propagation)
//! are written so their output is **identical for every thread count**:
//! [`Parallelism::map_ranges`] splits the work into contiguous chunks,
//! each chunk's result is deterministic, and results are reassembled in
//! chunk order (or merged with an order-independent operation such as
//! bitset union or counter addition). [`Parallelism`] only chooses how
//! wide to fan out — `sequential()` additionally pins the exact
//! single-threaded execution order, which is useful when bisecting.

use std::fmt;
use std::ops::Range;

/// How many worker threads a parallel stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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

    /// Map `f` over contiguous index ranges covering `0..n`, each
    /// [`Parallelism::chunk_size`]`(n, min_chunk)` long (the last may be
    /// shorter), and return the per-range results **in range order**.
    ///
    /// Each range runs on its own scoped thread, except that a lone range
    /// runs inline on the caller. A worker's panic is re-raised on the
    /// caller with its original payload once every worker has stopped.
    pub fn map_ranges<R, F>(self, min_chunk: usize, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let chunk = self.chunk_size(n, min_chunk);
        if chunk >= n {
            return vec![f(0..n)];
        }
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| s.spawn(move || f(start..(start + chunk).min(n))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
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
    fn range_results_preserve_order() {
        let items: Vec<u64> = (0..1000).collect();
        for par in [
            Parallelism::sequential(),
            Parallelism::threads(3),
            Parallelism::auto(),
        ] {
            let sums = par.map_ranges(1, items.len(), |r| items[r].iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), 499_500);
            // First range must be the lowest items: order is positional.
            let first_len = items.len().div_ceil(par.effective()).max(1);
            let expected_first: u64 = items[..first_len.min(items.len())].iter().sum();
            assert_eq!(sums[0], expected_first);
        }
    }

    #[test]
    fn ranges_cover_everything_once() {
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let covered = par.map_ranges(10, 105, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = covered.into_iter().flatten().collect();
            assert_eq!(flat, (0..105).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn empty_inputs_yield_no_ranges() {
        let out: Vec<u32> = Parallelism::auto().map_ranges(1, 0, |_| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let items: Vec<u32> = (0..777).map(|i| i * 7 % 253).collect();
        let run = |par: Parallelism| {
            par.map_ranges(5, items.len(), |r| {
                items[r]
                    .iter()
                    .map(|&x| x as u64 * x as u64)
                    .collect::<Vec<u64>>()
            })
            .concat()
        };
        let seq = run(Parallelism::sequential());
        let par4 = run(Parallelism::threads(4));
        let auto = run(Parallelism::auto());
        assert_eq!(seq, par4);
        assert_eq!(seq, auto);
    }

    #[test]
    fn worker_panic_reaches_caller_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Boom(usize);
        let caught = std::panic::catch_unwind(|| {
            Parallelism::threads(4).map_ranges(1, 8, |r| {
                if r.start == 4 {
                    std::panic::panic_any(Boom(r.start));
                }
                r.len()
            })
        })
        .expect_err("the worker panic must reach the caller");
        assert_eq!(caught.downcast_ref::<Boom>(), Some(&Boom(4)));
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
