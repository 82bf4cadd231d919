//! Deterministic fork-join helpers for the pipeline's fan-out stages.
//!
//! Every parallel stage in this crate follows the same shape: split the
//! work into contiguous chunks, process each chunk independently, and
//! reassemble the per-chunk results **in chunk order**. Because each
//! chunk's result depends only on its input (never on scheduling), the
//! assembled output is bit-identical for every thread count — the
//! guarantee the `parallel_determinism` integration test pins down.

use asrank_types::Parallelism;
use std::ops::Range;

/// Map `f` over contiguous index ranges covering `0..n` (each at least
/// `min_chunk` long), returning per-range results in range order.
pub fn map_ranges<R, F>(par: Parallelism, min_chunk: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let chunk = par.chunk_size(n, min_chunk);
    if chunk >= n {
        return vec![f(0..n)];
    }
    let ranges: Vec<Range<usize>> = (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let f = &f;
                scope.spawn(move |_| f(r))
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(panics, re-raises a child panic on the caller thread; swallowing it would return truncated results)
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
    // lint: allow(panics, scope only errs when a worker panicked; the join above already re-raised it)
    .expect("crossbeam scope failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_results_preserve_order() {
        let items: Vec<u64> = (0..1000).collect();
        for par in [
            Parallelism::sequential(),
            Parallelism::threads(3),
            Parallelism::auto(),
        ] {
            let sums = map_ranges(par, 1, items.len(), |r| items[r].iter().sum::<u64>());
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
            let covered = map_ranges(par, 10, 105, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = covered.into_iter().flatten().collect();
            assert_eq!(flat, (0..105).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn empty_inputs_yield_no_ranges() {
        let out: Vec<u32> = map_ranges(Parallelism::auto(), 1, 0, |_| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let items: Vec<u32> = (0..777).map(|i| i * 7 % 253).collect();
        let run = |par| {
            map_ranges(par, 5, items.len(), |r| {
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
}
