//! Deterministic per-tuple randomness.
//!
//! Route propagation runs destination-parallel; threading one RNG through
//! it would serialize the simulation and make results depend on thread
//! scheduling. Instead, every stochastic decision (does AS *x* leak toward
//! destination *d*? does AS *x* prepend on this path?) is a pure function
//! of `(seed, participants)` via a splitmix64-based mixer, so the full
//! simulation is reproducible regardless of parallelism.

/// One round of splitmix64 — a fast, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mix an arbitrary tuple of words into one 64-bit value.
#[inline]
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    absorb(splitmix64(seed), parts)
}

/// Continue a mix with more words: `absorb(mix(seed, a), b)` equals
/// `mix(seed, a ++ b)`, so a prefix many draws share is mixed once.
#[inline]
pub fn absorb(mut h: u64, parts: &[u64]) -> u64 {
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

/// Deterministic Bernoulli draw: true with probability `p`.
#[inline]
pub fn chance(seed: u64, parts: &[u64], p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    below(mix(seed, parts), p)
}

/// The Bernoulli draw of [`chance`] from an already mixed value `h`:
/// `chance(seed, parts, p) == below(mix(seed, parts), p)` for every `p`.
#[inline]
pub fn below(h: u64, p: f64) -> bool {
    // Map the top 53 bits to [0, 1).
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    u < p
}

/// Deterministic uniform draw from `[0, n)`; `n` must be non-zero.
#[inline]
pub fn pick(seed: u64, parts: &[u64], n: usize) -> usize {
    debug_assert!(n > 0);
    (mix(seed, parts) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_sensitive() {
        assert_eq!(mix(1, &[2, 3]), mix(1, &[2, 3]));
        assert_ne!(mix(1, &[2, 3]), mix(1, &[3, 2]));
        assert_ne!(mix(1, &[2, 3]), mix(2, &[2, 3]));
    }

    #[test]
    fn absorb_continues_mix_and_below_matches_chance() {
        for i in 0..1000u64 {
            assert_eq!(absorb(mix(5, &[i]), &[7, 0x1ea4]), mix(5, &[i, 7, 0x1ea4]));
            for p in [-1.0, 0.0, 0.001, 0.3, 0.999, 1.0, 2.0] {
                assert_eq!(below(mix(5, &[i, 7]), p), chance(5, &[i, 7], p));
            }
        }
    }

    #[test]
    fn chance_extremes() {
        assert!(!chance(1, &[1], 0.0));
        assert!(chance(1, &[1], 1.0));
    }

    #[test]
    fn chance_frequency_close_to_p() {
        let hits = (0..100_000u64).filter(|&i| chance(42, &[i], 0.3)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.3).abs() < 0.01, "f={f}");
    }

    #[test]
    fn pick_in_range_and_covers() {
        let mut seen = [false; 7];
        for i in 0..1000u64 {
            let k = pick(9, &[i], 7);
            assert!(k < 7);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
