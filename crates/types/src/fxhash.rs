//! A fast, deterministic hasher for small fixed-width keys.
//!
//! The dense-id machinery ([`crate::AsnInterner`]), the link map of
//! [`crate::RelationshipMap`] (probed once per hop the inference stages
//! walk) and the hot pipeline maps hash millions of 4-byte ASNs and
//! dense ids; `std`'s default SipHash is
//! DoS-resistant but pays ~10× the cost of a multiplicative mix for such
//! keys. This is the Firefox/rustc "Fx" scheme: rotate, xor, multiply by
//! a constant with good bit dispersion. It is *not* collision-resistant
//! against adversarial input — use it only for internal maps keyed by
//! trusted data (ASNs, dense ids), never for attacker-controlled keys.
//!
//! Unlike `RandomState`, the hash is identical across processes, which
//! also makes iteration-order-sensitive bugs reproducible.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx scheme (a truncation of π's
/// hex expansion with good avalanche behavior under `wrapping_mul`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rotate-xor-multiply hasher; see module docs for the trust model.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Little-endian 8-byte words, the last one zero-padded. Whole words
    /// are loaded directly; only the tail goes through a padded copy.
    /// Frame checksums and cache keys depend on this exact word sequence.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `std::collections::HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `std::collections::HashSet` with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |v: u32| {
            let mut h = FxHasher::default();
            h.write_u32(v);
            h.finish()
        };
        assert_eq!(hash(65000), hash(65000));
        assert_ne!(hash(65000), hash(65001));
    }

    #[test]
    fn nearby_keys_disperse() {
        // Dense ASNs are the common key distribution; consecutive values
        // must not collide in the low bits the table actually uses.
        let mut low_bits: Vec<u64> = (0u32..64)
            .map(|v| {
                let mut h = FxHasher::default();
                h.write_u32(v);
                h.finish() & 0x3f
            })
            .collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(low_bits.len() > 32, "low bits collapse: {}", low_bits.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<crate::Asn, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(crate::Asn(i * 7), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&crate::Asn(21)), Some(&3));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let hash = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(hash(b"abcdefghij"), hash(b"abcdefghij"));
        assert_ne!(hash(b"abcdefghij"), hash(b"abcdefghik"));
    }
}
