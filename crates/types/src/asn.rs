//! Autonomous system numbers and their IANA classification.
//!
//! The sanitization step of the ASRank pipeline (paper §3, step 1) discards
//! paths containing ASNs that cannot correspond to a routable network:
//! reserved, private-use, documentation, and the `AS_TRANS` placeholder.
//! [`AsnClass`] encodes that taxonomy; [`Asn::class`] performs the lookup.

use std::fmt;

/// An autonomous system number (4-byte, RFC 6793).
///
/// `Asn` is a transparent newtype over `u32` ordered numerically. Display
/// uses the canonical `ASxxxx` notation ("asplain", RFC 5396).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u32);

/// IANA-derived classification of an ASN, used by path sanitization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsnClass {
    /// Ordinary globally-assignable ASN.
    Public,
    /// ASN 0 — may never appear in an AS path (RFC 7607).
    Zero,
    /// `AS_TRANS` (23456), the 2-byte placeholder for 4-byte ASNs (RFC 6793).
    AsTrans,
    /// Private-use ranges 64512–65534 and 4200000000–4294967294 (RFC 6996).
    Private,
    /// Documentation ranges 64496–64511 and 65536–65551 (RFC 5398).
    Documentation,
    /// 65535 and 4294967295, reserved "last ASN" values (RFC 7300).
    LastReserved,
}

/// Checked narrowing of a `usize` count/offset into the dense-id domain
/// (`u32`).
///
/// Dense AS ids, CSR offsets, and cone bounds all live in `u32`; lengths
/// and cursor positions live in `usize`. A raw `as u32` at the boundary
/// would wrap silently past 2^32 — far beyond any real AS topology, but
/// "impossible" sizes are exactly what audits exist to catch. This is the
/// one sanctioned conversion (lint rule L005 flags raw casts everywhere
/// outside this module).
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`, which would mean the id space
/// itself is corrupt.
#[inline]
pub fn dense_id(n: usize) -> u32 {
    u32::try_from(n).expect("dense-id domain overflow: count exceeds u32::MAX")
}

impl Asn {
    /// Classify this ASN against the IANA special-purpose registry.
    ///
    /// ```
    /// use asrank_types::{Asn, AsnClass};
    /// assert_eq!(Asn(3356).class(), AsnClass::Public);
    /// assert_eq!(Asn(0).class(), AsnClass::Zero);
    /// assert_eq!(Asn(23456).class(), AsnClass::AsTrans);
    /// assert_eq!(Asn(64512).class(), AsnClass::Private);
    /// assert_eq!(Asn(64500).class(), AsnClass::Documentation);
    /// assert_eq!(Asn(u32::MAX).class(), AsnClass::LastReserved);
    /// ```
    pub fn class(self) -> AsnClass {
        match self.0 {
            0 => AsnClass::Zero,
            23456 => AsnClass::AsTrans,
            64496..=64511 | 65536..=65551 => AsnClass::Documentation,
            64512..=65534 | 4200000000..=4294967294 => AsnClass::Private,
            65535 | 4294967295 => AsnClass::LastReserved,
            _ => AsnClass::Public,
        }
    }

    /// True when this ASN may legitimately appear in a public AS path.
    ///
    /// The ASRank sanitizer drops any path containing a non-routable ASN,
    /// treating it as a measurement artifact or deliberate poisoning.
    pub fn is_routable(self) -> bool {
        self.class() == AsnClass::Public
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl From<Asn> for u32 {
    fn from(v: Asn) -> Self {
        v.0
    }
}

/// A dense interner mapping sparse [`Asn`] values to contiguous `usize`
/// indices.
///
/// The inference pipeline and the routing simulator both run graph
/// algorithms over tens of thousands of ASes; indexing flat vectors by a
/// dense id is considerably faster (and smaller) than hashing raw ASNs at
/// every step. The interner is append-only: indices are stable for the
/// lifetime of the interner.
#[derive(Debug, Clone, Default)]
pub struct AsnInterner {
    // Fx-hashed: ASN keys are trusted in-tree data, and the SipHash
    // default is the dominant cost of bulk interning (see fxhash docs).
    forward: crate::fxhash::FxHashMap<Asn, u32>,
    reverse: Vec<Asn>,
}

impl AsnInterner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an interner over `ases` in one pass: the input is sorted and
    /// deduplicated, so dense ids are assigned in ascending ASN order
    /// regardless of input order. This is the bulk constructor every
    /// graph algorithm should use — it reserves both tables up front and
    /// produces a canonical (input-order-independent) id assignment.
    pub fn from_ases<I: IntoIterator<Item = Asn>>(ases: I) -> Self {
        let mut sorted: Vec<Asn> = ases.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let forward = sorted
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u32))
            .collect();
        AsnInterner {
            forward,
            reverse: sorted,
        }
    }

    /// Intern `asn`, returning its dense index (allocating one if new).
    pub fn intern(&mut self, asn: Asn) -> u32 {
        if let Some(&idx) = self.forward.get(&asn) {
            return idx;
        }
        let idx = self.reverse.len() as u32;
        self.forward.insert(asn, idx);
        self.reverse.push(asn);
        idx
    }

    /// Look up the dense index of `asn` without allocating.
    pub fn get(&self, asn: Asn) -> Option<u32> {
        self.forward.get(&asn).copied()
    }

    /// Recover the ASN behind dense index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` was never returned by [`AsnInterner::intern`].
    pub fn resolve(&self, idx: u32) -> Asn {
        self.reverse[idx as usize]
    }

    /// Number of distinct ASNs interned so far.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True when no ASN has been interned.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Iterate over `(dense index, asn)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Asn)> + '_ {
        self.reverse.iter().enumerate().map(|(i, &a)| (i as u32, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        assert_eq!(Asn(1).class(), AsnClass::Public);
        assert_eq!(Asn(64495).class(), AsnClass::Public);
        assert_eq!(Asn(64496).class(), AsnClass::Documentation);
        assert_eq!(Asn(64511).class(), AsnClass::Documentation);
        assert_eq!(Asn(64512).class(), AsnClass::Private);
        assert_eq!(Asn(65534).class(), AsnClass::Private);
        assert_eq!(Asn(65535).class(), AsnClass::LastReserved);
        assert_eq!(Asn(65536).class(), AsnClass::Documentation);
        assert_eq!(Asn(65551).class(), AsnClass::Documentation);
        assert_eq!(Asn(65552).class(), AsnClass::Public);
        assert_eq!(Asn(4199999999).class(), AsnClass::Public);
        assert_eq!(Asn(4200000000).class(), AsnClass::Private);
        assert_eq!(Asn(4294967294).class(), AsnClass::Private);
        assert_eq!(Asn(4294967295).class(), AsnClass::LastReserved);
    }

    #[test]
    fn routability_follows_class() {
        assert!(Asn(15169).is_routable());
        assert!(!Asn(0).is_routable());
        assert!(!Asn(23456).is_routable());
        assert!(!Asn(64512).is_routable());
    }

    #[test]
    fn display_uses_asplain() {
        assert_eq!(Asn(3356).to_string(), "AS3356");
    }

    #[test]
    fn interner_round_trips() {
        let mut i = AsnInterner::new();
        let a = i.intern(Asn(100));
        let b = i.intern(Asn(7));
        assert_eq!(i.intern(Asn(100)), a);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), Asn(100));
        assert_eq!(i.resolve(b), Asn(7));
        assert_eq!(i.get(Asn(7)), Some(b));
        assert_eq!(i.get(Asn(8)), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn bulk_constructor_sorts_and_dedups() {
        let i = AsnInterner::from_ases([Asn(9), Asn(3), Asn(9), Asn(5)]);
        assert_eq!(i.len(), 3);
        assert_eq!(i.resolve(0), Asn(3));
        assert_eq!(i.resolve(1), Asn(5));
        assert_eq!(i.resolve(2), Asn(9));
        assert_eq!(i.get(Asn(5)), Some(1));
        assert_eq!(i.get(Asn(4)), None);
        // Same set, different input order → identical assignment.
        let j = AsnInterner::from_ases([Asn(5), Asn(9), Asn(3)]);
        assert_eq!(
            i.iter().collect::<Vec<_>>(),
            j.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn interner_iter_preserves_order() {
        let mut i = AsnInterner::new();
        for v in [5u32, 3, 9] {
            i.intern(Asn(v));
        }
        let collected: Vec<_> = i.iter().map(|(_, a)| a.0).collect();
        assert_eq!(collected, vec![5, 3, 9]);
    }
}
