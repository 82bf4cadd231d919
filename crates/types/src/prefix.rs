//! IPv4 prefixes.
//!
//! The paper's input is a set of RIB entries — (prefix, AS path) pairs seen
//! at each vantage point. Prefixes matter to the reproduction in three
//! places: the simulator originates them, the MRT codec serializes them in
//! NLRI encoding, and the cone analysis weighs ASes by the address space
//! their customer cone announces.

use crate::error::TypesError;
use std::fmt;
use std::str::FromStr;

/// An IPv4 prefix in CIDR notation (`a.b.c.d/len`).
///
/// The network address is stored in host byte order and is always masked to
/// its length, so two equal prefixes always compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Prefix {
    network: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// Construct a prefix, masking `addr` down to `len` bits.
    ///
    /// Returns an error for lengths above 32.
    pub fn new(addr: u32, len: u8) -> Result<Self, TypesError> {
        if len > 32 {
            return Err(TypesError::InvalidPrefixLength(len));
        }
        Ok(Self {
            network: addr & Self::mask(len),
            len,
        })
    }

    /// The all-addresses prefix `0.0.0.0/0`.
    pub const DEFAULT_ROUTE: Ipv4Prefix = Ipv4Prefix { network: 0, len: 0 };

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// Masked network address, host byte order.
    pub fn network(&self) -> u32 {
        self.network
    }

    /// Prefix length in bits (not a container length; a /0 prefix is
    /// the default route, not "empty").
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the zero-length default route.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Number of addresses covered by this prefix.
    ///
    /// ```
    /// use asrank_types::Ipv4Prefix;
    /// let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    /// assert_eq!(p.address_count(), 1 << 24);
    /// ```
    pub fn address_count(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// True when `other` is fully contained within `self`
    /// (equal prefixes contain each other).
    pub fn contains(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && (other.network & Self::mask(self.len)) == self.network
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.network;
        write!(
            f,
            "{}.{}.{}.{}/{}",
            n >> 24,
            (n >> 16) & 0xff,
            (n >> 8) & 0xff,
            n & 0xff,
            self.len
        )
    }
}

impl FromStr for Ipv4Prefix {
    type Err = TypesError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || TypesError::InvalidPrefix(s.to_string());
        let (addr_s, len_s) = s.split_once('/').ok_or_else(bad)?;
        let len: u8 = len_s.parse().map_err(|_| bad())?;
        let mut octets = addr_s.split('.');
        let mut addr: u32 = 0;
        for _ in 0..4 {
            let o: u8 = octets.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            addr = (addr << 8) | o as u32;
        }
        if octets.next().is_some() {
            return Err(bad());
        }
        Ipv4Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.128.0/17", "1.2.3.4/32"] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn network_is_masked_on_construction() {
        let p = Ipv4Prefix::new(0x0a01_02ff, 24).unwrap();
        assert_eq!(p.to_string(), "10.1.2.0/24");
        let q: Ipv4Prefix = "10.1.2.255/24".parse().unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0.1/8".parse::<Ipv4Prefix>().is_err());
        assert!("300.0.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!(Ipv4Prefix::new(0, 40).is_err());
    }

    #[test]
    fn containment() {
        let p8: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let p16: Ipv4Prefix = "10.5.0.0/16".parse().unwrap();
        let other: Ipv4Prefix = "11.0.0.0/16".parse().unwrap();
        assert!(p8.contains(&p16));
        assert!(!p16.contains(&p8));
        assert!(p8.contains(&p8));
        assert!(!p8.contains(&other));
        assert!(Ipv4Prefix::DEFAULT_ROUTE.contains(&p8));
    }

    #[test]
    fn address_count() {
        let p: Ipv4Prefix = "0.0.0.0/0".parse().unwrap();
        assert_eq!(p.address_count(), 1u64 << 32);
        let q: Ipv4Prefix = "1.2.3.4/32".parse().unwrap();
        assert_eq!(q.address_count(), 1);
    }
}
