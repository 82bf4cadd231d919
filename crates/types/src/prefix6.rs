//! IPv6 prefixes.
//!
//! The reproduction's simulator and pipeline are IPv4-scoped (as the
//! paper's headline analysis was), but real collector dumps interleave
//! `RIB_IPV6_UNICAST` records; the codec decodes them fully so a reader
//! can account for (rather than silently skip) the v6 table.

use crate::error::TypesError;
use std::fmt;
use std::str::FromStr;

/// An IPv6 prefix in CIDR notation.
///
/// Stored masked, like [`crate::Ipv4Prefix`], so equal prefixes compare
/// equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv6Prefix {
    network: u128,
    len: u8,
}

impl Ipv6Prefix {
    /// Construct a prefix, masking `addr` down to `len` bits (≤ 128).
    pub fn new(addr: u128, len: u8) -> Result<Self, TypesError> {
        if len > 128 {
            return Err(TypesError::InvalidPrefixLength(len));
        }
        Ok(Self {
            network: addr & Self::mask(len),
            len,
        })
    }

    fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len as u32)
        }
    }

    /// Masked network address.
    pub fn network(&self) -> u128 {
        self.network
    }

    /// Prefix length in bits (not a container length; a /0 prefix is
    /// the default route, not "empty").
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for `::/0`.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// True when `other` is fully contained within `self`.
    pub fn contains(&self, other: &Ipv6Prefix) -> bool {
        other.len >= self.len && (other.network & Self::mask(self.len)) == self.network
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Leverage std's canonical IPv6 text form (:: compression).
        let addr = std::net::Ipv6Addr::from(self.network);
        write!(f, "{}/{}", addr, self.len)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = TypesError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || TypesError::InvalidPrefix(s.to_string());
        let (addr_s, len_s) = s.split_once('/').ok_or_else(bad)?;
        let len: u8 = len_s.parse().map_err(|_| bad())?;
        let addr: std::net::Ipv6Addr = addr_s.parse().map_err(|_| bad())?;
        Ipv6Prefix::new(u128::from(addr), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["::/0", "2001:db8::/32", "2620:0:2d0::/48", "::1/128"] {
            let p: Ipv6Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn masked_on_construction() {
        let p: Ipv6Prefix = "2001:db8::ffff/32".parse().unwrap();
        assert_eq!(p.to_string(), "2001:db8::/32");
    }

    #[test]
    fn rejects_bad_input() {
        assert!("2001:db8::/129".parse::<Ipv6Prefix>().is_err());
        assert!("2001:db8::".parse::<Ipv6Prefix>().is_err());
        assert!("nonsense/32".parse::<Ipv6Prefix>().is_err());
        assert!(Ipv6Prefix::new(0, 200).is_err());
    }

    #[test]
    fn containment() {
        let p32: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        let p48: Ipv6Prefix = "2001:db8:1::/48".parse().unwrap();
        let other: Ipv6Prefix = "2001:db9::/32".parse().unwrap();
        assert!(p32.contains(&p48));
        assert!(!p48.contains(&p32));
        assert!(!p32.contains(&other));
        let dflt: Ipv6Prefix = "::/0".parse().unwrap();
        assert!(dflt.is_default());
        assert!(dflt.contains(&p32));
    }
}
