//! IPv4-style addresses and CIDR prefixes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A 32-bit network-layer address (IPv4-shaped; the paper targets IPv4 and
/// explicitly defers IPv6 to future work).
///
/// ```
/// use mtnet_net::Addr;
/// let a: Addr = "192.168.1.7".parse().unwrap();
/// assert_eq!(a.to_string(), "192.168.1.7");
/// assert_eq!(a.octets(), [192, 168, 1, 7]);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u32);

impl Addr {
    /// The all-zero (unspecified) address.
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Builds an address from four dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// True for the unspecified (0.0.0.0) address.
    pub const fn is_unspecified(self) -> bool {
        self.0 == 0
    }
}

impl From<u32> for Addr {
    fn from(v: u32) -> Self {
        Addr(v)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error parsing an [`Addr`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError(String);

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {:?}", self.0)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Addr {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAddrError(s.to_owned());
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for slot in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            *slot = part.parse().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        let [a, b, c, d] = octets;
        Ok(Addr::from_octets(a, b, c, d))
    }
}

/// A CIDR prefix: a network address plus mask length.
///
/// ```
/// use mtnet_net::{Addr, Prefix};
/// let p: Prefix = "10.1.0.0/16".parse().unwrap();
/// assert!(p.contains("10.1.200.3".parse().unwrap()));
/// assert!(!p.contains("10.2.0.1".parse().unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prefix {
    network: Addr,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix {
        network: Addr(0),
        len: 0,
    };

    /// Creates a prefix, canonicalizing the network address (host bits are
    /// zeroed).
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: Addr, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix {
            network: Addr(addr.0 & Self::mask(len)),
            len,
        }
    }

    /// A host route (`/32`) for one address.
    pub fn host(addr: Addr) -> Prefix {
        Prefix::new(addr, 32)
    }

    const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The canonical network address.
    pub fn network(&self) -> Addr {
        self.network
    }

    /// The mask length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the zero-length default prefix.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 & Self::mask(self.len) == self.network.0
    }

    /// The `i`-th host address inside this prefix (0 = network address).
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the prefix capacity.
    pub fn host_at(&self, i: u32) -> Addr {
        let capacity = if self.len == 32 {
            1u64
        } else {
            1u64 << (32 - self.len)
        };
        assert!(
            u64::from(i) < capacity,
            "host index {i} out of range for /{}",
            self.len
        );
        Addr(self.network.0 | i)
    }
}

/// Error parsing a [`Prefix`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError(String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix syntax: {:?}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePrefixError(s.to_owned());
        let (addr, len) = s.split_once('/').ok_or_else(err)?;
        let addr: Addr = addr.parse().map_err(|_| err())?;
        let len: u8 = len.parse().map_err(|_| err())?;
        if len > 32 {
            return Err(err());
        }
        Ok(Prefix::new(addr, len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_round_trip() {
        let a = Addr::from_octets(10, 20, 30, 40);
        assert_eq!(a.to_string(), "10.20.30.40");
        assert_eq!("10.20.30.40".parse::<Addr>().unwrap(), a);
        assert_eq!(a.octets(), [10, 20, 30, 40]);
    }

    #[test]
    fn addr_parse_rejects_garbage() {
        for bad in ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"] {
            assert!(bad.parse::<Addr>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn addr_error_display() {
        let e = "x".parse::<Addr>().unwrap_err();
        assert!(e.to_string().contains("invalid address"));
    }

    #[test]
    fn unspecified() {
        assert!(Addr::UNSPECIFIED.is_unspecified());
        assert!(!Addr::from_octets(1, 0, 0, 0).is_unspecified());
    }

    #[test]
    fn prefix_canonicalizes_host_bits() {
        let p = Prefix::new("10.1.2.3".parse().unwrap(), 16);
        assert_eq!(p.network().to_string(), "10.1.0.0");
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn prefix_contains() {
        let p: Prefix = "172.16.0.0/12".parse().unwrap();
        assert!(p.contains("172.16.0.1".parse().unwrap()));
        assert!(p.contains("172.31.255.255".parse().unwrap()));
        assert!(!p.contains("172.32.0.0".parse().unwrap()));
    }

    #[test]
    fn default_prefix_contains_everything() {
        assert!(Prefix::DEFAULT.contains(Addr(0)));
        assert!(Prefix::DEFAULT.contains(Addr(u32::MAX)));
        assert!(Prefix::DEFAULT.is_default());
    }

    #[test]
    fn host_prefix() {
        let a: Addr = "1.2.3.4".parse().unwrap();
        let p = Prefix::host(a);
        assert_eq!(p.len(), 32);
        assert!(p.contains(a));
        assert!(!p.contains("1.2.3.5".parse().unwrap()));
        assert_eq!(p.host_at(0), a);
    }

    #[test]
    fn host_at_indexing() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(p.host_at(5).to_string(), "10.0.0.5");
        assert_eq!(p.host_at(255).to_string(), "10.0.0.255");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn host_at_overflow_panics() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        p.host_at(256);
    }

    #[test]
    #[should_panic(expected = "> 32")]
    fn prefix_len_validation() {
        Prefix::new(Addr(0), 33);
    }

    #[test]
    fn prefix_parse_rejects_garbage() {
        for bad in ["10.0.0.0", "10.0.0.0/33", "x/8", "10.0.0.0/"] {
            assert!(bad.parse::<Prefix>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn ordering_usable_in_maps() {
        use std::collections::BTreeSet;
        let set: BTreeSet<Addr> = ["1.1.1.1", "0.0.0.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(set.iter().next().unwrap().to_string(), "0.0.0.1");
    }
}
