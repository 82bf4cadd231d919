//! Binary radix trie over IPv4 prefixes with longest-prefix match.
//!
//! Real MRT data arrives as (prefix, path) pairs without origin labels;
//! mapping addresses and covered prefixes back to origin ASes — the
//! "IP-to-AS" step every topology study performs — needs longest-prefix
//! match over hundreds of thousands of entries. The trie is a classic
//! uncompressed binary trie: one bit per level, at most 32 levels, so
//! lookups are bounded and allocation-light.

use crate::prefix::Ipv4Prefix;

/// A binary trie mapping IPv4 prefixes to values of type `T`.
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<T> {
    children: [Option<u32>; 2],
    value: Option<T>,
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            children: [None, None],
            value: None,
        }
    }
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie {
            nodes: vec![Node::default()],
            len: 0,
        }
    }
}

impl<T> PrefixTrie<T> {
    /// Create an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bit(addr: u32, depth: u8) -> usize {
        ((addr >> (31 - depth as u32)) & 1) as usize
    }

    /// Insert (or replace) the value for `prefix`. Returns the previous
    /// value when replacing.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.network(), depth);
            let next = match self.nodes[node].children[b] {
                Some(n) => n as usize,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(Node::default());
                    self.nodes[node].children[b] = Some(n as u32);
                    n
                }
            };
            node = next;
        }
        let old = self.nodes[node].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.network(), depth);
            node = self.nodes[node].children[b]? as usize;
        }
        self.nodes[node].value.as_ref()
    }

    /// Longest-prefix match for a single address: the value of the most
    /// specific stored prefix containing `addr`, with its length.
    pub fn lookup_addr(&self, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        let mut node = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for depth in 0..32u8 {
            let b = Self::bit(addr, depth);
            match self.nodes[node].children[b] {
                Some(n) => {
                    node = n as usize;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| (Ipv4Prefix::new(addr, len).expect("len <= 32"), v))
    }

    /// Longest-prefix match for a whole prefix: the most specific stored
    /// prefix that *contains* `prefix`.
    pub fn lookup_prefix(&self, prefix: &Ipv4Prefix) -> Option<(Ipv4Prefix, &T)> {
        let mut node = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for depth in 0..prefix.len() {
            let b = Self::bit(prefix.network(), depth);
            match self.nodes[node].children[b] {
                Some(n) => {
                    node = n as usize;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| {
            (
                Ipv4Prefix::new(prefix.network(), len).expect("len <= 32"),
                v,
            )
        })
    }
}

impl<T> FromIterator<(Ipv4Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::Asn;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn exact_and_lpm() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), Asn(1));
        t.insert(p("10.1.0.0/16"), Asn(2));
        t.insert(p("10.1.2.0/24"), Asn(3));

        assert_eq!(t.get(&p("10.1.0.0/16")), Some(&Asn(2)));
        assert_eq!(t.get(&p("10.2.0.0/16")), None);

        // Most specific wins.
        let (m, v) = t.lookup_addr(0x0a01_0203).unwrap(); // 10.1.2.3
        assert_eq!((m, *v), (p("10.1.2.0/24"), Asn(3)));
        let (m, v) = t.lookup_addr(0x0a01_0503).unwrap(); // 10.1.5.3
        assert_eq!((m, *v), (p("10.1.0.0/16"), Asn(2)));
        let (m, v) = t.lookup_addr(0x0aff_0000).unwrap(); // 10.255.0.0
        assert_eq!((m, *v), (p("10.0.0.0/8"), Asn(1)));
        assert!(t.lookup_addr(0x0b00_0000).is_none()); // 11.0.0.0
    }

    #[test]
    fn prefix_lookup_finds_covering_entry() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), "big");
        t.insert(p("10.64.0.0/10"), "mid");
        let (m, v) = t.lookup_prefix(&p("10.64.12.0/24")).unwrap();
        assert_eq!((m, *v), (p("10.64.0.0/10"), "mid"));
        let (m, v) = t.lookup_prefix(&p("10.128.0.0/9")).unwrap();
        assert_eq!((m, *v), (p("10.0.0.0/8"), "big"));
        // An exact match is also a containing match.
        let (m, _) = t.lookup_prefix(&p("10.64.0.0/10")).unwrap();
        assert_eq!(m, p("10.64.0.0/10"));
        assert!(t.lookup_prefix(&p("12.0.0.0/8")).is_none());
    }

    #[test]
    fn replace_returns_old() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("1.0.0.0/8"), 7), None);
        assert_eq!(t.insert(p("1.0.0.0/8"), 9), Some(7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(Ipv4Prefix::DEFAULT_ROUTE, 0u8);
        let (m, v) = t.lookup_addr(0xdead_beef).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(*v, 0);
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(p("1.2.3.4/32"), 1u8);
        assert!(t.lookup_addr(0x0102_0304).is_some());
        assert!(t.lookup_addr(0x0102_0305).is_none());
    }

    #[test]
    fn from_iter_builds() {
        let t: PrefixTrie<u32> = [(p("10.0.0.0/8"), 1u32), (p("11.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
