//! IPv4 addresses, CIDR prefixes, a longest-prefix-match trie, and the
//! trie flattened into sorted address ranges.
//!
//! The measurement pipeline maps traceroute hop addresses to prefixes and
//! ASes exactly the way iNano does ("data to map IP addresses to prefixes
//! and ASes", §5), so we need a real LPM structure rather than a hash map.
//! A [`RangeTable`] answers the same longest match with one binary search.

use crate::ids::PrefixId;
use std::fmt;

/// An IPv4 address stored as a host-order `u32`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Build from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Raw host-order value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A CIDR prefix: `addr/len`. The address is stored pre-masked so two
/// equal prefixes always compare equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ipv4,
    len: u8,
}

impl Prefix {
    /// Create a prefix; the address is masked down to `len` bits.
    pub fn new(addr: Ipv4, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be <= 32");
        Prefix {
            addr: Ipv4(addr.0 & Self::mask(len)),
            len,
        }
    }

    /// The network mask for a given length.
    #[inline]
    pub const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Network address (already masked).
    pub const fn addr(self) -> Ipv4 {
        self.addr
    }

    /// Prefix length in bits.
    pub const fn len(self) -> u8 {
        self.len
    }

    /// True when this is the default route `0.0.0.0/0`.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Does `ip` fall inside this prefix?
    #[inline]
    pub const fn contains(self, ip: Ipv4) -> bool {
        (ip.0 & Self::mask(self.len)) == self.addr.0
    }

    /// Number of host addresses covered.
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The `i`th address inside the prefix (wraps within the prefix).
    pub fn nth(self, i: u64) -> Ipv4 {
        Ipv4(self.addr.0.wrapping_add((i % self.size()) as u32))
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A binary trie for longest-prefix matching, mapping [`Prefix`]es to
/// values — [`PrefixId`]s unless the caller picks another `Copy` type.
/// Nodes are kept in a flat arena for cache friendliness.
#[derive(Clone, Debug)]
pub struct PrefixTrie<V = PrefixId> {
    nodes: Vec<TrieNode<V>>,
    entries: usize,
}

#[derive(Clone, Debug)]
struct TrieNode<V> {
    children: [u32; 2],
    value: Option<V>,
}

const NO_CHILD: u32 = u32::MAX;

impl<V> TrieNode<V> {
    fn new() -> Self {
        TrieNode {
            children: [NO_CHILD, NO_CHILD],
            value: None,
        }
    }
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

impl<V> PrefixTrie<V> {
    /// An empty trie: the root node alone.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![TrieNode::new()],
            entries: 0,
        }
    }

    /// Number of prefixes inserted (overwrites don't count twice).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no prefix has been inserted.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Insert or overwrite the value for `prefix`. Returns the previous
    /// value if the prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((prefix.addr().raw() >> (31 - depth)) & 1) as usize;
            let next = self.nodes[node].children[bit];
            node = if next == NO_CHILD {
                let idx = self.nodes.len();
                self.nodes.push(TrieNode::new());
                self.nodes[node].children[bit] = idx as u32;
                idx
            } else {
                next as usize
            };
        }
        let prev = self.nodes[node].value.replace(value);
        if prev.is_none() {
            self.entries += 1;
        }
        prev
    }
}

impl<V: Copy> PrefixTrie<V> {
    /// Longest-prefix match: the value of the most specific prefix
    /// containing `ip`.
    pub fn lookup(&self, ip: Ipv4) -> Option<V> {
        let mut node = 0usize;
        let mut best = self.nodes[0].value;
        for depth in 0..32 {
            let bit = ((ip.raw() >> (31 - depth)) & 1) as usize;
            let next = self.nodes[node].children[bit];
            if next == NO_CHILD {
                break;
            }
            node = next as usize;
            if let Some(v) = self.nodes[node].value {
                best = Some(v);
            }
        }
        best
    }

    /// Exact-match lookup for a specific prefix.
    pub fn get(&self, prefix: Prefix) -> Option<V> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((prefix.addr().raw() >> (31 - depth)) & 1) as usize;
            let next = self.nodes[node].children[bit];
            if next == NO_CHILD {
                return None;
            }
            node = next as usize;
        }
        self.nodes[node].value
    }
}

impl<V: Copy + PartialEq> PrefixTrie<V> {
    /// Flatten the trie into the disjoint address ranges its longest
    /// match is constant on. An in-order walk carries the longest match
    /// down to each node, and a range starts wherever an absent child or
    /// a leaf hands out a match that differs from the one before it, so
    /// nested prefixes keep their longest match and adjacent prefixes
    /// with equal values share one range.
    pub fn ranges(&self) -> RangeTable<V> {
        let mut table = RangeTable {
            starts: Vec::new(),
            values: Vec::new(),
        };
        self.flatten(0, 0, 0, None, &mut table);
        table
    }

    /// Emit the ranges under `node`, the trie node of the `depth`-bit
    /// prefix at `base`, whose nearest ancestor with a value has `best`.
    fn flatten(&self, node: u32, depth: u32, base: u32, best: Option<V>, out: &mut RangeTable<V>) {
        let node = &self.nodes[node as usize];
        let best = node.value.or(best);
        if node.children == [NO_CHILD; 2] {
            out.push(base, best);
            return;
        }
        for (bit, &child) in node.children.iter().enumerate() {
            let base = base | ((bit as u32) << (31 - depth));
            match child {
                NO_CHILD => out.push(base, best),
                _ => self.flatten(child, depth + 1, base, best, out),
            }
        }
    }
}

/// A [`PrefixTrie`] flattened ([`PrefixTrie::ranges`]): the address space
/// cut into ranges sorted by first address, each holding the value of
/// its longest matching prefix or `None` where no prefix covers it. A
/// lookup is one binary search over the first addresses.
#[derive(Clone, Debug)]
pub struct RangeTable<V> {
    /// First address of each range, ascending; the first is 0, so every
    /// address falls in one.
    starts: Vec<u32>,
    values: Vec<Option<V>>,
}

impl<V: Copy + PartialEq> RangeTable<V> {
    /// Open a range at `start` with `value`, unless the range before
    /// already holds it.
    fn push(&mut self, start: u32, value: Option<V>) {
        if self.values.last() != Some(&value) {
            self.starts.push(start);
            self.values.push(value);
        }
    }

    /// The value of the longest prefix containing `ip`: what
    /// [`PrefixTrie::lookup`] answers on the trie this was built from.
    #[inline]
    pub fn lookup(&self, ip: Ipv4) -> Option<V> {
        let range = self.starts.partition_point(|&start| start <= ip.raw()) - 1;
        self.values[range]
    }
}

impl<V> RangeTable<V> {
    /// The first address of each range, ascending; uncovered ranges
    /// included, so there is at least one.
    pub fn starts(&self) -> impl Iterator<Item = Ipv4> + '_ {
        self.starts.iter().map(|&start| Ipv4(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_roundtrip() {
        let ip = Ipv4::from_octets(10, 1, 2, 3);
        assert_eq!(ip.octets(), [10, 1, 2, 3]);
        assert_eq!(ip.to_string(), "10.1.2.3");
    }

    #[test]
    fn prefix_masks_address() {
        let p = Prefix::new(Ipv4::from_octets(10, 1, 2, 3), 16);
        assert_eq!(p.addr(), Ipv4::from_octets(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn prefix_contains() {
        let p = Prefix::new(Ipv4::from_octets(192, 168, 0, 0), 24);
        assert!(p.contains(Ipv4::from_octets(192, 168, 0, 255)));
        assert!(!p.contains(Ipv4::from_octets(192, 168, 1, 0)));
        let default = Prefix::new(Ipv4(0), 0);
        assert!(default.contains(Ipv4::from_octets(8, 8, 8, 8)));
    }

    #[test]
    fn prefix_nth_wraps() {
        let p = Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 30);
        assert_eq!(p.size(), 4);
        assert_eq!(p.nth(0), Ipv4::from_octets(10, 0, 0, 0));
        assert_eq!(p.nth(5), Ipv4::from_octets(10, 0, 0, 1));
    }

    #[test]
    fn trie_longest_prefix_wins() {
        let mut t = PrefixTrie::new();
        t.insert(
            Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 8),
            PrefixId::new(1),
        );
        t.insert(
            Prefix::new(Ipv4::from_octets(10, 1, 0, 0), 16),
            PrefixId::new(2),
        );
        t.insert(
            Prefix::new(Ipv4::from_octets(10, 1, 2, 0), 24),
            PrefixId::new(3),
        );
        assert_eq!(
            t.lookup(Ipv4::from_octets(10, 1, 2, 3)),
            Some(PrefixId::new(3))
        );
        assert_eq!(
            t.lookup(Ipv4::from_octets(10, 1, 9, 9)),
            Some(PrefixId::new(2))
        );
        assert_eq!(
            t.lookup(Ipv4::from_octets(10, 9, 9, 9)),
            Some(PrefixId::new(1))
        );
        assert_eq!(t.lookup(Ipv4::from_octets(11, 0, 0, 1)), None);
        assert_eq!(t.len(), 3);
        // Flattened: uncovered, /8, /16, /24, /16, /8, uncovered.
        let ranges = t.ranges();
        assert_eq!(ranges.starts().count(), 7);
        for ip in ranges.starts().chain([Ipv4::from_octets(10, 1, 2, 3)]) {
            assert_eq!(ranges.lookup(ip), t.lookup(ip), "{ip}");
        }
    }

    #[test]
    fn ranges_merge_equal_neighbours_and_reach_the_last_address() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 25), 1u32);
        t.insert(Prefix::new(Ipv4::from_octets(10, 0, 0, 128), 25), 1);
        t.insert(Prefix::new(Ipv4(u32::MAX), 32), 2);
        let ranges = t.ranges();
        let starts: Vec<Ipv4> = ranges.starts().collect();
        assert_eq!(
            starts,
            [
                Ipv4(0),
                Ipv4::from_octets(10, 0, 0, 0),
                Ipv4::from_octets(10, 0, 1, 0),
                Ipv4(u32::MAX)
            ]
        );
        assert_eq!(ranges.lookup(Ipv4::from_octets(10, 0, 0, 200)), Some(1));
        assert_eq!(ranges.lookup(Ipv4(u32::MAX - 1)), None);
        assert_eq!(ranges.lookup(Ipv4(u32::MAX)), Some(2));
    }

    #[test]
    fn trie_overwrite_returns_previous() {
        let mut t = PrefixTrie::new();
        let p = Prefix::new(Ipv4::from_octets(172, 16, 0, 0), 12);
        assert_eq!(t.insert(p, PrefixId::new(1)), None);
        assert_eq!(t.insert(p, PrefixId::new(2)), Some(PrefixId::new(1)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p), Some(PrefixId::new(2)));
    }

    #[test]
    fn trie_exact_get_misses_on_absent() {
        let mut t = PrefixTrie::new();
        t.insert(
            Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 8),
            PrefixId::new(1),
        );
        assert_eq!(t.get(Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 16)), None);
    }

    #[test]
    fn a_default_trie_has_its_root() {
        let mut t = PrefixTrie::default();
        assert_eq!(t.lookup(Ipv4::from_octets(10, 0, 0, 1)), None);
        assert_eq!(t.ranges().starts().count(), 1);
        assert_eq!(t.ranges().lookup(Ipv4(u32::MAX)), None);
        let p = Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 8);
        t.insert(p, PrefixId::new(7));
        assert_eq!(
            t.lookup(Ipv4::from_octets(10, 0, 0, 1)),
            Some(PrefixId::new(7))
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn trie_default_route() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::new(Ipv4(0), 0), PrefixId::new(0));
        assert_eq!(
            t.lookup(Ipv4::from_octets(1, 2, 3, 4)),
            Some(PrefixId::new(0))
        );
        let ranges = t.ranges();
        assert_eq!(ranges.starts().count(), 1);
        assert_eq!(ranges.lookup(Ipv4(u32::MAX)), Some(PrefixId::new(0)));
    }
}
