//! Gao-style AS relationship inference from observed AS paths.
//!
//! This is *not* part of iNano's shipped atlas — the final system replaces
//! relationship inference with 3-tuples and observed preferences (§4.3.2:
//! "instead of explicitly distilling the AS relationships from the
//! observed routes..."). It exists for the `GRAPH` baseline, which needs
//! inferred relationships for its valley-free up/down construction, and
//! it is deliberately error-prone in the ways the paper describes (§4.3.3
//! notes Gao's algorithm infers implausibly many sibling relationships
//! among high-degree ASes).
//!
//! Method (Gao \[19\], simplified): on every observed path, the
//! highest-degree AS is assumed to be the "top of the hill"; edges before
//! it vote customer→provider, edges after vote provider→customer. Votes
//! are aggregated and classified with degree-based tie handling.

use inano_model::{AsPath, Asn, Relationship};
use std::collections::{BTreeMap, HashMap};

/// Inferred relationship table: `(a, b) → a's relationship to b`.
/// Symmetric entries are always stored for both orders.
pub type InferredRels = BTreeMap<(Asn, Asn), Relationship>;

/// Infer relationships from observed AS paths and observed degrees.
pub fn infer_relationships<'a, I>(paths: I, degree: &BTreeMap<Asn, u32>) -> InferredRels
where
    I: IntoIterator<Item = &'a AsPath>,
{
    // votes[(a,b)] = (a-customer-of-b count, a-provider-of-b count)
    let mut votes: HashMap<(Asn, Asn), (u32, u32)> = HashMap::new();
    let deg = |a: Asn| degree.get(&a).copied().unwrap_or(0);

    for path in paths {
        let s = path.as_slice();
        if s.len() < 2 {
            continue;
        }
        // Top of the hill: highest observed degree.
        let top = (0..s.len()).max_by_key(|&i| (deg(s[i]), i)).unwrap();
        for i in 0..s.len() - 1 {
            let (a, b) = (s[i], s[i + 1]);
            let e = votes.entry(ord(a, b)).or_default();
            let uphill = i < top;
            // Record from the perspective of the ordered pair.
            if (a < b) == uphill {
                e.0 += 1; // lower-ASN side is the customer
            } else {
                e.1 += 1;
            }
        }
    }

    let mut rels = InferredRels::new();
    for ((a, b), (cust_votes, prov_votes)) in votes {
        // Relationship of `a` (the lower ASN) to `b`.
        let rel_ab = classify(cust_votes, prov_votes, deg(a), deg(b));
        rels.insert((a, b), rel_ab);
        rels.insert((b, a), rel_ab.reverse());
    }
    rels
}

fn ord(a: Asn, b: Asn) -> (Asn, Asn) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Classify an edge given vote counts for "a is customer of b" vs
/// "a is provider of b" plus the two degrees. Returns a's relationship
/// to b (`Provider` meaning b is a's provider).
fn classify(cust: u32, prov: u32, deg_a: u32, deg_b: u32) -> Relationship {
    let total = cust + prov;
    if total == 0 {
        return Relationship::Peer;
    }
    let ratio = cust as f64 / total as f64;
    if ratio >= 0.8 {
        Relationship::Provider // b provides for a
    } else if ratio <= 0.2 {
        Relationship::Customer
    } else if cust.min(prov) >= 3 {
        // Strong conflicting evidence: Gao calls these siblings — famously
        // over-inferred between high-degree ASes.
        Relationship::Sibling
    } else if deg_a * 4 < deg_b {
        Relationship::Provider
    } else if deg_b * 4 < deg_a {
        Relationship::Customer
    } else {
        Relationship::Peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(v: &[u32]) -> AsPath {
        AsPath::new(v.iter().map(|&x| Asn::new(x)))
    }

    fn degrees(pairs: &[(u32, u32)]) -> BTreeMap<Asn, u32> {
        pairs.iter().map(|&(a, d)| (Asn::new(a), d)).collect()
    }

    #[test]
    fn clean_hill_infers_customer_provider() {
        // 1 -> 2 -> 3 with 2 the high-degree top: 1 customer of 2,
        // 3 customer of 2.
        let paths = vec![path(&[1, 2, 3]); 5];
        let deg = degrees(&[(1, 2), (2, 50), (3, 2)]);
        let rels = infer_relationships(paths.iter(), &deg);
        assert_eq!(rels[&(Asn::new(1), Asn::new(2))], Relationship::Provider);
        assert_eq!(rels[&(Asn::new(2), Asn::new(1))], Relationship::Customer);
        assert_eq!(rels[&(Asn::new(2), Asn::new(3))], Relationship::Customer);
    }

    #[test]
    fn conflicting_votes_become_siblings() {
        // Edge 1-2 seen uphill in some paths, downhill in others.
        let mut paths = vec![path(&[1, 2, 9]); 4]; // top 9: 1->2 uphill
        paths.extend(vec![path(&[9, 1, 2]); 4]); // top 9 first: downhill
        let deg = degrees(&[(1, 5), (2, 5), (9, 80)]);
        let rels = infer_relationships(paths.iter(), &deg);
        assert_eq!(rels[&(Asn::new(1), Asn::new(2))], Relationship::Sibling);
    }

    #[test]
    fn sparse_similar_degree_defaults_to_peer() {
        let paths = [path(&[4, 5, 6])]; // single observation
        let deg = degrees(&[(4, 10), (5, 11), (6, 9)]);
        let rels = infer_relationships(paths.iter(), &deg);
        // 5 is top; edge 5-6 is downhill once: ratio 0 => customer of 5.
        assert_eq!(rels[&(Asn::new(5), Asn::new(6))], Relationship::Customer);
        // Edge 4-5: uphill once => provider relation.
        assert_eq!(rels[&(Asn::new(4), Asn::new(5))], Relationship::Provider);
    }

    #[test]
    fn reverse_entries_consistent() {
        let paths = vec![path(&[1, 2, 3, 4]); 3];
        let deg = degrees(&[(1, 1), (2, 20), (3, 30), (4, 1)]);
        let rels = infer_relationships(paths.iter(), &deg);
        for (&(a, b), &r) in &rels {
            assert_eq!(rels[&(b, a)], r.reverse());
        }
    }
}
