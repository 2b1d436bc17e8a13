//! Business relationships between adjacent ASes.
//!
//! The textbook Gao model (paper §4.1): an AS prefers routes through its
//! customers over peers over providers, and only exports customer routes to
//! everyone; peer/provider routes go to customers only. These rules make
//! routes *valley-free*.

/// The relationship of an AS `a` to a specific neighbor `b`, from `a`'s
/// point of view.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Relationship {
    /// `b` is a customer of `a` (`a` gets paid to carry `b`'s traffic).
    Customer,
    /// `b` is a peer of `a` (settlement-free interconnect).
    Peer,
    /// `b` is a provider of `a` (`a` pays `b`).
    Provider,
    /// `a` and `b` are siblings (same organisation, e.g. AS6380/AS6389 in
    /// the paper); they exchange all routes freely.
    Sibling,
}

impl Relationship {
    /// The relationship as seen from the other side of the link.
    #[must_use]
    pub fn reverse(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
            Relationship::Sibling => Relationship::Sibling,
        }
    }

    /// Default local-preference class: lower is more preferred
    /// (customer < sibling < peer < provider). Sibling routes are treated
    /// like slightly-worse-than-customer routes, reflecting that siblings
    /// exchange routes freely but transit via a sibling still uses
    /// someone's backbone.
    pub fn pref_class(self) -> u8 {
        match self {
            Relationship::Customer => 0,
            Relationship::Sibling => 1,
            Relationship::Peer => 2,
            Relationship::Provider => 3,
        }
    }

    /// Gao export rule: may a route *learned from* a neighbor with
    /// relationship `learned_from` be exported to a neighbor with
    /// relationship `export_to`?
    ///
    /// Customer routes (and the AS's own routes, which callers encode as
    /// `Customer`) go to everyone; peer and provider routes only to
    /// customers. Siblings receive and forward everything.
    pub fn may_export(learned_from: Relationship, export_to: Relationship) -> bool {
        if export_to == Relationship::Sibling || learned_from == Relationship::Sibling {
            return true;
        }
        match learned_from {
            Relationship::Customer => true,
            Relationship::Peer | Relationship::Provider => export_to == Relationship::Customer,
            Relationship::Sibling => true,
        }
    }
}

/// Is the sequence of relationships along a path valley-free?
///
/// `rels[i]` is the relationship of AS `i` to AS `i+1` *from i's point of
/// view* (so `Customer` means the path goes "down" to a customer). A
/// valley-free path goes up (via providers) zero or more times, crosses at
/// most one peer link, then goes down (via customers); siblings are
/// transparent.
pub fn is_valley_free(rels: &[Relationship]) -> bool {
    #[derive(PartialEq, PartialOrd)]
    enum Stage {
        Up,
        Peered,
        Down,
    }
    let mut stage = Stage::Up;
    for &r in rels {
        match r {
            Relationship::Sibling => {}
            Relationship::Provider => {
                // Going up: only allowed while still in the Up stage.
                if stage > Stage::Up {
                    return false;
                }
            }
            Relationship::Peer => {
                if stage > Stage::Up {
                    return false;
                }
                stage = Stage::Peered;
            }
            Relationship::Customer => {
                stage = Stage::Down;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use Relationship::*;

    #[test]
    fn reverse_is_involution() {
        for r in [Customer, Peer, Provider, Sibling] {
            assert_eq!(r.reverse().reverse(), r);
        }
        assert_eq!(Customer.reverse(), Provider);
        assert_eq!(Peer.reverse(), Peer);
    }

    #[test]
    fn pref_order_matches_paper() {
        assert!(Customer.pref_class() < Peer.pref_class());
        assert!(Peer.pref_class() < Provider.pref_class());
    }

    #[test]
    fn export_rules() {
        // Customer routes are exported to everyone.
        for to in [Customer, Peer, Provider] {
            assert!(Relationship::may_export(Customer, to));
        }
        // Peer/provider routes only to customers.
        assert!(Relationship::may_export(Peer, Customer));
        assert!(!Relationship::may_export(Peer, Peer));
        assert!(!Relationship::may_export(Peer, Provider));
        assert!(Relationship::may_export(Provider, Customer));
        assert!(!Relationship::may_export(Provider, Peer));
        assert!(!Relationship::may_export(Provider, Provider));
        // Siblings see everything.
        assert!(Relationship::may_export(Provider, Sibling));
        assert!(Relationship::may_export(Sibling, Provider));
    }

    #[test]
    fn valley_free_accepts_up_peer_down() {
        // up, up, peer, down, down
        assert!(is_valley_free(&[
            Provider, Provider, Peer, Customer, Customer
        ]));
        // pure down
        assert!(is_valley_free(&[Customer, Customer]));
        // pure up
        assert!(is_valley_free(&[Provider]));
        // sibling is transparent anywhere
        assert!(is_valley_free(&[
            Provider, Sibling, Peer, Sibling, Customer
        ]));
        assert!(is_valley_free(&[]));
    }

    #[test]
    fn valley_free_rejects_valleys() {
        // down then up: classic valley
        assert!(!is_valley_free(&[Customer, Provider]));
        // two peer crossings
        assert!(!is_valley_free(&[Peer, Peer]));
        // peer then up
        assert!(!is_valley_free(&[Peer, Provider]));
        // down, peer
        assert!(!is_valley_free(&[Customer, Peer]));
    }
}
