//! Strongly-typed identifiers for every entity in the simulated Internet.
//!
//! Using newtypes instead of bare `u32`s prevents an entire class of bugs
//! (indexing the PoP table with a prefix id, say) at zero runtime cost. All
//! ids are dense indexes assigned by the topology generator, so they can be
//! used directly as `Vec` indexes via [`Asn::index`] and friends.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a dense index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw value, for encoding.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// The id as a `usize` index into dense tables.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a `usize` index (panics on overflow).
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(u32::try_from(idx).expect("id overflow"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// An Autonomous System number.
    Asn,
    "AS"
);
define_id!(
    /// A Point-of-Presence: the set of routers of one AS in one location.
    PopId,
    "pop"
);
define_id!(
    /// A cluster of interfaces inferred to be the same PoP. In the ground
    /// truth topology clusters coincide with PoPs; the measurement pipeline
    /// re-derives them (possibly imperfectly) from alias resolution.
    ClusterId,
    "cl"
);
define_id!(
    /// A routable BGP prefix.
    PrefixId,
    "pfx"
);
define_id!(
    /// An end-host (client machine) attached to some prefix.
    HostId,
    "host"
);
define_id!(
    /// A router inside a PoP.
    RouterId,
    "r"
);
define_id!(
    /// A router interface; owns exactly one IP address.
    IfaceId,
    "if"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_raw() {
        let a = Asn::new(42);
        assert_eq!(a.raw(), 42);
        assert_eq!(a.index(), 42);
        assert_eq!(Asn::from_index(42), a);
        assert_eq!(Asn::from(42u32), a);
    }

    #[test]
    fn display_includes_tag() {
        assert_eq!(Asn::new(7).to_string(), "AS7");
        assert_eq!(PopId::new(3).to_string(), "pop3");
        assert_eq!(ClusterId::new(9).to_string(), "cl9");
        assert_eq!(format!("{:?}", PrefixId::new(1)), "pfx1");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(HostId::new(2) < HostId::new(10));
        let mut v = vec![RouterId::new(5), RouterId::new(1), RouterId::new(3)];
        v.sort();
        assert_eq!(
            v,
            vec![RouterId::new(1), RouterId::new(3), RouterId::new(5)]
        );
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn from_index_overflow_panics() {
        let _ = IfaceId::from_index(usize::MAX);
    }
}
