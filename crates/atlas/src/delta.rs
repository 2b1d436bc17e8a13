//! Daily atlas deltas (§5, "Keeping Atlas Up-to-date", and §6.2.3).
//!
//! The paper ships, for the three fast-changing datasets (links, loss
//! rates, 3-tuples), "the union of the old entries not present any more
//! and new entries added"; loss entries are also updated when the rate
//! changes. The remaining datasets change slowly and are refreshed in the
//! monthly full atlas, so a delta leaves them untouched.

use crate::codec::{get_rows, put_header, put_rows, put_section, quantise, Keys, Reader};
use crate::datasets::{Atlas, LinkAnnotation, Triple};
use inano_model::{Asn, ClusterId, LossRate, ModelError};
use std::collections::BTreeMap;

const MAGIC: &[u8; 6] = b"INDLT1";

/// The day-over-day difference between two atlases.
#[derive(Clone, Debug, Default)]
pub struct AtlasDelta {
    pub from_day: u32,
    pub to_day: u32,
    /// New or re-annotated links (latency/plane changes ship the full
    /// entry; simpler and still small).
    pub links_upsert: Vec<((ClusterId, ClusterId), LinkAnnotation)>,
    pub links_removed: Vec<(ClusterId, ClusterId)>,
    /// New cluster→AS entries for clusters introduced by new links.
    pub cluster_as_added: Vec<(ClusterId, Asn)>,
    /// Loss entries set or changed.
    pub loss_upsert: Vec<((ClusterId, ClusterId), LossRate)>,
    pub loss_removed: Vec<(ClusterId, ClusterId)>,
    pub tuples_added: Vec<Triple>,
    pub tuples_removed: Vec<Triple>,
}

/// Entries of `new` that `old` lacks or holds with another value.
fn upserts<K: Ord + Copy, V: PartialEq + Copy>(
    old: &BTreeMap<K, V>,
    new: &BTreeMap<K, V>,
) -> Vec<(K, V)> {
    new.iter()
        .filter(|&(k, v)| old.get(k) != Some(v))
        .map(|(&k, &v)| (k, v))
        .collect()
}

/// Keys of `old` that `new` lacks.
fn removals<K: Ord + Copy, V>(old: &BTreeMap<K, V>, new: &BTreeMap<K, V>) -> Vec<K> {
    old.keys()
        .filter(|k| !new.contains_key(k))
        .copied()
        .collect()
}

/// A delta's list of pairs, as the row layouts take a map's.
fn pairs<K, V>(list: &[(K, V)]) -> impl ExactSizeIterator<Item = (&K, &V)> {
    list.iter().map(|(k, v)| (k, v))
}

impl AtlasDelta {
    /// Compute the delta that turns `old` into `new` (for the datasets
    /// that are updated daily).
    pub fn between(old: &Atlas, new: &Atlas) -> AtlasDelta {
        let (old, new) = (quantise(old), quantise(new));
        AtlasDelta {
            from_day: old.day,
            to_day: new.day,
            links_upsert: upserts(&old.links, &new.links),
            links_removed: removals(&old.links, &new.links),
            cluster_as_added: new
                .cluster_as
                .iter()
                .filter(|(c, _)| !old.cluster_as.contains_key(c))
                .map(|(&c, &a)| (c, a))
                .collect(),
            loss_upsert: upserts(&old.loss, &new.loss),
            loss_removed: removals(&old.loss, &new.loss),
            tuples_added: new.tuples.difference(&old.tuples).copied().collect(),
            tuples_removed: old.tuples.difference(&new.tuples).copied().collect(),
        }
    }

    /// Apply onto `base`, producing the next day's view of the daily
    /// datasets (slow datasets carried over unchanged).
    ///
    /// A delta must advance the day. Every consumer (an origin's
    /// `apply_delta`, a mirror's or a client's `update`) applies here,
    /// and an updater that met a delta leaving the day it lands on
    /// would fetch and apply that same delta forever.
    pub fn apply(&self, base: &Atlas) -> Result<Atlas, ModelError> {
        if base.day != self.from_day {
            return Err(ModelError::PatchMismatch(format!(
                "delta is {}→{} but base is day {}",
                self.from_day, self.to_day, base.day
            )));
        }
        if self.to_day <= self.from_day {
            return Err(ModelError::PatchMismatch(format!(
                "delta {}→{} does not advance the day",
                self.from_day, self.to_day
            )));
        }
        let mut out = quantise(base);
        out.day = self.to_day;
        out.links.extend(self.links_upsert.iter().copied());
        for k in &self.links_removed {
            out.links.remove(k);
        }
        out.cluster_as.extend(self.cluster_as_added.iter().copied());
        out.loss.extend(self.loss_upsert.iter().copied());
        for k in &self.loss_removed {
            out.loss.remove(k);
        }
        out.tuples.extend(self.tuples_added.iter().copied());
        for t in &self.tuples_removed {
            out.tuples.remove(t);
        }
        Ok(out)
    }

    /// Entry counts per updated dataset: (links, loss, tuples).
    pub fn entry_counts(&self) -> (usize, usize, usize) {
        (
            self.links_upsert.len() + self.links_removed.len(),
            self.loss_upsert.len() + self.loss_removed.len(),
            self.tuples_added.len() + self.tuples_removed.len(),
        )
    }

    /// Encode compactly: the full atlas's row layouts, unchained (see
    /// [`crate::codec`]). Returns the bytes and the (links, loss,
    /// tuples) section sizes.
    pub fn encode(&self) -> (Vec<u8>, [usize; 3]) {
        use Keys::Whole;
        let mut out = Vec::new();
        put_header(&mut out, MAGIC, &[self.from_day, self.to_day]);
        let sizes = [
            put_section(&mut out, |b| {
                put_rows::<((ClusterId, ClusterId), LinkAnnotation)>(
                    b,
                    Whole,
                    pairs(&self.links_upsert),
                );
                put_rows::<(ClusterId, ClusterId)>(b, Whole, pairs(&self.links_removed));
                put_rows::<(ClusterId, Asn)>(b, Whole, pairs(&self.cluster_as_added));
            }),
            put_section(&mut out, |b| {
                put_rows::<((ClusterId, ClusterId), LossRate)>(b, Whole, pairs(&self.loss_upsert));
                put_rows::<(ClusterId, ClusterId)>(b, Whole, pairs(&self.loss_removed));
            }),
            put_section(&mut out, |b| {
                put_rows::<Triple>(b, Whole, self.tuples_added.iter());
                put_rows::<Triple>(b, Whole, self.tuples_removed.iter());
            }),
        ];
        (out, sizes)
    }

    /// Decode a delta produced by [`AtlasDelta::encode`].
    pub fn decode(bytes: &[u8]) -> Result<AtlasDelta, ModelError> {
        use Keys::Whole;
        let mut r = Reader::open(bytes, MAGIC, "bad delta magic")?;
        let (from_day, to_day) = (r.id()?, r.id()?);
        let (links_upsert, links_removed, cluster_as_added) = r.section(|s| {
            Ok((
                get_rows(s, Whole)?,
                get_rows(s, Whole)?,
                get_rows(s, Whole)?,
            ))
        })?;
        let (loss_upsert, loss_removed) =
            r.section(|s| Ok((get_rows(s, Whole)?, get_rows(s, Whole)?)))?;
        let (tuples_added, tuples_removed) =
            r.section(|s| Ok((get_rows(s, Whole)?, get_rows(s, Whole)?)))?;
        r.finish()?;
        Ok(AtlasDelta {
            from_day,
            to_day,
            links_upsert,
            links_removed,
            cluster_as_added,
            loss_upsert,
            loss_removed,
            tuples_added,
            tuples_removed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Plane;
    use inano_model::LatencyMs;

    fn atlas_with(day: u32, links: &[(u32, u32)], tuples: &[(u32, u32, u32)]) -> Atlas {
        let mut a = Atlas {
            day,
            ..Atlas::default()
        };
        for &(f, t) in links {
            a.links.insert(
                (ClusterId::new(f), ClusterId::new(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(f as f64 + 0.5)),
                    plane: Plane::TO_DST,
                },
            );
            a.cluster_as.insert(ClusterId::new(f), Asn::new(f));
            a.cluster_as.insert(ClusterId::new(t), Asn::new(t));
        }
        for &(x, y, z) in tuples {
            a.tuples
                .insert(Triple::canonical(Asn::new(x), Asn::new(y), Asn::new(z)));
        }
        a
    }

    #[test]
    fn delta_apply_reproduces_daily_datasets() {
        let old = atlas_with(0, &[(1, 2), (2, 3)], &[(1, 2, 3)]);
        let mut new = atlas_with(1, &[(1, 2), (3, 4)], &[(1, 2, 3), (2, 3, 4)]);
        new.loss
            .insert((ClusterId::new(1), ClusterId::new(2)), LossRate::new(0.05));
        let d = AtlasDelta::between(&old, &new);
        let rebuilt = d.apply(&old).unwrap();
        assert_eq!(rebuilt.links, quantise(&new).links);
        assert_eq!(rebuilt.loss, quantise(&new).loss);
        assert_eq!(rebuilt.tuples, new.tuples);
        assert_eq!(rebuilt.day, 1);
    }

    #[test]
    fn identical_atlases_have_empty_delta() {
        let a = atlas_with(0, &[(1, 2)], &[(1, 2, 3)]);
        let mut b = a.clone();
        b.day = 1;
        let d = AtlasDelta::between(&a, &b);
        let (l, s, t) = d.entry_counts();
        assert_eq!((l, s, t), (0, 0, 0));
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let old = atlas_with(0, &[(1, 2)], &[]);
        let new = atlas_with(1, &[(1, 2)], &[]);
        let d = AtlasDelta::between(&old, &new);
        let wrong = atlas_with(7, &[(1, 2)], &[]);
        assert!(d.apply(&wrong).is_err());
    }

    #[test]
    fn apply_refuses_a_delta_that_does_not_advance_the_day() {
        let base = atlas_with(5, &[(1, 2)], &[]);
        for to_day in [5, 4] {
            let stuck = AtlasDelta {
                from_day: 5,
                to_day,
                ..AtlasDelta::default()
            };
            match stuck.apply(&base) {
                Err(ModelError::PatchMismatch(msg)) => {
                    assert_eq!(msg, format!("delta 5→{to_day} does not advance the day"))
                }
                other => panic!("5→{to_day} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn delta_encode_roundtrip() {
        let old = atlas_with(0, &[(1, 2), (2, 3)], &[(1, 2, 3)]);
        let mut new = atlas_with(1, &[(2, 3), (9, 10)], &[(4, 5, 6)]);
        new.loss
            .insert((ClusterId::new(2), ClusterId::new(3)), LossRate::new(0.011));
        let d = AtlasDelta::between(&old, &new);
        let (bytes, sizes) = d.encode();
        assert!(sizes.iter().sum::<usize>() > 0);
        let d2 = AtlasDelta::decode(&bytes).unwrap();
        assert_eq!(d2.apply(&old).unwrap().links, d.apply(&old).unwrap().links);
        assert_eq!(d2.tuples_added, d.tuples_added);
        assert_eq!(d2.loss_upsert, d.loss_upsert);
    }

    #[test]
    fn a_section_whose_declared_length_is_wrong_is_refused() {
        let old = atlas_with(0, &[(1, 2)], &[]);
        let new = atlas_with(1, &[(1, 2), (3, 4)], &[(1, 2, 3)]);
        let (bytes, sizes) = AtlasDelta::between(&old, &new).encode();
        // The links section's one-byte length follows the magic and the
        // two one-byte days.
        let at = MAGIC.len() + 2;
        assert_eq!(usize::from(bytes[at]), sizes[0]);
        assert!(AtlasDelta::decode(&bytes).is_ok());
        for len in [sizes[0] - 1, sizes[0] + 1] {
            let mut bad = bytes.clone();
            bad[at] = len as u8;
            assert!(
                matches!(AtlasDelta::decode(&bad), Err(ModelError::Decode(_))),
                "a links section declared {len} bytes long was accepted"
            );
        }
    }

    #[test]
    fn latency_requantisation_does_not_inflate_delta() {
        // Quantisation must be idempotent: the same atlas re-quantised
        // produces an empty delta (guards against float drift).
        let a = atlas_with(0, &[(1, 2), (5, 9)], &[]);
        let qa = quantise(&a);
        let qb = quantise(&qa);
        let mut qb2 = qb.clone();
        qb2.day = 1;
        let d = AtlasDelta::between(&qa, &qb2);
        assert_eq!(d.entry_counts(), (0, 0, 0));
    }
}
