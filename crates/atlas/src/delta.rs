//! Daily atlas deltas (§5, "Keeping Atlas Up-to-date", and §6.2.3).
//!
//! The paper ships, for the three fast-changing datasets (links, loss
//! rates, 3-tuples), "the union of the old entries not present any more
//! and new entries added"; loss entries are also updated when the rate
//! changes. The remaining datasets change slowly and are refreshed in the
//! monthly full atlas, so a delta leaves them untouched.

use crate::codec::{get_varint, put_varint, quantise};
use crate::datasets::{Atlas, LinkAnnotation, Plane, Triple};
use inano_model::{Asn, ClusterId, LatencyMs, LossRate, ModelError};

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

impl AtlasDelta {
    /// Compute the delta that turns `old` into `new` (for the datasets
    /// that are updated daily).
    pub fn between(old: &Atlas, new: &Atlas) -> AtlasDelta {
        let old = quantise(old);
        let new = quantise(new);
        let mut d = AtlasDelta {
            from_day: old.day,
            to_day: new.day,
            ..AtlasDelta::default()
        };
        for (k, ann) in &new.links {
            if old.links.get(k) != Some(ann) {
                d.links_upsert.push((*k, *ann));
            }
        }
        for k in old.links.keys() {
            if !new.links.contains_key(k) {
                d.links_removed.push(*k);
            }
        }
        for (c, a) in &new.cluster_as {
            if !old.cluster_as.contains_key(c) {
                d.cluster_as_added.push((*c, *a));
            }
        }
        for (k, l) in &new.loss {
            if old.loss.get(k) != Some(l) {
                d.loss_upsert.push((*k, *l));
            }
        }
        for k in old.loss.keys() {
            if !new.loss.contains_key(k) {
                d.loss_removed.push(*k);
            }
        }
        for t in &new.tuples {
            if !old.tuples.contains(t) {
                d.tuples_added.push(*t);
            }
        }
        for t in &old.tuples {
            if !new.tuples.contains(t) {
                d.tuples_removed.push(*t);
            }
        }
        d
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
        for (k, ann) in &self.links_upsert {
            out.links.insert(*k, *ann);
        }
        for k in &self.links_removed {
            out.links.remove(k);
        }
        for (c, a) in &self.cluster_as_added {
            out.cluster_as.insert(*c, *a);
        }
        for (k, l) in &self.loss_upsert {
            out.loss.insert(*k, *l);
        }
        for k in &self.loss_removed {
            out.loss.remove(k);
        }
        for t in &self.tuples_added {
            out.tuples.insert(*t);
        }
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

    /// Encode compactly (same varint scheme as the full atlas). Returns
    /// the bytes and the (links, loss, tuples) section sizes.
    pub fn encode(&self) -> (Vec<u8>, [usize; 3]) {
        let mut out = Vec::new();
        out.extend_from_slice(b"INDLT1");
        put_varint(&mut out, self.from_day as u64);
        put_varint(&mut out, self.to_day as u64);
        let mut sizes = [0usize; 3];

        let mut body = Vec::new();
        put_varint(&mut body, self.links_upsert.len() as u64);
        for ((f, t), ann) in &self.links_upsert {
            put_varint(&mut body, f.raw() as u64);
            put_varint(&mut body, t.raw() as u64);
            body.push(ann.plane.bits());
            match ann.latency {
                Some(l) => put_varint(&mut body, (l.ms() * 10.0).round() as u64 + 1),
                None => put_varint(&mut body, 0),
            }
        }
        put_varint(&mut body, self.links_removed.len() as u64);
        for (f, t) in &self.links_removed {
            put_varint(&mut body, f.raw() as u64);
            put_varint(&mut body, t.raw() as u64);
        }
        put_varint(&mut body, self.cluster_as_added.len() as u64);
        for (c, a) in &self.cluster_as_added {
            put_varint(&mut body, c.raw() as u64);
            put_varint(&mut body, a.raw() as u64);
        }
        sizes[0] = body.len();
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);

        let mut body = Vec::new();
        put_varint(&mut body, self.loss_upsert.len() as u64);
        for ((f, t), l) in &self.loss_upsert {
            put_varint(&mut body, f.raw() as u64);
            put_varint(&mut body, t.raw() as u64);
            put_varint(&mut body, (l.rate() * 1000.0).round() as u64);
        }
        put_varint(&mut body, self.loss_removed.len() as u64);
        for (f, t) in &self.loss_removed {
            put_varint(&mut body, f.raw() as u64);
            put_varint(&mut body, t.raw() as u64);
        }
        sizes[1] = body.len();
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);

        let mut body = Vec::new();
        put_varint(&mut body, self.tuples_added.len() as u64);
        for Triple(a, b, c) in &self.tuples_added {
            put_varint(&mut body, a.raw() as u64);
            put_varint(&mut body, b.raw() as u64);
            put_varint(&mut body, c.raw() as u64);
        }
        put_varint(&mut body, self.tuples_removed.len() as u64);
        for Triple(a, b, c) in &self.tuples_removed {
            put_varint(&mut body, a.raw() as u64);
            put_varint(&mut body, b.raw() as u64);
            put_varint(&mut body, c.raw() as u64);
        }
        sizes[2] = body.len();
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);

        (out, sizes)
    }

    /// Decode a delta produced by [`AtlasDelta::encode`].
    pub fn decode(bytes: &[u8]) -> Result<AtlasDelta, ModelError> {
        let mut pos = 0usize;
        if bytes.len() < 6 || &bytes[..6] != b"INDLT1" {
            return Err(ModelError::Decode("bad delta magic".into()));
        }
        pos += 6;
        let from_day = get_varint(bytes, &mut pos)? as u32;
        let to_day = get_varint(bytes, &mut pos)? as u32;
        let mut d = AtlasDelta {
            from_day,
            to_day,
            ..AtlasDelta::default()
        };

        let _len = get_varint(bytes, &mut pos)?;
        let n = get_varint(bytes, &mut pos)?;
        for _ in 0..n {
            let f = get_varint(bytes, &mut pos)? as u32;
            let t = get_varint(bytes, &mut pos)? as u32;
            let plane = Plane::from_bits(
                *bytes
                    .get(pos)
                    .ok_or_else(|| ModelError::Decode("truncated".into()))?,
            );
            pos += 1;
            let lat = get_varint(bytes, &mut pos)?;
            d.links_upsert.push((
                (ClusterId::new(f), ClusterId::new(t)),
                LinkAnnotation {
                    latency: if lat == 0 {
                        None
                    } else {
                        Some(LatencyMs::new((lat - 1) as f64 / 10.0))
                    },
                    plane,
                },
            ));
        }
        let n = get_varint(bytes, &mut pos)?;
        for _ in 0..n {
            let f = get_varint(bytes, &mut pos)? as u32;
            let t = get_varint(bytes, &mut pos)? as u32;
            d.links_removed.push((ClusterId::new(f), ClusterId::new(t)));
        }
        let n = get_varint(bytes, &mut pos)?;
        for _ in 0..n {
            let c = get_varint(bytes, &mut pos)? as u32;
            let a = get_varint(bytes, &mut pos)? as u32;
            d.cluster_as_added.push((ClusterId::new(c), Asn::new(a)));
        }

        let _len = get_varint(bytes, &mut pos)?;
        let n = get_varint(bytes, &mut pos)?;
        for _ in 0..n {
            let f = get_varint(bytes, &mut pos)? as u32;
            let t = get_varint(bytes, &mut pos)? as u32;
            let l = get_varint(bytes, &mut pos)?;
            d.loss_upsert.push((
                (ClusterId::new(f), ClusterId::new(t)),
                LossRate::new(l as f64 / 1000.0),
            ));
        }
        let n = get_varint(bytes, &mut pos)?;
        for _ in 0..n {
            let f = get_varint(bytes, &mut pos)? as u32;
            let t = get_varint(bytes, &mut pos)? as u32;
            d.loss_removed.push((ClusterId::new(f), ClusterId::new(t)));
        }

        let _len = get_varint(bytes, &mut pos)?;
        let n = get_varint(bytes, &mut pos)?;
        for _ in 0..n {
            let a = get_varint(bytes, &mut pos)? as u32;
            let b = get_varint(bytes, &mut pos)? as u32;
            let c = get_varint(bytes, &mut pos)? as u32;
            d.tuples_added
                .push(Triple(Asn::new(a), Asn::new(b), Asn::new(c)));
        }
        let n = get_varint(bytes, &mut pos)?;
        for _ in 0..n {
            let a = get_varint(bytes, &mut pos)? as u32;
            let b = get_varint(bytes, &mut pos)? as u32;
            let c = get_varint(bytes, &mut pos)? as u32;
            d.tuples_removed
                .push(Triple(Asn::new(a), Asn::new(b), Asn::new(c)));
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
