//! Compact binary encoding of the atlas.
//!
//! The paper ships the atlas as compressed files (Table 2 reports
//! compressed sizes). We have no compression crate offline, so we encode
//! structurally instead: sorted tables, delta-encoded keys, LEB128
//! varints, and quantised metrics (0.1 ms latency, 1⁄1000 loss). This
//! captures the same redundancy gzip would (sortedness and small deltas)
//! and makes the Table-2 *ratios* — per-dataset shares, delta vs full —
//! meaningful; absolute bytes are upper bounds on a gzip deployment.
//!
//! Sections are length-prefixed so [`crate::stats`] can attribute bytes
//! per dataset. Each dataset's row layout is written once, as an
//! `impl Row`; a full-atlas table chains its rows, and
//! [`crate::delta`] writes the same rows unchained through the same
//! `put_rows`/`get_rows`. DESIGN.md §"The atlas format" lays it out.

use crate::datasets::{Atlas, LinkAnnotation, Plane, Triple};
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, LossRate, ModelError, Prefix, PrefixId};
use std::collections::{BTreeMap, BTreeSet};

const MAGIC: &[u8; 6] = b"INANO1";

/// Section identifiers, in encoding order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    Links = 0,
    Loss = 1,
    PrefixCluster = 2,
    PrefixAs = 3,
    AsDegrees = 4,
    Tuples = 5,
    Prefs = 6,
    Providers = 7,
}

/// Byte size of each encoded section.
#[derive(Clone, Debug, Default)]
pub struct SectionSizes {
    pub sizes: [usize; 8],
}

impl SectionSizes {
    pub fn total(&self) -> usize {
        self.sizes.iter().sum()
    }
}

// ---------- varint primitives ----------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, ModelError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let &byte = buf
            .get(*pos)
            .ok_or_else(|| ModelError::Decode("truncated varint".into()))?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(ModelError::Decode("varint overflow".into()));
        }
    }
}

fn quantise_latency(l: LatencyMs) -> u64 {
    (l.ms() * 10.0).round() as u64
}

fn unquantise_latency(v: u64) -> LatencyMs {
    LatencyMs::new(v as f64 / 10.0)
}

fn quantise_loss(l: LossRate) -> u64 {
    (l.rate() * 1000.0).round() as u64
}

fn unquantise_loss(v: u64) -> LossRate {
    LossRate::new(v as f64 / 1000.0)
}

// ---------- rows: one layout per dataset ----------

/// Whether a table codes its rows against one another. A full-atlas
/// table is chained: its rows are sorted, so each row's leading key
/// (and a prefix's address) is written as the difference from the row
/// before's. A delta's lists are written whole.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keys {
    Chained,
    Whole,
}

/// The chained fields a row codes against the row before: the leading
/// key, a prefix's address, and a provider set's previous member.
const LEAD: usize = 0;
const ADDR: usize = 1;
const MEMBER: usize = 2;

/// The 32-bit values rows carry: ids, an address, a degree.
pub(crate) trait Id: Copy {
    fn to_u32(self) -> u32;
    fn from_u32(v: u32) -> Self;
}

macro_rules! ids {
    ($($t:ident),*) => {$(
        impl Id for $t {
            fn to_u32(self) -> u32 {
                self.0
            }
            fn from_u32(v: u32) -> Self {
                $t(v)
            }
        }
    )*};
}
ids!(Asn, ClusterId, PrefixId, Ipv4);

impl Id for u32 {
    fn to_u32(self) -> u32 {
        self
    }
    fn from_u32(v: u32) -> Self {
        v
    }
}

/// How one row of a dataset lies in a table. The writer and the reader
/// are the two functions of one impl, so the full atlas and the delta,
/// which share the impls, cannot drift apart.
pub(crate) trait Row: Sized {
    /// The row as its table yields it when iterated.
    type Ref<'a>
    where
        Self: 'a;
    fn put(row: Self::Ref<'_>, w: &mut Writer<'_>);
    fn get(r: &mut Reader<'_>) -> Result<Self, ModelError>;
}

/// A link: leading `from`, `to`, the plane bits, then the latency in
/// 0.1 ms plus one (0 when unmeasured).
impl Row for ((ClusterId, ClusterId), LinkAnnotation) {
    type Ref<'a> = (&'a (ClusterId, ClusterId), &'a LinkAnnotation);

    fn put((&(from, to), ann): Self::Ref<'_>, w: &mut Writer<'_>) {
        w.chain(LEAD, from);
        w.id(to);
        w.out.push(ann.plane.bits());
        w.varint(ann.latency.map_or(0, |l| quantise_latency(l) + 1));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        let key = (r.chain(LEAD)?, r.id()?);
        let plane = Plane::from_bits(r.byte()?);
        let latency = r.varint()?.checked_sub(1).map(unquantise_latency);
        Ok((key, LinkAnnotation { latency, plane }))
    }
}

/// A lossy link: leading `from`, `to`, then the loss in 1⁄1000.
impl Row for ((ClusterId, ClusterId), LossRate) {
    type Ref<'a> = (&'a (ClusterId, ClusterId), &'a LossRate);

    fn put((&(from, to), &loss): Self::Ref<'_>, w: &mut Writer<'_>) {
        w.chain(LEAD, from);
        w.id(to);
        w.varint(quantise_loss(loss));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(((r.chain(LEAD)?, r.id()?), unquantise_loss(r.varint()?)))
    }
}

/// One value against another: cluster → AS, prefix → cluster, AS →
/// degree, and a delta's removed link or loss key (`from`, `to`).
impl<K: Id, V: Id> Row for (K, V) {
    type Ref<'a>
        = (&'a K, &'a V)
    where
        Self: 'a;

    fn put((&k, &v): Self::Ref<'_>, w: &mut Writer<'_>) {
        w.chain(LEAD, k);
        w.id(v);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok((r.chain(LEAD)?, r.id()?))
    }
}

/// Prefix → origin AS: the leading prefix id, the address (chained too),
/// the length byte, then the AS.
impl Row for (PrefixId, (Prefix, Asn)) {
    type Ref<'a> = (&'a PrefixId, &'a (Prefix, Asn));

    fn put((&pid, &(pfx, asn)): Self::Ref<'_>, w: &mut Writer<'_>) {
        w.chain(LEAD, pid);
        w.chain(ADDR, pfx.addr());
        w.out.push(pfx.len());
        w.id(asn);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        let pid = r.chain(LEAD)?;
        let addr = r.chain(ADDR)?;
        let len = r.byte()?;
        if len > 32 {
            return Err(ModelError::Decode(format!("prefix length {len} over 32")));
        }
        Ok((pid, (Prefix::new(addr, len), r.id()?)))
    }
}

/// A provider set, per AS or per prefix: the leading key, the member
/// count, then each member against the one before it in the set.
impl<K: Id> Row for (K, BTreeSet<Asn>) {
    type Ref<'a>
        = (&'a K, &'a BTreeSet<Asn>)
    where
        K: 'a;

    fn put((&k, set): Self::Ref<'_>, w: &mut Writer<'_>) {
        w.chain(LEAD, k);
        w.varint(set.len() as u64);
        w.prev[MEMBER] = 0;
        for &m in set {
            w.chain(MEMBER, m);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        let k = r.chain(LEAD)?;
        let n = r.varint()?;
        r.prev[MEMBER] = 0;
        let set = (0..n).map(|_| r.chain(MEMBER)).collect::<Result<_, _>>()?;
        Ok((k, set))
    }
}

/// An AS preference: the leading first AS, then the other two.
impl Row for (Asn, Asn, Asn) {
    type Ref<'a> = &'a (Asn, Asn, Asn);

    fn put(&(a, b, c): Self::Ref<'_>, w: &mut Writer<'_>) {
        w.chain(LEAD, a);
        w.id(b);
        w.id(c);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok((r.chain(LEAD)?, r.id()?, r.id()?))
    }
}

/// An AS 3-tuple: laid out as a preference is.
impl Row for Triple {
    type Ref<'a> = &'a Triple;

    fn put(&Triple(a, b, c): Self::Ref<'_>, w: &mut Writer<'_>) {
        <(Asn, Asn, Asn)>::put(&(a, b, c), w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        let (a, b, c) = Row::get(r)?;
        Ok(Triple(a, b, c))
    }
}

// ---------- the shared writer ----------

/// A table being written: the section body, and the chained fields of
/// the row before (zero before the first row, and before every row of
/// an unchained list).
pub(crate) struct Writer<'a> {
    out: &'a mut Vec<u8>,
    prev: [u64; 3],
}

impl Writer<'_> {
    fn varint(&mut self, v: u64) {
        put_varint(self.out, v);
    }

    fn id(&mut self, v: impl Id) {
        self.varint(v.to_u32().into());
    }

    /// Write `v` as its difference from the same field of the row
    /// before; the difference wraps, so an unsorted field still
    /// round-trips.
    fn chain(&mut self, field: usize, v: impl Id) {
        let v = u64::from(v.to_u32());
        self.varint(v.wrapping_sub(self.prev[field]));
        self.prev[field] = v;
    }
}

/// Start an encoding: the magic, then the header fields.
pub(crate) fn put_header(out: &mut Vec<u8>, magic: &[u8; 6], fields: &[u32]) {
    out.extend_from_slice(magic);
    for &f in fields {
        put_varint(out, f.into());
    }
}

/// Append one length-prefixed section whose body `fill` writes; returns
/// the body's size.
pub(crate) fn put_section(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> usize {
    let mut body = Vec::new();
    fill(&mut body);
    put_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
    body.len()
}

/// Write a table of rows: the count, then each row.
pub(crate) fn put_rows<'a, R: Row + 'a>(
    out: &mut Vec<u8>,
    keys: Keys,
    rows: impl ExactSizeIterator<Item = R::Ref<'a>>,
) {
    let mut w = Writer { out, prev: [0; 3] };
    w.varint(rows.len() as u64);
    for row in rows {
        R::put(row, &mut w);
        if keys == Keys::Whole {
            w.prev = [0; 3];
        }
    }
}

// ---------- the shared reader ----------

/// Encoded bytes being read: a header, a section's body, or a table in
/// it, with the chained fields of the row before.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev: [u64; 3],
}

impl<'a> Reader<'a> {
    /// Check the magic and read on after it; `bad` names a wrong one.
    pub(crate) fn open(bytes: &'a [u8], magic: &[u8; 6], bad: &str) -> Result<Self, ModelError> {
        if !bytes.starts_with(magic) {
            return Err(ModelError::Decode(bad.into()));
        }
        Ok(Reader {
            bytes,
            pos: magic.len(),
            prev: [0; 3],
        })
    }

    fn varint(&mut self) -> Result<u64, ModelError> {
        get_varint(self.bytes, &mut self.pos)
    }

    fn byte(&mut self) -> Result<u8, ModelError> {
        let &b = self
            .bytes
            .get(self.pos)
            .ok_or_else(|| ModelError::Decode("truncated byte".into()))?;
        self.pos += 1;
        Ok(b)
    }

    /// A 32-bit value; a wider one is refused.
    pub(crate) fn id<T: Id>(&mut self) -> Result<T, ModelError> {
        narrow(self.varint()?)
    }

    fn chain<T: Id>(&mut self, field: usize) -> Result<T, ModelError> {
        let v = self.prev[field].wrapping_add(self.varint()?);
        self.prev[field] = v;
        narrow(v)
    }

    /// Read the next length-prefixed section with `read`, which must
    /// consume exactly the declared length.
    pub(crate) fn section<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, ModelError>,
    ) -> Result<T, ModelError> {
        let len = self.varint()?;
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| self.pos.checked_add(len))
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| ModelError::Decode("truncated section".into()))?;
        let mut body = Reader {
            bytes: &self.bytes[self.pos..end],
            pos: 0,
            prev: [0; 3],
        };
        self.pos = end;
        let t = read(&mut body)?;
        body.finish()?;
        Ok(t)
    }

    /// Refuse bytes left over after the last field.
    pub(crate) fn finish(&self) -> Result<(), ModelError> {
        if self.pos != self.bytes.len() {
            return Err(ModelError::Decode(format!(
                "length mismatch: read {} of {} bytes",
                self.pos,
                self.bytes.len()
            )));
        }
        Ok(())
    }
}

fn narrow<T: Id>(v: u64) -> Result<T, ModelError> {
    u32::try_from(v)
        .map(T::from_u32)
        .map_err(|_| ModelError::Decode(format!("value {v} over 32 bits")))
}

/// Read a table written by [`put_rows`] with the same `keys`.
pub(crate) fn get_rows<R: Row, C: FromIterator<R>>(
    r: &mut Reader<'_>,
    keys: Keys,
) -> Result<C, ModelError> {
    let n = r.varint()?;
    r.prev = [0; 3];
    (0..n)
        .map(|_| {
            let row = R::get(r);
            if keys == Keys::Whole {
                r.prev = [0; 3];
            }
            row
        })
        .collect()
}

// ---------- the full atlas ----------

/// Encode the atlas; returns the bytes and per-section sizes.
pub fn encode(atlas: &Atlas) -> (Vec<u8>, SectionSizes) {
    use Keys::Chained;
    let a = atlas;
    let mut out = Vec::with_capacity(1 << 20);
    put_header(&mut out, MAGIC, &[a.day]);
    let sizes = [
        put_section(&mut out, |b| {
            put_rows::<((ClusterId, ClusterId), LinkAnnotation)>(b, Chained, a.links.iter());
            put_rows::<(ClusterId, Asn)>(b, Chained, a.cluster_as.iter());
        }),
        put_section(&mut out, |b| {
            put_rows::<((ClusterId, ClusterId), LossRate)>(b, Chained, a.loss.iter())
        }),
        put_section(&mut out, |b| {
            put_rows::<(PrefixId, ClusterId)>(b, Chained, a.prefix_cluster.iter())
        }),
        put_section(&mut out, |b| {
            put_rows::<(PrefixId, (Prefix, Asn))>(b, Chained, a.prefix_as.iter())
        }),
        put_section(&mut out, |b| {
            put_rows::<(Asn, u32)>(b, Chained, a.as_degree.iter())
        }),
        put_section(&mut out, |b| {
            put_rows::<Triple>(b, Chained, a.tuples.iter())
        }),
        put_section(&mut out, |b| {
            put_rows::<(Asn, Asn, Asn)>(b, Chained, a.prefs.iter())
        }),
        put_section(&mut out, |b| {
            put_rows::<(Asn, BTreeSet<Asn>)>(b, Chained, a.providers.iter());
            put_rows::<(PrefixId, BTreeSet<Asn>)>(b, Chained, a.prefix_providers.iter());
        }),
    ];
    (out, SectionSizes { sizes })
}

/// Read just the day from an encoded atlas (magic + leading varint) —
/// what a dissemination head needs, without paying a full decode.
pub fn peek_day(bytes: &[u8]) -> Result<u32, ModelError> {
    Reader::open(bytes, MAGIC, "bad magic")?.id()
}

/// Decode an atlas previously produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Atlas, ModelError> {
    use Keys::Chained;
    let mut r = Reader::open(bytes, MAGIC, "bad magic")?;
    let day = r.id()?;
    let (links, cluster_as) = r.section(|s| Ok((get_rows(s, Chained)?, get_rows(s, Chained)?)))?;
    let loss = r.section(|s| get_rows(s, Chained))?;
    let prefix_cluster = r.section(|s| get_rows(s, Chained))?;
    let prefix_as = r.section(|s| get_rows(s, Chained))?;
    let as_degree = r.section(|s| get_rows(s, Chained))?;
    let tuples = r.section(|s| get_rows(s, Chained))?;
    let prefs = r.section(|s| get_rows(s, Chained))?;
    let (providers, prefix_providers) =
        r.section(|s| Ok((get_rows(s, Chained)?, get_rows(s, Chained)?)))?;
    r.finish()?;
    Ok(Atlas {
        day,
        links,
        loss,
        prefix_cluster,
        prefix_as,
        as_degree,
        tuples,
        prefs,
        providers,
        prefix_providers,
        cluster_as,
        inferred_rels: BTreeMap::new(),
    })
}

/// Round an atlas's metrics to codec precision, so encode→decode is exact
/// on the result (used to normalise before equality comparisons in tests
/// and delta computation).
pub fn quantise(atlas: &Atlas) -> Atlas {
    let mut a = atlas.clone();
    let links: BTreeMap<_, _> = a
        .links
        .iter()
        .map(|(&k, ann)| {
            (
                k,
                LinkAnnotation {
                    latency: ann.latency.map(|l| unquantise_latency(quantise_latency(l))),
                    plane: ann.plane,
                },
            )
        })
        .collect();
    a.links = links;
    let loss: BTreeMap<_, _> = a
        .loss
        .iter()
        .map(|(&k, &l)| (k, unquantise_loss(quantise_loss(l))))
        .collect();
    a.loss = loss;
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::LatencyMs;

    fn sample_atlas() -> Atlas {
        let mut a = Atlas {
            day: 3,
            ..Atlas::default()
        };
        a.links.insert(
            (ClusterId::new(1), ClusterId::new(2)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(4.2)),
                plane: Plane::TO_DST,
            },
        );
        a.links.insert(
            (ClusterId::new(2), ClusterId::new(7)),
            LinkAnnotation {
                latency: None,
                plane: Plane::TO_DST.union(Plane::FROM_SRC),
            },
        );
        a.cluster_as.insert(ClusterId::new(1), Asn::new(10));
        a.cluster_as.insert(ClusterId::new(2), Asn::new(11));
        a.cluster_as.insert(ClusterId::new(7), Asn::new(12));
        a.loss
            .insert((ClusterId::new(1), ClusterId::new(2)), LossRate::new(0.035));
        a.prefix_cluster.insert(PrefixId::new(5), ClusterId::new(2));
        a.prefix_as.insert(
            PrefixId::new(5),
            (
                Prefix::new(Ipv4::from_octets(10, 2, 3, 0), 24),
                Asn::new(11),
            ),
        );
        a.as_degree.insert(Asn::new(10), 7);
        a.tuples
            .insert(Triple::canonical(Asn::new(10), Asn::new(11), Asn::new(12)));
        a.prefs.insert((Asn::new(10), Asn::new(11), Asn::new(13)));
        a.providers.insert(
            Asn::new(12),
            [Asn::new(11), Asn::new(10)].into_iter().collect(),
        );
        a.prefix_providers
            .insert(PrefixId::new(5), [Asn::new(10)].into_iter().collect());
        a
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_detected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 20);
        buf.pop();
        let mut pos = 0;
        assert!(get_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn atlas_roundtrip_exact_after_quantise() {
        let a = quantise(&sample_atlas());
        let (bytes, sizes) = encode(&a);
        assert!(sizes.total() > 0);
        let b = decode(&bytes).unwrap();
        assert_eq!(a.day, b.day);
        assert_eq!(a.links, b.links);
        assert_eq!(a.loss, b.loss);
        assert_eq!(a.prefix_cluster, b.prefix_cluster);
        assert_eq!(a.prefix_as, b.prefix_as);
        assert_eq!(a.as_degree, b.as_degree);
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.prefs, b.prefs);
        assert_eq!(a.providers, b.providers);
        assert_eq!(a.prefix_providers, b.prefix_providers);
        assert_eq!(a.cluster_as, b.cluster_as);
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut bytes, _) = encode(&sample_atlas());
        bytes[0] = b'X';
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let (bytes, _) = encode(&sample_atlas());
        for cut in [7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn a_prefix_length_over_32_is_a_decode_error() {
        // Two encodings that differ only in the prefix's length locate
        // its byte.
        let a = sample_atlas();
        let mut b = a.clone();
        let pfx = &mut b.prefix_as.get_mut(&PrefixId::new(5)).unwrap().0;
        *pfx = Prefix::new(pfx.addr(), 25);
        let (mut bytes, other) = (encode(&a).0, encode(&b).0);
        let differ: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != other[i]).collect();
        assert_eq!(differ.len(), 1);
        bytes[differ[0]] = 33;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            ModelError::Decode("prefix length 33 over 32".into())
        );
    }

    #[test]
    fn a_section_length_near_u64_max_is_a_decode_error() {
        let mut bytes = MAGIC.to_vec();
        put_varint(&mut bytes, 3);
        put_varint(&mut bytes, u64::MAX - 3);
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            ModelError::Decode("truncated section".into())
        );
    }

    #[test]
    fn empty_atlas_roundtrips() {
        let a = Atlas::default();
        let (bytes, _) = encode(&a);
        let b = decode(&bytes).unwrap();
        assert_eq!(b.total_entries(), 0);
    }
}
