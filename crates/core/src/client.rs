//! The client-side library of §5: fetch the atlas (from memory or a
//! mirror over the wire — abstracted behind [`AtlasSource`]), augment
//! it with local measurements, serve queries locally through
//! [`INanoClient::predictor`], and keep it up to date with the daily
//! delta — or, for the sporadically-online peer whose delta chain has
//! broken, with one full refetch ([`INanoClient::update`]).
//!
//! A client keeps two atlases apart: the upstream one it took from its
//! source, which deltas land on and whose tag [`catch_up`] compares,
//! and the one it serves, which adds its own traceroutes. While it has
//! measured nothing itself the two are one allocation.

use crate::config::PredictorConfig;
use crate::predict::PathPredictor;
use crate::source::{catch_up, content_tag, read_full, AtlasSource, AtlasVersion, Follower};
use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_model::{ClusterId, LatencyMs, ModelError};
use std::sync::Arc;

/// One FROM_SRC link a client measured itself.
type LocalLink = ((ClusterId, ClusterId), Option<LatencyMs>);

/// The iNano client library.
pub struct INanoClient {
    /// The upstream atlas with the local links added: what it serves.
    atlas: Arc<Atlas>,
    /// The upstream atlas as its source offers it, without local links.
    upstream: Arc<Atlas>,
    cfg: PredictorConfig,
    /// `None` only transiently inside [`INanoClient::rebuild`], so the
    /// atlas `Arc` can be mutated in place instead of cloned.
    predictor: Option<PathPredictor>,
    /// Local FROM_SRC links contributed by this client's own traceroutes,
    /// re-applied after every update.
    local_links: Vec<LocalLink>,
    /// [`content_tag`] of the upstream body held — inside
    /// [`INanoClient::update`], of the staged one once something has
    /// landed: known at once for a fetched body; for one a delta built,
    /// encoded when [`catch_up`] next asks for it.
    upstream_tag: Option<u64>,
}

impl INanoClient {
    /// Bootstrap: fetch (chunked, validated, resumable — see
    /// [`read_full`]) and decode the full atlas.
    pub fn bootstrap(
        source: &mut dyn AtlasSource,
        cfg: PredictorConfig,
    ) -> Result<INanoClient, ModelError> {
        let (version, bytes, _) = read_full(source)?;
        let upstream = Arc::new(codec::decode(&bytes)?);
        let predictor = PathPredictor::new(Arc::clone(&upstream), cfg.clone());
        Ok(INanoClient {
            atlas: Arc::clone(&upstream),
            upstream,
            cfg,
            predictor: Some(predictor),
            local_links: Vec::new(),
            upstream_tag: Some(version.epoch_tag),
        })
    }

    /// The day of the loaded atlas.
    pub fn day(&self) -> u32 {
        self.atlas.day
    }

    /// Catch up with `source` by [`catch_up`]; returns how many deltas
    /// were applied.
    ///
    /// Deltas and a full refetch land on a staged atlas, which is
    /// installed once when the call returns, with the local links
    /// re-applied — also when the chain failed partway, so the days
    /// that did apply are kept and the client keeps serving either way.
    ///
    /// Deltas land on the upstream atlas, and the tag compared is that
    /// of the upstream body the client holds: [`read_full`]'s at
    /// bootstrap or resync, and after a chain the encoding of what the
    /// chain built, made on the next compare. It is never a head's, so
    /// a source whose chain does not end at the body its head names is
    /// resynced from on the next update.
    pub fn update(&mut self, source: &mut dyn AtlasSource) -> Result<usize, ModelError> {
        let mut staged = Staged {
            client: self,
            next: None,
        };
        let outcome = catch_up(source, &mut staged);
        if let Some(atlas) = staged.next {
            self.upstream = Arc::new(atlas);
            self.atlas = Arc::clone(&self.upstream);
            self.rebuild(self.local_links.clone());
        }
        outcome
    }

    /// Contribute links from a local traceroute (already mapped to
    /// clusters by the measurement toolkit). They land in the FROM_SRC
    /// plane and survive daily updates.
    ///
    /// Only the links passed here are applied to the live atlas — the
    /// atlas `Arc` is mutated in place (no clone) because the client
    /// holds the only reference once the predictor is dropped. The old
    /// behaviour cloned the entire atlas and re-applied *every*
    /// accumulated local link on each call.
    pub fn add_local_links<I>(&mut self, links: I)
    where
        I: IntoIterator<Item = LocalLink>,
    {
        let new: Vec<LocalLink> = links.into_iter().collect();
        if new.is_empty() {
            return;
        }
        self.local_links.extend(new.iter().cloned());
        self.rebuild(new);
    }

    /// Apply `links` to the atlas — in place when the client holds the
    /// only `Arc`; the first links after an install copy the upstream
    /// atlas, which stays as it came — then rebuild the predictor once.
    fn rebuild(&mut self, links: Vec<LocalLink>) {
        // Drop the predictor's Arc first so make_mut can avoid cloning.
        self.predictor = None;
        if !links.is_empty() {
            Arc::make_mut(&mut self.atlas).add_from_src_links(links);
        }
        self.predictor = Some(PathPredictor::new(
            Arc::clone(&self.atlas),
            self.cfg.clone(),
        ));
    }

    /// The predictor over the loaded atlas: queries, batches, ranking.
    pub fn predictor(&self) -> &PathPredictor {
        self.predictor
            .as_ref()
            .expect("predictor is initialised outside mutating methods")
    }

    /// Direct access to the loaded atlas.
    pub fn atlas(&self) -> &Atlas {
        &self.atlas
    }
}

/// An [`INanoClient`] as [`catch_up`] drives it: deltas and a resync
/// land on `next`, an upstream atlas which `update` installs once.
struct Staged<'c> {
    client: &'c mut INanoClient,
    next: Option<Atlas>,
}

impl Follower for Staged<'_> {
    fn tag(&mut self) -> u64 {
        let held = self.next.as_ref().unwrap_or(&self.client.upstream);
        *self
            .client
            .upstream_tag
            .get_or_insert_with(|| content_tag(&codec::encode(held).0))
    }

    fn apply(&mut self, _: u64, delta: &AtlasDelta, _: Vec<u8>) -> Result<(), ModelError> {
        let base = self.next.as_ref().unwrap_or(&self.client.upstream);
        self.next = Some(delta.apply(base)?);
        self.client.upstream_tag = None;
        Ok(())
    }

    fn resync(&mut self, version: &AtlasVersion, atlas: Atlas) {
        self.next = Some(atlas);
        self.client.upstream_tag = Some(version.epoch_tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{OfferedBody, Scripted, StaticSource, Step};
    use inano_atlas::{LinkAnnotation, Plane};
    use inano_model::{Asn, Ipv4, Prefix, PrefixId};

    fn base_atlas(day: u32) -> Atlas {
        let mut a = Atlas {
            day,
            ..Atlas::default()
        };
        let cl = ClusterId::new;
        for (f, t) in [(1u32, 2u32), (2, 3), (3, 2), (2, 1)] {
            a.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(2.0)),
                    plane: Plane::TO_DST,
                },
            );
        }
        for (c, asn) in [(1u32, 1u32), (2, 2), (3, 3)] {
            a.cluster_as.insert(cl(c), Asn::new(asn));
        }
        a.prefix_cluster.insert(PrefixId::new(1), cl(1));
        a.prefix_cluster.insert(PrefixId::new(2), cl(3));
        a.prefix_as.insert(
            PrefixId::new(1),
            (Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 24), Asn::new(1)),
        );
        a.prefix_as.insert(
            PrefixId::new(2),
            (Prefix::new(Ipv4::from_octets(20, 0, 0, 0), 24), Asn::new(3)),
        );
        a
    }

    fn client_cfg() -> PredictorConfig {
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg
    }

    #[test]
    fn bootstrap_and_query() {
        let (bytes, _) = codec::encode(&base_atlas(0));
        let mut src = StaticSource::new(bytes, vec![]);
        let client = INanoClient::bootstrap(&mut src, client_cfg()).unwrap();
        assert_eq!(client.day(), 0);
        let r = client
            .predictor()
            .query(
                Ipv4::from_octets(10, 0, 0, 1),
                Ipv4::from_octets(20, 0, 0, 1),
            )
            .unwrap();
        assert_eq!(r.fwd_clusters.len(), 3);
    }

    #[test]
    fn daily_update_applies_deltas_in_order() {
        let day0 = base_atlas(0);
        let mut day1 = base_atlas(1);
        day1.links.insert(
            (ClusterId::new(1), ClusterId::new(3)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        let mut day2 = day1.clone();
        day2.day = 2;
        day2.links.remove(&(ClusterId::new(1), ClusterId::new(2)));

        let (full, _) = codec::encode(&day0);
        let d01 = AtlasDelta::between(&day0, &day1).encode().0;
        let d12 = AtlasDelta::between(&day1, &day2).encode().0;
        let mut day0_src = StaticSource::new(full.clone(), vec![]);
        let mut client = INanoClient::bootstrap(&mut day0_src, client_cfg()).unwrap();
        let mut src = StaticSource::new(full, vec![d01, d12]);
        assert_eq!(client.update(&mut src).unwrap(), 2);
        assert_eq!(client.day(), 2);
        // The new direct link is now the predicted route.
        let r = client
            .predictor()
            .query(
                Ipv4::from_octets(10, 0, 0, 1),
                Ipv4::from_octets(20, 0, 0, 1),
            )
            .unwrap();
        assert_eq!(r.fwd_clusters.len(), 2, "uses the day-1 shortcut");
    }

    #[test]
    fn a_race_after_a_landed_delta_replans_from_the_staged_body() {
        let day0 = base_atlas(0);
        let mut day1 = base_atlas(1);
        day1.links.insert(
            (ClusterId::new(1), ClusterId::new(3)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        let mut day2 = day1.clone();
        day2.day = 2;
        let (full, _) = codec::encode(&day0);
        let d01 = AtlasDelta::between(&day0, &day1).encode().0;
        let d12 = AtlasDelta::between(&day1, &day2).encode().0;
        let mut client =
            INanoClient::bootstrap(&mut StaticSource::new(full.clone(), vec![]), client_cfg())
                .unwrap();
        let mut src = Scripted::new(StaticSource::new(full, vec![d01, d12]));
        // The first delta lands; the second delta's chunk races, and the
        // fresh head is planned from the day-1 body already staged.
        let raced = ModelError::VersionRaced("delta replaced".into());
        src.chunks.extend([Step::Pass, Step::Answer(Err(raced))]);
        assert_eq!(client.update(&mut src).unwrap(), 2);
        assert_eq!((src.served.heads, src.served.delta_chunks), (2, 3));
        assert_eq!(client.day(), 2);
        assert_eq!(
            content_tag(&codec::encode(client.atlas()).0),
            src.inner.full.tag(),
            "on the head's body"
        );
        // In step: the next update moves nothing.
        let served = src.served;
        assert_eq!(client.update(&mut src).unwrap(), 0);
        assert_eq!(src.served.delta_chunks, served.delta_chunks);
        assert_eq!(src.served.full_chunks, served.full_chunks);
    }

    #[test]
    fn update_failing_midway_keeps_the_client_serving() {
        let day0 = base_atlas(0);
        let mut day1 = base_atlas(1);
        day1.links.insert(
            (ClusterId::new(1), ClusterId::new(3)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        let mut day2 = day1.clone();
        day2.day = 2;
        let (full, _) = codec::encode(&day0);
        let d01 = AtlasDelta::between(&day0, &day1).encode().0;
        let d12 = AtlasDelta::between(&day1, &day2).encode().0;
        let mut client =
            INanoClient::bootstrap(&mut StaticSource::new(full.clone(), vec![]), client_cfg())
                .unwrap();
        let mut src = Scripted::new(StaticSource::new(full, vec![d01, d12]));
        // Serves the first delta's one chunk, then fails every further
        // chunk.
        let died = ModelError::Decode("source died mid-update".into());
        src.chunks.extend([Step::Pass, Step::Down(died)]);
        assert!(
            client.update(&mut src).is_err(),
            "the source error surfaces"
        );
        // The delta that did apply is committed, and — regression — the
        // client must keep answering queries instead of panicking on a
        // torn-down predictor.
        assert_eq!(client.day(), 1);
        let r = client
            .predictor()
            .query(
                Ipv4::from_octets(10, 0, 0, 1),
                Ipv4::from_octets(20, 0, 0, 1),
            )
            .unwrap();
        assert_eq!(r.fwd_clusters.len(), 2, "day-1 shortcut is live");
    }

    #[test]
    fn a_broken_delta_chain_is_bridged_by_refetching_the_full_atlas() {
        let mut src = Scripted::new(StaticSource::new(codec::encode(&base_atlas(1)).0, vec![]));
        let mut client = INanoClient::bootstrap(&mut src, client_cfg()).unwrap();
        client.add_local_links([(
            (ClusterId::new(1), ClusterId::new(3)),
            Some(LatencyMs::new(0.5)),
        )]);
        let bootstrap_chunks = src.served.full_chunks;

        // Up to date: the head probe moves no body.
        assert_eq!(client.update(&mut src).unwrap(), 0);
        assert_eq!(client.day(), 1);
        assert_eq!(src.served.full_chunks, bootstrap_chunks);

        // The upstream replaced its atlas: day 5, and no delta leaves
        // day 1. One update lands on it with the local link re-applied.
        src.inner.full = OfferedBody::new(codec::encode(&base_atlas(5)).0);
        assert_eq!(client.update(&mut src).unwrap(), 0);
        assert_eq!(client.day(), 5);
        assert!(
            src.served.full_chunks > bootstrap_chunks,
            "the body was refetched"
        );
        let r = client
            .predictor()
            .query(
                Ipv4::from_octets(10, 0, 0, 1),
                Ipv4::from_octets(20, 0, 0, 1),
            )
            .unwrap();
        assert_eq!(r.fwd_clusters.len(), 2, "local FROM_SRC link survives");

        // And it is idle again afterwards.
        let after = src.served.full_chunks;
        assert_eq!(client.update(&mut src).unwrap(), 0);
        assert_eq!(src.served.full_chunks, after);
    }

    #[test]
    fn a_new_generation_on_the_same_or_an_earlier_day_is_followed() {
        let mut src = StaticSource::new(codec::encode(&base_atlas(1)).0, vec![]);
        let mut client = INanoClient::bootstrap(&mut src, client_cfg()).unwrap();
        client.add_local_links([(
            (ClusterId::new(1), ClusterId::new(3)),
            Some(LatencyMs::new(0.5)),
        )]);
        let marker = (ClusterId::new(3), ClusterId::new(1));
        let (me, there) = (
            Ipv4::from_octets(10, 0, 0, 1),
            Ipv4::from_octets(20, 0, 0, 1),
        );

        // The upstream replaced its day-1 atlas with another day-1 body.
        let mut other = base_atlas(1);
        other.links.insert(
            marker,
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        src.full = OfferedBody::new(codec::encode(&other).0);
        assert_eq!(client.update(&mut src).unwrap(), 0);
        assert_eq!(client.day(), 1);
        assert!(client.atlas().links.contains_key(&marker), "new body");
        let r = client.predictor().query(me, there).unwrap();
        assert_eq!(r.fwd_clusters.len(), 2, "local FROM_SRC link survives");

        // Its origin restarted onto a fresh day-0 generation.
        src.full = OfferedBody::new(codec::encode(&base_atlas(0)).0);
        assert_eq!(client.update(&mut src).unwrap(), 0);
        assert_eq!(client.day(), 0);
        assert!(!client.atlas().links.contains_key(&marker), "day-0 body");
        let r = client.predictor().query(me, there).unwrap();
        assert_eq!(r.fwd_clusters.len(), 2, "local FROM_SRC link survives");
    }

    #[test]
    fn a_body_swapped_in_before_the_head_probe_is_resynced_from() {
        let day0 = base_atlas(0);
        let mut day1 = base_atlas(1);
        day1.links.insert(
            (ClusterId::new(1), ClusterId::new(3)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        let d01 = AtlasDelta::between(&day0, &day1).encode().0;
        let full = codec::encode(&day0).0;
        let mut client =
            INanoClient::bootstrap(&mut StaticSource::new(full.clone(), vec![]), client_cfg())
                .unwrap();
        let mut src = Scripted::new(StaticSource::new(full, vec![d01]));
        let (me, there) = (
            Ipv4::from_octets(10, 0, 0, 1),
            Ipv4::from_octets(20, 0, 0, 1),
        );
        let raw = |path: &[ClusterId]| path.iter().map(|c| c.raw()).collect::<Vec<_>>();

        // Before the client's head probe the upstream swaps in another
        // day-1 body, one without the 1 → 3 shortcut, and keeps the
        // chain that leads to the first: the client walks day 0 → 1 by
        // delta onto a body the head does not name.
        let other = codec::encode(&base_atlas(1)).0;
        let swap = move |s: &mut StaticSource| s.full = OfferedBody::new(other);
        src.heads.push_back(Step::Then(Box::new(swap)));
        assert_eq!(client.update(&mut src).unwrap(), 1);
        let r = client.predictor().query(me, there).unwrap();
        assert_eq!(raw(&r.fwd_clusters), [1, 3], "the chain's day-1 body");

        // Fault-free from here: the next update lands on the body the
        // upstream offers, and the one after moves nothing.
        assert_eq!(client.update(&mut src).unwrap(), 0);
        let shortcut = (ClusterId::new(1), ClusterId::new(3));
        assert!(!client.atlas().links.contains_key(&shortcut));
        let r = client.predictor().query(me, there).unwrap();
        assert_eq!(raw(&r.fwd_clusters), [1, 2, 3], "the upstream's body");
        let fetched = src.served;
        assert_eq!(client.update(&mut src).unwrap(), 0);
        assert_eq!(src.served.full_chunks, fetched.full_chunks);
    }

    #[test]
    fn add_local_links_applies_in_place_without_cloning() {
        let (bytes, _) = codec::encode(&base_atlas(0));
        let mut src = StaticSource::new(bytes, vec![]);
        let mut client = INanoClient::bootstrap(&mut src, client_cfg()).unwrap();
        client.add_local_links([(
            (ClusterId::new(1), ClusterId::new(3)),
            Some(LatencyMs::new(0.5)),
        )]);
        let before = client.atlas() as *const Atlas;
        client.add_local_links([(
            (ClusterId::new(3), ClusterId::new(1)),
            Some(LatencyMs::new(0.5)),
        )]);
        // Regression: each add_local_links call used to clone the whole
        // atlas; the batch is now applied to the same allocation.
        assert_eq!(
            before,
            client.atlas() as *const Atlas,
            "atlas must be augmented in place, not cloned per call"
        );
        // Both incrementally-added links are live.
        let r = client
            .predictor()
            .query(
                Ipv4::from_octets(10, 0, 0, 1),
                Ipv4::from_octets(20, 0, 0, 1),
            )
            .unwrap();
        assert_eq!(r.fwd_clusters.len(), 2, "first local link used");
        assert_eq!(r.rev_clusters.len(), 2, "second local link used");
    }

    #[test]
    fn a_local_link_opens_the_strict_graph_to_a_dead_end_client() {
        // The vantage points only ever entered the client's cluster:
        // 2 → 1 observed, 1 → 2 not. No strict edge leaves it.
        let mut atlas = base_atlas(0);
        atlas.links.remove(&(ClusterId::new(1), ClusterId::new(2)));
        let mut src = StaticSource::new(codec::encode(&atlas).0, vec![]);
        let mut client = INanoClient::bootstrap(&mut src, client_cfg()).unwrap();
        let (me, there) = (
            Ipv4::from_octets(10, 0, 0, 1),
            Ipv4::from_octets(20, 0, 0, 1),
        );
        let raw = |path: &[ClusterId]| path.iter().map(|c| c.raw()).collect::<Vec<_>>();
        let r = client.predictor().query(me, there).unwrap();
        assert_eq!(raw(&r.fwd_clusters), [1, 2, 3], "relaxed: 2 → 1 backwards");
        let counts = client.predictor().search_counts();
        assert_eq!(counts.strict_skipped, 1, "the forward half; {counts:?}");
        assert_eq!(counts.runs, 2, "one relaxed, one strict (the way back)");

        // The client's own traceroute is an observed way out. The
        // rebuilt predictor recomputes the dead-end bits with it.
        client.add_local_links([(
            (ClusterId::new(1), ClusterId::new(3)),
            Some(LatencyMs::new(0.5)),
        )]);
        let r = client.predictor().query(me, there).unwrap();
        assert_eq!(raw(&r.fwd_clusters), [1, 3], "strict: along the new link");
        let counts = client.predictor().search_counts();
        assert_eq!(counts.strict_skipped, 0, "{counts:?}");
        assert_eq!(counts.runs, 2, "both strict");
    }

    #[test]
    fn incremental_adds_match_one_batched_add() {
        let (bytes, _) = codec::encode(&base_atlas(0));
        let links = [
            (
                (ClusterId::new(1), ClusterId::new(3)),
                Some(LatencyMs::new(0.5)),
            ),
            (
                (ClusterId::new(3), ClusterId::new(1)),
                Some(LatencyMs::new(0.4)),
            ),
        ];
        let mut src = StaticSource::new(bytes.clone(), vec![]);
        let mut one = INanoClient::bootstrap(&mut src, client_cfg()).unwrap();
        one.add_local_links(links);
        let mut src2 = StaticSource::new(bytes, vec![]);
        let mut two = INanoClient::bootstrap(&mut src2, client_cfg()).unwrap();
        for l in links {
            two.add_local_links([l]);
        }
        let q = (
            Ipv4::from_octets(10, 0, 0, 1),
            Ipv4::from_octets(20, 0, 0, 1),
        );
        let a = one.predictor().query(q.0, q.1).unwrap();
        let b = two.predictor().query(q.0, q.1).unwrap();
        assert_eq!(a.fwd_clusters, b.fwd_clusters);
        assert_eq!(a.rev_clusters, b.rev_clusters);
        assert!((a.rtt.ms() - b.rtt.ms()).abs() < 1e-12);
    }

    #[test]
    fn local_links_survive_updates() {
        let day0 = base_atlas(0);
        let mut day1 = base_atlas(1);
        day1.tuples.insert(inano_atlas::Triple::canonical(
            Asn::new(9),
            Asn::new(8),
            Asn::new(7),
        ));
        let (full, _) = codec::encode(&day0);
        let d01 = AtlasDelta::between(&day0, &day1).encode().0;
        let mut client =
            INanoClient::bootstrap(&mut StaticSource::new(full.clone(), vec![]), client_cfg())
                .unwrap();
        let mut src = StaticSource::new(full, vec![d01]);
        client.add_local_links([(
            (ClusterId::new(1), ClusterId::new(3)),
            Some(LatencyMs::new(0.5)),
        )]);
        let before = client
            .predictor()
            .query(
                Ipv4::from_octets(10, 0, 0, 1),
                Ipv4::from_octets(20, 0, 0, 1),
            )
            .unwrap();
        assert_eq!(before.fwd_clusters.len(), 2, "local FROM_SRC link used");
        client.update(&mut src).unwrap();
        let after = client
            .predictor()
            .query(
                Ipv4::from_octets(10, 0, 0, 1),
                Ipv4::from_octets(20, 0, 0, 1),
            )
            .unwrap();
        assert_eq!(after.fwd_clusters.len(), 2, "local link survives update");
    }
}
