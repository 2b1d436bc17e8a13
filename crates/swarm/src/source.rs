//! An [`AtlasSource`] that hands out atlas bytes "through" the simulated
//! swarm: fetches succeed and the simulation's completion time is
//! recorded, so examples can report realistic bootstrap latencies.
//!
//! The source serves the chunked v2 API natively: the encoded bodies
//! live behind shared `Arc<[u8]>`s and every chunk is a copy of just
//! its span — the old blob API cloned the *entire* encoded atlas per
//! peer fetch, which at §5 scale (a ~7MB atlas, thousands of peers) is
//! gigabytes of needless allocation at the seed.

use crate::sim::{simulate_swarm, SwarmConfig, SwarmReport};
use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_core::DEFAULT_CHUNK_SIZE;
use inano_core::{chunk_span, content_tag, AtlasChunk, AtlasSource, AtlasVersion, DeltaHandle};
use inano_model::ModelError;
use inano_obs::{Counter, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::Arc;

/// Most recent download reports retained by a [`SwarmSource`]. A
/// long-lived engine fetches a delta per day forever; an unbounded log
/// is a slow leak, so older reports are dropped once consumers had
/// [`SwarmSource::take_downloads`] available to drain them.
pub const DOWNLOAD_LOG_CAP: usize = 64;

/// One encoded delta body with its precomputed day span.
struct DeltaEntry {
    from_day: u32,
    to_day: u32,
    bytes: Arc<[u8]>,
}

/// Serves a full atlas plus a chain of daily deltas, simulating a swarm
/// download for each logical fetch (the simulation runs once per body,
/// on its first chunk; later chunks of the same body ride that swarm).
pub struct SwarmSource {
    day: u32,
    full: Arc<[u8]>,
    full_tag: u64,
    deltas: Vec<DeltaEntry>,
    chunk_size: u32,
    swarm: SwarmConfig,
    /// Reports of the most recent downloads, in fetch order, capped at
    /// [`DOWNLOAD_LOG_CAP`].
    downloads: VecDeque<SwarmReport>,
    /// Registry handles (not plain `u64`s): attached to a metrics
    /// registry, they are read live while the source keeps serving.
    fetches: Counter,
    bytes_served: Counter,
}

impl SwarmSource {
    /// Build from the atlas of day 0 and subsequent days' atlases.
    pub fn new(day0: &Atlas, later_days: &[Atlas], swarm: SwarmConfig) -> SwarmSource {
        let (full, _) = codec::encode(day0);
        let mut deltas = Vec::new();
        let mut prev = day0;
        for next in later_days {
            let delta = AtlasDelta::between(prev, next);
            deltas.push(DeltaEntry {
                from_day: delta.from_day,
                to_day: delta.to_day,
                bytes: delta.encode().0.into(),
            });
            prev = next;
        }
        SwarmSource {
            day: day0.day,
            full_tag: content_tag(&full),
            full: full.into(),
            deltas,
            chunk_size: DEFAULT_CHUNK_SIZE,
            swarm,
            downloads: VecDeque::new(),
            fetches: Counter::default(),
            bytes_served: Counter::default(),
        }
    }

    /// Publish this source's lifetime counters into `obs` as the
    /// `swarm.fetches` / `swarm.bytes_served` series, so the seed's
    /// serving cost shows up in the same scrape as the query plane.
    pub fn register_metrics(&self, obs: &MetricsRegistry) {
        obs.attach("swarm.fetches", self.fetches.clone());
        obs.attach("swarm.bytes_served", self.bytes_served.clone());
    }

    fn swarm_fetch(&mut self, bytes: usize) {
        let cfg = SwarmConfig {
            file_bytes: bytes as f64,
            // Small files (daily deltas) ship in proportionally smaller
            // chunks; a fixed 256KB chunk would round a 20KB delta up to
            // a whole chunk per peer.
            chunk_bytes: (bytes as f64 / 8.0).clamp(4.0e3, self.swarm.chunk_bytes),
            ..self.swarm.clone()
        };
        self.fetches.inc();
        if self.downloads.len() == DOWNLOAD_LOG_CAP {
            self.downloads.pop_front();
        }
        self.downloads.push_back(simulate_swarm(&cfg));
    }

    /// Serve one chunk of a shared body, counting the bytes and — on
    /// the body's first chunk — running the swarm simulation for the
    /// whole download.
    fn serve_chunk(&mut self, body: &Arc<[u8]>, idx: u32) -> Result<AtlasChunk, ModelError> {
        let span = chunk_span(body.len() as u64, self.chunk_size, idx)?;
        if idx == 0 {
            self.swarm_fetch(body.len());
        }
        self.bytes_served.add(span.len() as u64);
        Ok(AtlasChunk::of(body[span].to_vec()))
    }

    /// The retained download reports, oldest first (at most
    /// [`DOWNLOAD_LOG_CAP`]; see [`SwarmSource::total_fetches`] for the
    /// uncapped count).
    pub fn downloads(&self) -> &VecDeque<SwarmReport> {
        &self.downloads
    }

    /// Drain the retained reports (oldest first), leaving the buffer
    /// empty — the polling pattern for a long-lived updater that wants
    /// every report without the source holding them forever.
    pub fn take_downloads(&mut self) -> Vec<SwarmReport> {
        self.downloads.drain(..).collect()
    }

    /// Fetches served over this source's lifetime (never capped).
    pub fn total_fetches(&self) -> u64 {
        self.fetches.get()
    }

    /// Total chunk bytes handed out over this source's lifetime — the
    /// seed-side serving cost, which the blob API hid by cloning whole
    /// atlases.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served.get()
    }

    /// Completion time of the most recent fetch, seconds.
    pub fn last_fetch_secs(&self) -> Option<f64> {
        self.downloads.back().map(|r| r.median_completion())
    }
}

impl AtlasSource for SwarmSource {
    fn head(&mut self) -> Result<AtlasVersion, ModelError> {
        Ok(AtlasVersion {
            day: self.day,
            epoch_tag: self.full_tag,
            full_len: self.full.len() as u64,
            chunk_size: self.chunk_size,
        })
    }

    fn fetch_full_chunk(&mut self, idx: u32) -> Result<AtlasChunk, ModelError> {
        let body = Arc::clone(&self.full);
        self.serve_chunk(&body, idx)
    }

    fn fetch_delta(&mut self, have_day: u32) -> Result<Option<DeltaHandle>, ModelError> {
        Ok(self
            .deltas
            .iter()
            .find(|d| d.from_day == have_day)
            .map(|d| DeltaHandle {
                from_day: d.from_day,
                to_day: d.to_day,
                len: d.bytes.len() as u64,
                chunk_size: self.chunk_size,
            }))
    }

    fn fetch_delta_chunk(&mut self, from_day: u32, idx: u32) -> Result<AtlasChunk, ModelError> {
        let Some(body) = self
            .deltas
            .iter()
            .find(|d| d.from_day == from_day)
            .map(|d| Arc::clone(&d.bytes))
        else {
            return Err(ModelError::VersionRaced(format!(
                "no delta leaving day {from_day}"
            )));
        };
        self.serve_chunk(&body, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{LinkAnnotation, Plane};
    use inano_core::AtlasReader;
    use inano_model::{Asn, ClusterId, LatencyMs};

    fn atlas(day: u32, extra_link: bool) -> Atlas {
        let mut a = Atlas {
            day,
            ..Atlas::default()
        };
        let cl = ClusterId::new;
        a.links.insert(
            (cl(1), cl(2)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        if extra_link {
            a.links.insert(
                (cl(2), cl(3)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(2.0)),
                    plane: Plane::TO_DST,
                },
            );
        }
        a.cluster_as.insert(cl(1), Asn::new(1));
        a.cluster_as.insert(cl(2), Asn::new(2));
        a.cluster_as.insert(cl(3), Asn::new(3));
        a
    }

    #[test]
    fn serves_full_and_delta_with_download_reports() {
        let d0 = atlas(0, false);
        let d1 = atlas(1, true);
        let mut src = SwarmSource::new(
            &d0,
            &[d1],
            SwarmConfig {
                n_peers: 10,
                ..SwarmConfig::default()
            },
        );
        let reader = AtlasReader::default();
        let (version, full) = reader.fetch_full(&mut src).expect("full fetch");
        assert!(!full.is_empty());
        assert_eq!(version.day, 0);
        assert_eq!(version.epoch_tag, content_tag(&full));
        assert_eq!(src.downloads().len(), 1);
        assert_eq!(src.bytes_served(), full.len() as u64);
        let (handle, delta) = reader
            .fetch_delta(&mut src, 0)
            .expect("delta fetch")
            .expect("a delta leaves day 0");
        assert_eq!((handle.from_day, handle.to_day), (0, 1));
        assert_eq!(delta.len() as u64, handle.len);
        assert_eq!(src.downloads().len(), 2);
        assert_eq!(src.bytes_served(), (full.len() + delta.len()) as u64);
        // The delta is smaller, so it downloads faster.
        assert!(src.downloads()[1].makespan <= src.downloads()[0].makespan);
        assert!(reader.fetch_delta(&mut src, 1).unwrap().is_none());
    }

    #[test]
    fn chunks_come_from_a_shared_body_not_a_fresh_clone() {
        let d0 = atlas(0, false);
        let mut src = SwarmSource::new(
            &d0,
            &[],
            SwarmConfig {
                n_peers: 4,
                ..SwarmConfig::default()
            },
        );
        let head = src.head().expect("head");
        // Peer fetches only ever copy a chunk-sized span; the encoded
        // body itself stays shared (one Arc, not one clone per fetch).
        let before = Arc::strong_count(&src.full);
        let c = src.fetch_full_chunk(0).expect("chunk");
        assert!(c.verify());
        assert_eq!(
            c.bytes.len() as u64,
            head.full_len.min(head.chunk_size as u64)
        );
        assert_eq!(Arc::strong_count(&src.full), before);
        // Out-of-range indexes are typed, not panics.
        assert!(matches!(
            src.fetch_full_chunk(head.n_chunks()),
            Err(ModelError::ChunkOutOfRange(_))
        ));
    }

    #[test]
    fn registered_metrics_track_the_source() {
        let d0 = atlas(0, false);
        let mut src = SwarmSource::new(
            &d0,
            &[],
            SwarmConfig {
                n_peers: 4,
                ..SwarmConfig::default()
            },
        );
        let obs = MetricsRegistry::new();
        src.register_metrics(&obs);
        src.fetch_full_chunk(0).unwrap();
        let dump = obs.dump();
        assert_eq!(dump.counter("swarm.fetches"), 1);
        assert!(src.bytes_served() > 0);
        assert_eq!(dump.counter("swarm.bytes_served"), src.bytes_served());
    }

    #[test]
    fn download_log_is_bounded_and_drainable() {
        let d0 = atlas(0, false);
        let mut src = SwarmSource::new(
            &d0,
            &[],
            SwarmConfig {
                n_peers: 4,
                ..SwarmConfig::default()
            },
        );
        // Chunk 0 of the full body is what triggers a simulated swarm
        // download; every peer bootstrap starts there.
        for _ in 0..(DOWNLOAD_LOG_CAP + 40) {
            src.fetch_full_chunk(0).unwrap();
        }
        assert_eq!(src.downloads().len(), DOWNLOAD_LOG_CAP);
        assert_eq!(src.total_fetches(), (DOWNLOAD_LOG_CAP + 40) as u64);
        assert!(src.last_fetch_secs().is_some());
        let drained = src.take_downloads();
        assert_eq!(drained.len(), DOWNLOAD_LOG_CAP);
        assert!(src.downloads().is_empty());
        assert_eq!(src.last_fetch_secs(), None);
        // The counter survives the drain; the buffer refills.
        src.fetch_full_chunk(0).unwrap();
        assert_eq!(src.downloads().len(), 1);
        assert_eq!(src.total_fetches(), (DOWNLOAD_LOG_CAP + 41) as u64);
    }
}
