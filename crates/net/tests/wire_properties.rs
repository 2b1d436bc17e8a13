//! Property tests for the wire codec: encode → decode is the identity
//! for every frame type (request id included), error frames round-trip
//! every defined code, and the limit edges behave exactly at the
//! boundary — a batch of `max_batch` pairs decodes, `max_batch + 1`
//! is a typed per-frame error, a payload of `max_frame_bytes` decodes,
//! one byte more is fatal. The encoders are pinned too: the server's
//! direct `PathBatch` encoder writes the bytes `Frame::encode` would,
//! and every frame variant still encodes to its recorded bytes.

use inano_core::{AtlasVersion, ChainLink, PredictedPath};
use inano_model::{AsPath, Asn, ClusterId, ErrorCode, Ipv4, LatencyMs, LossRate, ModelError};
use inano_net::wire::{
    datagram_cap, decode_datagram, encode_path_batch, read_frame, role_of, DatagramError, Frame,
    Limits, ReadError, CHUNK_WIRE_OVERHEAD, HEADER_BYTES, TRACE_FLAG,
};
use inano_net::{chunk_size_for, WireFault, WirePath, WireResolution, WireShardInfo};
use inano_obs::{
    Event, EventKind, EventsPage, MetricValue, MetricsDump, MetricsRegistry, TraceTimings,
};
use inano_service::{ShardId, SharedResult, DELTA_LOG_CAP};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

prop_compose! {
    fn arb_fault()(
        code_idx in 0usize..ErrorCode::ALL.len(),
        message in proptest::collection::vec(32u8..127, 0..80),
    ) -> WireFault {
        WireFault::new(
            ErrorCode::ALL[code_idx],
            String::from_utf8(message).expect("printable ASCII"),
        )
    }
}

prop_compose! {
    fn arb_path()(
        fwd_clusters in proptest::collection::vec(any::<u32>(), 0..12),
        rev_clusters in proptest::collection::vec(any::<u32>(), 0..12),
        fwd_as in proptest::collection::vec(any::<u32>(), 0..8),
        rev_as in proptest::collection::vec(any::<u32>(), 0..8),
        rtt_ms in 0.0f64..1e4,
        loss in 0.0f64..1.0,
    ) -> WirePath {
        WirePath { fwd_clusters, rev_clusters, fwd_as, rev_as, rtt_ms, loss }
    }
}

prop_compose! {
    fn arb_resolution()(
        prefix in any::<u32>(),
        cluster in any::<u32>(),
        origin_as in proptest::option::of(any::<u32>()),
        cluster_as in proptest::option::of(any::<u32>()),
        refined_providers in any::<bool>(),
    ) -> WireResolution {
        WireResolution { prefix, cluster, origin_as, cluster_as, refined_providers }
    }
}

prop_compose! {
    fn arb_shard_info()(
        shard in any::<u16>(),
        epoch in any::<u64>(),
        day in any::<u32>(),
    ) -> WireShardInfo {
        WireShardInfo { shard, epoch, day }
    }
}

prop_compose! {
    fn arb_link()(base in any::<u64>(), tag in any::<u64>(), len in any::<u64>()) -> ChainLink {
        ChainLink { base, tag, len }
    }
}

prop_compose! {
    fn arb_version()(
        day in any::<u32>(),
        epoch_tag in any::<u64>(),
        full_len in any::<u64>(),
        chunk_size in any::<u32>(),
        chain in proptest::collection::vec(arb_link(), 0..DELTA_LOG_CAP + 1),
    ) -> AtlasVersion {
        AtlasVersion { day, epoch_tag, full_len, chunk_size, chain }
    }
}

prop_compose! {
    fn arb_metric_value()(
        kind in 0usize..3,
        v in any::<u64>(),
        buckets in proptest::collection::vec(any::<u64>(), 0..40),
    ) -> MetricValue {
        match kind {
            0 => MetricValue::Counter(v),
            1 => MetricValue::Gauge(v),
            _ => MetricValue::Histogram(buckets),
        }
    }
}

prop_compose! {
    // Sorted and name-deduped, matching the invariant `MetricsDump`
    // holds (and the decoder restores), so round-trip equality is fair.
    fn arb_dump()(
        raw in proptest::collection::vec(
            (proptest::collection::vec(97u8..123, 1..24), arb_metric_value()),
            0..12,
        ),
    ) -> MetricsDump {
        let mut entries: Vec<(String, MetricValue)> = raw
            .into_iter()
            .map(|(name, v)| (String::from_utf8(name).expect("ascii"), v))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        MetricsDump { entries }
    }
}

prop_compose! {
    fn arb_timings()(
        decode_us in any::<u32>(),
        queue_us in any::<u32>(),
        engine_us in any::<u32>(),
        encode_us in any::<u32>(),
    ) -> TraceTimings {
        TraceTimings { decode_us, queue_us, engine_us, encode_us }
    }
}

prop_compose! {
    fn arb_event_kind()(code in 1u8..=9) -> EventKind {
        EventKind::from_code(code).expect("codes 1..=9 are all defined")
    }
}

prop_compose! {
    // Strictly increasing seqs, as the journal guarantees and the
    // decoder restores (it re-sorts by seq), so round-trip equality
    // is fair.
    fn arb_events_page()(
        start in 0u64..1_000_000,
        lost in any::<u64>(),
        raw in proptest::collection::vec(
            (
                1u64..50,
                any::<u32>(),
                arb_event_kind(),
                proptest::collection::vec(32u8..127, 0..40),
            ),
            0..10,
        ),
    ) -> EventsPage {
        let mut seq = start;
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(gap, t_ms, kind, detail)| {
                seq += gap;
                Event {
                    seq,
                    t_ms: t_ms as u64,
                    kind,
                    detail: String::from_utf8(detail).expect("printable ASCII"),
                }
            })
            .collect();
        let next_seq = events.last().map(|e| e.seq + 1).unwrap_or(start);
        EventsPage { events, lost, next_seq }
    }
}

prop_compose! {
    fn arb_result()(
        is_ok in any::<bool>(),
        path in arb_path(),
        fault in arb_fault(),
    ) -> Result<WirePath, WireFault> {
        if is_ok { Ok(path) } else { Err(fault) }
    }
}

prop_compose! {
    // What the engine hands the server: a shared prediction or the
    // error that stood in for one.
    fn arb_engine_result()(
        variant in 0usize..5,
        path in arb_path(),
        detail in proptest::collection::vec(32u8..127, 0..80),
        id in any::<u64>(),
    ) -> SharedResult {
        let detail = String::from_utf8(detail).expect("printable ASCII");
        match variant {
            0 | 1 => Ok(Arc::new(path.into_predicted())),
            2 => Err(ModelError::NoPath(detail)),
            3 => Err(ModelError::UnroutableAddress(detail)),
            _ => Err(ModelError::UnknownEntity { kind: "prefix", id }),
        }
    }
}

/// The reply the server used to build before encoding: every result
/// converted to its wire form, then `Frame::encode`.
fn encode_via_frame(request_id: u64, results: &[SharedResult]) -> Vec<u8> {
    Frame::PathBatch {
        results: results
            .iter()
            .map(|r| match r {
                Ok(p) => Ok(WirePath::from(&**p)),
                Err(e) => Err(WireFault::from(e)),
            })
            .collect(),
    }
    .encode(request_id)
}

// One strategy per frame type, selected by index so every variant is
// exercised (the stand-in proptest has no `prop_oneof!`).
prop_compose! {
    fn arb_frame()(
        variant in 0usize..20,
        shard in any::<u16>(),
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
        results in proptest::collection::vec(arb_result(), 0..20),
        ip in any::<u32>(),
        resolution in arb_resolution(),
        epoch in any::<u64>(),
        day in any::<u32>(),
        shard_infos in proptest::collection::vec(arb_shard_info(), 0..16),
        version in arb_version(),
        epoch_tag in any::<u64>(),
        idx in any::<u32>(),
        crc in any::<u64>(),
        chunk in proptest::collection::vec(any::<u8>(), 0..300),
        fault in arb_fault(),
        dump in arb_dump(),
        timings in arb_timings(),
        page in arb_events_page(),
    ) -> Frame {
        match variant {
            0 => Frame::Ping,
            1 => Frame::Pong,
            2 => Frame::QueryBatch {
                shard: ShardId(shard),
                pairs: pairs.into_iter().map(|(s, d)| (Ipv4(s), Ipv4(d))).collect(),
            },
            3 => Frame::PathBatch { results },
            4 => Frame::Resolve { shard: ShardId(shard), ip: Ipv4(ip) },
            5 => Frame::ResolveReply { resolution },
            6 => Frame::Epoch { shard: ShardId(shard) },
            7 => Frame::EpochReply { epoch, day },
            8 => Frame::ListShards,
            9 => Frame::ShardsReply { shards: shard_infos },
            10 => Frame::AtlasHead { shard: ShardId(shard) },
            11 => Frame::AtlasHeadReply { version },
            12 => Frame::FetchChunk { shard: ShardId(shard), tag: epoch_tag, idx },
            13 => Frame::ChunkReply { idx, crc, bytes: chunk },
            14 => Frame::Error { fault },
            15 => Frame::Metrics,
            16 => Frame::MetricsReply { dump },
            17 => Frame::TraceReply { timings },
            18 => Frame::Events { since_seq: epoch },
            _ => Frame::EventsReply { page },
        }
    }
}

fn decode(bytes: &[u8], limits: &Limits) -> Result<Option<(u64, Frame)>, ReadError> {
    read_frame(&mut &bytes[..], limits)
}

proptest! {
    #[test]
    fn every_frame_type_round_trips(frame in arb_frame(), id in any::<u64>()) {
        let bytes = frame.encode(id);
        let (got_id, got) = decode(&bytes, &Limits::default())
            .expect("well-formed frame decodes")
            .expect("not EOF");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, frame);
    }

    #[test]
    fn direct_path_batch_bytes_equal_the_frame_encoding(
        results in proptest::collection::vec(arb_engine_result(), 0..24),
        id in any::<u64>(),
    ) {
        let direct = encode_path_batch(id, &results);
        prop_assert_eq!(&direct, &encode_via_frame(id, &results));
        // And they are a well-formed frame: the id sits where
        // `udp_reply` reads it back from, the length covers the rest.
        let (got_id, frame) = decode(&direct, &Limits::default()).unwrap().unwrap();
        prop_assert_eq!(got_id, id);
        match frame {
            Frame::PathBatch { results: decoded } => prop_assert_eq!(decoded.len(), results.len()),
            other => prop_assert!(false, "decoded as {other:?}"),
        }
    }

    #[test]
    fn error_frames_round_trip_every_code(fault in arb_fault(), id in any::<u64>()) {
        let frame = Frame::Error { fault };
        let bytes = frame.encode(id);
        let (got_id, got) = decode(&bytes, &Limits::default()).unwrap().unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, frame);
    }

    #[test]
    fn batch_limit_edge_is_exact(spare in 0u32..4) {
        // Small limit so the test is cheap; the check is on the count,
        // not the byte size.
        let limits = Limits { max_frame_bytes: 1 << 20, max_batch: 64 + spare };
        let at_limit = Frame::QueryBatch {
            shard: ShardId(spare as u16),
            pairs: vec![(Ipv4(1), Ipv4(2)); limits.max_batch as usize],
        };
        let (_, got) = decode(&at_limit.encode(1), &limits)
            .expect("at the limit decodes")
            .unwrap();
        prop_assert_eq!(got, at_limit);

        let over = Frame::QueryBatch {
            shard: ShardId(spare as u16),
            pairs: vec![(Ipv4(1), Ipv4(2)); limits.max_batch as usize + 1],
        };
        match decode(&over.encode(2), &limits) {
            Err(ReadError::Frame { request_id, fault }) => {
                prop_assert_eq!(request_id, 2);
                prop_assert_eq!(fault.code, ErrorCode::BatchTooLarge);
            }
            other => prop_assert!(false, "want per-frame error, got {other:?}"),
        }
    }

    #[test]
    fn frame_size_limit_edge_is_exact(pad in 0u32..32) {
        // An Error frame whose payload lands exactly on the limit.
        let msg_len = 100 + pad as usize;
        let frame = Frame::Error {
            fault: WireFault::new(ErrorCode::NoPath, "x".repeat(msg_len)),
        };
        let bytes = frame.encode(5);
        let payload_len = (bytes.len() - HEADER_BYTES) as u32;

        let exact = Limits { max_frame_bytes: payload_len, max_batch: 16 };
        let (_, got) = decode(&bytes, &exact).expect("exactly at the limit").unwrap();
        prop_assert_eq!(got, frame);

        let tight = Limits { max_frame_bytes: payload_len - 1, max_batch: 16 };
        match decode(&bytes, &tight) {
            Err(ReadError::Fatal(fault)) => {
                prop_assert_eq!(fault.code, ErrorCode::FrameTooLarge);
            }
            other => prop_assert!(false, "want fatal, got {other:?}"),
        }
    }

    #[test]
    fn chunk_replies_cut_by_chunk_size_for_always_fit_the_frame_limit(
        max_frame in 32u32..8192,
        fill in any::<u8>(),
    ) {
        // The sender-side rule (`chunk_size_for`) and the receiver-side
        // limit must agree at the exact edge: a maximal chunk decodes,
        // and one extra byte in the body is a fatal FrameTooLarge.
        let limits = Limits { max_frame_bytes: max_frame, max_batch: 16 };
        let cs = chunk_size_for(&limits);
        prop_assert!(cs >= 1);
        let frame = Frame::ChunkReply {
            idx: 0,
            crc: 7,
            bytes: vec![fill; cs as usize],
        };
        let bytes = frame.encode(3);
        let payload = (bytes.len() - HEADER_BYTES) as u32;
        prop_assert!(payload <= max_frame, "payload {payload} over {max_frame}");
        let (_, got) = decode(&bytes, &limits).expect("maximal chunk decodes").unwrap();
        prop_assert_eq!(got, frame);

        if payload == max_frame {
            // Exactly at the edge: cs + overhead filled the frame, so
            // one more body byte must be refused from the header alone.
            let over = Frame::ChunkReply {
                idx: 0,
                crc: 7,
                bytes: vec![fill; cs as usize + 1],
            };
            match decode(&over.encode(4), &limits) {
                Err(ReadError::Fatal(fault)) => {
                    prop_assert_eq!(fault.code, ErrorCode::FrameTooLarge);
                }
                other => prop_assert!(false, "want fatal, got {other:?}"),
            }
            prop_assert_eq!(payload, cs + CHUNK_WIRE_OVERHEAD);
        }
    }

    #[test]
    fn truncated_payloads_never_panic(frame in arb_frame(), cut in 1usize..24) {
        let bytes = frame.encode(9);
        if bytes.len() > HEADER_BYTES {
            let cut_at = HEADER_BYTES + (bytes.len() - HEADER_BYTES).saturating_sub(cut);
            // Mid-frame EOF must surface as an io error, never a panic.
            match decode(&bytes[..cut_at], &Limits::default()) {
                Err(ReadError::Io(_)) | Ok(Some(_)) => {}
                other => prop_assert!(false, "unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn merging_per_server_dumps_equals_the_dump_of_combined_counters(
        incrs in proptest::collection::vec((0usize..6, any::<u32>(), any::<u32>()), 0..20),
    ) {
        // Two "servers" (A, B) each count some events; a third registry
        // C counts A's and B's events together. The fleet merge of A's
        // and B's dumps must equal C's dump exactly — the property that
        // makes `fleet_scrape`'s time series additive.
        let names = ["a.q", "a.e", "b.hits", "b.misses", "srv.x", "srv.y"];
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let c = MetricsRegistry::new();
        for (ni, va, vb) in incrs {
            let name = names[ni];
            a.counter(name).add(va as u64);
            b.counter(name).add(vb as u64);
            let combined = c.counter(name);
            combined.add(va as u64);
            combined.add(vb as u64);
        }
        let merged = MetricsDump::merged([&a.dump(), &b.dump()]);
        prop_assert_eq!(merged, c.dump());
    }

    #[test]
    fn corrupt_payload_bytes_never_panic(frame in arb_frame(), pos in 0usize..64, bit in 0u8..8) {
        let mut bytes = frame.encode(3);
        if bytes.len() > HEADER_BYTES {
            let idx = HEADER_BYTES + pos % (bytes.len() - HEADER_BYTES);
            bytes[idx] ^= 1 << bit;
            // Any outcome is fine except a panic: the flip may still
            // parse (a changed id), fail typed, or look truncated.
            let _ = decode(&bytes, &Limits::default());
        }
    }

    // ---- the datagram read path. A UDP server decodes raw
    // internet-facing bytes with `decode_datagram`; whatever arrives —
    // truncated, bit-flipped, oversized, pure noise — the only legal
    // outcomes are a decoded frame, a typed fault, or a silent drop.
    // Never a panic.

    #[test]
    fn well_formed_datagrams_round_trip(frame in arb_frame(), id in any::<u64>()) {
        let bytes = frame.encode(id);
        match decode_datagram(&bytes, &Limits::default()) {
            Ok((got_id, got)) => {
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got, frame);
            }
            other => prop_assert!(false, "well-formed datagram refused: {other:?}"),
        }
    }

    #[test]
    fn truncated_datagrams_never_panic(frame in arb_frame(), keep in 0usize..96) {
        // Cut anywhere, header included: a short datagram is either a
        // silent drop (unattributable) or a typed fault, never a panic
        // and never a bogus success (the payload length check catches
        // every mid-payload cut).
        let bytes = frame.encode(11);
        let cut = keep % bytes.len();
        match decode_datagram(&bytes[..cut], &Limits::default()) {
            Err(_) => {}
            Ok((got_id, got)) => prop_assert!(
                false,
                "truncated datagram ({cut} of {} bytes) decoded as id {got_id} {got:?}",
                bytes.len()
            ),
        }
    }

    #[test]
    fn bit_flipped_datagrams_never_panic(
        frame in arb_frame(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = frame.encode(7);
        let idx = pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        // A header flip may turn the datagram unattributable (Drop), a
        // payload flip may still parse or fail typed — all fine.
        let _ = decode_datagram(&bytes, &Limits::default());
    }

    #[test]
    fn random_noise_datagrams_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Noise essentially never carries the magic, so it must be
        // dropped silently — a reply here would make the server a
        // reflection amplifier for spoofed sources.
        if !bytes.starts_with(&0x694E_614Eu32.to_be_bytes()) {
            match decode_datagram(&bytes, &Limits::default()) {
                Err(DatagramError::Drop(_)) => {}
                other => prop_assert!(false, "noise not dropped: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_datagrams_fault_typed_with_the_senders_id(
        id in any::<u64>(),
        extra in 1usize..64,
    ) {
        // A frame whose payload exceeds the receiver's limit is
        // attributable (magic and version decoded), so the sender gets
        // a typed FrameTooLarge carrying its own request id back.
        let limits = Limits { max_frame_bytes: 64, max_batch: 1024 };
        let frame = Frame::QueryBatch {
            shard: ShardId(0),
            pairs: vec![(Ipv4(1), Ipv4(2)); 8 + extra],
        };
        let bytes = frame.encode(id);
        prop_assert!(bytes.len() - HEADER_BYTES > 64);
        match decode_datagram(&bytes, &limits) {
            Err(DatagramError::Fault { request_id, fault }) => {
                prop_assert_eq!(request_id, id);
                prop_assert_eq!(fault.code, ErrorCode::FrameTooLarge);
            }
            other => prop_assert!(false, "want typed fault, got {other:?}"),
        }
    }

    #[test]
    fn ids_with_the_reserved_bit_set_still_round_trip(low in any::<u64>()) {
        // Bit 63 is reserved for the tracing opt-in, but the codec
        // itself is transparent to it: an id with the bit set must
        // survive encode → decode unchanged on both transports (the
        // server echoes it, the trace semantics live above the codec).
        let id = low | TRACE_FLAG;
        let bytes = Frame::Ping.encode(id);
        let (stream_id, _) = decode(&bytes, &Limits::default()).unwrap().unwrap();
        prop_assert_eq!(stream_id, id);
        let (dgram_id, frame) = decode_datagram(&bytes, &Limits::default()).unwrap();
        prop_assert_eq!(dgram_id, id);
        prop_assert_eq!(frame, Frame::Ping);
    }
}

/// The reply-size rule's arithmetic, pinned: the cap is the frame
/// limit plus header room, but never beyond what one UDP datagram can
/// physically carry.
#[test]
fn datagram_cap_is_clamped_to_the_udp_payload_maximum() {
    let small = Limits {
        max_frame_bytes: 1024,
        max_batch: 16,
    };
    assert_eq!(datagram_cap(&small), 1024 + HEADER_BYTES);
    let huge = Limits {
        max_frame_bytes: 32 << 20,
        max_batch: 16,
    };
    assert_eq!(datagram_cap(&huge), inano_net::MAX_UDP_PAYLOAD);
}

/// An empty served batch is a whole, decodable frame on both encoders.
#[test]
fn an_empty_path_batch_encodes_identically_on_both_encoders() {
    let direct = encode_path_batch(9, &[]);
    assert_eq!(direct, encode_via_frame(9, &[]));
    assert_eq!(direct.len(), HEADER_BYTES + 4);
    let (_, frame) = decode(&direct, &Limits::default()).unwrap().unwrap();
    assert_eq!(frame, Frame::PathBatch { results: vec![] });
}

/// A path past the `u16` hop count is far outside what the predictor
/// produces. Both encoders treat it alike, because they share one
/// per-path writer: a release build truncates count and hops together
/// (the frame stays well-formed), a debug build trips the same
/// assertion.
#[test]
fn a_path_beyond_the_u16_hop_count_is_treated_alike_by_both_encoders() {
    let hops = u16::MAX as usize + 7;
    let long = PredictedPath {
        fwd_clusters: (0..hops as u32).map(ClusterId::new).collect(),
        rev_clusters: vec![ClusterId::new(1)],
        fwd_as_path: AsPath::new((0..hops as u32).map(Asn::new)),
        rev_as_path: AsPath::new([Asn::new(1)]),
        rtt: LatencyMs::new(1.0),
        loss: LossRate::new(0.0),
    };
    let results: Vec<SharedResult> = vec![
        Ok(Arc::new(long)),
        Err(ModelError::NoPath("after the long one".into())),
    ];
    let direct = std::panic::catch_unwind(|| encode_path_batch(3, &results));
    let via_frame = std::panic::catch_unwind(|| encode_via_frame(3, &results));
    if cfg!(debug_assertions) {
        assert!(direct.is_err() && via_frame.is_err(), "both assert");
        return;
    }
    let direct = direct.expect("release builds truncate");
    assert_eq!(direct, via_frame.expect("release builds truncate"));
    let limits = Limits {
        max_frame_bytes: 1 << 20,
        max_batch: 16,
    };
    match decode(&direct, &limits).unwrap().unwrap().1 {
        Frame::PathBatch { results } => {
            let path = results[0].as_ref().expect("the long path");
            assert_eq!(path.fwd_clusters.len(), u16::MAX as usize);
            assert_eq!(path.fwd_as.len(), u16::MAX as usize);
            assert!(results[1].is_err(), "the entry behind it still aligns");
        }
        other => panic!("decoded as {other:?}"),
    }
}

/// One fixed frame per variant, with the request id it is encoded under.
fn golden_frames() -> Vec<(&'static str, u64, Frame)> {
    let shard = ShardId(3);
    vec![
        ("ping", 1, Frame::Ping),
        ("pong", 2, Frame::Pong),
        (
            "query_batch",
            0x0102_0304_0506_0708,
            Frame::QueryBatch {
                shard,
                pairs: vec![(Ipv4(0x0a00_0001), Ipv4(0x0a01_0002)), (Ipv4(7), Ipv4(9))],
            },
        ),
        (
            "path_batch",
            4,
            Frame::PathBatch {
                results: vec![
                    Ok(WirePath {
                        fwd_clusters: vec![1, 2, 3],
                        rev_clusters: vec![3, 1],
                        fwd_as: vec![65_001],
                        rev_as: vec![],
                        rtt_ms: 12.5,
                        loss: 0.25,
                    }),
                    Err(WireFault::new(ErrorCode::NoPath, "no path")),
                ],
            },
        ),
        (
            "resolve",
            5,
            Frame::Resolve {
                shard,
                ip: Ipv4(0xc0a8_0101),
            },
        ),
        (
            "resolve_reply",
            6,
            Frame::ResolveReply {
                resolution: WireResolution {
                    prefix: 11,
                    cluster: 12,
                    origin_as: Some(13),
                    cluster_as: None,
                    refined_providers: true,
                },
            },
        ),
        ("epoch", 9, Frame::Epoch { shard }),
        ("epoch_reply", 10, Frame::EpochReply { epoch: 77, day: 5 }),
        ("list_shards", 11, Frame::ListShards),
        (
            "shards_reply",
            12,
            Frame::ShardsReply {
                shards: vec![
                    WireShardInfo {
                        shard: 0,
                        epoch: 1,
                        day: 2,
                    },
                    WireShardInfo {
                        shard: 3,
                        epoch: 4,
                        day: 5,
                    },
                ],
            },
        ),
        ("atlas_head", 13, Frame::AtlasHead { shard }),
        (
            "atlas_head_reply",
            14,
            Frame::AtlasHeadReply {
                version: AtlasVersion {
                    day: 6,
                    epoch_tag: 0xdead_beef_0bad_f00d,
                    full_len: 1 << 33,
                    chunk_size: 65_536,
                    chain: vec![
                        ChainLink {
                            base: 0x0102_0304_0506_0708,
                            tag: 0x1112_1314_1516_1718,
                            len: 300,
                        },
                        ChainLink {
                            base: 0x2122_2324_2526_2728,
                            tag: 0x3132_3334_3536_3738,
                            len: 40,
                        },
                    ],
                },
            },
        ),
        (
            "fetch_chunk",
            15,
            Frame::FetchChunk {
                shard,
                tag: 0xfeed,
                idx: 2,
            },
        ),
        (
            "chunk_reply",
            19,
            Frame::ChunkReply {
                idx: 1,
                crc: 0x1122_3344_5566_7788,
                bytes: vec![9, 8, 7, 6, 5],
            },
        ),
        ("metrics", 20, Frame::Metrics),
        (
            "metrics_reply",
            21,
            Frame::MetricsReply {
                dump: MetricsDump {
                    entries: vec![
                        ("a.count".into(), MetricValue::Counter(3)),
                        ("b.gauge".into(), MetricValue::Gauge(4)),
                        ("c.hist".into(), MetricValue::Histogram(vec![0, 1, 2])),
                    ],
                },
            },
        ),
        ("events", 22, Frame::Events { since_seq: 40 }),
        (
            "events_reply",
            23,
            Frame::EventsReply {
                page: EventsPage {
                    events: vec![Event {
                        seq: 41,
                        t_ms: 1_000,
                        kind: EventKind::GenerationSwap,
                        detail: "shard0 epoch=1 day=1".into(),
                    }],
                    lost: 1,
                    next_seq: 42,
                },
            },
        ),
        (
            "trace_reply",
            1 << 63 | 24,
            Frame::TraceReply {
                timings: TraceTimings {
                    decode_us: 1,
                    queue_us: 2,
                    engine_us: 3,
                    encode_us: 4,
                },
            },
        ),
        (
            "error",
            25,
            Frame::Error {
                fault: WireFault::new(ErrorCode::Overloaded, "busy"),
            },
        ),
    ]
}

/// What `Frame::encode` wrote for [`golden_frames`] when the payload
/// was still built in a buffer of its own and copied behind the header
/// (recorded at that commit, under version 5). The single-buffer
/// encoder must not move a byte of any frame; the move to version 6
/// dropped the two `Stats` rows and changed byte 4 of the rest — the
/// version stamp — and nothing else. The move to version 7 folded the
/// two chunk fetches into `FetchChunk`, whose bytes are those of the
/// full-body fetch it replaced (type `0x08`, shard, tag, index), put
/// the delta body's tag into the delta reply's handle after its days,
/// and changed byte 4 of every row. The move to version 8 dropped the
/// delta fetch by day and its reply (types `0x09`/`0x89`), appended the
/// chain to `AtlasHeadReply` (a `u32` count, then each link's base, tag
/// and length), and changed byte 4 of every row.
const GOLDEN_HEX: [(&str, &str); 20] = [
    ("ping", "694e614e0801000000000000000100000000"),
    ("pong", "694e614e0881000000000000000200000000"),
    ("query_batch", "694e614e08020102030405060708000000160003000000020a0000010a0100020000000700000009"),
    ("path_batch", "694e614e0882000000000000000400000041000000020040290000000000003fd000000000000000030000000100000002000000030002000000030000000100010000fde9000001000500076e6f2070617468"),
    ("resolve", "694e614e08030000000000000005000000060003c0a80101"),
    ("resolve_reply", "694e614e088300000000000000060000000d0000000b0000000c050000000d"),
    ("epoch", "694e614e08050000000000000009000000020003"),
    ("epoch_reply", "694e614e0885000000000000000a0000000c000000000000004d00000005"),
    ("list_shards", "694e614e0806000000000000000b00000000"),
    ("shards_reply", "694e614e0886000000000000000c0000001e000200000000000000000001000000020003000000000000000400000005"),
    ("atlas_head", "694e614e0807000000000000000d000000020003"),
    ("atlas_head_reply", "694e614e0887000000000000000e0000004c00000006deadbeef0badf00d0000000200000000000100000000000201020304050607081112131415161718000000000000012c212223242526272831323334353637380000000000000028"),
    ("fetch_chunk", "694e614e0808000000000000000f0000000e0003000000000000feed00000002"),
    ("chunk_reply", "694e614e0888000000000000001300000015000000011122334455667788000000050908070605"),
    ("metrics", "694e614e080b000000000000001400000000"),
    ("metrics_reply", "694e614e088b00000000000000150000004b00000003000007612e636f756e740000000000000003010007622e67617567650000000000000004020006632e686973740003000000000000000000000000000000010000000000000002"),
    ("events", "694e614e080c0000000000000016000000080000000000000028"),
    ("events_reply", "694e614e088c00000000000000170000003b0000000000000001000000000000002a00000001000000000000002900000000000003e80100147368617264302065706f63683d31206461793d31"),
    ("trace_reply", "694e614e088a80000000000000180000001000000001000000020000000300000004"),
    ("error", "694e614e08ee0000000000000019000000080016000462757379"),
];

/// A frame added to the wire's table must also be added here: both
/// [`golden_frames`] (its bytes are pinned) and [`arb_frame`] (every
/// property runs over it) produce exactly the table's set of types.
#[test]
fn the_golden_vectors_and_the_frame_strategy_cover_every_row_of_the_frame_table() {
    let table: BTreeSet<u8> = (0..=255).filter(|&b| role_of(b).is_some()).collect();
    let golden: BTreeSet<u8> = golden_frames()
        .iter()
        .map(|(_, _, frame)| frame.frame_type())
        .collect();
    assert_eq!(golden, table, "golden_frames() vs the frame table");
    let mut rng = TestRng::from_name("frame table coverage");
    let strategy = arb_frame();
    let generated: BTreeSet<u8> = (0..2_000)
        .map(|_| strategy.generate(&mut rng).frame_type())
        .collect();
    assert_eq!(generated, table, "arb_frame() vs the frame table");
}

#[test]
fn every_frame_variant_encodes_to_its_recorded_bytes() {
    let frames = golden_frames();
    assert_eq!(frames.len(), GOLDEN_HEX.len());
    for ((name, id, frame), (golden_name, hex)) in frames.into_iter().zip(GOLDEN_HEX) {
        assert_eq!(name, golden_name);
        let encoded: String = frame
            .encode(id)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(encoded, hex, "{name}");
        // Appending behind other bytes is the same frame, in place.
        let mut buf = vec![0xAA; 3];
        frame.encode_into(id, &mut buf);
        assert_eq!(buf[..3], [0xAA; 3], "{name}");
        assert_eq!(buf[3..], frame.encode(id)[..], "{name}");
    }
}

/// The delta fetch by day and its reply are retired: their bytes are
/// unassigned, like any other retired type.
#[test]
fn the_retired_delta_frames_decode_as_unknown() {
    for frame_type in [0x09u8, 0x89] {
        assert_eq!(role_of(frame_type), None, "{frame_type:#04x}");
        match Frame::decode_payload(frame_type, &[0, 3, 0, 0, 0, 4], &Limits::default()) {
            Err(fault) => assert_eq!(fault.code, ErrorCode::UnknownFrame, "{frame_type:#04x}"),
            Ok(frame) => panic!("{frame_type:#04x} decoded as {frame:?}"),
        }
    }
}

/// A head claiming more chain links than an engine retains is a typed
/// per-frame fault, decided at the count; one at the cap decodes.
#[test]
fn a_head_claiming_more_links_than_its_cap_is_malformed() {
    let link = ChainLink {
        base: 1,
        tag: 2,
        len: 3,
    };
    let head = |links: usize| Frame::AtlasHeadReply {
        version: AtlasVersion {
            day: 1,
            epoch_tag: 9,
            full_len: 100,
            chunk_size: 10,
            chain: vec![link; links],
        },
    };
    let at_cap = head(DELTA_LOG_CAP).encode(5);
    let (_, got) = decode(&at_cap, &Limits::default())
        .expect("a chain at the cap decodes")
        .expect("not EOF");
    assert_eq!(got, head(DELTA_LOG_CAP));
    // The count sits after day, tag, length and chunk size; claim one
    // link more than the cap, over a payload that holds them all.
    let mut over = head(DELTA_LOG_CAP + 1).encode(6);
    let encoded = u32::from_be_bytes(
        over[HEADER_BYTES + 24..HEADER_BYTES + 28]
            .try_into()
            .unwrap(),
    );
    assert_eq!(
        encoded, DELTA_LOG_CAP as u32,
        "the sender keeps the newest links only"
    );
    over[HEADER_BYTES + 24..HEADER_BYTES + 28]
        .copy_from_slice(&(DELTA_LOG_CAP as u32 + 1).to_be_bytes());
    over.extend_from_slice(&[0; 24]);
    let len = (over.len() - HEADER_BYTES) as u32;
    over[14..18].copy_from_slice(&len.to_be_bytes());
    match decode(&over, &Limits::default()) {
        Err(ReadError::Frame { request_id, fault }) => {
            assert_eq!(request_id, 6);
            assert_eq!(fault.code, ErrorCode::Malformed);
        }
        other => panic!("want a per-frame Malformed, got {other:?}"),
    }
    // A count far past the cap over an empty chain: refused the same.
    let mut hostile = head(0).encode(7);
    let at = hostile.len() - 4;
    hostile[at..].copy_from_slice(&u32::MAX.to_be_bytes());
    match decode(&hostile, &Limits::default()) {
        Err(ReadError::Frame { fault, .. }) => assert_eq!(fault.code, ErrorCode::Malformed),
        other => panic!("want a per-frame Malformed, got {other:?}"),
    }
}
