//! The fleet event journal: a bounded ring of typed, monotonically
//! sequenced events — the causal complement to the metrics registry.
//!
//! Counters say *that* state changed; the journal says *when and why*:
//! a generation swap, a delta application, a full resync after falling
//! off the delta chain, an overload episode opening and closing, a
//! connection arriving or leaving. Each event carries a strictly
//! increasing sequence number (one `fetch_add`, process-wide per
//! journal) and a coarse wall-clock millisecond timestamp, so
//! per-server streams scraped over the wire merge into one fleet
//! timeline ordered by `(t_ms, seq)`.
//!
//! The ring is an atomic sequence cursor over per-slot mutexes, so an
//! emitter locks one slot and emission is cheap enough for connection
//! and swap paths (it is **not** on the per-query path). Overflow is
//! deliberate and *detectable*: when writers lap readers, the
//! overwritten sequence numbers are gone, and [`EventJournal::since`]
//! reports exactly how many requested events were lost instead of
//! silently skipping them.

use crate::registry::Gauge;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// What happened. Codes are stable wire-visible u8s — append-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A new atlas generation was swapped in (any path).
    GenerationSwap,
    /// A delta advanced the current generation in place.
    DeltaApplied,
    /// The full atlas was re-fetched and replaced (fell off the chain,
    /// bootstrap, or head moved past the retained deltas).
    FullResync,
    /// A mid-fetch generation swap was detected and recovered by
    /// restarting the read against the new epoch.
    RaceRecovered,
    /// The server began shedding work (budget or queue exhaustion).
    OverloadStart,
    /// The overload episode ended (a shed-free accept/respond cycle).
    OverloadEnd,
    /// A connection was admitted.
    ConnAccepted,
    /// A connection terminated (either side, any reason).
    ConnClosed,
    /// A mirror refresh pass against the upstream failed.
    MirrorRefreshFailed,
}

impl EventKind {
    /// Stable wire code. Append new kinds; never renumber.
    pub fn code(self) -> u8 {
        match self {
            EventKind::GenerationSwap => 1,
            EventKind::DeltaApplied => 2,
            EventKind::FullResync => 3,
            EventKind::RaceRecovered => 4,
            EventKind::OverloadStart => 5,
            EventKind::OverloadEnd => 6,
            EventKind::ConnAccepted => 7,
            EventKind::ConnClosed => 8,
            EventKind::MirrorRefreshFailed => 9,
        }
    }

    /// Decode a wire code; `None` for codes this build doesn't know
    /// (a newer peer's kinds — callers skip, never fail the frame).
    pub fn from_code(code: u8) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::GenerationSwap,
            2 => EventKind::DeltaApplied,
            3 => EventKind::FullResync,
            4 => EventKind::RaceRecovered,
            5 => EventKind::OverloadStart,
            6 => EventKind::OverloadEnd,
            7 => EventKind::ConnAccepted,
            8 => EventKind::ConnClosed,
            9 => EventKind::MirrorRefreshFailed,
            _ => return None,
        })
    }

    /// Stable snake-case name, as `fleet_scrape` prints it.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::GenerationSwap => "generation_swap",
            EventKind::DeltaApplied => "delta_applied",
            EventKind::FullResync => "full_resync",
            EventKind::RaceRecovered => "race_recovered",
            EventKind::OverloadStart => "overload_start",
            EventKind::OverloadEnd => "overload_end",
            EventKind::ConnAccepted => "conn_accepted",
            EventKind::ConnClosed => "conn_closed",
            EventKind::MirrorRefreshFailed => "mirror_refresh_failed",
        }
    }
}

/// One journal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Strictly increasing per journal, starting at 0. Never reused.
    pub seq: u64,
    /// Coarse wall-clock milliseconds since the Unix epoch, captured
    /// at emission. Coarse on purpose: it orders events *across*
    /// servers; `seq` orders them within one.
    pub t_ms: u64,
    pub kind: EventKind,
    /// Free-form context: shard, day, peer address, error text.
    pub detail: String,
}

/// A page of events returned by [`EventJournal::since`], plus how many
/// requested events the ring had already overwritten.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventsPage {
    /// Ascending by `seq`, each `>= the requested since_seq`.
    pub events: Vec<Event>,
    /// Requested sequence numbers no longer retained. Zero means the
    /// page is gapless from `since_seq` to the journal head.
    pub lost: u64,
    /// Pass this as the next `since_seq` to continue the stream.
    pub next_seq: u64,
}

/// The bounded, lock-free-emission event ring. See the module docs.
pub struct EventJournal {
    /// The sequence number the next event gets. A registry handle so
    /// the cursor itself is what a server exports
    /// ([`EventJournal::head`]).
    next_seq: Gauge,
    slots: Vec<Mutex<Option<Event>>>,
}

/// Milliseconds since the Unix epoch, saturating at 0 for pre-epoch
/// clocks (a misconfigured container, not a panic).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl EventJournal {
    /// A ring retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal {
            next_seq: Gauge::default(),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The sequence number the *next* emitted event will get — i.e.
    /// one past the newest event so far — as a handle to attach to a
    /// metrics registry: a scraper whose cursor trails it by more than
    /// the ring capacity knows it lost events without paging.
    pub fn head(&self) -> Gauge {
        self.next_seq.clone()
    }

    /// Emit an event with the current wall clock.
    pub fn emit(&self, kind: EventKind, detail: impl Into<String>) {
        self.emit_at(now_ms(), kind, detail);
    }

    /// Emit with an explicit timestamp (tests, replays).
    pub fn emit_at(&self, t_ms: u64, kind: EventKind, detail: impl Into<String>) {
        let seq = self.next_seq.add(1);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().expect("journal slot") = Some(Event {
            seq,
            t_ms,
            kind,
            detail: detail.into(),
        });
    }

    /// Every retained event with `seq >= since_seq`, ascending, plus
    /// the count of requested events the ring no longer holds (lapped
    /// by writers). Reading never consumes: the same page can be
    /// served to any number of scrapers.
    pub fn since(&self, since_seq: u64) -> EventsPage {
        // Head is read *before* the slot scan: events emitted during
        // the scan (seq >= head) are excluded so they can't make the
        // page look larger than the request, and the page never claims
        // loss it can't know about yet.
        let head = self.next_seq.get();
        let mut events: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("journal slot").clone())
            .filter(|e| e.seq >= since_seq && e.seq < head)
            .collect();
        events.sort_by_key(|e| e.seq);
        // Every seq in [since_seq, head) was assigned; any not in the
        // page was overwritten (a writer lapped the ring).
        let requested = head.saturating_sub(since_seq);
        let lost = requested.saturating_sub(events.len() as u64);
        let next_seq = head;
        EventsPage {
            events,
            lost,
            next_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_strictly_increases_and_since_never_reorders() {
        let j = EventJournal::new(16);
        for i in 0..10u64 {
            j.emit_at(i, EventKind::DeltaApplied, format!("day={i}"));
        }
        let page = j.since(0);
        assert_eq!(page.lost, 0);
        assert_eq!(page.next_seq, 10);
        let seqs: Vec<u64> = page.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert_eq!(page.events[3].detail, "day=3");
    }

    #[test]
    fn since_filters_and_overflow_reports_lost() {
        let j = EventJournal::new(4);
        for i in 0..10u64 {
            j.emit_at(i, EventKind::ConnAccepted, "");
        }
        // Ring of 4 retains seqs 6..=9.
        let page = j.since(0);
        let seqs: Vec<u64> = page.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(page.lost, 6);
        assert_eq!(page.next_seq, 10);
        // Resuming from next_seq is gapless and empty.
        let tail = j.since(page.next_seq);
        assert!(tail.events.is_empty());
        assert_eq!(tail.lost, 0);
        assert_eq!(tail.next_seq, 10);
        // A reader that kept up sees no loss.
        let caught_up = j.since(7);
        assert_eq!(caught_up.events.len(), 3);
        assert_eq!(caught_up.lost, 0);
    }

    #[test]
    fn kind_codes_round_trip_and_unknown_is_none() {
        for kind in [
            EventKind::GenerationSwap,
            EventKind::DeltaApplied,
            EventKind::FullResync,
            EventKind::RaceRecovered,
            EventKind::OverloadStart,
            EventKind::OverloadEnd,
            EventKind::ConnAccepted,
            EventKind::ConnClosed,
            EventKind::MirrorRefreshFailed,
        ] {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(200), None);
    }

    #[test]
    fn concurrent_emitters_never_duplicate_a_seq() {
        let j = std::sync::Arc::new(EventJournal::new(256));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let j = std::sync::Arc::clone(&j);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        j.emit(EventKind::ConnClosed, "");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let page = j.since(0);
        assert_eq!(page.events.len(), 200);
        assert_eq!(page.lost, 0);
        let mut seqs: Vec<u64> = page.events.iter().map(|e| e.seq).collect();
        let sorted = seqs.clone();
        seqs.dedup();
        assert_eq!(seqs, sorted, "duplicated seq");
        assert_eq!(seqs.len(), 200);
    }
}
