//! Error types shared across the workspace.

use std::fmt;

/// Errors produced by model-layer operations and surfaced through the
/// public APIs of the higher crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// An id referenced an entity that does not exist in the relevant table.
    UnknownEntity { kind: &'static str, id: u64 },
    /// An IP address did not match any known prefix.
    UnroutableAddress(String),
    /// A dataset failed to decode (corrupt bytes, bad magic, truncated...).
    Decode(String),
    /// A delta/patch did not apply cleanly (base-version mismatch etc.).
    PatchMismatch(String),
    /// A query could not be answered (e.g. no path found in the atlas).
    NoPath(String),
    /// Invalid configuration.
    Config(String),
    /// A request named an atlas shard the registry does not host.
    UnknownShard(u16),
    /// The atlas (or delta) a chunked fetch was reading changed or
    /// disappeared under it; the fetcher should re-read `head()` and
    /// restart at the new version.
    VersionRaced(String),
    /// A chunk fetch named an index beyond the body it was cut from.
    ChunkOutOfRange(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownEntity { kind, id } => write!(f, "unknown {kind} id {id}"),
            ModelError::UnroutableAddress(ip) => write!(f, "unroutable address {ip}"),
            ModelError::Decode(msg) => write!(f, "decode error: {msg}"),
            ModelError::PatchMismatch(msg) => write!(f, "patch mismatch: {msg}"),
            ModelError::NoPath(msg) => write!(f, "no path: {msg}"),
            ModelError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            ModelError::UnknownShard(id) => write!(f, "unknown shard {id}"),
            ModelError::VersionRaced(msg) => write!(f, "version raced: {msg}"),
            ModelError::ChunkOutOfRange(msg) => write!(f, "chunk out of range: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Stable numeric error codes for the wire protocol (`inano-net`).
///
/// Two ranges: `1..=15` mirror [`ModelError`] variants (a query that
/// fails inside the engine crosses the wire as one of these), `16..`
/// are transport-level faults the server raises itself (framing,
/// limits, admission). The numeric values are part of the protocol —
/// append, never renumber.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// [`ModelError::UnknownEntity`].
    UnknownEntity = 1,
    /// [`ModelError::UnroutableAddress`].
    UnroutableAddress = 2,
    /// [`ModelError::Decode`].
    Decode = 3,
    /// [`ModelError::PatchMismatch`].
    PatchMismatch = 4,
    /// [`ModelError::NoPath`].
    NoPath = 5,
    /// [`ModelError::Config`].
    Config = 6,
    /// [`ModelError::UnknownShard`]: the request named an atlas shard
    /// the serving registry does not host.
    UnknownShard = 7,
    /// [`ModelError::VersionRaced`]: the atlas/delta being fetched
    /// changed under the fetch; re-read the head and restart.
    VersionRaced = 8,
    /// [`ModelError::ChunkOutOfRange`]: a chunk index beyond the body.
    ChunkOutOfRange = 9,
    /// Frame header did not start with the protocol magic.
    BadMagic = 16,
    /// Frame header carried an unsupported protocol version.
    BadVersion = 17,
    /// Declared payload length exceeds the receiver's frame limit.
    FrameTooLarge = 18,
    /// A `QueryBatch` carried more pairs than the receiver allows.
    BatchTooLarge = 19,
    /// Frame type byte is not part of the protocol.
    UnknownFrame = 20,
    /// Payload failed to parse (truncated, trailing bytes, bad tag...).
    Malformed = 21,
    /// Admission gate: the server is at its connection limit.
    Overloaded = 22,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown = 23,
    /// A syntactically valid frame that makes no sense in this
    /// direction (e.g. a client sending a reply type).
    UnexpectedFrame = 24,
    /// A stream-only frame (chunk fetches and other multi-frame
    /// exchanges) arrived on the single-shot datagram transport.
    NotOnDatagram = 25,
}

impl ErrorCode {
    /// Every defined code, for exhaustive round-trip tests.
    pub const ALL: [ErrorCode; 19] = [
        ErrorCode::UnknownEntity,
        ErrorCode::UnroutableAddress,
        ErrorCode::Decode,
        ErrorCode::PatchMismatch,
        ErrorCode::NoPath,
        ErrorCode::Config,
        ErrorCode::UnknownShard,
        ErrorCode::VersionRaced,
        ErrorCode::ChunkOutOfRange,
        ErrorCode::BadMagic,
        ErrorCode::BadVersion,
        ErrorCode::FrameTooLarge,
        ErrorCode::BatchTooLarge,
        ErrorCode::UnknownFrame,
        ErrorCode::Malformed,
        ErrorCode::Overloaded,
        ErrorCode::ShuttingDown,
        ErrorCode::UnexpectedFrame,
        ErrorCode::NotOnDatagram,
    ];

    pub const fn as_u16(self) -> u16 {
        self as u16
    }

    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_u16() == code)
    }

    /// True for faults raised by the transport itself rather than
    /// carried over from a [`ModelError`].
    pub const fn is_transport(self) -> bool {
        self.as_u16() >= 16
    }
}

impl From<&ModelError> for ErrorCode {
    fn from(e: &ModelError) -> ErrorCode {
        match e {
            ModelError::UnknownEntity { .. } => ErrorCode::UnknownEntity,
            ModelError::UnroutableAddress(_) => ErrorCode::UnroutableAddress,
            ModelError::Decode(_) => ErrorCode::Decode,
            ModelError::PatchMismatch(_) => ErrorCode::PatchMismatch,
            ModelError::NoPath(_) => ErrorCode::NoPath,
            ModelError::Config(_) => ErrorCode::Config,
            ModelError::UnknownShard(_) => ErrorCode::UnknownShard,
            ModelError::VersionRaced(_) => ErrorCode::VersionRaced,
            ModelError::ChunkOutOfRange(_) => ErrorCode::ChunkOutOfRange,
        }
    }
}

impl ModelError {
    /// The error a wire fault stands for, given its `code` and its
    /// `message` — the error's Display text, as the server sends it.
    /// Every variant that carries a `String` comes back as itself, and
    /// so does [`ModelError::UnknownShard`], whose id is parsed back out.
    /// `None` for a transport code and for
    /// [`ModelError::UnknownEntity`], whose `&'static str` kind cannot
    /// cross the wire.
    pub fn from_wire(code: ErrorCode, message: &str) -> Option<ModelError> {
        let variant: fn(String) -> ModelError = match code {
            ErrorCode::UnroutableAddress => ModelError::UnroutableAddress,
            ErrorCode::Decode => ModelError::Decode,
            ErrorCode::PatchMismatch => ModelError::PatchMismatch,
            ErrorCode::NoPath => ModelError::NoPath,
            ErrorCode::Config => ModelError::Config,
            ErrorCode::VersionRaced => ModelError::VersionRaced,
            ErrorCode::ChunkOutOfRange => ModelError::ChunkOutOfRange,
            // "unknown shard N", the id last.
            ErrorCode::UnknownShard => {
                let id = message.rsplit(' ').next()?.parse().ok()?;
                return Some(ModelError::UnknownShard(id));
            }
            _ => return None,
        };
        // The variant's Display with no message is the prefix to strip.
        let prefix = variant(String::new()).to_string();
        let text = message.strip_prefix(&prefix).unwrap_or(message);
        Some(variant(text.to_string()))
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::UnknownEntity => "unknown-entity",
            ErrorCode::UnroutableAddress => "unroutable-address",
            ErrorCode::Decode => "decode",
            ErrorCode::PatchMismatch => "patch-mismatch",
            ErrorCode::NoPath => "no-path",
            ErrorCode::Config => "config",
            ErrorCode::UnknownShard => "unknown-shard",
            ErrorCode::VersionRaced => "version-raced",
            ErrorCode::ChunkOutOfRange => "chunk-out-of-range",
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::BatchTooLarge => "batch-too-large",
            ErrorCode::UnknownFrame => "unknown-frame",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::UnexpectedFrame => "unexpected-frame",
            ErrorCode::NotOnDatagram => "not-on-datagram",
        };
        write!(f, "{name}({})", self.as_u16())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ModelError::UnknownEntity {
            kind: "prefix",
            id: 9,
        };
        assert_eq!(e.to_string(), "unknown prefix id 9");
        assert!(ModelError::Decode("bad magic".into())
            .to_string()
            .contains("bad magic"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ModelError::NoPath("x".into()));
    }

    #[test]
    fn error_codes_round_trip_and_stay_stable() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(9999), None);
        // Protocol constants: renumbering is a wire break.
        assert_eq!(ErrorCode::UnknownEntity.as_u16(), 1);
        assert_eq!(ErrorCode::Config.as_u16(), 6);
        assert_eq!(ErrorCode::UnknownShard.as_u16(), 7);
        assert_eq!(ErrorCode::VersionRaced.as_u16(), 8);
        assert_eq!(ErrorCode::ChunkOutOfRange.as_u16(), 9);
        assert_eq!(ErrorCode::BadMagic.as_u16(), 16);
        assert_eq!(ErrorCode::UnexpectedFrame.as_u16(), 24);
        assert_eq!(ErrorCode::NotOnDatagram.as_u16(), 25);
        assert!(ErrorCode::NotOnDatagram.is_transport());
    }

    #[test]
    fn unknown_shard_is_a_model_code() {
        let e = ModelError::UnknownShard(9);
        assert_eq!(e.to_string(), "unknown shard 9");
        assert_eq!(ErrorCode::from(&e), ErrorCode::UnknownShard);
        assert!(!ErrorCode::UnknownShard.is_transport());
    }

    #[test]
    fn dissemination_faults_are_model_codes() {
        let raced = ModelError::VersionRaced("tag moved".into());
        assert_eq!(ErrorCode::from(&raced), ErrorCode::VersionRaced);
        assert!(!ErrorCode::VersionRaced.is_transport());
        let oob = ModelError::ChunkOutOfRange("chunk 9 of 4".into());
        assert_eq!(ErrorCode::from(&oob), ErrorCode::ChunkOutOfRange);
        assert!(oob.to_string().contains("chunk 9 of 4"));
    }

    #[test]
    fn model_errors_map_onto_codes() {
        let e = ModelError::NoPath("x".into());
        assert_eq!(ErrorCode::from(&e), ErrorCode::NoPath);
        assert!(!ErrorCode::from(&e).is_transport());
        assert!(ErrorCode::Overloaded.is_transport());
        assert!(ErrorCode::NoPath.to_string().contains("no-path"));
    }

    #[test]
    fn every_model_error_crosses_the_wire_as_itself() {
        let carried = [
            ModelError::UnroutableAddress("10.0.0.1".into()),
            ModelError::Decode("bad magic".into()),
            ModelError::PatchMismatch("delta is 0→1 but base is day 1".into()),
            ModelError::NoPath("no route 3 → 4".into()),
            ModelError::Config("zero shards".into()),
            ModelError::UnknownShard(7),
            ModelError::UnknownShard(u16::MAX),
            ModelError::VersionRaced("no body tagged 0x2a".into()),
            ModelError::ChunkOutOfRange("chunk 9 of 4".into()),
            // A message that itself starts like a prefix keeps it.
            ModelError::Decode("decode error: nested".into()),
            ModelError::NoPath(String::new()),
        ];
        for e in carried {
            let back = ModelError::from_wire(ErrorCode::from(&e), &e.to_string());
            assert_eq!(back.as_ref(), Some(&e), "{e}");
        }
        // The kind is a `&'static str` no decoder can rebuild.
        let entity = ModelError::UnknownEntity {
            kind: "prefix",
            id: 9,
        };
        let code = ErrorCode::from(&entity);
        assert_eq!(ModelError::from_wire(code, &entity.to_string()), None);
        // A shard id that does not parse is not a shard.
        assert_eq!(
            ModelError::from_wire(ErrorCode::UnknownShard, "unknown shard x"),
            None
        );
        for code in ErrorCode::ALL.into_iter().filter(|c| c.is_transport()) {
            assert_eq!(ModelError::from_wire(code, "anything"), None, "{code}");
        }
    }
}
