use crate::snapshot::SNAPSHOT_VERSION;
use pecan_tensor::ShapeError;
use std::fmt;
use std::io;

/// Serving-path error: everything that can go wrong between a request
/// arriving and a prediction leaving.
///
/// The type is `Clone` so one failed batch can report the same error to
/// every request it contained, and each variant maps onto a specific HTTP
/// status in the front end (`400` for [`ServeError::BadInput`], `404` for
/// [`ServeError::UnknownModel`], `503` for [`ServeError::Overloaded`] /
/// [`ServeError::ShuttingDown`], `500` for the rest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request payload does not fit the engine (wrong input length,
    /// unparsable body).
    BadInput(String),
    /// The submission queue is full — backpressure. Retry later.
    Overloaded {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The scheduler is draining and accepts no new work.
    ShuttingDown,
    /// The inference engine itself failed (internal — engines validate
    /// their stages at compile time, so this indicates a bug).
    Engine(String),
    /// A model contains a layer the frozen engine cannot compile
    /// (standard/uncompressed layers, BatchNorm, custom blocks).
    Unsupported(String),
    /// The request named a model the registry does not serve — the typed
    /// 404 of the multi-model HTTP front end.
    UnknownModel(String),
    /// The worker serving this request disappeared before answering.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadInput(msg) => write!(f, "bad input: {msg}"),
            ServeError::Overloaded { capacity } => {
                write!(f, "overloaded: submission queue at capacity {capacity}")
            }
            ServeError::ShuttingDown => write!(f, "scheduler is shutting down"),
            ServeError::Engine(msg) => write!(f, "engine failure: {msg}"),
            ServeError::Unsupported(msg) => write!(f, "unsupported model: {msg}"),
            ServeError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            ServeError::Disconnected => write!(f, "serving worker disconnected"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ShapeError> for ServeError {
    fn from(e: ShapeError) -> Self {
        ServeError::Engine(e.to_string())
    }
}

/// Error decoding or encoding a model snapshot.
///
/// Every corruption mode is a typed, non-panicking variant: the loader is
/// exercised against truncated files, flipped bytes, bad magic and other
/// versions in `tests/snapshot_roundtrip.rs`.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The snapshot declares a format revision other than the one this
    /// build reads ([`SNAPSHOT_VERSION`]).
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// The payload does not hash to the stored checksum — bit rot or a
    /// partial write.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// The file ends before the structure it declares (also covers files
    /// too short to hold the header/checksum at all).
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// Structurally invalid contents despite a valid checksum (impossible
    /// tags, inconsistent shapes, trailing bytes).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::BadMagic => write!(f, "not a PECAN snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} \
                 (this build reads version {SNAPSHOT_VERSION} only)"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} more bytes, {available} available"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeError::Overloaded { capacity: 4 }.to_string().contains("capacity 4"));
        assert!(ServeError::UnknownModel("m2".into()).to_string().contains("`m2`"));
        assert!(ServeError::from(ShapeError::new("boom")).to_string().contains("boom"));
        let e = SnapshotError::ChecksumMismatch { stored: 1, computed: 2 };
        assert!(e.to_string().contains("checksum"));
        assert!(SnapshotError::Truncated { needed: 8, available: 3 }
            .to_string()
            .contains("truncated"));
    }
}
