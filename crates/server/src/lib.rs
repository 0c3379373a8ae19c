//! `mppm-server` — the `mppmd` daemon: campaign-as-a-service.
//!
//! The MPPM pitch is that model evaluation is cheap; what stays
//! expensive in a one-shot CLI is everything around it — process
//! startup, profile loads, trace compilation, sim-cache parses. This
//! crate keeps all of that warm in a long-lived process:
//!
//! * one [`mppm_experiments::Store`] shared by every request (profile
//!   memo, sim-result cache, compiled-trace cache),
//! * a response cache keyed by the canonical request
//!   ([`protocol::MixRequest::cache_key`]) so repeats are answered from
//!   memory,
//! * in-flight dedup for predict/simulate and wave-batching for
//!   campaigns (concurrent identical submissions run once),
//! * newline-delimited JSON over a Unix domain socket ([`protocol`],
//!   framed by [`mppm_wire::FrameReader`]), with optional per-request
//!   event streaming.
//!
//! Determinism contract: the `result` member of a response is
//! byte-identical for identical resolved requests — across cache
//! temperatures, worker counts (`MPPM_THREADS`), and daemon restarts —
//! and matches what the one-shot CLI computes from the same store.
//! Wall-clock telemetry rides in the separate `meta` member.

pub mod client;
pub mod daemon;
mod handlers;
pub mod protocol;
mod state;

pub use client::{Client, Response};
pub use daemon::{serve, ServerConfig, DAEMON_FLAGS, DEFAULT_RESPONSE_CACHE_CAP};
pub use state::{ConnWriter, ServerState};

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong starting, running, or talking to the
/// daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The socket is owned by a live daemon.
    AlreadyRunning(PathBuf),
    /// Transport or filesystem failure.
    Io(String),
    /// The peer violated the wire protocol.
    Protocol(String),
    /// The daemon speaks a different wire protocol version (its frames
    /// carry the wrong — or no — `v` field).
    WireVersion(mppm_wire::ProtocolMismatch),
    /// The daemon answered with a typed error frame.
    Remote {
        /// One of [`protocol::codes`].
        code: String,
        /// The daemon's explanation.
        message: String,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::AlreadyRunning(path) => {
                write!(f, "a daemon is already listening on {}", path.display())
            }
            ServerError::Io(msg) => write!(f, "server I/O error: {msg}"),
            ServerError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServerError::WireVersion(mismatch) => write!(f, "{mismatch}"),
            ServerError::Remote { code, message } => write!(f, "daemon error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Default socket path: `$TMPDIR/mppmd.sock` (Unix socket paths have a
/// ~100-byte limit, so the store directory is a poor home for it).
pub fn default_socket_path() -> PathBuf {
    std::env::temp_dir().join("mppmd.sock")
}
