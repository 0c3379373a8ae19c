//! Blocking client for the `mppmd` wire protocol.
//!
//! Used by `mppm-cli client`, the load generator, and the integration
//! tests. One [`Client`] owns one connection; requests are sent one at
//! a time and event frames for the pending request are collected onto
//! its [`Response`].

use mppm_wire::{Frame, FrameReader};
use serde::Value;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::protocol::{Request, PROTOCOL_VERSION};
use crate::ServerError;

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// One decoded response frame (with any event frames that preceded it).
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// Request verb the daemon answered with.
    pub kind: String,
    /// True when served from the warm response cache.
    pub cached: bool,
    /// The deterministic payload.
    pub result: Value,
    /// Telemetry outside the determinism contract (wall-clock etc.).
    pub meta: Option<Value>,
    /// Event frames streamed before the response (`subscribe:true`).
    pub events: Vec<Value>,
    /// The raw response line, for byte-level comparisons.
    pub raw: String,
}

impl Response {
    /// The raw JSON of the `result` member alone — the byte-identity
    /// unit the determinism tests compare.
    pub fn result_json(&self) -> String {
        serde_json::to_string(&self.result).expect("values serialize")
    }
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    reader: FrameReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon's socket.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the socket does not accept connections.
    pub fn connect(socket: &Path) -> Result<Self, ServerError> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| ServerError::Io(format!("connecting to {}: {e}", socket.display())))?;
        let writer = stream
            .try_clone()
            .map_err(|e| ServerError::Io(format!("cloning connection: {e}")))?;
        Ok(Self { reader: FrameReader::new(stream), writer, next_id: 0 })
    }

    /// Sends `req` (assigning an id if the caller left it 0) and blocks
    /// for its response, collecting any event frames on the way.
    ///
    /// # Errors
    ///
    /// [`ServerError::Remote`] for daemon-reported errors,
    /// [`ServerError::Io`]/[`ServerError::Protocol`] for transport
    /// failures.
    pub fn request(&mut self, req: &mut Request) -> Result<Response, ServerError> {
        req.v = PROTOCOL_VERSION;
        if req.id == 0 {
            self.next_id += 1;
            req.id = self.next_id;
        } else {
            self.next_id = self.next_id.max(req.id);
        }
        let line = serde_json::to_string(req).map_err(|e| ServerError::Protocol(e.to_string()))?;
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| ServerError::Io(format!("sending request: {e}")))?;
        self.read_response(req.id)
    }

    /// Blocks for the response to request `id` (used after a raw send).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn read_response(&mut self, id: u64) -> Result<Response, ServerError> {
        let mut events = Vec::new();
        loop {
            let frame = self
                .reader
                .next_frame()
                .map_err(|e| ServerError::Io(format!("reading response: {e}")))?;
            let line = match frame {
                Frame::Line(l) => l,
                Frame::Oversized { discarded } => {
                    return Err(ServerError::Protocol(format!(
                        "daemon sent an oversized frame ({discarded} bytes)"
                    )))
                }
                Frame::Eof => {
                    return Err(ServerError::Protocol(
                        "connection closed before the response arrived".to_string(),
                    ))
                }
            };
            let value: Value = serde_json::from_str(&line)
                .map_err(|e| ServerError::Protocol(format!("undecodable frame: {e}")))?;
            mppm_wire::check_version(value.get("v").and_then(Value::as_u64))
                .map_err(ServerError::WireVersion)?;
            let frame_id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
            if value.get("kind").and_then(Value::as_str) == Some("event") {
                if frame_id == id {
                    if let Some(event) = value.get("event") {
                        events.push(event.clone());
                    }
                }
                continue;
            }
            // Error frames for undecodable requests carry id 0; accept
            // them too so a confused exchange surfaces instead of
            // hanging.
            if frame_id != id && frame_id != 0 {
                continue;
            }
            match value.get("ok").and_then(as_bool) {
                Some(true) => {
                    let kind = value
                        .get("kind")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string();
                    let cached =
                        value.get("cached").and_then(as_bool).unwrap_or(false);
                    let result = value.get("result").cloned().unwrap_or(Value::Null);
                    let meta = value.get("meta").cloned();
                    return Ok(Response { id: frame_id, kind, cached, result, meta, events, raw: line });
                }
                Some(false) => {
                    let (code, message) = match value.get("error") {
                        Some(err) => (
                            err.get("code").and_then(Value::as_str).unwrap_or("?").to_string(),
                            err.get("message")
                                .and_then(Value::as_str)
                                .unwrap_or_default()
                                .to_string(),
                        ),
                        None => ("?".to_string(), line.clone()),
                    };
                    if code == crate::protocol::codes::PROTOCOL {
                        return Err(ServerError::Protocol(message));
                    }
                    return Err(ServerError::Remote { code, message });
                }
                None => {
                    return Err(ServerError::Protocol(format!("frame without ok member: {line}")))
                }
            }
        }
    }
}
