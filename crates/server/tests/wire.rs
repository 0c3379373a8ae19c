//! Wire-level protocol tests against an in-process daemon: framing
//! robustness (partial writes, oversized lines), and typed answers for
//! malformed or unknown requests — a bad frame never silently drops the
//! connection.

use mppm_server::protocol::MAX_LINE;
use mppm_server::{serve, ServerConfig};
use mppm_wire::{Frame, FrameReader};
use serde::Value;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct Daemon {
    socket: PathBuf,
    store: PathBuf,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start() -> Self {
        let tag =
            format!("mppmd-wire-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed));
        let socket = std::env::temp_dir().join(format!("{tag}.sock"));
        let store = std::env::temp_dir().join(format!("{tag}-store"));
        let config = ServerConfig {
            store_root: Some(store.clone()),
            ..ServerConfig::new(socket.clone())
        };
        let thread = std::thread::spawn(move || {
            serve(&config).expect("daemon starts");
        });
        let daemon = Self { socket, store, thread: Some(thread) };
        daemon.await_socket();
        daemon
    }

    fn await_socket(&self) {
        // mppm-lint: allow(wallclock-in-sim): daemon-startup deadline, not simulated time
        let deadline = Instant::now() + Duration::from_secs(10);
        // mppm-lint: allow(wallclock-in-sim): daemon-startup deadline, not simulated time
        while Instant::now() < deadline {
            if UnixStream::connect(&self.socket).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon never bound {}", self.socket.display());
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.socket).expect("daemon accepts connections")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut conn) = UnixStream::connect(&self.socket) {
            let _ = conn.write_all(b"{\"v\":1,\"kind\":\"shutdown\",\"id\":999}\n");
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.store);
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn read_line(reader: &mut FrameReader<UnixStream>) -> Value {
    match reader.next_frame().expect("frame arrives") {
        Frame::Line(line) => serde_json::from_str(&line).expect("frames are JSON"),
        other => panic!("expected a line frame, got {other:?}"),
    }
}

fn error_code(frame: &Value) -> String {
    frame
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

#[test]
fn malformed_json_and_unknown_kinds_are_answered_not_dropped() {
    let daemon = Daemon::start();
    let conn = daemon.connect();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = FrameReader::new(conn);

    writer.write_all(b"this is not json\n").unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(error_code(&frame), "parse");

    writer.write_all(b"{\"v\":1,\"kind\":\"frobnicate\",\"id\":7}\n").unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(error_code(&frame), "bad-request");
    assert_eq!(frame.get("id").and_then(Value::as_u64), Some(7));

    // The connection survived both: a ping still round-trips.
    writer.write_all(b"{\"v\":1,\"kind\":\"ping\",\"id\":8}\n").unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(frame.get("id").and_then(Value::as_u64), Some(8));
    assert_eq!(frame.get("kind").and_then(Value::as_str), Some("ping"));
}

#[test]
fn oversized_lines_get_a_typed_error_frame() {
    let daemon = Daemon::start();
    let conn = daemon.connect();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = FrameReader::new(conn);

    let mut line = vec![b'x'; MAX_LINE + 64];
    line.push(b'\n');
    writer.write_all(&line).unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(error_code(&frame), "oversized");

    writer.write_all(b"{\"v\":1,\"kind\":\"ping\",\"id\":3}\n").unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(frame.get("id").and_then(Value::as_u64), Some(3), "connection still usable");
}

#[test]
fn requests_split_across_arbitrary_writes_are_reassembled() {
    let daemon = Daemon::start();
    let conn = daemon.connect();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = FrameReader::new(conn);

    let request = b"{\"v\":1,\"kind\":\"ping\",\"id\":11}\n{\"v\":1,\"kind\":\"stats\",\"id\":12}\n";
    for chunk in request.chunks(3) {
        writer.write_all(chunk).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let first = read_line(&mut reader);
    assert_eq!(first.get("id").and_then(Value::as_u64), Some(11));
    let second = read_line(&mut reader);
    assert_eq!(second.get("id").and_then(Value::as_u64), Some(12));
    assert_eq!(second.get("kind").and_then(Value::as_str), Some("stats"));
}

#[test]
fn missing_or_wrong_protocol_version_is_refused_with_a_typed_error() {
    let daemon = Daemon::start();
    let conn = daemon.connect();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = FrameReader::new(conn);

    // Pre-versioning frame (no `v` at all): typed refusal, not a parse
    // error, and every response frame itself announces `v:1`.
    writer.write_all(b"{\"kind\":\"ping\",\"id\":21}\n").unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(error_code(&frame), "protocol-mismatch");
    assert_eq!(frame.get("id").and_then(Value::as_u64), Some(21));
    assert_eq!(frame.get("v").and_then(Value::as_u64), Some(1));

    // Future version: same refusal.
    writer.write_all(b"{\"v\":9,\"kind\":\"ping\",\"id\":22}\n").unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(error_code(&frame), "protocol-mismatch");

    // The connection survives; a correctly-versioned ping round-trips.
    writer.write_all(b"{\"v\":1,\"kind\":\"ping\",\"id\":23}\n").unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(frame.get("id").and_then(Value::as_u64), Some(23));
    assert_eq!(frame.get("kind").and_then(Value::as_str), Some("ping"));
}

#[test]
fn empty_lines_are_ignored() {
    let daemon = Daemon::start();
    let conn = daemon.connect();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = FrameReader::new(conn);
    writer.write_all(b"\n\n{\"v\":1,\"kind\":\"ping\",\"id\":2}\n").unwrap();
    let frame = read_line(&mut reader);
    assert_eq!(frame.get("id").and_then(Value::as_u64), Some(2));
}
