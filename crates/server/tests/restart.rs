//! Kill-mid-campaign resilience: SIGKILL the `mppmd` binary while a
//! campaign is executing, restart it on the same store, and prove the
//! journal resumes the interrupted work instead of recomputing it —
//! with the final payload byte-identical to an uninterrupted run.

use mppm_wire::{Frame, FrameReader};
use serde::Value;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

fn spawn_daemon(socket: &Path, store: &Path) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_mppmd"))
        .args(["--socket", &socket.to_string_lossy(), "--store", &store.to_string_lossy()])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("mppmd binary spawns");
    // mppm-lint: allow(wallclock-in-sim): daemon-startup deadline, not simulated time
    let deadline = Instant::now() + Duration::from_secs(20);
    while UnixStream::connect(socket).is_err() {
        // mppm-lint: allow(wallclock-in-sim): daemon-startup deadline, not simulated time
        assert!(Instant::now() < deadline, "mppmd never bound {}", socket.display());
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

const CAMPAIGN: &str = "{\"v\":1,\"id\":1,\"kind\":\"campaign\",\"quick\":true,\"cores\":2,\
                        \"configs\":\"1,2\",\"sample\":24,\"seed\":5,\"shard_size\":2,\
                        \"trials\":20,\"subscribe\":true}";

fn parse(line: &str) -> Value {
    serde_json::from_str(line).expect("frames are JSON")
}

fn is_event(frame: &Value, name: &str) -> bool {
    frame.get("kind").and_then(Value::as_str) == Some("event")
        && frame
            .get("event")
            .and_then(|e| e.get("name"))
            .and_then(Value::as_str)
            == Some(name)
}

#[test]
fn killed_campaign_resumes_from_the_journal_after_restart() {
    let tag = format!("mppmd-restart-{}", std::process::id());
    let socket = std::env::temp_dir().join(format!("{tag}.sock"));
    let store = std::env::temp_dir().join(format!("{tag}-store"));
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&socket);

    // Phase 1: start a campaign, wait for the first checkpoint (at
    // least one shard journaled), then SIGKILL the daemon.
    let mut child = spawn_daemon(&socket, &store);
    {
        let conn = UnixStream::connect(&socket).expect("connects");
        let mut writer = conn.try_clone().unwrap();
        let mut reader = FrameReader::new(conn);
        writer.write_all(CAMPAIGN.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        loop {
            match reader.next_frame().expect("frames until the kill") {
                Frame::Line(line) => {
                    let frame = parse(&line);
                    if is_event(&frame, "checkpoint") {
                        break; // a shard is durably journaled
                    }
                    if frame.get("ok").is_some() {
                        // The campaign finished before we could kill it;
                        // the resume assertion below still holds (all
                        // shards resume).
                        break;
                    }
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    child.kill().expect("SIGKILL lands");
    let _ = child.wait();

    // Phase 2: restart on the same store; the same campaign must resume
    // journaled shards rather than recompute them.
    let mut child = spawn_daemon(&socket, &store);
    let resumed_payload;
    {
        let conn = UnixStream::connect(&socket).expect("reconnects");
        let mut writer = conn.try_clone().unwrap();
        let mut reader = FrameReader::new(conn);
        writer.write_all(CAMPAIGN.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let response = loop {
            match reader.next_frame().expect("frames after restart") {
                Frame::Line(line) => {
                    let frame = parse(&line);
                    if frame.get("ok").is_some() {
                        break frame;
                    }
                }
                other => panic!("unexpected frame {other:?}"),
            }
        };
        assert_eq!(
            frame_bool(&response, "ok"),
            Some(true),
            "campaign succeeds after restart: {response:?}"
        );
        let meta = response.get("meta").expect("campaign meta");
        let total = meta.get("total_shards").and_then(Value::as_u64).unwrap();
        let resumed = meta.get("resumed_shards").and_then(Value::as_u64).unwrap();
        let computed = meta.get("computed_shards").and_then(Value::as_u64).unwrap();
        assert!(resumed >= 1, "the killed run left journaled shards to resume");
        assert_eq!(resumed + computed, total, "every shard accounted for");
        resumed_payload =
            serde_json::to_string(response.get("result").expect("result")).unwrap();
    }

    // Phase 3: the resumed result is byte-identical to an uninterrupted
    // run on a fresh store.
    let control_store = std::env::temp_dir().join(format!("{tag}-control-store"));
    let control_socket = std::env::temp_dir().join(format!("{tag}-control.sock"));
    let _ = std::fs::remove_dir_all(&control_store);
    let _ = std::fs::remove_file(&control_socket);
    let mut control = spawn_daemon(&control_socket, &control_store);
    {
        let conn = UnixStream::connect(&control_socket).expect("connects");
        let mut writer = conn.try_clone().unwrap();
        let mut reader = FrameReader::new(conn);
        // Same campaign, no subscription: just the response.
        let request = CAMPAIGN.replace("\"subscribe\":true", "\"subscribe\":false");
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let response = loop {
            match reader.next_frame().expect("control frames") {
                Frame::Line(line) => {
                    let frame = parse(&line);
                    if frame.get("ok").is_some() {
                        break frame;
                    }
                }
                other => panic!("unexpected frame {other:?}"),
            }
        };
        let control_payload =
            serde_json::to_string(response.get("result").expect("result")).unwrap();
        assert_eq!(
            resumed_payload, control_payload,
            "kill + resume is byte-identical to a one-shot run"
        );
    }

    child.kill().ok();
    let _ = child.wait();
    control.kill().ok();
    let _ = control.wait();
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&control_store);
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&control_socket);
}

fn frame_bool(frame: &Value, name: &str) -> Option<bool> {
    match frame.get(name) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}
