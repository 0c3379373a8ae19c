//! Load-generator harness for the `mppmd` campaign/predict server.
//!
//! Drives a running daemon over its Unix-domain-socket NDJSON protocol
//! with `N >= 4` concurrent clients and measures request latency (median
//! and the highest tail percentile the sample count supports) and
//! throughput in three phases:
//!
//! 1. **cold-closed** — every client issues a disjoint set of predict
//!    requests closed-loop (one outstanding request per connection)
//!    against a daemon whose caches are empty: each request pays
//!    profile loads and a model solve.
//! 2. **warm-closed** — the same requests again on fresh connections:
//!    every response comes out of the daemon's warm response cache.
//! 3. **warm-open** — the same requests open-loop: each client writes
//!    its whole batch back-to-back and then drains the responses, so
//!    arrival times are independent of completions and the measured
//!    latency includes server-side queueing.
//!
//! The harness deliberately does *not* link against `mppm-server` (the
//! server depends on this crate); it speaks the wire protocol directly,
//! which doubles as an independent check that the protocol is what
//! DESIGN.md §13 says it is. [`run_load`] returns the `server` suite's
//! records, which the `loadgen` binary publishes to `BENCH_server.json`
//! and `results/speed_server.csv`.

use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::table::BenchRecord;

/// Load-run shape: how many clients, how much work each.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenOptions {
    /// Concurrent client connections (the acceptance floor is 4).
    pub clients: usize,
    /// Predict requests per client per phase.
    pub requests_per_client: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self { clients: 4, requests_per_client: 16 }
    }
}

/// A minimal NDJSON client for the `mppmd` wire protocol.
///
/// Requests never subscribe, so every received line is a response frame
/// and closed-loop send/recv pairing needs no id matching.
struct LoadClient {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl LoadClient {
    fn connect(socket: &Path) -> std::io::Result<Self> {
        let stream = UnixStream::connect(socket)?;
        let writer = stream.try_clone()?;
        Ok(Self { writer, reader: BufReader::new(stream) })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Reads the next non-empty line (one response frame).
    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-phase",
                ));
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok(trimmed.to_string());
            }
        }
    }
}

/// Whether a response frame reports `ok:true`, and whether it was served
/// from the daemon's response cache.
fn parse_response(line: &str) -> (bool, bool) {
    let frame: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(_) => return (false, false),
    };
    let flag = |name: &str| matches!(frame.get(name), Some(Value::Bool(true)));
    (flag("ok"), flag("cached"))
}

/// Deterministic pool of distinct predict request bodies: every
/// unordered benchmark pair from the trace suite crossed with the first
/// three machine configs, at the CLI quick geometry. Clients draw
/// disjoint (wrapping) slices of this pool, so a cold phase with
/// `clients * requests_per_client <= pool` repeats nothing.
pub fn request_pool() -> Vec<String> {
    let names = mppm_trace::suite::names();
    let mut pool = Vec::new();
    for config in 1..=3u64 {
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                pool.push(format!(
                    "\"kind\":\"predict\",\"mix\":\"{},{}\",\"config\":{config},\"quick\":true",
                    names[i], names[j]
                ));
            }
        }
    }
    pool
}

/// The request lines for one client: `requests` entries drawn from the
/// pool starting at `client * requests`, wrapping if the pool runs out.
fn client_lines(pool: &[String], client: usize, requests: usize) -> Vec<String> {
    (0..requests)
        .map(|k| {
            let body = &pool[(client * requests + k) % pool.len()];
            format!(
                "{{\"v\":{},\"id\":{},{body}}}",
                mppm_wire::PROTOCOL_VERSION,
                k + 1
            )
        })
        .collect()
}

/// Latency percentile over a sorted (ascending) sample, nearest-rank.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// The highest tail of a sorted sample with at least ten samples beyond
/// it — p99.9, p99, p95 or p90, else the maximum — as its label and
/// value. The rule is perfbench's `tail_percentile`: a "p99" of 64
/// samples would be the maximum in disguise.
fn tail(sorted_ms: &[f64]) -> (String, f64) {
    let n = sorted_ms.len() as f64;
    // The tolerance absorbs rounding in `100 - p` (100 - 99.9 is not 0.1).
    match [99.9, 99.0, 95.0, 90.0].into_iter().find(|&p| n * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
        Some(p) => (format!("p{p}"), percentile(sorted_ms, p)),
        None => ("max".to_string(), sorted_ms.last().copied().unwrap_or(0.0)),
    }
}

/// One phase's records (variant = the phase): `latency` (median and
/// interval over every request, ms), the latency tail (`latency p90`,
/// `latency max`, ...; see [`tail`]), `throughput` over the phase wall
/// time (req/s) and `cached`, the responses the daemon served from its
/// response cache.
fn summarize(
    phase: &str,
    seconds: f64,
    mut latencies_ms: Vec<f64>,
    cached: usize,
) -> Vec<BenchRecord> {
    latencies_ms.sort_by(f64::total_cmp);
    let requests = latencies_ms.len();
    let (tail_label, tail_ms) = tail(&latencies_ms);
    let tail_param = format!("latency {tail_label}");
    let throughput = if seconds > 0.0 { requests as f64 / seconds } else { 0.0 };
    vec![
        BenchRecord::of_samples("server", phase, "latency", "ms", &latencies_ms),
        BenchRecord::of_value("server", phase, &tail_param, "ms", requests, tail_ms),
        BenchRecord::of_value("server", phase, "throughput", "req/s", 1, throughput),
        BenchRecord::of_value("server", phase, "cached", "responses", requests, cached as f64),
    ]
}

/// Per-client measurement: latencies in milliseconds plus the number of
/// responses the daemon reported as cache-served.
type ClientSample = (Vec<f64>, usize);

/// Runs one phase: `clients` threads connect, rendezvous on a barrier,
/// and each executes `drive` over its request lines.
fn run_phase<F>(
    socket: &Path,
    per_client: &[Vec<String>],
    phase: &str,
    drive: F,
) -> std::io::Result<Vec<BenchRecord>>
where
    F: Fn(&mut LoadClient, &[String]) -> std::io::Result<ClientSample> + Sync,
{
    let clients = per_client.len();
    let barrier = Barrier::new(clients + 1);
    let samples: Mutex<Vec<ClientSample>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let started = std::thread::scope(|scope| {
        for lines in per_client {
            scope.spawn(|| {
                let mut client = match LoadClient::connect(socket) {
                    Ok(c) => c,
                    Err(e) => {
                        barrier.wait();
                        failures.lock().expect("loadgen mutex").push(e.to_string());
                        return;
                    }
                };
                barrier.wait();
                match drive(&mut client, lines) {
                    Ok(sample) => samples.lock().expect("loadgen mutex").push(sample),
                    Err(e) => failures.lock().expect("loadgen mutex").push(e.to_string()),
                }
            });
        }
        barrier.wait();
        Instant::now()
        // Scope exit joins every client thread.
    });
    let seconds = started.elapsed().as_secs_f64();
    let failures = failures.into_inner().expect("loadgen mutex");
    if let Some(first) = failures.first() {
        return Err(std::io::Error::other(format!(
            "{phase}: {} of {clients} clients failed; first error: {first}",
            failures.len()
        )));
    }
    let mut latencies = Vec::new();
    let mut cached = 0usize;
    for (lats, hit) in samples.into_inner().expect("loadgen mutex") {
        latencies.extend(lats);
        cached += hit;
    }
    Ok(summarize(phase, seconds, latencies, cached))
}

/// Closed loop: one outstanding request per connection.
fn drive_closed(client: &mut LoadClient, lines: &[String]) -> std::io::Result<ClientSample> {
    let mut lats = Vec::with_capacity(lines.len());
    let mut cached = 0usize;
    for line in lines {
        let t0 = Instant::now();
        client.send(line)?;
        let response = client.recv()?;
        lats.push(t0.elapsed().as_secs_f64() * 1e3);
        let (ok, hit) = parse_response(&response);
        if !ok {
            return Err(std::io::Error::other(format!("error frame: {response}")));
        }
        cached += usize::from(hit);
    }
    Ok((lats, cached))
}

/// Open loop: the whole batch is written up front, then responses are
/// drained in order (the daemon answers a connection's requests in
/// arrival order), so latency includes server-side queueing.
fn drive_open(client: &mut LoadClient, lines: &[String]) -> std::io::Result<ClientSample> {
    let clock = Instant::now();
    let mut sent = Vec::with_capacity(lines.len());
    for line in lines {
        client.send(line)?;
        sent.push(clock.elapsed().as_secs_f64());
    }
    let mut lats = Vec::with_capacity(lines.len());
    let mut cached = 0usize;
    for &t_sent in &sent {
        let response = client.recv()?;
        lats.push((clock.elapsed().as_secs_f64() - t_sent) * 1e3);
        let (ok, hit) = parse_response(&response);
        if !ok {
            return Err(std::io::Error::other(format!("error frame: {response}")));
        }
        cached += usize::from(hit);
    }
    Ok((lats, cached))
}

/// Runs the full three-phase load measurement against a daemon
/// listening on `socket` and returns the `server` suite's records,
/// phase by phase ([`summarize`]).
///
/// Cold numbers are only meaningful if the daemon's store and response
/// cache start empty — the `loadgen` binary spawns a fresh daemon on a
/// fresh store to guarantee that.
///
/// # Errors
///
/// Connection failures, daemon error frames, or a mid-phase disconnect.
pub fn run_load(socket: &Path, opts: &LoadgenOptions) -> std::io::Result<Vec<BenchRecord>> {
    let pool = request_pool();
    let per_client: Vec<Vec<String>> = (0..opts.clients)
        .map(|c| client_lines(&pool, c, opts.requests_per_client))
        .collect();
    let mut records = run_phase(socket, &per_client, "cold-closed", drive_closed)?;
    records.extend(run_phase(socket, &per_client, "warm-closed", drive_closed)?);
    records.extend(run_phase(socket, &per_client, "warm-open", drive_open)?);
    Ok(records)
}

/// Polls `socket` until a connection succeeds or `timeout` elapses.
pub fn await_socket(socket: &Path, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if UnixStream::connect(socket).is_ok() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Asks the daemon on `socket` to shut down gracefully.
///
/// # Errors
///
/// Connection or write failures; an unexpected response frame.
pub fn request_shutdown(socket: &Path) -> std::io::Result<()> {
    let mut client = LoadClient::connect(socket)?;
    client.send(&format!(
        "{{\"v\":{},\"id\":1,\"kind\":\"shutdown\"}}",
        mppm_wire::PROTOCOL_VERSION
    ))?;
    let response = client.recv()?;
    let (ok, _) = parse_response(&response);
    if !ok {
        return Err(std::io::Error::other(format!("shutdown refused: {response}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{find_record, publish};
    use crate::Scale;

    #[test]
    fn pool_is_distinct_and_deterministic() {
        let pool = request_pool();
        let mut seen = std::collections::BTreeSet::new();
        for body in &pool {
            assert!(seen.insert(body.clone()), "duplicate request body {body}");
        }
        assert_eq!(pool, request_pool(), "pool must be deterministic");
        assert!(pool.len() >= 64, "pool too small for a 4x16 cold phase: {}", pool.len());
    }

    #[test]
    fn client_lines_are_disjoint_within_the_pool() {
        let pool = request_pool();
        let a = client_lines(&pool, 0, 16);
        let b = client_lines(&pool, 1, 16);
        for line in &a {
            assert!(!b.contains(line), "clients 0 and 1 share {line}");
        }
        assert!(
            a[0].starts_with("{\"v\":1,\"id\":1,"),
            "frames are versioned and ids are 1-based per connection: {}",
            a[0]
        );
    }

    #[test]
    fn percentiles_are_nearest_rank_on_sorted_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 51.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // The tail needs ten samples beyond it: a `--quick` phase (16)
        // and a full phase (64) can only report their maximum.
        let ramp = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(16)), ("max".to_string(), 16.0));
        assert_eq!(tail(&ramp(64)), ("max".to_string(), 64.0));
        assert_eq!(tail(&sorted), ("p90".to_string(), 90.0));
        assert_eq!(tail(&ramp(1000)), ("p99".to_string(), 990.0));
    }

    #[test]
    fn summaries_serialize_and_tabulate() {
        let records = summarize("warm-closed", 2.0, vec![3.0, 1.0, 2.0, 4.0], 4);
        assert!(records.iter().all(|r| r.variant == "warm-closed"));
        let latency = find_record(&records, "warm-closed", "latency");
        assert_eq!((latency.n, latency.median), (4, 2.5));
        assert!(latency.ci_lo < 2.5 && latency.ci_hi > 2.5);
        assert_eq!(find_record(&records, "warm-closed", "latency max").median, 4.0);
        assert_eq!(find_record(&records, "warm-closed", "throughput").median, 2.0);
        assert_eq!(find_record(&records, "warm-closed", "cached").median, 4.0);
        publish(Scale::Quick, "server", "summaries", &records).expect("published");
    }

    #[test]
    fn load_run_against_an_in_process_daemon() {
        let tag = format!("mppm-loadgen-{}", std::process::id());
        let socket = std::env::temp_dir().join(format!("{tag}.sock"));
        let store = std::env::temp_dir().join(format!("{tag}-store"));
        let _ = std::fs::remove_dir_all(&store);
        let _ = std::fs::remove_file(&socket);
        let config = mppm_server::ServerConfig {
            store_root: Some(store.clone()),
            ..mppm_server::ServerConfig::new(socket.clone())
        };
        let daemon = std::thread::spawn(move || {
            mppm_server::serve(&config).expect("daemon starts");
        });
        assert!(await_socket(&socket, Duration::from_secs(10)), "daemon never bound");

        let opts = LoadgenOptions { clients: 4, requests_per_client: 2 };
        let records = run_load(&socket, &opts).expect("load run succeeds");
        assert_eq!(records.len(), 12);
        let cold = find_record(&records, "cold-closed", "cached");
        assert_eq!(cold.n, 8);
        assert_eq!(cold.median, 0.0, "fresh daemon must have no cache hits");
        for phase in ["warm-closed", "warm-open"] {
            let warm = find_record(&records, phase, "cached");
            assert_eq!(warm.median, warm.n as f64, "repeats must all be cache hits");
        }
        for phase in ["cold-closed", "warm-closed", "warm-open"] {
            let p50 = find_record(&records, phase, "latency").median;
            let max = find_record(&records, phase, "latency max").median;
            assert!(p50 > 0.0 && max >= p50, "{phase}: p50 {p50}, max {max}");
            assert!(find_record(&records, phase, "throughput").median > 0.0);
        }

        request_shutdown(&socket).expect("graceful shutdown");
        daemon.join().expect("daemon thread exits cleanly");
        let _ = std::fs::remove_dir_all(&store);
    }
}
