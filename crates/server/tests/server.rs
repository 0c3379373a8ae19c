//! End-to-end daemon tests: golden pinning against the one-shot code
//! path, warm-cache behavior (response cache + store counters across a
//! restart), campaign batching/dedup, thread-count invariance, event
//! subscription, and graceful shutdown.

use mppm_server::protocol::Request;
use mppm_server::{serve, Client, Response, ServerConfig, ServerError};
use serde::Value;
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
        let tag = format!(
            "mppmd-server-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let store = std::env::temp_dir().join(format!("{tag}-store"));
        Self::start_on(std::env::temp_dir().join(format!("{tag}.sock")), store)
    }

    fn start_on(socket: PathBuf, store: PathBuf) -> Self {
        Self::start_configured(socket, store, |_| {})
    }

    fn start_configured(
        socket: PathBuf,
        store: PathBuf,
        tweak: impl FnOnce(&mut ServerConfig),
    ) -> Self {
        let mut config = ServerConfig {
            store_root: Some(store.clone()),
            ..ServerConfig::new(socket.clone())
        };
        tweak(&mut config);
        let thread = std::thread::spawn(move || {
            serve(&config).expect("daemon starts");
        });
        let daemon = Self { socket, store, thread: Some(thread) };
        // mppm-lint: allow(wallclock-in-sim): daemon-startup deadline, not simulated time
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&daemon.socket).is_err() {
            // mppm-lint: allow(wallclock-in-sim): daemon-startup deadline, not simulated time
            assert!(Instant::now() < deadline, "daemon never bound");
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("daemon accepts connections")
    }

    /// Graceful stop; waits for the serve loop to return.
    fn stop(mut self) -> PathBuf {
        let mut client = self.client();
        let resp = client.request(&mut req("shutdown")).expect("shutdown acknowledged");
        assert_eq!(resp.kind, "shutdown");
        self.thread.take().unwrap().join().expect("serve loop exits cleanly");
        assert!(!self.socket.exists(), "socket file removed on shutdown");
        std::mem::take(&mut self.store)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            if let Ok(mut c) = Client::connect(&self.socket) {
                let _ = c.request(&mut req("shutdown"));
            }
            let _ = thread.join();
        }
        if self.store.as_os_str().is_empty() {
            return;
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

fn req(kind: &str) -> Request {
    Request { kind: kind.to_string(), ..Request::default() }
}

/// The golden snapshot's geometry (also `Scale::Quick`): small enough
/// that a simulate request finishes in well under a second.
fn golden_mix_request(kind: &str) -> Request {
    let mut r = req(kind);
    r.mix = "gamess,soplex,lbm,hmmer".to_string();
    r.config = 1;
    r.interval_insns = 20_000;
    r.intervals = 10;
    r
}

fn field_floats(v: &Value, name: &str) -> Vec<f64> {
    v.get(name)
        .and_then(Value::as_array)
        .expect("float array field")
        .iter()
        .map(|x| x.as_f64().expect("numbers"))
        .collect()
}

fn field_strings(v: &Value, name: &str) -> Vec<String> {
    v.get(name)
        .and_then(Value::as_array)
        .expect("string array field")
        .iter()
        .map(|x| x.as_str().expect("strings").to_string())
        .collect()
}

fn counter(stats: &Response, name: &str) -> u64 {
    stats
        .result
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[test]
fn simulate_matches_the_golden_snapshot_and_the_one_shot_path() {
    let daemon = Daemon::start();
    let mut client = daemon.client();
    let resp = client.request(&mut golden_mix_request("simulate")).expect("simulate succeeds");
    assert!(!resp.cached, "fresh store: first simulate computes");
    let names = field_strings(&resp.result, "names");
    let cpi_mc = field_floats(&resp.result, "cpi_mc");

    // Pin against the workspace golden snapshot (tests/golden), by
    // name: the store simulates in canonical order, and per-program
    // results are order-invariant (tests/differential.rs pins the raw
    // values, batch_invariance.rs the order independence).
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/mix_result_quick.json");
    let golden: Value =
        serde_json::from_slice(&std::fs::read(&golden_path).expect("golden snapshot exists"))
            .expect("golden parses");
    let unified = golden.get("unified").expect("unified section");
    let golden_names = field_strings(unified, "names");
    let golden_cpi = field_floats(unified, "cpi_mc");
    for (name, golden_value) in golden_names.iter().zip(&golden_cpi) {
        let i = names.iter().position(|n| n == name).expect("program in response");
        assert_eq!(
            cpi_mc[i].to_bits(),
            golden_value.to_bits(),
            "{name}: served {} vs golden {golden_value}",
            cpi_mc[i]
        );
    }

    // And bit-identical to the one-shot code path run against a fresh
    // store (exactly what `mppm-cli simulate` executes).
    let oneshot_root = std::env::temp_dir().join(format!(
        "mppmd-oneshot-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let store = mppm_experiments::Store::open(&oneshot_root).expect("store opens");
    let machine = mppm_sim::MachineConfig::baseline();
    let geometry = mppm_trace::TraceGeometry::new(20_000, 10);
    let mix: Vec<&str> = vec!["gamess", "soplex", "lbm", "hmmer"];
    let cpi_sc: Vec<f64> = mix
        .iter()
        .map(|n| {
            store.profile(mppm_trace::suite::benchmark(n).unwrap(), &machine, geometry).cpi_sc()
        })
        .collect();
    let record = store.simulate(&mix, &cpi_sc, &machine, geometry);
    assert_eq!(names, record.names);
    assert_eq!(
        cpi_mc.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        record.cpi_mc.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "daemon result is byte-identical to the one-shot computation"
    );
    let _ = std::fs::remove_dir_all(&oneshot_root);
}

#[test]
fn repeat_requests_hit_warm_caches_across_connections_and_restarts() {
    let daemon = Daemon::start();
    let mut client = daemon.client();

    let first = client.request(&mut golden_mix_request("simulate")).expect("first simulate");
    assert!(!first.cached);
    let meta = first.meta.as_ref().expect("cold simulate reports sim_seconds");
    assert!(meta.get("sim_seconds").and_then(Value::as_f64).unwrap_or(-1.0) >= 0.0);

    // Same request from a *different* connection: response cache.
    let mut other = daemon.client();
    let second = other.request(&mut golden_mix_request("simulate")).expect("repeat simulate");
    assert!(second.cached, "repeat request is served from the warm response cache");
    assert_eq!(second.result_json(), first.result_json(), "payload is byte-identical");

    // The store counters prove the simulator ran exactly once.
    let stats = client.request(&mut req("stats")).expect("stats");
    assert_eq!(counter(&stats, "store.sim_cache_miss"), 1);
    assert_eq!(counter(&stats, "store.sim_cache_hit"), 0, "response cache answered first");
    assert!(counter(&stats, "server.cache_hit") >= 1);

    // Restart the daemon on the same store: the response cache is gone
    // but the store is warm on disk, so the request becomes a
    // store-level cache hit instead of a re-simulation.
    let socket = daemon.socket.clone();
    let store = daemon.stop();
    let daemon = Daemon::start_on(socket, store);
    let mut client = daemon.client();
    let third = client.request(&mut golden_mix_request("simulate")).expect("post-restart");
    assert!(!third.cached, "response cache does not survive restart");
    assert_eq!(third.result_json(), first.result_json(), "...but bytes do");
    let stats = client.request(&mut req("stats")).expect("stats");
    assert_eq!(counter(&stats, "store.sim_cache_hit"), 1, "disk cache served the repeat");
    assert_eq!(counter(&stats, "store.sim_cache_miss"), 0);
}

#[test]
fn predict_is_deduped_and_cached() {
    let daemon = Daemon::start();
    let mut client = daemon.client();
    let mut request = golden_mix_request("predict");
    request.subscribe = true;
    let first = client.request(&mut request.clone()).expect("predict succeeds");
    assert!(!first.cached);
    assert!(
        first.events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("solver-step")
        }),
        "subscribed predict streams solver events, got {:?}",
        first.events
    );
    assert!(field_floats(&first.result, "slowdowns").iter().all(|&s| s >= 1.0 - 1e-9));

    let second = client.request(&mut request.clone()).expect("repeat predict");
    assert!(second.cached);
    assert_eq!(second.result_json(), first.result_json());
    assert!(second.events.is_empty(), "cache hits skip recomputation, so no solver events");
    // The whole reply repeats byte for byte, apart from `cached`.
    request.id = 77;
    let third = client.request(&mut request.clone()).expect("third predict");
    let mut fourth_request = request.clone();
    fourth_request.subscribe = false;
    let fourth = client.request(&mut fourth_request).expect("fourth predict");
    assert!(third.cached && fourth.cached);
    assert_eq!(third.raw, fourth.raw, "hits reply with the cached bytes");
    let mut evict = golden_mix_request("predict");
    evict.id = 77;
    let miss = Daemon::start().client().request(&mut evict).expect("predict on a fresh daemon");
    assert!(!miss.cached);
    assert_eq!(
        miss.raw.replace("\"cached\":false", "\"cached\":true"),
        third.raw,
        "a miss and a hit of one key differ only in `cached`"
    );

    // Unknown benchmarks and bad partitions are typed errors.
    let mut bad = req("predict");
    bad.mix = "gamess,nonesuch".to_string();
    match client.request(&mut bad) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, "bad-request"),
        other => panic!("expected bad-request, got {other:?}"),
    }
    let mut bad = golden_mix_request("predict");
    bad.partition = "1,1,1,1".to_string(); // sums to 4, LLC has 16 ways
    match client.request(&mut bad) {
        Err(ServerError::Remote { code, message }) => {
            assert_eq!(code, "bad-request");
            assert!(message.contains("ways"), "{message}");
        }
        other => panic!("expected bad-request, got {other:?}"),
    }

    // `stats` reports the serving cost: the cache's bytes, the memoized
    // solve-ready profiles (the mix's four), and service times of the
    // one solved predict and the three warm ones (errors are left out).
    let stats = client.request(&mut req("stats")).expect("stats");
    let gauge = |name: &str| stats.result.get(name).and_then(Value::as_u64).unwrap_or(0);
    assert_eq!(gauge("response_cache"), 1);
    assert!(gauge("response_cache_bytes") > first.result_json().len() as u64);
    assert_eq!(gauge("solve_ready_profiles"), 4);
    let service = stats.result.get("predict_service_us").expect("service times");
    for (side, n) in [("hit", 3), ("miss", 1)] {
        let sketch = service.get(side).expect("hit and miss sketches");
        assert_eq!(sketch.get("n").and_then(Value::as_u64), Some(n), "{side}");
        let p50 = sketch.get("p50").and_then(Value::as_f64).expect("p50");
        let p99 = sketch.get("p99").and_then(Value::as_f64).expect("p99");
        assert!(0.0 < p50 && p50 <= p99, "{side}: p50 {p50} p99 {p99}");
    }
}

#[test]
fn bounded_response_cache_evicts_lru_and_counts_it() {
    let tag = format!(
        "mppmd-evict-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    );
    let daemon = Daemon::start_configured(
        std::env::temp_dir().join(format!("{tag}.sock")),
        std::env::temp_dir().join(format!("{tag}-store")),
        |config| config.response_cache_cap = 1,
    );
    let mut client = daemon.client();

    let mut first = golden_mix_request("predict");
    first.mix = "gamess,lbm".to_string();
    let mut second = golden_mix_request("predict");
    second.mix = "gamess,mcf".to_string();

    assert!(!client.request(&mut first.clone()).expect("first predict").cached);
    assert!(
        client.request(&mut first.clone()).expect("repeat within cap").cached,
        "cap 1 still caches the latest response"
    );
    // A different mix displaces it (cap is one entry)...
    assert!(!client.request(&mut second.clone()).expect("second predict").cached);
    // ...so the first mix is recomputed, and the eviction was counted.
    assert!(
        !client.request(&mut first).expect("evicted predict").cached,
        "evicted response must be recomputed"
    );
    let stats = client.request(&mut req("stats")).expect("stats");
    assert!(
        counter(&stats, "store.evictions") >= 2,
        "each displacement increments store.evictions: {stats:?}"
    );
}

fn quick_campaign() -> Request {
    let mut r = req("campaign");
    r.quick = true;
    r.cores = 2;
    r.configs = "1,6".to_string();
    r.sample = 12;
    r.seed = 7;
    r.shard_size = 4;
    r.trials = 25;
    r
}

#[test]
fn campaigns_batch_dedup_and_cache() {
    let daemon = Daemon::start();
    let mut client = daemon.client();

    let mut request = quick_campaign();
    request.subscribe = true;
    let first = client.request(&mut request.clone()).expect("campaign runs");
    assert!(!first.cached);
    assert!(
        first.events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("plan")),
        "subscribed campaign streams the plan milestone, got {:?}",
        first.events
    );
    let meta = first.meta.as_ref().expect("campaign meta");
    assert!(meta.get("total_shards").and_then(Value::as_u64).unwrap_or(0) >= 3);
    let designs_csv =
        first.result.get("designs_csv").and_then(Value::as_str).expect("designs csv");
    assert!(designs_csv.contains("stp_mean"));

    // Second identical submission: response cache, byte-identical.
    let second = client.request(&mut quick_campaign()).expect("repeat campaign");
    assert!(second.cached, "second identical campaign reports a cache hit");
    assert_eq!(second.result_json(), first.result_json());

    // Concurrent identical submissions from several clients all get the
    // same bytes, while the daemon runs the campaign at most once per
    // wave (a different seed forces a fresh computation).
    let mut fresh = quick_campaign();
    fresh.seed = 8;
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let socket = daemon.socket.clone();
            let mut request = fresh.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connects");
                client.request(&mut request).expect("campaign answers").result_json()
            })
        })
        .collect();
    let payloads: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(payloads.windows(2).all(|w| w[0] == w[1]), "all clients got identical bytes");
    assert_ne!(payloads[0], first.result_json(), "different seed, different population");

    let stats = client.request(&mut req("stats")).expect("stats");
    assert_eq!(counter(&stats, "server.campaign_jobs"), 6);
    let merged = counter(&stats, "server.campaign_merged");
    let hits = counter(&stats, "server.cache_hit");
    assert!(
        merged + hits >= 4,
        "4 of 6 submissions were deduplicated (merged {merged} + cache hits {hits})"
    );
}

#[test]
fn identical_results_at_any_worker_count() {
    // MPPM_THREADS is process-global: this test owns it for its
    // duration (each integration-test file runs as its own process).
    let run = |threads: &str| {
        std::env::set_var("MPPM_THREADS", threads);
        let daemon = Daemon::start();
        let mut client = daemon.client();
        let campaign = client.request(&mut quick_campaign()).expect("campaign").result_json();
        let simulate =
            client.request(&mut golden_mix_request("simulate")).expect("simulate").result_json();
        (campaign, simulate)
    };
    let single = run("1");
    let several = run("4");
    std::env::remove_var("MPPM_THREADS");
    assert_eq!(single.0, several.0, "campaign bytes are worker-count invariant");
    assert_eq!(single.1, several.1, "simulate bytes are worker-count invariant");
}

#[test]
fn cancel_of_unknown_request_reports_not_found() {
    let daemon = Daemon::start();
    let mut client = daemon.client();
    let mut cancel = req("cancel");
    cancel.target = 424_242;
    let resp = client.request(&mut cancel).expect("cancel answers");
    assert_eq!(resp.result.get("canceled").map(|v| matches!(v, Value::Bool(true))), Some(false));
}

#[test]
fn shutdown_rejects_new_work_and_removes_the_socket() {
    let daemon = Daemon::start();
    let mut client = daemon.client();
    let pong = client.request(&mut req("ping")).expect("ping");
    assert_eq!(pong.kind, "ping");
    daemon.stop();
}
