//! `serve`: a fresh `mppmd` child process under an open-loop Poisson
//! stream of `predict` requests.
//!
//! Each request asks for a 4-program mix on LLC config 1, 2 or 3 at the
//! quick geometry. Keys are drawn Zipf(1.0) from a key space four times
//! the daemon's 1024-entry response cache, so the stream mixes cache
//! hits with model solves and LRU evictions. The rate is fixed, and the
//! run reports whether the latency tail met [`LATENCY_LIMIT_MS`].
//! Simulate requests are left out: the daemon handles one connection's
//! requests in order, so one detailed simulation would stall every
//! request queued behind it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use mppm::mix::Mix;
use mppm::SingleCoreProfile;
use mppm_experiments::{Context, Scale, Store};
use mppm_server::protocol::{cli_geometry, PROTOCOL_VERSION};
use mppm_sim::MachineConfig;
use mppm_trace::{suite, BenchmarkSpec};
use serde::Value;

use crate::layers::{self, Tr};
use crate::loadgen::{drive, Driven, Planned};
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::spans::Tracer;
use crate::stats::summarize;
use crate::{host, Run};

/// Argument that turns this executable into the `mppmd` daemon.
pub const DAEMON_ARG: &str = "__mppmd";

/// Offered load, requests per second over all connections.
const RATE: f64 = 1000.0;
/// Client connections (and at most this many generator threads: one).
const CONNECTIONS: usize = 2;
/// Distinct request keys: four times the daemon's response cache.
const KEYS: usize = 4096;
/// LLC configs (0-based) the requests spread over.
const CONFIGS: usize = 3;
/// Programs per requested mix.
const PROGRAMS: usize = 4;
/// The latency limit the tail is reported against.
const LATENCY_LIMIT_MS: f64 = 5.0;
/// Keys whose daemon answers are re-computed in process.
const SAMPLED_KEYS: usize = 6;
/// Length of the short session the other workloads' traced runs use
/// for the server metrics.
const PROBE_SECONDS: f64 = 3.0;

/// Runs `mppmd` in this process: `__mppmd --socket PATH --store DIR`.
pub fn daemon_main(args: &[String]) -> i32 {
    let (Some(socket), Some(store)) = (
        args.iter()
            .position(|a| a == "--socket")
            .and_then(|i| args.get(i + 1)),
        args.iter()
            .position(|a| a == "--store")
            .and_then(|i| args.get(i + 1)),
    ) else {
        eprintln!("usage: {DAEMON_ARG} --socket PATH --store DIR");
        return 2;
    };
    let config = mppm_server::ServerConfig {
        socket: socket.into(),
        store_root: Some(store.into()),
        response_cache_cap: mppm_server::DEFAULT_RESPONSE_CACHE_CAP,
    };
    match mppm_server::serve(&config) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("mppmd: {e}");
            6
        }
    }
}

/// The daemon child. Dropping it kills and reaps a child that was not
/// stopped cleanly.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Self, String> {
        let socket = dir.join("mppmd.sock");
        let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
        let child = Command::new(exe)
            .arg(DAEMON_ARG)
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("daemon-store"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting mppmd: {e}"))?;
        let mut daemon = Self { child, socket };
        let deadline = host::now() + Duration::from_secs(30);
        while UnixStream::connect(&daemon.socket).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("mppmd exited during start-up: {status}"));
            }
            if host::now() > deadline {
                return Err("mppmd did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.socket).map_err(|e| format!("connecting to mppmd: {e}"))
    }

    /// One closed-loop request on a fresh connection.
    fn request(&self, line: &str) -> Result<String, String> {
        let mut stream = self.connect()?;
        writeln!(stream, "{line}").map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        Ok(reply)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds the daemon has used so far.
    fn cpu_seconds(&self) -> Result<f64, String> {
        host::cpu_seconds(Some(self.pid())).ok_or_else(|| "reading mppmd CPU time".to_string())
    }

    /// Graceful shutdown; waits for the child to exit.
    fn stop(mut self) -> Result<(), String> {
        self.request(&format!(
            "{{\"v\":{PROTOCOL_VERSION},\"id\":1,\"kind\":\"shutdown\"}}"
        ))?;
        let deadline = host::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("mppmd exited with {status}")),
                Ok(None) if host::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
                _ => return Err("mppmd did not shut down".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request key: a mix (suite indices, sorted) on a 0-based config.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    members: Vec<usize>,
    config: usize,
}

impl Key {
    fn names(&self) -> Vec<&'static str> {
        self.members
            .iter()
            .map(|&i| suite::spec_suite()[i].name())
            .collect()
    }

    fn machine(&self) -> MachineConfig {
        MachineConfig::baseline().with_llc(mppm_sim::llc_configs()[self.config])
    }
}

/// The seed's key space, in Zipf rank order.
fn key_space(seed: u64) -> Vec<Key> {
    let mut rng = Rng::new(seed ^ 0x6b65_7973);
    let n = suite::spec_suite().len();
    let mut seen = std::collections::BTreeSet::new();
    let mut keys = Vec::with_capacity(KEYS);
    while keys.len() < KEYS {
        let mut members: Vec<usize> = (0..PROGRAMS).map(|_| rng.below(n)).collect();
        members.sort_unstable();
        let key = Key {
            members,
            config: rng.below(CONFIGS),
        };
        if seen.insert(key.clone()) {
            keys.push(key);
        }
    }
    keys
}

/// The seed's open-loop schedule over `seconds`: an independent Poisson
/// stream per connection, each request's key drawn Zipf(1.0). Returns
/// `(due, connection, key index)` sorted by due time.
fn schedule(seed: u64, seconds: f64) -> Vec<(Duration, usize, usize)> {
    let zipf = Zipf::new(KEYS, 1.0);
    let mut planned = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(conn as u64 + 1));
        let mut t = rng.exponential(RATE / CONNECTIONS as f64);
        while t < seconds {
            planned.push((Duration::from_secs_f64(t), conn, zipf.sample(&mut rng)));
            t += rng.exponential(RATE / CONNECTIONS as f64);
        }
    }
    planned.sort();
    planned
}

/// The `result` member of a response frame, verbatim.
fn result_member(line: &str) -> Option<&str> {
    let start = line.find("\"result\":")? + 9;
    let end = line
        .rfind(",\"meta\":")
        .filter(|&m| m > start)
        .unwrap_or(line.len() - 1);
    Some(&line[start..end])
}

/// Everything a session measured.
struct Session {
    driven: Driven,
    cached: Vec<bool>,
    keys: Vec<usize>,
    /// Which requests had their send traced.
    traced: Vec<bool>,
    /// Requests served per CPU-second the daemon used under the stream.
    requests_per_cpu_s: f64,
    lines: Vec<String>,
    stats: Value,
    peak_rss_mb: f64,
    setup_s: f64,
}

/// Starts a daemon, computes every profile the stream needs (one
/// single-program request per benchmark and config), drives the seed's
/// stream for `seconds`, reads the `stats` verb and the child's peak
/// memory, and stops the daemon. Checks every reply as it goes.
fn session(
    run: &Run,
    dir: &Path,
    seconds: f64,
    report: &mut Report,
    traced: Option<(&Tracer, &mppm_obs::Span)>,
) -> Result<Session, String> {
    let started = host::now();
    let daemon = Daemon::start(dir)?;
    let warm: Vec<Planned> = (0..CONFIGS)
        .flat_map(|c| suite::spec_suite().iter().map(move |s| (c, s.name())))
        .enumerate()
        .map(|(i, (c, name))| Planned {
            due: Duration::ZERO,
            conn: i % CONNECTIONS,
            line: layers::request_line(i as u64 + 1, &[name], c, true),
            traced: false,
        })
        .collect();
    let streams: Vec<UnixStream> = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let warmed = drive(&streams, &warm, Duration::from_secs(120), None)
        .map_err(|e| format!("warm-up: {e}"))?;
    for reply in &warmed.replies {
        report.op(reply.line.contains("\"ok\":true"), || {
            format!("warm-up reply {}", reply.line)
        });
    }
    let setup_s = started.elapsed().as_secs_f64();

    let keys = key_space(run.seed);
    let open = schedule(run.seed, seconds);
    let mut coin = Rng::new(run.seed ^ 0x7472_6163);
    let open_plan = plan(&open, &keys, || coin.next_f64() < 0.5);
    let cpu_before = daemon.cpu_seconds()?;
    let driven = drive(&streams, &open_plan, Duration::from_secs(60), traced)
        .map_err(|e| format!("load: {e}"))?;
    let cpu_s = daemon.cpu_seconds()? - cpu_before;
    drop(streams);
    let stats_line = daemon.request(&format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":1,\"kind\":\"stats\"}}"
    ))?;
    let stats: Value =
        serde_json::from_str(&stats_line).map_err(|e| format!("stats reply: {e}"))?;
    let peak_rss_mb = host::peak_rss_mb(Some(daemon.pid())).ok_or("reading mppmd VmHWM")?;
    daemon.stop()?;

    // Every reply is an ok predict; hits and misses of one key carry
    // byte-identical results.
    let mut first: BTreeMap<usize, &str> = BTreeMap::new();
    let mut cached = Vec::with_capacity(open.len());
    let mut key_of = Vec::with_capacity(open.len());
    for ((reply, &(_, _, k)), planned) in driven.replies.iter().zip(&open).zip(&open_plan) {
        let ok = reply.line.contains("\"ok\":true") && reply.line.contains("\"kind\":\"predict\"");
        let result = result_member(&reply.line).unwrap_or_default();
        let same = *first.entry(k).or_insert(result) == result;
        report.op(ok && same, || {
            format!("reply to {} was {}", planned.line, reply.line)
        });
        cached.push(reply.line.contains("\"cached\":true"));
        key_of.push(k);
    }
    let hits = cached.iter().filter(|&&c| c).count() as u64;
    let counted = stat_counter(&stats, "server.cache_hit");
    report.op(counted == Some(hits), || {
        format!("daemon counted {counted:?} cache hits, replies show {hits}")
    });
    check_sampled(run, dir, report, &driven, &key_of, &keys)?;
    Ok(Session {
        traced: open_plan.iter().map(|p| p.traced).collect(),
        lines: open_plan.into_iter().map(|p| p.line).collect(),
        requests_per_cpu_s: open.len() as f64 / cpu_s,
        driven,
        cached,
        keys: key_of,
        stats,
        peak_rss_mb,
        setup_s,
    })
}

/// Predict request frames for `reqs`, numbered from 1.
fn plan(
    reqs: &[(Duration, usize, usize)],
    keys: &[Key],
    mut traced: impl FnMut() -> bool,
) -> Vec<Planned> {
    reqs.iter()
        .enumerate()
        .map(|(i, &(due, conn, k))| Planned {
            due,
            conn,
            line: layers::request_line(i as u64 + 1, &keys[k].names(), keys[k].config, true),
            traced: traced(),
        })
        .collect()
}

fn stat_counter(stats: &Value, name: &str) -> Option<u64> {
    stats.get("result")?.get("counters")?.get(name)?.as_u64()
}

/// Re-computes the answers for a seeded sample of the requested keys
/// with an in-process `Context::predict` and compares them with the
/// daemon's, number for number.
fn check_sampled(
    run: &Run,
    dir: &Path,
    report: &mut Report,
    driven: &Driven,
    key_of: &[usize],
    keys: &[Key],
) -> Result<(), String> {
    let store = Store::open(dir.join("check-store")).map_err(|e| e.to_string())?;
    let ctx = Context::with_store(Scale::Quick, store);
    let mut rng = Rng::new(run.seed ^ 0x0063_686b);
    for _ in 0..SAMPLED_KEYS {
        let i = rng.below(key_of.len());
        let key = &keys[key_of[i]];
        let names = key.names();
        let machine = key.machine();
        let profiles: Vec<SingleCoreProfile> = names
            .iter()
            .map(|n| {
                ctx.store().profile(
                    layers::spec(n).expect("suite names"),
                    &machine,
                    cli_geometry(true),
                )
            })
            .collect();
        let local = ctx.predict(&Mix::new((0..names.len()).collect()), &profiles);
        let daemon: Value =
            serde_json::from_str(&driven.replies[i].line).map_err(|e| e.to_string())?;
        let result = daemon.get("result");
        let floats = |field: &str| -> Vec<f64> {
            result
                .and_then(|r| r.get(field))
                .and_then(Value::as_array)
                .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default()
        };
        let stp = result.and_then(|r| r.get("stp")).and_then(Value::as_f64);
        report.op(
            stp == Some(local.stp()) && floats("cpi_mc") == local.cpi_mc(),
            || {
                format!(
                    "daemon and in-process predictions of {names:?} on config {} differ",
                    key.config + 1
                )
            },
        );
    }
    Ok(())
}

/// Records the server metrics of a session.
fn record_server(report: &mut Report, s: &Session) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let split = |want: bool| -> Vec<f64> {
        s.driven
            .replies
            .iter()
            .zip(&s.cached)
            .filter(|(_, &c)| c == want)
            .map(|(r, _)| ms(r.latency))
            .collect()
    };
    let (hits, misses) = (split(true), split(false));
    let evictions = stat_counter(&s.stats, "store.evictions").unwrap_or(0);
    let all: Vec<f64> = s.driven.replies.iter().map(|r| ms(r.latency)).collect();
    let open = summarize(&all);
    report.set("server.p50_ms", open.median);
    report.set("server.tail_ms", open.tail);
    report.set(
        "server.hit_ratio",
        hits.len() as f64 / s.cached.len().max(1) as f64,
    );
    report.set(
        "server.hit_p50_ms",
        if hits.is_empty() {
            0.0
        } else {
            summarize(&hits).median
        },
    );
    let miss = summarize(if misses.is_empty() { &[0.0] } else { &misses });
    report.set("server.miss_p50_ms", miss.median);
    report.set("server.miss_tail_ms", miss.tail);
    report.set("server.evictions", evictions as f64);
    report.set("server.gen_late_max_ms", ms(s.driven.late_max));
    println!(
        "server hits {} of {} requests over {} keys; miss latency {}",
        hits.len(),
        s.cached.len(),
        s.keys
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        miss.describe("ms")
    );
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    if !run.trace {
        let s = session(run, &run.dir, run.seconds, report, None)?;
        let latencies: Vec<f64> = s
            .driven
            .replies
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect();
        let latency = summarize(&latencies);
        println!(
            "serve_p50_ms = {:.4} ms, serve_{}_ms = {:.4} ms (n={}) at {RATE} req/s over \
             {CONNECTIONS} connections; {LATENCY_LIMIT_MS} ms limit {}",
            latency.median,
            latency.tail_label(),
            latency.tail,
            latency.n,
            if latency.tail <= LATENCY_LIMIT_MS {
                "met"
            } else {
                "missed"
            }
        );
        println!(
            "generator ran at most {:.3} ms late",
            s.driven.late_max.as_secs_f64() * 1e3
        );
        println!(
            "mppmd served {:.1} requests per CPU-second",
            s.requests_per_cpu_s
        );
        report.set("setup_s", s.setup_s);
        report.set("peak_rss_mb", s.peak_rss_mb);
        report.set("work_per_s", s.requests_per_cpu_s);
        return Ok(());
    }

    let tracer = Tracer::new(&run.dir.join("trace.jsonl"));
    let store = Store::open(run.dir.join("bench-store")).map_err(|e| e.to_string())?;
    let s;
    {
        let root = tracer.root();
        let tr: Tr = Some((&tracer, &root));
        s = session(run, &run.dir, run.seconds, report, tr)?;
        // The in-process layers on a seeded sample of the stream's mixes.
        let mut rng = Rng::new(run.seed ^ 0x6c61_7972);
        let keys = key_space(run.seed);
        let sampled: Vec<&Key> = (0..SAMPLED_KEYS)
            .map(|_| &keys[s.keys[rng.below(s.keys.len())]])
            .collect();
        let mut profiles: Vec<Vec<SingleCoreProfile>> = Vec::new();
        let mut hits = 0;
        for key in &sampled {
            let specs: Vec<(&BenchmarkSpec, MachineConfig)> = key
                .names()
                .iter()
                .map(|n| (layers::spec(n).expect("suite names"), key.machine()))
                .collect();
            profiles.push(layers::profile_all(tr, &store, &specs, cli_geometry(true)));
            hits += layers::profile_hits(tr, &store, &specs, cli_geometry(true), 100);
        }
        let refs: Vec<Vec<&SingleCoreProfile>> = (0..100)
            .flat_map(|_| profiles.iter().map(|ps| ps.iter().collect()))
            .collect();
        layers::solve(tr, report, &refs)?;
        let value = layers::result_value(
            &layers::model()
                .predict(&refs[0])
                .map_err(|e| e.to_string())?,
        );
        layers::protocol(tr, report, &s.lines, &value);
        let sim = layers::simulate(
            tr,
            &sampled[0].names(),
            &sampled[0].machine(),
            cli_geometry(true),
            &profiles[0],
        )?;
        let journal_bytes = layers::campaign_probe(tr, report, &run.dir)?;
        drop(root);
        let calls = tracer.fold()?;
        layers::record_profiles(report, &calls, cli_geometry(true));
        layers::record_sims(report, &calls, std::slice::from_ref(&sim));
        layers::record_solve(report, &calls, refs.len());
        layers::record_profile_hits(report, &calls, hits);
        layers::record_protocol(report, &calls, s.lines.len());
        layers::record_campaign(report, &calls, journal_bytes);
    }
    record_server(report, &s);
    report.set(
        "store.profile_load",
        stat_counter(&s.stats, "store.profile_load").unwrap_or(0) as f64,
    );
    // Half the requests, chosen by a seeded coin, had their send traced:
    // compare their median latency with the other half's.
    let half = |want: bool| -> Vec<f64> {
        s.driven
            .replies
            .iter()
            .zip(&s.traced)
            .filter(|(_, &t)| t == want)
            .map(|(r, _)| r.latency.as_secs_f64() * 1e3)
            .collect()
    };
    let (on, off) = (
        summarize(&half(true)).median,
        summarize(&half(false)).median,
    );
    report.set("obs.trace_overhead_pct", 100.0 * (on - off) / off);
    Ok(())
}

/// The server metrics for a workload that does not serve: a short
/// session on its own daemon, with the workload's seed.
pub fn probe(run: &Run, report: &mut Report) -> Result<(), String> {
    let dir = run.dir.join("serve-probe");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let s = session(run, &dir, PROBE_SECONDS, report, None)?;
    record_server(report, &s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_space_and_schedule_are_deterministic_per_seed() {
        assert_eq!(key_space(5), key_space(5));
        assert_ne!(key_space(5), key_space(6));
        let keys = key_space(5);
        assert_eq!(keys.len(), KEYS);
        assert!(keys
            .iter()
            .all(|k| k.members.len() == PROGRAMS && k.config < CONFIGS));
        assert_eq!(schedule(5, 2.0), schedule(5, 2.0));
        assert_ne!(schedule(5, 2.0), schedule(6, 2.0));
        let plan = schedule(5, 10.0);
        // Poisson at 1000/s over 10 s: 10000 ± a few sigma.
        assert!((9600..10400).contains(&plan.len()), "{}", plan.len());
        assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn result_member_is_cut_verbatim() {
        let line = "{\"v\":1,\"id\":3,\"ok\":true,\"kind\":\"predict\",\"cached\":false,\"result\":{\"stp\":1.5}}";
        assert_eq!(result_member(line), Some("{\"stp\":1.5}"));
        let with_meta =
            "{\"v\":1,\"id\":3,\"ok\":true,\"result\":{\"a\":[1]},\"meta\":{\"s\":0.1}}";
        assert_eq!(result_member(with_meta), Some("{\"a\":[1]}"));
    }
}
