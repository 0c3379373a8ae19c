//! The `mppmd` daemon: accept loop, connection threads, and the
//! batching campaign executor.

use mppm_campaign::{AggregateOptions, Campaign, CampaignSpec, MixSource};
use mppm_experiments::{Context, Scale, Store};
use mppm_obs::{Observer, Sink};
use mppm_wire::{Frame, FrameReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use crate::handlers::{self, campaign_value};
use crate::protocol::{codes, err_frame, ok_frame, Request};
use crate::state::{CampaignJob, ConnWriter, ServerState, SocketSink};
use crate::ServerError;

/// Default bound on the response cache, in entries. Each entry is one
/// (small, JSON-sized) deterministic response; a thousand of them is a
/// few MB at most, while still making a week-long daemon's memory flat.
pub const DEFAULT_RESPONSE_CACHE_CAP: usize = 1024;

/// How to run the daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix domain socket to listen on.
    pub socket: PathBuf,
    /// Store root; `None` opens the workspace default
    /// (`target/mppm-store`).
    pub store_root: Option<PathBuf>,
    /// Response-cache entry cap (LRU beyond it); clamped to ≥ 1.
    pub response_cache_cap: usize,
}

impl ServerConfig {
    /// A config listening on `socket` with the default store and cache
    /// cap.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            store_root: None,
            response_cache_cap: DEFAULT_RESPONSE_CACHE_CAP,
        }
    }
}

/// Runs the daemon until a `shutdown` request: binds the socket, opens
/// the warm store once, serves every connection from it, and on
/// shutdown drains queued campaigns (their journals checkpoint per
/// shard regardless) before removing the socket file.
///
/// # Errors
///
/// [`ServerError::AlreadyRunning`] if a live daemon owns the socket,
/// [`ServerError::Io`] for bind/store failures.
pub fn serve(config: &ServerConfig) -> Result<(), ServerError> {
    let listener = bind(&config.socket)?;
    let store = match &config.store_root {
        Some(root) => Store::open(root),
        None => Store::open_default(),
    }
    .map_err(|e| ServerError::Io(format!("opening store: {e}")))?;
    let store = Arc::new(store);
    // The observer carries only live counters (no sinks): `store.*` and
    // `server.*` are readable through the `stats` request at any time.
    let observer = Observer::with_sinks(Vec::new());
    store.attach_counters(&observer);
    let state = Arc::new(ServerState::new(
        store,
        observer,
        config.socket.clone(),
        config.response_cache_cap,
    ));

    let executor = {
        let state = Arc::clone(&state);
        thread::spawn(move || campaign_executor(&state))
    };

    // Read halves of every live connection, so shutdown can unblock
    // their framing reads.
    let conns: Arc<Mutex<Vec<UnixStream>>> = Arc::new(Mutex::new(Vec::new()));
    let next_conn = AtomicU64::new(1);
    for stream in listener.incoming() {
        if state.is_shutdown() {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Ok(tracked) = stream.try_clone() {
            conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(tracked);
        }
        let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
        let state = Arc::clone(&state);
        thread::spawn(move || handle_conn(&state, conn_id, stream));
    }

    // Drain: the executor finishes queued campaigns, then connections
    // are unblocked so their threads exit.
    let _ = executor.join();
    for conn in conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner).iter() {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    let _ = state.observer().finish();
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}

/// Binds the socket, handling a stale file left by a killed daemon: a
/// connect probe distinguishes a live daemon (refuse to start) from a
/// dead socket file (remove and rebind).
fn bind(socket: &PathBuf) -> Result<UnixListener, ServerError> {
    if socket.exists() {
        if UnixStream::connect(socket).is_ok() {
            return Err(ServerError::AlreadyRunning(socket.clone()));
        }
        std::fs::remove_file(socket)
            .map_err(|e| ServerError::Io(format!("removing stale socket: {e}")))?;
    }
    if let Some(parent) = socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ServerError::Io(format!("creating socket directory: {e}")))?;
        }
    }
    UnixListener::bind(socket)
        .map_err(|e| ServerError::Io(format!("binding {}: {e}", socket.display())))
}

fn handle_conn(state: &Arc<ServerState>, conn_id: u64, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let writer = ConnWriter::new(write_half);
    let mut reader = FrameReader::new(stream);
    loop {
        match reader.next_frame() {
            Ok(Frame::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                match serde_json::from_str::<Request>(&line) {
                    Ok(req) => {
                        // Version gate before any semantics: a client
                        // from another build gets a typed refusal, not
                        // a confusing bad-request or wrong answer.
                        if let Err(mismatch) = mppm_wire::check_version(Some(req.v)) {
                            writer.send_line(&err_frame(
                                req.id,
                                codes::PROTOCOL,
                                &mismatch.to_string(),
                            ));
                            continue;
                        }
                        let stopping = req.kind == "shutdown";
                        handlers::handle(state, conn_id, &writer, req);
                        if stopping {
                            return;
                        }
                    }
                    Err(e) => {
                        writer.send_line(&err_frame(0, codes::PARSE, &format!("bad frame: {e}")));
                    }
                }
            }
            Ok(Frame::Oversized { discarded }) => {
                writer.send_line(&err_frame(
                    0,
                    codes::OVERSIZED,
                    &format!(
                        "request line exceeded {} bytes ({discarded} discarded)",
                        crate::protocol::MAX_LINE
                    ),
                ));
            }
            Ok(Frame::Eof) | Err(_) => return,
        }
    }
}

/// Drains the campaign queue in waves: everything queued at drain time
/// runs as one wave, identical submissions within a wave merge into one
/// computation, and every waiter gets its own response frame.
fn campaign_executor(state: &Arc<ServerState>) {
    while let Some(wave) = state.wait_wave() {
        state.counters.batch_waves.incr();
        let mut merged: Vec<CampaignJob> = Vec::new();
        for job in wave {
            match merged.iter_mut().find(|m| m.key == job.key) {
                Some(existing) => {
                    state.counters.campaign_merged.incr();
                    existing.waiters.extend(job.waiters);
                }
                None => merged.push(job),
            }
        }
        for job in merged {
            run_campaign_job(state, job);
        }
    }
}

fn run_campaign_job(state: &Arc<ServerState>, job: CampaignJob) {
    // A previous wave (or a pre-queue cache fill) may already have it.
    if let Some(hit) = state.cached(&job.key) {
        for w in &job.waiters {
            state.counters.cache_hits.incr();
            w.writer.send_line(&ok_frame(w.id, hit.kind, true, hit.result.clone(), None));
        }
        return;
    }
    let scale = if job.req.quick { Scale::Quick } else { Scale::Full };
    let ctx = Context::with_shared_store(scale, state.store());
    let spec = CampaignSpec {
        cores: job.req.cores,
        designs: job.req.designs.clone(),
        source: match job.req.sample {
            Some(count) => MixSource::Stratified { count, seed: job.req.seed },
            None => MixSource::Exhaustive,
        },
        shard_size: job.req.shard_size,
    };
    let options = AggregateOptions { stability_trials: job.req.trials, ..Default::default() };
    let sinks: Vec<Box<dyn Sink>> = job
        .waiters
        .iter()
        .filter(|w| w.subscribe)
        .map(|w| Box::new(SocketSink::milestones(w.writer.clone(), w.id)) as Box<dyn Sink>)
        .collect();
    let observer = if sinks.is_empty() { Observer::disabled() } else { Observer::with_sinks(sinks) };
    let outcome = {
        let root = observer.root("campaign");
        Campaign::new(&spec).options(&options).observer(&root).run(&ctx)
    };
    let _ = observer.finish();
    match outcome {
        Ok(result) => {
            let (value, meta) = campaign_value(&result);
            state.insert_response(job.key.clone(), "campaign", value.clone());
            for w in &job.waiters {
                w.writer.send_line(&ok_frame(w.id, "campaign", false, value.clone(), meta.clone()));
            }
        }
        Err(e) => {
            let (code, message) = match &e {
                mppm_campaign::CampaignError::InvalidSpec(_)
                | mppm_campaign::CampaignError::MixSpace(_) => (codes::BAD_REQUEST, e.to_string()),
                mppm_campaign::CampaignError::Protocol(_) => (codes::PROTOCOL, e.to_string()),
                _ => (codes::CAMPAIGN, e.to_string()),
            };
            for w in &job.waiters {
                w.writer.send_line(&err_frame(w.id, code, &message));
            }
        }
    }
}
