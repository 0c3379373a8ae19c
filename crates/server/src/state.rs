//! Shared daemon state: the warm store, response cache, in-flight
//! dedup table and the campaign queue.

use mppm_experiments::Store;
use mppm_obs::{Counter, Event, Observer, Sink};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::protocol::{codes, event_frame, CampaignRequest};

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A panicking handler thread must not wedge every other client.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Shared, cloneable writer half of one client connection. Writes are
/// serialized so event frames from the executor never interleave with
/// response frames from the connection thread. Transport errors are
/// swallowed: a client that hung up simply stops receiving frames.
#[derive(Debug, Clone)]
pub struct ConnWriter {
    inner: Arc<Mutex<UnixStream>>,
}

impl ConnWriter {
    /// Wraps the write half (a `try_clone` of the connection).
    pub fn new(stream: UnixStream) -> Self {
        Self { inner: Arc::new(Mutex::new(stream)) }
    }

    /// Sends one frame, appending the newline. Frame and newline go out
    /// in a single `write_all` — one syscall per frame, not two.
    pub fn send_line(&self, line: &str) {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let mut stream = relock(self.inner.lock());
        let _ = stream.write_all(&frame);
    }
}

/// Forwards observability events down a subscribed connection as event
/// frames.
pub(crate) struct SocketSink {
    writer: ConnWriter,
    id: u64,
    /// Campaign subscriptions get the `ProgressSink` milestone subset
    /// (plan, checkpoints, top-level span ends); predict/simulate
    /// subscriptions stream everything (a handful of solver events).
    milestones_only: bool,
}

impl SocketSink {
    pub(crate) fn all(writer: ConnWriter, id: u64) -> Self {
        Self { writer, id, milestones_only: false }
    }

    pub(crate) fn milestones(writer: ConnWriter, id: u64) -> Self {
        Self { writer, id, milestones_only: true }
    }
}

fn is_milestone(event: &Event) -> bool {
    let depth = event.scope.matches('/').count();
    event.name == "plan"
        || event.name == "checkpoint"
        || (event.name == "span-end" && depth <= 1)
}

impl Sink for SocketSink {
    fn record(&self, event: Event) {
        if self.milestones_only && !is_milestone(&event) {
            return;
        }
        self.writer.send_line(&event_frame(self.id, &event));
    }
}

/// A cached deterministic response payload.
#[derive(Debug, Clone)]
pub(crate) struct CachedResponse {
    /// The request verb that produced it.
    pub kind: &'static str,
    /// The `result` member, exactly as first computed.
    pub result: Value,
}

/// The bounded response cache: LRU over a logical clock. Every hit
/// re-stamps its entry; inserting past the cap evicts the
/// least-recently-used entry, so a long-lived daemon's memory is bounded
/// by `cap` responses no matter how many distinct requests it serves.
/// Recomputing an evicted response is always safe — responses are
/// deterministic functions of their key.
#[derive(Debug)]
struct ResponseCache {
    entries: BTreeMap<String, (CachedResponse, u64)>,
    /// Monotonic use stamp; bumped on every hit and insert.
    clock: u64,
    /// Maximum entries kept; at least 1.
    cap: usize,
}

impl ResponseCache {
    fn new(cap: usize) -> Self {
        Self { entries: BTreeMap::new(), clock: 0, cap: cap.max(1) }
    }

    fn get(&mut self, key: &str) -> Option<CachedResponse> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|(resp, used)| {
            *used = clock;
            resp.clone()
        })
    }

    /// Inserts (or refreshes) `key`; returns how many entries were
    /// evicted to stay within the cap.
    fn insert(&mut self, key: String, response: CachedResponse) -> u64 {
        self.clock += 1;
        self.entries.insert(key, (response, self.clock));
        let mut evicted = 0;
        while self.entries.len() > self.cap {
            // O(n) min-stamp scan: the cache is small (≤ cap entries)
            // and insertions are rare next to the work they memoize.
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            // mppm-lint: allow(panic-reaches-handler): the loop condition guarantees the cache is non-empty, so a minimum exists
            let Some(oldest) = oldest else { unreachable!("non-empty cache has a minimum") };
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// One client waiting on a queued campaign.
#[derive(Debug, Clone)]
pub(crate) struct Waiter {
    /// Connection the request arrived on (scopes `cancel`).
    pub conn: u64,
    /// Request id, echoed on every frame.
    pub id: u64,
    /// Stream milestone events before the response.
    pub subscribe: bool,
    /// Where to send frames.
    pub writer: ConnWriter,
}

/// One queued campaign computation with everyone awaiting it.
#[derive(Debug, Clone)]
pub(crate) struct CampaignJob {
    /// Canonical cache key ([`CampaignRequest::cache_key`]).
    pub key: String,
    /// The resolved request.
    pub req: CampaignRequest,
    /// Clients to answer when it finishes.
    pub waiters: Vec<Waiter>,
}

#[derive(Debug, Default)]
struct Queue {
    jobs: Vec<CampaignJob>,
    closed: bool,
}

/// Server-side counters, published through the daemon's observer (and
/// the `stats` request).
#[derive(Debug)]
pub(crate) struct ServerCounters {
    /// `server.requests`: frames parsed as requests.
    pub requests: Counter,
    /// `server.cache_hit`: responses served from the response cache.
    pub cache_hits: Counter,
    /// `server.dedup_join`: requests that joined an identical in-flight
    /// computation instead of recomputing.
    pub dedup_joins: Counter,
    /// `server.batch_waves`: queue drains by the campaign executor.
    pub batch_waves: Counter,
    /// `server.campaign_jobs`: campaign requests accepted.
    pub campaign_jobs: Counter,
    /// `server.campaign_merged`: campaign submissions merged into an
    /// identical job in the same wave.
    pub campaign_merged: Counter,
    /// `store.evictions`: responses dropped from the bounded LRU cache.
    pub evictions: Counter,
}

/// Everything the daemon shares across connections.
pub struct ServerState {
    store: Arc<Store>,
    observer: Observer,
    socket: PathBuf,
    responses: Mutex<ResponseCache>,
    inflight: Mutex<BTreeSet<String>>,
    inflight_cv: Condvar,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    pub(crate) counters: ServerCounters,
}

impl ServerState {
    /// Builds the shared state. `observer` owns the live counter
    /// registry; the store's `store.*` counters should already be
    /// attached to it. `response_cache_cap` bounds the response cache
    /// (entries, not bytes); see [`crate::ServerConfig`].
    pub fn new(
        store: Arc<Store>,
        observer: Observer,
        socket: PathBuf,
        response_cache_cap: usize,
    ) -> Self {
        let counters = ServerCounters {
            requests: observer.counter("server.requests"),
            cache_hits: observer.counter("server.cache_hit"),
            dedup_joins: observer.counter("server.dedup_join"),
            batch_waves: observer.counter("server.batch_waves"),
            campaign_jobs: observer.counter("server.campaign_jobs"),
            campaign_merged: observer.counter("server.campaign_merged"),
            evictions: observer.counter("store.evictions"),
        };
        Self {
            store,
            observer,
            socket,
            responses: Mutex::new(ResponseCache::new(response_cache_cap)),
            inflight: Mutex::new(BTreeSet::new()),
            inflight_cv: Condvar::new(),
            queue: Mutex::new(Queue::default()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters,
        }
    }

    /// The warm store every request shares.
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.store)
    }

    /// The counter-owning observer.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// True once graceful shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begins graceful shutdown: stop accepting work, let the executor
    /// drain what is queued, and wake the accept loop.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        relock(self.queue.lock()).closed = true;
        self.queue_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.socket);
    }

    pub(crate) fn cached(&self, key: &str) -> Option<CachedResponse> {
        relock(self.responses.lock()).get(key)
    }

    pub(crate) fn insert_response(&self, key: String, kind: &'static str, result: Value) {
        let evicted =
            relock(self.responses.lock()).insert(key, CachedResponse { kind, result });
        if evicted > 0 {
            self.counters.evictions.add(evicted);
        }
    }

    /// `(cached responses, in-flight computations, queued campaigns)`.
    pub(crate) fn cache_sizes(&self) -> (usize, usize, usize) {
        (
            relock(self.responses.lock()).entries.len(),
            relock(self.inflight.lock()).len(),
            relock(self.queue.lock()).jobs.len(),
        )
    }

    /// Serves `key` from the response cache, joins an identical
    /// in-flight computation, or computes (and caches) it. Returns the
    /// payload plus whether it was served warm.
    ///
    /// # Errors
    ///
    /// Whatever `compute` reports, as a `(code, message)` pair. Errors
    /// are never cached.
    pub(crate) fn serve_deduped<F>(
        &self,
        key: &str,
        kind: &'static str,
        compute: F,
    ) -> Result<(Value, Option<Value>, bool), (&'static str, String)>
    where
        F: FnOnce() -> Result<(Value, Option<Value>), (&'static str, String)>,
    {
        if let Some(hit) = self.cached(key) {
            self.counters.cache_hits.incr();
            return Ok((hit.result, None, true));
        }
        let mut inflight = relock(self.inflight.lock());
        if inflight.contains(key) {
            self.counters.dedup_joins.incr();
        }
        while inflight.contains(key) {
            inflight = relock(self.inflight_cv.wait(inflight));
            if let Some(hit) = self.cached(key) {
                self.counters.cache_hits.incr();
                return Ok((hit.result, None, true));
            }
            // The computing thread failed; take over below.
        }
        inflight.insert(key.to_string());
        drop(inflight);
        let outcome = compute();
        if let Ok((result, _)) = &outcome {
            self.insert_response(key.to_string(), kind, result.clone());
        }
        relock(self.inflight.lock()).remove(key);
        self.inflight_cv.notify_all();
        outcome.map(|(result, meta)| (result, meta, false))
    }

    /// Queues a campaign job (merging onto the executor's next wave).
    ///
    /// # Errors
    ///
    /// `Err(())` if the daemon is shutting down.
    pub(crate) fn enqueue_campaign(&self, job: CampaignJob) -> Result<(), ()> {
        let mut queue = relock(self.queue.lock());
        if queue.closed {
            return Err(());
        }
        queue.jobs.push(job);
        self.queue_cv.notify_all();
        Ok(())
    }

    /// Blocks for the next wave of queued campaigns (everything queued
    /// at drain time, so concurrent submissions batch). Returns `None`
    /// once the queue is closed *and* drained — queued work is always
    /// finished before shutdown completes.
    pub(crate) fn wait_wave(&self) -> Option<Vec<CampaignJob>> {
        let mut queue = relock(self.queue.lock());
        loop {
            if !queue.jobs.is_empty() {
                return Some(std::mem::take(&mut queue.jobs));
            }
            if queue.closed {
                return None;
            }
            queue = relock(self.queue_cv.wait(queue));
        }
    }

    /// Cancels the queued (not yet running) campaign request `target`
    /// submitted on connection `conn`. Each removed waiter is told with
    /// a [`codes::CANCELED`] error frame. Returns whether anything was
    /// removed; running jobs are not interruptible.
    pub(crate) fn cancel_queued(&self, conn: u64, target: u64) -> bool {
        let removed: Vec<Waiter> = {
            let mut queue = relock(self.queue.lock());
            let mut removed = Vec::new();
            for job in &mut queue.jobs {
                let mut kept = Vec::with_capacity(job.waiters.len());
                for w in job.waiters.drain(..) {
                    if w.conn == conn && w.id == target {
                        removed.push(w);
                    } else {
                        kept.push(w);
                    }
                }
                job.waiters = kept;
            }
            queue.jobs.retain(|j| !j.waiters.is_empty());
            removed
        };
        for w in &removed {
            w.writer.send_line(&crate::protocol::err_frame(
                w.id,
                codes::CANCELED,
                "request canceled before it ran",
            ));
        }
        !removed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(tag: &str) -> CachedResponse {
        CachedResponse { kind: "predict", result: Value::from(tag) }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = ResponseCache::new(2);
        assert_eq!(cache.insert("a".into(), resp("a")), 0);
        assert_eq!(cache.insert("b".into(), resp("b")), 0);
        // Touch `a`, making `b` the LRU candidate.
        assert!(cache.get("a").is_some());
        assert_eq!(cache.insert("c".into(), resp("c")), 1, "one eviction past the cap");
        assert!(cache.get("b").is_none(), "the untouched entry was evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn refreshing_an_existing_key_does_not_evict() {
        let mut cache = ResponseCache::new(2);
        cache.insert("a".into(), resp("a"));
        cache.insert("b".into(), resp("b"));
        assert_eq!(cache.insert("a".into(), resp("a2")), 0, "overwrite stays within cap");
        assert_eq!(cache.get("a").map(|r| r.result), Some(Value::from("a2")));
    }

    #[test]
    fn a_zero_cap_still_keeps_the_latest_response() {
        // The cap is clamped to 1 so serve_deduped's insert-then-reply
        // sequence always finds the response it just computed.
        let mut cache = ResponseCache::new(0);
        cache.insert("a".into(), resp("a"));
        assert!(cache.get("a").is_some());
        assert_eq!(cache.insert("b".into(), resp("b")), 1);
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn misses_are_none_and_do_not_disturb_order() {
        let mut cache = ResponseCache::new(8);
        assert!(cache.get("nope").is_none());
        cache.insert("a".into(), resp("a"));
        assert!(cache.get("nope").is_none());
        assert!(cache.get("a").is_some());
    }
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (responses, inflight, queued) = self.cache_sizes();
        f.debug_struct("ServerState")
            .field("socket", &self.socket)
            .field("responses", &responses)
            .field("inflight", &inflight)
            .field("queued", &queued)
            .field("shutdown", &self.is_shutdown())
            .finish()
    }
}
