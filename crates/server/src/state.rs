//! Shared daemon state: the warm store, response cache, in-flight
//! dedup table and the campaign queue.

use mppm::stats::QuantileSketch;
use mppm_experiments::Store;
use mppm_obs::{Counter, Event, Observer, Sink};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::protocol::{codes, event_frame, ok_frame_rendered, render, CampaignRequest, ProtoError};

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

    /// Sends one frame, appending the newline to it. Frame and newline
    /// go out in a single `write_all` — one syscall per frame, not two.
    pub fn send_line(&self, mut frame: String) {
        frame.push('\n');
        let mut stream = relock(self.inner.lock());
        let _ = stream.write_all(frame.as_bytes());
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
        self.writer.send_line(event_frame(self.id, &event));
    }
}

/// A cached deterministic response payload.
#[derive(Debug, Clone)]
pub(crate) struct CachedResponse {
    /// The request verb that produced it.
    pub kind: &'static str,
    /// The `result` member, rendered once when first computed
    /// ([`crate::protocol::render`]); every reply splices these bytes.
    pub result: Arc<str>,
}

impl CachedResponse {
    /// The ok frame answering request `id` with this payload.
    pub fn frame(&self, id: u64, cached: bool, meta: Option<&Value>) -> String {
        ok_frame_rendered(id, self.kind, cached, &self.result, meta)
    }
}

/// The bounded response cache: LRU over a logical clock. Every hit
/// re-stamps its entry; inserting past the cap evicts the
/// least-recently-used entry, so a long-lived daemon's memory is bounded
/// by `cap` responses no matter how many distinct requests it serves.
/// Recomputing an evicted response is always safe — responses are
/// deterministic functions of their key. A stamp-ordered index of the
/// keys makes every hit, insert and eviction O(log n).
#[derive(Debug)]
struct ResponseCache {
    entries: BTreeMap<String, (CachedResponse, u64)>,
    /// Each entry's stamp → its key, least recently used first.
    recency: BTreeMap<u64, String>,
    /// Monotonic use stamp; bumped on every hit and insert.
    clock: u64,
    /// Maximum entries kept; at least 1.
    cap: usize,
    /// Bytes of the cached keys and rendered results.
    bytes: usize,
}

impl ResponseCache {
    fn new(cap: usize) -> Self {
        Self {
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            cap: cap.max(1),
            bytes: 0,
        }
    }

    fn get(&mut self, key: &str) -> Option<CachedResponse> {
        self.clock += 1;
        let (resp, used) = self.entries.get_mut(key)?;
        let last = std::mem::replace(used, self.clock);
        if let Some(key) = self.recency.remove(&last) {
            self.recency.insert(self.clock, key);
        }
        Some(resp.clone())
    }

    /// Inserts (or refreshes) `key`; returns how many entries were
    /// evicted to stay within the cap.
    fn insert(&mut self, key: String, response: CachedResponse) -> u64 {
        self.clock += 1;
        self.bytes += key.len() + response.result.len();
        if let Some((old, last)) = self.entries.insert(key.clone(), (response, self.clock)) {
            self.bytes -= key.len() + old.result.len();
            self.recency.remove(&last);
        }
        self.recency.insert(self.clock, key);
        let mut evicted = 0;
        while self.entries.len() > self.cap {
            let Some((_, oldest)) = self.recency.pop_first() else {
                // mppm-lint: allow(panic-reaches-handler): the loop condition guarantees the cache is non-empty, and `recency` holds one stamp per entry
                unreachable!("non-empty cache has a least recent entry")
            };
            if let Some((gone, _)) = self.entries.remove(&oldest) {
                self.bytes -= oldest.len() + gone.result.len();
            }
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

/// Server-side service times of predict requests, in µs from the start
/// of handling to the reply's write, split by whether the reply was
/// served warm (a cache hit or a dedup join) or solved. Telemetry for
/// the `stats` verb only: no `result` member ever reads it.
#[derive(Debug)]
struct ServiceTimes {
    hit: QuantileSketch,
    miss: QuantileSketch,
}

/// Sizes and latencies the `stats` verb reports beside the counters.
#[derive(Debug)]
pub(crate) struct Gauges {
    /// Cached responses.
    pub responses: usize,
    /// Bytes of the cached keys and rendered results.
    pub response_bytes: usize,
    /// Computations in flight.
    pub inflight: usize,
    /// Campaigns queued for the executor.
    pub queued: usize,
    /// Predict service times, `(warm, solved)`.
    pub predict_us: (QuantileSketch, QuantileSketch),
}

/// Everything the daemon shares across connections.
pub struct ServerState {
    store: Arc<Store>,
    observer: Observer,
    socket: PathBuf,
    responses: Mutex<ResponseCache>,
    service: Mutex<ServiceTimes>,
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
            service: Mutex::new(ServiceTimes {
                hit: QuantileSketch::new(),
                miss: QuantileSketch::new(),
            }),
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

    /// Renders `result` once and caches it under `key`; the returned
    /// response builds every reply from those bytes.
    pub(crate) fn insert_response(
        &self,
        key: String,
        kind: &'static str,
        result: &Value,
    ) -> CachedResponse {
        let response = CachedResponse { kind, result: render(result).into() };
        let evicted = relock(self.responses.lock()).insert(key, response.clone());
        if evicted > 0 {
            self.counters.evictions.add(evicted);
        }
        response
    }

    /// Records one predict request's service time.
    pub(crate) fn record_predict(&self, warm: bool, micros: f64) {
        let mut service = relock(self.service.lock());
        if warm { &mut service.hit } else { &mut service.miss }.push(micros);
    }

    /// A snapshot of the cache sizes and service times.
    pub(crate) fn gauges(&self) -> Gauges {
        let (responses, response_bytes) = {
            let cache = relock(self.responses.lock());
            (cache.entries.len(), cache.bytes)
        };
        let service = relock(self.service.lock());
        Gauges {
            responses,
            response_bytes,
            inflight: relock(self.inflight.lock()).len(),
            queued: relock(self.queue.lock()).jobs.len(),
            predict_us: (service.hit.clone(), service.miss.clone()),
        }
    }

    /// Serves `key` from the response cache, joins an identical
    /// in-flight computation, or computes (and caches) it. Returns the
    /// response, the computation's `meta`, and whether it was served
    /// warm.
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
    ) -> Result<(CachedResponse, Option<Value>, bool), ProtoError>
    where
        F: FnOnce() -> Result<(Value, Option<Value>), ProtoError>,
    {
        if let Some(hit) = self.cached(key) {
            self.counters.cache_hits.incr();
            return Ok((hit, None, true));
        }
        let mut inflight = relock(self.inflight.lock());
        if inflight.contains(key) {
            self.counters.dedup_joins.incr();
        }
        while inflight.contains(key) {
            inflight = relock(self.inflight_cv.wait(inflight));
            if let Some(hit) = self.cached(key) {
                self.counters.cache_hits.incr();
                return Ok((hit, None, true));
            }
            // The computing thread failed; take over below.
        }
        inflight.insert(key.to_string());
        drop(inflight);
        let outcome = compute()
            .map(|(result, meta)| (self.insert_response(key.to_string(), kind, &result), meta, false));
        relock(self.inflight.lock()).remove(key);
        self.inflight_cv.notify_all();
        outcome
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
            w.writer.send_line(crate::protocol::err_frame(
                w.id,
                codes::CANCELED,
                "request canceled before it ran",
            ));
        }
        !removed.is_empty()
    }
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let gauges = self.gauges();
        f.debug_struct("ServerState")
            .field("socket", &self.socket)
            .field("responses", &gauges.responses)
            .field("inflight", &gauges.inflight)
            .field("queued", &gauges.queued)
            .field("shutdown", &self.is_shutdown())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(tag: &str) -> CachedResponse {
        CachedResponse { kind: "predict", result: render(&Value::from(tag)).into() }
    }

    fn rendered(tag: &str) -> Option<Arc<str>> {
        Some(render(&Value::from(tag)).into())
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
    fn eviction_order_is_least_recently_used() {
        // Hits and refreshes reorder the entries; every eviction past
        // the cap must take the least recently used of the rest.
        let mut cache = ResponseCache::new(4);
        for key in ["a", "b", "c", "d"] {
            cache.insert(key.into(), resp(key));
        }
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        cache.insert("b".into(), resp("b2"));
        // Least to most recent: d, a, c, b.
        for (new, gone) in [("e", "d"), ("f", "a"), ("g", "c"), ("h", "b")] {
            assert_eq!(cache.insert(new.into(), resp(new)), 1);
            assert!(!cache.entries.contains_key(gone), "inserting {new} evicts {gone}");
            assert_eq!(cache.entries.len(), 4);
        }
    }

    #[test]
    fn refreshing_an_existing_key_does_not_evict() {
        let mut cache = ResponseCache::new(2);
        cache.insert("a".into(), resp("a"));
        cache.insert("b".into(), resp("b"));
        assert_eq!(cache.insert("a".into(), resp("a2")), 0, "overwrite stays within cap");
        assert_eq!(cache.get("a").map(|r| r.result), rendered("a2"));
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
    fn matches_a_naive_lru_over_thousands_of_inserts_and_hits() {
        // A seeded stream of 4,096 inserts and as many lookups over 2,048
        // keys against a 1,024-entry cache, checked step by step against
        // a list kept in recency order.
        let mut cache = ResponseCache::new(1024);
        let mut naive: Vec<String> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next_key = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            format!("k{}", state % 2048)
        };
        let (mut hits, mut evictions) = (0, 0);
        for _ in 0..4096 {
            let key = next_key();
            naive.retain(|k| *k != key);
            naive.push(key.clone());
            let gone: Vec<String> = naive.drain(..naive.len().saturating_sub(1024)).collect();
            let evicted = cache.insert(key.clone(), resp(&key));
            assert_eq!(evicted, gone.len() as u64, "inserting {key}");
            evictions += evicted;
            for k in &gone {
                assert!(!cache.entries.contains_key(k), "{k} was the least recently used");
            }

            let held: usize =
                cache.entries.iter().map(|(k, (r, _))| k.len() + r.result.len()).sum();
            assert_eq!(cache.bytes, held, "bytes track the cached keys and results");

            let key = next_key();
            let got = cache.get(&key);
            if let Some(at) = naive.iter().position(|k| *k == key) {
                let k = naive.remove(at);
                naive.push(k);
                assert_eq!(got.map(|r| r.result), rendered(&key), "hit {key}");
                hits += 1;
            } else {
                assert!(got.is_none(), "miss {key}");
            }
        }
        assert!(hits > 500 && evictions > 500, "{hits} hits, {evictions} evictions");
        let mut by_recency: Vec<(u64, &String)> =
            cache.entries.iter().map(|(k, (_, used))| (*used, k)).collect();
        by_recency.sort();
        let order: Vec<&String> = by_recency.into_iter().map(|(_, k)| k).collect();
        assert_eq!(order, naive.iter().collect::<Vec<_>>(), "same entries, same recency order");
        assert!(cache.recency.values().eq(naive.iter()), "the index holds every key in order");
    }

    #[test]
    fn misses_are_none_and_do_not_disturb_order() {
        let mut cache = ResponseCache::new(8);
        assert!(cache.get("nope").is_none());
        cache.insert("a".into(), resp("a"));
        assert!(cache.get("nope").is_none());
        assert!(cache.get("a").is_some());
    }

    #[test]
    fn hit_miss_and_join_replies_differ_only_in_cached() {
        let dir = std::env::temp_dir().join(format!("mppmd-state-{}", std::process::id()));
        let store = Arc::new(Store::open(&dir).unwrap());
        let state =
            Arc::new(ServerState::new(store, Observer::with_sinks(Vec::new()), dir.join("s"), 8));
        let joins = |state: &ServerState| {
            state
                .observer()
                .counter_snapshot()
                .into_iter()
                .find(|(n, _)| n == "server.dedup_join")
                .map_or(0, |(_, v)| v)
        };
        let result = Value::Object(vec![
            ("cpi_mc".to_string(), Value::Array(vec![Value::Float(-0.0), Value::Float(1e-300)])),
            ("stp".to_string(), Value::Float(2.0)),
        ]);
        let (started, computing) = std::sync::mpsc::channel();
        let joiner = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                computing.recv().unwrap();
                state.serve_deduped("k", "predict", || unreachable!("a join does not compute"))
            })
        };
        // The computation finishes only once the second request has
        // joined it, so that request is a dedup join, not a hit.
        let miss = state.serve_deduped("k", "predict", || {
            started.send(()).unwrap();
            while joins(&state) == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Ok((result.clone(), None))
        });
        let join = joiner.join().unwrap();
        let hit = state.serve_deduped("k", "predict", || unreachable!("a hit does not compute"));
        let frame = |outcome: Result<(CachedResponse, Option<Value>, bool), ProtoError>| {
            let (response, meta, cached) = outcome.unwrap();
            (response.frame(9, cached, meta.as_ref()), cached)
        };
        let (miss, join, hit) = (frame(miss), frame(join), frame(hit));
        assert_eq!((miss.1, join.1, hit.1), (false, true, true));
        assert_eq!(miss.0, crate::protocol::ok_frame(9, "predict", false, result, None));
        let warm = miss.0.replace("\"cached\":false", "\"cached\":true");
        assert_eq!(join.0, warm);
        assert_eq!(hit.0, warm);
        assert_eq!(joins(&state), 1);
        let gauges = state.gauges();
        assert_eq!((gauges.responses, gauges.inflight), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
