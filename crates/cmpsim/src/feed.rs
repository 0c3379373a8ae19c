//! The chunk feeds behind every fed engine (DESIGN.md §12.1): the
//! single-core profilers and every [`crate::MixSim`] run.
//!
//! A fed engine replays [`PhaseRun`] chunks through the burst kernel, and
//! [`burst`] swaps in the next chunk whenever the held one is spent and
//! bursts on in place, so a burst stops exactly where one over the whole
//! trace would. The next chunk comes from one of two sources.
//!
//! **A cached trace** ([`RunCursor`]). The calling thread copies the next
//! ops of the current run of a [`CompiledTrace`], at most a chunk's
//! worth, into the core's spent buffer. No thread is involved, and the
//! buffers are pooled in the [`crate::SimArena`], so a warm run copies
//! without allocating.
//!
//! **The generator ring** ([`with_feeds`]), for traces no cache holds.
//! Each core's [`TraceStream`] sits behind a lock of its own. A scoped
//! generator thread refills fixed-size chunks that the calling thread
//! hands back on one shared *spent* channel, tagged with the core index,
//! and sends each refilled chunk on that core's ring while still holding
//! that core's lock. Each core owns [`CHUNK_BUFFERS`] buffers, so no
//! channel send ever blocks and the generator never stalls on one core
//! while another waits.
//!
//! The work is shared: a burst that finds its core's ring empty takes
//! the core's lock if it is free. Under the lock the ring is exact — the
//! generator is neither cutting nor sending for that core — so if the
//! ring is still empty the next chunk in stream order has not been cut,
//! and the calling thread cuts it itself, into the buffer it just spent,
//! instead of waiting. Either thread cuts a chunk by the same
//! [`PhaseRun::refill`], so chunk contents and boundaries depend only
//! on the stream, never on which thread cut them.
//!
//! The calling thread allocates — and frees — everything the ring uses:
//! the streams, the channels and the chunk buffers. Frees on the
//! generator thread would land in the calling thread's heap at
//! timing-dependent moments, and bulk allocations there would fill a
//! malloc arena of its own; either makes the process's peak RSS vary run
//! to run. Only std's thread and channel bookkeeping allocates over
//! there (a few small blocks; `tests/alloc_steady.rs`).

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;

use mppm_trace::{CompiledTrace, PhaseRun, TraceStream};

use crate::engine::TraceSource;
use crate::{BurstStop, CoreEngine};

/// Ops per chunk: 32 KB of op words, small enough that the buffers in
/// flight stay cache-resident, large enough that hand-offs are rare next
/// to the work per chunk.
pub(crate) const CHUNK_OPS: usize = 4096;

/// Chunk buffers in flight per core on the generator ring: one
/// replaying, one filling, one queued.
pub(crate) const CHUNK_BUFFERS: usize = 3;

/// [`CoreEngine::run_until_llc`] for a fed engine: bursts to `limit`,
/// calling `refeed` to hand the engine its next chunk whenever the held
/// one is spent.
#[inline(always)]
pub(crate) fn burst(
    engine: &mut CoreEngine,
    limit: u64,
    refeed: impl FnMut(&mut CoreEngine),
) -> BurstStop {
    walk(engine, |engine| engine.run_fed_until_llc(limit), refeed)
}

/// Runs `step` — one walk over the held chunk, `None` when it runs out —
/// until it stops, refeeding between walks: [`burst`] for any walk
/// ([`CoreEngine::run_fed`]).
#[inline(always)]
pub(crate) fn walk(
    engine: &mut CoreEngine,
    mut step: impl FnMut(&mut CoreEngine) -> Option<BurstStop>,
    mut refeed: impl FnMut(&mut CoreEngine),
) -> BurstStop {
    loop {
        if let Some(stop) = step(engine) {
            return stop;
        }
        refeed(engine);
    }
}

/// Where a cached replay stands in its [`CompiledTrace`]: the run and
/// the op within it that the next chunk starts at.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunCursor {
    run: usize,
    op: usize,
}

impl RunCursor {
    /// Copies the next ops of `trace`'s current run, at most `max_ops`,
    /// into `chunk`, wrapping to the first run after the last.
    pub(crate) fn cut(&mut self, trace: &CompiledTrace, chunk: &mut PhaseRun, max_ops: usize) {
        let runs = trace.runs();
        if self.run == runs.len() {
            self.run = 0;
        }
        let run = &runs[self.run];
        self.op += chunk.copy_from(run, self.op, max_ops);
        if self.op == run.ops().len() {
            self.run += 1;
            self.op = 0;
        }
    }
}

/// A fed source replaying `trace` from its start, its first chunk cut
/// into `buffer`, and the cursor that cuts the rest.
pub(crate) fn cached(
    trace: &CompiledTrace,
    mut buffer: PhaseRun,
    max_ops: usize,
) -> (TraceSource, RunCursor) {
    let mut cursor = RunCursor::default();
    cursor.cut(trace, &mut buffer, max_ops);
    (TraceSource::fed(buffer, Arc::clone(trace.spec()), trace.geometry()), cursor)
}

/// The calling thread's end of the generator ring: one ring of filled
/// chunks per core, the spent channel all cores share, and the streams.
pub(crate) struct Feeds<'s> {
    full: Vec<Receiver<PhaseRun>>,
    spent: SyncSender<(usize, PhaseRun)>,
    streams: &'s [Mutex<TraceStream>],
    end: u64,
    chunk_ops: usize,
}

impl Feeds<'_> {
    /// The next chunk of core `idx`'s stream, waiting for the generator.
    pub(crate) fn next(&self, idx: usize) -> PhaseRun {
        self.full[idx].recv().expect("the generator refills every stream until the feeds hang up")
    }

    /// [`burst`] for the fed engine of core `idx`, its next chunk taken
    /// from the ring — or cut on this thread when the ring is empty and
    /// the generator is not cutting for that core.
    pub(crate) fn burst(&self, idx: usize, engine: &mut CoreEngine, limit: u64) -> BurstStop {
        burst(engine, limit, |engine| self.refeed(idx, engine))
    }

    /// Hands the fed engine of core `idx`, whose held chunk is spent, the
    /// next chunk of its stream: [`Self::burst`]'s refeed.
    pub(crate) fn refeed(&self, idx: usize, engine: &mut CoreEngine) {
        let chunk = match self.full[idx].try_recv() {
            Ok(chunk) => chunk,
            Err(_) => match self.streams[idx].try_lock() {
                // The generator sends under this lock, so an empty
                // ring here means the next chunk is not cut yet.
                Ok(mut stream) => match self.full[idx].try_recv() {
                    Ok(chunk) => chunk,
                    Err(_) => {
                        engine.refeed(|chunk| {
                            chunk.refill(&mut stream, self.end, self.chunk_ops);
                        });
                        return;
                    }
                },
                Err(_) => self.next(idx),
            },
        };
        let spent = engine.feed(chunk);
        self.spent.send((idx, spent)).expect("the generator runs until the feeds hang up");
    }
}

/// Runs `consume` on the calling thread against chunk feeds of
/// `streams`, one per core, which the generator thread and the calling
/// thread between them cut into chunks of at most `chunk_ops` ops, none
/// past stream position `end` (`u64::MAX`: for as long as `consume`
/// runs).
pub(crate) fn with_feeds<R>(
    streams: impl IntoIterator<Item = TraceStream>,
    end: u64,
    chunk_ops: usize,
    consume: impl FnOnce(&Feeds) -> R,
) -> R {
    let streams: Vec<Mutex<TraceStream>> = streams.into_iter().map(Mutex::new).collect();
    let cores = streams.len();
    let (spent_tx, spent_rx) = mpsc::sync_channel(cores * CHUNK_BUFFERS);
    let (full_tx, full): (Vec<_>, Vec<_>) =
        (0..cores).map(|_| mpsc::sync_channel::<PhaseRun>(CHUNK_BUFFERS)).unzip();
    for idx in 0..cores {
        for _ in 0..CHUNK_BUFFERS {
            spent_tx
                .send((idx, PhaseRun::with_capacity(chunk_ops)))
                .expect("the spent channel holds every buffer");
        }
    }
    let streams = &streams[..];
    thread::scope(|scope| {
        let generator = scope.spawn(move || {
            // Ends when the feeds hang up the spent channel.
            while let Ok((idx, mut chunk)) = spent_rx.recv() {
                let mut stream =
                    streams[idx].lock().expect("no thread panics while cutting a chunk");
                chunk.refill(&mut stream, end, chunk_ops);
                // Sent under the lock (the send never blocks), so a
                // burst holding the lock sees every chunk cut so far.
                // A hang-up here means the consumer is unwinding.
                let _ = full_tx[idx].send(chunk);
            }
            // Handed back so the chunks still queued are freed on the
            // calling thread.
            (spent_rx, full_tx)
        });
        let feeds = Feeds { full, spent: spent_tx, streams, end, chunk_ops };
        let out = consume(&feeds);
        let Feeds { full, spent, .. } = feeds;
        drop(spent);
        let endpoints = generator.join().expect("the generator thread does not panic");
        drop((endpoints, full));
        out
    })
}
