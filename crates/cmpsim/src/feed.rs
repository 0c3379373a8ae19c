//! The chunk pipeline behind every trace a run does not take from a
//! [`crate::TraceCache`]: the single-core profiler and streamed
//! [`crate::MixSim`] runs (DESIGN.md §12.1).
//!
//! Each core's [`TraceStream`] sits behind a lock of its own. A scoped
//! generator thread refills fixed-size [`TraceChunk`]s that the calling
//! thread hands back on one shared *spent* channel, tagged with the core
//! index, and sends each refilled chunk on that core's ring while still
//! holding that core's lock. The calling thread replays the chunks
//! through the burst kernel ([`Feeds::burst`]). Each core owns
//! [`CHUNK_BUFFERS`] buffers, so no channel send ever blocks and the
//! generator never stalls on one core while another waits.
//!
//! The work is shared: a burst that finds its core's ring empty takes
//! the core's lock if it is free. Under the lock the ring is exact — the
//! generator is neither cutting nor sending for that core — so if the
//! ring is still empty the next chunk in stream order has not been cut,
//! and the calling thread cuts it itself, into the buffer it just spent,
//! instead of waiting. Either thread cuts a chunk by the same
//! [`TraceChunk::refill`], so chunk contents and boundaries depend only
//! on the stream, never on which thread cut them.
//!
//! The calling thread allocates — and frees — everything the pipeline
//! uses: the streams, the channels and the chunk buffers. Frees on the
//! generator thread would land in the calling thread's heap at
//! timing-dependent moments, and bulk allocations there would fill a
//! malloc arena of its own; either makes the process's peak RSS vary run
//! to run. Only std's thread and channel bookkeeping allocates over
//! there (a few small blocks; `tests/alloc_steady.rs`).

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Mutex;
use std::thread;

use mppm_trace::TraceStream;

use crate::engine::TraceChunk;
use crate::{BurstStop, CoreEngine};

/// Ops per pipeline chunk: 32 KB of op words, small enough that the
/// buffers in flight stay cache-resident, large enough that channel
/// hand-offs are rare next to the work per chunk.
pub(crate) const CHUNK_OPS: usize = 4096;

/// Chunk buffers in flight per core: one replaying, one filling, one
/// queued.
pub(crate) const CHUNK_BUFFERS: usize = 3;

/// The calling thread's end of the pipeline: one ring of filled chunks
/// per core, the spent channel all cores share, and the streams.
pub(crate) struct Feeds<'s> {
    full: Vec<Receiver<TraceChunk>>,
    spent: SyncSender<(usize, TraceChunk)>,
    streams: &'s [Mutex<TraceStream>],
    end: u64,
    chunk_ops: usize,
}

impl Feeds<'_> {
    /// The next chunk of core `idx`'s stream, waiting for the generator.
    pub(crate) fn next(&self, idx: usize) -> TraceChunk {
        self.full[idx].recv().expect("the generator refills every stream until the feeds hang up")
    }

    /// [`CoreEngine::run_until_llc`] for the fed engine of core `idx`:
    /// a burst that reaches the end of its held chunk swaps in the next
    /// one — from the ring, or cut on this thread when the ring is empty
    /// and the generator is not cutting for that core — and continues in
    /// place, so it stops exactly where a burst over the whole trace
    /// would.
    pub(crate) fn burst(&self, idx: usize, engine: &mut CoreEngine, limit: u64) -> BurstStop {
        loop {
            if let Some(stop) = engine.run_fed_until_llc(limit) {
                return stop;
            }
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
                            continue;
                        }
                    },
                    Err(_) => self.next(idx),
                },
            };
            let spent = engine.feed(chunk);
            self.spent.send((idx, spent)).expect("the generator runs until the feeds hang up");
        }
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
        (0..cores).map(|_| mpsc::sync_channel::<TraceChunk>(CHUNK_BUFFERS)).unzip();
    for idx in 0..cores {
        for _ in 0..CHUNK_BUFFERS {
            spent_tx
                .send((idx, TraceChunk::with_capacity(chunk_ops)))
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
