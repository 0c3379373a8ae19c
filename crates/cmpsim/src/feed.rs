//! The chunk pipeline behind every trace a run does not take from a
//! [`crate::TraceCache`]: the single-core profiler and streamed
//! [`crate::MixSim`] runs (DESIGN.md §12.1).
//!
//! A scoped generator thread owns the generation of one
//! [`TraceStream`] per core. It refills fixed-size [`TraceChunk`]s that
//! the calling thread hands back on one shared *spent* channel, tagged
//! with the core index, and sends each refilled chunk on that core's
//! ring. The calling thread replays the chunks through the burst kernel
//! ([`Feeds::burst`]). Each core owns [`CHUNK_BUFFERS`] buffers, so no
//! channel send ever blocks and the generator never stalls on one core
//! while another waits.
//!
//! The calling thread allocates — and frees — everything the pipeline
//! uses: the streams, the channels and the chunk buffers. Frees on the
//! generator thread would land in the calling thread's heap at
//! timing-dependent moments, and bulk allocations there would fill a
//! malloc arena of its own; either makes the process's peak RSS vary run
//! to run. Only std's thread and channel bookkeeping allocates over
//! there (a few small blocks; `tests/alloc_steady.rs`).

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread;

use mppm_trace::TraceStream;

use crate::engine::TraceChunk;
use crate::{BurstStop, CoreEngine};

/// Ops per pipeline chunk: 53 KB of columns, small enough that the
/// buffers in flight stay cache-resident, large enough that channel
/// hand-offs are rare next to the work per chunk.
pub(crate) const CHUNK_OPS: usize = 4096;

/// Chunk buffers in flight per core: one replaying, one filling, one
/// queued.
pub(crate) const CHUNK_BUFFERS: usize = 3;

/// The calling thread's end of the pipeline: one ring of filled chunks
/// per core and the spent channel all cores share.
pub(crate) struct Feeds {
    full: Vec<Receiver<TraceChunk>>,
    spent: SyncSender<(usize, TraceChunk)>,
}

impl Feeds {
    /// The next chunk of core `idx`'s stream.
    pub(crate) fn next(&self, idx: usize) -> TraceChunk {
        self.full[idx].recv().expect("the generator refills every stream until the feeds hang up")
    }

    /// [`CoreEngine::run_until_llc`] for the fed engine of core `idx`:
    /// a burst that reaches the end of its held chunk swaps in the next
    /// one and continues in place, so it stops exactly where a burst over
    /// the whole trace would.
    pub(crate) fn burst(&self, idx: usize, engine: &mut CoreEngine, limit: u64) -> BurstStop {
        loop {
            if let Some(stop) = engine.run_fed_until_llc(limit) {
                return stop;
            }
            let spent = engine.feed(self.next(idx));
            self.spent.send((idx, spent)).expect("the generator runs until the feeds hang up");
        }
    }
}

/// Runs `consume` on the calling thread against chunk feeds of
/// `streams`, which a scoped generator thread drains in chunks of at
/// most `chunk_ops` ops, none past stream position `end` (`u64::MAX`:
/// for as long as `consume` runs). The streams are left wherever the
/// generator stopped.
pub(crate) fn with_feeds<R>(
    streams: &mut [TraceStream],
    end: u64,
    chunk_ops: usize,
    consume: impl FnOnce(&Feeds) -> R,
) -> R {
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
    thread::scope(|scope| {
        let generator = scope.spawn(move || {
            // Ends when the feeds hang up the spent channel.
            while let Ok((idx, mut chunk)) = spent_rx.recv() {
                chunk.refill(&mut streams[idx], end, chunk_ops);
                // A hang-up here means the consumer is unwinding.
                let _ = full_tx[idx].send(chunk);
            }
            // Handed back so the chunks still queued are freed on the
            // calling thread.
            (spent_rx, full_tx)
        });
        let feeds = Feeds { full, spent: spent_tx };
        let out = consume(&feeds);
        let Feeds { full, spent } = feeds;
        drop(spent);
        let endpoints = generator.join().expect("the generator thread does not panic");
        drop((endpoints, full));
        out
    })
}
