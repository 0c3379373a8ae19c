//! Reusable per-worker simulation scratch — the allocation-free steady
//! state (DESIGN.md §14).
//!
//! A [`SimArena`] owns every heap structure a detailed mix simulation
//! needs: the [`Uncore`] (LLC slabs + memory channel), one pooled
//! [`CoreEngine`] per core (each holding its private L1/L2 slabs), the
//! scheduler's event heap, the interleaver's bookkeeping vectors, and the
//! chunk buffers and cursors of cached replays, and the skip-ahead
//! recordings and snapshots ([`crate::skip`]). It holds no traces
//! between runs: those come from the run's [`crate::TraceCache`] or are
//! streamed. [`crate::MixSim::arena`] threads one through a run;
//! between runs everything is *reset in place* — `clear()` + `resize()`
//! on vectors, [`SetAssocCache::reinit`](mppm_cache::SetAssocCache) on
//! cache slabs — never reallocated, so after the first mix of a given
//! shape a worker whose runs resolve traces through a warm
//! [`crate::TraceCache`] performs **zero** heap allocations per
//! simulation (proven by the counting-allocator harness in
//! `tests/alloc_steady.rs`). A streamed run allocates a constant on
//! top: its generator thread, streams and chunk buffers.
//!
//! # Reset invariants
//!
//! Correctness does not rest on "we remembered to clear everything" —
//! it rests on two stronger properties, both differentially tested:
//!
//! 1. **Reset ≡ fresh.** Every pooled structure's `reinit`/`reset`
//!    restores the exact observable state of a newly constructed one
//!    (unit-tested per structure, e.g.
//!    `reinit_with_matching_shape_behaves_like_fresh` in `mppm-cache`).
//! 2. **Single code path.** A run *without* an arena builds a throwaway
//!    [`SimArena`] internally and executes the identical code, so the
//!    arena path cannot drift from the fresh path — they are the same
//!    path. Bit-exactness is pinned by the golden snapshot and the
//!    proptest oracle (`tests/differential.rs`).
//!
//! Together with the zero-allocation proof these rule out cross-mix
//! state leaks: if a warm run allocates nothing and produces bytes
//! identical to a cold run, no stale state influenced it.
//!
//! Shape changes are safe, not just same-shape reuse: interleaving
//! mixes of different core counts or LLC geometries through one arena
//! re-shapes the pools (growing reallocates once, shrinking truncates)
//! and stays bit-exact — property-tested by
//! `arena_reuse_matches_fresh_allocation` in `tests/differential.rs`.
//!
//! # Ownership model
//!
//! One arena per worker thread, owned by the worker loop and lent to
//! each run (`&mut` — runs through one arena are necessarily serial).
//! Arenas are `Send` (no interior sharing), so pools can hand them
//! across threads, but they are deliberately not `Sync`: there is
//! nothing useful to share. The campaign executor keeps one per worker
//! via `parallel_map_with`; the `mppmd` store keeps a checkout pool.

use std::collections::BinaryHeap;
use std::sync::Arc;

use mppm_trace::{CompiledTrace, PhaseRun};

use crate::feed::RunCursor;
use crate::multi::{Event, InterleaveState};
use crate::skip::Skipper;
use crate::{CoreEngine, Uncore};

/// Reusable, resettable scratch for detailed mix simulations: engine
/// and cache pools, scheduler heap and interleaver state. See the
/// [module docs](self) for the reset invariants and ownership model, and
/// [`crate::MixSim::arena`] for usage.
///
/// ```
/// use mppm_sim::{MachineConfig, MixSim, SimArena, TraceCache};
/// use mppm_trace::{suite, TraceGeometry};
///
/// let gamess = suite::benchmark("gamess").unwrap();
/// let lbm = suite::benchmark("lbm").unwrap();
/// let machine = MachineConfig::baseline();
/// let (mut arena, traces) = (SimArena::new(), TraceCache::new());
/// // The first run warms the arena and the cache; later runs allocate
/// // nothing.
/// let warm = MixSim::new(&[gamess, lbm], &machine, TraceGeometry::tiny())
///     .trace_cache(&traces)
///     .arena(&mut arena)
///     .run();
/// let again = MixSim::new(&[gamess, lbm], &machine, TraceGeometry::tiny())
///     .trace_cache(&traces)
///     .arena(&mut arena)
///     .run();
/// assert_eq!(warm, again);
/// ```
pub struct SimArena {
    /// Pooled LLC slabs + memory channel; `None` until the first run.
    pub(crate) uncore: Option<Uncore>,
    /// Pooled per-core engines (private L1/L2 slabs live inside).
    /// Re-shaped to the mix's core count each run.
    pub(crate) engines: Vec<CoreEngine>,
    /// The event scheduler's heap; never holds more than one event per
    /// core, so a warm heap never grows.
    pub(crate) heap: BinaryHeap<Event>,
    /// Interleaver bookkeeping (measurement windows, per-core LLC
    /// tallies).
    pub(crate) state: InterleaveState,
    /// Scratch for the implicit all-ones `core_factors` slice.
    pub(crate) unit_factors: Vec<f64>,
    /// Chunk buffers of cached replays, lent to the engines for a run.
    pub(crate) chunks: Vec<PhaseRun>,
    /// Each core's cached trace and replay cursor during a cached run;
    /// empty between runs.
    pub(crate) replays: Vec<(Arc<CompiledTrace>, RunCursor)>,
    /// Skip-ahead state: per-core positions and the recorded passes,
    /// snapshots included, reset in place each run.
    pub(crate) skip: Skipper,
}

impl SimArena {
    /// An empty (cold) arena holding no allocations. The first run
    /// through it allocates exactly what an arena-less run would; later
    /// runs reuse those buffers.
    pub fn new() -> Self {
        Self {
            uncore: None,
            engines: Vec::new(),
            heap: BinaryHeap::new(),
            state: InterleaveState::empty(),
            unit_factors: Vec::new(),
            chunks: Vec::new(),
            replays: Vec::new(),
            skip: Skipper::default(),
        }
    }

    /// Drops every pooled structure, returning the arena to its cold
    /// state. Useful when a worker moves to a workload with permanently
    /// different shapes and wants the memory back; never required for
    /// correctness.
    pub fn clear(&mut self) {
        *self = Self::new();
    }
}

impl Default for SimArena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SimArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimArena")
            .field("warm", &self.uncore.is_some())
            .field("engines", &self.engines.len())
            .finish_non_exhaustive()
    }
}
