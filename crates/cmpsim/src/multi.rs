//! Detailed multi-core simulation of a multi-program workload.
//!
//! [`MixSim`] drives a mix with the event-driven scheduler: each core
//! executes compute items and private L1/L2 hits in a local *burst*
//! ([`CoreEngine::run_until_llc`]) that touches no shared state; only
//! shared-LLC/memory-channel events enter a binary heap keyed on
//! `(arrival timestamp, core index)` and commit in that order. Cost per
//! shared event is O(log cores), and the vast majority of trace items
//! never pay any global-ordering cost at all.
//!
//! The original smallest-clock-first loop it replaced lives on in
//! [`crate::reference`] as the oracle a differential test
//! (`tests/differential.rs`) holds it to, bit for bit. Both commit shared
//! events in identical order because smallest-clock-first stepping *is* a
//! merge of the per-core step sequences by `(pre-step clock, core index)`
//! — see DESIGN.md §9 for the argument.
//!
//! Every core is fed [`mppm_trace::PhaseRun`] chunks through one burst
//! loop ([`crate::feed`]); where the chunks come from depends on whether
//! the caller passes a [`TraceCache`]. Without one, a generator thread
//! streams them from each core's live trace, so a run holds a few 32 KB
//! buffers per core instead of whole compiled traces. With one, the
//! calling thread copies them out of the cache's compiled traces, which
//! pays off wherever a trace is reused across runs (`Store`, hence
//! `mppmd` and every figure). A burst crosses chunk ends in place, so
//! the two are bit-identical down to the scheduler's heap traffic.
//!
//! On both, a core whose private caches have settled skips its bursts
//! ([`crate::skip`]): once one of its passes is recorded and shown to
//! repeat, each burst lands its LLC access in O(1), bit for bit, so the
//! FAME re-iteration of fast programs costs little more than their LLC
//! traffic.

use mppm_obs::{Span, Value};
use mppm_trace::{BenchmarkSpec, CompiledTrace, PhaseRun, TraceGeometry, TraceStream};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as MemOrdering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::arena::SimArena;
use crate::engine::TraceSource;
use crate::feed;
use crate::reference::Oracle;
use crate::skip::SkipStats;
use crate::{BurstStop, CoreEngine, MachineConfig, Uncore};

/// Measured outcome of one multi-program workload on the detailed
/// simulator.
///
/// Serializable so experiment harnesses can pin full results as golden
/// snapshots (floats survive the JSON round trip bit-exactly).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MixResult {
    /// Benchmark name per core.
    pub names: Vec<String>,
    /// Measured multi-core CPI per program, over its measurement trace
    /// (the first full trace after warmup).
    pub cpi_mc: Vec<f64>,
    /// Cycles each program's measurement window took (first-trace
    /// completion minus its warmup end).
    pub completion_cycles: Vec<f64>,
    /// Instructions in one trace (the measurement window per program).
    pub trace_insns: u64,
    /// Shared-LLC accesses observed during the whole run.
    pub llc_accesses: u64,
    /// Shared-LLC misses observed during the whole run.
    pub llc_misses: u64,
    /// Shared-LLC accesses per core over the whole run (scheduler-observed
    /// traffic; sums to [`MixResult::llc_accesses`]). Defaults to empty
    /// when absent from older snapshots.
    #[serde(default)]
    pub llc_accesses_per_core: Vec<u64>,
    /// Shared-LLC misses per core over the whole run (sums to
    /// [`MixResult::llc_misses`]).
    #[serde(default)]
    pub llc_misses_per_core: Vec<u64>,
}

impl MixResult {
    /// System throughput against the supplied isolated CPIs.
    ///
    /// # Panics
    ///
    /// Panics if `cpi_sc` has the wrong length (see
    /// [`mppm::metrics::stp`]).
    pub fn stp(&self, cpi_sc: &[f64]) -> f64 {
        mppm::metrics::stp(cpi_sc, &self.cpi_mc)
    }

    /// Average normalized turnaround time against the supplied isolated
    /// CPIs.
    ///
    /// # Panics
    ///
    /// Panics if `cpi_sc` has the wrong length.
    pub fn antt(&self, cpi_sc: &[f64]) -> f64 {
        mppm::metrics::antt(cpi_sc, &self.cpi_mc)
    }
}

/// Builder for one multi-program mix simulation — the single entry
/// point for detailed simulation.
///
/// Defaults: one warmup pass, unified LLC, homogeneous cores, no
/// observer. Every run uses the event-driven scheduler over trace chunks
/// streamed from a generator thread (and cut on the calling thread
/// whenever that saves a wait), or copied from compiled traces when a
/// [`TraceCache`] is attached; the retired paths are reachable only as
/// oracles, through [`crate::reference::run`].
///
/// ```
/// use mppm_sim::{MachineConfig, MixSim};
/// use mppm_trace::{suite, TraceGeometry};
///
/// let gamess = suite::benchmark("gamess").unwrap();
/// let lbm = suite::benchmark("lbm").unwrap();
/// let result = MixSim::new(&[gamess, lbm], &MachineConfig::baseline(), TraceGeometry::tiny())
///     .run();
/// assert_eq!(result.names, vec!["gamess", "lbm"]);
/// ```
#[must_use = "configure the mix, then call `.run()`"]
pub struct MixSim<'a> {
    specs: &'a [&'a BenchmarkSpec],
    machine: &'a MachineConfig,
    geometry: TraceGeometry,
    warmup_passes: u32,
    ways: Option<&'a [u32]>,
    core_factors: Option<&'a [f64]>,
    /// The retired path this run takes instead, if any
    /// ([`crate::reference::run`]).
    pub(crate) oracle: Option<Oracle>,
    /// Ops per fed chunk (tests force tiny chunks).
    pub(crate) chunk_ops: usize,
    /// Where skip-ahead recordings may start, when not at the end of the
    /// warmup (tests start them before the private caches settle).
    pub(crate) record_from: Option<u64>,
    observer: Option<&'a Span>,
    trace_cache: Option<&'a TraceCache>,
    arena: Option<&'a mut SimArena>,
}

impl<'a> MixSim<'a> {
    /// A mix of `specs`, one core each, on `machine` with `geometry`.
    pub fn new(
        specs: &'a [&'a BenchmarkSpec],
        machine: &'a MachineConfig,
        geometry: TraceGeometry,
    ) -> Self {
        Self {
            specs,
            machine,
            geometry,
            warmup_passes: 1,
            ways: None,
            core_factors: None,
            oracle: None,
            chunk_ops: feed::CHUNK_OPS,
            record_from: None,
            observer: None,
            trace_cache: None,
            arena: None,
        }
    }

    /// Full warmup trace passes per program before measurement
    /// (default 1).
    pub fn warmup_passes(mut self, passes: u32) -> Self {
        self.warmup_passes = passes;
        self
    }

    /// Way-partitions the LLC: core `i` owns `ways[i]` ways of every
    /// set (paper §2.3's partitioning discussion).
    pub fn partitioned(mut self, ways: &'a [u32]) -> Self {
        self.ways = Some(ways);
        self
    }

    /// Scales per-core compute throughput by `1/core_factors[i]`
    /// (1.0 = the baseline big core, 2.0 = a half-throughput little
    /// core) — the §8 heterogeneity extension.
    pub fn core_factors(mut self, factors: &'a [f64]) -> Self {
        self.core_factors = Some(factors);
        self
    }

    /// Attaches an observability span: the run emits one `mix-config`
    /// event, one `core` event per program, `llc`/`scheduler` counter
    /// summaries, and publishes registry counters — all at the end of
    /// the run, never from the hot loops. A disabled span costs
    /// nothing.
    pub fn observer(mut self, span: &'a Span) -> Self {
        self.observer = Some(span);
        self
    }

    /// Replays compiled traces resolved through a shared [`TraceCache`]
    /// instead of streaming each trace afresh (or recordings inserted
    /// into it with [`TraceCache::insert`]). Long-lived processes (the
    /// `mppmd` daemon, the experiment store) hand the same cache to
    /// every run so each `(spec, geometry)` pair is generated once per
    /// process rather than once per run. Results are bit-identical
    /// either way.
    pub fn trace_cache(mut self, cache: &'a TraceCache) -> Self {
        self.trace_cache = Some(cache);
        self
    }

    /// Runs this mix through a reusable [`SimArena`]: engines, cache
    /// slabs, the scheduler heap, and all interleaver bookkeeping are
    /// *reset in place* instead of reallocated, so a warm arena together
    /// with a warm [`TraceCache`] makes the whole run allocation-free at
    /// steady state (proven by the counting-allocator harness in
    /// `tests/alloc_steady.rs`). A streamed run still allocates its
    /// generator thread, streams and chunk buffers, a constant per run.
    ///
    /// Results are bit-identical with or without an arena: the no-arena
    /// path constructs a throwaway arena internally, so both run the
    /// exact same code. See DESIGN.md §14 for the ownership model.
    pub fn arena(mut self, arena: &'a mut SimArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Runs the simulation.
    ///
    /// Cores advance in local-time order (the core with the smallest
    /// local clock steps next), so shared-LLC accesses from different
    /// cores interleave in approximate timestamp order. Every program
    /// keeps re-iterating its trace until *all* programs have completed
    /// their measurement pass — the re-iteration methodology of Tuck &
    /// Tullsen / FAME — so contention stays live throughout. Each
    /// program first executes `warmup_passes` full traces (warming the
    /// caches, mirroring [`crate::profile_single_core`]); its
    /// multi-core CPI is then measured over its next full trace.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, or a configured `ways`/`core_factors`
    /// slice has the wrong length, or the ways do not sum to the LLC
    /// associativity.
    pub fn run(self) -> MixResult {
        let mut out = MixResult::default();
        self.run_into(&mut out);
        out
    }

    /// Runs the simulation, writing the result into `out` in place.
    ///
    /// Equivalent to [`MixSim::run`] but reuses `out`'s existing vector
    /// capacity — combined with [`MixSim::arena`] and
    /// [`MixSim::trace_cache`], a steady-state caller (the `Store`
    /// worker path) performs zero heap allocations per mix. `out`'s
    /// previous contents are overwritten entirely.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MixSim::run`].
    pub fn run_into(mut self, out: &mut MixResult) {
        let specs = self.specs;
        assert!(!specs.is_empty(), "a mix needs at least one program");
        // Without a caller-provided arena, run through a throwaway one:
        // the cold-arena path is exactly the old allocate-per-run
        // behavior, and both paths execute the same code.
        let mut local;
        let scratch = match self.arena.take() {
            Some(arena) => arena,
            None => {
                local = SimArena::new();
                &mut local
            }
        };
        let SimArena {
            uncore: uncore_slot,
            engines,
            heap,
            state,
            unit_factors,
            chunks,
            replays,
            skip,
        } = scratch;
        if let Some(ways) = self.ways {
            assert_eq!(ways.len(), specs.len(), "one way count per program");
        }
        match uncore_slot {
            Some(u) => u.reinit(self.machine, self.ways),
            None => {
                *uncore_slot = Some(match self.ways {
                    Some(ways) => Uncore::partitioned(self.machine, ways),
                    None => Uncore::new(self.machine),
                });
            }
        }
        let Some(uncore) = uncore_slot else { unreachable!("the uncore slot was just filled") };
        let factors = match self.core_factors {
            Some(f) => {
                assert_eq!(f.len(), specs.len(), "one core factor per program");
                f
            }
            None => {
                unit_factors.clear();
                unit_factors.resize(specs.len(), 1.0);
                unit_factors
            }
        };

        let alloc_start = mppm_obs::alloc::snapshot();
        let (machine, geometry) = (self.machine, self.geometry);
        let trace_insns = geometry.trace_insns();
        state.reset(specs.len(), trace_insns * u64::from(self.warmup_passes), trace_insns);
        let substrate = match (self.oracle, self.trace_cache) {
            (Some(oracle), _) => Substrate::Oracle(oracle),
            (None, None) => Substrate::Streamed,
            (None, Some(_)) => Substrate::Compiled,
        };
        let chunk_ops = self.chunk_ops;
        let mut batch = BatchStats::default();
        let record_from = trace_insns * u64::from(self.warmup_passes);
        skip.reset(specs, factors, self.record_from.unwrap_or(record_from));
        match substrate {
            Substrate::Streamed => {
                let shared: Vec<Arc<BenchmarkSpec>> =
                    specs.iter().map(|&s| Arc::new(s.clone())).collect();
                let streams = shared.iter().map(|s| TraceStream::new(Arc::clone(s), geometry));
                feed::with_feeds(streams, u64::MAX, chunk_ops, |feeds| {
                    place_engines(engines, machine, factors, |idx| {
                        TraceSource::fed(feeds.next(idx), Arc::clone(&shared[idx]), geometry)
                    });
                    event_interleave_into(engines, uncore, state, heap, |engine, idx, limit| {
                        skip.burst(engine, idx, limit, |engine| feeds.refeed(idx, engine))
                    });
                });
            }
            Substrate::Compiled => {
                let cache = self.trace_cache.expect("only runs with a cache resolve to it");
                // Chunk buffers and cursors come from the arena's pools
                // and go back to them, so a warm run allocates nothing.
                replays.clear();
                place_engines(engines, machine, factors, |idx| {
                    let trace = cache.get_or_compile(specs[idx], geometry);
                    batch.traces += 1;
                    batch.blocks += trace.runs().len() as u64;
                    batch.ops += trace.ops();
                    let buffer = chunks.pop().unwrap_or_else(|| PhaseRun::with_capacity(chunk_ops));
                    let (source, cursor) = feed::cached(&trace, buffer, chunk_ops);
                    replays.push((trace, cursor));
                    source
                });
                event_interleave_into(engines, uncore, state, heap, |engine, idx, limit| {
                    let (trace, cursor) = &mut replays[idx];
                    skip.burst(engine, idx, limit, |engine| {
                        engine.refeed(|chunk| cursor.cut(trace, chunk, chunk_ops));
                    })
                });
                chunks.extend(engines.iter_mut().map(CoreEngine::take_chunk));
                replays.clear();
            }
            Substrate::Oracle(oracle) => {
                place_engines(engines, machine, factors, |idx| {
                    TraceSource::Reference(TraceStream::new(specs[idx].clone(), geometry))
                });
                match oracle {
                    Oracle::LiveStream => {
                        event_interleave_into(engines, uncore, state, heap, |engine, _, limit| {
                            engine.run_until_llc(limit)
                        });
                    }
                    Oracle::SmallestClock => {
                        crate::reference::interleave_into(engines, uncore, state);
                    }
                }
            }
        }

        assign_names(&mut out.names, specs);
        out.trace_insns = trace_insns;
        out.completion_cycles.clear();
        out.completion_cycles.extend(
            state
                .completion
                .iter()
                .zip(&state.measure_start)
                .map(|(end, start)| {
                    end.expect("all programs completed")
                        - start.expect("warmup completed before the run ended")
                }),
        );
        out.cpi_mc.clear();
        out.cpi_mc.extend(out.completion_cycles.iter().map(|&c| c / trace_insns as f64));
        out.llc_accesses_per_core.clear();
        out.llc_accesses_per_core.extend_from_slice(&state.llc_accesses);
        out.llc_misses_per_core.clear();
        out.llc_misses_per_core.extend_from_slice(&state.llc_misses);
        out.llc_accesses = state.llc_accesses.iter().sum();
        out.llc_misses = state.llc_misses.iter().sum();
        // The scheduler-observed traffic and the caches' own counters are two
        // views of the same commits.
        debug_assert_eq!(
            (out.llc_accesses - out.llc_misses, out.llc_misses),
            uncore.llc_totals(),
            "per-core tallies must match the LLC's counters"
        );
        if let Some(span) = self.observer.filter(|s| s.is_enabled()) {
            batch.passes = engines.iter().map(CoreEngine::trace_passes).sum();
            let alloc = mppm_obs::alloc::snapshot().since(alloc_start);
            let skipped = skip.stats(trace_insns);
            let warmup = self.warmup_passes;
            publish_mix(span, uncore, state, out, warmup, substrate, batch, skipped, alloc);
        }
    }
}

/// Cross-run cache of compiled traces, shared by reference between
/// [`MixSim`] runs (see [`MixSim::trace_cache`]). Besides the traces it
/// compiles itself it holds the ones [inserted](TraceCache::insert),
/// such as loaded recordings.
///
/// Content-keyed: a lookup compares the requested `(spec, geometry)`
/// against each cached trace's own, so two specs that share a name but
/// differ in any parameter get separate entries, and a hit allocates
/// nothing. The cache holds one entry per distinct trace a process
/// simulates (tens), so the scan is short.
///
/// Determinism: a [`CompiledTrace`] is a pure function of
/// `(spec, geometry)`, so cache warmth cannot affect simulation results,
/// and the per-mix `batch` span event counts *resolved* traces (warm or
/// freshly compiled alike) so observed event streams stay byte-identical
/// regardless of cache state or thread interleaving. Process-wide
/// hit/compile totals live in [`TraceCache::stats`].
#[derive(Debug, Default)]
pub struct TraceCache {
    slots: Mutex<Vec<Arc<CompiledTrace>>>,
    hits: AtomicU64,
    compiles: AtomicU64,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the compiled trace for `(spec, geometry)`, compiling it
    /// on first use. Compilation happens outside the cache lock; if two
    /// threads race on the same cold key, the first insertion wins and
    /// the duplicate work is discarded.
    pub fn get_or_compile(
        &self,
        spec: &BenchmarkSpec,
        geometry: TraceGeometry,
    ) -> Arc<CompiledTrace> {
        if let Some(trace) = Self::find(&self.lock(), spec, geometry) {
            self.hits.fetch_add(1, MemOrdering::Relaxed);
            return trace;
        }
        let fresh = Arc::new(CompiledTrace::compile(spec.clone(), geometry));
        self.compiles.fetch_add(1, MemOrdering::Relaxed);
        let mut slots = self.lock();
        if let Some(trace) = Self::find(&slots, spec, geometry) {
            return trace;
        }
        slots.push(Arc::clone(&fresh));
        fresh
    }

    /// Makes runs over `trace`'s `(spec, geometry)` replay `trace` — a
    /// recording loaded with [`CompiledTrace::from_bytes`], say —
    /// replacing any trace cached for that pair. Counts as neither a hit
    /// nor a compile.
    pub fn insert(&self, trace: CompiledTrace) {
        let trace = Arc::new(trace);
        let mut slots = self.lock();
        let same = |t: &&mut Arc<CompiledTrace>| {
            t.geometry() == trace.geometry() && t.spec() == trace.spec()
        };
        match slots.iter_mut().find(same) {
            Some(slot) => *slot = trace,
            None => slots.push(trace),
        }
    }

    /// `(hits, compiles)` so far. Lost races count as compiles: the
    /// totals measure work spent, not slots filled.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(MemOrdering::Relaxed), self.compiles.load(MemOrdering::Relaxed))
    }

    /// Number of distinct `(spec, geometry)` pairs cached.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(
        slots: &[Arc<CompiledTrace>],
        spec: &BenchmarkSpec,
        geometry: TraceGeometry,
    ) -> Option<Arc<CompiledTrace>> {
        slots.iter().find(|t| t.geometry() == geometry && **t.spec() == *spec).map(Arc::clone)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<CompiledTrace>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Total-order scheduling key: earliest local time first, core index as
/// the deterministic tie-break. Shared by the event heap and the
/// reference interleaver so both resolve timestamp ties identically.
///
/// Clocks are finite and non-negative, where [`f64::total_cmp`] coincides
/// with numeric order — this replaces the old
/// `partial_cmp(..).expect("clocks are finite")` scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedKey {
    /// Local-clock timestamp, in cycles.
    pub time: f64,
    /// Core index; ties dispatch the lowest index first.
    pub core: usize,
}

impl Eq for SchedKey {}

impl Ord for SchedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.total_cmp(&other.time).then(self.core.cmp(&other.core))
    }
}

impl PartialOrd for SchedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shared bookkeeping for both interleavers: measurement-window records
/// and per-core LLC traffic counters. Pooled inside [`SimArena`] so a
/// warm arena resets it in place instead of reallocating the vectors.
pub(crate) struct InterleaveState {
    measure_start: Vec<Option<f64>>,
    completion: Vec<Option<f64>>,
    llc_accesses: Vec<u64>,
    llc_misses: Vec<u64>,
    heap_pushes: u64,
    heap_pops: u64,
    remaining: usize,
    warmup_insns: u64,
    trace_insns: u64,
}

impl InterleaveState {
    /// A zero-core placeholder holding no allocations; [`Self::reset`]
    /// shapes it for a run.
    pub(crate) fn empty() -> Self {
        Self {
            measure_start: Vec::new(),
            completion: Vec::new(),
            llc_accesses: Vec::new(),
            llc_misses: Vec::new(),
            heap_pushes: 0,
            heap_pops: 0,
            remaining: 0,
            warmup_insns: 0,
            trace_insns: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn new(cores: usize, warmup_insns: u64, trace_insns: u64) -> Self {
        let mut state = Self::empty();
        state.reset(cores, warmup_insns, trace_insns);
        state
    }

    /// Re-shapes the state for a fresh run, reusing vector capacity.
    /// After this the state is indistinguishable from a newly built one.
    fn reset(&mut self, cores: usize, warmup_insns: u64, trace_insns: u64) {
        // Cycle 0 is the measurement start when there is no warmup.
        let start = if warmup_insns == 0 { Some(0.0) } else { None };
        self.measure_start.clear();
        self.measure_start.resize(cores, start);
        self.completion.clear();
        self.completion.resize(cores, None);
        self.llc_accesses.clear();
        self.llc_accesses.resize(cores, 0);
        self.llc_misses.clear();
        self.llc_misses.resize(cores, 0);
        self.heap_pushes = 0;
        self.heap_pops = 0;
        self.remaining = cores;
        self.warmup_insns = warmup_insns;
        self.trace_insns = trace_insns;
    }

    /// Records window boundaries the just-executed step of core `idx` may
    /// have crossed. Returns `true` when every core has completed.
    pub(crate) fn record_thresholds(&mut self, engines: &[CoreEngine], idx: usize) -> bool {
        let e = &engines[idx];
        if self.measure_start[idx].is_none() && e.insns() >= self.warmup_insns {
            self.measure_start[idx] = Some(e.cycles());
        }
        if self.completion[idx].is_none() && e.insns() >= self.warmup_insns + self.trace_insns {
            self.completion[idx] = Some(e.cycles());
            self.remaining -= 1;
        }
        self.remaining == 0
    }

    /// The next instruction count of interest for core `idx`: its first
    /// uncrossed window boundary, capped at one `chunk` ahead so cores
    /// that generate no shared events still yield to the scheduler.
    fn next_limit(&self, engines: &[CoreEngine], idx: usize, chunk: u64) -> u64 {
        let threshold = if self.measure_start[idx].is_none() {
            self.warmup_insns
        } else if self.completion[idx].is_none() {
            self.warmup_insns + self.trace_insns
        } else {
            u64::MAX
        };
        threshold.min(engines[idx].insns().saturating_add(chunk))
    }

    pub(crate) fn tally_llc(&mut self, idx: usize, miss: bool) {
        self.llc_accesses[idx] += 1;
        if miss {
            self.llc_misses[idx] += 1;
        }
    }

}

/// A scheduled stop in a core's execution: its next shared-LLC access or
/// its next yield point, keyed for the event heap. `BinaryHeap` is a
/// max-heap, so the `Ord` impl is reversed to pop the earliest key first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    key: SchedKey,
    /// Whether a shared-LLC access is pending commit at this stop.
    llc: bool,
}

impl Event {
    fn new(stop: BurstStop, core: usize) -> Self {
        Self {
            key: SchedKey { time: stop.stamp(), core },
            llc: matches!(stop, BurstStop::Llc { .. }),
        }
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event-driven interleaver: each core runs private bursts
/// ([`CoreEngine::run_until_llc`]) and only its shared-LLC/memory-channel
/// events enter a binary heap keyed on `(arrival timestamp, core index)`.
/// O(log cores) per shared event; private items pay no global-ordering
/// cost.
///
/// Produces bit-identical results to the reference interleaver
/// ([`crate::reference::Oracle::SmallestClock`], proven by the
/// differential oracle in `tests/differential.rs`): shared events commit
/// in the same `(pre-step clock, core index)` order that
/// smallest-clock-first stepping induces, and the run ends at the same
/// completion event, so every core executes the same shared-access
/// prefix. See DESIGN.md §9 for the equivalence argument.
///
/// The state and heap are caller-owned (arena-pooled); the outcome is
/// left in `state`. The heap never holds more than one event per core,
/// so a warm heap never grows. `burst(engine, idx, limit)` runs core
/// `idx`'s burst: [`CoreEngine::run_until_llc`] on the live stream, or a
/// fed [`feed::burst`], which crosses chunk ends without yielding, so the
/// heap traffic is the same whatever the chunking.
///
/// # Panics
///
/// Panics if `engines` is empty.
pub(crate) fn event_interleave_into(
    engines: &mut [CoreEngine],
    uncore: &mut Uncore,
    state: &mut InterleaveState,
    heap: &mut BinaryHeap<Event>,
    mut burst: impl FnMut(&mut CoreEngine, usize, u64) -> BurstStop,
) {
    assert!(!engines.is_empty(), "a mix needs at least one program");
    // Yield granularity for cores with no shared events in flight; any
    // positive value produces identical results (yields have no shared
    // effects), this one bounds heap traffic to ~1 event per trace pass.
    let chunk = state.trace_insns.max(1);
    heap.clear();
    heap.reserve(engines.len());
    for idx in 0..engines.len() {
        let limit = state.next_limit(engines, idx, chunk);
        heap.push(Event::new(burst(&mut engines[idx], idx, limit), idx));
        state.heap_pushes += 1;
    }
    while let Some(ev) = heap.pop() {
        state.heap_pops += 1;
        let idx = ev.key.core;
        if ev.llc {
            let obs = engines[idx].commit_llc(uncore);
            state.tally_llc(idx, obs.depth.is_none());
        }
        if state.record_thresholds(engines, idx) {
            return;
        }
        let limit = state.next_limit(engines, idx, chunk);
        heap.push(Event::new(burst(&mut engines[idx], idx, limit), idx));
        state.heap_pushes += 1;
    }
    unreachable!("the heap always holds one event per core until completion");
}

/// The path a run resolves to, named in its `mix-config` and `batch`
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Substrate {
    /// Chunks streamed from a generator thread: runs without a
    /// [`TraceCache`].
    Streamed,
    /// Chunks copied from compiled traces resolved through a
    /// [`TraceCache`]: runs with one.
    Compiled,
    /// A retired path, stepping each core's live per-item stream.
    Oracle(Oracle),
}

impl Substrate {
    /// The `(scheduler, execution)` names the run's events carry.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Substrate::Streamed => ("event-driven", "streamed"),
            Substrate::Compiled => ("event-driven", "compiled"),
            Substrate::Oracle(Oracle::LiveStream) => ("event-driven", "reference-stream"),
            Substrate::Oracle(Oracle::SmallestClock) => ("reference", "reference-stream"),
        }
    }
}

/// Trace-substrate bookkeeping published as `sim.batch.*`.
#[derive(Debug, Clone, Copy, Default)]
struct BatchStats {
    /// Compiled traces the cores replay, one per core, resolved through
    /// a [`TraceCache`] — freshly compiled or taken warm alike, so the
    /// published `batch` event is byte-identical regardless of cache
    /// warmth (zero on streamed and reference-stream runs). Actual
    /// compile-vs-hit accounting lives in [`TraceCache::stats`].
    traces: u64,
    /// Phase runs across those traces.
    blocks: u64,
    /// Compiled ops (trace items) across those traces.
    ops: u64,
    /// Trace passes executed across all engines; the same on every
    /// substrate.
    passes: u64,
}

/// Builds (or, from a warm arena, re-initializes in place) one engine
/// per core into `engines`, core `idx` replaying `source(idx)`.
fn place_engines(
    engines: &mut Vec<CoreEngine>,
    machine: &MachineConfig,
    core_factors: &[f64],
    mut source: impl FnMut(usize) -> TraceSource,
) {
    engines.truncate(core_factors.len());
    for (idx, &factor) in core_factors.iter().enumerate() {
        let source = source(idx);
        match engines.get_mut(idx) {
            Some(e) => e.reinit(source, machine, idx, factor),
            None => engines.push(CoreEngine::from_source(source, machine, idx, factor)),
        }
    }
}

/// Overwrites `out.names` with the specs' names, reusing each existing
/// `String`'s buffer (a warm arena-path caller allocates nothing here
/// once the names have reached their steady-state lengths).
fn assign_names(out: &mut Vec<String>, specs: &[&BenchmarkSpec]) {
    out.truncate(specs.len());
    for (dst, spec) in out.iter_mut().zip(specs) {
        dst.clear();
        dst.push_str(spec.name());
    }
    for spec in &specs[out.len()..] {
        out.push(spec.name().to_string());
    }
}

/// Publishes one finished mix to an enabled span: configuration, the
/// per-core outcome, and the simulator's native counters (LLC kernel
/// counters, scheduler heap traffic). Called once per simulation — the
/// interleaving loops themselves are never instrumented, which is what
/// keeps the disabled-observer overhead unmeasurable.
#[allow(clippy::too_many_arguments)]
fn publish_mix(
    span: &Span,
    uncore: &Uncore,
    outcome: &InterleaveState,
    result: &MixResult,
    warmup_passes: u32,
    substrate: Substrate,
    batch: BatchStats,
    skipped: SkipStats,
    alloc: mppm_obs::alloc::AllocSnapshot,
) {
    let (sched_name, exec_name) = substrate.names();
    span.event(
        "mix-config",
        &[
            ("cores", Value::from(result.names.len())),
            ("trace_insns", Value::from(result.trace_insns)),
            ("warmup_passes", Value::from(warmup_passes)),
            ("scheduler", Value::from(sched_name)),
            ("execution", Value::from(exec_name)),
            ("partitioned", Value::from(uncore.is_partitioned())),
        ],
    );
    for (core, name) in result.names.iter().enumerate() {
        span.event(
            "core",
            &[
                ("core", Value::from(core)),
                ("program", Value::from(name.as_str())),
                ("cpi", Value::from(result.cpi_mc[core])),
                ("llc_accesses", Value::from(result.llc_accesses_per_core[core])),
                ("llc_misses", Value::from(result.llc_misses_per_core[core])),
            ],
        );
    }
    let (hits, misses) = uncore.llc_totals();
    let evictions = uncore.llc_evictions();
    span.event(
        "llc",
        &[
            ("hits", Value::from(hits)),
            ("misses", Value::from(misses)),
            ("evictions", Value::from(evictions)),
        ],
    );
    span.event(
        "scheduler",
        &[
            ("heap_pushes", Value::from(outcome.heap_pushes)),
            ("heap_pops", Value::from(outcome.heap_pops)),
            ("llc_commits", Value::from(result.llc_accesses)),
        ],
    );
    span.event(
        "batch",
        &[
            ("execution", Value::from(exec_name)),
            ("traces", Value::from(batch.traces)),
            ("blocks", Value::from(batch.blocks)),
            ("ops", Value::from(batch.ops)),
            ("passes", Value::from(batch.passes)),
        ],
    );
    span.counter("sim.mixes").incr();
    span.counter("sim.llc.hits").add(hits);
    span.counter("sim.llc.misses").add(misses);
    span.counter("sim.llc.evictions").add(evictions);
    span.counter("sim.llc.commits").add(result.llc_accesses);
    span.counter("sim.sched.heap_pushes").add(outcome.heap_pushes);
    span.counter("sim.sched.heap_pops").add(outcome.heap_pops);
    span.counter("sim.batch.traces").add(batch.traces);
    span.counter("sim.batch.blocks").add(batch.blocks);
    span.counter("sim.batch.ops").add(batch.ops);
    span.counter("sim.batch.passes").add(batch.passes);
    // Skip-ahead bookkeeping, as counters: skipping leaves every event
    // byte-identical, and these must not perturb them.
    span.counter("sim.skip.bursts").add(skipped.bursts);
    span.counter("sim.skip.passes").add(skipped.passes);
    span.counter("sim.skip.fallbacks").add(skipped.fallbacks);
    // Heap allocations observed during this mix — zero unless a counting
    // allocator feeds `mppm_obs::alloc` (test/bench binaries only), and
    // zero at steady state on a warm arena even then. Counters only:
    // adding an *event* would perturb the pinned event-stream tests.
    span.counter("sim.alloc.count").add(alloc.allocs);
    span.counter("sim.alloc.bytes").add(alloc.bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profile_single_core, reference};
    use mppm_trace::suite;

    fn geometry() -> TraceGeometry {
        TraceGeometry::new(20_000, 10)
    }

    #[test]
    #[should_panic(expected = "at least one program")]
    fn empty_mix_panics() {
        MixSim::new(&[], &MachineConfig::baseline(), geometry()).run();
    }

    #[test]
    fn solo_mix_equals_isolated_profile() {
        // A one-program "mix" is isolated execution: its warm multi-core
        // CPI must equal the warm single-core profile CPI exactly.
        let m = MachineConfig::baseline();
        let g = geometry();
        let spec = suite::benchmark("soplex").unwrap();
        let solo = MixSim::new(&[spec], &m, g).run();
        let profile = profile_single_core(spec, &m, g);
        assert!(
            (solo.cpi_mc[0] - profile.cpi_sc()).abs() < 1e-9,
            "solo mix {} vs isolated {}",
            solo.cpi_mc[0],
            profile.cpi_sc()
        );
    }

    #[test]
    fn sharing_never_speeds_programs_up() {
        let m = MachineConfig::baseline();
        let g = geometry();
        let names = ["gamess", "soplex", "lbm", "hmmer"];
        let specs: Vec<_> = names.iter().map(|n| suite::benchmark(n).unwrap()).collect();
        let mix = MixSim::new(&specs, &m, g).run();
        for (i, name) in names.iter().enumerate() {
            let iso = profile_single_core(specs[i], &m, g);
            assert!(
                mix.cpi_mc[i] >= iso.cpi_sc() - 1e-6,
                "{name}: multi-core CPI {} below isolated {}",
                mix.cpi_mc[i],
                iso.cpi_sc()
            );
        }
    }

    #[test]
    fn two_gamess_thrash_each_other() {
        // The paper's headline stress case: two programs that each fit the
        // LLC alone but not together. Needs a window long enough for the
        // 6500-block working set to see reuse.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::new(100_000, 10);
        let gamess = suite::benchmark("gamess").unwrap();
        let solo = profile_single_core(gamess, &m, g);
        let mix = MixSim::new(&[gamess, gamess], &m, g).run();
        let slowdown = mix.cpi_mc[0] / solo.cpi_sc();
        assert!(slowdown > 1.3, "two gamess copies should conflict: slowdown {slowdown}");
    }

    #[test]
    fn compute_bound_pair_is_unaffected() {
        let m = MachineConfig::baseline();
        let g = geometry();
        let povray = suite::benchmark("povray").unwrap();
        let hmmer = suite::benchmark("hmmer").unwrap();
        let solo_p = profile_single_core(povray, &m, g);
        let mix = MixSim::new(&[povray, hmmer], &m, g).run();
        let slowdown = mix.cpi_mc[0] / solo_p.cpi_sc();
        assert!(slowdown < 1.05, "compute pair slowdown {slowdown}");
    }

    #[test]
    fn metrics_against_profiles() {
        let m = MachineConfig::baseline();
        let g = geometry();
        let names = ["gamess", "lbm"];
        let specs: Vec<_> = names.iter().map(|n| suite::benchmark(n).unwrap()).collect();
        let cpi_sc: Vec<f64> =
            specs.iter().map(|s| profile_single_core(s, &m, g).cpi_sc()).collect();
        let mix = MixSim::new(&specs, &m, g).run();
        let stp = mix.stp(&cpi_sc);
        let antt = mix.antt(&cpi_sc);
        assert!(stp > 0.5 && stp <= 2.0 + 1e-9, "stp {stp}");
        assert!(antt >= 1.0 - 1e-9, "antt {antt}");
    }

    #[test]
    fn deterministic_across_runs() {
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let specs: Vec<_> =
            ["gcc", "milc"].iter().map(|n| suite::benchmark(n).unwrap()).collect();
        let a = MixSim::new(&specs, &m, g).run();
        let b = MixSim::new(&specs, &m, g).run();
        assert_eq!(a, b);
    }

    #[test]
    fn bandwidth_limit_creates_contention_between_streamers() {
        // lbm and libquantum have disjoint footprints and already miss the
        // LLC when alone, so with unlimited bandwidth they barely
        // interact; a finite shared channel makes them queue behind each
        // other (§8 extension). The trace must be long enough that the
        // streams sweep far past the LLC within one pass.
        let g = TraceGeometry::new(200_000, 10);
        let specs: Vec<_> =
            ["lbm", "libquantum"].iter().map(|n| suite::benchmark(n).unwrap()).collect();

        let unlimited = MachineConfig::baseline();
        let solo_unl: Vec<f64> =
            specs.iter().map(|s| profile_single_core(s, &unlimited, g).cpi_sc()).collect();
        let mix_unl = MixSim::new(&specs, &unlimited, g).run();
        let slow_unl = mix_unl.cpi_mc[0] / solo_unl[0];
        assert!(slow_unl < 1.05, "unlimited bandwidth: slowdown {slow_unl}");

        // One access per 25 cycles: enough for either stream alone, not
        // for both.
        let limited = MachineConfig::baseline().with_mem_bandwidth(0.04);
        let solo_lim: Vec<f64> =
            specs.iter().map(|s| profile_single_core(s, &limited, g).cpi_sc()).collect();
        let mix_lim = MixSim::new(&specs, &limited, g).run();
        let slow_lim = mix_lim.cpi_mc[0] / solo_lim[0];
        assert!(
            slow_lim > slow_unl + 0.05,
            "bandwidth sharing must add slowdown: {slow_lim} vs {slow_unl}"
        );
    }

    #[test]
    fn partitioning_protects_the_victim() {
        // gamess against a streamer: on a unified LLC the streamer evicts
        // it; with 7 ways reserved it keeps (7/8 of) its working set.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::new(100_000, 10);
        let gamess = suite::benchmark("gamess").unwrap();
        let lbm = suite::benchmark("lbm").unwrap();
        let solo = profile_single_core(gamess, &m, g).cpi_sc();
        let unified = MixSim::new(&[gamess, lbm], &m, g).run();
        let partitioned = MixSim::new(&[gamess, lbm], &m, g).partitioned(&[7, 1]).run();
        let slow_unified = unified.cpi_mc[0] / solo;
        let slow_part = partitioned.cpi_mc[0] / solo;
        assert!(
            slow_part < slow_unified - 0.2,
            "partitioning must protect gamess: {slow_part} vs {slow_unified}"
        );
    }

    #[test]
    fn partitioned_slices_isolate_traffic() {
        // Identical programs on equal slices behave identically.
        let m = MachineConfig::baseline();
        let g = geometry();
        let soplex = suite::benchmark("soplex").unwrap();
        let mix = MixSim::new(&[soplex, soplex], &m, g).partitioned(&[4, 4]).run();
        assert!(
            (mix.cpi_mc[0] - mix.cpi_mc[1]).abs() < 1e-9,
            "equal slices, equal CPI: {:?}",
            mix.cpi_mc
        );
    }

    #[test]
    #[should_panic(expected = "sum to the LLC associativity")]
    fn partition_ways_must_cover_cache() {
        let m = MachineConfig::baseline();
        let soplex = suite::benchmark("soplex").unwrap();
        MixSim::new(&[soplex, soplex], &m, geometry()).partitioned(&[4, 3]).run();
    }

    #[test]
    fn heterogeneous_little_core_runs_slower() {
        let m = MachineConfig::baseline();
        let g = geometry();
        let hmmer = suite::benchmark("hmmer").unwrap();
        // Same program on a big and a little core: the little copy's CPI
        // must be higher, but by less than 2x (memory time is unscaled).
        let mix = MixSim::new(&[hmmer, hmmer], &m, g).core_factors(&[1.0, 2.0]).run();
        let ratio = mix.cpi_mc[1] / mix.cpi_mc[0];
        assert!(ratio > 1.5, "little core must be slower: ratio {ratio}");
        assert!(ratio < 2.0 + 1e-9, "memory time does not scale: ratio {ratio}");
    }

    #[test]
    fn heterogeneous_matches_scaled_profile_when_solo() {
        // Simulating a program alone on a 1.5x-scaled core must match the
        // profile-scaling derivation exactly (same machinery on both
        // sides of the §8 heterogeneity extension).
        let m = MachineConfig::baseline();
        let g = geometry();
        let spec = suite::benchmark("gobmk").unwrap();
        let scaled_profile = profile_single_core(spec, &m, g).scaled_core(1.5);
        let solo = MixSim::new(&[spec], &m, g).core_factors(&[1.5]).run();
        assert!(
            (solo.cpi_mc[0] - scaled_profile.cpi_sc()).abs() < 1e-9,
            "simulated {} vs derived {}",
            solo.cpi_mc[0],
            scaled_profile.cpi_sc()
        );
    }

    #[test]
    fn llc_traffic_is_accounted() {
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let specs: Vec<_> =
            ["lbm", "mcf"].iter().map(|n| suite::benchmark(n).unwrap()).collect();
        let mix = MixSim::new(&specs, &m, g).run();
        assert!(mix.llc_accesses > 0);
        assert!(mix.llc_misses <= mix.llc_accesses);
        assert!(mix.llc_misses > 0, "streaming mixes must miss");
        // The per-core breakdown must tile the totals exactly, and every
        // core of this all-memory-bound mix must contribute traffic.
        assert_eq!(mix.llc_accesses_per_core.len(), specs.len());
        assert_eq!(mix.llc_misses_per_core.len(), specs.len());
        assert_eq!(mix.llc_accesses_per_core.iter().sum::<u64>(), mix.llc_accesses);
        assert_eq!(mix.llc_misses_per_core.iter().sum::<u64>(), mix.llc_misses);
        for core in 0..specs.len() {
            assert!(mix.llc_accesses_per_core[core] > 0, "core {core} never reached the LLC");
            assert!(mix.llc_misses_per_core[core] <= mix.llc_accesses_per_core[core]);
        }
    }

    #[test]
    fn timestamp_ties_dispatch_by_core_index() {
        // Four identical programs generate identical local timelines, so
        // every shared event arrives as a 4-way timestamp tie. The core
        // index tie-break must keep the schedulers deterministic and, on
        // equal partitioned slices, keep all four copies bit-identical.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let lbm = suite::benchmark("lbm").unwrap();
        let specs = [lbm, lbm, lbm, lbm];
        let event = MixSim::new(&specs, &m, g).partitioned(&[2, 2, 2, 2]).run();
        let reference = reference::run(
            MixSim::new(&specs, &m, g).partitioned(&[2, 2, 2, 2]),
            Oracle::SmallestClock,
        );
        assert_eq!(event, reference, "tie-breaking must match the reference interleaver");
        for core in 1..specs.len() {
            assert_eq!(
                event.cpi_mc[0].to_bits(),
                event.cpi_mc[core].to_bits(),
                "equal slices, bit-equal CPI: {:?}",
                event.cpi_mc
            );
        }
    }

    #[derive(Clone, Default)]
    struct CaptureSink(std::sync::Arc<std::sync::Mutex<Vec<mppm_obs::Event>>>);

    impl mppm_obs::Sink for CaptureSink {
        fn record(&self, event: mppm_obs::Event) {
            self.0.lock().unwrap().push(event);
        }
    }

    /// Runs `sim` under an observer, returning the result, every event
    /// the run published and the counter snapshot.
    fn observe(sim: MixSim<'_>) -> (MixResult, Vec<mppm_obs::Event>, Vec<(String, u64)>) {
        observe_with(sim, |sim| sim.run())
    }

    /// [`observe`] with the run made by `run`.
    fn observe_with<'a>(
        sim: MixSim<'a>,
        run: impl FnOnce(MixSim<'_>) -> MixResult,
    ) -> (MixResult, Vec<mppm_obs::Event>, Vec<(String, u64)>) {
        let capture = CaptureSink::default();
        let observer = mppm_obs::Observer::new(Box::new(capture.clone()));
        let result = {
            let root = observer.root("mix");
            run(sim.observer(&root))
        };
        let events = capture.0.lock().unwrap().clone();
        (result, events, observer.counter_snapshot())
    }

    fn counter(snapshot: &[(String, u64)], name: &str) -> u64 {
        snapshot.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    fn field<'e>(event: &'e mppm_obs::Event, key: &str) -> &'e mppm_obs::Value {
        &event.fields.iter().find(|(k, _)| *k == key).unwrap().1
    }

    #[test]
    fn observed_mix_publishes_events_and_counters_without_changing_results() {
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let gamess = suite::benchmark("gamess").unwrap();
        let lbm = suite::benchmark("lbm").unwrap();
        let silent = MixSim::new(&[gamess, lbm], &m, g).run();
        let (observed, events, snapshot) = observe(MixSim::new(&[gamess, lbm], &m, g));
        assert_eq!(silent, observed, "observation must not perturb the simulation");

        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "span-start",
                "mix-config",
                "core",
                "core",
                "llc",
                "scheduler",
                "batch",
                "span-end"
            ]
        );
        assert_eq!(*field(&events[1], "execution"), mppm_obs::Value::from("streamed"));
        let pushes = field(&events[5], "heap_pushes");
        assert!(
            matches!(pushes, mppm_obs::Value::U64(n) if *n > 0),
            "event-driven run must report heap traffic: {pushes:?}"
        );
        let get = |name: &str| counter(&snapshot, name);
        assert_eq!(get("sim.mixes"), 1);
        assert_eq!(get("sim.llc.commits"), observed.llc_accesses);
        // Warmup passes also touch the LLC, so kernel hit/miss totals
        // exceed the measured-window commits.
        assert!(get("sim.llc.hits") + get("sim.llc.misses") >= observed.llc_accesses);
        assert!(get("sim.sched.heap_pops") > 0);
        // A streamed run replays no compiled trace, and every engine
        // still counts its warmup and measurement passes.
        assert_eq!(get("sim.batch.traces"), 0);
        assert_eq!(get("sim.batch.blocks"), 0);
        assert_eq!(get("sim.batch.ops"), 0);
        assert!(get("sim.batch.passes") >= 2, "passes {}", get("sim.batch.passes"));
    }

    #[test]
    fn repeated_specs_share_one_compilation() {
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let lbm = suite::benchmark("lbm").unwrap();
        let cache = TraceCache::new();
        let (_, _, snapshot) = observe(MixSim::new(&[lbm, lbm, lbm], &m, g).trace_cache(&cache));
        assert_eq!(cache.len(), 1, "one spec, one cached trace");
        assert_eq!(cache.stats(), (2, 1), "one compilation, two cores hit it");
        assert_eq!(counter(&snapshot, "sim.batch.traces"), 3, "every core replays it");
    }

    #[test]
    fn trace_cache_is_result_invariant_and_counts_hits() {
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let gamess = suite::benchmark("gamess").unwrap();
        let lbm = suite::benchmark("lbm").unwrap();
        let specs = [gamess, lbm, gamess];

        let streamed = MixSim::new(&specs, &m, g).run();
        let cache = TraceCache::new();
        let first = MixSim::new(&specs, &m, g).trace_cache(&cache).run();
        let second = MixSim::new(&specs, &m, g).trace_cache(&cache).run();
        assert_eq!(streamed, first, "a cold cache changes nothing");
        assert_eq!(first, second, "a warm cache changes nothing");

        // Every core resolves its trace through the cache: the first run
        // compiles the two distinct specs and hits once for the repeated
        // gamess core, the second hits for all three.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (4, 2), "(hits, compiles)");
    }

    #[test]
    fn trace_cache_keys_by_geometry() {
        let m = MachineConfig::baseline();
        let gamess = suite::benchmark("gamess").unwrap();
        let specs = [gamess];
        let cache = TraceCache::new();
        let tiny = MixSim::new(&specs, &m, TraceGeometry::tiny()).trace_cache(&cache).run();
        let other = MixSim::new(&specs, &m, TraceGeometry::new(2_000, 4))
            .trace_cache(&cache)
            .run();
        assert_eq!(cache.len(), 2, "different geometries get different slots");
        assert_ne!(tiny.trace_insns, other.trace_insns);
    }

    #[test]
    fn trace_cache_keys_by_content_not_name() {
        // Two specs sharing a name but not a seed are different programs:
        // each gets its own entry, and each run replays its own trace.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let lbm = suite::benchmark("lbm").unwrap();
        let twin = BenchmarkSpec::new(
            lbm.name(),
            lbm.seed() ^ 1,
            lbm.phases().to_vec(),
            lbm.schedule().to_vec(),
        )
        .unwrap();
        let cache = TraceCache::new();
        assert_eq!(**cache.get_or_compile(lbm, g).spec(), *lbm);
        assert_eq!(**cache.get_or_compile(&twin, g).spec(), twin);
        assert_eq!(cache.len(), 2, "same name, different parameters, separate entries");
        assert_eq!(cache.stats(), (0, 2));
        for spec in [lbm, &twin] {
            let cached = MixSim::new(&[spec], &m, g).trace_cache(&cache).run();
            assert_eq!(cached, MixSim::new(&[spec], &m, g).run(), "{}", spec.seed());
        }
        assert_eq!(cache.stats(), (2, 2), "each run hit its own entry");
    }

    #[test]
    fn inserted_traces_are_replayed_and_replace_cached_ones() {
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let lbm = suite::benchmark("lbm").unwrap();
        let cache = TraceCache::new();
        cache.insert(CompiledTrace::compile(lbm.clone(), g));
        assert_eq!((cache.len(), cache.stats()), (1, (0, 0)), "an insert is no compile");
        let cached = MixSim::new(&[lbm], &m, g).trace_cache(&cache).run();
        assert_eq!(cache.stats(), (1, 0), "the run hit the inserted trace");
        assert_eq!(cached, MixSim::new(&[lbm], &m, g).run());
        cache.insert(CompiledTrace::compile(lbm.clone(), g));
        assert_eq!(cache.len(), 1, "same spec and geometry, one entry");
    }

    #[test]
    fn trace_cache_keeps_observed_batch_events_identical() {
        // The `batch` event must not leak cache warmth: a cold-cache and
        // a warm-cache run publish identical events. A streamed run names
        // its own substrate but counts the same passes.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let gamess = suite::benchmark("gamess").unwrap();
        let specs = [gamess, gamess];
        let batch = |cache: Option<&TraceCache>| {
            let mut sim = MixSim::new(&specs, &m, g);
            if let Some(cache) = cache {
                sim = sim.trace_cache(cache);
            }
            let (_, events, _) = observe(sim);
            events.into_iter().find(|e| e.name == "batch").unwrap()
        };
        let cache = TraceCache::new();
        let cold = batch(Some(&cache));
        let warm = batch(Some(&cache));
        assert_eq!(cold, warm, "batch events must not depend on cache warmth");
        assert_eq!(*field(&cold, "traces"), mppm_obs::Value::U64(2));
        let streamed = batch(None);
        assert_eq!(*field(&streamed, "execution"), mppm_obs::Value::from("streamed"));
        assert_eq!(field(&streamed, "passes"), field(&cold, "passes"));
    }

    #[test]
    fn many_repeated_specs_share_cached_traces() {
        // A wide mix repeating two specs eight times each resolves every
        // core through the cache: two compilations, fourteen hits, and
        // no core replays the other spec's trace.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let gamess = suite::benchmark("gamess").unwrap();
        let lbm = suite::benchmark("lbm").unwrap();
        let mut specs = Vec::new();
        for _ in 0..8 {
            specs.push(gamess);
            specs.push(lbm);
        }
        let cache = TraceCache::new();
        let mix = MixSim::new(&specs, &m, g).trace_cache(&cache).run();
        assert_eq!(mix.names.len(), 16);
        assert_eq!(cache.stats(), (14, 2), "two distinct specs");
        for (i, name) in mix.names.iter().enumerate() {
            assert_eq!(name, if i % 2 == 0 { "gamess" } else { "lbm" });
        }
        assert_eq!(mix, MixSim::new(&specs, &m, g).run(), "streamed wide mix agrees");
    }

    /// Every event of `kind` among `events`.
    fn events_named<'e>(events: &'e [mppm_obs::Event], kind: &str) -> Vec<&'e mppm_obs::Event> {
        events.iter().filter(|e| e.name == kind).collect()
    }

    /// The baseline machine with private caches small enough (16-block
    /// L1D, 128-block L2) that every program reaches the LLC in every
    /// pass of a tiny trace, and an L2 slow enough to stall: the
    /// skip-ahead burst engages on it.
    fn skipping_machine() -> MachineConfig {
        let mut m = MachineConfig::baseline();
        m.l1d = mppm_cache::CacheConfig::new(16 * 64, 4, 64, 1);
        m.l2 = mppm_cache::CacheConfig::new(128 * 64, 8, 64, 20);
        m
    }

    #[test]
    fn tiny_chunks_match_cached_and_reference_runs() {
        // Chunks of 1 to 7 ops put chunk ends on (and right next to)
        // every window threshold, phase change and pass wrap, and empty
        // the rings so often that the calling thread cuts many chunks
        // itself, in an interleaving with the generator that differs run
        // to run. Streamed and cached runs at every chunk size must match
        // cached ones at the default size — results and the `core`,
        // `llc` and `scheduler` events, heap traffic included — and the
        // per-item oracles: the smallest-clock result, and the live
        // stream's events. On the baseline machine no program of this
        // tiny geometry reaches the LLC after its first pass, so no core
        // skips; on the skipping machine every mix skips, so skipped
        // bursts, catch-ups and chunk ends meet everywhere too.
        let skipping = skipping_machine();
        let g = TraceGeometry::new(1_000, 4);
        let bench = |n: &str| suite::benchmark(n).unwrap();
        let (gcc, lbm, gamess, mcf) = (bench("gcc"), bench("lbm"), bench("gamess"), bench("mcf"));
        let mix = |specs: Vec<&'static BenchmarkSpec>| MixSimConfig { specs, ..Default::default() };
        let mixes = [
            ("unified", mix(vec![gcc, lbm, gamess])),
            ("partitioned", MixSimConfig { ways: Some(vec![6, 2]), ..mix(vec![gamess, mcf]) }),
            (
                "heterogeneous",
                MixSimConfig { factors: Some(vec![1.0, 2.0, 1.25]), ..mix(vec![gcc, lbm, gamess]) },
            ),
            ("repeated", mix(vec![lbm, gcc, lbm, lbm])),
            (
                "eight",
                mix(["mcf", "povray", "lbm", "namd", "libquantum", "gamess", "soplex", "gcc"]
                    .map(bench)
                    .to_vec()),
            ),
        ];
        let machines = [
            ("baseline", MachineConfig::baseline()),
            ("skipping", skipping),
            ("bandwidth", skipping.with_mem_bandwidth(0.05)),
        ];
        let same = |kind: &str, a: &[mppm_obs::Event], b: &[mppm_obs::Event]| {
            events_named(a, kind) == events_named(b, kind)
        };
        let passes =
            |evs: &[mppm_obs::Event]| field(events_named(evs, "batch")[0], "passes").clone();
        for (machine_label, m) in &machines {
            for (mix_label, cfg) in &mixes {
                for warmup in 0..3 {
                    let label = format!("{machine_label} {mix_label} w{warmup}");
                    let sim = || cfg.build(m, g).warmup_passes(warmup);
                    let oracle = reference::run(sim(), Oracle::SmallestClock);
                    let (live, live_events, _) =
                        observe_with(sim(), |sim| reference::run(sim, Oracle::LiveStream));
                    let cache = TraceCache::new();
                    let (cached, cached_events, counters) = observe(sim().trace_cache(&cache));
                    assert_eq!(cached, oracle, "{label}: cached vs oracle");
                    assert_eq!(live, oracle, "{label}: live stream vs oracle");
                    for kind in ["core", "llc", "scheduler"] {
                        assert!(same(kind, &cached_events, &live_events), "{label}: `{kind}`");
                    }
                    assert_eq!(passes(&cached_events), passes(&live_events), "{label}: passes");
                    let skipped = counter(&counters, "sim.skip.bursts");
                    if *machine_label == "baseline" {
                        assert_eq!(skipped, 0, "{label}: no core settles into LLC traffic");
                    } else {
                        assert!(skipped > 0, "{label}: the skip must engage");
                        // Recordings started an eighth of a pass in, on
                        // cold caches, fail their state check and start
                        // again; none may be used.
                        let mut early = sim();
                        early.record_from = Some(g.trace_insns() / 8);
                        let (early, _, early_counters) = observe(early);
                        assert_eq!(early, oracle, "{label}: early recordings");
                        assert!(counter(&early_counters, "sim.skip.bursts") > 0, "{label}: early");
                    }
                    for (chunk_ops, cache) in (1..=7).chain([feed::CHUNK_OPS]).flat_map(|c| {
                        [(c, None), (c, Some(&cache))]
                    }) {
                        let mut fed_sim = sim();
                        fed_sim.chunk_ops = chunk_ops;
                        if let Some(cache) = cache {
                            fed_sim = fed_sim.trace_cache(cache);
                        }
                        let (fed, events, fed_counters) = observe(fed_sim);
                        let at = format!("{label} c{chunk_ops} cached {}", cache.is_some());
                        assert_eq!(fed, cached, "{at}: fed vs cached");
                        for kind in ["core", "llc", "scheduler"] {
                            assert!(same(kind, &events, &cached_events), "{at}: `{kind}` events");
                        }
                        assert_eq!(passes(&events), passes(&cached_events), "{at}: passes");
                        let skip = |c: &[(String, u64)]| {
                            ["bursts", "passes", "fallbacks"]
                                .map(|k| counter(c, &format!("sim.skip.{k}")))
                        };
                        assert_eq!(skip(&fed_counters), skip(&counters), "{at}: skips");
                    }
                }
            }
        }
    }

    #[test]
    fn settled_cores_skip_their_re_iteration() {
        // The compute-light cores of a contended mix re-iterate while the
        // memory-bound one finishes; once their private caches settle,
        // nearly all of those passes are skipped, per core, and a
        // recording is shared by the cores running one spec.
        let m = skipping_machine();
        let g = TraceGeometry::new(1_000, 4);
        let specs: Vec<&BenchmarkSpec> =
            ["lbm", "gcc", "lbm", "lbm"].iter().map(|n| suite::benchmark(n).unwrap()).collect();
        let mut arena = SimArena::new();
        let result = MixSim::new(&specs, &m, g).arena(&mut arena).run();
        assert_eq!(result, reference::run(MixSim::new(&specs, &m, g), Oracle::SmallestClock));
        for core in [0, 2, 3] {
            let passes = arena.engines[core].trace_passes();
            let skipped = arena.skip.skipped_insns(core) / g.trace_insns();
            assert!(passes >= 10 && skipped + 3 >= passes, "lbm {core}: {skipped} of {passes}");
        }
        assert_eq!(arena.skip.skipped_insns(1), 0, "the slowest core never re-iterates");
    }

    #[test]
    fn compiled_execution_matches_reference_stream() {
        // The quick in-crate check (the full axis sweep lives in the
        // proptest oracle): streamed and cached replay, and the per-item
        // stream under either scheduler, must be bit-identical, with
        // heterogeneous cores and on a partitioned LLC.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let specs: Vec<_> =
            ["gamess", "lbm", "mcf"].iter().map(|n| suite::benchmark(n).unwrap()).collect();
        fn agree<'a>(sim: impl Fn() -> MixSim<'a>, cache: &'a TraceCache) {
            let oracle = reference::run(sim(), Oracle::SmallestClock);
            let live = reference::run(sim(), Oracle::LiveStream);
            assert_eq!(live, oracle, "event-driven live stream");
            assert_eq!(sim().run(), oracle, "streamed");
            assert_eq!(sim().trace_cache(cache).run(), oracle, "cached");
        }
        let cache = TraceCache::new();
        agree(|| MixSim::new(&specs, &m, g).core_factors(&[1.0, 2.0, 1.25]), &cache);
        agree(|| MixSim::new(&specs[..2], &m, g).partitioned(&[6, 2]), &cache);
    }

    #[test]
    fn arena_runs_are_bit_exact_with_fresh_runs() {
        // One arena threaded through a shape-shifting sequence of mixes
        // (different core counts, partitioning, schedulers, factors)
        // must reproduce every fresh-allocation result bit-for-bit.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let gamess = suite::benchmark("gamess").unwrap();
        let lbm = suite::benchmark("lbm").unwrap();
        let mcf = suite::benchmark("mcf").unwrap();
        let mut arena = SimArena::new();
        let configs: Vec<MixSimConfig> = vec![
            MixSimConfig { specs: vec![gamess, lbm], ..Default::default() },
            MixSimConfig { specs: vec![gamess, lbm, mcf], ..Default::default() },
            MixSimConfig { specs: vec![gamess, lbm], ways: Some(vec![6, 2]), ..Default::default() },
            MixSimConfig { specs: vec![lbm], ..Default::default() },
            MixSimConfig {
                specs: vec![mcf, mcf],
                factors: Some(vec![1.0, 2.0]),
                oracle: Some(Oracle::SmallestClock),
                ..Default::default()
            },
            MixSimConfig { specs: vec![gamess, lbm], ..Default::default() },
        ];
        for (i, cfg) in configs.iter().enumerate() {
            let run = |sim: MixSim<'_>| match cfg.oracle {
                Some(oracle) => reference::run(sim, oracle),
                None => sim.run(),
            };
            let fresh = run(cfg.build(&m, g));
            let pooled = run(cfg.build(&m, g).arena(&mut arena));
            assert_eq!(fresh, pooled, "config {i} diverged through the arena");
        }
    }

    /// Owned mix description for arena tests (MixSim itself borrows).
    #[derive(Default)]
    struct MixSimConfig {
        specs: Vec<&'static BenchmarkSpec>,
        ways: Option<Vec<u32>>,
        factors: Option<Vec<f64>>,
        oracle: Option<Oracle>,
    }

    impl MixSimConfig {
        fn build<'a>(&'a self, m: &'a MachineConfig, g: TraceGeometry) -> MixSim<'a> {
            let mut sim = MixSim::new(&self.specs, m, g);
            if let Some(w) = &self.ways {
                sim = sim.partitioned(w);
            }
            if let Some(f) = &self.factors {
                sim = sim.core_factors(f);
            }
            sim
        }
    }

    #[test]
    fn warm_arena_resolves_every_run_through_the_trace_cache() {
        // The arena holds no traces: a warm arena takes each one from the
        // shared cache again, and stays bit-exact while doing so.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let gamess = suite::benchmark("gamess").unwrap();
        let lbm = suite::benchmark("lbm").unwrap();
        let specs = [gamess, lbm];
        let cache = TraceCache::new();
        let mut arena = SimArena::new();
        let first = MixSim::new(&specs, &m, g).trace_cache(&cache).arena(&mut arena).run();
        assert_eq!(cache.stats(), (0, 2), "a cold arena compiles through the cache");
        let second = MixSim::new(&specs, &m, g).trace_cache(&cache).arena(&mut arena).run();
        assert_eq!(first, second);
        assert_eq!(cache.stats(), (2, 2), "a warm arena hits the cache");
    }

    #[test]
    fn cleared_arena_reruns_bit_exact() {
        // Clearing returns the pools to cold; streamed and cached runs
        // through the cleared arena reproduce the warm ones.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let lbm = suite::benchmark("lbm").unwrap();
        let cache = TraceCache::new();
        let mut arena = SimArena::new();
        let warm = MixSim::new(&[lbm], &m, g).arena(&mut arena).run();
        let warm_cached = MixSim::new(&[lbm], &m, g).trace_cache(&cache).arena(&mut arena).run();
        arena.clear();
        let cold = MixSim::new(&[lbm], &m, g).arena(&mut arena).run();
        arena.clear();
        let cold_cached = MixSim::new(&[lbm], &m, g).trace_cache(&cache).arena(&mut arena).run();
        assert_eq!(warm, cold);
        assert_eq!(warm_cached, cold_cached);
        assert_eq!(warm, warm_cached);
        assert_eq!(cache.stats(), (1, 1), "the cache, not the arena, kept the trace");
    }
}
