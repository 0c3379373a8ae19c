//! Per-core execution engine: drives one program's instruction stream
//! through its private caches and a (shared or private) LLC, accumulating
//! cycles.

use mppm_cache::{Replacement, SetAssocCache};
use mppm_trace::{BenchmarkSpec, OpWords, PhaseRun, TraceGeometry, TraceItem, TraceStream};
use std::sync::Arc;

use crate::{MachineConfig, MemoryChannel};

/// The shared (per-machine, not per-core) portion of the memory system:
/// the last-level cache and the off-chip channel.
///
/// The LLC is either *unified* (one cache competed for by every core —
/// the paper's baseline) or *way-partitioned*: each core owns a fixed
/// number of ways of every set, which behaves exactly like a private
/// slice with the same set count. The paper's §2.3 points out that MPPM
/// supports partitioning as long as the cache contention model does;
/// [`mppm::PartitionModel`] is that model, and the partitioned simulator
/// here is its ground truth.
#[derive(Debug, Clone)]
pub struct Uncore {
    /// One cache when unified; one slice per core when partitioned.
    llcs: Vec<SetAssocCache>,
    /// Shared memory channel (finite bandwidth if configured).
    pub memory: MemoryChannel,
    partitioned: bool,
}

impl Uncore {
    /// Builds the unified-LLC uncore for a machine configuration.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            llcs: vec![SetAssocCache::new(machine.llc, Replacement::Lru)],
            memory: MemoryChannel::new(machine.mem_bandwidth),
            partitioned: false,
        }
    }

    /// Builds a way-partitioned uncore: core `i` owns `ways[i]` ways of
    /// every LLC set.
    ///
    /// # Panics
    ///
    /// Panics if the ways do not sum to the LLC's associativity or any
    /// core gets zero ways.
    pub fn partitioned(machine: &MachineConfig, ways: &[u32]) -> Self {
        assert!(!ways.is_empty(), "need at least one partition");
        assert!(ways.iter().all(|&w| w > 0), "every core needs at least one way");
        assert_eq!(
            ways.iter().sum::<u32>(),
            machine.llc.assoc,
            "partition ways must sum to the LLC associativity"
        );
        let sets = machine.llc.sets();
        let llcs = ways
            .iter()
            .map(|&w| {
                let size = sets * u64::from(w) * u64::from(machine.llc.line_bytes);
                SetAssocCache::new(
                    mppm_cache::CacheConfig::new(size, w, machine.llc.line_bytes, machine.llc.latency),
                    Replacement::Lru,
                )
            })
            .collect();
        Self { llcs, memory: MemoryChannel::new(machine.mem_bandwidth), partitioned: true }
    }

    /// Rebuilds the uncore in place for a new mix, reusing the LLC
    /// slabs (via [`SetAssocCache::reinit`]) when their shape is
    /// unchanged — the `SimArena` reset path. Observationally equivalent
    /// to `Uncore::new` / `Uncore::partitioned` with the same arguments.
    ///
    /// # Panics
    ///
    /// Same contract as [`Uncore::partitioned`] when `ways` is given.
    pub(crate) fn reinit(&mut self, machine: &MachineConfig, ways: Option<&[u32]>) {
        match ways {
            None => {
                self.llcs.truncate(1);
                match self.llcs.first_mut() {
                    Some(llc) => llc.reinit(machine.llc, Replacement::Lru),
                    None => self.llcs.push(SetAssocCache::new(machine.llc, Replacement::Lru)),
                }
                self.partitioned = false;
            }
            Some(ways) => {
                assert!(!ways.is_empty(), "need at least one partition");
                assert!(ways.iter().all(|&w| w > 0), "every core needs at least one way");
                assert_eq!(
                    ways.iter().sum::<u32>(),
                    machine.llc.assoc,
                    "partition ways must sum to the LLC associativity"
                );
                let sets = machine.llc.sets();
                self.llcs.truncate(ways.len());
                for (i, &w) in ways.iter().enumerate() {
                    let size = sets * u64::from(w) * u64::from(machine.llc.line_bytes);
                    let cfg = mppm_cache::CacheConfig::new(
                        size,
                        w,
                        machine.llc.line_bytes,
                        machine.llc.latency,
                    );
                    match self.llcs.get_mut(i) {
                        Some(llc) => llc.reinit(cfg, Replacement::Lru),
                        None => self.llcs.push(SetAssocCache::new(cfg, Replacement::Lru)),
                    }
                }
                self.partitioned = true;
            }
        }
        self.memory = MemoryChannel::new(machine.mem_bandwidth);
    }

    /// The LLC (slice) core `core_idx` accesses.
    pub fn llc_for(&mut self, core_idx: usize) -> &mut SetAssocCache {
        if self.partitioned {
            &mut self.llcs[core_idx]
        } else {
            &mut self.llcs[0]
        }
    }

    /// Whether the LLC is way-partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    /// Total LLC hits and misses across all slices.
    pub fn llc_totals(&self) -> (u64, u64) {
        let hits = self.llcs.iter().map(SetAssocCache::hits).sum();
        let misses = self.llcs.iter().map(SetAssocCache::misses).sum();
        (hits, misses)
    }

    /// Total LLC evictions across all slices (misses that displaced a
    /// resident line — the kernel counter observability publishes per
    /// mix).
    pub fn llc_evictions(&self) -> u64 {
        self.llcs.iter().map(SetAssocCache::evictions).sum()
    }
}

/// How the engine treats the last-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcMode {
    /// Access the provided LLC normally.
    Real,
    /// Pretend every LLC access hits (the paper's "perfect LLC" run used
    /// to measure the memory CPI component). The provided cache is not
    /// touched.
    Perfect,
}

/// What one engine step did at the LLC, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcObservation {
    /// LRU-stack hit depth (0-based), `None` on a miss.
    pub depth: Option<u32>,
    /// Whether the access was a store.
    pub store: bool,
}

/// Result of one [`CoreEngine::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Instructions retired by this step.
    pub insns: u64,
    /// LLC access performed by this step, if the private caches missed.
    pub llc: Option<LlcObservation>,
}

/// A shared-LLC access produced by a [`CoreEngine::run_until_llc`] burst,
/// waiting to be committed in global timestamp order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingLlc {
    /// Core-tagged block address.
    block: u64,
    /// Whether the access is a store.
    store: bool,
    /// Memory-level parallelism of the phase the access was issued under.
    mlp: f64,
}

/// Why a [`CoreEngine::run_until_llc`] burst stopped.
///
/// Both variants carry the local clock *at which the stopping step began*
/// (before its base-CPI charge): that is the timestamp at which a
/// smallest-clock-first scheduler would have dispatched the step, so it is
/// the key an event-driven scheduler must order the stop by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurstStop {
    /// The burst generated a shared-LLC access. The private side of the
    /// step (stream advance, L1/L2 fills, base-CPI charge) has executed;
    /// the shared side waits for [`CoreEngine::commit_llc`].
    Llc {
        /// Local clock when the LLC-accessing step began.
        stamp: f64,
    },
    /// The burst retired through `limit` instructions without a shared
    /// event pending; the step that crossed the limit has fully executed.
    Limit {
        /// Local clock when the limit-crossing step began.
        stamp: f64,
    },
}

impl BurstStop {
    /// The scheduling timestamp of the stop.
    pub fn stamp(&self) -> f64 {
        match *self {
            BurstStop::Llc { stamp } | BurstStop::Limit { stamp } => stamp,
        }
    }
}

/// What a fed walk tells about the charges it makes
/// ([`CoreEngine::run_fed`]): the skip-ahead recording sums them; the
/// plain burst passes `()`, which ignores them. A step that reaches the
/// LLC reports nothing, since its charges end the segment it would sum.
pub(crate) trait Tally {
    /// Walk the private side only: L1/L2 accesses, with no cycles
    /// charged and no LLC access left pending, up to the limit.
    const REPLAY: bool = false;
    /// The phase's base CPI and L2-hit stall, once per walk.
    #[inline(always)]
    fn phase(&mut self, _base_cpi: f64, _l2_stall: f64) {}
    /// A compute batch charged `cost`.
    #[inline(always)]
    fn compute(&mut self, _cost: f64) {}
    /// An access that hit the L1D: its base CPI.
    #[inline(always)]
    fn l1_hit(&mut self) {}
    /// An access that hit the L2: its base CPI, then the L2 stall.
    #[inline(always)]
    fn l2_hit(&mut self) {}
}

impl Tally for () {}

/// Where a core's trace items come from.
///
/// The live generator is the *reference* path — the original per-item
/// implementation every faster substrate is differential-tested
/// against. The fed path replays [`PhaseRun`] chunks handed in one at a
/// time ([`crate::feed`]): cut from the live stream by a generator
/// thread, or copied from a cached [`mppm_trace::CompiledTrace`] on the
/// calling thread. Both must be bit-identical to the live
/// generator, which the oracle in `crates/cmpsim/tests/differential.rs`
/// proves.
#[derive(Debug, Clone)]
pub(crate) enum TraceSource {
    /// Per-item generation from the live [`TraceStream`].
    Reference(TraceStream),
    /// Batched replay of chunks fed in one at a time.
    Fed(FedCursor),
}

impl TraceSource {
    /// Replay of `spec`'s trace as chunks fed in by the caller, starting
    /// with `first`, which must begin at stream position 0.
    pub(crate) fn fed(first: PhaseRun, spec: Arc<BenchmarkSpec>, geometry: TraceGeometry) -> Self {
        let trace_insns = geometry.trace_insns();
        Self::Fed(FedCursor { spec, trace_insns, chunk: first, op: 0, insn: 0 })
    }
}

/// Replay position within the chunk a fed engine holds. Fed engines
/// only run bursts: [`CoreEngine::step`] is not defined for them.
#[derive(Debug, Clone)]
pub(crate) struct FedCursor {
    spec: Arc<BenchmarkSpec>,
    /// Instructions in one trace pass.
    trace_insns: u64,
    chunk: PhaseRun,
    /// Next op within the chunk.
    op: usize,
    /// Trace position: instructions retired, monotonic across wraps.
    /// A skip-ahead burst moves it on without walking the chunk, which
    /// then sits a whole number of passes behind it
    /// ([`crate::skip`]).
    insn: u64,
}

/// One core executing one program.
///
/// The engine owns the program's deterministic trace source — the live
/// [`TraceStream`] generator or a cursor over fed [`PhaseRun`] chunks —
/// and its private L1D and L2; the LLC is passed into
/// [`CoreEngine::step`] so several engines can share it. Block addresses
/// are tagged with the engine's id because co-scheduled programs share no
/// data.
#[derive(Debug, Clone)]
pub struct CoreEngine {
    source: TraceSource,
    machine: MachineConfig,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    core_idx: usize,
    tag: u64,
    /// Compute-throughput scale of this core (1.0 = the baseline big
    /// core; 2.0 = a little core taking twice the base cycles per
    /// instruction). Memory-side latencies are unaffected.
    core_factor: f64,
    cycles: f64,
    /// Per-cause cycle attribution (the Eyerman-style counter
    /// architecture the paper cites in §2.1).
    stack: mppm::CpiStack,
    /// Phase index the cached timing parameters below were taken from
    /// (`usize::MAX` until first refreshed, so the first step populates
    /// the cache).
    cached_phase: usize,
    /// The cached phase's base CPI, pre-scaled by the core factor.
    cached_base_cpi: f64,
    /// The cached phase's memory-level parallelism.
    cached_mlp: f64,
    /// Shared-LLC access generated by a burst, awaiting
    /// [`CoreEngine::commit_llc`].
    pending: Option<PendingLlc>,
}

impl CoreEngine {
    /// Creates an engine for `spec` on core `core_idx` of `machine`.
    pub fn new(
        spec: impl Into<Arc<BenchmarkSpec>>,
        machine: &MachineConfig,
        geometry: TraceGeometry,
        core_idx: usize,
    ) -> Self {
        let source = TraceSource::Reference(TraceStream::new(spec, geometry));
        Self::from_source(source, machine, core_idx, 1.0)
    }

    /// Swaps in the chunk that continues the trace where the held one
    /// ends, returning the spent buffer for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fed, or the held chunk has ops left.
    pub(crate) fn feed(&mut self, mut chunk: PhaseRun) -> PhaseRun {
        self.refeed(|held| std::mem::swap(held, &mut chunk));
        chunk
    }

    /// Refills the held, spent chunk in place with `refill`, which must
    /// cut the chunk that continues the trace, and replays it from its
    /// start — [`Self::feed`] without the buffer swap.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fed, or the held chunk has ops left.
    pub(crate) fn refeed(&mut self, refill: impl FnOnce(&mut PhaseRun)) {
        let TraceSource::Fed(f) = &mut self.source else { panic!("only fed engines take chunks") };
        assert_eq!(f.op, f.chunk.ops().len(), "the held chunk is not spent");
        f.op = 0;
        refill(&mut f.chunk);
    }

    /// Takes the held chunk buffer back (leaving an empty one) — how a
    /// run returns its chunk buffers to the [`crate::SimArena`] pool.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fed.
    pub(crate) fn take_chunk(&mut self) -> PhaseRun {
        let TraceSource::Fed(f) = &mut self.source else { panic!("only fed engines hold chunks") };
        std::mem::take(&mut f.chunk)
    }

    /// Builds an engine for core `core_idx` over any trace source.
    ///
    /// # Panics
    ///
    /// Panics if `core_factor` is not positive and finite.
    pub(crate) fn from_source(
        source: TraceSource,
        machine: &MachineConfig,
        core_idx: usize,
        core_factor: f64,
    ) -> Self {
        assert!(core_factor.is_finite() && core_factor > 0.0, "core factor must be positive");
        Self {
            source,
            machine: *machine,
            l1d: SetAssocCache::new(machine.l1d, Replacement::Lru),
            l2: SetAssocCache::new(machine.l2, Replacement::Lru),
            core_idx,
            tag: (core_idx as u64 + 1) << 44,
            core_factor,
            cycles: 0.0,
            stack: mppm::CpiStack::default(),
            cached_phase: usize::MAX,
            cached_base_cpi: 0.0,
            cached_mlp: 1.0,
            pending: None,
        }
    }

    /// Rebuilds this engine in place for a new mix — the `SimArena` pool
    /// path. Observationally equivalent to [`Self::from_source`] with the
    /// same arguments, but the private L1D/L2 slabs are reused (via
    /// [`SetAssocCache::reinit`]) when the machine's cache shapes match,
    /// so it allocates nothing unless they changed.
    ///
    /// # Panics
    ///
    /// Panics if `core_factor` is not positive and finite.
    pub(crate) fn reinit(
        &mut self,
        source: TraceSource,
        machine: &MachineConfig,
        core_idx: usize,
        core_factor: f64,
    ) {
        assert!(core_factor.is_finite() && core_factor > 0.0, "core factor must be positive");
        self.source = source;
        self.machine = *machine;
        self.l1d.reinit(machine.l1d, Replacement::Lru);
        self.l2.reinit(machine.l2, Replacement::Lru);
        self.core_idx = core_idx;
        self.tag = (core_idx as u64 + 1) << 44;
        self.core_factor = core_factor;
        self.cycles = 0.0;
        self.stack = mppm::CpiStack::default();
        self.cached_phase = usize::MAX;
        self.cached_base_cpi = 0.0;
        self.cached_mlp = 1.0;
        self.pending = None;
    }

    /// Local clock, in cycles.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Instructions retired so far (monotonic across trace wraps).
    pub fn insns(&self) -> u64 {
        match &self.source {
            TraceSource::Reference(stream) => stream.position(),
            TraceSource::Fed(cursor) => cursor.insn,
        }
    }

    /// Trace-pass wraps so far (warmup plus measurement plus FAME
    /// re-iteration): the pass in progress is not counted, and a pass
    /// is only left when its successor's first item runs. A fed engine's
    /// generator runs ahead of it, so its count comes from its own
    /// position, which the lazy rewind makes `(position − 1) / trace`.
    pub fn trace_passes(&self) -> u64 {
        match &self.source {
            TraceSource::Reference(stream) => stream.wraps(),
            TraceSource::Fed(cursor) => cursor.insn.saturating_sub(1) / cursor.trace_insns,
        }
    }

    /// Accumulated memory-component stall cycles (the cycles a perfect LLC
    /// would have avoided), including channel queueing.
    pub fn mem_stall(&self) -> f64 {
        self.stack.mem_component()
    }

    /// Full per-cause cycle breakdown so far. `stack.total()` equals
    /// [`Self::cycles`].
    pub fn cpi_stack(&self) -> mppm::CpiStack {
        self.stack
    }

    /// The benchmark this engine runs.
    pub fn spec(&self) -> &BenchmarkSpec {
        match &self.source {
            TraceSource::Reference(stream) => stream.spec(),
            TraceSource::Fed(cursor) => &cursor.spec,
        }
    }

    /// The next item of a reference engine's live stream, with the
    /// index of the phase it was generated under.
    ///
    /// # Panics
    ///
    /// Panics if the engine is fed: fed engines run bursts only.
    fn reference_next_item(&mut self) -> (usize, TraceItem) {
        let TraceSource::Reference(stream) = &mut self.source else {
            panic!("fed engines run bursts only")
        };
        (stream.current_phase(), stream.next_item())
    }

    /// Re-reads the phase parameters after a phase change. Out of the
    /// per-item fast path: phases change at most once per profiling
    /// interval (thousands of items).
    #[cold]
    fn refresh_phase(&mut self, phase_idx: usize) {
        let (base_cpi, mlp) = {
            let phase = &self.spec().phases()[phase_idx];
            (phase.base_cpi, phase.mlp)
        };
        self.cached_base_cpi = base_cpi * self.core_factor;
        self.cached_mlp = mlp;
        self.cached_phase = phase_idx;
    }

    /// Executes one trace item of the live stream, charging cycles to the
    /// local clock and accessing the memory hierarchy as needed.
    ///
    /// # Panics
    ///
    /// Panics if the engine is fed: fed engines run bursts only.
    pub fn step(&mut self, uncore: &mut Uncore, mode: LlcMode) -> StepOutcome {
        debug_assert!(self.pending.is_none(), "commit the pending LLC access before stepping");
        let (phase_idx, item) = self.reference_next_item();
        if phase_idx != self.cached_phase {
            self.refresh_phase(phase_idx);
        }
        let (base_cpi, mlp) = (self.cached_base_cpi, self.cached_mlp);
        match item {
            TraceItem::Compute { insns } => {
                let cost = f64::from(insns) * base_cpi;
                self.cycles += cost;
                self.stack.base += cost;
                StepOutcome { insns: u64::from(insns), llc: None }
            }
            TraceItem::Access(access) => {
                self.cycles += base_cpi;
                self.stack.base += base_cpi;
                let block = self.tag | access.block;
                if self.l1d.access(block).hit {
                    return StepOutcome { insns: 1, llc: None };
                }
                if self.l2.access(block).hit {
                    let stall = self.machine.stall_cycles(self.machine.l2.latency, mlp);
                    self.cycles += stall;
                    self.stack.l2_hit += stall;
                    return StepOutcome { insns: 1, llc: None };
                }
                let llc_hit_stall = self.machine.stall_cycles(self.machine.llc.latency, mlp);
                let observation = match mode {
                    LlcMode::Perfect => {
                        self.cycles += llc_hit_stall;
                        self.stack.llc_hit += llc_hit_stall;
                        LlcObservation { depth: Some(0), store: access.store }
                    }
                    LlcMode::Real => {
                        let r = uncore.llc_for(self.core_idx).access(block);
                        self.cycles += llc_hit_stall;
                        self.stack.llc_hit += llc_hit_stall;
                        if !r.hit {
                            let queue = uncore.memory.request(self.cycles) / mlp;
                            let mem = f64::from(self.machine.mem_latency) / mlp;
                            self.cycles += mem + queue;
                            self.stack.memory += mem;
                            self.stack.queue += queue;
                        }
                        LlcObservation { depth: r.depth, store: access.store }
                    }
                };
                StepOutcome { insns: 1, llc: Some(observation) }
            }
        }
    }

    /// Executes trace items *locally* — compute batches and private L1/L2
    /// hits, which touch no shared state — until either a shared-LLC
    /// access is generated or the retired-instruction count reaches
    /// `limit`.
    ///
    /// On [`BurstStop::Llc`] the private half of the access step has run
    /// (stream advanced, L1/L2 filled, base CPI charged); the shared half
    /// must be completed with [`CoreEngine::commit_llc`] before the next
    /// burst or step. On [`BurstStop::Limit`] the crossing step has fully
    /// executed and the engine state matches a per-step loop stopped at
    /// the same check.
    ///
    /// Always executes at least one item; callers pass `limit >`
    /// [`Self::insns`].
    ///
    /// # Panics
    ///
    /// Panics if an LLC access is pending from a previous burst.
    pub fn run_until_llc(&mut self, limit: u64) -> BurstStop {
        assert!(self.pending.is_none(), "commit the pending LLC access before bursting");
        match self.source {
            TraceSource::Reference(_) => self.reference_run_until_llc(limit),
            TraceSource::Fed(_) => self
                .run_fed_until_llc(limit)
                .expect("a fed burst's limit lies within the held chunk"),
        }
    }

    /// The per-item burst loop over the live generator — the reference
    /// implementation [`Self::run_fed_until_llc`] is differential-tested
    /// against.
    fn reference_run_until_llc(&mut self, limit: u64) -> BurstStop {
        loop {
            let stamp = self.cycles;
            let (phase_idx, item) = self.reference_next_item();
            if phase_idx != self.cached_phase {
                self.refresh_phase(phase_idx);
            }
            match item {
                TraceItem::Compute { insns } => {
                    let cost = f64::from(insns) * self.cached_base_cpi;
                    self.cycles += cost;
                    self.stack.base += cost;
                }
                TraceItem::Access(access) => {
                    self.cycles += self.cached_base_cpi;
                    self.stack.base += self.cached_base_cpi;
                    let block = self.tag | access.block;
                    if !self.l1d.access(block).hit {
                        if self.l2.access(block).hit {
                            let stall =
                                self.machine.stall_cycles(self.machine.l2.latency, self.cached_mlp);
                            self.cycles += stall;
                            self.stack.l2_hit += stall;
                        } else {
                            self.pending = Some(PendingLlc {
                                block,
                                store: access.store,
                                mlp: self.cached_mlp,
                            });
                            return BurstStop::Llc { stamp };
                        }
                    }
                }
            }
            if self.insns() >= limit {
                return BurstStop::Limit { stamp };
            }
        }
    }

    /// The burst loop over a fed chunk: one [`Self::walk_ops`] call,
    /// returning `None` when the held chunk runs out first — the caller
    /// then [feeds](Self::feed) the next chunk and bursts on
    /// ([`crate::feed::burst`]), so a burst stops exactly where one over
    /// the whole trace would.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fed.
    pub(crate) fn run_fed_until_llc(&mut self, limit: u64) -> Option<BurstStop> {
        self.run_fed(limit, &mut ())
    }

    /// [`Self::run_fed_until_llc`] with every charge also handed to
    /// `tally` — or, for a [`Tally::REPLAY`] tally, the private side
    /// alone: no cycles, no pending access, no stop before `limit`.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fed.
    #[inline(always)]
    pub(crate) fn run_fed<T: Tally>(&mut self, limit: u64, tally: &mut T) -> Option<BurstStop> {
        debug_assert!(self.pending.is_none(), "commit the pending LLC access before bursting");
        let TraceSource::Fed(f) = &mut self.source else {
            panic!("only fed engines replay chunks")
        };
        // Moved out for the walk (no copy of the words) so the engine
        // stays mutably borrowable.
        let chunk = std::mem::take(&mut f.chunk);
        let (mut op, mut pos) = (f.op, f.insn);
        let stop = self.walk_ops(chunk.phase(), chunk.ops(), &mut op, &mut pos, limit, tally);
        let TraceSource::Fed(f) = &mut self.source else { unreachable!() };
        f.chunk = chunk;
        f.op = op;
        f.insn = pos;
        stop
    }

    /// The one op-walking loop behind every fed burst: executes
    /// ops `*op..` of `ops` (all of phase `phase`) against the private
    /// caches until a shared-LLC access is generated or the stream
    /// position `*pos` reaches `limit`, returning `None` if the words
    /// run out first. Address generation and classification were paid
    /// when the words were filled; phase parameters and the L2 stall
    /// are loaded once per call.
    ///
    /// Charges the exact same f64 operations in the exact same order as
    /// [`Self::reference_run_until_llc`] — compute batches stay clipped
    /// at interval boundaries as the generator emitted them, because
    /// f64 accumulation is not associative and merging adjacent batches
    /// would change low-order bits. `tally` sees each charge of a step
    /// that stays private; the `()` tally compiles away.
    #[inline(always)]
    fn walk_ops<T: Tally>(
        &mut self,
        phase: usize,
        ops: &OpWords,
        op: &mut usize,
        pos: &mut u64,
        limit: u64,
        tally: &mut T,
    ) -> Option<BurstStop> {
        if phase != self.cached_phase {
            self.refresh_phase(phase);
        }
        let base_cpi = self.cached_base_cpi;
        let mlp = self.cached_mlp;
        let l2_stall = self.machine.stall_cycles(self.machine.l2.latency, mlp);
        tally.phase(base_cpi, l2_stall);
        let words = ops.words();
        while *op < words.len() {
            let word = words[*op];
            *op += 1;
            let stamp = self.cycles;
            if !OpWords::is_access(word) {
                let insns = OpWords::compute_insns(word);
                if !T::REPLAY {
                    let cost = f64::from(insns) * base_cpi;
                    self.cycles += cost;
                    self.stack.base += cost;
                    tally.compute(cost);
                }
                *pos += u64::from(insns);
            } else {
                if !T::REPLAY {
                    self.cycles += base_cpi;
                    self.stack.base += base_cpi;
                }
                *pos += 1;
                let block = self.tag | OpWords::block(word);
                if !self.l1d.access(block).hit {
                    if self.l2.access(block).hit {
                        if !T::REPLAY {
                            self.cycles += l2_stall;
                            self.stack.l2_hit += l2_stall;
                        }
                        tally.l2_hit();
                    } else if !T::REPLAY {
                        self.pending = Some(PendingLlc {
                            block,
                            store: OpWords::is_store(word),
                            mlp,
                        });
                        return Some(BurstStop::Llc { stamp });
                    }
                } else {
                    tally.l1_hit();
                }
            }
            if *pos >= limit {
                return Some(BurstStop::Limit { stamp });
            }
        }
        None
    }

    /// The private caches' logical state: L1D then L2, each set by set,
    /// most recent first ([`SetAssocCache::resident_blocks`]).
    pub(crate) fn private_state(&self) -> impl Iterator<Item = u64> + '_ {
        self.l1d.resident_blocks().chain(self.l2.resident_blocks())
    }

    /// The LLC access a burst left pending, as `(untagged block, store)`,
    /// and the phase it was issued under.
    pub(crate) fn pending_access(&self) -> Option<(u64, bool, usize)> {
        self.pending.map(|p| (p.block & !self.tag, p.store, self.cached_phase))
    }

    /// Instructions in one trace pass of a fed engine.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fed.
    pub(crate) fn trace_insns(&self) -> u64 {
        let TraceSource::Fed(f) = &self.source else { panic!("only fed engines hold a cursor") };
        f.trace_insns
    }

    /// Moves a fed engine's position to `insn` and leaves its chunk and
    /// op where they are: the skip-ahead burst runs the position ahead
    /// of the chunk, and its catch-up walks the chunk after it.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fed.
    pub(crate) fn set_position(&mut self, insn: u64) {
        let TraceSource::Fed(f) = &mut self.source else {
            panic!("only fed engines hold a cursor")
        };
        f.insn = insn;
    }

    /// Lands a skipped segment: the LLC access at the end of `insns`
    /// instructions began at clock `stamp` under phase `phase`. Charges
    /// that access's base CPI, leaves it pending and moves the position
    /// on, as [`Self::walk_ops`] would have; the [`Self::cpi_stack`] is
    /// not kept (no `MixSim` reader looks at it).
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fed.
    #[inline(always)]
    pub(crate) fn skip_segment(
        &mut self,
        stamp: f64,
        phase: usize,
        block: u64,
        store: bool,
        insns: u64,
    ) {
        if phase != self.cached_phase {
            self.refresh_phase(phase);
        }
        self.cycles = stamp + self.cached_base_cpi;
        self.pending = Some(PendingLlc { block: self.tag | block, store, mlp: self.cached_mlp });
        let TraceSource::Fed(f) = &mut self.source else { panic!("only fed engines skip") };
        f.insn += insns;
    }

    /// Commits the shared-LLC access a burst left pending: probes the
    /// (shared or partitioned) LLC and, on a miss, the memory channel,
    /// charging the same stalls in the same order as [`CoreEngine::step`].
    ///
    /// # Panics
    ///
    /// Panics if no access is pending.
    pub fn commit_llc(&mut self, uncore: &mut Uncore) -> LlcObservation {
        let p = self.pending.take().expect("a burst must have left an LLC access pending");
        let llc_hit_stall = self.machine.stall_cycles(self.machine.llc.latency, p.mlp);
        let r = uncore.llc_for(self.core_idx).access(p.block);
        self.cycles += llc_hit_stall;
        self.stack.llc_hit += llc_hit_stall;
        if !r.hit {
            let queue = uncore.memory.request(self.cycles) / p.mlp;
            let mem = f64::from(self.machine.mem_latency) / p.mlp;
            self.cycles += mem + queue;
            self.stack.memory += mem;
            self.stack.queue += queue;
        }
        LlcObservation { depth: r.depth, store: p.store }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppm_cache::CacheConfig;
    use mppm_trace::{Phase, Region};

    fn machine() -> MachineConfig {
        MachineConfig::baseline()
    }

    fn spec(mem_ratio: f64, blocks: u64) -> BenchmarkSpec {
        BenchmarkSpec::new(
            "t",
            3,
            vec![Phase {
                mem_ratio,
                store_ratio: 0.2,
                base_cpi: 0.5,
                mlp: 2.0,
                regions: vec![Region::uniform(0, blocks, 1.0)],
            }],
            vec![0],
        )
        .unwrap()
    }

    fn run(engine: &mut CoreEngine, uncore: &mut Uncore, insns: u64) -> Vec<StepOutcome> {
        let mut outcomes = Vec::new();
        let start = engine.insns();
        while engine.insns() - start < insns {
            outcomes.push(engine.step(uncore, LlcMode::Real));
        }
        outcomes
    }

    #[test]
    fn l1_resident_program_runs_at_base_cpi() {
        let m = machine();
        let g = TraceGeometry::tiny();
        // 64 blocks fit easily in the 512-block L1D.
        let mut engine = CoreEngine::new(spec(0.3, 64), &m, g, 0);
        let mut uncore = Uncore::new(&m);
        run(&mut engine, &mut uncore, 20_000); // warm the caches
        let (c0, i0) = (engine.cycles(), engine.insns());
        run(&mut engine, &mut uncore, 50_000);
        let cpi = (engine.cycles() - c0) / (engine.insns() - i0) as f64;
        assert!((cpi - 0.5).abs() < 0.01, "warm cpi {cpi} should be base 0.5");
    }

    #[test]
    fn llc_resident_program_pays_llc_latency_only() {
        let m = machine();
        let g = TraceGeometry::tiny();
        // 6000 blocks: beyond L2 (4096) but within LLC (8192).
        let mut engine = CoreEngine::new(spec(0.3, 6000), &m, g, 0);
        let mut uncore = Uncore::new(&m);
        run(&mut engine, &mut uncore, 2 * g.trace_insns()); // warm: cover the set twice
        let (c0, i0, s0) = (engine.cycles(), engine.insns(), engine.mem_stall());
        run(&mut engine, &mut uncore, g.trace_insns());
        let insns = (engine.insns() - i0) as f64;
        let cpi = (engine.cycles() - c0) / insns;
        assert!(cpi > 0.5, "some LLC-hit stall expected");
        // Warm: only LLC-set-overflow misses go to memory.
        let mem_cpi = (engine.mem_stall() - s0) / insns;
        assert!(mem_cpi < 0.5, "warm mem cpi {mem_cpi} should be small");
        let (hits, misses) = uncore.llc_totals();
        assert!(hits > misses, "mostly LLC hits overall");
    }

    #[test]
    fn memory_bound_program_accumulates_mem_stall() {
        let m = machine();
        let g = TraceGeometry::tiny();
        // 100K blocks: misses everywhere.
        let mut engine = CoreEngine::new(spec(0.3, 100_000), &m, g, 0);
        let mut uncore = Uncore::new(&m);
        run(&mut engine, &mut uncore, 50_000);
        let mem_cpi = engine.mem_stall() / engine.insns() as f64;
        // ~0.3 accesses/insn, ~92% LLC miss rate, 200/2 cycles each.
        assert!(mem_cpi > 10.0, "mem cpi {mem_cpi}");
        let cpi = engine.cycles() / engine.insns() as f64;
        assert!(cpi > 10.0 && cpi < 40.0, "cpi {cpi}");
    }

    #[test]
    fn perfect_llc_mode_removes_memory_stall() {
        let m = machine();
        let g = TraceGeometry::tiny();
        let mk = || CoreEngine::new(spec(0.3, 100_000), &m, g, 0);
        let mut real = mk();
        let mut perfect = mk();
        let mut uncore_r = Uncore::new(&m);
        let mut uncore_p = Uncore::new(&m);
        while real.insns() < 50_000 {
            real.step(&mut uncore_r, LlcMode::Real);
        }
        while perfect.insns() < 50_000 {
            perfect.step(&mut uncore_p, LlcMode::Perfect);
        }
        // The cycle difference is exactly the accumulated memory stall.
        let diff = real.cycles() - perfect.cycles();
        assert!(
            (diff - real.mem_stall()).abs() < 1e-6,
            "difference {diff} vs mem_stall {}",
            real.mem_stall()
        );
        let (hits_p, misses_p) = uncore_p.llc_totals();
        assert_eq!(hits_p + misses_p, 0, "perfect mode leaves the LLC untouched");
    }

    #[test]
    fn engines_with_different_tags_conflict_in_shared_llc() {
        let m = machine();
        let g = TraceGeometry::tiny();
        // Two copies of a 6000-block program share an 8192-block LLC: each
        // fits alone, together they thrash. Drive them through the real
        // event-driven scheduler rather than a hand-rolled two-core loop.
        let mut engines = vec![
            CoreEngine::new(spec(0.3, 6000), &m, g, 0),
            CoreEngine::new(spec(0.3, 6000), &m, g, 1),
        ];
        let mut shared = Uncore::new(&m);
        let mut state = crate::multi::InterleaveState::new(engines.len(), 0, 100_000);
        let mut heap = std::collections::BinaryHeap::new();
        let burst = |e: &mut CoreEngine, _, limit| e.run_until_llc(limit);
        let (state, heap) = (&mut state, &mut heap);
        crate::multi::event_interleave_into(&mut engines, &mut shared, state, heap, burst);
        let mem_cpi = engines[0].mem_stall() / engines[0].insns() as f64;
        assert!(mem_cpi > 0.2, "sharing should cause conflict misses, mem cpi {mem_cpi}");
    }

    #[test]
    fn deterministic_execution() {
        let m = machine();
        let g = TraceGeometry::tiny();
        let mk = || {
            (
                CoreEngine::new(spec(0.25, 5000), &m, g, 0),
                Uncore::new(&m),
            )
        };
        let (mut e1, mut l1) = mk();
        let (mut e2, mut l2) = mk();
        for _ in 0..10_000 {
            assert_eq!(e1.step(&mut l1, LlcMode::Real), e2.step(&mut l2, LlcMode::Real));
        }
        assert_eq!(e1.cycles(), e2.cycles());
    }

    #[test]
    fn llc_observations_report_stores() {
        let m = machine();
        let g = TraceGeometry::tiny();
        let mut engine = CoreEngine::new(spec(0.5, 50_000), &m, g, 0);
        let mut uncore = Uncore::new(&m);
        let outcomes = run(&mut engine, &mut uncore, 20_000);
        let obs: Vec<_> = outcomes.iter().filter_map(|o| o.llc).collect();
        assert!(!obs.is_empty());
        let stores = obs.iter().filter(|o| o.store).count();
        let ratio = stores as f64 / obs.len() as f64;
        assert!((ratio - 0.2).abs() < 0.05, "store ratio {ratio}");
    }

    #[test]
    fn custom_llc_geometry_is_respected() {
        // A tiny 64-line LLC forces misses even for small working sets.
        let mut m = machine();
        m.llc = CacheConfig::new(64 * 64, 4, 64, 16);
        let g = TraceGeometry::tiny();
        let mut engine = CoreEngine::new(spec(0.3, 6000), &m, g, 0);
        let mut uncore = Uncore::new(&m);
        run(&mut engine, &mut uncore, 30_000);
        let (hits, misses) = uncore.llc_totals();
        assert!(misses > hits);
    }
}
