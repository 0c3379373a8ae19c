//! Phase compiler: one-shot compilation of a benchmark's trace into the
//! phase-tagged runs every replay walks.
//!
//! A [`crate::Phase`] is a stationary statistical process, so the items it
//! generates can be produced *once* and replayed on every subsequent trace
//! pass instead of re-running the generator (two `ln()` calls per compute
//! gap, three to four RNG draws per access, a cursor walk per stream
//! region). The FAME-style re-iteration methodology makes this a
//! multiplier: every simulated program executes its trace at least twice
//! (warmup plus measurement) and usually more, because finished programs
//! keep re-iterating until the whole mix completes.
//!
//! The simulator replays one trace representation: a [`PhaseRun`], a
//! phase index plus the [`OpWords`] generated under it, one packed
//! 8-byte word per item (an instruction count, or a block address with
//! access/store bits). The chunks a generator thread streams to the
//! pipelined profiler and to streamed mixes are runs of at most a chunk's
//! ops; a [`CompiledTrace`] is one whole pass as maximal runs, one per
//! run of same-phase intervals, and its on-disk form is a recording
//! ([`CompiledTrace::to_bytes`]).
//!
//! [`CompiledTrace::compile`] drains a live [`TraceStream`] for exactly
//! one pass and keeps every item it emits, so the compiled program is
//! bit-identical to the generator *by construction* — including
//! interval-boundary clipping of compute batches, which must be preserved
//! because f64 cycle accumulation is not associative.

use std::sync::Arc;

use crate::{BenchmarkSpec, MemAccess, TraceGeometry, TraceItem, TraceStream};

/// Trace items packed one `u64` word per op — the layout of every
/// [`PhaseRun`].
///
/// A compute batch's word is its instruction count (at most
/// `u32::MAX`). An access's word is its (untagged) block address with
/// bit 62 set, plus bit 63 for a store. Block addresses stay below
/// `1 << 44` ([`crate::Region::MAX_ID`]), so the bits never collide. The
/// layout is private to this crate: readers decode words with
/// [`OpWords::is_access`], [`OpWords::compute_insns`],
/// [`OpWords::block`] and [`OpWords::is_store`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpWords {
    pub(crate) words: Vec<u64>,
}

/// Word bit set on ops that access memory (clear means a compute batch).
const ACCESS: u64 = 1 << 62;
/// Word bit set on memory ops that are stores.
const STORE_SHIFT: u32 = 63;
/// Block addresses fit in this many bits.
pub(crate) const BLOCK_BITS: u32 = 44;

impl OpWords {
    /// The word of a compute batch of `insns` instructions.
    #[inline(always)]
    pub(crate) fn compute_word(insns: u32) -> u64 {
        u64::from(insns)
    }

    /// The word of an access to `block`.
    #[inline(always)]
    pub(crate) fn access_word(block: u64, store: bool) -> u64 {
        block | ACCESS | (u64::from(store) << STORE_SHIFT)
    }

    /// The [`TraceItem`] word `word` encodes.
    #[inline(always)]
    pub(crate) fn decode(word: u64) -> TraceItem {
        if Self::is_access(word) {
            TraceItem::Access(MemAccess { block: Self::block(word), store: Self::is_store(word) })
        } else {
            TraceItem::Compute { insns: Self::compute_insns(word) }
        }
    }

    /// Whether `word` is a memory access (otherwise a compute batch).
    #[inline(always)]
    pub fn is_access(word: u64) -> bool {
        word & ACCESS != 0
    }

    /// Instruction count of compute-batch word `word`.
    #[inline(always)]
    pub fn compute_insns(word: u64) -> u32 {
        debug_assert!(!Self::is_access(word));
        // mppm-lint: allow(lossy-counter-cast): compute words hold a u32 count by construction
        word as u32
    }

    /// Untagged block address of access word `word`.
    #[inline(always)]
    pub fn block(word: u64) -> u64 {
        debug_assert!(Self::is_access(word));
        word & (ACCESS - 1)
    }

    /// Whether access word `word` is a store.
    #[inline(always)]
    pub fn is_store(word: u64) -> bool {
        word >> STORE_SHIFT != 0
    }

    /// Number of ops (trace items).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no ops are held.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The packed op words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Materializes op `op` back into the [`TraceItem`] the generator
    /// emitted.
    ///
    /// # Panics
    ///
    /// Panics if `op >= self.len()`.
    pub fn item(&self, op: usize) -> TraceItem {
        Self::decode(self.words[op])
    }
}

/// A run of same-phase trace items: the phase index they were generated
/// under and their [`OpWords`] — the one unit every replay walks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRun {
    phase: usize,
    ops: OpWords,
}

impl PhaseRun {
    /// An empty run buffer with room for `ops` items.
    pub fn with_capacity(ops: usize) -> Self {
        Self { phase: 0, ops: OpWords { words: Vec::with_capacity(ops) } }
    }

    /// A run of phase `phase` holding `words`.
    pub(crate) fn from_words(phase: usize, words: Vec<u64>) -> Self {
        Self { phase, ops: OpWords { words } }
    }

    /// Index of the phase every op of the run was generated under.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The run's ops.
    pub fn ops(&self) -> &OpWords {
        &self.ops
    }

    /// Refills the buffer with the next items of `stream`: at least one
    /// and at most `max_ops`, all of one phase, none past position `end`
    /// (the stream must be short of `end`). Never reallocates while
    /// `max_ops` is within capacity.
    pub fn refill(&mut self, stream: &mut TraceStream, end: u64, max_ops: usize) {
        let words = &mut self.ops.words;
        words.clear();
        self.phase = stream.current_phase();
        stream.generate_items(end, |word| {
            debug_assert!(
                !OpWords::is_access(word) || OpWords::block(word) >> BLOCK_BITS == 0,
                "block ids stay below 2^44"
            );
            words.push(word);
            words.len() < max_ops
        });
    }

    /// Refills the buffer with at most `max_ops` ops of `run`, starting
    /// at op `start`, and returns how many it copied. Never reallocates
    /// while `max_ops` is within capacity.
    pub fn copy_from(&mut self, run: &PhaseRun, start: usize, max_ops: usize) -> usize {
        let src = &run.ops.words[start..];
        let take = src.len().min(max_ops);
        self.phase = run.phase;
        self.ops.words.clear();
        self.ops.words.extend_from_slice(&src[..take]);
        take
    }
}

/// A benchmark's full trace pass, compiled into one [`PhaseRun`] per
/// maximal run of same-phase intervals.
///
/// Replaying the runs in order (wrapping back to run 0 after the last)
/// yields exactly the item sequence of a [`TraceStream`] over the same
/// spec and geometry — the stream rewinds to its seed on every wrap, so
/// one compiled pass covers all passes.
///
/// # Example
///
/// ```
/// use mppm_trace::{suite, CompiledTrace, TraceGeometry, TraceStream};
///
/// let g = TraceGeometry::tiny();
/// let spec = suite::benchmark("mcf").unwrap().clone();
/// let compiled = CompiledTrace::compile(spec.clone(), g);
/// let mut stream = TraceStream::new(spec, g);
/// for run in compiled.runs() {
///     for op in 0..run.ops().len() {
///         assert_eq!(run.ops().item(op), stream.next_item());
///     }
/// }
/// assert_eq!(stream.position(), g.trace_insns());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrace {
    pub(crate) spec: Arc<BenchmarkSpec>,
    pub(crate) geometry: TraceGeometry,
    pub(crate) runs: Vec<PhaseRun>,
}

impl CompiledTrace {
    /// Compiles one full trace pass of `spec` on `geometry`.
    pub fn compile(spec: impl Into<Arc<BenchmarkSpec>>, geometry: TraceGeometry) -> Self {
        let spec = spec.into();
        let mut stream = TraceStream::new(Arc::clone(&spec), geometry);
        let runs = phase_runs(&spec, geometry)
            .into_iter()
            .map(|(phase, end)| {
                let mut run = PhaseRun::default();
                run.refill(&mut stream, end, usize::MAX);
                debug_assert_eq!(run.phase(), phase);
                // Items never cross interval boundaries and the phase is
                // constant inside a run, so the fill lands exactly on the
                // run's end.
                assert_eq!(stream.position(), end, "an item crossed a phase-run boundary");
                run
            })
            .collect();
        Self { spec, geometry, runs }
    }

    /// The spec this trace was compiled from.
    pub fn spec(&self) -> &Arc<BenchmarkSpec> {
        &self.spec
    }

    /// The geometry the trace is laid out on.
    pub fn geometry(&self) -> TraceGeometry {
        self.geometry
    }

    /// The pass's phase runs, in trace order (none empty: every interval
    /// generates at least one item).
    pub fn runs(&self) -> &[PhaseRun] {
        &self.runs
    }

    /// Total ops across all runs.
    pub fn ops(&self) -> u64 {
        self.runs.iter().map(|r| r.ops().len() as u64).sum()
    }
}

/// The maximal runs of consecutive same-phase intervals of one pass of
/// `spec` on `geometry`, as `(phase index, first instruction past the
/// run)`.
pub(crate) fn phase_runs(spec: &BenchmarkSpec, geometry: TraceGeometry) -> Vec<(usize, u64)> {
    let mut runs: Vec<(usize, u64)> = Vec::new();
    for interval in 0..geometry.intervals {
        let phase = spec.phase_for_interval(interval, geometry.intervals);
        let end = geometry.interval_start(interval) + geometry.interval_insns;
        match runs.last_mut() {
            Some((p, e)) if *p == phase => *e = end,
            _ => runs.push((phase, end)),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suite, Phase, Region};

    /// A spec with three phase runs (0, 1, 0) over the tiny geometry,
    /// mixing uniform and stream regions so both RNG draws and stream
    /// cursors are exercised across block boundaries.
    fn phased_spec() -> BenchmarkSpec {
        let heavy = Phase {
            mem_ratio: 0.5,
            store_ratio: 0.3,
            base_cpi: 0.5,
            mlp: 2.0,
            regions: vec![Region::uniform(0, 500, 0.6), Region::stream(1, 200, 0.4)],
        };
        let light = Phase {
            mem_ratio: 0.05,
            store_ratio: 0.0,
            base_cpi: 0.8,
            mlp: 1.0,
            regions: vec![Region::stream(1, 200, 1.0)],
        };
        BenchmarkSpec::new("phased", 42, vec![heavy, light], vec![0, 1, 0]).unwrap()
    }

    #[test]
    fn op_words_round_trip_extreme_items() {
        let top_block = (u64::from(Region::MAX_ID) << 32) + Region::MAX_BLOCKS - 1;
        let items = [
            TraceItem::Access(MemAccess { block: top_block, store: true }),
            TraceItem::Access(MemAccess { block: top_block, store: false }),
            TraceItem::Access(MemAccess { block: 0, store: true }),
            TraceItem::Compute { insns: u32::MAX },
            TraceItem::Compute { insns: 1 },
        ];
        let words = items
            .iter()
            .map(|item| match *item {
                TraceItem::Compute { insns } => OpWords::compute_word(insns),
                TraceItem::Access(a) => OpWords::access_word(a.block, a.store),
            })
            .collect();
        let ops = OpWords { words };
        for (op, item) in items.iter().enumerate() {
            assert_eq!(ops.item(op), *item);
        }
        let w = ops.words();
        assert!(OpWords::is_access(w[0]) && OpWords::is_store(w[0]));
        assert_eq!(OpWords::block(w[1]), top_block);
        assert!(!OpWords::is_store(w[1]));
        assert!(!OpWords::is_access(w[3]));
        assert_eq!(OpWords::compute_insns(w[3]), u32::MAX);
    }

    #[test]
    fn blocks_tile_the_trace_by_phase_run() {
        let g = TraceGeometry::tiny();
        let compiled = CompiledTrace::compile(phased_spec(), g);
        let expected = phase_runs(compiled.spec(), g);
        assert!(expected.len() >= 3, "schedule 0,1,0 has three phase runs");
        assert_eq!(compiled.runs().len(), expected.len());
        let mut start = 0;
        for (run, &(phase, end)) in compiled.runs().iter().zip(&expected) {
            assert_eq!(run.phase(), phase);
            assert!(end > start && end % g.interval_insns == 0);
            // Every interval inside the run runs the run's phase.
            let mut insn = start;
            while insn < end {
                let spec = compiled.spec();
                assert_eq!(spec.phase_for_interval(g.interval_of(insn), g.intervals), phase);
                insn += g.interval_insns;
            }
            let total: u64 = run.ops().words().iter().map(|&w| OpWords::decode(w).insns()).sum();
            assert_eq!(total, end - start, "runs must tile the pass contiguously");
            start = end;
        }
        assert_eq!(start, g.trace_insns());
    }

    #[test]
    fn compiled_items_match_the_live_generator() {
        let g = TraceGeometry::tiny();
        for name in ["gamess", "lbm", "mcf", "gcc"] {
            let spec = suite::benchmark(name).unwrap().clone();
            let compiled = CompiledTrace::compile(spec.clone(), g);
            let mut stream = TraceStream::new(spec, g);
            for (r, run) in compiled.runs().iter().enumerate() {
                for op in 0..run.ops().len() {
                    assert_eq!(run.ops().item(op), stream.next_item(), "{name}: run {r} op {op}");
                }
            }
            assert_eq!(stream.position(), g.trace_insns());
        }
    }

    #[test]
    fn copied_chunks_reassemble_the_run() {
        let g = TraceGeometry::tiny();
        let compiled = CompiledTrace::compile(phased_spec(), g);
        let mut chunk = PhaseRun::with_capacity(7);
        for run in compiled.runs() {
            let mut words = Vec::new();
            let mut start = 0;
            while start < run.ops().len() {
                let copied = chunk.copy_from(run, start, 7);
                assert!(copied > 0 && copied <= 7);
                assert_eq!(chunk.phase(), run.phase());
                words.extend_from_slice(chunk.ops().words());
                start += copied;
            }
            assert_eq!(words, run.ops().words());
        }
    }

    #[test]
    fn single_phase_trace_compiles_to_one_block() {
        let spec = BenchmarkSpec::new(
            "flat",
            7,
            vec![Phase {
                mem_ratio: 0.3,
                store_ratio: 0.2,
                base_cpi: 0.5,
                mlp: 2.0,
                regions: vec![Region::uniform(0, 100, 1.0)],
            }],
            vec![0],
        )
        .unwrap();
        let g = TraceGeometry::tiny();
        let compiled = CompiledTrace::compile(spec, g);
        assert_eq!(compiled.runs().len(), 1);
        let insns: u64 =
            compiled.runs()[0].ops().words().iter().map(|&w| OpWords::decode(w).insns()).sum();
        assert_eq!(insns, g.trace_insns());
        assert!(compiled.ops() > 0);
    }

    #[test]
    fn compilation_is_deterministic() {
        let g = TraceGeometry::tiny();
        let a = CompiledTrace::compile(phased_spec(), g);
        let b = CompiledTrace::compile(phased_spec(), g);
        assert_eq!(a, b);
    }
}
