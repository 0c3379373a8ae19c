//! Phase compiler: one-shot compilation of a benchmark's trace into flat
//! replayable blocks.
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
//! [`CompiledTrace::compile`] drains a live [`TraceStream`] for exactly
//! one pass and records every item it emits, so the compiled program is
//! bit-identical to the generator *by construction* — including
//! interval-boundary clipping of compute batches, which must be preserved
//! because f64 cycle accumulation is not associative. Items are grouped
//! into one [`CompiledBlock`] per maximal run of same-phase intervals and
//! stored as [`OpWords`], one packed 8-byte word per item (an instruction
//! count, or a block address with access/store bits), so the executor's
//! inner loop makes one load per op from one contiguous array, with no
//! RNG, no `BTreeMap`, and one phase-parameter load per *block* instead
//! of per item.
//!
//! Each block also records the generator state at its entry (RNG plus the
//! per-region stream offsets, *ranked into* the checkpoint rather than
//! shared mutably between blocks), making blocks independently
//! regenerable: [`CompiledTrace::regenerate_block`] rebuilds any block
//! from its own checkpoint and must reproduce the front-to-back
//! compilation exactly. That replay-stability is what lets incremental
//! recompilation (and the differential harness) treat blocks as
//! independent units.

use std::sync::Arc;

use crate::stream::StreamCheckpoint;
use crate::{BenchmarkSpec, MemAccess, TraceGeometry, TraceItem, TraceStream};

/// Trace items packed one `u64` word per op — the layout of every
/// [`CompiledBlock`], and of the chunks the pipelined profiler and
/// streamed mixes receive from their generator thread.
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
    words: Vec<u64>,
}

/// Word bit set on ops that access memory (clear means a compute batch).
const ACCESS: u64 = 1 << 62;
/// Word bit set on memory ops that are stores.
const STORE_SHIFT: u32 = 63;

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

    /// Empty words with room for `ops` items.
    pub fn with_capacity(ops: usize) -> Self {
        Self { words: Vec::with_capacity(ops) }
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

    /// Removes every op, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Appends the items `stream` generates, stopping once its position
    /// reaches `end`, the phase index changes, or `max_ops` ops are held
    /// — whichever comes first. Appends at least one item when the
    /// stream is short of `end` and the words short of `max_ops`. Never
    /// reallocates while `max_ops` is within capacity.
    pub fn fill_from(&mut self, stream: &mut TraceStream, end: u64, max_ops: usize) {
        if self.len() >= max_ops {
            return;
        }
        stream.generate_items(end, |word| {
            debug_assert!(
                !Self::is_access(word) || Self::block(word) < 1 << 44,
                "block ids stay below 2^44"
            );
            self.words.push(word);
            self.words.len() < max_ops
        });
    }
}

/// One maximal run of same-phase intervals, compiled to flat
/// [`OpWords`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledBlock {
    phase: usize,
    start_insn: u64,
    end_insn: u64,
    ops: OpWords,
    entry: StreamCheckpoint,
}

impl CompiledBlock {
    /// Index of the phase every interval of this block runs.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// First instruction of the block within one trace pass.
    pub fn start_insn(&self) -> u64 {
        self.start_insn
    }

    /// First instruction past the block within one trace pass.
    pub fn end_insn(&self) -> u64 {
        self.end_insn
    }

    /// The block's ops (never empty: every interval generates at least
    /// one item).
    pub fn ops(&self) -> &OpWords {
        &self.ops
    }
}

/// A benchmark's full trace pass, compiled into per-phase-run
/// [`CompiledBlock`]s.
///
/// Replaying the blocks in order (wrapping back to block 0 after the
/// last) yields exactly the item sequence of a [`TraceStream`] over the
/// same spec and geometry — the stream rewinds to its seed on every wrap,
/// so one compiled pass covers all passes.
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
/// for block in compiled.blocks() {
///     for op in 0..block.ops().len() {
///         assert_eq!(block.ops().item(op), stream.next_item());
///     }
/// }
/// assert_eq!(stream.position(), g.trace_insns());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrace {
    spec: Arc<BenchmarkSpec>,
    geometry: TraceGeometry,
    blocks: Vec<CompiledBlock>,
}

impl CompiledTrace {
    /// Compiles one full trace pass of `spec` on `geometry`.
    pub fn compile(spec: impl Into<Arc<BenchmarkSpec>>, geometry: TraceGeometry) -> Self {
        let spec = spec.into();
        // Maximal runs of consecutive same-phase intervals; block
        // boundaries are exactly the positions where the phase index
        // changes (plus position 0), which is the contract
        // `StreamCheckpoint` needs to drop the pending-gap remainder.
        let mut runs: Vec<(usize, u64)> = Vec::new();
        for interval in 0..geometry.intervals {
            let phase = spec.phase_for_interval(interval, geometry.intervals);
            let end = geometry.interval_start(interval) + geometry.interval_insns;
            match runs.last_mut() {
                Some((p, e)) if *p == phase => *e = end,
                _ => runs.push((phase, end)),
            }
        }
        let mut stream = TraceStream::new(Arc::clone(&spec), geometry);
        let mut blocks = Vec::with_capacity(runs.len());
        let mut start = 0u64;
        for (phase, end) in runs {
            let entry = stream.checkpoint();
            blocks.push(drain_block(&mut stream, phase, start, end, entry));
            start = end;
        }
        Self { spec, geometry, blocks }
    }

    /// The spec this trace was compiled from.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// The geometry the trace is laid out on.
    pub fn geometry(&self) -> TraceGeometry {
        self.geometry
    }

    /// The compiled blocks, in trace order.
    pub fn blocks(&self) -> &[CompiledBlock] {
        &self.blocks
    }

    /// Total ops across all blocks.
    pub fn ops(&self) -> u64 {
        self.blocks.iter().map(|b| b.ops().len() as u64).sum()
    }

    /// Regenerates block `k` from its own entry checkpoint, independent
    /// of every other block.
    ///
    /// Must equal `self.blocks()[k]` exactly (unit-tested below): the
    /// checkpointed RNG and ranked-in stream offsets are the *only*
    /// generator state a block depends on.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn regenerate_block(&self, k: usize) -> CompiledBlock {
        let blk = &self.blocks[k];
        let mut stream = TraceStream::restore_within_pass(
            Arc::clone(&self.spec),
            self.geometry,
            blk.start_insn,
            blk.entry.clone(),
        );
        drain_block(&mut stream, blk.phase, blk.start_insn, blk.end_insn, blk.entry.clone())
    }
}

/// Drains `stream` from `start` (its current position) to `end`,
/// collecting the items into a block's words.
fn drain_block(
    stream: &mut TraceStream,
    phase: usize,
    start: u64,
    end: u64,
    entry: StreamCheckpoint,
) -> CompiledBlock {
    debug_assert_eq!(stream.position(), start);
    let mut ops = OpWords::default();
    ops.fill_from(stream, end, usize::MAX);
    // Items never cross interval boundaries and the phase is constant
    // inside a block, so the fill lands exactly on the block boundary.
    assert_eq!(stream.position(), end, "an item crossed the block boundary");
    CompiledBlock { phase, start_insn: start, end_insn: end, ops, entry }
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
        assert!(compiled.blocks().len() >= 3, "schedule 0,1,0 has three phase runs");
        let mut expected_start = 0;
        for blk in compiled.blocks() {
            assert_eq!(blk.start_insn(), expected_start, "blocks must tile contiguously");
            assert!(blk.end_insn() > blk.start_insn());
            assert_eq!(blk.start_insn() % g.interval_insns, 0);
            // Every interval inside the block runs the block's phase.
            let mut insn = blk.start_insn();
            while insn < blk.end_insn() {
                let spec = compiled.spec();
                assert_eq!(
                    spec.phase_for_interval(g.interval_of(insn), g.intervals),
                    blk.phase()
                );
                insn += g.interval_insns;
            }
            let total: u64 = blk.ops().words().iter().map(|&w| OpWords::decode(w).insns()).sum();
            assert_eq!(total, blk.end_insn() - blk.start_insn());
            expected_start = blk.end_insn();
        }
        assert_eq!(expected_start, g.trace_insns());
    }

    #[test]
    fn compiled_items_match_the_live_generator() {
        let g = TraceGeometry::tiny();
        for name in ["gamess", "lbm", "mcf", "gcc"] {
            let spec = suite::benchmark(name).unwrap().clone();
            let compiled = CompiledTrace::compile(spec.clone(), g);
            let mut stream = TraceStream::new(spec, g);
            for (b, blk) in compiled.blocks().iter().enumerate() {
                for op in 0..blk.ops().len() {
                    assert_eq!(blk.ops().item(op), stream.next_item(), "{name}: block {b} op {op}");
                }
            }
            assert_eq!(stream.position(), g.trace_insns());
        }
    }

    #[test]
    fn blocks_regenerate_from_their_entry_checkpoints() {
        // The satellite contract: re-running any block from its own
        // checkpoint — an arbitrary mid-trace offset, with the stream
        // offsets ranked in rather than read from a shared cursor — must
        // match the front-to-back compilation bit for bit.
        let g = TraceGeometry::tiny();
        let compiled = CompiledTrace::compile(phased_spec(), g);
        assert!(compiled.blocks().len() > 1);
        for k in (0..compiled.blocks().len()).rev() {
            assert_eq!(
                compiled.regenerate_block(k),
                compiled.blocks()[k],
                "block {k} is not replay-stable"
            );
        }
    }

    #[test]
    fn suite_blocks_are_replay_stable() {
        let g = TraceGeometry::tiny();
        for spec in suite::spec_suite().iter().take(8) {
            let compiled = CompiledTrace::compile(spec.clone(), g);
            for k in 0..compiled.blocks().len() {
                assert_eq!(
                    compiled.regenerate_block(k),
                    compiled.blocks()[k],
                    "{}: block {k}",
                    spec.name()
                );
            }
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
        assert_eq!(compiled.blocks().len(), 1);
        assert_eq!(compiled.blocks()[0].start_insn(), 0);
        assert_eq!(compiled.blocks()[0].end_insn(), g.trace_insns());
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
