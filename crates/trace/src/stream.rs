use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cmp::Ordering;
use std::sync::Arc;

use crate::{BenchmarkSpec, OpWords, RegionKind, TraceGeometry, TraceItem};

/// Deterministic, cyclic instruction stream generated from a
/// [`BenchmarkSpec`].
///
/// The stream is infinite: when one trace length (per the
/// [`TraceGeometry`]) has been produced, the generator resets to its
/// initial state and replays the identical trace. That mirrors the
/// re-iteration methodology used when simulating multi-program workloads
/// (a program that finishes keeps running so contention stays live), and it
/// guarantees the analytical model and the detailed simulator see the same
/// workload.
///
/// Two streams built from the same spec and geometry produce bit-identical
/// item sequences.
///
/// # Example
///
/// ```
/// use mppm_trace::{suite, TraceGeometry, TraceStream};
///
/// let spec = suite::benchmark("mcf").unwrap().clone();
/// let g = TraceGeometry::tiny();
/// let mut a = TraceStream::new(spec.clone(), g);
/// let mut b = TraceStream::new(spec, g);
/// for _ in 0..1000 {
///     assert_eq!(a.next_item(), b.next_item());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TraceStream {
    spec: Arc<BenchmarkSpec>,
    geometry: TraceGeometry,
    rng: SmallRng,
    /// Position within the current trace pass, in instructions.
    insn: u64,
    /// Completed trace passes.
    wraps: u64,
    /// Stream walk position of every stream region id the spec uses,
    /// sorted by id. All slots exist from construction, so generating
    /// never allocates.
    stream_pos: Vec<(u32, u64)>,
    /// Remaining compute instructions before the next memory access,
    /// together with the phase index it was sampled under; `None` means
    /// the gap has not been sampled yet. Geometric memorylessness makes
    /// carrying a clipped gap exact *within* a phase; across a phase
    /// change the remainder is resampled under the new access rate.
    pending_gap: Option<(usize, u64)>,
    /// Per-phase sampling constants, precomputed.
    draws: Vec<PhaseDraw>,
    /// Phase index at the current position. Items never cross interval
    /// boundaries, so this only changes when `insn` reaches
    /// `interval_end_insn` — which keeps the per-item hot path free of the
    /// schedule-stretching divisions in [`TraceGeometry::interval_of`].
    cur_phase: usize,
    /// First instruction past the interval the cache was computed for
    /// (`u64::MAX` at the pre-rewind sentinel position).
    interval_end_insn: u64,
}

/// One zeroed walk position per distinct stream region id, sorted by id.
fn stream_slots_for(spec: &BenchmarkSpec) -> Vec<(u32, u64)> {
    let mut ids: Vec<u32> = spec
        .phases()
        .iter()
        .flat_map(|p| p.regions.iter())
        .filter(|r| r.kind == RegionKind::Stream)
        .map(|r| r.id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(|id| (id, 0)).collect()
}

/// One phase's sampling constants, worked out once per stream instead
/// of once per op. Each draw compares the draw index `j` with integer
/// thresholds and gives what the `f64` expression on `j · 2^-53` gives.
#[derive(Debug, Clone)]
struct PhaseDraw {
    gap: GapTable,
    /// Draws below this are stores ([`store_threshold`]).
    store_below: u64,
    /// The least draw picking each region past the first
    /// ([`region_thresholds`]).
    region_at: Vec<u64>,
    regions: Vec<RegionDraw>,
}

impl PhaseDraw {
    /// The region index the draw index `j` picks.
    #[inline(always)]
    fn region_of(&self, j: u64) -> usize {
        self.region_at.iter().filter(|&&at| at <= j).count()
    }

    /// Whether the draw index `j` makes the access a store.
    #[inline(always)]
    fn is_store(&self, j: u64) -> bool {
        j < self.store_below
    }
}

/// One region of a phase, resolved for sampling.
#[derive(Debug, Clone, Copy)]
struct RegionDraw {
    base: u64,
    blocks: u64,
    /// A stream region's index in `stream_pos`; `None` for a uniform one.
    stream_slot: Option<usize>,
}

/// The draws of every phase of `spec`, resolving stream regions to their
/// slots in `stream_pos`.
fn draws_for(spec: &BenchmarkSpec, stream_pos: &[(u32, u64)]) -> Vec<PhaseDraw> {
    spec.phases()
        .iter()
        .map(|p| {
            let mut acc = 0.0;
            let cum: Vec<f64> = p
                .regions
                .iter()
                .map(|r| {
                    acc += r.weight;
                    acc
                })
                .collect();
            let regions = p
                .regions
                .iter()
                .map(|r| RegionDraw {
                    base: r.base_block(),
                    blocks: r.blocks,
                    stream_slot: (r.kind == RegionKind::Stream).then(|| {
                        stream_pos
                            .binary_search_by_key(&r.id, |&(id, _)| id)
                            .expect("every stream region id has a walk slot")
                    }),
                })
                .collect();
            PhaseDraw {
                gap: GapTable::new(p.mem_ratio),
                store_below: store_threshold(p.store_ratio),
                region_at: region_thresholds(&cum),
                regions,
            }
        })
        .collect()
}

impl TraceStream {
    /// Creates a stream at the beginning of the trace.
    pub fn new(spec: impl Into<Arc<BenchmarkSpec>>, geometry: TraceGeometry) -> Self {
        let spec = spec.into();
        let stream_pos = stream_slots_for(&spec);
        let draws = draws_for(&spec, &stream_pos);
        Self {
            rng: SmallRng::seed_from_u64(spec.seed()),
            insn: 0,
            wraps: 0,
            stream_pos,
            pending_gap: None,
            draws,
            cur_phase: spec.phase_for_interval(0, geometry.intervals),
            interval_end_insn: geometry.interval_insns,
            spec,
            geometry,
        }
    }

    /// The spec this stream generates.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// The geometry the stream is laid out on.
    pub fn geometry(&self) -> TraceGeometry {
        self.geometry
    }

    /// Total instructions generated so far (monotonic across wraps).
    pub fn position(&self) -> u64 {
        self.wraps * self.geometry.trace_insns() + self.insn
    }

    /// Number of completed trace passes.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// Index of the phase active at the current position.
    ///
    /// O(1): the index is cached and only recomputed when the position
    /// crosses an interval boundary.
    pub fn current_phase(&self) -> usize {
        self.cur_phase
    }

    /// Recomputes the cached phase after the position moved past the end
    /// of the cached interval. At the pre-rewind sentinel position
    /// (`insn == trace_insns`) the phase wraps to interval 0, exactly as
    /// [`TraceGeometry::interval_of`] does.
    fn refresh_phase_cache(&mut self) {
        if self.insn < self.interval_end_insn {
            return;
        }
        if self.insn >= self.geometry.trace_insns() {
            self.cur_phase = self.spec.phase_for_interval(0, self.geometry.intervals);
            self.interval_end_insn = u64::MAX;
            return;
        }
        let interval = self.geometry.interval_of(self.insn);
        self.cur_phase = self.spec.phase_for_interval(interval, self.geometry.intervals);
        self.interval_end_insn =
            self.geometry.interval_start(interval) + self.geometry.interval_insns;
    }

    /// Produces the next item of the stream, advancing the position by
    /// [`TraceItem::insns`] instructions.
    pub fn next_item(&mut self) -> TraceItem {
        let mut next = None;
        self.generate_items(u64::MAX, |word| {
            next = Some(word);
            false
        });
        OpWords::decode(next.expect("generate emits at least one item"))
    }

    /// Generates items, as [`OpWords`] words, into `emit` until the
    /// position reaches `end`, the phase index changes, or `emit` returns
    /// `false` — the one generation loop behind [`Self::next_item`] and
    /// [`crate::PhaseRun::refill`]. Emits at least one item when the position
    /// is short of `end`.
    ///
    /// The phase's parameters are looked up once per interval-bounded run
    /// of items, which is what makes batch generation cheaper than
    /// item-at-a-time generation; the items and RNG draws are the same.
    #[inline(always)]
    pub(crate) fn generate_items(&mut self, end: u64, mut emit: impl FnMut(u64) -> bool) {
        let trace_len = self.geometry.trace_insns();
        let phase_idx = self.cur_phase;
        loop {
            if self.insn == trace_len {
                self.rewind();
            }
            let Self { rng, insn, stream_pos, pending_gap, draws, .. } = self;
            let interval_end = self.interval_end_insn;
            let stop = interval_end.min(end.saturating_sub(self.wraps * trace_len));
            let draw = &draws[phase_idx];
            let mut more = true;
            while more && *insn < stop {
                // Geometric gap to the next memory access. Geometric
                // memorylessness means a gap clipped at an interval
                // boundary carries its remainder over without distorting
                // the per-instruction access rate — but only while the
                // access rate is unchanged, so a remainder sampled under a
                // different phase is resampled at the new phase's rate.
                let gap = match *pending_gap {
                    Some((sampled_phase, g)) if sampled_phase == phase_idx => g,
                    _ => draw.gap.gap_of(draw_index(rng)),
                };
                let word = if gap == 0 {
                    *pending_gap = None;
                    *insn += 1;
                    sample_access(rng, stream_pos, draw)
                } else {
                    let room = interval_end - *insn;
                    let batch = u32::try_from(gap.min(room).min(u64::from(u32::MAX)))
                        .expect("clamped to u32::MAX above");
                    *pending_gap = Some((phase_idx, gap - u64::from(batch)));
                    *insn += u64::from(batch);
                    OpWords::compute_word(batch)
                };
                more = emit(word);
            }
            self.refresh_phase_cache();
            if !more || self.position() >= end || self.cur_phase != phase_idx {
                return;
            }
        }
    }

    /// Resets to the start of the trace, bumping the wrap count.
    fn rewind(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.spec.seed());
        for (_, pos) in &mut self.stream_pos {
            *pos = 0;
        }
        self.pending_gap = None;
        self.insn = 0;
        self.wraps += 1;
        self.cur_phase = self.spec.phase_for_interval(0, self.geometry.intervals);
        self.interval_end_insn = self.geometry.interval_insns;
    }
}

/// `rng.gen::<f64>()` is `j · 2^-53` for the 53-bit integer
/// `j = next_u64() >> 11`, so every per-op draw is decided on `j`.
const GRID_BITS: u32 = 53;

/// Grid points of a uniform draw: `j < GRID`.
const GRID: u64 = 1 << GRID_BITS;

/// The next uniform draw as its grid index `j`: the one `next_u64` call
/// `rng.gen::<f64>()` makes, before the scaling.
#[inline(always)]
fn draw_index(rng: &mut SmallRng) -> u64 {
    rng.next_u64() >> (64 - GRID_BITS)
}

/// The uniform draw `j · 2^-53` exactly as `rng.gen::<f64>()` computes
/// it (exact, since `j < 2^53`).
fn unit(j: u64) -> f64 {
    j as f64 * (1.0 / GRID as f64)
}

/// The least `j ≤ GRID` with `reaches(j)`, taking `reaches(GRID)` as
/// true, for a `reaches` monotone in `j`. The search gallops out from
/// `guess` and then bisects, so a guess a few grid points off costs a
/// few evaluations.
fn least_reaching(guess: u64, reaches: impl Fn(u64) -> bool) -> u64 {
    let at = |j: u64| j >= GRID || reaches(j);
    let guess = guess.min(GRID);
    // The answer lies in `(lo, hi]`: `hi` reaches, `lo` does not.
    let (mut lo, mut hi) = if at(guess) {
        let (mut hi, mut step) = (guess, 1);
        loop {
            if hi == 0 {
                return 0;
            }
            let lo = hi.saturating_sub(step);
            if !at(lo) {
                break (lo, hi);
            }
            hi = lo;
            step *= 2;
        }
    } else {
        let (mut lo, mut step) = (guess, 1);
        loop {
            let hi = (lo + step).min(GRID);
            if at(hi) {
                break (lo, hi);
            }
            lo = hi;
            step *= 2;
        }
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if at(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Gaps the [`GapTable`] decides by compares; longer ones (probability
/// `(1 − m)^64`, at most 3e-5 on the suite) take [`exact_gap`].
const TABLE_GAPS: usize = 64;

/// Top bits of `j` that index [`GapTable::guide`].
const GUIDE_BITS: u32 = 10;

/// Number of non-memory instructions before the next access for the
/// uniform draw `u` (geometric with per-instruction access probability
/// `m`, `ln_keep = ln(1 − m)`): 0 if `u < m`, else
/// `⌊ln(1 − u) / ln(1 − m)⌋`, at least 1. Truncation is `floor` here:
/// only a finite quotient ≥ 1 reaches the cast. This is the gap's
/// definition; [`GapTable`] reproduces it.
fn exact_gap(u: f64, m: f64, ln_keep: f64) -> u64 {
    if u < m {
        return 0;
    }
    let y = (1.0 - u).ln() / ln_keep;
    if y.is_finite() && y >= 1.0 {
        y as u64
    } else {
        1
    }
}

/// The geometric compute-gap sampler of one phase, as integer
/// thresholds on the draw index `j`. [`exact_gap`] is a step function
/// of `j` that never falls (rounding could only break that within a few
/// grid points of a step, which the draw oracle checks), so the gap of
/// `j` is the number of step points at or below it; the table holds the first [`TABLE_GAPS`] step points,
/// found once per phase by searching the grid with [`exact_gap`] itself,
/// and a guide that starts the count near the answer.
#[derive(Debug, Clone)]
struct GapTable {
    m: f64,
    /// `ln(1 − m)`, the tail's divisor.
    ln_keep: f64,
    /// `at_least[k]`: the least `j` whose gap is at least `k`, or
    /// `GRID` if none is; non-decreasing, `at_least[0] = 0`.
    at_least: [u64; TABLE_GAPS + 1],
    /// `guide[b]`: the gap at `j = b · 2^43`, the first index of bucket
    /// `b`, capped at [`TABLE_GAPS`] — a lower bound for the bucket.
    guide: [u8; 1 << GUIDE_BITS],
}

impl GapTable {
    fn new(m: f64) -> Self {
        let ln_keep = (1.0 - m).ln();
        let mut at_least = [0; TABLE_GAPS + 1];
        for k in 1..=TABLE_GAPS {
            let below = at_least[k - 1];
            at_least[k] = if below == GRID {
                GRID
            } else {
                // The continuous step point `1 − (1 − m)^k` seeds the
                // search; the grid decides.
                let guess = (1.0 - (k as f64 * ln_keep).exp()) * GRID as f64;
                let gap = k as u64;
                least_reaching((guess as u64).max(below), |j| exact_gap(unit(j), m, ln_keep) >= gap)
            };
        }
        let mut guide = [0; 1 << GUIDE_BITS];
        let mut gap = 0;
        for (bucket, entry) in guide.iter_mut().enumerate() {
            let start = (bucket as u64) << (GRID_BITS - GUIDE_BITS);
            while gap < TABLE_GAPS && at_least[gap + 1] <= start {
                gap += 1;
            }
            *entry = u8::try_from(gap).expect("at most TABLE_GAPS step points");
        }
        Self { m, ln_keep, at_least, guide }
    }

    /// The gap [`exact_gap`] gives the draw `unit(j)`: the guide's
    /// bucket start, then one compare per step point past it.
    #[inline(always)]
    fn gap_of(&self, j: u64) -> u64 {
        let bucket = (j >> (GRID_BITS - GUIDE_BITS)) as usize & ((1 << GUIDE_BITS) - 1);
        let mut k = usize::from(self.guide[bucket]);
        while k < TABLE_GAPS && self.at_least[k + 1] <= j {
            k += 1;
        }
        if k < TABLE_GAPS {
            k as u64
        } else {
            exact_gap(unit(j), self.m, self.ln_keep)
        }
    }
}

/// The index `cum.partition_point(|&w| w <= u · total)` picks for the
/// draw `u`, as the least `j` picking each region past the first: the
/// region of `j` is the number of entries at or below it.
fn region_thresholds(cum: &[f64]) -> Vec<u64> {
    let total = *cum.last().expect("phases have at least one region");
    let last = cum.len() - 1;
    let region_of = |j: u64| cum.partition_point(|&w| w <= unit(j) * total).min(last);
    (1..cum.len())
        .map(|region| {
            let guess = cum[region - 1] / total * GRID as f64;
            least_reaching(guess as u64, |j| region_of(j) >= region)
        })
        .collect()
}

/// The least `j` that is *not* a store at `store_ratio`: `unit(j) <
/// store_ratio` exactly when `j` is below it, since `store_ratio · 2^53`
/// is exact.
fn store_threshold(store_ratio: f64) -> u64 {
    (store_ratio * GRID as f64).ceil() as u64
}

/// One access of phase `draw`: a weighted region pick, a block within
/// it, and a store draw, packed as an [`OpWords`] word.
#[inline(always)]
fn sample_access(rng: &mut SmallRng, stream_pos: &mut [(u32, u64)], draw: &PhaseDraw) -> u64 {
    let region = draw.regions[draw.region_of(draw_index(rng))];
    let offset = match region.stream_slot {
        None => rng.gen_range(0..region.blocks),
        Some(slot) => {
            let pos = &mut stream_pos[slot].1;
            let cur = *pos;
            let next = cur + 1;
            // A cursor past this region's end was left there by a larger
            // region of another phase sharing the id.
            *pos = match next.cmp(&region.blocks) {
                Ordering::Less => next,
                Ordering::Equal => 0,
                Ordering::Greater => next % region.blocks,
            };
            cur
        }
    };
    let store = draw.is_store(draw_index(rng));
    OpWords::access_word(region.base + offset, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suite, Phase, Region};

    /// Draw-table oracle cases: `MPPM_ORACLE_CASES`, default 16, times
    /// 4,096 random draws per phase.
    fn oracle_cases() -> u64 {
        std::env::var("MPPM_ORACLE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
    }

    /// The gap as the generator computed it before the tables: the libm
    /// expression with `floor`, on `u = j · 2^-53`.
    fn libm_gap(j: u64, m: f64) -> u64 {
        let u = j as f64 / (1u64 << 53) as f64;
        if u < m {
            return 0;
        }
        let k = ((1.0 - u).ln() / (1.0 - m).ln()).floor();
        if k.is_finite() && k >= 1.0 {
            k as u64
        } else {
            1
        }
    }

    /// Every grid point within 64 steps of `at`.
    fn around(at: u64) -> std::ops::RangeInclusive<u64> {
        at.saturating_sub(64)..=(at + 64).min(GRID - 1)
    }

    /// Checks `table` against [`libm_gap`] at every grid point within 64
    /// steps of each step point, at each guide bucket's first index ±1,
    /// and at `random` random draws.
    fn check_gap_table(table: &GapTable, m: f64, random: u64, rng: &mut SmallRng) {
        let check = |j: u64| {
            assert_eq!(table.gap_of(j), libm_gap(j, m), "m = {m}, j = {j:#x}");
        };
        for &at in table.at_least[1..].iter().filter(|&&at| at < GRID) {
            around(at).for_each(check);
        }
        for bucket in 0..1u64 << GUIDE_BITS {
            let start = bucket << (GRID_BITS - GUIDE_BITS);
            (start.saturating_sub(1)..=start + 1).for_each(check);
        }
        for _ in 0..random {
            check(draw_index(rng));
        }
    }

    #[test]
    fn gap_region_and_store_tables_match_the_f64_expressions() {
        let random = oracle_cases() * 4096;
        let mut rng = SmallRng::seed_from_u64(0x6A95);
        for spec in suite::spec_suite() {
            let draws = draws_for(spec, &stream_slots_for(spec));
            for (p, draw) in spec.phases().iter().zip(&draws) {
                check_gap_table(&draw.gap, p.mem_ratio, random, &mut rng);
                // The region pick and store flag as the generator drew
                // them before the tables.
                let cum: Vec<f64> = p
                    .regions
                    .iter()
                    .scan(0.0, |acc, r| {
                        *acc += r.weight;
                        Some(*acc)
                    })
                    .collect();
                let total = *cum.last().expect("phases have at least one region");
                let check = |j: u64| {
                    let u = j as f64 / (1u64 << 53) as f64;
                    let region = cum.partition_point(|&w| w <= u * total).min(cum.len() - 1);
                    let what = format!("{} phase m = {}, j = {j:#x}", spec.name(), p.mem_ratio);
                    assert_eq!(draw.region_of(j), region, "region: {what}");
                    assert_eq!(draw.is_store(j), u < p.store_ratio, "store: {what}");
                };
                for &at in draw.region_at.iter().chain([&draw.store_below]) {
                    around(at).for_each(check);
                }
                for _ in 0..random {
                    check(draw_index(&mut rng));
                }
            }
        }
        for m in [0.0, 0.001, 0.01, 0.5, 0.99, 1.0] {
            check_gap_table(&GapTable::new(m), m, random, &mut rng);
        }
    }

    fn spec(mem_ratio: f64, regions: Vec<Region>) -> BenchmarkSpec {
        BenchmarkSpec::new(
            "t",
            99,
            vec![Phase { mem_ratio, store_ratio: 0.25, base_cpi: 0.5, mlp: 2.0, regions }],
            vec![0],
        )
        .unwrap()
    }

    fn drain(stream: &mut TraceStream, insns: u64) -> Vec<TraceItem> {
        let mut out = Vec::new();
        let start = stream.position();
        while stream.position() - start < insns {
            out.push(stream.next_item());
        }
        out
    }

    #[test]
    fn deterministic_across_instances() {
        let s = spec(0.3, vec![Region::uniform(0, 100, 1.0)]);
        let g = TraceGeometry::tiny();
        let mut a = TraceStream::new(s.clone(), g);
        let mut b = TraceStream::new(s, g);
        assert_eq!(drain(&mut a, 20_000), drain(&mut b, 20_000));
    }

    #[test]
    fn wraps_replay_identically() {
        let s = spec(0.3, vec![Region::uniform(0, 100, 0.7), Region::stream(1, 50, 0.3)]);
        let g = TraceGeometry::tiny();
        let mut stream = TraceStream::new(s, g);
        let first_pass = drain(&mut stream, g.trace_insns());
        assert_eq!(stream.wraps(), 0, "wrap happens lazily on next item");
        let second_pass = drain(&mut stream, g.trace_insns());
        assert_eq!(stream.wraps(), 1);
        assert_eq!(first_pass, second_pass);
    }

    #[test]
    fn memory_ratio_is_respected() {
        let m = 0.3;
        let s = spec(m, vec![Region::uniform(0, 1000, 1.0)]);
        let g = TraceGeometry::default();
        let mut stream = TraceStream::new(s, g);
        let items = drain(&mut stream, 500_000);
        let insns: u64 = items.iter().map(TraceItem::insns).sum();
        let accesses = items.iter().filter(|i| i.access().is_some()).count() as f64;
        let observed = accesses / insns as f64;
        assert!(
            (observed - m).abs() < 0.01,
            "observed mem ratio {observed} too far from {m}"
        );
    }

    #[test]
    fn store_ratio_is_respected() {
        let s = spec(0.5, vec![Region::uniform(0, 1000, 1.0)]);
        let mut stream = TraceStream::new(s, TraceGeometry::default());
        let items = drain(&mut stream, 200_000);
        let accesses: Vec<_> = items.iter().filter_map(TraceItem::access).collect();
        let stores = accesses.iter().filter(|a| a.store).count() as f64;
        let ratio = stores / accesses.len() as f64;
        assert!((ratio - 0.25).abs() < 0.02, "store ratio {ratio} should be near 0.25");
    }

    #[test]
    fn uniform_region_covers_range() {
        let blocks = 64;
        let s = spec(0.9, vec![Region::uniform(3, blocks, 1.0)]);
        let mut stream = TraceStream::new(s, TraceGeometry::default());
        let items = drain(&mut stream, 50_000);
        let base = 3u64 << 32;
        let mut seen = std::collections::HashSet::new();
        for a in items.iter().filter_map(TraceItem::access) {
            assert!(a.block >= base && a.block < base + blocks);
            seen.insert(a.block);
        }
        assert_eq!(seen.len() as u64, blocks, "all blocks should be touched");
    }

    #[test]
    fn stream_region_is_sequential() {
        let s = spec(0.9, vec![Region::stream(0, 1_000_000, 1.0)]);
        let mut stream = TraceStream::new(s, TraceGeometry::tiny());
        let items = drain(&mut stream, 10_000);
        let blocks: Vec<u64> = items.iter().filter_map(|i| i.access().map(|a| a.block)).collect();
        for w in blocks.windows(2) {
            assert_eq!(w[1], w[0] + 1, "stream walks sequentially");
        }
    }

    #[test]
    fn region_weights_are_respected() {
        let s = spec(
            0.5,
            vec![Region::uniform(0, 100, 0.8), Region::uniform(1, 100, 0.2)],
        );
        let mut stream = TraceStream::new(s, TraceGeometry::default());
        let items = drain(&mut stream, 400_000);
        let accesses: Vec<_> = items.iter().filter_map(TraceItem::access).collect();
        let r0 = accesses.iter().filter(|a| a.block < (1 << 32)).count() as f64;
        let frac = r0 / accesses.len() as f64;
        assert!((frac - 0.8).abs() < 0.02, "region 0 fraction {frac} should be near 0.8");
    }

    #[test]
    fn phase_switch_changes_behavior() {
        let heavy = Phase {
            mem_ratio: 0.6,
            store_ratio: 0.0,
            base_cpi: 0.5,
            mlp: 2.0,
            regions: vec![Region::uniform(0, 10, 1.0)],
        };
        let light = Phase {
            mem_ratio: 0.05,
            store_ratio: 0.0,
            base_cpi: 0.5,
            mlp: 2.0,
            regions: vec![Region::uniform(0, 10, 1.0)],
        };
        let s = BenchmarkSpec::new("p", 5, vec![heavy, light], vec![0, 1]).unwrap();
        let g = TraceGeometry::tiny();
        let mut stream = TraceStream::new(s, g);
        let half = g.trace_insns() / 2;
        let first = drain(&mut stream, half);
        let second = drain(&mut stream, half);
        let rate = |items: &[TraceItem]| {
            let insns: u64 = items.iter().map(TraceItem::insns).sum();
            items.iter().filter(|i| i.access().is_some()).count() as f64 / insns as f64
        };
        assert!(rate(&first) > 0.5, "first half is memory heavy: {}", rate(&first));
        assert!(rate(&second) < 0.1, "second half is light: {}", rate(&second));
    }

    #[test]
    fn cached_phase_matches_recomputation() {
        // The O(1) phase cache must agree with the from-scratch
        // interval_of/phase_for_interval derivation at every position,
        // including the pre-rewind sentinel (insn == trace_insns, where
        // interval_of wraps to 0) and across trace wraps.
        let heavy = Phase {
            mem_ratio: 0.6,
            store_ratio: 0.1,
            base_cpi: 0.5,
            mlp: 2.0,
            regions: vec![Region::uniform(0, 50, 1.0)],
        };
        let light = Phase {
            mem_ratio: 0.05,
            store_ratio: 0.0,
            base_cpi: 0.7,
            mlp: 1.0,
            regions: vec![Region::uniform(1, 20, 1.0)],
        };
        let s = BenchmarkSpec::new("p", 11, vec![heavy, light], vec![0, 1, 0]).unwrap();
        let g = TraceGeometry::tiny();
        let mut stream = TraceStream::new(s, g);
        for _ in 0..30_000 {
            let expected = stream
                .spec
                .phase_for_interval(g.interval_of(stream.insn), g.intervals);
            assert_eq!(
                stream.current_phase(),
                expected,
                "cached phase diverged at insn {}",
                stream.insn
            );
            stream.next_item();
        }
    }

    #[test]
    fn position_tracks_insns_exactly() {
        let s = spec(0.3, vec![Region::uniform(0, 100, 1.0)]);
        let mut stream = TraceStream::new(s, TraceGeometry::tiny());
        let mut total = 0;
        for _ in 0..1000 {
            total += stream.next_item().insns();
            assert_eq!(stream.position(), total);
        }
    }

    #[test]
    fn compute_batches_never_cross_interval_boundaries() {
        let s = spec(0.001, vec![Region::uniform(0, 100, 1.0)]);
        let g = TraceGeometry::tiny();
        let mut stream = TraceStream::new(s, g);
        let mut pos = 0u64;
        for _ in 0..5000 {
            let before_interval = pos / g.interval_insns;
            let item = stream.next_item();
            pos += item.insns();
            // the *last* instruction of the item must still be in the same interval
            let after_interval = (pos - 1) / g.interval_insns % u64::from(g.intervals);
            assert_eq!(
                before_interval % u64::from(g.intervals),
                after_interval,
                "item crossed an interval boundary"
            );
            pos %= g.trace_insns();
        }
    }
}
