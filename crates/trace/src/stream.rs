use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

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
/// of once per op.
#[derive(Debug, Clone)]
struct PhaseDraw {
    gap: GapSampler,
    store_ratio: f64,
    /// Cumulative (unnormalized) region weights.
    cum: Vec<f64>,
    regions: Vec<RegionDraw>,
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
            let cum = p
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
            let gap = GapSampler::new(p.mem_ratio);
            PhaseDraw { gap, store_ratio: p.store_ratio, cum, regions }
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
        let ln_table = ln_table();
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
                    _ => sample_gap(rng.gen(), &draw.gap, ln_table),
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

/// The geometric compute-gap sampler of one phase: per-instruction
/// access probability `m`, with its logarithm precomputed.
#[derive(Debug, Clone, Copy)]
struct GapSampler {
    m: f64,
    /// `ln(1 − m)`, the exact path's divisor.
    ln_keep: f64,
    /// `1 / ln_keep`, the fast path's factor; `None` where the fast
    /// path's error bound does not hold (`ln_keep > −1e-3`, which
    /// includes `m = 0`).
    inv_ln_keep: Option<f64>,
}

impl GapSampler {
    fn new(m: f64) -> Self {
        let ln_keep = (1.0 - m).ln();
        Self { m, ln_keep, inv_ln_keep: (ln_keep <= -1e-3).then(|| 1.0 / ln_keep) }
    }
}

/// How far the fast path's quotient must sit from an integer for its
/// truncation to equal the exact one. [`fast_ln`] is within about 1.4e-14
/// of libm's `ln`, and `|1 / ln_keep| ≤ 1,000` on the fast path, so the
/// fast quotient is within 1e-9 of the exact one.
const FRAC_GUARD: f64 = 1e-6;

/// Number of non-memory instructions before the next access for the
/// uniform draw `u` (geometric with per-instruction access probability
/// `m`): 0 if `u < m`, else `⌊ln(1 − u) / ln(1 − m)⌋`, at least 1.
///
/// The fast path evaluates the quotient with [`fast_ln`] and a multiply,
/// and returns only when it is far enough from an integer that its floor
/// cannot differ from the exact one ([`FRAC_GUARD`]). Everything else
/// takes the exact libm expression, so the gap equals the exact one for
/// every `u`.
#[inline(always)]
fn sample_gap(u: f64, g: &GapSampler, ln_table: &LnTable) -> u64 {
    if u < g.m {
        return 0;
    }
    if let Some(inv_ln_keep) = g.inv_ln_keep {
        let y = fast_ln(1.0 - u, ln_table) * inv_ln_keep;
        let k = y as u64;
        let frac = y - k as f64;
        if frac > FRAC_GUARD && frac < 1.0 - FRAC_GUARD {
            return k.max(1);
        }
    }
    // Inverse-CDF geometric sampling on the remaining mass. Truncation
    // is `floor` here: only a finite `y ≥ 1` reaches the cast.
    let y = (1.0 - u).ln() / g.ln_keep;
    if y.is_finite() && y >= 1.0 {
        y as u64
    } else {
        1
    }
}

/// Mantissa bits that index an [`LnTable`].
const LN_TABLE_BITS: u32 = 7;

/// `(1/c, −ln(1/c))` for the centre `c` of each of the 128 equal slices
/// of `[1, 2)`.
type LnTable = [(f64, f64); 1 << LN_TABLE_BITS];

/// The table [`fast_ln`] reads, built once per process with libm `ln`.
fn ln_table() -> &'static LnTable {
    static TABLE: OnceLock<LnTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let slices = f64::from(1u32 << LN_TABLE_BITS);
        std::array::from_fn(|i| {
            let inv_c = 1.0 / (1.0 + (i as f64 + 0.5) / slices);
            (inv_c, -inv_c.ln())
        })
    })
}

/// `ln(x)` for a positive normal `x` without a libm call. With
/// `x = 2^e · m`, `m ∈ [1, 2)`, it is `e · ln 2 − ln(1/c) + ln(1 + r)`
/// for the table slice `c` holding `m` and `r = m · (1/c) − 1`,
/// `|r| < 2^-8`; a degree-5 Taylor polynomial gives `ln(1 + r)` to
/// about 1e-15.
#[inline(always)]
fn fast_ln(x: f64, table: &LnTable) -> f64 {
    const MANTISSA_BITS: u32 = 52;
    const MANTISSA: u64 = (1 << MANTISSA_BITS) - 1;
    const BIAS: u64 = 1023;
    let bits = x.to_bits();
    let e = (bits >> MANTISSA_BITS) as f64 - BIAS as f64;
    let m = f64::from_bits((bits & MANTISSA) | (BIAS << MANTISSA_BITS));
    let slice = (bits & MANTISSA) >> (MANTISSA_BITS - LN_TABLE_BITS);
    let (inv_c, neg_ln_inv_c) = table[slice as usize];
    let r = m * inv_c - 1.0;
    let poly = r + r * r * (-0.5 + r * (1.0 / 3.0 + r * (-0.25 + r * 0.2)));
    e * std::f64::consts::LN_2 + neg_ln_inv_c + poly
}

/// One access of phase `draw`: a weighted region pick, a block within
/// it, and a store draw, packed as an [`OpWords`] word.
#[inline(always)]
fn sample_access(rng: &mut SmallRng, stream_pos: &mut [(u32, u64)], draw: &PhaseDraw) -> u64 {
    let total = *draw.cum.last().expect("phases have at least one region");
    let pick: f64 = rng.gen::<f64>() * total;
    let region_idx = draw.cum.partition_point(|&w| w <= pick).min(draw.regions.len() - 1);
    let region = draw.regions[region_idx];
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
    let store = rng.gen::<f64>() < draw.store_ratio;
    OpWords::access_word(region.base + offset, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suite, Phase, Region};

    /// Gap-sampler oracle cases: `MPPM_ORACLE_CASES`, default 16, times
    /// 4,096 random draws per access ratio.
    fn oracle_cases() -> u64 {
        std::env::var("MPPM_ORACLE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
    }

    /// The gap as the generator computed it before the fast path: the
    /// libm expression with `floor`.
    fn exact_gap(u: f64, m: f64) -> u64 {
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

    #[test]
    fn gap_sampler_matches_the_exact_expression() {
        let table = ln_table();
        let mut ratios: Vec<f64> = suite::spec_suite()
            .iter()
            .flat_map(|s| s.phases().iter().map(|p| p.mem_ratio))
            .collect();
        ratios.extend([0.0005, 0.001, 0.01, 0.5, 0.99]);
        // `rng.gen::<f64>()` draws `j · 2^-53` for a 53-bit `j`.
        const GRID: u64 = 1 << 53;
        let u_at = |j: u64| j as f64 / GRID as f64;
        let mut rng = SmallRng::seed_from_u64(0x6A95);
        for &m in &ratios {
            let g = GapSampler::new(m);
            let check = |u: f64| {
                assert_eq!(sample_gap(u, &g, table), exact_gap(u, m), "m = {m}, u = {u:e}");
            };
            for _ in 0..oracle_cases() * 4096 {
                check(rng.gen());
            }
            // Every grid point within 64 steps of each point where the
            // exact gap steps up to k, found by bisection on the grid.
            for k in 1..=64 {
                let reaches = |j: u64| exact_gap(u_at(j), m) >= k;
                let (mut lo, mut hi) = (0, GRID - 1);
                if reaches(lo) || !reaches(hi) {
                    continue;
                }
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if reaches(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                for j in hi.saturating_sub(64)..=(hi + 64).min(GRID - 1) {
                    check(u_at(j));
                }
            }
        }
    }

    #[test]
    fn gap_sampler_fast_ln_stays_within_its_error_bound() {
        // `FRAC_GUARD` relies on this bound, over every binade the
        // sampler's `1 − u` can fall in.
        let table = ln_table();
        let mut rng = SmallRng::seed_from_u64(0x1B);
        for binade in 0..53 {
            for _ in 0..oracle_cases() * 64 {
                let x = (1.0 + rng.gen::<f64>()) * 0.5f64.powi(binade + 1);
                let err = (fast_ln(x, table) - x.ln()).abs();
                assert!(err < 2e-14, "x = {x:e}: error {err:e}");
            }
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
