//! Mergeable aggregation of campaign results.
//!
//! Aggregation is a fold of shard records into a [`CampaignAccumulator`]
//! whose `merge` is **exactly associative and commutative**: every
//! statistic routes through the exact accumulators in [`mppm::stats`]
//! (superaccumulator moments, integer-count quantile sketches,
//! integer-count histograms) or through position-addressed values that
//! are re-sorted into plan order at the end. Any partition of the shard
//! set, folded in any order and merged in any tree shape, therefore
//! produces byte-identical aggregates — the property that lets a
//! distributed campaign's tree-reduce match a single-process scan bit
//! for bit, proven by the property tests below rather than by
//! inspection.
//!
//! Memory stays O(designs) for the distributions. The one thing that
//! genuinely needs per-mix values — design-ranking stability under
//! random subsampling, the paper's §5 argument — keeps a single `f64`
//! per (design, mix), and is therefore gated behind
//! [`STABILITY_POPULATION_CAP`]: at tens of millions of mixes the
//! subsampling question is settled and the vectors would not fit.

use mppm::stats::{QuantileSketch, StreamingMoments};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::journal::{Journal, ShardRecord};
use crate::plan::CampaignPlan;
use crate::CampaignError;

/// Largest population for which the stability sweep (and its O(mixes)
/// per-design value vectors) runs. Above this the sweep is skipped and
/// the stability table is empty.
pub const STABILITY_POPULATION_CAP: u64 = 1 << 22;

/// Summary of one metric's distribution over the mix population.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single mix).
    pub std: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Streaming 10th percentile estimate.
    pub p10: f64,
    /// Streaming median estimate.
    pub p50: f64,
    /// Streaming 90th percentile estimate.
    pub p90: f64,
}

/// Mergeable accumulator behind [`SummaryStats`].
#[derive(Debug, Clone, PartialEq)]
struct SummaryAcc {
    moments: StreamingMoments,
    quantiles: QuantileSketch,
}

impl SummaryAcc {
    fn new() -> Self {
        Self { moments: StreamingMoments::new(), quantiles: QuantileSketch::new() }
    }

    fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.quantiles.push(x);
    }

    fn merge(&mut self, other: &Self) {
        self.moments.merge(&other.moments);
        self.quantiles.merge(&other.quantiles);
    }

    fn finish(self) -> SummaryStats {
        SummaryStats {
            mean: self.moments.mean().expect("at least one mix"),
            std: self.moments.sample_std().unwrap_or(0.0),
            min: self.moments.min().expect("at least one mix"),
            max: self.moments.max().expect("at least one mix"),
            p10: self.quantiles.quantile(0.1).expect("at least one mix"),
            p50: self.quantiles.quantile(0.5).expect("at least one mix"),
            p90: self.quantiles.quantile(0.9).expect("at least one mix"),
        }
    }
}

/// Fixed-bin histogram of per-mix worst slowdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownHistogram {
    /// Lower edge of the first bin.
    pub start: f64,
    /// Bin width.
    pub width: f64,
    /// Counts per bin; the final bin also absorbs everything above the
    /// covered range.
    pub counts: Vec<u64>,
}

impl SlowdownHistogram {
    /// Slowdowns start at 1.0 by construction; 16 quarter-wide bins cover
    /// [1, 5) with an overflow bin above.
    fn new() -> Self {
        Self { start: 1.0, width: 0.25, counts: vec![0; 17] }
    }

    fn push(&mut self, slowdown: f64) {
        let bin = ((slowdown - self.start) / self.width).floor();
        let idx = if bin < 0.0 { 0 } else { (bin as usize).min(self.counts.len() - 1) };
        self.counts[idx] += 1;
    }

    /// Adds `other`'s counts bin for bin — exact, so merging is
    /// associative and commutative like the rest of the accumulator.
    ///
    /// # Panics
    ///
    /// If the histograms have different geometry.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.start == other.start
                && self.width == other.width
                && self.counts.len() == other.counts.len(),
            "histogram geometries must match"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// `[lo, hi)` bounds of bin `idx` (the last bin is open-ended).
    pub fn bounds(&self, idx: usize) -> (f64, Option<f64>) {
        let lo = self.start + idx as f64 * self.width;
        let hi = (idx + 1 < self.counts.len()).then_some(lo + self.width);
        (lo, hi)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Aggregated view of one design point over the whole mix population.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignAggregate {
    /// 0-based Table 2 LLC config index.
    pub config_idx: usize,
    /// Mixes evaluated.
    pub mixes: u64,
    /// STP distribution.
    pub stp: SummaryStats,
    /// ANTT distribution.
    pub antt: SummaryStats,
    /// Histogram of each mix's worst per-program slowdown.
    pub slowdowns: SlowdownHistogram,
}

/// Agreement of small random subsets with the full-space verdict on one
/// pairwise design comparison — the paper's Figure 8 claim generalized
/// from 20 hand-picked sets to a Monte Carlo sweep over subset size.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityPoint {
    /// First design of the pair (0-based config index).
    pub config_a: usize,
    /// Second design of the pair (0-based config index).
    pub config_b: usize,
    /// Mixes per random subset.
    pub subset: usize,
    /// Random subsets drawn.
    pub trials: usize,
    /// Fraction of subsets whose mean-STP ranking of the pair matches the
    /// full mix space.
    pub agreement: f64,
}

/// Knobs for the stability sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateOptions {
    /// Random subsets per (pair, size) point.
    pub stability_trials: usize,
    /// Seed for the subset draws.
    pub stability_seed: u64,
}

impl Default for AggregateOptions {
    fn default() -> Self {
        Self { stability_trials: 200, stability_seed: 0xCA3F_A161 }
    }
}

/// One design's mergeable state.
#[derive(Debug, Clone, PartialEq)]
struct DesignAcc {
    stp: SummaryAcc,
    antt: SummaryAcc,
    slowdowns: SlowdownHistogram,
}

impl DesignAcc {
    fn new() -> Self {
        Self { stp: SummaryAcc::new(), antt: SummaryAcc::new(), slowdowns: SlowdownHistogram::new() }
    }
}

/// Mergeable fold state over shard records — the campaign's aggregation
/// monoid. Build one per worker/partition, [`absorb`](Self::absorb)
/// shard records into it, then [`merge`](Self::merge) partials in any
/// tree shape; [`finish`](Self::finish) yields the same bytes as a
/// single linear scan in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAccumulator {
    designs: Vec<DesignAcc>,
    /// Position-addressed per-design STP values, kept only when the
    /// stability sweep applies. Re-sorted by mix index at finish, so
    /// absorb/merge order cannot leak into the sweep.
    stp_values: Option<Vec<Vec<(u64, f64)>>>,
}

/// Whether the stability sweep runs for this plan (≥ 2 designs and a
/// population small enough to hold one `f64` per design × mix).
pub fn stability_applies(plan: &CampaignPlan) -> bool {
    plan.spec.designs.len() >= 2 && plan.population.len() <= STABILITY_POPULATION_CAP
}

impl CampaignAccumulator {
    /// An empty accumulator shaped for `plan`.
    pub fn new(plan: &CampaignPlan) -> Self {
        let n_designs = plan.spec.designs.len();
        Self {
            designs: (0..n_designs).map(|_| DesignAcc::new()).collect(),
            stp_values: stability_applies(plan)
                .then(|| (0..n_designs).map(|_| Vec::new()).collect()),
        }
    }

    /// Folds one shard record in. The record's global mix positions are
    /// derived from its shard index and the plan's shard size.
    pub fn absorb(&mut self, plan: &CampaignPlan, record: &ShardRecord) {
        let start = record.index as u64 * plan.spec.shard_size as u64;
        let acc = &mut self.designs[record.design];
        for (offset, out) in record.outcomes.iter().enumerate() {
            acc.stp.push(out.stp);
            acc.antt.push(out.antt);
            acc.slowdowns.push(out.max_slowdown);
            if let Some(values) = &mut self.stp_values {
                values[record.design].push((start + offset as u64, out.stp));
            }
        }
    }

    /// Merges another partial in. Exactly associative and commutative:
    /// the merged state depends only on the multiset of absorbed
    /// records, never on the merge shape.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.designs.len(), other.designs.len(), "accumulators must share a plan");
        for (mine, theirs) in self.designs.iter_mut().zip(&other.designs) {
            mine.stp.merge(&theirs.stp);
            mine.antt.merge(&theirs.antt);
            mine.slowdowns.merge(&theirs.slowdowns);
        }
        if let (Some(mine), Some(theirs)) = (&mut self.stp_values, &other.stp_values) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.extend_from_slice(t);
            }
        }
    }

    /// Finishes the fold into per-design aggregates and the stability
    /// sweep.
    ///
    /// # Panics
    ///
    /// If the accumulator does not cover the plan exactly once (each
    /// design must have absorbed every mix exactly one time).
    pub fn finish(
        self,
        plan: &CampaignPlan,
        options: &AggregateOptions,
    ) -> (Vec<DesignAggregate>, Vec<StabilityPoint>) {
        let population = plan.population.len();
        let designs: Vec<DesignAggregate> = self
            .designs
            .iter()
            .zip(&plan.spec.designs)
            .map(|(acc, &config_idx)| {
                assert_eq!(
                    acc.stp.moments.count(),
                    population,
                    "design {config_idx} absorbed the wrong number of mixes"
                );
                DesignAggregate {
                    config_idx,
                    mixes: population,
                    stp: acc.stp.clone().finish(),
                    antt: acc.antt.clone().finish(),
                    slowdowns: acc.slowdowns.clone(),
                }
            })
            .collect();

        let stability = match self.stp_values {
            Some(mut values) => {
                // Plan order regardless of absorb/merge order.
                let stp: Vec<Vec<f64>> = values
                    .iter_mut()
                    .map(|v| {
                        v.sort_unstable_by_key(|&(idx, _)| idx);
                        assert_eq!(v.len() as u64, population, "stability values must tile");
                        v.iter().map(|&(_, x)| x).collect()
                    })
                    .collect();
                stability_sweep(plan, &stp, options)
            }
            None => Vec::new(),
        };
        (designs, stability)
    }
}

/// Subset sizes probed by the stability sweep: powers of two bracketing
/// the paper's "10 to 100 random mixes", capped below the population.
fn subset_sizes(population: usize) -> Vec<usize> {
    [1, 2, 4, 8, 10, 16, 32, 64, 100, 128, 256, 512]
        .into_iter()
        .filter(|&s| s < population)
        .collect()
}

/// Folds shard records into per-design aggregates and the pairwise
/// stability sweep.
///
/// Everything here is a deterministic function of the record multiset
/// and options — see [`CampaignAccumulator`] — which is what the resume
/// and distributed byte-identity tests lean on.
pub fn aggregate(
    plan: &CampaignPlan,
    records: &[ShardRecord],
    options: &AggregateOptions,
) -> (Vec<DesignAggregate>, Vec<StabilityPoint>) {
    let mut acc = CampaignAccumulator::new(plan);
    for record in records {
        acc.absorb(plan, record);
    }
    acc.finish(plan, options)
}

/// Streams the journal's shards through the accumulator in one scan of
/// its segments, without ever materializing the full record set. Each
/// shard is absorbed once, from its first valid copy; the accumulator is
/// order-invariant, so segment order cannot reach the output.
///
/// # Errors
///
/// [`CampaignError::MissingShard`] if a shard is absent or unreadable,
/// or a journal format error.
pub fn aggregate_journal(
    plan: &CampaignPlan,
    journal: &Journal,
    options: &AggregateOptions,
) -> Result<(Vec<DesignAggregate>, Vec<StabilityPoint>), CampaignError> {
    let mut acc = CampaignAccumulator::new(plan);
    // One bit per shard position (`design × per_design + index`).
    let mut absorbed = vec![0u64; plan.shards.len().div_ceil(64)];
    let bit = |position: usize| (position / 64, 1u64 << (position % 64));
    journal.scan(|position, record| {
        let (word, mask) = bit(position);
        if absorbed[word] & mask == 0 {
            absorbed[word] |= mask;
            acc.absorb(plan, &record);
        }
    })?;
    let unabsorbed = (0..plan.shards.len()).find(|&position| {
        let (word, mask) = bit(position);
        absorbed[word] & mask == 0
    });
    if let Some(missing) = unabsorbed {
        return Err(CampaignError::MissingShard(plan.shards[missing].id));
    }
    Ok(acc.finish(plan, options))
}

fn stability_sweep(
    plan: &CampaignPlan,
    stp: &[Vec<f64>],
    options: &AggregateOptions,
) -> Vec<StabilityPoint> {
    let population = plan.population.len() as usize;
    let full_mean =
        |d: usize| stp[d].iter().sum::<f64>() / population.max(1) as f64;
    let mut points = Vec::new();
    for a in 0..stp.len() {
        for b in (a + 1)..stp.len() {
            let truth = full_mean(a) > full_mean(b);
            for &size in &subset_sizes(population) {
                // One RNG per (pair, size): stable regardless of how many
                // designs or sizes other campaigns sweep.
                let mut rng = SmallRng::seed_from_u64(
                    options
                        .stability_seed
                        .wrapping_add((a as u64) << 40)
                        .wrapping_add((b as u64) << 24)
                        .wrapping_add(size as u64),
                );
                let mut idx: Vec<usize> = (0..population).collect();
                let mut agree = 0usize;
                for _ in 0..options.stability_trials {
                    // Partial Fisher–Yates: the first `size` entries become
                    // a uniform subset without replacement.
                    for k in 0..size {
                        let j = rng.gen_range(k..population);
                        idx.swap(k, j);
                    }
                    let (mut sum_a, mut sum_b) = (0.0, 0.0);
                    for &i in &idx[..size] {
                        sum_a += stp[a][i];
                        sum_b += stp[b][i];
                    }
                    if (sum_a > sum_b) == truth {
                        agree += 1;
                    }
                }
                points.push(StabilityPoint {
                    config_a: plan.spec.designs[a],
                    config_b: plan.spec.designs[b],
                    subset: size,
                    trials: options.stability_trials,
                    agreement: agree as f64 / options.stability_trials as f64,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MixOutcome;
    use crate::plan::{CampaignSpec, MixSource};
    use mppm_trace::TraceGeometry;
    use proptest::prelude::*;

    /// A plan plus synthetic records where design 0's STP is always
    /// `base + i/100` and design 1's is shifted by `delta`.
    fn synthetic(delta: f64, mixes: usize) -> (CampaignPlan, Vec<ShardRecord>) {
        let spec = CampaignSpec {
            cores: 2,
            designs: vec![0, 1],
            source: MixSource::Stratified { count: mixes, seed: 1 },
            shard_size: 7,
        };
        let plan = CampaignPlan::build(&spec, 29, TraceGeometry::new(20_000, 10)).unwrap();
        let records = plan
            .shards
            .iter()
            .map(|s| ShardRecord {
                design: s.id.design,
                index: s.id.index,
                outcomes: (s.start..s.end)
                    .map(|i| {
                        // Decorrelated per-mix noise between the designs
                        // (7 is coprime to 10, so both patterns visit the
                        // same residues with the same frequency): the
                        // designs differ by `delta` in the mean, but any
                        // single mix can point either way.
                        let stp = if s.id.design == 0 {
                            1.5 + (i % 10) as f64 / 100.0
                        } else {
                            1.5 + ((i * 7 + 3) % 10) as f64 / 100.0 + delta
                        };
                        MixOutcome {
                            members: plan.population.mix_at(i).members().to_vec(),
                            stp,
                            antt: 1.0 + (i % 7) as f64 / 10.0,
                            max_slowdown: 1.0 + (i % 13) as f64 / 4.0,
                        }
                    })
                    .collect(),
            })
            .collect();
        (plan, records)
    }

    #[test]
    fn aggregates_match_batch_statistics() {
        let (plan, records) = synthetic(0.25, 50);
        let (designs, _) = aggregate(&plan, &records, &AggregateOptions::default());
        assert_eq!(designs.len(), 2);
        let d0 = &designs[0];
        assert_eq!(d0.config_idx, 0);
        assert_eq!(d0.mixes, 50);
        // Batch recomputation of design 0's STP stream.
        let xs: Vec<f64> = (0..50).map(|i| 1.5 + (i % 10) as f64 / 100.0).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((d0.stp.mean - mean).abs() < 1e-12);
        assert_eq!(d0.stp.min, 1.5);
        assert_eq!(d0.stp.max, 1.59);
        assert!(d0.stp.p10 >= d0.stp.min && d0.stp.p90 <= d0.stp.max);
        assert!((designs[1].stp.mean - (mean + 0.25)).abs() < 1e-12);
        assert_eq!(d0.slowdowns.total(), 50);
        // ANTT distribution is also populated.
        assert!(d0.antt.mean > 1.0 && d0.antt.max <= 1.7);
    }

    #[test]
    fn stability_grows_with_subset_size_and_separation() {
        // Huge separation: even single-mix subsets always agree.
        let (plan, records) = synthetic(5.0, 120);
        let (_, stability) = aggregate(&plan, &records, &AggregateOptions::default());
        assert!(!stability.is_empty());
        for p in &stability {
            assert_eq!((p.config_a, p.config_b), (0, 1));
            assert_eq!(p.agreement, 1.0, "subset {}", p.subset);
        }

        // Tiny separation (delta well below the per-mix spread): small
        // subsets mis-rank the pair, large ones converge to the truth —
        // the paper's §5 conclusion from our own data.
        let (plan, records) = synthetic(0.002, 120);
        let (_, stability) = aggregate(&plan, &records, &AggregateOptions::default());
        let at = |size: usize| {
            stability.iter().find(|p| p.subset == size).map(|p| p.agreement).unwrap()
        };
        assert!(at(1) < 0.9, "single mixes cannot settle a close call: {}", at(1));
        assert!(at(100) >= at(1), "more mixes cannot hurt on average");
        let sizes: Vec<usize> = stability.iter().map(|p| p.subset).collect();
        assert!(sizes.contains(&10) && sizes.contains(&100), "paper's 10..100 range probed");
    }

    #[test]
    fn aggregation_is_deterministic() {
        let (plan, records) = synthetic(0.01, 64);
        let opts = AggregateOptions::default();
        let a = aggregate(&plan, &records, &opts);
        let b = aggregate(&plan, &records, &opts);
        assert_eq!(a, b);
        // And sensitive to the seed only in the stability sweep.
        let other = aggregate(
            &plan,
            &records,
            &AggregateOptions { stability_seed: 7, ..opts },
        );
        assert_eq!(a.0, other.0, "design aggregates are RNG-free");
    }

    #[test]
    fn single_design_skips_the_stability_sweep_and_its_vectors() {
        let spec = CampaignSpec {
            cores: 2,
            designs: vec![0],
            source: MixSource::Stratified { count: 10, seed: 1 },
            shard_size: 4,
        };
        let plan = CampaignPlan::build(&spec, 29, TraceGeometry::new(20_000, 10)).unwrap();
        assert!(!stability_applies(&plan));
        let acc = CampaignAccumulator::new(&plan);
        assert!(acc.stp_values.is_none(), "no per-mix vectors for one design");
    }

    #[test]
    fn histogram_bins_and_bounds() {
        let mut h = SlowdownHistogram::new();
        h.push(1.0);
        h.push(1.1);
        h.push(1.26);
        h.push(99.0);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(*h.counts.last().unwrap(), 1, "overflow lands in the last bin");
        assert_eq!(h.total(), 4);
        assert_eq!(h.bounds(0), (1.0, Some(1.25)));
        assert_eq!(h.bounds(16), (5.0, None));
    }

    /// Fold `records` through `shapes` partitions merged as a balanced
    /// tree, returning the finished aggregate.
    fn tree_aggregate(
        plan: &CampaignPlan,
        records: &[ShardRecord],
        chunk: usize,
    ) -> (Vec<DesignAggregate>, Vec<StabilityPoint>) {
        let mut partials: Vec<CampaignAccumulator> = records
            .chunks(chunk.max(1))
            .map(|part| {
                let mut acc = CampaignAccumulator::new(plan);
                for r in part {
                    acc.absorb(plan, r);
                }
                acc
            })
            .collect();
        while partials.len() > 1 {
            let mut next = Vec::with_capacity(partials.len().div_ceil(2));
            for pair in partials.chunks(2) {
                let mut merged = pair[0].clone();
                if let Some(right) = pair.get(1) {
                    merged.merge(right);
                }
                next.push(merged);
            }
            partials = next;
        }
        partials.pop().expect("at least one partial").finish(plan, &AggregateOptions::default())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The tentpole property: linear scan, tree-reduce at any chunk
        /// width, and a shuffled record order all aggregate to identical
        /// results — merge shape and order cannot leak into the output.
        #[test]
        fn merge_shape_and_order_cannot_change_the_aggregate(
            mixes in 8usize..80,
            chunk in 1usize..10,
            seed in 0u64..1000,
        ) {
            let (plan, records) = synthetic(0.003, mixes);
            let linear = aggregate(&plan, &records, &AggregateOptions::default());
            let tree = tree_aggregate(&plan, &records, chunk);
            prop_assert_eq!(&linear, &tree);

            // Shuffle the record order (a worker-completion order).
            let mut shuffled = records.clone();
            let mut rng = SmallRng::seed_from_u64(seed);
            for k in (1..shuffled.len()).rev() {
                let j = rng.gen_range(0..k + 1);
                shuffled.swap(k, j);
            }
            let out_of_order = aggregate(&plan, &shuffled, &AggregateOptions::default());
            prop_assert_eq!(&linear, &out_of_order);
        }
    }
}
