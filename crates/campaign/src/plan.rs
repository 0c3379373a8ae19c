//! Mix-space planning: which mixes, which designs, which shards.
//!
//! A campaign evaluates a *mix population* (the exhaustive multiset mix
//! space for a core count, or a deterministic stratified sample of it)
//! against every *design point* (a Table 2 LLC configuration). The
//! planner materializes that cross product as an ordered list of
//! [`Shard`]s — contiguous runs of mixes on one design — which are the
//! unit of parallel execution *and* of checkpointing: a shard either
//! exists in the journal completely or not at all.
//!
//! Exhaustive populations are **never materialized**: [`MixPopulation`]
//! addresses them by combinatorial rank (`unrank_mix` seeds a shard's
//! first mix, `enumerate_mixes_from` walks the rest at O(cores) per
//! step), so the 30.2-million-mix eight-program space costs the planner
//! a handful of integers, not gigabytes of `Vec<Mix>`.

use mppm::mix::{
    count_mixes, enumerate_mixes_from, sample_stratified, unrank_mix, EnumerateMixes, Mix,
    MixSpaceError,
};
use mppm_sim::{llc_configs, MachineConfig};
use mppm_trace::{suite, BenchmarkSpec, TraceGeometry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::CampaignError;

/// Where the mix population comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixSource {
    /// Every distinct mix for the core count — the paper's methodology.
    Exhaustive,
    /// A seeded stratified sample without replacement (when even lazy
    /// enumeration is more space than the question needs).
    Stratified {
        /// Number of mixes to draw.
        count: usize,
        /// RNG seed; the sample is a pure function of it.
        seed: u64,
    },
}

// The offline serde derive shim only handles unit-variant enums, so the
// data-carrying `Stratified` variant gets hand-written impls (externally
// tagged, matching real serde's representation).
impl serde::Serialize for MixSource {
    fn to_value(&self) -> serde::Value {
        match self {
            MixSource::Exhaustive => serde::Value::String("Exhaustive".into()),
            MixSource::Stratified { count, seed } => serde::Value::Object(vec![(
                "Stratified".into(),
                serde::Value::Object(vec![
                    ("count".into(), serde::Value::UInt(*count as u64)),
                    ("seed".into(), serde::Value::UInt(*seed)),
                ]),
            )]),
        }
    }
}

impl serde::Deserialize for MixSource {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if v.as_str() == Some("Exhaustive") {
            return Ok(MixSource::Exhaustive);
        }
        let inner = v
            .get("Stratified")
            .ok_or_else(|| serde::DeError::expected("MixSource variant", v))?;
        let field = |name: &str| {
            inner
                .get(name)
                .and_then(serde::Value::as_u64)
                .ok_or_else(|| serde::DeError::expected("Stratified {count, seed}", inner))
        };
        Ok(MixSource::Stratified { count: field("count")? as usize, seed: field("seed")? })
    }
}

impl MixSource {
    fn tag(&self) -> String {
        match self {
            MixSource::Exhaustive => "full".into(),
            MixSource::Stratified { count, seed } => format!("s{count}x{seed}"),
        }
    }
}

/// What a campaign should run: the full cross product of a mix
/// population and a set of LLC design points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Programs per mix (cores).
    pub cores: usize,
    /// LLC design points as 0-based Table 2 config indices.
    pub designs: Vec<usize>,
    /// Mix population source.
    pub source: MixSource,
    /// Mixes per journal shard (checkpoint granularity).
    pub shard_size: usize,
}

/// Upper bound on journal shards per design point. A plan that would
/// exceed it is refused with advice to raise the shard size — millions
/// of shard records cost more in headers, checksums and index entries
/// than they save in checkpoint granularity.
pub const MAX_SHARDS_PER_DESIGN: u64 = 1 << 20;

impl CampaignSpec {
    /// A 2-core exhaustive sweep over the first two LLC configs — the
    /// smallest campaign that exercises every subsystem layer, and the
    /// defaults of `mppm-cli campaign` and `mppmd`'s campaign request.
    pub fn quick_default() -> Self {
        Self { cores: 2, designs: vec![0, 1], source: MixSource::Exhaustive, shard_size: 64 }
    }

    fn validate(&self) -> Result<(), CampaignError> {
        let invalid = |msg: String| Err(CampaignError::InvalidSpec(msg));
        if self.cores == 0 {
            return invalid("campaign needs at least one core".into());
        }
        if self.shard_size == 0 {
            return invalid("shard size must be positive".into());
        }
        if self.designs.is_empty() {
            return invalid("campaign needs at least one design point".into());
        }
        let configs = llc_configs().len();
        if let Some(&bad) = self.designs.iter().find(|&&d| d >= configs) {
            return invalid(format!("design index {bad} out of range (have {configs} configs)"));
        }
        let mut seen = std::collections::BTreeSet::new();
        if let Some(&dup) = self.designs.iter().find(|&&d| !seen.insert(d)) {
            return invalid(format!("design index {dup} listed twice"));
        }
        if let MixSource::Stratified { count: 0, .. } = self.source {
            return invalid("stratified sample needs at least one mix".into());
        }
        Ok(())
    }
}

/// The mix population in its canonical order, addressed by `u64` index.
///
/// Stratified samples are explicit vectors; exhaustive spaces are pure
/// rank arithmetic (the canonical order is lexicographic, matching
/// `enumerate_mixes`). Both forms give the same two operations shards
/// need: random access ([`mix_at`](Self::mix_at)) and cheap in-order
/// walks over a contiguous range ([`iter_range`](Self::iter_range)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixPopulation {
    /// Materialized mixes (stratified samples).
    Explicit(Vec<Mix>),
    /// The exhaustive space of `count` mixes of `m` programs drawn from
    /// `n` benchmarks, addressed by combinatorial rank.
    Ranked {
        /// Benchmarks to draw from.
        n: usize,
        /// Programs per mix.
        m: usize,
        /// Total mixes, `C(n+m-1, m)`.
        count: u64,
    },
}

impl MixPopulation {
    /// Number of mixes in the population.
    pub fn len(&self) -> u64 {
        match self {
            MixPopulation::Explicit(mixes) => mixes.len() as u64,
            MixPopulation::Ranked { count, .. } => *count,
        }
    }

    /// True when the population holds no mixes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mix at position `index` in canonical order.
    ///
    /// # Panics
    ///
    /// If `index >= len()`.
    pub fn mix_at(&self, index: u64) -> Mix {
        match self {
            MixPopulation::Explicit(mixes) => mixes[index as usize].clone(),
            MixPopulation::Ranked { n, m, count } => {
                assert!(index < *count, "mix index {index} out of range ({count} mixes)");
                unrank_mix(*n, *m, u128::from(index)).expect("index checked against count")
            }
        }
    }

    /// Iterates mixes `start..end` in canonical order. For ranked
    /// populations this unranks once and then walks lexicographically at
    /// O(cores) per step, so a shard of S mixes costs O(n·m + S·m), not
    /// S unrank calls.
    ///
    /// # Panics
    ///
    /// If `start > end` or `end > len()`.
    pub fn iter_range(&self, start: u64, end: u64) -> PopulationRange<'_> {
        assert!(start <= end && end <= self.len(), "range {start}..{end} out of population");
        let walk = match self {
            MixPopulation::Explicit(_) => None,
            MixPopulation::Ranked { n, m, .. } => (start < end).then(|| {
                let first = unrank_mix(*n, *m, u128::from(start)).expect("start in range");
                enumerate_mixes_from(*n, &first)
            }),
        };
        PopulationRange { population: self, next: start, end, walk }
    }
}

/// Iterator over a contiguous population range (see
/// [`MixPopulation::iter_range`]).
#[derive(Debug)]
pub struct PopulationRange<'a> {
    population: &'a MixPopulation,
    next: u64,
    end: u64,
    walk: Option<EnumerateMixes>,
}

impl Iterator for PopulationRange<'_> {
    type Item = Mix;

    fn next(&mut self) -> Option<Mix> {
        if self.next >= self.end {
            return None;
        }
        let mix = match (&mut self.walk, self.population) {
            (Some(walk), _) => walk.next().expect("rank range checked against count"),
            (None, MixPopulation::Explicit(mixes)) => mixes[self.next as usize].clone(),
            (None, MixPopulation::Ranked { .. }) => unreachable!("ranked ranges always walk"),
        };
        self.next += 1;
        Some(mix)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) as usize;
        (left, Some(left))
    }
}

/// Identity of one shard: a design point × a slice of the mix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardId {
    /// Position in [`CampaignSpec::designs`] (not the config index).
    pub design: usize,
    /// Shard number within the design, 0-based.
    pub index: usize,
}

/// One executable unit: mixes `start..end` (indices into the plan's mix
/// order) evaluated on design `id.design`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Stable identity used for journal file naming.
    pub id: ShardId,
    /// First mix index (inclusive).
    pub start: u64,
    /// Last mix index (exclusive).
    pub end: u64,
}

impl Shard {
    /// Mixes this shard covers.
    pub fn mixes(&self) -> u64 {
        self.end - self.start
    }
}

/// A fully materialized campaign: the mix population in its canonical
/// order plus the shard list covering designs × mixes.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The validated spec this plan was built from.
    pub spec: CampaignSpec,
    /// Stable identifier naming the journal directory: every parameter
    /// that affects results is encoded, so two different campaigns can
    /// never share (and therefore corrupt) a journal.
    pub id: String,
    /// The mix population, in deterministic (enumeration/stratum) order.
    pub population: MixPopulation,
    /// All shards, design-major then shard-index order.
    pub shards: Vec<Shard>,
}

impl CampaignPlan {
    /// Builds the plan for `spec` over the first `n_benchmarks` suite
    /// benchmarks at trace geometry `geometry`. The id's `_k` field is
    /// the store's content key of those benchmarks on the designs'
    /// machines, so retuning any of them, or any parameter of a design's
    /// machine, names a new campaign.
    pub fn build(
        spec: &CampaignSpec,
        n_benchmarks: usize,
        geometry: TraceGeometry,
    ) -> Result<Self, CampaignError> {
        spec.validate()?;
        let population = match spec.source {
            MixSource::Exhaustive => {
                let total = count_mixes(n_benchmarks, spec.cores)?;
                let count = u64::try_from(total).map_err(|_| {
                    CampaignError::InvalidSpec(format!(
                        "exhaustive space has {total} mixes; that exceeds 64-bit addressing"
                    ))
                })?;
                MixPopulation::Ranked { n: n_benchmarks, m: spec.cores, count }
            }
            MixSource::Stratified { count, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                MixPopulation::Explicit(sample_stratified(
                    n_benchmarks,
                    spec.cores,
                    count,
                    &mut rng,
                )?)
            }
        };
        let mixes = population.len();
        let per_design = mixes.div_ceil(spec.shard_size as u64);
        if per_design > MAX_SHARDS_PER_DESIGN {
            return Err(CampaignError::InvalidSpec(format!(
                "{mixes} mixes at shard size {} means {per_design} journal shards per design; \
                 raise --shard-size to at most {} shards (>= {} mixes/shard)",
                spec.shard_size,
                MAX_SHARDS_PER_DESIGN,
                mixes.div_ceil(MAX_SHARDS_PER_DESIGN),
            )));
        }
        let mut shards = Vec::with_capacity((per_design as usize) * spec.designs.len());
        for design in 0..spec.designs.len() {
            for index in 0..per_design {
                let start = index * spec.shard_size as u64;
                shards.push(Shard {
                    id: ShardId { design, index: index as usize },
                    start,
                    end: (start + spec.shard_size as u64).min(mixes),
                });
            }
        }
        let designs: Vec<String> = spec.designs.iter().map(|d| (d + 1).to_string()).collect();
        let id = format!(
            "c{}_n{}_g{}x{}_d{}_{}_sh{}_k{:016x}",
            spec.cores,
            n_benchmarks,
            geometry.interval_insns,
            geometry.intervals,
            designs.join("-"),
            spec.source.tag(),
            spec.shard_size,
            plan_key(spec, suite::spec_suite().iter().take(n_benchmarks), geometry),
        );
        Ok(Self { spec: spec.clone(), id, population, shards })
    }

    /// Shards belonging to one design position, in index order.
    pub fn shards_of_design(&self, design: usize) -> impl Iterator<Item = &Shard> {
        self.shards.iter().filter(move |s| s.id.design == design)
    }

    /// Total model evaluations the plan covers (mixes × designs).
    pub fn evaluations(&self) -> u64 {
        self.population.len() * self.spec.designs.len() as u64
    }
}

/// The store's [`mppm_experiments::content_key`] of a campaign: its
/// programs, the machine of each design, the geometry and the core count.
fn plan_key<'a>(
    spec: &CampaignSpec,
    programs: impl IntoIterator<Item = &'a BenchmarkSpec>,
    geometry: TraceGeometry,
) -> u64 {
    let machines =
        spec.designs.iter().map(|&d| MachineConfig::baseline().with_llc(llc_configs()[d]));
    mppm_experiments::content_key(programs, machines, geometry, spec.cores)
}

impl From<MixSpaceError> for CampaignError {
    fn from(e: MixSpaceError) -> Self {
        CampaignError::MixSpace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppm::mix::enumerate_mixes;

    fn geometry() -> TraceGeometry {
        TraceGeometry::new(20_000, 10)
    }

    #[test]
    fn exhaustive_plan_covers_the_space() {
        let spec = CampaignSpec::quick_default();
        let plan = CampaignPlan::build(&spec, 29, geometry()).unwrap();
        assert_eq!(plan.population.len(), 435, "the paper's 2-core count");
        assert_eq!(plan.evaluations(), 870);
        // 435 mixes in shards of 64 → 7 shards per design, last one short.
        assert_eq!(plan.shards.len(), 14);
        let last = plan.shards_of_design(0).last().unwrap();
        assert_eq!((last.start, last.end), (384, 435));
        // Shards tile the mix range exactly once per design.
        for d in 0..2 {
            let mut covered = vec![false; plan.population.len() as usize];
            for s in plan.shards_of_design(d) {
                for slot in &mut covered[s.start as usize..s.end as usize] {
                    assert!(!*slot, "overlap");
                    *slot = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "gap in design {d}");
        }
    }

    #[test]
    fn ranked_population_matches_enumeration() {
        let plan = CampaignPlan::build(&CampaignSpec::quick_default(), 7, geometry()).unwrap();
        let all: Vec<Mix> = enumerate_mixes(7, 2).collect();
        assert_eq!(plan.population.len(), all.len() as u64);
        // Random access agrees with enumeration order.
        for idx in [0u64, 1, 13, all.len() as u64 - 1] {
            assert_eq!(plan.population.mix_at(idx), all[idx as usize]);
        }
        // Range walks agree, including empty and full ranges.
        let walked: Vec<Mix> = plan.population.iter_range(5, 19).collect();
        assert_eq!(walked, all[5..19]);
        assert_eq!(plan.population.iter_range(7, 7).count(), 0);
        let full: Vec<Mix> = plan.population.iter_range(0, all.len() as u64).collect();
        assert_eq!(full, all);
    }

    #[test]
    fn eight_core_exhaustive_space_plans_lazily()  {
        // The full 8-program space: 30,260,340 mixes. Planning it must
        // be cheap — the population is rank arithmetic, not a Vec.
        let spec = CampaignSpec {
            cores: 8,
            designs: vec![0],
            source: MixSource::Exhaustive,
            shard_size: 4096,
        };
        let plan = CampaignPlan::build(&spec, 29, geometry()).unwrap();
        assert_eq!(plan.population.len(), 30_260_340);
        assert_eq!(plan.evaluations(), 30_260_340);
        assert_eq!(plan.shards.len(), 7388, "ceil(30260340 / 4096)");
        // Spot-check the boundary between two shards: the walk across
        // the seam matches direct unranking.
        let s = &plan.shards[3];
        let mixes: Vec<Mix> = plan.population.iter_range(s.start, s.start + 3).collect();
        assert_eq!(mixes[0], plan.population.mix_at(s.start));
        assert_eq!(mixes[2], plan.population.mix_at(s.start + 2));
    }

    #[test]
    fn stratified_plan_is_deterministic() {
        let spec = CampaignSpec {
            cores: 4,
            designs: vec![0, 3, 5],
            source: MixSource::Stratified { count: 100, seed: 9 },
            shard_size: 32,
        };
        let a = CampaignPlan::build(&spec, 29, geometry()).unwrap();
        let b = CampaignPlan::build(&spec, 29, geometry()).unwrap();
        assert_eq!(a.population, b.population);
        assert_eq!(a.id, b.id);
        assert_eq!(a.population.len(), 100);
        assert_eq!(a.shards.len(), 4 * 3, "ceil(100/32) shards per design");
    }

    #[test]
    fn plan_ids_separate_campaigns() {
        let base = CampaignSpec::quick_default();
        let id = |spec: &CampaignSpec, g: TraceGeometry| {
            CampaignPlan::build(spec, 29, g).unwrap().id
        };
        let baseline = id(&base, geometry());
        let mut cores = base.clone();
        cores.cores = 3;
        assert_ne!(id(&cores, geometry()), baseline);
        let mut designs = base.clone();
        designs.designs = vec![0, 2];
        assert_ne!(id(&designs, geometry()), baseline);
        let mut sampled = base.clone();
        sampled.source = MixSource::Stratified { count: 50, seed: 1 };
        assert_ne!(id(&sampled, geometry()), baseline);
        let mut sharded = base.clone();
        sharded.shard_size = 65;
        assert_ne!(id(&sharded, geometry()), baseline);
        assert_ne!(id(&base, TraceGeometry::new(10_000, 5)), baseline);
        assert!(baseline.ends_with(&format!(
            "_k{:016x}",
            plan_key(&base, suite::spec_suite(), geometry())
        )));
    }

    #[test]
    fn plan_keys_follow_the_programs_they_cover() {
        let spec = CampaignSpec::quick_default();
        let suite = suite::spec_suite();
        let key =
            |programs: &[BenchmarkSpec]| plan_key(&spec, programs.iter().take(7), geometry());
        let base = key(suite);
        for (k, changes) in [(0, true), (6, true), (7, false), (28, false)] {
            let mut retuned = suite.to_vec();
            let p = &suite[k];
            let (phases, schedule) = (p.phases().to_vec(), p.schedule().to_vec());
            retuned[k] = BenchmarkSpec::new(p.name(), p.seed() ^ 1, phases, schedule).unwrap();
            assert_eq!(key(&retuned) != base, changes, "program {k} of a 7-program plan");
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let build = |spec: &CampaignSpec| CampaignPlan::build(spec, 29, geometry());
        let mut spec = CampaignSpec::quick_default();
        spec.cores = 0;
        assert!(matches!(build(&spec), Err(CampaignError::InvalidSpec(_))));
        let mut spec = CampaignSpec::quick_default();
        spec.designs = vec![0, 9];
        assert!(matches!(build(&spec), Err(CampaignError::InvalidSpec(_))));
        let mut spec = CampaignSpec::quick_default();
        spec.designs = vec![1, 1];
        assert!(matches!(build(&spec), Err(CampaignError::InvalidSpec(_))));
        let mut spec = CampaignSpec::quick_default();
        spec.shard_size = 0;
        assert!(matches!(build(&spec), Err(CampaignError::InvalidSpec(_))));
        // Degenerate shard sizes on huge spaces would create millions of
        // journal shards; the planner demands a saner shard size instead.
        let mut spec = CampaignSpec::quick_default();
        spec.cores = 8;
        spec.shard_size = 1;
        match build(&spec) {
            Err(CampaignError::InvalidSpec(msg)) => {
                assert!(msg.contains("raise --shard-size"), "{msg}")
            }
            other => panic!("expected shard-count refusal, got {other:?}"),
        }
    }
}
