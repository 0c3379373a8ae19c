//! Differential oracle: the event-driven interleaver against the
//! smallest-clock-first reference scheduler it replaced, streamed and
//! cached chunk replay against the live per-item generator they
//! replaced, the pipelined single-core profiler against the per-item
//! profiler it replaced, and recorded traces against the generator they
//! were recorded from.
//!
//! Both schedulers — and both execution substrates — must be
//! **bit-identical** observationally: per-core CPI, completion cycles,
//! and per-core LLC access/miss counts agree to the last bit across
//! random mixes, geometries, LLC configurations, heterogeneous core
//! factors, way-partitioned LLCs, zero-warmup runs, and
//! bandwidth-limited memory channels. The finite-bandwidth channel is
//! the strictest case: `MemoryChannel::request` is stateful and
//! order-sensitive, so a single shared event committed out of order skews
//! every queueing delay after it.
//!
//! Case counts scale with `MPPM_ORACLE_CASES` (default 16) so CI can run
//! a quick pass on every PR while deep local runs stay available:
//!
//! ```text
//! MPPM_ORACLE_CASES=100 cargo test -p mppm-sim --test differential
//! ```

use mppm::SingleCoreProfile;
use mppm_sim::reference::{self, Execution, Scheduler};
use mppm_sim::{
    llc_configs, profile_compiled, profile_single_core_with, MachineConfig, MixResult, MixSim,
    TraceCache,
};
use mppm_trace::{suite, BenchmarkSpec, CompiledTrace, Phase, Region, TraceGeometry};
use proptest::prelude::*;

fn oracle_cases() -> u32 {
    std::env::var("MPPM_ORACLE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// Raw generated material for one phase:
/// `(mem_ratio, store_ratio, base_cpi, mlp, blocks, selector)`.
type RawPhase = (f64, f64, f64, f64, u64, u8);

fn phase_strategy() -> impl Strategy<Value = RawPhase> {
    (0.05f64..0.9, 0.0f64..0.9, 0.25f64..1.5, 1.0f64..8.0, 16u64..24_000, 0u8..4)
}

/// Raw generated material for one program: a seed, 1–3 phases, and a
/// 1–4 entry schedule (entries taken mod the phase count).
type RawSpec = (u64, Vec<RawPhase>, Vec<u8>);

fn spec_strategy() -> impl Strategy<Value = RawSpec> {
    (
        0u64..u64::MAX,
        collection::vec(phase_strategy(), 1..4),
        collection::vec(0u8..8, 1..5),
    )
}

fn mix_strategy(cores: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawSpec>> {
    collection::vec(spec_strategy(), cores)
}

fn build_phase(raw: RawPhase) -> Phase {
    let (mem_ratio, store_ratio, base_cpi, mlp, blocks, sel) = raw;
    // Selector bit 0 picks the pattern; bit 1 adds a smaller second region
    // so multi-region weighted sampling is exercised too.
    let mut regions = vec![if sel & 1 == 0 {
        Region::uniform(0, blocks, 1.0)
    } else {
        Region::stream(0, blocks, 1.0)
    }];
    if sel & 2 != 0 {
        regions.push(Region::uniform(1, (blocks / 3).max(1), 0.5));
    }
    Phase { mem_ratio, store_ratio, base_cpi, mlp, regions }
}

fn build_specs(raw: &[RawSpec]) -> Vec<BenchmarkSpec> {
    raw.iter()
        .enumerate()
        .map(|(core, (seed, raw_phases, raw_sched))| {
            let phases: Vec<Phase> = raw_phases.iter().map(|&r| build_phase(r)).collect();
            let schedule: Vec<usize> =
                raw_sched.iter().map(|&s| s as usize % phases.len()).collect();
            BenchmarkSpec::new(format!("oracle-{core}"), *seed, phases, schedule)
                .expect("generated spec is valid")
        })
        .collect()
}

/// Small geometries keep each case fast; both dimensions vary so interval
/// boundaries land at different instruction counts case to case.
fn build_geometry(interval_insns: u64, intervals: u32) -> TraceGeometry {
    TraceGeometry::new(interval_insns, intervals)
}

/// The builder axes a case varies besides the scheduler.
#[derive(Clone, Copy)]
struct Axes<'a> {
    warmup_passes: u32,
    ways: Option<&'a [u32]>,
    core_factors: Option<&'a [f64]>,
}

impl Default for Axes<'_> {
    fn default() -> Self {
        Self { warmup_passes: 1, ways: None, core_factors: None }
    }
}

/// Runs the mix under both schedulers and asserts the results are
/// bit-identical, field by field.
fn assert_schedulers_agree(
    specs: &[BenchmarkSpec],
    machine: &MachineConfig,
    geometry: TraceGeometry,
    axes: &Axes,
) -> (MixResult, MixResult) {
    let refs: Vec<&BenchmarkSpec> = specs.iter().collect();
    let build = |scheduler: Scheduler| {
        let mut sim = MixSim::new(&refs, machine, geometry).warmup_passes(axes.warmup_passes);
        if let Some(ways) = axes.ways {
            sim = sim.partitioned(ways);
        }
        if let Some(factors) = axes.core_factors {
            sim = sim.core_factors(factors);
        }
        reference::run(sim, scheduler, Execution::Compiled)
    };
    let event = build(Scheduler::EventDriven);
    let reference = build(Scheduler::Reference);
    for core in 0..refs.len() {
        assert_eq!(
            event.cpi_mc[core].to_bits(),
            reference.cpi_mc[core].to_bits(),
            "core {core} CPI diverged: {} vs {}",
            event.cpi_mc[core],
            reference.cpi_mc[core]
        );
        assert_eq!(
            event.completion_cycles[core].to_bits(),
            reference.completion_cycles[core].to_bits(),
            "core {core} completion cycles diverged: {} vs {}",
            event.completion_cycles[core],
            reference.completion_cycles[core]
        );
        assert_eq!(
            event.llc_accesses_per_core[core], reference.llc_accesses_per_core[core],
            "core {core} LLC accesses diverged"
        );
        assert_eq!(
            event.llc_misses_per_core[core], reference.llc_misses_per_core[core],
            "core {core} LLC misses diverged"
        );
    }
    assert_eq!(event, reference, "full MixResult must be bit-identical");
    (event, reference)
}

/// Bit-level view of a profile, one row per interval: every f64 field
/// and SDC count through `to_bits`, then the instruction count.
fn profile_bits(p: &SingleCoreProfile) -> Vec<Vec<u64>> {
    p.intervals
        .iter()
        .map(|iv| {
            let s = iv.stack;
            [iv.cycles, iv.mem_stall_cycles, iv.fallback_penalty]
                .into_iter()
                .chain([s.base, s.l2_hit, s.llc_hit, s.memory, s.queue])
                .chain(iv.sdc.counters().iter().copied())
                .map(f64::to_bits)
                .chain([iv.insns])
                .collect()
        })
        .collect()
}

/// Asserts the pipelined profiler and the per-item oracle agree bit for
/// bit: every f64 interval field and SDC count through `to_bits`, then
/// the whole profile.
fn assert_profilers_agree(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    geometry: TraceGeometry,
    warmup_passes: u32,
) {
    let piped = profile_single_core_with(spec, machine, geometry, warmup_passes);
    let oracle = reference::profile_single_core_with(spec, machine, geometry, warmup_passes);
    let (piped_bits, oracle_bits) = (profile_bits(&piped), profile_bits(&oracle));
    assert_eq!(piped_bits.len(), oracle_bits.len(), "{}: interval count", spec.name());
    for (i, (a, b)) in piped_bits.iter().zip(&oracle_bits).enumerate() {
        assert_eq!(a, b, "{}: interval {i} diverged (warmup {warmup_passes})", spec.name());
    }
    assert_eq!(piped, oracle, "{}: full profile must be bit-identical", spec.name());
}

/// The whole suite at the tiny geometry, on every LLC configuration:
/// the pipelined profiler reproduces the per-item profiler exactly.
#[test]
fn suite_profiles_match_the_per_item_profiler() {
    let geometry = TraceGeometry::tiny();
    for llc in llc_configs() {
        let machine = MachineConfig::baseline().with_llc(llc);
        for spec in suite::spec_suite() {
            assert_profilers_agree(spec, &machine, geometry, 1);
        }
    }
}

/// A trace recorded with `to_bytes` and loaded with `from_bytes` replays
/// exactly like the generator: profiled, bit for bit the generator's
/// profile; seeded into a `TraceCache`, the streamed run's result.
#[test]
fn recorded_traces_replay_like_the_generator() {
    let machine = MachineConfig::baseline();
    let geometry = TraceGeometry::new(5_000, 8);
    let specs: Vec<&BenchmarkSpec> =
        ["gcc", "lbm", "gamess"].iter().map(|n| suite::benchmark(n).unwrap()).collect();
    let cache = TraceCache::new();
    for &spec in &specs {
        let bytes = CompiledTrace::compile(spec.clone(), geometry).to_bytes();
        let loaded = CompiledTrace::from_bytes(spec.clone(), &bytes).expect("a valid recording");
        for warmup in 0..2 {
            let generated = profile_single_core_with(spec, &machine, geometry, warmup);
            let replayed = profile_compiled(&loaded, &machine, warmup);
            assert_eq!(profile_bits(&replayed), profile_bits(&generated), "{}", spec.name());
            assert_eq!(replayed, generated, "{}: warmup {warmup}", spec.name());
        }
        cache.insert(loaded);
    }
    let cached = MixSim::new(&specs, &machine, geometry).trace_cache(&cache).run();
    assert_eq!(cache.stats(), (3, 0), "every core replays its recording");
    assert_eq!(cached, MixSim::new(&specs, &machine, geometry).run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// The profiler oracle: random phase-varying specs, warmup passes
    /// 0–2, all six LLC configurations, and geometries whose intervals
    /// are both shorter (a few hundred instructions) and longer (tens of
    /// thousands) than a pipeline chunk, so chunk boundaries fall inside
    /// intervals and intervals inside chunks.
    #[test]
    fn pipelined_profiler_matches_per_item_profiler(
        raw in spec_strategy(),
        warmup in 0u32..3,
        llc_sel in 0usize..6,
        long in 0u8..2,
        short_insns in 200u64..2_000,
        long_insns in 20_000u64..60_000,
        intervals in 2u32..7,
    ) {
        let specs = build_specs(&[raw]);
        let machine = MachineConfig::baseline().with_llc(llc_configs()[llc_sel]);
        let interval_insns = if long == 1 { long_insns } else { short_insns };
        let geometry = build_geometry(interval_insns, intervals);
        assert_profilers_agree(&specs[0], &machine, geometry, warmup);
    }

    /// Unified LRU LLC (all six Table 2 configurations), one warmup pass —
    /// the default `MixSim` path.
    #[test]
    fn unified_lru_mixes_match_reference(
        raw in mix_strategy(1..5),
        interval_insns in 1_000u64..6_000,
        intervals in 2u32..8,
        llc_sel in 0usize..6,
    ) {
        let specs = build_specs(&raw);
        let machine = MachineConfig::baseline().with_llc(llc_configs()[llc_sel]);
        let geometry = build_geometry(interval_insns, intervals);
        assert_schedulers_agree(&specs, &machine, geometry, &Axes::default());
    }

    /// Heterogeneous core factors (`MixSim::core_factors`):
    /// per-core compute scaling shifts every arrival timestamp.
    #[test]
    fn heterogeneous_cores_match_reference(
        raw in mix_strategy(2..5),
        factors in collection::vec(0.5f64..2.5, 4),
        interval_insns in 1_000u64..6_000,
        intervals in 2u32..7,
    ) {
        let specs = build_specs(&raw);
        let geometry = build_geometry(interval_insns, intervals);
        let axes = Axes {
            core_factors: Some(&factors[..specs.len()]),
            ..Axes::default()
        };
        assert_schedulers_agree(&specs, &MachineConfig::baseline(), geometry, &axes);
    }

    /// Way-partitioned LLC (`MixSim::partitioned`): each core
    /// owns a slice, so per-core traffic must stay isolated identically.
    #[test]
    fn partitioned_llc_matches_reference(
        raw in mix_strategy(4..5),
        layout_sel in 0usize..6,
        interval_insns in 1_000u64..6_000,
        intervals in 2u32..7,
    ) {
        // Layouts over the baseline 8-way LLC, from balanced to skewed.
        let layouts: [&[u32]; 6] =
            [&[4, 4], &[1, 7], &[6, 2], &[2, 3, 3], &[1, 1, 6], &[2, 2, 2, 2]];
        let ways = layouts[layout_sel];
        let specs = build_specs(&raw[..ways.len()]);
        let geometry = build_geometry(interval_insns, intervals);
        let axes = Axes { ways: Some(ways), ..Axes::default() };
        assert_schedulers_agree(&specs, &MachineConfig::baseline(), geometry, &axes);
    }

    /// `warmup_passes == 0`: the measurement window opens at cycle 0, so
    /// the first threshold is crossed before any event commits.
    #[test]
    fn zero_warmup_matches_reference(
        raw in mix_strategy(1..4),
        interval_insns in 1_000u64..6_000,
        intervals in 2u32..7,
    ) {
        let specs = build_specs(&raw);
        let geometry = build_geometry(interval_insns, intervals);
        let axes = Axes { warmup_passes: 0, ..Axes::default() };
        assert_schedulers_agree(&specs, &MachineConfig::baseline(), geometry, &axes);
    }

    /// Finite memory bandwidth: `MemoryChannel::request(now)` is stateful
    /// and order-sensitive — any commit-order divergence is amplified into
    /// different queueing delays for every later miss.
    #[test]
    fn bandwidth_limited_channel_matches_reference(
        raw in mix_strategy(2..5),
        bandwidth in 0.02f64..0.5,
        interval_insns in 1_000u64..5_000,
        intervals in 2u32..6,
    ) {
        let specs = build_specs(&raw);
        let machine = MachineConfig::baseline().with_mem_bandwidth(bandwidth);
        let geometry = build_geometry(interval_insns, intervals);
        assert_schedulers_agree(&specs, &machine, geometry, &Axes::default());
    }

    /// Timestamp-tie storm: identical specs on every core make *every*
    /// shared event a multi-way tie, so only the core-index tie-break
    /// keeps the schedulers aligned. Equal partitioned slices must also
    /// yield bit-equal CPIs across cores (per
    /// `partitioned_slices_isolate_traffic`).
    #[test]
    fn identical_specs_tie_storm_matches_reference(
        raw in spec_strategy(),
        cores in 2usize..5,
        interval_insns in 1_000u64..5_000,
        intervals in 2u32..6,
    ) {
        let raw_mix: Vec<RawSpec> = (0..cores).map(|_| raw.clone()).collect();
        // Identical *contents* on every core: build_specs varies the name
        // only, and trace generation depends only on seed/phases/schedule.
        let specs = build_specs(&raw_mix);
        assert_eq!(specs[0].phases(), specs[1].phases());
        assert_eq!(specs[0].seed(), specs[1].seed());
        let geometry = build_geometry(interval_insns, intervals);
        assert_schedulers_agree(&specs, &MachineConfig::baseline(), geometry, &Axes::default());

        // On equal slices the tie storm must also keep cores bit-equal.
        if 8 % cores == 0 {
            let ways = vec![8 / cores as u32; cores];
            let axes = Axes { ways: Some(&ways), ..Axes::default() };
            let (event, _) =
                assert_schedulers_agree(&specs, &MachineConfig::baseline(), geometry, &axes);
            for core in 1..cores {
                assert_eq!(
                    event.cpi_mc[0].to_bits(),
                    event.cpi_mc[core].to_bits(),
                    "equal slices, bit-equal CPI: {:?}",
                    event.cpi_mc
                );
            }
        }
    }

    /// The compiled-execution oracle (property 8): replaying streamed
    /// chunks (runs without a cache) and chunks copied from compiled
    /// phase runs (runs with a `TraceCache`) must be bit-identical to
    /// generating every item live from the reference stream, under the
    /// event-driven scheduler and under the smallest-clock one (which
    /// always steps the live stream) — across phase-boundary splits (the
    /// generated schedules put phase changes at varying interval
    /// boundaries, so runs and chunks split differently case to case),
    /// warmup passes 0–2, heterogeneous core factors and all six LLC
    /// configurations. Multi-core shared-LLC mixes preempt bursts
    /// mid-chunk constantly (every shared event suspends a burst inside a
    /// chunk and resumes it after `commit_llc`), which is exactly the
    /// cursor state the fed loop must keep exact.
    #[test]
    fn compiled_blocks_match_reference_stream(
        raw in mix_strategy(1..5),
        factors in collection::vec(0.5f64..2.5, 4),
        warmup in 0u32..3,
        llc_sel in 0usize..6,
        interval_insns in 1_000u64..5_000,
        intervals in 2u32..7,
    ) {
        let specs = build_specs(&raw);
        let refs: Vec<&BenchmarkSpec> = specs.iter().collect();
        let machine = MachineConfig::baseline().with_llc(llc_configs()[llc_sel]);
        let geometry = build_geometry(interval_insns, intervals);
        let cache = TraceCache::new();
        let build = |scheduler, execution, cache: Option<&TraceCache>| {
            let mut sim = MixSim::new(&refs, &machine, geometry)
                .warmup_passes(warmup)
                .core_factors(&factors[..refs.len()]);
            if let Some(cache) = cache {
                sim = sim.trace_cache(cache);
            }
            reference::run(sim, scheduler, execution)
        };
        let streamed = build(Scheduler::EventDriven, Execution::Compiled, None);
        let cached = build(Scheduler::EventDriven, Execution::Compiled, Some(&cache));
        let live = build(Scheduler::EventDriven, Execution::ReferenceStream, None);
        let reference = build(Scheduler::Reference, Execution::ReferenceStream, None);
        prop_assert_eq!(&streamed, &cached, "streamed vs cached");
        prop_assert_eq!(&live, &reference, "event-driven vs smallest-clock live stream");
        for core in 0..refs.len() {
            prop_assert_eq!(
                streamed.cpi_mc[core].to_bits(),
                reference.cpi_mc[core].to_bits(),
                "core {} CPI diverged: {} vs {}",
                core,
                streamed.cpi_mc[core],
                reference.cpi_mc[core]
            );
            prop_assert_eq!(
                streamed.completion_cycles[core].to_bits(),
                reference.completion_cycles[core].to_bits(),
                "core {} completion cycles diverged",
                core
            );
        }
        prop_assert_eq!(&streamed, &reference, "full MixResult must be bit-identical");
    }

    /// Arena reset semantics: a *sequence* of mixes with different core
    /// counts, LLC configurations, and trace geometries, all threaded
    /// through **one** `SimArena`, must reproduce the fresh-allocation
    /// result of every mix bit-for-bit. Each step re-shapes the pooled
    /// engines, cache slabs, and bookkeeping vectors, so any reset
    /// invariant a pooled structure violated would leak the previous
    /// mix's state into this one and diverge.
    #[test]
    fn arena_reuse_matches_fresh_allocation(
        mixes in collection::vec(
            (mix_strategy(1..5), 0usize..6, 1_000u64..4_000, 2u32..6),
            2..5,
        ),
    ) {
        let mut arena = mppm_sim::SimArena::new();
        let mut out = MixResult::default();
        for (step, (raw, llc_sel, interval_insns, intervals)) in mixes.iter().enumerate() {
            let specs = build_specs(raw);
            let refs: Vec<&BenchmarkSpec> = specs.iter().collect();
            let machine = MachineConfig::baseline().with_llc(llc_configs()[*llc_sel]);
            let geometry = build_geometry(*interval_insns, *intervals);
            let fresh = MixSim::new(&refs, &machine, geometry).run();
            MixSim::new(&refs, &machine, geometry).arena(&mut arena).run_into(&mut out);
            for core in 0..refs.len() {
                prop_assert_eq!(
                    fresh.cpi_mc[core].to_bits(),
                    out.cpi_mc[core].to_bits(),
                    "step {}: core {} CPI diverged through the arena: {} vs {}",
                    step,
                    core,
                    fresh.cpi_mc[core],
                    out.cpi_mc[core]
                );
            }
            prop_assert_eq!(&fresh, &out, "step {}: arena run diverged", step);
        }
    }

    /// Everything at once: heterogeneous factors, finite bandwidth, and a
    /// variable warmup, through both schedulers.
    #[test]
    fn combined_axes_match_reference(
        raw in mix_strategy(2..4),
        factors in collection::vec(0.5f64..2.0, 3),
        bandwidth in 0.05f64..0.5,
        warmup in 0u32..3,
        interval_insns in 1_000u64..4_000,
        intervals in 2u32..6,
    ) {
        let specs = build_specs(&raw);
        let machine = MachineConfig::baseline().with_mem_bandwidth(bandwidth);
        let geometry = build_geometry(interval_insns, intervals);
        let axes = Axes {
            warmup_passes: warmup,
            core_factors: Some(&factors[..specs.len()]),
            ..Axes::default()
        };
        assert_schedulers_agree(&specs, &machine, geometry, &axes);
    }
}
