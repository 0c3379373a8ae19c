//! Single-core runs: the profiler that produces MPPM's inputs, and plain
//! isolated runs for validation.

use std::sync::Arc;

use mppm::{IntervalProfile, SingleCoreProfile};
use mppm_cache::Sdc;
use mppm_trace::{BenchmarkSpec, CompiledTrace, PhaseRun, TraceGeometry, TraceStream};

use crate::engine::TraceSource;
use crate::feed;
use crate::{BurstStop, CoreEngine, LlcMode, MachineConfig, Uncore};

/// Statistics of a plain isolated run (no profiling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleRunStats {
    /// Total cycles.
    pub cycles: f64,
    /// Total instructions.
    pub insns: u64,
    /// LLC accesses (loads and stores that missed the private caches).
    pub llc_accesses: u64,
    /// LLC misses.
    pub llc_misses: u64,
}

impl SingleRunStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles / self.insns as f64
    }
}

/// Runs `spec` alone for `passes` full traces and returns aggregate
/// statistics. With [`LlcMode::Perfect`] every LLC access hits — the
/// difference in CPI against a [`LlcMode::Real`] run is the memory CPI
/// component (the paper's two-run method of measuring `CPI_mem`).
pub fn run_single_core(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    geometry: TraceGeometry,
    passes: u32,
    mode: LlcMode,
) -> SingleRunStats {
    assert!(passes > 0, "must run at least one pass");
    let mut engine = CoreEngine::new(spec.clone(), machine, geometry, 0);
    let mut uncore = Uncore::new(machine);
    let total = geometry.trace_insns() * u64::from(passes);
    let mut llc_accesses = 0;
    let mut llc_misses = 0;
    while engine.insns() < total {
        let outcome = engine.step(&mut uncore, mode);
        if let Some(obs) = outcome.llc {
            llc_accesses += 1;
            if obs.depth.is_none() {
                llc_misses += 1;
            }
        }
    }
    SingleRunStats { cycles: engine.cycles(), insns: engine.insns(), llc_accesses, llc_misses }
}

/// Runs `spec` alone and collects the per-interval profile MPPM consumes
/// (paper §2.1): CPI, memory CPI and LLC stack-distance counters per
/// interval.
///
/// One full warmup pass runs first so the profile reflects steady-state
/// behavior (the paper's SimPoints are likewise measured on warmed
/// caches); the detailed multi-core measurement warms up the same way, so
/// isolated and co-scheduled runs stay directly comparable. Use
/// [`profile_single_core_with`] to control the warmup.
pub fn profile_single_core(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    geometry: TraceGeometry,
) -> SingleCoreProfile {
    profile_single_core_with(spec, machine, geometry, 1)
}

/// [`profile_single_core`] with an explicit number of warmup trace passes.
///
/// A two-stage pipeline ([`crate::feed`]): a scoped generator thread
/// drains the trace into fixed-size [`OpWords`](mppm_trace::OpWords)
/// chunks while the calling thread replays them through the burst kernel
/// ([`CoreEngine::run_until_llc`]/[`CoreEngine::commit_llc`]). The item
/// sequence and the kernel's f64 operations are the same as stepping the
/// live stream one item at a time, so the profile is bit-identical to
/// [`crate::reference::profile_single_core_with`].
pub fn profile_single_core_with(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    geometry: TraceGeometry,
    warmup_passes: u32,
) -> SingleCoreProfile {
    profile_pipelined(spec, machine, geometry, warmup_passes, feed::CHUNK_OPS)
}

/// The pipelined profiler with an explicit chunk size (tests force tiny
/// chunks onto interval and pass boundaries).
pub(crate) fn profile_pipelined(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    geometry: TraceGeometry,
    warmup_passes: u32,
    chunk_ops: usize,
) -> SingleCoreProfile {
    let spec = Arc::new(spec.clone());
    let total = geometry.trace_insns() * u64::from(warmup_passes + 1);
    let stream = TraceStream::new(Arc::clone(&spec), geometry);
    feed::with_feeds([stream], total, chunk_ops, |feeds| {
        let source = TraceSource::fed(feeds.next(0), Arc::clone(&spec), geometry);
        profile_fed(&spec, source, machine, geometry, warmup_passes, |engine, end| {
            feeds.burst(0, engine, end)
        })
    })
}

/// Profiles a compiled trace — a recording loaded with
/// [`CompiledTrace::from_bytes`], say — the way
/// [`profile_single_core_with`] profiles the generator: the same fed
/// burst loop and measurement, over chunks copied from the trace on the
/// calling thread. For a trace compiled from a spec the profile is
/// bit-identical to [`profile_single_core_with`] on that spec.
pub fn profile_compiled(
    trace: &CompiledTrace,
    machine: &MachineConfig,
    warmup_passes: u32,
) -> SingleCoreProfile {
    let buffer = PhaseRun::with_capacity(feed::CHUNK_OPS);
    let (source, mut cursor) = feed::cached(trace, buffer, feed::CHUNK_OPS);
    profile_fed(trace.spec(), source, machine, trace.geometry(), warmup_passes, |engine, end| {
        feed::burst(engine, end, |engine| {
            engine.refeed(|chunk| cursor.cut(trace, chunk, feed::CHUNK_OPS));
        })
    })
}

/// Profiles `spec`'s trace on an engine fed from `source` that bursts
/// with `burst(engine, limit)`.
fn profile_fed(
    spec: &BenchmarkSpec,
    source: TraceSource,
    machine: &MachineConfig,
    geometry: TraceGeometry,
    warmup_passes: u32,
    mut burst: impl FnMut(&mut CoreEngine, u64) -> BurstStop,
) -> SingleCoreProfile {
    let mut engine = CoreEngine::from_source(source, machine, 0, 1.0);
    let mut uncore = Uncore::new(machine);
    let run_to = |engine: &mut CoreEngine, end: u64, mut sdc: Option<&mut Sdc>| {
        while engine.insns() < end {
            if let BurstStop::Llc { .. } = burst(engine, end) {
                let obs = engine.commit_llc(&mut uncore);
                if let Some(sdc) = sdc.as_deref_mut() {
                    sdc.record(obs.depth);
                }
            }
        }
    };
    collect_profile(spec, machine, geometry, warmup_passes, &mut engine, run_to)
}

/// The profiler's measurement skeleton, shared by both fed profilers and
/// the per-item oracle: `run_to(engine, end, sdc)` must advance `engine` to
/// stream position `end`, recording every LLC depth into `sdc` when one
/// is given. Runs the warmup passes, then snapshots cycles and the CPI
/// stack around each interval.
pub(crate) fn collect_profile(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    geometry: TraceGeometry,
    warmup_passes: u32,
    engine: &mut CoreEngine,
    mut run_to: impl FnMut(&mut CoreEngine, u64, Option<&mut Sdc>),
) -> SingleCoreProfile {
    let warmup_insns = geometry.trace_insns() * u64::from(warmup_passes);
    run_to(engine, warmup_insns, None);
    let mut intervals = Vec::with_capacity(geometry.intervals as usize);
    for interval_idx in 0..geometry.intervals {
        let interval_end =
            warmup_insns + u64::from(interval_idx + 1) * geometry.interval_insns;
        let cycles_before = engine.cycles();
        let stack_before = engine.cpi_stack();
        let mut sdc = Sdc::new(machine.llc.assoc);
        run_to(engine, interval_end, Some(&mut sdc));
        let phase = spec.phase_at(interval_idx, geometry);
        let stack = engine.cpi_stack().delta(&stack_before);
        intervals.push(IntervalProfile {
            insns: geometry.interval_insns,
            cycles: engine.cycles() - cycles_before,
            mem_stall_cycles: stack.mem_component(),
            sdc,
            fallback_penalty: f64::from(machine.mem_latency) / phase.mlp,
            stack,
        });
    }

    let profile = SingleCoreProfile {
        name: spec.name().to_string(),
        machine: machine.summary(),
        intervals,
    };
    profile.validate().expect("profiler output is structurally valid");
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppm_trace::suite;

    fn geometry() -> TraceGeometry {
        TraceGeometry::new(20_000, 10)
    }

    /// Bit-level view of a profile: every interval field plus the SDC
    /// counts, so `-0.0`/`0.0` or NaN payload differences cannot hide.
    fn bits(p: &SingleCoreProfile) -> Vec<u64> {
        p.intervals
            .iter()
            .flat_map(|iv| {
                let s = iv.stack;
                [iv.cycles, iv.mem_stall_cycles, iv.fallback_penalty, s.base, s.l2_hit]
                    .into_iter()
                    .chain([s.llc_hit, s.memory, s.queue])
                    .chain(iv.sdc.counters().iter().copied())
                    .map(f64::to_bits)
                    .chain([iv.insns])
            })
            .collect()
    }

    #[test]
    fn tiny_chunks_match_the_per_item_oracle() {
        // Chunks of 1, 3 and 7 ops put chunk boundaries on (and right
        // next to) every interval and pass boundary, and a phased spec
        // cuts chunks at phase changes too.
        let m = MachineConfig::baseline();
        let g = TraceGeometry::new(2_000, 6);
        for name in ["gcc", "lbm", "gamess"] {
            let spec = suite::benchmark(name).unwrap();
            for warmup in 0..3 {
                let oracle = crate::reference::profile_single_core_with(spec, &m, g, warmup);
                for chunk_ops in [1, 3, 7, feed::CHUNK_OPS] {
                    let piped = profile_pipelined(spec, &m, g, warmup, chunk_ops);
                    assert_eq!(bits(&piped), bits(&oracle), "{name} w{warmup} c{chunk_ops}");
                    assert_eq!(piped, oracle, "{name} w{warmup} c{chunk_ops}");
                }
            }
        }
    }

    #[test]
    fn cold_profile_matches_plain_run() {
        // With zero warmup the profiler and a plain run are the same
        // machinery and must agree exactly.
        let m = MachineConfig::baseline();
        let g = geometry();
        let spec = suite::benchmark("gobmk").unwrap();
        let profile = profile_single_core_with(spec, &m, g, 0);
        let run = run_single_core(spec, &m, g, 1, LlcMode::Real);
        assert!((profile.cpi_sc() - run.cpi()).abs() < 1e-9, "same machinery, same CPI");
        let total_acc: f64 = profile.intervals.iter().map(|iv| iv.sdc.accesses()).sum();
        assert!((total_acc - run.llc_accesses as f64).abs() < 1e-9);
        let total_miss: f64 = profile.intervals.iter().map(|iv| iv.sdc.misses()).sum();
        assert!((total_miss - run.llc_misses as f64).abs() < 1e-9);
    }

    #[test]
    fn warm_profile_has_fewer_misses_than_cold() {
        let m = MachineConfig::baseline();
        let g = geometry();
        let spec = suite::benchmark("gamess").unwrap();
        let cold = profile_single_core_with(spec, &m, g, 0);
        let warm = profile_single_core_with(spec, &m, g, 1);
        assert!(warm.mpki() < cold.mpki() * 0.5, "warmup removes cold misses");
    }

    #[test]
    fn mem_cpi_equals_perfect_llc_delta() {
        // The paper's alternative measurement of CPI_mem: real minus
        // perfect-LLC CPI. Our counter-based measurement must agree
        // (cold-for-cold comparison).
        let m = MachineConfig::baseline();
        let g = geometry();
        for name in ["soplex", "mcf", "hmmer"] {
            let spec = suite::benchmark(name).unwrap();
            let profile = profile_single_core_with(spec, &m, g, 0);
            let real = run_single_core(spec, &m, g, 1, LlcMode::Real);
            let perfect = run_single_core(spec, &m, g, 1, LlcMode::Perfect);
            let delta = real.cpi() - perfect.cpi();
            assert!(
                (profile.cpi_mem() - delta).abs() < 1e-9,
                "{name}: counter {} vs two-run {delta}",
                profile.cpi_mem()
            );
        }
    }

    #[test]
    fn profile_has_expected_shape() {
        let m = MachineConfig::baseline();
        let g = geometry();
        let profile = profile_single_core(suite::benchmark("gamess").unwrap(), &m, g);
        assert_eq!(profile.intervals.len(), 10);
        assert_eq!(profile.interval_insns(), 20_000);
        assert_eq!(profile.machine.llc.assoc, 8);
        profile.validate().unwrap();
    }

    #[test]
    fn gamess_hits_llc_when_alone() {
        // The design intent of the stress benchmark: very low isolated LLC
        // miss rate once warm (its working set fits config #1's LLC).
        let m = MachineConfig::baseline();
        let g = TraceGeometry::new(50_000, 10);
        let profile = profile_single_core(suite::benchmark("gamess").unwrap(), &m, g);
        let miss_rate = profile.mpki() / profile.apki().max(1e-12);
        assert!(miss_rate < 0.1, "gamess warm isolated LLC miss rate {miss_rate}");
    }

    #[test]
    fn streamer_misses_llc_when_alone() {
        let m = MachineConfig::baseline();
        let g = geometry();
        let run = run_single_core(suite::benchmark("lbm").unwrap(), &m, g, 1, LlcMode::Real);
        let miss_rate = run.llc_misses as f64 / run.llc_accesses.max(1) as f64;
        assert!(miss_rate > 0.8, "lbm isolated LLC miss rate {miss_rate}");
    }

    #[test]
    fn multiple_passes_scale_insns() {
        let m = MachineConfig::baseline();
        let g = TraceGeometry::tiny();
        let one = run_single_core(suite::benchmark("hmmer").unwrap(), &m, g, 1, LlcMode::Real);
        let three = run_single_core(suite::benchmark("hmmer").unwrap(), &m, g, 3, LlcMode::Real);
        assert_eq!(three.insns, 3 * one.insns);
        // Later passes are warm, so the average can only improve; at this
        // tiny scale the cold first pass dominates, so just bound it.
        assert!(three.cpi() <= one.cpi() + 1e-9);
        assert!(three.cpi() > one.cpi() / 3.0, "passes are the same workload");
    }
}
