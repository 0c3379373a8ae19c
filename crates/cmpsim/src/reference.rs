//! The retired scheduler, execution substrate and single-core profiler,
//! kept as oracles.
//!
//! [`MixSim`] runs one path: the event-driven scheduler over fed trace
//! chunks, streamed from a generator thread or copied from the compiled
//! traces of an attached [`crate::TraceCache`]. The two paths it
//! replaced are reached only from here, because they are how the
//! production path is proven bit-exact:
//!
//! * [`Scheduler::Reference`] — the original smallest-clock-first loop
//!   that re-scans every core's clock for every trace item (O(cores) per
//!   item) and steps it on the live stream;
//! * [`Execution::ReferenceStream`] — every trace item generated live
//!   from the per-core [`mppm_trace::TraceStream`] instead of replayed
//!   from chunks.
//!
//! [`run`] drives a configured [`MixSim`] (partitioning, core factors,
//! warmup, observer, arena, trace cache all apply) through the two axes;
//! the smallest-clock scheduler always steps the live stream, so it runs
//! the per-item substrate whatever the execution. The differential oracle
//! (`crates/cmpsim/tests/differential.rs`) and the golden snapshot
//! (`tests/differential.rs`) assert every combination bit-identical to
//! the production path.
//!
//! [`profile_single_core_with`] is the per-item profiler the pipelined
//! [`crate::profile_single_core_with`] replaced; the same differential
//! oracle asserts the two produce bit-identical profiles.
//!
//! ```
//! use mppm_sim::reference::{self, Execution, Scheduler};
//! use mppm_sim::{MachineConfig, MixSim};
//! use mppm_trace::{suite, TraceGeometry};
//!
//! let lbm = suite::benchmark("lbm").unwrap();
//! let specs = [lbm, lbm];
//! let machine = MachineConfig::baseline();
//! let sim = || MixSim::new(&specs, &machine, TraceGeometry::tiny());
//! let oracle = reference::run(sim(), Scheduler::Reference, Execution::ReferenceStream);
//! assert_eq!(oracle, sim().run());
//! ```

use mppm::SingleCoreProfile;
use mppm_cache::Sdc;
use mppm_trace::{BenchmarkSpec, TraceGeometry};

use crate::multi::{InterleaveState, SchedKey};
use crate::single::collect_profile;
use crate::{CoreEngine, LlcMode, MachineConfig, MixResult, MixSim, Uncore};

/// Which interleaving scheduler drives a mix simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Event-driven: private bursts plus a binary heap over shared-LLC
    /// events, O(log cores) per shared event. The production scheduler.
    #[default]
    EventDriven,
    /// The original smallest-clock-first per-item loop, O(cores) per
    /// trace item. Kept as the differential-testing oracle.
    Reference,
}

/// How trace items are produced during a mix simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// The production substrate: replay packed op words through the
    /// burst kernel, as chunks a generator thread streams in or copied
    /// from the compiled traces of a configured [`MixSim::trace_cache`].
    /// The smallest-clock scheduler steps item by item, which chunks
    /// cannot, so under it the run takes [`Self::ReferenceStream`].
    #[default]
    Compiled,
    /// Generate every item live from the per-core
    /// [`mppm_trace::TraceStream`] — the original per-item path, kept as
    /// the reference the compiled substrate is tested against. A
    /// configured [`MixSim::trace_cache`] is not consulted.
    ReferenceStream,
}

/// Runs `sim` under an explicit scheduler and execution substrate.
///
/// `reference::run(sim, Scheduler::EventDriven, Execution::Compiled)` is
/// exactly `sim.run()`. The observer's `mix-config` and `batch` events
/// name the scheduler and the substrate the run resolved to
/// (`streamed`, `compiled` for cached replay, or `reference-stream`).
///
/// # Panics
///
/// Same conditions as [`MixSim::run`].
pub fn run(mut sim: MixSim<'_>, scheduler: Scheduler, execution: Execution) -> MixResult {
    sim.scheduler = scheduler;
    sim.execution = execution;
    sim.run()
}

/// The smallest-clock-first interleaver: for every trace item, scan all
/// core clocks and step the earliest core. O(cores) per item. The
/// outcome is left in `state`.
///
/// Runs every program through the state's warmup instructions plus its
/// measurement window, keeping all cores running (the FAME re-iteration
/// methodology) until the last program completes.
///
/// # Panics
///
/// Panics if `engines` is empty.
pub(crate) fn interleave_into(
    engines: &mut [CoreEngine],
    uncore: &mut Uncore,
    state: &mut InterleaveState,
) {
    assert!(!engines.is_empty(), "a mix needs at least one program");
    loop {
        // Advance the core that is earliest in simulated time.
        let idx = engines
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| SchedKey { time: e.cycles(), core: *i })
            .map(|(i, _)| i)
            .expect("at least one engine");
        let outcome = engines[idx].step(uncore, LlcMode::Real);
        if let Some(obs) = outcome.llc {
            state.tally_llc(idx, obs.depth.is_none());
        }
        if state.record_thresholds(engines, idx) {
            return;
        }
    }
}

/// The original single-core profiler: steps the live
/// [`mppm_trace::TraceStream`] one item at a time on the calling thread.
/// Kept as the oracle the pipelined [`crate::profile_single_core_with`]
/// is proven bit-identical against.
pub fn profile_single_core_with(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    geometry: TraceGeometry,
    warmup_passes: u32,
) -> SingleCoreProfile {
    let mut engine = CoreEngine::new(spec.clone(), machine, geometry, 0);
    let mut uncore = Uncore::new(machine);
    let run_to = |engine: &mut CoreEngine, end: u64, mut sdc: Option<&mut Sdc>| {
        while engine.insns() < end {
            if let Some(obs) = engine.step(&mut uncore, LlcMode::Real).llc {
                if let Some(sdc) = sdc.as_deref_mut() {
                    sdc.record(obs.depth);
                }
            }
        }
    };
    collect_profile(spec, machine, geometry, warmup_passes, &mut engine, run_to)
}
