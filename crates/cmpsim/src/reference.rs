//! The retired scheduler, execution substrate and single-core profiler,
//! kept as oracles.
//!
//! [`MixSim`] runs one path: the event-driven scheduler over fed trace
//! chunks, streamed from a generator thread or copied from the compiled
//! traces of an attached [`crate::TraceCache`]. The paths it replaced are
//! reached only from here, because they are how the production path is
//! proven bit-exact. [`run`] takes a configured [`MixSim`]
//! (partitioning, core factors, warmup, observer and arena all apply;
//! a trace cache is not consulted) down one of them, an [`Oracle`]:
//!
//! * [`Oracle::LiveStream`] — the event-driven scheduler stepping every
//!   trace item live from the per-core [`mppm_trace::TraceStream`]
//!   instead of replaying chunks;
//! * [`Oracle::SmallestClock`] — the original smallest-clock-first loop
//!   that re-scans every core's clock for every trace item (O(cores) per
//!   item), on the same live stream.
//!
//! The differential oracle (`crates/cmpsim/tests/differential.rs`) and
//! the golden snapshot (`tests/differential.rs`) assert both
//! bit-identical to the production path.
//!
//! [`profile_single_core_with`] is the per-item profiler the pipelined
//! [`crate::profile_single_core_with`] replaced; the same differential
//! oracle asserts the two produce bit-identical profiles.
//!
//! ```
//! use mppm_sim::reference::{self, Oracle};
//! use mppm_sim::{MachineConfig, MixSim};
//! use mppm_trace::{suite, TraceGeometry};
//!
//! let lbm = suite::benchmark("lbm").unwrap();
//! let specs = [lbm, lbm];
//! let machine = MachineConfig::baseline();
//! let sim = || MixSim::new(&specs, &machine, TraceGeometry::tiny());
//! let oracle = reference::run(sim(), Oracle::SmallestClock);
//! assert_eq!(oracle, sim().run());
//! ```

use mppm::SingleCoreProfile;
use mppm_cache::Sdc;
use mppm_trace::{BenchmarkSpec, TraceGeometry};

use crate::multi::{InterleaveState, SchedKey};
use crate::single::collect_profile;
use crate::{CoreEngine, LlcMode, MachineConfig, MixResult, MixSim, Uncore};

/// A retired mix-simulation path, kept as an oracle. Both step every
/// core's live per-item [`mppm_trace::TraceStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// The production event-driven scheduler over the live stream, in
    /// place of fed chunks.
    LiveStream,
    /// The original smallest-clock-first per-item loop, O(cores) per
    /// trace item.
    SmallestClock,
}

/// Runs `sim` down an oracle path instead of production's
/// ([`MixSim::run`]). The observer's `mix-config` and `batch` events
/// name the scheduler (`event-driven` or `reference`) and the
/// `reference-stream` substrate.
///
/// # Panics
///
/// Same conditions as [`MixSim::run`].
pub fn run(mut sim: MixSim<'_>, oracle: Oracle) -> MixResult {
    sim.oracle = Some(oracle);
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
