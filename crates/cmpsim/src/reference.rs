//! The retired scheduler and execution substrate, kept as oracles.
//!
//! [`MixSim`] runs one path: the event-driven scheduler over compiled
//! trace blocks. The two paths it replaced are reached only from here,
//! because they are how the production path is proven bit-exact:
//!
//! * [`Scheduler::Reference`] — the original smallest-clock-first loop
//!   that re-scans every core's clock for every trace item (O(cores) per
//!   item);
//! * [`Execution::ReferenceStream`] — every trace item generated live
//!   from the per-core [`mppm_trace::TraceStream`] instead of replayed
//!   from compiled blocks.
//!
//! [`run`] drives a configured [`MixSim`] (partitioning, core factors,
//! warmup, observer, arena all apply) through any combination of the two
//! axes. The differential oracle (`crates/cmpsim/tests/differential.rs`)
//! and the golden snapshot (`tests/differential.rs`) assert every
//! combination bit-identical to the production path.
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

use crate::multi::{InterleaveState, SchedKey};
use crate::{CoreEngine, LlcMode, MixResult, MixSim, Uncore};

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
    /// Compile each distinct spec's phases into flat
    /// [`mppm_trace::CompiledTrace`] blocks once, then replay them on
    /// every pass (warmup, measurement, FAME re-iteration) and on every
    /// core running the same spec. The production substrate.
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
/// name the chosen paths.
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
