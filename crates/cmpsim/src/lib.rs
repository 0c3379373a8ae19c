//! Trace-driven detailed multi-core simulator — the CMP$im substitute.
//!
//! The paper measures "ground truth" with CMP$im, a Pin-based x86
//! multi-core cache simulator, and collects its single-core MPPM profiles
//! with the same tool. CMP$im is not redistributable, so this crate
//! implements an equivalent trace-driven simulator over the synthetic
//! workloads of [`mppm_trace`]:
//!
//! * [`MachineConfig`] describes the paper's machine (Table 1): 4-wide
//!   out-of-order cores, private 32KB L1D and 256KB L2, a shared LLC
//!   ([`llc_configs`] lists Table 2's six configurations), 200-cycle
//!   memory, LRU everywhere, perfect branch prediction and instruction
//!   fetch.
//! * The core timing model charges each instruction its phase's base CPI
//!   and adds miss stalls `max(0, latency − hide) / MLP` — an interval-style
//!   approximation of a 128-entry-ROB core that hides L1/L2 latency and
//!   overlaps misses up to the workload's memory-level parallelism.
//! * [`profile_single_core`] runs one benchmark alone and produces the
//!   per-interval [`mppm::SingleCoreProfile`] (CPI, memory CPI, LLC
//!   stack-distance counters) that MPPM consumes.
//! * [`MixSim`] runs a multi-program mix with an event-driven
//!   scheduler: each core executes compute items and private-cache hits
//!   in local bursts, and only shared-LLC/memory-channel events are
//!   globally ordered (by arrival timestamp, core index as tie-break)
//!   through a binary heap — bit-identical to stepping cores one item at
//!   a time in local-clock order, but O(log cores) per *shared event*
//!   instead of O(cores) per *item*. Programs that finish re-iterate
//!   their trace so contention stays live (the FAME methodology), and
//!   each program's multi-core CPI is measured over its first full trace.
//!   Each core replays trace chunks a generator thread streams from its
//!   program (the pipeline the profiler uses; the simulating thread cuts
//!   a chunk itself rather than wait for one), or, when the caller
//!   attaches a [`TraceCache`], compiled traces reused across runs.
//! * [`reference`] keeps the retired scheduler and per-item execution
//!   substrate as oracles for the differential tests; they are not
//!   reachable from the builder.
//!
//! # Example
//!
//! ```
//! use mppm_sim::{profile_single_core, MachineConfig, MixSim};
//! use mppm_trace::{suite, TraceGeometry};
//!
//! let machine = MachineConfig::baseline();
//! let geometry = TraceGeometry::tiny();
//! let gamess = suite::benchmark("gamess").unwrap();
//!
//! let profile = profile_single_core(gamess, &machine, geometry);
//! assert!(profile.cpi_sc() > 0.3);
//!
//! let mix = MixSim::new(&[gamess, gamess], &machine, geometry).run();
//! assert!(mix.cpi_mc[0] >= profile.cpi_sc() * 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod engine;
mod feed;
mod machine;
mod memory;
mod multi;
pub mod reference;
mod single;

pub use arena::SimArena;
pub use engine::{BurstStop, CoreEngine, LlcMode, Uncore};
pub use memory::MemoryChannel;
pub use machine::{llc_configs, CoreConfig, MachineConfig, LLC_CONFIG_COUNT};
pub use multi::{MixResult, MixSim, SchedKey, TraceCache};
pub use single::{
    profile_compiled, profile_single_core, profile_single_core_with, run_single_core,
    SingleRunStats,
};
