//! Synthetic statistical workloads standing in for SPEC CPU2006.
//!
//! The MPPM paper (Van Craeynest & Eeckhout, IISWC 2011) drives both its
//! detailed simulations and its analytical model with 1B-instruction
//! SimPoint traces of the 29 SPEC CPU2006 benchmarks. Neither the binaries
//! nor the traces are redistributable, so this crate implements the closest
//! synthetic equivalent: each benchmark is a *parameterized, deterministic
//! generator* of an instruction/memory-access stream.
//!
//! A [`BenchmarkSpec`] consists of a set of [`Phase`]s scheduled over the
//! intervals of a trace (the paper profiles per 20M-instruction interval; we
//! keep the same 50-intervals-per-trace geometry at a reduced scale, see
//! [`TraceGeometry`]). Each phase fixes:
//!
//! * the fraction of instructions that access memory ([`Phase::mem_ratio`]),
//! * the base CPI with a perfect memory hierarchy ([`Phase::base_cpi`]),
//! * the memory-level parallelism used to overlap miss stalls
//!   ([`Phase::mlp`]), and
//! * a weighted mixture of memory [`Region`]s (uniformly re-referenced
//!   working sets and streaming scans) that shapes the reuse-distance
//!   profile seen by the caches.
//!
//! This preserves exactly the workload properties MPPM depends on:
//! per-interval CPI, memory-CPI fraction, last-level-cache stack-distance
//! profiles, access frequency, and time-varying phase behavior.
//!
//! [`TraceStream`] turns a spec into an infinite, cyclic, deterministic
//! stream of [`TraceItem`]s: the stream re-starts identically each time it
//! wraps past the trace length, which is what the FAME-style re-iteration
//! methodology of multi-program simulation requires.
//!
//! # Example
//!
//! ```
//! use mppm_trace::{suite, TraceGeometry, TraceStream};
//!
//! let geometry = TraceGeometry::default();
//! let spec = suite::benchmark("gamess").expect("gamess is in the suite");
//! let mut stream = TraceStream::new(spec.clone(), geometry);
//! let item = stream.next_item();
//! println!("first item of gamess: {item:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod geometry;
mod item;
mod phase;
mod recorded;
mod region;
mod spec;
mod stream;
pub mod suite;

pub use compile::{CompiledBlock, CompiledTrace, OpWords};
pub use geometry::TraceGeometry;
pub use item::{MemAccess, TraceItem};
pub use phase::Phase;
pub use recorded::{DecodeError, RecordedTrace, Replay};
pub use region::{Region, RegionKind};
pub use spec::{BenchmarkSpec, SpecError};
pub use stream::TraceStream;

/// Cache-line (block) size in bytes used throughout the workspace.
///
/// The paper's machine (Table 1) uses 64-byte lines; generators emit block
/// identifiers, and `block << LINE_SHIFT` is the byte address.
pub const LINE_BYTES: u64 = 64;

/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;
