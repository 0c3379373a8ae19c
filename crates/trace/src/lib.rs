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

pub use compile::{CompiledTrace, OpWords, PhaseRun};
pub use geometry::TraceGeometry;
pub use item::{MemAccess, TraceItem};
pub use phase::Phase;
pub use recorded::DecodeError;
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

/// FNV-1a 64-bit — the checksum and fingerprint hash of recorded traces,
/// campaign journals and the experiment store's keys. Not cryptographic:
/// it guards against truncation, bit rot and mismatched inputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a`] fed in pieces: the hash of the concatenated bytes, with no
/// buffer to concatenate them into.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes.
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds `word` as its 8 little-endian bytes.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The hash of everything fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}
