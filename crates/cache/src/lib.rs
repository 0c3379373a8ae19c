//! Set-associative cache structures and stack-distance profiling.
//!
//! This crate provides the cache substrate both sides of the MPPM
//! reproduction are built on:
//!
//! * [`SetAssocCache`] — a set-associative cache with pluggable replacement
//!   ([`Replacement`]), used by the detailed simulator for L1/L2 and the
//!   shared last-level cache. Every access reports the LRU-stack depth it
//!   hit at, which is exactly the measurement a stack-distance counter
//!   profile needs.
//! * [`Sdc`] — stack-distance counters as defined by Mattson et al. and
//!   used by the paper (§2.1): for an A-way cache, counters `C_1..C_A`
//!   count hits per LRU-stack position and `C_>A` counts misses. The type
//!   carries the algebra MPPM relies on: window summation with fractional
//!   scaling, miss counts at *fractional* effective associativities (the
//!   FOA contention model needs this), and exact folding to a reduced
//!   associativity (the paper derives 8-way profiles from 16-way runs
//!   without re-simulating).
//!
//! # Example
//!
//! ```
//! use mppm_cache::{CacheConfig, Replacement, Sdc, SetAssocCache};
//!
//! let cfg = CacheConfig::new(512 * 1024, 8, 64, 16);
//! let mut llc = SetAssocCache::new(cfg, Replacement::Lru);
//! let mut sdc = Sdc::new(cfg.assoc);
//! for block in 0..10_000u64 {
//!     let r = llc.access(block % 3000);
//!     sdc.record(r.depth);
//! }
//! assert_eq!(sdc.accesses(), 10_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod reference;
mod sdc;
mod set_assoc;

pub use config::CacheConfig;
pub use sdc::Sdc;
pub use set_assoc::{AccessResult, Replacement, SetAssocCache, MAX_ASSOC};
