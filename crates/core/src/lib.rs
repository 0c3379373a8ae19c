//! # MPPM — The Multi-Program Performance Model
//!
//! A reproduction of *"The Multi-Program Performance Model: Debunking
//! Current Practice in Multi-Core Simulation"* (Kenzo Van Craeynest &
//! Lieven Eeckhout, IISWC 2011).
//!
//! MPPM predicts the performance of a *multi-program* workload running on
//! a multi-core processor with a shared last-level cache (LLC) — without
//! simulating the multi-core at all. Its inputs are per-program
//! **single-core profiles** ([`SingleCoreProfile`]), collected once per
//! benchmark while it runs alone: per-interval CPI, the memory component
//! of CPI, and LLC stack-distance counters. From those it iteratively
//! solves the entanglement between per-core progress and shared-cache
//! contention ([`Mppm::predict`]) and reports per-program slowdowns, from
//! which the standard multi-program metrics ([`metrics::stp`],
//! [`metrics::antt`]) follow.
//!
//! Because the model is analytical it evaluates thousands of workload
//! mixes per second, which the paper uses to show that "pick a dozen
//! random mixes" — current practice — can rank design options incorrectly.
//! The [`mix`] module enumerates and samples workload mixes, [`stats`]
//! provides the confidence intervals and rank correlations used in that
//! argument, and [`classify`] implements the MEM/COMP workload classes.
//!
//! The crate is deliberately independent of any simulator: profiles are
//! plain serializable data (the companion `mppm-sim` crate produces them,
//! but anything else can too).
//!
//! ## Example
//!
//! ```
//! use mppm::{metrics, FoaModel, Mppm, MppmConfig};
//! use mppm::profile::SingleCoreProfile;
//!
//! // Two synthetic profiles (a real flow gets these from a profiler).
//! let a = SingleCoreProfile::synthetic("a", 8, 10, 1_000, 0.5, 0.1, 400.0, 40.0);
//! let b = SingleCoreProfile::synthetic("b", 8, 10, 1_000, 1.5, 0.8, 900.0, 600.0);
//!
//! let mppm = Mppm::new(MppmConfig::default(), FoaModel);
//! let pred = mppm.predict(&[&a, &b])?;
//! println!("STP = {:.2}, ANTT = {:.2}", pred.stp(), pred.antt());
//! assert!(pred.slowdowns().iter().all(|&r| r >= 1.0));
//! # Ok::<(), mppm::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
mod contention;
mod cpi_stack;
mod error;
mod lockstep;
pub mod metrics;
pub mod mix;
mod model;
pub mod profile;
mod proptests;
pub mod stats;

pub use contention::{
    ContentionModel, FoaModel, PartitionModel, ProbModel, SdcCompetitionModel,
};
pub use cpi_stack::CpiStack;
pub use error::ModelError;
pub use lockstep::SolverProfile;
pub use model::{Mppm, MppmConfig, Prediction, SlowdownUpdate, SolverScratch};
pub use profile::{IntervalProfile, MachineSummary, SingleCoreProfile};

/// The curated import surface for typical MPPM workflows.
///
/// `use mppm::prelude::*;` brings in everything needed to load profiles,
/// run the model, and score the outcome — nothing more:
///
/// ```
/// use mppm::prelude::*;
///
/// let a = SingleCoreProfile::synthetic("a", 8, 10, 1_000, 0.5, 0.1, 400.0, 40.0);
/// let b = SingleCoreProfile::synthetic("b", 8, 10, 1_000, 1.5, 0.8, 900.0, 600.0);
/// let pred = Mppm::new(MppmConfig::default(), FoaModel).predict(&[&a, &b])?;
/// let _ = (stp(pred.cpi_sc(), pred.cpi_mc()), antt(pred.cpi_sc(), pred.cpi_mc()));
/// # Ok::<(), ModelError>(())
/// ```
pub mod prelude {
    pub use crate::contention::FoaModel;
    pub use crate::error::ModelError;
    pub use crate::metrics::{antt, stp};
    pub use crate::model::{Mppm, MppmConfig, Prediction};
    pub use crate::profile::SingleCoreProfile;
}
