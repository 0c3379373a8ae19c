//! Experiment harness reproducing every table and figure of the MPPM
//! paper.
//!
//! Each `fig*` module regenerates one result of the paper's evaluation;
//! the binaries under `src/bin/` drive them and write CSV series plus
//! human-readable tables under `results/`. Because the detailed simulator
//! is the expensive side (exactly the problem the paper addresses), all
//! simulation results and single-core profiles are cached on disk under
//! `target/` and re-used across figures and re-runs.
//!
//! | Paper result | Module | Binary |
//! |--------------|--------|--------|
//! | Table 1/2 (machine) | `mppm_sim::MachineConfig` | — (asserted in tests) |
//! | Fig. 3 (CI vs #mixes) | [`fig3`] | `fig3` |
//! | Fig. 4 (STP/ANTT accuracy, 2/4/8/16 cores) | [`fig4`] | `fig4` |
//! | Fig. 5 (per-program slowdown accuracy) | [`fig5`] | `fig5` |
//! | Fig. 6 (worst-mix CPI tracking) | [`fig6`] | `fig6` |
//! | Fig. 7 (design-space rank correlation) | [`fig7`] | `fig7` |
//! | Fig. 8 (current practice vs MPPM agreement) | [`fig8`] | `fig8` |
//! | Fig. 9 (stress-workload identification) | [`fig9`] | `fig9` |
//! | §4.3 (speed) | [`speed`] | `speed` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
mod context;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
mod runner;
pub mod speed;
mod store;
pub mod table;

pub use context::{Context, Scale};
pub use runner::{parallel_map, parallel_map_with, worker_threads};
pub use store::{atomic_write_bytes, atomic_write_json, content_key, MixKey, MixRecord, Store};
