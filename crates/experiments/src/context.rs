//! Shared experiment context: machine, geometry, profiles, model.

use mppm::{FoaModel, Mppm, MppmConfig, Prediction, SingleCoreProfile, SolverProfile};
use mppm::mix::Mix;
use mppm_sim::{llc_configs, MachineConfig};
use mppm_trace::{suite, TraceGeometry};
use std::sync::Arc;

use crate::store::{MixRecord, Store};

/// Experiment scale: full reproduces the paper's counts; quick is a smoke
/// test that exercises every code path in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale: 10M-instruction traces, 150 mixes, 5000 model mixes.
    Full,
    /// Smoke-test scale for CI and development.
    Quick,
}

impl Scale {
    /// Parses `--quick` from argv; defaults to [`Scale::Full`].
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Trace geometry at this scale.
    pub fn geometry(self) -> TraceGeometry {
        match self {
            Scale::Full => TraceGeometry::default(),
            Scale::Quick => TraceGeometry::new(20_000, 10),
        }
    }

    /// Number of random workload mixes per core count (paper: 150).
    pub fn detailed_mixes(self) -> usize {
        match self {
            Scale::Full => 150,
            Scale::Quick => 8,
        }
    }

    /// Number of 16-program mixes (paper: 25).
    pub fn mixes_16core(self) -> usize {
        match self {
            Scale::Full => 25,
            Scale::Quick => 2,
        }
    }

    /// Number of model-evaluated mixes (paper: 5000).
    pub fn model_mixes(self) -> usize {
        match self {
            Scale::Full => 5000,
            Scale::Quick => 60,
        }
    }

    /// Number of "current practice" random sets (paper: 20).
    pub fn practice_sets(self) -> usize {
        match self {
            Scale::Full => 20,
            Scale::Quick => 4,
        }
    }
}

/// Everything a figure needs: the machine(s), geometry, store, profiles
/// and the model.
#[derive(Debug)]
pub struct Context {
    scale: Scale,
    store: Arc<Store>,
    geometry: TraceGeometry,
}

impl Context {
    /// Opens the default store at the given scale.
    pub fn new(scale: Scale) -> Self {
        let store = Store::open_default().expect("store directory is writable");
        Self::with_store(scale, store)
    }

    /// A context backed by an explicit store. Tests use this to run the
    /// same experiment against separate fresh stores, so cached results
    /// from one run cannot mask nondeterminism in another.
    pub fn with_store(scale: Scale, store: Store) -> Self {
        Self::with_shared_store(scale, Arc::new(store))
    }

    /// A context sharing an already-open store. The `mppmd` daemon uses
    /// this to serve every request from one warm store (one profile
    /// memo, one sim cache, one compiled-trace cache) while each request
    /// still gets its own scale-specific context.
    pub fn with_shared_store(scale: Scale, store: Arc<Store>) -> Self {
        Self { scale, store, geometry: scale.geometry() }
    }

    /// The scale this context runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Trace geometry in use.
    pub fn geometry(&self) -> TraceGeometry {
        self.geometry
    }

    /// The persistent store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The baseline machine (Table 1 + LLC config #1).
    pub fn baseline(&self) -> MachineConfig {
        MachineConfig::baseline()
    }

    /// The baseline machine with Table 2's LLC config `idx` (0-based).
    pub fn machine_with_config(&self, idx: usize) -> MachineConfig {
        MachineConfig::baseline().with_llc(llc_configs()[idx])
    }

    /// Profiles of the whole suite on `machine`, in suite order (cached).
    pub fn profiles(&self, machine: &MachineConfig) -> Vec<SingleCoreProfile> {
        self.store.suite_profiles(machine, self.geometry)
    }

    /// [`Context::profiles`] made solve-ready for [`Context::solve`]:
    /// validated and tabulated once, for callers that solve many mixes
    /// over one design point. The caller owns them, so they are freed
    /// with its loop rather than held by the store's memo.
    pub fn solver_profiles(&self, machine: &MachineConfig) -> Vec<SolverProfile> {
        self.profiles(machine)
            .iter()
            .map(|p| SolverProfile::new(p).expect("suite profiles are valid"))
            .collect()
    }

    /// The paper's model: MPPM over FOA with default settings.
    pub fn model(&self) -> Mppm<FoaModel> {
        Mppm::new(MppmConfig::default(), FoaModel)
    }

    /// Predicts one mix against pre-computed suite profiles.
    pub fn predict(&self, mix: &Mix, profiles: &[SingleCoreProfile]) -> Prediction {
        self.predict_observed(mix, profiles, &mppm_obs::Span::disabled())
    }

    /// [`Context::predict`] under an observability span: the solver
    /// emits per-iteration residual events into `span`'s scope.
    pub fn predict_observed(
        &self,
        mix: &Mix,
        profiles: &[SingleCoreProfile],
        span: &mppm_obs::Span,
    ) -> Prediction {
        self.model()
            .predict_observed(&mix.resolve(profiles), span)
            .expect("suite profiles are valid and compatible")
    }

    /// [`Context::predict_observed`] over solve-ready profiles
    /// ([`Context::solver_profiles`]) and a caller-owned solver scratch:
    /// campaign-shard workers and the figures' model loops thread one
    /// [`mppm::SolverScratch`] through every mix they evaluate, keeping
    /// the solver's working vectors warm across calls. Bit-identical to
    /// [`Context::predict`].
    pub fn solve(
        &self,
        mix: &Mix,
        profiles: &[SolverProfile],
        span: &mppm_obs::Span,
        scratch: &mut mppm::SolverScratch,
    ) -> Prediction {
        self.model()
            .solve(&mix.resolve(profiles), span, scratch)
            .expect("suite profiles share one machine")
    }

    /// Simulates one mix on the detailed simulator (cached), returning the
    /// stored record.
    pub fn simulate(
        &self,
        mix: &Mix,
        profiles: &[SingleCoreProfile],
        machine: &MachineConfig,
    ) -> MixRecord {
        let names: Vec<&str> =
            mix.members().iter().map(|&i| suite::spec_suite()[i].name()).collect();
        let cpi_sc: Vec<f64> = mix.members().iter().map(|&i| profiles[i].cpi_sc()).collect();
        self.store.simulate(&names, &cpi_sc, machine, self.geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::Full.detailed_mixes() > Scale::Quick.detailed_mixes());
        assert_eq!(Scale::Full.geometry(), TraceGeometry::default());
        assert_eq!(Scale::Full.detailed_mixes(), 150, "paper's mix count");
        assert_eq!(Scale::Full.model_mixes(), 5000, "paper's MPPM mix count");
        assert_eq!(Scale::Full.mixes_16core(), 25);
        assert_eq!(Scale::Full.practice_sets(), 20);
    }

    #[test]
    fn context_exposes_six_llc_configs() {
        let ctx = Context::new(Scale::Quick);
        for i in 0..6 {
            let m = ctx.machine_with_config(i);
            assert_eq!(m.llc, llc_configs()[i]);
        }
    }
}
