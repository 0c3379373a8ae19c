//! Shared-cache contention models.
//!
//! Given each co-running program's stack-distance counters over a common
//! time window, a contention model estimates how many *additional* misses
//! each program suffers because the LLC is shared. The paper uses the
//! Frequency-of-Access model of Chandra et al. (HPCA 2005) — [`FoaModel`]
//! here — and notes that MPPM is parametric in this choice; we also provide
//! the stack-distance-competition model from the same paper
//! ([`SdcCompetitionModel`]) and a simplified inductive-probability model
//! ([`ProbModel`]) for ablation studies.

use mppm_cache::Sdc;

mod foa;
mod partition;
mod prob;
mod sdc_comp;

pub use foa::FoaModel;
pub use partition::PartitionModel;
pub use prob::ProbModel;
pub use sdc_comp::SdcCompetitionModel;

/// Estimates per-program extra conflict misses under LLC sharing.
///
/// Implementations receive one [`Sdc`] per co-running program, all measured
/// over the *same* window of `C` cycles (so raw counts are directly
/// comparable), plus the shared cache's associativity. They report, for
/// each program, the estimated number of additional misses relative to
/// running alone — always `≥ 0`, and exactly `0` when the program runs
/// alone.
pub trait ContentionModel {
    /// Extra conflict misses per program, written into `extra`.
    ///
    /// `windows[p]` are program `p`'s stack-distance counters over the
    /// shared window; `assoc` is the shared cache's associativity.
    /// `extra` is cleared and refilled parallel to `windows`; the solver
    /// keeps it across steps, so a model that works in `extra` alone
    /// allocates nothing once it is warm.
    fn extra_misses(&self, windows: &[Sdc], assoc: u32, extra: &mut Vec<f64>);

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod test_support {
    use mppm_cache::Sdc;

    /// Builds an SDC with the given hit counts per depth and miss count.
    pub fn sdc(hits: &[f64], misses: f64) -> Sdc {
        let assoc = hits.len() as u32;
        let mut out = Sdc::new(assoc);
        for (d, &n) in hits.iter().enumerate() {
            let mut unit = Sdc::new(assoc);
            unit.record(Some(d as u32));
            out.add_scaled(&unit, n);
        }
        let mut m = Sdc::new(assoc);
        m.record(None);
        out.add_scaled(&m, misses);
        out
    }

    /// [`super::ContentionModel::extra_misses`] into a fresh vector.
    pub fn extra_of<M: super::ContentionModel + ?Sized>(
        model: &M,
        windows: &[Sdc],
        assoc: u32,
    ) -> Vec<f64> {
        let mut out = vec![f64::NAN; 3];
        model.extra_misses(windows, assoc, &mut out);
        out
    }

    /// Shared sanity checks every contention model must satisfy.
    pub fn check_model_axioms<M: super::ContentionModel>(model: &M) {
        // Alone: no extra misses.
        let alone = vec![sdc(&[10.0; 8], 5.0)];
        let extra = extra_of(model, &alone, 8);
        assert_eq!(extra.len(), 1);
        assert!(extra[0].abs() < 1e-9, "{}: extra misses when alone", model.name());

        // Symmetric co-runners: symmetric extra misses.
        let pair = vec![sdc(&[10.0; 8], 5.0), sdc(&[10.0; 8], 5.0)];
        let extra = extra_of(model, &pair, 8);
        assert!((extra[0] - extra[1]).abs() < 1e-9, "{}: asymmetric", model.name());
        assert!(extra[0] >= 0.0);

        // A program with no LLC accesses suffers nothing.
        let mixed = vec![sdc(&[10.0; 8], 5.0), sdc(&[0.0; 8], 0.0)];
        let extra = extra_of(model, &mixed, 8);
        assert!(extra[1].abs() < 1e-9, "{}: misses without accesses", model.name());

        // Extra misses are bounded by the program's own hit count (only
        // hits can convert to misses).
        let heavy = vec![sdc(&[100.0; 8], 50.0), sdc(&[1000.0; 8], 500.0)];
        let extra = extra_of(model, &heavy, 8);
        for (i, &e) in extra.iter().enumerate() {
            assert!(e >= -1e-9, "{}: negative extra", model.name());
            assert!(
                e <= heavy[i].hits() + 1e-6,
                "{}: extra {} exceeds hits {}",
                model.name(),
                e,
                heavy[i].hits()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::check_model_axioms;
    use super::*;

    #[test]
    fn all_models_satisfy_axioms() {
        check_model_axioms(&FoaModel);
        check_model_axioms(&SdcCompetitionModel);
        check_model_axioms(&ProbModel);
    }

    #[test]
    fn trait_objects_work() {
        let models: Vec<Box<dyn ContentionModel>> =
            vec![Box::new(FoaModel), Box::new(SdcCompetitionModel), Box::new(ProbModel)];
        let windows = vec![test_support::sdc(&[5.0; 4], 2.0), test_support::sdc(&[50.0; 4], 20.0)];
        for m in &models {
            let extra = test_support::extra_of(m.as_ref(), &windows, 4);
            assert_eq!(extra.len(), 2, "{}", m.name());
        }
    }
}
