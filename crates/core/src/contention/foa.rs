use mppm_cache::Sdc;

use super::ContentionModel;

/// The Frequency-of-Access contention model (Chandra et al., HPCA 2005) —
/// the model the paper uses.
///
/// FOA assumes each program's effective share of the shared cache is
/// proportional to its access frequency: a program issuing a larger
/// fraction of the LLC accesses brings in more data and therefore occupies
/// a larger fraction of the cache. Program `p`'s effective associativity is
///
/// ```text
/// a_p = A × acc_p / Σ_q acc_q
/// ```
///
/// and its extra conflict misses are the hits of its isolated
/// stack-distance profile that lie deeper than `a_p`
/// (`misses_at(a_p) − misses_at(A)`, with [`Sdc::misses_at`]'s fractional
/// interpolation).
///
/// # Example
///
/// ```
/// use mppm::{ContentionModel, FoaModel};
/// use mppm_cache::Sdc;
///
/// // One program with deep hits, one with three times its access rate.
/// let mut victim = Sdc::new(4);
/// for _ in 0..100 { victim.record(Some(3)); }
/// let mut hog = Sdc::new(4);
/// for _ in 0..300 { hog.record(None); }
///
/// let mut extra = Vec::new();
/// FoaModel.extra_misses(&[victim, hog], 4, &mut extra);
/// // The victim keeps only 1 of 4 ways, so its depth-3 hits become misses.
/// assert!(extra[0] > 99.0);
/// // The hog was missing anyway: no *extra* misses.
/// assert!(extra[1] < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoaModel;

impl ContentionModel for FoaModel {
    fn extra_misses(&self, windows: &[Sdc], assoc: u32, extra: &mut Vec<f64>) {
        let total: f64 = windows.iter().map(Sdc::accesses).sum();
        extra.clear();
        extra.extend(windows.iter().map(|sdc| {
            let acc = sdc.accesses();
            if acc <= 0.0 || total <= 0.0 {
                return 0.0;
            }
            let share = acc / total;
            let a_eff = f64::from(assoc) * share;
            (sdc.misses_at(a_eff) - sdc.misses()).max(0.0)
        }));
    }

    fn name(&self) -> &'static str {
        "FOA"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{extra_of, sdc};
    use super::*;

    #[test]
    fn equal_frequency_splits_cache_evenly() {
        // Two identical programs, hits uniform over 8 depths.
        let w = vec![sdc(&[10.0; 8], 0.0), sdc(&[10.0; 8], 0.0)];
        let extra = extra_of(&FoaModel, &w, 8);
        // Each gets 4 ways: hits at depths 4..8 (40) become misses.
        assert!((extra[0] - 40.0).abs() < 1e-9);
        assert!((extra[1] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn share_is_proportional_to_frequency() {
        // Program 0 does 3x the accesses of program 1.
        let w = vec![sdc(&[30.0; 8], 0.0), sdc(&[10.0; 8], 0.0)];
        let extra = extra_of(&FoaModel, &w, 8);
        // a_0 = 6 ways -> loses depths 6,7: 60 hits -> 60 extra.
        assert!((extra[0] - 60.0).abs() < 1e-9, "got {}", extra[0]);
        // a_1 = 2 ways -> loses depths 2..8: 60 hits.
        assert!((extra[1] - 60.0).abs() < 1e-9, "got {}", extra[1]);
    }

    #[test]
    fn fractional_share_interpolates() {
        // Three equal programs on an 8-way cache: a = 8/3 ≈ 2.667.
        let w = vec![sdc(&[9.0; 8], 0.0); 3];
        let extra = extra_of(&FoaModel, &w, 8);
        // hits_at(2.667) = 2*9 + 0.667*9 = 24; extra = 72 - 24 = 48.
        assert!((extra[0] - 48.0).abs() < 1e-6, "got {}", extra[0]);
    }

    #[test]
    fn streaming_program_gains_nothing_and_loses_nothing() {
        // Pure streamer: all accesses miss already.
        let w = vec![sdc(&[0.0; 8], 1000.0), sdc(&[10.0; 8], 0.0)];
        let extra = extra_of(&FoaModel, &w, 8);
        assert!(extra[0].abs() < 1e-9);
        // The victim keeps 8 × 80/1080 ≈ 0.59 ways.
        assert!(extra[1] > 70.0, "victim loses nearly all hits: {}", extra[1]);
    }

    #[test]
    fn more_corunners_more_pressure() {
        let mk = || sdc(&[10.0; 8], 5.0);
        let two = extra_of(&FoaModel, &[mk(), mk()], 8)[0];
        let four = extra_of(&FoaModel, &[mk(), mk(), mk(), mk()], 8)[0];
        assert!(four > two, "4-way sharing ({four}) hurts more than 2-way ({two})");
    }
}
