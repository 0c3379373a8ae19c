use mppm_cache::Sdc;

use super::ContentionModel;

/// A simplified inductive-probability contention model, inspired by the
/// Prob model of Chandra et al. (HPCA 2005); provided for ablations.
///
/// The idea: under sharing, the reuse of a block at isolated stack depth
/// `d` additionally ages past the *distinct* blocks co-runners insert into
/// the set during the reuse window. Approximating co-runner insertions as
/// proportional to elapsed accesses, program `p`'s effective depth scales
/// to `d × (1 + r_p)` where
///
/// ```text
/// r_p = Σ_{q≠p} distinct_q / acc_p
/// ```
///
/// and `distinct_q` counts `q`'s cold/capacity insertions plus non-MRU
/// re-references (accesses that move blocks upward and push others down).
/// Equivalently, `p`'s effective associativity is `A / (1 + r_p)`; extra
/// misses follow from the isolated stack-distance profile.
///
/// Unlike FOA this model distinguishes co-runners by how much *new* data
/// they push through the cache rather than by raw access frequency: a
/// co-runner hammering one hot block (`C_1` hits only) displaces almost
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbModel;

impl ProbModel {
    /// Accesses of `sdc` that insert or reorder blocks: everything except
    /// MRU (depth-0) re-hits.
    fn distinct_rate(sdc: &Sdc) -> f64 {
        sdc.accesses() - sdc.counters()[0]
    }
}

impl ContentionModel for ProbModel {
    fn extra_misses(&self, windows: &[Sdc], assoc: u32, extra: &mut Vec<f64>) {
        extra.clear();
        if windows.len() <= 1 {
            extra.resize(windows.len(), 0.0);
            return;
        }
        // Each program's distinct rate, replaced in place by its extra
        // misses once the total is known.
        extra.extend(windows.iter().map(Self::distinct_rate));
        let total_distinct: f64 = extra.iter().sum();
        for (e, sdc) in extra.iter_mut().zip(windows) {
            let acc = sdc.accesses();
            *e = if acc <= 0.0 {
                0.0
            } else {
                let others = total_distinct - *e;
                let r = others / acc;
                let a_eff = f64::from(assoc) / (1.0 + r);
                (sdc.misses_at(a_eff) - sdc.misses()).max(0.0)
            };
        }
    }

    fn name(&self) -> &'static str {
        "Prob"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{extra_of, sdc};
    use super::*;

    #[test]
    fn hot_block_corunner_is_harmless() {
        // Co-runner only re-hits its MRU block: distinct rate 0 after the
        // first touch -> no interference.
        let mut hot = sdc(&[0.0; 8], 0.0);
        let mut unit = Sdc::new(8);
        unit.record(Some(0));
        hot.add_scaled(&unit, 1000.0);
        let victim = sdc(&[10.0; 8], 0.0);
        let extra = extra_of(&ProbModel, &[victim, hot], 8);
        assert!(extra[0].abs() < 1e-9, "MRU-hammering co-runner displaces nothing");
    }

    #[test]
    fn streamer_hurts_in_proportion_to_volume() {
        let victim = sdc(&[100.0; 8], 0.0);
        let small = extra_of(&ProbModel, &[victim.clone(), sdc(&[0.0; 8], 400.0)], 8)[0];
        let large = extra_of(&ProbModel, &[victim, sdc(&[0.0; 8], 4000.0)], 8)[0];
        assert!(large > small, "more streaming traffic, more damage: {small} vs {large}");
    }

    #[test]
    fn effective_assoc_halves_with_equal_distinct_traffic() {
        // victim: 800 accesses uniform over depths; co-runner inserts 800
        // distinct blocks -> r = 1 -> a_eff = 4 -> half the hits lost.
        let victim = sdc(&[100.0; 8], 0.0);
        let extra = extra_of(&ProbModel, &[victim, sdc(&[0.0; 8], 800.0)], 8)[0];
        assert!((extra - 400.0).abs() < 1e-6, "got {extra}");
    }

    #[test]
    fn differs_from_foa_for_mru_heavy_corunners() {
        use super::super::FoaModel;
        let mut hot = Sdc::new(8);
        for _ in 0..1000 {
            hot.record(Some(0));
        }
        let victim = sdc(&[10.0; 8], 0.0);
        let windows = vec![victim, hot];
        let foa = extra_of(&FoaModel, &windows, 8)[0];
        let prob = extra_of(&ProbModel, &windows, 8)[0];
        // FOA punishes the victim for the co-runner's frequency; Prob does
        // not because the co-runner brings in no new blocks.
        assert!(foa > prob);
    }
}
