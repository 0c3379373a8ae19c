//! Figure 7 (§5): can a handful of random mixes rank design options?
//!
//! Six LLC configurations (Table 2) are ranked by average STP and ANTT.
//! The reference ranking comes from detailed simulation of the full
//! 150-mix population per configuration. "Current practice" picks 20
//! independent sets of 12 workload mixes — either fully random
//! (Figure 7a) or 4 MEM + 4 COMP + 4 mixed-category mixes (Figure 7b) —
//! and ranks the configurations from each small set; MPPM ranks them from
//! 5,000 mixes. The Spearman rank correlation against the reference
//! quantifies who gets the design space right: the paper finds individual
//! practice sets as low as ρ ≤ 0.5 while MPPM scores 1.0 (STP) and 0.93
//! (ANTT).
//!
//! One deliberate substitution: the practice sets are evaluated with MPPM
//! rather than detailed simulation by default. Figure 4 establishes the
//! model's per-mix error is a fraction of a percent, an order of magnitude
//! below the *selection* variance this figure studies, and it keeps the
//! full reproduction tractable on two host cores. `practice_detailed =
//! true` restores the paper's exact procedure.

use mppm::mix::{sample_from_pool, sample_mixed, sample_random, Mix};
use mppm::stats::spearman;
use mppm::SingleCoreProfile;
use mppm_trace::suite;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fig4::mixes_for;
use crate::table::{f3, Table};
use crate::Scale;
use crate::{parallel_map, Context};

/// Number of LLC configurations ranked.
pub const CONFIGS: usize = 6;
/// Mixes per "current practice" set (paper: 12).
pub const SET_SIZE: usize = 12;

/// How one practice set ranks the configurations.
#[derive(Debug, Clone)]
pub struct SetRanking {
    /// Average STP per configuration over the set's mixes.
    pub stp: Vec<f64>,
    /// Average ANTT per configuration.
    pub antt: Vec<f64>,
    /// Spearman correlation of the STP ranking against the reference.
    pub rho_stp: f64,
    /// Spearman correlation of the ANTT ranking against the reference
    /// (ANTT ranks are negated: lower is better).
    pub rho_antt: f64,
}

/// Options for the design-space study.
#[derive(Debug, Clone, Copy)]
#[derive(Default)]
pub struct Fig7Options {
    /// Evaluate the practice sets with detailed simulation (the paper's
    /// literal procedure) instead of MPPM.
    pub practice_detailed: bool,
}


/// Full output of the design-space study.
#[derive(Debug)]
pub struct Fig7Output {
    /// Reference (detailed simulation, full population): avg STP per
    /// config.
    pub reference_stp: Vec<f64>,
    /// Reference avg ANTT per config.
    pub reference_antt: Vec<f64>,
    /// MPPM over the large mix population: avg STP per config.
    pub mppm_stp: Vec<f64>,
    /// MPPM avg ANTT per config.
    pub mppm_antt: Vec<f64>,
    /// MPPM's rank correlation against the reference (STP).
    pub mppm_rho_stp: f64,
    /// MPPM's rank correlation against the reference (ANTT).
    pub mppm_rho_antt: f64,
    /// Figure 7a: random practice sets.
    pub random_sets: Vec<SetRanking>,
    /// Figure 7b: per-category practice sets.
    pub category_sets: Vec<SetRanking>,
}

impl Fig7Output {
    /// Average practice-set rank correlation (STP) for a variant.
    pub fn average_rho_stp(sets: &[SetRanking]) -> f64 {
        sets.iter().map(|s| s.rho_stp).sum::<f64>() / sets.len() as f64
    }
}

/// Splits the suite into MEM / COMP / MIX terciles by memory fraction of
/// CPI, guaranteeing non-empty pools (unlike fixed thresholds, which would
/// need re-tuning whenever the suite is recalibrated).
pub fn tercile_pools(profiles: &[SingleCoreProfile]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut order: Vec<usize> = (0..profiles.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = profiles[a].cpi_mem() / profiles[a].cpi_sc();
        let fb = profiles[b].cpi_mem() / profiles[b].cpi_sc();
        mppm::stats::total_cmp(fa, fb)
    });
    let n = order.len();
    let comp = order[..n / 3].to_vec();
    let mixed = order[n / 3..2 * n / 3].to_vec();
    let mem = order[2 * n / 3..].to_vec();
    (mem, comp, mixed)
}

/// The 20 random practice sets (Figure 7a), deterministic.
pub fn random_sets(count: usize) -> Vec<Vec<Mix>> {
    let n = suite::spec_suite().len();
    (0..count)
        .map(|set| {
            let mut rng = SmallRng::seed_from_u64(0x7A_0000 + set as u64);
            sample_random(n, 4, SET_SIZE, &mut rng)
        })
        .collect()
}

/// The 20 per-category practice sets (Figure 7b): 4 MEM mixes, 4 COMP
/// mixes, 4 mixed-category mixes each.
pub fn category_sets(count: usize, profiles: &[SingleCoreProfile]) -> Vec<Vec<Mix>> {
    let (mem, comp, _mixed) = tercile_pools(profiles);
    (0..count)
        .map(|set| {
            let mut rng = SmallRng::seed_from_u64(0x7B_0000 + set as u64);
            let mut mixes = sample_from_pool(&mem, 4, 4, &mut rng);
            mixes.extend(sample_from_pool(&comp, 4, 4, &mut rng));
            mixes.extend(sample_mixed(&mem, &comp, 4, 4, &mut rng));
            mixes
        })
        .collect()
}

/// Average STP/ANTT of a set of mixes on one configuration, via MPPM.
fn model_averages(ctx: &Context, mixes: &[Mix], profiles: &[SingleCoreProfile]) -> (f64, f64) {
    let mut stp = 0.0;
    let mut antt = 0.0;
    for mix in mixes {
        let pred = ctx.predict(mix, profiles);
        stp += pred.stp();
        antt += pred.antt();
    }
    (stp / mixes.len() as f64, antt / mixes.len() as f64)
}

/// Average STP/ANTT of a set of mixes on one configuration, via detailed
/// simulation (cached).
fn detailed_averages(
    ctx: &Context,
    mixes: &[Mix],
    profiles: &[SingleCoreProfile],
    config_idx: usize,
) -> (f64, f64) {
    let machine = ctx.machine_with_config(config_idx);
    let label = format!("fig7 config #{} sims", config_idx + 1);
    let records = parallel_map(&label, mixes, |mix| ctx.simulate(mix, profiles, &machine));
    let stp: f64 = records.iter().map(|r| r.stp()).sum();
    let antt: f64 = records.iter().map(|r| r.antt()).sum();
    (stp / mixes.len() as f64, antt / mixes.len() as f64)
}

/// Runs the full design-space study.
pub fn run(ctx: &Context, options: Fig7Options) -> Fig7Output {
    let per_config_profiles: Vec<Vec<SingleCoreProfile>> =
        (0..CONFIGS).map(|c| ctx.profiles(&ctx.machine_with_config(c))).collect();

    // Reference: detailed simulation of the full population per config.
    let population = mixes_for(4, ctx.scale().detailed_mixes());
    let mut reference_stp = Vec::new();
    let mut reference_antt = Vec::new();
    for (c, profiles) in per_config_profiles.iter().enumerate() {
        let (stp, antt) = detailed_averages(ctx, &population, profiles, c);
        reference_stp.push(stp);
        reference_antt.push(antt);
    }

    // MPPM over the large population per config.
    let model_population = mixes_for(4, ctx.scale().model_mixes());
    let mut mppm_stp = Vec::new();
    let mut mppm_antt = Vec::new();
    for profiles in per_config_profiles.iter() {
        let (stp, antt) = model_averages(ctx, &model_population, profiles);
        mppm_stp.push(stp);
        mppm_antt.push(antt);
    }
    let mppm_rho_stp = spearman(&mppm_stp, &reference_stp).unwrap_or(0.0);
    let mppm_rho_antt = spearman(&mppm_antt, &reference_antt).unwrap_or(0.0);

    // Current practice, both variants.
    let sets_count = ctx.scale().practice_sets();
    let eval_set = |mixes: &Vec<Mix>| -> SetRanking {
        let mut stp = Vec::new();
        let mut antt = Vec::new();
        for (c, profiles) in per_config_profiles.iter().enumerate() {
            let (s, a) = if options.practice_detailed {
                detailed_averages(ctx, mixes, profiles, c)
            } else {
                model_averages(ctx, mixes, profiles)
            };
            stp.push(s);
            antt.push(a);
        }
        let rho_stp = spearman(&stp, &reference_stp).unwrap_or(0.0);
        let rho_antt = spearman(&antt, &reference_antt).unwrap_or(0.0);
        SetRanking { stp, antt, rho_stp, rho_antt }
    };
    let random_sets: Vec<SetRanking> =
        random_sets(sets_count).iter().map(&eval_set).collect();
    let category_sets: Vec<SetRanking> =
        category_sets(sets_count, &per_config_profiles[0]).iter().map(&eval_set).collect();

    Fig7Output {
        reference_stp,
        reference_antt,
        mppm_stp,
        mppm_antt,
        mppm_rho_stp,
        mppm_rho_antt,
        random_sets,
        category_sets,
    }
}

/// Renders the rank-correlation bars and writes the CSVs.
pub fn report(scale: Scale, out: &Fig7Output) -> Table {
    for (name, sets) in [("fig7a_random", &out.random_sets), ("fig7b_category", &out.category_sets)]
    {
        let mut t = Table::new(&["set", "rho_stp", "rho_antt"]);
        for (i, s) in sets.iter().enumerate() {
            t.row(vec![(i + 1).to_string(), f3(s.rho_stp), f3(s.rho_antt)]);
        }
        t.row(vec![
            "avg".into(),
            f3(Fig7Output::average_rho_stp(sets)),
            f3(sets.iter().map(|s| s.rho_antt).sum::<f64>() / sets.len() as f64),
        ]);
        t.row(vec!["MPPM".into(), f3(out.mppm_rho_stp), f3(out.mppm_rho_antt)]);
        let _ = t.save_csv(scale, name);
    }

    let mut t = Table::new(&["config", "ref STP", "ref ANTT", "MPPM STP", "MPPM ANTT"]);
    for c in 0..CONFIGS {
        t.row(vec![
            format!("#{}", c + 1),
            f3(out.reference_stp[c]),
            f3(out.reference_antt[c]),
            f3(out.mppm_stp[c]),
            f3(out.mppm_antt[c]),
        ]);
    }
    let _ = t.save_csv(scale, "fig7_config_averages");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Scale};

    #[test]
    fn pools_are_disjoint_and_cover() {
        let ctx = Context::new(Scale::Quick);
        let profiles = ctx.profiles(&ctx.baseline());
        let (mem, comp, mixed) = tercile_pools(&profiles);
        assert!(!mem.is_empty() && !comp.is_empty() && !mixed.is_empty());
        assert_eq!(mem.len() + comp.len() + mixed.len(), profiles.len());
        let mem_frac = |i: usize| profiles[i].cpi_mem() / profiles[i].cpi_sc();
        let max_comp = comp.iter().map(|&i| mem_frac(i)).fold(0.0, f64::max);
        let min_mem = mem.iter().map(|&i| mem_frac(i)).fold(f64::INFINITY, f64::min);
        assert!(max_comp <= min_mem, "terciles are ordered");
    }

    #[test]
    fn sets_are_deterministic_and_shaped() {
        let a = random_sets(3);
        let b = random_sets(3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for set in &a {
            assert_eq!(set.len(), SET_SIZE);
            for mix in set {
                assert_eq!(mix.len(), 4);
            }
        }
    }

    #[test]
    fn category_sets_use_pools() {
        let ctx = Context::new(Scale::Quick);
        let profiles = ctx.profiles(&ctx.baseline());
        let (mem, comp, _) = tercile_pools(&profiles);
        let sets = category_sets(2, &profiles);
        for set in &sets {
            assert_eq!(set.len(), SET_SIZE);
            // First 4 mixes are pure MEM, next 4 pure COMP.
            for mix in &set[..4] {
                assert!(mix.members().iter().all(|i| mem.contains(i)));
            }
            for mix in &set[4..8] {
                assert!(mix.members().iter().all(|i| comp.contains(i)));
            }
        }
    }
}
