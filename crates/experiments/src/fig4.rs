//! Figure 4 (+ §4.2): MPPM accuracy for STP and ANTT versus detailed
//! simulation, on 2-, 4- and 8-core machines with LLC config #1 and a
//! 16-core machine with config #4.
//!
//! The paper reports average STP errors of 1.4% / 1.6% / 1.7% for 2 / 4 /
//! 8 cores (ANTT: 1.5% / 1.9% / 2.1%) over 150 random mixes each, and
//! 2.3% / 2.9% for 25 mixes on 16 cores.

use mppm::mix::{sample_random, Mix};
use mppm::{Prediction, SolverScratch};
use mppm_obs::Span;
use mppm_trace::suite;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::store::MixRecord;
use crate::table::{f3, pct, Table};
use crate::Scale;
use crate::{parallel_map, Context};

/// Results for one core count.
#[derive(Debug)]
pub struct CoreCountResult {
    /// Number of cores (= programs per mix).
    pub cores: usize,
    /// Table 2 LLC config index (0-based) used.
    pub config_idx: usize,
    /// The evaluated mixes.
    pub mixes: Vec<Mix>,
    /// Detailed-simulation measurements, parallel to `mixes`.
    pub measured: Vec<MixRecord>,
    /// Model predictions, parallel to `mixes`.
    pub predicted: Vec<Prediction>,
}

impl CoreCountResult {
    /// Average absolute relative STP error.
    pub fn stp_error(&self) -> f64 {
        avg_abs_rel(
            &self.measured.iter().map(MixRecord::stp).collect::<Vec<_>>(),
            &self.predicted.iter().map(Prediction::stp).collect::<Vec<_>>(),
        )
    }

    /// Average absolute relative ANTT error.
    pub fn antt_error(&self) -> f64 {
        avg_abs_rel(
            &self.measured.iter().map(MixRecord::antt).collect::<Vec<_>>(),
            &self.predicted.iter().map(Prediction::antt).collect::<Vec<_>>(),
        )
    }

    /// Average absolute relative per-program slowdown error (Figure 5's
    /// headline number; the paper reports ~7% for 2/4/8 cores and 4.5% on
    /// 16 cores).
    pub fn slowdown_error(&self) -> f64 {
        let mut measured = Vec::new();
        let mut predicted = Vec::new();
        for (rec, pred) in self.measured.iter().zip(&self.predicted) {
            measured.extend(rec.slowdowns());
            predicted.extend(pred.slowdowns().iter().copied());
        }
        avg_abs_rel(&measured, &predicted)
    }
}

fn avg_abs_rel(measured: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(measured.len(), predicted.len());
    assert!(!measured.is_empty());
    let total: f64 =
        measured.iter().zip(predicted).map(|(&m, &p)| ((p - m) / m).abs()).sum();
    total / measured.len() as f64
}

/// Deterministic mix population for one core count (shared with the other
/// figures so simulation results are reused).
pub fn mixes_for(cores: usize, count: usize) -> Vec<Mix> {
    let mut rng = SmallRng::seed_from_u64(0x2011_0000 + cores as u64);
    sample_random(suite::spec_suite().len(), cores, count, &mut rng)
}

/// Runs the experiment for one core count on one LLC config.
pub fn run_core_count(
    ctx: &Context,
    cores: usize,
    config_idx: usize,
    count: usize,
) -> CoreCountResult {
    let machine = ctx.machine_with_config(config_idx);
    let profiles = ctx.profiles(&machine);
    let mixes = mixes_for(cores, count);
    let label = format!("fig4 {cores}-core sims");
    let measured =
        parallel_map(&label, &mixes, |mix| ctx.simulate(mix, &profiles, &machine));
    let ready = ctx.solver_profiles(&machine);
    let mut scratch = SolverScratch::new();
    let predicted: Vec<Prediction> = mixes
        .iter()
        .map(|mix| ctx.solve(mix, &ready, &Span::disabled(), &mut scratch))
        .collect();
    CoreCountResult { cores, config_idx, mixes, measured, predicted }
}

/// Full Figure 4: 2/4/8 cores on config #1 plus 16 cores on config #4.
pub fn run(ctx: &Context) -> Vec<CoreCountResult> {
    let mut out = Vec::new();
    for cores in [2, 4, 8] {
        out.push(run_core_count(ctx, cores, 0, ctx.scale().detailed_mixes()));
    }
    out.push(run_core_count(ctx, 16, 3, ctx.scale().mixes_16core()));
    out
}

/// Renders the summary table and writes the scatter CSVs.
pub fn report(scale: Scale, results: &[CoreCountResult]) -> Table {
    let mut summary = Table::new(&[
        "cores",
        "LLC config",
        "mixes",
        "STP err",
        "ANTT err",
        "slowdown err",
        "paper STP err",
        "paper ANTT err",
    ]);
    let paper = [(2, "1.4%", "1.5%"), (4, "1.6%", "1.9%"), (8, "1.7%", "2.1%"), (16, "2.3%", "2.9%")];
    for r in results {
        let (paper_stp, paper_antt) = paper
            .iter()
            .find(|(c, _, _)| *c == r.cores)
            .map(|(_, s, a)| (*s, *a))
            .unwrap_or(("-", "-"));
        summary.row(vec![
            r.cores.to_string(),
            format!("#{}", r.config_idx + 1),
            r.mixes.len().to_string(),
            pct(r.stp_error()),
            pct(r.antt_error()),
            pct(r.slowdown_error()),
            paper_stp.to_string(),
            paper_antt.to_string(),
        ]);

        let mut scatter = Table::new(&["mix", "stp_measured", "stp_predicted", "antt_measured", "antt_predicted"]);
        for ((mix, rec), pred) in r.mixes.iter().zip(&r.measured).zip(&r.predicted) {
            let names: Vec<&str> =
                mix.members().iter().map(|&i| suite::spec_suite()[i].name()).collect();
            scatter.row(vec![
                names.join("+"),
                f3(rec.stp()),
                f3(pred.stp()),
                f3(rec.antt()),
                f3(pred.antt()),
            ]);
        }
        let _ = scatter.save_csv(scale, &format!("fig4_scatter_{}core", r.cores));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn mix_population_is_deterministic() {
        assert_eq!(mixes_for(4, 10), mixes_for(4, 10));
        assert_ne!(mixes_for(4, 10), mixes_for(2, 10).iter().map(|m| {
            Mix::new([m.members(), m.members()].concat())
        }).collect::<Vec<_>>());
    }

    #[test]
    fn avg_abs_rel_basics() {
        assert_eq!(avg_abs_rel(&[2.0], &[2.0]), 0.0);
        assert!((avg_abs_rel(&[2.0, 4.0], &[2.2, 3.6]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn quick_run_produces_consistent_shapes() {
        let ctx = Context::new(Scale::Quick);
        let r = run_core_count(&ctx, 2, 0, 3);
        assert_eq!(r.mixes.len(), 3);
        assert_eq!(r.measured.len(), 3);
        assert_eq!(r.predicted.len(), 3);
        for (rec, pred) in r.measured.iter().zip(&r.predicted) {
            assert_eq!(rec.cpi_mc.len(), 2);
            assert_eq!(pred.slowdowns().len(), 2);
        }
        // Errors are finite fractions.
        assert!(r.stp_error().is_finite());
        assert!(r.antt_error().is_finite());
        let table = report(Scale::Quick, &[r]);
        assert_eq!(table.len(), 1);
    }
}
