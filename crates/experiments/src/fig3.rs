//! Figure 3 (§4.1): variability of STP and ANTT as a function of the
//! number of random multi-program workload mixes on a four-core machine.
//!
//! The paper's observation: 10 random mixes give ~10% (STP) and ~18%
//! (ANTT) wide 95% confidence intervals; even 20 mixes only reach ~7% and
//! ~13%; 150 mixes are needed for ~2.6% / 4.5%. The paper measured the
//! curve with detailed simulation. For now this figure evaluates every mix
//! with the model instead (`ctx.solve`, leaning on Figure 4's accuracy)
//! and runs no detailed simulation; ROADMAP item 2 moves the curve to the
//! detailed simulator.

use mppm::mix::Mix;
use mppm::stats::{ci95, ConfidenceInterval};
use mppm::SolverScratch;
use mppm_obs::Span;

use crate::fig4::mixes_for;
use crate::table::{f3, pct, Table};
use crate::Scale;
use crate::Context;

/// One point of the variability curve.
#[derive(Debug, Clone, Copy)]
pub struct VariabilityPoint {
    /// Number of workload mixes averaged.
    pub mixes: usize,
    /// STP confidence interval over those mixes.
    pub stp: ConfidenceInterval,
    /// ANTT confidence interval over those mixes.
    pub antt: ConfidenceInterval,
}

/// Result of the variability experiment.
#[derive(Debug)]
pub struct Fig3Output {
    /// Curve points, increasing in mix count.
    pub points: Vec<VariabilityPoint>,
}

/// The largest mix count on the curve (the paper's 150).
const CURVE_MIXES: usize = 150;

/// Runs the variability study on a 4-core config-#1 machine. The curve
/// reads the first [`CURVE_MIXES`] mixes of the model population, so
/// only those are solved.
pub fn run(ctx: &Context) -> Fig3Output {
    let machine = ctx.baseline();
    let profiles = ctx.solver_profiles(&machine);
    let mut scratch = SolverScratch::new();
    let population: Vec<Mix> = mixes_for(4, ctx.scale().model_mixes());
    let values: Vec<(f64, f64)> = population
        .iter()
        .take(CURVE_MIXES)
        .map(|mix| {
            let pred = ctx.solve(mix, &profiles, &Span::disabled(), &mut scratch);
            (pred.stp(), pred.antt())
        })
        .collect();

    let max_k = values.len();
    let mut points = Vec::new();
    let mut k = 2;
    while k <= max_k {
        let stp_k: Vec<f64> = values[..k].iter().map(|v| v.0).collect();
        let antt_k: Vec<f64> = values[..k].iter().map(|v| v.1).collect();
        points.push(VariabilityPoint {
            mixes: k,
            stp: ci95(&stp_k).expect("k >= 2"),
            antt: ci95(&antt_k).expect("k >= 2"),
        });
        k += if k < 10 { 1 } else if k < 50 { 5 } else { 10 };
    }
    Fig3Output { points }
}

/// Renders the curve and writes the CSV.
pub fn report(scale: Scale, out: &Fig3Output) -> Table {
    let mut t = Table::new(&[
        "mixes",
        "STP mean",
        "STP 95% CI",
        "STP CI rel",
        "ANTT mean",
        "ANTT 95% CI",
        "ANTT CI rel",
    ]);
    for p in &out.points {
        t.row(vec![
            p.mixes.to_string(),
            f3(p.stp.mean),
            format!("±{}", f3(p.stp.half_width)),
            pct(p.stp.relative()),
            f3(p.antt.mean),
            format!("±{}", f3(p.antt.half_width)),
            pct(p.antt.relative()),
        ]);
    }
    let _ = t.save_csv(scale, "fig3_variability");
    t
}

impl Fig3Output {
    /// The point closest to `mixes` workload mixes.
    pub fn at(&self, mixes: usize) -> &VariabilityPoint {
        self.points
            .iter()
            .min_by_key(|p| p.mixes.abs_diff(mixes))
            .expect("curve has points")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn confidence_tightens_with_more_mixes() {
        let ctx = Context::new(Scale::Quick);
        let out = run(&ctx);
        assert!(out.points.len() >= 5);
        // Tiny-sample CIs are noisy point to point, but the largest sample
        // must beat the widest small-sample interval.
        let widest_small =
            out.points[..4].iter().map(|p| p.stp.relative()).fold(0.0, f64::max);
        let last = out.points.last().unwrap();
        assert!(last.stp.relative() < widest_small);
        assert!(last.stp.half_width.is_finite() && last.antt.half_width.is_finite());
        let table = report(Scale::Quick, &out);
        assert_eq!(table.len(), out.points.len());
    }

    #[test]
    fn at_finds_nearest_point() {
        let ctx = Context::new(Scale::Quick);
        let out = run(&ctx);
        let p = out.at(10);
        assert!(p.mixes.abs_diff(10) <= 3);
    }
}
