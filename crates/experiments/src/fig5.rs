//! Figure 5: measured versus predicted per-program slowdown.
//!
//! Reuses Figure 4's runs (the store caches the detailed simulations) and
//! flattens them to one point per program instance. The paper reports an
//! average slowdown error of ~7% over the 150 mixes at 2/4/8 cores and
//! 4.5% on the 16-core machine.

use mppm_trace::suite;

use crate::fig4::CoreCountResult;
use crate::table::{f3, pct, Table};
use crate::Scale;

/// One scatter point: a program inside a mix.
#[derive(Debug, Clone)]
pub struct SlowdownPoint {
    /// Benchmark name.
    pub name: String,
    /// Core count of the mix it ran in.
    pub cores: usize,
    /// Measured slowdown (detailed simulation).
    pub measured: f64,
    /// Predicted slowdown (MPPM).
    pub predicted: f64,
}

/// Flattens core-count results into slowdown points.
pub fn points(results: &[CoreCountResult]) -> Vec<SlowdownPoint> {
    let mut out = Vec::new();
    for r in results {
        for ((mix, rec), pred) in r.mixes.iter().zip(&r.measured).zip(&r.predicted) {
            let meas = rec.slowdowns();
            for ((&bench, &m), &p) in
                mix.members().iter().zip(&meas).zip(pred.slowdowns())
            {
                out.push(SlowdownPoint {
                    name: suite::spec_suite()[bench].name().to_string(),
                    cores: r.cores,
                    measured: m,
                    predicted: p,
                });
            }
        }
    }
    out
}

/// Average absolute relative slowdown error over a set of points.
pub fn average_error(points: &[SlowdownPoint]) -> f64 {
    assert!(!points.is_empty(), "need at least one point");
    points.iter().map(|p| ((p.predicted - p.measured) / p.measured).abs()).sum::<f64>()
        / points.len() as f64
}

/// Renders the per-core-count summary and writes the scatter CSV.
pub fn report(scale: Scale, results: &[CoreCountResult]) -> Table {
    let pts = points(results);
    let mut scatter = Table::new(&["benchmark", "cores", "measured", "predicted"]);
    for p in &pts {
        scatter.row(vec![
            p.name.clone(),
            p.cores.to_string(),
            f3(p.measured),
            f3(p.predicted),
        ]);
    }
    let _ = scatter.save_csv(scale, "fig5_slowdown_scatter");

    let mut t = Table::new(&["cores", "points", "avg slowdown err", "paper"]);
    for r in results {
        let sub: Vec<SlowdownPoint> =
            pts.iter().filter(|p| p.cores == r.cores).cloned().collect();
        let paper = if r.cores == 16 { "4.5%" } else { "~7%" };
        t.row(vec![
            r.cores.to_string(),
            sub.len().to_string(),
            pct(average_error(&sub)),
            paper.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fig4, Context, Scale};

    #[test]
    fn points_flatten_all_programs() {
        let ctx = Context::new(Scale::Quick);
        let r = fig4::run_core_count(&ctx, 2, 0, 3);
        let pts = points(&[r]);
        assert_eq!(pts.len(), 6, "3 mixes x 2 programs");
        for p in &pts {
            assert!(p.measured >= 1.0 - 1e-6, "slowdowns are >= 1: {}", p.measured);
            assert!(p.predicted >= 1.0 - 1e-6);
        }
    }

    #[test]
    fn error_is_zero_for_perfect_prediction() {
        let pts = vec![SlowdownPoint {
            name: "x".into(),
            cores: 2,
            measured: 1.5,
            predicted: 1.5,
        }];
        assert_eq!(average_error(&pts), 0.0);
    }
}
