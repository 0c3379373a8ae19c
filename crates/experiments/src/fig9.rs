//! Figure 9 (§6): identifying stress workloads.
//!
//! Sorting the 4-program workloads by measured STP, the paper shows MPPM
//! tracks the detailed-simulation curve and finds 23 of the 25 worst-case
//! workloads. This module reuses Figure 4's 4-core population.

use mppm_trace::suite;
use std::collections::BTreeSet;

use crate::fig4::CoreCountResult;
use crate::table::{f3, Table};
use crate::Scale;

/// Output of the stress-workload study.
#[derive(Debug)]
pub struct Fig9Output {
    /// `(mix label, measured STP, predicted STP)` sorted by measured STP
    /// ascending.
    pub sorted: Vec<(String, f64, f64)>,
    /// How many of the measured worst-`k` workloads MPPM also places in
    /// its own worst-`k` (paper: 23 of 25).
    pub worst_overlap: usize,
    /// The `k` used for the overlap (25 at full scale).
    pub worst_k: usize,
}

/// Runs the study over a Figure 4 core-count result (4-core in the paper).
pub fn run(results: &CoreCountResult) -> Fig9Output {
    let labels: Vec<String> = results
        .mixes
        .iter()
        .map(|mix| {
            mix.members()
                .iter()
                .map(|&i| suite::spec_suite()[i].name())
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect();
    let measured: Vec<f64> = results.measured.iter().map(|r| r.stp()).collect();
    let predicted: Vec<f64> = results.predicted.iter().map(|p| p.stp()).collect();

    let mut order: Vec<usize> = (0..measured.len()).collect();
    order.sort_by(|&a, &b| mppm::stats::total_cmp(measured[a], measured[b]));
    let sorted: Vec<(String, f64, f64)> =
        order.iter().map(|&i| (labels[i].clone(), measured[i], predicted[i])).collect();

    let worst_k = 25.min(measured.len());
    let measured_worst: BTreeSet<usize> = order[..worst_k].iter().copied().collect();
    let mut pred_order: Vec<usize> = (0..predicted.len()).collect();
    pred_order.sort_by(|&a, &b| mppm::stats::total_cmp(predicted[a], predicted[b]));
    let predicted_worst: BTreeSet<usize> = pred_order[..worst_k].iter().copied().collect();
    let worst_overlap = measured_worst.intersection(&predicted_worst).count();

    Fig9Output { sorted, worst_overlap, worst_k }
}

/// Renders the sorted curve and writes the CSV.
pub fn report(scale: Scale, out: &Fig9Output) -> Table {
    let mut curve = Table::new(&["rank", "mix", "stp_measured", "stp_predicted"]);
    for (rank, (label, m, p)) in out.sorted.iter().enumerate() {
        curve.row(vec![rank.to_string(), label.clone(), f3(*m), f3(*p)]);
    }
    let _ = curve.save_csv(scale, "fig9_sorted_stp");

    let mut t = Table::new(&["worst-k", "overlap", "paper"]);
    t.row(vec![
        out.worst_k.to_string(),
        format!("{}/{}", out.worst_overlap, out.worst_k),
        "23/25".to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fig4, Context, Scale};

    #[test]
    fn curve_is_sorted_and_overlap_bounded() {
        let ctx = Context::new(Scale::Quick);
        let r = fig4::run_core_count(&ctx, 2, 0, 6);
        let out = run(&r);
        assert_eq!(out.sorted.len(), 6);
        for w in out.sorted.windows(2) {
            assert!(w[0].1 <= w[1].1, "measured STP ascending");
        }
        assert!(out.worst_k <= 25);
        assert!(out.worst_overlap <= out.worst_k);
        let table = report(Scale::Quick, &out);
        assert_eq!(table.len(), 1);
    }
}
