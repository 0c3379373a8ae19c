//! Figure 8 (§5): pairwise design decisions — when current practice and
//! MPPM disagree, who is right?
//!
//! For each comparison of LLC config #1 against configs #2..#6, every
//! "current practice" category set makes a call (which config has the
//! higher average STP), MPPM makes a call from its large mix population,
//! and detailed simulation of the full population provides the truth. The
//! paper finds that for the #1-vs-#6 comparison current practice disagrees
//! with MPPM in ~40% of cases and is wrong whenever they disagree.

use crate::fig7::{Fig7Output, CONFIGS};
use crate::table::{pct, Table};
use crate::Scale;

/// Outcome fractions for one pairwise comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairwiseOutcome {
    /// Baseline config of the comparison (0-based).
    pub base_idx: usize,
    /// Config index compared against the baseline (0-based).
    pub config_idx: usize,
    /// Fraction of practice sets that agree with MPPM, both being right.
    pub agree_right: f64,
    /// Fraction that agree with MPPM, both being wrong.
    pub agree_wrong: f64,
    /// Fraction that disagree with MPPM where MPPM is right.
    pub disagree_mppm_right: f64,
    /// Fraction that disagree with MPPM where the practice set is right.
    pub disagree_practice_right: f64,
}

impl PairwiseOutcome {
    /// Fractions must sum to one.
    pub fn total(&self) -> f64 {
        self.agree_right + self.agree_wrong + self.disagree_mppm_right
            + self.disagree_practice_right
    }
}

/// Computes one pairwise comparison (`base` vs `other`) over the category
/// sets.
pub fn compare(fig7: &Fig7Output, base: usize, other: usize) -> PairwiseOutcome {
    let prefer = |stp: &[f64]| stp[other] > stp[base];
    let truth = prefer(&fig7.reference_stp);
    let mppm = prefer(&fig7.mppm_stp);
    let mut counts = [0usize; 4];
    for set in &fig7.category_sets {
        let practice = prefer(&set.stp);
        let idx = match (practice == mppm, mppm == truth) {
            (true, true) => 0,   // agree, both right
            (true, false) => 1,  // agree, both wrong
            (false, true) => 2,  // disagree, MPPM right
            (false, false) => 3, // disagree, practice right
        };
        counts[idx] += 1;
    }
    let n = fig7.category_sets.len() as f64;
    PairwiseOutcome {
        base_idx: base,
        config_idx: other,
        agree_right: counts[0] as f64 / n,
        agree_wrong: counts[1] as f64 / n,
        disagree_mppm_right: counts[2] as f64 / n,
        disagree_practice_right: counts[3] as f64 / n,
    }
}

/// Computes the pairwise outcomes from a Figure 7 run, using the category
/// sets (the paper's "current practice assuming multi-program
/// categories"): config #1 against #2..#6 as in the paper, plus the three
/// *close* pairs (#1v#2, #3v#4, #5v#6 — same capacity, different
/// associativity/latency) where disagreement actually lives when the
/// #1-vs-X calls are decisive.
pub fn run(fig7: &Fig7Output) -> Vec<PairwiseOutcome> {
    let mut out: Vec<PairwiseOutcome> =
        (1..CONFIGS).map(|c| compare(fig7, 0, c)).collect();
    for (a, b) in [(2, 3), (4, 5)] {
        out.push(compare(fig7, a, b));
    }
    out
}

/// Renders the outcome fractions and writes the CSV.
pub fn report(scale: Scale, outcomes: &[PairwiseOutcome]) -> Table {
    let mut t = Table::new(&[
        "comparison",
        "agree, both right",
        "agree, both wrong",
        "disagree, MPPM right",
        "disagree, practice right",
    ]);
    for o in outcomes {
        t.row(vec![
            format!("#{} vs #{}", o.base_idx + 1, o.config_idx + 1),
            pct(o.agree_right),
            pct(o.agree_wrong),
            pct(o.disagree_mppm_right),
            pct(o.disagree_practice_right),
        ]);
    }
    let _ = t.save_csv(scale, "fig8_pairwise");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig7::SetRanking;

    fn fake_fig7(reference: Vec<f64>, mppm: Vec<f64>, sets_stp: Vec<Vec<f64>>) -> Fig7Output {
        let sets = sets_stp
            .into_iter()
            .map(|stp| SetRanking {
                antt: vec![1.0; stp.len()],
                stp,
                rho_stp: 1.0,
                rho_antt: 1.0,
            })
            .collect();
        Fig7Output {
            reference_antt: vec![1.0; reference.len()],
            reference_stp: reference,
            mppm_antt: vec![1.0; mppm.len()],
            mppm_stp: mppm,
            mppm_rho_stp: 1.0,
            mppm_rho_antt: 1.0,
            random_sets: Vec::new(),
            category_sets: sets,
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let fig7 = fake_fig7(
            vec![3.0, 3.1, 3.2, 3.3, 3.4, 3.5],
            vec![3.0, 3.1, 3.2, 3.3, 3.4, 3.5],
            vec![vec![3.0, 2.9, 3.3, 3.1, 3.5, 3.2], vec![3.0, 3.2, 3.1, 3.4, 3.3, 3.6]],
        );
        for o in run(&fig7) {
            assert!((o.total() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn classification_logic() {
        // Reference prefers #2 over #1; MPPM agrees; set 0 agrees, set 1
        // disagrees (and is therefore wrong).
        let fig7 = fake_fig7(
            vec![3.0, 3.5, 3.0, 3.0, 3.0, 3.0],
            vec![3.0, 3.4, 3.0, 3.0, 3.0, 3.0],
            vec![vec![3.0, 3.6, 0.0, 0.0, 0.0, 0.0], vec![3.0, 2.5, 0.0, 0.0, 0.0, 0.0]],
        );
        let o = &run(&fig7)[0];
        assert_eq!(o.config_idx, 1);
        assert!((o.agree_right - 0.5).abs() < 1e-9);
        assert!((o.disagree_mppm_right - 0.5).abs() < 1e-9);
        assert_eq!(o.agree_wrong, 0.0);
        assert_eq!(o.disagree_practice_right, 0.0);
    }

    #[test]
    fn report_shapes() {
        let fig7 = fake_fig7(
            vec![3.0, 3.1, 3.2, 3.3, 3.4, 3.5],
            vec![3.0, 3.1, 3.2, 3.3, 3.4, 3.5],
            vec![vec![3.0, 3.1, 3.2, 3.3, 3.4, 3.5]],
        );
        let outcomes = run(&fig7);
        assert_eq!(outcomes.len(), 7, "configs #2..#6 plus two close pairs");
        assert_eq!(outcomes[5].base_idx, 2, "close pair #3 vs #4");
        assert_eq!(outcomes[6].base_idx, 4, "close pair #5 vs #6");
        assert_eq!(report(Scale::Quick, &outcomes).len(), 7);
    }
}
