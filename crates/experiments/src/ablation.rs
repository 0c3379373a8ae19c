//! Accuracy ablations for the design choices in DESIGN.md §7, measured
//! against cached detailed simulations: contention model, EMA smoothing
//! factor, step size `L`, slowdown-update rule, and the derived
//! reduced-associativity profiles.

use mppm::mix::Mix;
use mppm::{
    ContentionModel, FoaModel, Mppm, MppmConfig, Prediction, ProbModel, SdcCompetitionModel,
    SingleCoreProfile, SlowdownUpdate,
};
use mppm_trace::suite;

use crate::fig4::mixes_for;
use crate::store::MixRecord;
use crate::table::{f3, pct, Table};
use crate::Scale;
use crate::{parallel_map, Context};

/// Average absolute relative errors of one model variant.
#[derive(Debug, Clone)]
pub struct VariantErrors {
    /// Human-readable variant label.
    pub label: String,
    /// Avg |relative error| on STP.
    pub stp: f64,
    /// Avg |relative error| on ANTT.
    pub antt: f64,
    /// Avg |relative error| on per-program slowdown.
    pub slowdown: f64,
}

fn errors_for(
    label: String,
    mixes: &[Mix],
    measured: &[MixRecord],
    predictions: &[Prediction],
) -> VariantErrors {
    let mut stp = 0.0;
    let mut antt = 0.0;
    let mut slow = 0.0;
    let mut slow_n = 0usize;
    for ((rec, pred), _mix) in measured.iter().zip(predictions).zip(mixes) {
        stp += ((pred.stp() - rec.stp()) / rec.stp()).abs();
        antt += ((pred.antt() - rec.antt()) / rec.antt()).abs();
        for (m, p) in rec.slowdowns().iter().zip(pred.slowdowns()) {
            slow += ((p - m) / m).abs();
            slow_n += 1;
        }
    }
    let n = measured.len() as f64;
    VariantErrors { label, stp: stp / n, antt: antt / n, slowdown: slow / slow_n as f64 }
}

fn predict_all<M: ContentionModel>(
    mixes: &[Mix],
    profiles: &[SingleCoreProfile],
    config: MppmConfig,
    contention: M,
) -> Vec<Prediction> {
    let model = Mppm::new(config, contention);
    mixes
        .iter()
        .map(|mix| {
            let refs: Vec<&SingleCoreProfile> = mix.resolve(profiles);
            model.predict(&refs).expect("suite profiles are valid")
        })
        .collect()
}

/// Runs all model-variant ablations against detailed simulation on a
/// shared mix population (4-core, config #1; the fig4 cache is reused
/// when present).
pub fn run_model_ablations(ctx: &Context, mix_count: usize) -> Vec<VariantErrors> {
    let machine = ctx.baseline();
    let profiles = ctx.profiles(&machine);
    let mixes = mixes_for(4, mix_count.min(ctx.scale().detailed_mixes()));
    let measured =
        parallel_map("ablation sims", &mixes, |mix| ctx.simulate(mix, &profiles, &machine));

    let mut out = Vec::new();
    let base = MppmConfig::default();

    // Contention models.
    for (label, preds) in [
        ("contention: FOA (paper)", predict_all(&mixes, &profiles, base.clone(), FoaModel)),
        (
            "contention: SDC-competition",
            predict_all(&mixes, &profiles, base.clone(), SdcCompetitionModel),
        ),
        ("contention: Prob", predict_all(&mixes, &profiles, base.clone(), ProbModel)),
    ] {
        out.push(errors_for(label.into(), &mixes, &measured, &preds));
    }

    // EMA factor.
    for ema in [0.0, 0.25, 0.5, 0.75, 0.9] {
        let preds = predict_all(
            &mixes,
            &profiles,
            MppmConfig { ema, ..base.clone() },
            FoaModel,
        );
        out.push(errors_for(format!("ema f = {ema}"), &mixes, &measured, &preds));
    }

    // Step size L (in profiling intervals).
    let interval = profiles[0].interval_insns();
    for intervals in [1u64, 5, 10, 25] {
        let preds = predict_all(
            &mixes,
            &profiles,
            MppmConfig { step_insns: Some(intervals * interval), ..base.clone() },
            FoaModel,
        );
        out.push(errors_for(
            format!("step L = {intervals} intervals"),
            &mixes,
            &measured,
            &preds,
        ));
    }

    // Slowdown update rule.
    for (label, update) in [
        ("update: isolated cycles (default)", SlowdownUpdate::IsolatedCycles),
        ("update: window cycles (literal Fig. 2)", SlowdownUpdate::WindowCycles),
    ] {
        let preds = predict_all(
            &mixes,
            &profiles,
            MppmConfig { update, ..base.clone() },
            FoaModel,
        );
        out.push(errors_for(label.into(), &mixes, &measured, &preds));
    }
    out
}

/// The paper-§2 derived-profile study: profile each benchmark on config
/// #2 (512KB, 16-way), derive the 8-way capacity-preserving SDCs, and
/// compare the implied miss counts with profiles measured directly on
/// config #1 (512KB, 8-way). Returns `(benchmark, measured mpki, derived
/// mpki)` rows.
pub fn run_derivation_study(ctx: &Context) -> Vec<(String, f64, f64)> {
    let measured_8w = ctx.profiles(&ctx.machine_with_config(0));
    let profiled_16w = ctx.profiles(&ctx.machine_with_config(1));
    measured_8w
        .iter()
        .zip(&profiled_16w)
        .map(|(p8, p16)| {
            let derived_misses: f64 = p16
                .intervals
                .iter()
                .map(|iv| iv.sdc.derive_capacity_preserving(8).misses())
                .sum();
            let derived_mpki = derived_misses * 1000.0 / p16.trace_insns() as f64;
            (p8.name.clone(), p8.mpki(), derived_mpki)
        })
        .collect()
}

/// The §8 bandwidth-sharing extension study: a streaming mix on a machine
/// with a finite shared memory channel, comparing measured slowdowns with
/// the model with and without its bandwidth term. Returns one row per
/// program: `(name, measured, with term, without term)`.
pub fn run_bandwidth_study(ctx: &Context, accesses_per_cycle: f64) -> Vec<(String, f64, f64, f64)> {
    let machine = ctx.baseline().with_mem_bandwidth(accesses_per_cycle);
    let names = ["lbm", "libquantum", "leslie3d", "GemsFDTD"];
    let specs: Vec<_> =
        names.iter().map(|n| suite::benchmark(n).expect("in suite")).collect();
    let profiles: Vec<SingleCoreProfile> = specs
        .iter()
        .map(|s| ctx.store().profile(s, &machine, ctx.geometry()))
        .collect();
    let cpi_sc: Vec<f64> = profiles.iter().map(SingleCoreProfile::cpi_sc).collect();
    let record = ctx.store().simulate(&names, &cpi_sc, &machine, ctx.geometry());

    let refs: Vec<&SingleCoreProfile> = profiles.iter().collect();
    let with = Mppm::new(
        MppmConfig { bandwidth: Some(accesses_per_cycle), ..Default::default() },
        FoaModel,
    )
    .predict(&refs)
    .expect("valid profiles");
    let without =
        Mppm::new(MppmConfig::default(), FoaModel).predict(&refs).expect("valid profiles");

    // The record is in canonical (sorted) order; names here are sorted
    // already except GemsFDTD sorts first — resolve by name.
    names
        .iter()
        .map(|&name| {
            let slot = record.names.iter().position(|n| n == name).expect("in record");
            let pred_slot = with.names().iter().position(|n| n == name).expect("in pred");
            (
                name.to_string(),
                record.cpi_mc[slot] / record.cpi_sc[slot],
                with.slowdowns()[pred_slot],
                without.slowdowns()[pred_slot],
            )
        })
        .collect()
}

/// Renders the bandwidth study.
pub fn report_bandwidth(scale: Scale, rows: &[(String, f64, f64, f64)]) -> Table {
    let mut t = Table::new(&["program", "measured slowdown", "model w/ bandwidth", "model w/o"]);
    for (name, m, w, wo) in rows {
        t.row(vec![name.clone(), f3(*m), f3(*w), f3(*wo)]);
    }
    let _ = t.save_csv(scale, "ablation_bandwidth");
    t
}

/// Renders both ablation tables and writes the CSVs.
pub fn report(
    scale: Scale,
    variants: &[VariantErrors],
    derivation: &[(String, f64, f64)],
) -> (Table, Table) {
    let mut t = Table::new(&["variant", "STP err", "ANTT err", "slowdown err"]);
    for v in variants {
        t.row(vec![v.label.clone(), pct(v.stp), pct(v.antt), pct(v.slowdown)]);
    }
    let _ = t.save_csv(scale, "ablation_model_variants");

    let mut d = Table::new(&["benchmark", "measured 8-way mpki", "derived-from-16-way mpki"]);
    for (name, measured, derived) in derivation {
        d.row(vec![name.clone(), f3(*measured), f3(*derived)]);
    }
    let _ = d.save_csv(scale, "ablation_derived_assoc");
    (t, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn ablations_rank_sanely_at_quick_scale() {
        let ctx = Context::new(Scale::Quick);
        let variants = run_model_ablations(&ctx, 4);
        assert!(variants.len() >= 12);
        for v in &variants {
            assert!(v.stp.is_finite() && v.stp >= 0.0, "{}: {}", v.label, v.stp);
            assert!(v.slowdown.is_finite());
        }
        // Both update rules are present (their accuracy ordering is a
        // full-scale property, asserted in the integration tests).
        assert!(variants.iter().any(|v| v.label.contains("isolated cycles")));
        assert!(variants.iter().any(|v| v.label.contains("window cycles")));
    }

    #[test]
    fn bandwidth_study_shapes() {
        let ctx = Context::new(Scale::Quick);
        let rows = run_bandwidth_study(&ctx, 0.04);
        assert_eq!(rows.len(), 4);
        for (name, m, w, wo) in &rows {
            assert!(m.is_finite() && w.is_finite() && wo.is_finite(), "{name}");
            assert!(*m >= 1.0 - 1e-6 && *w >= 1.0 - 1e-6 && *wo >= 1.0 - 1e-6);
        }
        assert_eq!(report_bandwidth(Scale::Quick, &rows).len(), 4);
    }

    #[test]
    fn derivation_study_covers_suite() {
        let ctx = Context::new(Scale::Quick);
        let rows = run_derivation_study(&ctx);
        assert_eq!(rows.len(), 29);
        for (name, measured, derived) in &rows {
            assert!(measured.is_finite() && derived.is_finite(), "{name}");
            assert!(*measured >= 0.0 && *derived >= 0.0);
        }
        let (t, d) = report(Scale::Quick, &run_model_ablations(&ctx, 2), &rows);
        assert!(t.len() >= 12);
        assert_eq!(d.len(), 29);
    }
}
