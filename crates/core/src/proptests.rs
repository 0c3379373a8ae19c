//! Cross-module property tests on the model: invariants that must hold
//! for *any* structurally valid profile, not just the suite's.

#![cfg(test)]

use proptest::prelude::*;

use crate::contention::{
    ContentionModel, FoaModel, PartitionModel, ProbModel, SdcCompetitionModel,
};
use crate::model::{Mppm, MppmConfig, Prediction, SlowdownUpdate, SolverScratch};
use crate::profile::{IntervalProfile, MachineSummary, SingleCoreProfile};
use crate::CpiStack;
use mppm_cache::{CacheConfig, Sdc};
use mppm_obs::Span;

/// Strategy producing a random but valid synthetic profile.
///
/// Interval count is fixed at the paper's 50 so the default step size
/// (10 intervals) yields the paper's 25 smoothing iterations; profiles
/// with only a handful of intervals leave the EMA visibly unconverged,
/// which is a documented scale requirement, not a property to test.
fn profile_strategy(name: &'static str) -> impl Strategy<Value = SingleCoreProfile> {
    (
        0.3f64..3.0,            // cpi
        0.0f64..0.5,            // mem fraction of cpi
        0.0f64..2_000.0,        // llc accesses per interval
        0.0f64..1.0,            // miss fraction of accesses
    )
        .prop_map(move |(cpi, mem_frac, accesses, miss_frac)| {
            SingleCoreProfile::synthetic(
                name,
                8,
                50,
                10_000,
                cpi,
                cpi * mem_frac,
                accesses,
                accesses * miss_frac,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slowdowns are finite, ≥ 1, and the derived metrics respect their
    /// bounds for any 2-program workload.
    #[test]
    fn model_invariants_hold_for_arbitrary_profiles(
        a in profile_strategy("a"),
        b in profile_strategy("b"),
    ) {
        let model = Mppm::new(MppmConfig::default(), FoaModel);
        let pred = model.predict(&[&a, &b]).expect("valid profiles");
        prop_assert!(pred.converged());
        for &r in pred.slowdowns() {
            prop_assert!(r.is_finite());
            prop_assert!(r >= 1.0 - 1e-9, "slowdown {r} below 1");
        }
        let stp = pred.stp();
        prop_assert!(stp > 0.0 && stp <= 2.0 + 1e-9, "STP {stp} out of range");
        prop_assert!(pred.antt() >= 1.0 - 1e-9);
    }

    /// Adding a cache-idle co-runner (no LLC traffic at all) changes
    /// nobody's prediction. Note that adding a *busy* co-runner is NOT
    /// monotone: slowing one competitor lowers its per-cycle LLC pressure
    /// on the others — exactly the performance entanglement the iterative
    /// model exists to capture.
    #[test]
    fn cache_idle_corunner_is_a_noop(
        a in profile_strategy("a"),
        b in profile_strategy("b"),
    ) {
        let idle = SingleCoreProfile::synthetic("idle", 8, 4, 10_000, 0.5, 0.0, 0.0, 0.0);
        let model = Mppm::new(MppmConfig::default(), FoaModel);
        let two = model.predict(&[&a, &b]).expect("valid");
        let three = model.predict(&[&a, &b, &idle]).expect("valid");
        prop_assert!(
            (three.slowdowns()[0] - two.slowdowns()[0]).abs() < 1e-6,
            "idle co-runner changed a's slowdown: {} -> {}",
            two.slowdowns()[0],
            three.slowdowns()[0]
        );
        prop_assert!((three.slowdowns()[2] - 1.0).abs() < 1e-9, "idle program unaffected");
    }

    /// Identical programs get identical predictions (symmetry). FOA and
    /// Prob are continuous, so any count works; SDC-competition allocates
    /// whole ways, so symmetry only holds when the way count divides
    /// evenly among the programs.
    #[test]
    fn symmetric_mixes_predict_symmetrically(p in profile_strategy("p")) {
        let configs = MppmConfig::default();
        fn check<M: ContentionModel>(p: &SingleCoreProfile, n: usize, cfg: MppmConfig, m: M) {
            let mix: Vec<&SingleCoreProfile> = std::iter::repeat_n(p, n).collect();
            let pred = Mppm::new(cfg, m).predict(&mix).expect("valid");
            let s = pred.slowdowns();
            for w in s.windows(2) {
                assert!((w[0] - w[1]).abs() < 1e-9, "{s:?}");
            }
        }
        check(&p, 3, configs.clone(), FoaModel);
        check(&p, 3, configs.clone(), ProbModel);
        // 8 ways split evenly over 2 or 4 programs.
        check(&p, 2, configs.clone(), SdcCompetitionModel);
        check(&p, 4, configs, SdcCompetitionModel);
    }

    /// Contention models never report more extra misses than there are
    /// hits to convert, for arbitrary windows.
    #[test]
    fn extra_misses_bounded_by_hits(
        counts in proptest::collection::vec(
            proptest::collection::vec(0.0f64..10_000.0, 9),
            2..5
        ),
    ) {
        let windows: Vec<Sdc> = counts
            .iter()
            .map(|cs| {
                let mut sdc = Sdc::new(8);
                for (d, &n) in cs.iter().enumerate() {
                    let mut unit = Sdc::new(8);
                    if d < 8 {
                        unit.record(Some(d as u32));
                    } else {
                        unit.record(None);
                    }
                    sdc.add_scaled(&unit, n);
                }
                sdc
            })
            .collect();
        for model in [&FoaModel as &dyn ContentionModel, &SdcCompetitionModel, &ProbModel] {
            let extra = model.extra_misses(&windows, 8);
            prop_assert_eq!(extra.len(), windows.len());
            for (e, w) in extra.iter().zip(&windows) {
                prop_assert!(*e >= -1e-9, "{}: negative extra", model.name());
                prop_assert!(
                    *e <= w.hits() + 1e-6,
                    "{}: extra {} > hits {}",
                    model.name(),
                    e,
                    w.hits()
                );
            }
        }
    }

    /// The EMA factor changes convergence dynamics but not the invariants.
    #[test]
    fn ema_sweep_stays_valid(
        a in profile_strategy("a"),
        b in profile_strategy("b"),
        ema in 0.0f64..0.95,
    ) {
        let model = Mppm::new(MppmConfig { ema, ..Default::default() }, FoaModel);
        let pred = model.predict(&[&a, &b]).expect("valid");
        prop_assert!(pred.converged());
        prop_assert!(pred.slowdowns().iter().all(|r| r.is_finite() && *r >= 1.0 - 1e-9));
    }
}

/// Strategy producing a valid profile whose intervals differ, unlike
/// [`profile_strategy`]'s flat ones: each interval draws its own CPI,
/// memory share, LLC traffic and deepest hit depth from the same ranges,
/// over 2–59 intervals of 1K–20K instructions, so the solver's window
/// walks cross phase edges at uneven offsets.
fn phased_profile_strategy(assoc: u32) -> impl Strategy<Value = SingleCoreProfile> {
    (
        1_000u64..20_000,
        collection::vec((0.3f64..3.0, 0.0f64..0.5, 0.0f64..2_000.0, 0.0f64..1.0, 1..=assoc), 2..60),
    )
        .prop_map(move |(insns, phases)| {
            let intervals = phases
                .into_iter()
                .map(|(cpi, mem_frac, accesses, miss_frac, depths)| {
                    let misses = accesses * miss_frac;
                    let mut sdc = Sdc::new(assoc);
                    for d in 0..depths {
                        let mut unit = Sdc::new(assoc);
                        unit.record(Some(d));
                        sdc.add_scaled(&unit, (accesses - misses) / f64::from(depths));
                    }
                    let mut miss = Sdc::new(assoc);
                    miss.record(None);
                    sdc.add_scaled(&miss, misses);
                    let cycles = cpi * insns as f64;
                    let mem_stall = cycles * mem_frac;
                    IntervalProfile {
                        insns,
                        cycles,
                        mem_stall_cycles: mem_stall,
                        sdc,
                        fallback_penalty: if misses > 0.0 { mem_stall / misses } else { 200.0 },
                        stack: CpiStack {
                            base: cycles - mem_stall,
                            memory: mem_stall,
                            ..CpiStack::default()
                        },
                    }
                })
                .collect();
            let llc = CacheConfig::new(u64::from(assoc) * 1024 * 64, assoc, 64, 16);
            let profile = SingleCoreProfile {
                name: "phased".into(),
                machine: MachineSummary { llc, mem_latency: 200 },
                intervals,
            };
            profile.validate().expect("phased profile is valid");
            profile
        })
}

/// Cases of the solver oracle: `MPPM_ORACLE_CASES`, default 32 (every
/// combination of the five configuration switches once).
fn oracle_cases() -> u32 {
    std::env::var("MPPM_ORACLE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
}

/// Asserts that two predictions agree bit for bit: slowdowns, CPIs,
/// every history entry, step count and convergence.
fn assert_bit_identical(kernel: &Prediction, reference: &Prediction, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(kernel.steps(), reference.steps(), "{what}: steps");
    assert_eq!(kernel.converged(), reference.converged(), "{what}: converged");
    assert_eq!(bits(kernel.slowdowns()), bits(reference.slowdowns()), "{what}: slowdowns");
    assert_eq!(bits(kernel.cpi_mc()), bits(reference.cpi_mc()), "{what}: cpi_mc");
    assert_eq!(kernel.history().len(), reference.history().len(), "{what}: history");
    for (step, (k, r)) in kernel.history().iter().zip(reference.history()).enumerate() {
        assert_eq!(bits(k), bits(r), "{what}: history[{step}]");
    }
}

/// Solves `mix` with the kernel over the shared `scratch` and with the
/// reference solver, and asserts the two bit-identical.
fn check_kernel<M: ContentionModel>(
    model: M,
    config: &MppmConfig,
    mix: &[&SingleCoreProfile],
    scratch: &mut SolverScratch,
    what: &str,
) {
    let span = Span::disabled();
    let what = format!("{what}, {}", model.name());
    let mppm = Mppm::new(config.clone(), model);
    let kernel = mppm.predict_observed_with(mix, &span, scratch).expect("valid mix");
    let reference = mppm.reference_predict_observed(mix, &span).expect("valid mix");
    assert_bit_identical(&kernel, &reference, &what);
}

/// The lockstep kernel behind `predict_observed_with` reproduces the
/// one-program-at-a-time reference solver bit for bit on phase-varying
/// profiles: mixes of 1–16 programs with duplicates, 8- and 16-way SDCs,
/// all four contention models, with and without a bandwidth limit, both
/// slowdown updates, default and explicit step sizes, and a `min_misses`
/// high enough to take the fallback penalty. One scratch serves every
/// case, so reuse across mix sizes and associativities is covered too.
#[test]
fn lockstep_kernel_matches_the_reference_solver_bit_for_bit() {
    let mut rng =
        test_runner::rng_for(concat!(module_path!(), "::lockstep_kernel_matches_the_reference"));
    let mut scratch = SolverScratch::new();
    for case in 0..oracle_cases() {
        // The low five bits of the case index pick the configuration.
        let bit = |b: u32| case >> b & 1 == 1;
        let assoc = if bit(0) { 16 } else { 8 };
        let config = MppmConfig {
            update: if bit(1) {
                SlowdownUpdate::WindowCycles
            } else {
                SlowdownUpdate::IsolatedCycles
            },
            bandwidth: bit(2).then(|| (0.005f64..0.5).generate(&mut rng)),
            min_misses: if bit(3) { 1e12 } else { 1.0 },
            step_insns: bit(4).then(|| (1_000u64..200_000).generate(&mut rng)),
            ..MppmConfig::default()
        };
        let pool = collection::vec(phased_profile_strategy(assoc), 1..6).generate(&mut rng);
        let n = (1usize..=16).generate(&mut rng);
        let mix: Vec<&SingleCoreProfile> = collection::vec(0..pool.len(), n)
            .generate(&mut rng)
            .into_iter()
            .map(|i| &pool[i])
            .collect();
        let what = format!("case {case}, {n} programs, {config:?}");
        check_kernel(FoaModel, &config, &mix, &mut scratch, &what);
        check_kernel(ProbModel, &config, &mix, &mut scratch, &what);
        check_kernel(SdcCompetitionModel, &config, &mix, &mut scratch, &what);
        if n <= assoc as usize {
            // A random split of the ways, at least one per program.
            let mut ways = vec![1u32; n];
            for _ in n..assoc as usize {
                ways[(0..n).generate(&mut rng)] += 1;
            }
            check_kernel(PartitionModel::new(ways), &config, &mix, &mut scratch, &what);
        }
    }
}
