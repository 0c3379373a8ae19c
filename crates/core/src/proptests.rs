//! Cross-module property tests on the model: invariants that must hold
//! for *any* structurally valid profile, not just the suite's.

#![cfg(test)]

use proptest::prelude::*;

use crate::contention::{
    ContentionModel, FoaModel, PartitionModel, ProbModel, SdcCompetitionModel,
};
use crate::lockstep::{self, SolverProfile};
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
            let mut extra = Vec::new();
            model.extra_misses(&windows, 8, &mut extra);
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
/// walks cross phase edges at uneven offsets. A per-profile speed
/// factor of 2^-4–2^1 scales every CPI, so two profiles of a mix can
/// run 20x or more apart and a fast one laps its short trace several
/// times in one step.
fn phased_profile_strategy(assoc: u32) -> impl Strategy<Value = SingleCoreProfile> {
    (
        1_000u64..20_000,
        -4.0f64..1.0,
        collection::vec((0.3f64..3.0, 0.0f64..0.5, 0.0f64..2_000.0, 0.0f64..1.0, 1..=assoc), 2..60),
    )
        .prop_map(move |(insns, log2_speed, phases)| {
            let speed = log2_speed.exp2();
            let intervals = phases
                .into_iter()
                .map(|(cpi, mem_frac, accesses, miss_frac, depths)| {
                    let cpi = cpi * speed;
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
    for (at, (k, r)) in kernel.history().iter().zip(reference.history()).enumerate() {
        assert_eq!(k.to_bits(), r.to_bits(), "{what}: history[{at}]");
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
    // The widest ratio of whole-trace CPIs within one mix.
    let mut widest = 1.0_f64;
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
        let cpis = mix.iter().map(|p| p.cpi_sc());
        widest = widest.max(cpis.clone().fold(0.0, f64::max) / cpis.fold(f64::MAX, f64::min));
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
    if oracle_cases() >= 512 {
        assert!(widest >= 20.0, "the CI oracle must cover 20x speed ratios, widest {widest}");
    }
}

/// A profile of `insns`-instruction intervals with the given cycles,
/// each with hits at every LLC depth, 20 misses, and a third of its
/// cycles in memory stalls.
fn profile_of(name: &str, insns: u64, cycles: &[f64]) -> SingleCoreProfile {
    let assoc = 8;
    let intervals = cycles
        .iter()
        .map(|&cycles| {
            let mut sdc = Sdc::new(assoc);
            for d in 0..assoc {
                for _ in 0..=d {
                    sdc.record(Some(d));
                }
            }
            for _ in 0..20 {
                sdc.record(None);
            }
            IntervalProfile {
                insns,
                cycles,
                mem_stall_cycles: cycles / 3.0,
                sdc,
                fallback_penalty: 200.0,
                stack: CpiStack::default(),
            }
        })
        .collect();
    let llc = CacheConfig::new(u64::from(assoc) * 1024 * 64, assoc, 64, 16);
    let profile = SingleCoreProfile {
        name: name.into(),
        machine: MachineSummary { llc, mem_latency: 200 },
        intervals,
    };
    profile.validate().expect("valid profile");
    profile
}

/// Solves `mix` with the kernel and the reference solver under the
/// FOA, Prob and SDC-competition models and asserts them bit-identical.
fn check_models(config: &MppmConfig, mix: &[&SingleCoreProfile], what: &str) {
    let mut scratch = SolverScratch::new();
    check_kernel(FoaModel, config, mix, &mut scratch, what);
    check_kernel(ProbModel, config, mix, &mut scratch, what);
    check_kernel(SdcCompetitionModel, config, mix, &mut scratch, what);
}

/// Interval cycles near `cycles` for `insns`-instruction intervals whose
/// whole-interval cycles `w = insns * cpi` divide back below the
/// interval: `w / cpi < insns`, so a walk with exactly `w` cycles left on
/// the interval's edge takes a partial piece, and only a threshold above
/// `w` keeps the whole-interval path off it.
fn cycles_dividing_below(insns: u64, cycles: f64) -> f64 {
    let n = insns as f64;
    let mut cycles = cycles;
    for _ in 0..10_000 {
        if (n * (cycles / n)) / (cycles / n) < n {
            return cycles;
        }
        cycles = cycles.next_up();
    }
    panic!("no cycles near {cycles} divide below {insns}");
}

/// The cycles `c` with `c - spent == left` exactly (`left + spent` in
/// the binade of `left`, so one exists).
fn cycles_leaving(left: f64, spent: f64) -> f64 {
    let mut c = left + spent;
    for _ in 0..64 {
        if c - spent == left {
            return c;
        }
        c = if c - spent < left { c.next_up() } else { c.next_down() };
    }
    panic!("no cycles leave {left} after spending {spent}");
}

/// The advance walk's whole-interval guard, at its edge: `left` one ulp
/// below `interval * cpi`, exactly it, and one ulp on each side of the
/// threshold just above it. Program `a` has one 1024-instruction
/// interval, so the step-1 window is exactly its cycles `c`; program `b`
/// spends `w0` of them on its first interval and reaches the edge of
/// interval 1 with `c - w0` left.
#[test]
fn advance_guard_matches_the_reference_one_ulp_around_its_threshold() {
    let insns = 1000u64;
    let n = insns as f64;
    let cycles1 = cycles_dividing_below(insns, 900.3);
    let w1 = n * (cycles1 / n);
    let w0 = n * (1.0 / n);
    let b = profile_of("b", insns, &[1.0, cycles1, 500.0]);
    let config = MppmConfig { step_insns: Some(1024), ..MppmConfig::default() };
    let threshold = w1.next_up();
    for left in [w1.next_down(), w1, threshold, threshold.next_up()] {
        let c = cycles_leaving(left, w0);
        let a = profile_of("a", 1024, &[c]);
        assert_eq!(a.cycles_in(0.0, 1024.0), c, "a sets the window");
        assert!(b.cycles_in(0.0, 1024.0) < c, "b is not the slowest");
        check_models(&config, &[&a, &b], &format!("left {left:e} at threshold {threshold:e}"));
    }
}

/// A step whose window starts one ulp below an interval edge: `b`'s
/// first step advances exactly `3000 - ulp` instructions.
#[test]
fn window_one_ulp_below_an_edge_matches_the_reference() {
    let c = 3000.0_f64.next_down();
    let a = profile_of("a", 1024, &[c]);
    let b = profile_of("b", 1000, &[1000.0; 5]);
    assert_eq!(b.insns_for_cycles(0.0, c), c, "b's second step starts at 3000 - ulp");
    let config = MppmConfig { step_insns: Some(1024), ..MppmConfig::default() };
    check_models(&config, &[&a, &b], "window one ulp below an edge");
}

/// Walks that end exactly at the trace end, and walks that wrap there
/// and go on: `b`'s first step covers its 3000-instruction trace once,
/// then one and a half times.
#[test]
fn walk_ending_at_the_trace_end_matches_the_reference() {
    let b = profile_of("b", 1000, &[1000.0; 3]);
    let config = MppmConfig { step_insns: Some(1024), ..MppmConfig::default() };
    for c in [3000.0, 4500.0] {
        let a = profile_of("a", 1024, &[c]);
        assert_eq!(b.insns_for_cycles(0.0, c), c, "b advances {c}");
        check_models(&config, &[&a, &b], &format!("window of {c} cycles"));
    }
}

/// A mix whose profiles have four different interval lengths, under the
/// default step (ten of the shortest intervals) and an explicit one.
#[test]
fn mixed_interval_lengths_match_the_reference() {
    let cycles = |insns: u64, cpis: &[f64]| -> Vec<f64> {
        cpis.iter().map(|c| c * insns as f64).collect()
    };
    let a = profile_of("a", 1000, &cycles(1000, &[0.7, 2.1, 1.3, 0.4, 3.0]));
    let b = profile_of("b", 1024, &cycles(1024, &[1.1, 0.9]));
    let c = profile_of("c", 1536, &cycles(1536, &[2.5, 0.35, 1.0, 1.9]));
    let d = profile_of("d", 20_000, &cycles(20_000, &[0.8, 1.6, 1.2]));
    for step_insns in [None, Some(7_777)] {
        let config = MppmConfig { step_insns, ..MppmConfig::default() };
        check_models(&config, &[&a, &b, &c, &d], &format!("step {step_insns:?}"));
    }
}

/// A fast program with a short trace laps it dozens of times in one step
/// next to a slow one: 46 passes of `b`'s 2000 instructions.
#[test]
fn fast_program_lapping_its_trace_matches_the_reference() {
    let a = profile_of("a", 10_000, &[30_000.0, 27_000.0]);
    let b = profile_of("b", 1000, &[300.0, 350.0]);
    let c = a.cycles_in(0.0, 10_000.0);
    assert!(b.insns_for_cycles(0.0, c) >= 3.0 * b.trace_insns() as f64, "b laps its trace");
    check_models(&MppmConfig::default(), &[&a, &b], "fast program");
}

/// The three window walks, one lane at a time, against the
/// [`SingleCoreProfile`] window methods that the reference solver calls,
/// bit for bit: from interval edges and one ulp either side of them, over
/// lengths that end on edges, one ulp short of or past them, at the trace
/// end and laps beyond it; for the advance walk also from mid-interval to
/// an edge with `interval * cpi` left, one ulp on either side of it and
/// of the threshold above it.
#[test]
fn window_walks_match_the_profile_methods_at_interval_edges() {
    let guard = cycles_dividing_below(900, 540.7);
    let profiles = [
        profile_of("guard", 900, &[150.0, guard, 1_300.0, 420.0]),
        profile_of("pow2", 1024, &[700.0, 3_000.0, 1_024.0]),
        profile_of("flat", 1000, &[1000.0; 5]),
    ];
    let mut lanes = Vec::new();
    let mut windows = vec![Sdc::new(8)];
    let bits = |sdc: &Sdc| sdc.counters().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    for p in &profiles {
        let n = p.interval_insns() as f64;
        let total = p.trace_insns() as f64;
        let ready = SolverProfile::new(p).expect("valid profile");
        lockstep::init(&[&ready], 5.0, &mut lanes);
        // Late in interval 0, so the advance below sums its pieces below
        // 1024 instructions, where one ulp of the interval still shows.
        let mid = n * 0.9;
        let mut starts = vec![mid, total.next_down()];
        for k in 0..p.intervals.len() {
            let edge = k as f64 * n;
            starts.extend([edge, edge.next_down(), edge.next_up()]);
        }
        starts.retain(|&s| (0.0..total).contains(&s));
        for &start in &starts {
            let lens = [
                n,
                2.0 * n,
                3.0 * n,
                n.next_down(),
                n.next_up(),
                total - start,
                total,
                2.5 * total,
                n / 3.0,
            ];
            let mut budgets = Vec::new();
            for len in lens {
                lanes[0].position = start;
                let c = lockstep::lockstep_window_cycles(&mut lanes, &[&ready], &[1.0], len);
                let what = format!("{}: C walk {start} + {len}", p.name);
                assert_eq!(c.to_bits(), p.cycles_in(start, len).to_bits(), "{what}");
                budgets.extend([c, c.next_down(), c.next_up()]);
            }
            if p.name == "guard" && start == mid {
                // Mid-interval 0 to the edge of interval 1, arriving with
                // `w1` and its neighbours left.
                let spent = (n - start) * p.intervals[0].cpi();
                let w1 = n * p.intervals[1].cpi();
                for left in [w1.next_down(), w1, w1.next_up(), w1.next_up().next_up()] {
                    budgets.push(cycles_leaving(left, spent));
                }
            }
            for cycles in budgets.into_iter().filter(|&c| c >= 0.0) {
                lanes[0].position = start;
                lockstep::lockstep_advance(&mut lanes, &[&ready], &[1.0], cycles);
                let advance = lanes[0].advance;
                let what = format!("{}: {cycles} cycles from {start}", p.name);
                let reference = p.insns_for_cycles(start, cycles);
                assert_eq!(advance.to_bits(), reference.to_bits(), "{what}");
                for min_misses in [1.0, 1e12] {
                    lockstep::lockstep_windows(&mut lanes, &[&ready], &mut windows, min_misses);
                    assert_eq!(bits(&windows[0]), bits(&p.sdc_in(start, advance)), "{what}: SDC");
                    let penalty = p.miss_penalty_in(start, advance, min_misses);
                    assert_eq!(lanes[0].penalty.to_bits(), penalty.to_bits(), "{what}: penalty");
                }
            }
        }
    }
}
