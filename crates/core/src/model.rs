//! The iterative Multi-Program Performance Model (paper §2.2, Figure 2).

use crate::contention::ContentionModel;
use crate::lockstep::{self, Lane};
use crate::metrics;
use crate::profile::SingleCoreProfile;
use crate::ModelError;
use mppm_obs::{Span, Value};

/// How the per-iteration slowdown estimate is normalized.
///
/// Figure 2 of the paper prints the update as `R ← f·R + (1−f)·(1 +
/// miss_cycles / C)` with `C` the shared window length in cycles. Taken
/// literally that denominator includes the program's *own previous
/// slowdown* (the program's isolated cycles in the window are `C / R`), so
/// the fixpoint solves `R² − R = miss_cycles·R/C` — a square-root law that
/// underestimates large slowdowns. Normalizing by the program's isolated
/// cycles instead yields the self-consistent `R = 1 +
/// extra_miss_cycles_per_isolated_cycle`, which matches detailed
/// simulation much better for heavily slowed programs and is what the
/// paper's reported accuracy implies the authors computed. Both variants
/// are provided; the ablation bench compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlowdownUpdate {
    /// `1 + miss_cycles / (isolated cycles in the window)` — the
    /// self-consistent normalization (default).
    #[default]
    IsolatedCycles,
    /// `1 + miss_cycles / C`, the literal Figure 2 expression.
    WindowCycles,
}

/// Tunables of the iterative model. [`MppmConfig::default`] reproduces the
/// paper's settings (scaled to this repo's trace geometry).
#[derive(Debug, Clone, PartialEq)]
pub struct MppmConfig {
    /// The step size `L`: the number of instructions the slowest program
    /// executes per iteration. `None` means 10 profiling intervals, which
    /// is the paper's ratio (L = 200M instructions over 20M-instruction
    /// intervals).
    ///
    /// Note that the EMA smoothing needs enough iterations to settle:
    /// with the paper's geometry (50 intervals per trace, 5 trace passes)
    /// the model runs 25 iterations. Profiles with very few intervals
    /// make `L` exceed the trace and leave only a handful of iterations;
    /// prefer ≥ 25 intervals, or set `step_insns` explicitly.
    pub step_insns: Option<u64>,
    /// Exponential-moving-average factor `f` in `[0, 1)` used to smooth
    /// the slowdown update: `R ← f·R + (1−f)·R_current`. The paper found
    /// smoothing important for programs with strong phase behavior.
    pub ema: f64,
    /// Stop once every program has executed this many trace lengths. The
    /// paper runs the slowest program over its 1B-instruction trace five
    /// times.
    pub target_passes: f64,
    /// Hard cap on iterations, as a safety net.
    pub max_steps: usize,
    /// Minimum number of observed window misses for the paper's
    /// `CPI_mem × N / misses` penalty estimate; below it the profile's
    /// recorded fallback penalty is used.
    pub min_misses: f64,
    /// Normalization of the per-iteration slowdown estimate.
    pub update: SlowdownUpdate,
    /// Shared off-chip bandwidth in accesses per cycle, if the modeled
    /// machine limits it (the paper's §8 "bandwidth sharing" extension).
    /// Adds an M/D/1-style queueing term to each program's miss penalty,
    /// charging only the *delta* between shared and isolated channel
    /// utilization (the isolated part is already inside the profile).
    /// `None` (default) reproduces the paper's unlimited-concurrency
    /// memory.
    pub bandwidth: Option<f64>,
}

impl Default for MppmConfig {
    fn default() -> Self {
        Self {
            step_insns: None,
            ema: 0.5,
            target_passes: 5.0,
            max_steps: 1000,
            min_misses: 1.0,
            update: SlowdownUpdate::default(),
            bandwidth: None,
        }
    }
}

impl MppmConfig {
    fn validate(&self) -> Result<(), ModelError> {
        let bad = |detail: &str| {
            Err(ModelError::InvalidProfile { name: "<config>".into(), detail: detail.into() })
        };
        if !(0.0..1.0).contains(&self.ema) {
            return bad("ema factor must be in [0, 1)");
        }
        if !self.target_passes.is_finite() || self.target_passes <= 0.0 {
            return bad("target_passes must be positive");
        }
        if self.max_steps == 0 {
            return bad("max_steps must be positive");
        }
        if self.step_insns == Some(0) {
            return bad("step_insns must be positive");
        }
        if let Some(bw) = self.bandwidth {
            if !bw.is_finite() || bw <= 0.0 {
                return bad("bandwidth must be positive");
            }
        }
        if !self.min_misses.is_finite() || self.min_misses <= 0.0 {
            return bad("min_misses must be positive (it guards a division by the miss count)");
        }
        Ok(())
    }
}

/// Reusable per-worker scratch for [`Mppm::predict_observed_with`].
///
/// Holds the solver's per-program working state — slowdown estimates,
/// trace positions, the per-interval CPI table, window SDCs, queueing
/// terms — so a worker that evaluates many mixes back to back (a
/// campaign shard, the `mppmd` request loop) resets it in place instead
/// of reallocating each call. Mixes of different core counts or LLC
/// associativities can share one scratch: every field is sized to the
/// current mix on entry, and the bit-exactness oracle pins reuse to
/// fresh-allocation results.
///
/// Not everything is pooled: the contention model's
/// [`ContentionModel::extra_misses`] returns a fresh `Vec` per step, the
/// convergence `history` grows with the step count, and the returned
/// [`Prediction`] owns its vectors — those allocations are part of the
/// output, not the steady state.
#[derive(Debug, Default)]
pub struct SolverScratch {
    slowdown: Vec<f64>,
    lanes: Vec<Lane>,
    cpi: Vec<f64>,
    windows: Vec<mppm_cache::Sdc>,
    queue_cycles: Vec<f64>,
    traffic: Vec<f64>,
}

impl SolverScratch {
    /// An empty scratch; pools are sized by the first prediction.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The Multi-Program Performance Model: predicts multi-core performance of
/// a mix of programs from their single-core profiles.
///
/// The model is generic over the shared-cache [`ContentionModel`]; the
/// paper uses [`crate::FoaModel`].
///
/// # Example
///
/// ```
/// use mppm::{FoaModel, Mppm, MppmConfig, SingleCoreProfile};
///
/// let cache_friendly =
///     SingleCoreProfile::synthetic("friendly", 8, 10, 10_000, 0.5, 0.02, 2_000.0, 20.0);
/// let streamer =
///     SingleCoreProfile::synthetic("streamer", 8, 10, 10_000, 2.0, 1.2, 4_000.0, 3_600.0);
///
/// let mppm = Mppm::new(MppmConfig::default(), FoaModel);
/// let pred = mppm.predict(&[&cache_friendly, &streamer])?;
/// // The cache-friendly program suffers; the streamer barely changes.
/// assert!(pred.slowdowns()[0] > pred.slowdowns()[1]);
/// # Ok::<(), mppm::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mppm<M> {
    config: MppmConfig,
    contention: M,
}

impl<M: ContentionModel> Mppm<M> {
    /// Creates a model with the given configuration and contention model.
    pub fn new(config: MppmConfig, contention: M) -> Self {
        Self { config, contention }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MppmConfig {
        &self.config
    }

    /// Runs the iterative model of Figure 2 for one workload mix.
    ///
    /// `profiles[p]` is the single-core profile of the program on core `p`.
    /// All profiles must come from the same machine configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the mix is empty, any profile fails
    /// validation, or the profiles disagree on machine parameters.
    pub fn predict(&self, profiles: &[&SingleCoreProfile]) -> Result<Prediction, ModelError> {
        self.predict_observed(profiles, &Span::disabled())
    }

    /// [`Mppm::predict`] with an observability span attached: emits one
    /// `solver-step` event per fixed-point iteration (with the step's
    /// convergence residual, `max_p |ΔR_p|`) and a final `solver`
    /// summary, and feeds the `model.predictions` / `model.steps`
    /// registry counters. A disabled span makes this identical to
    /// `predict` at no measurable cost.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] exactly as [`Mppm::predict`] does.
    pub fn predict_observed(
        &self,
        profiles: &[&SingleCoreProfile],
        span: &Span,
    ) -> Result<Prediction, ModelError> {
        self.predict_observed_with(profiles, span, &mut SolverScratch::new())
    }

    /// [`Mppm::predict_observed`] over caller-owned [`SolverScratch`]:
    /// the per-step working state (slowdowns, positions, window SDCs,
    /// queueing terms) is reset in place instead of reallocated, so a
    /// worker evaluating many mixes (a campaign shard, the `mppmd`
    /// request loop) pays the solver's transient allocations once per
    /// worker rather than once per step. Each step walks the mix's
    /// programs in lockstep, with one walk per window for its SDC, memory
    /// stall and fallback penalty. Bit-identical to the retained
    /// allocate-per-step reference solver (a test-only oracle): every
    /// program performs the same f64 operations in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] exactly as [`Mppm::predict`] does.
    pub fn predict_observed_with(
        &self,
        profiles: &[&SingleCoreProfile],
        span: &Span,
        scratch: &mut SolverScratch,
    ) -> Result<Prediction, ModelError> {
        self.config.validate()?;
        if profiles.is_empty() {
            return Err(ModelError::EmptyWorkload);
        }
        for p in profiles {
            p.validate()?;
        }
        let machine = profiles[0].machine;
        for p in &profiles[1..] {
            if p.machine != machine {
                return Err(ModelError::MismatchedProfiles {
                    names: (profiles[0].name.clone(), p.name.clone()),
                    detail: "profiles measured on different machine configurations".into(),
                });
            }
        }
        let n = profiles.len();
        let assoc = machine.llc.assoc;
        let step = self
            .config
            .step_insns
            .unwrap_or_else(|| 10 * profiles.iter().map(|p| p.interval_insns()).min().expect("non-empty"));
        let step = step as f64;

        let SolverScratch { slowdown, lanes, cpi, windows, queue_cycles, traffic } = scratch;
        slowdown.clear();
        slowdown.resize(n, 1.0);
        lockstep::init(profiles, self.config.target_passes, lanes, cpi);
        windows.truncate(n);
        windows.resize_with(n, || mppm_cache::Sdc::new(assoc));
        let mut history: Vec<Vec<f64>> = vec![slowdown.clone()];
        let mut steps = 0;
        let mut converged = false;

        while steps < self.config.max_steps {
            if lanes.iter().all(|l| l.executed >= l.target) {
                converged = true;
                break;
            }
            steps += 1;

            // Cycles for the slowest program to execute the next L insns,
            // the progress each program makes in those C cycles, and the
            // window SDCs and miss penalties over that progress.
            let c = lockstep::lockstep_window_cycles(lanes, cpi, slowdown, step);
            debug_assert!(c > 0.0, "interval cycles must be positive");
            lockstep::lockstep_advance(lanes, cpi, slowdown, c);
            lockstep::lockstep_windows(profiles, lanes, windows, self.config.min_misses);
            let extra = self.contention.extra_misses(windows, assoc);

            // Optional shared-bandwidth queueing (§8 extension): charge the
            // delta between shared and isolated channel utilization.
            queue_cycles.clear();
            match self.config.bandwidth {
                None => queue_cycles.resize(n, 0.0),
                Some(bw) => {
                    // Mean M/D/1 queueing wait at utilization rho, with
                    // service time 1/bw.
                    let wait = |rho: f64| {
                        let rho = rho.clamp(0.0, 0.98);
                        0.5 * rho / (bw * (1.0 - rho))
                    };
                    traffic.clear();
                    traffic.extend(
                        windows.iter().zip(&extra).map(|(w, &e)| w.misses() + e),
                    );
                    let rho_total = traffic.iter().sum::<f64>() / c / bw;
                    queue_cycles.extend((0..n).map(|p| {
                        // The baseline already inside the profile is the
                        // *isolated* run: only the profile's own misses
                        // (not contention extras) at isolated speed.
                        let rho_solo = windows[p].misses() / (c / slowdown[p]) / bw;
                        (wait(rho_total) - wait(rho_solo)).max(0.0) * traffic[p]
                    }));
                }
            }

            for (p, lane) in lanes.iter_mut().enumerate() {
                // Queueing delay overlaps with other misses the same way
                // the base latency does; penalty/mem_latency ≈ 1/MLP.
                let overlap = lane.penalty / f64::from(machine.mem_latency).max(1.0);
                let miss_cycles = extra[p] * lane.penalty + queue_cycles[p] * overlap;
                // The program's isolated cycles in this window are C/R by
                // construction of `advance`.
                let denom = match self.config.update {
                    SlowdownUpdate::IsolatedCycles => c / slowdown[p],
                    SlowdownUpdate::WindowCycles => c,
                };
                let current = 1.0 + miss_cycles / denom;
                slowdown[p] = self.config.ema * slowdown[p] + (1.0 - self.config.ema) * current;
                lane.position = (lane.position + lane.advance) % lane.total;
                lane.executed += lane.advance;
            }
            history.push(slowdown.clone());
            if span.is_enabled() {
                let prev = &history[history.len() - 2];
                let residual = slowdown
                    .iter()
                    .zip(prev)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0_f64, f64::max);
                span.event(
                    "solver-step",
                    &[("step", Value::from(steps)), ("residual", Value::from(residual))],
                );
            }
        }

        if span.is_enabled() {
            span.event(
                "solver",
                &[
                    ("programs", Value::from(n)),
                    ("steps", Value::from(steps)),
                    ("converged", Value::from(converged)),
                ],
            );
            span.counter("model.predictions").incr();
            span.counter("model.steps").add(steps as u64);
        }

        let cpi_sc: Vec<f64> = profiles.iter().map(|p| p.cpi_sc()).collect();
        let cpi_mc: Vec<f64> =
            cpi_sc.iter().zip(slowdown.iter()).map(|(&sc, &r)| sc * r).collect();
        Ok(Prediction {
            names: profiles.iter().map(|p| p.name.clone()).collect(),
            slowdowns: slowdown.clone(),
            cpi_sc,
            cpi_mc,
            steps,
            converged,
            history,
        })
    }

    /// The allocate-per-step solver retained as the differential
    /// baseline for [`Mppm::predict_observed_with`]: every fixed-point
    /// iteration collects fresh window SDCs and working vectors, walks
    /// one program after another through the [`SingleCoreProfile`]
    /// window methods, and refolds each window for the miss-penalty
    /// estimate ([`SingleCoreProfile::miss_penalty_in`]). Test-only: the
    /// unit tests and the lockstep property oracle (`proptests.rs`) pin
    /// the production solver to it bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] exactly as [`Mppm::predict`] does.
    #[cfg(test)]
    pub(crate) fn reference_predict_observed(
        &self,
        profiles: &[&SingleCoreProfile],
        span: &Span,
    ) -> Result<Prediction, ModelError> {
        self.config.validate()?;
        if profiles.is_empty() {
            return Err(ModelError::EmptyWorkload);
        }
        for p in profiles {
            p.validate()?;
        }
        let machine = profiles[0].machine;
        for p in &profiles[1..] {
            if p.machine != machine {
                return Err(ModelError::MismatchedProfiles {
                    names: (profiles[0].name.clone(), p.name.clone()),
                    detail: "profiles measured on different machine configurations".into(),
                });
            }
        }
        let n = profiles.len();
        let assoc = machine.llc.assoc;
        let step = self
            .config
            .step_insns
            .unwrap_or_else(|| 10 * profiles.iter().map(|p| p.interval_insns()).min().expect("non-empty"));
        let step = step as f64;

        let mut slowdown = vec![1.0_f64; n];
        let mut position = vec![0.0_f64; n];
        let mut executed = vec![0.0_f64; n];
        let targets: Vec<f64> =
            profiles.iter().map(|p| self.config.target_passes * p.trace_insns() as f64).collect();
        let mut history: Vec<Vec<f64>> = vec![slowdown.clone()];
        let mut steps = 0;
        let mut converged = false;

        while steps < self.config.max_steps {
            if executed.iter().zip(&targets).all(|(e, t)| e >= t) {
                converged = true;
                break;
            }
            steps += 1;

            let c = profiles
                .iter()
                .zip(&position)
                .zip(&slowdown)
                .map(|((p, &pos), &r)| p.cycles_in(pos, step) * r)
                .fold(0.0_f64, f64::max);
            debug_assert!(c > 0.0, "interval cycles must be positive");

            let advance: Vec<f64> = profiles
                .iter()
                .zip(&position)
                .zip(&slowdown)
                .map(|((p, &pos), &r)| p.insns_for_cycles(pos, c / r))
                .collect();

            let windows: Vec<mppm_cache::Sdc> = profiles
                .iter()
                .zip(&position)
                .zip(&advance)
                .map(|((p, &pos), &len)| p.sdc_in(pos, len))
                .collect();
            let extra = self.contention.extra_misses(&windows, assoc);

            let queue_cycles: Vec<f64> = match self.config.bandwidth {
                None => vec![0.0; n],
                Some(bw) => {
                    let wait = |rho: f64| {
                        let rho = rho.clamp(0.0, 0.98);
                        0.5 * rho / (bw * (1.0 - rho))
                    };
                    let traffic: Vec<f64> =
                        windows.iter().zip(&extra).map(|(w, &e)| w.misses() + e).collect();
                    let rho_total = traffic.iter().sum::<f64>() / c / bw;
                    (0..n)
                        .map(|p| {
                            let rho_solo = windows[p].misses() / (c / slowdown[p]) / bw;
                            (wait(rho_total) - wait(rho_solo)).max(0.0) * traffic[p]
                        })
                        .collect()
                }
            };

            for p in 0..n {
                let penalty =
                    profiles[p].miss_penalty_in(position[p], advance[p], self.config.min_misses);
                let overlap = penalty / f64::from(machine.mem_latency).max(1.0);
                let miss_cycles = extra[p] * penalty + queue_cycles[p] * overlap;
                let denom = match self.config.update {
                    SlowdownUpdate::IsolatedCycles => c / slowdown[p],
                    SlowdownUpdate::WindowCycles => c,
                };
                let current = 1.0 + miss_cycles / denom;
                slowdown[p] = self.config.ema * slowdown[p] + (1.0 - self.config.ema) * current;
                position[p] = (position[p] + advance[p]) % profiles[p].trace_insns() as f64;
                executed[p] += advance[p];
            }
            history.push(slowdown.clone());
            if span.is_enabled() {
                let prev = &history[history.len() - 2];
                let residual = slowdown
                    .iter()
                    .zip(prev)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0_f64, f64::max);
                span.event(
                    "solver-step",
                    &[("step", Value::from(steps)), ("residual", Value::from(residual))],
                );
            }
        }

        if span.is_enabled() {
            span.event(
                "solver",
                &[
                    ("programs", Value::from(n)),
                    ("steps", Value::from(steps)),
                    ("converged", Value::from(converged)),
                ],
            );
            span.counter("model.predictions").incr();
            span.counter("model.steps").add(steps as u64);
        }

        let cpi_sc: Vec<f64> = profiles.iter().map(|p| p.cpi_sc()).collect();
        let cpi_mc: Vec<f64> =
            cpi_sc.iter().zip(slowdown.iter()).map(|(&sc, &r)| sc * r).collect();
        Ok(Prediction {
            names: profiles.iter().map(|p| p.name.clone()).collect(),
            slowdowns: slowdown,
            cpi_sc,
            cpi_mc,
            steps,
            converged,
            history,
        })
    }
}

/// Output of one model evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    names: Vec<String>,
    slowdowns: Vec<f64>,
    cpi_sc: Vec<f64>,
    cpi_mc: Vec<f64>,
    steps: usize,
    converged: bool,
    history: Vec<Vec<f64>>,
}

impl Prediction {
    /// Program names, parallel to all other vectors.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Predicted per-program slowdowns `R_p ≥ 1` relative to isolated
    /// execution.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }

    /// Isolated single-core CPIs (`CPI_SC`, from the profiles).
    pub fn cpi_sc(&self) -> &[f64] {
        &self.cpi_sc
    }

    /// Predicted multi-core CPIs (`CPI_MC = CPI_SC × R`).
    pub fn cpi_mc(&self) -> &[f64] {
        &self.cpi_mc
    }

    /// Iterations the model ran.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether the stop criterion was met (as opposed to the `max_steps`
    /// safety cap).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Slowdown after each iteration (`history[0]` is the initial all-ones
    /// state), for convergence diagnostics.
    pub fn history(&self) -> &[Vec<f64>] {
        &self.history
    }

    /// System throughput of the predicted mix (higher is better).
    pub fn stp(&self) -> f64 {
        metrics::stp(&self.cpi_sc, &self.cpi_mc)
    }

    /// Average normalized turnaround time of the predicted mix (lower is
    /// better).
    pub fn antt(&self) -> f64 {
        metrics::antt(&self.cpi_sc, &self.cpi_mc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::FoaModel;
    use crate::profile::SingleCoreProfile;

    fn friendly() -> SingleCoreProfile {
        // Low CPI, all LLC hits at mid depths: a cache-sensitive program.
        SingleCoreProfile::synthetic("friendly", 8, 10, 10_000, 0.5, 0.02, 2_000.0, 20.0)
    }

    fn streamer() -> SingleCoreProfile {
        SingleCoreProfile::synthetic("streamer", 8, 10, 10_000, 2.0, 1.2, 4_000.0, 3_600.0)
    }

    fn compute() -> SingleCoreProfile {
        // No LLC traffic at all: the private caches absorb everything.
        SingleCoreProfile::synthetic("compute", 8, 10, 10_000, 0.5, 0.0, 0.0, 0.0)
    }

    fn model() -> Mppm<FoaModel> {
        Mppm::new(MppmConfig::default(), FoaModel)
    }

    #[test]
    fn empty_mix_is_an_error() {
        assert_eq!(model().predict(&[]).unwrap_err(), ModelError::EmptyWorkload);
    }

    #[test]
    fn single_program_has_unit_slowdown() {
        let p = friendly();
        let pred = model().predict(&[&p]).unwrap();
        assert!((pred.slowdowns()[0] - 1.0).abs() < 1e-9);
        assert!((pred.stp() - 1.0).abs() < 1e-9);
        assert!((pred.antt() - 1.0).abs() < 1e-9);
        assert!(pred.converged());
    }

    #[test]
    fn two_compute_programs_do_not_interfere() {
        let (a, b) = (compute(), compute());
        let pred = model().predict(&[&a, &b]).unwrap();
        for &r in pred.slowdowns() {
            assert!((r - 1.0).abs() < 1e-6, "slowdown {r}");
        }
    }

    #[test]
    fn sensitive_program_suffers_from_streamer() {
        let (a, b) = (friendly(), streamer());
        let pred = model().predict(&[&a, &b]).unwrap();
        assert!(pred.slowdowns()[0] > 1.1, "victim slows: {:?}", pred.slowdowns());
        assert!(pred.slowdowns()[1] < pred.slowdowns()[0]);
        assert!(pred.stp() < 2.0 && pred.stp() > 0.5);
        assert!(pred.antt() > 1.0);
    }

    #[test]
    fn more_corunners_lower_stp_per_core() {
        let progs: Vec<_> = (0..4).map(|_| friendly()).collect();
        let two: Vec<&SingleCoreProfile> = progs.iter().take(2).collect();
        let four: Vec<&SingleCoreProfile> = progs.iter().collect();
        let pred2 = model().predict(&two).unwrap();
        let pred4 = model().predict(&four).unwrap();
        assert!(
            pred4.stp() / 4.0 < pred2.stp() / 2.0,
            "per-core throughput drops with sharing"
        );
    }

    #[test]
    fn scratch_reuse_is_bit_exact_across_differing_mixes() {
        // One SolverScratch threaded through mixes of different core
        // counts (and a bandwidth-limited config, which exercises the
        // queueing pools) must reproduce predict() bit-for-bit.
        let (a, b, c) = (friendly(), streamer(), compute());
        let mixes: Vec<Vec<&SingleCoreProfile>> =
            vec![vec![&a, &b, &c], vec![&b], vec![&a, &b], vec![&a, &b, &c, &a]];
        let span = Span::disabled();
        let mut scratch = SolverScratch::new();
        for (m, cfg) in [(model(), MppmConfig::default()), {
            let cfg = MppmConfig { bandwidth: Some(0.05), ..MppmConfig::default() };
            (Mppm::new(cfg.clone(), FoaModel), cfg)
        }] {
            for mix in &mixes {
                let fresh = m.predict(mix).unwrap();
                let warm = m.predict_observed_with(mix, &span, &mut scratch).unwrap();
                assert_eq!(fresh, warm, "scratch reuse diverged (bandwidth {:?})", cfg.bandwidth);
                let reference = m.reference_predict_observed(mix, &span).unwrap();
                assert_eq!(
                    fresh, reference,
                    "allocate-per-step baseline diverged (bandwidth {:?})",
                    cfg.bandwidth
                );
                for (x, y) in fresh.slowdowns().iter().zip(warm.slowdowns()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn mismatched_machines_rejected() {
        let a = SingleCoreProfile::synthetic("a", 8, 10, 1_000, 0.5, 0.1, 100.0, 10.0);
        let b = SingleCoreProfile::synthetic("b", 4, 10, 1_000, 0.5, 0.1, 100.0, 10.0);
        let err = model().predict(&[&a, &b]).unwrap_err();
        assert!(matches!(err, ModelError::MismatchedProfiles { .. }));
    }

    #[test]
    fn ema_zero_still_converges() {
        let cfg = MppmConfig { ema: 0.0, ..MppmConfig::default() };
        let (a, b) = (friendly(), streamer());
        let pred = Mppm::new(cfg, FoaModel).predict(&[&a, &b]).unwrap();
        assert!(pred.converged());
        assert!(pred.slowdowns()[0] > 1.0);
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = MppmConfig { ema: 1.0, ..MppmConfig::default() };
        let p = friendly();
        assert!(Mppm::new(cfg, FoaModel).predict(&[&p]).is_err());
        let cfg = MppmConfig { step_insns: Some(0), ..MppmConfig::default() };
        assert!(Mppm::new(cfg, FoaModel).predict(&[&p]).is_err());
        let cfg = MppmConfig { min_misses: 0.0, ..MppmConfig::default() };
        assert!(Mppm::new(cfg, FoaModel).predict(&[&p]).is_err());
        let cfg = MppmConfig { min_misses: f64::NAN, ..MppmConfig::default() };
        assert!(Mppm::new(cfg, FoaModel).predict(&[&p]).is_err());
    }

    #[test]
    fn step_count_matches_paper_ratio() {
        // Flat profiles, equal speeds: every program advances exactly L per
        // step, so 5 passes over 50 intervals at L = 10 intervals = 25
        // steps.
        let a = SingleCoreProfile::synthetic("a", 8, 50, 1_000, 0.5, 0.1, 100.0, 10.0);
        let b = SingleCoreProfile::synthetic("b", 8, 50, 1_000, 0.5, 0.1, 100.0, 10.0);
        let pred = model().predict(&[&a, &b]).unwrap();
        assert_eq!(pred.steps(), 25);
        assert!(pred.converged());
    }

    #[test]
    fn bandwidth_contention_slows_streamer_pairs() {
        // Two streamers with disjoint footprints: no cache interference
        // (all accesses miss anyway), but together they exceed the
        // channel's bandwidth.
        let mk = |name: &str| {
            // 4000 misses per 10K insns at CPI 2.0 -> 0.2 misses/cycle.
            SingleCoreProfile::synthetic(name, 8, 10, 10_000, 2.0, 1.2, 4_000.0, 4_000.0)
        };
        let (a, b) = (mk("s1"), mk("s2"));
        let no_bw = model().predict(&[&a, &b]).unwrap();
        assert!(
            no_bw.slowdowns().iter().all(|&r| r < 1.01),
            "without a bandwidth limit streamers do not interact: {:?}",
            no_bw.slowdowns()
        );
        // Channel fits one stream (0.2/cycle) but not two.
        let cfg = MppmConfig { bandwidth: Some(0.3), ..MppmConfig::default() };
        let with_bw = Mppm::new(cfg, FoaModel).predict(&[&a, &b]).unwrap();
        assert!(
            with_bw.slowdowns().iter().all(|&r| r > 1.05),
            "bandwidth sharing must slow both streamers: {:?}",
            with_bw.slowdowns()
        );
    }

    #[test]
    fn bandwidth_solo_is_a_noop() {
        let s = SingleCoreProfile::synthetic("s", 8, 10, 10_000, 2.0, 1.2, 4_000.0, 4_000.0);
        let cfg = MppmConfig { bandwidth: Some(0.3), ..MppmConfig::default() };
        let pred = Mppm::new(cfg, FoaModel).predict(&[&s]).unwrap();
        assert!(
            (pred.slowdowns()[0] - 1.0).abs() < 1e-6,
            "solo utilization is already in the profile: {}",
            pred.slowdowns()[0]
        );
    }

    #[test]
    fn bandwidth_config_is_validated() {
        let cfg = MppmConfig { bandwidth: Some(0.0), ..MppmConfig::default() };
        let p = friendly();
        assert!(Mppm::new(cfg, FoaModel).predict(&[&p]).is_err());
    }

    #[test]
    fn history_starts_at_one_and_tracks_steps() {
        let (a, b) = (friendly(), streamer());
        let pred = model().predict(&[&a, &b]).unwrap();
        assert_eq!(pred.history().len(), pred.steps() + 1);
        assert!(pred.history()[0].iter().all(|&r| r == 1.0));
    }

    #[test]
    fn phase_behavior_changes_the_answer() {
        // Two profiles with the same totals but different temporal
        // layouts must predict differently when co-run with a phased
        // antagonist — the reason the paper profiles per interval.
        use crate::profile::{IntervalProfile, MachineSummary};
        use mppm_cache::{CacheConfig, Sdc};
        let machine = MachineSummary {
            llc: CacheConfig::new(8 * 1024 * 64, 8, 64, 16),
            mem_latency: 200,
        };
        // All programs run at the same isolated speed so trace positions
        // stay aligned across iterations (equal-length cyclic traces).
        let interval = |accesses: f64, misses: f64| {
            let mut sdc = Sdc::new(8);
            let mut unit = Sdc::new(8);
            unit.record(Some(3));
            sdc.add_scaled(&unit, accesses - misses);
            let mut m = Sdc::new(8);
            m.record(None);
            sdc.add_scaled(&m, misses);
            IntervalProfile {
                insns: 10_000,
                cycles: 6_000.0,
                mem_stall_cycles: misses.min(50.0) * 10.0,
                sdc,
                fallback_penalty: 100.0,
                stack: crate::CpiStack::default(),
            }
        };
        let mk = |name: &str, layout: Vec<(f64, f64)>| SingleCoreProfile {
            name: name.into(),
            machine,
            intervals: layout.into_iter().map(|(a, m)| interval(a, m)).collect(),
        };
        // Two victims with identical *totals* but different temporal
        // layouts, against a constant streaming antagonist. During its
        // bursts the bursty victim's access share lifts its effective
        // associativity past its reuse depth (FOA is nonlinear in the
        // share), so phase layout must change the prediction — this is
        // why §2.1 profiles per interval instead of once per trace.
        let bursty = mk(
            "bursty",
            (0..50).map(|i| if i < 25 { (3_000.0, 5.0) } else { (0.0, 0.0) }).collect(),
        );
        let flat = mk("flat", (0..50).map(|_| (1_500.0, 2.5)).collect());
        let antagonist = mk("antagonist", (0..50).map(|_| (4_000.0, 4_000.0)).collect());
        let model = model();
        let bursty_slow = model.predict(&[&bursty, &antagonist]).unwrap().slowdowns()[0];
        let flat_slow = model.predict(&[&flat, &antagonist]).unwrap().slowdowns()[0];
        for v in [bursty_slow, flat_slow] {
            assert!(v > 1.01, "the antagonist must matter at all: {v}");
        }
        assert!(
            (bursty_slow - flat_slow).abs() > 0.01,
            "temporal layout made no difference: {bursty_slow} vs {flat_slow}"
        );
        // Concretely: concentrating the same traffic raises the share
        // during bursts, so the bursty victim keeps more of its hits.
        assert!(bursty_slow < flat_slow, "{bursty_slow} vs {flat_slow}");
    }

    #[test]
    fn slowdowns_are_finite_and_at_least_near_one() {
        let (a, b, c) = (friendly(), streamer(), compute());
        let pred = model().predict(&[&a, &b, &c]).unwrap();
        for &r in pred.slowdowns() {
            assert!(r.is_finite());
            assert!(r >= 1.0 - 1e-9, "slowdown below 1: {r}");
        }
    }
}
