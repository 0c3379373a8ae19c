//! The solver's per-step window kernel: the n programs of a mix walk
//! their profile windows in lockstep, over solve-ready profiles.
//!
//! One fixed-point step of [`crate::Mppm`] walks each program's profile
//! three times: over the next `L` instructions to find the shared window
//! length `C` ([`SingleCoreProfile::cycles_in`]), over `C / R` isolated
//! cycles to find how far the program advances
//! ([`SingleCoreProfile::insns_for_cycles`]), and over the advanced window
//! for the contention model's SDC and the miss penalty
//! ([`SingleCoreProfile::sdc_in`], [`SingleCoreProfile::miss_penalty_in`]).
//! Each walk is a chain of dependent f64 divisions (`pos / interval`,
//! `remaining / cpi`), so walking one program after another leaves the
//! divider idle between links. Here every walk takes one piece per
//! program per round: the programs' chains share no value, so their
//! divisions overlap.
//!
//! The walks read a [`SolverProfile`]: a validated profile tabulated once
//! into one [`Row`] of per-interval constants per interval. Most pieces
//! are whole intervals: the walk sits on an interval edge and has at
//! least an interval left. On such a piece every result is known without
//! a division. The interval is the one after the last piece's;
//! `take / interval` is exactly 1, so the window SDC adds the interval's
//! counters unscaled; `take * cpi`, `mem_stall * take / interval` and
//! `fallback * take` are row constants; and in the advance walk
//! `left / cpi >= interval` is settled by comparing `left` with a
//! per-interval threshold just above `interval * cpi`. A lane runs its
//! stretch of whole pieces in a tight loop over locals (the window SDC in
//! a fixed block of [`SDC_WIDTH`] counters) and writes them back once;
//! every other piece takes the general path.
//!
//! Each program still performs exactly the operations of the
//! [`SingleCoreProfile`] window methods, in the same order, so the
//! results are bit-identical to them (`reference_predict_observed` is the
//! oracle). The operations skipped are those whose result is known: the
//! walks' `start % total`, since a lane's position is always the output
//! of an earlier `% total` (or 0); the per-interval `cycles / insns` CPI
//! division, which the row holds; and on whole pieces the
//! `pos / interval` and `left / cpi` divisions and the multiplications
//! by 1. The memory stall and the fallback-penalty weights accumulate in
//! the SDC walk, piece by piece in the order their own walks would take,
//! which removes the second walk of every window.

use mppm_cache::{Sdc, MAX_ASSOC};

use crate::profile::{MachineSummary, SingleCoreProfile};
use crate::ModelError;

/// Tolerance against float drift at interval edges: a walk with less
/// than this left is done, and a walk this close to the trace end wraps.
const DONE: f64 = 1e-9;

/// The smallest piece a walk takes, so a walk sitting on an interval
/// edge always moves.
const MIN_PIECE: f64 = 1e-12;

/// Counters in a [`Row`]'s SDC block and a lane's window block: 16 ways
/// plus the miss bucket, the widest SDC a validated profile has. Narrower
/// SDCs are padded with zeros, which every sum leaves at zero.
const SDC_WIDTH: usize = MAX_ASSOC as usize + 1;

/// The constants every walk reads for one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    /// `cycles / insns`.
    cpi: f64,
    /// `interval * cpi`: the cycles of a whole interval, as `take * cpi`
    /// gives them.
    cycles: f64,
    /// The least cycles left that surely fit the whole interval: the next
    /// f64 above `cycles` (and above `DONE`, so the walk is live). `left
    /// >= fits` puts `left` above the exact product `interval * cpi`, so
    /// the rounded `left / cpi` is at least `interval`.
    fits: f64,
    /// `mem_stall * interval / interval`, the stall a whole piece adds.
    stall: f64,
    /// `fallback * interval`, the fallback weight a whole piece adds.
    fallback: f64,
    /// The interval's memory stall cycles, for partial pieces.
    mem_stall: f64,
    /// The interval's fallback miss penalty, for partial pieces.
    fallback_penalty: f64,
    /// The interval's SDC counters, zero-padded to [`SDC_WIDTH`].
    sdc: [f64; SDC_WIDTH],
}

/// A [`SingleCoreProfile`] made ready for [`crate::Mppm::solve`]:
/// validated once, with its whole-trace CPI and one row of per-interval
/// constants per interval, so a caller solving many mixes over the same
/// profiles (a campaign design point) pays for validation and the table
/// once per profile instead of once per mix.
///
/// ```
/// use mppm::{FoaModel, Mppm, MppmConfig, SingleCoreProfile, SolverProfile, SolverScratch};
/// use mppm_obs::Span;
///
/// let a = SingleCoreProfile::synthetic("a", 8, 10, 1_000, 0.5, 0.1, 400.0, 40.0);
/// let b = SingleCoreProfile::synthetic("b", 8, 10, 1_000, 1.5, 0.8, 900.0, 600.0);
/// let (a, b) = (SolverProfile::new(&a)?, SolverProfile::new(&b)?);
/// let mppm = Mppm::new(MppmConfig::default(), FoaModel);
/// let pred = mppm.solve(&[&a, &b], &Span::disabled(), &mut SolverScratch::new())?;
/// assert_eq!(pred.names(), ["a", "b"]);
/// # Ok::<(), mppm::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverProfile {
    name: String,
    machine: MachineSummary,
    cpi_sc: f64,
    /// Instructions per interval.
    interval: f64,
    /// Instructions per trace pass.
    total: f64,
    rows: Vec<Row>,
}

impl SolverProfile {
    /// Validates `profile` and tabulates it.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidProfile`] exactly when
    /// [`SingleCoreProfile::validate`] fails.
    pub fn new(profile: &SingleCoreProfile) -> Result<Self, ModelError> {
        profile.validate()?;
        let interval = profile.interval_insns() as f64;
        let rows = profile
            .intervals
            .iter()
            .map(|iv| {
                let cpi = iv.cpi();
                let cycles = interval * cpi;
                let mut sdc = [0.0; SDC_WIDTH];
                // At most `SDC_WIDTH` counters: the associativity is validated.
                sdc[..iv.sdc.counters().len()].copy_from_slice(iv.sdc.counters());
                Row {
                    cpi,
                    cycles,
                    fits: cycles.max(DONE).next_up(),
                    stall: iv.mem_stall_cycles * interval / interval,
                    fallback: iv.fallback_penalty * interval,
                    mem_stall: iv.mem_stall_cycles,
                    fallback_penalty: iv.fallback_penalty,
                    sdc,
                }
            })
            .collect();
        Ok(Self {
            name: profile.name.clone(),
            machine: profile.machine,
            cpi_sc: profile.cpi_sc(),
            interval,
            total: profile.trace_insns() as f64,
            rows,
        })
    }

    /// Benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Machine parameters the profile was measured on.
    pub fn machine(&self) -> MachineSummary {
        self.machine
    }

    /// Whole-trace isolated CPI ([`SingleCoreProfile::cpi_sc`]).
    pub fn cpi_sc(&self) -> f64 {
        self.cpi_sc
    }

    /// Instructions per interval.
    pub fn interval_insns(&self) -> u64 {
        // Exact: validated traces are at most 2^53 instructions.
        self.interval as u64
    }
}

/// One program's lane: its per-call constants, the solver state carried
/// across steps, the step's outputs and the walk in flight.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lane {
    /// Instructions per interval.
    interval: f64,
    /// Instructions per trace pass.
    pub(crate) total: f64,
    /// Index of the last interval.
    last: usize,
    /// Trace position at the start of the step, in `[0, total)`.
    pub(crate) position: f64,
    /// Instructions executed so far.
    pub(crate) executed: f64,
    /// Instructions to execute before the solver stops.
    pub(crate) target: f64,
    /// Instructions the program advances in this step's window.
    pub(crate) advance: f64,
    /// Average cycles per miss over this step's window.
    pub(crate) penalty: f64,
    /// Walk state: position, length left, and the walk's sums.
    pos: f64,
    left: f64,
    acc: f64,
    stall: f64,
    weighted: f64,
    weight: f64,
    /// The window walk's SDC, zero-padded like the rows.
    sdc: [f64; SDC_WIDTH],
    /// Whether `pos` sits exactly on the start of interval `next`.
    at_edge: bool,
    next: usize,
}

impl Lane {
    /// Starts a walk of `len` at the step's position.
    fn start(&mut self, len: f64) {
        debug_assert!(self.position < self.total, "position is kept modulo the trace");
        self.pos = self.position;
        self.left = len;
        self.acc = 0.0;
        self.at_edge = false;
    }

    /// The interval under the walk and the instruction where it ends. On
    /// an edge the index is the one `pos / interval` gives there.
    fn piece(&self) -> (usize, f64) {
        let idx = if self.at_edge {
            self.next
        } else {
            ((self.pos / self.interval) as usize).min(self.last)
        };
        (idx, (idx as f64 + 1.0) * self.interval)
    }

    /// Moves the walk `take` instructions on from inside interval `idx`,
    /// which ends at `end`, wrapping at the trace end, and notes whether
    /// it stopped on an interval edge.
    fn forward(&mut self, take: f64, idx: usize, end: f64) {
        self.pos += take;
        if self.pos >= self.total - DONE {
            self.pos = 0.0;
            self.next = 0;
            self.at_edge = true;
        } else {
            // `end` is the next interval's start unless `idx` is the last
            // interval, whose end is the trace end handled above.
            self.next = idx + 1;
            self.at_edge = self.pos == end;
        }
    }

    /// The interval after `idx`, wrapping after the last.
    fn interval_after(&self, idx: usize) -> usize {
        if idx == self.last {
            0
        } else {
            idx + 1
        }
    }

    /// Ends a stretch of whole intervals on the edge of interval `next`:
    /// `next * interval` is the position the pieces' `pos + interval`
    /// (or the wrap to 0) reaches, since every edge is an exact f64.
    fn land(&mut self, next: usize) {
        self.next = next;
        self.pos = next as f64 * self.interval;
    }
}

/// Sizes `lanes` to the mix. The profiles are validated and share one
/// machine.
pub(crate) fn init(profiles: &[&SolverProfile], target_passes: f64, lanes: &mut Vec<Lane>) {
    lanes.clear();
    lanes.extend(profiles.iter().map(|p| Lane {
        interval: p.interval,
        total: p.total,
        last: p.rows.len() - 1,
        target: target_passes * p.total,
        ..Lane::default()
    }));
}

/// The step's shared window length `C`: the most cycles any program
/// needs for its next `step` instructions at its current slowdown.
/// Each lane is [`SingleCoreProfile::cycles_in`]`(position, step)`.
pub(crate) fn lockstep_window_cycles(
    lanes: &mut [Lane],
    profiles: &[&SolverProfile],
    slowdown: &[f64],
    step: f64,
) -> f64 {
    for lane in lanes.iter_mut() {
        lane.start(step);
    }
    let mut live = true;
    while live {
        live = false;
        for (lane, p) in lanes.iter_mut().zip(profiles).filter(|(l, _)| l.left > DONE) {
            live = true;
            if lane.at_edge && lane.left >= lane.interval {
                // Whole intervals: `take` is the interval.
                let (mut acc, mut left, mut next) = (lane.acc, lane.left, lane.next);
                while left >= lane.interval {
                    acc += p.rows[next].cycles;
                    left -= lane.interval;
                    next = lane.interval_after(next);
                }
                (lane.acc, lane.left) = (acc, left);
                lane.land(next);
            }
            if lane.left > DONE {
                let (idx, end) = lane.piece();
                let take = lane.left.min(end - lane.pos).max(MIN_PIECE);
                lane.acc += take * p.rows[idx].cpi;
                lane.left -= take;
                lane.forward(take, idx, end);
            }
        }
    }
    lanes.iter().zip(slowdown).map(|(l, &r)| l.acc * r).fold(0.0_f64, f64::max)
}

/// Sets each lane's `advance`: how far the program gets in `c` shared
/// cycles, i.e. [`SingleCoreProfile::insns_for_cycles`]`(position, c / R)`.
pub(crate) fn lockstep_advance(
    lanes: &mut [Lane],
    profiles: &[&SolverProfile],
    slowdown: &[f64],
    c: f64,
) {
    for (lane, &r) in lanes.iter_mut().zip(slowdown) {
        let cycles = c / r;
        assert!(cycles >= 0.0, "cycles must be non-negative");
        lane.start(cycles);
    }
    let mut live = true;
    while live {
        live = false;
        for (lane, p) in lanes.iter_mut().zip(profiles).filter(|(l, _)| l.left > DONE) {
            live = true;
            if lane.at_edge {
                // Whole intervals: `left / cpi` reaches past the edge, so
                // `fit` is the interval. Below the threshold the division
                // decides.
                let (mut acc, mut left, mut next) = (lane.acc, lane.left, lane.next);
                while left >= p.rows[next].fits {
                    acc += lane.interval;
                    left -= p.rows[next].cycles;
                    next = lane.interval_after(next);
                }
                (lane.acc, lane.left) = (acc, left);
                lane.land(next);
            }
            if lane.left > DONE {
                let (idx, end) = lane.piece();
                let cpi = p.rows[idx].cpi;
                let fit = (lane.left / cpi).min(end - lane.pos).max(MIN_PIECE);
                lane.acc += fit;
                lane.left -= fit * cpi;
                lane.forward(fit, idx, end);
            }
        }
    }
    for lane in lanes.iter_mut() {
        lane.advance = lane.acc;
    }
}

/// Walks each lane's window `[position, position + advance)` once:
/// filling `windows[p]` with [`SingleCoreProfile::sdc_in`] and setting
/// the lane's `penalty` to [`SingleCoreProfile::miss_penalty_in`] over
/// the same window: the memory stall and the fallback-penalty weights
/// are summed in the SDC walk.
pub(crate) fn lockstep_windows(
    lanes: &mut [Lane],
    profiles: &[&SolverProfile],
    windows: &mut [Sdc],
    min_misses: f64,
) {
    for lane in lanes.iter_mut() {
        lane.start(lane.advance);
        lane.stall = 0.0;
        lane.weighted = 0.0;
        lane.weight = 0.0;
        lane.sdc = [0.0; SDC_WIDTH];
    }
    let mut live = true;
    while live {
        live = false;
        for (lane, p) in lanes.iter_mut().zip(profiles).filter(|(l, _)| l.left > DONE) {
            live = true;
            if lane.at_edge && lane.left >= lane.interval {
                // Whole intervals: `take / interval` is exactly 1.
                let mut sdc = lane.sdc;
                let (mut stall, mut weighted, mut weight) =
                    (lane.stall, lane.weighted, lane.weight);
                let (mut left, mut next) = (lane.left, lane.next);
                while left >= lane.interval {
                    let row = &p.rows[next];
                    for (dst, src) in sdc.iter_mut().zip(&row.sdc) {
                        *dst += src;
                    }
                    stall += row.stall;
                    weighted += row.fallback;
                    weight += lane.interval;
                    left -= lane.interval;
                    next = lane.interval_after(next);
                }
                lane.sdc = sdc;
                (lane.stall, lane.weighted, lane.weight, lane.left) =
                    (stall, weighted, weight, left);
                lane.land(next);
            }
            if lane.left > DONE {
                let (idx, end) = lane.piece();
                let take = lane.left.min(end - lane.pos).max(MIN_PIECE);
                let row = &p.rows[idx];
                // Every interval holds `interval` instructions (validated).
                let w = take / lane.interval;
                for (dst, src) in lane.sdc.iter_mut().zip(&row.sdc) {
                    *dst += w * src;
                }
                lane.stall += row.mem_stall * take / lane.interval;
                lane.weighted += row.fallback_penalty * take;
                lane.weight += take;
                lane.left -= take;
                lane.forward(take, idx, end);
            }
        }
    }
    for ((lane, window), p) in lanes.iter_mut().zip(windows.iter_mut()).zip(profiles) {
        let assoc = p.machine.llc.assoc;
        window.reset(assoc);
        window.add_counters(&lane.sdc[..=assoc as usize]);
        let misses = window.misses();
        lane.penalty = if misses >= min_misses {
            lane.stall / misses
        } else if lane.weight > 0.0 {
            lane.weighted / lane.weight
        } else {
            0.0
        };
    }
}
