//! The solver's per-step window kernel: the n programs of a mix walk
//! their profile windows in lockstep.
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
//! Each program still performs exactly the operations of the
//! [`SingleCoreProfile`] window methods, in the same order, so the
//! results are bit-identical to them (`reference_predict_observed` is the
//! oracle). Two operations are skipped because their result is known:
//! the walks' `start % total`, since a lane's position is always the
//! output of an earlier `% total` (or 0); and the per-interval `cycles /
//! insns` CPI division, which is read from a table holding the same
//! quotient. The memory stall and the fallback-penalty weights
//! accumulate in the SDC walk, piece by piece in the order their own
//! walks would take, which removes the second walk of every window.

use mppm_cache::Sdc;

use crate::profile::SingleCoreProfile;

/// Tolerance against float drift at interval edges: a walk with less
/// than this left is done, and a walk this close to the trace end wraps.
const DONE: f64 = 1e-9;

/// The smallest piece a walk takes, so a walk sitting on an interval
/// edge always moves.
const MIN_PIECE: f64 = 1e-12;

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
    /// Offset of the program's first interval in the CPI table.
    base: usize,
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
}

impl Lane {
    /// Starts a walk of `len` at the step's position.
    fn start(&mut self, len: f64) {
        debug_assert!(self.position < self.total, "position is kept modulo the trace");
        self.pos = self.position;
        self.left = len;
        self.acc = 0.0;
    }

    /// The interval under the walk and the instruction where it ends.
    fn piece(&self) -> (usize, f64) {
        let idx = ((self.pos / self.interval) as usize).min(self.last);
        (idx, (idx as f64 + 1.0) * self.interval)
    }

    /// Moves the walk `take` instructions on, wrapping at the trace end.
    fn forward(&mut self, take: f64) {
        self.pos += take;
        if self.pos >= self.total - DONE {
            self.pos = 0.0;
        }
    }
}

/// Sizes `lanes` to the mix and builds the per-interval CPI table: the
/// constants every walk of the call reads.
pub(crate) fn init(
    profiles: &[&SingleCoreProfile],
    target_passes: f64,
    lanes: &mut Vec<Lane>,
    cpi: &mut Vec<f64>,
) {
    lanes.clear();
    cpi.clear();
    for p in profiles {
        let total = p.trace_insns() as f64;
        lanes.push(Lane {
            interval: p.interval_insns() as f64,
            total,
            last: p.intervals.len() - 1,
            base: cpi.len(),
            target: target_passes * total,
            ..Lane::default()
        });
        cpi.extend(p.intervals.iter().map(|iv| iv.cpi()));
    }
}

/// The step's shared window length `C`: the most cycles any program
/// needs for its next `step` instructions at its current slowdown.
/// Each lane is [`SingleCoreProfile::cycles_in`]`(position, step)`.
pub(crate) fn lockstep_window_cycles(
    lanes: &mut [Lane],
    cpi: &[f64],
    slowdown: &[f64],
    step: f64,
) -> f64 {
    for lane in lanes.iter_mut() {
        lane.start(step);
    }
    let mut live = true;
    while live {
        live = false;
        for lane in lanes.iter_mut().filter(|l| l.left > DONE) {
            live = true;
            let (idx, end) = lane.piece();
            let take = lane.left.min(end - lane.pos).max(MIN_PIECE);
            lane.acc += take * cpi[lane.base + idx];
            lane.left -= take;
            lane.forward(take);
        }
    }
    lanes.iter().zip(slowdown).map(|(l, &r)| l.acc * r).fold(0.0_f64, f64::max)
}

/// Sets each lane's `advance`: how far the program gets in `c` shared
/// cycles, i.e. [`SingleCoreProfile::insns_for_cycles`]`(position, c / R)`.
pub(crate) fn lockstep_advance(lanes: &mut [Lane], cpi: &[f64], slowdown: &[f64], c: f64) {
    for (lane, &r) in lanes.iter_mut().zip(slowdown) {
        let cycles = c / r;
        assert!(cycles >= 0.0, "cycles must be non-negative");
        lane.start(cycles);
    }
    let mut live = true;
    while live {
        live = false;
        for lane in lanes.iter_mut().filter(|l| l.left > DONE) {
            live = true;
            let (idx, end) = lane.piece();
            let cpi = cpi[lane.base + idx];
            let fit = (lane.left / cpi).min(end - lane.pos).max(MIN_PIECE);
            lane.acc += fit;
            lane.left -= fit * cpi;
            lane.forward(fit);
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
    profiles: &[&SingleCoreProfile],
    lanes: &mut [Lane],
    windows: &mut [Sdc],
    min_misses: f64,
) {
    let assoc = profiles[0].machine.llc.assoc;
    for (lane, window) in lanes.iter_mut().zip(windows.iter_mut()) {
        lane.start(lane.advance);
        lane.stall = 0.0;
        lane.weighted = 0.0;
        lane.weight = 0.0;
        window.reset(assoc);
    }
    let mut live = true;
    while live {
        live = false;
        for (p, lane) in lanes.iter_mut().enumerate().filter(|(_, l)| l.left > DONE) {
            live = true;
            let (idx, end) = lane.piece();
            let take = lane.left.min(end - lane.pos).max(MIN_PIECE);
            let iv = &profiles[p].intervals[idx];
            // Every interval holds `interval` instructions (validated).
            windows[p].add_scaled(&iv.sdc, take / lane.interval);
            lane.stall += iv.mem_stall_cycles * take / lane.interval;
            lane.weighted += iv.fallback_penalty * take;
            lane.weight += take;
            lane.left -= take;
            lane.forward(take);
        }
    }
    for (lane, window) in lanes.iter_mut().zip(windows.iter()) {
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
