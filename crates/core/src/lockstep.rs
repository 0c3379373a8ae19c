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
//! Most pieces are whole intervals: the walk sits on an interval edge and
//! has at least an interval left. On such a piece every result is known
//! without a division. The interval is the one after the last piece's;
//! `take / interval` is exactly 1, so the window SDC adds the interval's
//! counters unscaled; `take * cpi`, `mem_stall * take / interval` and
//! `fallback * take` are per-interval constants of the [`Table`]; and in
//! the advance walk `left / cpi >= interval` is settled by comparing
//! `left` with a per-interval threshold just above `interval * cpi`. A
//! lane runs its stretch of whole pieces in a tight loop; every other
//! piece takes the general path.
//!
//! Each program still performs exactly the operations of the
//! [`SingleCoreProfile`] window methods, in the same order, so the
//! results are bit-identical to them (`reference_predict_observed` is the
//! oracle). The operations skipped are those whose result is known: the
//! walks' `start % total`, since a lane's position is always the output
//! of an earlier `% total` (or 0); the per-interval `cycles / insns` CPI
//! division, which the table holds; and on whole pieces the
//! `pos / interval` and `left / cpi` divisions and the multiplications
//! by 1. The memory stall and the
//! fallback-penalty weights accumulate in the SDC walk, piece by piece in
//! the order their own walks would take, which removes the second walk
//! of every window.

use mppm_cache::Sdc;

use crate::profile::SingleCoreProfile;

/// Tolerance against float drift at interval edges: a walk with less
/// than this left is done, and a walk this close to the trace end wraps.
const DONE: f64 = 1e-9;

/// The smallest piece a walk takes, so a walk sitting on an interval
/// edge always moves.
const MIN_PIECE: f64 = 1e-12;

/// Up to this many instructions per trace pass, every interval edge
/// `k * interval` is an exact f64 integer, so `edge / interval == k`.
const EXACT_EDGES: u64 = 1 << 53;

/// Columns of an interval's row in the [`Table`]: `cycles / insns`.
const CPI: usize = 0;
/// `interval * cpi`: the cycles of a whole interval, as `take * cpi`
/// gives them.
const CYCLES: usize = 1;
/// The least cycles left that surely fit the whole interval: the next
/// f64 above `CYCLES` (and above `DONE`, so the walk is live). `left >=
/// FITS` puts `left` above the exact product `interval * cpi`, so the
/// rounded `left / cpi` is at least `interval`.
const FITS: usize = 2;
/// `mem_stall * interval / interval`, the stall a whole piece adds.
const STALL: usize = 3;
/// `fallback * interval`, the fallback weight a whole piece adds.
const FALLBACK: usize = 4;
/// Start of the interval's SDC counters, which fill the rest of the row.
const SDC: usize = 5;

/// The per-interval constants every walk of a call reads: one row per
/// interval of every program, the programs one after another.
#[derive(Debug, Default)]
pub(crate) struct Table {
    vals: Vec<f64>,
    /// Row length: the constants, then `assoc + 1` SDC counters.
    stride: usize,
}

impl Table {
    /// The row of interval `idx` of `lane`'s program.
    fn interval_row(&self, lane: &Lane, idx: usize) -> &[f64] {
        let at = lane.base + idx * self.stride;
        &self.vals[at..at + self.stride]
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
    /// Offset of the program's first row in the [`Table`].
    base: usize,
    /// Whether the trace is short enough for exact edges
    /// ([`EXACT_EDGES`]); without them every piece takes the general
    /// path.
    exact: bool,
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
            self.at_edge = self.exact;
        } else {
            // `end` is the next interval's start unless `idx` is the last
            // interval, whose end is the trace end handled above.
            self.next = idx + 1;
            self.at_edge = self.exact && self.pos == end;
        }
    }

    /// Moves a walk on an edge over the whole interval `next`: to the
    /// next edge, or to 0 after the last interval. The same position
    /// [`Lane::forward`] reaches, since the edges are exact.
    fn skip_interval(&mut self) {
        if self.next == self.last {
            self.pos = 0.0;
            self.next = 0;
        } else {
            self.pos += self.interval;
            self.next += 1;
        }
    }
}

/// Sizes `lanes` to the mix and builds the per-interval [`Table`]: the
/// constants every walk of the call reads. The profiles are validated
/// and share one machine, so every row has the same length.
pub(crate) fn init(
    profiles: &[&SingleCoreProfile],
    target_passes: f64,
    lanes: &mut Vec<Lane>,
    table: &mut Table,
) {
    lanes.clear();
    table.vals.clear();
    table.stride = SDC + profiles[0].machine.llc.assoc as usize + 1;
    for p in profiles {
        let interval = p.interval_insns() as f64;
        let total = p.trace_insns() as f64;
        lanes.push(Lane {
            interval,
            total,
            last: p.intervals.len() - 1,
            base: table.vals.len(),
            exact: p.trace_insns() <= EXACT_EDGES,
            target: target_passes * total,
            ..Lane::default()
        });
        for iv in &p.intervals {
            let cpi = iv.cpi();
            let cycles = interval * cpi;
            table.vals.extend_from_slice(&[
                cpi,
                cycles,
                cycles.max(DONE).next_up(),
                iv.mem_stall_cycles * interval / interval,
                iv.fallback_penalty * interval,
            ]);
            debug_assert_eq!(iv.sdc.counters().len(), table.stride - SDC, "validated assoc");
            table.vals.extend_from_slice(iv.sdc.counters());
        }
    }
}

/// The step's shared window length `C`: the most cycles any program
/// needs for its next `step` instructions at its current slowdown.
/// Each lane is [`SingleCoreProfile::cycles_in`]`(position, step)`.
pub(crate) fn lockstep_window_cycles(
    lanes: &mut [Lane],
    table: &Table,
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
            // Whole intervals: `take` is the interval.
            while lane.at_edge && lane.left >= lane.interval {
                lane.acc += table.interval_row(lane, lane.next)[CYCLES];
                lane.left -= lane.interval;
                lane.skip_interval();
            }
            if lane.left > DONE {
                let (idx, end) = lane.piece();
                let take = lane.left.min(end - lane.pos).max(MIN_PIECE);
                lane.acc += take * table.interval_row(lane, idx)[CPI];
                lane.left -= take;
                lane.forward(take, idx, end);
            }
        }
    }
    lanes.iter().zip(slowdown).map(|(l, &r)| l.acc * r).fold(0.0_f64, f64::max)
}

/// Sets each lane's `advance`: how far the program gets in `c` shared
/// cycles, i.e. [`SingleCoreProfile::insns_for_cycles`]`(position, c / R)`.
pub(crate) fn lockstep_advance(lanes: &mut [Lane], table: &Table, slowdown: &[f64], c: f64) {
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
            // Whole intervals: `left / cpi` reaches past the edge, so
            // `fit` is the interval. Below the threshold the division
            // decides.
            while lane.at_edge && lane.left >= table.interval_row(lane, lane.next)[FITS] {
                lane.acc += lane.interval;
                lane.left -= table.interval_row(lane, lane.next)[CYCLES];
                lane.skip_interval();
            }
            if lane.left > DONE {
                let (idx, end) = lane.piece();
                let cpi = table.interval_row(lane, idx)[CPI];
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
    profiles: &[&SingleCoreProfile],
    lanes: &mut [Lane],
    table: &Table,
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
            // Whole intervals: `take / interval` is exactly 1.
            while lane.at_edge && lane.left >= lane.interval {
                let row = table.interval_row(lane, lane.next);
                windows[p].add_counters(&row[SDC..]);
                lane.stall += row[STALL];
                lane.weighted += row[FALLBACK];
                lane.weight += lane.interval;
                lane.left -= lane.interval;
                lane.skip_interval();
            }
            if lane.left > DONE {
                let (idx, end) = lane.piece();
                let take = lane.left.min(end - lane.pos).max(MIN_PIECE);
                let iv = &profiles[p].intervals[idx];
                // Every interval holds `interval` instructions (validated).
                windows[p].add_scaled(&iv.sdc, take / lane.interval);
                lane.stall += iv.mem_stall_cycles * take / lane.interval;
                lane.weighted += iv.fallback_penalty * take;
                lane.weight += take;
                lane.left -= take;
                lane.forward(take, idx, end);
            }
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
