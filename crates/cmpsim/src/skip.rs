//! Skip-ahead re-iteration (DESIGN.md §9.1): after a core's private
//! caches have settled, each of its bursts costs O(1), bit for bit.
//!
//! [`crate::MixSim`] re-iterates every program until the slowest one has
//! finished its window, and most of that replay is compute-bound
//! programs whose passes repeat exactly. Three facts, each checked at run
//! time, let a burst jump straight to its LLC access:
//!
//! 1. **Private state repeats.** L1D and L2 are private LRU caches fed
//!    only by the core's own trace, which repeats every pass. If their
//!    logical state ([`crate::CoreEngine`]'s resident blocks, set by set
//!    in rank order) is the same at two points one pass apart, every
//!    later pass has the same hits, misses, LLC accesses and f64 cycle
//!    addends. A [`Recording`] snapshots that state where it starts,
//!    records one pass of LLC *segments* (the ops after one LLC access
//!    up to the next) and compares the state one pass later.
//! 2. **Binade-exact sums.** While the clock `c0` and the result stay in
//!    `[2^e, 2^(e+1))`, the in-order chain `c0 + a_1 + … + a_n` equals
//!    `c0 + K·2^(e−52)` with `K = Σ round_ties_even(a_i·2^(52−e))`,
//!    provided no addend is an exact tie at that ulp: each partial sum
//!    is a multiple of the ulp, so each add rounds its addend alone. A
//!    segment records `K` for [`BINADES`] binades from the one its
//!    recording started in, and marks a binade unusable on a tie.
//! 3. **No limit stops in between.** A skip is taken only when the
//!    segment's LLC access starts before the burst's limit, so the exact
//!    walk would stop at that access too. Once a core has completed its
//!    window its limit is a whole pass ahead, so every burst qualifies,
//!    and the `BurstStop` sequence, the heap traffic and the pass count
//!    are what the exact walk gives.
//!
//! A skip moves the core's position on without walking its chunk, which
//! stays where the first skip found it. When a skip is not possible (the
//! clock left the recorded binades, a tie, a limit in the way), the core
//! catches up: it walks the private side alone from that point to the
//! same offset in the pass, with no cycles charged and no LLC access,
//! and then bursts exactly. Recordings are shared by the cores that run
//! the same spec at the same core factor, and capped at
//! [`MAX_SEGMENTS`], so memory-bound programs keep the exact path.

use mppm_trace::BenchmarkSpec;

use crate::engine::Tally;
use crate::feed;
use crate::{BurstStop, CoreEngine};

/// Binades each segment holds sums for: a 16x to 32x clock range from
/// where its recording started (a fast program's clock grows about as
/// much as the slowest program's CPI is larger than its own, times the
/// passes the slowest one still has to run).
pub(crate) const BINADES: usize = 5;

/// Most segments (LLC accesses per pass) a recording holds.
pub(crate) const MAX_SEGMENTS: usize = 1 << 14;

/// Recording attempts per spec and run.
const MAX_ATTEMPTS: u32 = 2;

/// The stored fraction bits of an f64.
const MANTISSA: u64 = (1 << 52) - 1;

/// A segment word: the untagged block in the low bits (every trace
/// block fits them), the phase above, the store flag on top.
const BLOCK_BITS: u32 = 44;
const PHASE_BITS: u32 = 19;

/// The `dk` marker of a segment whose higher sums are kept whole.
const LONG: i16 = i16::MIN;

/// `2^-j` for each binade offset `j`.
const HALVES: [f64; BINADES] = [1.0, 0.5, 0.25, 0.125, 0.0625];

/// The unbiased exponent of a positive normal `x`: `x ∈ [2^e, 2^(e+1))`.
fn binade(x: f64) -> i32 {
    // The biased exponent is 11 bits.
    i32::from(u16::try_from(x.to_bits() >> 52 & 0x7FF).expect("11 bits")) - 1023
}

/// Fact 2: `c0` plus a chain whose binade sum at `c0`'s binade is `sum`,
/// or `None` if the chain would reach the next binade. Within the binade
/// the clock's bits advance by the sum.
#[inline(always)]
fn binade_advance(c0: f64, sum: u64) -> Option<f64> {
    let bits = c0.to_bits();
    if sum >= (1 << 52) - (bits & MANTISSA) {
        return None;
    }
    Some(f64::from_bits(bits + sum))
}

/// One addend rounded to the ulp of every binade of the window.
#[derive(Debug, Clone, Copy, Default)]
struct Rounded {
    k: [u64; BINADES],
    /// Bit `j`: the addend is an exact tie at binade `j`'s ulp.
    ties: u8,
}

impl Rounded {
    /// `scaled` is the addend times the window's first ulp inverse,
    /// `2^(52−e0)`; every scaling here is by a power of two, so exact.
    #[inline(always)]
    fn of(scaled: f64) -> Self {
        let mut r = Self::default();
        for (j, half) in HALVES.iter().enumerate() {
            let x = scaled * half;
            let n = x.round_ties_even();
            if (x - n).abs() == 0.5 {
                r.ties |= 1 << j;
            }
            // Saturates for addends no binade of the window can hold.
            r.k[j] = n as u64;
        }
        r
    }
}

/// The open segment's sums: what a recording walk tallies
/// ([`CoreEngine::run_fed`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sums {
    /// `2^(52−e0)`.
    scale: f64,
    k: [u64; BINADES],
    ties: u8,
    /// The walked phase's base CPI and L2-hit stall, rounded.
    base: Rounded,
    l2: Rounded,
}

impl Sums {
    #[inline(always)]
    fn add(&mut self, r: Rounded) {
        for (k, add) in self.k.iter_mut().zip(r.k) {
            *k = k.saturating_add(add);
        }
        self.ties |= r.ties;
    }
}

impl Tally for Sums {
    fn phase(&mut self, base_cpi: f64, l2_stall: f64) {
        self.base = Rounded::of(base_cpi * self.scale);
        self.l2 = Rounded::of(l2_stall * self.scale);
    }

    #[inline(always)]
    fn compute(&mut self, cost: f64) {
        self.add(Rounded::of(cost * self.scale));
    }

    #[inline(always)]
    fn l1_hit(&mut self) {
        self.add(self.base);
    }

    #[inline(always)]
    fn l2_hit(&mut self) {
        self.add(self.base);
        self.add(self.l2);
    }
}

/// The catch-up walk: the private side alone.
struct Replay;

impl Tally for Replay {
    const REPLAY: bool = true;
}

/// Where a spec's recording stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// No pass recorded yet.
    Idle,
    /// Core `owner` is recording the pass that began at position `start`.
    Recording { owner: usize, start: u64 },
    /// The pass from `start` repeats: skips may start at any segment end
    /// at or past it.
    Verified { start: u64 },
    /// Not for this run: too many segments, or the attempts ran out.
    Off,
}

/// One pass of a spec's LLC segments, shared by the cores that run it
/// at the same core factor. Pooled in the [`crate::SimArena`]: a reset
/// keeps every buffer's capacity.
#[derive(Debug)]
pub(crate) struct Recording {
    status: Status,
    attempts: u32,
    /// The first binade of the window.
    e0: i32,
    /// The owner's private state where the recording started.
    snapshot: Vec<u64>,
    open: Sums,
    /// Per segment: where its LLC access ends, as an offset from the
    /// start (the last is the pass length).
    end: Vec<u32>,
    /// Per segment: its access's untagged block, phase and store flag.
    word: Vec<u64>,
    /// Per segment: the sum `K` at binade `e0`, …
    k0: Vec<u64>,
    /// … and at `e0 + j` as `K_j − (K_0 >> j)`, for `j ≥ 1`; [`LONG`]
    /// first for the few long segments, where one does not fit …
    dk: Vec<[i16; BINADES - 1]>,
    /// … whose sums at `e0 + 1..` are kept whole, by segment.
    long: Vec<(usize, [u64; BINADES - 1])>,
    /// Per segment: bit `j` marks binade `e0 + j` unusable.
    unusable: Vec<u8>,
}

impl Recording {
    fn new() -> Self {
        Self {
            status: Status::Idle,
            attempts: 0,
            e0: 0,
            snapshot: Vec::new(),
            open: Sums::default(),
            end: Vec::new(),
            word: Vec::new(),
            k0: Vec::new(),
            dk: Vec::new(),
            long: Vec::new(),
            unusable: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.status = Status::Idle;
        self.attempts = 0;
        self.snapshot.clear();
        self.clear_segments();
    }

    fn clear_segments(&mut self) {
        self.end.clear();
        self.word.clear();
        self.k0.clear();
        self.dk.clear();
        self.long.clear();
        self.unusable.clear();
    }

    /// Starts recording at the start of `owner`'s next burst, which
    /// follows an LLC access; the core has reached the LLC `llc_stops`
    /// times so far, about a pass's worth.
    fn begin(&mut self, engine: &CoreEngine, owner: usize, llc_stops: u64) {
        let e0 = binade(engine.cycles());
        let fits = u32::try_from(engine.trace_insns()).is_ok()
            && engine.spec().phases().len() <= 1 << PHASE_BITS
            && (0..=900).contains(&e0);
        if !fits || llc_stops > MAX_SEGMENTS as u64 || self.attempts == MAX_ATTEMPTS {
            self.status = Status::Off;
            return;
        }
        self.attempts += 1;
        self.snapshot.clear();
        self.snapshot.reserve_exact(engine.private_state().count());
        self.snapshot.extend(engine.private_state());
        self.clear_segments();
        // A settled pass reaches the LLC no more often than the cold
        // first one did, as a rule: size the segment lists once.
        let segments = usize::try_from(llc_stops).expect("at most MAX_SEGMENTS");
        self.end.reserve_exact(segments);
        self.word.reserve_exact(segments);
        self.k0.reserve_exact(segments);
        self.dk.reserve_exact(segments);
        self.unusable.reserve_exact(segments);
        self.e0 = e0;
        let biased = (52 - e0 + 1023) as u64;
        self.open = Sums { scale: f64::from_bits(biased << 52), ..Sums::default() };
        self.status = Status::Recording { owner, start: engine.insns() };
    }

    /// Closes the open segment at the LLC access the owner's burst just
    /// stopped at. At the end of a pass, checks that the private state
    /// repeats (fact 1) and returns whether the recording now holds.
    fn close_segment(&mut self, engine: &CoreEngine, start: u64) -> bool {
        let (block, store, phase) =
            engine.pending_access().expect("an LLC stop leaves its access pending");
        let trace = engine.trace_insns();
        let off = engine.insns() - start;
        if off > trace || self.end.len() == MAX_SEGMENTS {
            self.fail();
            return false;
        }
        self.end.push(u32::try_from(off).expect("recorded passes fit 32 bits"));
        self.word.push(block | (phase as u64) << BLOCK_BITS | u64::from(store) << 63);
        let sums = std::mem::replace(&mut self.open.k, [0; BINADES]);
        let mut unusable = std::mem::take(&mut self.open.ties);
        for (j, &k) in sums.iter().enumerate() {
            // No clock in the binade can take a sum this large.
            if k >= 1 << 52 {
                unusable |= 1 << j;
            }
        }
        let mut dk = [0; BINADES - 1];
        for (d, (j, &k)) in dk.iter_mut().zip(sums.iter().enumerate().skip(1)) {
            // |K_j − K_0 / 2^j| is at most about the segment's op count.
            match i16::try_from(i128::from(k) - i128::from(sums[0] >> j)) {
                Ok(fits) if fits != LONG => *d = fits,
                _ => {
                    let mut whole = [0; BINADES - 1];
                    whole.copy_from_slice(&sums[1..]);
                    self.long.push((self.k0.len(), whole));
                    dk[0] = LONG;
                    break;
                }
            }
        }
        self.k0.push(sums[0]);
        self.dk.push(dk);
        self.unusable.push(unusable);
        if off < trace {
            return false;
        }
        if engine.private_state().eq(self.snapshot.iter().copied()) {
            self.status = Status::Verified { start };
            true
        } else {
            self.fail();
            false
        }
    }

    fn fail(&mut self) {
        self.clear_segments();
        self.status = if self.attempts < MAX_ATTEMPTS { Status::Idle } else { Status::Off };
    }

    /// The segment that follows the one ending `off` instructions past
    /// the start, if one ends there.
    fn segment_after(&self, off: u64, trace: u64) -> Option<usize> {
        let off = match off % trace {
            0 => trace,
            off => off,
        };
        let i = self.end.binary_search(&u32::try_from(off).ok()?).ok()?;
        Some(if i + 1 == self.end.len() { 0 } else { i + 1 })
    }
}

/// One core's skip-ahead state.
#[derive(Debug, Clone, Copy, Default)]
struct CoreSkip {
    /// Its recording.
    slot: usize,
    /// The last burst stopped at an LLC access, so the next starts a
    /// segment.
    at_llc: bool,
    /// Where the held chunk stands when skips have run the position
    /// ahead of it.
    behind: Option<u64>,
    /// The next segment, when known without a search.
    next: Option<usize>,
    /// LLC stops so far.
    llc_stops: u64,
    bursts: u64,
    insns: u64,
    fallbacks: u64,
}

/// The skip-ahead layer over every fed core of a run: the cores' states
/// and the recordings they share. Pooled in the [`crate::SimArena`].
#[derive(Debug, Default)]
pub(crate) struct Skipper {
    /// The position recordings may start from: the end of the warmup.
    from: u64,
    cores: Vec<CoreSkip>,
    /// One per distinct `(spec, core factor)` of the run, first; spare
    /// ones after.
    recordings: Vec<Recording>,
}

/// What skipping did in a run, published as `sim.skip.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SkipStats {
    /// Bursts replaced by a skip.
    pub(crate) bursts: u64,
    /// Whole trace passes skipped, summed over cores.
    pub(crate) passes: u64,
    /// Catch-ups: a skipping core that had to burst exactly again.
    pub(crate) fallbacks: u64,
}

impl Skipper {
    /// Readies the layer for a run of `specs` at `factors` whose warmup
    /// ends at position `warmup_insns`: cores that share a spec and a
    /// core factor share a recording, and each recording starts once a
    /// core is past the warmup. (LRU state is settled a pass into the
    /// trace, so a recording that starts earlier fails its check and
    /// starts again a pass later.)
    pub(crate) fn reset(&mut self, specs: &[&BenchmarkSpec], factors: &[f64], warmup_insns: u64) {
        self.from = warmup_insns;
        self.cores.clear();
        let mut slots = 0;
        for (idx, (&spec, factor)) in specs.iter().zip(factors).enumerate() {
            let twin = (0..idx).find(|&j| {
                factors[j].to_bits() == factor.to_bits()
                    && (std::ptr::eq(specs[j], spec) || *specs[j] == *spec)
            });
            let slot = match twin {
                Some(j) => self.cores[j].slot,
                None => {
                    slots += 1;
                    slots - 1
                }
            };
            self.cores.push(CoreSkip { slot, ..CoreSkip::default() });
        }
        while self.recordings.len() < slots {
            self.recordings.push(Recording::new());
        }
        for recording in &mut self.recordings[..slots] {
            recording.reset();
        }
    }

    /// [`CoreEngine::run_until_llc`] for the fed engine of core `idx`:
    /// a skip when the core's recording allows one, otherwise a burst
    /// with `refeed` handing the engine its chunks (after a catch-up if
    /// skips have run ahead), recording the pass when one is due.
    #[inline]
    pub(crate) fn burst(
        &mut self,
        engine: &mut CoreEngine,
        idx: usize,
        limit: u64,
        mut refeed: impl FnMut(&mut CoreEngine),
    ) -> BurstStop {
        let core = &mut self.cores[idx];
        let rec = &mut self.recordings[core.slot];
        if core.at_llc {
            match rec.status {
                Status::Verified { start } => {
                    if let Some(stop) = try_skip(engine, core, rec, start, limit) {
                        return stop;
                    }
                    if let Some(chunk_at) = core.behind.take() {
                        catch_up(engine, chunk_at, &mut refeed);
                        core.fallbacks += 1;
                    }
                }
                Status::Idle if engine.insns() >= self.from => {
                    rec.begin(engine, idx, core.llc_stops);
                }
                _ => {}
            }
        }
        core.next = None;
        let stop = match rec.status {
            Status::Recording { owner, start } if owner == idx => {
                let stop = feed::walk(engine, |e| e.run_fed(limit, &mut rec.open), &mut refeed);
                if matches!(stop, BurstStop::Llc { .. }) && rec.close_segment(engine, start) {
                    core.next = Some(0);
                }
                stop
            }
            _ => feed::burst(engine, limit, &mut refeed),
        };
        core.at_llc = matches!(stop, BurstStop::Llc { .. });
        core.llc_stops += u64::from(core.at_llc);
        stop
    }

    /// What skipping did in the run, with `trace_insns` per pass.
    pub(crate) fn stats(&self, trace_insns: u64) -> SkipStats {
        self.cores.iter().fold(SkipStats::default(), |s, c| SkipStats {
            bursts: s.bursts + c.bursts,
            passes: s.passes + c.insns / trace_insns.max(1),
            fallbacks: s.fallbacks + c.fallbacks,
        })
    }

    /// Instructions core `idx` skipped in the run.
    #[cfg(test)]
    pub(crate) fn skipped_insns(&self, idx: usize) -> u64 {
        self.cores[idx].insns
    }
}

/// Skips core `core`'s next segment of `rec`, verified from `start`, if
/// the three facts hold for it: lands its LLC access pending and returns
/// the stop the exact burst would have.
#[inline(always)]
fn try_skip(
    engine: &mut CoreEngine,
    core: &mut CoreSkip,
    rec: &Recording,
    start: u64,
    limit: u64,
) -> Option<BurstStop> {
    let pos = engine.insns();
    let k = match core.next {
        Some(k) => k,
        None => rec.segment_after(pos.checked_sub(start)?, engine.trace_insns())?,
    };
    let from = k.checked_sub(1).map_or(0, |prev| rec.end[prev]);
    let insns = u64::from(rec.end[k] - from);
    // Fact 3: the access starts at `pos + insns − 1`; at or past the
    // limit, the exact walk stops short of it.
    if pos + insns > limit {
        return None;
    }
    let cycles = engine.cycles();
    let j = usize::try_from(binade(cycles) - rec.e0).ok().filter(|&j| j < BINADES)?;
    if rec.unusable[k] >> j & 1 != 0 {
        return None;
    }
    let sum = match j {
        0 => rec.k0[k],
        _ if rec.dk[k][0] == LONG => {
            let i = rec.long.binary_search_by_key(&k, |&(segment, _)| segment).ok()?;
            rec.long[i].1[j - 1]
        }
        _ => (rec.k0[k] >> j).checked_add_signed(i64::from(rec.dk[k][j - 1]))?,
    };
    let stamp = binade_advance(cycles, sum)?;
    core.behind.get_or_insert(pos);
    let word = rec.word[k];
    let phase = usize::try_from(word >> BLOCK_BITS & ((1 << PHASE_BITS) - 1)).expect("19 bits");
    engine.skip_segment(stamp, phase, word & ((1 << BLOCK_BITS) - 1), word >> 63 != 0, insns);
    core.next = Some(if k + 1 == rec.end.len() { 0 } else { k + 1 });
    core.bursts += 1;
    core.insns += insns;
    Some(BurstStop::Llc { stamp })
}

/// Brings a core whose skips ran its position ahead of its chunk, which
/// stands at `chunk_at`, back in step: walks the private side from there
/// to the same offset in the pass, then restores the position.
fn catch_up(engine: &mut CoreEngine, chunk_at: u64, refeed: impl FnMut(&mut CoreEngine)) {
    let pos = engine.insns();
    let target = chunk_at + (pos - chunk_at) % engine.trace_insns();
    if target > chunk_at {
        engine.set_position(chunk_at);
        feed::walk(engine, |e| e.run_fed(target, &mut Replay), refeed);
        engine.set_position(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-order f64 chain `c0 + a_1 + … + a_n`.
    fn chain(c0: f64, addends: &[f64]) -> f64 {
        addends.iter().fold(c0, |c, a| c + a)
    }

    /// The binade sum of fact 2 at `c0`'s binade, or `None` where the
    /// skip would refuse.
    fn binade_sum(c0: f64, addends: &[f64]) -> Option<f64> {
        let e = binade(c0);
        let scale = f64::from_bits(((52 - e + 1023) as u64) << 52);
        let mut sums = Sums { scale, ..Sums::default() };
        for &a in addends {
            sums.compute(a);
        }
        if sums.ties & 1 != 0 {
            return None;
        }
        binade_advance(c0, sums.k[0])
    }

    #[test]
    fn binade_sums_equal_the_chain_bit_for_bit() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut taken = 0;
        for _ in 0..20_000 {
            let c0 = 1.0 + next() * 1e7;
            let n = 1 + (next() * 40.0) as usize;
            let addends: Vec<f64> = (0..n).map(|_| next() * 600.0 * next()).collect();
            if let Some(sum) = binade_sum(c0, &addends) {
                assert_eq!(sum.to_bits(), chain(c0, &addends).to_bits(), "{c0} {addends:?}");
                taken += 1;
            }
        }
        assert!(taken > 15_000, "most random chains stay in their binade: {taken}");
    }

    #[test]
    fn ties_and_binade_edges_are_refused() {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        // 1 + 2^-33 is an exact tie at the ulp of [2^20, 2^21), 2^-32:
        // the chain rounds it by the parity of the clock, not alone.
        let c0 = 2f64.powi(20) + 1.0;
        let tie = 1.0 + 2f64.powi(-33);
        assert_eq!(binade(c0), 20);
        assert_eq!(binade_sum(c0, &[tie]), None);
        assert_eq!(bits(binade_sum(c0 + 1.0, &[1.0])), bits(Some(chain(c0 + 1.0, &[1.0]))));
        // Sums that reach the next binade are refused, exactly at the
        // edge too.
        let below = 2f64.powi(21) - 1.0;
        let small = [0.5, 0.25];
        assert_eq!(bits(binade_sum(below, &small)), bits(Some(chain(below, &small))));
        assert_eq!(binade_sum(below, &[1.0]), None, "lands exactly on 2^21");
        assert_eq!(binade_sum(below, &[0.75, 0.5]), None);
    }
}
