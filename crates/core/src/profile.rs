//! Single-core simulation profiles: MPPM's only input.
//!
//! A [`SingleCoreProfile`] is what the paper's §2.1 collects during the
//! one-time single-core simulation of each benchmark: for every interval
//! (20M instructions in the paper, 200K at this repo's default scale) the
//! cycle count, the memory component of those cycles, and the LLC
//! stack-distance counters. The profile also records the machine
//! parameters it was measured on ([`MachineSummary`]) so predictions can
//! refuse to mix incompatible profiles.

use mppm_cache::{CacheConfig, Sdc};
use serde::{Deserialize, Serialize};

use crate::{CpiStack, ModelError};

/// The machine parameters a profile was measured on, as far as the model
/// cares: the shared-LLC geometry and the memory latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineSummary {
    /// Shared last-level cache configuration.
    pub llc: CacheConfig,
    /// Main memory access latency in cycles.
    pub mem_latency: u32,
}

/// Per-interval measurements (paper §2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalProfile {
    /// Instructions executed in the interval.
    pub insns: u64,
    /// Cycles the interval took in isolated execution.
    pub cycles: f64,
    /// The memory component of `cycles`: cycles stalled waiting for main
    /// memory (equivalently, the CPI delta versus a perfect LLC, times
    /// `insns`).
    pub mem_stall_cycles: f64,
    /// Stack-distance counters of the interval's LLC accesses.
    pub sdc: Sdc,
    /// Cycles one *additional* LLC miss would cost, used only when the
    /// interval itself observed (almost) no misses so the paper's
    /// `CPI_mem × N / misses` estimate is undefined.
    pub fallback_penalty: f64,
    /// Full cycle breakdown of the interval (the Eyerman-style counter
    /// architecture the paper cites for single-run CPI components).
    /// `stack.total() == cycles` and `stack.mem_component() ==
    /// mem_stall_cycles`.
    #[serde(default)]
    pub stack: CpiStack,
}

impl IntervalProfile {
    /// Isolated-execution CPI of the interval.
    pub fn cpi(&self) -> f64 {
        self.cycles / self.insns as f64
    }

    /// Memory CPI component of the interval.
    pub fn cpi_mem(&self) -> f64 {
        self.mem_stall_cycles / self.insns as f64
    }
}

/// A complete single-core profile of one benchmark on one machine
/// configuration.
///
/// Positions and window lengths are expressed in (possibly fractional)
/// instructions; every window wraps around the trace, mirroring the
/// re-iteration methodology of both the paper and the detailed simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleCoreProfile {
    /// Benchmark name.
    pub name: String,
    /// Machine parameters the profile was measured on.
    pub machine: MachineSummary,
    /// Per-interval measurements. All intervals must have the same length.
    pub intervals: Vec<IntervalProfile>,
}

impl SingleCoreProfile {
    /// Validates the structural invariants the window math relies on.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProfile`] if the profile has no
    /// intervals, intervals of unequal length, non-positive cycle counts,
    /// a memory component exceeding total cycles, or SDCs measured at an
    /// associativity other than the machine's LLC associativity.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |detail: String| {
            Err(ModelError::InvalidProfile { name: self.name.clone(), detail })
        };
        if self.intervals.is_empty() {
            return fail("profile has no intervals".into());
        }
        let insns = self.intervals[0].insns;
        if insns == 0 {
            return fail("interval length is zero".into());
        }
        for (i, iv) in self.intervals.iter().enumerate() {
            if iv.insns != insns {
                return fail(format!(
                    "interval {i} has {} insns but interval 0 has {insns}",
                    iv.insns
                ));
            }
            if !iv.cycles.is_finite() || iv.cycles <= 0.0 {
                return fail(format!("interval {i} has non-positive cycles {}", iv.cycles));
            }
            // Written as a negated inclusion so NaN also fails.
            if !(iv.mem_stall_cycles >= 0.0 && iv.mem_stall_cycles <= iv.cycles + 1e-6) {
                return fail(format!(
                    "interval {i} memory stall {} outside [0, {}]",
                    iv.mem_stall_cycles, iv.cycles
                ));
            }
            if let Some(bad) =
                iv.sdc.counters().iter().find(|c| !c.is_finite() || **c < 0.0)
            {
                return fail(format!("interval {i} SDC has invalid counter {bad}"));
            }
            if iv.sdc.assoc() != self.machine.llc.assoc {
                return fail(format!(
                    "interval {i} SDC measured at {}-way but LLC is {}-way",
                    iv.sdc.assoc(),
                    self.machine.llc.assoc
                ));
            }
            if iv.fallback_penalty < 0.0 || !iv.fallback_penalty.is_finite() {
                return fail(format!(
                    "interval {i} fallback penalty {} invalid",
                    iv.fallback_penalty
                ));
            }
            // The CPI stack is optional (absent in older profiles); if
            // populated it must be internally consistent with the totals.
            if iv.stack.total() > 0.0 {
                if let Err(e) = iv.stack.validate() {
                    return fail(format!("interval {i} CPI stack: {e}"));
                }
                if (iv.stack.total() - iv.cycles).abs() > 1e-6 * iv.cycles.max(1.0) {
                    return fail(format!(
                        "interval {i} CPI stack totals {} but cycles are {}",
                        iv.stack.total(),
                        iv.cycles
                    ));
                }
                if (iv.stack.mem_component() - iv.mem_stall_cycles).abs()
                    > 1e-6 * iv.cycles.max(1.0)
                {
                    return fail(format!(
                        "interval {i} CPI stack memory {} but mem_stall is {}",
                        iv.stack.mem_component(),
                        iv.mem_stall_cycles
                    ));
                }
            }
        }
        Ok(())
    }

    /// Instructions per interval.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no intervals; call [`Self::validate`]
    /// first.
    pub fn interval_insns(&self) -> u64 {
        self.intervals[0].insns
    }

    /// Total instructions in one trace pass.
    pub fn trace_insns(&self) -> u64 {
        self.interval_insns() * self.intervals.len() as u64
    }

    /// Whole-trace isolated CPI (the paper's `CPI_SC`).
    pub fn cpi_sc(&self) -> f64 {
        let cycles: f64 = self.intervals.iter().map(|iv| iv.cycles).sum();
        cycles / self.trace_insns() as f64
    }

    /// Whole-trace memory CPI component (the paper's `CPI_mem`).
    pub fn cpi_mem(&self) -> f64 {
        let stall: f64 = self.intervals.iter().map(|iv| iv.mem_stall_cycles).sum();
        stall / self.trace_insns() as f64
    }

    /// Whole-trace CPI stack (per instruction), summed over all intervals.
    /// Zero-valued if the profile's intervals carry no stacks (older
    /// profiles).
    pub fn cpi_stack(&self) -> CpiStack {
        let mut total = CpiStack::default();
        for iv in &self.intervals {
            total.add(&iv.stack);
        }
        total.per_insn(self.trace_insns())
    }

    /// Whole-trace LLC misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        let misses: f64 = self.intervals.iter().map(|iv| iv.sdc.misses()).sum();
        misses * 1000.0 / self.trace_insns() as f64
    }

    /// Whole-trace LLC accesses per kilo-instruction.
    pub fn apki(&self) -> f64 {
        let acc: f64 = self.intervals.iter().map(|iv| iv.sdc.accesses()).sum();
        acc * 1000.0 / self.trace_insns() as f64
    }

    /// Walks the window `[start, start+len)` (in instructions, wrapping
    /// around the trace) and calls `f(interval_index, covered_insns)` for
    /// each piece.
    fn fold_window(&self, start: f64, len: f64, mut f: impl FnMut(usize, f64)) {
        assert!(len >= 0.0 && start >= 0.0, "window must be non-negative");
        let interval = self.interval_insns() as f64;
        let total = self.trace_insns() as f64;
        let mut pos = start % total;
        let mut remaining = len;
        // Tolerance guards against float drift at interval edges.
        while remaining > 1e-9 {
            let idx = ((pos / interval) as usize).min(self.intervals.len() - 1);
            let interval_end = (idx as f64 + 1.0) * interval;
            let take = remaining.min(interval_end - pos).max(1e-12);
            f(idx, take);
            remaining -= take;
            pos += take;
            if pos >= total - 1e-9 {
                pos = 0.0;
            }
        }
    }

    /// Isolated-execution cycles over the window `[start, start+len)`
    /// instructions.
    pub fn cycles_in(&self, start: f64, len: f64) -> f64 {
        let mut cycles = 0.0;
        self.fold_window(start, len, |idx, insns| {
            cycles += insns * self.intervals[idx].cpi();
        });
        cycles
    }

    /// Inverse of [`Self::cycles_in`]: how many instructions fit into
    /// `cycles` isolated-execution cycles starting at `start`.
    pub fn insns_for_cycles(&self, start: f64, cycles: f64) -> f64 {
        assert!(cycles >= 0.0 && start >= 0.0, "cycles must be non-negative");
        let interval = self.interval_insns() as f64;
        let total = self.trace_insns() as f64;
        let mut pos = start % total;
        let mut remaining = cycles;
        let mut insns = 0.0;
        while remaining > 1e-9 {
            let idx = ((pos / interval) as usize).min(self.intervals.len() - 1);
            let cpi = self.intervals[idx].cpi();
            let interval_end = (idx as f64 + 1.0) * interval;
            let fit = (remaining / cpi).min(interval_end - pos).max(1e-12);
            insns += fit;
            remaining -= fit * cpi;
            pos += fit;
            if pos >= total - 1e-9 {
                pos = 0.0;
            }
        }
        insns
    }

    /// Sum of the per-interval SDCs over the window, with fractional
    /// interval coverage scaled proportionally (paper §2.2: "computing the
    /// SDCs for the next time interval is done by simply adding the
    /// per-interval SDCs").
    pub fn sdc_in(&self, start: f64, len: f64) -> Sdc {
        let mut acc = Sdc::new(self.machine.llc.assoc);
        self.fold_window(start, len, |idx, insns| {
            let iv = &self.intervals[idx];
            acc.add_scaled(&iv.sdc, insns / iv.insns as f64);
        });
        acc
    }

    /// Memory stall cycles over the window.
    pub fn mem_stall_in(&self, start: f64, len: f64) -> f64 {
        let mut stall = 0.0;
        self.fold_window(start, len, |idx, insns| {
            let iv = &self.intervals[idx];
            stall += iv.mem_stall_cycles * insns / iv.insns as f64;
        });
        stall
    }

    /// Average penalty of one LLC miss over the window: the paper's
    /// `CPI_mem × N / misses`. When the window saw fewer than `min_misses`
    /// misses the insn-weighted fallback penalty is used instead.
    pub fn miss_penalty_in(&self, start: f64, len: f64, min_misses: f64) -> f64 {
        let misses = self.sdc_in(start, len).misses();
        if misses >= min_misses {
            return self.mem_stall_in(start, len) / misses;
        }
        let mut weighted = 0.0;
        let mut weight = 0.0;
        self.fold_window(start, len, |idx, insns| {
            weighted += self.intervals[idx].fallback_penalty * insns;
            weight += insns;
        });
        if weight > 0.0 {
            weighted / weight
        } else {
            0.0
        }
    }

    /// Derives the profile the same program would produce on a core whose
    /// *compute throughput* is scaled by `1/core_factor` (the paper's §8
    /// heterogeneous-multi-core direction): a little core with
    /// `core_factor = 2` takes twice the base cycles per instruction,
    /// while memory-side stall cycles are unchanged.
    ///
    /// Requires populated CPI stacks (profiles from the bundled simulator
    /// have them); memory-side components (`l2_hit`, `llc_hit`, `memory`,
    /// `queue`) are preserved, the `base` component scales.
    ///
    /// # Panics
    ///
    /// Panics if `core_factor` is not positive and finite, or if any
    /// interval lacks a CPI stack.
    pub fn scaled_core(&self, core_factor: f64) -> SingleCoreProfile {
        assert!(
            core_factor.is_finite() && core_factor > 0.0,
            "core factor must be positive"
        );
        let intervals = self
            .intervals
            .iter()
            .map(|iv| {
                assert!(
                    iv.stack.total() > 0.0,
                    "scaled_core requires profiles with CPI stacks"
                );
                let mut stack = iv.stack;
                stack.base *= core_factor;
                IntervalProfile {
                    insns: iv.insns,
                    cycles: stack.total(),
                    mem_stall_cycles: iv.mem_stall_cycles,
                    sdc: iv.sdc.clone(),
                    fallback_penalty: iv.fallback_penalty,
                    stack,
                }
            })
            .collect();
        let scaled = SingleCoreProfile {
            name: format!("{}@x{core_factor}", self.name),
            machine: self.machine,
            intervals,
        };
        scaled.validate().expect("scaling preserves validity");
        scaled
    }

    /// Builds a flat synthetic profile, mostly useful in tests and docs:
    /// `intervals` identical intervals of `interval_insns` instructions at
    /// `cpi` cycles per instruction, of which `cpi_mem` are memory stall,
    /// with `llc_accesses` LLC accesses per interval of which `llc_misses`
    /// miss (hits spread uniformly over the stack depths).
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic(
        name: &str,
        assoc: u32,
        intervals: usize,
        interval_insns: u64,
        cpi: f64,
        cpi_mem: f64,
        llc_accesses: f64,
        llc_misses: f64,
    ) -> Self {
        assert!(llc_misses <= llc_accesses, "misses cannot exceed accesses");
        let mut sdc = Sdc::new(assoc);
        let hits = llc_accesses - llc_misses;
        let per_depth = Sdc::new(assoc); // zero template
        let _ = per_depth;
        for d in 0..assoc {
            let mut unit = Sdc::new(assoc);
            unit.record(Some(d));
            sdc.add_scaled(&unit, hits / f64::from(assoc));
        }
        let mut miss_unit = Sdc::new(assoc);
        miss_unit.record(None);
        sdc.add_scaled(&miss_unit, llc_misses);
        let mem_stall = cpi_mem * interval_insns as f64;
        let fallback = if llc_misses > 0.0 { mem_stall / llc_misses } else { 200.0 };
        let cycles = cpi * interval_insns as f64;
        let iv = IntervalProfile {
            insns: interval_insns,
            cycles,
            mem_stall_cycles: mem_stall,
            sdc,
            fallback_penalty: fallback,
            stack: CpiStack {
                base: cycles - mem_stall,
                l2_hit: 0.0,
                llc_hit: 0.0,
                memory: mem_stall,
                queue: 0.0,
            },
        };
        let profile = Self {
            name: name.to_string(),
            machine: MachineSummary {
                llc: CacheConfig::new(
                    u64::from(assoc) * 1024 * 64,
                    assoc,
                    64,
                    16,
                ),
                mem_latency: 200,
            },
            intervals: vec![iv; intervals],
        };
        profile.validate().expect("synthetic profile is valid");
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-interval profile with CPI 1.0 then 2.0, 100 insns each.
    fn two_phase() -> SingleCoreProfile {
        let mk = |cpi: f64, mem: f64, misses: f64| {
            let mut sdc = Sdc::new(4);
            let mut unit = Sdc::new(4);
            unit.record(Some(1));
            sdc.add_scaled(&unit, 10.0);
            let mut m = Sdc::new(4);
            m.record(None);
            sdc.add_scaled(&m, misses);
            IntervalProfile {
                insns: 100,
                cycles: cpi * 100.0,
                mem_stall_cycles: mem,
                sdc,
                fallback_penalty: 50.0,
                stack: CpiStack::default(),
            }
        };
        SingleCoreProfile {
            name: "two".into(),
            machine: MachineSummary {
                llc: CacheConfig::new(4 * 64 * 16, 4, 64, 16),
                mem_latency: 200,
            },
            intervals: vec![mk(1.0, 20.0, 5.0), mk(2.0, 60.0, 10.0)],
        }
    }

    #[test]
    fn validate_accepts_good_profile() {
        two_phase().validate().unwrap();
    }

    #[test]
    fn validate_rejects_unequal_intervals() {
        let mut p = two_phase();
        p.intervals[1].insns = 50;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_mem_stall_above_cycles() {
        let mut p = two_phase();
        p.intervals[0].mem_stall_cycles = 1e9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_nan_and_negative_fields() {
        let mut p = two_phase();
        p.intervals[0].mem_stall_cycles = f64::NAN;
        assert!(p.validate().is_err(), "NaN mem stall must fail");

        let mut p = two_phase();
        let mut bad = Sdc::new(4);
        let mut unit = Sdc::new(4);
        unit.record(Some(0));
        bad.add_scaled(&unit, 1.0);
        // Forge a negative counter through scaling paths: serde is the
        // realistic entry point, so go through JSON.
        let mut json = serde_json::to_value(&bad).unwrap();
        json["counters"][0] = serde_json::json!(-5.0);
        p.intervals[0].sdc = serde_json::from_value(json).unwrap();
        assert!(p.validate().is_err(), "negative SDC counter must fail");
    }

    #[test]
    fn validate_rejects_wrong_sdc_assoc() {
        let mut p = two_phase();
        p.intervals[0].sdc = Sdc::new(8);
        assert!(p.validate().is_err());
    }

    #[test]
    fn totals() {
        let p = two_phase();
        assert_eq!(p.trace_insns(), 200);
        assert!((p.cpi_sc() - 1.5).abs() < 1e-12);
        assert!((p.cpi_mem() - 0.4).abs() < 1e-12);
        assert!((p.mpki() - 15.0 * 1000.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_in_whole_trace() {
        let p = two_phase();
        assert!((p.cycles_in(0.0, 200.0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_in_spanning_boundary() {
        let p = two_phase();
        // [50, 150): 50 insns at CPI 1 + 50 at CPI 2 = 150 cycles.
        assert!((p.cycles_in(50.0, 100.0) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_in_wraps() {
        let p = two_phase();
        // [150, 250): 50 insns at CPI 2 + 50 at CPI 1 = 150 cycles.
        assert!((p.cycles_in(150.0, 100.0) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_in_multiple_passes() {
        let p = two_phase();
        // Two full passes.
        assert!((p.cycles_in(0.0, 400.0) - 600.0).abs() < 1e-6);
    }

    #[test]
    fn insns_for_cycles_inverts_cycles_in() {
        let p = two_phase();
        for &(start, len) in &[(0.0, 60.0), (80.0, 150.0), (150.0, 300.0), (10.0, 777.0)] {
            let cycles = p.cycles_in(start, len);
            let insns = p.insns_for_cycles(start, cycles);
            assert!(
                (insns - len).abs() < 1e-6,
                "start {start} len {len}: got {insns}"
            );
        }
    }

    #[test]
    fn sdc_in_scales_fractionally() {
        let p = two_phase();
        // Half of interval 0: half the accesses (15 acc/interval).
        let sdc = p.sdc_in(0.0, 50.0);
        assert!((sdc.accesses() - 7.5).abs() < 1e-9);
        assert!((sdc.misses() - 2.5).abs() < 1e-9);
        // Whole trace: (10+5) + (10+10) = 35 accesses, 15 misses.
        let sdc = p.sdc_in(0.0, 200.0);
        assert!((sdc.accesses() - 35.0).abs() < 1e-9);
        assert!((sdc.misses() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn mem_stall_in_window() {
        let p = two_phase();
        assert!((p.mem_stall_in(0.0, 200.0) - 80.0).abs() < 1e-9);
        assert!((p.mem_stall_in(100.0, 50.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn miss_penalty_uses_measured_when_available() {
        let p = two_phase();
        // Whole trace: 80 stall cycles / 15 misses.
        let pen = p.miss_penalty_in(0.0, 200.0, 1.0);
        assert!((pen - 80.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn miss_penalty_falls_back_when_no_misses() {
        let mut p = two_phase();
        for iv in &mut p.intervals {
            iv.sdc = Sdc::new(4); // no accesses at all
            iv.mem_stall_cycles = 0.0;
        }
        let pen = p.miss_penalty_in(0.0, 200.0, 1.0);
        assert!((pen - 50.0).abs() < 1e-9, "falls back to the recorded penalty");
    }

    #[test]
    fn populated_stack_is_validated() {
        let mut p = two_phase();
        // A consistent stack passes.
        p.intervals[0].stack = CpiStack {
            base: 80.0,
            l2_hit: 0.0,
            llc_hit: 0.0,
            memory: 20.0,
            queue: 0.0,
        };
        p.validate().unwrap();
        // Totals that disagree with `cycles` fail.
        p.intervals[0].stack.base = 10.0;
        assert!(p.validate().is_err());
        // Memory component that disagrees with `mem_stall_cycles` fails.
        p.intervals[0].stack = CpiStack {
            base: 70.0,
            l2_hit: 0.0,
            llc_hit: 0.0,
            memory: 30.0,
            queue: 0.0,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn cpi_stack_aggregates_per_insn() {
        let p = SingleCoreProfile::synthetic("s", 8, 10, 1000, 0.8, 0.2, 100.0, 20.0);
        let stack = p.cpi_stack();
        assert!((stack.total() - 0.8).abs() < 1e-12);
        assert!((stack.mem_component() - 0.2).abs() < 1e-12);
        assert!((stack.base - 0.6).abs() < 1e-12);
    }

    #[test]
    fn synthetic_profile_is_consistent() {
        let p = SingleCoreProfile::synthetic("s", 8, 10, 1000, 0.8, 0.2, 100.0, 20.0);
        p.validate().unwrap();
        assert!((p.cpi_sc() - 0.8).abs() < 1e-12);
        assert!((p.cpi_mem() - 0.2).abs() < 1e-12);
        assert_eq!(p.trace_insns(), 10_000);
        let sdc = p.sdc_in(0.0, 1000.0);
        assert!((sdc.accesses() - 100.0).abs() < 1e-9);
        assert!((sdc.misses() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let p = two_phase();
        let json = serde_json::to_string(&p).unwrap();
        let back: SingleCoreProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
